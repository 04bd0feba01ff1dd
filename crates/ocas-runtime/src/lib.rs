//! # ocas-runtime — the real-I/O execution backend
//!
//! The paper validates synthesized algorithms by running generated programs
//! on real hardware. This crate closes the reproduction's corresponding
//! gap: it executes `ocas-engine` plans against **actual files on disk**
//! instead of the device simulator, so wall-clock numbers exist next to
//! simulated seconds, and correctness is checked three ways —
//!
//! > OCAL reference interpreter ≡ simulator faithful mode ≡ real files.
//!
//! Three layers:
//!
//! * [`BufferPool`] — a page-granular cache over one backing file: LRU
//!   eviction, pinned pages, dirty-page write-back.
//! * [`FileBackend`] — the [`ocas_storage::StorageBackend`] implementation:
//!   one temp file per hierarchy device, bump-allocated extents
//!   (the simulator's allocator, re-enacted on disk), per-device I/O
//!   counters mirroring [`ocas_storage::DeviceStats`], wall-clock charging.
//! * [`algos`] + [`Runtime`] — genuinely out-of-core algorithm
//!   implementations behind one dispatcher, [`algos::run`] (external
//!   merge-sort runs and GRACE partitions really spill to disk; merge
//!   passes, column zips and duplicate removal stream through bounded
//!   cursors — peak resident tuple memory is metered and independent of
//!   input cardinality), and the entry point that runs a plan for real
//!   alongside its simulated twin, returning a [`RealReport`] with both.
//!   [`TimingMode::DiskBounded`] bounds wall-clock by the disk (fsync +
//!   `O_DIRECT` where available) instead of the kernel page cache.
//!
//! When is which mode authoritative? The **simulator** for paper-scale
//! claims (terabyte workloads, exact modeled devices); the **real backend**
//! for grounding — that a synthesized plan, run against actual bytes,
//! produces exactly the answer the specification's interpreter defines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algos;
pub mod backend;
pub mod pool;
pub mod runtime;

pub use algos::AlgoRun;
pub use backend::{FileBackend, PoolConfig, TimingMode};
pub use pool::{BufferPool, PoolStats};
pub use runtime::{RealReport, Runtime, RuntimeError};
