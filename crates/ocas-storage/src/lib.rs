//! Simulated storage devices for the OCAS execution engine.
//!
//! The paper evaluates generated C programs on a real machine (1 TB WD hard
//! disk, Apple SSD, Intel CPU cache). This crate is the reproduction's
//! substitute (see DESIGN.md §1): device simulators that enact exactly the
//! I/O requests an algorithm issues and charge simulated time from the same
//! constants the cost model uses (Figure 7). Because the simulator tracks
//! *positional state* — the disk head, flash erase blocks, cache lines — it
//! reproduces the phenomena the paper's experiments rely on:
//!
//! * sequential vs. random hard-disk access (seek iff the head moved),
//! * read/write interference when input and output share a disk,
//! * erase-before-write on flash (one erase per touched erase block),
//! * cache misses under tiled vs. untiled access streams.
//!
//! **Runs.** [`StorageBackend::read_run`] / [`StorageBackend::write_run`]
//! issue `count` back-to-back requests of `unit` bytes. Their default
//! bodies loop over `read` / `write`, so real backends and fault wrappers
//! keep per-request semantics. [`StorageSim`] charges a run as one traced
//! request whose cost equals the loop's: the same seeks, erases and bytes,
//! and the same seconds up to float summation order. Each device model
//! decides how:
//!
//! * HDD reads: exact for any unit. After the first request, a forward run
//!   never seeks and pays the page-rounded high-water mark minus the head.
//! * HDD writes: exact when the unit is a whole number of pages (every
//!   later request has the same page-rounded span, and seeks iff the run
//!   is misaligned); other units loop request by request.
//! * Flash: reads are stateless, and a forward write run erases exactly
//!   the blocks one request over its whole span would.
//! * RAM: free, bytes only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod device;
pub mod fault;
pub mod manager;

pub use backend::StorageBackend;
pub use cache::{CacheSim, CacheStats};
pub use device::{DeviceSim, DeviceStats, FlashSim, HddSim, RamSim};
pub use fault::{FaultKind, FaultOp, FaultPlan, FaultSpec, Faulted, RecoveryCounters, RetryPolicy};
pub use manager::{FileId, StorageError, StorageSim};
