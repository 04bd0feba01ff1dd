//! The out-of-core execution engine.
//!
//! This crate *runs* synthesized algorithms against the simulated storage
//! hierarchy of [`ocas_storage`], producing the "actual running time"
//! column of the paper's Table 1 in simulated seconds. Two modes:
//!
//! * **Faithful** — relations carry real rows; plans execute the real
//!   algorithm end-to-end and their outputs are validated against the OCAL
//!   reference interpreter in the test suite. Used at small scale.
//! * **Simulated** — relations are cardinality + width only; every I/O
//!   request is still charged against the device simulators (so seeks,
//!   erase blocks and read/write interference are enacted exactly), while
//!   the in-memory inner loops are accounted analytically through the CPU
//!   model. Used at the paper's multi-gigabyte scales.
//!
//! **The run rule (simulated mode).** Where nothing else can reach a
//! device between a stretch of back-to-back requests, the operator hands
//! the stretch to the backend as one run
//! ([`StorageBackend::read_run`](ocas_storage::StorageBackend::read_run) /
//! `write_run`), and the simulator charges it exactly what the requests
//! would cost one by one (see [`ocas_storage`] for when each device model
//! can do that in closed form). Three places use it:
//!
//! * a BNL join's inner scan, once per outer block, when the output is
//!   discarded or lives on another device than the inner relation;
//!   compares and emitted rows for the block are then summed in closed
//!   form (the per-block floor/carry step taken once over the block);
//! * an output sink's whole-buffer flushes, when its device holds none of
//!   the operator's inputs, spill or scratch (split at the extent wrap);
//! * the aggregation scan.
//!
//! Everything else keeps the per-request path: faithful mode (it moves
//! real rows and is the oracle the runs are tested against), sinks on a
//! device the operator also reads (the interleaving is the paper's
//! read/write-interference experiment), and HDD writes whose unit is not
//! a whole number of pages (the device model loops over those).
//!
//! The CPU model is what the paper's estimator deliberately ignores (§7.3:
//! "OCAS does not currently model computation costs … underestimation grows
//! the more CPU intensive a task is"); enabling it in the engine while the
//! estimator stays I/O-only reproduces Figure 8's growing gap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod lower;
pub mod plan;
pub mod rel;

pub use exec::{merge_bufs, merge_rows, ExecError, ExecStats, Executor};
pub use lower::{lower, LowerError, WorkloadHint};
pub use plan::{CpuModel, JoinPred, MergeKind, Mode, Output, Plan};
pub use rel::{
    decode_rows, encode_rows, GenMode, RelSpec, Relation, Row, RowBuf, RowGen, RowsView,
    SortedEmitter, DEFAULT_CACHE_BYTES,
};
