//! The runtime entry point: execute one physical plan for real, with a
//! twin simulated run for side-by-side seconds.

use crate::algos;
use crate::backend::{FileBackend, PoolConfig};
use crate::pool::PoolStats;
use ocas_engine::{CpuModel, ExecError, Executor, Mode, Plan, RelSpec, Relation, RowBuf};
use ocas_hierarchy::Hierarchy;
use ocas_storage::{DeviceStats, RecoveryCounters, StorageBackend, StorageError, StorageSim};
use std::time::Instant;

/// Runtime failures.
#[derive(Debug)]
pub enum RuntimeError {
    /// Engine-level failure (either backend).
    Exec(ExecError),
    /// Storage-level failure.
    Storage(StorageError),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Exec(e) => write!(f, "execution: {e}"),
            RuntimeError::Storage(e) => write!(f, "storage: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<ExecError> for RuntimeError {
    fn from(e: ExecError) -> Self {
        RuntimeError::Exec(e)
    }
}
impl From<StorageError> for RuntimeError {
    fn from(e: StorageError) -> Self {
        RuntimeError::Storage(e)
    }
}

/// What one real execution measured, next to its simulated twin.
#[derive(Debug)]
pub struct RealReport {
    /// Wall-clock seconds of the real execution, including dirty-page
    /// write-back and sync (input materialization and result harvesting
    /// stay outside the window).
    pub wall_seconds: f64,
    /// Wall-clock seconds spent inside charged I/O requests.
    pub io_seconds: f64,
    /// Simulated seconds of the identical plan on the device simulator.
    pub sim_seconds: f64,
    /// Output rows of the real execution, one flat batch.
    pub output: RowBuf,
    /// Output rows of the simulated faithful twin.
    pub sim_output: RowBuf,
    /// High-water mark of resident tuple bytes inside the native
    /// out-of-core algorithms (`None` for plans that run through the
    /// generic executor, whose faithful mode holds relations in memory).
    pub peak_resident_bytes: Option<u64>,
    /// Per-device I/O counters of the real execution.
    pub real_devices: Vec<(String, DeviceStats)>,
    /// Per-device I/O counters of the simulated twin.
    pub sim_devices: Vec<(String, DeviceStats)>,
    /// Per-device buffer-pool statistics of the real execution.
    pub pools: Vec<(String, PoolStats)>,
    /// True when at least one device of the real execution ran with
    /// `O_DIRECT` engaged (only possible in
    /// [`crate::TimingMode::DiskBounded`] on a filesystem that supports
    /// it). The nightly CI disk-bounded job asserts this so the fallback
    /// path cannot silently become the only path exercised.
    pub direct_io: bool,
    /// Fault-injection and recovery counters of the real execution
    /// (`None` when the run neither injected faults nor degraded).
    pub recovery: Option<RecoveryCounters>,
}

impl RealReport {
    /// True when real and simulated outputs agree row-for-row.
    pub fn outputs_match(&self) -> bool {
        self.output == self.sim_output
    }
}

/// Executes plans against real temp files (and their simulated twins).
#[derive(Debug, Clone)]
pub struct Runtime {
    /// Target hierarchy: devices become files, sizes become capacities.
    pub hierarchy: Hierarchy,
    /// Buffer-pool configuration for the real backend.
    pub pool: PoolConfig,
}

impl Runtime {
    /// A runtime for a hierarchy with default pool settings.
    pub fn new(hierarchy: Hierarchy) -> Runtime {
        Runtime {
            hierarchy,
            pool: PoolConfig::default(),
        }
    }

    /// Overrides the buffer-pool configuration, builder style.
    pub fn with_pool(mut self, pool: PoolConfig) -> Runtime {
        self.pool = pool;
        self
    }

    /// Runs `plan` for real against temp files, then runs the identical
    /// plan faithfully on the device simulator, and reports both.
    ///
    /// `rel_specs` are instantiated in order (plan relation indices refer
    /// to that order) with per-relation seeds `seed + index`, identically
    /// on both backends.
    pub fn run_plan(
        &self,
        plan: &Plan,
        rel_specs: &[RelSpec],
        seed: u64,
    ) -> Result<RealReport, RuntimeError> {
        // Real execution.
        let mut fb = FileBackend::from_hierarchy(&self.hierarchy, self.pool)?;
        let mut rels = Vec::new();
        for (i, spec) in rel_specs.iter().enumerate() {
            rels.push(Relation::create(&mut fb, spec, true, seed + i as u64)?);
        }
        let t0 = Instant::now();
        let (mut output, native) = match algos::run(&mut fb, &rels, plan)? {
            Some(mut run) => (std::mem::take(&mut run.output), Some(run)),
            None => {
                // Nested-loop joins and aggregation run through the generic
                // executor: same faithful semantics, I/O against real files.
                let mut ex = Executor::new(fb, Mode::Faithful, CpuModel::disabled());
                for rel in &rels {
                    ex.add_relation(rel.clone());
                }
                let stats = ex.run(plan)?;
                fb = ex.sm;
                (stats.output.unwrap_or_default(), None)
            }
        };
        // Write-back and sync belong to the measured run: without this,
        // outputs small enough to sit in the buffer pools would be "free".
        fb.flush()?;
        let wall_seconds = t0.elapsed().as_secs_f64();

        // Harvest (uncharged, outside the measured window): device-bound
        // native runs read their output extents back for verification.
        if let Some(run) = native.as_ref().filter(|_| output.is_empty()) {
            for (file, bytes) in &run.out_extents {
                let rows = bytes / (run.out_width as u64 * 8);
                fb.peek_rows(*file, 0, rows, run.out_width, &mut output)?;
            }
        }
        let peak_resident_bytes = native.map(|run| run.peak_resident_bytes);
        let io_seconds = fb.clock();
        let real_devices = fb.all_device_stats();
        let pools = fb.pool_stats();
        let direct_io = fb.any_direct();
        let recovery = fb.recovery_counters();
        drop(fb);

        // Simulated twin: identical plan, identical data.
        let sm = StorageSim::from_hierarchy(&self.hierarchy);
        let mut ex = Executor::new(sm, Mode::Faithful, CpuModel::default());
        for (i, spec) in rel_specs.iter().enumerate() {
            let rel = Relation::create(&mut ex.sm, spec, true, seed + i as u64)?;
            ex.add_relation(rel);
        }
        let sim_stats = ex.run(plan)?;
        let sim_devices: Vec<(String, DeviceStats)> = self
            .hierarchy
            .ids()
            .filter_map(|id| {
                let name = &self.hierarchy.node(id).name;
                ocas_storage::StorageSim::device_stats(&ex.sm, name).map(|s| (name.clone(), s))
            })
            .collect();

        Ok(RealReport {
            wall_seconds,
            io_seconds,
            sim_seconds: sim_stats.seconds,
            output,
            sim_output: sim_stats.output.unwrap_or_default(),
            peak_resident_bytes,
            real_devices,
            sim_devices,
            pools,
            direct_io,
            recovery,
        })
    }
}
