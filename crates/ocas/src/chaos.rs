//! Chaos harness: synthesized Table 1 plans under seeded fault plans.
//!
//! Each [`ChaosWorkload`] is a program the synthesizer actually derived
//! (external merge-sort, GRACE hash join, sorted merge-union, duplicate
//! removal), lowered to a physical plan at faithful scale. The harness
//! executes it under a randomized-but-seeded [`FaultPlan`] on either
//! backend — real temp files or the device simulator — and classifies the
//! result against the robustness trichotomy:
//!
//! 1. **Identical** — the run absorbed or degraded around its faults and
//!    produced output bit-identical to the clean run (on which both
//!    backends agree);
//! 2. **Typed error** — the run failed, but with a typed [`StorageError`]
//!    and a clean backend behind it (no pinned pages, no leaked temp dir);
//! 3. never anything else: a wrong answer is reported as
//!    [`ChaosOutcome::WrongAnswer`] and a panic propagates, both of which
//!    the chaos suite (and the bench `chaos` section) treat as failures.
//!
//! Everything is deterministic in `(workload, fault_seed)`, so a failing
//! seed printed by the nightly sweep replays exactly.
//!
//! [`StorageError`]: ocas_storage::StorageError

use crate::experiments::{self, ExpError, Experiment};
use crate::synth::Synthesis;
use ocas_engine::{
    lower, CpuModel, ExecError, Executor, Mode, Output, Plan, RelSpec, Relation, RowBuf,
};
use ocas_hierarchy::Hierarchy;
use ocas_runtime::{algos, FileBackend, PoolConfig};
use ocas_storage::{FaultPlan, Faulted, RecoveryCounters, RetryPolicy, StorageBackend, StorageSim};
use std::collections::BTreeMap;

/// One synthesized program, lowered and ready to run under faults.
#[derive(Debug, Clone)]
pub struct ChaosWorkload {
    /// Short workload name (`sort`, `grace`, `union`, `dedup`).
    pub name: &'static str,
    /// Target hierarchy (the experiment's own).
    pub hierarchy: Hierarchy,
    /// The lowered physical plan.
    pub plan: Plan,
    /// Faithful-scale input relations.
    pub rel_specs: Vec<RelSpec>,
    /// Base data seed (relation `i` uses `data_seed + i`).
    pub data_seed: u64,
    /// Clean-run output, identical on both backends (the Identical oracle).
    pub oracle: RowBuf,
}

/// How one faulted run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosOutcome {
    /// Completed with output bit-identical to the clean run.
    Identical,
    /// Failed with a typed error (the display string, for reporting).
    TypedError(String),
    /// Completed but the output differs from the clean run — a trichotomy
    /// violation the caller must treat as a failure.
    WrongAnswer,
}

/// One faulted execution, fully classified.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// Workload name.
    pub workload: &'static str,
    /// `"file"` or `"sim"`.
    pub backend: &'static str,
    /// The fault-plan seed.
    pub fault_seed: u64,
    /// Trichotomy classification.
    pub outcome: ChaosOutcome,
    /// Fault-injection and recovery counters of the run.
    pub counters: RecoveryCounters,
    /// Pages still pinned after the run (must be 0; always 0 on `sim`).
    pub pinned_pages: u64,
    /// True when the backend's temp dir survived its drop (must never
    /// happen; always false on `sim`).
    pub leaked_dir: bool,
}

/// Aggregate of many [`ChaosRun`]s (what the bench `chaos` section
/// reports per workload).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosSummary {
    /// Total runs absorbed.
    pub runs: u64,
    /// Runs that ended [`ChaosOutcome::Identical`].
    pub identical: u64,
    /// Runs that ended in a typed error.
    pub typed_errors: u64,
    /// Trichotomy violations (must stay 0).
    pub wrong_answers: u64,
    /// Runs that left a temp dir behind (must stay 0).
    pub leaked_dirs: u64,
    /// Pages still pinned summed over runs (must stay 0).
    pub pinned_pages: u64,
    /// Recovery counters merged over all runs.
    pub counters: RecoveryCounters,
}

impl ChaosSummary {
    /// Folds one run into the aggregate.
    pub fn absorb(&mut self, run: &ChaosRun) {
        self.runs += 1;
        match run.outcome {
            ChaosOutcome::Identical => self.identical += 1,
            ChaosOutcome::TypedError(_) => self.typed_errors += 1,
            ChaosOutcome::WrongAnswer => self.wrong_answers += 1,
        }
        self.leaked_dirs += u64::from(run.leaked_dir);
        self.pinned_pages += run.pinned_pages;
        self.counters.merge(&run.counters);
    }

    /// True when every absorbed run respected the trichotomy and left its
    /// backend clean.
    pub fn clean(&self) -> bool {
        self.wrong_answers == 0 && self.leaked_dirs == 0 && self.pinned_pages == 0
    }
}

/// Summarizes a batch of runs.
pub fn summarize<'a>(runs: impl IntoIterator<Item = &'a ChaosRun>) -> ChaosSummary {
    let mut s = ChaosSummary::default();
    for r in runs {
        s.absorb(r);
    }
    s
}

/// The fault plan a given seed denotes: 1–4 faults of any kind spread
/// over the first `horizon` requests of every device in the hierarchy.
/// Exposed so tests, the bench section and the nightly sweep all replay
/// the same seed into the same plan.
pub fn plan_for(w: &ChaosWorkload, fault_seed: u64) -> FaultPlan {
    let devices: Vec<&str> = w
        .hierarchy
        .ids()
        .map(|id| w.hierarchy.node(id))
        .filter(|n| n.kind != ocas_hierarchy::DeviceKind::Ram)
        .map(|n| n.name.as_str())
        .collect();
    FaultPlan::randomized(fault_seed, &devices, 1 + (fault_seed % 4) as usize, 192)
}

/// Small pool: real eviction pressure at faithful scale, so write-back
/// paths (and torn write-backs) actually materialize.
fn chaos_pool() -> PoolConfig {
    PoolConfig {
        page_bytes: 2048,
        frames: 8,
        ..PoolConfig::default()
    }
}

fn classify(result: Result<RowBuf, String>, oracle: &RowBuf) -> ChaosOutcome {
    match result {
        Ok(out) if &out == oracle => ChaosOutcome::Identical,
        Ok(_) => ChaosOutcome::WrongAnswer,
        Err(e) => ChaosOutcome::TypedError(e),
    }
}

/// Creates the workload's relations on `fb` and runs its plan with the
/// native algorithm.
fn run_on_files(fb: &mut FileBackend, w: &ChaosWorkload) -> Result<RowBuf, ExecError> {
    let mut rels = Vec::new();
    for (i, spec) in w.rel_specs.iter().enumerate() {
        rels.push(Relation::create(fb, spec, true, w.data_seed + i as u64)?);
    }
    match algos::run(fb, &rels, &w.plan)? {
        Some(run) => Ok(run.output),
        None => Err(ExecError::BadParameter(
            "chaos plans need a native algorithm",
        )),
    }
}

/// Creates the workload's relations on the executor's backend and runs its
/// plan through the generic executor.
fn run_on_sim<B: StorageBackend>(
    ex: &mut Executor<B>,
    w: &ChaosWorkload,
) -> Result<RowBuf, ExecError> {
    for (i, spec) in w.rel_specs.iter().enumerate() {
        let rel = Relation::create(&mut ex.sm, spec, true, w.data_seed + i as u64)?;
        ex.add_relation(rel);
    }
    Ok(ex.run(&w.plan)?.output.unwrap_or_default())
}

/// Runs one workload under one fault seed against **real temp files**,
/// classifying the outcome and checking for leaks.
///
/// Panics only on fault-independent setup failures (temp dir creation);
/// anything downstream of injection must surface typed.
pub fn run_file(w: &ChaosWorkload, fault_seed: u64) -> ChaosRun {
    let mut fb = FileBackend::from_hierarchy(&w.hierarchy, chaos_pool())
        .expect("backend setup")
        .with_faults(plan_for(w, fault_seed), RetryPolicy::default());
    let dir = fb.dir().to_path_buf();
    let result = run_on_files(&mut fb, w).map_err(|e| e.to_string());
    let pinned_pages = fb.pinned_pages();
    let counters = fb.recovery_counters().unwrap_or_default();
    drop(fb);
    ChaosRun {
        workload: w.name,
        backend: "file",
        fault_seed,
        outcome: classify(result, &w.oracle),
        counters,
        pinned_pages,
        leaked_dir: dir.exists(),
    }
}

/// Runs one workload under one fault seed on the **device simulator**
/// (faults interposed via [`Faulted`], charged to the simulated clock).
pub fn run_sim(w: &ChaosWorkload, fault_seed: u64) -> ChaosRun {
    let sim = Faulted::new(
        StorageSim::from_hierarchy(&w.hierarchy),
        plan_for(w, fault_seed),
        RetryPolicy::default(),
    );
    let mut ex = Executor::new(sim, Mode::Faithful, CpuModel::disabled());
    let result = run_on_sim(&mut ex, w).map_err(|e| e.to_string());
    ChaosRun {
        workload: w.name,
        backend: "sim",
        fault_seed,
        outcome: classify(result, &w.oracle),
        counters: ex.sm.counters(),
        pinned_pages: 0,
        leaked_dir: false,
    }
}

/// Lowers a synthesis winner with block parameters scaled to faithful
/// data (small `b_in`/`b_out` force real runs, merges and spills; every
/// optimizer-introduced block parameter clamps with them).
fn lowered(
    e: &Experiment,
    synth: &Synthesis,
    rel_specs: &[RelSpec],
    b_in: u64,
    b_out: u64,
) -> Result<Plan, ExpError> {
    let mut params = synth.best.params.clone();
    params.insert("b_in".to_string(), b_in);
    params.insert("b_out".to_string(), b_out);
    for v in params.values_mut() {
        *v = (*v).clamp(1, 64);
    }
    let relations: BTreeMap<String, usize> = rel_specs
        .iter()
        .enumerate()
        .map(|(i, s)| (s.name.clone(), i))
        .collect();
    let cx = lower::LowerCtx {
        params,
        relations,
        output: Output::Discard,
        scratch: "HDD".into(),
    };
    Ok(lower(&synth.best.program, e.spec.hint, &cx)?)
}

/// Builds one workload: runs the lowered plan clean on both backends.
///
/// # Panics
///
/// If the two clean runs disagree: the workload would have no oracle.
fn workload(
    name: &'static str,
    e: &Experiment,
    plan: Plan,
    rel_specs: Vec<RelSpec>,
    data_seed: u64,
) -> Result<ChaosWorkload, ExpError> {
    let mut w = ChaosWorkload {
        name,
        hierarchy: e.hierarchy.clone(),
        plan,
        rel_specs,
        data_seed,
        oracle: RowBuf::new(1),
    };
    let sm = StorageSim::from_hierarchy(&w.hierarchy);
    w.oracle = run_on_sim(
        &mut Executor::new(sm, Mode::Faithful, CpuModel::disabled()),
        &w,
    )?;
    let mut fb = FileBackend::from_hierarchy(&w.hierarchy, chaos_pool())?;
    assert!(
        run_on_files(&mut fb, &w)? == w.oracle,
        "{name}: clean runs on files and on the simulator disagree"
    );
    Ok(w)
}

/// The four chaos workloads: synthesized external sort, GRACE hash join,
/// sorted multiset union and duplicate removal (Table 1 rows 7, 3, 9 and
/// 15), each lowered at faithful scale. Synthesis happens once per call —
/// reuse the returned list across seeds.
pub fn table1_workloads() -> Result<Vec<ChaosWorkload>, ExpError> {
    let mut out = Vec::new();

    // External sorting, shallower search (the 2^k-way shape is the claim).
    let mut e = experiments::external_sorting();
    e.depth = 7;
    e.max_programs = 200;
    let synth = e.synthesize()?;
    let rel_specs = vec![RelSpec::ints("R", "HDD", 600)];
    let plan = lowered(&e, &synth, &rel_specs, 16, 32)?;
    out.push(workload("sort", &e, plan, rel_specs, 9)?);

    // GRACE hash join, search scoped to the hash family.
    let mut e = experiments::grace_hash_join();
    e.exclude_rules = vec![
        "prefetch",
        "fldL-to-trfld",
        "apply-block",
        "swap-iter",
        "swap-iter-cond",
        "order-inputs",
        "seq-ac",
    ];
    e.depth = 3;
    e.max_programs = 100;
    let synth = e.synthesize()?;
    let rel_specs = vec![
        RelSpec::pairs("R", "HDD", 300).with_key_range(50),
        RelSpec::pairs("S", "HDD", 200).with_key_range(50),
    ];
    let plan = lowered(&e, &synth, &rel_specs, 16, 32)?;
    out.push(workload("grace", &e, plan, rel_specs, 42)?);

    // Multiset union over sorted lists.
    let e = experiments::multiset_union_sorted();
    let synth = e.synthesize()?;
    let rel_specs = vec![
        RelSpec::ints("A", "HDD", 400).sorted().with_key_range(200),
        RelSpec::ints("B", "HDD", 300).sorted().with_key_range(200),
    ];
    let plan = lowered(&e, &synth, &rel_specs, 16, 32)?;
    out.push(workload("union", &e, plan, rel_specs, 7)?);

    // Duplicate removal from a sorted list.
    let e = experiments::dedup_sorted();
    let synth = e.synthesize()?;
    let rel_specs = vec![RelSpec::ints("L", "HDD", 500).sorted().with_key_range(120)];
    let plan = lowered(&e, &synth, &rel_specs, 16, 32)?;
    out.push(workload("dedup", &e, plan, rel_specs, 5)?);

    Ok(out)
}
