//! Robustness of the native out-of-core algorithms: graceful ENOSPC
//! degradation (shrink spill extents, fail over to an alternate device)
//! keeps results correct, and every failure path — injected or genuine —
//! leaves the backend clean: no spill extents past the entry watermark,
//! no pinned pages, and typed errors rather than panics.

use ocas_engine::{ExecError, JoinPred, Output, Plan, RelSpec, Relation, RowBuf};
use ocas_hierarchy::{presets, DeviceKind, Hierarchy, NodeProps};
use ocas_runtime::{algos, AlgoRun, FileBackend, PoolConfig};
use ocas_storage::{FaultKind, FaultOp, FaultPlan, RetryPolicy, StorageBackend, StorageError};

/// RAM root with the input HDD, a deliberately tiny scratch device, and a
/// roomy fallback device.
fn tiny_scratch_hierarchy(scratch_bytes: u64) -> Hierarchy {
    let mut h = Hierarchy::new(presets::ram_props("RAM", 1 << 22)).expect("root");
    h.add_child("RAM", presets::hdd_props("HDD"), presets::hdd_edge())
        .expect("hdd");
    h.add_child(
        "RAM",
        NodeProps::new("TINY", scratch_bytes, DeviceKind::Hdd).with_pagesize(4096),
        presets::hdd_edge(),
    )
    .expect("tiny");
    h.add_child("RAM", presets::hdd_props("BIG"), presets::hdd_edge())
        .expect("big");
    h
}

fn backend(h: &Hierarchy) -> FileBackend {
    FileBackend::from_hierarchy(h, PoolConfig::default()).unwrap()
}

/// External sort of relation 0 with its runs on `scratch`.
fn sort(fb: &mut FileBackend, rel: &Relation, scratch: &str) -> Result<AlgoRun, ExecError> {
    let plan = Plan::ExternalSort {
        input: 0,
        fan_in: 4,
        b_in: 64,
        b_out: 128,
        scratch: scratch.into(),
        output: Output::Discard,
    };
    algos::run(fb, std::slice::from_ref(rel), &plan).map(|run| run.expect("native plan"))
}

/// GRACE equi-join of `l` and `r` with its partitions on `spill`.
fn grace(
    fb: &mut FileBackend,
    l: &Relation,
    r: &Relation,
    spill: &str,
) -> Result<AlgoRun, ExecError> {
    let plan = Plan::GraceJoin {
        left: 0,
        right: 1,
        partitions: 4,
        buffer_bytes: 512,
        spill: spill.into(),
        pred: JoinPred::KeyEq,
        output: Output::Discard,
    };
    algos::run(fb, &[l.clone(), r.clone()], &plan).map(|run| run.expect("native plan"))
}

fn sorted_rows(mut rows: RowBuf) -> RowBuf {
    rows.sort();
    rows
}

#[test]
fn sort_degrades_to_smaller_runs_and_fails_over_with_correct_output() {
    let h = tiny_scratch_hierarchy(4096);
    // Clean oracle: same data, scratch on the roomy device.
    let mut clean = backend(&h);
    let rel = Relation::create(&mut clean, &RelSpec::ints("A", "HDD", 2_000), true, 9).unwrap();
    let oracle = sort(&mut clean, &rel, "BIG").unwrap().output;

    // Degrading run: scratch is 4 KiB against 16 KB of runs per merge
    // level, so run formation must shrink and eventually fail over.
    let mut fb = backend(&h).with_spill_fallback("BIG");
    let rel = Relation::create(&mut fb, &RelSpec::ints("A", "HDD", 2_000), true, 9).unwrap();
    let run = sort(&mut fb, &rel, "TINY").unwrap();
    assert_eq!(run.rows, 2_000);
    assert_eq!(run.output, oracle, "degraded sort changed the answer");

    let rec = fb.recovery_counters().expect("degradations recorded");
    assert!(rec.degraded_shrinks > 0, "expected shrink degradations");
    assert_eq!(rec.degraded_failovers, 1, "expected one device failover");
    assert_eq!(fb.pinned_pages(), 0);
}

#[test]
fn grace_join_degrades_spill_partitions_with_correct_output() {
    let h = tiny_scratch_hierarchy(2048);
    let specs = [
        RelSpec::ints("L", "HDD", 800).with_key_range(50),
        RelSpec::ints("R", "HDD", 600).with_key_range(50),
    ];

    let mut clean = backend(&h);
    let l = Relation::create(&mut clean, &specs[0], true, 3).unwrap();
    let r = Relation::create(&mut clean, &specs[1], true, 4).unwrap();
    let oracle = grace(&mut clean, &l, &r, "BIG").unwrap().output;
    assert!(!oracle.is_empty(), "join oracle must produce rows");

    let mut fb = backend(&h).with_spill_fallback("BIG");
    let l = Relation::create(&mut fb, &specs[0], true, 3).unwrap();
    let r = Relation::create(&mut fb, &specs[1], true, 4).unwrap();
    let run = grace(&mut fb, &l, &r, "TINY").unwrap();
    assert_eq!(
        sorted_rows(run.output),
        sorted_rows(oracle),
        "degraded GRACE join changed the answer"
    );

    let rec = fb.recovery_counters().expect("degradations recorded");
    assert!(rec.degradations() > 0, "expected spill degradations");
    assert_eq!(rec.degraded_failovers, 1);
    assert_eq!(fb.pinned_pages(), 0);
}

#[test]
fn injected_no_space_triggers_degradation_not_failure() {
    // A one-shot ENOSPC on the first scratch allocation: the sort shrinks
    // (and the next attempt's request index clears the spec), completing
    // with the right answer on an otherwise roomy device.
    let h = presets::two_hdd_ram(1 << 22);
    let plan = FaultPlan::new().with("HDD2", FaultOp::Alloc, 0, FaultKind::NoSpace);
    let mut fb = FileBackend::from_hierarchy(&h, PoolConfig::default())
        .unwrap()
        .with_faults(plan, RetryPolicy::default());
    let rel = Relation::create(&mut fb, &RelSpec::ints("A", "HDD", 1_500), true, 11).unwrap();
    let run = sort(&mut fb, &rel, "HDD2").unwrap();
    assert_eq!(run.rows, 1_500);
    let rec = fb.recovery_counters().expect("counters with injector");
    assert_eq!(rec.no_space_faults, 1);
    assert!(rec.degraded_shrinks > 0, "ENOSPC must degrade, not fail");
}

/// Satellite: a persistent injected failure mid-sort surfaces a typed
/// error and leaves the backend clean — scratch watermark rolled back to
/// its entry mark, zero pinned pages.
#[test]
fn failed_sort_leaves_no_spill_extents_and_no_pins() {
    let h = presets::two_hdd_ram(1 << 22);
    // Every scratch-device write fails on every retry attempt.
    let mut plan = FaultPlan::new();
    for at in 0..256 {
        plan = plan.with("HDD2", FaultOp::Write, at, FaultKind::Transient);
    }
    let mut fb = FileBackend::from_hierarchy(&h, PoolConfig::default())
        .unwrap()
        .with_faults(plan, RetryPolicy::default());
    let rel = Relation::create(&mut fb, &RelSpec::ints("A", "HDD", 2_000), true, 5).unwrap();
    let mark = fb.watermark("HDD2").unwrap();

    let err = sort(&mut fb, &rel, "HDD2").expect_err("persistent write faults must fail the sort");
    assert!(
        matches!(
            &err,
            ExecError::Storage(StorageError::Transient { device, .. }) if device == "HDD2"
        ),
        "expected a typed transient error, got: {err}"
    );
    assert_eq!(
        fb.watermark("HDD2").unwrap(),
        mark,
        "failed sort leaked spill extents"
    );
    assert_eq!(fb.pinned_pages(), 0, "failed sort leaked pinned pages");
    let rec = fb.recovery_counters().expect("counters with injector");
    assert!(rec.gave_up >= 1);
}

/// Satellite: a persistent injected failure mid-GRACE-partition surfaces a
/// typed error and leaves the backend clean.
#[test]
fn failed_grace_partition_leaves_no_spill_extents_and_no_pins() {
    let h = presets::two_hdd_ram(1 << 22);
    let mut plan = FaultPlan::new();
    for at in 0..256 {
        plan = plan.with("HDD2", FaultOp::Write, at, FaultKind::Transient);
    }
    let mut fb = FileBackend::from_hierarchy(&h, PoolConfig::default())
        .unwrap()
        .with_faults(plan, RetryPolicy::default());
    let l = Relation::create(
        &mut fb,
        &RelSpec::ints("L", "HDD", 800).with_key_range(50),
        true,
        6,
    )
    .unwrap();
    let r = Relation::create(
        &mut fb,
        &RelSpec::ints("R", "HDD", 600).with_key_range(50),
        true,
        7,
    )
    .unwrap();
    let mark = fb.watermark("HDD2").unwrap();

    let err =
        grace(&mut fb, &l, &r, "HDD2").expect_err("persistent spill faults must fail the join");
    assert!(
        matches!(err, ExecError::Storage(StorageError::Transient { .. })),
        "expected a typed transient error, got: {err}"
    );
    assert_eq!(
        fb.watermark("HDD2").unwrap(),
        mark,
        "failed join leaked spill extents"
    );
    assert_eq!(fb.pinned_pages(), 0, "failed join leaked pinned pages");
}

/// Transient faults under the default retry policy are invisible to
/// callers: same rows, recovery counters show the retries.
#[test]
fn transient_faults_are_absorbed_by_retries() {
    let h = presets::two_hdd_ram(1 << 22);
    let plan = FaultPlan::new()
        .with("HDD2", FaultOp::Any, 1, FaultKind::Transient)
        .with("HDD2", FaultOp::Any, 9, FaultKind::Transient)
        .with("HDD2", FaultOp::Any, 14, FaultKind::Latency(0.005));
    let mut fb = FileBackend::from_hierarchy(&h, PoolConfig::default())
        .unwrap()
        .with_faults(plan, RetryPolicy::default());
    let rel = Relation::create(&mut fb, &RelSpec::ints("A", "HDD", 1_200), true, 13).unwrap();
    let run = sort(&mut fb, &rel, "HDD2").unwrap();
    assert_eq!(run.rows, 1_200);
    let mut sorted = RowBuf::new(1);
    for row in run.output.iter() {
        sorted.push(row);
    }
    sorted.sort();
    assert_eq!(run.output, sorted, "output must still be sorted");
    let rec = fb.recovery_counters().expect("counters with injector");
    assert!(rec.retry_successes >= 2);
    assert_eq!(rec.gave_up, 0);
    assert!(rec.latency_spikes <= 1);
}
