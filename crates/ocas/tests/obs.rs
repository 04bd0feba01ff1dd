//! Observability integration: worker-count-invariant traces and the
//! simulated-clock attribution identity.

use ocas::experiments;
use ocas_obs::Clock;

/// The deterministic (simulated-clock) event sequence — ids, tracks,
/// names, timestamps, durations, args, fold counts — must be identical
/// for 1, 4 and 8 search workers. Workers only measure; recording happens
/// on the owning thread during the deterministic merge.
#[test]
fn trace_is_identical_across_search_worker_counts() {
    let mut views = Vec::new();
    for workers in [1usize, 4, 8] {
        ocas_obs::start();
        let r = experiments::set_union()
            .run_search(false, workers, Some(200))
            .expect("search succeeds");
        let trace = ocas_obs::finish().expect("recorder was active");
        assert!(r.stats.explored > 0);
        let view = trace.deterministic_view();
        assert!(
            view.iter().any(|l| l.contains("|search|level|")),
            "no search-level spans recorded"
        );
        assert!(
            view.iter().any(|l| l.contains("|candidates|")),
            "no per-rule candidate counters recorded"
        );
        views.push((workers, view));
    }
    let (_, base) = &views[0];
    for (workers, view) in &views[1..] {
        assert_eq!(base, view, "trace diverged at {workers} workers");
    }
}

/// Summing the per-device (`dev:*`) and CPU simulated-clock spans of a
/// full synthesize + execute recording reconstructs the simulator's
/// reported seconds within 1% — the acceptance identity. Holds because
/// `StorageSim` advances its clock only in read/write/charge_cpu, each of
/// which emits a span of exactly the advance.
#[test]
fn sim_span_attribution_reconstructs_simulator_seconds() {
    let e = experiments::set_union();
    ocas_obs::start();
    let synth = e.synthesize().expect("synthesis succeeds");
    let seconds = e.execute(&synth).expect("execution succeeds");
    let trace = ocas_obs::finish().expect("recorder was active");
    assert!(seconds > 0.0, "workload must consume simulated time");

    let by_track = trace.span_seconds_by_track(Clock::Sim);
    let attributed: f64 = by_track
        .iter()
        .filter(|(t, _)| t.starts_with("dev:") || t.as_str() == "cpu")
        .map(|(_, s)| s)
        .sum();
    let rel = (attributed - seconds).abs() / seconds;
    assert!(
        rel < 0.01,
        "attributed {attributed:.6}s vs simulator {seconds:.6}s (relative error {rel:.4})"
    );
    assert!(
        by_track.keys().any(|t| t.starts_with("dev:")),
        "no per-device tracks recorded"
    );

    // The same recording must export a non-trivial Chrome trace document.
    let chrome = trace.to_chrome_json();
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("\"ph\":\"X\""));
}

/// The engine operator span carries the executed plan's name and its
/// row/byte attribution args.
#[test]
fn engine_operator_span_carries_attribution_args() {
    let e = experiments::set_union();
    let synth = e.synthesize().expect("synthesis succeeds");
    ocas_obs::start();
    e.execute(&synth).expect("execution succeeds");
    let trace = ocas_obs::finish().expect("recorder was active");
    let op = trace
        .events
        .iter()
        .find(|ev| trace.track(ev) == "engine")
        .expect("an engine operator span");
    for arg in ["output_rows", "compares", "peak_resident_bytes"] {
        assert!(
            op.args.iter().any(|(n, _)| *n == arg),
            "engine span missing `{arg}`"
        );
    }
}

/// Paper-scale row 1 (`for[HDD >> RAM]` BNL, one-tuple inner blocks)
/// issues O(outer blocks) device requests: each outer block's 2^26-tuple
/// inner scan is one run, where the per-request loop issued 2^26 reads.
/// Counted exactly through the trace (retained events plus folds), and
/// the run spans still attribute the simulator's seconds.
#[test]
fn paper_scale_bnl_no_writeout_issues_o_outer_blocks_requests() {
    let e = experiments::bnl_no_writeout();
    let synth = e.synthesize().expect("synthesis succeeds");
    ocas_obs::start();
    let seconds = e.execute(&synth).expect("execution succeeds");
    let trace = ocas_obs::finish().expect("recorder was active");
    let requests: u64 = trace
        .events
        .iter()
        .filter(|ev| trace.track(ev).starts_with("dev:"))
        .map(|ev| 1 + ev.merged)
        .sum();
    // The 32 MiB outer relation fills the 8 MiB RAM four times; each
    // outer block costs one outer read, one inner run and at most one
    // partial-block read (8 requests in all today).
    assert!((1..=16).contains(&requests), "{requests} device requests");
    let attributed: f64 = trace
        .span_seconds_by_track(Clock::Sim)
        .iter()
        .filter(|(t, _)| t.starts_with("dev:") || t.as_str() == "cpu")
        .map(|(_, s)| s)
        .sum();
    assert!(
        (attributed - seconds).abs() <= 1e-9 * seconds,
        "attributed {attributed} vs simulator {seconds}"
    );
}
