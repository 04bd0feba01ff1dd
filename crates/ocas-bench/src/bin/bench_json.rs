//! Emits the `BENCH_results.json` trajectory point: Table 1 rows, Figure 8
//! points, the Figure 7 device constants, the cache-miss companion, the
//! engine data-path throughput (faithful rows/sec per plan template on both
//! backends), the synthesis-search statistics, the faithful-scale twins,
//! the `obs` recorder totals, the chaos sweep, and the real-I/O workloads
//! (wall-clock + simulated seconds side by side). It prints one summary
//! line per entry, and fails if a claim of the document does not hold (see
//! "must" below), with or without `--check`.
//!
//! Usage: `cargo run --release -p ocas-bench --bin bench_json [-- OPTIONS]`
//!
//! * `--out <path>`           output file (default `BENCH_results.json`)
//! * `--real-only`            skip the synthesis-heavy Table 1 / Figure 8 runs
//! * `--real-scale <n>`       multiply the real-workload cardinalities
//! * `--engine-scale <n>`     multiply the engine-throughput cardinalities
//! * `--engine-before <path>` prior document whose `engine` section becomes
//!   the before-numbers (`before_rows_per_sec` / `speedup` per entry)
//! * `--check <path>`         compare this run against a baseline document
//!   and exit non-zero on regressions (see "What `--check` gates" below);
//!   the baseline must itself satisfy the schema, or the run stops first
//! * `--check-tolerance <x>`  override the wall/throughput factor (default 25)
//! * `--chaos-seed <n>`       base fault seed of the chaos sweep (default 0;
//!   the nightly passes its run id, and a failing sweep replays exactly by
//!   passing the printed seed back in)
//! * `--disk-bound`           run the real-I/O workloads in the
//!   fsync/`O_DIRECT` disk-bounded timing mode
//! * `--assert-direct`        exit non-zero unless at least one real-I/O
//!   workload actually engaged `O_DIRECT` (nightly runs this together with
//!   `--disk-bound` on a real filesystem, pinning that the buffered
//!   fallback is not the only path ever exercised)
//! * `--trace-out <dir>`      record every Table 1 row (and the two `obs`
//!   workloads) under the `ocas-obs` recorder and write one Chrome
//!   trace-event JSON file per row into `<dir>` (load them in Perfetto or
//!   `chrome://tracing`). Every written file is re-parsed and schema
//!   validated; a malformed trace fails the run.
//!
//! `--real-only` is the mode CI's smoke job affords (seconds); the nightly
//! job checks a full run, and the full document is regenerated manually
//! per trajectory point.
//!
//! # What `--check` gates
//!
//! Each field is declared once, with a class, in `ocas_bench::report`.
//! Entries match their baseline entry by name (chaos: `workload`; engine:
//! `template` + `backend`; Figure 8: `panel` + `label`); one whose `scale`
//! (real), `chaos_seed` (chaos) or `rows_in` (engine) differs is another
//! workload and is skipped. Per class:
//!
//! * exact: Table 1 `search_space`, `steps`, `best_program`; `cache_misses`;
//!   the Figure 7 devices; real rows and bytes; faithful-scale sizes, rows
//!   and digests; synthesis search counts; obs events and counters; chaos
//!   outcome and recovery counters;
//! * close (relative drift ≤ 1e-9, for libm last bits across machines):
//!   Table 1 `spec_seconds`, `opt_seconds`, `act_seconds`; Figure 8
//!   `estimated_seconds`, `measured_seconds`;
//! * timing (≤ `--check-tolerance`× the baseline): real and faithful-scale
//!   `wall_seconds`, synthesis `seconds`, obs span seconds;
//! * rate (≥ baseline / `--check-tolerance`): engine `rows_per_sec`;
//! * floor (≥ baseline / 2): synthesis `speedup`;
//! * must, on every entry, baseline or not: `outputs_match` and
//!   `peak_bounded` true; chaos `wrong_answers`, `leaked_dirs`,
//!   `pinned_pages` 0.
//!
//! The rest is recorded but not gated, notably Table 1's `ocas_seconds`
//! (a single search wall-clock sample). A gated field missing from either
//! document fails the check.

use ocas_bench::json::Json;
use ocas_bench::report::{
    bench_doc, chaos_rows, check_regressions, engine_throughput, faithful_scale_rows, obs_rows,
    real_workloads, summary, synthesis_stats, validate_bench_doc, validate_chrome_trace,
};

/// Lower-cases `name` into a filesystem-safe slug.
fn slug(name: &str) -> String {
    let mut out = String::new();
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_string()
}

/// Writes one Chrome trace file and round-trips it through the parser and
/// the trace schema check; a malformed export fails the whole run.
fn write_trace(dir: &str, stem: &str, chrome: &str) {
    let path = format!("{dir}/{stem}.json");
    std::fs::write(&path, chrome).expect("write trace file");
    let parsed = Json::parse(chrome).unwrap_or_else(|e| {
        eprintln!("FAIL: trace {path} is not valid JSON: {e}");
        std::process::exit(1);
    });
    if let Err(e) = validate_chrome_trace(&parsed) {
        eprintln!("FAIL: trace {path} failed schema validation: {e}");
        std::process::exit(1);
    }
    eprintln!("  wrote trace {path}");
}

/// The rows of one workload group, or the run stops with its error.
fn or_exit<T, E: std::fmt::Display>(rows: Result<T, E>, what: &str) -> T {
    rows.unwrap_or_else(|e| {
        eprintln!("{what} FAILED: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_results.json".to_string();
    let mut real_only = false;
    let mut real_scale = 1u64;
    let mut engine_scale = 1u64;
    let mut engine_before: Option<String> = None;
    let mut check: Option<String> = None;
    let mut check_tolerance = 25.0f64;
    let mut chaos_seed = 0u64;
    let mut disk_bound = false;
    let mut assert_direct = false;
    let mut trace_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            "--real-only" => real_only = true,
            "--real-scale" => {
                real_scale = it
                    .next()
                    .expect("--real-scale needs a number")
                    .parse()
                    .expect("--real-scale needs a number")
            }
            "--engine-scale" => {
                engine_scale = it
                    .next()
                    .expect("--engine-scale needs a number")
                    .parse()
                    .expect("--engine-scale needs a number")
            }
            "--engine-before" => {
                engine_before = Some(it.next().expect("--engine-before needs a path").clone())
            }
            "--check" => check = Some(it.next().expect("--check needs a path").clone()),
            "--check-tolerance" => {
                check_tolerance = it
                    .next()
                    .expect("--check-tolerance needs a number")
                    .parse()
                    .expect("--check-tolerance needs a number")
            }
            "--chaos-seed" => {
                chaos_seed = it
                    .next()
                    .expect("--chaos-seed needs a number")
                    .parse()
                    .expect("--chaos-seed needs a number")
            }
            "--disk-bound" => disk_bound = true,
            "--assert-direct" => assert_direct = true,
            "--trace-out" => {
                trace_out = Some(it.next().expect("--trace-out needs a directory").clone())
            }
            other => {
                eprintln!("unknown option `{other}`");
                std::process::exit(2);
            }
        }
    }

    let baseline = check.map(|path| {
        let text = std::fs::read_to_string(&path).expect("read --check baseline");
        let doc = Json::parse(&text).expect("parse --check baseline");
        if let Err(e) = validate_bench_doc(&doc) {
            eprintln!("FAIL: --check baseline {path} does not satisfy the schema: {e}");
            std::process::exit(1);
        }
        doc
    });

    if let Some(dir) = &trace_out {
        std::fs::create_dir_all(dir).expect("create --trace-out directory");
    }

    let mut table1 = Vec::new();
    let mut figure8 = Vec::new();
    let mut cache = None;
    if !real_only {
        eprintln!("running Table 1 (16 synthesis + execution rows)…");
        for e in ocas::experiments::table1() {
            if trace_out.is_some() {
                ocas_obs::start();
            }
            let run = e.run();
            let trace = ocas_obs::finish();
            match run {
                Ok(row) => {
                    eprintln!("  {:<40} ok", row.name);
                    if let (Some(dir), Some(t)) = (&trace_out, &trace) {
                        write_trace(
                            dir,
                            &format!("table1-{}", slug(&row.name)),
                            &t.to_chrome_json(),
                        );
                    }
                    table1.push(row);
                }
                Err(err) => eprintln!("  {:<40} FAILED: {err}", e.name),
            }
        }
        eprintln!("running Figure 8…");
        match ocas::experiments::figure8() {
            Ok(points) => figure8 = points,
            Err(e) => eprintln!("  figure8 FAILED: {e}"),
        }
        eprintln!("running cache-miss comparison…");
        match ocas::experiments::cache_miss_comparison() {
            Ok(pair) => cache = Some(pair),
            Err(e) => eprintln!("  cache-miss comparison FAILED: {e}"),
        }
    }

    eprintln!("running synthesis-search benchmarks (arena vs reference engine)…");
    let synthesis = synthesis_stats();
    eprintln!("running engine throughput workloads (scale {engine_scale})…");
    let engine = or_exit(engine_throughput(engine_scale), "engine throughput");
    eprintln!("running faithful-scale twin workloads (relation > RAM device)…");
    let faithful = or_exit(faithful_scale_rows(), "faithful-scale workloads");
    eprintln!("running real-I/O workloads (scale {real_scale}, disk_bound {disk_bound})…");
    let real = or_exit(real_workloads(real_scale, disk_bound), "real-I/O workloads");
    eprintln!("running observability workloads (ocas-obs recorder)…");
    let obs = or_exit(obs_rows(), "observability workloads");
    if let Some(dir) = &trace_out {
        for r in &obs {
            write_trace(dir, &format!("obs-{}", slug(&r.name)), &r.chrome_trace);
        }
    }
    eprintln!(
        "running chaos suite (fault seed {chaos_seed}, 4 synthesized workloads × 2 backends)…"
    );
    let chaos = or_exit(chaos_rows(chaos_seed), "chaos suite");

    let before_doc = engine_before.map(|p| {
        let text = std::fs::read_to_string(&p).expect("read --engine-before document");
        Json::parse(&text).expect("parse --engine-before document")
    });
    let doc = bench_doc(
        &table1,
        &figure8,
        cache,
        &real,
        &engine,
        &synthesis,
        &faithful,
        &obs,
        &chaos,
        before_doc.as_ref(),
    );
    validate_bench_doc(&doc).expect("generated document must satisfy its own schema");
    for line in summary(&doc) {
        eprintln!("  {line}");
    }
    std::fs::write(&out_path, doc.pretty()).expect("write BENCH json");
    eprintln!("wrote {out_path}");
    // Without a baseline only the claims are checked: twins and real runs
    // agree with the simulator, peaks stay below the RAM device, and the
    // chaos sweep has no wrong answer, leaked dir or pinned page.
    let checked = check_regressions(
        &doc,
        baseline.as_ref().unwrap_or(&Json::Null),
        check_tolerance,
    );
    if let Err(failures) = &checked {
        for f in failures {
            eprintln!("FAIL: {f}");
        }
        eprintln!("(a chaos sweep replays exactly with `--chaos-seed {chaos_seed}`)");
        std::process::exit(1);
    }
    if assert_direct && !real.iter().any(|r| r.report.direct_io) {
        eprintln!(
            "FAIL: --assert-direct, but no real-I/O workload engaged O_DIRECT \
             (buffered fallback everywhere — is this tmpfs, or was --disk-bound omitted?)"
        );
        std::process::exit(1);
    }
    if let (Some(_), Ok(compared)) = (baseline, checked) {
        eprintln!("check OK: {compared} entries within tolerance");
    }
}
