//! OCAS spec→answer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <synth-table1|small-queries|ooc-large|paper-act> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints the generated input sizes, every
//! metric with its unit, and as the last line one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`,
//! which also writes the spans to `.bench_trace/`). See README.md.

mod metrics;
mod oracle;
mod queries;
#[cfg(test)]
mod selftest;
mod trace;
mod workloads;

use metrics::{END_TO_END, PER_LAYER};
use std::process::ExitCode;
use workloads::{Config, Workload};

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::SynthTable1,
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        corrupt: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The runtime puts its device files in the system temp dir; point it
    // inside the working directory so the benchmark writes nowhere else.
    let cwd = std::env::current_dir().expect("working directory is readable");
    let tmp = cwd.join(".bench_tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(1);
    }
    std::env::set_var("TMPDIR", &tmp);

    let outcome = workloads::run(&cfg);
    let _ = std::fs::remove_dir_all(&tmp);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", cfg.workload.name());
            return ExitCode::from(1);
        }
    };
    for line in &outcome.lines {
        println!("{line}");
    }
    let defs = if cfg.trace { PER_LAYER } else { END_TO_END };
    for d in defs {
        let v = outcome.values.get(d.name).copied().unwrap_or(0.0);
        println!(
            "{:<32} {:>18.6} {:<6} ({} is better)",
            d.name, v, d.unit, d.better
        );
    }
    if let Some(tr) = &outcome.tracer {
        let dir = cwd.join(".bench_trace");
        let path = dir.join(format!("{}-seed{}.json", cfg.workload.name(), cfg.seed));
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, tr.to_chrome_json()))
        {
            Ok(()) => println!("spans: {} written to {}", tr.spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!(
        "{}",
        metrics::result_json(outcome.attempted, outcome.failed, &outcome.values, defs)
    );
    ExitCode::SUCCESS
}
