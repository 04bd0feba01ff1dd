//! The benchmark's metric tables, summary statistics and result line.
//!
//! `END_TO_END` and `PER_LAYER` are the single source of metric names,
//! units and directions; `BENCHMARK.json` at the repository root lists
//! the same entries (a self-test keeps the two in step).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric: name, unit, and which direction is better.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Reported with tracing off, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("pass_s", "s", "lower"),
    m("query_s.p50", "s", "lower"),
    m("query_s.p90", "s", "lower"),
    m("peak_rss_mib", "MiB", "lower"),
];

/// Reported by the traced run, on every workload (0 where the workload
/// does not exercise the layer).
pub const PER_LAYER: &[MetricDef] = &[
    m("ocal.parse_s", "s", "lower"),
    m("rewrite.search_s", "s", "lower"),
    m("rewrite.explored", "count", "lower"),
    m("rewrite.generated", "count", "lower"),
    m("rewrite.accept_ratio", "ratio", "higher"),
    m("rewrite.rejected_semantics", "count", "lower"),
    m("rewrite.arena_nodes", "count", "lower"),
    m("cost.estimate_s", "s", "lower"),
    m("cost.costed", "count", "higher"),
    m("cost.uncosted", "count", "lower"),
    m("opt.ladder_s", "s", "lower"),
    m("opt.refine_s", "s", "lower"),
    m("opt.evals", "count", "lower"),
    m("synth.synthesize_s", "s", "lower"),
    m("synth.pipeline_overlap", "ratio", "higher"),
    m("engine.lower_s", "s", "lower"),
    m("engine.datagen_s", "s", "lower"),
    m("engine.twin_s", "s", "lower"),
    m("engine.output_rows", "rows", "higher"),
    m("engine.simulated_s", "s", "lower"),
    m("storage.sim_seeks", "count", "lower"),
    m("storage.sim_bytes_read", "B", "lower"),
    m("storage.sim_bytes_written", "B", "lower"),
    m("runtime.exec_s", "s", "lower"),
    m("runtime.io_s", "s", "lower"),
    m("runtime.exec_rows_per_s", "1/s", "higher"),
    m("runtime.pool_hits", "count", "higher"),
    m("runtime.pool_misses", "count", "lower"),
    m("runtime.pool_hit_ratio", "ratio", "higher"),
    m("runtime.pool_evictions", "count", "lower"),
    m("runtime.pool_write_backs", "count", "lower"),
    m("runtime.bytes_read", "B", "lower"),
    m("runtime.bytes_written", "B", "lower"),
    m("runtime.write_amp", "ratio", "lower"),
    m("runtime.peak_resident_bytes", "B", "lower"),
    m("runtime.peak_over_ram", "ratio", "lower"),
    m("runtime.retries", "count", "lower"),
    m("runtime.sort.exec_s", "s", "lower"),
    m("runtime.sort.pool_hit_ratio", "ratio", "higher"),
    m("runtime.sort.write_amp", "ratio", "lower"),
    m("runtime.sort.peak_over_ram", "ratio", "lower"),
    m("runtime.grace.exec_s", "s", "lower"),
    m("runtime.grace.pool_hit_ratio", "ratio", "higher"),
    m("runtime.grace.write_amp", "ratio", "lower"),
    m("runtime.grace.peak_over_ram", "ratio", "lower"),
    m("runtime.union.exec_s", "s", "lower"),
    m("runtime.union.pool_hit_ratio", "ratio", "higher"),
    m("runtime.union.write_amp", "ratio", "lower"),
    m("runtime.union.peak_over_ram", "ratio", "lower"),
    m("runtime.agg.exec_s", "s", "lower"),
    m("runtime.agg.pool_hit_ratio", "ratio", "higher"),
    m("runtime.agg.write_amp", "ratio", "lower"),
    m("runtime.agg.peak_over_ram", "ratio", "lower"),
    m("trace.overhead", "ratio", "lower"),
    m("trace.coverage", "ratio", "higher"),
];

/// Quantile `q` of `values` with linear interpolation between the two
/// nearest ranks (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Resets the peak resident set size (`VmHWM`) to the current one, so
/// [`peak_rss_mib`] covers only what follows (Linux `clear_refs` 5).
/// Freed heap goes back to the kernel first: otherwise the peak starts
/// from whatever the allocator happened to keep from earlier work, which
/// varies from run to run.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes no pointers and only releases free memory.
    unsafe {
        malloc_trim(0);
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// glibc's mmap threshold (`M_MMAP_THRESHOLD`).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
const M_MMAP_THRESHOLD: i32 = -3;

/// Fixes glibc's mmap threshold at its default, 128 KiB, which turns off
/// its adaptive threshold. Adaptive, the threshold grows to the largest
/// mmapped block freed so far, and smaller blocks then come from the heap
/// and stay resident after they are freed; so an operation's peak RSS
/// depended on which operations ran before it (the external-sort row of
/// `paper-act` peaked at 39 or 51 MiB by row order). Timings did not move.
pub fn fix_mmap_threshold() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `mallopt` takes no pointers.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 << 10);
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The result line: one JSON object carrying exactly the metrics of
/// `defs`, each with its unit.
pub fn result_json(attempted: u64, failed: u64, values: &Values, defs: &[MetricDef]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, d) in defs.iter().enumerate() {
        let v = values.get(d.name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    s.push_str("}}");
    s
}
