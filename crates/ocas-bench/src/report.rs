//! Building and validating the `BENCH_*.json` trajectory document.
//!
//! One schema'd JSON file records everything the reproduction binaries
//! measure: the Table 1 rows, the Figure 8 points, the cache-miss
//! companion, and the real-I/O workloads with wall-clock and simulated
//! seconds side by side. Each section's fields are declared once, in the
//! section tables below, as `(key, class, getter)`: [`bench_doc`] emits
//! from them, [`validate_bench_doc`] checks them and
//! [`check_regressions`] gates them by class.

use crate::json::Json;
use ocas::experiments::{FaithfulScaleReport, Fig8Point, Row};
use ocas_engine::{CpuModel, Executor, JoinPred, MergeKind, Mode, Output, Plan, RelSpec, Relation};
use ocas_hierarchy::{presets, Hierarchy};
use ocas_runtime::{FileBackend, PoolConfig, RealReport, Runtime, RuntimeError};
use ocas_storage::{StorageBackend, StorageSim};

/// The document's schema tag; bump on breaking layout changes.
pub const SCHEMA: &str = "ocas-bench/v5";

/// One named real-I/O measurement.
pub struct RealRow {
    /// Workload name.
    pub name: String,
    /// Cardinality scale factor the workload ran at (entries are only
    /// regression-compared against a baseline at the same scale).
    pub scale: u64,
    /// The measured report.
    pub report: RealReport,
}

/// One engine data-path throughput measurement: a plan template executed
/// faithfully (real rows end to end) on one backend.
#[derive(Debug, Clone)]
pub struct EngineRow {
    /// Plan template name (`Plan::name`).
    pub template: String,
    /// `"sim"` (StorageSim) or `"real"` (FileBackend temp files).
    pub backend: String,
    /// Input tuples the template consumed.
    pub rows_in: u64,
    /// Output tuples the template produced.
    pub rows_out: u64,
    /// Host wall-clock seconds of the faithful execution.
    pub seconds: f64,
    /// `rows_in / seconds` — the data-path throughput the flat-batch
    /// representation is accountable for.
    pub rows_per_sec: f64,
}

/// The engine throughput workloads: every plan template, faithful mode,
/// sized so one run takes well under a second each at `scale = 1`.
pub fn engine_workloads(scale: u64) -> Vec<(Plan, Vec<RelSpec>)> {
    let s = scale.max(1);
    let out = |buf: u64| Output::ToDevice {
        device: "HDD".into(),
        buffer_bytes: buf,
    };
    vec![
        (
            Plan::BnlJoin {
                outer: 0,
                inner: 1,
                k1: 512,
                k2: 512,
                tiling: None,
                pred: JoinPred::KeyEq,
                order_inputs: false,
                output: out(1 << 16),
            },
            vec![
                RelSpec::pairs("R", "HDD", 6_000 * s).with_key_range(2_000 * s),
                RelSpec::pairs("S", "HDD", 4_000 * s).with_key_range(2_000 * s),
            ],
        ),
        (
            Plan::GraceJoin {
                left: 0,
                right: 1,
                partitions: 64,
                buffer_bytes: 1 << 20,
                spill: "HDD".into(),
                pred: JoinPred::KeyEq,
                output: out(1 << 16),
            },
            vec![
                RelSpec::pairs("R", "HDD", 300_000 * s).with_key_range(60_000 * s),
                RelSpec::pairs("S", "HDD", 200_000 * s).with_key_range(60_000 * s),
            ],
        ),
        (
            Plan::ExternalSort {
                input: 0,
                fan_in: 8,
                b_in: 4096,
                b_out: 16384,
                scratch: "HDD".into(),
                output: out(1 << 16),
            },
            vec![RelSpec::ints("L", "HDD", 1_000_000 * s)],
        ),
        (
            Plan::MergePass {
                left: 0,
                right: 1,
                kind: MergeKind::MultisetUnionSorted,
                b_in: 4096,
                output: out(1 << 16),
            },
            vec![
                RelSpec::ints("A", "HDD", 800_000 * s).sorted(),
                RelSpec::ints("B", "HDD", 800_000 * s).sorted(),
            ],
        ),
        (
            Plan::ColumnZip {
                columns: vec![0, 1, 2, 3, 4],
                b_in: 4096,
                output: out(1 << 16),
            },
            (1..=5)
                .map(|i| RelSpec::ints(&format!("C{i}"), "HDD", 300_000 * s))
                .collect(),
        ),
        (
            Plan::DedupSorted {
                input: 0,
                b_in: 4096,
                output: out(1 << 16),
            },
            vec![RelSpec::ints("L", "HDD", 1_000_000 * s)
                .sorted()
                .with_key_range(500_000 * s)],
        ),
        (
            Plan::Aggregate {
                input: 0,
                b_in: 4096,
            },
            vec![RelSpec::ints("L", "HDD", 2_000_000 * s)],
        ),
    ]
}

/// Creates the relations of one [`engine_workloads`] entry in `ex` and runs
/// `plan` faithfully, measuring host wall-clock throughput.
pub fn engine_run<B: StorageBackend>(
    mut ex: Executor<B>,
    plan: &Plan,
    specs: &[RelSpec],
    backend: &str,
) -> Result<EngineRow, RuntimeError> {
    let mut rows_in = 0u64;
    for (i, spec) in specs.iter().enumerate() {
        rows_in += spec.card;
        let rel = Relation::create(&mut ex.sm, spec, true, 100 + i as u64)
            .map_err(ocas_engine::ExecError::from)?;
        ex.add_relation(rel);
    }
    let t0 = std::time::Instant::now();
    let stats = ex.run(plan)?;
    let seconds = t0.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
    Ok(EngineRow {
        template: plan.name().to_string(),
        backend: backend.to_string(),
        rows_in,
        rows_out: stats.output_rows,
        seconds,
        rows_per_sec: rows_in as f64 / seconds,
    })
}

/// Measures faithful data-path throughput (host rows/sec) for every plan
/// template on both backends. `scale` multiplies the input cardinalities.
pub fn engine_throughput(scale: u64) -> Result<Vec<EngineRow>, RuntimeError> {
    let mut out = Vec::new();
    for (plan, specs) in engine_workloads(scale) {
        let h = presets::hdd_ram(64 << 20);
        let sim = Executor::new(
            StorageSim::from_hierarchy(&h),
            Mode::Faithful,
            CpuModel::disabled(),
        );
        out.push(engine_run(sim, &plan, &specs, "sim")?);

        let fb = FileBackend::from_hierarchy(&h, PoolConfig::default())?;
        let real = Executor::new(fb, Mode::Faithful, CpuModel::disabled());
        out.push(engine_run(real, &plan, &specs, "real")?);
    }
    Ok(out)
}

/// One observability row: a representative workload run under the
/// `ocas-obs` recorder, reduced to the trace's flat metric totals (the
/// document's `obs` section) plus the Chrome trace-event export.
#[derive(Debug, Clone)]
pub struct ObsRow {
    /// Row name. `sim:` rows are fully deterministic (every event lives on
    /// the simulated clock); `real:` rows have deterministic counters and
    /// event counts but wall-clock span seconds.
    pub name: String,
    /// Total recorded occurrences (retained events plus merged folds).
    pub events: u64,
    /// Summed span seconds on the simulated clock.
    pub sim_span_seconds: f64,
    /// Summed span seconds on the wall clock.
    pub wall_span_seconds: f64,
    /// Counter totals keyed `"track/name"`.
    pub counters: std::collections::BTreeMap<String, f64>,
    /// The recording exported as Chrome trace-event JSON.
    pub chrome_trace: String,
}

fn obs_reduce(name: &str, trace: &ocas_obs::Trace) -> ObsRow {
    let m = trace.metrics();
    ObsRow {
        name: name.to_string(),
        events: m.events,
        // `+ 0.0` normalizes the empty sum (`Sum for f64` folds from -0.0).
        sim_span_seconds: m.sim_span_seconds.values().sum::<f64>() + 0.0,
        wall_span_seconds: m.wall_span_seconds.values().sum::<f64>() + 0.0,
        counters: m.counters,
        chrome_trace: trace.to_chrome_json(),
    }
}

/// Runs the two observability workloads under the recorder:
///
/// * `sim:set-union` — a full synthesize + execute pass on the simulator.
///   Search-level spans, per-rule counters and device/CPU attribution
///   spans are all on the deterministic clock, so `bench_json --check`
///   gates the counters exactly (span seconds get the timing tolerance).
/// * `real:grace-join` — the GRACE-join engine workload on the
///   [`FileBackend`]. Pool counters (hits/misses/evictions/write-backs)
///   and the event count are deterministic; wall span seconds are not.
pub fn obs_rows() -> Result<Vec<ObsRow>, String> {
    let mut out = Vec::new();

    ocas_obs::start();
    let sim = (|| {
        let e = ocas::experiments::set_union();
        let synth = e.synthesize()?;
        e.execute(&synth)?;
        Ok::<(), ocas::experiments::ExpError>(())
    })();
    let trace = ocas_obs::finish().unwrap_or_default();
    sim.map_err(|e| format!("obs `sim:set-union` failed: {e}"))?;
    out.push(obs_reduce("sim:set-union", &trace));

    ocas_obs::start();
    let real = (|| {
        let (plan, specs) = engine_workloads(1)
            .into_iter()
            .nth(1)
            .expect("the GRACE-join workload");
        let h = presets::hdd_ram(64 << 20);
        let fb = FileBackend::from_hierarchy(&h, PoolConfig::default())?;
        let ex = Executor::new(fb, Mode::Faithful, CpuModel::disabled());
        engine_run(ex, &plan, &specs, "real")?;
        Ok::<(), RuntimeError>(())
    })();
    let trace = ocas_obs::finish().unwrap_or_default();
    real.map_err(|e| format!("obs `real:grace-join` failed: {e}"))?;
    out.push(obs_reduce("real:grace-join", &trace));

    Ok(out)
}

/// Checks that `doc` is a Chrome trace-event document Perfetto will load:
/// a `traceEvents` array whose entries carry `ph`/`pid`/`tid`/`ts`, with
/// a `name` on metadata/span/counter events and a `dur` on complete
/// (`"X"`) events.
pub fn validate_chrome_trace(doc: &Json) -> Result<(), String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing `traceEvents` array")?;
    if events.is_empty() {
        return Err("empty `traceEvents`".into());
    }
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("traceEvents[{i}] missing `ph`"))?;
        for field in ["pid", "tid"] {
            if e.get(field).and_then(Json::as_num).is_none() {
                return Err(format!("traceEvents[{i}] missing numeric `{field}`"));
            }
        }
        match ph {
            "M" => {}
            "X" => {
                for field in ["ts", "dur"] {
                    if e.get(field).and_then(Json::as_num).is_none() {
                        return Err(format!("traceEvents[{i}] missing numeric `{field}`"));
                    }
                }
            }
            "C" => {
                if e.get("ts").and_then(Json::as_num).is_none() {
                    return Err(format!("traceEvents[{i}] missing numeric `ts`"));
                }
            }
            other => return Err(format!("traceEvents[{i}] has unknown phase `{other}`")),
        }
        if e.get("name").and_then(Json::as_str).is_none() {
            return Err(format!("traceEvents[{i}] missing `name`"));
        }
    }
    Ok(())
}

/// The faithful-scale twin workloads (relation strictly larger than the
/// RAM device, streamed generation, digest-compared twins) at the
/// committed baseline scale.
pub fn faithful_scale_rows() -> Result<Vec<FaithfulScaleReport>, ocas::experiments::ExpError> {
    ocas::experiments::faithful_scale(1)
}

/// One synthesis-search benchmark entry: the arena/parallel engine vs the
/// legacy reference engine on one Table 1 row's exact search settings.
#[derive(Debug, Clone)]
pub struct SynthesisRow {
    /// Table 1 row name.
    pub name: String,
    /// Distinct programs explored (identical for both engines by the
    /// determinism contract; `bench_json --check` compares it exactly).
    pub explored: usize,
    /// Candidates generated before deduplication.
    pub generated: usize,
    /// Candidates rejected by the type checker.
    pub rejected_type: usize,
    /// Candidates rejected by differential validation.
    pub rejected_semantics: usize,
    /// Longest derivation.
    pub depth_reached: u32,
    /// Distinct hash-consed nodes in the arena engine's term store.
    pub arena_nodes: usize,
    /// Arena engine search wall seconds (best of [`SYNTH_BENCH_RUNS`]).
    pub seconds: f64,
    /// Legacy reference engine wall seconds (best of the same runs).
    pub reference_seconds: f64,
    /// `reference_seconds / seconds`.
    pub speedup: f64,
    /// `explored / seconds`.
    pub programs_per_sec: f64,
}

/// Timing repetitions per engine in [`synthesis_stats`]; the best run is
/// reported (single-machine wall clocks are noisy at the tens of
/// milliseconds these searches take).
pub const SYNTH_BENCH_RUNS: usize = 3;

/// Regression floor for the synthesis `speedup` ratio: a fresh run may not
/// fall below `baseline_speedup / SYNTH_SPEEDUP_TOLERANCE`. The ratio pits
/// two engines run back-to-back on the same machine, so it is far more
/// stable than absolute wall clocks — it gets a real floor instead of the
/// generous `--check-tolerance` the clocks need.
pub const SYNTH_SPEEDUP_TOLERANCE: f64 = 2.0;

/// Measures the synthesis search on the two largest-search Table 1 rows:
/// both engines at the rows' exact Table 1 settings (validation on, the
/// rows' rule exclusions). Panics if the engines disagree on any
/// deterministic statistic — the same invariant the parity regression test
/// pins across all sixteen rows.
pub fn synthesis_stats() -> Vec<SynthesisRow> {
    let rows = [
        ocas::experiments::bnl_no_writeout(),
        ocas::experiments::bnl_with_cache(),
    ];
    let mut out = Vec::new();
    for e in rows {
        let mut best_new = f64::INFINITY;
        let mut best_ref = f64::INFINITY;
        let mut result = None;
        for _ in 0..SYNTH_BENCH_RUNS {
            let reference = e
                .run_search(true, 1, None)
                .expect("reference search must succeed");
            best_ref = best_ref.min(reference.stats.seconds);
            // workers = 1: the committed ratio isolates the arena engine
            // itself (zipper dedup, interned keys, check exemptions) and
            // stays comparable across machines with different core counts;
            // parallel frontier expansion is a further machine-dependent
            // win on top.
            let arena = e
                .run_search(false, 1, None)
                .expect("arena search must succeed");
            best_new = best_new.min(arena.stats.seconds);
            assert_eq!(
                reference.stats.deterministic(),
                arena.stats.deterministic(),
                "engines diverged on `{}`",
                e.name
            );
            result = Some(arena);
        }
        let stats = result.expect("at least one run").stats;
        out.push(SynthesisRow {
            name: e.name.clone(),
            explored: stats.explored,
            generated: stats.generated,
            rejected_type: stats.rejected_type,
            rejected_semantics: stats.rejected_semantics,
            depth_reached: stats.depth_reached,
            arena_nodes: stats.arena_nodes,
            seconds: best_new,
            reference_seconds: best_ref,
            speedup: best_ref / best_new.max(f64::MIN_POSITIVE),
            programs_per_sec: stats.explored as f64 / best_new.max(f64::MIN_POSITIVE),
        });
    }
    out
}

/// How `bench_json --check` treats a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Matches an entry to its baseline entry.
    Key,
    /// Unequal on the two sides: another workload, so the entry is skipped.
    Same,
    /// Deterministic: equal JSON values.
    Exact,
    /// Deterministic up to libm's last bits: relative drift at most 1e-9.
    Close,
    /// A clock: at most `tolerance ×` the baseline.
    Timing,
    /// A throughput: at least the baseline `/ tolerance`.
    Rate,
    /// A same-machine ratio: at least the baseline `/ SYNTH_SPEEDUP_TOLERANCE`.
    Floor,
    /// A claim on every entry, baseline or not: flags `true`, counts `0`.
    Must,
    /// Emitted and type-checked, never gated.
    Info,
}
use Class::*;

/// Reads one field off a measured value; the variant is the field's JSON
/// type.
enum Get<T> {
    Num(fn(&T) -> f64),
    /// A number, emitted only when there is one.
    Opt(fn(&T) -> Option<f64>),
    Str(fn(&T) -> String),
    Bool(fn(&T) -> bool),
    /// An object of numbers.
    Map(fn(&T) -> Json),
    Arr(fn(&T) -> Json),
}
use Get::*;

impl<T> Get<T> {
    fn emit(&self, v: &T) -> Option<Json> {
        Some(match self {
            Num(g) => Json::num(g(v)),
            Opt(g) => Json::num(g(v)?),
            Str(g) => Json::Str(g(v)),
            Bool(g) => Json::Bool(g(v)),
            Map(g) | Arr(g) => g(v),
        })
    }

    /// `key` of `entry`, if present with this field's type.
    fn read<'a>(&self, entry: &'a Json, key: &str) -> Option<&'a Json> {
        entry.get(key).filter(|v| match (self, v) {
            (Map(_), Json::Obj(pairs)) => pairs.iter().all(|(_, n)| n.as_num().is_some()),
            (Num(_) | Opt(_), Json::Num(_))
            | (Str(_), Json::Str(_))
            | (Bool(_), Json::Bool(_))
            | (Arr(_), Json::Arr(_)) => true,
            _ => false,
        })
    }
}

/// An array of entries, one object, or an object only the full run emits.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    List,
    Object,
    Optional,
}

/// One document section: its key, its shape, and every field of its
/// entries as `(key, class, getter)`, in emission order.
struct Section<T: 'static> {
    key: &'static str,
    shape: Shape,
    fields: &'static [(&'static str, Class, Get<T>)],
}

#[rustfmt::skip]
const TABLE1: Section<Row> = Section { key: "table1", shape: Shape::List, fields: &[
    ("name",         Key,   Str(|r| r.name.clone())),
    ("spec_seconds", Close, Num(|r| r.spec_seconds)),
    ("opt_seconds",  Close, Num(|r| r.opt_seconds)),
    ("act_seconds",  Close, Num(|r| r.act_seconds)),
    ("search_space", Exact, Num(|r| r.search_space as f64)),
    ("steps",        Exact, Num(|r| r.steps as f64)),
    // A single-sample search wall time: too noisy to gate.
    ("ocas_seconds", Info,  Num(|r| r.ocas_seconds)),
    ("best_program", Exact, Str(|r| r.best_program.clone())),
]};

#[rustfmt::skip]
const FIGURE8: Section<Fig8Point> = Section { key: "figure8", shape: Shape::List, fields: &[
    ("panel",             Key,   Str(|p| p.panel.to_string())),
    ("label",             Key,   Str(|p| p.label.clone())),
    ("estimated_seconds", Close, Num(|p| p.estimated)),
    ("measured_seconds",  Close, Num(|p| p.measured)),
]};

#[rustfmt::skip]
const FIGURES: Section<Hierarchy> = Section { key: "figures", shape: Shape::Object, fields: &[
    ("paper_platform_devices", Exact, Arr(paper_platform_devices)),
]};

/// Figure 7 device constants (sizes and page sizes of the paper platform).
fn paper_platform_devices(h: &Hierarchy) -> Json {
    Json::Arr(
        h.ids()
            .map(|id| {
                let n = h.node(id);
                Json::obj(vec![
                    ("name", Json::str(&n.name)),
                    ("size_bytes", Json::num(n.size as f64)),
                    ("pagesize_bytes", Json::num(n.pagesize as f64)),
                ])
            })
            .collect(),
    )
}

#[rustfmt::skip]
const CACHE_MISSES: Section<(u64, u64)> = Section { key: "cache_misses", shape: Shape::Optional, fields: &[
    ("untiled", Exact, Num(|c| c.0 as f64)),
    ("tiled",   Exact, Num(|c| c.1 as f64)),
]};

/// An engine entry with the before-number of its trajectory pair.
type EngineEntry = (EngineRow, Option<f64>);

#[rustfmt::skip]
const ENGINE: Section<EngineEntry> = Section { key: "engine", shape: Shape::List, fields: &[
    ("template",            Key,  Str(|(r, _)| r.template.clone())),
    ("backend",             Key,  Str(|(r, _)| r.backend.clone())),
    ("rows_in",             Same, Num(|(r, _)| r.rows_in as f64)),
    ("rows_out",            Info, Num(|(r, _)| r.rows_out as f64)),
    ("seconds",             Info, Num(|(r, _)| r.seconds)),
    ("rows_per_sec",        Rate, Num(|(r, _)| r.rows_per_sec)),
    ("before_rows_per_sec", Info, Opt(|(_, b)| *b)),
    ("speedup",             Info, Opt(|(r, b)| b.map(|b| r.rows_per_sec / b.max(f64::MIN_POSITIVE)))),
]};

#[rustfmt::skip]
const SYNTHESIS: Section<SynthesisRow> = Section { key: "synthesis", shape: Shape::List, fields: &[
    ("name",               Key,    Str(|r| r.name.clone())),
    ("explored",           Exact,  Num(|r| r.explored as f64)),
    ("generated",          Exact,  Num(|r| r.generated as f64)),
    ("rejected_type",      Exact,  Num(|r| r.rejected_type as f64)),
    ("rejected_semantics", Exact,  Num(|r| r.rejected_semantics as f64)),
    ("depth_reached",      Exact,  Num(|r| r.depth_reached as f64)),
    ("arena_nodes",        Info,   Num(|r| r.arena_nodes as f64)),
    ("seconds",            Timing, Num(|r| r.seconds)),
    ("reference_seconds",  Info,   Num(|r| r.reference_seconds)),
    ("speedup",            Floor,  Num(|r| r.speedup)),
    ("programs_per_sec",   Info,   Num(|r| r.programs_per_sec)),
]};

#[rustfmt::skip]
const FAITHFUL_SCALE: Section<FaithfulScaleReport> = Section { key: "faithful_scale", shape: Shape::List, fields: &[
    ("name",               Key,    Str(|r| r.name.clone())),
    ("relation_bytes",     Exact,  Num(|r| r.relation_bytes as f64)),
    ("ram_bytes",          Exact,  Num(|r| r.ram_bytes as f64)),
    ("output_rows",        Exact,  Num(|r| r.output_rows as f64)),
    // The only output witness at this scale. A full u64, so hex text:
    // JSON numbers (f64) cannot carry 64 bits exactly.
    ("digest",             Exact,  Str(|r| format!("{:016x}", r.output_digest))),
    ("outputs_match",      Must,   Bool(|r| r.outputs_match)),
    ("peak_bounded",       Must,   Bool(|r| r.peak_bounded())),
    ("sim_peak_resident",  Info,   Num(|r| r.sim_peak_resident as f64)),
    ("real_peak_resident", Info,   Num(|r| r.real_peak_resident as f64)),
    ("sim_seconds",        Info,   Num(|r| r.sim_seconds)),
    ("wall_seconds",       Timing, Num(|r| r.wall_seconds)),
]};

#[rustfmt::skip]
const OBS: Section<ObsRow> = Section { key: "obs", shape: Shape::List, fields: &[
    ("name",              Key,    Str(|r| r.name.clone())),
    ("events",            Exact,  Num(|r| r.events as f64)),
    // Even simulated span totals move whenever the cost model or a
    // workload constant is tuned, so both clocks get the tolerance.
    ("sim_span_seconds",  Timing, Num(|r| r.sim_span_seconds)),
    ("wall_span_seconds", Timing, Num(|r| r.wall_span_seconds)),
    ("counters",          Exact,  Map(|r| Json::Obj(r.counters.iter().map(|(k, v)| (k.clone(), Json::num(*v))).collect()))),
]};

#[rustfmt::skip]
const CHAOS: Section<ChaosRow> = Section { key: "chaos", shape: Shape::List, fields: &[
    ("workload",               Key,   Str(|r| r.workload.clone())),
    ("chaos_seed",             Same,  Num(|r| r.chaos_seed as f64)),
    ("runs",                   Exact, Num(|r| r.summary.runs as f64)),
    ("identical",              Exact, Num(|r| r.summary.identical as f64)),
    ("typed_errors",           Exact, Num(|r| r.summary.typed_errors as f64)),
    ("wrong_answers",          Must,  Num(|r| r.summary.wrong_answers as f64)),
    ("leaked_dirs",            Must,  Num(|r| r.summary.leaked_dirs as f64)),
    ("pinned_pages",           Must,  Num(|r| r.summary.pinned_pages as f64)),
    ("faults_injected",        Exact, Num(|r| r.summary.counters.faults_injected as f64)),
    ("retries",                Exact, Num(|r| r.summary.counters.retries as f64)),
    ("retry_successes",        Exact, Num(|r| r.summary.counters.retry_successes as f64)),
    ("gave_up",                Exact, Num(|r| r.summary.counters.gave_up as f64)),
    ("degraded_shrinks",       Exact, Num(|r| r.summary.counters.degraded_shrinks as f64)),
    ("degraded_failovers",     Exact, Num(|r| r.summary.counters.degraded_failovers as f64)),
    ("corrupt_pages_detected", Exact, Num(|r| r.summary.counters.corrupt_pages_detected as f64)),
]};

#[rustfmt::skip]
const REAL: Section<RealRow> = Section { key: "real", shape: Shape::List, fields: &[
    ("name",          Key,    Str(|r| r.name.clone())),
    ("scale",         Same,   Num(|r| r.scale as f64)),
    ("wall_seconds",  Timing, Num(|r| r.report.wall_seconds)),
    ("io_seconds",    Info,   Num(|r| r.report.io_seconds)),
    ("sim_seconds",   Info,   Num(|r| r.report.sim_seconds)),
    ("output_rows",   Exact,  Num(|r| r.report.output.len() as f64)),
    ("outputs_match", Must,   Bool(|r| r.report.outputs_match())),
    ("bytes_read",    Exact,  Num(|r| total(&r.report.real_devices, |s| s.bytes_read))),
    ("bytes_written", Exact,  Num(|r| total(&r.report.real_devices, |s| s.bytes_written))),
    ("pool_hits",     Info,   Num(|r| total(&r.report.pools, |p| p.hits))),
    ("pool_misses",   Info,   Num(|r| total(&r.report.pools, |p| p.misses))),
    ("direct_io",     Info,   Bool(|r| r.report.direct_io)),
]};

/// Sums one statistic over a real-I/O report's devices or pools.
fn total<S>(per: &[(String, S)], stat: fn(&S) -> u64) -> f64 {
    per.iter().map(|(_, s)| stat(s)).sum::<u64>() as f64
}

/// Every section, in document order.
const SECTIONS: [&dyn Walk; 10] = [
    &TABLE1,
    &FIGURE8,
    &FIGURES,
    &CACHE_MISSES,
    &ENGINE,
    &SYNTHESIS,
    &FAITHFUL_SCALE,
    &OBS,
    &CHAOS,
    &REAL,
];

impl<T: 'static> Section<T> {
    fn object(&self, v: &T) -> (&'static str, Json) {
        let pairs = self.fields.iter();
        let pairs = pairs.filter_map(|(k, _, get)| Some((k.to_string(), get.emit(v)?)));
        (self.key, Json::Obj(pairs.collect()))
    }

    fn list(&self, rows: &[T]) -> (&'static str, Json) {
        let entries = rows.iter().map(|r| self.object(r).1);
        (self.key, Json::Arr(entries.collect()))
    }

    /// The section's entries in `doc` (an object section is one entry).
    fn entries<'a>(&self, doc: &'a Json) -> Vec<&'a Json> {
        match (self.shape, doc.get(self.key)) {
            (Shape::List, Some(Json::Arr(items))) => items.iter().collect(),
            (Shape::Object | Shape::Optional, Some(obj @ Json::Obj(_))) => vec![obj],
            _ => Vec::new(),
        }
    }

    /// The entry of `doc` whose key values are `entry`'s.
    fn find<'a>(&self, doc: &'a Json, entry: &Json) -> Option<&'a Json> {
        let same_keys = |b: &&Json| self.with(Key).all(|(k, ..)| b.get(k) == entry.get(k));
        self.entries(doc).into_iter().find(same_keys)
    }

    fn with(&self, class: Class) -> impl Iterator<Item = &(&'static str, Class, Get<T>)> {
        self.fields.iter().filter(move |f| f.1 == class)
    }

    /// Names `entry` in messages: the section and its key values.
    fn label(&self, entry: &Json) -> String {
        let keys = self
            .with(Key)
            .map(|(k, ..)| entry.get(k).and_then(Json::as_str));
        let keys: Vec<&str> = keys.map(|v| v.unwrap_or("?")).collect();
        match keys.is_empty() {
            true => self.key.to_string(),
            false => format!("{} `{}`", self.key, keys.join("/")),
        }
    }
}

/// A [`Section`] with its row type erased, so that one loop walks every
/// section.
trait Walk {
    fn keys(&self) -> (&'static str, Vec<&'static str>);
    fn validate(&self, doc: &Json) -> Result<(), String>;
    fn check(&self, doc: &Json, baseline: &Json, tol: f64, failures: &mut Vec<String>) -> usize;
    fn summary(&self, doc: &Json) -> Vec<String>;
}

impl<T: 'static> Walk for Section<T> {
    fn keys(&self) -> (&'static str, Vec<&'static str>) {
        (self.key, self.fields.iter().map(|f| f.0).collect())
    }

    fn validate(&self, doc: &Json) -> Result<(), String> {
        let list = self.shape == Shape::List;
        match (doc.get(self.key), self.shape) {
            (Some(Json::Arr(_)), Shape::List) | (None, Shape::Optional) => {}
            (Some(Json::Obj(_)), Shape::Object | Shape::Optional) => {}
            _ if list => return Err(format!("missing array `{}`", self.key)),
            _ => return Err(format!("missing object `{}`", self.key)),
        }
        for (i, entry) in self.entries(doc).into_iter().enumerate() {
            let at = match list {
                true => format!("{}[{i}]", self.key),
                false => self.key.to_string(),
            };
            for (k, _, get) in self.fields {
                match (entry.get(k), get.read(entry, k)) {
                    (None, _) if matches!(get, Opt(_)) => {}
                    (None, _) => return Err(format!("{at} missing `{k}`")),
                    (Some(_), None) => return Err(format!("{at}.{k} has the wrong type")),
                    _ => {}
                }
            }
        }
        Ok(())
    }

    fn check(&self, doc: &Json, baseline: &Json, tol: f64, failures: &mut Vec<String>) -> usize {
        let mut compared = 0;
        for entry in self.entries(doc) {
            let at = self.label(entry);
            let mut fail = |msg: String| failures.push(format!("{at}: {msg}"));
            for (k, _, get) in self.with(Must) {
                let want = match get {
                    Bool(_) => Json::Bool(true),
                    _ => Json::Num(0.0),
                };
                if entry.get(k) != Some(&want) {
                    let (got, want) = (show(entry.get(k)), show(Some(&want)));
                    fail(format!("{k} is {got}, must be {want}"));
                }
            }
            let Some(base) = self.find(baseline, entry) else {
                continue;
            };
            // A gated field must be present and well-typed on both sides:
            // a missing one would otherwise pass vacuously.
            let mut pairs = Vec::new();
            for (k, class, get) in self.fields {
                match (get.read(entry, k), get.read(base, k)) {
                    _ if matches!(class, Key | Must | Info) => {}
                    (Some(got), Some(want)) => pairs.push((k, *class, got, want)),
                    (None, _) => fail(format!("no valid {k} in this run")),
                    (_, None) => fail(format!("no valid {k} in the baseline")),
                }
            }
            if pairs.iter().any(|&(_, c, g, w)| c == Same && g != w) {
                continue;
            }
            compared += usize::from(self.shape == Shape::List);
            for (k, class, got, want) in pairs {
                let (g, w) = (got.as_num().unwrap_or(0.0), want.as_num().unwrap_or(0.0));
                let pass = match class {
                    Exact | Same => got == want,
                    Close => (g - w).abs() <= 1e-9 * g.abs().max(w.abs()),
                    Timing => g <= tol * w.max(f64::MIN_POSITIVE),
                    Rate => g * tol >= w,
                    Floor => g * SYNTH_SPEEDUP_TOLERANCE >= w,
                    Key | Must | Info => true,
                };
                if !pass {
                    let (got, want) = (show(Some(got)), show(Some(want)));
                    fail(format!(
                        "{k} {got} vs baseline {want} fails the {class:?} gate"
                    ));
                }
            }
        }
        compared
    }

    fn summary(&self, doc: &Json) -> Vec<String> {
        let line = |e: &Json| {
            let values = self.fields.iter().filter(|f| f.1 != Key);
            let values = values.filter_map(|(k, ..)| match e.get(k)? {
                Json::Num(n) if n.fract() == 0.0 => Some(format!("{k}={n}")),
                Json::Num(n) if n.abs() >= 100.0 => Some(format!("{k}={n:.0}")),
                Json::Num(n) => Some(format!("{k}={n:.4}")),
                Json::Bool(b) => Some(format!("{k}={b}")),
                _ => None,
            });
            let values: Vec<String> = values.collect();
            (!values.is_empty()).then(|| format!("{}: {}", self.label(e), values.join(" ")))
        };
        self.entries(doc).into_iter().filter_map(line).collect()
    }
}

/// Renders a field value for a message.
fn show(v: Option<&Json>) -> String {
    match v {
        None => "missing".to_string(),
        Some(Json::Num(n)) => n.to_string(),
        Some(Json::Bool(b)) => b.to_string(),
        Some(Json::Str(s)) => format!("{s:?}"),
        Some(other) => format!("{other:?}"),
    }
}

/// Assembles the full document. `engine_baseline` is an earlier document
/// whose `engine` section provides the before-numbers of the trajectory
/// (each entry then carries `before_rows_per_sec` and `speedup`).
#[allow(clippy::too_many_arguments)]
pub fn bench_doc(
    table1: &[Row],
    figure8: &[Fig8Point],
    cache_misses: Option<(u64, u64)>,
    real: &[RealRow],
    engine: &[EngineRow],
    synthesis: &[SynthesisRow],
    faithful: &[FaithfulScaleReport],
    obs: &[ObsRow],
    chaos: &[ChaosRow],
    engine_baseline: Option<&Json>,
) -> Json {
    // The before-number is the prior entry's own before-number when it has
    // one, so the trajectory stays anchored at the original baseline
    // instead of ratcheting forward on every regeneration.
    let engine: Vec<EngineEntry> = engine
        .iter()
        .map(|r| {
            let key = ENGINE.object(&(r.clone(), None)).1;
            let prior = engine_baseline.and_then(|d| ENGINE.find(d, &key));
            let num = |p: &Json, k| p.get(k).and_then(Json::as_num);
            let before =
                prior.and_then(|p| num(p, "before_rows_per_sec").or(num(p, "rows_per_sec")));
            (r.clone(), before)
        })
        .collect();
    let mut pairs = vec![
        ("schema", Json::str(SCHEMA)),
        TABLE1.list(table1),
        FIGURE8.list(figure8),
        FIGURES.object(&presets::paper_platform(32 << 20)),
    ];
    pairs.extend(cache_misses.map(|c| CACHE_MISSES.object(&c)));
    pairs.extend([
        ENGINE.list(&engine),
        SYNTHESIS.list(synthesis),
        FAITHFUL_SCALE.list(faithful),
        OBS.list(obs),
        CHAOS.list(chaos),
        REAL.list(real),
    ]);
    Json::obj(pairs)
}

/// Every section's key with its fields' keys, in document order.
pub fn schema_keys() -> Vec<(&'static str, Vec<&'static str>)> {
    SECTIONS.iter().map(|s| s.keys()).collect()
}

/// One line per entry of `doc`: its key values, then its numbers and
/// flags.
pub fn summary(doc: &Json) -> Vec<String> {
    SECTIONS.iter().flat_map(|s| s.summary(doc)).collect()
}

/// Checks a document against the `ocas-bench/v5` schema ([`SCHEMA`]):
/// every section is present (`cache_misses` may be absent), and every
/// entry carries every declared field with its declared JSON type (an
/// `engine` entry may lack its trajectory pair). Sections may be empty
/// arrays (a partial regeneration).
pub fn validate_bench_doc(doc: &Json) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing `schema`")?;
    if schema != SCHEMA {
        return Err(format!("schema `{schema}` is not `{SCHEMA}`"));
    }
    SECTIONS.iter().try_for_each(|s| s.validate(doc))
}

/// Compares a freshly generated document against a committed baseline,
/// each field by its class (see `Class`), and fails a gated field that
/// is missing or mistyped on either side. Entries without a baseline entry
/// only have their `Must` claims checked. Returns the number of array
/// entries compared (the `figures` and `cache_misses` objects are gated
/// but not counted), or the list of violations.
pub fn check_regressions(
    doc: &Json,
    baseline: &Json,
    tolerance: f64,
) -> Result<usize, Vec<String>> {
    let tol = tolerance.max(1.0);
    let mut failures = Vec::new();
    let compared = SECTIONS
        .iter()
        .map(|s| s.check(doc, baseline, tol, &mut failures))
        .sum();
    if failures.is_empty() {
        Ok(compared)
    } else {
        Err(failures)
    }
}

/// One chaos-suite aggregate: one synthesized workload's seeded fault
/// sweep ([`CHAOS_SEEDS_PER_WORKLOAD`] fault plans, both backends),
/// reduced to trichotomy and recovery-counter totals. Everything in it is
/// deterministic in `chaos_seed`, so `bench_json --check` gates the
/// counters exactly when the seeds match.
pub struct ChaosRow {
    /// Workload name (`sort`, `grace`, `union`, `dedup`).
    pub workload: String,
    /// The sweep's base fault seed (`--chaos-seed`).
    pub chaos_seed: u64,
    /// Aggregated outcomes and recovery counters.
    pub summary: ocas::chaos::ChaosSummary,
}

/// Fault seeds per workload in the bench chaos sweep (each seed runs on
/// both backends, so one row aggregates `2 ×` this many executions).
pub const CHAOS_SEEDS_PER_WORKLOAD: u64 = 6;

/// Runs the bench-scale chaos sweep: the four synthesized Table 1
/// workloads under seeded fault plans on both backends. The returned rows
/// are deterministic in `chaos_seed`; a trichotomy violation is reported
/// in the row (the binary fails on it), never panicked over here.
pub fn chaos_rows(chaos_seed: u64) -> Result<Vec<ChaosRow>, String> {
    let workloads = ocas::chaos::table1_workloads()
        .map_err(|e| format!("chaos workload synthesis failed: {e}"))?;
    let mut out = Vec::new();
    for w in &workloads {
        let mut runs = Vec::new();
        for i in 0..CHAOS_SEEDS_PER_WORKLOAD {
            let seed = chaos_seed.wrapping_mul(10_000).wrapping_add(i);
            runs.push(ocas::chaos::run_file(w, seed));
            runs.push(ocas::chaos::run_sim(w, seed));
        }
        out.push(ChaosRow {
            workload: w.name.to_string(),
            chaos_seed,
            summary: ocas::chaos::summarize(&runs),
        });
    }
    Ok(out)
}

/// The real-I/O workloads the trajectory tracks: a GRACE hash join and a
/// 2ᵏ-way external merge-sort at faithful scale (`scale` multiplies the
/// base cardinalities; 1 is a sub-second smoke size). `disk_bound` runs
/// them in the fsync/`O_DIRECT` disk-bounded timing mode.
pub fn real_workloads(scale: u64, disk_bound: bool) -> Result<Vec<RealRow>, RuntimeError> {
    let scale = scale.max(1);
    let h = presets::hdd_ram(8 << 20);
    let mut rt = Runtime::new(h);
    if disk_bound {
        rt = rt.with_pool(PoolConfig {
            timing: ocas_runtime::TimingMode::DiskBounded,
            ..PoolConfig::default()
        });
    }

    let grace = rt.run_plan(
        &Plan::GraceJoin {
            left: 0,
            right: 1,
            partitions: 16,
            buffer_bytes: 1 << 14,
            spill: "HDD".into(),
            pred: JoinPred::KeyEq,
            output: Output::ToDevice {
                device: "HDD".into(),
                buffer_bytes: 1 << 14,
            },
        },
        &[
            RelSpec::pairs("R", "HDD", 4000 * scale).with_key_range(500 * scale),
            RelSpec::pairs("S", "HDD", 2500 * scale).with_key_range(500 * scale),
        ],
        1,
    )?;

    let sort = rt.run_plan(
        &Plan::ExternalSort {
            input: 0,
            fan_in: 8,
            b_in: 64,
            b_out: 256,
            scratch: "HDD".into(),
            output: Output::ToDevice {
                device: "HDD".into(),
                buffer_bytes: 1 << 14,
            },
        },
        &[RelSpec::ints("L", "HDD", 20_000 * scale)],
        2,
    )?;

    Ok(vec![
        RealRow {
            name: "grace-hash-join (real I/O)".into(),
            scale,
            report: grace,
        },
        RealRow {
            name: "external-merge-sort (real I/O)".into(),
            scale,
            report: sort,
        },
    ])
}
