//! The four workloads. Each is a closed loop with one client: the next
//! operation starts when the previous one (and its output check) is
//! done. Operations are grouped in passes; every pass runs the
//! workload's whole operation set in an order drawn from the seed.

use crate::metrics::{self, median, quantile, ratio, Values};
use crate::oracle::Expect;
use crate::queries::{self, Layers, Query, Template};
use crate::trace::Tracer;
use ocas::experiments::{self, Experiment};
use ocas::{verify, Synthesis};
use ocas_runtime::RealReport;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SynthTable1,
    SmallQueries,
    OocLarge,
    PaperAct,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SynthTable1,
        Workload::SmallQueries,
        Workload::OocLarge,
        Workload::PaperAct,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SynthTable1 => "synth-table1",
            Workload::SmallQueries => "small-queries",
            Workload::OocLarge => "ooc-large",
            Workload::PaperAct => "paper-act",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs and fewer operations, for the self-tests.
    pub smoke: bool,
    /// Corrupt every answer before it is checked (self-test of the checks).
    pub corrupt: bool,
}

/// What a run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
    pub tracer: Option<Tracer>,
}

/// Set-up is repeated at least `SETUP_REPS` times and for at least
/// `SETUP_MIN_S` seconds; `setup_s` is the median.
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 3.0;

/// splitmix64: query order and data seeds derive from the workload seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
    }
}

/// Operation counts and latencies of a run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Latency samples per distinct operation.
    pub ops: BTreeMap<String, Vec<f64>>,
    /// Largest operation peak RSS (MiB) of the current pass.
    pub pass_peak_rss: f64,
}

impl Tally {
    /// Records an operation's peak RSS, measured from a
    /// `metrics::reset_peak_rss` just before it: each operation's peak
    /// starts from a trimmed heap, so the pass peak does not depend on
    /// which operations ran before it.
    fn note_peak_rss(&mut self, peak: f64) {
        self.pass_peak_rss = self.pass_peak_rss.max(peak);
    }

    fn outcome(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }
}

/// One traced pass: all operations, and per template where it matters.
#[derive(Default)]
pub struct TracedPass {
    pub all: Layers,
    pub by_template: BTreeMap<&'static str, Layers>,
}

trait Bench {
    /// Sizes of the generated inputs next to the RAM device and pool.
    fn describe(&self) -> Vec<String>;
    /// One untraced pass; returns its wall (sum of operation latencies).
    fn pass(&mut self, rng: &mut Rng, tally: &mut Tally) -> f64;
    fn traced_pass(&mut self, rng: &mut Rng, tally: &mut Tally, tr: &mut Tracer) -> TracedPass;
    /// Checks made once per run, after the measured passes.
    fn finish(&mut self, _tally: &mut Tally) {}
    /// Workload-specific figures printed next to the metrics.
    fn extra_lines(&self) -> Vec<String> {
        Vec::new()
    }
}

fn mib(bytes: u64) -> String {
    format!("{:.2} MiB", bytes as f64 / (1u64 << 20) as f64)
}

fn corrupt(report: &mut RealReport) {
    // Both outputs alike, so only the independent checks can notice.
    for out in [&mut report.output, &mut report.sim_output] {
        if out.is_empty() {
            let w = out.width().max(1);
            out.push(&vec![7; w]);
        } else {
            let mut rows = out.to_rows();
            rows[0][0] = rows[0][0].wrapping_add(1);
            *out = ocas_engine::RowBuf::from_rows(&rows);
        }
    }
}

// ---------------------------------------------------------------- synth-table1

/// Table 1's committed (search space, steps) per row, in `table1()` order.
const TABLE1_SPACE: [(usize, u32); 16] = [
    (265, 5),
    (926, 7),
    (3, 2),
    (135, 5),
    (265, 5),
    (265, 5),
    (26, 12),
    (2, 1),
    (4, 2),
    (2, 1),
    (2, 1),
    (2, 1),
    (2, 1),
    (2, 1),
    (2, 1),
    (6, 3),
];

/// Checks a Table 1 winner: the committed search space and steps, and
/// the textbook shape where §7.2 claims one.
fn check_table1(row: usize, s: &Synthesis) -> Result<(), String> {
    let (space, steps) = TABLE1_SPACE[row];
    if (s.stats.explored, s.stats.depth_reached) != (space, steps) {
        return Err(format!(
            "explored {} / steps {}, committed {space} / {steps}",
            s.stats.explored, s.stats.depth_reached
        ));
    }
    let p = &s.best.program;
    let shape_ok = match row {
        0 | 1 | 3 | 4 | 5 => verify::is_block_nested_loops(p),
        2 => verify::is_grace_hash_join(p),
        6 => verify::is_external_merge_sort(p, 2).is_some(),
        _ => true,
    };
    if !shape_ok {
        return Err(format!(
            "winner lacks its textbook shape: {}",
            ocal::pretty(p)
        ));
    }
    Ok(())
}

fn paper_sizes(exps: &[Experiment]) -> Vec<String> {
    exps.iter()
        .map(|e| {
            let bytes: u64 = e.rel_specs.iter().map(|s| s.card * s.tuple_bytes()).sum();
            format!(
                "  {:<38} paper-scale input {:>14} ({:.0}x RAM {})",
                e.name,
                mib(bytes),
                ratio(bytes as f64, queries::ram_bytes(e) as f64),
                mib(queries::ram_bytes(e))
            )
        })
        .collect()
}

struct SynthTable1 {
    exps: Vec<Experiment>,
}

impl SynthTable1 {
    fn setup() -> Result<SynthTable1, String> {
        let exps = experiments::table1();
        // Warm-up: one synthesis, untimed by the passes.
        exps[0].synthesize().map_err(|e| e.to_string())?;
        Ok(SynthTable1 { exps })
    }
}

impl Bench for SynthTable1 {
    fn describe(&self) -> Vec<String> {
        let mut v = vec!["  16 Table 1 specs, synthesis only (no data, no execution)".to_string()];
        v.extend(paper_sizes(&self.exps));
        v
    }

    fn extra_lines(&self) -> Vec<String> {
        vec!["synth_pass_s is pass_s on this workload".to_string()]
    }

    fn pass(&mut self, rng: &mut Rng, tally: &mut Tally) -> f64 {
        let mut order: Vec<usize> = (0..self.exps.len()).collect();
        rng.shuffle(&mut order);
        let mut wall = 0.0;
        for i in order {
            metrics::reset_peak_rss();
            let t = Instant::now();
            let s = self.exps[i].synthesize().map_err(|e| e.to_string());
            let dt = t.elapsed().as_secs_f64();
            tally.note_peak_rss(metrics::peak_rss_mib());
            wall += dt;
            tally
                .ops
                .entry(self.exps[i].name.clone())
                .or_default()
                .push(dt);
            tally.outcome(&self.exps[i].name, s.and_then(|s| check_table1(i, &s)));
        }
        wall
    }

    fn traced_pass(&mut self, rng: &mut Rng, tally: &mut Tally, tr: &mut Tracer) -> TracedPass {
        let mut order: Vec<usize> = (0..self.exps.len()).collect();
        rng.shuffle(&mut order);
        let mut out = TracedPass::default();
        for i in order {
            let mut l = Layers::default();
            let qid = tr.reserve();
            let start = tr.now();
            let s = queries::synthesize_traced(&mut self.exps[i], None, tr, qid, &mut l);
            tr.push(
                qid,
                0,
                self.exps[i].name.clone(),
                start,
                tr.now() - start,
                Vec::new(),
            );
            tally.outcome(&self.exps[i].name, s.and_then(|s| check_table1(i, &s)));
            out.all.add(&l);
        }
        out
    }
}

// ------------------------------------------------- spec→answer query passes

/// The spec→answer machinery `small-queries` and `ooc-large` share:
/// spec texts, timed passes through the production entry points, and the
/// output checks.
struct Answers {
    texts: BTreeMap<Template, String>,
    /// Expected outputs by query, computed on first use.
    expected: BTreeMap<String, Expect>,
    /// Summed `run_real` wall of each untraced pass.
    run_real_walls: Vec<f64>,
    input_rows_per_pass: u64,
    corrupt: bool,
}

fn key(q: &Query) -> String {
    format!("{}-{}", q.template.name(), q.input_rows())
}

impl Answers {
    fn new(templates: &[Template], cfg: &Config) -> Result<Answers, String> {
        let texts = templates
            .iter()
            .map(|&t| Ok((t, queries::spec_text(&t.experiment())?)))
            .collect::<Result<_, String>>()?;
        Ok(Answers {
            texts,
            expected: BTreeMap::new(),
            run_real_walls: Vec::new(),
            input_rows_per_pass: 0,
            corrupt: cfg.corrupt,
        })
    }

    fn verify(&mut self, q: &Query, r: Result<RealReport, String>, tally: &mut Tally) {
        let want = self
            .expected
            .entry(format!("{}-{}", key(q), q.seed))
            .or_insert_with(|| q.expect())
            .clone();
        let r = r.and_then(|mut report| {
            if self.corrupt {
                corrupt(&mut report);
            }
            queries::check_answer(&report, &want)
        });
        tally.outcome(&key(q), r);
    }

    fn pass(&mut self, qs: Vec<Query>, tally: &mut Tally) -> f64 {
        let (mut wall, mut run_real) = (0.0, 0.0);
        self.input_rows_per_pass = qs.iter().map(Query::input_rows).sum();
        for q in qs {
            metrics::reset_peak_rss();
            let t = Instant::now();
            let r = queries::answer(&q, &self.texts[&q.template]);
            let dt = t.elapsed().as_secs_f64();
            tally.note_peak_rss(metrics::peak_rss_mib());
            wall += dt;
            tally.ops.entry(key(&q)).or_default().push(dt);
            if let Ok((_, run_real_s)) = &r {
                run_real += run_real_s;
            }
            self.verify(&q, r.map(|(report, _)| report), tally);
        }
        self.run_real_walls.push(run_real);
        wall
    }

    fn traced_pass(&mut self, qs: Vec<Query>, tally: &mut Tally, tr: &mut Tracer) -> TracedPass {
        let mut out = TracedPass::default();
        for q in qs {
            let mut l = Layers::default();
            let r = queries::answer_traced(&q, &self.texts[&q.template], tr, &mut l);
            self.verify(&q, r, tally);
            out.all.add(&l);
            out.by_template
                .entry(q.template.name())
                .or_default()
                .add(&l);
        }
        out
    }

    fn rows_per_s_line(&self) -> String {
        format!(
            "rows_per_s {} 1/s (input rows of a pass / median wall of its run_real calls)",
            ratio(
                self.input_rows_per_pass as f64,
                median(&self.run_real_walls)
            )
        )
    }
}

fn size_line(q: &Query) -> String {
    let e = q.template.experiment();
    format!(
        "{:>9} rows = {} ({:.2}x RAM {}, {:.2}x pool {})",
        q.input_rows(),
        mib(q.input_bytes()),
        ratio(q.input_bytes() as f64, queries::ram_bytes(&e) as f64),
        mib(queries::ram_bytes(&e)),
        ratio(q.input_bytes() as f64, queries::pool_bytes(&e) as f64),
        mib(queries::pool_bytes(&e)),
    )
}

// --------------------------------------------------------------- small-queries

/// Total input rows per query; the quadratic nested-loop join gets a
/// smaller grid so it does not dominate the stream.
fn small_grid(t: Template, smoke: bool) -> Vec<u64> {
    match (t, smoke) {
        (Template::Bnl, false) => vec![10_000, 12_000, 14_000],
        (_, false) => vec![10_000, 25_000, 40_000],
        (Template::Bnl, true) => vec![1_000],
        (_, true) => vec![2_000],
    }
}

/// Interpreter-check sizes: the naive specifications are quadratic or
/// worse in the interpreter (insertion sort, nested loops, list copies).
fn interpreter_rows(t: Template) -> u64 {
    match t {
        Template::Sort => 100,
        Template::Grace | Template::Bnl | Template::Zip5 => 300,
        _ => 400,
    }
}

struct SmallQueries {
    answers: Answers,
    grid: Vec<(Template, u64)>,
    seed: u64,
}

impl SmallQueries {
    fn setup(cfg: &Config) -> Result<SmallQueries, String> {
        let answers = Answers::new(&Template::ALL, cfg)?;
        let grid = Template::ALL
            .iter()
            .flat_map(|&t| small_grid(t, cfg.smoke).into_iter().map(move |n| (t, n)))
            .collect();
        // Warm-up: one small query per template.
        for (&t, text) in &answers.texts {
            let q = Query {
                template: t,
                cards: t.even_cards(interpreter_rows(t)),
                seed: cfg.seed,
            };
            queries::answer(&q, text)?;
        }
        Ok(SmallQueries {
            answers,
            grid,
            seed: cfg.seed,
        })
    }

    /// The pass's queries: every grid point, fresh data seeds, shuffled.
    fn stream(&self, rng: &mut Rng) -> Vec<Query> {
        let mut qs: Vec<Query> = self
            .grid
            .iter()
            .map(|&(t, n)| Query {
                template: t,
                cards: t.even_cards(n),
                seed: rng.next_u64() >> 16,
            })
            .collect();
        rng.shuffle(&mut qs);
        qs
    }
}

impl Bench for SmallQueries {
    fn describe(&self) -> Vec<String> {
        self.grid
            .iter()
            .map(|&(t, n)| {
                let q = Query {
                    template: t,
                    cards: t.even_cards(n),
                    seed: 0,
                };
                format!("  {:<6} {}", t.name(), size_line(&q))
            })
            .collect()
    }

    fn pass(&mut self, rng: &mut Rng, tally: &mut Tally) -> f64 {
        let qs = self.stream(rng);
        self.answers.pass(qs, tally)
    }

    fn traced_pass(&mut self, rng: &mut Rng, tally: &mut Tally, tr: &mut Tracer) -> TracedPass {
        let qs = self.stream(rng);
        self.answers.traced_pass(qs, tally, tr)
    }

    fn finish(&mut self, tally: &mut Tally) {
        for (&t, text) in &self.answers.texts {
            let q = Query {
                template: t,
                cards: t.even_cards(interpreter_rows(t)),
                seed: self.seed.wrapping_add(t as u64),
            };
            let what = format!("interpreter check {}", t.name());
            tally.outcome(&what, queries::interpreter_check(&q, text));
        }
    }

    fn extra_lines(&self) -> Vec<String> {
        vec![self.answers.rows_per_s_line()]
    }
}

// ------------------------------------------------------------------- ooc-large

const OOC_TEMPLATES: [(Template, &[u64]); 4] = [
    (Template::Sort, &[2_000_000]),
    (Template::Grace, &[600_000, 400_000]),
    (Template::Union, &[2_000_000, 2_000_000]),
    (Template::Agg, &[3_000_000]),
];

struct OocLarge {
    answers: Answers,
    /// The same four queries (and data) every pass.
    queries: Vec<Query>,
}

impl OocLarge {
    fn setup(cfg: &Config) -> Result<OocLarge, String> {
        let ts: Vec<Template> = OOC_TEMPLATES.iter().map(|t| t.0).collect();
        let answers = Answers::new(&ts, cfg)?;
        let scale = if cfg.smoke { 200 } else { 1 };
        let mut rng = Rng::new(cfg.seed);
        let queries: Vec<Query> = OOC_TEMPLATES
            .iter()
            .map(|&(t, cards)| Query {
                template: t,
                cards: cards.iter().map(|c| c / scale).collect(),
                seed: rng.next_u64() >> 16,
            })
            .collect();
        // Warm-up: each template at 1/10 of its size.
        for q in &queries {
            let small = Query {
                cards: q.cards.iter().map(|c| (c / 10).max(100)).collect(),
                ..q.clone()
            };
            queries::answer(&small, &answers.texts[&q.template])?;
        }
        Ok(OocLarge { answers, queries })
    }

    fn order(&self, rng: &mut Rng) -> Vec<Query> {
        let mut qs = self.queries.clone();
        rng.shuffle(&mut qs);
        qs
    }
}

impl Bench for OocLarge {
    fn describe(&self) -> Vec<String> {
        self.queries
            .iter()
            .map(|q| {
                format!(
                    "  {:<6} {}, data seed {}",
                    q.template.name(),
                    size_line(q),
                    q.seed
                )
            })
            .collect()
    }

    fn pass(&mut self, rng: &mut Rng, tally: &mut Tally) -> f64 {
        let qs = self.order(rng);
        self.answers.pass(qs, tally)
    }

    fn traced_pass(&mut self, rng: &mut Rng, tally: &mut Tally, tr: &mut Tracer) -> TracedPass {
        let qs = self.order(rng);
        self.answers.traced_pass(qs, tally, tr)
    }

    fn extra_lines(&self) -> Vec<String> {
        vec![self.answers.rows_per_s_line()]
    }
}

// ------------------------------------------------------------------- paper-act

/// A paper-act row faster than this is simulated again, back to back,
/// until this much time has passed, and its latency is the median of
/// those executions: a pass simulates each row once, so the ~16 ms rows
/// around `query_s.p50` would otherwise be single samples.
const MIN_ROW_SAMPLE_S: f64 = 0.2;

struct PaperAct {
    exps: Vec<Experiment>,
    synths: Vec<Synthesis>,
    /// Act of each row from its first execution; later ones must agree.
    acts: BTreeMap<usize, f64>,
}

impl PaperAct {
    fn setup(cfg: &Config) -> Result<PaperAct, String> {
        let mut exps = experiments::table1();
        if cfg.smoke {
            // The two no-writeout BNL rows take seconds each to simulate.
            exps.drain(0..2);
        }
        let synths = exps
            .iter()
            .map(|e| e.synthesize().map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(PaperAct {
            exps,
            synths,
            acts: BTreeMap::new(),
        })
    }

    fn check(&mut self, i: usize, act: Result<f64, String>) -> Result<(), String> {
        let act = act?;
        if !(act.is_finite() && act > 0.0) {
            return Err(format!("act {act} is not finite and positive"));
        }
        let first = *self.acts.entry(i).or_insert(act);
        if first != act {
            return Err(format!("act {act} differs from an earlier {first}"));
        }
        Ok(())
    }
}

impl Bench for PaperAct {
    fn describe(&self) -> Vec<String> {
        let mut v = vec![format!(
            "  {} Table 1 winners simulated at paper scale (Mode::Simulated)",
            self.exps.len()
        )];
        v.extend(paper_sizes(&self.exps));
        v
    }

    fn extra_lines(&self) -> Vec<String> {
        vec!["act_pass_s is pass_s on this workload".to_string()]
    }

    fn pass(&mut self, rng: &mut Rng, tally: &mut Tally) -> f64 {
        let mut order: Vec<usize> = (0..self.exps.len()).collect();
        rng.shuffle(&mut order);
        let mut wall = 0.0;
        for i in order {
            let name = self.exps[i].name.clone();
            let start = Instant::now();
            let (mut times, mut peaks) = (Vec::new(), Vec::new());
            while times.is_empty() || start.elapsed().as_secs_f64() < MIN_ROW_SAMPLE_S {
                metrics::reset_peak_rss();
                let t = Instant::now();
                let act = self.exps[i].execute(&self.synths[i]);
                times.push(t.elapsed().as_secs_f64());
                peaks.push(metrics::peak_rss_mib());
                let r = self.check(i, act.map_err(|e| e.to_string()));
                tally.outcome(&name, r);
            }
            tally.note_peak_rss(median(&peaks));
            let dt = median(&times);
            wall += dt;
            tally.ops.entry(name).or_default().push(dt);
        }
        wall
    }

    fn traced_pass(&mut self, rng: &mut Rng, tally: &mut Tally, tr: &mut Tracer) -> TracedPass {
        let mut order: Vec<usize> = (0..self.exps.len()).collect();
        rng.shuffle(&mut order);
        let mut out = TracedPass::default();
        for i in order {
            let mut l = Layers::default();
            let act = queries::execute_traced(&self.exps[i], &self.synths[i], tr, &mut l);
            let r = self.check(i, act);
            tally.outcome(&self.exps[i].name.clone(), r);
            out.all.add(&l);
        }
        out
    }
}

// ---------------------------------------------------------------------- runner

fn setup(cfg: &Config) -> Result<Box<dyn Bench>, String> {
    Ok(match cfg.workload {
        Workload::SynthTable1 => Box::new(SynthTable1::setup()?),
        Workload::SmallQueries => Box::new(SmallQueries::setup(cfg)?),
        Workload::OocLarge => Box::new(OocLarge::setup(cfg)?),
        Workload::PaperAct => Box::new(PaperAct::setup(cfg)?),
    })
}

/// Runs one workload: set-up (repeated), then passes until the next one
/// would overrun `cfg.seconds` (at least one), then the end-of-run checks.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    metrics::fix_mmap_threshold();
    let mut setup_s = Vec::new();
    let mut bench = None;
    while setup_s.len() < SETUP_REPS || setup_s.iter().sum::<f64>() < SETUP_MIN_S {
        let t = Instant::now();
        bench = Some(setup(cfg)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("set-up ran at least once");
    let mut lines = vec![format!(
        "workload {} seed {}: inputs relative to each experiment's RAM device and buffer pool",
        cfg.workload.name(),
        cfg.seed
    )];
    lines.extend(bench.describe());
    let (cap, discard) = queries::real_run_target();
    lines.push(format!(
        "real runs: devices capped at {} MiB (file-size limit {}), answers {}",
        cap >> 20,
        queries::file_size_limit().map_or("none".into(), |l| format!("{} MiB", l >> 20)),
        if discard {
            "discarded"
        } else {
            "written to a device"
        }
    ));

    let mut rng = Rng::new(cfg.seed);
    let mut tally = Tally::default();
    let mut walls = Vec::new();
    let mut rss = Vec::new();
    let mut traced = Vec::new();
    let mut tracer = Tracer::default();
    let start = Instant::now();
    let mut last = 0.0;
    while walls.is_empty() || start.elapsed().as_secs_f64() + last <= cfg.seconds {
        let round = Instant::now();
        tally.pass_peak_rss = 0.0;
        walls.push(bench.pass(&mut rng, &mut tally));
        rss.push(tally.pass_peak_rss);
        if cfg.trace {
            traced.push(bench.traced_pass(&mut rng, &mut tally, &mut tracer));
        }
        last = round.elapsed().as_secs_f64();
    }
    bench.finish(&mut tally);

    let mut values = Values::new();
    values.insert("setup_s", median(&setup_s));
    values.insert("pass_s", median(&walls));
    let per_op: Vec<f64> = tally.ops.values().map(|v| median(v)).collect();
    values.insert("query_s.p50", quantile(&per_op, 0.5));
    values.insert("query_s.p90", quantile(&per_op, 0.9));
    values.insert("peak_rss_mib", median(&rss));
    let samples: usize = tally.ops.values().map(Vec::len).sum();
    lines.push(format!(
        "passes {}; pass wall min {:.4} / median {:.4} / max {:.4} s; {} latency samples over {} \
         distinct operations (query_s.* are quantiles of per-operation medians)",
        walls.len(),
        quantile(&walls, 0.0),
        median(&walls),
        quantile(&walls, 1.0),
        samples,
        tally.ops.len()
    ));
    lines.extend(bench.extra_lines());
    if cfg.trace {
        layer_values(&traced, &walls, &mut values);
        lines.push("waterfall of every traced query (seconds per span):".to_string());
        lines.extend(tracer.waterfall());
    }
    for e in &tally.errors {
        lines.push(format!("FAILED {e}"));
    }
    lines.push(format!(
        "error_rate {} ratio ({} failed of {} attempted)",
        ratio(tally.failed as f64, tally.attempted as f64),
        tally.failed,
        tally.attempted
    ));
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        values,
        lines,
        tracer: cfg.trace.then_some(tracer),
    })
}

/// One per-layer metric of a pass total (`None` for names handled
/// elsewhere).
fn layer_metric(name: &str, l: &Layers) -> Option<f64> {
    Some(match name {
        "ocal.parse_s" => l.parse,
        "rewrite.search_s" => l.search,
        "rewrite.explored" => l.explored,
        "rewrite.generated" => l.generated,
        "rewrite.accept_ratio" => ratio(l.explored, l.generated),
        "rewrite.rejected_semantics" => l.rejected_semantics,
        "rewrite.arena_nodes" => l.arena_nodes,
        "cost.estimate_s" => l.estimate,
        "cost.costed" => l.costed,
        "cost.uncosted" => l.uncosted,
        "opt.ladder_s" => l.ladder,
        "opt.refine_s" => l.refine,
        "opt.evals" => l.evals,
        "synth.synthesize_s" => l.synthesize,
        "synth.pipeline_overlap" => {
            ratio(l.search + l.estimate + l.ladder + l.refine, l.synthesize)
        }
        "engine.lower_s" => l.lower,
        "engine.datagen_s" => l.datagen,
        "engine.twin_s" => l.twin,
        "engine.output_rows" => l.output_rows,
        "engine.simulated_s" => l.simulated,
        "storage.sim_seeks" => l.sim_seeks,
        "storage.sim_bytes_read" => l.sim_bytes_read,
        "storage.sim_bytes_written" => l.sim_bytes_written,
        "runtime.exec_s" => l.exec,
        "runtime.io_s" => l.io,
        "runtime.exec_rows_per_s" => ratio(l.input_rows, l.exec),
        "runtime.pool_hits" => l.pool_hits,
        "runtime.pool_misses" => l.pool_misses,
        "runtime.pool_hit_ratio" => ratio(l.pool_hits, l.pool_hits + l.pool_misses),
        "runtime.pool_evictions" => l.pool_evictions,
        "runtime.pool_write_backs" => l.pool_write_backs,
        "runtime.bytes_read" => l.bytes_read,
        "runtime.bytes_written" => l.bytes_written,
        "runtime.write_amp" => ratio(l.bytes_written, l.input_bytes),
        "runtime.peak_resident_bytes" => l.peak_resident,
        "runtime.peak_over_ram" => l.peak_over_ram,
        "runtime.retries" => l.retries,
        "trace.coverage" => ratio(l.layer_seconds(), l.e2e),
        _ => return None,
    })
}

/// Per-layer metrics: each is the median over traced passes of the
/// pass's total (or ratio of totals). `runtime.<template>.<metric>` is
/// `runtime.<metric>` over that template's queries alone.
fn layer_values(passes: &[TracedPass], untraced_walls: &[f64], values: &mut Values) {
    for d in metrics::PER_LAYER {
        let per_pass: Vec<f64> = match d.name.split('.').collect::<Vec<_>>()[..] {
            ["runtime", template, metric] => {
                let name = format!("runtime.{metric}");
                passes
                    .iter()
                    .filter_map(|p| p.by_template.get(template))
                    .filter_map(|l| layer_metric(&name, l))
                    .collect()
            }
            _ => passes
                .iter()
                .filter_map(|p| layer_metric(d.name, &p.all))
                .collect(),
        };
        values.insert(d.name, median(&per_pass));
    }
    let traced_walls: Vec<f64> = passes.iter().map(|p| p.all.e2e).collect();
    values.insert(
        "trace.overhead",
        ratio(median(&traced_walls), median(untraced_walls)),
    );
}
