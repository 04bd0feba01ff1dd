//! Spec→answer queries and the calls into each layer, either through the
//! production entry points (`Experiment::synthesize`,
//! `Synthesis::run_real`, `Experiment::execute`) or, in the traced run,
//! layer by layer through each crate's public functions.

use crate::oracle;
use crate::trace::Tracer;
use ocas::experiments::{self, Experiment};
use ocas::Synthesis;
use ocas_cost::CostEngine;
use ocas_engine::{lower::LowerCtx, CpuModel, Executor, Mode, Output, RelSpec, Relation};
use ocas_hierarchy::{EdgeCosts, Hierarchy};
use ocas_opt::{ladder_search, optimize, ParamSpec, Problem};
use ocas_runtime::{FileBackend, PoolConfig, RealReport};
use ocas_storage::StorageSim;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// The plan families the spec→answer workloads draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Template {
    Sort,
    Grace,
    Union,
    Dedup,
    Agg,
    Zip5,
    Bnl,
}

impl Template {
    pub const ALL: [Template; 7] = [
        Template::Sort,
        Template::Grace,
        Template::Union,
        Template::Dedup,
        Template::Agg,
        Template::Zip5,
        Template::Bnl,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Template::Sort => "sort",
            Template::Grace => "grace",
            Template::Union => "union",
            Template::Dedup => "dedup",
            Template::Agg => "agg",
            Template::Zip5 => "zip5",
            Template::Bnl => "bnl",
        }
    }

    /// The Table 1 experiment whose specification, hierarchy, layout and
    /// search settings the template uses.
    pub fn experiment(self) -> Experiment {
        match self {
            Template::Sort => experiments::external_sorting(),
            Template::Grace => experiments::grace_hash_join(),
            Template::Union => experiments::multiset_union_sorted(),
            Template::Dedup => experiments::dedup_sorted(),
            Template::Agg => experiments::aggregation(),
            Template::Zip5 => experiments::column_store_read(5),
            Template::Bnl => experiments::bnl_no_writeout(),
        }
    }

    /// Faithful-scale relations with `total` rows split evenly over the
    /// template's inputs.
    pub fn even_cards(self, total: u64) -> Vec<u64> {
        let n = match self {
            Template::Grace | Template::Union | Template::Bnl => 2,
            Template::Zip5 => 5,
            _ => 1,
        };
        vec![total / n; n as usize]
    }

    pub fn rel_specs(self, cards: &[u64]) -> Vec<RelSpec> {
        let c = |i: usize| cards[i];
        match self {
            Template::Sort => vec![RelSpec::ints("R", "HDD", c(0))],
            Template::Grace | Template::Bnl => {
                vec![
                    RelSpec::pairs("R", "HDD", c(0)),
                    RelSpec::pairs("S", "HDD", c(1)),
                ]
            }
            Template::Union => vec![
                RelSpec::ints("A", "HDD", c(0)).sorted(),
                RelSpec::ints("B", "HDD", c(1)).sorted(),
            ],
            Template::Dedup => vec![RelSpec::ints("L", "HDD", c(0))
                .sorted()
                .with_key_range((c(0) / 2).max(1))],
            Template::Agg => vec![RelSpec::ints("L", "HDD", c(0))],
            Template::Zip5 => (0..5)
                .map(|i| RelSpec::ints(&format!("C{}", i + 1), "HDD", c(i)))
                .collect(),
        }
    }
}

/// One spec→answer query: a template, its input cardinalities and the
/// data seed (relation `i` is generated with `seed + i`).
#[derive(Debug, Clone)]
pub struct Query {
    pub template: Template,
    pub cards: Vec<u64>,
    pub seed: u64,
}

impl Query {
    pub fn rel_specs(&self) -> Vec<RelSpec> {
        self.template.rel_specs(&self.cards)
    }

    pub fn input_rows(&self) -> u64 {
        self.cards.iter().sum()
    }

    pub fn input_bytes(&self) -> u64 {
        self.rel_specs()
            .iter()
            .map(|s| s.card * s.tuple_bytes())
            .sum()
    }

    /// The expected output, from the generated inputs.
    pub fn expect(&self) -> oracle::Expect {
        let inputs: Vec<_> = self
            .rel_specs()
            .iter()
            .enumerate()
            .map(|(i, s)| oracle::input_rows(s, self.seed + i as u64))
            .collect();
        oracle::expect(self.template, &inputs)
    }
}

/// The OCAL text of an experiment's specification; fails unless it
/// parses back to the same program.
pub fn spec_text(e: &Experiment) -> Result<String, String> {
    let text = ocal::pretty(&e.spec.program);
    match ocal::parse(&text) {
        Ok(p) if p == e.spec.program => Ok(text),
        Ok(_) => Err(format!("{}: OCAL text does not round-trip", e.name)),
        Err(err) => Err(format!("{}: {err}", e.name)),
    }
}

/// Spec → program: parse the OCAL text, then `Experiment::synthesize`.
pub fn synthesize(e: &mut Experiment, text: &str) -> Result<Synthesis, String> {
    e.spec.program = ocal::parse(text).map_err(|err| err.to_string())?;
    e.synthesize().map_err(|err| err.to_string())
}

/// Spec → answer for one query through the production entry points;
/// also returns the wall seconds of the `run_real` call.
pub fn answer(q: &Query, text: &str) -> Result<(RealReport, f64), String> {
    let mut e = q.template.experiment();
    let synth = synthesize(&mut e, text)?;
    prepare_real_run(&mut e);
    let setup = e.real_setup(q.rel_specs(), q.seed);
    let t = Instant::now();
    let report = synth.run_real(&setup).map_err(|err| err.to_string())?;
    Ok((report, t.elapsed().as_secs_f64()))
}

/// Checks a query's answer: the real run agrees with its simulated twin
/// (`RealReport::outputs_match`) and with the independent expectation.
pub fn check_answer(report: &RealReport, want: &oracle::Expect) -> Result<(), String> {
    if !report.outputs_match() {
        return Err("real and simulated outputs differ".into());
    }
    oracle::check(&report.output, want)
}

/// Interpreter-level check of one (small) query: the OCAL reference
/// interpreter on the naive specification, the benchmark's expectation
/// and the program's answer must all agree.
pub fn interpreter_check(q: &Query, text: &str) -> Result<(), String> {
    let e = q.template.experiment();
    let join = matches!(q.template, Template::Grace | Template::Bnl);
    let mut inputs = BTreeMap::new();
    let mut rows = Vec::new();
    for (i, s) in q.rel_specs().iter().enumerate() {
        let r = oracle::input_rows(s, q.seed + i as u64);
        let v = match (q.template, r.width()) {
            (Template::Sort, _) => {
                ocal::Value::list(r.iter().map(|x| ocal::Value::int_list(&[x[0]])).collect())
            }
            (_, 2) => ocal::Value::pair_list(&r.iter().map(|x| (x[0], x[1])).collect::<Vec<_>>()),
            _ => ocal::Value::int_list(&r.iter().map(|x| x[0]).collect::<Vec<_>>()),
        };
        inputs.insert(s.name.clone(), v);
        rows.push(r);
    }
    let value = ocal::Evaluator::new()
        .with_fuel(u64::MAX)
        .run(&e.spec.program, &inputs)
        .map_err(|err| format!("interpreter: {err}"))?;
    let interp = oracle::canonical_rows(oracle::value_rows(&value)?, join);
    let (report, _) = answer(q, text)?;
    check_answer(&report, &oracle::expect(q.template, &rows))?;
    if oracle::canonical_rows(report.output.to_rows(), join) != interp {
        return Err("answer differs from the OCAL interpreter".into());
    }
    Ok(())
}

/// What one traced operation (or a pass of them) did in each layer.
/// Seconds and counts add up over operations; peaks take the maximum.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub parse: f64,
    pub search: f64,
    pub estimate: f64,
    pub ladder: f64,
    pub refine: f64,
    pub synthesize: f64,
    pub lower: f64,
    pub datagen: f64,
    pub exec: f64,
    pub io: f64,
    pub twin: f64,
    pub simulated: f64,
    /// Wall of the operation's production calls inside the traced run.
    pub e2e: f64,
    pub explored: f64,
    pub generated: f64,
    pub rejected_semantics: f64,
    pub arena_nodes: f64,
    pub costed: f64,
    pub uncosted: f64,
    pub evals: f64,
    pub output_rows: f64,
    pub sim_seeks: f64,
    pub sim_bytes_read: f64,
    pub sim_bytes_written: f64,
    pub pool_hits: f64,
    pub pool_misses: f64,
    pub pool_evictions: f64,
    pub pool_write_backs: f64,
    pub bytes_read: f64,
    pub bytes_written: f64,
    pub input_rows: f64,
    pub input_bytes: f64,
    pub retries: f64,
    pub peak_resident: f64,
    pub peak_over_ram: f64,
}

impl Layers {
    pub fn add(&mut self, o: &Layers) {
        macro_rules! sum {
            ($($f:ident),*) => { $(self.$f += o.$f;)* };
        }
        sum!(
            parse,
            search,
            estimate,
            ladder,
            refine,
            synthesize,
            lower,
            datagen,
            exec,
            io,
            twin,
            simulated,
            e2e,
            explored,
            generated,
            rejected_semantics,
            arena_nodes,
            costed,
            uncosted,
            evals,
            output_rows,
            sim_seeks,
            sim_bytes_read,
            sim_bytes_written,
            pool_hits,
            pool_misses,
            pool_evictions,
            pool_write_backs,
            bytes_read,
            bytes_written,
            input_rows,
            input_bytes,
            retries
        );
        self.peak_resident = self.peak_resident.max(o.peak_resident);
        self.peak_over_ram = self.peak_over_ram.max(o.peak_over_ram);
    }

    /// Seconds the layer spans account for.
    pub fn layer_seconds(&self) -> f64 {
        self.parse
            + self.search
            + self.estimate
            + self.ladder
            + self.refine
            + self.lower
            + self.datagen
            + self.exec
            + self.twin
            + self.simulated
    }

    fn note_report(&mut self, r: &RealReport, ram_bytes: u64) {
        self.exec += r.wall_seconds;
        self.io += r.io_seconds;
        self.output_rows += r.output.len() as f64;
        for (_, p) in &r.pools {
            self.pool_hits += p.hits as f64;
            self.pool_misses += p.misses as f64;
            self.pool_evictions += p.evictions as f64;
            self.pool_write_backs += p.write_backs as f64;
        }
        for (_, d) in &r.real_devices {
            self.bytes_read += d.bytes_read as f64;
            self.bytes_written += d.bytes_written as f64;
        }
        for (_, d) in &r.sim_devices {
            self.sim_seeks += d.seeks as f64;
            self.sim_bytes_read += d.bytes_read as f64;
            self.sim_bytes_written += d.bytes_written as f64;
        }
        let peak = r.peak_resident_bytes.unwrap_or(0) as f64;
        self.peak_resident = self.peak_resident.max(peak);
        self.peak_over_ram = self.peak_over_ram.max(peak / ram_bytes.max(1) as f64);
        self.retries += r.recovery.as_ref().map_or(0, |c| c.retries) as f64;
    }
}

/// Device capacity of a real run that writes its answer to a device:
/// the simulated twin reserves a 1 GiB sink extent for the answer, on
/// top of the inputs and spills.
const TO_DEVICE_CAP: u64 = 2 << 30;

/// Device capacity of a real run that discards its answer: the inputs,
/// spills and in-memory answers of every query fit in it.
pub const DISCARD_CAP: u64 = 256 << 20;

/// The soft file-size limit of the process (`RLIMIT_FSIZE`, from
/// `/proc/self/limits`), or `None` when unlimited or unknown.
pub fn file_size_limit() -> Option<u64> {
    static LIMIT: OnceLock<Option<u64>> = OnceLock::new();
    *LIMIT.get_or_init(|| {
        let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
        let line = limits.lines().find(|l| l.starts_with("Max file size"))?;
        line["Max file size".len()..]
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    })
}

/// How real runs fit the file-size limit: the device capacity, and
/// whether answers are discarded (collected in memory and checked, but
/// not written to a device) because `TO_DEVICE_CAP` is over the limit.
pub fn real_run_target() -> (u64, bool) {
    match file_size_limit() {
        Some(limit) if limit < TO_DEVICE_CAP => (limit.min(DISCARD_CAP), true),
        _ => (TO_DEVICE_CAP, false),
    }
}

/// Readies a synthesized experiment for real runs. The real backend backs
/// each device with a sparse file of the device's full size (1 TiB for
/// the HDD), and growing a file past the file-size limit kills the
/// process with `SIGXFSZ`; so every device shrinks to the capacity of
/// `real_run_target`, which also decides where the answer goes.
/// Synthesis has already run on the paper's hierarchy.
pub fn prepare_real_run(e: &mut Experiment) {
    let (cap, discard) = real_run_target();
    apply_real_target(e, cap, discard);
}

/// Shrinks every device of `e` to at most `cap` bytes and, with
/// `discard`, makes the answer stay in memory instead of on a device.
pub fn apply_real_target(e: &mut Experiment, cap: u64, discard: bool) {
    e.hierarchy = bounded(&e.hierarchy, cap);
    if discard {
        e.output = Output::Discard;
    }
}

/// `h` with every device at most `cap` bytes.
fn bounded(h: &Hierarchy, cap: u64) -> Hierarchy {
    let props = |id| {
        let mut p = h.node(id).clone();
        p.size = p.size.min(cap);
        p
    };
    let mut out = Hierarchy::new(props(h.root())).expect("a shrunk root stays valid");
    for id in h.ids().filter(|&id| id != h.root()) {
        let parent = h.parent(id).expect("a non-root node has a parent");
        let costs = EdgeCosts {
            up: h.edge(id, parent).expect("child-to-parent edge"),
            down: h.edge(parent, id).expect("parent-to-child edge"),
        };
        out.add_child(&h.node(parent).name, props(id), costs)
            .expect("a shrunk node stays valid");
    }
    out
}

/// Bytes of the hierarchy's RAM device.
pub fn ram_bytes(e: &Experiment) -> u64 {
    e.hierarchy
        .by_name("RAM")
        .map_or(0, |id| e.hierarchy.node(id).size)
}

/// Bytes of one device's buffer pool under `PoolConfig::default()`.
pub fn pool_bytes(e: &Experiment) -> u64 {
    let cfg = PoolConfig::default();
    let page = if cfg.page_bytes > 0 {
        cfg.page_bytes as u64
    } else {
        e.hierarchy
            .by_name("HDD")
            .map_or(4096, |id| e.hierarchy.node(id).pagesize.max(1))
    };
    cfg.frames as u64 * page
}

/// The synthesis pipeline called layer by layer from outside: search
/// (`Experiment::run_search`, the settings `synthesize` uses), cost
/// estimation of every explored program (`CostEngine::cost`), ladder
/// screening of every costed one (`ladder_search`) and refinement of the
/// best few (`optimize`). Returns the winner's tuned seconds.
pub fn synth_by_layer(
    e: &Experiment,
    tr: &mut Tracer,
    qid: u64,
    l: &mut Layers,
) -> Result<f64, String> {
    let (search, dur) = tr.span(qid, "search", || e.run_search(false, 0, None));
    l.search += dur;
    let search = search.map_err(|err| err.to_string())?;
    let st = &search.stats;
    l.explored += st.explored as f64;
    l.generated += st.generated as f64;
    l.rejected_semantics += st.rejected_semantics as f64;
    l.arena_nodes += st.arena_nodes as f64;

    let (problems, dur) = tr.span(qid, "cost", || {
        search
            .programs
            .iter()
            .map(|(program, _)| {
                let engine = CostEngine::new(
                    &e.hierarchy,
                    &e.layout,
                    e.spec.annots.clone(),
                    e.spec.stats.clone(),
                    e.spec.int_size,
                )?;
                let report = engine.cost(program)?;
                Ok(Problem {
                    objective: report.seconds.clone(),
                    params: report
                        .params
                        .iter()
                        .map(|p| ParamSpec::new(p.clone(), None))
                        .collect(),
                    constraints: report
                        .constraints
                        .iter()
                        .map(|c| (c.lhs.clone(), c.rhs.clone()))
                        .collect(),
                    fixed: e.spec.stats.clone(),
                })
            })
            .collect::<Vec<Result<Problem, ocas_cost::CostError>>>()
    });
    l.estimate += dur;

    let (mut tuned, dur) = tr.span(qid, "ladder", || {
        let mut tuned = Vec::new();
        for p in problems.into_iter().flatten() {
            if let Ok(opt) = ladder_search(&p) {
                tuned.push((opt.objective, opt.evals, p));
            }
        }
        tuned
    });
    l.ladder += dur;
    l.costed += tuned.len() as f64;
    l.uncosted += (search.programs.len() - tuned.len()) as f64;
    l.evals += tuned.iter().map(|t| t.1 as f64).sum::<f64>();
    tuned.sort_by(|a, b| a.0.total_cmp(&b.0));

    let refine_top = ocas::Synthesizer::new(e.hierarchy.clone(), e.layout.clone()).refine_top;
    let (best, dur) = tr.span(qid, "refine", || {
        let mut best = tuned.first().map(|t| t.0);
        let mut evals = 0u64;
        for (_, _, p) in tuned.iter().take(refine_top) {
            if let Ok(opt) = optimize(p).or_else(|_| ladder_search(p)) {
                evals += opt.evals;
                if best.is_some_and(|b| opt.objective < b) {
                    best = Some(opt.objective);
                }
            }
        }
        (best, evals)
    });
    l.refine += dur;
    l.evals += best.1 as f64;
    best.0
        .ok_or_else(|| "no candidate could be costed".to_string())
}

/// Relative difference of two positive numbers.
fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// Traced spec → program: parse the OCAL text (when given), the
/// layer-by-layer pipeline, then the production `Experiment::synthesize`,
/// whose winner must cost the same.
pub fn synthesize_traced(
    e: &mut Experiment,
    text: Option<&str>,
    tr: &mut Tracer,
    qid: u64,
    l: &mut Layers,
) -> Result<Synthesis, String> {
    if let Some(text) = text {
        let (parsed, dur) = tr.span(qid, "parse", || ocal::parse(text));
        l.parse += dur;
        l.e2e += dur;
        e.spec.program = parsed.map_err(|err| err.to_string())?;
    }
    let by_layer = synth_by_layer(e, tr, qid, l)?;
    let (synth, dur) = tr.span(qid, "synthesize", || e.synthesize());
    l.synthesize += dur;
    l.e2e += dur;
    let synth = synth.map_err(|err| err.to_string())?;
    if rel_diff(by_layer, synth.best.seconds) > 1e-9 {
        return Err(format!(
            "{}: layer-by-layer winner costs {by_layer}, synthesize's {}",
            e.name, synth.best.seconds
        ));
    }
    Ok(synth)
}

/// Traced spec → answer: traced synthesis, then lowering, input
/// generation on both backends, the production `Synthesis::run_real`
/// (execution and flush seconds from its report) and the simulated twin
/// (`Executor<StorageSim>::run`), whose output must equal the report's.
pub fn answer_traced(
    q: &Query,
    text: &str,
    tr: &mut Tracer,
    l: &mut Layers,
) -> Result<RealReport, String> {
    let qid = tr.reserve();
    let start = tr.now();
    let mut e = q.template.experiment();
    let synth = synthesize_traced(&mut e, Some(text), tr, qid, l)?;
    prepare_real_run(&mut e);
    let specs = q.rel_specs();
    l.input_rows += q.input_rows() as f64;
    l.input_bytes += q.input_bytes() as f64;

    let mut params = synth.best.params.clone();
    params.entry("b_out".to_string()).or_insert(1 << 16);
    params.entry("b_in".to_string()).or_insert(1 << 16);
    let cx = LowerCtx {
        params,
        relations: specs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.clone(), i))
            .collect(),
        output: e.output.clone(),
        scratch: e.scratch.clone(),
    };
    let (plan, dur) = tr.span(qid, "lower", || {
        ocas_engine::lower(&synth.best.program, e.spec.hint, &cx)
    });
    l.lower += dur;
    let plan = plan.map_err(|err| err.to_string())?;

    let (sim_rels, dur) = tr.span(qid, "datagen", || -> Result<_, String> {
        let mut fb = FileBackend::from_hierarchy(&e.hierarchy, PoolConfig::default())
            .map_err(|err| err.to_string())?;
        let mut sm = StorageSim::from_hierarchy(&e.hierarchy);
        let mut rels = Vec::new();
        for (i, s) in specs.iter().enumerate() {
            let seed = q.seed + i as u64;
            Relation::create(&mut fb, s, true, seed).map_err(|err| err.to_string())?;
            rels.push(Relation::create(&mut sm, s, true, seed).map_err(|err| err.to_string())?);
        }
        Ok((sm, rels, fb))
    });
    l.datagen += dur;
    let (sm, rels, fb) = sim_rels?;
    drop(fb);

    let setup = e.real_setup(specs.clone(), q.seed);
    let run_start = tr.now();
    let t = Instant::now();
    let report = synth.run_real(&setup);
    let dur = t.elapsed().as_secs_f64();
    l.e2e += dur;
    let report = report.map_err(|err| err.to_string())?;
    let run_id = tr.reserve();
    tr.push(
        run_id,
        qid,
        "run_plan",
        run_start,
        dur,
        vec![("exec_s", report.wall_seconds), ("io_s", report.io_seconds)],
    );
    let exec_id = tr.reserve();
    tr.push(
        exec_id,
        qid,
        "exec",
        run_start,
        report.wall_seconds,
        Vec::new(),
    );
    l.note_report(&report, ram_bytes(&e));

    let (twin, dur) = tr.span(qid, "twin", || {
        let mut ex = Executor::new(sm, Mode::Faithful, CpuModel::default());
        for r in rels {
            ex.add_relation(r);
        }
        ex.run(&plan)
    });
    l.twin += dur;
    let twin = twin.map_err(|err| err.to_string())?;
    if twin.output.unwrap_or_default() != report.sim_output {
        return Err("traced twin disagrees with run_real's twin".into());
    }
    let end = tr.now();
    tr.push(
        qid,
        0,
        format!("{}-{}", q.template.name(), q.input_rows()),
        start,
        end - start,
        vec![("input_rows", q.input_rows() as f64)],
    );
    Ok(report)
}

/// Traced paper-scale simulated execution of one synthesized winner: the
/// body of `Experiment::execute` called layer by layer (relation
/// allocation, lowering, `Executor<StorageSim>::run` in `Mode::Simulated`),
/// plus the simulator's per-device counters. Returns simulated seconds.
pub fn execute_traced(
    e: &Experiment,
    synth: &Synthesis,
    tr: &mut Tracer,
    l: &mut Layers,
) -> Result<f64, String> {
    let qid = tr.reserve();
    let start = tr.now();
    let ((mut ex, relations), dur) = tr.span(qid, "datagen", || {
        let sm = StorageSim::from_hierarchy(&e.hierarchy);
        let mut ex = Executor::new(sm, Mode::Simulated, CpuModel::default());
        let mut relations = BTreeMap::new();
        for s in &e.rel_specs {
            let rel = Relation::create(&mut ex.sm, s, false, 0).map_err(|err| err.to_string());
            let idx = rel.map(|r| ex.add_relation(r));
            relations.insert(s.name.clone(), idx);
        }
        (ex, relations)
    });
    l.datagen += dur;
    let relations = relations
        .into_iter()
        .map(|(k, v)| v.map(|i| (k, i)))
        .collect::<Result<BTreeMap<_, _>, _>>()?;
    let mut params = synth.best.params.clone();
    params.entry("b_out".to_string()).or_insert(1 << 20);
    params.entry("b_in".to_string()).or_insert(1 << 20);
    let cx = LowerCtx {
        params,
        relations,
        output: e.output.clone(),
        scratch: e.scratch.clone(),
    };
    let (plan, dur) = tr.span(qid, "lower", || {
        ocas_engine::lower(&synth.best.program, e.spec.hint, &cx)
    });
    l.lower += dur;
    let plan = plan.map_err(|err| err.to_string())?;
    let (stats, dur) = tr.span(qid, "simulate", || ex.run(&plan));
    l.simulated += dur;
    let stats = stats.map_err(|err| err.to_string())?;
    for id in e.hierarchy.ids() {
        if let Some(d) = StorageSim::device_stats(&ex.sm, &e.hierarchy.node(id).name) {
            l.sim_seeks += d.seeks as f64;
            l.sim_bytes_read += d.bytes_read as f64;
            l.sim_bytes_written += d.bytes_written as f64;
        }
    }
    l.output_rows += stats.output_rows as f64;
    let end = tr.now();
    l.e2e += end - start;
    tr.push(
        qid,
        0,
        e.name.clone(),
        start,
        end - start,
        vec![("act_s", stats.seconds)],
    );
    Ok(stats.seconds)
}
