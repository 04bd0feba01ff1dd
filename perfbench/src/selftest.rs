//! Self-tests of the benchmark: metric names, per-workload coverage of
//! the metric tables at smoke size, that a wrong answer is counted, and
//! that real runs fit a small file-size limit.

use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::queries::{self, Query, Template};
use crate::workloads::{self, Config, Workload};

/// True for names made of letters, digits, `_`, `.` and `-`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

fn smoke(workload: Workload, trace: bool, corrupt: bool) -> workloads::Outcome {
    let cfg = Config {
        workload,
        seed: 3,
        seconds: 0.0,
        trace,
        smoke: true,
        corrupt,
    };
    workloads::run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
}

#[test]
fn metric_names_are_valid_unique_and_match_the_manifest() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER).collect();
    for d in &all {
        assert!(valid_name(d.name), "invalid metric name {}", d.name);
        assert!(
            d.unit.len() <= 16
                && d.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "invalid unit {}",
            d.unit
        );
        assert_eq!(
            all.iter().filter(|o| o.name == d.name).count(),
            1,
            "{}",
            d.name
        );
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            d.name, d.unit, d.better
        );
        assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = manifest.matches("\"unit\":").count();
    assert_eq!(
        listed,
        all.len(),
        "BENCHMARK.json lists metrics the benchmark does not emit"
    );
    for w in Workload::ALL {
        assert!(valid_name(w.name()));
        assert!(
            manifest.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
}

#[test]
fn every_workload_emits_every_metric_at_smoke_size() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let o = smoke(w, trace, false);
            assert!(o.attempted > 0, "{}", w.name());
            assert_eq!(o.failed, 0, "{}: {:?}", w.name(), o.lines);
            let defs = if trace { PER_LAYER } else { END_TO_END };
            for d in defs {
                let v = o.values.get(d.name).copied();
                assert!(
                    v.is_some_and(f64::is_finite),
                    "{} lacks {}",
                    w.name(),
                    d.name
                );
            }
            for d in END_TO_END {
                assert!(o.values[d.name] > 0.0, "{}: {} is 0", w.name(), d.name);
            }
            let line = metrics::result_json(o.attempted, o.failed, &o.values, defs);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert_eq!(line.matches("\"unit\"").count(), defs.len());
            if trace {
                let tr = o.tracer.expect("traced runs keep their spans");
                assert!(!tr.spans.is_empty());
                assert!(tr.to_chrome_json().starts_with("{\"traceEvents\": ["));
            }
        }
    }
}

#[test]
fn corrupted_answers_raise_the_error_rate() {
    for w in [Workload::SmallQueries, Workload::OocLarge] {
        let o = smoke(w, false, true);
        assert!(
            o.failed > 0,
            "{}: a corrupted answer passed the checks",
            w.name()
        );
        assert!(
            metrics::ratio(o.failed as f64, o.attempted as f64) > 0.0,
            "{}",
            w.name()
        );
    }
}

/// The set-up a process under a file-size limit below 2 GiB gets: every
/// device file at most `DISCARD_CAP`, answers discarded. Each template
/// must still answer correctly, and the hierarchy must keep its shape.
#[test]
fn real_runs_fit_a_small_file_size_limit() {
    for t in Template::ALL {
        let q = Query {
            template: t,
            cards: t.even_cards(2_000),
            seed: 5,
        };
        let mut e = t.experiment();
        let paper = e.hierarchy.clone();
        let text = queries::spec_text(&e).unwrap();
        let synth = queries::synthesize(&mut e, &text).unwrap();
        queries::apply_real_target(&mut e, queries::DISCARD_CAP, true);
        assert_eq!(e.hierarchy.len(), paper.len());
        for id in paper.ids() {
            let (p, b) = (paper.node(id), e.hierarchy.node(id));
            assert_eq!(
                (&b.name, b.size),
                (&p.name, p.size.min(queries::DISCARD_CAP))
            );
            if let Some(parent) = paper.parent(id) {
                assert_eq!(e.hierarchy.parent(id), Some(parent));
                assert_eq!(e.hierarchy.edge(id, parent), paper.edge(id, parent));
                assert_eq!(e.hierarchy.edge(parent, id), paper.edge(parent, id));
            }
        }
        let report = synth
            .run_real(&e.real_setup(q.rel_specs(), q.seed))
            .unwrap_or_else(|err| panic!("{}: {err}", t.name()));
        queries::check_answer(&report, &q.expect())
            .unwrap_or_else(|err| panic!("{}: {err}", t.name()));
    }
}
