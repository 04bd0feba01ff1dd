//! Spans recorded by the benchmark around its calls into each layer.
//! They stay in memory and are written out once, as Chrome trace-event
//! JSON, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The enclosing query's span id (0 for a query's own span).
    pub parent: u64,
    pub name: String,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    pub dur: f64,
    pub args: Vec<(&'static str, f64)>,
}

pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// A fresh span id, for a query span recorded after its children.
    pub fn reserve(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    pub fn push(
        &mut self,
        id: u64,
        parent: u64,
        name: impl Into<String>,
        start: f64,
        dur: f64,
        args: Vec<(&'static str, f64)>,
    ) {
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start,
            dur,
            args,
        });
    }

    /// Runs `f` inside a span named `name` under `parent`; returns its
    /// result and duration in seconds.
    pub fn span<T>(&mut self, parent: u64, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.now();
        let t = Instant::now();
        let out = f();
        let dur = t.elapsed().as_secs_f64();
        let id = self.reserve();
        self.push(id, parent, name, start, dur, Vec::new());
        (out, dur)
    }

    /// One line per query span: its wall and its child spans in order.
    pub fn waterfall(&self) -> Vec<String> {
        self.spans
            .iter()
            .filter(|q| q.parent == 0)
            .map(|q| {
                let parts: Vec<String> = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == q.id)
                    .map(|c| format!("{} {:.4}", c.name, c.dur))
                    .collect();
                format!("  {:<40} {:>9.4} s: {}", q.name, q.dur, parts.join(", "))
            })
            .collect()
    }

    /// Chrome trace-event JSON (`ph: X` complete events, microseconds).
    pub fn to_chrome_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\": [");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let _ = write!(
                s,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"id\": {}, \"parent\": {}",
                sp.name.replace('\\', "\\\\").replace('"', "\\\""),
                sp.start * 1e6,
                sp.dur * 1e6,
                sp.id,
                sp.parent
            );
            for (k, v) in &sp.args {
                let v = if v.is_finite() { *v } else { 0.0 };
                let _ = write!(s, ", \"{k}\": {v}");
            }
            s.push_str("}}");
        }
        s.push_str("]}\n");
        s
    }
}
