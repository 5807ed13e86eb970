//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around calls into the repository's crates, kept in
//! memory while the run lasts and written out once at the end: as JSON
//! (one record per span: name, job, parent, start and end in µs since the
//! recorder started) and as folded stacks (`a;b;c <self µs>` per line,
//! the input format of flamegraph tools). A span's self time is its
//! duration minus the union of its children's intervals.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Span name, e.g. `core.train`.
    pub name: String,
    /// The job (design or request id) the span belongs to.
    pub job: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start in µs since the recorder was created.
    pub start_us: f64,
    /// End in µs since the recorder was created.
    pub end_us: f64,
}

/// Collects spans; nesting follows the open-span stack.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &str, job: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let start = Instant::now();
        let id = self.spans.len();
        self.spans.push(SpanRec {
            name: name.to_owned(),
            job: job.to_owned(),
            parent: self.open.last().copied(),
            start_us: self.us(start),
            end_us: f64::NAN,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.us(Instant::now());
        out
    }

    /// Records a finished span measured elsewhere (e.g. on a client thread),
    /// under `parent`.
    pub fn record(
        &mut self,
        name: &str,
        job: &str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(SpanRec {
            name: name.to_owned(),
            job: job.to_owned(),
            parent,
            start_us: self.us(start),
            end_us: self.us(end),
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far, in start order of creation.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Sum of the durations (ms) of spans named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) / 1e3)
            .sum()
    }

    /// Self time (µs) of every span: its duration minus the union of its
    /// children's intervals clipped to it.
    pub fn self_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.end_us));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = s.start_us;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_us));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_us - s.start_us - covered).max(0.0)
            })
            .collect()
    }

    fn stack(&self, mut i: usize) -> String {
        let mut names = vec![self.spans[i].name.as_str()];
        while let Some(p) = self.spans[i].parent {
            names.push(self.spans[p].name.as_str());
            i = p;
        }
        names.reverse();
        names.join(";")
    }

    /// The spans as a JSON document: `{"spans":[{"id","name","job",
    /// "parent","start_us","end_us","self_us"},...]}`.
    pub fn to_json(&self) -> String {
        let self_us = self.self_us();
        let mut out = String::from("{\"spans\":[");
        for (i, (s, own)) in self.spans.iter().zip(&self_us).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":{},\"job\":{},\"parent\":{parent},\"start_us\":{:.1},\"end_us\":{:.1},\"self_us\":{:.1}}}",
                quote(&s.name),
                quote(&s.job),
                s.start_us,
                s.end_us,
                own
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Folded stacks: one `root;child;leaf <self µs>` line per distinct
    /// stack, self times summed over jobs, lines sorted.
    pub fn folded(&self) -> String {
        let mut acc: std::collections::BTreeMap<String, f64> = std::collections::BTreeMap::new();
        for (i, own) in self.self_us().into_iter().enumerate() {
            *acc.entry(self.stack(i)).or_default() += own;
        }
        acc.into_iter()
            .map(|(k, v)| format!("{k} {}\n", v.round() as u64))
            .collect()
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_folds_by_stack() {
        let mut t = Tracer::new();
        let base = t.t0;
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.record("job", "j", None, at(0), at(100));
        t.record("a", "j", Some(root), at(10), at(40));
        // Overlapping children cover their union once: 10..60 ms.
        t.record("b", "j", Some(root), at(30), at(60));
        let own = t.self_us();
        assert!((own[0] - 50_000.0).abs() < 1.0, "{own:?}");
        assert!((own[1] - 30_000.0).abs() < 1.0);
        let folded = t.folded();
        assert!(folded.contains("job 50000\n"), "{folded}");
        assert!(folded.contains("job;a 30000\n"), "{folded}");
        assert!((t.total_ms("a") - 30.0).abs() < 1e-6);
        let json = t.to_json();
        assert!(serde_json::parse_value(&json).is_ok(), "{json}");
    }

    #[test]
    fn span_nests_under_the_open_span() {
        let mut t = Tracer::new();
        t.span("outer", "j", |t| t.span("inner", "j", |_| ()));
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert!(t.spans()[0].end_us >= t.spans()[1].end_us);
    }
}
