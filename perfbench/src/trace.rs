//! In-memory spans recorded around calls into the simulator's layers.
//!
//! Spans stay in a `Vec` while the replay runs and are written out once at
//! the end, so recording costs two clock reads and a push.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `peer.endorse`.
    pub name: &'static str,
    /// Start, host nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, host nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The transaction (or block) the call worked on.
    pub trace_id: String,
}

impl Span {
    /// Wall duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans against one monotonic origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that encloses later spans; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, trace_id: &str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            trace_id: trace_id.to_string(),
        });
        self.spans.len() - 1
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        self.spans[id].end_ns = end;
    }

    /// Times `f` as a leaf span and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        trace_id: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, trace_id);
        let out = std::hint::black_box(f());
        self.close(id);
        out
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// One JSON object per span, in opening order.
    pub fn to_jsonl(&self) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"trace_id\":\"{}\",\"self_ns\":{own}}}",
                s.name, s.start_ns, s.end_ns, s.trace_id
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap each other (work
/// fanned out to threads) or stick out of the parent; only the union of
/// their intervals, clipped to the parent, is subtracted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for (lo, hi) in kids {
                run = match run {
                    Some((a, b)) if lo <= b => Some((a, b.max(hi))),
                    Some((a, b)) => {
                        covered += b - a;
                        Some((lo, hi))
                    }
                    None => Some((lo, hi)),
                };
            }
            if let Some((a, b)) = run {
                covered += b - a;
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}
