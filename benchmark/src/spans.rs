//! Host-time spans recorded around the benchmark's calls into each layer.
//!
//! A span is a name, a start and end (nanoseconds since the tracer was
//! created), the span that encloses it, and the cell it belongs to. Spans
//! are kept in memory and written out once, when the benchmark ends. A
//! span's *self time* is its duration minus the part its child spans
//! cover, so the self times of a pass's spans add up to the pass's wall
//! time.
//!
//! Timing is always on: the caller gets every span's duration back so the
//! untraced run can still sum set-up time. Recording is what `--trace`
//! switches on.

use avatar_bench::json::Json;
// Host wall time of benchmark spans, never simulated state. lint:allow(nondeterminism)
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span covers (`pass`, `cell`, `assemble`, …).
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Cell the span belongs to (`None` for pass-level spans).
    pub cell: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span, returned by [`Tracer::enter`] and closed by
/// [`Tracer::exit`].
#[must_use = "an entered span must be exited"]
pub struct Open {
    start: Instant, // lint:allow(nondeterminism)
    index: Option<usize>,
}

/// The in-memory span recorder.
pub struct Tracer {
    epoch: Instant, // lint:allow(nondeterminism)
    recording: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans when `recording` is set and otherwise
    /// only times them.
    pub fn new(recording: bool) -> Self {
        Self {
            epoch: Instant::now(), // lint:allow(nondeterminism)
            recording,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, cell: Option<usize>) -> Open {
        let start = Instant::now(); // lint:allow(nondeterminism)
        let index = self.recording.then(|| {
            let i = self.spans.len();
            let start_ns = self.ns(start);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().copied(),
                cell,
            });
            self.stack.push(i);
            i
        });
        Open { start, index }
    }

    /// Closes a span and returns its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = Instant::now(); // lint:allow(nondeterminism)
        if let Some(i) = open.index {
            // A panic unwinding through a cell leaves its inner spans
            // open; closing the cell closes them at the same instant.
            while let Some(top) = self.stack.pop() {
                self.spans[top].end_ns = self.ns(end);
                if top == i {
                    break;
                }
            }
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    // lint:allow(nondeterminism)
    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Indices of `root` and every span below it.
pub fn subtree(spans: &[Span], root: usize) -> Vec<usize> {
    // Spans are recorded in start order, so every descendant of `root`
    // follows it and a parent always precedes its children.
    let mut inside = vec![false; spans.len()];
    inside[root] = true;
    let mut out = vec![root];
    for (i, s) in spans.iter().enumerate().skip(root + 1) {
        if s.parent.is_some_and(|p| inside[p]) {
            inside[i] = true;
            out.push(i);
        }
    }
    out
}

/// The spans as a JSON document (`<workload>.spans.json`).
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let own = self_times_ns(spans);
    let rows = spans
        .iter()
        .zip(&own)
        .enumerate()
        .map(|(i, (s, &self_ns))| {
            avatar_bench::obj! {
                "id": i,
                "name": s.name,
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "self_ns": self_ns,
                "parent": s.parent,
                "cell": s.cell,
            }
        })
        .collect::<Vec<_>>();
    avatar_bench::obj! { "workload": workload, "spans": rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let mut t = Tracer::new(true);
        let pass = t.enter("pass", None);
        let cell = t.enter("cell", Some(0));
        let a = t.enter("assemble", Some(0));
        std::hint::black_box((0..10_000u64).sum::<u64>());
        t.exit(a);
        let r = t.enter("run_steps", Some(0));
        std::hint::black_box((0..10_000u64).sum::<u64>());
        t.exit(r);
        t.exit(cell);
        t.exit(pass);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(1));
        let own = self_times_ns(spans);
        assert_eq!(
            own.iter().sum::<u64>(),
            spans[0].dur_ns(),
            "self times tile the root"
        );
        assert_eq!(subtree(spans, 1), vec![1, 2, 3]);
    }

    #[test]
    fn exiting_an_outer_span_closes_abandoned_inner_ones() {
        let mut t = Tracer::new(true);
        let cell = t.enter("cell", Some(3));
        let _inner = t.enter("run_steps", Some(3)); // abandoned, as by a panic
        t.exit(cell);
        assert!(t.stack.is_empty());
        assert_eq!(t.spans()[1].end_ns, t.spans()[0].end_ns);
    }

    #[test]
    fn a_timing_only_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.enter("pass", None);
        assert!(t.exit(s) >= 0.0);
        assert!(t.spans().is_empty());
    }
}
