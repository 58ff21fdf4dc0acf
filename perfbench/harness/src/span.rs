//! Spans recorded around calls into each layer's public functions.
//!
//! A span has a name, a start, an end and a parent (the span that was open
//! on the same thread when it began); spans of one op share an op id. The
//! recorder keeps a per-name aggregate (count, total time, time covered by
//! child spans) so a layer's self time is its total minus its children's,
//! plus the raw spans of the first few ops for the end-of-run dump.
//!
//! No span lives inside the program: every one wraps a public call from
//! this benchmark's own files (see `layers.rs`, `embedded.rs`, `served.rs`).
//! Spans opened on threads the program spawns for itself (the writer
//! engine's per-batch workers) have no parent and carry no op id.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Raw spans kept for the end-of-run dump.
const SAMPLE_SPANS: usize = 64;

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<&'static str>,
}

/// Per-name aggregate over every closed span of that name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// Time covered by child spans (for self time).
    pub child_ns: u64,
}

impl Agg {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// Engine batch membership: which op key ran in which batch interval.
#[derive(Clone, Copy, Debug)]
pub struct BatchMark {
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

thread_local! {
    static OPEN: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    static OP_ID: Cell<u64> = const { Cell::new(0) };
}

#[derive(Default)]
struct Table {
    spans: BTreeMap<&'static str, Agg>,
    counts: BTreeMap<&'static str, u64>,
    sample: Vec<Span>,
}

/// The span recorder of one traced phase.
pub struct Tracer {
    epoch: Instant,
    table: Mutex<Table>,
    marks: Mutex<Vec<BatchMark>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            table: Mutex::new(Table::default()),
            marks: Mutex::new(Vec::new()),
        }
    }

    /// Forgets everything recorded so far (spans of set-up and warm-up).
    pub fn reset(&self) {
        *self.table() = Table::default();
        self.marks
            .lock()
            .expect("batch marks lock poisoned")
            .clear();
    }

    fn table(&self) -> std::sync::MutexGuard<'_, Table> {
        self.table.lock().expect("span table lock poisoned")
    }

    /// Nanoseconds since the tracer was created (the common time base of
    /// every thread's spans).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the op id carried by spans this thread opens from now on.
    pub fn set_op(id: u64) {
        OP_ID.with(|c| c.set(id));
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_timed(name, f).0
    }

    /// Like [`Tracer::span`], also returning the span's start and end.
    pub fn span_timed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64, u64) {
        let parent = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(name);
            parent
        });
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|s| s.borrow_mut().pop());
        self.record(Span {
            op: OP_ID.with(Cell::get),
            name,
            start_ns,
            end_ns,
            parent,
        });
        (out, start_ns, end_ns)
    }

    fn record(&self, span: Span) {
        let d = span.end_ns - span.start_ns;
        let mut t = self.table();
        let agg = t.spans.entry(span.name).or_default();
        agg.count += 1;
        agg.total_ns += d;
        if let Some(p) = span.parent {
            t.spans.entry(p).or_default().child_ns += d;
        }
        if t.sample.len() < SAMPLE_SPANS {
            t.sample.push(span);
        }
    }

    /// Adds `v` to the named counter.
    pub fn count(&self, name: &'static str, v: u64) {
        *self.table().counts.entry(name).or_default() += v;
    }

    pub fn agg(&self, name: &str) -> Agg {
        self.table().spans.get(name).copied().unwrap_or_default()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.table().counts.get(name).copied().unwrap_or(0)
    }

    pub fn all_spans(&self) -> Vec<(&'static str, Agg)> {
        self.table().spans.iter().map(|(k, v)| (*k, *v)).collect()
    }

    pub fn sample(&self) -> Vec<Span> {
        self.table().sample.clone()
    }

    /// Records that the ops with these keys ran in one engine batch.
    pub fn mark_batch(&self, keys: impl Iterator<Item = u64>, start_ns: u64, end_ns: u64) {
        let mut m = self.marks.lock().expect("batch marks lock poisoned");
        m.extend(keys.map(|key| BatchMark {
            key,
            start_ns,
            end_ns,
        }));
    }

    pub fn marks(&self) -> Vec<BatchMark> {
        self.marks
            .lock()
            .expect("batch marks lock poisoned")
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_attribute_child_time_to_the_parent() {
        let t = Tracer::new();
        Tracer::set_op(7);
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let outer = t.agg("outer");
        let inner = t.agg("inner");
        assert_eq!((outer.count, inner.count), (1, 1));
        assert_eq!(outer.child_ns, inner.total_ns);
        assert!(outer.total_ns >= inner.total_ns);
        let sample = t.sample();
        assert_eq!(sample[0].name, "inner");
        assert_eq!(sample[0].parent, Some("outer"));
        assert_eq!(sample[1].parent, None);
        assert!(sample.iter().all(|s| s.op == 7));
    }
}
