//! In-process workloads: one thread calling `DiskRTree` directly.

use crate::layers::{Counters, Store, Trace};
use crate::oracle::{dist_digest, set_digest};
use crate::run::{peak_rss_mb, Limit, RunResult, WrapperCounts};
use crate::setup::{Inputs, Workload};
use crate::span::Tracer;
use crate::stats::Samples;
use rtree_datagen::trace::TraceOp;
use rtree_geom::Rect;
use rtree_pager::{DiskRTree, PageStore};
use std::io;
use std::time::Instant;

/// Latency samples one embedded run has room for without growing: four
/// times what the fastest workload completes in ten seconds today.
const SAMPLE_ROOM: usize = 4 << 20;

/// Runs one read op on a disk tree and digests its answer the way the
/// oracle does.
pub fn execute<S: PageStore>(tree: &mut DiskRTree<S>, op: &TraceOp) -> io::Result<u64> {
    match op {
        TraceOp::Region(r) => Ok(set_digest(tree.query(r)?)),
        TraceOp::Point(p) => Ok(set_digest(tree.query_point(p)?)),
        TraceOp::Knn(p, k) => Ok(dist_digest(
            tree.nearest_neighbors(p, *k as usize)?
                .iter()
                .map(|n| n.distance),
        )),
        TraceOp::Insert(..) | TraceOp::Delete(..) => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "embedded workloads are read-only",
        )),
    }
}

/// A warmed disk tree over a fresh copy of the image.
pub struct Embedded {
    tree: DiskRTree<Store>,
    tracer: Trace,
}

impl Embedded {
    pub fn open(inputs: &Inputs, tracer: &Trace) -> io::Result<Embedded> {
        let store = inputs.fresh_store("embedded.pages", tracer)?;
        let mut tree = DiskRTree::open(store, inputs.frames(), Inputs::policy(tracer))?;
        if inputs.workload == Workload::EmbeddedResident {
            // Every item lies in the unit square, so this touches every
            // node page once: the pool then holds the whole tree.
            tree.query(&Rect::new(0.0, 0.0, 1.0, 1.0))?;
        } else {
            for op in &inputs.warm.ops {
                execute(&mut tree, op)?;
            }
        }
        Ok(Embedded {
            tree,
            tracer: tracer.clone(),
        })
    }

    /// The closed loop: replays the trace (wrapping around) until the
    /// limit, timing each op and checking each answer.
    pub fn run(mut self, inputs: &Inputs, limit: &Limit) -> RunResult {
        let ops = &inputs.trace.ops;
        let n = ops.len();
        let before = Counters::of_disk(&self.tree);
        let mut lat = Samples::pretouched(SAMPLE_ROOM);
        let (mut failed, mut pass_reads) = (0u64, None);
        let deadline = limit.deadline();
        let target = limit.ops(0);
        let start = Instant::now();
        let mut i = 0usize;
        loop {
            let t0 = Instant::now();
            // The first full pass always completes, so `reads_per_op` is
            // counted over the same ops on every run of a seed.
            let done = match target {
                Some(t) => i >= t,
                None => i >= n && deadline.is_some_and(|d| t0 >= d),
            };
            if done {
                break;
            }
            let op = &ops[i % n];
            let tree = &mut self.tree;
            let got = match &self.tracer {
                None => execute(tree, op),
                Some(t) => {
                    Tracer::set_op(i as u64 + 1);
                    t.span("tree.op", || execute(tree, op))
                }
            };
            lat.push(t0.elapsed().as_nanos() as u64);
            if !matches!(got, Ok(d) if d == inputs.expect.digests[i % n]) {
                failed += 1;
            }
            i += 1;
            if i == n {
                pass_reads = Some(Counters::of_disk(&self.tree).since(&before).store_reads());
            }
        }
        let elapsed_s = start.elapsed().as_secs_f64();
        let counters = Counters::of_disk(&self.tree).since(&before);
        RunResult {
            attempted: i as u64,
            failed,
            elapsed_s,
            reads: lat,
            writes: Samples::default(),
            counters,
            pass_reads,
            per_conn: vec![i],
            wrapper: self.tracer.as_ref().map(|t| WrapperCounts::of(t)),
            bytes_per_item: inputs.image_bytes_per_item(),
            peak_rss_mb: peak_rss_mb(),
            client_ops: Vec::new(),
            checks: 0,
            checks_failed: 0,
        }
    }
}
