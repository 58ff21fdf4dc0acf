//! Expected answers from the in-memory `RTree`: precomputed at set-up for
//! the read-only traces, checked op by op for the read/write one.
//!
//! Region and point answers are compared as id sets (order-free digest);
//! kNN answers by their distance sequence, because which of several
//! equidistant items fills the k-th slot is a heap-order artifact.
//! Served reads carry kNN ops as point requests (the protocol has no kNN
//! request), so they are checked against the point answer.

use crate::setup::{mix64, Workload};
use rtree_datagen::trace::{Trace, TraceOp};
use rtree_geom::Rect;
use rtree_index::RTree;
use std::collections::{HashMap, HashSet};

/// Order-independent digest of an id set.
pub fn set_digest(ids: impl IntoIterator<Item = u64>) -> u64 {
    let (mut sum, mut n) = (0u64, 0u64);
    for id in ids {
        sum = sum.wrapping_add(mix64(id));
        n += 1;
    }
    mix64(sum ^ n.rotate_left(32))
}

/// Ordered digest of a kNN distance sequence.
pub fn dist_digest(dists: impl IntoIterator<Item = f64>) -> u64 {
    dists
        .into_iter()
        .fold(0x5EED, |h, d| mix64(h ^ d.to_bits()))
}

/// The rectangle a served request hands to the engine for a trace op.
pub fn served_rect(op: &TraceOp) -> Rect {
    match op {
        TraceOp::Region(r) | TraceOp::Insert(r, _) | TraceOp::Delete(r, _) => *r,
        TraceOp::Point(p) | TraceOp::Knn(p, _) => Rect::new(p.x, p.y, p.x, p.y),
    }
}

pub fn is_read(op: &TraceOp) -> bool {
    matches!(
        op,
        TraceOp::Region(_) | TraceOp::Point(_) | TraceOp::Knn(..)
    )
}

/// Expected answers for one workload's timed trace.
#[derive(Default)]
pub struct Oracle {
    /// Read-only traces: per op, the digest a read must produce.
    pub digests: Vec<u64>,
    /// Read/write trace only: every item the trace inserts.
    pub inserted: HashMap<u64, Rect>,
    /// Read/write trace only: every item the trace deletes.
    pub deleted: HashSet<u64>,
}

impl Oracle {
    pub fn build(tree: &RTree, trace: &Trace, workload: Workload) -> Oracle {
        let mut o = Oracle::default();
        if workload.has_writes() {
            for op in &trace.ops {
                match op {
                    TraceOp::Insert(r, id) => {
                        o.inserted.insert(*id, *r);
                    }
                    TraceOp::Delete(_, id) => {
                        o.deleted.insert(*id);
                    }
                    _ => {}
                }
            }
        } else {
            let served = workload.is_served();
            o.digests = trace
                .ops
                .iter()
                .map(|op| expected_digest(tree, op, served))
                .collect();
        }
        o
    }

    /// Checks a served read on the read/write trace against `base`, the
    /// bulk-loaded tree. Reads race with writes on the other connection,
    /// so an answer is right when it holds every bulk-loaded match the
    /// trace never deletes, and nothing but bulk-loaded matches and
    /// trace-inserted items that match.
    pub fn check_mixed_read(&self, base: &RTree, q: &Rect, answer: &mut [u64]) -> bool {
        answer.sort_unstable();
        let mut base = base.search(q);
        base.sort_unstable();
        let extra_ok = answer.iter().all(|id| {
            base.binary_search(id).is_ok() || self.inserted.get(id).is_some_and(|r| r.intersects(q))
        });
        let kept_ok = base
            .iter()
            .all(|id| answer.binary_search(id).is_ok() || self.deleted.contains(id));
        extra_ok && kept_ok
    }
}

/// The digest a read must produce: embedded reads answer kNN as kNN,
/// served reads as a point query.
pub fn expected_digest(tree: &RTree, op: &TraceOp, served: bool) -> u64 {
    match op {
        TraceOp::Region(r) => set_digest(tree.search(r)),
        TraceOp::Point(p) => set_digest(tree.point_search(p)),
        TraceOp::Knn(p, _) if served => set_digest(tree.point_search(p)),
        TraceOp::Knn(p, k) => dist_digest(
            tree.nearest_neighbors(p, *k as usize)
                .iter()
                .map(|n| n.distance),
        ),
        TraceOp::Insert(..) | TraceOp::Delete(..) => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_digest_ignores_order_but_not_content() {
        assert_eq!(set_digest([1, 2, 3]), set_digest([3, 1, 2]));
        assert_ne!(set_digest([1, 2, 3]), set_digest([1, 2]));
        assert_ne!(set_digest([1, 2, 3]), set_digest([1, 2, 4]));
        assert_ne!(set_digest([]), set_digest([0]));
    }

    #[test]
    fn mixed_read_check_allows_only_trace_writes() {
        let mut base = RTree::builder(4).build();
        for id in 1..=3 {
            let x = id as f64 * 0.1;
            base.insert(Rect::new(x, x, x + 0.05, x + 0.05), id);
        }
        let mut o = Oracle::default();
        let q = Rect::new(0.0, 0.0, 1.0, 1.0);
        o.inserted.insert(10, Rect::new(0.5, 0.5, 0.6, 0.6));
        o.inserted.insert(11, Rect::new(2.0, 2.0, 3.0, 3.0));
        o.deleted.insert(2);
        assert!(o.check_mixed_read(&base, &q, &mut [3, 1, 2]));
        // 2 may be gone (the trace deletes it), 10 may appear (it matches).
        assert!(o.check_mixed_read(&base, &q, &mut [1, 3, 10]));
        // 3 is never deleted; 11 does not match; 99 does not exist.
        assert!(!o.check_mixed_read(&base, &q, &mut [1, 2]));
        assert!(!o.check_mixed_read(&base, &q, &mut [1, 2, 3, 11]));
        assert!(!o.check_mixed_read(&base, &q, &mut [1, 2, 3, 99]));
    }
}
