//! The level-synchronous batch executor.

use rtree_buffer::PageId;
use rtree_geom::Rect;
use rtree_pager::{BufferManager, DiskRTree, NodeRef, NodeSoA, PageStore, PrefetchOutcome};
use std::collections::BTreeMap;
use std::io;

/// Tuning knobs for a [`BatchExecutor`].
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// How many frontier pages ahead of the one being consumed the executor
    /// keeps read-in through [`BufferManager::prefetch`]. `0` disables
    /// readahead. The window is naturally bounded by the buffer: when every
    /// frame is pinned the manager declines
    /// ([`PrefetchOutcome::NoCapacity`]) and the executor falls back to
    /// demand fetching until reservations free up.
    pub prefetch_window: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { prefetch_window: 8 }
    }
}

/// Counters describing one batch execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Queries in the batch.
    pub queries: u64,
    /// Queries whose rectangle intersected the root MBR (the rest cost
    /// nothing, mirroring the model semantics).
    pub active_queries: u64,
    /// Deduplicated `(page, query-set)` work items processed — every pool
    /// access the batch performed.
    pub work_items: u64,
    /// Page requests *before* dedup: the accesses the same queries would
    /// have made traversing alone. `page_requests - work_items` is the
    /// traffic dedup removed.
    pub page_requests: u64,
    /// Frames filled by the readahead window.
    pub prefetched: u64,
    /// Frontier steps executed (tree levels touched).
    pub levels: u32,
}

/// Per-query result sets plus execution counters.
#[derive(Clone, Debug, Default)]
pub struct BatchOutput {
    /// `results[i]` are the item ids matching `queries[i]`, in traversal
    /// order (sort before comparing across execution strategies).
    pub results: Vec<Vec<u64>>,
    /// What the execution did.
    pub stats: BatchStats,
}

/// Executes batches of rectangle queries against a [`DiskRTree`] with page
/// dedup, `PageId`-sorted level-synchronous traversal and buffer-aware
/// prefetch. See the crate docs for the algorithm.
///
/// # Examples
///
/// ```
/// use rtree_buffer::LruPolicy;
/// use rtree_exec::BatchExecutor;
/// use rtree_geom::Rect;
/// use rtree_index::BulkLoader;
/// use rtree_pager::{DiskRTree, MemStore};
///
/// let rects: Vec<Rect> = (0..400)
///     .map(|i| {
///         let x = (i as f64 * 0.618) % 0.95;
///         let y = (i as f64 * 0.414) % 0.95;
///         Rect::new(x, y, x + 0.01, y + 0.01)
///     })
///     .collect();
/// let tree = BulkLoader::hilbert(16).load(&rects);
/// let mut disk = DiskRTree::create(MemStore::new(), &tree, 32, LruPolicy::new()).unwrap();
///
/// let queries: Vec<Rect> = (0..8)
///     .map(|i| {
///         let x = i as f64 * 0.1;
///         Rect::new(x, x, x + 0.2, x + 0.2)
///     })
///     .collect();
/// let out = BatchExecutor::new().execute(&mut disk, &queries).unwrap();
/// assert_eq!(out.results.len(), 8);
/// // Overlapping queries share pages: dedup removed real traffic.
/// assert!(out.stats.work_items <= out.stats.page_requests);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchExecutor {
    config: BatchConfig,
}

impl BatchExecutor {
    /// An executor with the default configuration.
    pub fn new() -> Self {
        BatchExecutor::default()
    }

    /// An executor with an explicit configuration.
    pub fn with_config(config: BatchConfig) -> Self {
        BatchExecutor { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// Runs `queries` as one batch against `tree`. Equivalent to calling
    /// [`DiskRTree::query`] per query — same result sets — but pages shared
    /// between queries are fetched once, each level is visited in page
    /// order, and the readahead window keeps upcoming frontier pages
    /// resident.
    pub fn execute<S: PageStore>(
        &self,
        tree: &mut DiskRTree<S>,
        queries: &[Rect],
    ) -> io::Result<BatchOutput> {
        let mut out = BatchOutput {
            results: vec![Vec::new(); queries.len()],
            stats: BatchStats {
                queries: queries.len() as u64,
                ..BatchStats::default()
            },
        };
        if queries.is_empty() {
            return Ok(out);
        }

        let root = tree.meta().root;
        let root_level = (tree.meta().height - 1) as i16;
        let span = tree.allocate_op_id();
        let mgr = tree.manager_mut();
        mgr.set_trace_span(span, root_level);

        let run = self.run_levels(mgr, root, root_level, queries, &mut out);
        mgr.set_trace_span(0, -1);
        run?;
        Ok(out)
    }

    /// The frontier loop. Any outstanding readahead reservations are
    /// released before an error propagates, so a failed batch never leaks
    /// pins into the pool.
    fn run_levels<S: PageStore>(
        &self,
        mgr: &mut BufferManager<S>,
        root: u64,
        root_level: i16,
        queries: &[Rect],
        out: &mut BatchOutput,
    ) -> io::Result<()> {
        // Scratch node reused across the batch, for pages that cannot be
        // read in place (v2/v4 layouts): v3 frames are filtered where they
        // sit in the pool.
        let mut scratch = NodeSoA::new();

        // Uncharged root-MBR peek, mirroring `DiskRTree::query`: queries
        // that miss the root MBR never touch the buffer at all.
        let root_node = NodeRef::of(mgr.fetch_uncharged(PageId(root))?, &mut scratch)?;
        let Some(root_mbr) = root_node.rects.mbr() else {
            return Ok(());
        };
        let active: Vec<u32> = (0..queries.len() as u32)
            .filter(|&q| root_mbr.intersects(&queries[q as usize]))
            .collect();
        out.stats.active_queries = active.len() as u64;
        if active.is_empty() {
            return Ok(());
        }

        // The frontier: page -> ids of the queries that need it. A BTreeMap
        // keys the dedup *and* yields each level in ascending page order.
        let mut frontier: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        frontier.insert(root, active);
        let mut level = root_level;

        let mut matched: Vec<u32> = Vec::new();
        // Pages currently held by a readahead reservation, for cleanup on
        // error (`drain_pins`) and hand-back on consumption.
        let mut pinned: Vec<u64> = Vec::new();

        while !frontier.is_empty() {
            out.stats.levels += 1;
            mgr.set_trace_span(mgr.trace_span_id(), level);
            let items: Vec<(u64, Vec<u32>)> = std::mem::take(&mut frontier).into_iter().collect();
            let mut ahead = 0usize; // next item the readahead will consider

            for (i, (page, qids)) in items.iter().enumerate() {
                // Keep up to `prefetch_window` upcoming pages of this level
                // read-in and reserved. `NoCapacity` pauses the window; it
                // resumes once consumption unpins reservations.
                while ahead < items.len() && ahead <= i + self.config.prefetch_window {
                    if ahead <= i {
                        ahead += 1;
                        continue;
                    }
                    match self.guarded_prefetch(mgr, items[ahead].0, &mut pinned) {
                        Ok(PrefetchOutcome::NoCapacity) => break,
                        Ok(outcome) => {
                            if outcome == PrefetchOutcome::Fetched {
                                out.stats.prefetched += 1;
                            }
                            ahead += 1;
                        }
                        Err(e) => {
                            drain_pins(mgr, &mut pinned);
                            return Err(e);
                        }
                    }
                }

                let node = match fetch_node(mgr, *page, &mut pinned, &mut scratch) {
                    Ok(node) => node,
                    Err(e) => {
                        drain_pins(mgr, &mut pinned);
                        return Err(e);
                    }
                };
                out.stats.work_items += 1;
                out.stats.page_requests += qids.len() as u64;

                for &qid in qids {
                    matched.clear();
                    node.rects
                        .intersecting(&queries[qid as usize], &mut matched);
                    for &e in &matched {
                        let ptr = node.ptrs[e as usize];
                        if node.level == 0 {
                            out.results[qid as usize].push(ptr);
                        } else {
                            frontier.entry(ptr).or_default().push(qid);
                        }
                    }
                }
            }
            level -= 1;
        }
        debug_assert!(pinned.is_empty(), "every reservation was consumed");
        drain_pins(mgr, &mut pinned);
        Ok(())
    }

    /// One readahead probe, recording successful reservations in `pinned`.
    fn guarded_prefetch<S: PageStore>(
        &self,
        mgr: &mut BufferManager<S>,
        page: u64,
        pinned: &mut Vec<u64>,
    ) -> io::Result<PrefetchOutcome> {
        let outcome = mgr.prefetch(PageId(page))?;
        if outcome == PrefetchOutcome::Fetched {
            pinned.push(page);
        }
        Ok(outcome)
    }
}

/// Fetches one node page (the charged, demand access) and views it. A page
/// the readahead reserved is unpinned after that access — in that order,
/// so the replacement policy sees what it always saw — and its frame is
/// then re-borrowed without touching the pool. The manager behind a
/// [`DiskRTree`] validates pages as they enter a frame, so a v3 frame is
/// read in place; other layouts decode into `scratch`.
fn fetch_node<'a, S: PageStore>(
    mgr: &'a mut BufferManager<S>,
    page: u64,
    pinned: &mut Vec<u64>,
    scratch: &'a mut NodeSoA,
) -> io::Result<NodeRef<'a>> {
    let id = PageId(page);
    let frame = match pinned.iter().position(|&p| p == page) {
        None => mgr.fetch(id)?,
        Some(pos) => {
            mgr.fetch(id)?;
            pinned.swap_remove(pos);
            mgr.unpin(id);
            // The page was pinned, so it is resident: this borrows its
            // frame, it reads nothing.
            mgr.fetch_uncharged(id)?
        }
    };
    Ok(NodeRef::of(frame, scratch)?)
}

/// Releases every outstanding readahead reservation.
fn drain_pins<S: PageStore>(mgr: &mut BufferManager<S>, pinned: &mut Vec<u64>) {
    for page in pinned.drain(..) {
        mgr.unpin(PageId(page));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree_buffer::{ClockPolicy, LruPolicy};
    use rtree_index::BulkLoader;
    use rtree_pager::MemStore;

    fn sample_rects(n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let x = (i as f64 * 0.618_033) % 0.97;
                let y = (i as f64 * 0.414_213) % 0.97;
                Rect::new(x, y, x + 0.012, y + 0.012)
            })
            .collect()
    }

    fn queries(n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let x = (i as f64 * 0.37) % 0.8;
                let y = (i as f64 * 0.59) % 0.8;
                Rect::new(x, y, x + 0.08, y + 0.08)
            })
            .collect()
    }

    #[test]
    fn batch_matches_sequential_results() {
        let rects = sample_rects(800);
        let tree = BulkLoader::hilbert(16).load(&rects);
        let mut disk = DiskRTree::create(MemStore::new(), &tree, 40, LruPolicy::new()).unwrap();
        let qs = queries(24);
        let out = BatchExecutor::new().execute(&mut disk, &qs).unwrap();
        for (i, q) in qs.iter().enumerate() {
            let mut got = out.results[i].clone();
            let mut want = tree.search(q);
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "query {i}");
        }
        assert_eq!(out.stats.queries, 24);
        assert!(out.stats.work_items <= out.stats.page_requests);
        assert_eq!(out.stats.levels, disk.meta().height);
    }

    #[test]
    fn cold_batch_reads_each_distinct_page_at_most_once() {
        let rects = sample_rects(1_500);
        let tree = BulkLoader::hilbert(10).load(&rects);
        // Tiny buffer + readahead: the per-batch dedup (not cache capacity)
        // must bound the reads.
        let mut disk = DiskRTree::create(MemStore::new(), &tree, 8, ClockPolicy::new()).unwrap();
        let qs = queries(16);
        let out = BatchExecutor::new().execute(&mut disk, &qs).unwrap();
        assert!(disk.physical_reads() <= out.stats.work_items);
        assert_eq!(
            disk.io_stats().demand_reads() + disk.io_stats().prefetch_reads,
            disk.physical_reads()
        );
    }

    #[test]
    fn prefetch_window_zero_disables_readahead() {
        let rects = sample_rects(600);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let mut disk = DiskRTree::create(MemStore::new(), &tree, 16, LruPolicy::new()).unwrap();
        let out = BatchExecutor::with_config(BatchConfig { prefetch_window: 0 })
            .execute(&mut disk, &queries(12))
            .unwrap();
        assert_eq!(out.stats.prefetched, 0);
        assert_eq!(disk.io_stats().prefetch_reads, 0);
    }

    #[test]
    fn readahead_turns_demand_misses_into_hits() {
        let rects = sample_rects(1_200);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let mut disk = DiskRTree::create(MemStore::new(), &tree, 64, LruPolicy::new()).unwrap();
        let out = BatchExecutor::new()
            .execute(&mut disk, &queries(16))
            .unwrap();
        assert!(out.stats.prefetched > 0, "readahead engaged");
        assert_eq!(disk.io_stats().prefetch_reads, out.stats.prefetched);
        // Every prefetched frame was consumed as a pool hit.
        assert!(disk.buffer_stats().hits >= out.stats.prefetched);
        // No reservation leaked.
        assert_eq!(disk.buffer_stats().accesses, out.stats.work_items);
    }

    #[test]
    fn queries_outside_the_root_mbr_cost_nothing() {
        let rects = sample_rects(300);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let mut disk = DiskRTree::create(MemStore::new(), &tree, 16, LruPolicy::new()).unwrap();
        let far = vec![Rect::new(0.995, 0.995, 1.0, 1.0); 4];
        let out = BatchExecutor::new().execute(&mut disk, &far).unwrap();
        assert_eq!(out.stats.active_queries, 0);
        assert_eq!(disk.physical_reads(), 0);
        assert!(out.results.iter().all(Vec::is_empty));
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let rects = sample_rects(100);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let mut disk = DiskRTree::create(MemStore::new(), &tree, 8, LruPolicy::new()).unwrap();
        let out = BatchExecutor::new().execute(&mut disk, &[]).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(disk.physical_reads(), 0);
    }
}
