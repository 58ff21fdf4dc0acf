//! Disk-backed R-tree execution.
//!
//! Query traversal decodes pages into [`NodeSoA`] (reusing one scratch node
//! across the whole walk) and filters entries with the dispatched
//! [`rtree_geom::RectSoA`] SIMD kernel — on v3 (SoA) pages the coordinate
//! planes are copied contiguously with no per-entry gather. The original
//! entry-at-a-time path survives verbatim as [`DiskRTree::query_scalar`],
//! the differential reference the `simd_traversal` bench and the
//! `simd_vs_seed` suite compare against.

use crate::page::PageLayout;
use crate::{BufferManager, NodePage, NodeSoA, PageMeta, PageStore, PAGE_SIZE};
use rtree_buffer::{PageId, ReplacementPolicy};
use rtree_geom::{Point, Rect};
use rtree_index::{Neighbor, RTree};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::io;

/// An R-tree materialized onto pages, queried through a buffer manager that
/// counts physical reads — the end-to-end ground truth for the paper's
/// disk-access metric.
///
/// Pages are laid out in level order (meta page 0, root page 1, then the
/// rest of each level contiguously), matching the page numbering used by
/// the analytic model and the trace simulator, so "pin the top `p` levels"
/// means the same page set everywhere.
/// # Examples
///
/// ```
/// use rtree_buffer::LruPolicy;
/// use rtree_geom::Rect;
/// use rtree_index::BulkLoader;
/// use rtree_pager::{DiskRTree, MemStore};
///
/// let rects: Vec<Rect> = (0..300)
///     .map(|i| {
///         let x = (i as f64 * 0.618) % 0.99;
///         let y = (i as f64 * 0.414) % 0.99;
///         Rect::new(x, y, x + 0.005, y + 0.005)
///     })
///     .collect();
/// let tree = BulkLoader::hilbert(20).load(&rects);
/// let mut disk = DiskRTree::create(MemStore::new(), &tree, 64, LruPolicy::new()).unwrap();
///
/// // Cold query: every touched node costs a physical read...
/// let (hits, reads) = disk.query_counting(&Rect::new(0.2, 0.2, 0.4, 0.4)).unwrap();
/// assert!(reads > 0);
/// // ...re-running it is free, the pages are buffered.
/// let (hits2, reads2) = disk.query_counting(&Rect::new(0.2, 0.2, 0.4, 0.4)).unwrap();
/// assert_eq!(reads2, 0);
/// assert_eq!(hits.len(), hits2.len());
/// ```
pub struct DiskRTree<S: PageStore> {
    pub(crate) mgr: BufferManager<S>,
    pub(crate) meta: PageMeta,
    /// Monotonic query/operation span id source (0 = no span).
    next_query: u64,
}

impl<S: PageStore> DiskRTree<S> {
    /// Assembles a handle from an already-initialized manager and metadata
    /// (single construction point so trace state stays in one place).
    pub(crate) fn from_parts(mut mgr: BufferManager<S>, meta: PageMeta) -> Self {
        // Checksums are verified once, when a page enters the pool; the
        // traversal loops then use the trusted decode on resident frames.
        mgr.set_verify_reads(true);
        DiskRTree {
            mgr,
            meta,
            next_query: 0,
        }
    }
    /// Serializes `tree` into `store` and returns a handle with the given
    /// buffer capacity and policy.
    ///
    /// # Panics
    /// Panics if the tree is empty or its node capacity exceeds
    /// [`crate::MAX_ENTRIES_PER_PAGE`].
    pub fn create(
        store: S,
        tree: &RTree,
        buffer_capacity: usize,
        policy: impl ReplacementPolicy + 'static,
    ) -> io::Result<Self> {
        Self::create_with_layout(store, tree, buffer_capacity, policy, PageLayout::Soa)
    }

    /// Like [`DiskRTree::create`], but materializing node pages in an
    /// explicit body layout — [`PageLayout::Aos`] reproduces the format-v2
    /// images the seed wrote, for compatibility and differential tests.
    pub fn create_with_layout(
        mut store: S,
        tree: &RTree,
        buffer_capacity: usize,
        policy: impl ReplacementPolicy + 'static,
        layout: PageLayout,
    ) -> io::Result<Self> {
        let meta = materialize_with(&mut store, tree, layout)?;
        Ok(Self::from_parts(
            BufferManager::new(store, buffer_capacity, policy),
            meta,
        ))
    }

    /// Like [`DiskRTree::create`], but materializing a *compressed*
    /// (format v4) image: leaf pages stay exact-`f64` SoA, internal levels
    /// are repacked bottom-up into Packed pages of up to
    /// [`crate::MAX_ENTRIES_PACKED`] quantized entries. The higher internal
    /// fan-out shrinks the tree's internal footprint ~2.5×, so at an equal
    /// frame budget more of the buffer is left for leaves — the mechanism
    /// behind the buffering paper's fewer-disk-accesses prediction, which
    /// the macrobench measures. Decoded routing rects conservatively
    /// contain the true ones, so query results are exactly the
    /// uncompressed tree's.
    ///
    /// # Panics
    /// Panics if the tree is empty or its node capacity exceeds
    /// [`crate::MAX_ENTRIES_PER_PAGE`].
    pub fn create_compressed(
        mut store: S,
        tree: &RTree,
        buffer_capacity: usize,
        policy: impl ReplacementPolicy + 'static,
    ) -> io::Result<Self> {
        let meta = materialize_packed(&mut store, tree, crate::MAX_ENTRIES_PACKED)?;
        Ok(Self::from_parts(
            BufferManager::new(store, buffer_capacity, policy),
            meta,
        ))
    }

    /// Opens a previously materialized tree.
    pub fn open(
        mut store: S,
        buffer_capacity: usize,
        policy: impl ReplacementPolicy + 'static,
    ) -> io::Result<Self> {
        let mut buf = vec![0u8; PAGE_SIZE];
        store.read_page(PageId(0), &mut buf)?;
        let meta = PageMeta::decode(&buf)?;
        Ok(Self::from_parts(
            BufferManager::new(store, buffer_capacity, policy),
            meta,
        ))
    }

    /// The stored metadata.
    pub fn meta(&self) -> &PageMeta {
        &self.meta
    }

    /// Attaches a write-ahead log to the underlying buffer manager; from
    /// here on [`DiskRTree::insert`] and [`DiskRTree::delete`] are logged
    /// and recoverable via [`crate::recover`].
    pub fn attach_wal(&mut self, wal: rtree_wal::Wal) {
        self.mgr.attach_wal(wal);
    }

    /// Writes all dirty pages back and issues the store's durability
    /// barrier.
    pub fn flush(&mut self) -> io::Result<()> {
        self.mgr.flush_all()
    }

    /// Flushes everything and truncates the attached log (if any). Call
    /// only between operations.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        self.mgr.checkpoint()
    }

    /// Physical I/O counters so far.
    pub fn io_stats(&self) -> crate::IoStats {
        self.mgr.io_stats()
    }

    /// Tears the tree down and returns the bare store, discarding buffered
    /// (dirty) state — the crash path for recovery tests. Call
    /// [`DiskRTree::flush`] first for an orderly shutdown.
    pub fn into_store(self) -> S {
        self.mgr.into_store()
    }

    /// Number of node pages per level, root level first.
    ///
    /// # Panics
    /// Panics after a mutation: inserts and deletes abandon the bulk-load
    /// level-order layout, so the level table is cleared.
    pub fn pages_per_level(&self) -> Vec<u64> {
        assert!(
            !self.meta.level_starts.is_empty(),
            "level table is stale: the tree has been mutated since bulk load"
        );
        let mut out = Vec::with_capacity(self.meta.level_starts.len());
        for (i, &start) in self.meta.level_starts.iter().enumerate() {
            let end = self
                .meta
                .level_starts
                .get(i + 1)
                .copied()
                .unwrap_or(self.meta.nodes + 1);
            out.push(end - start);
        }
        out
    }

    /// Pins the top `p` levels into the buffer (reads them once).
    ///
    /// # Panics
    /// Panics if `p` exceeds the height, or after a mutation (the
    /// level-order layout no longer holds).
    pub fn pin_top_levels(&mut self, p: usize) -> io::Result<()> {
        assert!(
            !self.meta.level_starts.is_empty(),
            "level table is stale: the tree has been mutated since bulk load"
        );
        assert!(p <= self.meta.level_starts.len(), "not that many levels");
        let end = if p == self.meta.level_starts.len() {
            self.meta.nodes + 1
        } else {
            self.meta.level_starts[p]
        };
        for page in 1..end {
            self.mgr.tracer.level = self.meta.onpage_level_of(page);
            self.mgr.pin(PageId(page))?;
        }
        self.mgr.tracer.level = -1;
        Ok(())
    }

    /// Re-targets pinning at the top `p` levels: everything currently
    /// pinned is unpinned (frames stay resident, no I/O), then the top `p`
    /// levels are pinned. `p = 0` just unpins. The idempotent actuator the
    /// tuning controller calls — re-applying the current pinning is free.
    ///
    /// # Panics
    /// Panics like [`DiskRTree::pin_top_levels`] if `p` exceeds the height
    /// or the tree has been mutated since bulk load.
    pub fn set_pinned_levels(&mut self, p: usize) -> io::Result<()> {
        self.mgr.unpin_all();
        if p > 0 {
            self.pin_top_levels(p)?;
        }
        Ok(())
    }

    /// Number of currently pinned pages.
    pub fn pinned_pages(&self) -> usize {
        self.mgr.pinned_count()
    }

    /// Buffer pool capacity in frames.
    pub fn buffer_capacity(&self) -> usize {
        self.mgr.pool().capacity()
    }

    /// Replaces the buffer pool with `capacity` frames under `policy`,
    /// flushing all dirty pages first so no buffered state is lost. The
    /// cache starts cold except for pinned pages, which stay pinned with
    /// their frames; the pool statistics restart, while the cumulative
    /// [`crate::IoStats`] and any attached WAL survive. Call only between
    /// operations. Refuses (`InvalidInput`) a capacity smaller than the
    /// pinned page count rather than evicting a pinned page.
    pub fn resize_buffer(
        &mut self,
        capacity: usize,
        policy: impl ReplacementPolicy + 'static,
    ) -> io::Result<()> {
        self.mgr.resize(capacity, policy)
    }

    /// Physical page reads so far.
    pub fn physical_reads(&self) -> u64 {
        self.mgr.physical_reads()
    }

    /// Physical page writes so far.
    pub fn physical_writes(&self) -> u64 {
        self.mgr.physical_writes()
    }

    /// Resets read counters (e.g. after warm-up).
    pub fn reset_counters(&mut self) {
        self.mgr.reset_counters();
    }

    /// Buffer hit ratio so far.
    pub fn hit_ratio(&self) -> f64 {
        self.mgr.pool().stats().hit_ratio()
    }

    /// Buffer pool access statistics so far.
    pub fn buffer_stats(&self) -> rtree_buffer::BufferStats {
        self.mgr.pool().stats()
    }

    /// Routes every physical-I/O and pool-outcome event to `sink` (`None`
    /// stops tracing).
    pub fn set_trace_sink(&mut self, sink: Option<std::sync::Arc<dyn rtree_obs::TraceSink>>) {
        self.mgr.set_trace_sink(sink);
    }

    /// Runs one operation under a fresh trace span: its events carry a new
    /// operation id (levels start unknown, -1, until a traversal sets
    /// them), and the span closes when `op` returns.
    pub(crate) fn in_span<T>(&mut self, op: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.allocate_op_id();
        self.mgr.set_trace_span(id, -1);
        let result = op(self);
        self.mgr.set_trace_span(0, -1);
        result
    }

    /// Mutable access to the underlying buffer manager — the hook external
    /// execution engines (the batch executor in `rtree-exec`) use to drive
    /// fetch/prefetch/pin against the same pool and counters as
    /// [`DiskRTree::query`].
    pub fn manager_mut(&mut self) -> &mut BufferManager<S> {
        &mut self.mgr
    }

    /// Allocates a fresh operation-span id from the same sequence
    /// [`DiskRTree::query`] uses, for external engines that attribute their
    /// trace events to a span of their own.
    pub fn allocate_op_id(&mut self) -> u64 {
        self.next_query += 1;
        self.next_query
    }

    /// Executes a region query, returning matching item ids. Every page
    /// whose MBR intersects the query is fetched through the buffer
    /// manager; physical reads accumulate in [`DiskRTree::physical_reads`].
    pub fn query(&mut self, query: &Rect) -> io::Result<Vec<u64>> {
        self.in_span(|tree| tree.query_inner(query))
    }

    fn query_inner(&mut self, query: &Rect) -> io::Result<Vec<u64>> {
        let mut results = Vec::new();
        let root = PageId(self.meta.root);
        let root_level = (self.meta.height - 1) as u16;
        // One scratch node + match list reused across the whole walk:
        // steady-state traversal does not allocate.
        let mut node = NodeSoA::new();
        let mut matches: Vec<u32> = Vec::new();

        // Root handling mirrors the model: access it only if its MBR
        // intersects the query. Decode it from a cheap peek first.
        self.mgr.tracer.level = root_level as i16;
        node.decode_into_trusted(self.mgr.fetch_uncharged(root)?)?;
        let Some(root_mbr) = node.rects.mbr() else {
            return Ok(results);
        };
        if !root_mbr.intersects(query) {
            return Ok(results);
        }

        // Each stack entry carries the node's level so every fetch can be
        // attributed to it (children of a level-L node sit at L - 1).
        let mut stack = vec![(root, root_level)];
        while let Some((pid, level)) = stack.pop() {
            self.mgr.tracer.level = level as i16;
            node.decode_into_trusted(self.mgr.fetch(pid)?)?;
            debug_assert_eq!(node.level, level, "stack level mirrors the page");
            matches.clear();
            node.rects.intersecting(query, &mut matches);
            if level == 0 {
                results.extend(matches.iter().map(|&i| node.ptrs[i as usize]));
            } else {
                stack.extend(
                    matches
                        .iter()
                        .map(|&i| (PageId(node.ptrs[i as usize]), level - 1)),
                );
            }
        }
        Ok(results)
    }

    /// The seed's entry-at-a-time region query, kept verbatim as the
    /// differential reference: decodes pages into [`NodePage`] (the AoS
    /// gather path) and tests each entry with [`Rect::intersects`]. Visits
    /// pages in exactly the same order as [`DiskRTree::query`], so results
    /// *and* I/O counts must match — the `simd_vs_seed` suite and the
    /// `simd_traversal` bench rely on this. Never deleted.
    pub fn query_scalar(&mut self, query: &Rect) -> io::Result<Vec<u64>> {
        let mut results = Vec::new();
        let root = PageId(self.meta.root);
        let root_level = (self.meta.height - 1) as u16;

        self.mgr.tracer.level = root_level as i16;
        let root_node = NodePage::decode(self.mgr.fetch_uncharged(root)?)?;
        if root_node.entries.is_empty() {
            return Ok(results);
        }
        let root_mbr = root_node
            .entries
            .iter()
            .skip(1)
            .fold(root_node.entries[0].0, |acc, (r, _)| acc.union(r));
        if !root_mbr.intersects(query) {
            return Ok(results);
        }

        let mut stack = vec![(root, root_level)];
        while let Some((pid, level)) = stack.pop() {
            self.mgr.tracer.level = level as i16;
            let node = NodePage::decode(self.mgr.fetch(pid)?)?;
            debug_assert_eq!(node.level, level, "stack level mirrors the page");
            for (r, ptr) in &node.entries {
                if r.intersects(query) {
                    if node.level == 0 {
                        results.push(*ptr);
                    } else {
                        stack.push((PageId(*ptr), level - 1));
                    }
                }
            }
        }
        Ok(results)
    }

    /// Point query: item ids whose rectangle contains `p` (boundary
    /// inclusive). Runs the dispatched SIMD containment kernel over the
    /// same traversal as [`DiskRTree::query`] — identical to
    /// `query(&Rect::point(p))` in both results and page accesses.
    pub fn query_point(&mut self, p: &Point) -> io::Result<Vec<u64>> {
        self.query(&Rect { lo: *p, hi: *p })
    }

    /// The `k` items nearest to `p` (by rectangle distance, closest first;
    /// ties broken arbitrarily), via best-first search over pages with the
    /// dispatched SIMD distance kernel pruning every node's entries against
    /// the current k-th-best bound before they are enqueued.
    pub fn nearest_neighbors(&mut self, p: &Point, k: usize) -> io::Result<Vec<Neighbor>> {
        self.in_span(|tree| knn_inner(&mut tree.mgr, &tree.meta, p, k))
    }

    /// Executes a query and also reports how many physical reads it caused.
    pub fn query_counting(&mut self, query: &Rect) -> io::Result<(Vec<u64>, u64)> {
        let before = self.mgr.physical_reads();
        let results = self.query(query)?;
        Ok((results, self.mgr.physical_reads() - before))
    }
}

/// A kNN search-queue entry ordered by ascending distance (the heap is a
/// max-heap, so the ordering is inverted). Shared with the concurrent
/// tree's kNN.
pub(crate) struct KnnEntry {
    pub(crate) dist2: f64,
    pub(crate) kind: KnnKind,
}

pub(crate) enum KnnKind {
    /// An unexpanded node page (level 0 = leaf).
    Node(u64, u16),
    /// A leaf entry.
    Item { rect: Rect, id: u64 },
}

impl PartialEq for KnnEntry {
    fn eq(&self, other: &Self) -> bool {
        self.dist2 == other.dist2
    }
}
impl Eq for KnnEntry {}
impl PartialOrd for KnnEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for KnnEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist2
            .partial_cmp(&self.dist2)
            .expect("kernel distances are never NaN")
    }
}

/// Best-first kNN over disk pages (Hjaltason & Samet), shared by the
/// sequential and concurrent trees via the buffer manager. The SIMD
/// distance kernel both computes every enqueued distance and discards
/// entries beyond the current k-th-best bound in one pass.
pub(crate) fn knn_inner<S: PageStore>(
    mgr: &mut BufferManager<S>,
    meta: &PageMeta,
    p: &Point,
    k: usize,
) -> io::Result<Vec<Neighbor>> {
    let mut result = Vec::with_capacity(k.min(meta.items as usize));
    if k == 0 || meta.items == 0 {
        return Ok(result);
    }
    let mut node = NodeSoA::new();
    let mut within: Vec<(u32, f64)> = Vec::new();
    let mut queue = BinaryHeap::new();
    // Max-heap of the k smallest *item* distances seen so far: once full,
    // its top is a sound upper bound — no entry farther than it can be
    // among the k nearest, so the kernel discards such entries in-pass.
    let mut best_k: BinaryHeap<OrdF64> = BinaryHeap::with_capacity(k + 1);
    queue.push(KnnEntry {
        dist2: 0.0,
        kind: KnnKind::Node(meta.root, (meta.height - 1) as u16),
    });
    while let Some(entry) = queue.pop() {
        match entry.kind {
            KnnKind::Item { rect, id } => {
                result.push(Neighbor {
                    id,
                    rect,
                    distance: entry.dist2.sqrt(),
                });
                if result.len() == k {
                    break;
                }
            }
            KnnKind::Node(pid, level) => {
                let bound = if best_k.len() == k {
                    best_k.peek().expect("k > 0").0
                } else {
                    f64::INFINITY
                };
                mgr.tracer.level = level as i16;
                node.decode_into_trusted(mgr.fetch(PageId(pid))?)?;
                within.clear();
                node.rects.min_dist2_within(p, bound, &mut within);
                for &(i, d2) in &within {
                    if level == 0 {
                        queue.push(KnnEntry {
                            dist2: d2,
                            kind: KnnKind::Item {
                                rect: node.rects.get(i as usize),
                                id: node.ptrs[i as usize],
                            },
                        });
                        best_k.push(OrdF64(d2));
                        if best_k.len() > k {
                            best_k.pop();
                        }
                    } else {
                        queue.push(KnnEntry {
                            dist2: d2,
                            kind: KnnKind::Node(node.ptrs[i as usize], level - 1),
                        });
                    }
                }
            }
        }
    }
    Ok(result)
}

/// Total order for kernel distances (never NaN — see the geom NaN policy).
#[derive(Clone, Copy, PartialEq)]
pub(crate) struct OrdF64(pub(crate) f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("distance is never NaN")
    }
}

/// Serializes `tree` into `store` (meta page 0, node pages in level order)
/// in the current (SoA) layout and returns the metadata. Shared by
/// [`DiskRTree::create`] and [`crate::ConcurrentDiskRTree::create`].
pub(crate) fn materialize<S: PageStore>(store: &mut S, tree: &RTree) -> io::Result<PageMeta> {
    materialize_with(store, tree, PageLayout::Soa)
}

/// [`materialize`] with an explicit node-page body layout.
pub(crate) fn materialize_with<S: PageStore>(
    store: &mut S,
    tree: &RTree,
    layout: PageLayout,
) -> io::Result<PageMeta> {
    assert!(!tree.is_empty(), "cannot materialize an empty tree");
    assert!(
        tree.max_entries() <= crate::MAX_ENTRIES_PER_PAGE,
        "node capacity {} exceeds page capacity {}",
        tree.max_entries(),
        crate::MAX_ENTRIES_PER_PAGE
    );

    // Level-order ids; assign page numbers 1.. in that order.
    let ids = tree.node_ids();
    let mut page_of_node = vec![0u64; ids.iter().map(|i| i.index() + 1).max().expect("non-empty")];
    for (i, id) in ids.iter().enumerate() {
        page_of_node[id.index()] = (i + 1) as u64;
    }

    // Level start table (paper levels: root first).
    let height = tree.height();
    let mut level_counts = vec![0u64; height as usize];
    for id in &ids {
        let paper_level = (height - 1 - tree.node(*id).level()) as usize;
        level_counts[paper_level] += 1;
    }
    let mut level_starts = Vec::with_capacity(height as usize);
    let mut next = 1u64;
    for c in &level_counts {
        level_starts.push(next);
        next += c;
    }

    let meta = PageMeta {
        root: 1,
        height,
        max_entries: tree.max_entries() as u32,
        min_entries: tree.min_entries() as u32,
        items: tree.len() as u64,
        nodes: ids.len() as u64,
        free_head: 0,
        level_starts,
        internal_max_entries: tree.max_entries() as u32,
        compressed: false,
    };

    // Write meta + node pages.
    let mut buf = vec![0u8; PAGE_SIZE];
    let meta_page = store.allocate()?;
    debug_assert_eq!(meta_page, PageId(0));
    meta.encode(&mut buf);
    store.write_page(meta_page, &buf)?;

    for id in &ids {
        let n = tree.node(*id);
        let entries: Vec<(Rect, u64)> = if n.is_leaf() {
            n.entries().collect()
        } else {
            (0..n.len())
                .map(|i| (n.rect(i), page_of_node[n.child(i).index()]))
                .collect()
        };
        let node_page = NodePage {
            level: n.level() as u16,
            entries,
        };
        let pid = store.allocate()?;
        node_page.encode_with(&mut buf, layout);
        store.write_page(pid, &buf)?;
    }
    Ok(meta)
}

/// Serializes `tree` into `store` as a compressed (format v4) image.
///
/// Leaf pages are written 1:1 from the tree's leaves, in the same order
/// [`materialize_with`] writes them, as exact-`f64` SoA pages. Internal
/// levels are *not* copied from the tree: they are rebuilt bottom-up by
/// chunking consecutive children into Packed pages of up to `internal_cap`
/// quantized entries, so the repacked tree is usually shallower and its
/// internal footprint far smaller. Page ids are level order, root first,
/// like every other materialization.
pub(crate) fn materialize_packed<S: PageStore>(
    store: &mut S,
    tree: &RTree,
    internal_cap: usize,
) -> io::Result<PageMeta> {
    use crate::mutate::mbr;

    assert!(!tree.is_empty(), "cannot materialize an empty tree");
    assert!(
        tree.max_entries() <= crate::MAX_ENTRIES_PER_PAGE,
        "node capacity {} exceeds page capacity {}",
        tree.max_entries(),
        crate::MAX_ENTRIES_PER_PAGE
    );
    assert!(
        (2..=crate::MAX_ENTRIES_PACKED).contains(&internal_cap),
        "internal capacity {internal_cap} out of range 2..={}",
        crate::MAX_ENTRIES_PACKED
    );

    // Level 0: the tree's leaves, left to right (node_ids is level order,
    // so filtering preserves exactly the leaf order materialize_with uses).
    let leaf_entries: Vec<Vec<(Rect, u64)>> = tree
        .node_ids()
        .into_iter()
        .filter(|id| tree.node(*id).is_leaf())
        .map(|id| tree.node(id).entries().collect())
        .collect();

    // Upper levels: chunk consecutive child MBRs into groups of
    // `internal_cap`. Pointers are indices into the level below for now;
    // they become page ids once the level-order numbering is known.
    let mut levels: Vec<Vec<Vec<(Rect, u64)>>> = vec![leaf_entries];
    while levels.last().expect("non-empty").len() > 1 {
        let below: Vec<Rect> = levels
            .last()
            .expect("non-empty")
            .iter()
            .map(|entries| mbr(entries))
            .collect();
        let next: Vec<Vec<(Rect, u64)>> = (0..below.len())
            .collect::<Vec<usize>>()
            .chunks(internal_cap)
            .map(|chunk| chunk.iter().map(|&i| (below[i], i as u64)).collect())
            .collect();
        levels.push(next);
    }

    // Page numbering: root level first, then each level down, contiguous.
    let height = levels.len() as u32;
    let mut start_of_level = vec![0u64; levels.len()];
    let mut level_starts = Vec::with_capacity(levels.len());
    let mut next_page = 1u64;
    for k in (0..levels.len()).rev() {
        start_of_level[k] = next_page;
        level_starts.push(next_page);
        next_page += levels[k].len() as u64;
    }

    let meta = PageMeta {
        root: 1,
        height,
        max_entries: tree.max_entries() as u32,
        min_entries: tree.min_entries() as u32,
        items: tree.len() as u64,
        nodes: next_page - 1,
        free_head: 0,
        level_starts,
        internal_max_entries: internal_cap as u32,
        compressed: true,
    };

    let mut buf = vec![0u8; PAGE_SIZE];
    let meta_page = store.allocate()?;
    debug_assert_eq!(meta_page, PageId(0));
    meta.encode(&mut buf);
    store.write_page(meta_page, &buf)?;

    for k in (0..levels.len()).rev() {
        for node in &levels[k] {
            let entries: Vec<(Rect, u64)> = if k == 0 {
                node.clone()
            } else {
                node.iter()
                    .map(|&(r, child)| (r, start_of_level[k - 1] + child))
                    .collect()
            };
            let page = NodePage {
                level: k as u16,
                entries,
            };
            let pid = store.allocate()?;
            page.encode_with(&mut buf, meta.layout_at(k as u16));
            store.write_page(pid, &buf)?;
        }
    }
    Ok(meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;
    use rtree_buffer::LruPolicy;
    use rtree_geom::Point;
    use rtree_index::BulkLoader;

    fn sample_rects(n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let x = (i as f64 * 0.618_033) % 0.97;
                let y = (i as f64 * 0.414_213) % 0.97;
                Rect::new(x, y, x + 0.012, y + 0.012)
            })
            .collect()
    }

    fn disk_tree(n: usize, cap: usize, buffer: usize) -> (DiskRTree<MemStore>, RTree, Vec<Rect>) {
        let rects = sample_rects(n);
        let tree = BulkLoader::hilbert(cap).load(&rects);
        let disk = DiskRTree::create(MemStore::new(), &tree, buffer, LruPolicy::new()).unwrap();
        (disk, tree, rects)
    }

    #[test]
    fn disk_query_matches_in_memory_query() {
        let (mut disk, tree, _) = disk_tree(600, 10, 50);
        for q in [
            Rect::new(0.1, 0.1, 0.4, 0.3),
            Rect::point(Point::new(0.5, 0.5)),
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(0.9, 0.9, 0.95, 0.95),
        ] {
            let mut a = disk.query(&q).unwrap();
            let mut b = tree.search(&q);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "query {q}");
        }
    }

    #[test]
    fn physical_reads_equal_nodes_accessed_cold() {
        let (mut disk, tree, _) = disk_tree(600, 10, 1000);
        let q = Rect::new(0.2, 0.2, 0.5, 0.5);
        let (_, reads) = disk.query_counting(&q).unwrap();
        assert_eq!(
            reads,
            tree.count_accesses(&q) as u64,
            "cold reads = nodes touched"
        );
        // Re-running the same query is free: everything is cached.
        let (_, reads2) = disk.query_counting(&q).unwrap();
        assert_eq!(reads2, 0);
    }

    #[test]
    fn meta_survives_reopen() {
        let rects = sample_rects(300);
        let tree = BulkLoader::nearest_x(10).load(&rects);
        let mut store = MemStore::new();
        {
            let disk = DiskRTree::create(&mut store, &tree, 10, LruPolicy::new()).unwrap();
            assert_eq!(disk.meta().items, 300);
        }
        let mut disk = DiskRTree::open(&mut store, 10, LruPolicy::new()).unwrap();
        assert_eq!(disk.meta().items, 300);
        assert_eq!(disk.meta().nodes, tree.node_count() as u64);
        let mut a = disk.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap();
        a.sort_unstable();
        assert_eq!(a.len(), 300);
    }

    #[test]
    fn pages_per_level_matches_tree() {
        let (disk, tree, _) = disk_tree(500, 10, 10);
        let stats = tree.stats();
        let expect: Vec<u64> = stats.nodes_per_level().iter().map(|&n| n as u64).collect();
        assert_eq!(disk.pages_per_level(), expect);
    }

    #[test]
    fn pinning_top_levels_avoids_rereads() {
        let (mut disk, _, _) = disk_tree(2_000, 10, 30);
        disk.pin_top_levels(2).unwrap();
        disk.reset_counters();
        // A point query through pinned levels only pays for the leaves (and
        // unpinned internal levels).
        let (_, reads) = disk
            .query_counting(&Rect::point(Point::new(0.4, 0.4)))
            .unwrap();
        let height = disk.meta().height as u64;
        assert!(
            reads <= height,
            "at most one unpinned page per level expected, got {reads}"
        );
    }

    #[test]
    fn simd_and_scalar_queries_agree_with_equal_io() {
        // Same data, two trees: v3 (SoA) queried through the SIMD path and
        // v2 (AoS) queried through the verbatim seed path — results and
        // physical reads must be identical.
        let rects = sample_rects(800);
        let tree = BulkLoader::hilbert(12).load(&rects);
        let mut v3 = DiskRTree::create(MemStore::new(), &tree, 40, LruPolicy::new()).unwrap();
        let mut v2 = DiskRTree::create_with_layout(
            MemStore::new(),
            &tree,
            40,
            LruPolicy::new(),
            PageLayout::Aos,
        )
        .unwrap();
        for q in [
            Rect::new(0.1, 0.1, 0.4, 0.3),
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::point(Point::new(0.5, 0.5)),
            Rect::new(0.99, 0.99, 1.0, 1.0),
        ] {
            assert_eq!(v3.query(&q).unwrap(), v2.query_scalar(&q).unwrap(), "{q}");
            assert_eq!(v3.physical_reads(), v2.physical_reads(), "{q}");
        }
        // Both paths decode both layouts: cross them.
        assert_eq!(
            v3.query_scalar(&Rect::new(0.2, 0.2, 0.6, 0.6)).unwrap(),
            v2.query(&Rect::new(0.2, 0.2, 0.6, 0.6)).unwrap()
        );
    }

    #[test]
    fn point_query_matches_degenerate_rect_query() {
        let (mut disk, tree, _) = disk_tree(600, 10, 50);
        for p in [Point::new(0.3, 0.3), Point::new(0.77, 0.12)] {
            let mut by_point = disk.query_point(&p).unwrap();
            let mut by_rect = tree.search(&Rect::point(p));
            by_point.sort_unstable();
            by_rect.sort_unstable();
            assert_eq!(by_point, by_rect);
        }
    }

    #[test]
    fn disk_knn_matches_in_memory_knn() {
        let (mut disk, tree, _) = disk_tree(700, 10, 60);
        for (p, k) in [
            (Point::new(0.5, 0.5), 10),
            (Point::new(0.0, 0.0), 1),
            (Point::new(0.9, 0.1), 25),
            (Point::new(0.4, 0.6), 700),  // whole tree
            (Point::new(0.4, 0.6), 2000), // more than the tree holds
        ] {
            let got = disk.nearest_neighbors(&p, k).unwrap();
            let want = tree.nearest_neighbors(&p, k);
            assert_eq!(got.len(), want.len(), "k={k}");
            // Distances must agree exactly; ids may differ within a
            // distance tie, so compare (distance, id) multisets.
            let mut g: Vec<(u64, u64)> = got.iter().map(|n| (n.distance.to_bits(), n.id)).collect();
            let mut w: Vec<(u64, u64)> =
                want.iter().map(|n| (n.distance.to_bits(), n.id)).collect();
            g.sort_unstable();
            w.sort_unstable();
            // Tied tails may legitimately pick different members; compare
            // the distance sequence always, and ids where distances are
            // unique.
            assert_eq!(
                g.iter().map(|e| e.0).collect::<Vec<_>>(),
                w.iter().map(|e| e.0).collect::<Vec<_>>(),
                "distance sequence, k={k}"
            );
        }
        assert!(disk
            .nearest_neighbors(&Point::new(0.5, 0.5), 0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn query_missing_root_region_costs_nothing() {
        let (mut disk, _, _) = disk_tree(200, 10, 10);
        disk.reset_counters();
        let (hits, reads) = disk
            .query_counting(&Rect::new(0.995, 0.995, 1.0, 1.0))
            .unwrap();
        // This corner is outside every MBR for our generator.
        assert!(hits.is_empty());
        assert_eq!(reads, 0, "root miss must not charge the buffer");
    }

    #[test]
    fn stored_checksums_equal_the_reference_crc() {
        // Every page of a materialized image, v3 and v4, carries the
        // standard CRC-32 as computed bit by bit, independently of both
        // kernels in `rtree_wal::crc32`: images written by any build of
        // this crate verify under any other.
        use crate::page::CRC_OFFSET;

        fn reference(page: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for (i, &byte) in page.iter().enumerate() {
                let in_field = (CRC_OFFSET..CRC_OFFSET + 4).contains(&i);
                crc ^= if in_field { 0 } else { byte as u32 };
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ 0xEDB8_8320
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        }

        let tree = BulkLoader::hilbert(40).load(&sample_rects(3000));
        let mut v3 = MemStore::new();
        materialize(&mut v3, &tree).unwrap();
        let mut v4 = MemStore::new();
        materialize_packed(&mut v4, &tree, crate::MAX_ENTRIES_PACKED).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        for (name, store) in [("v3", &mut v3), ("v4", &mut v4)] {
            assert!(store.page_count() > 2, "{name} image has internal pages");
            for id in 0..store.page_count() {
                store.read_page(PageId(id), &mut buf).unwrap();
                let stored =
                    u32::from_le_bytes(buf[CRC_OFFSET..CRC_OFFSET + 4].try_into().unwrap());
                assert_eq!(stored, reference(&buf), "{name} page {id}");
            }
        }
    }
}
