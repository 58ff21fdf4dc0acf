//! Concurrent disk-backed query execution over a **sharded** buffer pool.
//!
//! A database serves many clients at once; this module provides a
//! shared-ownership [`ConcurrentDiskRTree`] that multiple threads can query
//! concurrently. Pool bookkeeping (residency, replacement, read counting)
//! is partitioned into N *shards*: each [`PageId`] hashes to exactly one
//! shard, and each shard owns its own short [`parking_lot::Mutex`] around a
//! [`BufferPool`] slice plus the frames of its resident pages. Threads
//! querying disjoint subtrees therefore touch disjoint latches and never
//! contend; frames are shared as `Arc<[u8]>` so decoding and geometry tests
//! — the CPU-heavy part of a query — run outside every lock, and the store
//! itself is read through [`SharedPageStore`] (`&self`), so even misses in
//! different shards proceed in parallel.
//!
//! Statistics are relaxed `AtomicU64`s aggregated across shards:
//! [`ConcurrentDiskRTree::io_stats`] and
//! [`ConcurrentDiskRTree::physical_reads`] never take a pool latch.
//!
//! # Accounting rules
//!
//! - A **physical read** (`IoStats::reads`) is any page transfer performed
//!   on behalf of a charged buffer-pool access: a miss fill, a bypass read
//!   against a fully pinned shard, or the one-time load of a pinned page.
//! - The **root peek** is *uncharged*, mirroring the model semantics where
//!   a node is accessed iff its MBR intersects the query. The peeked root
//!   frame is cached once per tree (the tree is immutable), and the
//!   transfer is surfaced in `IoStats::peek_reads` instead of being
//!   silently dropped.
//! - With `shards = 1` the access sequence seen by the pool is exactly the
//!   sequential [`crate::DiskRTree`] sequence, so single-threaded physical
//!   read counts reproduce the paper's numbers bit for bit.

use crate::disk_tree::materialize;
use crate::latch::{LatchSet, LatchTable, META_LATCH};
use crate::mutate::{choose_subtree, mbr, quadratic_split};
use crate::store::{ConcurrentPageStore, SharedPageStore};
use crate::{IoStats, NodePage, NodeSoA, PageMeta, MAX_ENTRIES_PER_PAGE, PAGE_SIZE};
use parking_lot::{Mutex, RwLock};
use rtree_buffer::{
    AccessOutcome, AtomicBufferStats, BufferPool, BufferStats, PageId, ReplacementPolicy,
};
use rtree_geom::{Point, Rect};
use rtree_index::{Neighbor, RTree};
use rtree_obs::{EventKind, IoEvent, TraceSink};
use rtree_wal::{GroupCommitStats, GroupWal, Lsn};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Per-query accounting carried through one traversal: the span id plus
/// local read/access counters, recorded into the tree's
/// [`rtree_obs::QueryMetrics`] when the query finishes.
struct QuerySpan {
    qid: u64,
    reads: u64,
    accesses: u64,
}

/// The trace event for one pool access.
fn access_event(missed: bool) -> EventKind {
    if missed {
        EventKind::Miss
    } else {
        EventKind::Hit
    }
}

/// Fibonacci multiplier for the page → shard hash.
const HASH: u64 = 0x9E37_79B9_7F4A_7C15;

struct ShardState {
    pool: BufferPool,
    frames: HashMap<PageId, Arc<[u8]>>,
}

/// One latch domain: a slice of the buffer capacity plus its counters.
struct Shard {
    state: Mutex<ShardState>,
    /// Physical page reads issued by this shard (relaxed; aggregated by
    /// [`ConcurrentDiskRTree::io_stats`] without taking the latch).
    reads: AtomicU64,
    stats: AtomicBufferStats,
}

impl Shard {
    fn new(capacity: usize, policy: Box<dyn ReplacementPolicy>) -> Self {
        Shard {
            state: Mutex::new(ShardState {
                pool: BufferPool::new(capacity, policy),
                frames: HashMap::with_capacity(capacity + 1),
            }),
            reads: AtomicU64::new(0),
            stats: AtomicBufferStats::new(),
        }
    }
}

/// Mutable-tree state attached by the writable constructors: everything a
/// latch-crabbing writer needs beyond the read path's shard pools.
///
/// The write path is **no-steal**: a dirty page lives in `overlay` (shadowing
/// both the shard pools and the store) and reaches the store only at a
/// [`ConcurrentDiskRTree::checkpoint`], by which point its operations are
/// group-committed in the WAL. Recovery is therefore logical redo only —
/// replay committed [`rtree_wal::WalRecord::OpInsert`]/`OpDelete` records on
/// top of the last checkpoint image (see [`crate::replay_committed`]).
struct WriterState {
    /// Per-page latches; see [`crate::latch`] for the deadlock-freedom
    /// argument (strict top-down acquisition).
    latches: LatchTable,
    /// Operation gate: crabbing inserts/deletes and queries hold it shared;
    /// checkpoints and the exclusive delete fallback hold it exclusively.
    op_gate: RwLock<()>,
    /// Live metadata (root, height, counters). The open-time snapshot in
    /// `ConcurrentDiskRTree::meta` is *not* updated by writes.
    meta: Mutex<PageMeta>,
    /// Dirty-page overlay: page id → latest image. Checked before the shard
    /// pools on every writer-mode load.
    overlay: RwLock<HashMap<u64, Arc<[u8]>>>,
    /// Session-local free list of dissolved pages (not persisted: a
    /// checkpointed meta page stores `free_head = 0`, so pages freed since
    /// the last checkpoint leak on reopen — a documented trade for keeping
    /// the on-disk free list out of the latch protocol).
    free: Mutex<Vec<u64>>,
    /// Group-commit write-ahead log (logical redo records).
    wal: GroupWal,
    /// Leaf capacity (compressed trees pack internal pages denser; see
    /// [`WriterState::cap`]).
    max_entries: usize,
    /// Internal-node capacity (`== max_entries` on uncompressed trees).
    internal_max_entries: usize,
    /// Whether internal pages are written in the Packed (v4) layout.
    compressed: bool,
    min_entries: usize,
    /// Latch acquisitions that had to wait (contention signal).
    latch_waits: AtomicU64,
    /// Physical page writes (checkpoint flushes).
    page_writes: AtomicU64,
    /// Applied logical operations (inserts + deletes that found their entry).
    logical_writes: AtomicU64,
}

impl WriterState {
    fn new(meta: PageMeta, wal: GroupWal) -> Self {
        WriterState {
            latches: LatchTable::new(),
            op_gate: RwLock::new(()),
            max_entries: meta.max_entries as usize,
            internal_max_entries: meta.internal_max_entries as usize,
            compressed: meta.compressed,
            min_entries: meta.min_entries as usize,
            meta: Mutex::new(meta),
            overlay: RwLock::new(HashMap::new()),
            free: Mutex::new(Vec::new()),
            wal,
            latch_waits: AtomicU64::new(0),
            page_writes: AtomicU64::new(0),
            logical_writes: AtomicU64::new(0),
        }
    }

    /// Entry capacity of a node at `level` (0 = leaf).
    fn cap(&self, level: u16) -> usize {
        if level == 0 {
            self.max_entries
        } else {
            self.internal_max_entries
        }
    }

    /// Body layout written for a node at `level` (layout-preserving:
    /// compressed trees keep their internal pages Packed across rewrites).
    fn layout(&self, level: u16) -> crate::page::PageLayout {
        if self.compressed && level > 0 {
            crate::page::PageLayout::Packed
        } else {
            crate::page::PageLayout::Soa
        }
    }
}

/// Largest power of two ≤ `n` (`n` ≥ 1).
fn floor_pow2(n: usize) -> usize {
    debug_assert!(n >= 1);
    1 << (usize::BITS - 1 - n.leading_zeros())
}

/// Resolves a shard-count request against the buffer capacity: `0` means
/// "one per hardware thread", everything is rounded to a power of two, and
/// the count never exceeds the capacity (each shard needs ≥ 1 frame).
fn resolve_shards(requested: usize, capacity: usize) -> usize {
    assert!(capacity > 0, "buffer capacity must be positive");
    let requested = if requested == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    requested.next_power_of_two().min(floor_pow2(capacity))
}

/// A disk-backed R-tree that can be queried from many threads at once
/// (`&self` queries; wrap in an `Arc` to share).
///
/// [`ConcurrentDiskRTree::create`] / [`ConcurrentDiskRTree::open`] build a
/// **single-shard** tree whose replacement decisions and physical read
/// counts are exactly those of the sequential [`crate::DiskRTree`] — the
/// configuration every paper experiment uses. The `_sharded` constructors
/// split the capacity across N latch-disjoint shards for multi-threaded
/// throughput.
pub struct ConcurrentDiskRTree<S> {
    store: S,
    shards: Box<[Shard]>,
    /// `64 - log2(shard count)`: shift for the Fibonacci hash.
    shard_shift: u32,
    /// Cached root frame for the uncharged MBR peek (the tree is
    /// immutable, so the root page never changes).
    root_frame: OnceLock<Arc<[u8]>>,
    peek_reads: AtomicU64,
    meta: PageMeta,
    /// Trace sink shared by every querying thread (`None` = no tracing).
    sink: Option<Arc<dyn TraceSink>>,
    /// Query span id source (0 = no span).
    query_ids: AtomicU64,
    /// Per-query latency / reads / pins distributions.
    metrics: rtree_obs::QueryMetrics,
    /// Present iff the tree was opened writable.
    writer: Option<WriterState>,
}

impl<S: SharedPageStore> ConcurrentDiskRTree<S> {
    /// Serializes `tree` into `store` and returns a shareable single-shard
    /// handle with the paper's exact sequential accounting.
    ///
    /// # Panics
    /// Panics if the tree is empty or its node capacity exceeds
    /// [`crate::MAX_ENTRIES_PER_PAGE`].
    pub fn create(
        mut store: S,
        tree: &RTree,
        buffer_capacity: usize,
        policy: impl ReplacementPolicy + 'static,
    ) -> io::Result<Self> {
        let meta = materialize(&mut store, tree)?;
        let mut policy = Some(Box::new(policy) as Box<dyn ReplacementPolicy>);
        Ok(Self::assemble(store, meta, buffer_capacity, 1, move || {
            policy.take().expect("single shard uses the policy once")
        }))
    }

    /// Serializes `tree` into `store` and returns a sharded handle:
    /// `shards` is rounded to a power of two and capped by the capacity;
    /// `0` means one shard per hardware thread. `policy` is invoked once
    /// per shard.
    ///
    /// # Panics
    /// Panics if the tree is empty or its node capacity exceeds
    /// [`crate::MAX_ENTRIES_PER_PAGE`].
    pub fn create_sharded<P: ReplacementPolicy + 'static>(
        mut store: S,
        tree: &RTree,
        buffer_capacity: usize,
        shards: usize,
        mut policy: impl FnMut() -> P,
    ) -> io::Result<Self> {
        let meta = materialize(&mut store, tree)?;
        let n = resolve_shards(shards, buffer_capacity);
        Ok(Self::assemble(store, meta, buffer_capacity, n, move || {
            Box::new(policy())
        }))
    }

    /// Opens a previously materialized tree with a single shard.
    pub fn open(
        mut store: S,
        buffer_capacity: usize,
        policy: impl ReplacementPolicy + 'static,
    ) -> io::Result<Self> {
        let meta = Self::read_meta(&mut store)?;
        let mut policy = Some(Box::new(policy) as Box<dyn ReplacementPolicy>);
        Ok(Self::assemble(store, meta, buffer_capacity, 1, move || {
            policy.take().expect("single shard uses the policy once")
        }))
    }

    /// Opens a previously materialized tree with a sharded pool (see
    /// [`ConcurrentDiskRTree::create_sharded`] for the shard semantics).
    pub fn open_sharded<P: ReplacementPolicy + 'static>(
        mut store: S,
        buffer_capacity: usize,
        shards: usize,
        mut policy: impl FnMut() -> P,
    ) -> io::Result<Self> {
        let meta = Self::read_meta(&mut store)?;
        let n = resolve_shards(shards, buffer_capacity);
        Ok(Self::assemble(store, meta, buffer_capacity, n, move || {
            Box::new(policy())
        }))
    }

    fn read_meta(store: &mut S) -> io::Result<PageMeta> {
        let mut buf = vec![0u8; PAGE_SIZE];
        store.read_page(PageId(0), &mut buf)?;
        Ok(PageMeta::decode(&buf)?)
    }

    /// Builds the shard array: capacity is split proportionally, the first
    /// `capacity % n` shards taking one extra frame.
    fn assemble(
        store: S,
        meta: PageMeta,
        capacity: usize,
        n: usize,
        mut policy: impl FnMut() -> Box<dyn ReplacementPolicy>,
    ) -> Self {
        debug_assert!(n.is_power_of_two() && n <= capacity);
        let base = capacity / n;
        let rem = capacity % n;
        let shards: Box<[Shard]> = (0..n)
            .map(|i| Shard::new(base + usize::from(i < rem), policy()))
            .collect();
        ConcurrentDiskRTree {
            store,
            shards,
            shard_shift: u64::BITS - n.trailing_zeros(),
            root_frame: OnceLock::new(),
            peek_reads: AtomicU64::new(0),
            meta,
            sink: None,
            query_ids: AtomicU64::new(0),
            metrics: rtree_obs::QueryMetrics::new(),
            writer: None,
        }
    }

    /// Routes every physical-I/O and pool-outcome event to `sink` (`None`
    /// stops tracing). Takes `&mut self`: install the sink before sharing
    /// the tree across threads.
    pub fn set_trace_sink(&mut self, sink: Option<Arc<dyn TraceSink>>) {
        self.sink = sink;
    }

    /// Snapshot of the per-query latency / reads / pins histograms
    /// (all threads).
    pub fn query_metrics(&self) -> rtree_obs::QueryMetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Runs one traversal under a fresh query span and records its
    /// latency, reads and accesses into the query metrics.
    fn with_span<T>(&self, traverse: impl FnOnce(&mut QuerySpan) -> T) -> T {
        let mut span = QuerySpan {
            qid: self.query_ids.fetch_add(1, Ordering::Relaxed) + 1,
            reads: 0,
            accesses: 0,
        };
        let start = rtree_obs::now_ns();
        let result = traverse(&mut span);
        self.metrics
            .record_query(rtree_obs::now_ns() - start, span.reads, span.accesses);
        result
    }

    /// Emits one trace event (no-op without a sink).
    #[inline]
    fn emit(&self, query_id: u64, page: PageId, level: i16, kind: EventKind) {
        if let Some(sink) = &self.sink {
            sink.record(IoEvent {
                query_id,
                page_id: page.0,
                level,
                kind,
                ns: rtree_obs::now_ns(),
            });
        }
    }

    /// The shard owning `id`.
    fn shard(&self, id: PageId) -> &Shard {
        if self.shards.len() == 1 {
            &self.shards[0]
        } else {
            &self.shards[(id.0.wrapping_mul(HASH) >> self.shard_shift) as usize]
        }
    }

    /// The stored metadata.
    pub fn meta(&self) -> &PageMeta {
        &self.meta
    }

    /// Number of shards the buffer capacity is split across.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Physical I/O counters so far (all threads), aggregated from the
    /// shards' relaxed atomics — no pool latch is taken. `writes` counts
    /// the pages a writable tree's checkpoints wrote (0 when read-only);
    /// the shape matches [`crate::BufferManager::io_stats`] so benches
    /// report one thing.
    pub fn io_stats(&self) -> IoStats {
        IoStats {
            reads: self.physical_reads(),
            writes: self
                .writer
                .as_ref()
                .map_or(0, |w| w.page_writes.load(Ordering::Relaxed)),
            peek_reads: self.peek_reads.load(Ordering::Relaxed),
            prefetch_reads: 0,
        }
    }

    /// Physical page reads so far (all threads, latch-free).
    pub fn physical_reads(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.reads.load(Ordering::Relaxed))
            .sum()
    }

    /// Root-peek reads so far (all threads, latch-free). At most one per
    /// tree lifetime between counter resets — the peeked frame is cached.
    pub fn peek_reads(&self) -> u64 {
        self.peek_reads.load(Ordering::Relaxed)
    }

    /// Pool access statistics aggregated across shards (latch-free).
    pub fn buffer_stats(&self) -> BufferStats {
        let mut total = BufferStats::default();
        for s in &self.shards {
            total += s.stats.snapshot();
        }
        total
    }

    /// Resets the I/O counters and pool statistics (takes each shard latch
    /// once; the cached root frame is state, not a counter, and survives).
    pub fn reset_counters(&self) {
        for shard in self.shards.iter() {
            shard.state.lock().pool.reset_stats();
            shard.reads.store(0, Ordering::Relaxed);
            shard.stats.reset();
        }
        self.peek_reads.store(0, Ordering::Relaxed);
    }

    /// Pins the top `p` levels (reads each page once, into its shard).
    /// Pinned pages are distributed across shards like any other page and
    /// are exempt from replacement in their shard.
    ///
    /// # Errors
    /// `InvalidInput` if `p` exceeds the tree height; `OutOfMemory` if a
    /// shard's capacity slice cannot hold its share of the pinned pages.
    pub fn pin_top_levels(&self, p: usize) -> io::Result<()> {
        if p > self.meta.level_starts.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "cannot pin {p} levels: the tree has {}",
                    self.meta.level_starts.len()
                ),
            ));
        }
        let end = if p == self.meta.level_starts.len() {
            self.meta.nodes + 1
        } else {
            self.meta.level_starts[p]
        };
        for page in 1..end {
            let id = PageId(page);
            let shard = self.shard(id);
            let mut s = shard.state.lock();
            let was_resident = s.pool.contains(id);
            let evicted = s
                .pool
                .pin(id)
                .map_err(|e| io::Error::new(io::ErrorKind::OutOfMemory, e.to_string()))?;
            if let Some(victim) = evicted {
                s.frames.remove(&victim);
            }
            if !was_resident {
                let mut buf = vec![0u8; PAGE_SIZE];
                self.store.read_page_shared(id, &mut buf)?;
                if let Err(e) = Self::verify_read(id, &buf) {
                    s.pool.unpin(id);
                    s.pool.discard(id);
                    return Err(e);
                }
                shard.reads.fetch_add(1, Ordering::Relaxed);
                shard.stats.record_miss();
                s.frames.insert(id, Arc::from(buf.into_boxed_slice()));
                self.emit(0, id, self.meta.onpage_level_of(page), EventKind::Miss);
            }
        }
        Ok(())
    }

    /// Unpins every pinned page across all shards. Frames stay resident
    /// and re-enter replacement in their shard; no I/O is performed.
    pub fn unpin_all(&self) {
        for shard in self.shards.iter() {
            let mut s = shard.state.lock();
            let pinned: Vec<PageId> = s
                .frames
                .keys()
                .copied()
                .filter(|&id| s.pool.is_pinned(id))
                .collect();
            for id in pinned {
                s.pool.unpin(id);
            }
        }
    }

    /// Re-targets pinning at the top `p` levels: unpins everything, then
    /// pins (see [`ConcurrentDiskRTree::pin_top_levels`]). `p = 0` just
    /// unpins.
    pub fn set_pinned_levels(&self, p: usize) -> io::Result<()> {
        self.unpin_all();
        if p > 0 {
            self.pin_top_levels(p)?;
        }
        Ok(())
    }

    /// Number of currently pinned pages across all shards.
    pub fn pinned_pages(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.state.lock().pool.pinned_count())
            .sum()
    }

    /// Total buffer capacity in frames (sum of the shard slices).
    pub fn buffer_capacity(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.state.lock().pool.capacity())
            .sum()
    }

    /// Re-partitions the pool across the existing shards at a new total
    /// `capacity`: each shard gets a fresh pool of `capacity / n` frames
    /// (the first `capacity % n` shards one extra, mirroring construction),
    /// built by one call to `policy` per shard. Pinned pages stay pinned
    /// with their frames; unpinned frames are dropped, so the cache starts
    /// cold. Shard-level counters ([`ConcurrentDiskRTree::io_stats`],
    /// [`ConcurrentDiskRTree::buffer_stats`]) live outside the pools and
    /// survive.
    ///
    /// On a writable tree the operation gate is held exclusively, so no
    /// query or writer is in flight while the pools swap; dirty pages live
    /// in the overlay, never in shard frames, so dropping frames loses
    /// nothing.
    ///
    /// # Errors
    /// `InvalidInput` if `capacity` is smaller than the shard count (every
    /// shard needs ≥ 1 frame) or any shard's new slice cannot hold that
    /// shard's currently pinned pages. The pools are untouched on error.
    pub fn resize_buffer<P: ReplacementPolicy + 'static>(
        &self,
        capacity: usize,
        mut policy: impl FnMut() -> P,
    ) -> io::Result<()> {
        let n = self.shards.len();
        if capacity < n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("cannot resize to {capacity} frames across {n} shards"),
            ));
        }
        let _gate = self.writer.as_ref().map(|w| w.op_gate.write());
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.state.lock()).collect();
        let base = capacity / n;
        let rem = capacity % n;
        for (i, s) in guards.iter().enumerate() {
            let slice = base + usize::from(i < rem);
            let pinned = s.frames.keys().filter(|&&id| s.pool.is_pinned(id)).count();
            if slice < pinned {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "cannot resize to {capacity} frames: shard {i} holds {pinned} pinned \
                         pages but would get {slice} frames"
                    ),
                ));
            }
        }
        for (i, s) in guards.iter_mut().enumerate() {
            let slice = base + usize::from(i < rem);
            let pinned: Vec<PageId> = s
                .frames
                .keys()
                .copied()
                .filter(|&id| s.pool.is_pinned(id))
                .collect();
            let mut pool = BufferPool::new(slice, Box::new(policy()) as Box<dyn ReplacementPolicy>);
            for &id in &pinned {
                pool.admit_pinned(id)
                    .expect("slice was checked against the pinned count");
            }
            s.pool = pool;
            s.frames.retain(|id, _| pinned.contains(id));
        }
        Ok(())
    }

    /// Checksum gate for bytes freshly read from the store. Every miss
    /// path runs it, so frames served from the shards are known-good and
    /// the traversal loops decode them with
    /// [`NodeSoA::decode_into_trusted`] — corruption is caught exactly
    /// once, at page-in, not on every access to a resident frame.
    fn verify_read(id: PageId, buf: &[u8]) -> io::Result<()> {
        crate::page::verify_checksum(buf)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("page {}: {e}", id.0)))
    }

    /// Fetches a page through its shard, charging the access to the pool.
    /// Also reports whether the access missed (i.e. cost a physical read),
    /// so the caller can attribute the event to its query span.
    fn fetch(&self, id: PageId) -> io::Result<(Arc<[u8]>, bool)> {
        let shard = self.shard(id);
        let mut s = shard.state.lock();
        let outcome = s.pool.access(id);
        shard.stats.record(&outcome);
        match outcome {
            AccessOutcome::Hit => Ok((
                Arc::clone(s.frames.get(&id).expect("resident page has a frame")),
                false,
            )),
            AccessOutcome::Miss { evicted } => {
                if let Some(victim) = evicted {
                    s.frames.remove(&victim);
                }
                let mut buf = vec![0u8; PAGE_SIZE];
                self.store.read_page_shared(id, &mut buf)?;
                if let Err(e) = Self::verify_read(id, &buf) {
                    // Back the admission out so the next access misses and
                    // re-reads instead of hitting a frameless entry.
                    s.pool.discard(id);
                    return Err(e);
                }
                shard.reads.fetch_add(1, Ordering::Relaxed);
                let frame: Arc<[u8]> = Arc::from(buf.into_boxed_slice());
                s.frames.insert(id, Arc::clone(&frame));
                Ok((frame, true))
            }
            AccessOutcome::MissBypass => {
                let mut buf = vec![0u8; PAGE_SIZE];
                self.store.read_page_shared(id, &mut buf)?;
                Self::verify_read(id, &buf)?;
                shard.reads.fetch_add(1, Ordering::Relaxed);
                Ok((Arc::from(buf.into_boxed_slice()), true))
            }
        }
    }

    /// The root frame for the uncharged MBR peek: read from the store at
    /// most once per tree (the tree is immutable) and cached outside the
    /// pool so the peek neither charges nor perturbs replacement state.
    /// Also reports whether *this* call performed the physical read, so the
    /// caller can emit the matching peek event.
    fn root_frame(&self) -> io::Result<(Arc<[u8]>, bool)> {
        if let Some(frame) = self.root_frame.get() {
            return Ok((Arc::clone(frame), false));
        }
        let mut buf = vec![0u8; PAGE_SIZE];
        self.store
            .read_page_shared(PageId(self.meta.root), &mut buf)?;
        Self::verify_read(PageId(self.meta.root), &buf)?;
        // Two racing threads may both read; both transfers really happened,
        // so both count, but only one frame is kept.
        self.peek_reads.fetch_add(1, Ordering::Relaxed);
        let frame: Arc<[u8]> = Arc::from(buf.into_boxed_slice());
        Ok((Arc::clone(self.root_frame.get_or_init(|| frame)), true))
    }

    /// Executes a region query; safe to call from many threads. On a
    /// writable tree the traversal runs under the reader latch protocol
    /// (breadth-first shared-latch coupling against the live root).
    pub fn query(&self, query: &Rect) -> io::Result<Vec<u64>> {
        if let Some(w) = &self.writer {
            return self.query_writer(w, query);
        }
        self.with_span(|span| self.query_inner(query, span))
    }

    fn query_inner(&self, query: &Rect, span: &mut QuerySpan) -> io::Result<Vec<u64>> {
        let mut results = Vec::new();
        let root = PageId(self.meta.root);
        let root_level = (self.meta.height - 1) as u16;

        // Uncharged root peek (model semantics: a node is accessed iff its
        // MBR intersects the query).
        let (root_frame, fresh_peek) = self.root_frame()?;
        if fresh_peek {
            self.emit(span.qid, root, root_level as i16, EventKind::PeekRead);
        }
        // Scratch node + match list reused across the walk (no per-page
        // allocation); the SoA decode is gather-free on v3 pages.
        let mut node = NodeSoA::new();
        let mut matches: Vec<u32> = Vec::new();
        node.decode_into_trusted(&root_frame)?;
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
            let (frame, missed) = self.fetch(pid)?;
            span.accesses += 1;
            if missed {
                span.reads += 1;
            }
            self.emit(span.qid, pid, level as i16, access_event(missed));
            node.decode_into_trusted(&frame)?;
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

    /// Point query: item ids whose rectangle contains `p` (boundary
    /// inclusive). Runs as a degenerate region query, so it follows the
    /// same dispatched SIMD kernel and, on writable trees, the same reader
    /// latch protocol.
    pub fn query_point(&self, p: &Point) -> io::Result<Vec<u64>> {
        self.query(&Rect { lo: *p, hi: *p })
    }

    /// The `k` items nearest to `p` (closest first; ties broken
    /// arbitrarily), best-first over pages with the dispatched SIMD
    /// distance kernel pruning against the current k-th-best bound. On a
    /// writable tree the search runs under the exclusive operation gate
    /// (no concurrent mutation mid-search); on read-optimized trees it is
    /// freely concurrent.
    pub fn nearest_neighbors(&self, p: &Point, k: usize) -> io::Result<Vec<Neighbor>> {
        let _gate = self.writer.as_ref().map(|w| w.op_gate.write());
        let root = match &self.writer {
            Some(w) => w.meta.lock().root,
            None => self.meta.root,
        };
        let mut result = Vec::new();
        if k == 0 || (self.writer.is_none() && self.meta.items == 0) {
            return Ok(result);
        }
        let mut node = NodeSoA::new();
        let mut within: Vec<(u32, f64)> = Vec::new();
        let mut queue = std::collections::BinaryHeap::new();
        let mut best_k = std::collections::BinaryHeap::with_capacity(k + 1);
        queue.push(crate::disk_tree::KnnEntry {
            dist2: 0.0,
            kind: crate::disk_tree::KnnKind::Node(root, u16::MAX),
        });
        let qid = self.query_ids.fetch_add(1, Ordering::Relaxed) + 1;
        while let Some(entry) = queue.pop() {
            match entry.kind {
                crate::disk_tree::KnnKind::Item { rect, id } => {
                    result.push(Neighbor {
                        id,
                        rect,
                        distance: entry.dist2.sqrt(),
                    });
                    if result.len() == k {
                        break;
                    }
                }
                crate::disk_tree::KnnKind::Node(pid, _) => {
                    let bound = if best_k.len() == k {
                        let crate::disk_tree::OrdF64(b) = *best_k.peek().expect("k > 0");
                        b
                    } else {
                        f64::INFINITY
                    };
                    // Writer overlay shadows the shards, as in load_w.
                    let overlay = self
                        .writer
                        .as_ref()
                        .and_then(|w| w.overlay.read().get(&pid).cloned());
                    match overlay {
                        Some(frame) => node.decode_into_trusted(&frame)?,
                        None => {
                            let (frame, missed) = self.fetch(PageId(pid))?;
                            node.decode_into_trusted(&frame)?;
                            self.emit(qid, PageId(pid), node.level as i16, access_event(missed));
                        }
                    }
                    within.clear();
                    node.rects.min_dist2_within(p, bound, &mut within);
                    for &(i, d2) in &within {
                        if node.level == 0 {
                            queue.push(crate::disk_tree::KnnEntry {
                                dist2: d2,
                                kind: crate::disk_tree::KnnKind::Item {
                                    rect: node.rects.get(i as usize),
                                    id: node.ptrs[i as usize],
                                },
                            });
                            best_k.push(crate::disk_tree::OrdF64(d2));
                            if best_k.len() > k {
                                best_k.pop();
                            }
                        } else {
                            queue.push(crate::disk_tree::KnnEntry {
                                dist2: d2,
                                kind: crate::disk_tree::KnnKind::Node(
                                    node.ptrs[i as usize],
                                    node.level - 1,
                                ),
                            });
                        }
                    }
                }
            }
        }
        Ok(result)
    }

    /// Runs a batch of region queries sharded across `threads` worker
    /// threads (contiguous sub-batches; `0` means one per hardware
    /// thread). `results[i]` holds the ids matching `queries[i]`.
    ///
    /// Each worker traverses its sub-batch **level-synchronously with page
    /// dedup**: a page needed by k of its queries is fetched and decoded
    /// once, each level is visited in ascending page order (sequential
    /// under the bulk-loaded layout), and per-node filtering runs the
    /// [`rtree_geom::RectSoA`] kernel. The root peek is shared and
    /// uncharged, exactly as in [`ConcurrentDiskRTree::query`]. With
    /// `threads = 1` the traversal runs inline on the caller's thread.
    pub fn query_batch(&self, queries: &[Rect], threads: usize) -> io::Result<Vec<Vec<u64>>>
    where
        S: Sync,
    {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        if let Some(w) = &self.writer {
            // Writer mode: the bulk-load layout (and its level-synchronous
            // dedup walk) is gone; run each query under the latch protocol.
            return queries.iter().map(|q| self.query_writer(w, q)).collect();
        }
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        }
        .min(queries.len());

        // Shared uncharged root peek; workers reuse the decoded MBR.
        let (root_frame, fresh_peek) = self.root_frame()?;
        if fresh_peek {
            self.emit(
                0,
                PageId(self.meta.root),
                (self.meta.height - 1) as i16,
                EventKind::PeekRead,
            );
        }
        let root_node = NodeSoA::decode(&root_frame)?;
        let Some(root_mbr) = root_node.rects.mbr() else {
            return Ok(vec![Vec::new(); queries.len()]);
        };

        if threads == 1 {
            return self.batch_inner(queries, &root_mbr);
        }
        let chunk = queries.len().div_ceil(threads);
        let outputs: Vec<io::Result<Vec<Vec<u64>>>> = std::thread::scope(|scope| {
            let workers: Vec<_> = queries
                .chunks(chunk)
                .map(|slice| scope.spawn(move || self.batch_inner(slice, &root_mbr)))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("batch worker panicked"))
                .collect()
        });
        let mut results = Vec::with_capacity(queries.len());
        for out in outputs {
            results.extend(out?);
        }
        Ok(results)
    }

    /// One worker's level-synchronous deduplicated traversal over its
    /// contiguous slice of the batch.
    fn batch_inner(&self, queries: &[Rect], root_mbr: &Rect) -> io::Result<Vec<Vec<u64>>> {
        self.with_span(|span| self.batch_levels(queries, root_mbr, span))
    }

    fn batch_levels(
        &self,
        queries: &[Rect],
        root_mbr: &Rect,
        span: &mut QuerySpan,
    ) -> io::Result<Vec<Vec<u64>>> {
        let mut results = vec![Vec::new(); queries.len()];
        let active: Vec<u32> = (0..queries.len() as u32)
            .filter(|&q| root_mbr.intersects(&queries[q as usize]))
            .collect();
        if active.is_empty() {
            return Ok(results);
        }

        // Frontier: page -> ids of the sub-batch queries that need it. The
        // BTreeMap is both the dedup and the per-level PageId sort.
        let mut frontier: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        frontier.insert(self.meta.root, active);
        // Pages decode straight into SoA — on v3 images the coordinate
        // planes arrive contiguously, so the per-node gather loop the
        // batch path used to run is gone entirely.
        let mut node = NodeSoA::new();
        let mut matched: Vec<u32> = Vec::new();

        while !frontier.is_empty() {
            for (pid, qids) in std::mem::take(&mut frontier) {
                let (frame, missed) = self.fetch(PageId(pid))?;
                span.accesses += 1;
                if missed {
                    span.reads += 1;
                }
                self.emit(
                    span.qid,
                    PageId(pid),
                    self.meta.onpage_level_of(pid),
                    access_event(missed),
                );
                node.decode_into_trusted(&frame)?;
                for qid in qids {
                    matched.clear();
                    node.rects
                        .intersecting(&queries[qid as usize], &mut matched);
                    for &e in &matched {
                        let ptr = node.ptrs[e as usize];
                        if node.level == 0 {
                            results[qid as usize].push(ptr);
                        } else {
                            frontier.entry(ptr).or_default().push(qid);
                        }
                    }
                }
            }
        }
        Ok(results)
    }
}

/// Flattens a rectangle into the WAL's logical-record payload layout.
fn rect_key(r: &Rect) -> [f64; 4] {
    [r.lo.x, r.lo.y, r.hi.x, r.hi.y]
}

/// Outcome of one optimistic (latched fast-path) delete attempt.
enum FastDelete {
    /// Entry found and removed; carries the LSN awaiting group commit.
    Deleted(Lsn),
    /// The entry is provably absent (every candidate leaf was scanned
    /// while shared-latched, so nothing could slip past the traversal).
    Absent,
    /// Lost the latch-trade race or the leaf would underflow: retry, then
    /// escalate to the exclusive path.
    Contended,
}

impl<S: SharedPageStore> ConcurrentDiskRTree<S> {
    /// True when the tree was opened through a writable constructor.
    pub fn is_writable(&self) -> bool {
        self.writer.is_some()
    }

    /// The underlying page store (chaos and recovery tests snapshot it;
    /// remember that dirty writer pages live in the overlay, not here,
    /// until a checkpoint).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Live item count: the writer's metadata when writable (updated by
    /// every insert/delete), the open-time snapshot otherwise.
    pub fn live_items(&self) -> u64 {
        self.writer
            .as_ref()
            .map_or(self.meta.items, |w| w.meta.lock().items)
    }

    /// Group-commit counters of the attached WAL (writable trees only).
    pub fn group_commit_stats(&self) -> Option<GroupCommitStats> {
        self.writer.as_ref().map(|w| w.wal.stats())
    }

    /// Latch acquisitions that had to block (contention signal).
    pub fn latch_waits(&self) -> u64 {
        self.writer
            .as_ref()
            .map_or(0, |w| w.latch_waits.load(Ordering::Relaxed))
    }

    /// Applied logical operations: inserts plus deletes that found their
    /// entry.
    pub fn logical_writes(&self) -> u64 {
        self.writer
            .as_ref()
            .map_or(0, |w| w.logical_writes.load(Ordering::Relaxed))
    }

    /// Acquires a latch into `set`, counting (and tracing) blocked
    /// acquisitions.
    fn latch_acquire(&self, w: &WriterState, set: &mut LatchSet<'_>, id: u64, exclusive: bool) {
        if set.acquire(id, exclusive) {
            w.latch_waits.fetch_add(1, Ordering::Relaxed);
            self.emit(0, PageId(id), -1, EventKind::LatchWait);
        }
    }

    /// Loads a node in writer mode: the dirty overlay shadows both the
    /// shard pools and the store (no-steal — the store never holds a page
    /// newer than the overlay).
    fn load_w(&self, w: &WriterState, id: u64) -> io::Result<NodePage> {
        if let Some(frame) = w.overlay.read().get(&id) {
            return Ok(NodePage::decode(frame)?);
        }
        let (frame, missed) = self.fetch(PageId(id))?;
        // Buffer traffic from the write path shows up in the trace stream
        // like any query's, so the miss ledger stays reconcilable with the
        // physical-read counters even on a read-write server.
        self.emit(0, PageId(id), -1, access_event(missed));
        Ok(NodePage::decode(&frame)?)
    }

    /// Region query under the reader latch protocol: breadth-first
    /// shared-latch *coupling* — every relevant child of a level is
    /// latched before the level above is released — so a concurrent split
    /// can never move an entry past the traversal. Depth-first coupling
    /// would re-acquire upward while backtracking and deadlock; BFS keeps
    /// every wait edge pointing down the tree.
    fn query_writer(&self, w: &WriterState, query: &Rect) -> io::Result<Vec<u64>> {
        let _gate = w.op_gate.read();
        let mut set = LatchSet::new(&w.latches);
        self.latch_acquire(w, &mut set, META_LATCH, false);
        let root = w.meta.lock().root;
        self.latch_acquire(w, &mut set, root, false);
        set.release_all_but_last(1);
        let mut results = Vec::new();
        let mut frontier = vec![root];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &pid in &frontier {
                let node = self.load_w(w, pid)?;
                for (r, ptr) in &node.entries {
                    if r.intersects(query) {
                        if node.level == 0 {
                            results.push(*ptr);
                        } else {
                            next.push(*ptr);
                        }
                    }
                }
            }
            for &pid in &next {
                self.latch_acquire(w, &mut set, pid, false);
            }
            set.release_all_but_last(next.len());
            frontier = next;
        }
        Ok(results)
    }
}

impl<S: ConcurrentPageStore> ConcurrentDiskRTree<S> {
    /// Creates an empty writable tree: a meta page, an empty root leaf,
    /// and an attached group-commit WAL. Writes go through per-page latch
    /// crabbing; dirty pages stay in a private overlay until
    /// [`ConcurrentDiskRTree::checkpoint`] (no-steal), so recovery is
    /// logical redo of committed WAL records over the last checkpoint
    /// image (see [`crate::replay_committed`]).
    ///
    /// # Panics
    /// Panics if the capacities are out of range (Guttman's
    /// `1 <= m <= M/2`).
    pub fn create_writable(
        store: S,
        max_entries: usize,
        min_entries: usize,
        buffer_capacity: usize,
        policy: impl ReplacementPolicy + 'static,
        wal: GroupWal,
    ) -> io::Result<Self> {
        assert!(
            (2..=MAX_ENTRIES_PER_PAGE).contains(&max_entries),
            "node capacity {max_entries} out of range 2..={MAX_ENTRIES_PER_PAGE}"
        );
        assert!(
            min_entries >= 1 && 2 * min_entries <= max_entries,
            "min fill {min_entries} must satisfy 1 <= m <= M/2"
        );
        let meta_page = store.allocate_shared()?;
        debug_assert_eq!(meta_page, PageId(0));
        let meta = PageMeta {
            root: 1,
            height: 1,
            max_entries: max_entries as u32,
            min_entries: min_entries as u32,
            items: 0,
            nodes: 1,
            free_head: 0,
            // In-place updates invalidate the bulk-load layout immediately.
            level_starts: Vec::new(),
            internal_max_entries: max_entries as u32,
            compressed: false,
        };
        let mut buf = vec![0u8; PAGE_SIZE];
        meta.encode(&mut buf);
        store.write_page_shared(meta_page, &buf)?;
        let root = store.allocate_shared()?;
        NodePage {
            level: 0,
            entries: Vec::new(),
        }
        .encode(&mut buf);
        store.write_page_shared(root, &buf)?;
        let mut policy = Some(Box::new(policy) as Box<dyn ReplacementPolicy>);
        let mut tree = Self::assemble(store, meta.clone(), buffer_capacity, 1, move || {
            policy.take().expect("single shard uses the policy once")
        });
        tree.writer = Some(WriterState::new(meta, wal));
        Ok(tree)
    }

    /// Opens a previously checkpointed tree for writing. The caller is
    /// responsible for replaying any committed WAL records that postdate
    /// the image (see [`crate::replay_committed`]).
    pub fn open_writable(
        mut store: S,
        buffer_capacity: usize,
        policy: impl ReplacementPolicy + 'static,
        wal: GroupWal,
    ) -> io::Result<Self> {
        let meta = Self::read_meta(&mut store)?;
        let mut live = meta.clone();
        live.level_starts.clear();
        let mut policy = Some(Box::new(policy) as Box<dyn ReplacementPolicy>);
        let mut tree = Self::assemble(store, meta, buffer_capacity, 1, move || {
            policy.take().expect("single shard uses the policy once")
        });
        tree.writer = Some(WriterState::new(live, wal));
        Ok(tree)
    }

    /// The writer state, or `PermissionDenied` on a read-only tree.
    fn writer_state(&self) -> io::Result<&WriterState> {
        self.writer.as_ref().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::PermissionDenied,
                "tree was opened read-only; use a writable constructor",
            )
        })
    }

    /// Encodes a node into the dirty overlay (never straight to the
    /// store: no-steal).
    fn store_w(&self, w: &WriterState, id: u64, node: &NodePage) {
        let mut buf = vec![0u8; PAGE_SIZE];
        node.encode_with(&mut buf, w.layout(node.level));
        w.overlay
            .write()
            .insert(id, Arc::from(buf.into_boxed_slice()));
    }

    /// Allocates a page: the session free list first, then the store.
    fn alloc_w(&self, w: &WriterState) -> io::Result<u64> {
        if let Some(id) = w.free.lock().pop() {
            return Ok(id);
        }
        Ok(self.store.allocate_shared()?.0)
    }

    /// Returns a dissolved page to the session free list. Only the
    /// exclusive delete path frees pages, so latched operations never
    /// race a page recycling.
    fn free_w(&self, w: &WriterState, id: u64) {
        w.overlay.write().remove(&id);
        w.free.lock().push(id);
    }

    /// Makes `lsn` durable through the group-commit protocol; when this
    /// thread led the batch, a flush event carries the batch size.
    fn group_commit(&self, w: &WriterState, lsn: Lsn) -> io::Result<()> {
        let before = w.wal.stats().committed_ops;
        if w.wal.commit(lsn)? {
            let batch = w.wal.stats().committed_ops.saturating_sub(before);
            self.emit(0, PageId(batch), -1, EventKind::GroupCommitFlush);
        }
        Ok(())
    }

    /// Inserts an item. Thread-safe: the structure change runs under
    /// latch crabbing, durability under group commit (the WAL record is
    /// appended before the change and fsynced — possibly by another
    /// thread's batch leader — after it).
    pub fn insert(&self, rect: &Rect, item: u64) -> io::Result<()> {
        debug_assert!(rect.is_valid(), "inserting an invalid rectangle");
        let w = self.writer_state()?;
        let gate = w.op_gate.read();
        let lsn = w.wal.log_insert(rect_key(rect), item)?;
        self.insert_latched(w, rect, item)?;
        w.logical_writes.fetch_add(1, Ordering::Relaxed);
        drop(gate);
        self.group_commit(w, lsn)
    }

    /// Latch-crabbing insert descent. Exclusive latches crab down one
    /// root-to-leaf path: the moment a just-latched child proves
    /// *split-safe* (non-full — an insert below it cannot propagate a
    /// split into its ancestors), every ancestor latch is released.
    /// Parent slot rectangles are pre-grown on the way down, so no upward
    /// MBR pass is needed; if a split does occur it propagates only
    /// through pages whose latches the descent retained.
    fn insert_latched(&self, w: &WriterState, rect: &Rect, item: u64) -> io::Result<()> {
        let mut set = LatchSet::new(&w.latches);
        self.latch_acquire(w, &mut set, META_LATCH, true);
        let mut cur = w.meta.lock().root;
        self.latch_acquire(w, &mut set, cur, true);
        let mut node = self.load_w(w, cur)?;
        // Ancestors still latched because a split could reach them, as
        // `(page, child slot)` pairs. Empty at the leaf means the whole
        // retained prefix is the meta latch (root split pending).
        let mut path: Vec<(u64, usize)> = Vec::new();
        if node.entries.len() < w.cap(node.level) {
            // The root cannot split, so the root id cannot change: the
            // meta latch is not needed past this point.
            set.release_all_but_last(1);
        }
        while node.level > 0 {
            let slot = choose_subtree(&node.entries, rect);
            let grown = node.entries[slot].0.union(rect);
            if grown != node.entries[slot].0 {
                node.entries[slot].0 = grown;
                self.store_w(w, cur, &node);
            }
            let child = node.entries[slot].1;
            self.latch_acquire(w, &mut set, child, true);
            let child_node = self.load_w(w, child)?;
            if child_node.entries.len() < w.cap(child_node.level) {
                set.release_all_but_last(1);
                path.clear();
            } else {
                path.push((cur, slot));
            }
            cur = child;
            node = child_node;
        }
        node.entries.push((*rect, item));
        if node.entries.len() <= w.cap(node.level) {
            self.store_w(w, cur, &node);
        } else {
            self.split_latched(w, &mut path, cur, node)?;
        }
        w.meta.lock().items += 1;
        Ok(())
    }

    /// Splits an overfull node and propagates upward strictly through
    /// pages whose exclusive latches the descent retained (`path`). An
    /// exhausted path means the overfull node is the root: the meta latch
    /// is still held, and the tree grows one level.
    fn split_latched(
        &self,
        w: &WriterState,
        path: &mut Vec<(u64, usize)>,
        page: u64,
        node: NodePage,
    ) -> io::Result<()> {
        let mut child_id = page;
        let mut level = node.level;
        let mut entries = node.entries;
        loop {
            let (a, b) = quadratic_split(entries, w.min_entries);
            let a_mbr = mbr(&a);
            let b_mbr = mbr(&b);
            self.store_w(w, child_id, &NodePage { level, entries: a });
            let sib = self.alloc_w(w)?;
            self.store_w(w, sib, &NodePage { level, entries: b });
            w.meta.lock().nodes += 1;
            match path.pop() {
                Some((parent_id, slot)) => {
                    let mut parent = self.load_w(w, parent_id)?;
                    debug_assert_eq!(parent.entries[slot].1, child_id);
                    parent.entries[slot] = (a_mbr, child_id);
                    parent.entries.push((b_mbr, sib));
                    if parent.entries.len() <= w.cap(parent.level) {
                        self.store_w(w, parent_id, &parent);
                        return Ok(());
                    }
                    child_id = parent_id;
                    level = parent.level;
                    entries = parent.entries;
                }
                None => {
                    let new_root = self.alloc_w(w)?;
                    self.store_w(
                        w,
                        new_root,
                        &NodePage {
                            level: level + 1,
                            entries: vec![(a_mbr, child_id), (b_mbr, sib)],
                        },
                    );
                    let mut m = w.meta.lock();
                    m.root = new_root;
                    m.height += 1;
                    m.nodes += 1;
                    return Ok(());
                }
            }
        }
    }

    /// Deletes one `(rect, item)` entry; returns whether it was found.
    ///
    /// Fast path: a shared-latch BFS locates the leaf, then an exclusive
    /// leaf latch removes the entry in place — valid only while the leaf
    /// stays at or above minimum fill, because that path frees no page
    /// and tightens no ancestor rectangle (loose MBRs are correct, merely
    /// less selective). Underflow — or losing the shared→exclusive
    /// latch trade to a concurrent split — escalates to a full retry
    /// under the exclusive side of the operation gate, where Guttman's
    /// CondenseTree runs exactly as on the sequential tree.
    pub fn delete(&self, rect: &Rect, item: u64) -> io::Result<bool> {
        let w = self.writer_state()?;
        for _ in 0..3 {
            let gate = w.op_gate.read();
            let outcome = self.delete_fast(w, rect, item)?;
            drop(gate);
            match outcome {
                FastDelete::Deleted(lsn) => {
                    self.group_commit(w, lsn)?;
                    return Ok(true);
                }
                FastDelete::Absent => return Ok(false),
                FastDelete::Contended => {}
            }
        }
        self.delete_exclusive(w, rect, item)
    }

    /// One optimistic delete attempt (see [`ConcurrentDiskRTree::delete`]).
    fn delete_fast(&self, w: &WriterState, rect: &Rect, item: u64) -> io::Result<FastDelete> {
        let mut set = LatchSet::new(&w.latches);
        self.latch_acquire(w, &mut set, META_LATCH, false);
        let root = w.meta.lock().root;
        self.latch_acquire(w, &mut set, root, false);
        set.release_all_but_last(1);
        let mut frontier = vec![root];
        let leaf = loop {
            let mut next = Vec::new();
            let mut found = None;
            let mut at_leaves = false;
            for &pid in &frontier {
                let node = self.load_w(w, pid)?;
                if node.level == 0 {
                    at_leaves = true;
                    if node.entries.iter().any(|(r, p)| *p == item && r == rect) {
                        found = Some(pid);
                        break;
                    }
                } else {
                    for (r, ptr) in &node.entries {
                        if r.contains_rect(rect) {
                            next.push(*ptr);
                        }
                    }
                }
            }
            if at_leaves {
                match found {
                    Some(pid) => break pid,
                    None => return Ok(FastDelete::Absent),
                }
            }
            if next.is_empty() {
                return Ok(FastDelete::Absent);
            }
            for &pid in &next {
                self.latch_acquire(w, &mut set, pid, false);
            }
            set.release_all_but_last(next.len());
            frontier = next;
        };
        // No shared→exclusive upgrade exists (two upgraders would
        // deadlock): drop every shared latch, re-latch the leaf
        // exclusively, and re-verify. The page cannot have been freed in
        // the gap — frees need the exclusive gate, and we hold its read
        // side — but a concurrent split may have moved the entry.
        drop(set);
        let mut xset = LatchSet::new(&w.latches);
        self.latch_acquire(w, &mut xset, leaf, true);
        let mut node = self.load_w(w, leaf)?;
        let pos = if node.level == 0 {
            node.entries
                .iter()
                .position(|(r, p)| *p == item && r == rect)
        } else {
            None
        };
        let Some(pos) = pos else {
            return Ok(FastDelete::Contended);
        };
        // A root leaf may legally underflow; anything else escalates.
        let is_root = w.meta.lock().root == leaf;
        if node.entries.len() <= w.min_entries && !is_root {
            return Ok(FastDelete::Contended);
        }
        // Logged only now, with the entry verified present under the
        // exclusive latch: a delete record in the WAL always replays.
        let lsn = w.wal.log_delete(rect_key(rect), item)?;
        node.entries.remove(pos);
        self.store_w(w, leaf, &node);
        w.meta.lock().items -= 1;
        w.logical_writes.fetch_add(1, Ordering::Relaxed);
        Ok(FastDelete::Deleted(lsn))
    }

    /// Exclusive-path delete: quiesces every other operation through the
    /// write side of the operation gate, then runs FindLeaf/CondenseTree
    /// exactly as the sequential tree does — dissolving underfull nodes,
    /// reinserting orphans at their original level, shrinking the root.
    /// Holding the gate for the whole operation keeps orphaned entries
    /// invisible to nobody: no reader or writer can observe the window
    /// where they are detached from the tree.
    fn delete_exclusive(&self, w: &WriterState, rect: &Rect, item: u64) -> io::Result<bool> {
        let gate = w.op_gate.write();
        let root = w.meta.lock().root;
        let mut path = Vec::new();
        let Some(leaf_id) = self.find_leaf_x(w, root, rect, item, &mut path)? else {
            return Ok(false);
        };
        let mut cur = self.load_w(w, leaf_id)?;
        let pos = cur
            .entries
            .iter()
            .position(|(r, p)| *p == item && r == rect)
            .expect("find_leaf_x verified the entry");
        let lsn = w.wal.log_delete(rect_key(rect), item)?;
        cur.entries.remove(pos);

        let mut orphans: Vec<(u16, Vec<(Rect, u64)>)> = Vec::new();
        let mut cur_id = leaf_id;
        while let Some((parent_id, slot)) = path.pop() {
            let mut parent = self.load_w(w, parent_id)?;
            debug_assert_eq!(parent.entries[slot].1, cur_id);
            if cur.entries.len() < w.min_entries {
                orphans.push((cur.level, std::mem::take(&mut cur.entries)));
                self.free_w(w, cur_id);
                w.meta.lock().nodes -= 1;
                parent.entries.remove(slot);
            } else {
                self.store_w(w, cur_id, &cur);
                parent.entries[slot].0 = mbr(&cur.entries);
            }
            cur_id = parent_id;
            cur = parent;
        }
        // `cur` is the root; it may legally underflow (or empty out when
        // it is a leaf).
        self.store_w(w, cur_id, &cur);

        // Reinsert orphans highest level first, so subtrees land before
        // entries that would go under them.
        orphans.sort_by_key(|o| std::cmp::Reverse(o.0));
        for (level, entries) in orphans {
            for entry in entries {
                self.insert_entry_exclusive(w, entry, level)?;
            }
        }

        // ShrinkTree: while the root is internal with a single child, the
        // child becomes the root.
        loop {
            let root_id = w.meta.lock().root;
            let root = self.load_w(w, root_id)?;
            if root.level > 0 && root.entries.len() == 1 {
                {
                    let mut m = w.meta.lock();
                    m.root = root.entries[0].1;
                    m.height -= 1;
                    m.nodes -= 1;
                }
                self.free_w(w, root_id);
            } else {
                break;
            }
        }

        w.meta.lock().items -= 1;
        w.logical_writes.fetch_add(1, Ordering::Relaxed);
        drop(gate);
        self.group_commit(w, lsn)?;
        Ok(true)
    }

    /// Finds the leaf holding the exact `(rect, item)` entry, filling
    /// `path` with `(page, slot)` pairs from the root down. Exclusive
    /// gate held by the caller: no latches.
    fn find_leaf_x(
        &self,
        w: &WriterState,
        pid: u64,
        rect: &Rect,
        item: u64,
        path: &mut Vec<(u64, usize)>,
    ) -> io::Result<Option<u64>> {
        let node = self.load_w(w, pid)?;
        if node.level == 0 {
            if node.entries.iter().any(|(r, p)| *p == item && r == rect) {
                return Ok(Some(pid));
            }
            return Ok(None);
        }
        for (slot, (r, child)) in node.entries.iter().enumerate() {
            if r.contains_rect(rect) {
                path.push((pid, slot));
                if let Some(leaf) = self.find_leaf_x(w, *child, rect, item, path)? {
                    return Ok(Some(leaf));
                }
                path.pop();
            }
        }
        Ok(None)
    }

    /// Orphan reinsertion under the exclusive gate: AdjustTree at an
    /// arbitrary target level, latch-free (the gate already excludes
    /// every other operation — calling the public `insert` here would
    /// deadlock on the gate's read side).
    fn insert_entry_exclusive(
        &self,
        w: &WriterState,
        entry: (Rect, u64),
        target_level: u16,
    ) -> io::Result<()> {
        let mut path: Vec<(u64, usize)> = Vec::new();
        let mut cur_id = w.meta.lock().root;
        let mut node = self.load_w(w, cur_id)?;
        while node.level > target_level {
            let slot = choose_subtree(&node.entries, &entry.0);
            path.push((cur_id, slot));
            cur_id = node.entries[slot].1;
            node = self.load_w(w, cur_id)?;
        }
        debug_assert_eq!(node.level, target_level, "target level must exist");
        node.entries.push(entry);

        let mut level = node.level;
        let mut split: Option<(Rect, u64)> = None;
        let mut child_mbr;
        if node.entries.len() > w.cap(node.level) {
            let (a, b) = quadratic_split(std::mem::take(&mut node.entries), w.min_entries);
            child_mbr = mbr(&a);
            node.entries = a;
            self.store_w(w, cur_id, &node);
            split = Some(self.store_sibling_w(w, level, b)?);
        } else {
            child_mbr = mbr(&node.entries);
            self.store_w(w, cur_id, &node);
        }
        let mut child_id = cur_id;

        while let Some((pid, slot)) = path.pop() {
            let mut parent = self.load_w(w, pid)?;
            debug_assert_eq!(parent.entries[slot].1, child_id);
            parent.entries[slot].0 = child_mbr;
            if let Some(s) = split.take() {
                parent.entries.push(s);
            }
            level = parent.level;
            if parent.entries.len() > w.cap(parent.level) {
                let (a, b) = quadratic_split(std::mem::take(&mut parent.entries), w.min_entries);
                child_mbr = mbr(&a);
                parent.entries = a;
                self.store_w(w, pid, &parent);
                split = Some(self.store_sibling_w(w, level, b)?);
            } else {
                child_mbr = mbr(&parent.entries);
                self.store_w(w, pid, &parent);
            }
            child_id = pid;
        }

        if let Some(sibling) = split {
            let new_root_id = self.alloc_w(w)?;
            self.store_w(
                w,
                new_root_id,
                &NodePage {
                    level: level + 1,
                    entries: vec![(child_mbr, child_id), sibling],
                },
            );
            let mut m = w.meta.lock();
            m.root = new_root_id;
            m.height += 1;
            m.nodes += 1;
        }
        Ok(())
    }

    /// Writes a freshly split-off sibling node and returns its parent
    /// entry (exclusive-gate path only).
    fn store_sibling_w(
        &self,
        w: &WriterState,
        level: u16,
        entries: Vec<(Rect, u64)>,
    ) -> io::Result<(Rect, u64)> {
        let rect = mbr(&entries);
        let id = self.alloc_w(w)?;
        self.store_w(w, id, &NodePage { level, entries });
        w.meta.lock().nodes += 1;
        Ok((rect, id))
    }

    /// Flushes every dirty page and the metadata to the store, fsyncs,
    /// checkpoints (and truncates) the WAL, and clears the overlay —
    /// under the exclusive gate, so the image is an exact snapshot of all
    /// committed operations. Resident shard frames are refreshed in
    /// place so read caching stays coherent after the overlay empties.
    ///
    /// A crash *during* the page flush can tear the image; recovering
    /// from that needs the physical WAL ([`crate::recover`]) and is out
    /// of scope for the logical writer — the WAL is truncated only after
    /// a successful flush, so a crash before the truncate replays the
    /// full window over the previous image instead.
    pub fn checkpoint(&self) -> io::Result<()> {
        let w = self.writer_state()?;
        let _gate = w.op_gate.write();
        let overlay: Vec<(u64, Arc<[u8]>)> = w
            .overlay
            .read()
            .iter()
            .map(|(id, f)| (*id, Arc::clone(f)))
            .collect();
        for (id, frame) in &overlay {
            self.store.write_page_shared(PageId(*id), frame)?;
            w.page_writes.fetch_add(1, Ordering::Relaxed);
            self.emit(0, PageId(*id), -1, EventKind::WriteBack);
            let shard = self.shard(PageId(*id));
            let mut s = shard.state.lock();
            if s.pool.contains(PageId(*id)) {
                s.frames.insert(PageId(*id), Arc::clone(frame));
            }
        }
        let mut meta = w.meta.lock().clone();
        // The session free list is not persisted: pages freed since the
        // last checkpoint leak on reopen (documented trade — the on-disk
        // free list stays out of the latch protocol).
        meta.free_head = 0;
        meta.level_starts = Vec::new();
        let mut buf = vec![0u8; PAGE_SIZE];
        meta.encode(&mut buf);
        self.store.write_page_shared(PageId(0), &buf)?;
        w.page_writes.fetch_add(1, Ordering::Relaxed);
        self.emit(0, PageId(0), -1, EventKind::WriteBack);
        self.store.flush_shared()?;
        w.wal.checkpoint()?;
        w.overlay.write().clear();
        Ok(())
    }
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
                Rect::new(x, y, x + 0.01, y + 0.01)
            })
            .collect()
    }

    #[test]
    fn single_thread_matches_in_memory() {
        let rects = sample_rects(800);
        let tree = BulkLoader::hilbert(16).load(&rects);
        let disk =
            ConcurrentDiskRTree::create(MemStore::new(), &tree, 64, LruPolicy::new()).unwrap();
        for q in [
            Rect::new(0.1, 0.1, 0.4, 0.3),
            Rect::point(Point::new(0.5, 0.5)),
            Rect::new(0.0, 0.0, 1.0, 1.0),
        ] {
            let mut a = disk.query(&q).unwrap();
            let mut b = tree.search(&q);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn concurrent_queries_are_correct_and_counted() {
        let rects = sample_rects(2_000);
        let tree = BulkLoader::hilbert(20).load(&rects);
        let disk = Arc::new(
            ConcurrentDiskRTree::create(MemStore::new(), &tree, 50, LruPolicy::new()).unwrap(),
        );

        let queries: Vec<Rect> = (0..64)
            .map(|i| {
                let x = (i as f64 * 0.37) % 0.8;
                let y = (i as f64 * 0.59) % 0.8;
                Rect::new(x, y, x + 0.1, y + 0.1)
            })
            .collect();
        let expected: Vec<Vec<u64>> = queries
            .iter()
            .map(|q| {
                let mut v = tree.search(q);
                v.sort_unstable();
                v
            })
            .collect();

        std::thread::scope(|scope| {
            for t in 0..4 {
                let disk = Arc::clone(&disk);
                let queries = &queries;
                let expected = &expected;
                scope.spawn(move || {
                    for (q, want) in queries.iter().zip(expected).skip(t).step_by(4) {
                        let mut got = disk.query(q).unwrap();
                        got.sort_unstable();
                        assert_eq!(&got, want);
                    }
                });
            }
        });
        assert!(disk.physical_reads() > 0);
    }

    #[test]
    fn query_batch_matches_sequential_across_thread_counts() {
        let rects = sample_rects(2_000);
        let tree = BulkLoader::hilbert(16).load(&rects);
        let queries: Vec<Rect> = (0..48)
            .map(|i| {
                let x = (i as f64 * 0.37) % 0.8;
                let y = (i as f64 * 0.59) % 0.8;
                Rect::new(x, y, x + 0.1, y + 0.1)
            })
            .collect();
        let expected: Vec<Vec<u64>> = queries
            .iter()
            .map(|q| {
                let mut v = tree.search(q);
                v.sort_unstable();
                v
            })
            .collect();

        for threads in [1, 3, 4, 64, 0] {
            let disk =
                ConcurrentDiskRTree::create_sharded(MemStore::new(), &tree, 48, 4, LruPolicy::new)
                    .unwrap();
            let got = disk.query_batch(&queries, threads).unwrap();
            assert_eq!(got.len(), queries.len());
            for (i, mut g) in got.into_iter().enumerate() {
                g.sort_unstable();
                assert_eq!(g, expected[i], "threads {threads}, query {i}");
            }
            assert!(disk.physical_reads() > 0);
        }
    }

    #[test]
    fn query_batch_single_thread_dedups_shared_pages() {
        let rects = sample_rects(2_000);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let queries: Vec<Rect> = (0..32)
            .map(|i| {
                let x = (i as f64 * 0.11) % 0.5;
                Rect::new(x, x, x + 0.2, x + 0.2)
            })
            .collect();

        // Cold batch with a tiny buffer: dedup, not cache capacity, must
        // bound the reads at the distinct-page count.
        let batch =
            ConcurrentDiskRTree::create(MemStore::new(), &tree, 4, LruPolicy::new()).unwrap();
        batch.query_batch(&queries, 1).unwrap();
        let batch_reads = batch.physical_reads();

        // Equally cold sequential run reads every distinct page at least
        // once, plus whatever the small buffer forces it to re-read.
        let seq = ConcurrentDiskRTree::create(MemStore::new(), &tree, 4, LruPolicy::new()).unwrap();
        for q in &queries {
            seq.query(q).unwrap();
        }
        assert!(
            batch_reads <= seq.physical_reads(),
            "batch {} vs sequential {}",
            batch_reads,
            seq.physical_reads()
        );

        let stats = batch.buffer_stats();
        assert_eq!(stats.hits + stats.misses, stats.accesses);
    }

    #[test]
    fn query_batch_empty_and_miss_batches() {
        let rects = sample_rects(300);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let disk =
            ConcurrentDiskRTree::create(MemStore::new(), &tree, 16, LruPolicy::new()).unwrap();
        assert!(disk.query_batch(&[], 4).unwrap().is_empty());
        let far = vec![Rect::new(2.0, 2.0, 3.0, 3.0); 5];
        let out = disk.query_batch(&far, 2).unwrap();
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(Vec::is_empty));
        // Root-MBR filtering: nothing was charged to the pool.
        assert_eq!(disk.physical_reads(), 0);
    }

    #[test]
    fn pinning_works_shared() {
        let rects = sample_rects(1_500);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let disk =
            ConcurrentDiskRTree::create(MemStore::new(), &tree, 40, LruPolicy::new()).unwrap();
        disk.pin_top_levels(2).unwrap();
        disk.reset_counters();
        disk.query(&Rect::point(Point::new(0.3, 0.3))).unwrap();
        // Only unpinned levels can cost reads.
        assert!(disk.physical_reads() <= u64::from(disk.meta().height));
    }

    #[test]
    fn open_round_trip() {
        let rects = sample_rects(400);
        let tree = BulkLoader::nearest_x(10).load(&rects);
        let mut store = MemStore::new();
        {
            let d = ConcurrentDiskRTree::create(&mut store, &tree, 8, LruPolicy::new()).unwrap();
            assert_eq!(d.meta().items, 400);
        }
        let d = ConcurrentDiskRTree::open(&mut store, 8, LruPolicy::new()).unwrap();
        assert_eq!(d.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap().len(), 400);
    }

    #[test]
    fn shared_counts_match_sequential_counts() {
        // With one thread, the concurrent wrapper must count exactly like
        // the plain DiskRTree (same LRU decisions).
        let rects = sample_rects(1_200);
        let tree = BulkLoader::hilbert(12).load(&rects);
        let concurrent =
            ConcurrentDiskRTree::create(MemStore::new(), &tree, 25, LruPolicy::new()).unwrap();
        let mut plain =
            crate::DiskRTree::create(MemStore::new(), &tree, 25, LruPolicy::new()).unwrap();
        for i in 0..300 {
            let x = (i as f64 * 0.217) % 0.9;
            let y = (i as f64 * 0.431) % 0.9;
            let q = Rect::new(x, y, x + 0.05, y + 0.05);
            concurrent.query(&q).unwrap();
            plain.query(&q).unwrap();
        }
        assert_eq!(concurrent.physical_reads(), plain.physical_reads());
    }

    #[test]
    fn shard_resolution_rules() {
        // Explicit counts round up to a power of two…
        assert_eq!(resolve_shards(3, 1024), 4);
        assert_eq!(resolve_shards(8, 1024), 8);
        // …but never exceed the capacity (every shard needs a frame).
        assert_eq!(resolve_shards(8, 5), 4);
        assert_eq!(resolve_shards(16, 1), 1);
        // 0 = auto: one per hardware thread, still a power of two.
        let auto = resolve_shards(0, 1 << 20);
        assert!(auto.is_power_of_two() && auto >= 1);
    }

    #[test]
    fn sharded_queries_match_in_memory() {
        let rects = sample_rects(2_000);
        let tree = BulkLoader::hilbert(16).load(&rects);
        let disk = Arc::new(
            ConcurrentDiskRTree::create_sharded(MemStore::new(), &tree, 48, 4, LruPolicy::new)
                .unwrap(),
        );
        assert_eq!(disk.shard_count(), 4);

        let queries: Vec<Rect> = (0..96)
            .map(|i| {
                let x = (i as f64 * 0.41) % 0.85;
                let y = (i as f64 * 0.23) % 0.85;
                Rect::new(x, y, x + 0.08, y + 0.08)
            })
            .collect();
        let expected: Vec<Vec<u64>> = queries
            .iter()
            .map(|q| {
                let mut v = tree.search(q);
                v.sort_unstable();
                v
            })
            .collect();

        std::thread::scope(|scope| {
            for t in 0..8 {
                let disk = Arc::clone(&disk);
                let queries = &queries;
                let expected = &expected;
                scope.spawn(move || {
                    for (q, want) in queries.iter().zip(expected).skip(t).step_by(8) {
                        let mut got = disk.query(q).unwrap();
                        got.sort_unstable();
                        assert_eq!(&got, want);
                    }
                });
            }
        });
        let stats = disk.buffer_stats();
        assert!(stats.accesses > 0);
        assert_eq!(stats.hits + stats.misses, stats.accesses);
        assert!(disk.physical_reads() > 0);
        assert_eq!(disk.io_stats().writes, 0);
    }

    #[test]
    fn sharded_capacity_is_split_proportionally() {
        let rects = sample_rects(1_000);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let disk =
            ConcurrentDiskRTree::create_sharded(MemStore::new(), &tree, 10, 4, LruPolicy::new)
                .unwrap();
        let caps: Vec<usize> = disk
            .shards
            .iter()
            .map(|s| s.state.lock().pool.capacity())
            .collect();
        assert_eq!(caps, vec![3, 3, 2, 2]);
    }

    #[test]
    fn root_peek_is_cached_and_counted() {
        let rects = sample_rects(600);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let disk =
            ConcurrentDiskRTree::create(MemStore::new(), &tree, 8, LruPolicy::new()).unwrap();
        // A query outside every MBR touches only the root peek.
        let far = Rect::new(0.995, 0.995, 1.0, 1.0);
        for _ in 0..5 {
            assert!(disk.query(&far).unwrap().is_empty());
        }
        let io = disk.io_stats();
        assert_eq!(io.reads, 0, "root miss must not charge the buffer");
        assert_eq!(io.peek_reads, 1, "peek is read once, then cached");
        assert_eq!(io.total(), 1, "the physical transfer is not dropped");
    }

    #[test]
    fn pin_out_of_range_is_an_error_not_a_panic() {
        let rects = sample_rects(300);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let disk =
            ConcurrentDiskRTree::create(MemStore::new(), &tree, 16, LruPolicy::new()).unwrap();
        let levels = disk.meta().level_starts.len();
        let err = disk.pin_top_levels(levels + 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // The valid range still works afterwards.
        disk.pin_top_levels(1).unwrap();
    }

    #[test]
    fn sharded_pinning_distributes_and_exempts() {
        let rects = sample_rects(2_500);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let disk = Arc::new(
            ConcurrentDiskRTree::create_sharded(MemStore::new(), &tree, 64, 4, LruPolicy::new)
                .unwrap(),
        );
        disk.pin_top_levels(2).unwrap();
        let pinned: usize = disk
            .shards
            .iter()
            .map(|s| s.state.lock().pool.pinned_count())
            .sum();
        let expect = (disk.meta().level_starts[2] - 1) as usize;
        assert_eq!(pinned, expect, "every top-level page pinned exactly once");
        assert!(
            disk.shards
                .iter()
                .filter(|s| s.state.lock().pool.pinned_count() > 0)
                .count()
                > 1,
            "pinned pages should spread across shards"
        );
        disk.reset_counters();
        disk.query(&Rect::point(Point::new(0.4, 0.4))).unwrap();
        assert!(disk.physical_reads() <= u64::from(disk.meta().height));
    }

    /// Many threads query while another thread pins the top levels — the
    /// latch protocol must keep results correct and the pool consistent.
    #[test]
    fn pin_while_querying_stress() {
        let rects = sample_rects(3_000);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let disk = Arc::new(
            ConcurrentDiskRTree::create_sharded(MemStore::new(), &tree, 128, 4, LruPolicy::new)
                .unwrap(),
        );
        let queries: Vec<Rect> = (0..48)
            .map(|i| {
                let x = (i as f64 * 0.173) % 0.85;
                let y = (i as f64 * 0.377) % 0.85;
                Rect::new(x, y, x + 0.06, y + 0.06)
            })
            .collect();
        let expected: Vec<Vec<u64>> = queries
            .iter()
            .map(|q| {
                let mut v = tree.search(q);
                v.sort_unstable();
                v
            })
            .collect();

        std::thread::scope(|scope| {
            for t in 0..8 {
                let disk = Arc::clone(&disk);
                let queries = &queries;
                let expected = &expected;
                scope.spawn(move || {
                    for round in 0..6 {
                        for (q, want) in queries
                            .iter()
                            .zip(expected)
                            .skip((t + round) % 8)
                            .step_by(8)
                        {
                            let mut got = disk.query(q).unwrap();
                            got.sort_unstable();
                            assert_eq!(&got, want);
                        }
                    }
                });
            }
            let pinner = Arc::clone(&disk);
            scope.spawn(move || {
                for p in [1usize, 2, 1, 2] {
                    pinner.pin_top_levels(p).unwrap();
                }
            });
        });
        let stats = disk.buffer_stats();
        assert_eq!(stats.hits + stats.misses, stats.accesses);
        // Pinned pages stayed pinned and within capacity.
        for shard in disk.shards.iter() {
            let s = shard.state.lock();
            assert!(s.pool.len() <= s.pool.capacity());
            assert_eq!(s.frames.len(), s.pool.len());
        }
    }

    #[test]
    fn reset_counters_clears_every_shard() {
        let rects = sample_rects(1_000);
        let tree = BulkLoader::hilbert(10).load(&rects);
        let disk =
            ConcurrentDiskRTree::create_sharded(MemStore::new(), &tree, 32, 4, LruPolicy::new)
                .unwrap();
        for i in 0..20 {
            let x = (i as f64 * 0.31) % 0.9;
            disk.query(&Rect::new(x, x, x + 0.05, x + 0.05)).unwrap();
        }
        assert!(disk.physical_reads() > 0);
        disk.reset_counters();
        assert_eq!(disk.io_stats(), IoStats::default());
        assert_eq!(disk.buffer_stats(), BufferStats::default());
    }

    fn writer_wal() -> GroupWal {
        GroupWal::open(rtree_wal::MemLog::new()).expect("open wal")
    }

    /// Deterministic small rectangle for writer tests, keyed by item id.
    fn item_rect(id: u64) -> Rect {
        let x = ((id.wrapping_mul(2_654_435_761) % 9_973) as f64) / 9_973.0;
        let y = ((id.wrapping_mul(1_327_217_885) % 9_931) as f64) / 9_931.0;
        Rect::new(x, y, x + 0.004, y + 0.004)
    }

    fn probe_queries() -> Vec<Rect> {
        (0..24)
            .map(|i| {
                let x = (i as f64 * 0.207) % 0.85;
                let y = (i as f64 * 0.313) % 0.85;
                Rect::new(x, y, x + 0.15, y + 0.15)
            })
            .collect()
    }

    #[test]
    fn writable_tree_inserts_deletes_and_queries() {
        let tree = ConcurrentDiskRTree::create_writable(
            crate::SharedMemStore::new(),
            8,
            3,
            16,
            LruPolicy::new(),
            writer_wal(),
        )
        .unwrap();
        let n = 300u64;
        for id in 0..n {
            tree.insert(&item_rect(id), id).unwrap();
        }
        assert_eq!(tree.live_items(), n);
        // Single-threaded: every op leads its own commit batch.
        let stats = tree.group_commit_stats().unwrap();
        assert_eq!(stats.committed_ops, n);
        assert_eq!(stats.fsyncs, n);

        // Delete every third item; the rest must stay queryable.
        for id in (0..n).step_by(3) {
            assert!(tree.delete(&item_rect(id), id).unwrap(), "item {id}");
        }
        assert!(!tree.delete(&item_rect(0), 0).unwrap(), "already gone");
        let expected: Vec<u64> = (0..n).filter(|id| id % 3 != 0).collect();
        assert_eq!(tree.live_items(), expected.len() as u64);
        let mut all = tree.query(&Rect::new(0.0, 0.0, 2.0, 2.0)).unwrap();
        all.sort_unstable();
        assert_eq!(all, expected);
        assert!(tree.logical_writes() > n, "deletes counted too");
        assert!(tree.is_writable());
    }

    #[test]
    fn deep_deletes_condense_and_shrink_the_tree() {
        // Tiny fanout forces a tall tree, underflows, orphan reinsertion
        // and root shrinking through the exclusive fallback path.
        let tree = ConcurrentDiskRTree::create_writable(
            crate::SharedMemStore::new(),
            4,
            2,
            8,
            LruPolicy::new(),
            writer_wal(),
        )
        .unwrap();
        for id in 0..120u64 {
            tree.insert(&item_rect(id), id).unwrap();
        }
        let grown_height = {
            let w = tree.writer.as_ref().unwrap();
            let m = w.meta.lock();
            assert!(m.height > 2, "tree should be tall (got {})", m.height);
            m.height
        };
        for id in 0..110u64 {
            assert!(tree.delete(&item_rect(id), id).unwrap(), "item {id}");
        }
        {
            let w = tree.writer.as_ref().unwrap();
            let m = w.meta.lock();
            assert!(
                m.height < grown_height,
                "condense should shrink the root ({} -> {})",
                grown_height,
                m.height
            );
        }
        let mut rest = tree.query(&Rect::new(0.0, 0.0, 2.0, 2.0)).unwrap();
        rest.sort_unstable();
        assert_eq!(rest, (110..120).collect::<Vec<u64>>());
        // Dissolved pages are recycled by later growth.
        let freed = tree.writer.as_ref().unwrap().free.lock().len();
        assert!(freed > 0, "condense should have freed pages");
        for id in 200..260u64 {
            tree.insert(&item_rect(id), id).unwrap();
        }
        assert!(
            tree.writer.as_ref().unwrap().free.lock().len() < freed,
            "growth reuses the session free list"
        );
    }

    #[test]
    fn read_only_tree_rejects_writes() {
        let rects = sample_rects(100);
        let bulk = BulkLoader::hilbert(16).load(&rects);
        let tree =
            ConcurrentDiskRTree::create(crate::SharedMemStore::new(), &bulk, 16, LruPolicy::new())
                .unwrap();
        let err = tree.insert(&item_rect(1), 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        let err = tree.delete(&item_rect(1), 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        let err = tree.checkpoint().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
    }

    #[test]
    fn checkpoint_persists_an_openable_image() {
        let store = crate::SharedMemStore::new();
        let tree =
            ConcurrentDiskRTree::create_writable(store, 8, 3, 16, LruPolicy::new(), writer_wal())
                .unwrap();
        for id in 0..250u64 {
            tree.insert(&item_rect(id), id).unwrap();
        }
        for id in (0..250u64).step_by(5) {
            tree.delete(&item_rect(id), id).unwrap();
        }
        tree.checkpoint().unwrap();
        assert!(
            tree.group_commit_stats().unwrap().committed_ops > 0,
            "ops were committed before the checkpoint truncated the log"
        );
        let wal_len = tree.writer.as_ref().unwrap().wal.len();
        assert_eq!(wal_len, 0, "checkpoint truncates the WAL");
        let image = tree.store.snapshot();

        // The image opens both concurrently (read-only) and sequentially,
        // and agrees with the live writable tree on every probe.
        let reopened = ConcurrentDiskRTree::open(
            crate::SharedMemStore::from_bytes(image.clone()),
            16,
            LruPolicy::new(),
        )
        .unwrap();
        let mut seq = crate::DiskRTree::open(
            crate::SharedMemStore::from_bytes(image),
            16,
            LruPolicy::new(),
        )
        .unwrap();
        for q in probe_queries() {
            let mut live = tree.query(&q).unwrap();
            let mut ro = reopened.query(&q).unwrap();
            let mut sq = seq.query(&q).unwrap();
            live.sort_unstable();
            ro.sort_unstable();
            sq.sort_unstable();
            assert_eq!(live, ro);
            assert_eq!(live, sq);
        }
        assert_eq!(reopened.meta().items, tree.live_items());
    }

    /// Satellite: N concurrent writers + a reader match the sequential
    /// tree across all five replacement policies. Threads insert disjoint
    /// id ranges and delete only their own items, so the final contents
    /// are deterministic regardless of interleaving.
    #[test]
    fn concurrent_writers_match_sequential_across_policies() {
        type MakePolicy = Box<dyn Fn() -> Box<dyn ReplacementPolicy>>;
        let policies: Vec<(&str, MakePolicy)> = vec![
            ("lru", Box::new(|| Box::new(rtree_buffer::LruPolicy::new()))),
            (
                "lru2",
                Box::new(|| Box::new(rtree_buffer::LruKPolicy::new(2))),
            ),
            (
                "fifo",
                Box::new(|| Box::new(rtree_buffer::FifoPolicy::new())),
            ),
            (
                "clock",
                Box::new(|| Box::new(rtree_buffer::ClockPolicy::new())),
            ),
            (
                "random",
                Box::new(|| Box::new(rtree_buffer::RandomPolicy::new(42))),
            ),
        ];
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 120;
        let id_of = |t: u64, i: u64| (t << 40) | i;

        // Sequential oracle: same ops, one thread, the paper's tree.
        let mut oracle =
            crate::DiskRTree::create_empty(crate::MemStore::new(), 6, 2, 16, LruPolicy::new())
                .unwrap();
        for t in 0..THREADS {
            for i in 0..PER_THREAD {
                let id = id_of(t, i);
                oracle.insert(item_rect(id), id).unwrap();
            }
        }
        for t in 0..THREADS {
            for i in (0..PER_THREAD).step_by(3) {
                let id = id_of(t, i);
                assert!(oracle.delete(&item_rect(id), id).unwrap());
            }
        }

        for (name, make_policy) in policies {
            let tree = ConcurrentDiskRTree::create_writable(
                crate::SharedMemStore::new(),
                6,
                2,
                16,
                BoxedPolicy(make_policy()),
                writer_wal(),
            )
            .unwrap();
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let tree = &tree;
                    scope.spawn(move || {
                        for i in 0..PER_THREAD {
                            let id = id_of(t, i);
                            tree.insert(&item_rect(id), id).unwrap();
                            if i % 3 == 0 {
                                assert!(
                                    tree.delete(&item_rect(id), id).unwrap(),
                                    "own item {id} must be present"
                                );
                            }
                        }
                    });
                }
                // A reader hammering queries concurrently must never
                // deadlock or observe a torn page.
                let tree = &tree;
                scope.spawn(move || {
                    for q in probe_queries().iter().cycle().take(200) {
                        tree.query(q).unwrap();
                    }
                });
            });
            assert_eq!(
                tree.live_items(),
                THREADS * (PER_THREAD - PER_THREAD.div_ceil(3)),
                "policy {name}"
            );
            for q in probe_queries() {
                let mut got = tree.query(&q).unwrap();
                let mut want = oracle.query(&q).unwrap();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "policy {name}, query {q:?}");
            }
            let stats = tree.group_commit_stats().unwrap();
            assert!(
                stats.committed_ops >= THREADS * PER_THREAD,
                "policy {name}: every op commits"
            );
        }
    }

    #[test]
    fn resize_repartitions_shards_and_keeps_pins_and_answers() {
        let rects = sample_rects(2_000);
        let tree = BulkLoader::hilbert(16).load(&rects);
        let disk =
            ConcurrentDiskRTree::create_sharded(MemStore::new(), &tree, 64, 4, LruPolicy::new)
                .unwrap();
        assert_eq!(disk.buffer_capacity(), 64);
        disk.pin_top_levels(2).unwrap();
        let pinned = disk.pinned_pages();
        assert!(pinned > 0);
        let q = Rect::new(0.1, 0.1, 0.5, 0.5);
        let mut want = disk.query(&q).unwrap();
        want.sort_unstable();

        // Shrinking below the shard count or a shard's pinned share fails
        // with the pools untouched.
        assert_eq!(
            disk.resize_buffer(3, LruPolicy::new).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        assert_eq!(
            disk.resize_buffer(pinned.max(4) - 1, LruPolicy::new)
                .unwrap_err()
                .kind(),
            io::ErrorKind::InvalidInput
        );
        assert_eq!(disk.buffer_capacity(), 64);
        assert_eq!(disk.pinned_pages(), pinned);

        // A legal resize keeps the pins and the answers; pinned frames
        // carry over so re-reading them costs no I/O.
        disk.resize_buffer(24, LruPolicy::new).unwrap();
        assert_eq!(disk.buffer_capacity(), 24);
        assert_eq!(disk.pinned_pages(), pinned);
        let before = disk.physical_reads();
        let mut got = disk.query(&q).unwrap();
        got.sort_unstable();
        assert_eq!(got, want);
        assert!(disk.physical_reads() >= before, "counters survive resize");
    }

    #[test]
    fn set_pinned_levels_retargets_without_io() {
        let rects = sample_rects(2_000);
        let tree = BulkLoader::hilbert(16).load(&rects);
        let disk =
            ConcurrentDiskRTree::create(MemStore::new(), &tree, 64, LruPolicy::new()).unwrap();
        disk.pin_top_levels(2).unwrap();
        let deep = disk.pinned_pages();
        let reads = disk.physical_reads();
        // Retargeting to fewer levels unpins without touching the store.
        disk.set_pinned_levels(1).unwrap();
        assert!(disk.pinned_pages() < deep);
        assert_eq!(disk.physical_reads(), reads, "unpin is I/O-free");
        // Re-pinning the already-resident second level is also free.
        disk.set_pinned_levels(2).unwrap();
        assert_eq!(disk.pinned_pages(), deep);
        assert_eq!(disk.physical_reads(), reads, "frames stayed resident");
        disk.set_pinned_levels(0).unwrap();
        assert_eq!(disk.pinned_pages(), 0);
    }

    #[test]
    fn point_query_matches_degenerate_region_query() {
        let rects = sample_rects(1_000);
        let tree = BulkLoader::hilbert(16).load(&rects);
        let disk =
            ConcurrentDiskRTree::create(MemStore::new(), &tree, 32, LruPolicy::new()).unwrap();
        for i in 0..40 {
            let p = Point::new((i as f64 * 0.171) % 1.0, (i as f64 * 0.257) % 1.0);
            let mut a = disk.query_point(&p).unwrap();
            let mut b = disk.query(&Rect { lo: p, hi: p }).unwrap();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "point {p:?}");
        }
        // Boundary inclusivity: a point on a rect edge matches it.
        let edge = Point::new(rects[7].lo.x, rects[7].lo.y);
        assert!(disk.query_point(&edge).unwrap().contains(&7));
    }

    #[test]
    fn concurrent_knn_matches_in_memory_knn() {
        let rects = sample_rects(1_500);
        let tree = BulkLoader::hilbert(16).load(&rects);
        let disk = Arc::new(
            ConcurrentDiskRTree::create(MemStore::new(), &tree, 48, LruPolicy::new()).unwrap(),
        );
        let probes = [
            (Point::new(0.5, 0.5), 10),
            (Point::new(0.0, 0.0), 1),
            (Point::new(-3.0, 7.0), 25),
            (Point::new(0.25, 0.75), 1_500),
            (Point::new(0.9, 0.1), 4_000),
        ];
        std::thread::scope(|scope| {
            for t in 0..3 {
                let disk = Arc::clone(&disk);
                let tree = &tree;
                scope.spawn(move || {
                    for (p, k) in probes.iter().skip(t).step_by(3) {
                        let got = disk.nearest_neighbors(p, *k).unwrap();
                        let want = tree.nearest_neighbors(p, *k);
                        let gd: Vec<f64> = got.iter().map(|n| n.distance).collect();
                        let wd: Vec<f64> = want.iter().map(|n| n.distance).collect();
                        assert_eq!(gd, wd, "distance sequence, p {p:?} k {k}");
                    }
                });
            }
        });
        assert!(disk
            .nearest_neighbors(&Point::new(0.5, 0.5), 0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn writable_knn_sees_inserts_and_deletes() {
        fn d2(p: &Point, r: &Rect) -> f64 {
            let dx = (r.lo.x - p.x).max(0.0).max(p.x - r.hi.x);
            let dy = (r.lo.y - p.y).max(0.0).max(p.y - r.hi.y);
            dx * dx + dy * dy
        }
        let tree = ConcurrentDiskRTree::create_writable(
            crate::SharedMemStore::new(),
            8,
            3,
            16,
            LruPolicy::new(),
            writer_wal(),
        )
        .unwrap();
        assert!(
            tree.nearest_neighbors(&Point::new(0.5, 0.5), 3)
                .unwrap()
                .is_empty(),
            "empty writable tree"
        );
        let n = 400u64;
        for id in 0..n {
            tree.insert(&item_rect(id), id).unwrap();
        }
        for id in (0..n).step_by(4) {
            assert!(tree.delete(&item_rect(id), id).unwrap());
        }
        let live: Vec<u64> = (0..n).filter(|id| id % 4 != 0).collect();
        for (p, k) in [
            (Point::new(0.5, 0.5), 7),
            (Point::new(0.05, 0.95), 1),
            (Point::new(0.3, 0.3), live.len() + 10),
        ] {
            let got = tree.nearest_neighbors(&p, k).unwrap();
            let mut want: Vec<f64> = live
                .iter()
                .map(|&id| d2(&p, &item_rect(id)).sqrt())
                .collect();
            want.sort_by(f64::total_cmp);
            want.truncate(k);
            let gd: Vec<f64> = got.iter().map(|n| n.distance).collect();
            assert_eq!(gd, want, "p {p:?} k {k}");
            for nb in &got {
                assert!(live.contains(&nb.id), "deleted item {} resurfaced", nb.id);
            }
        }
    }

    /// Adapter: the writable constructor takes `impl ReplacementPolicy`,
    /// the policy table produces boxed ones.
    struct BoxedPolicy(Box<dyn ReplacementPolicy>);

    impl ReplacementPolicy for BoxedPolicy {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn on_hit(&mut self, page: PageId) {
            self.0.on_hit(page);
        }
        fn on_insert(&mut self, page: PageId) {
            self.0.on_insert(page);
        }
        fn evict(&mut self) -> PageId {
            self.0.evict()
        }
        fn remove(&mut self, page: PageId) {
            self.0.remove(page);
        }
        fn on_unpin(&mut self, page: PageId) {
            self.0.on_unpin(page);
        }
    }
}
