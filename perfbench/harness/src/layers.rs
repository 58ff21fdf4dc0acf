//! Wrappers around the program's layer interfaces.
//!
//! Each wrapper forwards to the real implementation. With a tracer it
//! also records a span around the call and counts what crossed the
//! boundary; without one (the untraced run) it forwards directly, so the
//! end-to-end figures come from the program's own behaviour.

use crate::span::Tracer;
use rtree_buffer::{PageId, ReplacementPolicy};
use rtree_geom::Rect;
use rtree_pager::{
    ConcurrentDiskRTree, ConcurrentPageStore, DiskRTree, FileStore, IoStats, PageStore,
    SharedPageStore,
};
use rtree_server::{QueryEngine, SequentialEngine, WriteOp, WriteStats, WriterEngine};
use rtree_wal::LogBackend;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub type Trace = Option<Arc<Tracer>>;

/// A page store that times and counts every page read.
pub struct TracedStore<S> {
    inner: S,
    tracer: Trace,
}

impl<S> TracedStore<S> {
    pub fn new(inner: S, tracer: Trace) -> Self {
        TracedStore { inner, tracer }
    }
}

impl<S: PageStore> PageStore for TracedStore<S> {
    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> io::Result<()> {
        let inner = &mut self.inner;
        match &self.tracer {
            None => inner.read_page(id, buf),
            Some(t) => t.span("store.read", || inner.read_page(id, buf)),
        }
    }
    fn write_page(&mut self, id: PageId, buf: &[u8]) -> io::Result<()> {
        self.inner.write_page(id, buf)
    }
    fn allocate(&mut self) -> io::Result<PageId> {
        self.inner.allocate()
    }
    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<S: SharedPageStore> SharedPageStore for TracedStore<S> {
    fn read_page_shared(&self, id: PageId, buf: &mut [u8]) -> io::Result<()> {
        match &self.tracer {
            None => self.inner.read_page_shared(id, buf),
            Some(t) => t.span("store.read", || self.inner.read_page_shared(id, buf)),
        }
    }
}

impl<S: ConcurrentPageStore> ConcurrentPageStore for TracedStore<S> {
    fn write_page_shared(&self, id: PageId, buf: &[u8]) -> io::Result<()> {
        self.inner.write_page_shared(id, buf)
    }
    fn allocate_shared(&self) -> io::Result<PageId> {
        self.inner.allocate_shared()
    }
    fn flush_shared(&self) -> io::Result<()> {
        self.inner.flush_shared()
    }
}

/// A replacement policy that counts evictions.
pub struct CountingPolicy<P> {
    inner: P,
    tracer: Trace,
}

impl<P> CountingPolicy<P> {
    pub fn new(inner: P, tracer: Trace) -> Self {
        CountingPolicy { inner, tracer }
    }
}

impl<P: ReplacementPolicy> ReplacementPolicy for CountingPolicy<P> {
    fn on_hit(&mut self, page: PageId) {
        self.inner.on_hit(page);
    }
    fn on_insert(&mut self, page: PageId) {
        self.inner.on_insert(page);
    }
    fn evict(&mut self) -> PageId {
        if let Some(t) = &self.tracer {
            t.count("pool.evictions", 1);
        }
        self.inner.evict()
    }
    fn remove(&mut self, page: PageId) {
        self.inner.remove(page);
    }
    fn on_unpin(&mut self, page: PageId) {
        self.inner.on_unpin(page);
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A log backend that times syncs and counts appended bytes.
pub struct TracedLog<B> {
    inner: B,
    tracer: Trace,
}

impl<B> TracedLog<B> {
    pub fn new(inner: B, tracer: Trace) -> Self {
        TracedLog { inner, tracer }
    }
}

impl<B: LogBackend> LogBackend for TracedLog<B> {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let inner = &mut self.inner;
        match &self.tracer {
            None => inner.append(bytes),
            Some(t) => {
                t.count("wal.bytes", bytes.len() as u64);
                t.span("wal.append", || inner.append(bytes))
            }
        }
    }
    fn sync(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        match &self.tracer {
            None => inner.sync(),
            Some(t) => t.span("wal.sync", || inner.sync()),
        }
    }
    fn read_all(&self) -> io::Result<Vec<u8>> {
        self.inner.read_all()
    }
    fn truncate(&mut self) -> io::Result<()> {
        self.inner.truncate()
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
}

/// The store every workload's tree runs on.
pub type Store = TracedStore<FileStore>;
/// The replacement policy every workload's pool runs (LRU).
pub type Lru = CountingPolicy<rtree_buffer::LruPolicy>;

/// Identifies an op across the wire: the rectangle the engine sees, plus
/// the item id for writes.
pub fn op_key(rect: &Rect, item: Option<u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [rect.lo.x, rect.lo.y, rect.hi.x, rect.hi.y] {
        h = (h ^ v.to_bits())
            .wrapping_mul(0x100_0000_01b3)
            .rotate_left(17);
    }
    match item {
        None => h,
        Some(id) => (h ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)).rotate_left(29) ^ 1,
    }
}

/// Counters a workload reads from the program before and after a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub reads: u64,
    pub peek_reads: u64,
    pub prefetch_reads: u64,
    pub accesses: u64,
    pub hits: u64,
    pub latch_waits: u64,
    pub writes: u64,
    pub wal_fsyncs: u64,
}

impl Counters {
    fn of(io: IoStats, buf: rtree_buffer::BufferStats) -> Self {
        Counters {
            reads: io.reads,
            peek_reads: io.peek_reads,
            prefetch_reads: io.prefetch_reads,
            accesses: buf.accesses,
            hits: buf.hits,
            ..Counters::default()
        }
    }

    pub fn of_disk<S: PageStore>(tree: &DiskRTree<S>) -> Self {
        Self::of(tree.io_stats(), tree.buffer_stats())
    }

    pub fn of_concurrent<S: SharedPageStore>(tree: &ConcurrentDiskRTree<S>) -> Self {
        let g = tree.group_commit_stats().unwrap_or_default();
        Counters {
            latch_waits: tree.latch_waits(),
            writes: tree.logical_writes(),
            wal_fsyncs: g.fsyncs,
            ..Self::of(tree.io_stats(), tree.buffer_stats())
        }
    }

    /// Counter growth from `before` to `self`.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            reads: self.reads - before.reads,
            peek_reads: self.peek_reads - before.peek_reads,
            prefetch_reads: self.prefetch_reads - before.prefetch_reads,
            accesses: self.accesses - before.accesses,
            hits: self.hits - before.hits,
            latch_waits: self.latch_waits - before.latch_waits,
            writes: self.writes - before.writes,
            wal_fsyncs: self.wal_fsyncs - before.wal_fsyncs,
        }
    }

    /// Physical page reads from the store, root peeks included.
    pub fn store_reads(&self) -> u64 {
        self.reads + self.peek_reads
    }
}

/// Served engines whose counters the benchmark can read.
pub trait Probe {
    fn probe(&self) -> Counters;
}

impl Probe for SequentialEngine<Store> {
    fn probe(&self) -> Counters {
        self.with_tree(|t| Counters::of_disk(t))
    }
}

impl Probe for WriterEngine<Store> {
    fn probe(&self) -> Counters {
        Counters::of_concurrent(self.tree())
    }
}

/// A query engine that records a span around each batch and which ops it
/// carried, so the client can subtract engine time from its latency.
pub struct TracedEngine<E> {
    pub inner: E,
    tracer: Trace,
    batches: AtomicU64,
}

impl<E> TracedEngine<E> {
    pub fn new(inner: E, tracer: Trace) -> Self {
        TracedEngine {
            inner,
            tracer,
            batches: AtomicU64::new(0),
        }
    }

    fn begin_batch(&self) {
        // Batch spans get ids of their own, apart from client op ids.
        Tracer::set_op((1 << 63) | self.batches.fetch_add(1, Ordering::Relaxed));
    }
}

impl<E: QueryEngine + Probe> QueryEngine for TracedEngine<E> {
    fn execute(&self, queries: &[Rect]) -> io::Result<Vec<Vec<u64>>> {
        let Some(t) = &self.tracer else {
            return self.inner.execute(queries);
        };
        self.begin_batch();
        let (out, start, end) = t.span_timed("engine.read", || self.inner.execute(queries));
        t.count("engine.read_ops", queries.len() as u64);
        t.mark_batch(queries.iter().map(|q| op_key(q, None)), start, end);
        out
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }

    fn execute_writes(&self, ops: &[WriteOp]) -> Vec<io::Result<bool>> {
        let Some(t) = &self.tracer else {
            return self.inner.execute_writes(ops);
        };
        self.begin_batch();
        let (out, start, end) = t.span_timed("engine.write", || self.inner.execute_writes(ops));
        t.count("engine.write_ops", ops.len() as u64);
        let keys = ops.iter().map(|op| match op {
            WriteOp::Insert(r, id) | WriteOp::Delete(r, id) => op_key(r, Some(*id)),
        });
        t.mark_batch(keys, start, end);
        out
    }

    fn write_stats(&self) -> WriteStats {
        self.inner.write_stats()
    }
}

impl<E: Probe> Probe for TracedEngine<E> {
    fn probe(&self) -> Counters {
        self.inner.probe()
    }
}
