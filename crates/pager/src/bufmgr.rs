//! The buffer manager: a [`BufferPool`] plus page frames over a
//! [`PageStore`], counting physical reads and writes.
//!
//! The manager supports two write disciplines:
//!
//! - **Write-through** ([`BufferManager::write`]): the page goes straight to
//!   the store (and any resident frame is updated). No durability protocol.
//! - **Write-back** ([`BufferManager::write_buffered`]): the page is updated
//!   in its frame and marked dirty; it reaches the store only on eviction,
//!   [`BufferManager::flush_all`] or [`BufferManager::checkpoint`]. When a
//!   [`Wal`] is attached, every buffered write logs a full before/after page
//!   image first, and a dirty page is never written back before the log is
//!   synced — the write-ahead rule that makes crash recovery possible.

use crate::{PageStore, PAGE_SIZE};
use rtree_buffer::{AccessOutcome, BufferPool, PageId, PinError, ReplacementPolicy};
use rtree_obs::{EventKind, IoEvent, TraceSink};
use rtree_wal::Wal;
use std::collections::HashMap;
use std::io;
use std::sync::Arc;

/// Per-manager trace state: the sink plus the current span (query id and
/// tree level), set by the tree layer before it drives the manager. With
/// no sink installed (the default) each event site is one `None` check.
pub(crate) struct Tracer {
    pub(crate) sink: Option<Arc<dyn TraceSink>>,
    /// Query/operation span currently executing (0 = none).
    pub(crate) query_id: u64,
    /// Tree level of the page about to be touched (-1 = unknown).
    pub(crate) level: i16,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            sink: None,
            query_id: 0,
            level: -1,
        }
    }
}

impl Tracer {
    /// Emits one event at the current span's level.
    #[inline]
    pub(crate) fn emit(&self, page: PageId, kind: EventKind) {
        self.emit_at(page, self.level, kind);
    }

    /// Emits one event at an explicit level (used where the current span's
    /// level does not describe the page, e.g. an evicted victim).
    #[inline]
    pub(crate) fn emit_at(&self, page: PageId, level: i16, kind: EventKind) {
        if let Some(sink) = &self.sink {
            sink.record(IoEvent {
                query_id: self.query_id,
                page_id: page.0,
                level,
                kind,
                ns: rtree_obs::now_ns(),
            });
        }
    }
}

/// Physical I/O counters, shared by every disk-access measurement in the
/// workspace: one shape for reads and writes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Physical page reads from the store.
    pub reads: u64,
    /// Physical page writes to the store.
    pub writes: u64,
    /// Physical reads performed by the *uncharged* root-MBR peek. The
    /// paper's model semantics exclude the peek from `reads` (a node is
    /// accessed iff its MBR intersects the query), but the transfer still
    /// happens — it is surfaced here so no physical I/O is silently
    /// dropped from the accounting.
    pub peek_reads: u64,
    /// The share of `reads` issued by [`BufferManager::prefetch`] rather
    /// than a demand miss (so `prefetch_reads <= reads`, and demand misses
    /// are `reads - prefetch_reads`). Prefetch fills are real physical
    /// transfers — they stay inside `reads` so "physical reads" keeps
    /// meaning every charged page-in — but no query's miss count is
    /// inflated by them: the consuming access later lands as a hit.
    pub prefetch_reads: u64,
}

impl IoStats {
    /// Total physical page transfers, peeks included (`reads` already
    /// includes prefetch fills).
    pub fn total(&self) -> u64 {
        self.reads + self.writes + self.peek_reads
    }

    /// Physical reads charged to demand misses (excludes prefetch fills).
    pub fn demand_reads(&self) -> u64 {
        self.reads - self.prefetch_reads
    }
}

/// What [`BufferManager::prefetch`] did for a page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrefetchOutcome {
    /// The page was read from the store into a frame and **pinned**; the
    /// caller must [`BufferManager::unpin`] it after the consuming access.
    Fetched,
    /// The page was already resident: nothing was read or pinned.
    Resident,
    /// No frame could be reserved (every frame pinned); nothing was read.
    /// The caller should stop issuing readahead for now.
    NoCapacity,
}

/// A buffer manager: caches page contents according to the pool's
/// replacement decisions and counts every physical page transfer. One page
/// frame per resident page; fetches return a borrowed frame.
pub struct BufferManager<S: PageStore> {
    store: S,
    pool: BufferPool,
    frames: HashMap<PageId, Box<[u8]>>,
    /// Scratch frame for reads that bypass a fully pinned pool.
    scratch: Box<[u8]>,
    stats: IoStats,
    wal: Option<Wal>,
    /// Verify page checksums at read-in (see
    /// [`BufferManager::set_verify_reads`]).
    verify_reads: bool,
    pub(crate) tracer: Tracer,
}

impl<S: PageStore> BufferManager<S> {
    /// Creates a manager with `capacity` frames and the given policy.
    pub fn new(store: S, capacity: usize, policy: impl ReplacementPolicy + 'static) -> Self {
        BufferManager {
            store,
            pool: BufferPool::new(capacity, policy),
            frames: HashMap::with_capacity(capacity + 1),
            scratch: vec![0u8; PAGE_SIZE].into_boxed_slice(),
            stats: IoStats::default(),
            wal: None,
            verify_reads: false,
            tracer: Tracer::default(),
        }
    }

    /// Enables (or disables) checksum verification of every page the
    /// manager reads from the store on the *read* paths — demand misses,
    /// pins, prefetch fills and scratch reads alike (before-image reads on
    /// the buffered-write path are exempt: an overwrite must be able to
    /// repair a corrupt page). With this on, a frame served from the pool
    /// is known-good, so decoders may skip their own checksum pass
    /// ([`crate::NodeSoA::decode_into_trusted`]): corruption is caught
    /// exactly once, at page-in, instead of on every traversal of a
    /// resident frame. The tree layers enable this; the default is off so
    /// the manager stays format-agnostic for raw-page users.
    pub fn set_verify_reads(&mut self, on: bool) {
        self.verify_reads = on;
    }

    /// Checksum gate applied to freshly read bytes when
    /// [`BufferManager::set_verify_reads`] is on.
    fn verify_read(&self, id: PageId, frame: &[u8]) -> io::Result<()> {
        if self.verify_reads {
            crate::page::verify_checksum(frame).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("page {}: {e}", id.0))
            })?;
        }
        Ok(())
    }

    /// Routes every subsequent physical-I/O and pool-outcome event to
    /// `sink` (`None` stops tracing).
    pub fn set_trace_sink(&mut self, sink: Option<Arc<dyn TraceSink>>) {
        self.tracer.sink = sink;
    }

    /// Attaches a write-ahead log; from here on every buffered write is
    /// logged with before/after images and eviction enforces the WAL rule.
    pub fn attach_wal(&mut self, wal: Wal) {
        self.wal = Some(wal);
    }

    /// The attached WAL, if any.
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// Physical I/O counters.
    pub fn io_stats(&self) -> IoStats {
        self.stats
    }

    /// Number of physical page reads so far.
    pub fn physical_reads(&self) -> u64 {
        self.stats.reads
    }

    /// Number of physical page writes so far.
    pub fn physical_writes(&self) -> u64 {
        self.stats.writes
    }

    /// Resets the I/O counters (e.g. after warm-up).
    pub fn reset_counters(&mut self) {
        self.stats = IoStats::default();
        self.pool.reset_stats();
    }

    /// The underlying pool (for hit-ratio statistics).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// The underlying store.
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Tears the manager down, discarding frames (dirty pages are *not*
    /// written back — this simulates a crash; use
    /// [`BufferManager::flush_all`] first for an orderly shutdown).
    pub fn into_store(self) -> S {
        self.store
    }

    /// Writes the evicted page back if dirty (log first), then drops its
    /// frame.
    fn retire_victim(&mut self, victim: PageId) -> io::Result<()> {
        if self.pool.is_dirty(victim) {
            // WAL rule: the log records covering this page must be durable
            // before the page image may overwrite the store.
            if let Some(wal) = &mut self.wal {
                wal.sync()?;
            }
            let frame = self.frames.get(&victim).expect("dirty page has a frame");
            self.store.write_page(victim, frame)?;
            self.stats.writes += 1;
            self.pool.clear_dirty(victim);
            self.tracer.emit_at(victim, -1, EventKind::WriteBack);
        }
        self.frames.remove(&victim);
        Ok(())
    }

    /// Fetches a page, going to the store only on a miss.
    pub fn fetch(&mut self, id: PageId) -> io::Result<&[u8]> {
        match self.pool.access(id) {
            AccessOutcome::Hit => {
                self.tracer.emit(id, EventKind::Hit);
            }
            AccessOutcome::Miss { evicted } => {
                if let Some(victim) = evicted {
                    self.retire_victim(victim)?;
                }
                let mut frame = vec![0u8; PAGE_SIZE].into_boxed_slice();
                self.store.read_page(id, &mut frame)?;
                if let Err(e) = self.verify_read(id, &frame) {
                    // Back the admission out: the next access must miss and
                    // re-read rather than hit a frameless resident entry.
                    self.pool.discard(id);
                    return Err(e);
                }
                self.stats.reads += 1;
                self.frames.insert(id, frame);
                self.tracer.emit(id, EventKind::Miss);
            }
            AccessOutcome::MissBypass => {
                self.store.read_page(id, &mut self.scratch)?;
                self.verify_read(id, &self.scratch)?;
                self.stats.reads += 1;
                self.tracer.emit(id, EventKind::Miss);
                return Ok(&self.scratch);
            }
        }
        Ok(self.frames.get(&id).expect("resident page has a frame"))
    }

    /// Pins a page: loads it (counting the read) and keeps it resident.
    pub fn pin(&mut self, id: PageId) -> io::Result<()> {
        let was_resident = self.pool.contains(id);
        let evicted = self
            .pool
            .pin(id)
            .map_err(|e: PinError| io::Error::new(io::ErrorKind::OutOfMemory, e.to_string()))?;
        if let Some(victim) = evicted {
            self.retire_victim(victim)?;
        }
        if !was_resident {
            let mut frame = vec![0u8; PAGE_SIZE].into_boxed_slice();
            self.store.read_page(id, &mut frame)?;
            if let Err(e) = self.verify_read(id, &frame) {
                self.pool.unpin(id);
                self.pool.discard(id);
                return Err(e);
            }
            self.stats.reads += 1;
            self.frames.insert(id, frame);
            self.tracer.emit(id, EventKind::Miss);
        }
        Ok(())
    }

    /// Reads a page ahead of its demand access. On [`PrefetchOutcome::Fetched`]
    /// the frame is filled and **pinned** so it cannot be evicted before the
    /// access that consumes it — the caller unpins after that access. The
    /// transfer counts as a physical read (`IoStats::reads`, with the
    /// prefetch share mirrored in `IoStats::prefetch_reads`) but **not** as
    /// a pool access: no miss is charged to any query, and the later
    /// consuming access lands as a hit. Emits [`EventKind::Prefetch`]
    /// instead of a miss.
    pub fn prefetch(&mut self, id: PageId) -> io::Result<PrefetchOutcome> {
        if self.pool.contains(id) {
            return Ok(PrefetchOutcome::Resident);
        }
        if self.pool.pinned_count() >= self.pool.capacity() {
            return Ok(PrefetchOutcome::NoCapacity);
        }
        // Read before touching pool state: a failed I/O then needs no
        // rollback of a half-made reservation.
        let mut frame = vec![0u8; PAGE_SIZE].into_boxed_slice();
        self.store.read_page(id, &mut frame)?;
        self.verify_read(id, &frame)?;
        let evicted = self
            .pool
            .admit_pinned(id)
            .expect("a frame is free: pinned_count < capacity was checked");
        if let Some(victim) = evicted {
            self.retire_victim(victim)?;
        }
        self.stats.reads += 1;
        self.stats.prefetch_reads += 1;
        self.frames.insert(id, frame);
        self.tracer.emit(id, EventKind::Prefetch);
        Ok(PrefetchOutcome::Fetched)
    }

    /// Unpins a page pinned by [`BufferManager::pin`] or
    /// [`BufferManager::prefetch`]; it stays resident and re-enters the
    /// replacement order as most recently used.
    pub fn unpin(&mut self, id: PageId) {
        self.pool.unpin(id);
    }

    /// Borrows the frame of a resident page without touching policy state.
    pub(crate) fn peek_frame(&self, id: PageId) -> Option<&[u8]> {
        self.frames.get(&id).map(|b| &b[..])
    }

    /// Reads a page *without* charging the buffer: a resident frame is
    /// peeked (no policy touch), a non-resident page goes through the
    /// scratch frame and counts only as a peek read. Used for the
    /// model-semantics root-MBR test (a node is accessed iff its MBR
    /// intersects the query), by both the tree's own query path and the
    /// batch executor.
    pub fn fetch_uncharged(&mut self, id: PageId) -> io::Result<&[u8]> {
        if self.pool.contains(id) {
            return Ok(self.peek_frame(id).expect("resident page has a frame"));
        }
        self.read_scratch(id)
    }

    /// Sets the trace span subsequent events are attributed to: the
    /// query/operation id (0 = none) and the on-page level of the pages
    /// about to be touched (-1 = unknown). External drivers like the batch
    /// executor use this the same way the tree's own query path does
    /// internally.
    pub fn set_trace_span(&mut self, query_id: u64, level: i16) {
        self.tracer.query_id = query_id;
        self.tracer.level = level;
    }

    /// The operation id of the current trace span (0 = none).
    pub fn trace_span_id(&self) -> u64 {
        self.tracer.query_id
    }

    /// Reads a page into the scratch frame, bypassing the pool and the
    /// model's `reads` counter (used for the uncharged root-MBR peek). The
    /// transfer is still physical I/O, so it lands in
    /// [`IoStats::peek_reads`].
    pub(crate) fn read_scratch(&mut self, id: PageId) -> io::Result<&[u8]> {
        self.store.read_page(id, &mut self.scratch)?;
        self.verify_read(id, &self.scratch)?;
        self.stats.peek_reads += 1;
        self.tracer.emit(id, EventKind::PeekRead);
        Ok(&self.scratch)
    }

    /// Writes a page through the cache to the store (no WAL, no dirty
    /// tracking — bulk materialization and other non-transactional paths).
    pub fn write(&mut self, id: PageId, data: &[u8]) -> io::Result<()> {
        assert_eq!(data.len(), PAGE_SIZE);
        if let Some(frame) = self.frames.get_mut(&id) {
            frame.copy_from_slice(data);
        }
        self.store.write_page(id, data)?;
        self.stats.writes += 1;
        self.tracer.emit(id, EventKind::WriteBack);
        Ok(())
    }

    /// Buffered (write-back) page write: updates the frame, marks it dirty,
    /// and — with a WAL attached — logs the full before/after images first.
    /// The store is *not* touched unless the pool is fully pinned (then the
    /// write degrades to logged write-through via the scratch frame).
    pub fn write_buffered(&mut self, id: PageId, data: &[u8]) -> io::Result<()> {
        assert_eq!(data.len(), PAGE_SIZE);
        match self.pool.access(id) {
            AccessOutcome::Hit => {
                self.tracer.emit(id, EventKind::Hit);
            }
            AccessOutcome::Miss { evicted } => {
                if let Some(victim) = evicted {
                    self.retire_victim(victim)?;
                }
                // The before-image requires the current page contents.
                let mut frame = vec![0u8; PAGE_SIZE].into_boxed_slice();
                self.store.read_page(id, &mut frame)?;
                self.stats.reads += 1;
                self.frames.insert(id, frame);
                self.tracer.emit(id, EventKind::Miss);
            }
            AccessOutcome::MissBypass => {
                self.store.read_page(id, &mut self.scratch)?;
                self.stats.reads += 1;
                self.tracer.emit(id, EventKind::Miss);
                if let Some(wal) = &mut self.wal {
                    wal.log_page_image(id.0, &self.scratch, data)?;
                    wal.sync()?;
                    self.tracer.emit(id, EventKind::WalAppend);
                }
                self.store.write_page(id, data)?;
                self.stats.writes += 1;
                self.tracer.emit(id, EventKind::WriteBack);
                return Ok(());
            }
        }
        let frame = self.frames.get_mut(&id).expect("resident page has a frame");
        if let Some(wal) = &mut self.wal {
            wal.log_page_image(id.0, frame, data)?;
            self.tracer.emit(id, EventKind::WalAppend);
        }
        frame.copy_from_slice(data);
        self.pool.mark_dirty(id);
        Ok(())
    }

    /// Allocates a fresh zeroed page in the store.
    pub fn allocate(&mut self) -> io::Result<PageId> {
        self.store.allocate()
    }

    /// Commits the current operation: appends a commit marker and syncs the
    /// log. No-op without a WAL.
    pub fn commit(&mut self) -> io::Result<()> {
        if let Some(wal) = &mut self.wal {
            wal.log_commit()?;
        }
        Ok(())
    }

    /// Writes every dirty page back to the store (log first) and issues the
    /// store's durability barrier.
    pub fn flush_all(&mut self) -> io::Result<()> {
        if let Some(wal) = &mut self.wal {
            wal.sync()?;
        }
        for id in self.pool.dirty_pages() {
            let frame = self.frames.get(&id).expect("dirty page has a frame");
            self.store.write_page(id, frame)?;
            self.stats.writes += 1;
            self.pool.clear_dirty(id);
            self.tracer.emit_at(id, -1, EventKind::WriteBack);
        }
        self.store.flush()
    }

    /// Checkpoint: flush all dirty pages, then mark the log as redundant
    /// (checkpoint record + truncation). Call only between operations.
    pub fn checkpoint(&mut self) -> io::Result<()> {
        self.flush_all()?;
        if let Some(wal) = &mut self.wal {
            wal.log_checkpoint()?;
            wal.truncate()?;
        }
        Ok(())
    }

    /// Replaces the buffer pool with a fresh one of `capacity` frames under
    /// `policy`. Every dirty page is flushed first (log-first, as always),
    /// so no buffered state is lost; pinned pages *stay pinned* (their
    /// frames carry over) and the pool's hit/miss statistics restart from
    /// zero, while the cumulative [`IoStats`] and the attached WAL are
    /// preserved. Call only between operations.
    ///
    /// # Errors
    /// `InvalidInput` if `capacity` is smaller than the number of currently
    /// pinned pages — shrinking must never evict a pinned page, so the
    /// request is refused with the pool untouched.
    pub fn resize(
        &mut self,
        capacity: usize,
        policy: impl ReplacementPolicy + 'static,
    ) -> io::Result<()> {
        let pinned: Vec<PageId> = self
            .frames
            .keys()
            .copied()
            .filter(|&id| self.pool.is_pinned(id))
            .collect();
        if capacity < pinned.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "cannot resize to {capacity} frames: {} pages are pinned",
                    pinned.len()
                ),
            ));
        }
        self.flush_all()?;
        let mut pool = BufferPool::new(capacity, policy);
        for &id in &pinned {
            pool.admit_pinned(id)
                .expect("capacity was checked against the pinned count");
        }
        self.pool = pool;
        self.frames.retain(|id, _| pinned.contains(id));
        Ok(())
    }

    /// Unpins every pinned page. The frames stay resident and re-enter
    /// replacement, so this costs no I/O — it only makes the pages
    /// evictable again (the controller's first step when it re-targets
    /// pinning at a different level set).
    pub fn unpin_all(&mut self) {
        let pinned: Vec<PageId> = self
            .frames
            .keys()
            .copied()
            .filter(|&id| self.pool.is_pinned(id))
            .collect();
        for id in pinned {
            self.pool.unpin(id);
        }
    }

    /// Number of currently pinned pages.
    pub fn pinned_count(&self) -> usize {
        self.pool.pinned_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;
    use rtree_buffer::LruPolicy;
    use rtree_wal::{LogBackend, MemLog, Wal, WalRecord};

    fn make(pages: usize, capacity: usize) -> BufferManager<MemStore> {
        let mut store = MemStore::new();
        for i in 0..pages {
            let id = store.allocate().unwrap();
            let mut buf = vec![0u8; PAGE_SIZE];
            buf[0] = i as u8;
            store.write_page(id, &buf).unwrap();
        }
        BufferManager::new(store, capacity, LruPolicy::new())
    }

    fn page(fill: u8) -> Vec<u8> {
        let mut buf = vec![0u8; PAGE_SIZE];
        buf[0] = fill;
        buf
    }

    #[test]
    fn fetch_caches_and_counts() {
        let mut m = make(4, 2);
        assert_eq!(m.fetch(PageId(1)).unwrap()[0], 1);
        assert_eq!(m.fetch(PageId(1)).unwrap()[0], 1);
        assert_eq!(m.physical_reads(), 1, "second fetch must hit");
        assert_eq!(m.fetch(PageId(2)).unwrap()[0], 2);
        assert_eq!(m.physical_reads(), 2);
        // Capacity 2: fetching a third page evicts the LRU (page 1).
        assert_eq!(m.fetch(PageId(3)).unwrap()[0], 3);
        assert_eq!(m.physical_reads(), 3);
        assert_eq!(m.fetch(PageId(1)).unwrap()[0], 1);
        assert_eq!(m.physical_reads(), 4, "page 1 was evicted");
        assert_eq!(m.frames.len(), 2, "frames track residency");
    }

    #[test]
    fn unpin_all_reenters_replacement_and_allows_shrink() {
        let mut m = make(6, 4);
        m.pin(PageId(1)).unwrap();
        m.pin(PageId(2)).unwrap();
        m.pin(PageId(3)).unwrap();
        assert_eq!(m.pinned_count(), 3);
        // Shrinking below the pinned count is refused...
        assert!(m.resize(2, LruPolicy::new()).is_err());
        // ...but after unpin_all the same shrink succeeds, and unpinning
        // itself costs no I/O.
        let reads = m.physical_reads();
        m.unpin_all();
        assert_eq!(m.pinned_count(), 0);
        assert_eq!(m.physical_reads(), reads);
        m.resize(2, LruPolicy::new()).unwrap();
        assert_eq!(m.pool().capacity(), 2);
    }

    #[test]
    fn pinned_page_never_reread() {
        let mut m = make(8, 2);
        m.pin(PageId(0)).unwrap();
        for i in 1..8 {
            m.fetch(PageId(i)).unwrap();
        }
        let before = m.physical_reads();
        assert_eq!(m.fetch(PageId(0)).unwrap()[0], 0);
        assert_eq!(m.physical_reads(), before);
    }

    #[test]
    fn bypass_when_fully_pinned() {
        let mut m = make(4, 2);
        m.pin(PageId(0)).unwrap();
        m.pin(PageId(1)).unwrap();
        assert_eq!(m.fetch(PageId(2)).unwrap()[0], 2);
        assert_eq!(m.fetch(PageId(2)).unwrap()[0], 2);
        // Bypass reads are never cached.
        assert_eq!(m.physical_reads(), 4);
    }

    #[test]
    fn write_through_updates_frame_and_counts() {
        let mut m = make(2, 2);
        m.fetch(PageId(0)).unwrap();
        m.write(PageId(0), &page(0xEE)).unwrap();
        assert_eq!(m.fetch(PageId(0)).unwrap()[0], 0xEE);
        assert_eq!(
            m.io_stats(),
            IoStats {
                reads: 1,
                writes: 1,
                ..IoStats::default()
            }
        );
    }

    #[test]
    fn reset_counters() {
        let mut m = make(2, 2);
        m.fetch(PageId(0)).unwrap();
        m.write(PageId(1), &page(1)).unwrap();
        m.reset_counters();
        assert_eq!(m.io_stats(), IoStats::default());
        assert_eq!(m.pool().stats().accesses, 0);
    }

    #[test]
    fn missing_page_errors() {
        let mut m = make(2, 2);
        assert!(m.fetch(PageId(77)).is_err());
    }

    #[test]
    fn buffered_write_defers_store_write_until_eviction() {
        let mut m = make(4, 2);
        m.write_buffered(PageId(0), &page(0xAA)).unwrap();
        assert_eq!(m.physical_writes(), 0, "write-back: store untouched");
        assert_eq!(m.fetch(PageId(0)).unwrap()[0], 0xAA, "frame holds new data");
        // Store still has the old image.
        let mut raw = vec![0u8; PAGE_SIZE];
        m.store_mut().read_page(PageId(0), &mut raw).unwrap();
        assert_eq!(raw[0], 0);
        // Evict page 0 by touching two other pages.
        m.fetch(PageId(1)).unwrap();
        m.fetch(PageId(2)).unwrap();
        assert_eq!(m.physical_writes(), 1, "eviction wrote the dirty page");
        m.store_mut().read_page(PageId(0), &mut raw).unwrap();
        assert_eq!(raw[0], 0xAA);
    }

    #[test]
    fn flush_all_writes_every_dirty_page_once() {
        let mut m = make(4, 4);
        m.write_buffered(PageId(0), &page(10)).unwrap();
        m.write_buffered(PageId(2), &page(12)).unwrap();
        m.write_buffered(PageId(2), &page(13)).unwrap();
        m.flush_all().unwrap();
        assert_eq!(m.physical_writes(), 2, "one write per dirty page");
        assert_eq!(m.pool().dirty_count(), 0);
        let mut raw = vec![0u8; PAGE_SIZE];
        m.store_mut().read_page(PageId(2), &mut raw).unwrap();
        assert_eq!(raw[0], 13, "last buffered content wins");
        // A second flush is a no-op.
        m.flush_all().unwrap();
        assert_eq!(m.physical_writes(), 2);
    }

    #[test]
    fn prefetch_reads_once_and_the_access_hits() {
        let mut m = make(4, 2);
        assert_eq!(m.prefetch(PageId(1)).unwrap(), PrefetchOutcome::Fetched);
        let io = m.io_stats();
        assert_eq!((io.reads, io.prefetch_reads), (1, 1));
        assert_eq!(io.demand_reads(), 0, "no miss charged to anyone");
        assert_eq!(m.pool().stats().accesses, 0, "prefetch is not an access");
        // The consuming access: a hit, no further read.
        assert_eq!(m.fetch(PageId(1)).unwrap()[0], 1);
        m.unpin(PageId(1));
        let io = m.io_stats();
        assert_eq!((io.reads, io.prefetch_reads), (1, 1));
        let s = m.pool().stats();
        assert_eq!((s.accesses, s.hits, s.misses), (1, 1, 0));
    }

    #[test]
    fn prefetched_page_survives_pressure_until_unpinned() {
        let mut m = make(8, 2);
        m.prefetch(PageId(1)).unwrap();
        // Demand traffic fills and churns the other frame; page 1 is pinned
        // by the readahead reservation, so it cannot be the victim.
        for i in 2..6 {
            m.fetch(PageId(i)).unwrap();
        }
        let before = m.physical_reads();
        assert_eq!(m.fetch(PageId(1)).unwrap()[0], 1);
        assert_eq!(m.physical_reads(), before, "reservation held the frame");
        m.unpin(PageId(1));
    }

    #[test]
    fn prefetch_resident_and_full_pools_are_no_ops() {
        let mut m = make(4, 2);
        m.fetch(PageId(1)).unwrap();
        assert_eq!(m.prefetch(PageId(1)).unwrap(), PrefetchOutcome::Resident);
        assert_eq!(m.io_stats().prefetch_reads, 0);
        m.pin(PageId(0)).unwrap();
        m.pin(PageId(2)).unwrap();
        // Every frame pinned: readahead declines instead of erroring.
        assert_eq!(m.prefetch(PageId(3)).unwrap(), PrefetchOutcome::NoCapacity);
        assert_eq!(m.io_stats().prefetch_reads, 0);
    }

    #[test]
    fn prefetch_missing_page_errors_without_reserving() {
        let mut m = make(2, 2);
        assert!(m.prefetch(PageId(77)).is_err());
        assert!(!m.pool().contains(PageId(77)), "failed read left state");
        assert_eq!(m.pool().pinned_count(), 0);
        assert_eq!(m.io_stats().prefetch_reads, 0);
    }

    #[test]
    fn wal_logs_before_and_after_images() {
        let log = MemLog::new();
        let mut m = make(2, 2);
        m.attach_wal(Wal::open(log.clone()).unwrap());
        m.write_buffered(PageId(1), &page(0x55)).unwrap();
        m.commit().unwrap();
        let records = rtree_wal::scan(&log.read_all().unwrap()).records;
        assert_eq!(records.len(), 2);
        match &records[0] {
            WalRecord::PageImage {
                page_id,
                before,
                after,
                ..
            } => {
                assert_eq!(*page_id, 1);
                assert_eq!(before[0], 1, "before-image is the store content");
                assert_eq!(after[0], 0x55);
            }
            other => panic!("expected page image, got {other:?}"),
        }
        assert!(matches!(records[1], WalRecord::Commit { .. }));
    }

    #[test]
    fn checkpoint_flushes_and_truncates_log() {
        let log = MemLog::new();
        let mut m = make(2, 2);
        m.attach_wal(Wal::open(log.clone()).unwrap());
        m.write_buffered(PageId(0), &page(0x42)).unwrap();
        m.commit().unwrap();
        m.checkpoint().unwrap();
        assert_eq!(log.read_all().unwrap().len(), 0, "log truncated");
        let mut raw = vec![0u8; PAGE_SIZE];
        m.store_mut().read_page(PageId(0), &mut raw).unwrap();
        assert_eq!(raw[0], 0x42);
        assert_eq!(m.pool().dirty_count(), 0);
    }

    #[test]
    fn buffered_write_on_fully_pinned_pool_degrades_to_write_through() {
        let mut m = make(4, 2);
        m.pin(PageId(0)).unwrap();
        m.pin(PageId(1)).unwrap();
        m.write_buffered(PageId(2), &page(0x77)).unwrap();
        assert_eq!(m.physical_writes(), 1, "bypass writes through");
        let mut raw = vec![0u8; PAGE_SIZE];
        m.store_mut().read_page(PageId(2), &mut raw).unwrap();
        assert_eq!(raw[0], 0x77);
    }

    #[test]
    fn resize_preserves_pins_and_refuses_to_shrink_below_them() {
        let mut m = make(8, 4);
        m.pin(PageId(0)).unwrap();
        m.pin(PageId(1)).unwrap();
        m.write_buffered(PageId(1), &page(0xC3)).unwrap();

        // Shrinking below the pinned count is refused, pool untouched.
        let err = m.resize(1, LruPolicy::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(m.pool.pinned_count(), 2, "failed resize changed nothing");
        assert!(m.pool.is_pinned(PageId(0)));

        // A legal resize keeps the pinned pages resident and pinned, with
        // their (flushed) frames intact — no re-read needed.
        m.resize(2, LruPolicy::new()).unwrap();
        assert_eq!(m.pool.pinned_count(), 2);
        assert_eq!(m.frames.len(), 2);
        let before = m.physical_reads();
        assert_eq!(m.fetch(PageId(1)).unwrap()[0], 0xC3);
        assert_eq!(m.physical_reads(), before, "pinned frame carried over");
        // The dirty pin was flushed (log-first) before the swap.
        let mut raw = vec![0u8; PAGE_SIZE];
        m.store_mut().read_page(PageId(1), &mut raw).unwrap();
        assert_eq!(raw[0], 0xC3);
    }
}
