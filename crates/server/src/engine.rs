//! The execution back-ends a [`crate::MicroBatcher`] drives.
//!
//! A [`QueryEngine`] takes a closed micro-batch of query rectangles and
//! returns one result vector per query; the scheduler never sees pages,
//! buffers, or locks. Two implementations cover the two serving modes the
//! workspace already measures offline:
//!
//! * [`SequentialEngine`] — one `DiskRTree` behind a mutex, executed with
//!   [`BatchExecutor`] so the batch's page-level dedup and readahead
//!   engage (the lever ISSUE 6 is built to demonstrate).
//! * [`ShardedEngine`] — a `ConcurrentDiskRTree`, executed with
//!   `query_batch` across its shards.
//! * [`WriterEngine`] — a *writable* `ConcurrentDiskRTree`: queries run
//!   as in the sharded engine, and concurrent [`WriteOp`]s crab their own
//!   latch paths and coalesce their WAL commits into group-commit
//!   batches.

use rtree_exec::{BatchConfig, BatchExecutor};
use rtree_geom::Rect;
use rtree_pager::{
    ConcurrentDiskRTree, ConcurrentPageStore, DiskRTree, IoStats, PageStore, SharedPageStore,
};
use std::io;
use std::sync::Mutex;

/// One mutation, as it travels from the wire to a write-capable engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WriteOp {
    /// Insert `(rect, id)`.
    Insert(Rect, u64),
    /// Delete the entry matching `(rect, id)` exactly.
    Delete(Rect, u64),
}

/// Cumulative write-side counters of an engine. All zero for read-only
/// engines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteStats {
    /// Applied logical writes (inserts plus deletes that found their
    /// entry).
    pub writes: u64,
    /// WAL fsyncs issued.
    pub wal_fsyncs: u64,
    /// Group-commit batches flushed.
    pub commit_batches: u64,
}

/// A batch execution back-end for the scheduler.
///
/// `execute` must return exactly one `Vec<u64>` per input rectangle, in
/// input order — the batcher demultiplexes results back to waiting
/// connections by position. `execute_writes` follows the same positional
/// contract for mutations; engines that cannot write keep the default
/// (one `Unsupported` error per op), so read-only servers answer write
/// requests with a typed error instead of wedging the connection.
pub trait QueryEngine: Send + Sync + 'static {
    /// Executes a closed batch, returning matching ids per query.
    fn execute(&self, queries: &[Rect]) -> io::Result<Vec<Vec<u64>>>;

    /// Cumulative physical I/O counters of the underlying tree.
    fn io_stats(&self) -> IoStats;

    /// Applies a closed batch of mutations, one durably committed result
    /// per op in input order (`true` = applied, `false` = delete found no
    /// entry).
    fn execute_writes(&self, ops: &[WriteOp]) -> Vec<io::Result<bool>> {
        ops.iter()
            .map(|_| {
                Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "this engine is read-only",
                ))
            })
            .collect()
    }

    /// Cumulative write counters (defaults to all-zero for read-only
    /// engines).
    fn write_stats(&self) -> WriteStats {
        WriteStats::default()
    }
}

impl QueryEngine for Box<dyn QueryEngine> {
    fn execute(&self, queries: &[Rect]) -> io::Result<Vec<Vec<u64>>> {
        (**self).execute(queries)
    }

    fn io_stats(&self) -> IoStats {
        (**self).io_stats()
    }

    fn execute_writes(&self, ops: &[WriteOp]) -> Vec<io::Result<bool>> {
        (**self).execute_writes(ops)
    }

    fn write_stats(&self) -> WriteStats {
        (**self).write_stats()
    }
}

/// One `DiskRTree` behind a mutex, batches executed via [`BatchExecutor`].
///
/// Queries inside a batch share the executor's page-request dedup and
/// level-ordered readahead, so k concurrent clients cost fewer demand
/// reads than k sequential queries — the serving-side analogue of the
/// paper's buffering result.
pub struct SequentialEngine<S: PageStore + Send + 'static> {
    tree: Mutex<DiskRTree<S>>,
    executor: BatchExecutor,
}

impl<S: PageStore + Send + 'static> SequentialEngine<S> {
    /// Wraps `tree`, executing batches with `prefetch_window` pages of
    /// readahead (0 disables readahead but keeps dedup).
    pub fn new(tree: DiskRTree<S>, prefetch_window: usize) -> Self {
        SequentialEngine {
            tree: Mutex::new(tree),
            executor: BatchExecutor::with_config(BatchConfig { prefetch_window }),
        }
    }

    /// Runs `f` with the locked tree — for setup (pinning, trace sinks)
    /// and test assertions, not the serving path.
    pub fn with_tree<R>(&self, f: impl FnOnce(&mut DiskRTree<S>) -> R) -> R {
        let mut tree = self
            .tree
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut tree)
    }
}

impl<S: PageStore + Send + 'static> QueryEngine for SequentialEngine<S> {
    fn execute(&self, queries: &[Rect]) -> io::Result<Vec<Vec<u64>>> {
        let mut tree = self
            .tree
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Ok(self.executor.execute(&mut tree, queries)?.results)
    }

    fn io_stats(&self) -> IoStats {
        self.tree
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .io_stats()
    }
}

/// A `ConcurrentDiskRTree` executing batches across its shards with
/// `query_batch`.
pub struct ShardedEngine<S: SharedPageStore + Send + Sync + 'static> {
    tree: ConcurrentDiskRTree<S>,
    threads: usize,
}

impl<S: SharedPageStore + Send + Sync + 'static> ShardedEngine<S> {
    /// Wraps `tree`; each batch fans out over `threads` worker threads.
    pub fn new(tree: ConcurrentDiskRTree<S>, threads: usize) -> Self {
        ShardedEngine {
            tree,
            threads: threads.max(1),
        }
    }

    /// The wrapped tree, for setup and assertions.
    pub fn tree(&self) -> &ConcurrentDiskRTree<S> {
        &self.tree
    }
}

impl<S: SharedPageStore + Send + Sync + 'static> QueryEngine for ShardedEngine<S> {
    fn execute(&self, queries: &[Rect]) -> io::Result<Vec<Vec<u64>>> {
        self.tree.query_batch(queries, self.threads)
    }

    fn io_stats(&self) -> IoStats {
        self.tree.io_stats()
    }
}

/// A writable `ConcurrentDiskRTree` serving reads *and* writes.
///
/// Queries run exactly as in [`ShardedEngine`]. Writes apply on the
/// calling thread: each insert/delete crabs its own latch path and then
/// joins the WAL's group commit, so k writes from k concurrent callers
/// (the server calls with one op from each writing connection's thread)
/// typically cost one fsync instead of k. With `group_commit` disabled
/// every write runs alone, across all callers — every commit is a batch
/// of one, the per-op-fsync baseline the `server_throughput` experiment
/// compares against.
pub struct WriterEngine<S: ConcurrentPageStore + Send + 'static> {
    tree: ConcurrentDiskRTree<S>,
    threads: usize,
    group_commit: bool,
    /// Held across each `execute_writes` call when `group_commit` is
    /// off: concurrent connections' writes would otherwise overlap their
    /// commits and share syncs.
    serial: Mutex<()>,
}

impl<S: ConcurrentPageStore + Send + 'static> WriterEngine<S> {
    /// Wraps a writable `tree` (see
    /// `ConcurrentDiskRTree::create_writable`). Queries fan out over
    /// `threads`. `_write_threads` is ignored: writes get their
    /// concurrency from their callers' threads.
    ///
    /// # Panics
    /// Panics if the tree was opened read-only — a server configured for
    /// writers must fail loudly at startup, not per-request.
    pub fn new(
        tree: ConcurrentDiskRTree<S>,
        threads: usize,
        _write_threads: usize,
        group_commit: bool,
    ) -> Self {
        assert!(
            tree.is_writable(),
            "WriterEngine needs a tree opened through a writable constructor"
        );
        WriterEngine {
            tree,
            threads: threads.max(1),
            group_commit,
            serial: Mutex::new(()),
        }
    }

    /// The wrapped tree, for setup and assertions.
    pub fn tree(&self) -> &ConcurrentDiskRTree<S> {
        &self.tree
    }

    fn apply(&self, op: &WriteOp) -> io::Result<bool> {
        match op {
            WriteOp::Insert(r, item) => self.tree.insert(r, *item).map(|()| true),
            WriteOp::Delete(r, item) => self.tree.delete(r, *item),
        }
    }
}

impl<S: ConcurrentPageStore + Send + 'static> QueryEngine for WriterEngine<S> {
    fn execute(&self, queries: &[Rect]) -> io::Result<Vec<Vec<u64>>> {
        self.tree.query_batch(queries, self.threads)
    }

    fn io_stats(&self) -> IoStats {
        self.tree.io_stats()
    }

    fn execute_writes(&self, ops: &[WriteOp]) -> Vec<io::Result<bool>> {
        // Without group commit no two commits may overlap, across every
        // caller, so every op leads its own batch and pays its own fsync.
        let _serial = (!self.group_commit).then(|| {
            self.serial
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        });
        ops.iter().map(|op| self.apply(op)).collect()
    }

    fn write_stats(&self) -> WriteStats {
        let g = self.tree.group_commit_stats().unwrap_or_default();
        WriteStats {
            writes: self.tree.logical_writes(),
            wal_fsyncs: g.fsyncs,
            commit_batches: g.commit_batches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree_buffer::LruPolicy;
    use rtree_pager::SharedMemStore;
    use rtree_wal::{GroupWal, MemLog};
    use std::time::Duration;

    /// Inserts `n` items from `n` concurrent callers, one op per call (as
    /// the server's connection threads do), and returns the counters
    /// those writes added.
    fn concurrent_inserts(group_commit: bool, n: u64) -> WriteStats {
        let wal = GroupWal::open(MemLog::new()).unwrap();
        // A leader holds its batch open long enough for every concurrent
        // caller to stage into it.
        wal.set_commit_delay(Duration::from_millis(2));
        let tree = ConcurrentDiskRTree::create_writable(
            SharedMemStore::new(),
            16,
            4,
            64,
            LruPolicy::new(),
            wal,
        )
        .unwrap();
        let engine = WriterEngine::new(tree, 1, 1, group_commit);
        let before = engine.write_stats();
        std::thread::scope(|s| {
            for i in 0..n {
                let engine = &engine;
                s.spawn(move || {
                    let x = i as f64 / 100.0;
                    let op = WriteOp::Insert(Rect::new(x, x, x + 0.01, x + 0.01), i);
                    assert!(engine.execute_writes(&[op])[0].as_ref().unwrap());
                });
            }
        });
        let after = engine.write_stats();
        WriteStats {
            writes: after.writes - before.writes,
            wal_fsyncs: after.wal_fsyncs - before.wal_fsyncs,
            commit_batches: after.commit_batches - before.commit_batches,
        }
    }

    #[test]
    fn per_op_commit_never_shares_a_sync_across_concurrent_callers() {
        // The same callers do share syncs under group commit, so they do
        // overlap: per-op commit must serialize them.
        let grouped = concurrent_inserts(true, 8);
        assert_eq!(grouped.writes, 8);
        assert!(grouped.wal_fsyncs < 8, "group commit: {grouped:?}");

        let per_op = concurrent_inserts(false, 8);
        assert_eq!(
            (per_op.writes, per_op.wal_fsyncs, per_op.commit_batches),
            (8, 8, 8)
        );
    }
}
