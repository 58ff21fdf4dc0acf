//! **Extension** — what micro-batching buys a network query server.
//!
//! PR 5 showed the batched executor turning inter-query page locality into
//! single fetches when a client hands it whole batches. A network server
//! does not get whole batches — it gets concurrent clients. This experiment
//! measures whether the micro-batching scheduler can harvest that
//! concurrency: the same closed-loop client fleet drives a cold clustered
//! tree behind the framed-TCP server at several batch windows (the
//! scheduler's `max_batch` cap), and the demand-reads-per-query and
//! latency quantiles land in the same table.
//!
//! Window 1 is the baseline: every query is its own batch, the server
//! degenerates to one-at-a-time serving. Wider windows let a free worker
//! take every query that piled up while the workers were busy, so queries
//! that arrived together traverse together and share page fetches. Expect
//! demand reads/query to drop from window 1 to window ≥ 64 — that drop is
//! the serving-side rendition of the executor's dedup curve. No query
//! waits for a batch to fill; the p50/p99/p999 columns price the time a
//! query spends queued behind a busy worker and inside its batch.
//!
//! The run fails (exit 1) if a window ≥ 64 does not beat window 1 on
//! demand reads/query: that inversion would mean the scheduler shreds
//! locality instead of harvesting it.
//!
//! The second table prices the *write* side of the same harvesting
//! argument: 8 closed-loop writer connections drive inserts through the
//! latch-crabbing tree against a WAL whose sync costs a realistic
//! ~200 µs (an in-memory log with a sleeping barrier — the fsync cost
//! without the filesystem noise). With group commit the concurrent
//! writers' commits coalesce behind one leader's sync; with per-op
//! commit every insert pays its own (the engine runs per-op writes one at
//! a time across all connections). Each write runs on its connection's
//! thread, so the server's default two scheduler workers never limit how
//! many commits can coalesce. The run fails (exit 1) unless group commit
//! cuts fsyncs/insert by at least 4x — the acceptance bar for the write
//! path.
//!
//! `--json` / `--csv` write `results/server_throughput.*`; `--quick`
//! shrinks the fleet for smoke runs.

use rtree_bench::{f, flag, Loader, Table};
use rtree_buffer::LruPolicy;
use rtree_core::Workload;
use rtree_datagen::ClusteredPoints;
use rtree_pager::{ConcurrentDiskRTree, DiskRTree, MemStore, SharedMemStore};
use rtree_server::{
    loadgen, serve, BatchPolicy, LoadConfig, SequentialEngine, ServerConfig, WriterEngine,
};
use rtree_wal::{GroupWal, LogBackend, MemLog};
use std::io;
use std::time::Duration;

/// An in-memory log whose durability barrier takes `delay` of wall time:
/// the cost model of a real fsync (hundreds of microseconds) without disk
/// noise, so the fsync-amortization ratio is the signal being measured.
struct SlowLog {
    inner: MemLog,
    delay: Duration,
}

impl LogBackend for SlowLog {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        std::thread::sleep(self.delay);
        self.inner.sync()
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

fn main() {
    let cap = 50;
    let quick = flag("--quick");
    let (n_rects, n_queries, windows): (usize, usize, &[usize]) = if quick {
        (8_000, 2_000, &[1, 64])
    } else {
        (50_000, 20_000, &[1, 8, 64, 256])
    };
    let connections = 16; // ≥ 8 concurrent clients: the batching fuel
    let rects = ClusteredPoints::new(n_rects, 32, 0.02).generate(0xBA7C);
    let tree = Loader::Hs.build(cap, &rects);
    let nodes = tree.node_count();
    let buffer = (nodes / 50).max(16); // starved: the curve, not the cache
    let prefetch_window = 8;

    let mut table = Table::new(
        format!(
            "Server micro-batching: {n_queries} region queries from {connections} \
             closed-loop connections over clustered {n_rects} (HS cap {cap}, {nodes} \
             nodes, buffer {buffer}, cold per window)"
        ),
        &[
            "window",
            "mean batch",
            "queries/s",
            "demand r/q",
            "prefetch r/q",
            "physical r/q",
            "p50 ms",
            "p99 ms",
            "p999 ms",
        ],
    );

    let mut demand = Vec::new();
    for &window in windows {
        // A fresh tree per window: every row starts cold, so the only
        // difference between rows is how the scheduler groups arrivals.
        let disk = DiskRTree::create(MemStore::new(), &tree, buffer, LruPolicy::new())
            .expect("create tree");
        let handle = serve(
            SequentialEngine::new(disk, prefetch_window),
            "127.0.0.1:0",
            ServerConfig {
                batch: BatchPolicy {
                    max_batch: window,
                    ..BatchPolicy::default()
                },
                read_timeout: Duration::from_millis(20),
            },
        )
        .expect("bind ephemeral port");

        // Same seed every row: each window answers the identical stream.
        let report = loadgen::run(
            handle.addr(),
            &LoadConfig {
                connections,
                queries: n_queries,
                target_qps: 0.0,
                workload: Workload::uniform_region(0.04, 0.04),
                count_fraction: 0.0,
                write_fraction: 0.0,
                seed: 0x5EED,
                shutdown_after: false,
            },
        )
        .expect("load run");
        let stats = handle.shutdown();
        assert_eq!(report.ok as usize, n_queries, "closed loop completes all");

        let per_query = |n: u64| n as f64 / stats.queries.max(1) as f64;
        demand.push(report.demand_reads_per_query());
        table.row(vec![
            window.to_string(),
            format!("{:.1}", stats.queries as f64 / stats.batches.max(1) as f64),
            format!("{:.0}", report.achieved_qps()),
            f(report.demand_reads_per_query()),
            f(per_query(stats.prefetch_reads)),
            f(per_query(stats.physical_reads)),
            format!("{:.3}", report.latency_ms(0.50)),
            format!("{:.3}", report.latency_ms(0.99)),
            format!("{:.3}", report.latency_ms(0.999)),
        ]);
    }
    table.emit("server_throughput");
    println!(
        "Every row answers the identical query stream from a cold tree; only the batch \
         window changes. demand r/q falling with the window is the scheduler harvesting \
         client concurrency into executor batches; the latency columns price the \
         queueing behind busy workers."
    );

    // The acceptance gate: a window ≥ 64 must strictly beat one-at-a-time
    // serving on demand reads per query.
    let baseline = demand[0];
    for (&window, &d) in windows.iter().zip(&demand).skip(1) {
        if window >= 64 && d >= baseline {
            eprintln!(
                "FAIL: window {window} demand r/q {d:.4} not below window 1 baseline \
                 {baseline:.4}"
            );
            std::process::exit(1);
        }
    }

    // ---- Write side: group commit vs per-op commit under 8 writers ----
    let writer_connections = 8;
    let n_writes = if quick { 800 } else { 4_000 };
    let fsync_delay = Duration::from_micros(200);

    let mut wtable = Table::new(
        format!(
            "WAL group commit: {n_writes} inserts from {writer_connections} closed-loop \
             writer connections into an empty crabbing tree (cap {cap}, ~200 µs per WAL \
             sync, default scheduler)"
        ),
        &[
            "commit",
            "inserts/s",
            "fsyncs/insert",
            "mean commit batch",
            "write p50 ms",
            "write p99 ms",
        ],
    );

    // Row 0 is per-op commit (every insert syncs alone), row 1 group commit.
    let mut fsyncs_per_insert = Vec::new();
    for group in [false, true] {
        let wal = GroupWal::open(SlowLog {
            inner: MemLog::new(),
            delay: fsync_delay,
        })
        .expect("open wal");
        if group {
            // Hold each batch open briefly so a whole burst of writers
            // lands under one fsync (the commit_delay knob).
            wal.set_commit_delay(Duration::from_micros(150));
        }
        let disk = ConcurrentDiskRTree::create_writable(
            SharedMemStore::new(),
            cap,
            cap / 4,
            buffer,
            LruPolicy::new(),
            wal,
        )
        .expect("create writable tree");
        let handle = serve(
            WriterEngine::new(disk, 2, 1, group),
            "127.0.0.1:0",
            ServerConfig {
                batch: BatchPolicy::default(),
                read_timeout: Duration::from_millis(20),
            },
        )
        .expect("bind ephemeral port");

        let report = loadgen::run(
            handle.addr(),
            &LoadConfig {
                connections: writer_connections,
                queries: n_writes,
                target_qps: 0.0,
                workload: Workload::uniform_region(0.01, 0.01),
                count_fraction: 0.0,
                write_fraction: 1.0,
                seed: 0x5EED,
                shutdown_after: false,
            },
        )
        .expect("write load run");
        let stats = handle.shutdown();
        assert_eq!(report.writes_ok as usize, n_writes, "all inserts commit");
        assert_eq!(stats.writes as usize, n_writes, "server saw every insert");

        fsyncs_per_insert.push(report.fsyncs_per_write());
        wtable.row(vec![
            if group { "group" } else { "per-op" }.to_string(),
            format!(
                "{:.0}",
                report.writes_ok as f64 / report.elapsed.as_secs_f64()
            ),
            f(report.fsyncs_per_write()),
            format!(
                "{:.1}",
                stats.writes as f64 / stats.commit_batches.max(1) as f64
            ),
            format!("{:.3}", report.write_latency_ms(0.50)),
            format!("{:.3}", report.write_latency_ms(0.99)),
        ]);
    }
    wtable.emit("server_group_commit");
    println!(
        "Both rows commit the identical insert stream durably; only the commit protocol \
         changes. Per-op commit pays one WAL sync per insert, group commit lets the \
         concurrent writers ride one leader's sync — fsyncs/insert is the amortization."
    );

    // The write-side acceptance gate: group commit must amortize syncs at
    // least 4x better than per-op commit under 8 concurrent writers.
    let (per_op, grouped) = (fsyncs_per_insert[0], fsyncs_per_insert[1]);
    if grouped * 4.0 > per_op {
        eprintln!(
            "FAIL: group commit fsyncs/insert {grouped:.4} is not >=4x below per-op \
             {per_op:.4}"
        );
        std::process::exit(1);
    }
}
