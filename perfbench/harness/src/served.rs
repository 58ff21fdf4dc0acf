//! Loopback-served workloads: a server in this process, driven by closed-
//! loop client connections that speak the wire protocol through its
//! public encode/frame/decode calls.

use crate::embedded;
use crate::layers::{op_key, Probe, Store, Trace, TracedEngine, TracedLog};
use crate::oracle::{is_read, served_rect, set_digest};
use crate::run::{peak_rss_mb, ClientOp, Limit, RunResult, WrapperCounts};
use crate::setup::{mix64, Inputs, CONNECTIONS, WINDOW};
use crate::span::Tracer;
use crate::stats::Samples;
use rtree_datagen::trace::TraceOp;
use rtree_geom::Rect;
use rtree_pager::{ConcurrentDiskRTree, DiskRTree, PageStore, PAGE_SIZE};
use rtree_server::wire::{self, Request, Response};
use rtree_server::{
    serve, QueryEngine, SequentialEngine, ServerConfig, ServerHandle, WriterEngine,
};
use rtree_wal::{FileLog, GroupWal, MemLog};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Readahead window of the default `rtrees serve` engine.
pub const READAHEAD_WINDOW: usize = 8;
/// Query threads of the writer engine.
pub const QUERY_THREADS: usize = 2;
/// Write threads of the writer engine (group commit on).
pub const WRITE_THREADS: usize = 2;
/// Commit delay `rtrees serve --writers` sets.
pub const COMMIT_DELAY: Duration = Duration::from_micros(150);
/// Region windows re-checked against the oracle after the read/write run.
const QUIESCE_SAMPLE: usize = 200;

type ReadonlyHandle = ServerHandle<TracedEngine<SequentialEngine<Store>>>;
type MixedHandle = ServerHandle<TracedEngine<WriterEngine<Store>>>;

/// Assigns every trace op to a connection. Writes go by item id, so all
/// ops on one item share a connection and keep their trace order there
/// (each delete follows its insert); reads are dealt round-robin.
pub fn route(ops: &[TraceOp], conns: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); conns];
    let mut next_read = 0usize;
    for (i, op) in ops.iter().enumerate() {
        let c = match op {
            TraceOp::Insert(_, id) | TraceOp::Delete(_, id) => (mix64(*id) % conns as u64) as usize,
            _ => {
                next_read += 1;
                (next_read - 1) % conns
            }
        };
        out[c].push(i);
    }
    out
}

fn request(op: &TraceOp) -> Request {
    match op {
        TraceOp::Region(r) => Request::Query(*r),
        // The protocol has no kNN request: kNN ops travel as points.
        TraceOp::Point(p) | TraceOp::Knn(p, _) => Request::Point(p.x, p.y),
        TraceOp::Insert(r, id) => Request::Insert(*r, *id),
        TraceOp::Delete(r, id) => Request::Delete(*r, *id),
    }
}

fn exchange(
    stream: &mut TcpStream,
    req: &Request,
    tracer: Option<&Tracer>,
) -> io::Result<Response> {
    let eof = || io::Error::from(io::ErrorKind::UnexpectedEof);
    let Some(t) = tracer else {
        wire::write_frame(stream, &req.encode())?;
        let frame = wire::read_frame(stream)?.ok_or_else(eof)?;
        return Ok(Response::decode(&frame)?);
    };
    let payload = t.span("wire.encode", || req.encode());
    t.span("wire.write_frame", || wire::write_frame(stream, &payload))?;
    let frame = t
        .span("wire.read_frame", || wire::read_frame(stream))?
        .ok_or_else(eof)?;
    t.count("wire.resp_bytes", frame.len() as u64);
    Ok(t.span("wire.decode", || Response::decode(&frame))?)
}

#[derive(Default)]
struct ClientOut {
    reads: Samples,
    writes: Samples,
    attempted: u64,
    failed: u64,
    done: usize,
    ops: Vec<ClientOp>,
}

/// One closed-loop connection replaying its share of the trace.
fn client(
    addr: SocketAddr,
    inputs: &Inputs,
    mine: &[usize],
    conn: usize,
    limit: &Limit,
    tracer: Option<&Tracer>,
) -> io::Result<ClientOut> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let cycle = inputs.workload.cycles();
    let (deadline, target) = (limit.deadline(), limit.ops(conn));
    let mut out = ClientOut::default();
    while !mine.is_empty() {
        let t0 = Instant::now();
        let stop = match target {
            Some(t) => out.done >= t,
            None => deadline.is_some_and(|d| t0 >= d),
        };
        if stop || (!cycle && out.done >= mine.len()) {
            break;
        }
        let i = mine[out.done % mine.len()];
        let op = &inputs.trace.ops[i];
        let req = request(op);
        let read = is_read(op);
        let got = match tracer {
            None => exchange(&mut stream, &req, None),
            Some(t) => {
                Tracer::set_op(((conn as u64 + 1) << 40) | out.done as u64);
                let name = if read { "client.read" } else { "client.write" };
                let (got, send_ns, recv_ns) =
                    t.span_timed(name, || exchange(&mut stream, &req, Some(t)));
                let item = match op {
                    TraceOp::Insert(_, id) | TraceOp::Delete(_, id) => Some(*id),
                    _ => None,
                };
                out.ops.push(ClientOp {
                    key: op_key(&served_rect(op), item),
                    send_ns,
                    recv_ns,
                    read,
                });
                got
            }
        };
        let ns = t0.elapsed().as_nanos() as u64;
        out.attempted += 1;
        out.done += 1;
        let ok = match got {
            // The connection is gone: count the op and stop this client.
            Err(_) => {
                out.failed += 1;
                break;
            }
            Ok(Response::Matches(mut ids)) if read => {
                if inputs.workload.has_writes() {
                    inputs
                        .expect
                        .check_mixed_read(&inputs.oracle_tree, &served_rect(op), &mut ids)
                } else {
                    set_digest(ids) == inputs.expect.digests[i]
                }
            }
            // The trace ledger guarantees every delete finds its item.
            Ok(Response::Written(found)) if !read => found,
            Ok(_) => false,
        };
        if !ok {
            out.failed += 1;
        } else if read {
            out.reads.push(ns);
        } else {
            out.writes.push(ns);
        }
    }
    Ok(out)
}

/// Drives every connection, then returns the merged client view.
fn drive<E: QueryEngine + Probe>(
    handle: &ServerHandle<TracedEngine<E>>,
    inputs: &Inputs,
    routes: &[Vec<usize>],
    limit: &Limit,
    tracer: &Trace,
) -> RunResult {
    let before = handle.batcher().engine().probe();
    let start = Instant::now();
    let outs: Vec<io::Result<ClientOut>> = std::thread::scope(|s| {
        let workers: Vec<_> = routes
            .iter()
            .enumerate()
            .map(|(c, mine)| {
                s.spawn(move || client(handle.addr(), inputs, mine, c, limit, tracer.as_deref()))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let counters = handle.batcher().engine().probe().since(&before);
    let mut r = RunResult {
        attempted: 0,
        failed: 0,
        elapsed_s,
        reads: Samples::default(),
        writes: Samples::default(),
        counters,
        pass_reads: None,
        per_conn: Vec::new(),
        wrapper: tracer.as_ref().map(|t| WrapperCounts::of(t)),
        bytes_per_item: inputs.image_bytes_per_item(),
        peak_rss_mb: peak_rss_mb(),
        client_ops: Vec::new(),
        checks: 0,
        checks_failed: 0,
    };
    for out in outs {
        match out {
            Ok(o) => {
                r.attempted += o.attempted;
                r.failed += o.failed;
                r.reads.extend(&o.reads);
                r.writes.extend(&o.writes);
                r.per_conn.push(o.done);
                r.client_ops.extend(o.ops);
            }
            // A connection that never opened attempted nothing; one
            // failure stands in for it so the run is marked incorrect.
            Err(_) => {
                r.attempted += 1;
                r.failed += 1;
                r.per_conn.push(0);
            }
        }
    }
    r
}

/// A served workload, set up and warmed, waiting for its clients.
pub enum Served {
    Readonly(ReadonlyHandle),
    Mixed(MixedHandle),
}

impl Served {
    pub fn open(inputs: &Inputs, tracer: &Trace) -> io::Result<Served> {
        let frames = inputs.frames();
        let policy = Inputs::policy(tracer);
        let store = inputs.fresh_store("served.pages", tracer)?;
        let config = ServerConfig::default();
        if !inputs.workload.has_writes() {
            // The default `rtrees serve` engine: sequential engine over
            // the batch executor with readahead.
            let mut tree = DiskRTree::open(store, frames, policy)?;
            for op in &inputs.warm.ops {
                embedded::execute(&mut tree, op)?;
            }
            let engine = SequentialEngine::new(tree, READAHEAD_WINDOW);
            let handle = serve(
                TracedEngine::new(engine, tracer.clone()),
                "127.0.0.1:0",
                config,
            )?;
            return Ok(Served::Readonly(handle));
        }
        let log = TracedLog::new(
            FileLog::create(inputs.image.with_file_name("served.wal"))?,
            tracer.clone(),
        );
        let wal = GroupWal::open(log)?;
        wal.set_commit_delay(COMMIT_DELAY);
        let tree = ConcurrentDiskRTree::open_writable(store, frames, policy, wal)?;
        for op in &inputs.warm.ops {
            match op {
                TraceOp::Region(r) => drop(tree.query(r)?),
                TraceOp::Point(p) => drop(tree.query_point(p)?),
                TraceOp::Knn(p, k) => drop(tree.nearest_neighbors(p, *k as usize)?),
                TraceOp::Insert(..) | TraceOp::Delete(..) => {}
            }
        }
        let engine = WriterEngine::new(tree, QUERY_THREADS, WRITE_THREADS, true);
        let handle = serve(
            TracedEngine::new(engine, tracer.clone()),
            "127.0.0.1:0",
            config,
        )?;
        Ok(Served::Mixed(handle))
    }

    /// Stops the server without running clients (discarded set-ups).
    pub fn close(self) {
        match self {
            Served::Readonly(h) => drop(h.shutdown()),
            Served::Mixed(h) => drop(h.shutdown()),
        }
    }

    /// Runs the clients to the limit, shuts the server down and, for the
    /// read/write workload, checks the quiesced tree against the oracle
    /// and measures the image after the trace's writes.
    pub fn run(self, inputs: &Inputs, limit: &Limit, tracer: &Trace) -> io::Result<RunResult> {
        let routes = route(&inputs.trace.ops, CONNECTIONS);
        match self {
            Served::Readonly(h) => {
                let r = drive(&h, inputs, &routes, limit, tracer);
                h.shutdown();
                Ok(r)
            }
            Served::Mixed(h) => {
                let mut r = drive(&h, inputs, &routes, limit, tracer);
                h.shutdown();
                quiesce_check(h.batcher().engine().inner.tree(), inputs, &routes, &mut r)?;
                space_after_writes(inputs, &mut r)?;
                Ok(r)
            }
        }
    }
}

/// After the read/write run: the live count and a fixed sample of region
/// queries must match the oracle with exactly the executed writes
/// applied.
fn quiesce_check(
    tree: &ConcurrentDiskRTree<Store>,
    inputs: &Inputs,
    routes: &[Vec<usize>],
    r: &mut RunResult,
) -> io::Result<()> {
    let mut oracle = inputs.oracle_tree.clone();
    for (mine, &n) in routes.iter().zip(&r.per_conn) {
        for &i in &mine[..n.min(mine.len())] {
            match &inputs.trace.ops[i] {
                TraceOp::Insert(rect, id) => oracle.insert(*rect, *id),
                TraceOp::Delete(rect, id) => {
                    oracle.delete(rect, *id);
                }
                _ => {}
            }
        }
    }
    let mut check = |ok: bool| {
        r.checks += 1;
        r.checks_failed += u64::from(!ok);
    };
    check(tree.live_items() == oracle.len() as u64);
    let windows = inputs.trace.ops.iter().filter_map(|op| match op {
        TraceOp::Region(q) => Some(*q),
        _ => None,
    });
    // A fixed sample of the trace's windows, then one covering every item.
    let everything = Rect::new(-WINDOW, -WINDOW, 1.0 + WINDOW, 1.0 + WINDOW);
    for q in windows.take(QUIESCE_SAMPLE).chain([everything]) {
        let mut got = tree.query(&q)?;
        let mut want = oracle.search(&q);
        got.sort_unstable();
        want.sort_unstable();
        check(got == want);
    }
    Ok(())
}

/// Page-file bytes per live item once every write of the trace has been
/// applied in trace order to a fresh copy of the image and one checkpoint
/// taken. The served tree's own write count depends on how fast the run
/// went; this figure repeats exactly for a seed. The log is in memory:
/// it does not change the page layout.
fn space_after_writes(inputs: &Inputs, r: &mut RunResult) -> io::Result<()> {
    let store = inputs.fresh_store("space.pages", &None)?;
    let wal = GroupWal::open(MemLog::new())?;
    let tree =
        ConcurrentDiskRTree::open_writable(store, inputs.frames(), Inputs::policy(&None), wal)?;
    for op in &inputs.trace.ops {
        match op {
            TraceOp::Insert(rect, id) => tree.insert(rect, *id)?,
            TraceOp::Delete(rect, id) => {
                r.checks += 1;
                r.checks_failed += u64::from(!tree.delete(rect, *id)?);
            }
            _ => {}
        }
    }
    tree.checkpoint()?;
    let bytes = tree.store().page_count() * PAGE_SIZE as u64;
    r.bytes_per_item = bytes as f64 / tree.live_items().max(1) as f64;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree_datagen::trace::{generate, MixWeights, Skew, TraceSpec};
    use std::collections::HashMap;

    #[test]
    fn routing_keeps_each_delete_after_its_insert_on_one_connection() {
        let rects: Vec<Rect> = (0..500)
            .map(|i| {
                let x = (i as f64 * 0.618_033) % 0.98;
                let y = (i as f64 * 0.414_213) % 0.98;
                Rect::new(x, y, x + 0.01, y + 0.01)
            })
            .collect();
        let trace = generate(
            &rects,
            &TraceSpec {
                ops: 4_000,
                qx: 0.01,
                qy: 0.01,
                skew: Skew::Zipf { theta: 1.0 },
                // Delete-heavy so many deletes hit trace-inserted items.
                mix: MixWeights {
                    region: 10,
                    point: 0,
                    knn: 0,
                    insert: 10,
                    delete: 10,
                },
                seed: 11,
            },
        );
        for conns in [1, 2, 3] {
            let routes = route(&trace.ops, conns);
            let mut seen = vec![0usize; trace.ops.len()];
            // (connection, position) of each item's insert.
            let mut inserted: HashMap<u64, (usize, usize)> = HashMap::new();
            let mut checked = 0;
            for (c, mine) in routes.iter().enumerate() {
                assert!(mine.windows(2).all(|w| w[0] < w[1]), "trace order kept");
                for (pos, &i) in mine.iter().enumerate() {
                    seen[i] += 1;
                    if let TraceOp::Insert(_, id) = trace.ops[i] {
                        inserted.insert(id, (c, pos));
                    }
                }
            }
            for (c, mine) in routes.iter().enumerate() {
                for (pos, &i) in mine.iter().enumerate() {
                    if let TraceOp::Delete(_, id) = trace.ops[i] {
                        if let Some(&(ic, ipos)) = inserted.get(&id) {
                            assert_eq!(ic, c, "delete of {id} on its insert's connection");
                            assert!(ipos < pos, "delete of {id} after its insert");
                            checked += 1;
                        }
                    }
                }
            }
            assert!(seen.iter().all(|&n| n == 1), "every op routed exactly once");
            assert!(checked > 50, "the trace deletes inserted items ({checked})");
        }
    }

    #[test]
    fn reads_are_dealt_evenly() {
        let ops: Vec<TraceOp> = (0..10)
            .map(|i| TraceOp::Point(rtree_geom::Point::new(f64::from(i) / 10.0, 0.5)))
            .collect();
        let routes = route(&ops, 2);
        assert_eq!(routes[0], vec![0, 2, 4, 6, 8]);
        assert_eq!(routes[1], vec![1, 3, 5, 7, 9]);
    }
}
