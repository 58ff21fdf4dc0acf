//! perfbench: one seeded benchmark for embedded and served R-tree traffic.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates every input from the seed, sets the workload up several
//! times (`setup_s` is the median), runs a closed loop for the given
//! seconds checking every answer against the in-memory `RTree`, and
//! prints each end-to-end metric with its unit and sample count. With
//! `--trace 1` the untraced loop runs for half the time, then the same
//! op counts are replayed with spans recorded around each layer's calls,
//! and the per-layer metrics, the counter reconciliation and the tracing
//! overhead are printed. The last stdout line is one JSON object.
//! Exit status: 0 when every answer was right, 1 on any oracle mismatch
//! or counter disagreement, 2 on a usage or I/O error.

mod embedded;
mod layers;
mod legs;
mod oracle;
mod run;
mod served;
mod setup;
mod span;
mod stats;

use embedded::Embedded;
use layers::Trace;
use run::{ClientOp, Limit, RunResult};
use served::Served;
use setup::{Inputs, SetupTimes, Workload, CONNECTIONS, SETUP_REPS};
use span::{BatchMark, Tracer};
use stats::median;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Relative tolerance for traced-vs-untraced per-op counter rates on the
/// served workloads, where batching makes the counts timing-dependent.
const SERVED_TOLERANCE: f64 = 0.15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be in 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// A scratch directory under the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> io::Result<WorkDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = PathBuf::from(".perfbench_tmp").join(format!("{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent only if other runs still use it.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

/// A workload set up, warmed and waiting for its timed loop.
enum Opened {
    Embedded(Box<Embedded>),
    Served(Served),
}

impl Opened {
    fn open(inputs: &Inputs, tracer: &Trace) -> io::Result<Opened> {
        Ok(if inputs.workload.is_served() {
            Opened::Served(Served::open(inputs, tracer)?)
        } else {
            Opened::Embedded(Box::new(Embedded::open(inputs, tracer)?))
        })
    }

    fn close(self) {
        if let Opened::Served(s) = self {
            s.close();
        }
    }

    fn run(self, inputs: &Inputs, limit: &Limit, tracer: &Trace) -> io::Result<RunResult> {
        match self {
            Opened::Embedded(e) => Ok(e.run(inputs, limit)),
            Opened::Served(s) => s.run(inputs, limit, tracer),
        }
    }
}

/// One reported figure.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Sample count, basis or reason it does not apply.
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        note: note.into(),
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The end-to-end figures of one timed phase.
fn end_to_end(r: &mut RunResult, inputs: &Inputs, setup_s: f64) -> Vec<Metric> {
    let w = inputs.workload;
    let (nr, nw) = (r.reads.len(), r.writes.len());
    let (beyond90, beyond) = (r.reads.beyond(0.9), r.reads.beyond(0.99));
    let reads_per_op = match r.pass_reads {
        // Counted over exactly the first pass: repeats for a seed.
        Some(n) => ratio(n as f64, inputs.trace.ops.len() as f64),
        None => ratio(r.counters.store_reads() as f64, r.attempted as f64),
    };
    let basis = if r.pass_reads.is_some() {
        format!("first pass of {} ops", inputs.trace.ops.len())
    } else {
        format!("{} ops", r.attempted)
    };
    let mut all = vec![
        metric(
            "ops_per_s",
            r.completed() as f64 / r.elapsed_s,
            "1/s",
            format!("{} ops in {:.3} s", r.completed(), r.elapsed_s),
        ),
        metric(
            "p50_us",
            r.reads.quantile_us(0.5),
            "us",
            format!("n={nr} reads"),
        ),
        metric(
            "p90_us",
            r.reads.quantile_us(0.9),
            "us",
            format!("n={nr} reads, {beyond90} beyond"),
        ),
        metric(
            "p99_us",
            r.reads.quantile_us(0.99),
            "us",
            format!("n={nr} reads, {beyond} beyond"),
        ),
    ];
    if w.has_writes() {
        let beyond = r.writes.beyond(0.99);
        all.push(metric(
            "write_p50_us",
            r.writes.quantile_us(0.5),
            "us",
            format!("n={nw} acknowledged writes"),
        ));
        all.push(metric(
            "write_p99_us",
            r.writes.quantile_us(0.99),
            "us",
            format!("n={nw} acknowledged writes, {beyond} beyond"),
        ));
    } else {
        all.push(metric("write_p50_us", 0.0, "us", "n/a: read-only workload"));
        all.push(metric("write_p99_us", 0.0, "us", "n/a: read-only workload"));
    }
    all.push(metric("reads_per_op", reads_per_op, "count", basis));
    all.push(metric(
        "bytes_per_item",
        r.bytes_per_item,
        "bytes",
        if w.has_writes() {
            "page file after the trace's writes and one checkpoint / live items"
        } else {
            "page file / items"
        },
    ));
    all.push(metric(
        "setup_s",
        setup_s,
        "s",
        format!("median of {SETUP_REPS} set-ups"),
    ));
    all.push(metric(
        "peak_rss_mb",
        r.peak_rss_mb,
        "MiB",
        "VmHWM when the timed loop ended",
    ));
    let attempted = r.attempted + r.checks;
    all.push(metric(
        "failed_frac",
        ratio((r.failed + r.checks_failed) as f64, attempted as f64),
        "ratio",
        format!(
            "{} of {} ops, {} of {} post-run checks",
            r.failed, r.attempted, r.checks_failed, r.checks
        ),
    ));
    all
}

fn value(list: &[Metric], name: &str) -> f64 {
    list.iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

/// The end-to-end metrics in the result line: those defined, nonzero and
/// steady enough to gate on every workload. The others are printed above
/// it: the write quantiles exist only on served-mixed, `reads_per_op` is 0
/// on embedded-resident, `failed_frac` is 0 on a correct run (the result
/// line carries `failed`), and on the served workloads the read tail
/// (`p90_us`, `p99_us`) moves with scheduling hiccups of a two-core host
/// by more than any bound allows.
const JSON_END_TO_END: [&str; 5] = [
    "ops_per_s",
    "p50_us",
    "bytes_per_item",
    "setup_s",
    "peak_rss_mb",
];

/// Engine time and server self time of each served op, matched by op key
/// to the engine batch that carried it within the client's send/receive
/// interval.
#[derive(Default)]
struct Matched {
    read_engine_ns: Vec<u64>,
    read_self_ns: Vec<u64>,
    write_engine_ns: Vec<u64>,
    unmatched: usize,
}

fn match_batches(ops: &[ClientOp], marks: &[BatchMark]) -> Matched {
    let mut by_key: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for m in marks {
        by_key
            .entry(m.key)
            .or_default()
            .push((m.start_ns, m.end_ns));
    }
    let mut out = Matched::default();
    for op in ops {
        let hit = by_key
            .get(&op.key)
            .and_then(|v| v.iter().find(|&&(s, e)| s >= op.send_ns && e <= op.recv_ns));
        let Some(&(s, e)) = hit else {
            out.unmatched += 1;
            continue;
        };
        let engine = e - s;
        if op.read {
            out.read_engine_ns.push(engine);
            out.read_self_ns.push((op.recv_ns - op.send_ns) - engine);
        } else {
            out.write_engine_ns.push(engine);
        }
    }
    out
}

fn mean_us(v: &[u64]) -> f64 {
    ratio(v.iter().sum::<u64>() as f64, v.len() as f64) / 1e3
}

fn per_layer(
    inputs: &Inputs,
    b: &RunResult,
    t: &Tracer,
    legs: &legs::Legs,
    reps: &[SetupTimes],
) -> Vec<Metric> {
    let w = inputs.workload;
    let served = w.is_served();
    let readonly_served = w == Workload::ServedReadonly;
    let ops = b.attempted as f64;
    let c = &b.counters;
    let wc = b.wrapper.unwrap_or_default();
    let writes = c.writes as f64;
    let med = |f: fn(&SetupTimes) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let tree_op = t.agg("tree.op");
    let op_ns: u64 = if served {
        b.client_ops.iter().map(|o| o.recv_ns - o.send_ns).sum()
    } else {
        tree_op.total_ns
    };
    let m = match_batches(&b.client_ops, &t.marks());
    let (rb, wb) = (t.agg("engine.read"), t.agg("engine.write"));
    let batched = t.counter("engine.read_ops") + t.counter("engine.write_ops");
    let na = |applies: bool, v: f64| if applies { v } else { 0.0 };
    let why = |applies: bool, s: &str| {
        if applies {
            s.to_string()
        } else {
            "n/a on this workload".to_string()
        }
    };
    let reps_note = format!("median of {} set-ups", reps.len());
    vec![
        metric("setup.load_s", med(|s| s.load_s), "s", &*reps_note),
        metric(
            "setup.materialize_s",
            med(|s| s.materialize_s),
            "s",
            &*reps_note,
        ),
        metric("setup.trace_s", med(|s| s.trace_s), "s", &*reps_note),
        metric(
            "tree.op_us",
            na(!served, tree_op.mean_ns() / 1e3),
            "us",
            why(!served, &format!("n={} DiskRTree calls", tree_op.count)),
        ),
        metric(
            "tree.pages_per_op",
            ratio(c.accesses as f64, ops),
            "count",
            "buffer_stats().accesses",
        ),
        metric(
            "pool.hit_ratio",
            ratio(c.hits as f64, c.accesses as f64),
            "ratio",
            format!("{} of {} accesses", c.hits, c.accesses),
        ),
        metric(
            "pool.evictions_per_op",
            ratio(wc.evictions as f64, ops),
            "count",
            "replacement-policy evict() calls",
        ),
        metric(
            "store.reads_per_op",
            ratio(wc.store_reads as f64, ops),
            "count",
            format!("{} store reads", wc.store_reads),
        ),
        metric(
            "store.read_ns",
            ratio(wc.store_read_ns as f64, wc.store_reads as f64),
            "ns",
            "OS page-cache pread, not device latency",
        ),
        metric(
            "store.read_share",
            ratio(wc.store_read_ns as f64, op_ns as f64),
            "ratio",
            "store read time / op time",
        ),
        metric(
            "page.decode_ns",
            legs.decode_ns,
            "ns",
            "verified decode per page",
        ),
        metric(
            "page.decode_trusted_ns",
            legs.decode_trusted_ns,
            "ns",
            "trusted decode per page",
        ),
        metric(
            "kernel.ns_per_entry",
            legs.kernel_ns_per_entry,
            "ns",
            format!("{} kernel", rtree_geom::active_kernel().name()),
        ),
        metric(
            "kernel.scalar_ns_per_entry",
            legs.kernel_scalar_ns_per_entry,
            "ns",
            "scalar reference",
        ),
        metric(
            "exec.batch_us",
            na(readonly_served, rb.mean_ns() / 1e3),
            "us",
            why(
                readonly_served,
                &format!("n={} BatchExecutor batches", rb.count),
            ),
        ),
        metric(
            "exec.prefetch_reads_per_op",
            na(readonly_served, ratio(c.prefetch_reads as f64, ops)),
            "count",
            why(readonly_served, "IoStats.prefetch_reads"),
        ),
        metric(
            "wire.encode_ns",
            t.agg("wire.encode").mean_ns(),
            "ns",
            why(served, "Request::encode"),
        ),
        metric(
            "wire.decode_ns",
            t.agg("wire.decode").mean_ns(),
            "ns",
            why(served, "Response::decode"),
        ),
        metric(
            "wire.resp_bytes",
            ratio(
                t.counter("wire.resp_bytes") as f64,
                t.agg("wire.decode").count as f64,
            ),
            "bytes",
            why(served, "response payload per op"),
        ),
        metric(
            "batcher.ops_per_batch",
            ratio(batched as f64, (rb.count + wb.count) as f64),
            "count",
            why(served, &format!("{} batches", rb.count + wb.count)),
        ),
        metric(
            "server.self_us",
            mean_us(&m.read_self_ns),
            "us",
            why(
                served,
                &format!(
                    "read latency minus its engine batch, n={} ({} unmatched)",
                    m.read_self_ns.len(),
                    m.unmatched
                ),
            ),
        ),
        metric(
            "engine.read_us",
            mean_us(&m.read_engine_ns),
            "us",
            why(served, "engine batch span per read"),
        ),
        metric(
            "engine.write_us",
            mean_us(&m.write_engine_ns),
            "us",
            why(w.has_writes(), "engine batch span per write"),
        ),
        metric(
            "wal.syncs_per_write",
            ratio(wc.wal_syncs as f64, writes),
            "count",
            why(
                w.has_writes(),
                &format!("{} syncs, {writes} writes", wc.wal_syncs),
            ),
        ),
        metric(
            "wal.sync_us",
            ratio(wc.wal_sync_ns as f64, wc.wal_syncs as f64) / 1e3,
            "us",
            why(w.has_writes(), "FileLog sync_data"),
        ),
        metric(
            "wal.bytes_per_write",
            ratio(wc.wal_bytes as f64, writes),
            "bytes",
            why(w.has_writes(), "log bytes appended"),
        ),
        metric(
            "latch.waits_per_write",
            ratio(c.latch_waits as f64, writes),
            "count",
            why(w.has_writes(), "latch_waits()"),
        ),
        metric(
            "model.reads_per_op",
            legs.model_reads_per_op,
            "count",
            format!("ED(B) at B={} over the image", inputs.frames()),
        ),
    ]
}

fn print_metrics(label: &str, list: &[Metric]) {
    for m in list {
        println!(
            "{label} {:<28} {:>16.4} {:<6} ({})",
            m.name, m.value, m.unit, m.note
        );
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Prints the reconciliation lines; returns whether every exact identity
/// held.
fn reconcile(w: Workload, a: &RunResult, b: &RunResult) -> bool {
    let wc = b.wrapper.unwrap_or_default();
    let prog = b.counters.store_reads();
    let mut exact = true;
    let mut check = |name: &str, got: u64, want: u64| {
        let ok = got == want;
        exact &= ok;
        println!(
            "reconcile {name}: {got} vs {want}, diff {} [exact] {}",
            got as i64 - want as i64,
            if ok { "ok" } else { "MISMATCH" }
        );
    };
    check(
        "store reads, traced run: wrapper vs io_stats().reads + peek_reads",
        wc.store_reads,
        prog,
    );
    if w.has_writes() {
        check(
            "wal syncs, traced run: wrapper vs StatsReply.wal_fsyncs",
            wc.wal_syncs,
            b.counters.wal_fsyncs,
        );
    }
    if w.is_served() {
        let rate = |n: u64, d: u64| ratio(n as f64, d as f64);
        let mut pairs = vec![(
            "store reads per op",
            rate(a.counters.store_reads(), a.attempted),
            rate(b.counters.store_reads(), b.attempted),
        )];
        if w.has_writes() {
            pairs.push((
                "wal syncs per write",
                rate(a.counters.wal_fsyncs, a.counters.writes),
                rate(b.counters.wal_fsyncs, b.counters.writes),
            ));
        }
        for (name, ua, tb) in pairs {
            let rel = ratio(tb - ua, ua);
            println!(
                "reconcile {name}, traced vs untraced: {tb:.4} vs {ua:.4}, diff {:+.1}% \
                 [tolerance ±{:.0}%: batches depend on timing] {}",
                rel * 100.0,
                SERVED_TOLERANCE * 100.0,
                if rel.abs() <= SERVED_TOLERANCE {
                    "ok"
                } else {
                    "OUTSIDE TOLERANCE"
                }
            );
        }
    } else {
        check(
            "store reads, traced vs untraced over the same ops",
            prog,
            a.counters.store_reads(),
        );
    }
    exact
}

fn bench(args: &Args) -> io::Result<bool> {
    let w = args.workload;
    let work = WorkDir::create()?;
    let mut reps: Vec<SetupTimes> = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let dir = work.0.join(format!("setup{rep}"));
        std::fs::create_dir_all(&dir)?;
        let t0 = Instant::now();
        let mut inputs = Inputs::generate(w, args.seed, args.seconds, &dir, None)?;
        let t_open = Instant::now();
        let opened = Opened::open(&inputs, &None)?;
        inputs.times.open_s = t_open.elapsed().as_secs_f64();
        inputs.times.total_s = t0.elapsed().as_secs_f64();
        reps.push(inputs.times);
        if rep + 1 < SETUP_REPS {
            opened.close();
        } else {
            kept = Some((inputs, opened));
        }
    }
    let (inputs, opened) = kept.expect("at least one set-up");
    let setup_s = median(&reps.iter().map(|s| s.total_s).collect::<Vec<_>>());

    let conns = if w.is_served() { CONNECTIONS } else { 1 };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "inputs (all generated from --seed): items={} pages={} frames={} image_bytes={} \
         trace_ops={} warm_ops={} loop=closed connections={conns} kernel={}",
        setup::ITEMS,
        inputs.pages,
        inputs.frames(),
        inputs.pages * rtree_pager::PAGE_SIZE as u64,
        inputs.trace.ops.len(),
        inputs.warm.ops.len(),
        rtree_geom::active_kernel().name()
    );
    for (i, s) in reps.iter().enumerate() {
        println!(
            "setup {i}: total {:.3} s = datagen {:.3} + load {:.3} + materialize {:.3} \
             + trace {:.3} + oracle {:.3} + open/warm {:.3}",
            s.total_s, s.datagen_s, s.load_s, s.materialize_s, s.trace_s, s.oracle_s, s.open_s
        );
    }

    let untraced = if args.trace {
        Duration::from_secs_f64(args.seconds as f64 / 2.0)
    } else {
        Duration::from_secs(args.seconds)
    };
    let mut a = opened.run(&inputs, &Limit::Time(untraced), &None)?;
    let e2e_a = end_to_end(&mut a, &inputs, setup_s);
    print_metrics("e2e", &e2e_a);
    let mut correct = a.failed + a.checks_failed == 0;

    if !args.trace {
        let json: Vec<&Metric> = JSON_END_TO_END
            .iter()
            .filter_map(|n| e2e_a.iter().find(|m| m.name == *n))
            .collect();
        println!(
            "{}",
            json_line(
                correct,
                a.attempted + a.checks,
                a.failed + a.checks_failed,
                &json
            )
        );
        return Ok(correct);
    }

    // The traced phase replays the untraced phase's op counts from the
    // same starting image and warm-up.
    let tracer = Arc::new(Tracer::new());
    let traced: Trace = Some(Arc::clone(&tracer));
    let opened = Opened::open(&inputs, &traced)?;
    tracer.reset();
    let mut b = opened.run(&inputs, &Limit::Ops(a.per_conn.clone()), &traced)?;
    let e2e_b = end_to_end(&mut b, &inputs, setup_s);
    correct &= b.failed + b.checks_failed == 0;
    let legs = legs::measure(&inputs)?;
    let layer = per_layer(&inputs, &b, &tracer, &legs, &reps);
    print_metrics("layer", &layer);

    println!(
        "OS page-cache latency (not device latency): store.read_ns = {:.1} ns, \
         page.decode_ns = {:.1} ns",
        value(&layer, "store.read_ns"),
        legs.decode_ns
    );
    correct &= reconcile(w, &a, &b);
    for m in &e2e_a {
        let traced_v = value(&e2e_b, m.name);
        println!(
            "overhead {:<16} untraced {:>14.4} traced {:>14.4} diff {:>+12.4} {}",
            m.name,
            m.value,
            traced_v,
            traced_v - m.value,
            m.unit
        );
    }
    println!("spans (traced run): name count mean_ns self_ns_total");
    for (name, agg) in tracer.all_spans() {
        println!(
            "span {name:<18} {:>10} {:>12.1} {:>14}",
            agg.count,
            agg.mean_ns(),
            agg.self_ns()
        );
    }
    for s in tracer.sample().iter().take(12) {
        println!(
            "span-sample op={:#x} {} start={} end={} parent={}",
            s.op,
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent.unwrap_or("-")
        );
    }
    let json: Vec<&Metric> = layer.iter().collect();
    println!(
        "{}",
        json_line(
            correct,
            a.attempted + a.checks + b.attempted + b.checks,
            a.failed + a.checks_failed + b.failed + b.checks_failed,
            &json
        )
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
