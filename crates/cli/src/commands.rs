//! The subcommands.

use crate::args::{err, Args, CliError};
use rtree_buffer::{
    BufferPool, ClockPolicy, FifoPolicy, LruKPolicy, LruPolicy, RandomPolicy, ReplacementPolicy,
};
use rtree_core::{BufferModel, TreeDescription, Workload};
use rtree_datagen::{
    centers, from_csv, to_csv, CfdLike, ClusteredPoints, SyntheticPoint, SyntheticRegion, TigerLike,
};
use rtree_geom::Rect;
use rtree_index::{BulkLoader, RTree, TupleAtATime};
use rtree_sim::{flat_trace, QuerySampler};
use std::fmt::Write as _;

/// Executes a parsed command; returns the text to print. File writes happen
/// inside (`--out`); everything else is returned.
pub fn run(args: &Args) -> Result<String, CliError> {
    match args.command.as_str() {
        "generate" => generate(args),
        "build" => build(args),
        "model" => model(args),
        "tune" => tune(args),
        "simulate" => simulate(args),
        "update" => update(args),
        "batch" => batch(args),
        "concurrent" => concurrent(args),
        "trace" => trace(args),
        "chaos" => chaos(args),
        "macrobench" => macrobench(args),
        "serve" => serve(args),
        "loadgen" => loadgen(args),
        other => Err(err(format!("unknown subcommand {other:?}"))),
    }
}

fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| err(format!("reading {path}: {e}")))
}

fn write_or_return(args: &Args, content: String, what: &str) -> Result<String, CliError> {
    match args.flag("out") {
        Some(path) => {
            std::fs::write(path, &content).map_err(|e| err(format!("writing {path}: {e}")))?;
            Ok(format!("wrote {what} to {path}\n"))
        }
        None => Ok(content),
    }
}

fn generate(args: &Args) -> Result<String, CliError> {
    args.allow_flags(&["seed", "out"])?;
    let seed: u64 = args.flag_or("seed", 42u64)?;
    let spec = args.positional.as_str();
    let rects = parse_dataset_spec(spec, seed)?;
    write_or_return(args, to_csv(&rects), &format!("{} rectangles", rects.len()))
}

/// Parses `tiger | cfd | region:N | point:N | clustered:N:K:SIGMA`.
fn parse_dataset_spec(spec: &str, seed: u64) -> Result<Vec<Rect>, CliError> {
    let parts: Vec<&str> = spec.split(':').collect();
    let n_of = |s: &str| -> Result<usize, CliError> {
        s.parse().map_err(|e| err(format!("bad count {s:?}: {e}")))
    };
    match parts.as_slice() {
        ["tiger"] => Ok(TigerLike::paper().generate(seed)),
        ["cfd"] => Ok(CfdLike::paper().generate(seed)),
        ["region", n] => Ok(SyntheticRegion::new(n_of(n)?).generate(seed)),
        ["point", n] => Ok(SyntheticPoint::new(n_of(n)?).generate(seed)),
        ["clustered", n, k, sigma] => {
            let sigma: f64 = sigma
                .parse()
                .map_err(|e| err(format!("bad sigma {sigma:?}: {e}")))?;
            Ok(ClusteredPoints::new(n_of(n)?, n_of(k)?, sigma).generate(seed))
        }
        _ => Err(err(format!("unknown data spec {spec:?}"))),
    }
}

fn build_tree(rects: &[Rect], loader: &str, cap: usize) -> Result<RTree, CliError> {
    Ok(match loader.to_uppercase().as_str() {
        "TAT" => TupleAtATime::quadratic(cap).load(rects),
        "RSTAR" | "R*" => TupleAtATime::rstar(cap).load(rects),
        "NX" => BulkLoader::nearest_x(cap).load(rects),
        "HS" => BulkLoader::hilbert(cap).load(rects),
        "MORTON" => BulkLoader::morton(cap).load(rects),
        "STR" => BulkLoader::str_pack(cap).load(rects),
        other => return Err(err(format!("unknown loader {other:?}"))),
    })
}

fn build(args: &Args) -> Result<String, CliError> {
    args.allow_flags(&["loader", "cap", "out"])?;
    let rects = from_csv(&read_file(&args.positional)?).map_err(CliError)?;
    if rects.is_empty() {
        return Err(err("data set is empty"));
    }
    let cap: usize = args.flag_or("cap", 100usize)?;
    let loader = args.flag("loader").unwrap_or("HS");
    let tree = build_tree(&rects, loader, cap)?;
    let desc = TreeDescription::from_tree(&tree);
    let mut summary = format!(
        "# {} items, loader {}, cap {cap}: {} nodes over {} levels {:?}\n",
        tree.len(),
        loader.to_uppercase(),
        desc.total_nodes(),
        desc.height(),
        desc.nodes_per_level()
    );
    summary.push_str(&desc.to_text());
    write_or_return(args, summary, "tree description")
}

fn parse_workload(spec: &str) -> Result<Workload, CliError> {
    let parts: Vec<&str> = spec.split(':').collect();
    let q_of = |s: &str| -> Result<f64, CliError> {
        let v: f64 = s
            .parse()
            .map_err(|e| err(format!("bad query size {s:?}: {e}")))?;
        if !(0.0..1.0).contains(&v) {
            return Err(err(format!("query size {v} must be in [0, 1)")));
        }
        Ok(v)
    };
    match parts.as_slice() {
        ["point"] => Ok(Workload::uniform_point()),
        ["region", qx, qy] => Ok(Workload::uniform_region(q_of(qx)?, q_of(qy)?)),
        ["data", qx, qy, path] => {
            let (qx, qy) = (q_of(qx)?, q_of(qy)?);
            let rects = from_csv(&read_file(path)?).map_err(CliError)?;
            if rects.is_empty() {
                return Err(err("data-driven workload needs a non-empty data set"));
            }
            Ok(Workload::data_driven(qx, qy, centers(&rects)))
        }
        _ => Err(err(format!("unknown workload {spec:?}"))),
    }
}

fn model(args: &Args) -> Result<String, CliError> {
    args.allow_flags(&["workload", "buffers", "pin"])?;
    let desc = TreeDescription::from_text(&read_file(&args.positional)?)
        .map_err(|e| err(format!("parsing description: {e}")))?;
    let workload = parse_workload(args.flag("workload").unwrap_or("point"))?;
    let buffers = args.flag_list("buffers", &[10, 50, 100, 200, 400])?;
    let pin: usize = args.flag_or("pin", 0usize)?;
    let model = BufferModel::new(&desc, &workload);

    let mut out = String::new();
    // `fmt::Write` into a `String` cannot fail; discard the Ok(()) rather
    // than `.expect()` so an (impossible) error can't panic a report path.
    let _ = writeln!(
        out,
        "tree: {} nodes {:?}; expected nodes visited/query (no buffer): {:.4}",
        desc.total_nodes(),
        desc.nodes_per_level(),
        model.expected_node_accesses()
    );
    let _ = writeln!(
        out,
        "{:>10}  {:>34}  {:>22}",
        "buffer", "warm-up N*", "disk accesses/query"
    );
    for b in buffers {
        // The warm-up column is typed: a buffer too large for the reachable
        // working set reports *why* there is no N* instead of a blank.
        let warm = if pin == 0 {
            model.warmup(b).to_string()
        } else {
            "-".to_string()
        };
        let ed = if pin == 0 {
            Ok(model.expected_disk_accesses(b))
        } else {
            model
                .expected_disk_accesses_pinned(b, pin)
                .map_err(|e| e.to_string())
        };
        match ed {
            Ok(v) => {
                let _ = writeln!(out, "{b:>10}  {warm:>34}  {v:>22.4}");
            }
            Err(e) => {
                let _ = writeln!(out, "{b:>10}  {warm:>34}  {e:>22}");
            }
        }
    }
    if pin > 0 {
        let _ = writeln!(
            out,
            "(top {pin} levels pinned: {} pages)",
            model.pinned_pages(pin)
        );
    }
    Ok(out)
}

fn tune(args: &Args) -> Result<String, CliError> {
    use rtree_tune::{Controller, ControllerConfig, Setting};

    args.allow_flags(&["workload", "buffers", "queries", "budget", "seed"])?;
    let desc = TreeDescription::from_text(&read_file(&args.positional)?)
        .map_err(|e| err(format!("parsing description: {e}")))?;
    let workload = parse_workload(args.flag("workload").unwrap_or("point"))?;
    let buffers = args.flag_list("buffers", &[10, 50, 100, 200, 400])?;
    let queries: usize = args.flag_or("queries", 50_000usize)?;
    let seed: u64 = args.flag_or("seed", 0xC11u64)?;
    if queries == 0 {
        return Err(err("--queries must be at least 1"));
    }
    if buffers.contains(&0) {
        return Err(err("buffer sizes must be positive"));
    }
    let budget: usize = args.flag_or("budget", buffers.iter().copied().max().unwrap_or(100))?;
    if budget == 0 {
        return Err(err("--budget must be positive"));
    }

    let model = BufferModel::new(&desc, &workload);
    let mbrs: Vec<Rect> = desc.iter().map(|(_, r)| *r).collect();

    let mut out = format!(
        "tree: {} nodes {:?}; workload {}\n",
        desc.total_nodes(),
        desc.nodes_per_level(),
        args.flag("workload").unwrap_or("point"),
    );
    let _ = writeln!(
        out,
        "{:>10}  {:>34}  {:>10}  {:>10}  {:>8}",
        "buffer", "warm-up N*", "predicted", "measured", "error"
    );
    for &b in &buffers {
        // Measure: the paper's flat LRU simulation over the description,
        // warmed past the model's own N* (bounded for huge predictions).
        let warm_for = match model.warmup(b).queries() {
            Some(n) => ((n as usize).saturating_mul(4)).clamp(queries / 4, 4 * queries),
            None => queries / 4,
        };
        let mut pool = BufferPool::new(b, Box::new(LruPolicy::new()) as Box<dyn ReplacementPolicy>);
        let mut sampler = QuerySampler::new(&workload, seed);
        for _ in 0..warm_for.max(1) {
            let q = sampler.sample();
            for page in flat_trace(&mbrs, &q) {
                pool.access(page);
            }
        }
        pool.reset_stats();
        let mut misses = 0u64;
        for _ in 0..queries {
            let q = sampler.sample();
            for page in flat_trace(&mbrs, &q) {
                if pool.access(page).is_miss() {
                    misses += 1;
                }
            }
        }
        let measured = misses as f64 / queries as f64;
        let predicted = model.expected_disk_accesses(b);
        let error = if measured > 0.0 {
            format!("{:>+7.1}%", (predicted - measured) / measured * 100.0)
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            out,
            "{b:>10}  {:>34}  {predicted:>10.4}  {measured:>10.4}  {error:>8}",
            model.warmup(b).to_string(),
        );
    }

    // What the online controller would do with this workload: its knee
    // plan within the frame budget.
    let controller = Controller::new(
        desc,
        Setting {
            buffer: budget,
            pin_levels: 0,
        },
        ControllerConfig::new(budget),
    );
    let (plan, ed) = controller.plan(&model);
    let _ = writeln!(
        out,
        "controller plan within budget {budget}: {plan} (predicted {ed:.4} disk accesses/query)"
    );
    Ok(out)
}

/// A policy name resolved ahead of construction, so the per-shard factory
/// closures the sharded constructors require can build instances without a
/// fallible (re-)parse inside the closure.
#[derive(Clone, Copy)]
enum PolicyKind {
    Lru,
    Lru2,
    Fifo,
    Clock,
    Random(u64),
}

impl PolicyKind {
    fn build(self) -> Box<dyn ReplacementPolicy> {
        match self {
            PolicyKind::Lru => Box::new(LruPolicy::new()),
            PolicyKind::Lru2 => Box::new(LruKPolicy::lru2()),
            PolicyKind::Fifo => Box::new(FifoPolicy::new()),
            PolicyKind::Clock => Box::new(ClockPolicy::new()),
            PolicyKind::Random(seed) => Box::new(RandomPolicy::new(seed)),
        }
    }
}

fn parse_policy(name: &str, seed: u64) -> Result<PolicyKind, CliError> {
    Ok(match name.to_uppercase().as_str() {
        "LRU" => PolicyKind::Lru,
        "LRU2" | "LRU-2" => PolicyKind::Lru2,
        "FIFO" => PolicyKind::Fifo,
        "CLOCK" => PolicyKind::Clock,
        "RANDOM" => PolicyKind::Random(seed),
        other => return Err(err(format!("unknown policy {other:?}"))),
    })
}

fn make_policy(name: &str, seed: u64) -> Result<Box<dyn ReplacementPolicy>, CliError> {
    Ok(parse_policy(name, seed)?.build())
}

fn simulate(args: &Args) -> Result<String, CliError> {
    args.allow_flags(&["workload", "buffer", "queries", "policy", "seed"])?;
    let desc = TreeDescription::from_text(&read_file(&args.positional)?)
        .map_err(|e| err(format!("parsing description: {e}")))?;
    let workload = parse_workload(args.flag("workload").unwrap_or("point"))?;
    let buffer: usize = args.flag_or("buffer", 100usize)?;
    let queries: usize = args.flag_or("queries", 100_000usize)?;
    let seed: u64 = args.flag_or("seed", 0xC11u64)?;
    let policy = make_policy(args.flag("policy").unwrap_or("LRU"), seed)?;
    if buffer == 0 {
        return Err(err("--buffer must be positive"));
    }

    // The paper's literal simulator: check every node MBR per query.
    let mbrs: Vec<Rect> = desc.iter().map(|(_, r)| *r).collect();
    let mut pool = BufferPool::new(buffer, policy);
    let mut sampler = QuerySampler::new(&workload, seed);

    let warmup = (queries / 4).max(1);
    for _ in 0..warmup {
        let q = sampler.sample();
        for page in flat_trace(&mbrs, &q) {
            pool.access(page);
        }
    }
    pool.reset_stats();

    let mut misses = 0u64;
    let mut nodes = 0u64;
    for _ in 0..queries {
        let q = sampler.sample();
        for page in flat_trace(&mbrs, &q) {
            nodes += 1;
            if pool.access(page).is_miss() {
                misses += 1;
            }
        }
    }

    let model = BufferModel::new(&desc, &workload).expected_disk_accesses(buffer);
    Ok(format!(
        "simulated {queries} queries ({} policy, buffer {buffer}):\n\
         nodes accessed/query: {:.4}\n\
         disk accesses/query:  {:.4}   (LRU model predicts {model:.4})\n\
         hit ratio:            {:.4}\n",
        pool.policy_name(),
        nodes as f64 / queries as f64,
        misses as f64 / queries as f64,
        pool.stats().hit_ratio(),
    ))
}

fn batch(args: &Args) -> Result<String, CliError> {
    use rtree_bench::Table;
    use rtree_exec::{BatchConfig, BatchExecutor};
    use rtree_pager::{DiskRTree, MemStore};

    args.allow_flags(&[
        "loader", "cap", "buffer", "queries", "workload", "policy", "seed", "window", "sizes",
        "json",
    ])?;
    let rects = from_csv(&read_file(&args.positional)?).map_err(CliError)?;
    if rects.is_empty() {
        return Err(err("data set is empty"));
    }
    let cap: usize = args.flag_or("cap", 50usize)?;
    if !(4..=rtree_pager::MAX_ENTRIES_PER_PAGE).contains(&cap) {
        return Err(err(format!(
            "--cap must be in 4..={}",
            rtree_pager::MAX_ENTRIES_PER_PAGE
        )));
    }
    let buffer: usize = args.flag_or("buffer", 100usize)?;
    if buffer == 0 {
        return Err(err("--buffer must be positive"));
    }
    let queries: usize = args.flag_or("queries", 1_024usize)?;
    if queries == 0 {
        return Err(err("--queries must be positive"));
    }
    let seed: u64 = args.flag_or("seed", 0xBA7Cu64)?;
    let window: usize = args.flag_or("window", 8usize)?;
    let sizes = args.flag_list("sizes", &[1, 4, 16, 64, 256, 1024])?;
    if sizes.contains(&0) {
        return Err(err("--sizes entries must be positive"));
    }
    let workload = parse_workload(args.flag("workload").unwrap_or("region:0.05:0.05"))?;
    let policy_name = args.flag("policy").unwrap_or("LRU");
    let policy = parse_policy(policy_name, seed)?; // fail before the build
    let tree = build_tree(&rects, args.flag("loader").unwrap_or("HS"), cap)?;

    // One fixed query stream: every batch size answers the identical
    // queries against an equally cold tree, so the curve isolates batching.
    let mut sampler = QuerySampler::new(&workload, seed);
    let stream: Vec<Rect> = (0..queries).map(|_| sampler.sample()).collect();

    let mut table = Table::new(
        format!(
            "batched execution: {queries} queries, {} policy, buffer {buffer}, window {window}",
            policy_name.to_uppercase(),
        ),
        &[
            "batch",
            "reads/query",
            "hit ratio",
            "dedup saved",
            "prefetched",
        ],
    );
    for &size in &sizes {
        let mut disk = DiskRTree::create(MemStore::new(), &tree, buffer, policy.build())
            .map_err(|e| err(format!("creating tree: {e}")))?;
        let exec = BatchExecutor::with_config(BatchConfig {
            prefetch_window: window,
        });
        let (mut work, mut requests, mut prefetched) = (0u64, 0u64, 0u64);
        for chunk in stream.chunks(size) {
            let out = exec
                .execute(&mut disk, chunk)
                .map_err(|e| err(format!("batch: {e}")))?;
            work += out.stats.work_items;
            requests += out.stats.page_requests;
            prefetched += out.stats.prefetched;
        }
        table.row(vec![
            size.to_string(),
            format!("{:.4}", disk.physical_reads() as f64 / queries as f64),
            format!("{:.4}", disk.buffer_stats().hit_ratio()),
            format!("{:.4}", 1.0 - work as f64 / requests.max(1) as f64),
            prefetched.to_string(),
        ]);
    }
    if args.flag_bool("json") {
        return Ok(table.to_json());
    }
    Ok(table.render())
}

fn concurrent(args: &Args) -> Result<String, CliError> {
    use rtree_pager::{ConcurrentDiskRTree, MemStore};
    use std::sync::Arc;

    args.allow_flags(&[
        "loader", "cap", "buffer", "threads", "shards", "pin", "queries", "workload", "policy",
        "seed",
    ])?;
    let rects = from_csv(&read_file(&args.positional)?).map_err(CliError)?;
    if rects.is_empty() {
        return Err(err("data set is empty"));
    }
    let cap: usize = args.flag_or("cap", 50usize)?;
    if !(4..=rtree_pager::MAX_ENTRIES_PER_PAGE).contains(&cap) {
        return Err(err(format!(
            "--cap must be in 4..={}",
            rtree_pager::MAX_ENTRIES_PER_PAGE
        )));
    }
    let buffer: usize = args.flag_or("buffer", 100usize)?;
    if buffer == 0 {
        return Err(err("--buffer must be positive"));
    }
    let threads: usize = args.flag_or("threads", 4usize)?;
    if threads == 0 {
        return Err(err("--threads must be positive"));
    }
    let shards: usize = args.flag_or("shards", 0usize)?; // 0 = one per hardware thread
    let pin: usize = args.flag_or("pin", 0usize)?;
    let queries: usize = args.flag_or("queries", 100_000usize)?;
    let seed: u64 = args.flag_or("seed", 0xC0Cu64)?;
    let workload = parse_workload(args.flag("workload").unwrap_or("region:0.05:0.05"))?;
    let policy_name = args.flag("policy").unwrap_or("LRU");
    let policy = parse_policy(policy_name, seed)?; // fail before the build
    let tree = build_tree(&rects, args.flag("loader").unwrap_or("HS"), cap)?;

    let disk = Arc::new(
        ConcurrentDiskRTree::create_sharded(MemStore::new(), &tree, buffer, shards, move || {
            policy.build()
        })
        .map_err(|e| err(format!("creating tree: {e}")))?,
    );
    if pin > 0 {
        disk.pin_top_levels(pin)
            .map_err(|e| err(format!("pinning: {e}")))?;
    }

    // Warm up single-threaded, then measure the threaded steady state.
    let mut warm = QuerySampler::new(&workload, seed ^ 0xAAAA);
    for _ in 0..(queries / 4).max(1) {
        disk.query(&warm.sample())
            .map_err(|e| err(format!("query: {e}")))?;
    }
    disk.reset_counters();

    let per_thread = queries.div_ceil(threads);
    let started = std::time::Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let disk = Arc::clone(&disk);
                let workload = workload.clone();
                scope.spawn(move || -> Result<u64, String> {
                    let mut sampler = QuerySampler::new(&workload, seed + 1 + t as u64);
                    let mut found = 0u64;
                    for _ in 0..per_thread {
                        found += disk
                            .query(&sampler.sample())
                            .map_err(|e| format!("query: {e}"))?
                            .len() as u64;
                    }
                    Ok(found)
                })
            })
            .collect();
        let mut found = 0u64;
        for h in handles {
            found += h
                .join()
                .map_err(|_| err("worker thread panicked"))?
                .map_err(CliError)?;
        }
        Ok::<u64, CliError>(found)
    })?;
    let elapsed = started.elapsed().as_secs_f64();

    let total = (threads * per_thread) as f64;
    let stats = disk.buffer_stats();
    Ok(format!(
        "concurrent run: {} queries on {threads} threads ({} policy, buffer {buffer}, {} shards):\n\
         throughput:           {:.0} queries/s\n\
         disk reads/query:     {:.4}\n\
         hit ratio:            {:.4}\n\
         root peek reads:      {}\n",
        threads * per_thread,
        policy_name.to_uppercase(),
        disk.shard_count(),
        total / elapsed,
        disk.physical_reads() as f64 / total,
        stats.hit_ratio(),
        disk.peek_reads(),
    ))
}

fn trace(args: &Args) -> Result<String, CliError> {
    use rtree_bench::Table;
    use rtree_obs::{PerLevelSink, PromText, TraceSink};
    use rtree_pager::{ConcurrentDiskRTree, MemStore};
    use std::sync::Arc;

    args.allow_flags(&[
        "loader", "cap", "buffer", "threads", "shards", "pin", "queries", "workload", "policy",
        "seed", "json", "prom",
    ])?;
    if args.flag_bool("json") && args.flag_bool("prom") {
        return Err(err("--json and --prom are mutually exclusive"));
    }
    let rects = from_csv(&read_file(&args.positional)?).map_err(CliError)?;
    if rects.is_empty() {
        return Err(err("data set is empty"));
    }
    let cap: usize = args.flag_or("cap", 50usize)?;
    if !(4..=rtree_pager::MAX_ENTRIES_PER_PAGE).contains(&cap) {
        return Err(err(format!(
            "--cap must be in 4..={}",
            rtree_pager::MAX_ENTRIES_PER_PAGE
        )));
    }
    let buffer: usize = args.flag_or("buffer", 100usize)?;
    if buffer == 0 {
        return Err(err("--buffer must be positive"));
    }
    let threads: usize = args.flag_or("threads", 1usize)?;
    if threads == 0 {
        return Err(err("--threads must be positive"));
    }
    // One shard by default: the paper's sequential accounting, so the trace
    // reconciles against a single pool's counters.
    let shards: usize = args.flag_or("shards", 1usize)?;
    let pin: usize = args.flag_or("pin", 0usize)?;
    let queries: usize = args.flag_or("queries", 10_000usize)?;
    let seed: u64 = args.flag_or("seed", 0x7ACEu64)?;
    let workload = parse_workload(args.flag("workload").unwrap_or("region:0.05:0.05"))?;
    let policy_name = args.flag("policy").unwrap_or("LRU");
    let policy = parse_policy(policy_name, seed)?; // fail before the build
    let tree = build_tree(&rects, args.flag("loader").unwrap_or("HS"), cap)?;

    let mut disk =
        ConcurrentDiskRTree::create_sharded(MemStore::new(), &tree, buffer, shards, move || {
            policy.build()
        })
        .map_err(|e| err(format!("creating tree: {e}")))?;
    // The sink must be installed before the tree is shared across threads.
    let sink = Arc::new(PerLevelSink::new());
    disk.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn TraceSink>));
    let disk = Arc::new(disk);
    if pin > 0 {
        disk.pin_top_levels(pin)
            .map_err(|e| err(format!("pinning: {e}")))?;
    }

    let per_thread = queries.div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let disk = Arc::clone(&disk);
                let workload = workload.clone();
                scope.spawn(move || -> Result<(), String> {
                    let mut sampler = QuerySampler::new(&workload, seed + 1 + t as u64);
                    for _ in 0..per_thread {
                        disk.query(&sampler.sample())
                            .map_err(|e| format!("query: {e}"))?;
                    }
                    Ok(())
                })
            })
            .collect();
        for h in handles {
            h.join()
                .map_err(|_| err("worker thread panicked"))?
                .map_err(CliError)?;
        }
        Ok::<(), CliError>(())
    })?;

    let height = disk.meta().height as i16;
    let stats = disk.io_stats();
    let pool = disk.buffer_stats();
    let counts = sink.counts();
    let metrics = disk.query_metrics();
    // All worker threads have been joined, so the relaxed counters are
    // final: the event stream must reconcile exactly with the I/O and pool
    // statistics.
    let reconciled = counts.misses == stats.reads
        && counts.peek_reads == stats.peek_reads
        && counts.write_backs == stats.writes
        && counts.accesses() == pool.accesses;

    // Report levels in the paper's orientation: root = level 0.
    let mut levels = sink.level_counts();
    levels.reverse();
    let paper_level = |onpage: i16| {
        if onpage < 0 {
            "-".to_string()
        } else {
            (height - 1 - onpage).to_string()
        }
    };

    if args.flag_bool("prom") {
        let mut prom = PromText::new();
        prom.counter(
            "rtree_trace_events_total",
            "Trace events by kind",
            &[("kind", "hit")],
            counts.hits,
        );
        prom.counter(
            "rtree_trace_events_total",
            "Trace events by kind",
            &[("kind", "miss")],
            counts.misses,
        );
        prom.counter(
            "rtree_trace_events_total",
            "Trace events by kind",
            &[("kind", "peek_read")],
            counts.peek_reads,
        );
        for lc in &levels {
            let l = paper_level(lc.level);
            prom.counter(
                "rtree_trace_level_hits_total",
                "Pool hits per tree level (root = 0)",
                &[("level", &l)],
                lc.hits,
            );
            prom.counter(
                "rtree_trace_level_misses_total",
                "Physical reads per tree level (root = 0)",
                &[("level", &l)],
                lc.misses,
            );
        }
        prom.histogram(
            "rtree_query_latency_ns",
            "Wall-clock query latency (ns)",
            &[],
            &metrics.latency_ns,
        );
        prom.histogram(
            "rtree_query_reads",
            "Physical reads per query",
            &[],
            &metrics.reads_per_query,
        );
        prom.histogram(
            "rtree_query_pins",
            "Pages accessed per query",
            &[],
            &metrics.pins_per_query,
        );
        return Ok(prom.into_string());
    }

    let mut table = Table::new(
        format!(
            "per-level buffer trace: {queries} queries, {} policy, buffer {buffer}, {} shards",
            policy_name.to_uppercase(),
            disk.shard_count(),
        ),
        &["level", "accesses", "hits", "misses", "hit ratio"],
    );
    for lc in &levels {
        table.row(vec![
            paper_level(lc.level),
            (lc.hits + lc.misses).to_string(),
            lc.hits.to_string(),
            lc.misses.to_string(),
            format!("{:.4}", lc.hit_ratio()),
        ]);
    }
    if args.flag_bool("json") {
        return Ok(table.to_json());
    }

    let lat = &metrics.latency_ns;
    let mut out = table.render();
    let _ = writeln!(
        out,
        "totals: {} accesses, {} hits, {} misses, {} root peek reads",
        counts.accesses(),
        counts.hits,
        counts.misses,
        counts.peek_reads,
    );
    let _ = writeln!(
        out,
        "latency/query: p50 {:.1} us, p99 {:.1} us (upper bucket bounds, {} samples)",
        lat.quantile(0.50) as f64 / 1_000.0,
        lat.quantile(0.99) as f64 / 1_000.0,
        lat.count(),
    );
    let _ = writeln!(
        out,
        "reconciled with IoStats/BufferStats: {}",
        if reconciled { "yes" } else { "NO" },
    );
    Ok(out)
}

fn update(args: &Args) -> Result<String, CliError> {
    use rtree_pager::{DiskRTree, MemStore};
    use rtree_wal::{LogBackend, MemLog, Wal};

    args.allow_flags(&["cap", "buffer", "policy", "deletes", "checkpoint", "seed"])?;
    let rects = from_csv(&read_file(&args.positional)?).map_err(CliError)?;
    if rects.is_empty() {
        return Err(err("data set is empty"));
    }
    let cap: usize = args.flag_or("cap", 50usize)?;
    if !(4..=rtree_pager::MAX_ENTRIES_PER_PAGE).contains(&cap) {
        return Err(err(format!(
            "--cap must be in 4..={}",
            rtree_pager::MAX_ENTRIES_PER_PAGE
        )));
    }
    let buffer: usize = args.flag_or("buffer", 100usize)?;
    if buffer == 0 {
        return Err(err("--buffer must be positive"));
    }
    let deletes: f64 = args.flag_or("deletes", 0.25f64)?;
    if !(0.0..=1.0).contains(&deletes) {
        return Err(err("--deletes must be a fraction in [0, 1]"));
    }
    let checkpoint: usize = args.flag_or("checkpoint", 1000usize)?;
    let seed: u64 = args.flag_or("seed", 0xD15Cu64)?;
    let policy = make_policy(args.flag("policy").unwrap_or("LRU"), seed)?;
    let min = (cap * 2 / 5).max(2);

    let log = MemLog::new();
    let mut disk = DiskRTree::create_empty(MemStore::new(), cap, min, buffer, policy)
        .map_err(|e| err(format!("creating tree: {e}")))?;
    disk.attach_wal(Wal::open(log.clone()).map_err(|e| err(format!("opening wal: {e}")))?);
    let io = |e: std::io::Error| err(format!("write path: {e}"));

    // Inserts, with periodic checkpoints (flush + log truncation). The log
    // bytes appended between checkpoints are accumulated before each
    // truncation to report total log traffic.
    let mut wal_bytes = 0u64;
    let mut ops = 0usize;
    let mut tick = |disk: &mut DiskRTree<MemStore>, wal_bytes: &mut u64| -> Result<(), CliError> {
        ops += 1;
        if checkpoint > 0 && ops.is_multiple_of(checkpoint) {
            *wal_bytes += log.len();
            disk.checkpoint().map_err(io)?;
        }
        Ok(())
    };
    for (id, r) in rects.iter().enumerate() {
        disk.insert(*r, id as u64).map_err(io)?;
        tick(&mut disk, &mut wal_bytes)?;
    }
    let insert_stats = disk.io_stats();
    disk.reset_counters();

    // Deletes: a deterministic pseudo-random fraction of the inserted ids.
    let n = rects.len();
    let n_delete = (n as f64 * deletes) as usize;
    let mut deleted = 0usize;
    let mut x = seed | 1;
    for _ in 0..n_delete {
        // xorshift64* is plenty for picking victims.
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let id = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n as u64) as usize;
        if disk.delete(&rects[id], id as u64).map_err(io)? {
            deleted += 1;
        }
        tick(&mut disk, &mut wal_bytes)?;
    }
    let delete_stats = disk.io_stats();
    disk.flush().map_err(io)?;
    wal_bytes += log.len();

    let per = |count: u64, ops: usize| {
        if ops == 0 {
            "-".to_string()
        } else {
            format!("{:.3}", count as f64 / ops as f64)
        }
    };
    Ok(format!(
        "write workload over {n} items (cap {cap}, buffer {buffer}, checkpoint every {checkpoint} ops):\n\
         inserts: {n}   physical writes/op: {}   reads/op: {}\n\
         deletes: {deleted} (of {n_delete} tried)   physical writes/op: {}   reads/op: {}\n\
         final tree: {} items, {} nodes, height {}\n\
         WAL traffic: {:.1} KiB total ({:.2} KiB/op)\n",
        per(insert_stats.writes, n),
        per(insert_stats.reads, n),
        per(delete_stats.writes, n_delete),
        per(delete_stats.reads, n_delete),
        disk.meta().items,
        disk.meta().nodes,
        disk.meta().height,
        wal_bytes as f64 / 1024.0,
        wal_bytes as f64 / 1024.0 / (n + n_delete) as f64,
    ))
}

/// Parses `A..B` (half-open) into the seed list `A..B`.
fn parse_seed_range(spec: &str) -> Result<Vec<u64>, CliError> {
    let (lo, hi) = spec
        .split_once("..")
        .ok_or_else(|| err(format!("--seeds {spec:?}: expected A..B")))?;
    let lo: u64 = lo
        .parse()
        .map_err(|e| err(format!("--seeds start {lo:?}: {e}")))?;
    let hi: u64 = hi
        .parse()
        .map_err(|e| err(format!("--seeds end {hi:?}: {e}")))?;
    if lo >= hi {
        return Err(err(format!("--seeds {spec:?}: empty range")));
    }
    Ok((lo..hi).collect())
}

fn chaos(args: &Args) -> Result<String, CliError> {
    args.allow_flags(&["seed", "seeds", "ops", "plant"])?;
    let ops: usize = args.flag_or("ops", 400usize)?;
    if ops == 0 {
        return Err(err("--ops must be at least 1"));
    }
    let plant = args.flag_bool("plant");
    let seeds: Vec<u64> = match (args.flag("seeds"), args.flag("seed")) {
        (Some(_), Some(_)) => return Err(err("--seed and --seeds are mutually exclusive")),
        (Some(range), None) => parse_seed_range(range)?,
        (None, _) => vec![args.flag_or("seed", 0u64)?],
    };

    let mut out = String::new();
    let mut failed = 0usize;
    for &seed in &seeds {
        let report = if plant {
            rtree_chaos::run_planted(seed, ops)
        } else {
            rtree_chaos::run(seed, ops)
        };
        let _ = writeln!(
            out,
            "seed {seed}: fault {}, {}/{} ops committed, {} items, {} queries checked — {}",
            report.fault,
            report.ops_executed,
            report.ops_requested,
            report.committed_items,
            report.queries_checked,
            if report.passed() { "ok" } else { "FAIL" },
        );
        if !report.passed() {
            failed += 1;
            for f in &report.failures {
                let _ = writeln!(out, "  [{}] {}", f.oracle, f.detail);
            }
            // Shrink to the minimal reproducing prefix and print the exact
            // replay command.
            if let Some(k) = rtree_chaos::shrink(seed, ops, plant) {
                let _ = writeln!(
                    out,
                    "  shrunk to {k} ops — replay: rtrees chaos --seed {seed} --ops {k}{}",
                    if plant { " --plant" } else { "" },
                );
            }
        }
    }
    if failed > 0 {
        Err(CliError(format!(
            "{failed} of {} chaos run(s) failed an oracle\n{out}",
            seeds.len()
        )))
    } else {
        Ok(out)
    }
}

/// Parses `uniform | zipf | zipf:THETA | shifting` into a trace skew.
fn parse_skew(spec: &str) -> Result<rtree_datagen::Skew, CliError> {
    use rtree_datagen::Skew;
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["uniform"] => Ok(Skew::Uniform),
        ["zipf"] => Ok(Skew::Zipf { theta: 1.0 }),
        ["zipf", theta] => {
            let theta: f64 = theta
                .parse()
                .map_err(|e| err(format!("bad zipf theta {theta:?}: {e}")))?;
            if theta.is_nan() || theta <= 0.0 {
                return Err(err("zipf theta must be positive"));
            }
            Ok(Skew::Zipf { theta })
        }
        ["shifting"] => Ok(Skew::Shifting),
        _ => Err(err(format!("unknown skew {spec:?}"))),
    }
}

/// `macrobench`: replays one recorded trace against both page formats at an
/// equal frame budget and reports effective OPS per cell. The same tool as
/// the `rtree-bench` binary's full grid, but for a single dataset × policy ×
/// skew cell the user picks — and with `--record`/`--replay` exposing the
/// trace file so a measured workload can be re-run byte-identically later.
fn macrobench(args: &Args) -> Result<String, CliError> {
    use rtree_bench::macrobench::{
        describe_store, model_reads_per_query, replay, Boxed, DEFAULT_MISS_NS,
    };
    use rtree_bench::Table;
    use rtree_datagen::trace::{center_pool, generate as generate_trace, Trace, TraceSpec};
    use rtree_datagen::MixWeights;
    use rtree_pager::DiskRTree;

    args.allow_flags(&[
        "loader", "cap", "frames", "ops", "qx", "qy", "skew", "mix", "policy", "miss-ns", "seed",
        "record", "replay", "json",
    ])?;
    let rects = from_csv(&read_file(&args.positional)?).map_err(CliError)?;
    if rects.is_empty() {
        return Err(err("data set is empty"));
    }
    let cap: usize = args.flag_or("cap", 50usize)?;
    if !(4..=rtree_pager::MAX_ENTRIES_PER_PAGE).contains(&cap) {
        return Err(err(format!(
            "--cap must be in 4..={}",
            rtree_pager::MAX_ENTRIES_PER_PAGE
        )));
    }
    let frames: usize = args.flag_or("frames", 32usize)?;
    if frames == 0 {
        return Err(err("--frames must be positive"));
    }
    let ops: usize = args.flag_or("ops", 10_000usize)?;
    if ops == 0 {
        return Err(err("--ops must be positive"));
    }
    let qx: f64 = args.flag_or("qx", 0.05f64)?;
    let qy: f64 = args.flag_or("qy", 0.05f64)?;
    let seed: u64 = args.flag_or("seed", 0x7AC3u64)?;
    let miss_ns: f64 = args.flag_or("miss-ns", DEFAULT_MISS_NS)?;
    let skew = parse_skew(args.flag("skew").unwrap_or("zipf"))?;
    let mix = match args.flag("mix").unwrap_or("read-mostly") {
        "read-mostly" => MixWeights::read_mostly(),
        "read-only" => MixWeights::read_only(),
        other => {
            return Err(err(format!(
                "unknown mix {other:?} (read-mostly|read-only)"
            )))
        }
    };
    let policy_name = args.flag("policy").unwrap_or("LRU");
    parse_policy(policy_name, seed)?; // fail before the build
    let tree = build_tree(&rects, args.flag("loader").unwrap_or("HS"), cap)?;

    // Load a recorded trace, or generate (and optionally record) one. A
    // replayed trace overrides --ops/--seed: the file is the workload.
    let trace = match args.flag("replay") {
        Some(path) => Trace::load(std::path::Path::new(path))
            .map_err(|e| err(format!("loading trace {path}: {e}")))?,
        None => {
            let spec = TraceSpec {
                ops,
                qx,
                qy,
                skew,
                mix,
                seed,
            };
            let t = generate_trace(&rects, &spec);
            if let Some(path) = args.flag("record") {
                t.save(std::path::Path::new(path))
                    .map_err(|e| err(format!("recording trace {path}: {e}")))?;
            }
            t
        }
    };
    // The analytic model draws query centers from the same pool the trace
    // generator used, so its prediction and the replay describe one workload.
    let workload = Workload::data_driven(qx, qy, center_pool(&rects, skew, seed));

    let mut table = Table::new(
        format!(
            "macrobench: {} ops, {} policy, {frames} frames, miss {miss_ns:.0} ns",
            trace.ops.len(),
            policy_name.to_uppercase(),
        ),
        &[
            "format",
            "hit_rate",
            "reads_per_op",
            "model_rpq",
            "p50_us",
            "p99_us",
            "eff_ops",
        ],
    );
    for format in rtree_bench::macrobench::PageFormat::ALL {
        // Cold replay by design: both formats start from an empty buffer,
        // so the comparison includes each format's own warm-up footprint.
        let disk = format.materialize(&tree, frames, Boxed(make_policy(policy_name, seed)?));
        let meta = disk.meta().clone();
        let mut store = disk.into_store();
        let desc =
            describe_store(&mut store, &meta).map_err(|e| err(format!("walking image: {e}")))?;
        let mut disk = DiskRTree::open(store, frames, Boxed(make_policy(policy_name, seed)?))
            .map_err(|e| err(format!("reopening image: {e}")))?;
        let out = replay(&mut disk, &trace).map_err(|e| err(format!("replay: {e}")))?;
        table.row(vec![
            format.name().into(),
            format!("{:.4}", out.hit_rate),
            format!("{:.4}", out.demand_reads_per_op()),
            format!("{:.4}", model_reads_per_query(&desc, &workload, frames)),
            format!("{:.1}", out.p50_ns as f64 / 1e3),
            format!("{:.1}", out.p99_ns as f64 / 1e3),
            format!("{:.0}", out.effective_ops(miss_ns)),
        ]);
    }
    if args.flag_bool("json") {
        return Ok(table.to_json());
    }
    Ok(table.render())
}

/// Shared flag parsing for `serve`: the batch policy and server knobs.
fn parse_server_config(args: &Args) -> Result<rtree_server::ServerConfig, CliError> {
    use std::time::Duration;
    let batch: usize = args.flag_or("batch", 64usize)?;
    if batch == 0 {
        return Err(err("--batch must be at least 1"));
    }
    let queue: usize = args.flag_or("queue", 4096usize)?;
    if queue == 0 {
        return Err(err("--queue must be at least 1"));
    }
    let workers: usize = args.flag_or("workers", 2usize)?;
    if workers == 0 {
        return Err(err("--workers must be at least 1"));
    }
    Ok(rtree_server::ServerConfig {
        batch: rtree_server::BatchPolicy {
            max_batch: batch,
            queue_depth: queue,
            workers,
        },
        read_timeout: Duration::from_millis(50),
    })
}

/// Runs a bound server to completion: publishes the address, waits for a
/// `Shutdown` frame (or the `--duration` timer), drains, and reconciles the
/// batcher/ledger/trace counters into the final summary.
fn run_server<E: rtree_server::QueryEngine>(
    handle: rtree_server::ServerHandle<E>,
    duration_s: f64,
    port_file: Option<&str>,
    sink: std::sync::Arc<rtree_obs::CountingSink>,
) -> Result<String, CliError> {
    use std::time::{Duration, Instant};

    // The listener is live as soon as `serve` returns, so writing the port
    // file here lets scripts start a load generator against an ephemeral
    // port without racing the bind.
    if let Some(path) = port_file {
        std::fs::write(path, format!("{}\n", handle.addr()))
            .map_err(|e| err(format!("writing {path}: {e}")))?;
    }
    let start = Instant::now();
    while !handle.stopped() {
        if duration_s > 0.0 && start.elapsed().as_secs_f64() >= duration_s {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let stats = handle.shutdown();
    let elapsed = start.elapsed();
    let bstats = handle.batcher().stats();
    let counts = sink.counts();

    // Three independent ledgers must agree once every worker is joined:
    // the batcher drained everything it accepted, the I/O split sums to the
    // physical total, and the trace event stream saw exactly those reads.
    let drained = bstats.completed == bstats.submitted;
    let ledger = stats.physical_reads == stats.demand_reads + stats.prefetch_reads;
    let traced = counts.misses == stats.demand_reads
        && counts.misses + counts.prefetches == stats.physical_reads;

    let per_query = |n: u64| {
        if stats.queries == 0 {
            0.0
        } else {
            n as f64 / stats.queries as f64
        }
    };
    let mut out = format!(
        "served {} for {:.2}s: {} queries in {} batches (max {}, mean {:.2}), rejected {}\n",
        handle.addr(),
        elapsed.as_secs_f64(),
        stats.queries,
        stats.batches,
        stats.max_batch,
        bstats.batch_sizes.mean(),
        stats.rejected,
    );
    let _ = writeln!(
        out,
        "reads/query: demand {:.4} prefetch {:.4} physical {:.4}",
        per_query(stats.demand_reads),
        per_query(stats.prefetch_reads),
        per_query(stats.physical_reads),
    );
    let _ = writeln!(
        out,
        "queue wait us: p50 <= {} p99 <= {}",
        bstats.queue_wait_us.quantile_bounds(0.50).1,
        bstats.queue_wait_us.quantile_bounds(0.99).1,
    );
    // Which rect kernel answered the queries (picked from the CPU).
    let _ = writeln!(out, "kernel: {}", rtree_geom::simd::active_kernel().name());
    if stats.writes > 0 {
        let _ = writeln!(
            out,
            "writes: {} committed in {} wal batches ({:.4} fsyncs/write)",
            stats.writes,
            stats.commit_batches,
            stats.wal_fsyncs as f64 / stats.writes as f64,
        );
    }
    if drained && ledger && traced {
        let _ = writeln!(out, "reconciled: yes");
        Ok(out)
    } else {
        let _ = writeln!(
            out,
            "reconciled: NO (drained {drained}, ledger {ledger}, traced {traced})"
        );
        Err(CliError(out))
    }
}

/// A serving engine the self-tuning controller can actuate on: applies a
/// [`rtree_tune::Setting`] (unpin → resize → re-pin) to the live tree.
trait Tunable: rtree_server::QueryEngine {
    fn actuate(&self, setting: rtree_tune::Setting) -> std::io::Result<()>;
}

impl Tunable for rtree_server::SequentialEngine<rtree_pager::MemStore> {
    fn actuate(&self, setting: rtree_tune::Setting) -> std::io::Result<()> {
        use rtree_tune::Actuator;
        self.with_tree(|tree| rtree_tune::DiskActuator::new(tree).apply(setting))
    }
}

impl Tunable for rtree_server::ShardedEngine<rtree_pager::MemStore> {
    fn actuate(&self, setting: rtree_tune::Setting) -> std::io::Result<()> {
        use rtree_tune::Actuator;
        rtree_tune::ConcurrentActuator::new(self.tree()).apply(setting)
    }
}

/// Wraps a [`Tunable`] engine with the online controller: every served
/// query feeds the workload window, and when the background timer marks a
/// tick due the controller runs its estimate → refit → actuate loop on
/// the serving path (so actuation is always between batches, never racing
/// one). Actuation errors are swallowed — a failed resize must not fail
/// the client batch; the controller retries at the next tick.
struct AdaptiveEngine<E: Tunable> {
    inner: E,
    controller: std::sync::Arc<rtree_tune::Controller>,
    tick_due: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl<E: Tunable> rtree_server::QueryEngine for AdaptiveEngine<E> {
    fn execute(&self, queries: &[Rect]) -> std::io::Result<Vec<Vec<u64>>> {
        use rtree_obs::TuneObserver;
        for q in queries {
            self.controller
                .observe_query(q.lo.x, q.lo.y, q.hi.x, q.hi.y);
        }
        if self
            .tick_due
            .swap(false, std::sync::atomic::Ordering::Relaxed)
        {
            let _ = self.controller.tick_with(|s| self.inner.actuate(s));
        }
        self.inner.execute(queries)
    }

    fn io_stats(&self) -> rtree_pager::IoStats {
        self.inner.io_stats()
    }

    fn execute_writes(&self, ops: &[rtree_server::WriteOp]) -> Vec<std::io::Result<bool>> {
        use rtree_obs::TuneObserver;
        for _ in ops {
            self.controller.observe_write();
        }
        self.inner.execute_writes(ops)
    }

    fn write_stats(&self) -> rtree_server::WriteStats {
        self.inner.write_stats()
    }
}

/// `serve --adaptive`: wraps `inner` in the controller, runs the server
/// with a background thread marking a tuning tick due every
/// `tune_interval_ms`, and appends the controller's decision log to the
/// exit summary (on both the success and the reconciliation-failure path).
#[allow(clippy::too_many_arguments)]
fn serve_adaptive<E: Tunable>(
    inner: E,
    desc: TreeDescription,
    buffer: usize,
    budget: usize,
    tune_interval_ms: u64,
    addr: &str,
    config: rtree_server::ServerConfig,
    duration: f64,
    port_file: Option<&str>,
    sink: std::sync::Arc<rtree_obs::CountingSink>,
) -> Result<String, CliError> {
    use rtree_tune::{Controller, ControllerConfig, Setting};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let controller = Arc::new(Controller::new(
        desc,
        Setting {
            buffer,
            pin_levels: 0,
        },
        ControllerConfig::new(budget),
    ));
    let tick_due = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let ticker = {
        let tick_due = Arc::clone(&tick_due);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let interval = Duration::from_millis(tune_interval_ms);
            let mut next = Instant::now() + interval;
            while !stop.load(Ordering::Relaxed) {
                // Sleep in short slices so shutdown never waits out a
                // long interval.
                std::thread::sleep(Duration::from_millis(25).min(interval));
                if Instant::now() >= next {
                    tick_due.store(true, Ordering::Relaxed);
                    next += interval;
                }
            }
        })
    };
    let engine = AdaptiveEngine {
        inner,
        controller: Arc::clone(&controller),
        tick_due,
    };
    let handle = rtree_server::serve(engine, addr, config)
        .map_err(|e| err(format!("binding {addr}: {e}")))?;
    let result = run_server(handle, duration, port_file, sink);
    stop.store(true, Ordering::Relaxed);
    let _ = ticker.join();

    let mut tail = format!(
        "tuning: {} ticks, {} decisions, final {}\n",
        controller.ticks(),
        controller.decisions().len(),
        controller.current(),
    );
    for d in controller.decisions() {
        let _ = writeln!(tail, "  {d}");
    }
    match result {
        Ok(mut out) => {
            out.push_str(&tail);
            Ok(out)
        }
        Err(CliError(mut out)) => {
            out.push_str(&tail);
            Err(CliError(out))
        }
    }
}

fn serve(args: &Args) -> Result<String, CliError> {
    use rtree_obs::{CountingSink, TraceSink};
    use rtree_pager::{ConcurrentDiskRTree, DiskRTree, MemStore, SharedMemStore};
    use rtree_server::{SequentialEngine, ShardedEngine, WriterEngine};
    use std::sync::Arc;

    args.allow_flags(&[
        "loader",
        "cap",
        "buffer",
        "policy",
        "seed",
        "addr",
        "port-file",
        "duration",
        "engine",
        "shards",
        "batch",
        "queue",
        "workers",
        "window",
        "writers",
        "adaptive",
        "tune-interval",
        "budget",
    ])?;
    let rects = from_csv(&read_file(&args.positional)?).map_err(CliError)?;
    if rects.is_empty() {
        return Err(err("data set is empty"));
    }
    let cap: usize = args.flag_or("cap", 50usize)?;
    if !(4..=rtree_pager::MAX_ENTRIES_PER_PAGE).contains(&cap) {
        return Err(err(format!(
            "--cap must be in 4..={}",
            rtree_pager::MAX_ENTRIES_PER_PAGE
        )));
    }
    let buffer: usize = args.flag_or("buffer", 100usize)?;
    if buffer == 0 {
        return Err(err("--buffer must be positive"));
    }
    let seed: u64 = args.flag_or("seed", 0x7ACEu64)?;
    let policy = parse_policy(args.flag("policy").unwrap_or("LRU"), seed)?;
    let window: usize = args.flag_or("window", 8usize)?;
    let duration: f64 = args.flag_or("duration", 0.0f64)?;
    let config = parse_server_config(args)?;
    let addr = args.flag("addr").unwrap_or("127.0.0.1:0");
    let port_file = args.flag("port-file");
    let sink = Arc::new(CountingSink::new());
    let adaptive = args.flag_bool("adaptive");
    let tune_interval: u64 = args.flag_or("tune-interval", 250u64)?;
    if tune_interval == 0 {
        return Err(err("--tune-interval must be at least 1 ms"));
    }
    let budget: usize = args.flag_or("budget", buffer)?;
    if budget == 0 {
        return Err(err("--budget must be positive"));
    }

    if args.flag_bool("writers") {
        if adaptive {
            // The writer engine's tree mutates away from the bulk-load
            // layout the analytic model describes, so there is nothing
            // sound to refit against.
            return Err(err("--adaptive is not supported with --writers"));
        }
        // Writer mode: an empty writable tree seeded through the insert
        // path itself (every seed is WAL-logged and group-committed),
        // then served read-write through the latch-crabbing engine.
        let min_fill = (cap / 4).max(1);
        let wal = rtree_wal::GroupWal::open(rtree_wal::MemLog::new())
            .map_err(|e| err(format!("opening wal: {e}")))?;
        // Each write runs on its connection's thread; hold commit
        // batches open briefly so a burst of writers shares one fsync.
        wal.set_commit_delay(std::time::Duration::from_micros(150));
        let mut disk = ConcurrentDiskRTree::create_writable(
            SharedMemStore::new(),
            cap,
            min_fill,
            buffer,
            policy.build(),
            wal,
        )
        .map_err(|e| err(format!("creating tree: {e}")))?;
        disk.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn TraceSink>));
        for (i, r) in rects.iter().enumerate() {
            disk.insert(r, i as u64)
                .map_err(|e| err(format!("seeding item {i}: {e}")))?;
        }
        let workers = config.batch.workers;
        let handle = rtree_server::serve(WriterEngine::new(disk, workers, 1, true), addr, config)
            .map_err(|e| err(format!("binding {addr}: {e}")))?;
        return run_server(handle, duration, port_file, sink);
    }

    let tree = build_tree(&rects, args.flag("loader").unwrap_or("HS"), cap)?;

    match args.flag("engine").unwrap_or("seq") {
        "seq" => {
            let mut disk = DiskRTree::create(MemStore::new(), &tree, buffer, policy.build())
                .map_err(|e| err(format!("creating tree: {e}")))?;
            disk.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn TraceSink>));
            let engine = SequentialEngine::new(disk, window);
            if adaptive {
                let desc = TreeDescription::from_tree(&tree);
                serve_adaptive(
                    engine,
                    desc,
                    buffer,
                    budget,
                    tune_interval,
                    addr,
                    config,
                    duration,
                    port_file,
                    sink,
                )
            } else {
                let handle = rtree_server::serve(engine, addr, config)
                    .map_err(|e| err(format!("binding {addr}: {e}")))?;
                run_server(handle, duration, port_file, sink)
            }
        }
        "sharded" => {
            let shards: usize = args.flag_or("shards", 1usize)?;
            let workers = config.batch.workers;
            let mut disk = ConcurrentDiskRTree::create_sharded(
                MemStore::new(),
                &tree,
                buffer,
                shards,
                move || policy.build(),
            )
            .map_err(|e| err(format!("creating tree: {e}")))?;
            disk.set_trace_sink(Some(Arc::clone(&sink) as Arc<dyn TraceSink>));
            let engine = ShardedEngine::new(disk, workers);
            if adaptive {
                let desc = TreeDescription::from_tree(&tree);
                serve_adaptive(
                    engine,
                    desc,
                    buffer,
                    budget,
                    tune_interval,
                    addr,
                    config,
                    duration,
                    port_file,
                    sink,
                )
            } else {
                let handle = rtree_server::serve(engine, addr, config)
                    .map_err(|e| err(format!("binding {addr}: {e}")))?;
                run_server(handle, duration, port_file, sink)
            }
        }
        other => Err(err(format!("unknown engine {other:?} (seq | sharded)"))),
    }
}

fn loadgen(args: &Args) -> Result<String, CliError> {
    use rtree_bench::Table;
    use rtree_server::LoadConfig;

    args.allow_flags(&[
        "connections",
        "qps",
        "queries",
        "workload",
        "zipf",
        "count-fraction",
        "write-fraction",
        "seed",
        "shutdown",
        "quick",
        "json",
    ])?;
    let quick = args.flag_bool("quick");
    let connections: usize = args.flag_or("connections", 8usize)?;
    if connections == 0 {
        return Err(err("--connections must be at least 1"));
    }
    let queries: usize = args.flag_or("queries", if quick { 200 } else { 5_000 })?;
    if queries == 0 {
        return Err(err("--queries must be at least 1"));
    }
    let count_fraction: f64 = args.flag_or("count-fraction", 0.0f64)?;
    if !(0.0..=1.0).contains(&count_fraction) {
        return Err(err("--count-fraction must be in [0, 1]"));
    }
    let write_fraction: f64 = args.flag_or("write-fraction", 0.0f64)?;
    if !(0.0..=1.0).contains(&write_fraction) {
        return Err(err("--write-fraction must be in [0, 1]"));
    }
    let seed: u64 = args.flag_or("seed", 42u64)?;
    let mut workload = parse_workload(args.flag("workload").unwrap_or("region:0.03:0.03"))?;
    let zipf: f64 = args.flag_or("zipf", 0.0f64)?;
    if zipf < 0.0 {
        return Err(err("--zipf must be non-negative"));
    }
    if zipf > 0.0 {
        // Zipf-by-rank as a center multiset: rank k gets copies in
        // proportion to 1/k^theta, so a uniform draw over the reweighted
        // centers reproduces the skew — same trick the analytic model's
        // data-driven workload uses, so the server-side controller can
        // still refit against what this generator sends.
        let Some(centers) = workload.centers().map(<[_]>::to_vec) else {
            return Err(err(
                "--zipf needs a data-driven workload (data:<QX>:<QY>:<DATA.csv>)",
            ));
        };
        let total = (centers.len() * 4).max(1024);
        workload = Workload::data_driven(
            workload.qx(),
            workload.qy(),
            rtree_datagen::zipf_center_multiset(&centers, zipf, total, seed),
        );
    }
    let config = LoadConfig {
        connections,
        queries,
        target_qps: args.flag_or("qps", 0.0f64)?,
        workload,
        count_fraction,
        write_fraction,
        seed,
        shutdown_after: args.flag_bool("shutdown"),
    };
    let addr = args.positional.as_str();
    let report = rtree_server::loadgen::run(addr, &config)
        .map_err(|e| err(format!("load run against {addr}: {e}")))?;

    let mut table = Table::new(
        format!(
            "loadgen {addr}: {} conns, {} loop",
            connections,
            if config.target_qps > 0.0 {
                "open"
            } else {
                "closed"
            }
        ),
        &[
            "sent",
            "ok",
            "writes_ok",
            "overloaded",
            "errors",
            "qps",
            "p50_ms",
            "p99_ms",
            "p999_ms",
            "mean_ms",
            "write_p99_ms",
            "fsyncs_per_write",
            "demand_reads_per_query",
        ],
    );
    table.row(vec![
        report.sent.to_string(),
        report.ok.to_string(),
        report.writes_ok.to_string(),
        report.overloaded.to_string(),
        report.errors.to_string(),
        format!("{:.0}", report.achieved_qps()),
        format!("{:.3}", report.latency_ms(0.50)),
        format!("{:.3}", report.latency_ms(0.99)),
        format!("{:.3}", report.latency_ms(0.999)),
        format!("{:.3}", report.mean_latency_ms()),
        format!("{:.3}", report.write_latency_ms(0.99)),
        format!("{:.4}", report.fsyncs_per_write()),
        format!("{:.4}", report.demand_reads_per_query()),
    ]);
    if args.flag_bool("json") {
        Ok(table.to_json())
    } else {
        Ok(table.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn chaos_single_seed_passes_and_is_replayable() {
        let a = run(&args("chaos --seed 3 --ops 80")).unwrap();
        let b = run(&args("chaos --seed 3 --ops 80")).unwrap();
        assert_eq!(a, b, "same seed must print the same report");
        assert!(a.contains("seed 3:"), "got: {a}");
        assert!(a.contains("ok"), "got: {a}");
    }

    #[test]
    fn chaos_seed_range_runs_every_seed() {
        let out = run(&args("chaos --seeds 0..4 --ops 40")).unwrap();
        for seed in 0..4 {
            assert!(out.contains(&format!("seed {seed}:")), "got: {out}");
        }
        assert!(run(&args("chaos --seeds 4..4")).is_err());
        assert!(run(&args("chaos --seeds nope")).is_err());
        assert!(run(&args("chaos --seed 1 --seeds 0..2")).is_err());
        assert!(run(&args("chaos --ops 0")).is_err());
    }

    #[test]
    fn chaos_planted_failure_shrinks_and_prints_replay_line() {
        // Some seed in a small range reaches the planted bug; its failure
        // must carry a shrunk `rtrees chaos` replay line.
        let e = (0..16u64)
            .find_map(|s| run(&args(&format!("chaos --seed {s} --ops 120 --plant"))).err())
            .expect("a planted seed in 0..16 must fail");
        assert!(e.0.contains("differential"), "got: {e}");
        assert!(e.0.contains("replay: rtrees chaos --seed"), "got: {e}");
        assert!(e.0.contains("--plant"), "got: {e}");
    }

    #[test]
    fn update_reports_write_stats() {
        let dir = std::env::temp_dir().join(format!("rtrees-cli-upd-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        run(&args(&format!(
            "generate region:1500 --seed 9 --out {}",
            data.display()
        )))
        .unwrap();
        let out = run(&args(&format!(
            "update {} --cap 10 --buffer 20 --deletes 0.3 --checkpoint 400",
            data.display()
        )))
        .unwrap();
        assert!(out.contains("inserts: 1500"), "got: {out}");
        assert!(out.contains("physical writes/op"), "got: {out}");
        assert!(out.contains("WAL traffic"), "got: {out}");
        assert!(run(&args(&format!("update {} --buffer 0", data.display()))).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_reports_throughput() {
        let dir = std::env::temp_dir().join(format!("rtrees-cli-conc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        run(&args(&format!(
            "generate region:2000 --seed 7 --out {}",
            data.display()
        )))
        .unwrap();
        let out = run(&args(&format!(
            "concurrent {} --cap 10 --buffer 40 --threads 4 --shards 4 --pin 1 --queries 2000",
            data.display()
        )))
        .unwrap();
        assert!(out.contains("4 shards"), "got: {out}");
        assert!(out.contains("queries/s"), "got: {out}");
        assert!(out.contains("hit ratio"), "got: {out}");
        // Bad configurations surface as errors, not panics.
        assert!(run(&args(&format!("concurrent {} --threads 0", data.display()))).is_err());
        assert!(run(&args(&format!("concurrent {} --pin 99", data.display()))).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_hit_curve_improves_with_batch_size() {
        let dir = std::env::temp_dir().join(format!("rtrees-cli-batch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        run(&args(&format!(
            "generate clustered:4000:16:0.02 --seed 9 --out {}",
            data.display()
        )))
        .unwrap();
        let out = run(&args(&format!(
            "batch {} --cap 10 --buffer 16 --queries 512 --sizes 1,256 \
             --workload region:0.04:0.04 --seed 5",
            data.display()
        )))
        .unwrap();
        assert!(out.contains("batched execution"), "got: {out}");

        // The acceptance criterion: at batch 256 the clustered workload
        // must cost strictly fewer physical reads per query than at
        // batch 1 (dedup + the shared frontier do real work).
        let reads_at = |size: &str| -> f64 {
            out.lines()
                .find_map(|l| {
                    let mut cols = l.split_whitespace();
                    (cols.next() == Some(size)).then(|| cols.next().unwrap().parse().unwrap())
                })
                .unwrap_or_else(|| panic!("no row for batch {size} in: {out}"))
        };
        assert!(
            reads_at("256") < reads_at("1"),
            "batch 256 not cheaper: {out}"
        );

        let json = run(&args(&format!(
            "batch {} --cap 10 --buffer 16 --queries 128 --sizes 1,64 --json",
            data.display()
        )))
        .unwrap();
        assert!(json.contains("\"rows\""), "got: {json}");
        assert!(json.contains("\"reads/query\""), "got: {json}");

        // Bad configurations surface as errors, not panics.
        assert!(run(&args(&format!("batch {} --sizes 0,4", data.display()))).is_err());
        assert!(run(&args(&format!("batch {} --buffer 0", data.display()))).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_reports_per_level_hit_ratios() {
        let dir = std::env::temp_dir().join(format!("rtrees-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        run(&args(&format!(
            "generate region:2000 --seed 11 --out {}",
            data.display()
        )))
        .unwrap();
        let out = run(&args(&format!(
            "trace {} --cap 10 --buffer 30 --queries 1500",
            data.display()
        )))
        .unwrap();
        assert!(out.contains("per-level buffer trace"), "got: {out}");
        assert!(out.contains("hit ratio"), "got: {out}");
        assert!(
            out.contains("reconciled with IoStats/BufferStats: yes"),
            "got: {out}"
        );
        assert!(out.contains("p50"), "got: {out}");
        // The paper orientation puts the root at level 0.
        assert!(
            out.lines().any(|l| l.trim_start().starts_with("0 ")),
            "got: {out}"
        );

        let json = run(&args(&format!(
            "trace {} --cap 10 --buffer 30 --queries 500 --json",
            data.display()
        )))
        .unwrap();
        assert!(json.contains("\"rows\""), "got: {json}");
        assert!(json.contains("\"hit ratio\""), "got: {json}");

        let prom = run(&args(&format!(
            "trace {} --cap 10 --buffer 30 --queries 500 --prom --threads 2 --shards 2",
            data.display()
        )))
        .unwrap();
        assert!(
            prom.contains("# TYPE rtree_trace_events_total counter"),
            "got: {prom}"
        );
        assert!(prom.contains("rtree_query_latency_ns_count"), "got: {prom}");

        assert!(run(&args(&format!("trace {} --json --prom", data.display()))).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn generate_to_stdout() {
        let out = run(&args("generate region:500 --seed 3")).unwrap();
        assert!(out.starts_with("x0,y0,x1,y1\n"));
        assert_eq!(out.lines().count(), 501);
    }

    #[test]
    fn dataset_specs() {
        assert_eq!(parse_dataset_spec("point:100", 1).unwrap().len(), 100);
        assert_eq!(
            parse_dataset_spec("clustered:200:4:0.05", 1).unwrap().len(),
            200
        );
        assert!(parse_dataset_spec("bogus", 1).is_err());
        assert!(parse_dataset_spec("region:x", 1).is_err());
    }

    #[test]
    fn workload_specs() {
        assert!(parse_workload("point").unwrap().is_point());
        let w = parse_workload("region:0.1:0.2").unwrap();
        assert_eq!((w.qx(), w.qy()), (0.1, 0.2));
        assert!(parse_workload("region:2:0.1").is_err());
        assert!(parse_workload("wat").is_err());
    }

    #[test]
    fn full_pipeline_through_temp_files() {
        let dir = std::env::temp_dir().join(format!("rtrees-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let desc = dir.join("tree.desc");

        let msg = run(&args(&format!(
            "generate region:2000 --seed 5 --out {}",
            data.display()
        )))
        .unwrap();
        assert!(msg.contains("2000 rectangles"));

        let msg = run(&args(&format!(
            "build {} --loader STR --cap 25 --out {}",
            data.display(),
            desc.display()
        )))
        .unwrap();
        assert!(msg.contains("tree description"));

        let out = run(&args(&format!(
            "model {} --workload region:0.05:0.05 --buffers 5,20,80",
            desc.display()
        )))
        .unwrap();
        assert!(out.contains("disk accesses/query"));
        assert_eq!(
            out.lines()
                .filter(|l| l.trim_start().starts_with(['5', '2', '8']))
                .count(),
            3
        );

        let out = run(&args(&format!(
            "simulate {} --buffer 20 --queries 4000",
            desc.display()
        )))
        .unwrap();
        assert!(out.contains("hit ratio"));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn model_with_pinning() {
        let dir = std::env::temp_dir().join(format!("rtrees-cli-pin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.csv");
        let desc = dir.join("t.desc");
        run(&args(&format!(
            "generate point:3000 --out {}",
            data.display()
        )))
        .unwrap();
        run(&args(&format!(
            "build {} --cap 25 --out {}",
            data.display(),
            desc.display()
        )))
        .unwrap();
        let out = run(&args(&format!(
            "model {} --buffers 50 --pin 2",
            desc.display()
        )))
        .unwrap();
        assert!(out.contains("levels pinned"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_subcommand() {
        assert!(run(&args("frobnicate x")).is_err());
    }

    #[test]
    fn sim_policies_parse() {
        for p in ["LRU", "LRU2", "FIFO", "CLOCK", "RANDOM"] {
            assert!(make_policy(p, 1).is_ok());
        }
        assert!(make_policy("MRU", 1).is_err());
    }

    /// Waits for `serve` to publish its ephemeral port, then returns it.
    fn wait_for_port(path: &std::path::Path) -> String {
        for _ in 0..400 {
            if let Ok(s) = std::fs::read_to_string(path) {
                let s = s.trim().to_string();
                if !s.is_empty() {
                    return s;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("server never wrote its port file");
    }

    #[test]
    fn serve_rejects_the_removed_batch_window_flag() {
        let e = run(&args("serve data.csv --wait-us 400")).unwrap_err();
        assert!(e.0.contains("unknown flag --wait-us"), "got: {}", e.0);
    }

    #[test]
    fn serve_rejects_the_removed_write_threads_flag() {
        let e = run(&args("serve data.csv --writers --write-threads 4")).unwrap_err();
        assert!(e.0.contains("unknown flag --write-threads"), "got: {}", e.0);
    }

    #[test]
    fn serve_and_loadgen_round_trip_over_loopback() {
        let dir = std::env::temp_dir().join(format!("rtrees-cli-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let port = dir.join("port");
        run(&args(&format!(
            "generate clustered:3000:12:0.03 --seed 5 --out {}",
            data.display()
        )))
        .unwrap();

        let serve_args = args(&format!(
            "serve {} --cap 10 --buffer 64 --batch 32 --duration 30 \
             --port-file {}",
            data.display(),
            port.display()
        ));
        let server = std::thread::spawn(move || run(&serve_args));
        let addr = wait_for_port(&port);

        let out = run(&args(&format!(
            "loadgen {addr} --quick --connections 4 --count-fraction 0.25 --seed 3 \
             --workload region:0.04:0.04 --shutdown --json"
        )))
        .unwrap();
        assert!(out.contains("\"ok\": 200"), "got: {out}");
        assert!(out.contains("\"errors\": 0"), "got: {out}");

        // --shutdown stops the server; its summary must reconcile.
        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("200 queries"), "got: {summary}");
        assert!(summary.contains("reconciled: yes"), "got: {summary}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_writers_round_trip_with_mixed_load() {
        let dir = std::env::temp_dir().join(format!("rtrees-cli-wrsrv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let port = dir.join("port");
        run(&args(&format!(
            "generate region:800 --seed 4 --out {}",
            data.display()
        )))
        .unwrap();

        let serve_args = args(&format!(
            "serve {} --cap 16 --buffer 64 --writers --duration 30 \
             --port-file {}",
            data.display(),
            port.display()
        ));
        let server = std::thread::spawn(move || run(&serve_args));
        let addr = wait_for_port(&port);

        let out = run(&args(&format!(
            "loadgen {addr} --quick --connections 4 --write-fraction 0.25 --seed 6 \
             --workload region:0.04:0.04 --shutdown --json"
        )))
        .unwrap();
        // 4 connections x 50 ops at write fraction 0.25: 12 writes each.
        assert!(out.contains("\"writes_ok\": 48"), "got: {out}");
        assert!(out.contains("\"ok\": 152"), "got: {out}");
        assert!(out.contains("\"errors\": 0"), "got: {out}");

        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("writes:"), "got: {summary}");
        assert!(summary.contains("reconciled: yes"), "got: {summary}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_sharded_engine_round_trip() {
        let dir = std::env::temp_dir().join(format!("rtrees-cli-shsrv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let port = dir.join("port");
        run(&args(&format!(
            "generate region:1500 --seed 8 --out {}",
            data.display()
        )))
        .unwrap();

        let serve_args = args(&format!(
            "serve {} --cap 10 --buffer 64 --engine sharded --shards 4 --workers 2 \
             --duration 30 --port-file {}",
            data.display(),
            port.display()
        ));
        let server = std::thread::spawn(move || run(&serve_args));
        let addr = wait_for_port(&port);

        let out = run(&args(&format!(
            "loadgen {addr} --queries 80 --connections 2 --seed 4 --shutdown"
        )))
        .unwrap();
        assert!(out.contains("loadgen"), "got: {out}");
        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("reconciled: yes"), "got: {summary}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tune_prints_predicted_vs_measured_and_plan() {
        let dir = std::env::temp_dir().join(format!("rtrees-cli-tune-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("d.csv");
        let desc = dir.join("t.desc");
        run(&args(&format!(
            "generate region:2000 --seed 5 --out {}",
            data.display()
        )))
        .unwrap();
        run(&args(&format!(
            "build {} --cap 25 --out {}",
            data.display(),
            desc.display()
        )))
        .unwrap();
        let out = run(&args(&format!(
            "tune {} --workload region:0.05:0.05 --buffers 10,80 --queries 3000 --seed 2",
            desc.display()
        )))
        .unwrap();
        assert!(out.contains("warm-up N*"), "got: {out}");
        assert!(out.contains("measured"), "got: {out}");
        // The warm-up column is typed: a huge buffer prints the explicit
        // "never fills" note instead of dropping the row.
        let rows: Vec<&str> = out
            .lines()
            .filter(|l| {
                let first = l.split_whitespace().next().unwrap_or("");
                first == "10" || first == "80"
            })
            .collect();
        assert_eq!(rows.len(), 2, "got: {out}");
        assert!(
            out.contains("controller plan within budget 80"),
            "got: {out}"
        );
        let big = run(&args(&format!(
            "tune {} --buffers 100000 --queries 500",
            desc.display()
        )))
        .unwrap();
        assert!(big.contains("never fills"), "got: {big}");
        assert!(run(&args(&format!("tune {} --queries 0", desc.display()))).is_err());
        assert!(run(&args(&format!("tune {} --buffers 0,5", desc.display()))).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_adaptive_round_trip_with_zipf_load() {
        let dir = std::env::temp_dir().join(format!("rtrees-cli-adsrv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let port = dir.join("port");
        run(&args(&format!(
            "generate clustered:2500:10:0.03 --seed 5 --out {}",
            data.display()
        )))
        .unwrap();

        let serve_args = args(&format!(
            "serve {} --cap 10 --buffer 64 --adaptive --tune-interval 20 --budget 64 \
             --duration 30 --port-file {}",
            data.display(),
            port.display()
        ));
        let server = std::thread::spawn(move || run(&serve_args));
        let addr = wait_for_port(&port);

        // Rate-limit the load so the run spans several controller ticks,
        // and skew it so the estimator sees a non-uniform stream.
        let out = run(&args(&format!(
            "loadgen {addr} --queries 240 --qps 800 --connections 4 --seed 3 \
             --workload data:0.04:0.04:{} --zipf 0.9 --shutdown --json",
            data.display()
        )))
        .unwrap();
        assert!(out.contains("\"ok\": 240"), "got: {out}");
        assert!(out.contains("\"errors\": 0"), "got: {out}");

        // The summary must reconcile even across live resizes/re-pins,
        // and it must carry the tuning report.
        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("reconciled: yes"), "got: {summary}");
        assert!(summary.contains("tuning:"), "got: {summary}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loadgen_zipf_needs_data_driven_workload() {
        // Rejected while building the config, before any connection.
        let e = run(&args(
            "loadgen 127.0.0.1:1 --zipf 0.8 --workload region:0.04:0.04",
        ))
        .unwrap_err();
        assert!(e.0.contains("data-driven"), "got: {e}");
        assert!(run(&args("loadgen 127.0.0.1:1 --zipf -0.5")).is_err());
    }

    #[test]
    fn serve_rejects_bad_flags() {
        let dir = std::env::temp_dir().join(format!("rtrees-cli-srvbad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        run(&args(&format!(
            "generate point:200 --out {}",
            data.display()
        )))
        .unwrap();
        for bad in [
            format!("serve {} --batch 0", data.display()),
            format!("serve {} --queue 0", data.display()),
            format!("serve {} --workers 0", data.display()),
            format!("serve {} --engine warp", data.display()),
            format!("serve {} --buffer 0", data.display()),
            format!("serve {} --adaptive --writers", data.display()),
            format!("serve {} --adaptive --tune-interval 0", data.display()),
            format!("serve {} --adaptive --budget 0", data.display()),
        ] {
            assert!(run(&args(&bad)).is_err(), "accepted: {bad}");
        }
        assert!(run(&args("loadgen 127.0.0.1:1 --connections 0")).is_err());
        assert!(run(&args("loadgen 127.0.0.1:1 --count-fraction 1.5")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
