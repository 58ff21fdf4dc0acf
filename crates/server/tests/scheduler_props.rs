//! Scheduler correctness properties, across all five replacement
//! policies (ISSUE 6 satellite):
//!
//! (a) every submitted query gets exactly one response whose results
//!     equal a direct `DiskRTree::query` on an identical tree;
//! (b) no executed batch exceeds the count bound;
//! (c) a burst of k concurrent clients costs at most the demand reads of
//!     the same queries run sequentially — cross-connection dedup
//!     actually engages.

use proptest::prelude::*;
use rtree_buffer::ReplacementPolicy;
use rtree_buffer::{ClockPolicy, FifoPolicy, LruKPolicy, LruPolicy, RandomPolicy};
use rtree_core::Workload;
use rtree_datagen::ClusteredPoints;
use rtree_geom::Rect;
use rtree_index::{BulkLoader, RTree};
use rtree_pager::{DiskRTree, MemStore};
use rtree_server::{BatchPolicy, JobOutput, MicroBatcher, QueryEngine, SequentialEngine};
use rtree_sim::QuerySampler;
use std::thread;
use std::time::Duration;

const POLICIES: [&str; 5] = ["lru", "lru2", "fifo", "clock", "random"];

fn policy(name: &str) -> Box<dyn ReplacementPolicy> {
    match name {
        "lru" => Box::new(LruPolicy::new()),
        "lru2" => Box::new(LruKPolicy::lru2()),
        "fifo" => Box::new(FifoPolicy::new()),
        "clock" => Box::new(ClockPolicy::new()),
        "random" => Box::new(RandomPolicy::new(0xC0FFEE)),
        other => panic!("unknown policy {other}"),
    }
}

fn build_tree(n: usize, seed: u64) -> RTree {
    let rects = ClusteredPoints::new(n, 16, 0.03).generate(seed);
    BulkLoader::hilbert(16).load(&rects)
}

fn query_stream(n: usize, seed: u64) -> Vec<Rect> {
    let mut sampler = QuerySampler::new(&Workload::uniform_region(0.05, 0.05), seed);
    (0..n).map(|_| sampler.sample()).collect()
}

/// Runs `queries` through a batcher from `threads` client threads,
/// returning per-query results in input order.
fn run_burst(
    batcher: &MicroBatcher<SequentialEngine<MemStore>>,
    queries: &[Rect],
    threads: usize,
) -> Vec<Vec<u64>> {
    let mut results: Vec<Option<Vec<u64>>> = vec![None; queries.len()];
    thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..threads {
            handles.push(scope.spawn(move || {
                let mut out = Vec::new();
                for (i, q) in queries.iter().enumerate().skip(c).step_by(threads) {
                    let rx = batcher.submit(*q, false).expect("accepting");
                    match rx.recv().expect("answered").expect("no io error") {
                        JobOutput::Matches(ids) => out.push((i, ids)),
                        other => panic!("expected matches, got {other:?}"),
                    }
                    // Exactly one response: the channel must now be empty
                    // and disconnected.
                    assert!(
                        rx.recv_timeout(Duration::from_millis(50)).is_err(),
                        "second response for one submission"
                    );
                }
                out
            }));
        }
        for h in handles {
            for (i, ids) in h.join().expect("client thread") {
                assert!(results[i].is_none(), "slot {i} answered twice");
                results[i] = Some(ids);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every query answered"))
        .collect()
}

#[test]
fn burst_matches_direct_queries_and_saves_reads_under_every_policy() {
    let tree = build_tree(4_000, 0xDA7A);
    let queries = query_stream(256, 0x5EED);
    let buffer = 64; // starved enough that reads actually happen
    let threads = 8;

    for name in POLICIES {
        // Reference: the same queries, one at a time, on an identical
        // cold tree with the same policy.
        let mut reference = DiskRTree::create(MemStore::new(), &tree, buffer, policy(name))
            .expect("reference tree");
        let mut expected = Vec::with_capacity(queries.len());
        for q in &queries {
            let mut ids = reference.query(q).expect("direct query");
            ids.sort_unstable();
            expected.push(ids);
        }
        let sequential_demand = reference.io_stats().demand_reads();

        let served =
            DiskRTree::create(MemStore::new(), &tree, buffer, policy(name)).expect("served tree");
        let batcher = MicroBatcher::new(
            SequentialEngine::new(served, 8),
            BatchPolicy {
                max_batch: 64,
                ..BatchPolicy::default()
            },
        );
        let got = run_burst(&batcher, &queries, threads);
        batcher.shutdown();

        // (a) exactly one response per query, equal to the direct result.
        for (i, (mut ids, want)) in got.into_iter().zip(&expected).enumerate() {
            ids.sort_unstable();
            assert_eq!(&ids, want, "policy {name}, query {i}");
        }

        // (b) the count bound held.
        let stats = batcher.stats();
        assert_eq!(stats.completed, queries.len() as u64, "policy {name}");
        assert!(
            stats.max_batch <= 64,
            "policy {name}: batch of {} exceeded the bound",
            stats.max_batch
        );

        // (c) harvesting k concurrent clients never costs more demand
        // reads than serving them one at a time.
        let burst_demand = batcher.engine().io_stats().demand_reads();
        assert!(
            burst_demand <= sequential_demand,
            "policy {name}: burst demand {burst_demand} > sequential {sequential_demand}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a)+(b) under randomized tree shape, batch window, and burst
    /// width — LRU as the representative policy (the all-policy sweep
    /// above covers the policy dimension deterministically).
    #[test]
    fn every_query_answered_once_and_correctly(
        data_seed in any::<u64>(),
        query_seed in any::<u64>(),
        max_batch in 1usize..48,
        threads in 1usize..9,
        n_queries in 1usize..96,
    ) {
        let tree = build_tree(800, data_seed);
        let queries = query_stream(n_queries, query_seed);

        let mut reference =
            DiskRTree::create(MemStore::new(), &tree, 32, LruPolicy::new()).expect("tree");
        let expected: Vec<Vec<u64>> = queries
            .iter()
            .map(|q| {
                let mut ids = reference.query(q).expect("direct");
                ids.sort_unstable();
                ids
            })
            .collect();

        let served =
            DiskRTree::create(MemStore::new(), &tree, 32, LruPolicy::new()).expect("tree");
        let batcher = MicroBatcher::new(
            SequentialEngine::new(served, 4),
            BatchPolicy {
                max_batch,
                ..BatchPolicy::default()
            },
        );
        let got = run_burst(&batcher, &queries, threads.min(queries.len()));
        batcher.shutdown();

        for (mut ids, want) in got.into_iter().zip(&expected) {
            ids.sort_unstable();
            prop_assert_eq!(&ids, want);
        }
        let stats = batcher.stats();
        prop_assert_eq!(stats.completed, queries.len() as u64);
        prop_assert!(stats.max_batch <= max_batch as u64);
        prop_assert_eq!(stats.batch_sizes.count(), stats.batches);
    }
}
