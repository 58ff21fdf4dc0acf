//! Workload definitions and the seeded inputs every run generates.
//!
//! All four workloads share one data set: 200,000 synthetic-region
//! rectangles, Hilbert-sort bulk loaded at node capacity 100 and
//! materialized as format-v3 pages in a `FileStore` under a fresh
//! directory. Everything derives from the `--seed` argument; the program
//! under test only ever sees the generated rectangles and operations.

use crate::layers::{Lru, Store, TracedStore};
use crate::oracle::Oracle;
use crate::span::Tracer;
use rtree_buffer::LruPolicy;
use rtree_datagen::trace::{generate, MixWeights, Skew, Trace, TraceSpec};
use rtree_datagen::SyntheticRegion;
use rtree_geom::Rect;
use rtree_index::{BulkLoader, RTree};
use rtree_pager::{DiskRTree, FileStore, PageStore};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Items in the data set.
pub const ITEMS: usize = 200_000;
/// Node capacity of the bulk load.
pub const NODE_CAP: usize = 100;
/// Query window side (0.01 × 0.01 of the unit square).
pub const WINDOW: f64 = 0.01;
/// Buffer frames of the starved workloads (about 3 % of the pages).
pub const STARVED_FRAMES: usize = 64;
/// Warm-up ops replayed before timing on the starved workloads.
pub const WARM_OPS: usize = 4_000;
/// Ops in one pass of a read-only trace; timed loops cycle over it and
/// `reads_per_op` is counted over exactly the first pass.
pub const PASS_OPS: usize = 20_000;
/// Ops of the read/write trace per measured second (writes cannot be
/// replayed twice, so the trace must outlast the run).
pub const MIXED_OPS_PER_SECOND: usize = 6_000;
/// Client connections of the served workloads.
pub const CONNECTIONS: usize = 2;
/// Independent set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    EmbeddedStarved,
    EmbeddedResident,
    ServedMixed,
    ServedReadonly,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EmbeddedStarved,
        Workload::EmbeddedResident,
        Workload::ServedMixed,
        Workload::ServedReadonly,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EmbeddedStarved => "embedded-starved",
            Workload::EmbeddedResident => "embedded-resident",
            Workload::ServedMixed => "served-mixed",
            Workload::ServedReadonly => "served-readonly",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn is_served(self) -> bool {
        matches!(self, Workload::ServedMixed | Workload::ServedReadonly)
    }

    pub fn has_writes(self) -> bool {
        self == Workload::ServedMixed
    }

    /// The timed trace: Zipf θ=1 read-only for the starved pair, uniform
    /// read-only for the resident one, Zipf θ=1 90/9/1 for the mixed one.
    fn spec(self, seed: u64, seconds: u64) -> TraceSpec {
        let (skew, mix, ops) = match self {
            Workload::EmbeddedStarved | Workload::ServedReadonly => {
                (Skew::Zipf { theta: 1.0 }, MixWeights::read_only(), PASS_OPS)
            }
            Workload::EmbeddedResident => (Skew::Uniform, MixWeights::read_only(), PASS_OPS),
            Workload::ServedMixed => (
                Skew::Zipf { theta: 1.0 },
                MixWeights::read_mostly(),
                MIXED_OPS_PER_SECOND * seconds.max(1) as usize,
            ),
        };
        TraceSpec {
            ops,
            qx: WINDOW,
            qy: WINDOW,
            skew,
            mix,
            seed,
        }
    }

    /// Whether the timed loop may wrap around to the trace's start.
    pub fn cycles(self) -> bool {
        !self.has_writes()
    }
}

/// SplitMix64: derives independent sub-seeds from the one `--seed`.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Wall time of each set-up step, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub datagen_s: f64,
    pub load_s: f64,
    pub materialize_s: f64,
    pub trace_s: f64,
    pub oracle_s: f64,
    pub open_s: f64,
    pub total_s: f64,
}

/// Everything a workload's runs are made from.
pub struct Inputs {
    pub workload: Workload,
    pub rects: Vec<Rect>,
    /// The spec the timed trace was generated from.
    pub spec: TraceSpec,
    pub oracle_tree: RTree,
    /// The timed operations.
    pub trace: Trace,
    /// Read-only warm-up operations from the same center distribution.
    pub warm: Trace,
    pub expect: Oracle,
    /// The bulk-loaded page image every phase starts from.
    pub image: PathBuf,
    pub pages: u64,
    pub times: SetupTimes,
}

fn timed<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    };
    (out, t0.elapsed().as_secs_f64())
}

impl Inputs {
    /// Generates the data, bulk loads it, materializes the page image
    /// into `dir`, generates the traces and precomputes every expected
    /// answer. Set-up spans go to `tracer` when one is given.
    pub fn generate(
        workload: Workload,
        seed: u64,
        seconds: u64,
        dir: &Path,
        tracer: Option<&Tracer>,
    ) -> io::Result<Inputs> {
        let mut times = SetupTimes::default();
        let (rects, s) = timed(tracer, "setup.datagen", || {
            SyntheticRegion::new(ITEMS).generate(mix64(seed ^ 0xDA7A))
        });
        times.datagen_s = s;
        let (oracle_tree, s) = timed(tracer, "setup.load", || {
            BulkLoader::hilbert(NODE_CAP).load(&rects)
        });
        times.load_s = s;
        let image = dir.join("base.pages");
        let (pages, s) = timed(tracer, "setup.materialize", || -> io::Result<u64> {
            let disk = DiskRTree::create(
                FileStore::create(&image)?,
                &oracle_tree,
                1,
                LruPolicy::new(),
            )?;
            let mut store = disk.into_store();
            store.flush()?;
            Ok(store.page_count())
        });
        let pages = pages?;
        times.materialize_s = s;
        let spec = workload.spec(mix64(seed ^ 0x7ACE), seconds);
        let ((trace, warm), s) = timed(tracer, "setup.trace", || {
            if workload.has_writes() {
                // Writes cannot be replayed for warm-up; warm with reads
                // drawn from the same centers (same skew and seed).
                let warm_spec = TraceSpec {
                    ops: WARM_OPS,
                    mix: MixWeights::read_only(),
                    ..spec
                };
                (generate(&rects, &spec), generate(&rects, &warm_spec))
            } else {
                // Read-only traces: the warm-up is the trace's own prefix.
                let mut warm = generate(
                    &rects,
                    &TraceSpec {
                        ops: WARM_OPS + spec.ops,
                        ..spec
                    },
                );
                let timed = warm.ops.split_off(WARM_OPS);
                let trace = Trace {
                    seed: warm.seed,
                    ops: timed,
                };
                (trace, warm)
            }
        });
        times.trace_s = s;
        let (expect, s) = timed(tracer, "setup.oracle", || {
            Oracle::build(&oracle_tree, &trace, workload)
        });
        times.oracle_s = s;
        Ok(Inputs {
            workload,
            rects,
            spec,
            oracle_tree,
            trace,
            warm,
            expect,
            image,
            pages,
            times,
        })
    }

    /// Buffer frames of this workload's pool.
    pub fn frames(&self) -> usize {
        match self.workload {
            Workload::EmbeddedResident => self.pages as usize,
            _ => STARVED_FRAMES,
        }
    }

    /// Copies the base image to a fresh working file and opens it as the
    /// store of one phase, so every phase starts from identical bytes.
    pub fn fresh_store(&self, name: &str, tracer: &crate::layers::Trace) -> io::Result<Store> {
        let work = self.image.with_file_name(name);
        std::fs::copy(&self.image, &work)?;
        Ok(TracedStore::new(FileStore::open(&work)?, tracer.clone()))
    }

    pub fn policy(tracer: &crate::layers::Trace) -> Lru {
        crate::layers::CountingPolicy::new(LruPolicy::new(), tracer.clone())
    }

    /// Page-file bytes per item of the bulk-loaded image.
    pub fn image_bytes_per_item(&self) -> f64 {
        (self.pages * rtree_pager::PAGE_SIZE as u64) as f64 / ITEMS as f64
    }
}
