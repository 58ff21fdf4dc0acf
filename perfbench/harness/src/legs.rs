//! Isolated layer legs over the run's own page image: page decode, the
//! intersection kernel, and the paper's buffer model.

use crate::setup::{Inputs, WINDOW};
use rtree_buffer::PageId;
use rtree_core::{BufferModel, TreeDescription, Workload};
use rtree_datagen::trace::{center_pool, TraceOp};
use rtree_geom::{Rect, RectSoA};
use rtree_pager::{FileStore, NodePage, NodeSoA, PageMeta, PageStore, PAGE_SIZE};
use std::hint::black_box;
use std::io;
use std::time::{Duration, Instant};

/// Minimum time each timed leg runs.
const LEG_TIME: Duration = Duration::from_millis(150);
/// Query windows the kernel leg sweeps over every leaf.
const KERNEL_WINDOWS: usize = 64;

#[derive(Clone, Copy, Debug, Default)]
pub struct Legs {
    pub decode_ns: f64,
    pub decode_trusted_ns: f64,
    pub kernel_ns_per_entry: f64,
    pub kernel_scalar_ns_per_entry: f64,
    pub model_reads_per_op: f64,
}

/// Repeats `sweep` until [`LEG_TIME`] has passed; returns ns per unit,
/// where one sweep does `units` units of work.
fn per_unit(units: u64, mut sweep: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut sweeps = 0u64;
    while sweeps == 0 || start.elapsed() < LEG_TIME {
        sweep();
        sweeps += 1;
    }
    start.elapsed().as_nanos() as f64 / (sweeps * units) as f64
}

pub fn measure(inputs: &Inputs) -> io::Result<Legs> {
    let mut store = FileStore::open(&inputs.image)?;
    let mut buf = vec![0u8; PAGE_SIZE];
    store.read_page(PageId(0), &mut buf)?;
    let meta = PageMeta::decode(&buf).map_err(io::Error::other)?;
    let pages: Vec<Vec<u8>> = (1..=meta.nodes)
        .map(|id| {
            let mut page = vec![0u8; PAGE_SIZE];
            store.read_page(PageId(id), &mut page).map(|()| page)
        })
        .collect::<io::Result<_>>()?;

    let mut node = NodeSoA::new();
    let n = pages.len() as u64;
    let decode_ns = per_unit(n, || {
        for p in &pages {
            node.decode_into(black_box(p)).expect("image page decodes");
            black_box(&node);
        }
    });
    let decode_trusted_ns = per_unit(n, || {
        for p in &pages {
            node.decode_into_trusted(black_box(p))
                .expect("image page decodes");
            black_box(&node);
        }
    });

    let mut leaves: Vec<RectSoA> = Vec::new();
    for p in &pages {
        let node = NodeSoA::decode(p).map_err(io::Error::other)?;
        if node.level == 0 {
            leaves.push(node.rects);
        }
    }
    let windows: Vec<Rect> = inputs
        .trace
        .ops
        .iter()
        .filter_map(|op| match op {
            TraceOp::Region(r) => Some(*r),
            _ => None,
        })
        .take(KERNEL_WINDOWS)
        .collect();
    let entries: u64 = leaves.iter().map(|l| l.len() as u64).sum::<u64>() * windows.len() as u64;
    let mut out = Vec::with_capacity(128);
    let kernel_ns_per_entry = per_unit(entries, || {
        for w in &windows {
            for leaf in &leaves {
                out.clear();
                leaf.intersecting(black_box(w), &mut out);
                black_box(&out);
            }
        }
    });
    let kernel_scalar_ns_per_entry = per_unit(entries, || {
        for w in &windows {
            for leaf in &leaves {
                out.clear();
                leaf.intersecting_scalar(black_box(w), &mut out);
                black_box(&out);
            }
        }
    });

    let desc = describe(&meta, &pages)?;
    let centers = center_pool(&inputs.rects, inputs.spec.skew, inputs.spec.seed);
    let workload = Workload::data_driven(WINDOW, WINDOW, centers);
    let model_reads_per_op =
        BufferModel::new(&desc, &workload).expected_disk_accesses(inputs.frames());

    Ok(Legs {
        decode_ns,
        decode_trusted_ns,
        kernel_ns_per_entry,
        kernel_scalar_ns_per_entry,
        model_reads_per_op,
    })
}

/// The per-level MBRs of the image as stored on disk, root level first.
fn describe(meta: &PageMeta, pages: &[Vec<u8>]) -> io::Result<TreeDescription> {
    let mut levels = Vec::with_capacity(meta.level_starts.len());
    for (k, &start) in meta.level_starts.iter().enumerate() {
        let end = meta
            .level_starts
            .get(k + 1)
            .copied()
            .unwrap_or(meta.nodes + 1);
        let mut mbrs = Vec::with_capacity((end - start) as usize);
        for id in start..end {
            let node = NodePage::decode(&pages[id as usize - 1]).map_err(io::Error::other)?;
            let rects: Vec<Rect> = node.entries.iter().map(|(r, _)| *r).collect();
            mbrs.push(Rect::mbr_of(&rects));
        }
        levels.push(mbrs);
    }
    Ok(TreeDescription::from_levels(levels))
}
