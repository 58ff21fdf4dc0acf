//! Trust-boundary regressions: a corrupt node page must surface as
//! `InvalidData` from a query on every engine — `DiskRTree`, the
//! `BatchExecutor`, and the read-only and writable `ConcurrentDiskRTree` —
//! whether it arrives through a buffer miss (a leaf) or through the
//! uncharged root peek (the root).
//!
//! Five corruptions are covered: a flipped bit (caught by the checksum),
//! an inverted and a NaN rectangle re-sealed with a valid checksum, an
//! unknown layout flag and an entry count past the page capacity (both
//! re-sealed). The last four pass the checksum, so only structural and
//! rectangle validation can catch them.
//!
//! A rejected page must not stay resident: after the test writes the good
//! image back to the store, the very next query has to re-read the page
//! and answer exactly. Every engine gets a buffer larger than the tree, so
//! a rejected frame that stayed resident would be hit, not evicted.

use buffered_rtrees::buffer::{LruPolicy, PageId};
use buffered_rtrees::exec::BatchExecutor;
use buffered_rtrees::geom::{Point, Rect};
use buffered_rtrees::index::{BulkLoader, RTree};
use buffered_rtrees::pager::{
    ConcurrentDiskRTree, ConcurrentPageStore, DiskRTree, NodePage, PageLayout, PageMeta, PageStore,
    SharedMemStore, MAX_ENTRIES_PER_PAGE, PAGE_SIZE,
};
use buffered_rtrees::wal::{crc32, GroupWal, MemLog};
use std::io;

/// Frames for every engine: more than the tree has pages.
const FRAMES: usize = 1024;

fn dataset() -> Vec<Rect> {
    (0..2_000)
        .map(|i| {
            let x = (i as f64 * 0.618_033) % 0.97;
            let y = (i as f64 * 0.414_213) % 0.97;
            Rect::new(x, y, x + 0.012, y + 0.012)
        })
        .collect()
}

/// A bulk-loaded v3 image, its metadata and the in-memory oracle.
fn image() -> (Vec<u8>, PageMeta, RTree) {
    let tree = BulkLoader::hilbert(16).load(&dataset());
    let disk = DiskRTree::create(SharedMemStore::new(), &tree, 8, LruPolicy::new()).unwrap();
    let meta = disk.meta().clone();
    assert!(meta.height >= 3, "root, internal and leaf levels");
    (disk.into_store().snapshot(), meta, tree)
}

fn page_of(bytes: &[u8], id: u64) -> Vec<u8> {
    let off = id as usize * PAGE_SIZE;
    bytes[off..off + PAGE_SIZE].to_vec()
}

/// Recomputes a page's checksum (the CRC-32 of the page with its 4-byte
/// checksum field at offset 8 zeroed), so only validation past the
/// checksum can reject what was changed.
fn reseal(page: &mut [u8]) {
    page[8..12].fill(0);
    let crc = crc32::checksum(page);
    page[8..12].copy_from_slice(&crc.to_le_bytes());
}

/// Re-encodes `good` with entry 0's rectangle replaced (encoding does not
/// validate, and it seals the page).
fn with_first_rect(good: &[u8], f: impl FnOnce(Rect) -> Rect) -> Vec<u8> {
    let mut node = NodePage::decode(good).unwrap();
    node.entries[0].0 = f(node.entries[0].0);
    let mut page = vec![0u8; PAGE_SIZE];
    node.encode_with(&mut page, PageLayout::of(good).unwrap());
    page
}

/// The corruptions, each applied to the good image of one page.
fn corruptions(good: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
    let mut flipped = good.to_vec();
    flipped[16 + 3] ^= 0x10; // inside lo.x[0]; checksum left stale
    let inverted = with_first_rect(good, |r| Rect {
        lo: Point::new(r.hi.x, r.lo.y),
        hi: Point::new(r.lo.x, r.hi.y),
    });
    let nan = with_first_rect(good, |r| Rect {
        lo: r.lo,
        hi: Point::new(r.hi.x, f64::NAN),
    });
    let mut layout = good.to_vec();
    layout[6..8].copy_from_slice(&7u16.to_le_bytes());
    reseal(&mut layout);
    let mut count = good.to_vec();
    count[4..6].copy_from_slice(&(MAX_ENTRIES_PER_PAGE as u16 + 1).to_le_bytes());
    reseal(&mut count);
    vec![
        ("flipped bit", flipped),
        ("inverted rect", inverted),
        ("NaN rect", nan),
        ("bad layout flag", layout),
        ("count overflow", count),
    ]
}

/// One corrupt store image.
struct Case {
    what: String,
    /// The corrupted page.
    id: u64,
    /// The whole store image, with page `id` corrupted.
    corrupt: Vec<u8>,
    /// Page `id`'s good image.
    good: Vec<u8>,
}

/// Every case: each corruption on the root (reached by the peek) and on
/// the last leaf (reached by a miss).
fn cases() -> (Vec<Case>, RTree) {
    let (bytes, meta, tree) = image();
    let mut out = Vec::new();
    for (target, id) in [("root peek", meta.root), ("leaf miss", meta.nodes)] {
        let good = page_of(&bytes, id);
        assert_eq!(
            NodePage::decode(&good).unwrap().level == 0,
            id == meta.nodes
        );
        for (name, bad) in corruptions(&good) {
            let mut corrupt = bytes.clone();
            let off = id as usize * PAGE_SIZE;
            corrupt[off..off + PAGE_SIZE].copy_from_slice(&bad);
            out.push(Case {
                what: format!("{name} on {target}"),
                id,
                corrupt,
                good: good.clone(),
            });
        }
    }
    (out, tree)
}

fn everything() -> Rect {
    Rect::new(0.0, 0.0, 1.0, 1.0)
}

fn windows() -> Vec<Rect> {
    vec![
        everything(),
        Rect::new(0.1, 0.1, 0.3, 0.3),
        Rect::new(0.6, 0.2, 0.9, 0.5),
    ]
}

fn sorted(mut ids: Vec<u64>) -> Vec<u64> {
    ids.sort_unstable();
    ids
}

#[track_caller]
fn assert_invalid<T: std::fmt::Debug>(result: io::Result<T>, what: &str) {
    match result {
        Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}"),
        Ok(v) => panic!("{what}: corrupt page served {v:?}"),
    }
}

/// One engine's query paths over a corrupt image: each must fail with
/// `InvalidData`. With `repair`, the good page is then written back to
/// the store and every query must re-read it and answer exactly.
type Check = fn(&str, &Case, &RTree, bool);

fn disk_tree(what: &str, case: &Case, tree: &RTree, repair: bool) {
    let store = SharedMemStore::from_bytes(case.corrupt.clone());
    let mut disk = DiskRTree::open(store, FRAMES, LruPolicy::new()).unwrap();
    assert_invalid(disk.query(&everything()), what);
    assert_invalid(
        disk.nearest_neighbors(&Point::new(0.5, 0.5), 5_000),
        &format!("{what}, kNN"),
    );
    if !repair {
        return;
    }
    disk.manager_mut()
        .store_mut()
        .write_page(PageId(case.id), &case.good)
        .unwrap();
    for q in windows() {
        assert_eq!(
            sorted(disk.query(&q).unwrap()),
            sorted(tree.search(&q)),
            "{what}: repaired page re-read, query {q}"
        );
    }
}

fn batch_executor(what: &str, case: &Case, tree: &RTree, repair: bool) {
    let store = SharedMemStore::from_bytes(case.corrupt.clone());
    let mut disk = DiskRTree::open(store, FRAMES, LruPolicy::new()).unwrap();
    let exec = BatchExecutor::new();
    assert_invalid(exec.execute(&mut disk, &windows()).map(|o| o.results), what);
    assert_eq!(disk.manager_mut().pinned_count(), 0, "{what}: pins leaked");
    if !repair {
        return;
    }
    disk.manager_mut()
        .store_mut()
        .write_page(PageId(case.id), &case.good)
        .unwrap();
    let out = exec.execute(&mut disk, &windows()).unwrap();
    for (q, got) in windows().iter().zip(out.results) {
        assert_eq!(sorted(got), sorted(tree.search(q)), "{what}: query {q}");
    }
}

fn read_only_concurrent(what: &str, case: &Case, tree: &RTree, repair: bool) {
    let store = SharedMemStore::from_bytes(case.corrupt.clone());
    let disk = ConcurrentDiskRTree::open(store, FRAMES, LruPolicy::new()).unwrap();
    assert_invalid(disk.query(&everything()), what);
    assert_invalid(disk.query_batch(&windows(), 1), &format!("{what}, batch"));
    assert_invalid(
        disk.nearest_neighbors(&Point::new(0.5, 0.5), 5_000),
        &format!("{what}, kNN"),
    );
    if !repair {
        return;
    }
    disk.store()
        .write_page_shared(PageId(case.id), &case.good)
        .unwrap();
    for q in windows() {
        assert_eq!(
            sorted(disk.query(&q).unwrap()),
            sorted(tree.search(&q)),
            "{what}: repaired page re-read, query {q}"
        );
    }
    let batch = disk.query_batch(&windows(), 1).unwrap();
    for (q, got) in windows().iter().zip(batch) {
        assert_eq!(sorted(got), sorted(tree.search(q)), "{what}: batch {q}");
    }
}

fn writable_concurrent(what: &str, case: &Case, tree: &RTree, repair: bool) {
    let store = SharedMemStore::from_bytes(case.corrupt.clone());
    let wal = GroupWal::open(MemLog::new()).unwrap();
    let disk = ConcurrentDiskRTree::open_writable(store, FRAMES, LruPolicy::new(), wal).unwrap();
    assert_invalid(disk.query(&everything()), what);
    if !repair {
        return;
    }
    disk.store()
        .write_page_shared(PageId(case.id), &case.good)
        .unwrap();
    for q in windows() {
        assert_eq!(
            sorted(disk.query(&q).unwrap()),
            sorted(tree.search(&q)),
            "{what}: repaired page re-read, query {q}"
        );
    }
}

fn run_all(repair: bool) {
    let (cases, tree) = cases();
    let engines: [(&str, Check); 4] = [
        ("DiskRTree", disk_tree),
        ("BatchExecutor", batch_executor),
        ("read-only ConcurrentDiskRTree", read_only_concurrent),
        ("writable ConcurrentDiskRTree", writable_concurrent),
    ];
    for (engine, check) in engines {
        for case in &cases {
            check(&format!("{engine}: {}", case.what), case, &tree, repair);
        }
    }
}

#[test]
fn corrupt_pages_surface_as_invalid_data_on_every_engine() {
    run_all(false);
}

#[test]
fn rejected_pages_do_not_stay_resident() {
    run_all(true);
}
