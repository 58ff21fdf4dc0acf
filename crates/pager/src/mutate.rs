//! Mutable disk-backed R-tree operations: Guttman's insert and
//! condense-tree delete executed page-by-page through the buffer manager.
//!
//! Every page touched by an operation goes through
//! [`crate::BufferManager::write_buffered`], so with a WAL attached
//! ([`crate::DiskRTree::attach_wal`]) the full before/after images are
//! logged and the operation is recoverable: each public call ends with a
//! commit marker, making it a single-op transaction.
//!
//! Mutations abandon the bulk-load level-order page layout; the metadata's
//! level table is cleared on the first insert or delete and the layout-
//! dependent helpers ([`crate::DiskRTree::pages_per_level`],
//! [`crate::DiskRTree::pin_top_levels`]) panic afterwards. Freed pages go on
//! an intrusive free list (head in the meta page, `FREE`-tagged pages
//! chaining to the next) and are reused before the store grows.

use crate::disk_tree::DiskRTree;
use crate::{BufferManager, NodePage, PageMeta, PageStore, MAX_ENTRIES_PER_PAGE, PAGE_SIZE};
use rtree_buffer::{PageId, ReplacementPolicy};
use rtree_geom::Rect;
use std::io;

/// Magic tag at offset 0 of a page on the free list.
const FREE_MAGIC: &[u8; 4] = b"FREE";
/// Byte offset of the next-free-page pointer inside a free page. Offsets
/// 8..12 hold the page CRC (the buffer manager verifies every page at
/// page-in, free pages included), so the pointer sits past it.
const FREE_NEXT_OFFSET: usize = 16;

pub(crate) fn mbr(entries: &[(Rect, u64)]) -> Rect {
    entries
        .iter()
        .skip(1)
        .fold(entries[0].0, |acc, (r, _)| acc.union(r))
}

/// Guttman's ChooseLeaf criterion: least enlargement, ties broken by
/// smaller area, then lower slot.
pub(crate) fn choose_subtree(entries: &[(Rect, u64)], rect: &Rect) -> usize {
    let mut best = 0;
    let mut best_enlargement = f64::INFINITY;
    let mut best_area = f64::INFINITY;
    for (i, (r, _)) in entries.iter().enumerate() {
        let enlargement = r.enlargement(rect);
        let area = r.area();
        if enlargement < best_enlargement || (enlargement == best_enlargement && area < best_area) {
            best = i;
            best_enlargement = enlargement;
            best_area = area;
        }
    }
    best
}

/// A raw page entry: rectangle plus child page id (internal) or item id (leaf).
pub(crate) type PageEntry = (Rect, u64);

/// Guttman's quadratic split over raw page entries.
pub(crate) fn quadratic_split(
    mut entries: Vec<PageEntry>,
    min: usize,
) -> (Vec<PageEntry>, Vec<PageEntry>) {
    debug_assert!(entries.len() >= 2 && entries.len() >= 2 * min);

    // PickSeeds: the pair wasting the most area if grouped together.
    let (mut seed_a, mut seed_b, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..entries.len() {
        for j in (i + 1)..entries.len() {
            let waste = entries[i].0.union(&entries[j].0).area()
                - entries[i].0.area()
                - entries[j].0.area();
            if waste > worst {
                worst = waste;
                seed_a = i;
                seed_b = j;
            }
        }
    }
    // Remove the higher index first so the lower stays valid.
    let b_seed = entries.swap_remove(seed_b);
    let a_seed = entries.swap_remove(seed_a);
    let mut group_a = vec![a_seed];
    let mut group_b = vec![b_seed];
    let mut rect_a = group_a[0].0;
    let mut rect_b = group_b[0].0;

    while !entries.is_empty() {
        // If one group must absorb everything left to reach the minimum
        // fill, hand the remainder over wholesale.
        let remaining = entries.len();
        if group_a.len() + remaining == min {
            group_a.append(&mut entries);
            break;
        }
        if group_b.len() + remaining == min {
            group_b.append(&mut entries);
            break;
        }

        // PickNext: the entry with the strongest preference.
        let (mut pick, mut pick_diff) = (0, f64::NEG_INFINITY);
        for (i, (r, _)) in entries.iter().enumerate() {
            let d_a = rect_a.enlargement(r);
            let d_b = rect_b.enlargement(r);
            let diff = (d_a - d_b).abs();
            if diff > pick_diff {
                pick_diff = diff;
                pick = i;
            }
        }
        let entry = entries.swap_remove(pick);
        let d_a = rect_a.enlargement(&entry.0);
        let d_b = rect_b.enlargement(&entry.0);
        // Resolve ties by smaller area, then smaller group.
        let to_a = if d_a != d_b {
            d_a < d_b
        } else if rect_a.area() != rect_b.area() {
            rect_a.area() < rect_b.area()
        } else {
            group_a.len() <= group_b.len()
        };
        if to_a {
            rect_a = rect_a.union(&entry.0);
            group_a.push(entry);
        } else {
            rect_b = rect_b.union(&entry.0);
            group_b.push(entry);
        }
    }
    (group_a, group_b)
}

impl<S: PageStore> DiskRTree<S> {
    /// Creates an empty, mutable tree: a meta page and an empty root leaf.
    ///
    /// `min_entries` is Guttman's `m`; it must satisfy
    /// `1 <= m <= max_entries / 2` so a split can always produce two legal
    /// nodes.
    ///
    /// # Panics
    /// Panics if the capacities are out of range.
    pub fn create_empty(
        mut store: S,
        max_entries: usize,
        min_entries: usize,
        buffer_capacity: usize,
        policy: impl ReplacementPolicy + 'static,
    ) -> io::Result<Self> {
        assert!(
            (2..=MAX_ENTRIES_PER_PAGE).contains(&max_entries),
            "node capacity {max_entries} out of range 2..={MAX_ENTRIES_PER_PAGE}"
        );
        assert!(
            min_entries >= 1 && 2 * min_entries <= max_entries,
            "min fill {min_entries} must satisfy 1 <= m <= M/2"
        );
        let meta = PageMeta {
            root: 1,
            height: 1,
            max_entries: max_entries as u32,
            min_entries: min_entries as u32,
            items: 0,
            nodes: 1,
            free_head: 0,
            level_starts: vec![1],
            internal_max_entries: max_entries as u32,
            compressed: false,
        };
        let mut buf = vec![0u8; PAGE_SIZE];
        let meta_page = store.allocate()?;
        debug_assert_eq!(meta_page, PageId(0));
        meta.encode(&mut buf);
        store.write_page(meta_page, &buf)?;
        let root = store.allocate()?;
        NodePage {
            level: 0,
            entries: Vec::new(),
        }
        .encode(&mut buf);
        store.write_page(root, &buf)?;
        Ok(DiskRTree::from_parts(
            BufferManager::new(store, buffer_capacity, policy),
            meta,
        ))
    }

    /// Inserts an item, logging every touched page and committing at the
    /// end. Runs Guttman's ChooseLeaf / QuadraticSplit / AdjustTree over
    /// pages.
    pub fn insert(&mut self, rect: Rect, item: u64) -> io::Result<()> {
        debug_assert!(rect.is_valid(), "inserting an invalid rectangle");
        self.in_span(|tree| tree.insert_inner(rect, item))
    }

    fn insert_inner(&mut self, rect: Rect, item: u64) -> io::Result<()> {
        self.insert_entry((rect, item), 0)?;
        self.meta.items += 1;
        self.finish_op()
    }

    /// Deletes the exact `(rect, item)` entry if present, condensing
    /// underfull nodes and reinserting their orphaned entries. Returns
    /// whether the entry was found.
    pub fn delete(&mut self, rect: &Rect, item: u64) -> io::Result<bool> {
        self.in_span(|tree| tree.delete_inner(rect, item))
    }

    fn delete_inner(&mut self, rect: &Rect, item: u64) -> io::Result<bool> {
        let mut path = Vec::new();
        let Some(leaf_id) = self.find_leaf(self.meta.root, rect, item, &mut path)? else {
            return Ok(false);
        };

        let mut cur = self.load(leaf_id)?;
        let pos = cur
            .entries
            .iter()
            .position(|(r, p)| *p == item && r == rect)
            .expect("find_leaf verified the entry");
        cur.entries.remove(pos);

        // CondenseTree: walk back to the root, dissolving underfull nodes
        // and tightening ancestor rectangles.
        let min = self.meta.min_entries as usize;
        let mut orphans: Vec<(u16, Vec<(Rect, u64)>)> = Vec::new();
        let mut cur_id = leaf_id;
        while let Some((parent_id, slot)) = path.pop() {
            let mut parent = self.load(parent_id)?;
            debug_assert_eq!(parent.entries[slot].1, cur_id);
            if cur.entries.len() < min {
                orphans.push((cur.level, std::mem::take(&mut cur.entries)));
                self.free_page(cur_id)?;
                self.meta.nodes -= 1;
                parent.entries.remove(slot);
            } else {
                self.store_node(cur_id, &cur)?;
                parent.entries[slot].0 = mbr(&cur.entries);
            }
            cur_id = parent_id;
            cur = parent;
        }
        // `cur` is now the root; it may legally underflow (or empty out
        // entirely when it is a leaf).
        self.store_node(cur_id, &cur)?;

        // Reinsert orphaned entries at their original level, highest first,
        // so subtrees land before the entries that would go under them.
        orphans.sort_by_key(|o| std::cmp::Reverse(o.0));
        for (level, entries) in orphans {
            for entry in entries {
                self.insert_entry(entry, level)?;
            }
        }

        // ShrinkTree: while the root is internal with a single child, the
        // child becomes the root.
        loop {
            let root_id = self.meta.root;
            let root = self.load(root_id)?;
            if root.level > 0 && root.entries.len() == 1 {
                self.meta.root = root.entries[0].1;
                self.meta.height -= 1;
                self.free_page(root_id)?;
                self.meta.nodes -= 1;
            } else {
                break;
            }
        }

        self.meta.items -= 1;
        self.finish_op()?;
        Ok(true)
    }

    /// Writes the updated metadata and commits the operation.
    fn finish_op(&mut self) -> io::Result<()> {
        // The level-order layout is gone after any mutation.
        self.meta.level_starts.clear();
        self.write_meta()?;
        self.mgr.commit()
    }

    /// Inserts `entry` into a node at `target_level`, splitting upward as
    /// needed (AdjustTree). `target_level` is 0 for items; orphan
    /// reinsertion passes the level the entry originally lived at.
    fn insert_entry(&mut self, entry: (Rect, u64), target_level: u16) -> io::Result<()> {
        // Capacity is per level: compressed trees pack internal pages
        // denser than leaves (see PageMeta::capacity_at).
        let min = self.meta.min_entries as usize;

        // Descend to the insertion node, remembering the path.
        let mut path: Vec<(u64, usize)> = Vec::new();
        let mut cur_id = self.meta.root;
        let mut node = self.load(cur_id)?;
        while node.level > target_level {
            let slot = choose_subtree(&node.entries, &entry.0);
            path.push((cur_id, slot));
            cur_id = node.entries[slot].1;
            node = self.load(cur_id)?;
        }
        debug_assert_eq!(node.level, target_level, "target level must exist");
        node.entries.push(entry);

        // Store (splitting if overfull), then walk the path up adjusting
        // rectangles and installing split siblings.
        let mut level = node.level;
        let mut split: Option<(Rect, u64)> = None;
        let mut child_mbr;
        if node.entries.len() > self.meta.capacity_at(node.level) {
            let (a, b) = quadratic_split(std::mem::take(&mut node.entries), min);
            child_mbr = mbr(&a);
            node.entries = a;
            self.store_node(cur_id, &node)?;
            split = Some(self.store_sibling(level, b)?);
        } else {
            child_mbr = mbr(&node.entries);
            self.store_node(cur_id, &node)?;
        }
        let mut child_id = cur_id;

        while let Some((pid, slot)) = path.pop() {
            let mut parent = self.load(pid)?;
            debug_assert_eq!(parent.entries[slot].1, child_id);
            parent.entries[slot].0 = child_mbr;
            if let Some(s) = split.take() {
                parent.entries.push(s);
            }
            level = parent.level;
            if parent.entries.len() > self.meta.capacity_at(parent.level) {
                let (a, b) = quadratic_split(std::mem::take(&mut parent.entries), min);
                child_mbr = mbr(&a);
                parent.entries = a;
                self.store_node(pid, &parent)?;
                split = Some(self.store_sibling(level, b)?);
            } else {
                child_mbr = mbr(&parent.entries);
                self.store_node(pid, &parent)?;
            }
            child_id = pid;
        }

        if let Some(sibling) = split {
            // The root itself split: grow the tree by one level.
            let new_root_id = self.alloc_page()?;
            let new_root = NodePage {
                level: level + 1,
                entries: vec![(child_mbr, child_id), sibling],
            };
            self.store_node(new_root_id, &new_root)?;
            self.meta.root = new_root_id;
            self.meta.height += 1;
            self.meta.nodes += 1;
        }
        Ok(())
    }

    /// Writes a freshly split-off sibling node and returns its parent entry.
    fn store_sibling(&mut self, level: u16, entries: Vec<(Rect, u64)>) -> io::Result<(Rect, u64)> {
        let rect = mbr(&entries);
        let id = self.alloc_page()?;
        self.store_node(id, &NodePage { level, entries })?;
        self.meta.nodes += 1;
        Ok((rect, id))
    }

    /// Finds the leaf holding the exact `(rect, item)` entry, filling
    /// `path` with `(page, slot)` pairs from the root down.
    fn find_leaf(
        &mut self,
        pid: u64,
        rect: &Rect,
        item: u64,
        path: &mut Vec<(u64, usize)>,
    ) -> io::Result<Option<u64>> {
        let node = self.load(pid)?;
        if node.level == 0 {
            if node.entries.iter().any(|(r, p)| *p == item && r == rect) {
                return Ok(Some(pid));
            }
            return Ok(None);
        }
        for (slot, (r, child)) in node.entries.iter().enumerate() {
            if r.contains_rect(rect) {
                path.push((pid, slot));
                if let Some(leaf) = self.find_leaf(*child, rect, item, path)? {
                    return Ok(Some(leaf));
                }
                path.pop();
            }
        }
        Ok(None)
    }

    fn load(&mut self, id: u64) -> io::Result<NodePage> {
        NodePage::decode(self.mgr.fetch(PageId(id))?).map_err(io::Error::from)
    }

    fn store_node(&mut self, id: u64, node: &NodePage) -> io::Result<()> {
        let mut buf = vec![0u8; PAGE_SIZE];
        // Layout-preserving: internal pages of a compressed tree are
        // re-quantized on every rewrite. Expansion is monotone (the new
        // frame contains the rewritten entries), so the containment
        // invariant queries rely on survives arbitrary mutation.
        node.encode_with(&mut buf, self.meta.layout_at(node.level));
        self.mgr.write_buffered(PageId(id), &buf)
    }

    fn write_meta(&mut self) -> io::Result<()> {
        let mut buf = vec![0u8; PAGE_SIZE];
        self.meta.encode(&mut buf);
        self.mgr.write_buffered(PageId(0), &buf)
    }

    /// Allocates a page, reusing the free list before growing the store.
    fn alloc_page(&mut self) -> io::Result<u64> {
        if self.meta.free_head == 0 {
            return Ok(self.mgr.allocate()?.0);
        }
        let id = self.meta.free_head;
        let frame = self.mgr.fetch(PageId(id))?;
        if &frame[0..4] != FREE_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("free-list page {id} lacks the FREE tag"),
            ));
        }
        let next = u64::from_le_bytes(
            frame[FREE_NEXT_OFFSET..FREE_NEXT_OFFSET + 8]
                .try_into()
                .expect("8 bytes"),
        );
        self.meta.free_head = next;
        Ok(id)
    }

    /// Pushes a page onto the free list (logged like any other write).
    fn free_page(&mut self, id: u64) -> io::Result<()> {
        let mut buf = vec![0u8; PAGE_SIZE];
        buf[0..4].copy_from_slice(FREE_MAGIC);
        buf[FREE_NEXT_OFFSET..FREE_NEXT_OFFSET + 8]
            .copy_from_slice(&self.meta.free_head.to_le_bytes());
        crate::page::seal(&mut buf);
        self.mgr.write_buffered(PageId(id), &buf)?;
        self.meta.free_head = id;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemStore;
    use rtree_buffer::LruPolicy;
    use rtree_index::RTreeBuilder;

    fn rects(n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let x = (i as f64 * 0.618_033) % 0.95;
                let y = (i as f64 * 0.414_213) % 0.95;
                Rect::new(x, y, x + 0.02, y + 0.02)
            })
            .collect()
    }

    fn sorted(mut v: Vec<u64>) -> Vec<u64> {
        v.sort_unstable();
        v
    }

    #[test]
    fn empty_tree_queries_empty() {
        let mut t = DiskRTree::create_empty(MemStore::new(), 8, 3, 16, LruPolicy::new()).unwrap();
        assert_eq!(t.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap(), vec![]);
        assert_eq!(t.meta().items, 0);
    }

    #[test]
    fn inserts_match_in_memory_reference() {
        let mut disk =
            DiskRTree::create_empty(MemStore::new(), 8, 3, 32, LruPolicy::new()).unwrap();
        let mut reference = RTreeBuilder::new(8).min_entries(3).build();
        for (i, r) in rects(500).iter().enumerate() {
            disk.insert(*r, i as u64).unwrap();
            reference.insert(*r, i as u64);
        }
        assert_eq!(disk.meta().items, 500);
        assert!(disk.meta().height > 1, "tree must have grown");
        for q in [
            Rect::new(0.1, 0.1, 0.4, 0.3),
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(0.8, 0.05, 0.9, 0.6),
        ] {
            assert_eq!(
                sorted(disk.query(&q).unwrap()),
                sorted(reference.search(&q)),
                "query {q}"
            );
        }
    }

    #[test]
    fn deletes_match_in_memory_reference() {
        let mut disk =
            DiskRTree::create_empty(MemStore::new(), 8, 3, 32, LruPolicy::new()).unwrap();
        let mut reference = RTreeBuilder::new(8).min_entries(3).build();
        let rs = rects(400);
        for (i, r) in rs.iter().enumerate() {
            disk.insert(*r, i as u64).unwrap();
            reference.insert(*r, i as u64);
        }
        // Delete every other item, forcing plenty of condensing.
        for (i, r) in rs.iter().enumerate().step_by(2) {
            assert!(disk.delete(r, i as u64).unwrap(), "item {i} present");
            assert!(reference.delete(r, i as u64));
        }
        assert_eq!(disk.meta().items, 200);
        let everything = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert_eq!(
            sorted(disk.query(&everything).unwrap()),
            sorted(reference.search(&everything))
        );
        // Deleting a missing entry reports false and changes nothing.
        assert!(!disk.delete(&rs[0], 0).unwrap());
        assert_eq!(disk.meta().items, 200);
    }

    #[test]
    fn delete_everything_then_reinsert() {
        let mut disk =
            DiskRTree::create_empty(MemStore::new(), 8, 3, 32, LruPolicy::new()).unwrap();
        let rs = rects(150);
        for (i, r) in rs.iter().enumerate() {
            disk.insert(*r, i as u64).unwrap();
        }
        for (i, r) in rs.iter().enumerate() {
            assert!(disk.delete(r, i as u64).unwrap());
        }
        assert_eq!(disk.meta().items, 0);
        assert_eq!(disk.meta().height, 1, "tree collapsed to a root leaf");
        assert_eq!(disk.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap(), vec![]);
        // Everything freed is reusable: page count must not grow much on
        // reinsertion.
        let pages_before = disk.mgr.store_mut().page_count();
        for (i, r) in rs.iter().enumerate() {
            disk.insert(*r, i as u64).unwrap();
        }
        assert_eq!(
            sorted(disk.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap()).len(),
            150
        );
        assert_eq!(
            disk.mgr.store_mut().page_count(),
            pages_before,
            "free list reuses every dissolved page"
        );
    }

    #[test]
    fn mutated_tree_survives_flush_and_reopen() {
        let mut store = MemStore::new();
        let rs = rects(300);
        {
            let mut disk =
                DiskRTree::create_empty(&mut store, 10, 4, 16, LruPolicy::new()).unwrap();
            for (i, r) in rs.iter().enumerate() {
                disk.insert(*r, i as u64).unwrap();
            }
            for (i, r) in rs.iter().enumerate().take(100) {
                disk.delete(r, i as u64).unwrap();
            }
            disk.flush().unwrap();
        }
        let mut disk = DiskRTree::open(&mut store, 16, LruPolicy::new()).unwrap();
        assert_eq!(disk.meta().items, 200);
        let got = sorted(disk.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).unwrap());
        assert_eq!(got, (100..300).collect::<Vec<u64>>());
    }

    #[test]
    #[should_panic(expected = "level table is stale")]
    fn mutation_invalidates_level_table() {
        let mut disk =
            DiskRTree::create_empty(MemStore::new(), 8, 3, 16, LruPolicy::new()).unwrap();
        disk.insert(Rect::new(0.1, 0.1, 0.2, 0.2), 7).unwrap();
        disk.pages_per_level();
    }

    #[test]
    fn quadratic_split_respects_min_fill() {
        let entries: Vec<(Rect, u64)> = rects(11)
            .into_iter()
            .enumerate()
            .map(|(i, r)| (r, i as u64))
            .collect();
        let (a, b) = quadratic_split(entries, 4);
        assert_eq!(a.len() + b.len(), 11);
        assert!(a.len() >= 4, "group A below min fill: {}", a.len());
        assert!(b.len() >= 4, "group B below min fill: {}", b.len());
    }

    #[test]
    fn writes_are_buffered_until_flush() {
        let mut disk =
            DiskRTree::create_empty(MemStore::new(), 8, 3, 64, LruPolicy::new()).unwrap();
        for (i, r) in rects(50).iter().enumerate() {
            disk.insert(*r, i as u64).unwrap();
        }
        // A 64-frame buffer easily holds this tree: nothing was evicted, so
        // no physical write has happened since creation.
        assert_eq!(disk.physical_writes(), 0);
        disk.flush().unwrap();
        assert!(disk.physical_writes() > 0);
    }
}
