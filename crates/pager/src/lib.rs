//! Physical page storage for R-trees: page format, page stores, a buffer
//! manager, and disk-backed query execution.
//!
//! The paper's whole argument is that *disk accesses*, not nodes visited,
//! determine query cost. This crate closes the loop physically: tree nodes
//! are serialized one-per-page (the paper assumes "exactly one node fits
//! per page"), queries run against a [`DiskRTree`] through a
//! [`BufferManager`], and the manager counts real page reads — giving an
//! end-to-end measurement the analytic model and the trace simulation can
//! be checked against (`validate_disk` experiment).
//!
//! Pages are 4 KiB with an explicit little-endian layout (40-byte entries:
//! a rectangle and a pointer, exactly Guttman's node entry). A 4 KiB page
//! holds up to 102 entries, comfortably above the paper's largest node
//! capacity of 100. Every page carries a CRC-32; decoding validates it and
//! returns a typed [`PageError`] on corruption.
//!
//! The substrate is also *writable*: [`DiskRTree::insert`] and
//! [`DiskRTree::delete`] run Guttman's insert and condense-tree through the
//! buffer manager's write-back path, with an attached [`rtree_wal::Wal`]
//! logging full page images so [`recover`] can replay a crashed tree back to
//! its last committed state. [`FaultStore`] injects torn writes, short
//! appends and read faults to exercise exactly that path.

mod bufmgr;
mod compress;
mod concurrent;
mod disk_tree;
mod fault;
mod latch;
mod mutate;
mod page;
mod recovery;
mod sched;
mod store;

pub use bufmgr::{BufferManager, IoStats, PrefetchOutcome};
pub use compress::{QRect, Quantizer};
pub use concurrent::ConcurrentDiskRTree;
pub use disk_tree::DiskRTree;
pub use fault::FaultStore;
pub use page::{
    NodePage, NodeRef, NodeSoA, PageError, PageLayout, PageMeta, MAX_ENTRIES_PACKED,
    MAX_ENTRIES_PER_PAGE, PAGE_SIZE,
};
pub use recovery::{recover, replay_committed, RecoveryReport, ReplaySummary};
pub use sched::{StepSchedule, StepStore};
pub use store::{
    ConcurrentPageStore, FileStore, MemStore, PageStore, SharedMemStore, SharedPageStore,
};
