//! What one timed phase of a workload produced.

use crate::layers::Counters;
use crate::span::Tracer;
use crate::stats::Samples;
use std::time::{Duration, Instant};

/// When a timed phase stops.
#[derive(Clone, Debug)]
pub enum Limit {
    /// Until this long has passed (and, for the cycling loops, at least
    /// one full pass of the trace is done).
    Time(Duration),
    /// After exactly this many ops per connection — the traced phase
    /// replays the untraced phase's op counts so counters compare.
    Ops(Vec<usize>),
}

impl Limit {
    /// The instant a time-limited phase ends, counted from when the phase
    /// itself starts.
    pub fn deadline(&self) -> Option<Instant> {
        match self {
            Limit::Time(d) => Some(Instant::now() + *d),
            Limit::Ops(_) => None,
        }
    }

    pub fn ops(&self, conn: usize) -> Option<usize> {
        match self {
            Limit::Time(_) => None,
            Limit::Ops(v) => Some(v[conn]),
        }
    }
}

/// Counts the traced phase's wrappers saw at the end of the timed loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct WrapperCounts {
    pub store_reads: u64,
    pub store_read_ns: u64,
    pub wal_syncs: u64,
    pub wal_sync_ns: u64,
    pub wal_bytes: u64,
    pub evictions: u64,
}

impl WrapperCounts {
    /// Snapshot taken when the timed loop ends, before any post-run
    /// checks or checkpoint add to the wrappers' counts.
    pub fn of(t: &Tracer) -> Self {
        let (store, sync) = (t.agg("store.read"), t.agg("wal.sync"));
        WrapperCounts {
            store_reads: store.count,
            store_read_ns: store.total_ns,
            wal_syncs: sync.count,
            wal_sync_ns: sync.total_ns,
            wal_bytes: t.counter("wal.bytes"),
            evictions: t.counter("pool.evictions"),
        }
    }
}

/// A served op as the client saw it, for matching against engine batches.
#[derive(Clone, Copy, Debug)]
pub struct ClientOp {
    pub key: u64,
    pub send_ns: u64,
    pub recv_ns: u64,
    pub read: bool,
}

pub struct RunResult {
    /// Timed ops attempted.
    pub attempted: u64,
    /// Timed ops that errored, were refused or answered wrongly.
    pub failed: u64,
    pub elapsed_s: f64,
    /// Latency of every completed read op.
    pub reads: Samples,
    /// Latency of every durably acknowledged write.
    pub writes: Samples,
    /// Program counters over the timed loop.
    pub counters: Counters,
    /// Store reads over exactly the first pass of the trace (embedded).
    pub pass_reads: Option<u64>,
    /// Ops done per connection.
    pub per_conn: Vec<usize>,
    pub wrapper: Option<WrapperCounts>,
    pub bytes_per_item: f64,
    /// Peak resident set when the timed loop ended, before any post-run
    /// check or measurement allocates.
    pub peak_rss_mb: f64,
    pub client_ops: Vec<ClientOp>,
    /// Post-run oracle checks made, and how many of them failed.
    pub checks: u64,
    pub checks_failed: u64,
}

impl RunResult {
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
