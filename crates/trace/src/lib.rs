//! # iosim-trace — Pablo-style I/O instrumentation and report tables
//!
//! The paper instruments its applications with the Pablo I/O tracing
//! library and reports, per operation kind, the count, cumulative time,
//! volume, and shares of I/O and execution time (Tables 2–3). This crate
//! provides the equivalent: a cheap aggregating [`TraceCollector`] that the
//! file-system layer feeds on every operation, plus rendering helpers for
//! the tables and text "figures" the `repro` binary prints.
//!
//! Times here follow the paper's convention: per-operation durations are
//! **summed across processors** (cumulative time), while wall-clock I/O
//! time is tracked separately per rank so both views are available. (In
//! Table 2 the read row shows 60,284 s cumulative over 4 processors while
//! the caption says "total I/O time is 4.4 hours" ≈ 60,284/4 s — the
//! cumulative convention.)

pub mod cache;
pub mod figure;
pub mod hist;
pub mod listio;
pub mod mem;
pub mod queue;
pub mod report;

pub use cache::{CacheCounters, CacheSnapshot};
pub use hist::{LatencyHistogram, SizeHistogram};
pub use listio::{ListIoCounters, ListIoSnapshot};
pub use mem::MemSnapshot;
pub use queue::{QueueCounters, QueueSnapshot};

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use iosim_simkit::time::{SimDuration, SimTime};

/// The I/O operation kinds distinguished by the paper's trace tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// File open.
    Open,
    /// Data read.
    Read,
    /// Explicit seek (file-pointer reposition).
    Seek,
    /// Data write.
    Write,
    /// Flush of buffered data.
    Flush,
    /// File close.
    Close,
}

impl OpKind {
    /// All kinds, in the row order of the paper's tables.
    pub const ALL: [OpKind; 6] = [
        OpKind::Open,
        OpKind::Read,
        OpKind::Seek,
        OpKind::Write,
        OpKind::Flush,
        OpKind::Close,
    ];

    /// Row label used in the tables.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Open => "Open",
            OpKind::Read => "Read",
            OpKind::Seek => "Seek",
            OpKind::Write => "Write",
            OpKind::Flush => "Flush",
            OpKind::Close => "Close",
        }
    }

    fn index(self) -> usize {
        match self {
            OpKind::Open => 0,
            OpKind::Read => 1,
            OpKind::Seek => 2,
            OpKind::Write => 3,
            OpKind::Flush => 4,
            OpKind::Close => 5,
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct KindAgg {
    count: u64,
    time: SimDuration,
    bytes: u64,
}

#[derive(Default)]
struct CollectorInner {
    by_kind: [KindAgg; 6],
    /// Per-rank cumulative I/O time (for wall-clock style reporting).
    per_rank_time: Vec<SimDuration>,
    /// Latest completion across all ops.
    last_end: SimTime,
    /// Request-size distribution of reads.
    read_sizes: hist::SizeHistogram,
    /// Request-size distribution of writes.
    write_sizes: hist::SizeHistogram,
}

/// Aggregating trace collector, shared by reference with the file-system
/// layer. Cloning shares the underlying aggregation.
#[derive(Clone, Default)]
pub struct TraceCollector {
    inner: Rc<RefCell<CollectorInner>>,
    cache: cache::CacheCounters,
    listio: listio::ListIoCounters,
    queue: queue::QueueCounters,
}

impl TraceCollector {
    /// New empty collector.
    pub fn new() -> TraceCollector {
        TraceCollector::default()
    }

    /// Record one completed operation performed by `rank`.
    pub fn record(&self, rank: usize, kind: OpKind, start: SimTime, end: SimTime, bytes: u64) {
        let mut inner = self.inner.borrow_mut();
        let agg = &mut inner.by_kind[kind.index()];
        agg.count += 1;
        agg.time += end.since(start);
        agg.bytes += bytes;
        if inner.per_rank_time.len() <= rank {
            inner.per_rank_time.resize(rank + 1, SimDuration::ZERO);
        }
        inner.per_rank_time[rank] += end.since(start);
        inner.last_end = inner.last_end.max(end);
        match kind {
            OpKind::Read => inner.read_sizes.record(bytes),
            OpKind::Write => inner.write_sizes.record(bytes),
            _ => {}
        }
    }

    /// Request-size distribution of reads.
    pub fn read_sizes(&self) -> hist::SizeHistogram {
        self.inner.borrow().read_sizes.clone()
    }

    /// Request-size distribution of writes.
    pub fn write_sizes(&self) -> hist::SizeHistogram {
        self.inner.borrow().write_sizes.clone()
    }

    /// Aggregate per-kind summary.
    pub fn summary(&self) -> IoSummary {
        let inner = self.inner.borrow();
        let rows: Vec<SummaryRow> = OpKind::ALL
            .iter()
            .map(|&k| {
                let a = inner.by_kind[k.index()];
                SummaryRow {
                    kind: k,
                    count: a.count,
                    time: a.time,
                    bytes: a.bytes,
                }
            })
            .collect();
        IoSummary { rows }
    }

    /// Cumulative I/O time summed over all ranks (paper table convention).
    pub fn cumulative_io_time(&self) -> SimDuration {
        self.inner.borrow().by_kind.iter().map(|a| a.time).sum()
    }

    /// The maximum per-rank cumulative I/O time — an approximation of
    /// wall-clock I/O time when ranks do I/O concurrently.
    pub fn max_rank_io_time(&self) -> SimDuration {
        self.inner
            .borrow()
            .per_rank_time
            .iter()
            .copied()
            .fold(SimDuration::ZERO, SimDuration::max)
    }

    /// Per-rank cumulative I/O times, indexed by rank.
    pub fn per_rank_io_times(&self) -> Vec<SimDuration> {
        self.inner.borrow().per_rank_time.clone()
    }

    /// I/O load-balance diagnostics across ranks.
    pub fn balance(&self) -> BalanceStats {
        BalanceStats::from_times(&self.per_rank_io_times())
    }

    /// Total bytes moved (reads + writes).
    pub fn total_bytes(&self) -> u64 {
        self.inner.borrow().by_kind.iter().map(|a| a.bytes).sum()
    }

    /// Total operation count.
    pub fn total_ops(&self) -> u64 {
        self.inner.borrow().by_kind.iter().map(|a| a.count).sum()
    }

    /// Count for one kind.
    pub fn count(&self, kind: OpKind) -> u64 {
        self.inner.borrow().by_kind[kind.index()].count
    }

    /// Cumulative time for one kind.
    pub fn time(&self, kind: OpKind) -> SimDuration {
        self.inner.borrow().by_kind[kind.index()].time
    }

    /// Bytes moved by one kind.
    pub fn bytes(&self, kind: OpKind) -> u64 {
        self.inner.borrow().by_kind[kind.index()].bytes
    }

    /// Buffer-cache counters fed by the `iosim-cache` subsystem. Shared
    /// across clones like the op aggregation.
    pub fn cache(&self) -> &cache::CacheCounters {
        &self.cache
    }

    /// List-I/O request-shape counters fed by the `iosim-pfs` vectored
    /// service path. Shared across clones like the op aggregation.
    pub fn listio(&self) -> &listio::ListIoCounters {
        &self.listio
    }

    /// Command-queue counters fed by the `iosim-pfs` per-node command
    /// queues (depth > 1 machines). Shared across clones like the op
    /// aggregation.
    pub fn queue(&self) -> &queue::QueueCounters {
        &self.queue
    }

    /// Reset all aggregation (e.g. to exclude a warm-up phase).
    pub fn reset(&self) {
        *self.inner.borrow_mut() = CollectorInner::default();
        self.cache.reset();
        self.listio.reset();
        self.queue.reset();
    }
}

/// Load-balance summary of per-rank cumulative I/O time.
///
/// `max / mean` is the imbalance factor: 1.0 means perfectly balanced
/// I/O; the SCF 3.0 balancing step exists to pull this toward 1.
#[derive(Clone, Copy, Debug, Default)]
pub struct BalanceStats {
    /// Ranks observed.
    pub ranks: usize,
    /// Fastest rank's cumulative I/O time.
    pub min: SimDuration,
    /// Mean cumulative I/O time.
    pub mean: SimDuration,
    /// Slowest rank's cumulative I/O time.
    pub max: SimDuration,
}

impl BalanceStats {
    /// Balance statistics over per-rank cumulative I/O times.
    pub fn from_times(times: &[SimDuration]) -> BalanceStats {
        if times.is_empty() {
            return BalanceStats::default();
        }
        let max = times
            .iter()
            .copied()
            .fold(SimDuration::ZERO, SimDuration::max);
        let min = times.iter().copied().fold(max, SimDuration::min);
        let sum: u64 = times.iter().map(|d| d.as_nanos()).sum();
        let mean = SimDuration(sum / times.len() as u64);
        BalanceStats {
            ranks: times.len(),
            min,
            mean,
            max,
        }
    }

    /// The imbalance factor `max / mean` (1.0 when empty or perfectly
    /// balanced).
    pub fn imbalance(&self) -> f64 {
        let mean = self.mean.as_secs_f64();
        if mean > 0.0 {
            self.max.as_secs_f64() / mean
        } else {
            1.0
        }
    }
}

/// One row of an I/O summary table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SummaryRow {
    /// Operation kind.
    pub kind: OpKind,
    /// Number of operations.
    pub count: u64,
    /// Cumulative time across ranks.
    pub time: SimDuration,
    /// Bytes moved (zero for metadata ops).
    pub bytes: u64,
}

/// Per-kind I/O summary in the layout of the paper's Tables 2–3.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IoSummary {
    /// Rows in paper order (Open, Read, Seek, Write, Flush, Close).
    pub rows: Vec<SummaryRow>,
}

impl IoSummary {
    /// Total across all kinds.
    pub fn total(&self) -> SummaryRow {
        SummaryRow {
            kind: OpKind::Open, // placeholder; label printed as "All I/O"
            count: self.rows.iter().map(|r| r.count).sum(),
            time: self.rows.iter().map(|r| r.time).sum(),
            bytes: self.rows.iter().map(|r| r.bytes).sum(),
        }
    }

    /// Render the table in the paper's format. `exec_time` is the
    /// cumulative execution time (summed across ranks) used for the
    /// "% of exec time" column.
    pub fn render(&self, title: &str, exec_time: SimDuration) -> String {
        let total = self.total();
        let io_total = total.time.as_secs_f64();
        let exec = exec_time.as_secs_f64();
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        let _ = writeln!(
            out,
            "{:<8} {:>12} {:>14} {:>9} {:>9} {:>9}",
            "Oper", "Count", "I/O Time(s)", "Vol(GB)", "%I/O", "%exec"
        );
        let gb = |b: u64| b as f64 / (1u64 << 30) as f64;
        for r in &self.rows {
            let t = r.time.as_secs_f64();
            let _ = writeln!(
                out,
                "{:<8} {:>12} {:>14.2} {:>9.2} {:>9.2} {:>9.2}",
                r.kind.label(),
                r.count,
                t,
                gb(r.bytes),
                if io_total > 0.0 {
                    100.0 * t / io_total
                } else {
                    0.0
                },
                if exec > 0.0 { 100.0 * t / exec } else { 0.0 },
            );
        }
        let _ = writeln!(
            out,
            "{:<8} {:>12} {:>14.2} {:>9.2} {:>9.2} {:>9.2}",
            "All I/O",
            total.count,
            io_total,
            gb(total.bytes),
            100.0,
            if exec > 0.0 {
                100.0 * io_total / exec
            } else {
                0.0
            },
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime(s * 1_000_000_000)
    }

    #[test]
    fn records_aggregate_by_kind() {
        let tc = TraceCollector::new();
        tc.record(0, OpKind::Read, t(0), t(2), 1024);
        tc.record(1, OpKind::Read, t(1), t(4), 2048);
        tc.record(0, OpKind::Write, t(4), t(5), 512);
        tc.record(0, OpKind::Open, t(0), t(0), 0);
        assert_eq!(tc.count(OpKind::Read), 2);
        assert_eq!(tc.time(OpKind::Read), SimDuration::from_secs(5));
        assert_eq!(tc.bytes(OpKind::Read), 3072);
        assert_eq!(tc.total_ops(), 4);
        assert_eq!(tc.total_bytes(), 3584);
        assert_eq!(tc.cumulative_io_time(), SimDuration::from_secs(6));
    }

    #[test]
    fn per_rank_max_reflects_slowest_rank() {
        let tc = TraceCollector::new();
        tc.record(0, OpKind::Read, t(0), t(1), 1);
        tc.record(3, OpKind::Read, t(0), t(7), 1);
        assert_eq!(tc.max_rank_io_time(), SimDuration::from_secs(7));
    }

    #[test]
    fn summary_total_matches_rows() {
        let tc = TraceCollector::new();
        for i in 0..10u64 {
            tc.record(0, OpKind::Write, t(i), t(i + 1), 100);
        }
        let s = tc.summary();
        let total = s.total();
        assert_eq!(total.count, 10);
        assert_eq!(total.time, SimDuration::from_secs(10));
        assert_eq!(total.bytes, 1000);
    }

    #[test]
    fn render_contains_all_rows_and_percentages() {
        let tc = TraceCollector::new();
        tc.record(0, OpKind::Read, t(0), t(3), 3 << 30);
        tc.record(0, OpKind::Write, t(3), t(4), 1 << 30);
        let table = tc.summary().render("T", SimDuration::from_secs(8));
        assert!(table.contains("Read"));
        assert!(table.contains("Write"));
        assert!(table.contains("All I/O"));
        // Read is 75% of I/O time and 37.5% of exec time.
        assert!(table.contains("75.00"), "table:\n{table}");
        assert!(table.contains("37.50"), "table:\n{table}");
    }

    #[test]
    fn reset_clears_everything() {
        let tc = TraceCollector::new();
        tc.record(0, OpKind::Read, t(0), t(1), 10);
        tc.reset();
        assert_eq!(tc.total_ops(), 0);
        assert_eq!(tc.total_bytes(), 0);
        assert_eq!(tc.cumulative_io_time(), SimDuration::ZERO);
    }

    #[test]
    fn balance_stats_report_imbalance() {
        let tc = TraceCollector::new();
        tc.record(0, OpKind::Read, t(0), t(1), 1); // rank 0: 1 s
        tc.record(1, OpKind::Read, t(0), t(3), 1); // rank 1: 3 s
        let b = tc.balance();
        assert_eq!(b.ranks, 2);
        assert_eq!(b.min, SimDuration::from_secs(1));
        assert_eq!(b.max, SimDuration::from_secs(3));
        assert_eq!(b.mean, SimDuration::from_secs(2));
        assert!((b.imbalance() - 1.5).abs() < 1e-12);
        // Empty collector: neutral imbalance.
        assert!((TraceCollector::new().balance().imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_rank_times_are_exposed() {
        let tc = TraceCollector::new();
        tc.record(2, OpKind::Write, t(0), t(5), 1);
        let v = tc.per_rank_io_times();
        assert_eq!(v.len(), 3);
        assert_eq!(v[2], SimDuration::from_secs(5));
        assert_eq!(v[0], SimDuration::ZERO);
    }

    #[test]
    fn size_histograms_track_reads_and_writes() {
        let tc = TraceCollector::new();
        tc.record(0, OpKind::Read, t(0), t(1), 512);
        tc.record(0, OpKind::Read, t(1), t(2), 512);
        tc.record(0, OpKind::Write, t(2), t(3), 1 << 20);
        tc.record(0, OpKind::Seek, t(3), t(4), 0); // not a data op
        assert_eq!(tc.read_sizes().total_count(), 2);
        assert_eq!(tc.read_sizes().count_for(512), 2);
        assert_eq!(tc.write_sizes().total_count(), 1);
        assert_eq!(tc.write_sizes().median_bucket_bound(), 1 << 20);
    }

    #[test]
    fn cache_counters_ride_along_and_reset() {
        let tc = TraceCollector::new();
        tc.clone().cache().add_hits(2);
        tc.cache().add_misses(1);
        assert_eq!(tc.cache().snapshot().hits, 2);
        assert_eq!(tc.cache().snapshot().misses, 1);
        tc.reset();
        assert!(tc.cache().snapshot().is_empty());
    }

    #[test]
    fn listio_counters_ride_along_and_reset() {
        let tc = TraceCollector::new();
        tc.clone().listio().add_request(8, 2, 512);
        assert_eq!(tc.listio().snapshot().requests, 1);
        assert_eq!(tc.listio().snapshot().fragments, 8);
        tc.reset();
        assert!(tc.listio().snapshot().is_empty());
    }

    #[test]
    fn clones_share_state() {
        let tc = TraceCollector::new();
        let tc2 = tc.clone();
        tc2.record(0, OpKind::Seek, t(0), t(1), 0);
        assert_eq!(tc.count(OpKind::Seek), 1);
    }
}
