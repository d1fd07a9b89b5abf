//! I/O-node command-queue counters: how deep the per-node queues ran,
//! how often the scheduler serviced commands out of FIFO order, and how
//! much seek work the reordering saved.
//!
//! The `iosim-pfs` command-queue service path (active when
//! `MachineConfig::io_queue_depth > 1`) feeds these through the shared
//! [`crate::TraceCollector`]. The legacy depth-1 FIFO path never ticks
//! them — a zero snapshot means the run used the legacy reservations.
//! The batched two-phase collective path additionally counts its rounds
//! here, so reports can check that a round booked each node exactly once.

use std::cell::RefCell;
use std::rc::Rc;

/// Number of buckets in the dispatch-depth histogram. Dispatches seeing
/// more than `DEPTH_BUCKETS - 1` queued commands land in the last bucket.
pub const DEPTH_BUCKETS: usize = 17;

/// A point-in-time copy of the command-queue counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueSnapshot {
    /// Commands submitted to per-node command queues (one per I/O node
    /// touched by a request — the "bookings" a collective round pays).
    pub bookings: u64,
    /// Commands dispatched out of FIFO order by the scheduler.
    pub reorders: u64,
    /// Dispatches promoted by the starvation bound rather than by seek
    /// position.
    pub starvation_promotions: u64,
    /// Dispatches that turned a would-be seek into an exact sequential
    /// continuation (the FIFO head would have paid the seek penalty).
    pub seeks_avoided: u64,
    /// Head travel saved versus dispatching the FIFO head, summed over
    /// reordered dispatches where both distances are defined (same file
    /// as the head position).
    pub seek_bytes_saved: u64,
    /// Batched two-phase collective rounds issued through the queue.
    pub collective_rounds: u64,
    /// Dispatch-depth histogram: `depth_hist[d]` counts dispatches that
    /// saw `d` arrived commands queued (including the one dispatched);
    /// the last bucket aggregates deeper states.
    pub depth_hist: [u64; DEPTH_BUCKETS],
}

impl QueueSnapshot {
    /// Total commands dispatched (the histogram's mass).
    pub fn dispatches(&self) -> u64 {
        self.depth_hist.iter().sum()
    }

    /// Mean arrived-queue depth observed at dispatch (0.0 when idle).
    pub fn mean_depth(&self) -> f64 {
        let n = self.dispatches();
        if n == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .depth_hist
            .iter()
            .enumerate()
            .map(|(d, &c)| d as u64 * c)
            .sum();
        weighted as f64 / n as f64
    }

    /// Deepest arrived-queue state observed at dispatch.
    pub fn max_depth(&self) -> usize {
        self.depth_hist
            .iter()
            .rposition(|&c| c > 0)
            .unwrap_or_default()
    }

    /// Whether the command-queue path ever ran.
    pub fn is_empty(&self) -> bool {
        *self == QueueSnapshot::default()
    }

    /// Fold another snapshot into this one (field-wise sum, the depth
    /// histogram element-wise), e.g. to total several runs.
    pub fn merge(&mut self, other: &QueueSnapshot) {
        self.bookings += other.bookings;
        self.reorders += other.reorders;
        self.starvation_promotions += other.starvation_promotions;
        self.seeks_avoided += other.seeks_avoided;
        self.seek_bytes_saved += other.seek_bytes_saved;
        self.collective_rounds += other.collective_rounds;
        for (a, b) in self.depth_hist.iter_mut().zip(other.depth_hist.iter()) {
            *a += b;
        }
    }

    /// One-line rendering for run reports.
    pub fn render_line(&self) -> String {
        format!(
            "cmd-queue: {} bookings, depth mean {:.1} max {}, \
             {} reorders, {} seeks avoided ({} head bytes saved), \
             {} starvation promotions",
            self.bookings,
            self.mean_depth(),
            self.max_depth(),
            self.reorders,
            self.seeks_avoided,
            self.seek_bytes_saved,
            self.starvation_promotions,
        )
    }

    /// One-line batching summary for collective runs, `None` when no
    /// batched collective round ran.
    pub fn render_batching_line(&self) -> Option<String> {
        if self.collective_rounds == 0 {
            return None;
        }
        Some(format!(
            "collective batching: {} rounds, {} node bookings ({:.1} per round)",
            self.collective_rounds,
            self.bookings,
            self.bookings as f64 / self.collective_rounds as f64,
        ))
    }
}

#[derive(Default)]
struct QueueInner {
    total: QueueSnapshot,
    per_node: Vec<QueueSnapshot>,
}

impl QueueInner {
    fn node_mut(&mut self, node: usize) -> &mut QueueSnapshot {
        if node >= self.per_node.len() {
            self.per_node.resize(node + 1, QueueSnapshot::default());
        }
        &mut self.per_node[node]
    }
}

/// Shared, cloneable command-queue counter cell. Cloning shares the
/// underlying counters (the same convention as [`crate::TraceCollector`]).
/// Counters aggregate globally and per I/O node.
#[derive(Clone, Default)]
pub struct QueueCounters {
    inner: Rc<RefCell<QueueInner>>,
}

impl QueueCounters {
    /// New zeroed counters.
    pub fn new() -> QueueCounters {
        QueueCounters::default()
    }

    /// Record one command submitted to `node`'s queue.
    pub fn add_booking(&self, node: usize) {
        let mut inner = self.inner.borrow_mut();
        inner.total.bookings += 1;
        inner.node_mut(node).bookings += 1;
    }

    /// Record one dispatch from `node`'s queue: `depth` arrived commands
    /// were queued (including the dispatched one), `reordered` says the
    /// pick was not the FIFO head, `starved` that the starvation bound
    /// forced it, `seek_avoided` that the pick was an exact sequential
    /// continuation where the FIFO head was not, and `bytes_saved` the
    /// head travel saved versus the FIFO head.
    pub fn add_dispatch(
        &self,
        node: usize,
        depth: usize,
        reordered: bool,
        starved: bool,
        seek_avoided: bool,
        bytes_saved: u64,
    ) {
        let apply = |s: &mut QueueSnapshot| {
            s.depth_hist[depth.min(DEPTH_BUCKETS - 1)] += 1;
            s.reorders += u64::from(reordered);
            s.starvation_promotions += u64::from(starved);
            s.seeks_avoided += u64::from(seek_avoided);
            s.seek_bytes_saved += bytes_saved;
        };
        let mut inner = self.inner.borrow_mut();
        apply(&mut inner.total);
        apply(inner.node_mut(node));
    }

    /// Record one batched collective round.
    pub fn add_collective_round(&self) {
        self.inner.borrow_mut().total.collective_rounds += 1;
    }

    /// Current aggregate counter values.
    pub fn snapshot(&self) -> QueueSnapshot {
        self.inner.borrow().total
    }

    /// Current counter values for one I/O node (zero if it never queued).
    pub fn node_snapshot(&self, node: usize) -> QueueSnapshot {
        let inner = self.inner.borrow();
        inner.per_node.get(node).copied().unwrap_or_default()
    }

    /// Zero all counters.
    pub fn reset(&self) {
        *self.inner.borrow_mut() = QueueInner::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let c = QueueCounters::new();
        let c2 = c.clone();
        c.add_booking(0);
        c.add_booking(3);
        c2.add_dispatch(0, 4, true, false, true, 4096);
        c2.add_dispatch(3, 1, false, false, false, 0);
        c2.add_dispatch(3, 40, true, true, false, 0);
        let s = c.snapshot();
        assert_eq!(s.bookings, 2);
        assert_eq!(s.dispatches(), 3);
        assert_eq!(s.reorders, 2);
        assert_eq!(s.starvation_promotions, 1);
        assert_eq!(s.seeks_avoided, 1);
        assert_eq!(s.seek_bytes_saved, 4096);
        assert_eq!(s.depth_hist[4], 1);
        assert_eq!(s.depth_hist[DEPTH_BUCKETS - 1], 1);
        assert_eq!(s.max_depth(), DEPTH_BUCKETS - 1);
        assert!(s.mean_depth() > 1.0);
        assert!(!s.is_empty());
        assert!(s.render_line().contains("2 bookings"));
        // Per-node split.
        assert_eq!(c.node_snapshot(0).dispatches(), 1);
        assert_eq!(c.node_snapshot(3).dispatches(), 2);
        assert!(c.node_snapshot(7).is_empty());
        c2.reset();
        assert!(c.snapshot().is_empty());
    }

    #[test]
    fn batching_line_appears_only_for_collective_runs() {
        let c = QueueCounters::new();
        assert!(c.snapshot().render_batching_line().is_none());
        c.add_collective_round();
        c.add_booking(0);
        c.add_booking(1);
        let line = c.snapshot().render_batching_line().expect("batching line");
        assert!(line.contains("1 rounds"), "{line}");
        assert!(line.contains("2 node bookings"), "{line}");
    }

    #[test]
    fn idle_snapshot_is_neutral() {
        let s = QueueSnapshot::default();
        assert_eq!(s.dispatches(), 0);
        assert_eq!(s.mean_depth(), 0.0);
        assert_eq!(s.max_depth(), 0);
        assert!(s.is_empty());
    }
}
