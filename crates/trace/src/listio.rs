//! List-I/O request-shape counters: how many vectored requests ran,
//! how fragmented they were, and how well coalescing compressed them.
//!
//! The `iosim-pfs` vectored service path (`FileHandle::readv`/`writev`)
//! feeds these through the shared [`crate::TraceCollector`], so run
//! reports can show the request shapes alongside the Pablo-style op
//! tables. Legacy single-extent `read_at`/`write_at` calls do not
//! count here — the counters describe the list-I/O currency only.

use std::cell::Cell;
use std::rc::Rc;

/// A point-in-time copy of the list-I/O shape counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ListIoSnapshot {
    /// Vectored requests serviced.
    pub requests: u64,
    /// Fragments across all requests (as handed in by callers).
    pub fragments: u64,
    /// Extents left after sorting + coalescing adjacent/overlapping
    /// fragments (what the service layer actually books).
    pub coalesced_extents: u64,
    /// Payload bytes across all requests.
    pub bytes: u64,
}

impl ListIoSnapshot {
    /// Mean fragments per request (0.0 when idle).
    pub fn fragments_per_request(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.fragments as f64 / self.requests as f64
        }
    }

    /// Fraction of fragments removed by coalescing, in `[0, 1]`
    /// (0.0 when idle or nothing merged).
    pub fn coalescing_gain(&self) -> f64 {
        if self.fragments == 0 {
            0.0
        } else {
            1.0 - self.coalesced_extents as f64 / self.fragments as f64
        }
    }

    /// Whether any vectored request was recorded.
    pub fn is_empty(&self) -> bool {
        *self == ListIoSnapshot::default()
    }

    /// Fold another snapshot into this one (field-wise sum), e.g. to
    /// total several runs.
    pub fn merge(&mut self, other: &ListIoSnapshot) {
        self.requests += other.requests;
        self.fragments += other.fragments;
        self.coalesced_extents += other.coalesced_extents;
        self.bytes += other.bytes;
    }

    /// One-line rendering for run reports.
    pub fn render_line(&self) -> String {
        format!(
            "list-io: {} requests, {} fragments ({:.1}/req), \
             {} coalesced extents ({:.0}% merged), {} bytes",
            self.requests,
            self.fragments,
            self.fragments_per_request(),
            self.coalesced_extents,
            100.0 * self.coalescing_gain(),
            self.bytes,
        )
    }
}

/// Shared, cloneable list-I/O counter cell. Cloning shares the
/// underlying counters (the same convention as [`crate::TraceCollector`]).
#[derive(Clone, Default)]
pub struct ListIoCounters {
    inner: Rc<Cell<ListIoSnapshot>>,
}

impl ListIoCounters {
    /// New zeroed counters.
    pub fn new() -> ListIoCounters {
        ListIoCounters::default()
    }

    /// Record one vectored request of `fragments` fragments that
    /// coalesced to `coalesced` extents and moved `bytes` bytes.
    pub fn add_request(&self, fragments: u64, coalesced: u64, bytes: u64) {
        let mut s = self.inner.get();
        s.requests += 1;
        s.fragments += fragments;
        s.coalesced_extents += coalesced;
        s.bytes += bytes;
        self.inner.set(s);
    }

    /// Current counter values.
    pub fn snapshot(&self) -> ListIoSnapshot {
        self.inner.get()
    }

    /// Zero all counters.
    pub fn reset(&self) {
        self.inner.set(ListIoSnapshot::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let c = ListIoCounters::new();
        let c2 = c.clone();
        c.add_request(8, 2, 4096);
        c2.add_request(4, 4, 1024);
        let s = c.snapshot();
        assert_eq!(s.requests, 2);
        assert_eq!(s.fragments, 12);
        assert_eq!(s.coalesced_extents, 6);
        assert_eq!(s.bytes, 5120);
        assert!((s.fragments_per_request() - 6.0).abs() < 1e-12);
        assert!((s.coalescing_gain() - 0.5).abs() < 1e-12);
        assert!(!s.is_empty());
        assert!(s.render_line().contains("2 requests"));
        c2.reset();
        assert!(c.snapshot().is_empty());
    }

    #[test]
    fn idle_snapshot_is_neutral() {
        let s = ListIoSnapshot::default();
        assert_eq!(s.fragments_per_request(), 0.0);
        assert_eq!(s.coalescing_gain(), 0.0);
        assert!(s.is_empty());
    }
}
