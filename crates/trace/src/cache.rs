//! Buffer-cache counters: hits, misses, evictions, flushes.
//!
//! The `iosim-cache` subsystem feeds these through the shared
//! [`crate::TraceCollector`], so every run report can show how the
//! I/O-node buffer caches behaved alongside the Pablo-style op tables.

use std::cell::Cell;
use std::rc::Rc;

/// A point-in-time copy of the cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Blocks served from cache memory.
    pub hits: u64,
    /// Blocks fetched from disk on demand.
    pub misses: u64,
    /// Blocks evicted to make room.
    pub evictions: u64,
    /// Dirty blocks written back to disk (by the flush daemon, evictions,
    /// or explicit flushes).
    pub flushed_blocks: u64,
    /// Times the dirty high-water mark woke the flush daemon.
    pub flush_wakeups: u64,
    /// Blocks fetched speculatively by sequential read-ahead.
    pub readahead_issued: u64,
    /// Hits on blocks that were still in flight from read-ahead.
    pub readahead_hits: u64,
    /// Blocks absorbed in memory by write-behind.
    pub writes_absorbed: u64,
}

impl CacheSnapshot {
    /// Hit rate over all demand accesses, in `[0, 1]` (1.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Whether any cache activity was recorded.
    pub fn is_empty(&self) -> bool {
        *self == CacheSnapshot::default()
    }

    /// Fold another snapshot into this one (field-wise sum), e.g. to
    /// total several runs.
    pub fn merge(&mut self, other: &CacheSnapshot) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.flushed_blocks += other.flushed_blocks;
        self.flush_wakeups += other.flush_wakeups;
        self.readahead_issued += other.readahead_issued;
        self.readahead_hits += other.readahead_hits;
        self.writes_absorbed += other.writes_absorbed;
    }

    /// One-line rendering for run reports.
    pub fn render_line(&self) -> String {
        format!(
            "cache: {} hits / {} misses ({:.1}% hit rate), {} evictions, \
             {} flushed, {} read-ahead ({} timely), {} writes absorbed",
            self.hits,
            self.misses,
            100.0 * self.hit_rate(),
            self.evictions,
            self.flushed_blocks,
            self.readahead_issued,
            self.readahead_hits,
            self.writes_absorbed,
        )
    }
}

/// Shared, cloneable cache-counter cell. Cloning shares the underlying
/// counters (the same convention as [`crate::TraceCollector`]).
#[derive(Clone, Default)]
pub struct CacheCounters {
    inner: Rc<Cell<CacheSnapshot>>,
}

impl CacheCounters {
    /// New zeroed counters.
    pub fn new() -> CacheCounters {
        CacheCounters::default()
    }

    fn update(&self, f: impl FnOnce(&mut CacheSnapshot)) {
        let mut s = self.inner.get();
        f(&mut s);
        self.inner.set(s);
    }

    /// Record `n` block hits.
    pub fn add_hits(&self, n: u64) {
        self.update(|s| s.hits += n);
    }

    /// Record `n` block misses.
    pub fn add_misses(&self, n: u64) {
        self.update(|s| s.misses += n);
    }

    /// Record `n` evictions.
    pub fn add_evictions(&self, n: u64) {
        self.update(|s| s.evictions += n);
    }

    /// Record `n` dirty blocks written back.
    pub fn add_flushed(&self, n: u64) {
        self.update(|s| s.flushed_blocks += n);
    }

    /// Record one flush-daemon wakeup.
    pub fn add_flush_wakeup(&self) {
        self.update(|s| s.flush_wakeups += 1);
    }

    /// Record `n` read-ahead blocks issued.
    pub fn add_readahead_issued(&self, n: u64) {
        self.update(|s| s.readahead_issued += n);
    }

    /// Record `n` hits on in-flight read-ahead blocks.
    pub fn add_readahead_hits(&self, n: u64) {
        self.update(|s| s.readahead_hits += n);
    }

    /// Record `n` blocks absorbed by write-behind.
    pub fn add_writes_absorbed(&self, n: u64) {
        self.update(|s| s.writes_absorbed += n);
    }

    /// Current counter values.
    pub fn snapshot(&self) -> CacheSnapshot {
        self.inner.get()
    }

    /// Zero all counters.
    pub fn reset(&self) {
        self.inner.set(CacheSnapshot::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let c = CacheCounters::new();
        let c2 = c.clone();
        c.add_hits(3);
        c2.add_misses(1);
        c.add_evictions(2);
        c2.add_flushed(4);
        c.add_flush_wakeup();
        c.add_readahead_issued(5);
        c.add_readahead_hits(2);
        c.add_writes_absorbed(7);
        let s = c2.snapshot();
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 1);
        assert_eq!(s.evictions, 2);
        assert_eq!(s.flushed_blocks, 4);
        assert_eq!(s.flush_wakeups, 1);
        assert_eq!(s.readahead_issued, 5);
        assert_eq!(s.readahead_hits, 2);
        assert_eq!(s.writes_absorbed, 7);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert!(!s.is_empty());
        c.reset();
        assert!(c2.snapshot().is_empty());
    }

    #[test]
    fn hit_rate_is_neutral_when_idle() {
        let s = CacheSnapshot::default();
        assert_eq!(s.hit_rate(), 1.0);
        assert!(s.is_empty());
        assert!(s.render_line().contains("0 hits"));
    }
}
