//! Request-size histograms (power-of-two buckets), in the spirit of the
//! Pablo analyses of request-size distributions: the unoptimized
//! applications are recognizable by their mass of tiny requests, the
//! optimized ones by a few large ones — plus a log-linear
//! [`LatencyHistogram`] for per-operation latency percentiles
//! (p50/p99/p999) in the workload-replay and open-loop overload studies.

use std::fmt::Write as _;

/// Number of power-of-two buckets: sizes up to 2^31 bytes.
const BUCKETS: usize = 32;

/// A power-of-two size histogram.
///
/// ```
/// use iosim_trace::SizeHistogram;
/// let mut h = SizeHistogram::new();
/// h.record(100);
/// h.record(100);
/// h.record(1 << 20);
/// assert_eq!(h.total_count(), 3);
/// assert_eq!(h.median_bucket_bound(), 128);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SizeHistogram {
    counts: [u64; BUCKETS],
    total_bytes: u64,
}

impl SizeHistogram {
    /// New empty histogram.
    pub fn new() -> SizeHistogram {
        SizeHistogram::default()
    }

    fn bucket_of(bytes: u64) -> usize {
        if bytes <= 1 {
            0
        } else {
            (63 - (bytes - 1).leading_zeros() as usize + 1).min(BUCKETS - 1)
        }
    }

    /// Record one request of `bytes`.
    pub fn record(&mut self, bytes: u64) {
        self.counts[Self::bucket_of(bytes)] += 1;
        self.total_bytes += bytes;
    }

    /// Total requests recorded.
    pub fn total_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Count in the bucket covering `bytes`.
    pub fn count_for(&self, bytes: u64) -> u64 {
        self.counts[Self::bucket_of(bytes)]
    }

    /// The median request size's bucket upper bound (0 if empty).
    pub fn median_bucket_bound(&self) -> u64 {
        let total = self.total_count();
        if total == 0 {
            return 0;
        }
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen * 2 >= total {
                return 1u64 << i;
            }
        }
        1u64 << (BUCKETS - 1)
    }

    /// Human-readable bucket label, e.g. `"≤64K"`.
    fn label(i: usize) -> String {
        let bound = 1u64 << i;
        if bound >= 1 << 30 {
            format!("≤{}G", bound >> 30)
        } else if bound >= 1 << 20 {
            format!("≤{}M", bound >> 20)
        } else if bound >= 1 << 10 {
            format!("≤{}K", bound >> 10)
        } else {
            format!("≤{bound}")
        }
    }

    /// Render the non-empty buckets as aligned rows with hash bars.
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{title}  ({} requests)", self.total_count());
        let max = self.counts.iter().copied().max().unwrap_or(0);
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let bar = if max > 0 {
                "#".repeat(((c as f64 / max as f64) * 40.0).ceil() as usize)
            } else {
                String::new()
            };
            let _ = writeln!(out, "{:>6} {:>10} |{bar}", Self::label(i), c);
        }
        out
    }
}

/// Sub-buckets per octave of the latency histogram: 16 gives a worst-case
/// quantile error of one part in 16 (~6%), plenty for p50/p99/p999 shape
/// checks while keeping the table a fixed ~8 KB.
const LAT_SUBBUCKETS: u64 = 16;

/// Buckets below `LAT_SUBBUCKETS` are exact (one bucket per nanosecond);
/// above, each octave `[2^e, 2^(e+1))` splits into `LAT_SUBBUCKETS` equal
/// slices. 60 octaves cover every representable `u64` nanosecond value.
const LAT_BUCKETS: usize = (61 * LAT_SUBBUCKETS) as usize;

/// A log-linear latency histogram (HDR-style): fixed memory, bounded
/// relative error, O(1) record, percentile queries by scan.
///
/// Values are durations in **nanoseconds** (the resolution of
/// `SimDuration`); quantiles report each bucket's upper bound, so they
/// overestimate by at most one part in 16.
///
/// ```
/// use iosim_trace::LatencyHistogram;
/// let mut h = LatencyHistogram::new();
/// for v in [100u64, 200, 300, 40_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.p50() >= 200 && h.p50() < 300);
/// assert!(h.p999() >= 40_000);
/// ```
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; LAT_BUCKETS]>,
    count: u64,
    max: u64,
    sum: u128,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("p50_ns", &self.p50())
            .field("p99_ns", &self.p99())
            .field("max_ns", &self.max)
            .finish()
    }
}

impl LatencyHistogram {
    /// New empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            counts: vec![0u64; LAT_BUCKETS]
                .into_boxed_slice()
                .try_into()
                .expect("fixed size"),
            count: 0,
            max: 0,
            sum: 0,
        }
    }

    fn bucket_of(ns: u64) -> usize {
        if ns < LAT_SUBBUCKETS {
            ns as usize
        } else {
            let e = 63 - ns.leading_zeros() as u64; // floor(log2), >= 4
            let sub = (ns >> (e - 4)) & (LAT_SUBBUCKETS - 1);
            ((e - 3) * LAT_SUBBUCKETS + sub) as usize
        }
    }

    /// Inclusive upper bound of bucket `i` (the value a quantile reports).
    fn bucket_bound(i: usize) -> u64 {
        let i = i as u64;
        if i < LAT_SUBBUCKETS {
            i
        } else {
            let e = i / LAT_SUBBUCKETS + 3;
            let sub = i % LAT_SUBBUCKETS;
            // Upper edge of the slice, minus one to stay inclusive; the
            // top octave's last slice would overflow u64, so go via u128.
            let edge = (1u128 << e) + (((sub as u128) + 1) << (e - 4));
            (edge - 1).min(u64::MAX as u128) as u64
        }
    }

    /// Record one latency of `ns` nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.max = self.max.max(ns);
        self.sum += ns as u128;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Largest recorded value (exact, not bucketed).
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded values (exact sum over exact count).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`), as the covering bucket's upper
    /// bound; 0 on an empty histogram. `q = 1` reports the exact max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = ((q.max(0.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Batched quantiles: the whole set resolved in **one** scan of the
    /// bucket table (sweep reports ask for several percentiles per
    /// point; [`Self::quantile`] scans per call). `qs` may be in any
    /// order; results line up element-for-element and match
    /// [`Self::quantile`] exactly.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<u64> {
        let mut out = vec![0u64; qs.len()];
        if self.count == 0 {
            return out;
        }
        let target = |q: f64| -> u64 { ((q.max(0.0) * self.count as f64).ceil() as u64).max(1) };
        let mut order: Vec<usize> = (0..qs.len()).collect();
        order.sort_by(|&a, &b| qs[a].total_cmp(&qs[b]));
        let mut it = order.into_iter().peekable();
        let mut seen = 0u64;
        'scan: for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            while let Some(&k) = it.peek() {
                if qs[k] >= 1.0 {
                    // `q = 1` reports the exact max, like `quantile`;
                    // everything after it in sorted order does too.
                    break 'scan;
                }
                if seen < target(qs[k]) {
                    break;
                }
                out[k] = Self::bucket_bound(i).min(self.max);
                it.next();
            }
            if it.peek().is_none() {
                break;
            }
        }
        for k in it {
            out[k] = self.max;
        }
        out
    }

    /// Median latency in nanoseconds.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile latency in nanoseconds.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile latency in nanoseconds.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// One-line summary: `n=… mean=… p50=… p99=… p999=… max=…` with
    /// millisecond formatting (the unit of simulated I/O latencies).
    pub fn render_line(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        // One bucket scan serves all three percentiles; `quantiles` is
        // pinned to match the scalar `quantile` bit for bit.
        let q = self.quantiles(&[0.50, 0.99, 0.999]);
        format!(
            "latency: n={} mean={:.3}ms p50={:.3}ms p99={:.3}ms p999={:.3}ms max={:.3}ms",
            self.count,
            self.mean_ns() / 1e6,
            ms(q[0]),
            ms(q[1]),
            ms(q[2]),
            ms(self.max),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(SizeHistogram::bucket_of(0), 0);
        assert_eq!(SizeHistogram::bucket_of(1), 0);
        assert_eq!(SizeHistogram::bucket_of(2), 1);
        assert_eq!(SizeHistogram::bucket_of(3), 2);
        assert_eq!(SizeHistogram::bucket_of(64), 6);
        assert_eq!(SizeHistogram::bucket_of(65), 7);
        assert_eq!(SizeHistogram::bucket_of(1 << 20), 20);
    }

    #[test]
    fn record_accumulates() {
        let mut h = SizeHistogram::new();
        for _ in 0..10 {
            h.record(100);
        }
        h.record(1 << 20);
        assert_eq!(h.total_count(), 11);
        assert_eq!(h.total_bytes(), 1000 + (1 << 20));
        assert_eq!(h.count_for(100), 10);
        assert_eq!(h.count_for(1 << 20), 1);
    }

    #[test]
    fn median_tracks_the_mass() {
        let mut h = SizeHistogram::new();
        for _ in 0..100 {
            h.record(512);
        }
        for _ in 0..3 {
            h.record(1 << 22);
        }
        assert_eq!(h.median_bucket_bound(), 512);
        assert_eq!(SizeHistogram::new().median_bucket_bound(), 0);
    }

    #[test]
    fn render_shows_only_populated_buckets() {
        let mut h = SizeHistogram::new();
        h.record(100);
        h.record(100_000);
        let s = h.render("writes");
        assert!(s.contains("≤128 "));
        assert!(s.contains("≤128K"));
        assert!(!s.contains("≤1G"));
        assert!(s.contains('#'));
    }

    #[test]
    fn huge_sizes_clamp_to_last_bucket() {
        let mut h = SizeHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.total_count(), 1);
        assert_eq!(h.count_for(u64::MAX), 1);
    }

    #[test]
    fn latency_buckets_partition_the_axis() {
        // Every bucket's inclusive upper bound maps back to that bucket,
        // and the next value maps to the next bucket.
        for i in 0..LAT_BUCKETS - 1 {
            let hi = LatencyHistogram::bucket_bound(i);
            assert_eq!(LatencyHistogram::bucket_of(hi), i, "bound of {i}");
            assert_eq!(LatencyHistogram::bucket_of(hi + 1), i + 1, "next of {i}");
        }
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), LAT_BUCKETS - 1);
    }

    #[test]
    fn latency_quantiles_track_the_distribution() {
        let mut h = LatencyHistogram::new();
        // 1000 samples at ~1 ms, 10 at ~100 ms: p50 near 1 ms, p999 high.
        for k in 0..1000u64 {
            h.record(1_000_000 + k);
        }
        for _ in 0..10 {
            h.record(100_000_000);
        }
        assert_eq!(h.count(), 1010);
        let p50 = h.p50();
        assert!((1_000_000..1_200_000).contains(&p50), "p50 off: {p50}");
        assert!(h.p999() >= 100_000_000, "p999 off: {}", h.p999());
        assert_eq!(h.quantile(1.0), h.max_ns());
        // Relative bucket error stays under 1/16.
        assert!(p50 as f64 <= 1_001_000.0 * (1.0 + 1.0 / 16.0));
        let line = h.render_line();
        assert!(line.contains("n=1010") && line.contains("p999="), "{line}");
    }

    #[test]
    fn latency_merge_and_empty_behaviour() {
        let empty = LatencyHistogram::new();
        assert!(empty.is_empty());
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.quantile(0.99), 0);
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in [5u64, 10, 20] {
            a.record(v);
        }
        for v in [40u64, 80] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.max_ns(), 80);
        assert!(a.mean_ns() > 0.0);
        // Extreme value does not panic the bound math.
        a.record(u64::MAX);
        assert_eq!(a.quantile(1.0), u64::MAX);
    }

    #[test]
    fn batched_quantiles_match_the_scalar_path() {
        let mut h = LatencyHistogram::new();
        for k in 0..5000u64 {
            h.record(1_000 + k * 37);
        }
        h.record(u64::MAX / 2);
        // Deliberately unsorted, with duplicates and the endpoints.
        let qs = [0.99, 0.5, 1.0, 0.0, 0.999, 0.5];
        let batched = h.quantiles(&qs);
        for (q, got) in qs.iter().zip(&batched) {
            assert_eq!(*got, h.quantile(*q), "q={q}");
        }
        assert!(h.quantiles(&[]).is_empty());
        assert_eq!(LatencyHistogram::new().quantiles(&[0.5, 0.99]), vec![0, 0]);
    }

    #[test]
    fn latency_small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..LAT_SUBBUCKETS {
            h.record(v);
        }
        for v in 0..LAT_SUBBUCKETS {
            assert_eq!(h.counts[v as usize], 1);
        }
        // ceil(0.5 * 16) = the 8th sample, which is the value 7.
        assert_eq!(h.p50(), LAT_SUBBUCKETS / 2 - 1);
    }
}
