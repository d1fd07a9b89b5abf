//! Host-side parallelism for parameter sweeps.
//!
//! Every simulation is single-threaded and independent, so sweeps over
//! machine configurations parallelize across host threads with
//! `std::thread::scope`. Results come back in input order.
//!
//! Work distribution is dynamic: workers claim the next unclaimed item
//! through a shared atomic cursor instead of taking a fixed contiguous
//! chunk. Sweep entries are wildly skewed (a full-scale BTIO run costs
//! orders of magnitude more host time than a small SCF one), and static
//! chunking would leave all but one worker idle while the unlucky one
//! grinds through the expensive tail.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Map `f` over `items` using up to `max_threads` host threads, returning
/// results in input order. Items are claimed dynamically (one shared
/// atomic cursor), so skewed per-item costs still load-balance.
pub fn map_parallel<T, R, F>(items: Vec<T>, max_threads: usize, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    // `IOSIM_THREADS` pins the worker count regardless of what the caller
    // asked for, so CI can make any sweep reproducible on any host.
    let threads = env_threads().unwrap_or(max_threads).max(1).min(n);
    if threads == 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    // Each worker keeps its `(index, result)` pairs; every index is
    // claimed exactly once, so sorting the union restores input order.
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break out;
                        };
                        out.push((i, f(item)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Environment variable that pins the host thread count for sweeps (CI
/// uses it to make runs reproducible on any host).
pub const THREADS_ENV: &str = "IOSIM_THREADS";

/// A sensible default thread count for sweeps: the `IOSIM_THREADS`
/// environment override when set to a positive integer, otherwise the
/// host's available parallelism.
pub fn default_threads() -> usize {
    if let Some(n) = env_threads() {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// The `IOSIM_THREADS` override, if set to a positive integer. Unset,
/// empty, zero, and unparsable values all mean "no override".
pub fn env_threads() -> Option<usize> {
    parse_threads(std::env::var(THREADS_ENV).ok())
}

fn parse_threads(raw: Option<String>) -> Option<usize> {
    raw.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..37).collect();
        let out = map_parallel(items.clone(), 8, |&x| x * x);
        let want: Vec<u64> = items.iter().map(|x| x * x).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn single_thread_path() {
        let out = map_parallel(vec![1, 2, 3], 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = map_parallel(Vec::<u32>::new(), 4, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = map_parallel(vec![5], 16, |&x| x);
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn every_item_claimed_exactly_once() {
        let hits: Vec<AtomicU64> = (0..101).map(|_| AtomicU64::new(0)).collect();
        let out = map_parallel((0..101usize).collect(), 7, |&i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            i * 3
        });
        assert_eq!(out, (0..101).map(|i| i * 3).collect::<Vec<_>>());
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn thread_override_parsing() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some(String::new())), None);
        assert_eq!(parse_threads(Some("0".into())), None);
        assert_eq!(parse_threads(Some("garbage".into())), None);
        assert_eq!(parse_threads(Some("1".into())), Some(1));
        assert_eq!(parse_threads(Some(" 8 ".into())), Some(8));
    }

    /// One item is ~an order of magnitude slower than the rest combined.
    /// Static front-half/back-half chunking would serialize: the worker
    /// that drew the slow item's chunk also owns every item after it.
    /// Dynamic claiming lets the other workers drain the cheap tail
    /// concurrently, so the sweep finishes in about the slow item's time.
    #[test]
    fn skewed_items_load_balance() {
        const SLOW: Duration = Duration::from_millis(120);
        const FAST: Duration = Duration::from_millis(10);
        // Slow item first: under the old chunking, worker 0 got items
        // 0..8 and finished at SLOW + 7 * FAST.
        let durations: Vec<Duration> = std::iter::once(SLOW)
            .chain(std::iter::repeat_n(FAST, 15))
            .collect();
        let t0 = Instant::now();
        let out = map_parallel(durations.clone(), 2, |&d| {
            std::thread::sleep(d);
            d
        });
        let elapsed = t0.elapsed();
        assert_eq!(out, durations);
        // Two workers, dynamic: one takes the slow item, the other
        // drains all 15 fast ones (150 ms); finish ≈ max(120, 150) ms.
        // Static halves would cost 120 + 7*10 = 190 ms on worker 0.
        // Generous margin for slow CI hosts.
        assert!(
            elapsed < SLOW + 4 * FAST,
            "skewed sweep did not load-balance: {elapsed:?}"
        );
    }
}
