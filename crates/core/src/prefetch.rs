//! Prefetching (PASSION `prefetch` calls).
//!
//! SCF 1.1's read phase scans each process's private integral file
//! sequentially in large packed chunks — a pattern "amenable to
//! prefetching" (paper §4.2). The [`Prefetcher`] keeps up to `depth`
//! chunk reads in flight ahead of the consumer; `next()` waits for the
//! oldest chunk and charges the buffer-copy time. Following the paper's
//! measurement convention, the prefetching version's I/O time counts
//! **wait time and copy time** too, which [`PrefetchStats`] reports.

use std::collections::VecDeque;
use std::rc::Rc;

use iosim_pfs::{FileHandle, FsError};
use iosim_simkit::executor::JoinHandle;
use iosim_simkit::time::SimDuration;

/// Accounting of a prefetched scan.
#[derive(Clone, Copy, Debug, Default)]
pub struct PrefetchStats {
    /// Chunks consumed.
    pub chunks: u64,
    /// Bytes consumed.
    pub bytes: u64,
    /// Time the consumer blocked waiting for an in-flight chunk.
    pub wait_time: SimDuration,
    /// Time spent copying chunks from the prefetch buffer.
    pub copy_time: SimDuration,
}

/// Read-ahead pipeline over one file range.
pub struct Prefetcher {
    fh: Rc<FileHandle>,
    chunk: u64,
    depth: usize,
    next_issue: u64,
    end: u64,
    inflight: VecDeque<(u64, JoinHandle<Result<(), FsError>>)>,
    stats: PrefetchStats,
}

impl Prefetcher {
    /// Prefetch `[start, end)` of `fh` in `chunk`-byte reads, keeping up
    /// to `depth` reads in flight.
    ///
    /// # Panics
    /// Panics if `chunk == 0` or `depth == 0`.
    pub fn new(fh: Rc<FileHandle>, start: u64, end: u64, chunk: u64, depth: usize) -> Prefetcher {
        assert!(chunk > 0, "chunk must be positive");
        assert!(depth > 0, "depth must be positive");
        Prefetcher {
            fh,
            chunk,
            depth,
            next_issue: start,
            end,
            inflight: VecDeque::with_capacity(depth),
            stats: PrefetchStats::default(),
        }
    }

    fn fill(&mut self) {
        while self.inflight.len() < self.depth && self.next_issue < self.end {
            let off = self.next_issue;
            let len = self.chunk.min(self.end - off);
            self.next_issue = off + len;
            let fh = Rc::clone(&self.fh);
            let h = fh.sim_handle();
            let jh = h.spawn(async move { fh.read_at(off, len).await.map(|_| ()) });
            self.inflight.push_back((len, jh));
        }
    }

    /// Consume the next chunk: waits for its read, charges the buffer
    /// copy, and tops up the pipeline. Returns the chunk length, or `None`
    /// at the end of the range.
    pub async fn next(&mut self) -> Result<Option<u64>, FsError> {
        self.fill();
        let Some((len, jh)) = self.inflight.pop_front() else {
            return Ok(None);
        };
        let h = self.fh.sim_handle();
        let t0 = h.now();
        jh.await?;
        self.stats.wait_time += h.now() - t0;
        // Copy from prefetch buffer to the application buffer.
        let copy = self.fh.copy_time(len);
        h.sleep(copy).await;
        self.stats.copy_time += copy;
        self.stats.chunks += 1;
        self.stats.bytes += len;
        self.fill();
        Ok(Some(len))
    }

    /// Consume the whole range.
    pub async fn drain(&mut self) -> Result<PrefetchStats, FsError> {
        while self.next().await?.is_some() {}
        Ok(self.stats())
    }

    /// Accounting so far.
    pub fn stats(&self) -> PrefetchStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_machine::{presets, Interface, Machine};
    use iosim_pfs::{CreateOptions, FileSystem};
    use iosim_simkit::executor::Sim;
    use iosim_trace::TraceCollector;

    /// Time a sequential scan of `total` bytes with and without prefetch.
    fn scan_time(depth: Option<usize>) -> f64 {
        let mut sim = Sim::new();
        let m = Machine::new(sim.handle(), presets::paragon_large());
        let fs = FileSystem::new(m, TraceCollector::new());
        let h = sim.handle();
        let jh = sim.spawn(async move {
            let fh = Rc::new(
                fs.open(0, Interface::Passion, "f", Some(CreateOptions::default()))
                    .await
                    .unwrap(),
            );
            fh.preallocate(64 << 20);
            let t0 = h.now();
            match depth {
                Some(d) => {
                    let mut p = Prefetcher::new(Rc::clone(&fh), 0, 64 << 20, 1 << 20, d);
                    p.drain().await.unwrap();
                }
                None => {
                    let mut off = 0u64;
                    while off < 64 << 20 {
                        fh.read_at(off, 1 << 20).await.unwrap();
                        off += 1 << 20;
                    }
                }
            }
            (h.now() - t0).as_secs_f64()
        });
        sim.run();
        jh.try_take().expect("completed")
    }

    #[test]
    fn prefetch_overlaps_call_overhead_with_service() {
        let plain = scan_time(None);
        let pre = scan_time(Some(4));
        assert!(
            pre < 0.75 * plain,
            "prefetch should hide client overhead: {pre} vs {plain}"
        );
    }

    #[test]
    fn deeper_pipelines_do_not_hurt() {
        let d1 = scan_time(Some(1));
        let d4 = scan_time(Some(4));
        assert!(d4 <= d1 + 1e-9, "depth 4 ({d4}) worse than depth 1 ({d1})");
    }

    #[test]
    fn stats_account_chunks_waits_and_copies() {
        let mut sim = Sim::new();
        let m = Machine::new(sim.handle(), presets::paragon_large());
        let fs = FileSystem::new(m, TraceCollector::new());
        let jh = sim.spawn(async move {
            let fh = Rc::new(
                fs.open(0, Interface::Passion, "f", Some(CreateOptions::default()))
                    .await
                    .unwrap(),
            );
            fh.preallocate(10 << 20);
            let mut p = Prefetcher::new(Rc::clone(&fh), 0, 10 << 20, 1 << 20, 2);
            p.drain().await.unwrap()
        });
        sim.run();
        let st = jh.try_take().unwrap();
        assert_eq!(st.chunks, 10);
        assert_eq!(st.bytes, 10 << 20);
        assert!(st.copy_time > SimDuration::ZERO);
        // The first chunk is always waited for.
        assert!(st.wait_time > SimDuration::ZERO);
    }

    #[test]
    fn partial_last_chunk_is_handled() {
        let mut sim = Sim::new();
        let m = Machine::new(sim.handle(), presets::paragon_large());
        let fs = FileSystem::new(m, TraceCollector::new());
        let jh = sim.spawn(async move {
            let fh = Rc::new(
                fs.open(0, Interface::Passion, "f", Some(CreateOptions::default()))
                    .await
                    .unwrap(),
            );
            fh.preallocate(2_500_000);
            let mut p = Prefetcher::new(Rc::clone(&fh), 0, 2_500_000, 1 << 20, 3);
            let mut lens = Vec::new();
            while let Some(l) = p.next().await.unwrap() {
                lens.push(l);
            }
            lens
        });
        sim.run();
        let lens = jh.try_take().unwrap();
        assert_eq!(lens, vec![1 << 20, 1 << 20, 2_500_000 - (2 << 20)]);
    }
}
