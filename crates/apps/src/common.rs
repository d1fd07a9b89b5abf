//! Shared run harness: spawn one task per compute rank, run the
//! simulation, and collect the measurements every experiment reports.

use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use iosim_machine::{Machine, MachineConfig};
use iosim_msg::{Comm, World};
use iosim_pfs::FileSystem;
use iosim_simkit::executor::{join_all, Sim};
use iosim_simkit::time::SimDuration;
use iosim_trace::{CacheSnapshot, IoSummary, ListIoSnapshot, QueueSnapshot, TraceCollector};

/// Everything one simulated process needs.
pub struct AppCtx {
    /// This process's rank.
    pub rank: usize,
    /// Message-passing endpoint.
    pub comm: Comm,
    /// The parallel file system.
    pub fs: Rc<FileSystem>,
    /// The machine (for compute delays and configuration).
    pub machine: Rc<Machine>,
}

/// A boxed per-rank program.
pub type RankFuture = Pin<Box<dyn Future<Output = ()>>>;

/// Measurements of one application run, in the units the paper reports.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Compute nodes used.
    pub procs: usize,
    /// I/O nodes of the machine.
    pub io_nodes: usize,
    /// Wall-clock execution time of the whole run.
    pub exec_time: SimDuration,
    /// Wall-clock I/O time: the slowest rank's cumulative I/O time.
    pub io_time: SimDuration,
    /// Cumulative I/O time summed over ranks (paper table convention).
    pub cum_io_time: SimDuration,
    /// Per-op-kind summary (Tables 2–3 layout).
    pub summary: IoSummary,
    /// Total bytes moved through the file system.
    pub io_bytes: u64,
    /// Total file-system operations.
    pub io_ops: u64,
    /// Request-size distribution of reads.
    pub read_sizes: iosim_trace::SizeHistogram,
    /// Request-size distribution of writes.
    pub write_sizes: iosim_trace::SizeHistogram,
    /// I/O load balance across ranks.
    pub balance: iosim_trace::BalanceStats,
    /// Buffer-cache behaviour (all zero when the machine runs uncached).
    pub cache: CacheSnapshot,
    /// Vectored list-I/O request shapes (all zero when no caller used
    /// the `readv`/`writev` path).
    pub listio: ListIoSnapshot,
    /// I/O-node command-queue behaviour (all zero when the machine runs
    /// with the default queue depth of 1, i.e. the legacy FIFO path).
    pub queue: QueueSnapshot,
    /// Scheduler events (task polls) executed by the simulation engine.
    pub sim_events: u64,
    /// Order-sensitive hash of the task schedule
    /// ([`Sim::schedule_fingerprint`]); the regression oracle for
    /// executor changes.
    pub sched_fingerprint: u64,
    /// Synchronization rounds between engine partitions. The engine
    /// is one simulation, so this is always zero; kept for readers of
    /// the field.
    pub sync_rounds: u64,
    /// Per-partition simulation-memory accounting. Always empty, for the
    /// same reason as `sync_rounds`.
    pub shard_mem: iosim_trace::MemSnapshot,
    /// Host wall-clock time the simulation took to run (not virtual
    /// time; machine-dependent, reported for `events_per_sec`).
    pub host_elapsed: std::time::Duration,
}

impl RunResult {
    /// Aggregate I/O bandwidth: bytes moved over wall-clock I/O time,
    /// in MB/s (the metric of the paper's Figure 7).
    pub fn bandwidth_mb_s(&self) -> f64 {
        let t = self.io_time.as_secs_f64();
        if t > 0.0 {
            self.io_bytes as f64 / 1e6 / t
        } else {
            0.0
        }
    }

    /// Cumulative execution time (wall × procs), the denominator of the
    /// "% of exec time" column.
    pub fn cum_exec_time(&self) -> SimDuration {
        SimDuration(self.exec_time.as_nanos() * self.procs as u64)
    }

    /// Share of execution spent in I/O (wall-clock basis), in `[0, 1]`.
    pub fn io_fraction(&self) -> f64 {
        let e = self.exec_time.as_secs_f64();
        if e > 0.0 {
            (self.io_time.as_secs_f64() / e).min(1.0)
        } else {
            0.0
        }
    }

    /// Scheduler throughput on the host: task polls per second of host
    /// wall-clock time. Zero if the run was too fast to time.
    pub fn events_per_sec(&self) -> f64 {
        let s = self.host_elapsed.as_secs_f64();
        if s > 0.0 {
            self.sim_events as f64 / s
        } else {
            0.0
        }
    }
}

/// The workload engine's measurements are an application's, so trace
/// replays and open-loop runs report through the same type.
impl From<iosim_workload::RunStats> for RunResult {
    fn from(s: iosim_workload::RunStats) -> RunResult {
        RunResult {
            procs: s.procs,
            io_nodes: s.io_nodes,
            exec_time: s.exec_time,
            io_time: s.io_time,
            cum_io_time: s.cum_io_time,
            summary: s.summary,
            io_bytes: s.io_bytes,
            io_ops: s.io_ops,
            read_sizes: s.read_sizes,
            write_sizes: s.write_sizes,
            balance: s.balance,
            cache: s.cache,
            listio: s.listio,
            queue: s.queue,
            sim_events: s.sim_events,
            sched_fingerprint: s.sched_fingerprint,
            sync_rounds: 0,
            shard_mem: iosim_trace::MemSnapshot::default(),
            host_elapsed: s.host_elapsed,
        }
    }
}

/// Apply an application-level cache knob to a machine config:
/// `cache_mb` megabytes of LRU buffer cache per I/O node, `0` keeping
/// the machine uncached (the presets' default).
pub fn with_cache_mb(cfg: MachineConfig, cache_mb: u64) -> MachineConfig {
    if cache_mb == 0 {
        cfg
    } else {
        cfg.with_lru_cache(cache_mb << 20)
    }
}

/// Apply an application-level queue-depth knob to a machine config:
/// NCQ-style command queuing with `depth` outstanding commands per I/O
/// node. `0` and `1` both keep the presets' depth-1 legacy FIFO path.
pub fn with_queue_depth(cfg: MachineConfig, depth: usize) -> MachineConfig {
    if depth <= 1 {
        cfg
    } else {
        cfg.with_io_queue_depth(depth)
    }
}

/// Build a machine + file system + world, run `program(ctx)` on every
/// rank, and collect the run's measurements.
///
/// # Panics
/// Panics if any rank's task fails to complete (deadlock) or `procs`
/// exceeds the machine's compute nodes.
pub fn run_ranks(
    cfg: MachineConfig,
    procs: usize,
    program: impl Fn(AppCtx) -> RankFuture,
) -> RunResult {
    let mut sim = Sim::new();
    let trace = TraceCollector::new();
    let machine = Machine::new(sim.handle(), cfg);
    let io_nodes = machine.io_nodes();
    let fs = FileSystem::new(Rc::clone(&machine), trace.clone());
    let world = World::new(Rc::clone(&machine), procs);
    let h = sim.handle();
    let futs: Vec<RankFuture> = world
        .comms()
        .into_iter()
        .enumerate()
        .map(|(rank, comm)| {
            program(AppCtx {
                rank,
                comm,
                fs: Rc::clone(&fs),
                machine: Rc::clone(&machine),
            })
        })
        .collect();
    let n = futs.len();
    let jh = sim.spawn(async move {
        let done = join_all(&h, futs).await;
        done.len()
    });
    let host_t0 = std::time::Instant::now();
    let end = sim.run();
    let host_elapsed = host_t0.elapsed();
    assert_eq!(
        jh.try_take().expect("application deadlocked"),
        n,
        "all ranks must finish"
    );
    RunResult {
        procs,
        io_nodes,
        exec_time: end - iosim_simkit::time::SimTime::ZERO,
        io_time: trace.max_rank_io_time(),
        cum_io_time: trace.cumulative_io_time(),
        summary: trace.summary(),
        io_bytes: trace.total_bytes(),
        io_ops: trace.total_ops(),
        read_sizes: trace.read_sizes(),
        write_sizes: trace.write_sizes(),
        balance: trace.balance(),
        cache: trace.cache().snapshot(),
        listio: trace.listio().snapshot(),
        queue: trace.queue().snapshot(),
        sim_events: sim.events_processed(),
        sched_fingerprint: sim.schedule_fingerprint(),
        sync_rounds: 0,
        shard_mem: iosim_trace::MemSnapshot::default(),
        host_elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_machine::presets;
    use iosim_machine::Interface;
    use iosim_pfs::CreateOptions;

    #[test]
    fn run_ranks_collects_per_rank_io() {
        let res = run_ranks(presets::paragon_small(), 4, |ctx| {
            Box::pin(async move {
                let fh = ctx
                    .fs
                    .open(
                        ctx.rank,
                        Interface::Passion,
                        &format!("f{}", ctx.rank),
                        Some(CreateOptions::default()),
                    )
                    .await
                    .unwrap();
                fh.write_discard_at(0, 1 << 20).await.unwrap();
                ctx.comm.barrier().await;
            })
        });
        assert_eq!(res.procs, 4);
        assert_eq!(res.io_bytes, 4 << 20);
        assert_eq!(res.summary.rows[3].count, 4); // 4 writes
        assert!(res.exec_time > SimDuration::ZERO);
        assert!(res.io_time <= res.exec_time);
        assert!(res.cum_io_time >= res.io_time);
        assert!(res.bandwidth_mb_s() > 0.0);
        assert!(res.io_fraction() > 0.0 && res.io_fraction() <= 1.0);
        assert_eq!(res.write_sizes.total_count(), 4);
        assert_eq!(res.write_sizes.count_for(1 << 20), 4);
        assert_eq!(res.read_sizes.total_count(), 0);
    }

    #[test]
    fn exec_time_is_slowest_rank() {
        let res = run_ranks(presets::paragon_small(), 3, |ctx| {
            Box::pin(async move {
                let ms = 100 * (ctx.rank as u64 + 1);
                ctx.machine
                    .handle()
                    .sleep(SimDuration::from_millis(ms))
                    .await;
            })
        });
        assert_eq!(res.exec_time, SimDuration::from_millis(300));
    }
}
