//! Shared run harness: spawn one task per compute rank, run the
//! simulation, and collect the measurements every experiment reports.

use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use iosim_machine::shard::{plan_with_max_shards, ShardSpec};
use iosim_machine::{Machine, MachineConfig};
use iosim_msg::{Comm, ShardLink, ShardSignal, World};
use iosim_pfs::FileSystem;
use iosim_simkit::executor::{join_all, Sim};
use iosim_simkit::shard::{run_sharded, ShardCtx, ShardRuntime};
use iosim_simkit::time::SimDuration;
use iosim_trace::{
    BalanceStats, CacheSnapshot, IoSummary, ListIoSnapshot, QueueSnapshot, TraceCollector,
};

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
    /// Synchronization rounds the sharded engine executed (zero for
    /// monolithic runs and degenerate shard plans).
    pub sync_rounds: u64,
    /// Per-shard simulation-memory accounting (`current` sums shards,
    /// `peak` is the worst single shard); zero for monolithic runs.
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

/// The workload engine's measurements are field-for-field an
/// application's, so trace replays and open-loop runs report through the
/// same type.
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
            sync_rounds: s.sync_rounds,
            shard_mem: s.shard_mem,
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
        shard_mem: trace.mem().snapshot(),
        host_elapsed,
    }
}

/// A per-rank program factory scoped to one shard; the closure lives on
/// the shard's worker thread, so it may share `Rc` state with the
/// [`ShardFinish`] extractor created alongside it.
pub type ShardProgram = Box<dyn Fn(AppCtx) -> RankFuture>;

/// Extracts a shard's application-specific result after the run.
pub type ShardFinish<X> = Box<dyn FnOnce() -> X>;

/// Lower bound on the engine lookahead used by sharded app runs (see
/// [`iosim_machine::shard::LOOKAHEAD_FLOOR`] for the rationale).
pub const SHARD_LOOKAHEAD_FLOOR: SimDuration = iosim_machine::shard::LOOKAHEAD_FLOOR;

/// Everything a sharded run collects per shard before merging.
struct ShardOutput<X> {
    per_rank_io: Vec<SimDuration>,
    cum_io_time: SimDuration,
    summary: IoSummary,
    io_bytes: u64,
    io_ops: u64,
    read_sizes: iosim_trace::SizeHistogram,
    write_sizes: iosim_trace::SizeHistogram,
    cache: CacheSnapshot,
    listio: ListIoSnapshot,
    queue: QueueSnapshot,
    mem: iosim_trace::MemSnapshot,
    extra: X,
}

/// Sharded variant of [`run_ranks`]: partition the machine along its
/// topology ([`iosim_machine::shard::plan`]), simulate each shard's rank
/// group on its own executor (run by up to `workers` host threads), and
/// merge the shards' measurements into one [`RunResult`].
///
/// `make` is called once per shard, on the shard's worker thread, and
/// returns the per-rank program plus an extractor for an
/// application-specific per-shard result (returned in shard order).
/// Programs receive **global** ranks (`ShardSpec::rank_base` + local
/// index) on a **group-local** world of the shard's ranks; global
/// barriers rendezvous across shards through the world's
/// [`iosim_msg::ShardLink`].
///
/// The result is bit-identical for every `workers` value — shard
/// decomposition is fixed by the machine, workers only execute it — but
/// differs from [`run_ranks`]'s monolithic schedule: each shard has its
/// own event order and fingerprint ([`iosim_simkit::executor::combine_fingerprints`]
/// folds them in shard order). Degenerate machines (one I/O node, one
/// rank, zero-latency network) fall back to [`run_ranks`] exactly.
pub fn run_ranks_sharded<X: Send + 'static>(
    cfg: MachineConfig,
    procs: usize,
    workers: usize,
    make: impl Fn(&ShardSpec) -> (ShardProgram, ShardFinish<X>) + Send + Sync,
) -> (RunResult, Vec<X>) {
    let host_t0 = std::time::Instant::now();
    let workers = workers.max(1);
    let plan = plan_with_max_shards(&cfg, procs, usize::MAX);
    if plan.is_degenerate() {
        let (program, finish) = make(&plan.shards[0]);
        let mut res = run_ranks(cfg, procs, program);
        res.host_elapsed = host_t0.elapsed();
        return (res, vec![finish()]);
    }
    let lookahead = plan.lookahead.max(SHARD_LOOKAHEAD_FLOOR);
    let io_nodes_total = cfg.io_nodes;
    let make = &make;
    let cfg = &cfg;
    let builders: Vec<_> = plan
        .shards
        .iter()
        .cloned()
        .map(|spec| {
            move |ctx: ShardCtx<ShardSignal>| -> ShardRuntime<ShardSignal, ShardOutput<X>> {
                let sim = Sim::new();
                let trace = TraceCollector::new();
                // Each shard simulates its slice of the machine: its rank
                // group and its I/O nodes, on the parent mesh (so global
                // ranks keep their real coordinates for hop counts).
                let sub_cfg = cfg
                    .clone()
                    .with_compute_nodes(spec.ranks.max(1))
                    .with_io_nodes(spec.io_nodes.max(1));
                let machine = Machine::new(sim.handle(), sub_cfg);
                let fs = FileSystem::new(Rc::clone(&machine), trace.clone());
                let world = World::new(Rc::clone(&machine), spec.ranks);
                let link = ShardLink::new(
                    sim.handle(),
                    ctx.index,
                    ctx.shards,
                    ctx.lookahead,
                    ctx.outbox,
                );
                world.set_shard_link(link.clone());
                let (program, finish) = make(&spec);
                let h = sim.handle();
                let futs: Vec<RankFuture> = world
                    .comms()
                    .into_iter()
                    .enumerate()
                    .map(|(local, comm)| {
                        program(AppCtx {
                            rank: spec.rank_base + local,
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
                ShardRuntime {
                    sim,
                    deliver: Box::new(move |sig| link.deliver(sig)),
                    finish: Box::new(move || {
                        assert_eq!(
                            jh.try_take().expect("application deadlocked"),
                            n,
                            "all ranks of shard {} must finish",
                            spec.index
                        );
                        // The collector indexes by global rank; keep this
                        // shard's slice for the cross-shard balance stats.
                        let mut per_rank = trace.per_rank_io_times();
                        per_rank.resize(spec.rank_base + spec.ranks, SimDuration::ZERO);
                        let per_rank_io = per_rank[spec.rank_base..].to_vec();
                        ShardOutput {
                            per_rank_io,
                            cum_io_time: trace.cumulative_io_time(),
                            summary: trace.summary(),
                            io_bytes: trace.total_bytes(),
                            io_ops: trace.total_ops(),
                            read_sizes: trace.read_sizes(),
                            write_sizes: trace.write_sizes(),
                            cache: trace.cache().snapshot(),
                            listio: trace.listio().snapshot(),
                            queue: trace.queue().snapshot(),
                            mem: trace.mem().snapshot(),
                            extra: finish(),
                        }
                    }),
                }
            }
        })
        .collect();
    let report = run_sharded(lookahead, workers, builders);

    let mut outputs = report.results;
    let mut per_rank: Vec<SimDuration> = Vec::with_capacity(procs);
    let mut summary: Option<IoSummary> = None;
    let mut cum_io_time = SimDuration::ZERO;
    let mut io_bytes = 0u64;
    let mut io_ops = 0u64;
    let mut read_sizes = iosim_trace::SizeHistogram::new();
    let mut write_sizes = iosim_trace::SizeHistogram::new();
    let mut cache = CacheSnapshot::default();
    let mut listio = ListIoSnapshot::default();
    let mut queue = QueueSnapshot::default();
    let mut shard_mem = iosim_trace::MemSnapshot::default();
    let mut extras = Vec::with_capacity(outputs.len());
    for out in outputs.drain(..) {
        per_rank.extend_from_slice(&out.per_rank_io);
        match &mut summary {
            Some(s) => s.merge(&out.summary),
            None => summary = Some(out.summary),
        }
        cum_io_time += out.cum_io_time;
        io_bytes += out.io_bytes;
        io_ops += out.io_ops;
        read_sizes.merge(&out.read_sizes);
        write_sizes.merge(&out.write_sizes);
        cache.merge(&out.cache);
        listio.merge(&out.listio);
        queue.merge(&out.queue);
        shard_mem.merge(&out.mem);
        extras.push(out.extra);
    }
    let io_time = per_rank
        .iter()
        .copied()
        .fold(SimDuration::ZERO, SimDuration::max);
    let result = RunResult {
        procs,
        io_nodes: io_nodes_total,
        exec_time: report.end_time - iosim_simkit::time::SimTime::ZERO,
        io_time,
        cum_io_time,
        summary: summary.expect("at least one shard"),
        io_bytes,
        io_ops,
        read_sizes,
        write_sizes,
        balance: BalanceStats::from_times(&per_rank),
        cache,
        listio,
        queue,
        sim_events: report.events,
        sched_fingerprint: report.fingerprint,
        sync_rounds: report.rounds,
        shard_mem,
        host_elapsed: host_t0.elapsed(),
    };
    (result, extras)
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

    fn write_and_sync(ctx: AppCtx) -> RankFuture {
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
    }

    #[test]
    fn sharded_run_merges_per_shard_measurements() {
        // paragon_small has 2 I/O nodes → 2 shards of 2 ranks each.
        let make = |_spec: &iosim_machine::ShardSpec| -> (ShardProgram, ShardFinish<u64>) {
            let finished = Rc::new(std::cell::Cell::new(0u64));
            let f2 = Rc::clone(&finished);
            (
                Box::new(move |ctx: AppCtx| -> RankFuture {
                    let f = Rc::clone(&f2);
                    Box::pin(async move {
                        write_and_sync(ctx).await;
                        f.set(f.get() + 1);
                    })
                }),
                Box::new(move || finished.get()),
            )
        };
        let (res, extras) = run_ranks_sharded(presets::paragon_small(), 4, 2, make);
        assert_eq!(res.procs, 4);
        assert_eq!(res.io_bytes, 4 << 20);
        assert_eq!(res.summary.rows[3].count, 4); // 4 writes across shards
        assert_eq!(res.write_sizes.total_count(), 4);
        assert_eq!(res.balance.ranks, 4);
        assert!(res.exec_time > SimDuration::ZERO);
        assert!(res.io_time <= res.exec_time);
        assert_eq!(extras, vec![2, 2]); // 2 ranks finished per shard
    }

    #[test]
    fn sharded_worker_count_is_invisible() {
        let run = |workers: usize| {
            run_ranks_sharded(presets::paragon_small(), 6, workers, |_s| {
                (
                    Box::new(write_and_sync) as ShardProgram,
                    Box::new(|| ()) as ShardFinish<()>,
                )
            })
            .0
        };
        let a = run(1);
        let b = run(3);
        assert_eq!(a.sched_fingerprint, b.sched_fingerprint);
        assert_eq!(a.exec_time, b.exec_time);
        assert_eq!(a.sim_events, b.sim_events);
        assert_eq!(a.io_bytes, b.io_bytes);
    }

    #[test]
    fn degenerate_machine_falls_back_to_monolithic() {
        // One I/O node → single shard → the sharded entry point must
        // reproduce the monolithic schedule bit for bit.
        let cfg = presets::paragon_small().with_io_nodes(1);
        let mono = run_ranks(cfg.clone(), 3, write_and_sync);
        let (shard, extras) = run_ranks_sharded(cfg, 3, 4, |_s| {
            (
                Box::new(write_and_sync) as ShardProgram,
                Box::new(|| ()) as ShardFinish<()>,
            )
        });
        assert_eq!(extras.len(), 1);
        assert_eq!(mono.sched_fingerprint, shard.sched_fingerprint);
        assert_eq!(mono.exec_time, shard.exec_time);
        assert_eq!(mono.sim_events, shard.sim_events);
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
