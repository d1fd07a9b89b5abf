//! The replay engine: run an [`OpStream`] or an open-loop synthetic
//! workload through the simulated PFS and measure it.
//!
//! # Replay modes
//!
//! - [`ReplayMode::Direct`] — each rank walks its program order one
//!   operation at a time (seek + read/write), exactly like the
//!   unoptimized applications and bit-identical to the original
//!   `iosim replay` for legacy traces.
//! - [`ReplayMode::ListIo`] — consecutive same-file, same-direction data
//!   operations of a rank are coalesced into vectored list-I/O requests
//!   of at most `batch` extents ([`IoRequest::from_extents`]).
//! - [`ReplayMode::TwoPhase`] — data operations are grouped into
//!   two-phase collective windows of `window` operations per rank
//!   ([`write_collective`] / [`read_collective`]). As in MPI-IO, a
//!   file's collectives run over the communicator that opened it: the
//!   ranks whose trace touches the file, each of which executes the same
//!   number of windows on it. Explicit seeks and dependency *waits* are
//!   skipped — the collective windows already impose a global order
//!   (labels are still signalled so mixed traces stay well-defined).
//!
//! # Measurement
//!
//! Every run returns [`RunStats`] (the same machine-level measurements
//! the in-tree applications report) plus a per-operation
//! [`LatencyHistogram`]: for trace replay, latency is the virtual time
//! from issue to completion; for open-loop runs it is measured from the
//! operation's *scheduled arrival*, so queueing delay under overload is
//! included — that is what makes the saturation knee visible.

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use iosim_core::two_phase::{read_collective, write_collective, Piece, Span};
use iosim_machine::{Interface, Machine, MachineConfig};
use iosim_msg::{Comm, World};
use iosim_pfs::{CreateOptions, FileHandle, FileSystem, IoRequest};
use iosim_simkit::executor::{join_all, Sim};
use iosim_simkit::hash::FxHashMap;
use iosim_simkit::sync::{channel, Event};
use iosim_simkit::time::{SimDuration, SimTime};
use iosim_trace::{
    BalanceStats, CacheSnapshot, IoSummary, LatencyHistogram, ListIoSnapshot, QueueSnapshot,
    SizeHistogram, TraceCollector,
};

use crate::opstream::{OpStream, TraceKind, WorkKind};
use crate::synth::{self, SynthSpec, TimedOp};

/// How the engine turns operations into file-system requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayMode {
    /// One request per operation, in program order.
    Direct,
    /// Coalesce runs of same-file, same-direction operations into
    /// vectored requests of at most `batch` extents.
    ListIo {
        /// Maximum extents per vectored request.
        batch: usize,
    },
    /// Two-phase collective windows of `window` operations per rank.
    TwoPhase {
        /// Operations per rank per collective window.
        window: usize,
    },
}

/// A replay configuration: the machine, the client interface, and the
/// mode.
#[derive(Clone, Debug)]
pub struct ReplaySpec {
    /// The machine to replay on.
    pub machine: MachineConfig,
    /// Client interface used for opens and data operations.
    pub iface: Interface,
    /// Request-issue strategy.
    pub mode: ReplayMode,
}

impl ReplaySpec {
    /// Direct replay with the UNIX-style interface (the original
    /// `iosim replay` default).
    pub fn direct(machine: MachineConfig) -> ReplaySpec {
        ReplaySpec {
            machine,
            iface: Interface::UnixStyle,
            mode: ReplayMode::Direct,
        }
    }

    /// List-I/O replay: vectored requests of at most `batch` extents on
    /// the PASSION interface (the file system only takes the list-I/O
    /// service path — one call, coalesced extents, one booking per I/O
    /// node — for PASSION's vectored interface).
    pub fn list_io(machine: MachineConfig, batch: usize) -> ReplaySpec {
        assert!(batch > 0, "batch must be positive");
        ReplaySpec {
            machine,
            iface: Interface::Passion,
            mode: ReplayMode::ListIo { batch },
        }
    }

    /// Two-phase collective replay with windows of `window` operations
    /// per rank (the original `iosim replay --collective`).
    pub fn two_phase(machine: MachineConfig, window: usize) -> ReplaySpec {
        assert!(window > 0, "window must be positive");
        ReplaySpec {
            machine,
            iface: Interface::Passion,
            mode: ReplayMode::TwoPhase { window },
        }
    }
}

/// Machine-level measurements of one engine run: the data
/// `iosim_apps::common::RunResult` carries — the `iosim-apps` wrapper
/// converts between the two — but defined here so the workload crate
/// does not depend on the applications crate.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Compute nodes used.
    pub procs: usize,
    /// I/O nodes of the machine.
    pub io_nodes: usize,
    /// Wall-clock execution time of the whole run.
    pub exec_time: SimDuration,
    /// Wall-clock I/O time: the slowest rank's cumulative I/O time.
    pub io_time: SimDuration,
    /// Cumulative I/O time summed over ranks.
    pub cum_io_time: SimDuration,
    /// Per-op-kind summary.
    pub summary: IoSummary,
    /// Total bytes moved through the file system.
    pub io_bytes: u64,
    /// Total file-system operations.
    pub io_ops: u64,
    /// Request-size distribution of reads.
    pub read_sizes: SizeHistogram,
    /// Request-size distribution of writes.
    pub write_sizes: SizeHistogram,
    /// I/O load balance across ranks.
    pub balance: BalanceStats,
    /// Buffer-cache behaviour (all zero when uncached).
    pub cache: CacheSnapshot,
    /// Vectored list-I/O request shapes.
    pub listio: ListIoSnapshot,
    /// I/O-node command-queue behaviour.
    pub queue: QueueSnapshot,
    /// Scheduler events (task polls) executed by the simulation engine.
    pub sim_events: u64,
    /// Order-sensitive hash of the task schedule.
    pub sched_fingerprint: u64,
    /// Host wall-clock time the simulation took to run.
    pub host_elapsed: std::time::Duration,
}

impl RunStats {
    /// Aggregate I/O bandwidth in MB/s (bytes over wall-clock I/O time).
    pub fn bandwidth_mb_s(&self) -> f64 {
        let t = self.io_time.as_secs_f64();
        if t > 0.0 {
            self.io_bytes as f64 / 1e6 / t
        } else {
            0.0
        }
    }
}

/// Result of a trace replay.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Machine-level measurements.
    pub stats: RunStats,
    /// Per-data-operation latency (virtual time from issue to
    /// completion; in list-I/O and two-phase modes every operation of a
    /// batch records the batch's latency).
    pub latency: LatencyHistogram,
    /// Data (read/write) operations replayed.
    pub data_ops: u64,
    /// Bytes moved by data operations.
    pub data_bytes: u64,
}

impl ReplayReport {
    /// Achieved data-operation throughput over the run (ops/s of virtual
    /// time).
    pub fn ops_per_sec(&self) -> f64 {
        let t = self.stats.exec_time.as_secs_f64();
        if t > 0.0 {
            self.data_ops as f64 / t
        } else {
            0.0
        }
    }
}

/// Result of an open-loop run.
#[derive(Clone, Debug)]
pub struct OpenLoopReport {
    /// Machine-level measurements.
    pub stats: RunStats,
    /// Per-operation latency, measured from scheduled arrival to
    /// completion (queueing delay included).
    pub latency: LatencyHistogram,
    /// Operations the generator offered.
    pub offered_ops: u64,
    /// Operations that completed (equal to `offered_ops`; the run drains
    /// the backlog, overload shows up as latency and makespan).
    pub completed_ops: u64,
    /// Offered operation rate over the arrival window (ops/s).
    pub offered_rate: f64,
    /// Achieved operation rate: completions over the time the last one
    /// finished (ops/s). Tracks `offered_rate` until saturation, then
    /// flattens — the knee.
    pub achieved_rate: f64,
}

impl OpenLoopReport {
    /// `achieved / offered` — below ~0.9 the system is past its knee.
    pub fn overload_ratio(&self) -> f64 {
        if self.offered_rate > 0.0 {
            self.achieved_rate / self.offered_rate
        } else {
            1.0
        }
    }

    /// Project this run to a sweep point.
    pub fn sweep_point(&self) -> SweepPoint {
        SweepPoint {
            offered: self.offered_rate,
            achieved: self.achieved_rate,
            p99_ms: self.latency.p99() as f64 / 1e6,
        }
    }
}

/// One point of an offered-load sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepPoint {
    /// Offered rate (ops/s).
    pub offered: f64,
    /// Achieved rate (ops/s).
    pub achieved: f64,
    /// p99 latency in milliseconds.
    pub p99_ms: f64,
}

/// Index of the first sweep point past the saturation knee — where the
/// achieved rate falls below 90% of the offered rate — or `None` if the
/// sweep never saturates. Points must be in increasing offered-rate
/// order.
pub fn saturation_knee(points: &[SweepPoint]) -> Option<usize> {
    points
        .iter()
        .position(|p| p.offered > 0.0 && p.achieved < 0.9 * p.offered)
}

// ---------------------------------------------------------------------
// Shared run harness

type RankFuture = Pin<Box<dyn Future<Output = ()>>>;

/// Build machine + file system + world, run the program `make` builds
/// for the machine on every rank, and collect [`RunStats`] (the workload
/// crate's copy of the `run_ranks` harness; kept independent so
/// `iosim-apps` can wrap this crate instead of the other way round).
fn run_world<P: Fn(WorldCtx) -> RankFuture>(
    cfg: MachineConfig,
    procs: usize,
    make: impl FnOnce(&Rc<Machine>) -> P,
) -> RunStats {
    let mut sim = Sim::new();
    let trace = TraceCollector::new();
    let machine = Machine::new(sim.handle(), cfg);
    let io_nodes = machine.io_nodes();
    let fs = FileSystem::new(Rc::clone(&machine), trace.clone());
    let world = World::new(Rc::clone(&machine), procs);
    let program = make(&machine);
    let h = sim.handle();
    let futs: Vec<RankFuture> = world
        .comms()
        .into_iter()
        .enumerate()
        .map(|(rank, comm)| {
            program(WorldCtx {
                rank,
                comm,
                fs: Rc::clone(&fs),
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
        jh.try_take().expect("workload deadlocked"),
        n,
        "all ranks must finish"
    );
    RunStats {
        procs,
        io_nodes,
        exec_time: end - SimTime::ZERO,
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
        host_elapsed,
    }
}

/// Everything one simulated rank needs (the machine is reachable
/// through the file system).
struct WorldCtx {
    rank: usize,
    comm: Comm,
    fs: Rc<FileSystem>,
}

// ---------------------------------------------------------------------
// Trace replay

struct ReplayShared {
    stream: OpStream,
    extents: Vec<u64>,
    /// One completion event per op that something waits on.
    events: Vec<Option<Event<()>>>,
    /// Per-rank op indices in program order.
    per_rank: Vec<Vec<usize>>,
    /// Per-file collective window counts (two-phase mode only).
    windows: Vec<usize>,
    latency: RefCell<LatencyHistogram>,
    iface: Interface,
    mode: ReplayMode,
}

impl ReplayShared {
    /// Mark op `i` complete and wake its waiters.
    fn signal(&self, i: usize) {
        if let Some(ev) = &self.events[i] {
            ev.set(());
        }
    }
}

/// How a two-phase replay lays its collectives over a trace's files.
#[derive(Default)]
struct FilePlan {
    /// The ranks that open each file, ascending: the file's communicator.
    openers: Vec<Vec<usize>>,
    /// The files each rank opens, ascending.
    files_of: Vec<Vec<usize>>,
    /// Collective windows per file: every opener executes the number the
    /// busiest opener needs.
    windows: Vec<usize>,
}

/// Build the [`FilePlan`] of a trace for windows of `window` data
/// operations per rank, in one pass over the operations. A rank opens
/// every file its trace touches.
fn file_plan(stream: &OpStream, per_rank: &[Vec<usize>], window: usize) -> FilePlan {
    let files = stream.files.len();
    let mut plan = FilePlan {
        openers: vec![Vec::new(); files],
        files_of: Vec::with_capacity(per_rank.len()),
        windows: vec![0; files],
    };
    // This rank's data operations per file; zeroed again after each rank.
    let mut data_ops = vec![0usize; files];
    for (rank, mine) in per_rank.iter().enumerate() {
        let mut touched: Vec<usize> = mine.iter().map(|&i| stream.ops[i].file).collect();
        touched.sort_unstable();
        touched.dedup();
        for &i in mine {
            let op = &stream.ops[i];
            if data_parts(&op.kind).is_some() {
                data_ops[op.file] += 1;
            }
        }
        for &f in &touched {
            plan.openers[f].push(rank);
            plan.windows[f] = plan.windows[f].max(data_ops[f].div_ceil(window));
            data_ops[f] = 0;
        }
        plan.files_of.push(touched);
    }
    plan
}

/// Replay `stream` under `spec` and return the measurements.
///
/// # Panics
/// Panics if the stream needs more ranks than the machine has compute
/// nodes. Reads of unwritten data are allowed (files are preallocated to
/// their full traced extent; only timing is modelled).
pub fn replay(stream: &OpStream, spec: &ReplaySpec) -> ReplayReport {
    let n = stream.ranks();
    assert!(
        n <= spec.machine.compute_nodes,
        "trace needs {n} ranks but the machine has {}",
        spec.machine.compute_nodes
    );
    let mut events: Vec<Option<Event<()>>> = vec![None; stream.ops.len()];
    for op in &stream.ops {
        for &d in &op.deps {
            if events[d].is_none() {
                events[d] = Some(Event::new());
            }
        }
    }
    let mut per_rank: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, op) in stream.ops.iter().enumerate() {
        per_rank[op.rank].push(i);
    }
    let FilePlan {
        openers,
        files_of,
        windows,
    } = match spec.mode {
        ReplayMode::TwoPhase { window } => file_plan(stream, &per_rank, window),
        _ => FilePlan::default(),
    };
    let shared = Rc::new(ReplayShared {
        stream: stream.clone(),
        extents: stream.extents(),
        events,
        per_rank,
        windows,
        latency: RefCell::new(LatencyHistogram::new()),
        iface: spec.iface,
        mode: spec.mode,
    });
    let sh = Rc::clone(&shared);
    let stats = run_world(spec.machine.clone(), n.max(1), move |machine| {
        let file_worlds: Vec<Option<World>> = openers
            .iter()
            .map(|ranks| {
                (!ranks.is_empty()).then(|| World::on_nodes(Rc::clone(machine), ranks.clone()))
            })
            .collect();
        move |ctx: WorldCtx| -> RankFuture {
            let sh = Rc::clone(&sh);
            // This rank's endpoint on the communicator of each file it
            // opens.
            let file_comms: Vec<(usize, Comm)> = files_of
                .get(ctx.rank)
                .map_or(&[][..], Vec::as_slice)
                .iter()
                .map(|&f| {
                    let local = openers[f]
                        .binary_search(&ctx.rank)
                        .expect("rank opens the file");
                    let world = file_worlds[f].as_ref().expect("file has openers");
                    (f, world.comm(local))
                })
                .collect();
            Box::pin(async move {
                match sh.mode {
                    ReplayMode::TwoPhase { window } => {
                        replay_two_phase(ctx, sh, file_comms, window).await
                    }
                    ReplayMode::Direct => replay_serial(ctx, sh, 1).await,
                    ReplayMode::ListIo { batch } => replay_serial(ctx, sh, batch).await,
                }
            })
        }
    });
    let latency = shared.latency.borrow().clone();
    ReplayReport {
        stats,
        latency,
        data_ops: stream.data_ops(),
        data_bytes: stream.data_bytes(),
    }
}

/// Data-op helper: `(is_read, offset, len)`.
fn data_parts(kind: &WorkKind) -> Option<(bool, u64, u64)> {
    match *kind {
        WorkKind::Read { offset, len } => Some((true, offset, len)),
        WorkKind::Write { offset, len } => Some((false, offset, len)),
        _ => None,
    }
}

async fn ensure_open(
    ctx: &WorldCtx,
    sh: &ReplayShared,
    handles: &mut FxHashMap<usize, FileHandle>,
    file: usize,
) {
    if let std::collections::hash_map::Entry::Vacant(slot) = handles.entry(file) {
        let fh = ctx
            .fs
            .open(
                ctx.rank,
                sh.iface,
                &sh.stream.files[file],
                Some(CreateOptions::default()),
            )
            .await
            .expect("open replay file");
        fh.preallocate(sh.extents[file]);
        slot.insert(fh);
    }
}

/// A pending coalesced run: (file, is_read, extents, op indices).
type PendingRun = (usize, bool, Vec<(u64, u64)>, Vec<usize>);

/// Direct and list-I/O replay: walk the rank's program order; with
/// `batch > 1`, coalesce runs of same-file same-direction data ops into
/// vectored requests.
async fn replay_serial(ctx: WorldCtx, sh: Rc<ReplayShared>, batch: usize) {
    let mine = sh.per_rank.get(ctx.rank).cloned().unwrap_or_default();
    let h = ctx.fs.machine().handle().clone();
    let mut handles: FxHashMap<usize, FileHandle> = FxHashMap::default();
    let mut pending: Option<PendingRun> = None;
    macro_rules! flush {
        () => {
            if let Some((file, is_read, extents, idxs)) = pending.take() {
                let fh = handles.get(&file).expect("flush on open file");
                let t0 = h.now();
                if extents.len() == 1 {
                    // A lone op takes the legacy seek + read/write path,
                    // so `batch = 1` is exactly direct replay.
                    let (off, len) = extents[0];
                    fh.seek(off).await;
                    if is_read {
                        fh.read_discard(len).await.expect("replay read");
                    } else {
                        fh.write_discard(len).await.expect("replay write");
                    }
                } else {
                    let req = IoRequest::from_extents(extents);
                    if is_read {
                        fh.readv_discard(&req).await.expect("replay readv");
                    } else {
                        fh.writev_discard(&req).await.expect("replay writev");
                    }
                }
                let elapsed = h.now() - t0;
                for i in idxs {
                    sh.latency.borrow_mut().record(elapsed.as_nanos());
                    sh.signal(i);
                }
            }
        };
    }
    for &i in &mine {
        let op = &sh.stream.ops[i];
        if !op.deps.is_empty() {
            flush!();
            for &d in &op.deps {
                sh.events[d].as_ref().expect("dep event").wait().await;
            }
        }
        match data_parts(&op.kind) {
            Some((is_read, offset, len)) => {
                ensure_open(&ctx, &sh, &mut handles, op.file).await;
                let fits = matches!(
                    &pending,
                    Some((f, r, exts, _)) if *f == op.file && *r == is_read && exts.len() < batch
                );
                if !fits {
                    flush!();
                    pending = Some((op.file, is_read, Vec::new(), Vec::new()));
                }
                let (_, _, exts, idxs) = pending.as_mut().expect("pending run");
                exts.push((offset, len));
                idxs.push(i);
                // Direct mode issues immediately; list mode waits for
                // the run to grow or break.
                if batch == 1 {
                    flush!();
                }
            }
            None => {
                flush!();
                match op.kind {
                    WorkKind::Open => ensure_open(&ctx, &sh, &mut handles, op.file).await,
                    WorkKind::Close => {
                        if let Some(fh) = handles.remove(&op.file) {
                            fh.close().await;
                        }
                    }
                    WorkKind::Seek(pos) => {
                        ensure_open(&ctx, &sh, &mut handles, op.file).await;
                        handles[&op.file].seek(pos).await;
                    }
                    _ => unreachable!("data ops handled above"),
                }
                sh.signal(i);
            }
        }
    }
    flush!();
    ctx.comm.barrier().await;
    let mut left: Vec<(usize, FileHandle)> = handles.drain().collect();
    left.sort_by_key(|(f, _)| *f);
    for (_, fh) in left {
        fh.close().await;
    }
}

/// Two-phase collective replay: a rank opens the files its trace
/// touches, then walks each file's windows in lockstep with the file's
/// other openers, on the file's communicator (`file_comms`, ascending
/// by file, so every communicator sees its collectives in one order).
async fn replay_two_phase(
    ctx: WorldCtx,
    sh: Rc<ReplayShared>,
    file_comms: Vec<(usize, Comm)>,
    window: usize,
) {
    let h = ctx.fs.machine().handle().clone();
    let mut fhs: Vec<FileHandle> = Vec::with_capacity(file_comms.len());
    for &(f, _) in &file_comms {
        let fh = ctx
            .fs
            .open(
                ctx.rank,
                sh.iface,
                &sh.stream.files[f],
                Some(CreateOptions::default()),
            )
            .await
            .expect("open replay file");
        fh.preallocate(sh.extents[f]);
        fhs.push(fh);
    }
    let mine = sh.per_rank.get(ctx.rank).cloned().unwrap_or_default();
    for (fh, (f, comm)) in fhs.iter().zip(&file_comms) {
        let f = *f;
        let ops: Vec<usize> = mine
            .iter()
            .copied()
            .filter(|&i| sh.stream.ops[i].file == f && data_parts(&sh.stream.ops[i].kind).is_some())
            .collect();
        for w in 0..sh.windows[f] {
            let chunk: &[usize] = ops
                .get(w * window..)
                .map_or(&[], |rest| &rest[..rest.len().min(window)]);
            let writes: Vec<Piece> = chunk
                .iter()
                .filter_map(|&i| match data_parts(&sh.stream.ops[i].kind) {
                    Some((false, off, len)) => Some(Piece::synthetic(off, len)),
                    _ => None,
                })
                .collect();
            let reads: Vec<Span> = chunk
                .iter()
                .filter_map(|&i| match data_parts(&sh.stream.ops[i].kind) {
                    Some((true, off, len)) => Some(Span::new(off, len)),
                    _ => None,
                })
                .collect();
            let t0 = h.now();
            write_collective(comm, fh, writes)
                .await
                .expect("collective writes");
            read_collective(comm, fh, reads)
                .await
                .expect("collective reads");
            let elapsed = h.now() - t0;
            for &i in chunk {
                sh.latency.borrow_mut().record(elapsed.as_nanos());
                sh.signal(i);
            }
        }
    }
    ctx.comm.barrier().await;
    for fh in fhs {
        fh.close().await;
    }
}

/// [`replay`], for callers that pass a host worker count: the engine is
/// one simulation, so `workers` is unused and the report is exactly
/// [`replay`]'s.
pub fn replay_threaded(stream: &OpStream, spec: &ReplaySpec, _workers: usize) -> ReplayReport {
    replay(stream, spec)
}

// ---------------------------------------------------------------------
// Open-loop runner

struct OpenLoopShared {
    latency: RefCell<LatencyHistogram>,
    completed: Cell<u64>,
    last_done: Cell<SimTime>,
    fragments: u32,
}

impl OpenLoopShared {
    fn finish(&self, scheduled: SimTime, now: SimTime) {
        self.latency
            .borrow_mut()
            .record((now - scheduled).as_nanos());
        self.completed.set(self.completed.get() + 1);
        self.last_done.set(self.last_done.get().max(now));
    }
}

/// Fragment extents of one synthetic op: the record emitted as
/// `fragments` back-to-back pieces — the many-small-calls pattern the
/// paper's packed/list-I/O interfaces target. Direct replay pays one
/// file-system request per piece; a vectored request coalesces the
/// adjacent pieces into a single extent.
fn fragments_of(op: &TimedOp, fragments: u32) -> impl Iterator<Item = (u64, u64)> {
    let (offset, total) = (op.offset, op.len);
    let n = (fragments.max(1) as u64).min(total);
    let frag = total / n;
    (0..n).map(move |k| {
        let len = if k == n - 1 {
            total - frag * (n - 1)
        } else {
            frag
        };
        (offset + k * frag, len)
    })
}

/// Run an open-loop synthetic workload through the machine.
///
/// Clients are assigned round-robin to compute ranks. Each client issues
/// its operations at their scheduled arrival instants *regardless of
/// completion* (spawned as detached tasks — a true open loop with no
/// back-pressure), so offered load is honoured exactly and overload
/// shows up as queueing latency. In [`ReplayMode::TwoPhase`] the rank
/// aggregates arrivals into exchange windows of `window` operations and
/// issues each window as vectored requests — the per-node half of
/// two-phase I/O; a global collective is impossible open-loop.
pub fn run_open_loop(synth: &SynthSpec, spec: &ReplaySpec) -> OpenLoopReport {
    let clients = synth::generate(synth);
    let offered_ops = synth::total_ops(&clients);
    let ranks = synth.clients.min(spec.machine.compute_nodes).max(1);
    let mut per_rank: Vec<Vec<Vec<TimedOp>>> = vec![Vec::new(); ranks];
    for (c, ops) in clients.into_iter().enumerate() {
        per_rank[c % ranks].push(ops);
    }
    // Each rank's program is built once; it takes its op lists out.
    let per_rank = RefCell::new(per_rank);
    let shared = Rc::new(OpenLoopShared {
        latency: RefCell::new(LatencyHistogram::new()),
        completed: Cell::new(0),
        last_done: Cell::new(SimTime::ZERO),
        fragments: synth.fragments,
    });
    let files: Rc<Vec<String>> =
        Rc::new((0..synth.files).map(|f| format!("synth{f}.data")).collect());
    // A record starting at the last aligned offset ends past `file_bytes`.
    let extent = synth.file_bytes + synth.op_bytes;
    let sh = Rc::clone(&shared);
    let iface = spec.iface;
    let mode = spec.mode;
    let stats = run_world(spec.machine.clone(), ranks, |_| {
        move |ctx: WorldCtx| -> RankFuture {
            let sh = Rc::clone(&sh);
            let my_clients = std::mem::take(&mut per_rank.borrow_mut()[ctx.rank]);
            let files = Rc::clone(&files);
            Box::pin(open_loop_rank(
                ctx, sh, my_clients, files, extent, iface, mode,
            ))
        }
    });
    let latency = shared.latency.borrow().clone();
    let completed_ops = shared.completed.get();
    let duration = synth.duration.as_secs_f64();
    let offered_rate = if duration > 0.0 {
        offered_ops as f64 / duration
    } else {
        0.0
    };
    let makespan = (shared.last_done.get() - SimTime::ZERO).as_secs_f64();
    let achieved_rate = if makespan > 0.0 {
        completed_ops as f64 / makespan
    } else {
        0.0
    };
    OpenLoopReport {
        stats,
        latency,
        offered_ops,
        completed_ops,
        offered_rate,
        achieved_rate,
    }
}

/// One rank's open-loop program: open every file, then drive this rank's
/// clients.
async fn open_loop_rank(
    ctx: WorldCtx,
    sh: Rc<OpenLoopShared>,
    my_clients: Vec<Vec<TimedOp>>,
    files: Rc<Vec<String>>,
    extent: u64,
    iface: Interface,
    mode: ReplayMode,
) {
    let mut fhs = Vec::with_capacity(files.len());
    for name in files.iter() {
        let fh = ctx
            .fs
            .open(ctx.rank, iface, name, Some(CreateOptions::default()))
            .await
            .expect("open synth file");
        fh.preallocate(extent);
        fhs.push(fh);
    }
    let fhs = Rc::new(fhs);
    let h = ctx.fs.machine().handle().clone();
    let start = h.now();
    match mode {
        ReplayMode::TwoPhase { window } => {
            // Clients feed an exchange queue; the rank drains it
            // in windows.
            let (tx, rx) = channel::<(SimTime, TimedOp)>();
            let mut drivers = Vec::new();
            for ops in my_clients {
                let h2 = h.clone();
                let tx = tx.clone();
                drivers.push(h.spawn(async move {
                    for op in ops {
                        let at = start + op.at;
                        h2.sleep_until(at).await;
                        tx.send((at, op));
                    }
                }));
            }
            drop(tx);
            let mut batch: Vec<(SimTime, TimedOp)> = Vec::new();
            loop {
                let item = rx.recv().await;
                if let Some(it) = item {
                    batch.push(it);
                }
                let closed = item.is_none();
                if batch.len() >= window.max(1) || (closed && !batch.is_empty()) {
                    flush_window(&sh, &fhs, &h, &batch).await;
                    batch.clear();
                }
                if closed {
                    break;
                }
            }
            for d in drivers {
                d.await;
            }
        }
        _ => {
            let mut drivers = Vec::new();
            for ops in my_clients {
                let h2 = h.clone();
                let sh = Rc::clone(&sh);
                let fhs = Rc::clone(&fhs);
                drivers.push(h.spawn(async move {
                    for op in ops {
                        let at = start + op.at;
                        h2.sleep_until(at).await;
                        let sh = Rc::clone(&sh);
                        let fhs = Rc::clone(&fhs);
                        let h3 = h2.clone();
                        // Detached: the next arrival does not
                        // wait for this op — the open loop.
                        h2.spawn_detached(async move {
                            issue_op(&sh, &fhs, &op, mode).await;
                            sh.finish(at, h3.now());
                        });
                    }
                }));
            }
            for d in drivers {
                d.await;
            }
        }
    }
}

/// Issue one open-loop op in direct or list-I/O style.
async fn issue_op(sh: &OpenLoopShared, fhs: &[FileHandle], op: &TimedOp, mode: ReplayMode) {
    let fh = &fhs[op.file];
    let exts = fragments_of(op, sh.fragments);
    match mode {
        ReplayMode::ListIo { .. } => {
            let req = IoRequest::from_extents(exts.collect());
            match op.kind {
                TraceKind::Read => fh.readv_discard(&req).await.expect("open-loop readv"),
                TraceKind::Write => fh.writev_discard(&req).await.expect("open-loop writev"),
            }
        }
        _ => {
            for (off, len) in exts {
                match op.kind {
                    TraceKind::Read => fh.read_discard_at(off, len).await.expect("open-loop read"),
                    TraceKind::Write => fh
                        .write_discard_at(off, len)
                        .await
                        .expect("open-loop write"),
                }
            }
        }
    }
}

/// Extent lists gathered inside one exchange window, keyed by file id.
/// Iteration always goes through a sorted fid list, never map order.
type ExtentsByFile = FxHashMap<usize, Vec<(u64, u64)>>;

/// Flush one exchange window: all write fragments per file as one
/// vectored request, then all read fragments per file.
async fn flush_window(
    sh: &OpenLoopShared,
    fhs: &[FileHandle],
    h: &iosim_simkit::executor::SimHandle,
    batch: &[(SimTime, TimedOp)],
) {
    let mut writes: ExtentsByFile = FxHashMap::default();
    let mut reads: ExtentsByFile = FxHashMap::default();
    for (_, op) in batch {
        let dst = match op.kind {
            TraceKind::Write => &mut writes,
            TraceKind::Read => &mut reads,
        };
        dst.entry(op.file)
            .or_default()
            .extend(fragments_of(op, sh.fragments));
    }
    let order: [(&ExtentsByFile, bool); 2] = [(&writes, false), (&reads, true)];
    for (map, is_read) in order {
        let mut fids: Vec<usize> = map.keys().copied().collect();
        fids.sort_unstable();
        for f in fids {
            let req = IoRequest::from_extents(map[&f].clone());
            if is_read {
                fhs[f].readv_discard(&req).await.expect("window readv");
            } else {
                fhs[f].writev_discard(&req).await.expect("window writev");
            }
        }
    }
    let now = h.now();
    for &(at, _) in batch {
        sh.finish(at, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalModel;
    use crate::opstream::{parse_legacy, parse_opstream, synthesize_strided, OpStream};
    use iosim_machine::presets;

    fn strided(ranks: usize, ops_per_rank: u64, record: u64) -> OpStream {
        OpStream::from_legacy(&synthesize_strided(ranks, ops_per_rank, record))
    }

    #[test]
    fn direct_replay_matches_legacy_structure() {
        let s = strided(4, 25, 512);
        let rep = replay(&s, &ReplaySpec::direct(presets::sp2()));
        assert_eq!(rep.stats.summary.rows[3].count, 100); // writes
        assert_eq!(rep.stats.summary.rows[2].count, 100); // seeks
        assert_eq!(rep.stats.io_bytes, 100 * 512);
        assert_eq!(rep.latency.count(), 100);
        assert_eq!(rep.data_ops, 100);
        assert!(rep.ops_per_sec() > 0.0);
    }

    #[test]
    fn three_modes_move_the_same_bytes() {
        let s = strided(4, 40, 1024);
        let direct = replay(&s, &ReplaySpec::direct(presets::sp2()));
        let list = replay(&s, &ReplaySpec::list_io(presets::sp2(), 16));
        let two = replay(&s, &ReplaySpec::two_phase(presets::sp2(), 40));
        assert_eq!(direct.stats.io_bytes, list.stats.io_bytes);
        assert_eq!(direct.stats.io_bytes, two.stats.io_bytes);
        // Strided small ops: batching must beat per-op replay.
        assert!(list.stats.exec_time < direct.stats.exec_time);
        assert!(two.stats.exec_time.as_secs_f64() < direct.stats.exec_time.as_secs_f64() / 2.0);
        // Every data op got a latency sample in every mode.
        assert_eq!(direct.latency.count(), 160);
        assert_eq!(list.latency.count(), 160);
        assert_eq!(two.latency.count(), 160);
    }

    #[test]
    fn two_phase_windows_stay_aligned_on_uneven_ranks() {
        // Rank 0 has 7 ops, rank 1 has 2: windows must still align.
        let text = "0 w 0 100\n0 w 100 100\n0 w 200 100\n0 w 300 100\n\
                    0 w 400 100\n0 w 500 100\n0 w 600 100\n\
                    1 w 1000 100\n1 w 1100 100\n";
        let s = OpStream::from_legacy(&parse_legacy(text).unwrap());
        let rep = replay(&s, &ReplaySpec::two_phase(presets::sp2(), 3));
        assert_eq!(rep.stats.io_bytes, 900);
        assert_eq!(rep.latency.count(), 9);
    }

    #[test]
    fn mixed_reads_and_writes_replay() {
        let text = "0 w 0 1000\n1 w 1000 1000\n0 r 1000 500\n1 r 0 500\n";
        let s = OpStream::from_legacy(&parse_legacy(text).unwrap());
        let direct = replay(&s, &ReplaySpec::direct(presets::paragon_small()));
        assert_eq!(direct.stats.summary.rows[1].bytes, 1000); // reads
        assert_eq!(direct.stats.summary.rows[3].bytes, 2000); // writes
        let two = replay(&s, &ReplaySpec::two_phase(presets::paragon_small(), 4));
        assert_eq!(
            two.stats.summary.rows[1].bytes + two.stats.summary.rows[3].bytes,
            3000
        );
    }

    #[test]
    #[should_panic(expected = "trace needs")]
    fn too_many_ranks_rejected() {
        let _ = replay(&strided(100, 1, 10), &ReplaySpec::direct(presets::sp2()));
    }

    #[test]
    fn replay_is_deterministic() {
        let s = strided(2, 10, 256);
        let a = replay(&s, &ReplaySpec::list_io(presets::paragon_small(), 8));
        let b = replay(&s, &ReplaySpec::list_io(presets::paragon_small(), 8));
        assert_eq!(a.stats.exec_time, b.stats.exec_time);
        assert_eq!(a.stats.sched_fingerprint, b.stats.sched_fingerprint);
        assert_eq!(a.latency.quantile(0.5), b.latency.quantile(0.5));
    }

    #[test]
    fn dependency_edges_order_cross_rank_ops() {
        // Rank 1's read waits for rank 0's write even though rank 1
        // would otherwise race ahead.
        let text = "\
0 open f
1 open f
0 write f 0 1048576 @w0
1 read f 0 4096 <-w0
0 close f
1 close f
";
        let s = parse_opstream(text).unwrap();
        assert!(s.has_deps());
        let rep = replay(&s, &ReplaySpec::direct(presets::paragon_small()));
        assert_eq!(rep.stats.summary.rows[1].count, 1); // read happened
        assert_eq!(rep.latency.count(), 2);
        // The dependent read cannot have finished before the write.
        let nodep = parse_opstream(&text.replace(" <-w0", "")).unwrap();
        let rep2 = replay(&nodep, &ReplaySpec::direct(presets::paragon_small()));
        assert!(rep.stats.exec_time >= rep2.stats.exec_time);
    }

    #[test]
    fn multi_file_streams_replay_in_all_modes() {
        let text = "\
0 open a
0 open b
1 open a
0 write a 0 4096
0 write b 0 4096
1 write a 4096 4096
0 read a 0 1024
0 close a
0 close b
1 close a
";
        let s = parse_opstream(text).unwrap();
        for spec in [
            ReplaySpec::direct(presets::paragon_small()),
            ReplaySpec::list_io(presets::paragon_small(), 4),
            ReplaySpec::two_phase(presets::paragon_small(), 2),
        ] {
            let rep = replay(&s, &spec);
            assert_eq!(rep.stats.io_bytes, 3 * 4096 + 1024, "{:?}", spec.mode);
            assert_eq!(rep.latency.count(), 4, "{:?}", spec.mode);
        }
    }

    #[test]
    fn open_loop_reports_offered_and_achieved() {
        let synth = SynthSpec {
            clients: 8,
            files: 2,
            fragments: 4,
            op_bytes: 16 << 10,
            file_bytes: 4 << 20,
            ..SynthSpec::small(20.0, 42)
        };
        let rep = run_open_loop(&synth, &ReplaySpec::direct(presets::paragon_small()));
        assert_eq!(rep.offered_ops, rep.completed_ops);
        assert!(rep.offered_ops > 0);
        assert_eq!(rep.latency.count(), rep.completed_ops);
        assert!(rep.achieved_rate > 0.0);
        assert!(rep.overload_ratio() > 0.0);
    }

    #[test]
    fn open_loop_is_bit_deterministic() {
        let synth = SynthSpec {
            clients: 6,
            ..SynthSpec::small(15.0, 9)
        };
        let spec = ReplaySpec::list_io(presets::paragon_small(), 8);
        let a = run_open_loop(&synth, &spec);
        let b = run_open_loop(&synth, &spec);
        assert_eq!(a.stats.exec_time, b.stats.exec_time);
        assert_eq!(a.stats.sched_fingerprint, b.stats.sched_fingerprint);
        assert_eq!(a.completed_ops, b.completed_ops);
        assert_eq!(a.latency.quantile(0.99), b.latency.quantile(0.99));
    }

    #[test]
    fn open_loop_two_phase_batches_windows() {
        let synth = SynthSpec {
            clients: 8,
            ..SynthSpec::small(25.0, 11)
        };
        let rep = run_open_loop(&synth, &ReplaySpec::two_phase(presets::paragon_small(), 8));
        assert_eq!(rep.offered_ops, rep.completed_ops);
        assert!(rep.latency.count() > 0);
    }

    #[test]
    fn overload_bends_the_latency_curve() {
        // Same population at 1× and 20× the arrival rate: the overloaded
        // run must show a worse overload ratio and higher p99.
        let calm = SynthSpec {
            clients: 16,
            ..SynthSpec::small(5.0, 3)
        };
        let hot = SynthSpec {
            arrival: ArrivalModel::Poisson { rate: 100.0 },
            ..calm.clone()
        };
        let spec = ReplaySpec::direct(presets::paragon_small());
        let a = run_open_loop(&calm, &spec);
        let b = run_open_loop(&hot, &spec);
        assert!(b.offered_rate > a.offered_rate * 10.0);
        assert!(
            b.overload_ratio() < a.overload_ratio(),
            "overload ratio should degrade: calm {} vs hot {}",
            a.overload_ratio(),
            b.overload_ratio()
        );
        assert!(b.latency.p99() > a.latency.p99());
    }

    #[test]
    fn knee_detection_finds_first_saturated_point() {
        let pts = vec![
            SweepPoint {
                offered: 100.0,
                achieved: 99.0,
                p99_ms: 1.0,
            },
            SweepPoint {
                offered: 200.0,
                achieved: 196.0,
                p99_ms: 2.0,
            },
            SweepPoint {
                offered: 400.0,
                achieved: 310.0,
                p99_ms: 40.0,
            },
            SweepPoint {
                offered: 800.0,
                achieved: 315.0,
                p99_ms: 400.0,
            },
        ];
        assert_eq!(saturation_knee(&pts), Some(2));
        assert_eq!(saturation_knee(&pts[..2]), None);
        assert_eq!(saturation_knee(&[]), None);

        // Percentile-path stability: reading each point's p99 through
        // the batched single-scan `quantiles` must leave every sweep
        // point — and therefore the knee index — exactly where the
        // scalar `quantile` path put it.
        let histograms: Vec<LatencyHistogram> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut h = LatencyHistogram::new();
                for k in 0..100u64 {
                    h.record((p.p99_ms * 1e6) as u64 / 2 + k * 1_000);
                }
                h.record((p.p99_ms * 1e6) as u64 + i as u64);
                h
            })
            .collect();
        let scalar: Vec<SweepPoint> = pts
            .iter()
            .zip(&histograms)
            .map(|(p, h)| SweepPoint {
                p99_ms: h.quantile(0.99) as f64 / 1e6,
                ..*p
            })
            .collect();
        let batched: Vec<SweepPoint> = pts
            .iter()
            .zip(&histograms)
            .map(|(p, h)| SweepPoint {
                p99_ms: h.quantiles(&[0.99])[0] as f64 / 1e6,
                ..*p
            })
            .collect();
        assert_eq!(scalar, batched, "batched quantiles moved a sweep point");
        assert_eq!(saturation_knee(&scalar), saturation_knee(&batched));
        assert_eq!(saturation_knee(&batched), Some(2), "knee index moved");
    }
}
