//! The three workloads: their set-up, one job each, and the checks on
//! every job's outputs.

use std::hint::black_box;

use iosim_apps::btio::{self, BtClass, BtioConfig};
use iosim_apps::fft::{self, FftConfig};
use iosim_apps::scf11::{self, Scf11Config, Scf11Version, ScfInput};
use iosim_apps::RunResult;
use iosim_buf::tally;
use iosim_machine::presets;
use iosim_simkit::time::SimDuration;
use iosim_trace::{CacheSnapshot, IoSummary, LatencyHistogram, ListIoSnapshot, QueueSnapshot};
use iosim_workload::{
    parse_any, replay_threaded, run_open_loop, synth, OpStream, ReplaySpec, SynthSpec,
};

use crate::gen::{self, PaperPoints};
use crate::spans::Spans;

/// Host threads the sharded replays may use.
pub const REPLAY_WORKERS: usize = 2;
/// Command-queue depth of the replay machine. The file system runs its
/// command queues only on uncached machines, so the elevator is measured
/// here rather than on `openloop_cache`.
pub const REPLAY_QUEUE_DEPTH: usize = 8;
/// Batch size of list-I/O replay and window of two-phase replay.
pub const REPLAY_BATCH: usize = 8;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Paper grid points on the monolithic engine, uncached, FIFO disks.
    PaperApps,
    /// A seeded dependency-heavy trace replayed in three modes, sharded.
    ReplayDeps,
    /// Open-loop Poisson clients on a cached, queued SP-2.
    OpenloopCache,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperApps,
        Workload::ReplayDeps,
        Workload::OpenloopCache,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperApps => "paper_apps",
            Workload::ReplayDeps => "replay_deps",
            Workload::OpenloopCache => "openloop_cache",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What set-up hands every job.
pub enum Inputs {
    /// Grid points of `paper_apps`.
    Paper(PaperPoints),
    /// The parsed `replay_deps` trace and the generator's counts.
    Replay {
        /// Parsed stream.
        stream: OpStream,
        /// Operations the generator emitted.
        ops: u64,
        /// Data operations the generator emitted.
        data_ops: u64,
        /// Dependency edges the generator emitted.
        dep_edges: u64,
    },
    /// The `openloop_cache` generator spec.
    OpenLoop(SynthSpec),
}

/// Build a workload's inputs from `seed`; the trace parse is recorded as
/// a `workload.parse` span.
pub fn prepare(w: Workload, seed: u64, spans: &mut Spans) -> Result<Inputs, String> {
    Ok(match w {
        Workload::PaperApps => Inputs::Paper(gen::paper_points(seed)),
        Workload::ReplayDeps => {
            let trace = gen::replay_trace(seed);
            let stream = spans
                .span("workload.parse", || parse_any(&trace.text, seed))
                .map_err(|e| format!("generated trace does not parse: {e}"))?;
            let dep_edges: u64 = stream.ops.iter().map(|o| o.deps.len() as u64).sum();
            if stream.ops.len() as u64 != trace.ops
                || stream.data_ops() != trace.data_ops
                || dep_edges != trace.dep_edges
            {
                return Err(format!(
                    "parsed {} ops / {} data ops / {dep_edges} deps, generated {} / {} / {}",
                    stream.ops.len(),
                    stream.data_ops(),
                    trace.ops,
                    trace.data_ops,
                    trace.dep_edges
                ));
            }
            Inputs::Replay {
                stream,
                ops: trace.ops,
                data_ops: trace.data_ops,
                dep_edges,
            }
        }
        Workload::OpenloopCache => Inputs::OpenLoop(gen::openloop_spec(seed)),
    })
}

/// Simulated results of a job: these must repeat exactly on every job of
/// a run, traced or not.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Model {
    /// Virtual execution time summed over the job's simulations, ns.
    pub virtual_exec_ns: u128,
    /// Order-sensitive fold of every simulation's schedule fingerprint.
    pub fingerprint: u64,
    /// Latency histogram of the job's replayed or open-loop ops, as
    /// count, max, sum and a ladder of quantiles (empty for apps).
    pub latency: Vec<u64>,
    /// Median and 99th-percentile virtual op latency, ns.
    pub vlat_p50_ns: u64,
    /// See `vlat_p50_ns`.
    pub vlat_p99_ns: u64,
}

/// Deterministic per-layer work counts of a job.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Executor task polls.
    pub polls: u64,
    /// Shard-engine synchronization rounds.
    pub sync_rounds: u64,
    /// Worst shard's simulation-memory peak, bytes.
    pub shard_mem_peak: u64,
    /// Disk command queue.
    pub queue: QueueSnapshot,
    /// File-system operations.
    pub io_ops: u64,
    /// File-system bytes.
    pub io_bytes: u64,
    /// Vectored requests.
    pub listio: ListIoSnapshot,
    /// Buffer cache.
    pub cache: CacheSnapshot,
    /// Data-plane buffer traffic (monolithic jobs only).
    pub buf: tally::DataPlaneTally,
    /// Report invariants broken.
    pub report_violations: u64,
}

/// Everything a job returns.
#[derive(Clone, Debug)]
pub struct JobOut {
    /// Simulated results.
    pub model: Model,
    /// Work counts.
    pub counts: Counts,
    /// Host time the simulations themselves measured, ns.
    pub sim_host_ns: u128,
    /// Output checks that failed, one line each.
    pub errors: Vec<String>,
}

/// Report invariants of one run that do not hold: the per-kind rows must
/// sum to the "All I/O" total (checked in u128, so a wrapped total
/// shows), no row may exceed that total, and wall I/O time may not
/// exceed execution time.
pub fn report_violations(summary: &IoSummary, io_time: SimDuration, exec: SimDuration) -> u64 {
    let total = summary.total();
    let row_sum =
        |f: fn(&iosim_trace::SummaryRow) -> u128| -> u128 { summary.rows.iter().map(f).sum() };
    let sums_match = row_sum(|r| r.time.as_nanos() as u128) == total.time.as_nanos() as u128
        && row_sum(|r| r.count as u128) == total.count as u128
        && row_sum(|r| r.bytes as u128) == total.bytes as u128;
    let rows_within = summary.rows.iter().all(|r| r.time <= total.time);
    u64::from(!sums_match) + u64::from(!rows_within) + u64::from(io_time > exec)
}

/// Latency quantile ladder folded into [`Model::latency`].
const LADDER: [f64; 12] = [
    0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9999, 1.0,
];

/// Accumulates a job's runs.
#[derive(Default)]
struct Job {
    out: Model,
    counts: Counts,
    sim_host_ns: u128,
    latency: Option<LatencyHistogram>,
    errors: Vec<String>,
}

impl Job {
    /// Record a failed output check unless `ok`.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Fold one run in and render its user-facing report (the summary
    /// table, plus latency quantiles when the run has a histogram).
    fn absorb(&mut self, spans: &mut Spans, r: &RunResult, lat: Option<&LatencyHistogram>) {
        self.out.virtual_exec_ns += r.exec_time.as_nanos() as u128;
        self.out.fingerprint = (self.out.fingerprint ^ r.sched_fingerprint)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(17);
        let c = &mut self.counts;
        c.polls += r.sim_events;
        c.sync_rounds += r.sync_rounds;
        c.shard_mem_peak = c.shard_mem_peak.max(r.shard_mem.peak);
        c.queue.merge(&r.queue);
        c.io_ops += r.io_ops;
        c.io_bytes += r.io_bytes;
        c.listio.merge(&r.listio);
        c.cache.merge(&r.cache);
        self.sim_host_ns += r.host_elapsed.as_nanos();
        let violations = spans.span("trace.report", || {
            let cum_exec = SimDuration::from_nanos(r.exec_time.as_nanos() * r.procs as u64);
            black_box(r.summary.render("I/O summary", cum_exec));
            if let Some(l) = lat {
                black_box(l.quantiles(&[0.5, 0.99, 0.999]));
                black_box(l.render_line());
            }
            report_violations(&r.summary, r.io_time, r.exec_time)
        });
        c.report_violations += violations;
        if let Some(l) = lat {
            self.latency
                .get_or_insert_with(LatencyHistogram::new)
                .merge(l);
        }
    }

    fn finish(mut self, buf: tally::DataPlaneTally) -> JobOut {
        if let Some(l) = &self.latency {
            let mut sig = vec![l.count(), l.max_ns(), l.mean_ns().to_bits()];
            sig.extend(l.quantiles(&LADDER));
            self.out.latency = sig;
            self.out.vlat_p50_ns = l.p50();
            self.out.vlat_p99_ns = l.p99();
        }
        self.counts.buf = buf;
        JobOut {
            model: self.out,
            counts: self.counts,
            sim_host_ns: self.sim_host_ns,
            errors: self.errors,
        }
    }
}

/// Run one job on `inputs`, recording a span around every layer call and
/// checking its outputs.
pub fn run_job(inputs: &Inputs, spans: &mut Spans) -> JobOut {
    match inputs {
        Inputs::Paper(p) => paper_job(p, spans),
        Inputs::Replay {
            stream, data_ops, ..
        } => replay_job(stream, *data_ops, spans),
        Inputs::OpenLoop(spec) => openloop_job(spec, spans),
    }
}

fn paper_job(p: &PaperPoints, spans: &mut Spans) -> JobOut {
    tally::reset();
    let mut job = Job::default();
    for optimized in [false, true] {
        let cfg = BtioConfig {
            dumps: gen::BTIO_DUMPS,
            ..BtioConfig::new(BtClass::A, gen::BTIO_PROCS, optimized)
        };
        let r = spans.span("apps.btio", || btio::run(&cfg));
        job.absorb(spans, &r, None);
    }
    let mem = ((16u64 << 20) * gen::FFT_N * gen::FFT_N / (4096 * 4096)).max(64 << 10);
    for (optimized, io_nodes) in [(false, p.fft_unopt_io_nodes), (true, 2)] {
        let cfg = FftConfig {
            io_nodes,
            mem_per_proc: mem,
            ..FftConfig::new(gen::FFT_N, p.fft_procs, optimized)
        };
        let r = spans.span("apps.fft", || fft::run(&cfg));
        job.absorb(spans, &r, None);
    }
    let cfg = Scf11Config {
        procs: p.scf_procs,
        io_nodes: p.scf_io_nodes,
        mem_kb: 256,
        scale: gen::SCF_SCALE,
        ..Scf11Config::new(ScfInput::Large, Scf11Version::PassionPrefetch)
    };
    let r = spans.span("apps.scf11", || scf11::run(&cfg));
    job.absorb(spans, &r.run, None);
    let mut files = Vec::new();
    for optimized in [false, true] {
        let cfg = BtioConfig {
            dumps: gen::CAPTURE_DUMPS,
            stored: true,
            ..BtioConfig::new(
                BtClass::Custom(gen::CAPTURE_GRID),
                gen::CAPTURE_PROCS,
                optimized,
            )
        };
        let (r, bytes) = spans.span("apps.btio_capture", || btio::run_capture(&cfg));
        job.check(bytes.len() == cfg.total_bytes(), || {
            format!(
                "BTIO capture holds {} bytes, expected {}",
                bytes.len(),
                cfg.total_bytes()
            )
        });
        job.absorb(spans, &r, None);
        files.push(bytes);
    }
    job.check(files[0].iter_bytes().eq(files[1].iter_bytes()), || {
        "unoptimized and two-phase BTIO stored different bytes".into()
    });
    job.finish(tally::snapshot())
}

/// The machine trace replay runs on: the SP-2 preset (80 compute nodes,
/// 4 I/O nodes), uncached, with an NCQ-style command queue of
/// [`REPLAY_QUEUE_DEPTH`] on every I/O node.
fn replay_machine() -> iosim_machine::MachineConfig {
    presets::sp2().with_io_queue_depth(REPLAY_QUEUE_DEPTH)
}

fn replay_job(stream: &OpStream, data_ops: u64, spans: &mut Spans) -> JobOut {
    let mut job = Job::default();
    let modes: [(&'static str, ReplaySpec); 3] = [
        (
            "workload.replay_direct",
            ReplaySpec::direct(replay_machine()),
        ),
        (
            "workload.replay_list",
            ReplaySpec::list_io(replay_machine(), REPLAY_BATCH),
        ),
        (
            "workload.replay_twophase",
            ReplaySpec::two_phase(replay_machine(), REPLAY_BATCH),
        ),
    ];
    for (name, spec) in &modes {
        let rep = spans.span(name, || replay_threaded(stream, spec, REPLAY_WORKERS));
        job.check(
            rep.data_ops == data_ops && rep.latency.count() == data_ops,
            || {
                format!(
                    "{name}: replayed {} data ops with {} latencies, trace has {data_ops}",
                    rep.data_ops,
                    rep.latency.count()
                )
            },
        );
        job.absorb(spans, &RunResult::from(rep.stats), Some(&rep.latency));
    }
    // The sharded replays run on worker threads, so the calling thread's
    // data-plane tally says nothing about them.
    job.finish(tally::DataPlaneTally::default())
}

/// The `openloop_cache` machine: SP-2 with an LRU cache and NCQ-style
/// command queue on every I/O node.
fn openloop_machine() -> iosim_machine::MachineConfig {
    presets::sp2()
        .with_lru_cache(gen::OPENLOOP_CACHE_MB << 20)
        .with_io_queue_depth(gen::OPENLOOP_QUEUE_DEPTH)
}

fn openloop_job(spec: &SynthSpec, spans: &mut Spans) -> JobOut {
    tally::reset();
    let mut job = Job::default();
    let offered = spans.span("workload.generate", || {
        synth::total_ops(&synth::generate(spec))
    });
    let rspec = ReplaySpec::direct(openloop_machine());
    let rep = spans.span("workload.openloop", || run_open_loop(spec, &rspec));
    job.check(
        rep.completed_ops == rep.offered_ops && rep.offered_ops == offered,
        || {
            format!(
                "open loop completed {} of {} offered ops, generator made {offered}",
                rep.completed_ops, rep.offered_ops
            )
        },
    );
    job.check(rep.latency.count() == rep.completed_ops, || {
        format!(
            "open loop recorded {} latencies for {} ops",
            rep.latency.count(),
            rep.completed_ops
        )
    });
    job.absorb(spans, &RunResult::from(rep.stats), Some(&rep.latency));
    job.finish(tally::snapshot())
}

/// Workload-level counts of the parsed trace (zero elsewhere).
pub fn trace_counts(inputs: &Inputs) -> (u64, u64) {
    match inputs {
        Inputs::Replay { ops, dep_edges, .. } => (*ops, *dep_edges),
        _ => (0, 0),
    }
}
