//! # iosim-perfbench — end-to-end and per-layer benchmark of iosim
//!
//! One caller runs one workload as a closed loop: each job starts when
//! the previous one returns. The untraced run reports what a user waits
//! for and pays: host time per job, memory, set-up time, and the share
//! of jobs that passed their checks. The traced run traces every second
//! job, with a span around every call into a layer, and reports
//! per-layer self times, work counts and the simulated results, which
//! must equal those of the untraced jobs. See `README.md`.

mod gen;
mod jobs;
mod spans;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub use jobs::Workload;
use jobs::{Inputs, JobOut};
use spans::Spans;

/// Set-up passes per run; `setup_s` is their median. The first precedes
/// the timed jobs and the rest are spread evenly over the measured time,
/// so the median samples the same host conditions as the jobs do.
pub const SETUPS: usize = 21;

/// What to run.
#[derive(Clone, Debug)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time of the run (with `trace`, every second job of it
    /// is traced).
    pub seconds: f64,
    /// Emit per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub span_file: Option<PathBuf>,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of a run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Every job passed its checks and every simulated result repeated.
    pub correct: bool,
    /// Timed jobs attempted.
    pub attempted: u64,
    /// Timed jobs that panicked or failed a check.
    pub failed: u64,
    /// Metrics in emission order.
    pub metrics: Vec<Metric>,
    /// Why `correct` is false, one line each.
    pub problems: Vec<String>,
}

impl Report {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Linear-interpolated `q`-quantile of `v` (sorted in place); 0 if empty.
fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// A job's outcome plus its host time.
struct Timed {
    out: Result<JobOut, String>,
    host: Duration,
}

/// Run one job, catching a panic as a failure (an `Err`).
fn timed_job(inputs: &Inputs, spans: &mut Spans, job: u64) -> Timed {
    spans.set_job(job);
    let t0 = Instant::now();
    spans.enter("job");
    let out = catch_unwind(AssertUnwindSafe(|| jobs::run_job(inputs, spans))).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into());
        format!("job panicked: {msg}")
    });
    spans.unwind();
    Timed {
        out,
        host: t0.elapsed(),
    }
}

/// Results of the closed loop.
struct Loop {
    /// Host ms of each untraced job.
    plain_ms: Vec<f64>,
    /// Host ms of each traced job.
    traced_ms: Vec<f64>,
    /// Job ids of the traced jobs, in order.
    traced_jobs: Vec<u64>,
    /// Simulated file-system ops of the untraced jobs that passed.
    plain_sim_ops: u64,
    ns_per_poll: Vec<f64>,
    failed: u64,
    problems: Vec<String>,
}

impl Loop {
    fn attempted(&self) -> u64 {
        (self.plain_ms.len() + self.traced_ms.len()) as u64
    }
}

/// One set-up pass: generate (and parse) the inputs and run one untimed
/// warm-up job. Returns the inputs with the job's outputs, and the
/// pass's host seconds.
fn setup_pass(
    cfg: &Config,
    spans: &mut Spans,
    job: u64,
) -> (Result<(Inputs, JobOut), String>, f64) {
    spans.set_enabled(cfg.trace);
    spans.set_job(job);
    let t0 = Instant::now();
    spans.enter("setup");
    let inputs = jobs::prepare(cfg.workload, cfg.seed, spans);
    spans.exit();
    let warm = inputs
        .map_err(|e| format!("set-up failed: {e}"))
        .and_then(|inputs| {
            let t = timed_job(&inputs, spans, job);
            t.out.map(|out| (inputs, out))
        });
    (warm, t0.elapsed().as_secs_f64())
}

/// The closed loop: run jobs until `cfg.seconds` is spent, comparing
/// every job's outputs with `reference`. The remaining set-up passes run
/// between jobs, one each time another `1/SETUPS` of the time has gone,
/// and any still missing when time is up run after the last job. With
/// `trace`, every second job records spans, so traced and untraced jobs
/// share the same host conditions.
fn closed_loop(
    cfg: &Config,
    inputs: &Inputs,
    reference: &JobOut,
    spans: &mut Spans,
    setup_s: &mut Vec<f64>,
    first_job: u64,
) -> Loop {
    let mut l = Loop {
        plain_ms: Vec::new(),
        traced_ms: Vec::new(),
        traced_jobs: Vec::new(),
        plain_sim_ops: 0,
        ns_per_poll: Vec::new(),
        failed: 0,
        problems: Vec::new(),
    };
    let budget = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let mut next_id = first_job;
    let mut n = 0usize;
    let min_jobs = if cfg.trace { 2 } else { 1 };
    let setup = |spans: &mut Spans, setup_s: &mut Vec<f64>, id: u64, l: &mut Loop| {
        let (warm, s) = setup_pass(cfg, spans, id);
        setup_s.push(s);
        let problem = match warm {
            Ok((_, out)) if out.model == reference.model && out.counts == reference.counts => {
                return;
            }
            Ok(_) => "its warm-up job differs from the first pass's".to_string(),
            Err(e) => e,
        };
        if l.problems.len() < 5 {
            l.problems
                .push(format!("set-up pass {}: {problem}", setup_s.len()));
        }
    };
    while n < min_jobs || start.elapsed() < budget {
        let due = start.elapsed().as_secs_f64() * SETUPS as f64 / cfg.seconds;
        if setup_s.len() < SETUPS && due >= setup_s.len() as f64 {
            setup(spans, setup_s, next_id, &mut l);
            next_id += 1;
            continue;
        }
        let job = next_id;
        next_id += 1;
        let traced = cfg.trace && n % 2 == 1;
        spans.set_enabled(traced);
        let t = timed_job(inputs, spans, job);
        let ms = t.host.as_secs_f64() * 1e3;
        if traced {
            l.traced_ms.push(ms);
            l.traced_jobs.push(job);
        } else {
            l.plain_ms.push(ms);
        }
        n += 1;
        let verdict = t.out.and_then(|out| {
            if let Some(e) = out.errors.first() {
                return Err(format!("job {job}: {e}"));
            }
            if out.model != reference.model || out.counts != reference.counts {
                return Err(format!(
                    "job {job}: simulated results differ from the warm-up job"
                ));
            }
            Ok(out)
        });
        match verdict {
            Ok(out) => {
                if !traced {
                    l.plain_sim_ops += out.counts.io_ops;
                }
                if out.counts.polls > 0 {
                    l.ns_per_poll
                        .push(out.sim_host_ns as f64 / out.counts.polls as f64);
                }
            }
            Err(e) => {
                l.failed += 1;
                if l.problems.len() < 5 {
                    l.problems.push(e);
                }
            }
        }
    }
    while setup_s.len() < SETUPS {
        setup(spans, setup_s, next_id, &mut l);
        next_id += 1;
    }
    spans.set_enabled(false);
    l
}

/// Run the benchmark.
pub fn run(cfg: &Config) -> Report {
    let mut problems = Vec::new();
    let mut spans = Spans::new(cfg.trace);
    // The first set-up pass's warm-up job is the reference every later
    // job and set-up pass must repeat.
    let (first, s) = setup_pass(cfg, &mut spans, 0);
    let mut setup_s = vec![s];
    let (inputs, reference) = match first {
        Ok(w) => w,
        Err(e) => {
            problems.push(e);
            return Report {
                correct: false,
                attempted: 1,
                failed: 1,
                metrics: Vec::new(),
                problems,
            };
        }
    };
    problems.extend(reference.errors.iter().map(|e| format!("warm-up job: {e}")));

    let l = closed_loop(cfg, &inputs, &reference, &mut spans, &mut setup_s, 1);
    let attempted = l.attempted();
    let failed = l.failed;
    problems.extend(l.problems.iter().cloned());
    let metrics = if cfg.trace {
        if let Some(path) = &cfg.span_file {
            if let Err(e) = spans.write_jsonl(path) {
                problems.push(format!("cannot write {}: {e}", path.display()));
            }
        }
        per_layer(
            &inputs,
            &reference,
            &spans,
            &l,
            failed as f64 / attempted as f64,
        )
    } else {
        let mut ms = l.plain_ms.clone();
        let rss = peak_rss_mb().unwrap_or_else(|e| {
            problems.push(e);
            0.0
        });
        vec![
            metric("job_ms_p90", quantile(&mut ms, 0.9), "ms"),
            metric("peak_rss_mb", rss, "MB"),
            metric("setup_s", quantile(&mut setup_s, 0.5), "s"),
            metric(
                "ok_frac",
                (attempted - failed) as f64 / attempted as f64,
                "ratio",
            ),
        ]
    };
    for m in &metrics {
        if !m.value.is_finite() {
            problems.push(format!("{} is not finite", m.name));
        }
    }
    Report {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        problems,
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Spans whose per-job self time is reported, with their metric names.
const SPAN_METRICS: [(&str, &str); 11] = [
    ("apps.btio", "apps.btio_ms"),
    ("apps.fft", "apps.fft_ms"),
    ("apps.scf11", "apps.scf11_ms"),
    ("apps.btio_capture", "apps.btio_capture_ms"),
    ("workload.replay_direct", "workload.replay_direct_ms"),
    ("workload.replay_list", "workload.replay_list_ms"),
    ("workload.replay_twophase", "workload.replay_twophase_ms"),
    ("workload.generate", "workload.generate_ms"),
    ("workload.openloop", "workload.openloop_ms"),
    ("trace.report", "trace.report_ms"),
    ("job", "bench.self_ms"),
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_layer(
    inputs: &Inputs,
    reference: &JobOut,
    spans: &Spans,
    l: &Loop,
    failed_frac: f64,
) -> Vec<Metric> {
    let c = &reference.counts;
    let m = &reference.model;
    let (trace_ops, dep_edges) = jobs::trace_counts(inputs);
    let mut ns_per_poll = l.ns_per_poll.clone();
    let mut plain_ms = l.plain_ms.clone();
    let busy_s: f64 = l.plain_ms.iter().sum::<f64>() / 1e3;
    let mut out = vec![
        // Host-time figures of the untraced jobs whose run-to-run spread
        // follows the host's speed too closely to carry a bound (README).
        metric("job_ms_p50", quantile(&mut plain_ms, 0.5), "ms"),
        metric("sim_ops_per_s", l.plain_sim_ops as f64 / busy_s, "1/s"),
        metric("simkit.polls", c.polls as f64, "count"),
        metric("simkit.polls_per_io_op", ratio(c.polls, c.io_ops), "ratio"),
        metric(
            "simkit.host_ns_per_poll",
            quantile(&mut ns_per_poll, 0.5),
            "ns",
        ),
        metric("simkit.sync_rounds", c.sync_rounds as f64, "count"),
        metric(
            "simkit.shard_mem_peak_kb",
            c.shard_mem_peak as f64 / 1024.0,
            "KiB",
        ),
        metric("machine.queue_bookings", c.queue.bookings as f64, "count"),
        metric("machine.queue_reorders", c.queue.reorders as f64, "count"),
        metric(
            "machine.queue_seeks_avoided",
            c.queue.seeks_avoided as f64,
            "count",
        ),
        metric(
            "machine.queue_starvation_promotions",
            c.queue.starvation_promotions as f64,
            "count",
        ),
        metric("pfs.io_ops", c.io_ops as f64, "count"),
        metric("pfs.io_mb", c.io_bytes as f64 / 1e6, "MB"),
        metric("pfs.listio_requests", c.listio.requests as f64, "count"),
        metric("pfs.listio_fragments", c.listio.fragments as f64, "count"),
        metric(
            "pfs.listio_coalesced_extents",
            c.listio.coalesced_extents as f64,
            "count",
        ),
        metric("cache.hits", c.cache.hits as f64, "count"),
        metric("cache.misses", c.cache.misses as f64, "count"),
        metric(
            "cache.hit_ratio",
            ratio(c.cache.hits, c.cache.hits + c.cache.misses),
            "ratio",
        ),
        metric("cache.evictions", c.cache.evictions as f64, "count"),
        metric(
            "cache.flushed_blocks",
            c.cache.flushed_blocks as f64,
            "count",
        ),
        metric("cache.flush_wakeups", c.cache.flush_wakeups as f64, "count"),
        metric(
            "cache.readahead_issued",
            c.cache.readahead_issued as f64,
            "count",
        ),
        metric(
            "cache.readahead_useful_ratio",
            ratio(c.cache.readahead_hits, c.cache.readahead_issued),
            "ratio",
        ),
        metric(
            "cache.writes_absorbed",
            c.cache.writes_absorbed as f64,
            "count",
        ),
        metric("buf.bytes_copied", c.buf.bytes_copied as f64, "B"),
        metric("buf.bytes_allocated", c.buf.bytes_allocated as f64, "B"),
        metric(
            "buf.buffers_allocated",
            c.buf.buffers_allocated as f64,
            "count",
        ),
    ];
    // Per-job self time of each span name, median over traced jobs; the
    // parse runs in set-up, so its median is over set-up passes.
    let self_ns = spans.self_times_ns();
    let mut parse_ms: Vec<f64> = spans
        .spans()
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.name == "workload.parse")
        .map(|(_, t)| *t as f64 / 1e6)
        .collect();
    let slot: BTreeMap<u64, usize> = l
        .traced_jobs
        .iter()
        .enumerate()
        .map(|(i, &j)| (j, i))
        .collect();
    for (span, name) in SPAN_METRICS {
        let mut per_job = vec![0.0f64; slot.len()];
        for (s, t) in spans.spans().iter().zip(&self_ns) {
            if let (true, Some(&i)) = (s.name == span, slot.get(&s.job)) {
                per_job[i] += *t as f64 / 1e6;
            }
        }
        out.push(metric(name, quantile(&mut per_job, 0.5), "ms"));
    }
    let mut traced_ms = l.traced_ms.clone();
    let overhead = (quantile(&mut traced_ms, 0.5) / quantile(&mut plain_ms, 0.5) - 1.0) * 100.0;
    out.extend([
        metric("workload.parse_ms", quantile(&mut parse_ms, 0.5), "ms"),
        metric("workload.ops", trace_ops as f64, "count"),
        metric("workload.dep_edges", dep_edges as f64, "count"),
        metric(
            "trace.report_violations",
            c.report_violations as f64,
            "count",
        ),
        metric("model.virtual_exec_s", m.virtual_exec_ns as f64 / 1e9, "s"),
        // Top 53 bits, so the value survives a JSON double exactly.
        metric("model.fingerprint", (m.fingerprint >> 11) as f64, "hash"),
        metric("model.vlat_p50_ms", m.vlat_p50_ns as f64 / 1e6, "ms"),
        metric("model.vlat_p99_ms", m.vlat_p99_ns as f64 / 1e6, "ms"),
        metric("tracing.overhead_pct", overhead, "%"),
        metric("failed_frac", failed_frac, "ratio"),
    ]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_workload::{OpStream, TraceKind, TraceOp};

    #[test]
    fn a_panicking_job_is_caught_and_reported() {
        // More ranks than the replay machine has compute nodes: the
        // replay engine panics, and the job must come back as an error.
        let op = TraceOp {
            rank: 500,
            kind: TraceKind::Write,
            offset: 0,
            len: 4096,
        };
        let inputs = Inputs::Replay {
            stream: OpStream::from_legacy(&[op]),
            ops: 1,
            data_ops: 1,
            dep_edges: 0,
        };
        let mut spans = Spans::new(true);
        let t = timed_job(&inputs, &mut spans, 7);
        let err = t.out.expect_err("the job panics");
        assert!(err.contains("panicked"), "{err}");
        assert!(spans.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(spans.spans()[0].name, "job");
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.5), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![metric("job_ms_p50", 1.25, "ms")],
            problems: Vec::new(),
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"job_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
