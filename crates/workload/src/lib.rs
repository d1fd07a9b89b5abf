//! # iosim-workload — trace ingestion and open-loop traffic generation
//!
//! The paper's methodology is trace-driven: Pablo records what the
//! applications did, and each optimization is judged by how it transforms
//! that operation stream. The five in-tree applications are closed-loop
//! kernels, though — each rank issues its next operation only after the
//! previous one completes, so they can never answer the production
//! question of *when an optimization collapses under offered load*. This
//! crate turns the simulator into a general workload engine:
//!
//! - [`opstream`] — the operation-stream model and two text formats: the
//!   legacy 4-column `rank op offset bytes` format of `iosim replay`, and
//!   an extended strace-style format with named files, explicit
//!   open/close/seek, per-rank program order, and optional cross-rank
//!   dependency edges.
//! - [`darshan`] — a Darshan-like *summarized* trace format (per-file
//!   counters plus access-size histograms, the form real sites actually
//!   archive) and its deterministic expansion into a representative op
//!   stream via the in-tree seeded xoshiro RNG.
//! - [`arrival`] — open-loop arrival processes: Poisson and bursty
//!   (on/off-modulated Poisson), bit-deterministic for a fixed seed.
//! - [`synth`] — the open-loop generator: thousands of independent
//!   simulated clients with per-client arrival streams and op mixes.
//! - [`engine`] — the replay engine. Runs either source as `simkit`
//!   tasks issuing requests through the existing PFS path in three modes
//!   (direct per-op, list-I/O batched, two-phase collective windows),
//!   records per-op latency percentiles (p50/p99/p999 via
//!   [`iosim_trace::LatencyHistogram`]), offered-vs-achieved throughput,
//!   and detects the saturation knee of a rate sweep.
//!
//! Everything is deterministic: a fixed seed and spec reproduce the same
//! virtual-time trajectory bit-for-bit (the round-trip and determinism
//! tests under `tests/` pin this).

pub mod arrival;
pub mod darshan;
pub mod engine;
pub mod opstream;
pub mod synth;

pub use arrival::ArrivalModel;
pub use darshan::DarshanSummary;
pub use engine::{
    replay, replay_threaded, run_open_loop, saturation_knee, OpenLoopReport, ReplayMode,
    ReplayReport, ReplaySpec, RunStats, SweepPoint,
};
pub use opstream::{
    detect_format, parse_any, parse_legacy, parse_opstream, render_legacy, render_opstream,
    synthesize_strided, OpStream, ParseError, TraceFormat, TraceKind, TraceOp, WorkKind, WorkOp,
};
pub use synth::{SynthSpec, TimedOp};
