//! Hint-driven workload runner: the evaluation backend of the batch
//! what-if advisor.
//!
//! [`run_hinted`] maps one canonical [`Hints`] set onto one of six named
//! workloads — the five paper applications plus the synthetic open-loop
//! generator — runs the simulation, and condenses the outcome to a
//! [`RunSummary`] of exact integers (virtual nanoseconds, bytes, ops,
//! schedule fingerprint). Integer summaries render bit-identically on
//! every host, which is what lets advisor reports be byte-compared
//! across `IOSIM_THREADS` settings.
//!
//! Hints follow MPI-IO semantics: they are *advisory*. Each workload
//! consumes the knobs it has a use for and silently ignores the rest
//! (exactly as an MPI-IO implementation ignores a hint key it does not
//! recognize). The consumption matrix:
//!
//! | workload | cache | depth | aggregators | interface | stripe | I/O nodes |
//! |---|---|---|---|---|---|---|
//! | `scf11` | ✓ | ✓ | — | ✓ (selects code version) | ✓ | ✓ |
//! | `scf30` | ✓ | ✓ | — | — | — | ✓ |
//! | `fft`   | ✓ | ✓ | — | — | — | ✓ |
//! | `btio`  | ✓ | ✓ | ✓ (>0 = two-phase) | — | — | ✓ |
//! | `ast`   | ✓ | ✓ | ✓ (>0 = two-phase) | — | — | ✓ |
//! | `synth` | ✓ | ✓ | ✓ (two-phase window) | ✓ (PASSION = list-I/O) | ✓ | ✓ |
//!
//! The `scale` argument is the advisor's *fidelity* axis in `(0, 1]`:
//! 1.0 is the full evaluation (the same small-but-real configurations
//! the determinism suites pin), smaller values shrink volume (SCF scale,
//! FFT matrix size, dump counts, the synthetic arrival window) for the
//! successive-halving coarse passes. Every fidelity is itself perfectly
//! deterministic; coarse and full runs simply measure different-sized
//! problems, which is why the advisor memo-keys on `(workload, hints,
//! scale)` and never mixes them.

use iosim_core::advisor::hints::Hints;
use iosim_machine::Interface;
use iosim_simkit::time::SimDuration;
use iosim_workload::{run_open_loop, ReplaySpec, SynthSpec};

use crate::common::{with_cache_mb, with_queue_depth, RunResult};
use crate::{ast, btio, fft, scf11, scf30};

/// The workloads the advisor can evaluate, in report order.
pub const WORKLOADS: [&str; 6] = ["scf11", "scf30", "fft", "btio", "ast", "synth"];

/// Stable index of a workload name in [`WORKLOADS`] (memo-key material).
pub fn workload_index(name: &str) -> Option<usize> {
    WORKLOADS.iter().position(|w| *w == name)
}

/// The condensed outcome of one hinted evaluation: exact integers only,
/// so renderings are bit-identical across hosts and thread counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RunSummary {
    /// Virtual execution time, whole nanoseconds.
    pub exec_ns: u64,
    /// Virtual I/O time of the slowest rank, whole nanoseconds.
    pub io_ns: u64,
    /// Bytes moved through the file system.
    pub io_bytes: u64,
    /// File-system operations issued.
    pub io_ops: u64,
    /// Order-sensitive schedule fingerprint of the run.
    pub sched_fingerprint: u64,
}

impl RunSummary {
    /// Virtual execution time in fractional seconds (reporting only —
    /// comparisons and renderings use the exact nanosecond count).
    pub fn exec_secs(&self) -> f64 {
        self.exec_ns as f64 / 1e9
    }

    fn from_run(r: &RunResult) -> RunSummary {
        RunSummary {
            exec_ns: r.exec_time.as_nanos(),
            io_ns: r.io_time.as_nanos(),
            io_bytes: r.io_bytes,
            io_ops: r.io_ops,
            sched_fingerprint: r.sched_fingerprint,
        }
    }
}

/// Check the fidelity axis: the advisor's scale is a fraction of the
/// full evaluation, never an enlargement.
fn check_scale(scale: f64) {
    assert!(
        scale > 0.0 && scale <= 1.0 && scale.is_finite(),
        "fidelity scale must be in (0, 1], got {scale}"
    );
}

/// FFT matrix size for a fidelity: the full run's n = 128 shrunk by
/// `sqrt(scale)` (volume ∝ n²), rounded to the *nearest* power of two
/// (the FFT requires one), floored at 32.
fn fft_n(scale: f64) -> u64 {
    let target = (128.0 * scale.sqrt()).round().max(32.0) as u64;
    let hi = target.next_power_of_two();
    let lo = (hi / 2).max(32);
    if target - lo <= hi - target {
        lo
    } else {
        hi
    }
}

/// Dump count for a fidelity: the full run's 2 dumps scaled, floored at 1.
fn dumps(scale: f64) -> u32 {
    ((2.0 * scale).round() as u32).max(1)
}

/// Map the interface hint onto the SCF 1.1 code version — the paper's
/// three implementations *are* three interfaces (Fortran records, the
/// PASSION calls, PASSION + prefetch), so the hint selects the version.
fn scf11_version(i: Interface) -> scf11::Scf11Version {
    match i {
        Interface::Fortran => scf11::Scf11Version::Original,
        Interface::UnixStyle => scf11::Scf11Version::Passion,
        Interface::Passion => scf11::Scf11Version::PassionPrefetch,
    }
}

/// Evaluate one hinted configuration of a named workload at a fidelity.
///
/// `hints` should be canonical (the advisor canonicalizes at admission);
/// non-canonical but valid hints evaluate identically to their canonical
/// form because every knob is consumed post-canonicalization.
///
/// # Panics
/// Panics on an unknown workload name or a fidelity outside `(0, 1]`.
pub fn run_hinted(workload: &str, hints: &Hints, scale: f64) -> RunSummary {
    check_scale(scale);
    let h = hints
        .canonical()
        .expect("run_hinted requires validated hints");
    let run = match workload {
        "scf11" => {
            let cfg = scf11::Scf11Config {
                stripe_unit_kb: h.stripe_unit_kb,
                io_nodes: h.io_nodes,
                cache_mb: h.cache_mb,
                queue_depth: h.io_queue_depth,
                scale: 0.02 * scale,
                ..scf11::Scf11Config::new(scf11::ScfInput::Small, scf11_version(h.interface))
            };
            scf11::run(&cfg).run
        }
        "scf30" => {
            let cfg = scf30::Scf30Config {
                io_nodes: h.io_nodes,
                cache_mb: h.cache_mb,
                queue_depth: h.io_queue_depth,
                scale: 0.02 * scale,
                ..scf30::Scf30Config::new(scf11::ScfInput::Small, 8, 75)
            };
            scf30::run(&cfg).run
        }
        "fft" => {
            let cfg = fft::FftConfig {
                io_nodes: h.io_nodes,
                cache_mb: h.cache_mb,
                queue_depth: h.io_queue_depth,
                ..fft::FftConfig::new(fft_n(scale), 4, true)
            };
            fft::run(&cfg)
        }
        "btio" => {
            let cfg = btio::BtioConfig {
                dumps: dumps(scale),
                io_nodes: h.io_nodes,
                cache_mb: h.cache_mb,
                queue_depth: h.io_queue_depth,
                ..btio::BtioConfig::new(btio::BtClass::Custom(16), 9, h.aggregators > 0)
            };
            btio::run(&cfg)
        }
        "ast" => {
            let cfg = ast::AstConfig {
                grid: 64,
                arrays: 2,
                dumps: dumps(scale),
                cache_mb: h.cache_mb,
                queue_depth: h.io_queue_depth,
                ..ast::AstConfig::new(4, h.io_nodes, h.aggregators > 0)
            };
            ast::run(&cfg)
        }
        "synth" => return run_hinted_synth(&h, scale),
        other => panic!("unknown advisable workload {other:?}"),
    };
    RunSummary::from_run(&run)
}

/// The synthetic open-loop population under a hint set: the one workload
/// that consumes *every* knob. The machine is the small Paragon restriped
/// per the hints; the replay mode follows the collective/interface hints
/// (aggregators > 0 ⇒ two-phase with that window, else PASSION ⇒
/// batched list-I/O, else direct per-fragment replay).
fn run_hinted_synth(h: &Hints, scale: f64) -> RunSummary {
    let base = SynthSpec::small(50.0, 77);
    let synth = SynthSpec {
        duration: SimDuration(((base.duration.as_nanos() as f64) * scale).round().max(1.0) as u64),
        ..base
    };
    let machine = with_queue_depth(
        with_cache_mb(
            iosim_machine::presets::paragon_small()
                .with_io_nodes(h.io_nodes)
                .with_stripe_unit(h.stripe_unit_kb << 10),
            h.cache_mb,
        ),
        h.io_queue_depth,
    );
    let spec = if h.aggregators > 0 {
        ReplaySpec::two_phase(machine, h.aggregators)
    } else if h.interface == Interface::Passion {
        ReplaySpec::list_io(machine, 8)
    } else {
        ReplaySpec::direct(machine)
    };
    RunSummary::from_run(&run_open_loop(&synth, &spec).stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_runs_under_default_hints() {
        for w in WORKLOADS {
            let s = run_hinted(w, &Hints::default(), 0.25);
            assert!(s.exec_ns > 0, "{w} produced a zero-time run");
            assert!(s.io_ops > 0, "{w} did no I/O");
        }
    }

    #[test]
    fn evaluation_is_deterministic() {
        let h = Hints {
            cache_mb: 2,
            io_queue_depth: 8,
            ..Hints::default()
        };
        let a = run_hinted("fft", &h, 0.25);
        let b = run_hinted("fft", &h, 0.25);
        assert_eq!(a, b);
    }

    #[test]
    fn non_canonical_hints_evaluate_like_their_canonical_form() {
        let raw = Hints {
            io_queue_depth: 0,
            stripe_unit_kb: 48,
            ..Hints::default()
        };
        let canon = raw.canonical().unwrap();
        assert_eq!(
            run_hinted("synth", &raw, 0.25),
            run_hinted("synth", &canon, 0.25)
        );
    }

    #[test]
    fn fidelity_scales_the_problem_down() {
        let h = Hints::default();
        let full = run_hinted("btio", &h, 1.0);
        let coarse = run_hinted("btio", &h, 0.5);
        assert!(coarse.io_bytes < full.io_bytes);
        assert!(coarse.exec_ns < full.exec_ns);
    }

    #[test]
    fn fft_n_rounds_to_nearest_power_of_two() {
        assert_eq!(fft_n(1.0), 128);
        assert_eq!(fft_n(0.5), 64); // 128·√0.5 ≈ 90.5 → nearer 64
        assert_eq!(fft_n(0.25), 64);
        assert_eq!(fft_n(0.01), 32); // floored
    }

    #[test]
    fn knob_consumption_changes_outcomes() {
        let d = Hints::default();
        let base = run_hinted("synth", &d, 0.25);
        let cached = run_hinted("synth", &Hints { cache_mb: 4, ..d }, 0.25);
        assert_ne!(base.sched_fingerprint, cached.sched_fingerprint);
        let direct = run_hinted(
            "synth",
            &Hints {
                interface: Interface::UnixStyle,
                ..d
            },
            0.25,
        );
        assert!(direct.exec_ns > base.exec_ns, "list-I/O should beat direct");
    }
}
