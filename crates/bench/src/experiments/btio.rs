//! BTIO experiments: Figure 6 (times) and Figure 7 (bandwidths).

use iosim_apps::btio::{run, BtClass, BtioConfig};
use iosim_apps::RunResult;
use iosim_trace::figure::{Series, TextFigure};
use iosim_trace::report::{Comparison, ExperimentReport};

use crate::parallel::{default_threads, map_parallel};

/// Square processor counts of Figures 6–7.
pub const PROCS: [usize; 6] = [4, 9, 16, 25, 36, 49];

/// All processor counts including 64 (used for the 49%-reduction check).
pub const PROCS_FULL: [usize; 7] = [4, 9, 16, 25, 36, 49, 64];

fn cfg(class: BtClass, procs: usize, optimized: bool, scale: f64) -> BtioConfig {
    let dumps = ((40.0 * scale).round() as u32).clamp(2, 40);
    BtioConfig {
        dumps,
        ..BtioConfig::new(class, procs, optimized)
    }
}

/// One class's grid over [`PROCS_FULL`]: original runs, then two-phase
/// runs, each in processor order.
type Sweep = (Vec<RunResult>, Vec<RunResult>);

fn sweep(class: BtClass, scale: f64) -> Sweep {
    let jobs: Vec<BtioConfig> = PROCS_FULL
        .iter()
        .flat_map(|&p| [cfg(class, p, false, scale), cfg(class, p, true, scale)])
        .collect();
    let flat = map_parallel(jobs, default_threads(), run);
    let mut unopt = Vec::new();
    let mut opt = Vec::new();
    for pair in flat.chunks(2) {
        unopt.push(pair[0].clone());
        opt.push(pair[1].clone());
    }
    (unopt, opt)
}

/// Figures 6 and 7 from one Class A sweep (Figure 7 adds Class B).
pub fn fig6_fig7(scale: f64) -> (ExperimentReport, ExperimentReport) {
    let a = sweep(BtClass::A, scale);
    let b = sweep(BtClass::B, scale);
    (fig6(&a), fig7(&a, &b))
}

/// Figure 6: BTIO Class A I/O time (a) and total time (b) on the SP-2.
fn fig6((unopt, opt): &Sweep) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "Figure 6: BTIO on IBM SP-2, Class A (408.9 MB total I/O at full scale)",
    );
    for (title, io_axis) in [("(a) I/O time (s)", true), ("(b) total time (s)", false)] {
        let mut fig = TextFigure::new(title, "procs", "seconds");
        for (label, results) in [("original", unopt), ("two-phase", opt)] {
            let pts: Vec<(f64, f64)> = PROCS_FULL
                .iter()
                .enumerate()
                .map(|(pi, &p)| {
                    let r = &results[pi];
                    let y = if io_axis {
                        r.io_time.as_secs_f64()
                    } else {
                        r.exec_time.as_secs_f64()
                    };
                    (p as f64, y)
                })
                .collect();
            fig.push(Series::new(label, pts));
        }
        report.push_figure(fig);
    }

    let exec_u = |pi: usize| unopt[pi].exec_time.as_secs_f64();
    let exec_o = |pi: usize| opt[pi].exec_time.as_secs_f64();
    let io_u = |pi: usize| unopt[pi].io_time.as_secs_f64();
    let io_o = |pi: usize| opt[pi].io_time.as_secs_f64();

    // Unoptimized I/O time is erratic / drastically varying with P.
    let (io_min, io_max) = (0..PROCS_FULL.len()).fold((f64::MAX, 0.0f64), |(lo, hi), pi| {
        (lo.min(io_u(pi)), hi.max(io_u(pi)))
    });
    report.push(Comparison::claim(
        "unoptimized I/O time varies drastically with processors",
        "the I/O time in the unoptimized program changes drastically",
        io_max > 1.5 * io_min,
    ));
    // Optimized I/O time is stable.
    let (o_min, o_max) = (0..PROCS_FULL.len()).fold((f64::MAX, 0.0f64), |(lo, hi), pi| {
        (lo.min(io_o(pi)), hi.max(io_o(pi)))
    });
    report.push(Comparison::claim(
        "two-phase I/O time does not behave unpredictably",
        "it does not behave unpredictably with increasing compute nodes",
        o_max / o_min < io_max / io_min,
    ));
    // The 36- and 64-processor exec-time reductions (paper: 46% and 49%).
    let red36 = 100.0 * (1.0 - exec_o(4) / exec_u(4));
    let red64 = 100.0 * (1.0 - exec_o(6) / exec_u(6));
    report.push(Comparison::ratio(
        "exec-time reduction at 36 procs (%)",
        46.0,
        red36,
        0.35,
    ));
    report.push(Comparison::ratio(
        "exec-time reduction at 64 procs (%)",
        49.0,
        red64,
        0.35,
    ));
    // BTIO is not as I/O dominant as FFT.
    report.push(Comparison::claim(
        "BTIO is not I/O-dominant (I/O < 70% of exec, unoptimized, 36 procs)",
        "since the I/O does not constitute a large bulk of the execution time…",
        io_u(4) / exec_u(4) < 0.70,
    ));
    report
}

/// Figure 7: aggregate I/O bandwidths of the original and optimized BTIO
/// for Class A and Class B.
fn fig7(class_a: &Sweep, class_b: &Sweep) -> ExperimentReport {
    let mut report =
        ExperimentReport::new("Figure 7: BTIO I/O bandwidths on IBM SP-2 (Class A and B)");
    let mut bands = Vec::new();
    for (class, (unopt, opt)) in [(BtClass::A, class_a), (BtClass::B, class_b)] {
        let mut fig = TextFigure::new(
            format!("I/O bandwidth (MB/s), {}", class.name()),
            "procs",
            "MB/s",
        );
        for (label, results) in [("original", unopt), ("two-phase", opt)] {
            let pts: Vec<(f64, f64)> = PROCS_FULL
                .iter()
                .enumerate()
                .map(|(pi, &p)| (p as f64, results[pi].bandwidth_mb_s()))
                .collect();
            fig.push(Series::new(label, pts));
        }
        report.push_figure(fig);
        let u_band: Vec<f64> = unopt.iter().map(|r| r.bandwidth_mb_s()).collect();
        let o_band: Vec<f64> = opt.iter().map(|r| r.bandwidth_mb_s()).collect();
        bands.push((u_band, o_band));
    }

    let (u_a, o_a) = &bands[0];
    let u_lo = u_a.iter().cloned().fold(f64::MAX, f64::min);
    let u_hi = u_a.iter().cloned().fold(0.0, f64::max);
    let o_lo = o_a.iter().cloned().fold(f64::MAX, f64::min);
    let o_hi = o_a.iter().cloned().fold(0.0, f64::max);
    report.push(Comparison::new(
        "original bandwidth band (MB/s), Class A",
        "0.97 – 1.5",
        format!("{u_lo:.2} – {u_hi:.2}"),
        if (0.4..=3.0).contains(&u_lo) && u_hi <= 4.0 {
            iosim_trace::report::Verdict::Holds
        } else {
            iosim_trace::report::Verdict::Partial
        },
    ));
    report.push(Comparison::new(
        "optimized bandwidth band (MB/s), Class A",
        "6.6 – 31.4",
        format!("{o_lo:.2} – {o_hi:.2}"),
        if o_lo >= 3.0 && (10.0..=60.0).contains(&o_hi) {
            iosim_trace::report::Verdict::Holds
        } else {
            iosim_trace::report::Verdict::Partial
        },
    ));
    report.push(Comparison::claim(
        "two-phase bandwidth ≫ original at every processor count (Class B too)",
        "the I/O bandwidth of the optimized version is 6.6–31.4 MB/s vs 0.97–1.5",
        bands
            .iter()
            .all(|(u, o)| u.iter().zip(o).all(|(ub, ob)| ob > &(3.0 * ub))),
    ));
    report
}

/// Table 5 helper: collective-I/O gain on a small BTIO.
pub fn collective_gain(scale: f64) -> f64 {
    let u = run(&cfg(BtClass::Custom(16), 9, false, scale));
    let o = run(&cfg(BtClass::Custom(16), 9, true, scale));
    u.exec_time.as_secs_f64() / o.exec_time.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_shape_holds_at_small_scale() {
        // 4 dumps. The exact 46/49% reductions need full scale (the repro
        // run asserts the full shape); only require the qualitative
        // claims to hold here.
        let r = fig6(&sweep(BtClass::A, 0.1));
        for c in &r.comparisons {
            if c.what.contains("reduction") {
                continue;
            }
            assert_ne!(
                c.verdict,
                iosim_trace::report::Verdict::Differs,
                "{}: {}",
                c.what,
                c.measured
            );
        }
    }

    #[test]
    fn fig7_bandwidth_gap_holds_at_small_scale() {
        let r = fig6_fig7(0.05).1;
        let gap = r
            .comparisons
            .iter()
            .find(|c| c.what.contains("≫"))
            .expect("gap check present");
        assert_eq!(gap.verdict, iosim_trace::report::Verdict::Holds);
    }
}
