//! SCF 1.1 experiments: Tables 2–3 and Figures 1–3.

use iosim_apps::scf11::{run, Scf11Config, Scf11Result, Scf11Version, ScfInput};
use iosim_trace::figure::{Series, TextFigure};
use iosim_trace::report::{Comparison, ExperimentReport, Verdict};

use crate::parallel::{default_threads, map_parallel};

fn cfg(input: ScfInput, version: Scf11Version, scale: f64) -> Scf11Config {
    Scf11Config {
        scale,
        ..Scf11Config::new(input, version)
    }
}

/// Tables 2 and 3: the Pablo-style I/O breakdown of the original and
/// PASSION versions of SCF 1.1 (LARGE input, 4 processors, 12 I/O nodes).
pub fn table2_table3(scale: f64) -> (ExperimentReport, ExperimentReport) {
    let runs = map_parallel(
        vec![Scf11Version::Original, Scf11Version::Passion],
        2,
        |&v| run(&cfg(ScfInput::Large, v, scale)),
    );
    let orig = &runs[0];
    let pass = &runs[1];

    let mut t2 = ExperimentReport::new("Table 2: SCF 1.1 original (Fortran I/O), LARGE, 4 procs");
    t2.push_body(&orig.run.summary.render(
        &format!(
            "I/O summary, original version [total I/O time {:.1} h cumulative]",
            orig.run.cum_io_time.as_secs_f64() / 3600.0
        ),
        orig.run.cum_exec_time(),
    ));
    let read_row = orig.run.summary.rows[1];
    let io_total = orig.run.cum_io_time.as_secs_f64();
    t2.push(Comparison::ratio(
        "read share of I/O time (%)",
        95.56,
        100.0 * read_row.time.as_secs_f64() / io_total,
        0.08,
    ));
    t2.push(Comparison::ratio(
        "I/O share of exec time (%)",
        54.06,
        100.0 * io_total / orig.run.cum_exec_time().as_secs_f64(),
        0.20,
    ));
    t2.push(Comparison::ratio(
        "mean time per read (ms)",
        106.0,
        1e3 * read_row.time.as_secs_f64() / read_row.count.max(1) as f64,
        0.25,
    ));
    t2.push(Comparison::ratio(
        "read volume / write volume",
        37.0 / 2.5,
        read_row.bytes as f64 / orig.run.summary.rows[3].bytes.max(1) as f64,
        0.10,
    ));

    t2.push_body(&orig.run.read_sizes.render("read request sizes"));

    let mut t3 = ExperimentReport::new("Table 3: SCF 1.1 PASSION version, LARGE, 4 procs");
    t3.push_body(&pass.run.summary.render(
        &format!(
            "I/O summary, PASSION version [total I/O time {:.1} h cumulative]",
            pass.run.cum_io_time.as_secs_f64() / 3600.0
        ),
        pass.run.cum_exec_time(),
    ));
    t3.push(Comparison::ratio(
        "I/O-time improvement over original",
        63_087.11 / 35_443.72,
        orig.run.cum_io_time.as_secs_f64() / pass.run.cum_io_time.as_secs_f64(),
        0.25,
    ));
    t3.push(Comparison::ratio(
        "mean time per read (ms)",
        59.7,
        1e3 * pass.run.summary.rows[1].time.as_secs_f64()
            / pass.run.summary.rows[1].count.max(1) as f64,
        0.25,
    ));
    let seeks = pass.run.summary.rows[2].count as f64;
    let data_calls = (pass.run.summary.rows[1].count + pass.run.summary.rows[3].count) as f64;
    t3.push(Comparison::ratio(
        "seeks per data call (PASSION interface)",
        604_342.0 / 606_666.0,
        seeks / data_calls,
        0.15,
    ));
    (t2, t3)
}

/// The Figure 1 configuration tuples `(V, P, M, Su, Sf)`. Tuple V is
/// missing from the paper's caption; we use `(F,32,256,64,16)`
/// (documented in DESIGN.md).
pub fn fig1_tuples() -> Vec<Scf11Config> {
    let t = |version, procs, mem_kb, su, sf| Scf11Config {
        version,
        procs,
        mem_kb,
        stripe_unit_kb: su,
        io_nodes: sf,
        ..Scf11Config::new(ScfInput::Small, version)
    };
    use Scf11Version::{Original as O, Passion as P, PassionPrefetch as F};
    vec![
        t(O, 4, 64, 64, 12),    // I
        t(P, 4, 64, 64, 12),    // II
        t(F, 4, 64, 64, 12),    // III
        t(F, 32, 256, 64, 12),  // IV
        t(F, 32, 256, 64, 16),  // V (caption omits; our choice)
        t(F, 32, 256, 128, 12), // VI
        t(F, 32, 256, 128, 16), // VII
    ]
}

/// Figure 1: incremental optimization of SCF 1.1 across the three inputs.
pub fn fig1(scale: f64) -> ExperimentReport {
    let inputs = [ScfInput::Small, ScfInput::Medium, ScfInput::Large];
    let mut jobs = Vec::new();
    for input in inputs {
        for t in fig1_tuples() {
            jobs.push(Scf11Config { input, scale, ..t });
        }
    }
    let results = map_parallel(jobs.clone(), default_threads(), run);

    let mut report =
        ExperimentReport::new("Figure 1: impact of optimizations on SCF 1.1 (config tuples I–VII)");
    let labels = ["I", "II", "III", "IV", "V", "VI", "VII"];
    report.push_body(&format!(
        "tuples: {}\n",
        fig1_tuples()
            .iter()
            .zip(labels)
            .map(|(c, l)| format!("{l}={}", c.tuple()))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    // The paper's bar charts show both execution and I/O time per tuple.
    for (title, io_axis) in [
        ("execution time (s) per configuration tuple", false),
        ("foreground I/O time (s) per configuration tuple", true),
    ] {
        let mut fig = TextFigure::new(
            title,
            "tuple",
            if io_axis {
                "I/O time (s)"
            } else {
                "exec time (s)"
            },
        );
        for (ii, input) in inputs.iter().enumerate() {
            let points: Vec<(f64, f64)> = (0..7)
                .map(|k| {
                    let r = &results[ii * 7 + k];
                    let y = if io_axis {
                        r.fg_io_time.as_secs_f64()
                    } else {
                        r.run.exec_time.as_secs_f64()
                    };
                    ((k + 1) as f64, y)
                })
                .collect();
            fig.push(Series::new(input.name(), points));
        }
        report.push_figure(fig);
    }

    // Shape checks, per input: each software step helps (I > II > III),
    // and the best large-memory prefetch tuple beats III.
    for (ii, input) in inputs.iter().enumerate() {
        let r = &results[ii * 7..(ii + 1) * 7];
        let exec = |k: usize| r[k].run.exec_time.as_secs_f64();
        report.push(Comparison::claim(
            format!("{}: PASSION (II) beats original (I)", input.name()),
            "II < I",
            exec(1) < exec(0),
        ));
        report.push(Comparison::claim(
            format!("{}: prefetch (III) beats PASSION (II)", input.name()),
            "III < II",
            exec(2) < exec(1),
        ));
        report.push(Comparison::claim(
            format!(
                "{}: application factors dominate system factors (III/I vs VII/IV)",
                input.name()
            ),
            "software steps I→III give larger gains than Su/Sf changes IV→VII",
            (exec(0) - exec(2)).abs() > (exec(3) - exec(6)).abs(),
        ));
    }
    report
}

/// The processor counts of Figures 2–3.
pub const FIG2_PROCS: [usize; 6] = [4, 16, 32, 64, 128, 256];

/// One Figure 2/3 series: (label, version, io_nodes).
fn scaling_series() -> Vec<(&'static str, Scf11Version, usize)> {
    vec![
        ("unopt, 16 I/O nodes", Scf11Version::Original, 16),
        ("unopt, 64 I/O nodes", Scf11Version::Original, 64),
        ("opt(F), 16 I/O nodes", Scf11Version::PassionPrefetch, 16),
        ("opt(F), 64 I/O nodes", Scf11Version::PassionPrefetch, 64),
    ]
}

/// Run the Figure 2/3 grid: `FIG2_PROCS × scaling_series`.
fn scaling_grid(scale: f64) -> Vec<Vec<Scf11Result>> {
    let series = scaling_series();
    let mut jobs = Vec::new();
    for &(_, version, io_nodes) in &series {
        for &p in &FIG2_PROCS {
            jobs.push(Scf11Config {
                procs: p,
                io_nodes,
                mem_kb: 256,
                scale,
                ..Scf11Config::new(ScfInput::Large, version)
            });
        }
    }
    let flat = map_parallel(jobs, default_threads(), run);
    flat.chunks(FIG2_PROCS.len()).map(|c| c.to_vec()).collect()
}

/// Figure 2: SCF 1.1 LARGE scaling — software optimization vs I/O nodes,
/// with the crossover beyond 64 processors.
pub fn fig2(scale: f64) -> ExperimentReport {
    let grid = scaling_grid(scale);
    let series = scaling_series();
    let mut report = ExperimentReport::new(
        "Figure 2: SCF 1.1 LARGE — optimized vs unoptimized across processor counts",
    );
    let mut fig = TextFigure::new(
        "execution time (s) vs compute nodes",
        "procs",
        "exec time (s)",
    );
    for (si, (label, _, _)) in series.iter().enumerate() {
        let pts: Vec<(f64, f64)> = FIG2_PROCS
            .iter()
            .enumerate()
            .map(|(pi, &p)| (p as f64, grid[si][pi].run.exec_time.as_secs_f64()))
            .collect();
        fig.push(Series::new(*label, pts));
    }
    report.push_figure(fig);

    let exec = |si: usize, pi: usize| grid[si][pi].run.exec_time.as_secs_f64();
    // Up to 32 procs, opt-16 beats unopt-64 (software wins).
    let small_p_sw_wins = (0..=2).all(|pi| exec(2, pi) < exec(1, pi));
    report.push(Comparison::claim(
        "small processor counts: optimized (16 I/O nodes) beats unoptimized (64 I/O nodes)",
        "up to 64 compute nodes optimized versions perform well",
        small_p_sw_wins,
    ));
    // At the largest count, unopt-64 overtakes opt-16.
    report.push(Comparison::claim(
        "256 procs: unoptimized with 64 I/O nodes beats optimized with 16",
        "beyond 64 nodes the unoptimized version with more I/O nodes performs better",
        exec(1, 5) < exec(2, 5),
    ));
    // Crossover location: the first processor count where unopt-64 wins.
    // The paper places it just beyond 64 (i.e. by 128).
    let crossover = FIG2_PROCS
        .iter()
        .enumerate()
        .find(|&(pi, _)| exec(1, pi) <= exec(2, pi))
        .map(|(_, &p)| p as f64)
        .unwrap_or(f64::INFINITY);
    report.push(Comparison::ratio(
        "crossover processor count (unopt-64 overtakes opt-16)",
        128.0,
        crossover,
        0.5,
    ));
    report
}

/// Figure 3: the effect of the number of I/O nodes on SCF 1.1.
pub fn fig3(scale: f64) -> ExperimentReport {
    let io_nodes = [12usize, 16, 64];
    let mut jobs = Vec::new();
    for &sf in &io_nodes {
        for &p in &FIG2_PROCS {
            jobs.push(Scf11Config {
                procs: p,
                io_nodes: sf,
                scale,
                ..Scf11Config::new(ScfInput::Large, Scf11Version::Original)
            });
        }
    }
    let flat = map_parallel(jobs, default_threads(), run);
    let grid: Vec<&[Scf11Result]> = flat.chunks(FIG2_PROCS.len()).collect();

    let mut report =
        ExperimentReport::new("Figure 3: effect of the number of I/O nodes on SCF 1.1 (LARGE)");
    let mut fig = TextFigure::new(
        "execution time (s) vs compute nodes",
        "procs",
        "exec time (s)",
    );
    for (si, &sf) in io_nodes.iter().enumerate() {
        let pts: Vec<(f64, f64)> = FIG2_PROCS
            .iter()
            .enumerate()
            .map(|(pi, &p)| (p as f64, grid[si][pi].run.exec_time.as_secs_f64()))
            .collect();
        fig.push(Series::new(format!("{sf} I/O nodes"), pts));
    }
    report.push_figure(fig);

    let exec = |si: usize, pi: usize| grid[si][pi].run.exec_time.as_secs_f64();
    report.push(Comparison::claim(
        "more I/O nodes help, most at large processor counts",
        "increase in I/O nodes translates into reduced contention",
        exec(2, 5) < exec(0, 5) && exec(2, 5) < exec(2, 0).max(exec(0, 5)),
    ));
    let gain_small = exec(0, 0) / exec(2, 0);
    let gain_large = exec(0, 5) / exec(2, 5);
    report.push(Comparison::claim(
        "I/O-node benefit grows with compute nodes",
        "especially when we use larger number of compute nodes",
        gain_large > gain_small,
    ));
    report
}

/// Table 5 synthesis: the interface gain (execution-time basis, original
/// vs PASSION) and the prefetch gain (foreground-I/O-time basis, PASSION
/// vs PASSION-prefetch — the paper counts wait + copy as the prefetch
/// version's I/O time, and the tick is about I/O effectiveness).
pub fn optimization_gains(scale: f64) -> (f64, f64) {
    let mut fcfg = cfg(ScfInput::Small, Scf11Version::PassionPrefetch, scale);
    fcfg.mem_kb = 256;
    let mut pcfg = cfg(ScfInput::Small, Scf11Version::Passion, scale);
    pcfg.mem_kb = 256;
    let configs = vec![
        cfg(ScfInput::Small, Scf11Version::Original, scale),
        cfg(ScfInput::Small, Scf11Version::Passion, scale),
        pcfg,
        fcfg,
    ];
    let runs = map_parallel(configs, default_threads(), run);
    let [o, p, p256, f] = &runs[..] else {
        unreachable!("map_parallel preserves arity")
    };
    (
        o.run.exec_time.as_secs_f64() / p.run.exec_time.as_secs_f64(),
        p256.fg_io_time.as_secs_f64() / f.fg_io_time.as_secs_f64().max(1e-9),
    )
}

/// Helper for tests and benches: assert a report's shape holds, with a
/// readable panic message.
pub fn assert_shape(report: &ExperimentReport) {
    for c in &report.comparisons {
        assert_ne!(
            c.verdict,
            Verdict::Differs,
            "{}: '{}' paper={} measured={}",
            report.id,
            c.what,
            c.paper,
            c.measured
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Scaled-down smoke tests; the full-scale numbers come from `repro`.
    const S: f64 = 0.02;

    #[test]
    fn tables_2_and_3_have_expected_shape_at_small_scale() {
        let (t2, t3) = table2_table3(S);
        // At reduced scale the absolute per-op ratios still hold; the
        // exec-share check can drift, so only require no hard misses on
        // the op-level rows.
        let hard_miss = t2
            .comparisons
            .iter()
            .chain(&t3.comparisons)
            .filter(|c| c.what.contains("per read") || c.what.contains("volume"))
            .any(|c| c.verdict == Verdict::Differs);
        assert!(
            !hard_miss,
            "t2:\n{}\nt3:\n{}",
            t2.render_markdown(),
            t3.render_markdown()
        );
    }

    #[test]
    fn fig1_software_steps_all_help() {
        let r = fig1(S);
        assert_shape(&r);
    }

    #[test]
    fn fig2_shape_holds_at_small_scale() {
        assert_shape(&fig2(S));
    }

    #[test]
    fn fig3_shape_holds_at_small_scale() {
        assert_shape(&fig3(S));
    }

    #[test]
    fn fig1_has_21_series_points() {
        let r = fig1(S);
        assert!(r.body.contains("SMALL"));
        assert!(r.body.contains("LARGE"));
        assert!(r.body.contains("(F,32,256,128,16)"));
    }
}
