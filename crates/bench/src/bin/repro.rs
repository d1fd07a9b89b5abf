//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [all | table1 table2 table3 fig1..fig7 table4 table5 ext1..ext10]
//!       [--scale X]       scale factor on problem sizes (default 1.0)
//!       [--write-md PATH] also write the reports as markdown
//!       [--plots DIR]     also export gnuplot data + scripts per figure
//! ```
//!
//! At `--scale 1.0` the runs use the paper's problem sizes (SCF LARGE
//! moves 39.5 GB of simulated I/O; expect minutes of host time). Smaller
//! scales shrink volumes and compute proportionally.

use std::fmt::Write as _;

use iosim_bench::experiments;

/// Standing modelling notes and known deviations, emitted at the top of
/// the generated markdown (details in DESIGN.md).
const NOTES: &str = "\
## Substitutions and known deviations

- The Paragon/SP-2 hardware and PFS/PIOFS file systems are a calibrated
  discrete-event simulation (DESIGN.md §2, §5). Absolute seconds are not
  expected to match the paper; orderings, crossovers, humps and factor
  bands are.
- **Figure 1**: the paper's caption omits configuration tuple V; we use
  `(F,32,256,64,16)`.
- **Figure 2**: the measured software-vs-hardware crossover lands at ~64
  processors (the paper places it just beyond 64).
- **Figure 5**: in the optimized FFT, the second 1-D FFT pass scans the
  row-major array along its stored direction (four-step-FFT style); the
  physical reorder is accounted in the transpose panels. The functional
  2-D FFT check therefore runs on the unoptimized pipeline, and the
  optimized pipeline is verified on its transpose bytes.
- **Figure 6**: BTIO dump count is 40 (419 MB vs the paper's 408.9 MB).
- **Table 4**: AST uses a square process grid, so rows are 16/36/64/121
  instead of 16/32/64/128; the unoptimized path models the Chameleon
  library's heavy per-chunk software cost rather than its single-node
  funnel (the funnel cannot reproduce the measured 1/P scaling of the
  paper's own unoptimized column). Absolute cells differ from the paper
  (whose columns are mutually inconsistent with any single compute
  constant); the four claims the paper draws from the table are checked
  instead.
";

fn main() {
    let mut ids: Vec<&'static str> = Vec::new();
    let mut scale = 1.0f64;
    let mut write_md: Option<String> = None;
    let mut plots_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let s = args.next().unwrap_or_else(|| die("--scale needs a number"));
                scale = iosim_bench::parse_scale(&s).unwrap_or_else(|e| die(&e));
            }
            "--write-md" => {
                write_md = Some(
                    args.next()
                        .unwrap_or_else(|| die("--write-md needs a path")),
                );
            }
            "--plots" => {
                plots_dir = Some(
                    args.next()
                        .unwrap_or_else(|| die("--plots needs a directory")),
                );
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [all | {}] [--scale X] [--write-md PATH] [--plots DIR]",
                    experiments::IDS.join(" | ")
                );
                return;
            }
            "all" => ids.extend(experiments::IDS),
            other => match experiments::IDS.iter().find(|&&id| id == other) {
                Some(&id) => ids.push(id),
                None => die(&format!(
                    "unknown experiment '{other}' (expected one of: all {})",
                    experiments::IDS.join(" ")
                )),
            },
        }
    }
    if ids.is_empty() {
        ids.extend(experiments::IDS);
    }
    // Each id is reported once, at its first request; each evaluation
    // runs once, however many of the ids it reports were requested.
    let ids = first_occurrences(ids);
    let evaluations = first_occurrences(ids.iter().map(|&id| experiments::evaluation_of(id)));

    let mut md = String::new();
    let _ = writeln!(
        md,
        "# EXPERIMENTS — paper vs. measured (scale = {scale})\n\n\
         Regenerated by `cargo run --release -p iosim-bench --bin repro -- all --scale {scale}`.\n\
         Shape legend: ✓ holds, ~ partial (direction right, magnitude off), ✗ differs.\n\n\
         {NOTES}"
    );
    let mut holds = 0usize;
    let mut total = 0usize;
    // The evaluations are independent single-threaded simulations:
    // compute them across host threads (dynamic claiming, so the
    // expensive tables don't serialize behind the cheap figures), then
    // render in request order. Per-entry wall time is measured inside
    // the worker so it reports the evaluation itself, not queueing.
    let evaluated = iosim_bench::parallel::map_parallel(
        evaluations,
        iosim_bench::parallel::default_threads(),
        |id| {
            let t0 = std::time::Instant::now();
            let reports = experiments::evaluate(id, scale).expect("id validated above");
            (reports, t0.elapsed())
        },
    );
    let mut reports = Vec::new();
    for (produced, wall) in evaluated {
        let names: Vec<&str> = produced.iter().map(|&(id, _)| id).collect();
        eprintln!("[{}] done in {wall:.1?}", names.join(" + "));
        reports.extend(produced);
    }
    for id in ids {
        let report = reports
            .iter()
            .find(|&&(rid, _)| rid == id)
            .map(|(_, r)| r)
            .expect("every requested id was evaluated");
        println!("==================================================================");
        println!("{}", report.render_markdown());
        if let Some(dir) = &plots_dir {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("create {dir}: {e}")));
            for (k, fig) in report.figures.iter().enumerate() {
                let dat = format!("{dir}/{id}_{k}.dat");
                let gp = format!("{dir}/{id}_{k}.gp");
                std::fs::write(&dat, fig.to_gnuplot_data())
                    .unwrap_or_else(|e| die(&format!("write {dat}: {e}")));
                std::fs::write(&gp, fig.to_gnuplot_script(&format!("{id}_{k}.dat")))
                    .unwrap_or_else(|e| die(&format!("write {gp}: {e}")));
            }
        }
        md.push_str(&report.render_markdown());
        for c in &report.comparisons {
            total += 1;
            if c.verdict != iosim_trace::report::Verdict::Differs {
                holds += 1;
            }
        }
    }
    println!("shape checks: {holds}/{total} hold (or partial)");
    let _ = writeln!(md, "\n**Shape checks: {holds}/{total} hold (✓ or ~).**");
    if let Some(path) = write_md {
        std::fs::write(&path, md).unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        eprintln!("wrote {path}");
    }
}

/// `items` without repeats, each kept at its first position.
fn first_occurrences<'a>(items: impl IntoIterator<Item = &'a str>) -> Vec<&'a str> {
    let mut out: Vec<&str> = Vec::new();
    for item in items {
        if !out.contains(&item) {
            out.push(item);
        }
    }
    out
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}
