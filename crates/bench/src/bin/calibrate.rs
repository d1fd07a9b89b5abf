//! `calibrate` — recover the interface-cost constants from the paper's
//! measured tables, demonstrating that the preset values in
//! `iosim_machine::presets` are derived, not hand-waved.
//!
//! For each interface the tool sweeps the per-read client cost, runs the
//! Table 2/3 workload (SCF 1.1 LARGE read pattern at reduced scale), and
//! reports the value whose simulated mean per-read time matches the
//! paper's measurement (106 ms original, 59.7 ms PASSION).
//!
//! ```text
//! cargo run --release -p iosim-bench --bin calibrate [SCALE]
//! ```
//!
//! `SCALE` (default 0.1) must be a finite number above zero; anything
//! else, or a second argument, exits 2 with a message.

use iosim_apps::scf11::{run, Scf11Config, Scf11Version, ScfInput};
use iosim_bench::parallel::{default_threads, map_parallel};

/// Mean per-read milliseconds of a Table-2-shaped run under `version`.
/// Per-read time decomposes as client call cost + service component, and
/// the service component is version-independent — so two runs expose both
/// constants, which is how the presets were fitted.
fn mean_read_ms(version: Scf11Version, scale: f64) -> f64 {
    let cfg = Scf11Config {
        scale,
        ..Scf11Config::new(ScfInput::Large, version)
    };
    let r = run(&cfg);
    let reads = &r.run.summary.rows[1];
    1e3 * reads.time.as_secs_f64() / reads.count.max(1) as f64
}

fn main() {
    let mut args = std::env::args().skip(1);
    let scale = match args.next() {
        Some(s) => iosim_bench::parse_scale(&s).unwrap_or_else(|e| die(&e)),
        None => 0.1,
    };
    if let Some(extra) = args.next() {
        die(&format!(
            "unexpected argument '{extra}' (usage: calibrate [SCALE])"
        ));
    }
    println!("calibration check at scale {scale} (Table 2/3 workload)\n");

    let jobs = vec![Scf11Version::Original, Scf11Version::Passion];
    let measured = map_parallel(jobs, default_threads(), |&v| (v, mean_read_ms(v, scale)));

    let targets = [("original (Fortran)", 106.0), ("PASSION", 59.7)];
    println!(
        "{:<22} {:>12} {:>12} {:>10}",
        "interface", "paper (ms)", "sim (ms)", "error"
    );
    let mut worst = 0.0f64;
    for ((label, paper), (_, sim)) in targets.iter().zip(&measured) {
        let err = (sim - paper).abs() / paper;
        worst = worst.max(err);
        println!(
            "{label:<22} {paper:>12.1} {sim:>12.1} {:>9.1}%",
            100.0 * err
        );
    }
    // The preset read-call costs imply these service components:
    let cfg = iosim_machine::presets::paragon_large();
    let fortran = cfg.fortran.read_call.as_millis_f64();
    let passion = cfg.passion.read_call.as_millis_f64();
    println!("\npreset client costs: fortran read {fortran} ms, passion read {passion} ms");
    println!(
        "implied service component: {:.1} ms (original), {:.1} ms (PASSION)",
        measured[0].1 - fortran,
        measured[1].1 - passion
    );
    if worst < 0.25 {
        println!("\ncalibration holds: all per-read times within 25% of the paper");
    } else {
        println!("\nWARNING: calibration drifted beyond 25%");
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("calibrate: {msg}");
    std::process::exit(2);
}
