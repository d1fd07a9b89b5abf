//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints every metric with its unit, then one JSON line with `correct`,
//! `attempted`, `failed` and `metrics`.

use std::path::PathBuf;
use std::process::ExitCode;

use iosim_perfbench::{run, Config, Workload};

fn parse_args() -> Result<Config, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| bad("expected paper_apps, replay_deps or openloop_cache"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 86_400.0) {
                    return Err(bad("expected a number of seconds in (0, 86400]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let trace = trace.unwrap_or(false);
    let span_file = trace.then(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{seed}.jsonl", workload.name()))
    });
    Ok(Config {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        span_file,
    })
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(&cfg);
    for p in &report.problems {
        eprintln!("perfbench: {p}");
    }
    if report.metrics.is_empty() {
        return ExitCode::FAILURE;
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload={} seed={} trace={} jobs={} failed={} host_cores={cores}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace),
        report.attempted,
        report.failed
    );
    for m in &report.metrics {
        println!("{:<38} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(path) = &cfg.span_file {
        println!("spans written to {}", path.display());
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
