//! # iosim-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section
//! from the simulation, with shape checks against the paper's claims.
//! Used by the `repro` binary (full-scale runs, EXPERIMENTS.md), the
//! `calibrate` binary (cost model vs the paper's Tables 2–3) and the
//! `iosim sweep`/`advise` subcommands (the batch [`advisor`]). Host-time
//! measurement lives in the separate `perfbench` package.

pub mod advisor;
pub mod experiments;
pub mod parallel;

/// Parse a problem-size scale factor (`repro --scale X`, `calibrate
/// [SCALE]`): a finite number above zero.
pub fn parse_scale(s: &str) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(v) if v.is_finite() && v > 0.0 => Ok(v),
        _ => Err(format!(
            "scale must be a finite number above zero, got '{s}'"
        )),
    }
}
