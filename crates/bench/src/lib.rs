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
