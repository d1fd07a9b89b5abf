//! # iosim-apps — the paper's five I/O-intensive applications
//!
//! Simulated workloads reproducing each application's I/O pattern and
//! compute/IO balance, in unoptimized and optimized variants.

pub mod ast;
pub mod btio;
pub mod common;
pub mod dsp;
pub mod fft;
pub mod hinted;
pub mod registry;
pub mod scf11;
pub mod scf30;

pub use common::{run_ranks, with_cache_mb, with_queue_depth, AppCtx, RunResult};
pub use hinted::{is_workload, run_hinted, workload_index, RunSummary, WORKLOADS};
