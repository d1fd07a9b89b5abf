//! # iosim — architectural & software techniques for I/O-intensive applications
//!
//! A simulation framework reproducing Kandaswamy, Kandemir, Choudhary &
//! Bernholdt, *"Performance Implications of Architectural and Software
//! Techniques on I/O-Intensive Applications"* (ICPP 1998): a deterministic
//! discrete-event model of 1990s message-passing machines (Intel Paragon,
//! IBM SP-2) with striped parallel file systems, a PASSION-style parallel
//! I/O optimization runtime (two-phase collective I/O, prefetching, file
//! layout selection, balanced I/O, the efficient interface), and the
//! paper's five applications (SCF 1.1, SCF 3.0, out-of-core FFT, BTIO, AST).
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! - [`simkit`] — virtual-time async executor (DES engine)
//! - [`machine`] — hardware model and presets
//! - [`pfs`] — parallel file system (PFS / PIOFS)
//! - [`msg`] — message passing over the simulated mesh
//! - [`optim`] — the I/O optimization runtime (the paper's subject)
//! - [`trace`] — Pablo-style instrumentation and report tables
//! - [`apps`] — the five applications
//! - [`workload`] — trace ingestion, open-loop traffic generation, and
//!   the replay engine ("bring your own workload")
//! - [`bench`](mod@bench) — the experiment harness, host-parallel sweeps, and the
//!   batch what-if advisor (`iosim advise` / `iosim sweep`)
//!
//! ## Quickstart
//!
//! ```
//! use iosim::prelude::*;
//!
//! // Run BTIO Class-sized workload with and without two-phase I/O.
//! let mut cfg = iosim::apps::btio::BtioConfig::new(
//!     iosim::apps::btio::BtClass::Custom(16), 4, false);
//! cfg.dumps = 2;
//! let unopt = iosim::apps::btio::run(&cfg);
//! cfg.optimized = true;
//! let opt = iosim::apps::btio::run(&cfg);
//! assert!(opt.exec_time < unopt.exec_time);
//! ```

pub use iosim_apps as apps;
pub use iosim_bench as bench;
pub use iosim_buf as buf;
pub use iosim_core as optim;
pub use iosim_machine as machine;
pub use iosim_msg as msg;
pub use iosim_pfs as pfs;
pub use iosim_simkit as simkit;
pub use iosim_trace as trace;
pub use iosim_workload as workload;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use iosim_bench::advisor::{AdviseOpts, BatchAdvisor, Query};
    pub use iosim_core::{
        read_collective, write_collective, write_collective_batched, FileLayout, HintGrid, Hints,
        OocArray, Piece, Prefetcher, SemiDirect, Span,
    };
    pub use iosim_machine::{presets, Interface, Machine, MachineConfig};
    pub use iosim_msg::{Comm, MatchSrc, Payload, World};
    pub use iosim_pfs::{CreateOptions, FileHandle, FileSystem, FsError, IoRequest};
    pub use iosim_simkit::prelude::*;
    pub use iosim_trace::{LatencyHistogram, OpKind, TraceCollector};
    pub use iosim_workload::{
        parse_any, run_open_loop, run_ranks, saturation_knee, AppCtx, ArrivalModel, OpStream,
        ReplayMode, ReplaySpec, RunResult, SynthSpec,
    };
}
