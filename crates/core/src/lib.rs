//! # iosim-core — the parallel I/O optimization runtime
//!
//! The paper's subject: the software techniques that rescue I/O-intensive
//! applications on I/O-starved machines, implemented as a PASSION-style
//! run-time library over the simulated parallel file system. One module
//! per technique, matching Table 5 of the paper:
//!
//! | Technique | Module | Benefits (per the paper) |
//! |---|---|---|
//! | Collective (two-phase) I/O | [`two_phase`] | BTIO, AST |
//! | File layout selection | [`ooc`], [`advisor`] | FFT |
//! | Efficient interface (packing) | see below | SCF 1.1, SCF 3.0 |
//! | Prefetching | [`prefetch`] | SCF 1.1, SCF 3.0 |
//! | Balanced I/O | [`balanced`] | SCF 3.0 |
//!
//! The efficient interface has no module here: it is the cheaper
//! per-call cost of `iosim_machine::Interface::Passion`, which the SCF
//! applications select while issuing their own large chunked writes
//! and reads.
//!
//! Every technique is *functional*, not just timed: two-phase I/O really
//! redistributes bytes and out-of-core arrays really store values, so
//! optimized and unoptimized runs can be checked for identical results
//! while their simulated costs differ.

pub mod advisor;
pub mod balanced;
pub mod ckpt;
pub mod ooc;
pub mod prefetch;
pub mod sieve;
pub mod two_phase;

pub use advisor::{choose_layouts, AccessOrder, ArrayAccess, HintError, HintGrid, Hints};
pub use balanced::{apply_moves, default_tolerance, plan_balance, Move, SemiDirect};
pub use ckpt::Checkpointer;
pub use ooc::{FileLayout, OocArray};
pub use prefetch::{PrefetchStats, Prefetcher};
pub use sieve::{read_sieved, write_sieved, SieveStats};
pub use two_phase::{
    read_collective, write_collective, write_collective_batched, write_collective_buffered, Piece,
    Span, TwoPhaseStats,
};
