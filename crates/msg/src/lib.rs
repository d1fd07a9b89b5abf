//! # iosim-msg — message passing over the simulated mesh
//!
//! A rank-addressed, tag-matched message layer in the style of the NX /
//! MPL / MPI libraries the paper's applications use. Point-to-point sends
//! serialize on the sender's NIC (bytes / NIC bandwidth), then arrive
//! after the mesh latency for the hop distance. Receives match on
//! `(source, tag)` FIFO per pair.
//!
//! Payloads carry either real bytes (so the two-phase I/O exchange can be
//! verified functionally) or a synthetic length (timing only, for
//! paper-scale volumes).
//!
//! Collectives (barrier, broadcast, gather, all-gather, all-to-all,
//! all-reduce) are built from point-to-point operations, so their cost
//! emerges from the same network model the applications see.

pub mod collective;
pub mod comm;

pub use comm::{Comm, MatchSrc, Payload, World};
