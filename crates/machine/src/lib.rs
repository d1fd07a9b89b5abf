//! # iosim-machine — hardware model of 1990s message-passing machines
//!
//! Models the two platforms of the paper — the Intel Paragon and the IBM
//! SP-2 — at the level of detail their I/O behaviour depends on:
//!
//! - **Compute nodes** with a sustained FLOP rate and a fixed memory size
//!   (the memory size bounds out-of-core tile sizes and prefetch buffers).
//! - A **2-D mesh interconnect** with XY routing: message time =
//!   base latency + per-hop latency × hops + bytes / bandwidth; each
//!   node's NIC serializes its injections.
//! - **I/O nodes** holding one or more disks. Each I/O node is a FIFO
//!   queue with one server per disk; a request costs a fixed overhead,
//!   a seek penalty when discontiguous, and transfer time. Contention of
//!   many compute nodes on few I/O nodes — the paper's central
//!   architectural-balance effect — emerges from these queues.
//! - **Interface cost classes** (Fortran, UNIX-style, PASSION) giving the
//!   client-side per-call software overheads, calibrated against the
//!   paper's Tables 2–3.
//!
//! Presets: [`presets::paragon_large`], [`presets::paragon_small`],
//! [`presets::sp2`].

pub mod cmdring;
pub mod config;
pub mod disk;
pub mod machine;
pub mod presets;
pub mod topology;

pub use cmdring::{CmdRing, Pick};
pub use config::{
    CacheParams, CachePolicy, CpuParams, DiskParams, Interface, InterfaceCosts, MachineConfig,
    MeshDims, NetParams,
};
pub use disk::{
    elevator_rank, pick_command, CommandView, DiskGeometry, SchedDecision, STARVATION_BOUND,
};
pub use machine::Machine;
pub use topology::{Coord, Topology};
