//! # iosim-pfs — parallel file system model (Intel PFS / IBM PIOFS)
//!
//! Files are striped round-robin across the machine's I/O nodes in units
//! of the stripe unit (PFS: 64 KB; PIOFS "BSU": 32 KB). A data operation:
//!
//! 1. charges the client-side per-call cost of the chosen [`Interface`]
//!    (Fortran / UNIX-style / PASSION),
//! 2. decomposes into at most one contiguous run per I/O node
//!    ([`layout::Striping::runs`]),
//! 3. books each node's share on that node's disk queue — directly in
//!    FIFO order, paying a seek penalty when discontiguous with the
//!    node's previous access, or through the buffer cache or the
//!    NCQ-style command queue when the machine runs one —
//! 4. and completes when the last response returns over the mesh.
//!
//! Noncontiguous accesses are described by an [`IoRequest`] extent list
//! and serviced by [`FileHandle::readv`] / [`FileHandle::writev`]: under
//! [`Interface::Passion`] the whole list is one call — extents are
//! coalesced and each I/O node is booked once per request, by the same
//! per-node routine — while UNIX-style/Fortran interfaces degenerate to
//! the per-fragment loop above, preserving the paper's interface
//! contrast.
//!
//! Every operation is recorded with an [`iosim_trace::TraceCollector`],
//! which reproduces the paper's Pablo trace tables.
//!
//! [`Interface`]: iosim_machine::Interface
//! [`Interface::Passion`]: iosim_machine::Interface::Passion

mod cmdq;
pub mod extent;
pub mod fs;
pub mod layout;
pub mod request;

pub use extent::ExtentTree;
pub use fs::{Content, CreateOptions, FileHandle, FileSystem, FsError, STORED_FILE_CAP};
pub use layout::{Run, RunIter, Striping};
pub use request::IoRequest;
