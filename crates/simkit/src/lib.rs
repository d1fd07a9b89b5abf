//! # iosim-simkit — deterministic virtual-time simulation engine
//!
//! A small, dependency-light discrete-event simulation (DES) kernel built
//! around Rust's `async`/`await`: simulated processes are plain futures,
//! and blocking operations (sleeping, being served by a FIFO resource,
//! receiving a message) are futures that register timer events with the
//! executor. Virtual time advances only between event firings, so a
//! simulated second costs nothing but the events scheduled within it.
//!
//! Design properties:
//!
//! - **Deterministic.** The event heap is ordered by `(time, seq)`; equal
//!   timestamps resolve in registration order. A simulation is a pure
//!   function of its inputs and seed.
//! - **Cheap contention modelling.** [`resource::Resource`] uses a virtual
//!   queue (per-server next-free instants), so a queued service costs one
//!   timer event, and fan-out bookings ([`resource::Resource::reserve_at`])
//!   cost none at all until the caller sleeps to the max completion.
//! - **Single-threaded core.** One [`executor::Sim`] is `!Send` and never
//!   migrates; sweeps over machine configurations parallelize across
//!   whole `Sim` instances on the host.
//!
//! ## Example
//!
//! ```
//! use iosim_simkit::prelude::*;
//! use std::rc::Rc;
//!
//! let mut sim = Sim::new();
//! let h = sim.handle();
//! let disk = Rc::new(Resource::new(h.clone(), "disk", 1));
//! let jh = sim.spawn(async move {
//!     // Two requests serialize on the single disk server.
//!     disk.serve(SimDuration::from_millis(10)).await;
//!     disk.serve(SimDuration::from_millis(10)).await;
//!     h.now()
//! });
//! sim.run();
//! assert_eq!(jh.try_take().unwrap(), SimTime::ZERO + SimDuration::from_millis(20));
//! ```

pub mod executor;
pub mod hash;
pub mod resource;
pub mod rng;
pub mod sync;
pub mod time;
pub mod timerheap;

/// Convenient glob import of the common types.
pub mod prelude {
    pub use crate::executor::{join_all, with_timeout, JoinHandle, Sim, SimHandle};
    pub use crate::hash::{FxHashMap, FxHashSet};
    pub use crate::resource::{Resource, ResourceStats};
    pub use crate::rng::SimRng;
    pub use crate::sync::{channel, Barrier, Event, Receiver, Semaphore, Sender, Turnstile};
    pub use crate::time::{SimDuration, SimTime};
}
