//! Simulation-memory counters of an engine partition: current and peak
//! bytes.
//!
//! The simulator runs every workload as one simulation, so nothing is
//! partitioned and these counters always read zero. The type stays so
//! that readers of [`crate::MemSnapshot`] fields keep building.

/// A point-in-time copy of the memory counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemSnapshot {
    /// Bytes currently accounted.
    pub current: u64,
    /// High-water mark of `current`.
    pub peak: u64,
}
