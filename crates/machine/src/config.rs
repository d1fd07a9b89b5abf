//! Machine configuration: hardware and system-software cost parameters.
//!
//! All timing constants of the simulation live here, so a "machine" is a
//! plain value that experiments can sweep (number of I/O nodes, stripe
//! unit, interface costs). The presets in [`crate::presets`] pin these
//! constants against the paper's measured tables (see DESIGN.md §5).

use iosim_simkit::time::SimDuration;

/// 2-D mesh dimensions (Paragon-style compute partition).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MeshDims {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
}

impl MeshDims {
    /// Total nodes in the mesh.
    pub fn nodes(&self) -> usize {
        self.rows * self.cols
    }
}

/// Compute-node processor parameters.
#[derive(Clone, Copy, Debug)]
pub struct CpuParams {
    /// Sustained floating-point rate used to convert FLOP counts to time.
    pub effective_mflops: f64,
    /// Memory-copy bandwidth, bytes/second (prefetch buffers are copied
    /// into application buffers; the paper counts this copy time as I/O).
    pub copy_bandwidth_bps: f64,
}

impl CpuParams {
    /// Time to copy `bytes` in memory.
    pub fn copy_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.copy_bandwidth_bps)
    }
}

/// Disk and I/O-node service parameters.
#[derive(Clone, Copy, Debug)]
pub struct DiskParams {
    /// Fixed per-request service overhead at the I/O node (controller +
    /// file-system server CPU).
    pub per_request_overhead: SimDuration,
    /// Penalty charged when a request's node-local offset is discontiguous
    /// with the previous access to the same file on that I/O node.
    pub seek_penalty: SimDuration,
    /// Sustained transfer bandwidth of one disk, bytes/second.
    pub bandwidth_bps: f64,
}

impl DiskParams {
    /// Pure transfer time for `bytes` on one disk.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps)
    }

    /// Service time for one request: overhead, optional seek, transfer.
    pub fn service_time(&self, bytes: u64, seek: bool) -> SimDuration {
        let mut t = self.per_request_overhead + self.transfer_time(bytes);
        if seek {
            t += self.seek_penalty;
        }
        t
    }
}

/// Interconnection network parameters.
#[derive(Clone, Copy, Debug)]
pub struct NetParams {
    /// Software latency of a message (send + receive overhead).
    pub base_latency: SimDuration,
    /// Additional latency per mesh hop.
    pub per_hop_latency: SimDuration,
    /// Link / NIC bandwidth, bytes/second.
    pub bandwidth_bps: f64,
    /// Model contention on the mesh links: each message books bandwidth
    /// on every link of its XY route, so bisection-heavy exchanges (e.g.
    /// the two-phase all-to-all) slow down under load. Off by default —
    /// the paper-calibrated presets account for contention in the NIC
    /// serialization only.
    pub link_contention: bool,
}

impl NetParams {
    /// Transfer time of `bytes` over `hops` mesh hops (wormhole-routed:
    /// latency grows with distance, bandwidth does not).
    pub fn transfer_time(&self, bytes: u64, hops: u32) -> SimDuration {
        self.base_latency
            + self.per_hop_latency * hops as u64
            + SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bps)
    }
}

/// Per-call client-side costs of a file-system interface.
///
/// These model the software path from the application to the parallel file
/// system: Fortran record I/O is the slowest, the UNIX-style interface is
/// cheaper, and the PASSION direct interface is the cheapest. Calibrated
/// against Tables 2–3 of the paper (per-op time = count / cumulative time).
#[derive(Clone, Copy, Debug)]
pub struct InterfaceCosts {
    /// Cost of `open`.
    pub open: SimDuration,
    /// Cost of `close`.
    pub close: SimDuration,
    /// Per-call overhead of a read, excluding service at the I/O nodes.
    pub read_call: SimDuration,
    /// Per-call overhead of a write, excluding service at the I/O nodes.
    pub write_call: SimDuration,
    /// Cost of an explicit seek (file-pointer reposition; metadata only).
    pub seek: SimDuration,
    /// Cost of a flush.
    pub flush: SimDuration,
}

/// Buffer-cache replacement policy of an I/O node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CachePolicy {
    /// No cache: every request is serviced by the disk queue directly.
    /// This reproduces the pre-cache service path bit-for-bit.
    None,
    /// Block-granular LRU with optional write-behind and read-ahead.
    Lru,
}

/// Per-I/O-node buffer-cache parameters (see DESIGN.md §12).
///
/// These are plain data; the timing model lives in the `iosim-cache`
/// crate. With `policy == CachePolicy::None` every other field is
/// ignored and the file-system layer takes the legacy disk-only path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CacheParams {
    /// Replacement policy.
    pub policy: CachePolicy,
    /// Cache capacity per I/O node, bytes.
    pub capacity_bytes: u64,
    /// Cache block size, bytes; `0` means "use the machine's default
    /// stripe unit" (one cache block per stripe unit, the natural grain).
    pub block_bytes: u64,
    /// Fixed per-request overhead of the cache lookup/copy path at the
    /// I/O node (file-system server CPU).
    pub hit_overhead: SimDuration,
    /// I/O-node memory bandwidth for cache-to-network copies, bytes/s.
    pub mem_bandwidth_bps: f64,
    /// Absorb writes into the cache and write them back asynchronously
    /// (write-behind). When `false`, writes go through to disk and the
    /// written blocks are inserted clean (write-through with allocation).
    pub write_behind: bool,
    /// Dirty-block high-water mark as a fraction of capacity in `(0, 1]`;
    /// crossing it wakes the background flush daemon.
    pub dirty_high_water: f64,
    /// Sequential read-ahead depth in blocks (0 disables read-ahead).
    pub read_ahead_blocks: usize,
}

impl CacheParams {
    /// No cache (the default for every paper-calibrated preset).
    pub fn none() -> CacheParams {
        CacheParams {
            policy: CachePolicy::None,
            capacity_bytes: 0,
            block_bytes: 0,
            hit_overhead: SimDuration::ZERO,
            mem_bandwidth_bps: 1.0,
            write_behind: false,
            dirty_high_water: 1.0,
            read_ahead_blocks: 0,
        }
    }

    /// An LRU cache of `capacity_bytes` per I/O node with era-appropriate
    /// defaults: stripe-unit blocks, 200 µs lookup overhead, 80 MB/s
    /// node-memory bandwidth, write-behind at a 75 % dirty high water,
    /// and 2 blocks of sequential read-ahead.
    pub fn lru(capacity_bytes: u64) -> CacheParams {
        CacheParams {
            policy: CachePolicy::Lru,
            capacity_bytes,
            block_bytes: 0,
            hit_overhead: SimDuration::from_micros(200),
            mem_bandwidth_bps: 80.0e6,
            write_behind: true,
            dirty_high_water: 0.75,
            read_ahead_blocks: 2,
        }
    }

    /// Builder-style: set the read-ahead depth.
    pub fn with_read_ahead(mut self, blocks: usize) -> CacheParams {
        self.read_ahead_blocks = blocks;
        self
    }

    /// Builder-style: enable or disable write-behind.
    pub fn with_write_behind(mut self, on: bool) -> CacheParams {
        self.write_behind = on;
        self
    }

    /// Builder-style: set the cache block size.
    pub fn with_block_bytes(mut self, bytes: u64) -> CacheParams {
        self.block_bytes = bytes;
        self
    }

    /// Whether a cache model is active.
    pub fn enabled(&self) -> bool {
        self.policy != CachePolicy::None
    }

    /// Validate (policy `None` is always valid).
    pub fn validate(&self) -> Result<(), String> {
        if !self.enabled() {
            return Ok(());
        }
        if self.capacity_bytes == 0 {
            return Err("cache capacity must be positive".into());
        }
        if self.mem_bandwidth_bps <= 0.0 || self.mem_bandwidth_bps.is_nan() {
            return Err("cache memory bandwidth must be positive".into());
        }
        if !(self.dirty_high_water > 0.0 && self.dirty_high_water <= 1.0) {
            return Err("dirty high water must be in (0, 1]".into());
        }
        Ok(())
    }
}

/// The three client interfaces evaluated in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Interface {
    /// Fortran record-oriented I/O over the parallel file system
    /// (the "original version" of SCF 1.1).
    Fortran,
    /// UNIX-style read/write/seek (the MPI-IO base interface of BTIO, the
    /// Chameleon path of AST).
    UnixStyle,
    /// The PASSION run-time library's direct interface.
    Passion,
}

/// Full machine configuration.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Display name (e.g. "Intel Paragon (large)").
    pub name: String,
    /// Number of compute nodes available.
    pub compute_nodes: usize,
    /// Mesh shape; `mesh.nodes() >= compute_nodes`.
    pub mesh: MeshDims,
    /// Processor parameters.
    pub cpu: CpuParams,
    /// Memory per compute node, bytes.
    pub mem_per_node: u64,
    /// Number of I/O (service) nodes.
    pub io_nodes: usize,
    /// Disks attached to each I/O node (parallel servers per node).
    pub disks_per_io_node: usize,
    /// Outstanding disk commands each I/O node may hold (NCQ-style
    /// command queuing). Depth 1 — every preset's default — reproduces
    /// the legacy strictly-FIFO reservation path bit-for-bit; depth > 1
    /// services queued commands with a bounded-window elevator policy
    /// (see `iosim_pfs`'s command-queue service path).
    pub io_queue_depth: usize,
    /// Disk/service parameters.
    pub disk: DiskParams,
    /// Network parameters.
    pub net: NetParams,
    /// Default file-system stripe unit, bytes (PFS: 64 KB, PIOFS: 32 KB).
    pub default_stripe_unit: u64,
    /// Per-I/O-node buffer-cache model. `CacheParams::none()` (the preset
    /// default) reproduces the uncached service path bit-for-bit.
    pub cache: CacheParams,
    /// Fortran interface costs.
    pub fortran: InterfaceCosts,
    /// UNIX-style interface costs.
    pub unix: InterfaceCosts,
    /// PASSION interface costs.
    pub passion: InterfaceCosts,
    /// Per-I/O-node speed factors for failure-injection studies: factor
    /// 1.0 is nominal, 0.25 is a node serving at quarter speed. Empty
    /// means all nominal; shorter-than-`io_nodes` vectors pad with 1.0.
    pub io_node_speed: Vec<f64>,
}

impl MachineConfig {
    /// Costs for a given interface.
    pub fn iface(&self, i: Interface) -> InterfaceCosts {
        match i {
            Interface::Fortran => self.fortran,
            Interface::UnixStyle => self.unix,
            Interface::Passion => self.passion,
        }
    }

    /// Builder-style: set the number of compute nodes.
    pub fn with_compute_nodes(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one compute node");
        self.compute_nodes = n;
        self
    }

    /// Builder-style: set the number of I/O nodes (the paper's key
    /// architectural-balance knob).
    pub fn with_io_nodes(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one I/O node");
        self.io_nodes = n;
        self
    }

    /// Builder-style: set the stripe unit.
    pub fn with_stripe_unit(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "stripe unit must be positive");
        self.default_stripe_unit = bytes;
        self
    }

    /// Builder-style: degrade I/O node `idx` to `speed` (1.0 = nominal).
    /// Used for failure-injection / hot-spot experiments.
    pub fn with_degraded_io_node(mut self, idx: usize, speed: f64) -> Self {
        assert!(idx < self.io_nodes, "I/O node {idx} out of range");
        assert!(speed > 0.0, "speed factor must be positive");
        if self.io_node_speed.len() < self.io_nodes {
            self.io_node_speed.resize(self.io_nodes, 1.0);
        }
        self.io_node_speed[idx] = speed;
        self
    }

    /// The speed factor of I/O node `idx` (default 1.0).
    pub fn io_node_speed_of(&self, idx: usize) -> f64 {
        self.io_node_speed.get(idx).copied().unwrap_or(1.0)
    }

    /// Builder-style: set the I/O-node buffer-cache parameters.
    pub fn with_cache(mut self, cache: CacheParams) -> Self {
        self.cache = cache;
        self
    }

    /// Builder-style: enable an LRU buffer cache of `capacity_bytes` per
    /// I/O node with default policy knobs (see [`CacheParams::lru`]).
    pub fn with_lru_cache(self, capacity_bytes: u64) -> Self {
        self.with_cache(CacheParams::lru(capacity_bytes))
    }

    /// Builder-style: set the per-I/O-node command-queue depth. Depth 1
    /// keeps the legacy FIFO path; deeper queues enable bounded-window
    /// elevator scheduling of outstanding commands.
    pub fn with_io_queue_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "io_queue_depth must be at least 1");
        self.io_queue_depth = depth;
        self
    }

    /// Validate internal consistency; called by `Machine::new`.
    pub fn validate(&self) -> Result<(), String> {
        if self.compute_nodes == 0 {
            return Err("compute_nodes must be positive".into());
        }
        if self.mesh.nodes() < self.compute_nodes {
            return Err(format!(
                "mesh {}x{} too small for {} compute nodes",
                self.mesh.rows, self.mesh.cols, self.compute_nodes
            ));
        }
        if self.io_nodes == 0 {
            return Err("io_nodes must be positive".into());
        }
        if self.disks_per_io_node == 0 {
            return Err("disks_per_io_node must be positive".into());
        }
        if self.io_queue_depth == 0 {
            return Err("io_queue_depth must be at least 1".into());
        }
        if self.disk.bandwidth_bps <= 0.0 || self.disk.bandwidth_bps.is_nan() {
            return Err("disk bandwidth must be positive".into());
        }
        if self.net.bandwidth_bps <= 0.0 || self.net.bandwidth_bps.is_nan() {
            return Err("net bandwidth must be positive".into());
        }
        if self.cpu.effective_mflops <= 0.0 || self.cpu.effective_mflops.is_nan() {
            return Err("cpu rate must be positive".into());
        }
        if self.default_stripe_unit == 0 {
            return Err("stripe unit must be positive".into());
        }
        if self.io_node_speed.iter().any(|&s| s <= 0.0 || s.is_nan()) {
            return Err("I/O-node speed factors must be positive".into());
        }
        self.cache.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn disk_service_time_composition() {
        let d = DiskParams {
            per_request_overhead: SimDuration::from_millis(1),
            seek_penalty: SimDuration::from_millis(12),
            bandwidth_bps: 5.0e6,
        };
        let t = d.service_time(5_000_000, false);
        assert_eq!(t, SimDuration::from_millis(1) + SimDuration::from_secs(1));
        let t_seek = d.service_time(5_000_000, true);
        assert_eq!(t_seek, t + SimDuration::from_millis(12));
    }

    #[test]
    fn net_transfer_scales_with_hops_and_bytes() {
        let n = NetParams {
            base_latency: SimDuration::from_micros(50),
            per_hop_latency: SimDuration::from_micros(1),
            bandwidth_bps: 80.0e6,
            link_contention: false,
        };
        let t0 = n.transfer_time(0, 0);
        assert_eq!(t0, SimDuration::from_micros(50));
        let t = n.transfer_time(80_000_000, 10);
        assert_eq!(t, SimDuration::from_micros(60) + SimDuration::from_secs(1));
    }

    #[test]
    fn builders_update_fields() {
        let m = presets::paragon_large()
            .with_compute_nodes(64)
            .with_io_nodes(16)
            .with_stripe_unit(128 << 10);
        assert_eq!(m.compute_nodes, 64);
        assert_eq!(m.io_nodes, 16);
        assert_eq!(m.default_stripe_unit, 128 << 10);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn queue_depth_builder_and_validation() {
        for cfg in [
            presets::paragon_large(),
            presets::paragon_small(),
            presets::sp2(),
        ] {
            assert_eq!(cfg.io_queue_depth, 1, "{}", cfg.name);
        }
        let m = presets::paragon_small().with_io_queue_depth(8);
        assert_eq!(m.io_queue_depth, 8);
        assert!(m.validate().is_ok());
        let mut bad = m;
        bad.io_queue_depth = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_queue_depth_builder_panics() {
        let _ = presets::paragon_small().with_io_queue_depth(0);
    }

    #[test]
    fn validate_rejects_oversized_partition() {
        let mut m = presets::paragon_small();
        m.compute_nodes = m.mesh.nodes() + 1;
        assert!(m.validate().is_err());
    }

    #[test]
    fn degraded_node_builder_and_validation() {
        let m = presets::paragon_small()
            .with_io_nodes(4)
            .with_degraded_io_node(2, 0.25);
        assert_eq!(m.io_node_speed_of(2), 0.25);
        assert_eq!(m.io_node_speed_of(0), 1.0);
        assert_eq!(m.io_node_speed_of(99), 1.0);
        assert!(m.validate().is_ok());
        let mut bad = m;
        bad.io_node_speed[1] = 0.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn degrading_missing_node_panics() {
        let _ = presets::paragon_small()
            .with_io_nodes(2)
            .with_degraded_io_node(5, 0.5);
    }

    #[test]
    fn presets_default_to_no_cache() {
        for cfg in [
            presets::paragon_large(),
            presets::paragon_small(),
            presets::sp2(),
        ] {
            assert_eq!(cfg.cache.policy, CachePolicy::None, "{}", cfg.name);
            assert!(!cfg.cache.enabled());
        }
    }

    #[test]
    fn cache_builder_and_validation() {
        let m = presets::paragon_small().with_lru_cache(4 << 20);
        assert_eq!(m.cache.policy, CachePolicy::Lru);
        assert_eq!(m.cache.capacity_bytes, 4 << 20);
        assert!(m.validate().is_ok());

        let mut bad = m.clone();
        bad.cache.capacity_bytes = 0;
        assert!(bad.validate().is_err());

        let mut bad = m.clone();
        bad.cache.dirty_high_water = 0.0;
        assert!(bad.validate().is_err());

        let mut bad = m;
        bad.cache.mem_bandwidth_bps = -1.0;
        assert!(bad.validate().is_err());

        // None policy ignores degenerate knobs entirely.
        let mut none = presets::paragon_small();
        none.cache = CacheParams::none();
        none.cache.capacity_bytes = 0;
        assert!(none.validate().is_ok());
    }

    #[test]
    fn cache_param_builders_compose() {
        let p = CacheParams::lru(1 << 20)
            .with_read_ahead(4)
            .with_write_behind(false)
            .with_block_bytes(8 << 10);
        assert_eq!(p.read_ahead_blocks, 4);
        assert!(!p.write_behind);
        assert_eq!(p.block_bytes, 8 << 10);
        assert!(p.enabled());
        assert!(!CacheParams::none().enabled());
    }

    #[test]
    fn iface_returns_matching_costs() {
        let m = presets::paragon_large();
        assert_eq!(m.iface(Interface::Fortran).read_call, m.fortran.read_call);
        assert_eq!(m.iface(Interface::Passion).seek, m.passion.seek);
        assert!(m.fortran.read_call > m.passion.read_call);
    }
}
