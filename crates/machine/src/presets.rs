//! Machine presets calibrated against the paper (see DESIGN.md §5).
//!
//! Calibration anchors:
//!
//! - **Table 2** (SCF 1.1 original, LARGE, 4 procs, 12 I/O nodes):
//!   566,315 reads / 60,284 s ⇒ 106 ms per ~68 KB Fortran read;
//!   40,331 writes / 2,792 s ⇒ 69 ms per ~62 KB Fortran write;
//!   19 opens / 1.97 s ⇒ 104 ms per open; 994 seeks / 8.01 s ⇒ 8 ms.
//! - **Table 3** (PASSION version): 566,330 reads / 33,805 s ⇒ 59.7 ms per
//!   read; 40,336 writes / 1,381 s ⇒ 34 ms; 604,342 seeks / 257 s ⇒
//!   0.42 ms; 19 opens / 0.65 s ⇒ 34 ms.
//! - **Figure 7** (BTIO on SP-2): unoptimized UNIX-style interface delivers
//!   0.97–1.5 MB/s aggregate; two-phase optimized 6.6–31.4 MB/s.
//!
//! With a ~68 KB request costing ~15 ms of I/O-node service (1 ms
//! overhead plus 64 KB / 5 MB/s ≈ 13 ms plus network), the client-side
//! interface costs below make the per-op totals land on the measured
//! values.

use iosim_simkit::time::SimDuration;

use crate::config::{
    CacheParams, CpuParams, DiskParams, InterfaceCosts, MachineConfig, MeshDims, NetParams,
};

fn ms(x: u64) -> SimDuration {
    SimDuration::from_millis(x)
}

fn us(x: u64) -> SimDuration {
    SimDuration::from_micros(x)
}

/// Fortran record I/O over PFS (the "original" SCF interface).
fn paragon_fortran() -> InterfaceCosts {
    InterfaceCosts {
        open: ms(104),
        close: ms(33),
        read_call: ms(90),
        write_call: ms(53),
        seek: ms(8),
        flush: ms(5),
    }
}

/// UNIX-style read/write/seek over PFS.
fn paragon_unix() -> InterfaceCosts {
    InterfaceCosts {
        open: ms(60),
        close: ms(30),
        read_call: ms(15),
        write_call: ms(12),
        seek: ms(2),
        flush: ms(4),
    }
}

/// PASSION direct interface over PFS.
fn paragon_passion() -> InterfaceCosts {
    InterfaceCosts {
        open: ms(34),
        close: ms(26),
        read_call: ms(44),
        write_call: ms(18),
        seek: us(420),
        flush: ms(3),
    }
}

/// The large Intel Paragon: 512 compute nodes, service partitions of 12,
/// 16 or 64 I/O nodes (select with
/// [`MachineConfig::with_io_nodes`]). Used for SCF 1.1, SCF 3.0 and AST.
pub fn paragon_large() -> MachineConfig {
    MachineConfig {
        name: "Intel Paragon (512 nodes)".into(),
        compute_nodes: 512,
        mesh: MeshDims { rows: 16, cols: 32 },
        cpu: CpuParams {
            // i860 XP peak 75 MFLOPS; ~20 sustained on real codes.
            effective_mflops: 20.0,
            copy_bandwidth_bps: 60.0e6,
        },
        mem_per_node: 32 << 20,
        io_nodes: 12,
        disks_per_io_node: 1,
        disk: DiskParams {
            per_request_overhead: ms(1),
            seek_penalty: ms(12),
            bandwidth_bps: 5.0e6,
        },
        net: NetParams {
            base_latency: us(50),
            per_hop_latency: us(1),
            bandwidth_bps: 80.0e6,
            link_contention: false,
        },
        default_stripe_unit: 64 << 10,
        fortran: paragon_fortran(),
        unix: paragon_unix(),
        passion: paragon_passion(),
        io_queue_depth: 1,
        io_node_speed: Vec::new(),
        cache: CacheParams::none(),
    }
}

/// The small Intel Paragon used for the FFT experiments: 56 compute nodes
/// in a 14×4 mesh, 2 or 4 I/O node partitions.
pub fn paragon_small() -> MachineConfig {
    MachineConfig {
        name: "Intel Paragon (56 nodes)".into(),
        compute_nodes: 56,
        mesh: MeshDims { rows: 14, cols: 4 },
        io_nodes: 2,
        ..paragon_large()
    }
}

/// UNIX-style MPI-IO over PIOFS (the base BTIO interface). Per-call costs
/// are lower than the Paragon's Fortran path, but every non-contiguous
/// chunk still pays a call plus a seek, which pins the unoptimized BTIO
/// bandwidth near 1 MB/s.
fn sp2_unix() -> InterfaceCosts {
    InterfaceCosts {
        open: ms(25),
        close: ms(12),
        read_call: ms(3),
        write_call: ms(3),
        seek: us(700),
        flush: ms(4),
    }
}

/// PASSION/two-phase run-time interface on the SP-2.
fn sp2_passion() -> InterfaceCosts {
    InterfaceCosts {
        open: ms(15),
        close: ms(8),
        read_call: ms(2),
        write_call: ms(2),
        seek: us(300),
        flush: ms(3),
    }
}

/// The IBM SP-2 used for BTIO: 80 RS/6000-390 nodes, PIOFS with four I/O
/// nodes of four 9 GB SSA disks each, 32 KB basic stripe unit.
pub fn sp2() -> MachineConfig {
    MachineConfig {
        name: "IBM SP-2 (80 nodes)".into(),
        compute_nodes: 80,
        mesh: MeshDims { rows: 8, cols: 10 },
        cpu: CpuParams {
            // POWER2 66 MHz, ~60 sustained MFLOPS on BT-like kernels.
            effective_mflops: 60.0,
            copy_bandwidth_bps: 150.0e6,
        },
        mem_per_node: 256 << 20,
        io_nodes: 4,
        disks_per_io_node: 4,
        disk: DiskParams {
            per_request_overhead: SimDuration::from_micros(1_500),
            seek_penalty: SimDuration::from_micros(3_500),
            bandwidth_bps: 2.2e6,
        },
        net: NetParams {
            // SP-2 high-performance switch; hop distance matters little.
            base_latency: us(40),
            per_hop_latency: us(0),
            bandwidth_bps: 35.0e6,
            link_contention: false,
        },
        default_stripe_unit: 32 << 10,
        fortran: paragon_fortran(), // not exercised on the SP-2
        unix: sp2_unix(),
        passion: sp2_passion(),
        io_queue_depth: 1,
        io_node_speed: Vec::new(),
        cache: CacheParams::none(),
    }
}

/// A deliberately anachronistic "modern cluster" preset — 64 nodes with
/// multi-GFLOP cores, a fat-tree-class network and NVMe-like storage —
/// for exploring whether the paper's balance conclusions survive three
/// decades of hardware scaling (they do: the ratios moved, the shape did
/// not). Not used by any paper experiment.
pub fn modern_cluster() -> MachineConfig {
    MachineConfig {
        name: "Modern cluster (64 nodes)".into(),
        compute_nodes: 64,
        mesh: MeshDims { rows: 8, cols: 8 },
        cpu: CpuParams {
            effective_mflops: 50_000.0, // 50 GFLOPS sustained
            copy_bandwidth_bps: 10.0e9,
        },
        mem_per_node: 64u64 << 30,
        io_nodes: 8,
        disks_per_io_node: 4,
        disk: DiskParams {
            per_request_overhead: us(20),
            seek_penalty: us(50), // flash: penalty is scheduling, not heads
            bandwidth_bps: 2.0e9,
        },
        net: NetParams {
            base_latency: us(2),
            per_hop_latency: SimDuration::from_nanos(100),
            bandwidth_bps: 12.0e9,
            link_contention: false,
        },
        default_stripe_unit: 1 << 20,
        fortran: InterfaceCosts {
            open: us(500),
            close: us(200),
            read_call: us(150),
            write_call: us(150),
            seek: us(5),
            flush: us(100),
        },
        unix: InterfaceCosts {
            open: us(300),
            close: us(100),
            read_call: us(30),
            write_call: us(30),
            seek: us(2),
            flush: us(50),
        },
        passion: InterfaceCosts {
            open: us(200),
            close: us(80),
            read_call: us(15),
            write_call: us(15),
            seek: us(1),
            flush: us(30),
        },
        io_queue_depth: 1,
        io_node_speed: Vec::new(),
        cache: CacheParams::none(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Interface;

    #[test]
    fn presets_validate() {
        for cfg in [paragon_large(), paragon_small(), sp2(), modern_cluster()] {
            cfg.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", cfg.name));
        }
    }

    #[test]
    fn modern_cluster_is_faster_everywhere_but_same_shaped() {
        let old = paragon_large();
        let new = modern_cluster();
        assert!(new.cpu.effective_mflops > 100.0 * old.cpu.effective_mflops);
        assert!(new.disk.bandwidth_bps > 100.0 * old.disk.bandwidth_bps);
        assert!(new.passion.read_call < old.passion.read_call);
        // The structural knobs are the same kind of machine.
        assert!(new.io_nodes < new.compute_nodes);
    }

    #[test]
    fn paragon_per_op_times_match_tables_2_and_3() {
        // Reproduce the per-op cost arithmetic from the calibration notes:
        // client call overhead + single-stripe-unit service ≈ measured.
        let m = paragon_large();
        let service =
            m.disk.service_time(68 << 10, false).as_secs_f64() + 0.85e-3 /* net */;
        let fortran_read = m.iface(Interface::Fortran).read_call.as_secs_f64() + service;
        let passion_read = m.iface(Interface::Passion).read_call.as_secs_f64() + service;
        assert!(
            (fortran_read - 0.106).abs() < 0.01,
            "fortran read {fortran_read}"
        );
        assert!(
            (passion_read - 0.0597).abs() < 0.006,
            "passion read {passion_read}"
        );
    }

    #[test]
    fn stripe_units_match_the_file_systems() {
        assert_eq!(paragon_large().default_stripe_unit, 64 << 10);
        assert_eq!(sp2().default_stripe_unit, 32 << 10);
    }

    #[test]
    fn sp2_has_four_io_nodes_with_four_disks() {
        let m = sp2();
        assert_eq!(m.io_nodes, 4);
        assert_eq!(m.disks_per_io_node, 4);
    }

    #[test]
    fn small_paragon_is_a_14_by_4_mesh() {
        let m = paragon_small();
        assert_eq!(m.mesh, MeshDims { rows: 14, cols: 4 });
        assert_eq!(m.compute_nodes, 56);
    }

    #[test]
    fn interface_cost_ordering() {
        // Fortran > UNIX > PASSION on per-call read cost (Paragon).
        let m = paragon_large();
        assert!(m.fortran.read_call > m.unix.read_call);
        assert!(m.unix.read_call < m.fortran.read_call);
        assert!(m.passion.seek < m.fortran.seek);
    }
}
