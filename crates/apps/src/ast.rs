//! AST — astrophysics convection/collapse simulation (paper §4.6).
//!
//! The application advances several distributed 2-D arrays (densities,
//! velocities, gravitational potential) and, at fixed dump points, writes
//! them all to **one shared file in column-major order** for
//! check-pointing, data analysis and visualization.
//!
//! - **Unoptimized**: I/O goes through a Chameleon-style portable I/O
//!   library — each process writes its own fragments of every column as
//!   "small non-contiguous chunks", each chunk paying the library's heavy
//!   (Fortran-record-class) per-call software cost plus a seek. With a
//!   2-D block decomposition a process owns `g/√P` fragments per column
//!   strip, so the per-process call count shrinks only as `1/√P` while
//!   chunks get smaller — I/O stays dominant at every processor count
//!   (Table 4's unoptimized column).
//! - **Optimized**: the run-time two-phase collective I/O library
//!   assembles conforming contiguous regions and writes each array with
//!   one call per process (Table 4's optimized column).
//!
//! Modelling note (see EXPERIMENTS.md): the paper also mentions a
//! single-node bottleneck inside Chameleon; we model the library's
//! per-chunk software cost and contention instead, which reproduces the
//! optimized/unoptimized gap and its scaling shape. Compute is calibrated
//! to ~6,000 cumulative processor-seconds (2048² input).

use std::rc::Rc;

use iosim_buf::BytesList;
use iosim_core::two_phase::{write_collective, Piece};
use iosim_machine::{presets, Interface, MachineConfig};
use iosim_pfs::{CreateOptions, IoRequest};

use crate::common::{run_ranks, AppCtx, RunResult};

/// AST configuration.
#[derive(Clone, Debug)]
pub struct AstConfig {
    /// Grid dimension (g × g per array); the paper's "reasonably large"
    /// input is 2K × 2K.
    pub grid: u64,
    /// Number of distributed arrays dumped (density, velocities,
    /// potential, …).
    pub arrays: u32,
    /// Number of processes (a perfect square for the 2-D block split).
    pub procs: usize,
    /// Number of I/O nodes (paper: 16 and 64).
    pub io_nodes: usize,
    /// Two-phase collective I/O.
    pub optimized: bool,
    /// Dump points (check-point + analysis + visualization writes).
    pub dumps: u32,
    /// Restart from the last checkpoint after the dumps: the application
    /// becomes read-intensive (paper: "when there is a restart … it
    /// becomes read-intensive"). Reads use the same path (direct or
    /// collective) as the writes.
    pub restart: bool,
    /// Carry real bytes (small grids only).
    pub stored: bool,
    /// Per-I/O-node LRU buffer cache in MB (0 = uncached).
    pub cache_mb: u64,
    /// I/O-node command-queue depth (1 = the paper's FIFO disk queue).
    pub queue_depth: usize,
}

impl AstConfig {
    /// Defaults matching the paper's Table 4 setup.
    pub fn new(procs: usize, io_nodes: usize, optimized: bool) -> AstConfig {
        let q = (procs as f64).sqrt() as usize;
        assert_eq!(q * q, procs, "AST uses a square process grid");
        AstConfig {
            grid: 2048,
            arrays: 4,
            procs,
            io_nodes,
            optimized,
            dumps: 10,
            restart: false,
            stored: false,
            cache_mb: 0,
            queue_depth: 1,
        }
    }

    /// Bytes written per dump (all arrays).
    pub fn dump_bytes(&self) -> u64 {
        self.grid * self.grid * 8 * self.arrays as u64
    }

    /// Total bytes written over the run.
    pub fn total_bytes(&self) -> u64 {
        self.dump_bytes() * self.dumps as u64
    }

    fn machine(&self) -> MachineConfig {
        crate::common::with_queue_depth(
            crate::common::with_cache_mb(
                presets::paragon_large()
                    .with_compute_nodes(self.procs.max(1))
                    .with_io_nodes(self.io_nodes),
                self.cache_mb,
            ),
            self.queue_depth,
        )
    }
}

/// Total solver compute for the 2048² input, in FLOPs (PPM hydrodynamics
/// plus multigrid Poisson solves between dump points): ~6,000 cumulative
/// processor-seconds on 20 MFLOPS nodes, scaled by grid area.
pub fn total_flops(grid: u64, dumps: u32) -> f64 {
    let base = 6_000.0 * 20.0e6; // 2048² reference
    base * (grid as f64 * grid as f64) / (2048.0 * 2048.0) * (dumps as f64 / 10.0)
}

/// Deterministic array value at `(r, c)` of array `a` at dump `d`.
pub fn cell_value(a: u32, r: u64, c: u64, d: u32) -> f64 {
    let h = r
        .wrapping_mul(2654435761)
        .wrapping_add(c.wrapping_mul(40503))
        .wrapping_add((a as u64) << 32)
        .wrapping_add(d as u64 * 97);
    (h % 1_000_000) as f64 / 500_000.0 - 1.0
}

/// Run AST and return the measurements.
pub fn run(cfg: &AstConfig) -> RunResult {
    let cfg2 = cfg.clone();
    run_ranks(cfg.machine(), cfg.procs, move |ctx| {
        let cfg = cfg2.clone();
        Box::pin(async move {
            rank_program(ctx, cfg).await;
        })
    })
}

/// Run AST and capture the final shared file (stored mode). The capture
/// is a rope of shared extent views — reading it back copies nothing.
pub fn run_capture(cfg: &AstConfig) -> (RunResult, BytesList) {
    assert!(cfg.stored, "capture needs stored files");
    let captured: Rc<std::cell::RefCell<BytesList>> =
        Rc::new(std::cell::RefCell::new(BytesList::new()));
    let cap2 = Rc::clone(&captured);
    let cfg2 = cfg.clone();
    let res = run_ranks(cfg.machine(), cfg.procs, move |ctx| {
        let cfg = cfg2.clone();
        let cap = Rc::clone(&cap2);
        Box::pin(async move {
            let rank = ctx.rank;
            let fs = Rc::clone(&ctx.fs);
            let total = cfg.total_bytes();
            rank_program(ctx, cfg).await;
            if rank == 0 {
                let fh = fs
                    .open(0, Interface::UnixStyle, "ast.dump", None)
                    .await
                    .expect("reopen dump file");
                *cap.borrow_mut() = fh.read_rope_at(0, total).await.expect("read dump file");
            }
        })
    });
    let out = captured.borrow().clone();
    (res, out)
}

/// Run one rank's AST program against an externally built context — for
/// studies on customized machines.
pub async fn rank_program_on(ctx: AppCtx, cfg: AstConfig) {
    rank_program(ctx, cfg).await;
}

async fn rank_program(ctx: AppCtx, cfg: AstConfig) {
    let g = cfg.grid;
    let q = (cfg.procs as f64).sqrt() as u64;
    let (pi, pj) = ((ctx.rank as u64) % q, (ctx.rank as u64) / q);
    // 2-D block split: rows [r0, r1) × cols [c0, c1).
    let split = |i: u64| -> (u64, u64) {
        let base = g / q;
        let rem = g % q;
        let lo = i * base + i.min(rem);
        (lo, lo + base + u64::from(i < rem))
    };
    let (r0, r1) = split(pi);
    let (c0, c1) = split(pj);
    // The unoptimized path uses the Chameleon-style library (heavy
    // Fortran-record-class per-call cost); the optimized path uses the
    // two-phase run-time library.
    let iface = if cfg.optimized {
        Interface::Passion
    } else {
        Interface::Fortran
    };
    let fh = ctx
        .fs
        .open(
            ctx.rank,
            iface,
            "ast.dump",
            Some(CreateOptions {
                stored: cfg.stored,
                ..Default::default()
            }),
        )
        .await
        .expect("open dump file");

    let flops_per_dump = total_flops(g, cfg.dumps) / cfg.dumps as f64 / cfg.procs as f64;
    let array_bytes = g * g * 8;
    for dump in 0..cfg.dumps {
        // Advance the solution to the next dump point.
        ctx.machine.compute(flops_per_dump).await;
        let dump_base = dump as u64 * cfg.dump_bytes();
        for a in 0..cfg.arrays {
            let base = dump_base + a as u64 * array_bytes;
            // Column-major array: my fragment of column c is rows
            // [r0, r1) — one contiguous run of (r1-r0)*8 bytes.
            if cfg.optimized {
                let mut pieces = Vec::with_capacity((c1 - c0) as usize);
                for c in c0..c1 {
                    let off = base + (c * g + r0) * 8;
                    let len = (r1 - r0) * 8;
                    pieces.push(match fragment(&cfg, a, r0, r1, c, dump) {
                        Some(bytes) => Piece::bytes(off, bytes),
                        None => Piece::synthetic(off, len),
                    });
                }
                write_collective(&ctx.comm, &fh, pieces)
                    .await
                    .expect("collective dump");
            } else {
                for c in c0..c1 {
                    let off = base + (c * g + r0) * 8;
                    fh.seek(off).await;
                    match fragment(&cfg, a, r0, r1, c, dump) {
                        Some(bytes) => fh.write(bytes).await.expect("write fragment"),
                        None => fh
                            .write_discard((r1 - r0) * 8)
                            .await
                            .expect("write fragment"),
                    }
                }
            }
        }
    }
    // ---- Restart: read my fragments of the last checkpoint back. ----
    if cfg.restart && cfg.dumps > 0 {
        ctx.comm.barrier().await;
        let dump = cfg.dumps - 1;
        let dump_base = dump as u64 * cfg.dump_bytes();
        for a in 0..cfg.arrays {
            let base = dump_base + a as u64 * array_bytes;
            if cfg.optimized {
                let spans: Vec<iosim_core::two_phase::Span> = (c0..c1)
                    .map(|c| {
                        iosim_core::two_phase::Span::new(base + (c * g + r0) * 8, (r1 - r0) * 8)
                    })
                    .collect();
                let (got, _) = iosim_core::two_phase::read_collective(&ctx.comm, &fh, spans)
                    .await
                    .expect("collective restart read");
                if cfg.stored {
                    for (ci, p) in got.iter().enumerate() {
                        let c = c0 + ci as u64;
                        let want = fragment(&cfg, a, r0, r1, c, dump).expect("stored");
                        assert_eq!(
                            p.data.as_ref().expect("stored read"),
                            &want,
                            "restart data mismatch at array {a} column {c}"
                        );
                    }
                }
            } else {
                // All of my column fragments of this array as one
                // vectored request (the Chameleon-class interface still
                // degenerates to a per-fragment loop).
                let len = (r1 - r0) * 8;
                let req = IoRequest::strided(base + (c0 * g + r0) * 8, len, g * 8, c1 - c0);
                if cfg.stored {
                    let got = fh.readv(&req).await.expect("restart read");
                    for (ci, chunk) in got.chunks_exact(len as usize).enumerate() {
                        let c = c0 + ci as u64;
                        let want = fragment(&cfg, a, r0, r1, c, dump).expect("stored");
                        assert_eq!(chunk, &want[..], "restart data mismatch");
                    }
                } else {
                    fh.readv_discard(&req).await.expect("restart read");
                }
            }
        }
    }
    ctx.comm.barrier().await;
    fh.close().await;
}

fn fragment(cfg: &AstConfig, a: u32, r0: u64, r1: u64, c: u64, dump: u32) -> Option<Vec<u8>> {
    if !cfg.stored {
        return None;
    }
    let mut out = Vec::with_capacity(((r1 - r0) * 8) as usize);
    for r in r0..r1 {
        out.extend_from_slice(&cell_value(a, r, c, dump).to_le_bytes());
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(procs: usize, optimized: bool) -> AstConfig {
        AstConfig {
            grid: 64,
            arrays: 2,
            dumps: 2,
            ..AstConfig::new(procs, 16, optimized)
        }
    }

    #[test]
    fn optimized_and_unoptimized_files_are_identical() {
        let mut u = small(4, false);
        u.stored = true;
        let mut o = small(4, true);
        o.stored = true;
        let (_ru, fu) = run_capture(&u);
        let (_ro, fo) = run_capture(&o);
        assert_eq!(fu.len(), fo.len());
        assert_eq!(fu, fo, "collective dump must write the same bytes");
        // Spot-check one value.
        let flat = fu.flatten();
        let g = 64u64;
        let off = ((5 * g + 3) * 8) as usize; // array 0, dump 0, col 5, row 3
        let v = f64::from_le_bytes(flat[off..off + 8].try_into().unwrap());
        assert_eq!(v, cell_value(0, 3, 5, 0));
    }

    #[test]
    fn two_phase_gives_a_large_speedup() {
        let u = run(&small(16, false));
        let o = run(&small(16, true));
        assert!(
            o.exec_time.as_secs_f64() < u.exec_time.as_secs_f64() / 3.0,
            "optimized {:?} should be ≫ faster than {:?}",
            o.exec_time,
            u.exec_time
        );
    }

    #[test]
    fn unoptimized_issues_one_call_per_column_fragment() {
        let cfg = small(4, false);
        let r = run(&cfg);
        // 4 procs × 32 owned cols × 2 arrays × 2 dumps fragments.
        let expect = 4 * 32 * 2 * 2;
        assert_eq!(r.summary.rows[3].count, expect);
        assert_eq!(r.summary.rows[2].count, expect); // one seek each
    }

    #[test]
    fn optimized_write_calls_scale_with_procs_not_columns() {
        let r = run(&small(16, true));
        // ≤ one write per proc per array per dump (plus none elsewhere).
        let max_writes = 16 * 2 * 2;
        assert!(
            r.summary.rows[3].count <= max_writes,
            "writes {} > {max_writes}",
            r.summary.rows[3].count
        );
    }

    #[test]
    fn more_io_nodes_matter_less_than_the_software_fix() {
        let u16 = run(&small(16, false));
        let mut cfg64 = small(16, false);
        cfg64.io_nodes = 64;
        let u64n = run(&cfg64);
        let o16 = run(&small(16, true));
        let hw_gain = u16.exec_time.as_secs_f64() / u64n.exec_time.as_secs_f64();
        let sw_gain = u16.exec_time.as_secs_f64() / o16.exec_time.as_secs_f64();
        assert!(
            sw_gain > 2.0 * hw_gain,
            "software gain {sw_gain} should dwarf hardware gain {hw_gain}"
        );
    }

    #[test]
    fn volume_is_preserved_across_versions() {
        let u = run(&small(4, false));
        let o = run(&small(4, true));
        assert_eq!(u.io_bytes, small(4, false).total_bytes());
        assert_eq!(o.io_bytes, u.io_bytes);
    }

    #[test]
    fn restart_reads_back_the_checkpoint() {
        for optimized in [false, true] {
            let mut cfg = small(4, optimized);
            cfg.stored = true;
            cfg.restart = true;
            // The rank programs assert the restart data matches the last
            // dump; a completed run is the verification.
            let r = run(&cfg);
            // Restart adds a read-intensive phase.
            assert!(
                r.summary.rows[1].bytes >= cfg.dump_bytes(),
                "restart must read at least one full dump: {} bytes",
                r.summary.rows[1].bytes
            );
        }
    }

    #[test]
    fn restart_makes_the_run_read_intensive() {
        let mut cfg = small(4, false);
        cfg.restart = true;
        let r = run(&cfg);
        let reads = r.summary.rows[1];
        assert!(reads.count > 0);
        assert_eq!(reads.bytes, cfg.dump_bytes());
    }

    #[test]
    fn flops_scale_with_grid_area() {
        assert!(total_flops(2048, 10) > 0.0);
        let small_g = total_flops(1024, 10);
        let big_g = total_flops(2048, 10);
        assert!((big_g / small_g - 4.0).abs() < 1e-9);
    }
}
