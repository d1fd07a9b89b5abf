//! BTIO — the disk-based NAS BT flow solver benchmark (paper §4.5).
//!
//! The solver advances a pseudo-time-stepping flow solution on an
//! `n × n × n` grid with 5 variables per cell, and every 5th step appends
//! the full solution array to a shared file. BT runs on `P = q²`
//! processes with a **multipartition** decomposition: the grid is a
//! `q × q × q` grid of cells and each process owns `q` cells along a
//! diagonal. The file is laid out x-fastest, so each process's data
//! decomposes into `q · (n/q)²` short runs of `(n/q) · 40` bytes.
//!
//! - **Unoptimized** (UNIX-style MPI-IO): every run is its own
//!   seek + write — "if a node needs 12 chunks of data, it will issue 12
//!   separate I/O calls". Total calls per dump grow as `q · n²`, which
//!   pins the aggregate bandwidth near 1 MB/s (Figure 7) and makes the
//!   I/O time erratic in P (Figure 6a).
//! - **Optimized**: two-phase collective I/O — the solution vector is
//!   described as a whole ("completely described using MPI data types"),
//!   exchanged to a conforming partition, and written with one large
//!   sequential call per process.

use std::cell::RefCell;
use std::rc::Rc;

use iosim_buf::BytesList;
use iosim_core::two_phase::{write_collective, Piece};
use iosim_machine::{presets, Interface, MachineConfig};
use iosim_pfs::{CreateOptions, IoRequest};

use crate::common::{run_ranks, AppCtx, RunResult};

/// Bytes per grid cell: 5 solution variables of `f64`.
const CELL: u64 = 40;

/// NAS problem classes used in the paper's Figures 6–7 (Class C added
/// for completeness with the NAS 2.x definitions).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BtClass {
    /// 64³ grid — 408.9 MB of I/O over 40 dumps.
    A,
    /// 102³ grid.
    B,
    /// 162³ grid.
    C,
    /// Custom grid size (tests).
    Custom(u64),
}

impl BtClass {
    /// Grid dimension.
    pub fn n(self) -> u64 {
        match self {
            BtClass::A => 64,
            BtClass::B => 102,
            BtClass::C => 162,
            BtClass::Custom(n) => n,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BtClass::A => "Class A",
            BtClass::B => "Class B",
            BtClass::C => "Class C",
            BtClass::Custom(_) => "Custom",
        }
    }
}

/// BTIO configuration.
#[derive(Clone, Debug)]
pub struct BtioConfig {
    /// Problem class.
    pub class: BtClass,
    /// Number of processes; must be a perfect square (1, 4, 9, …, 64).
    pub procs: usize,
    /// Two-phase collective I/O.
    pub optimized: bool,
    /// Solution dumps (the paper's Class A writes 40).
    pub dumps: u32,
    /// Time steps between dumps.
    pub steps_per_dump: u32,
    /// Read the last dump back after the run and (in stored mode) verify
    /// it — the BTIO specification's verification step.
    pub verify: bool,
    /// Carry real bytes (small grids only).
    pub stored: bool,
    /// Per-I/O-node LRU buffer cache in MB (0 = uncached).
    pub cache_mb: u64,
    /// I/O-node command-queue depth (1 = the paper's FIFO disk queue).
    pub queue_depth: usize,
    /// I/O-node count (the SP-2 preset ships 4; the hint engine sweeps it).
    pub io_nodes: usize,
}

impl BtioConfig {
    /// Defaults matching the paper's SP-2 runs.
    pub fn new(class: BtClass, procs: usize, optimized: bool) -> BtioConfig {
        let q = (procs as f64).sqrt() as usize;
        assert_eq!(q * q, procs, "BT needs a square process count");
        BtioConfig {
            class,
            procs,
            optimized,
            dumps: 40,
            steps_per_dump: 5,
            verify: false,
            stored: false,
            cache_mb: 0,
            queue_depth: 1,
            io_nodes: presets::sp2().io_nodes,
        }
    }

    /// Bytes written per dump (the full solution array).
    pub fn dump_bytes(&self) -> u64 {
        let n = self.class.n();
        n * n * n * CELL
    }

    /// Total bytes written.
    pub fn total_bytes(&self) -> u64 {
        self.dump_bytes() * self.dumps as u64
    }

    fn machine(&self) -> MachineConfig {
        crate::common::with_queue_depth(
            crate::common::with_cache_mb(
                presets::sp2()
                    .with_compute_nodes(self.procs.max(1))
                    .with_io_nodes(self.io_nodes.max(1)),
                self.cache_mb,
            ),
            self.queue_depth,
        )
    }
}

/// BT solve cost per cell per time step, in FLOPs (block-tridiagonal
/// solves in three dimensions). Calibrated so the 46% / 49% exec-time
/// reductions of §4.5 land in band on the 60 MFLOPS SP-2 nodes.
pub const FLOPS_PER_CELL_STEP: f64 = 15_000.0;

/// Split `n` into `q` extents (remainder to the low indices); returns
/// `(start, len)` per index.
pub fn extents(n: u64, q: u64) -> Vec<(u64, u64)> {
    let base = n / q;
    let rem = n % q;
    let mut out = Vec::with_capacity(q as usize);
    let mut start = 0;
    for i in 0..q {
        let len = base + u64::from(i < rem);
        out.push((start, len));
        start += len;
    }
    out
}

/// The `q` cells (cx, cy, cz) owned by process `(i, j)` in the BT
/// multipartition: one cell per z-slab, shifting diagonally.
pub fn owned_cells(i: u64, j: u64, q: u64) -> Vec<(u64, u64, u64)> {
    (0..q).map(|k| ((i + k) % q, (j + k) % q, k)).collect()
}

/// Deterministic solution value for (x, y, z, var) at a given dump.
pub fn cell_value(x: u64, y: u64, z: u64, var: u64, dump: u32) -> f64 {
    let h = x
        .wrapping_mul(73)
        .wrapping_add(y.wrapping_mul(1009))
        .wrapping_add(z.wrapping_mul(3511))
        .wrapping_add(var.wrapping_mul(29))
        .wrapping_add(dump as u64 * 65537);
    (h % 100_000) as f64 / 1000.0 - 50.0
}

/// Run BTIO and return the measurements.
pub fn run(cfg: &BtioConfig) -> RunResult {
    let cfg2 = cfg.clone();
    run_ranks(cfg.machine(), cfg.procs, move |ctx| {
        let cfg = cfg2.clone();
        Box::pin(async move {
            rank_program(ctx, cfg).await;
        })
    })
}

/// Run BTIO and capture the final file contents (stored mode, for
/// functional verification that optimized and unoptimized runs produce
/// identical files).
pub fn run_capture(cfg: &BtioConfig) -> (RunResult, BytesList) {
    assert!(cfg.stored, "capture needs stored files");
    let captured: Rc<RefCell<BytesList>> = Rc::new(RefCell::new(BytesList::new()));
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
                    .open(0, Interface::UnixStyle, "btio.solution", None)
                    .await
                    .expect("reopen solution");
                let data = fh.read_rope_at(0, total).await.expect("read solution");
                *cap.borrow_mut() = data;
            }
        })
    });
    let b = captured.borrow().clone();
    (res, b)
}

/// Run one rank's BTIO program against an externally built context — for
/// studies on customized machines.
pub async fn rank_program_on(ctx: AppCtx, cfg: BtioConfig) {
    rank_program(ctx, cfg).await;
}

async fn rank_program(ctx: AppCtx, cfg: BtioConfig) {
    let n = cfg.class.n();
    let q = (cfg.procs as f64).sqrt() as u64;
    let (i, j) = ((ctx.rank as u64) % q, (ctx.rank as u64) / q);
    let ext = extents(n, q);
    let cells = owned_cells(i, j, q);
    let iface = if cfg.optimized {
        Interface::Passion
    } else {
        Interface::UnixStyle
    };
    let fh = ctx
        .fs
        .open(
            ctx.rank,
            iface,
            "btio.solution",
            Some(CreateOptions {
                stored: cfg.stored,
                ..Default::default()
            }),
        )
        .await
        .expect("open solution file");

    let my_cells: u64 = cells
        .iter()
        .map(|&(cx, cy, cz)| ext[cx as usize].1 * ext[cy as usize].1 * ext[cz as usize].1)
        .sum();
    let flops_per_step = my_cells as f64 * FLOPS_PER_CELL_STEP;

    for dump in 0..cfg.dumps {
        // Solve steps between dumps.
        for _ in 0..cfg.steps_per_dump {
            ctx.machine.compute(flops_per_step).await;
        }
        let base = dump as u64 * cfg.dump_bytes();
        if cfg.optimized {
            dump_collective(&ctx, &cfg, &fh, &ext, &cells, base, dump).await;
        } else {
            dump_direct(&cfg, &fh, &ext, &cells, base, dump).await;
        }
    }
    // ---- Verification: read the last dump back. ----
    if cfg.verify && cfg.dumps > 0 {
        ctx.comm.barrier().await;
        let dump = cfg.dumps - 1;
        let base = (dump as u64) * cfg.dump_bytes();
        if cfg.optimized {
            let mut spans = Vec::new();
            for &(cx, cy, cz) in &cells {
                let (x0, xl) = ext[cx as usize];
                let (y0, yl) = ext[cy as usize];
                let (z0, zl) = ext[cz as usize];
                for z in z0..z0 + zl {
                    for y in y0..y0 + yl {
                        spans.push(iosim_core::two_phase::Span::new(
                            base + run_offset(n, x0, y, z),
                            xl * CELL,
                        ));
                    }
                }
            }
            let (got, _) = iosim_core::two_phase::read_collective(&ctx.comm, &fh, spans)
                .await
                .expect("collective verify read");
            if cfg.stored {
                let mut idx = 0usize;
                for &(cx, cy, cz) in &cells {
                    let (x0, xl) = ext[cx as usize];
                    let (y0, yl) = ext[cy as usize];
                    let (z0, zl) = ext[cz as usize];
                    for z in z0..z0 + zl {
                        for y in y0..y0 + yl {
                            let want = run_bytes_payload(&cfg, x0, xl, y, z, dump).expect("stored");
                            assert_eq!(
                                got[idx].data.as_ref().expect("stored read"),
                                &want,
                                "verification mismatch at (y={y}, z={z})"
                            );
                            idx += 1;
                        }
                    }
                }
            }
        } else {
            // Independent verification: all of this rank's x-runs as one
            // vectored request (UNIX-style interfaces degenerate to the
            // per-fragment loop; the request is the currency either way).
            let mut req = IoRequest::default();
            let mut runs = Vec::new();
            for &(cx, cy, cz) in &cells {
                let (x0, xl) = ext[cx as usize];
                let (y0, yl) = ext[cy as usize];
                let (z0, zl) = ext[cz as usize];
                for z in z0..z0 + zl {
                    for y in y0..y0 + yl {
                        req.push(base + run_offset(n, x0, y, z), xl * CELL);
                        runs.push((x0, xl, y, z));
                    }
                }
            }
            if cfg.stored {
                let got = fh.readv(&req).await.expect("verify read");
                let mut cursor = 0usize;
                for (x0, xl, y, z) in runs {
                    let want = run_bytes_payload(&cfg, x0, xl, y, z, dump).expect("stored");
                    assert_eq!(
                        &got[cursor..cursor + want.len()],
                        &want[..],
                        "verification mismatch at (y={y}, z={z})"
                    );
                    cursor += want.len();
                }
            } else {
                fh.readv_discard(&req).await.expect("verify read");
            }
        }
    }
    ctx.comm.barrier().await;
    fh.close().await;
}

/// One x-run: offset of `(x0, y, z)` and its byte length.
fn run_offset(n: u64, x0: u64, y: u64, z: u64) -> u64 {
    ((z * n + y) * n + x0) * CELL
}

fn run_bytes_payload(
    cfg: &BtioConfig,
    x0: u64,
    xlen: u64,
    y: u64,
    z: u64,
    dump: u32,
) -> Option<Vec<u8>> {
    if !cfg.stored {
        return None;
    }
    let mut out = Vec::with_capacity((xlen * CELL) as usize);
    for x in x0..x0 + xlen {
        for var in 0..5 {
            out.extend_from_slice(&cell_value(x, y, z, var, dump).to_le_bytes());
        }
    }
    Some(out)
}

/// Unoptimized dump: one seek + write per x-run of each owned cell.
async fn dump_direct(
    cfg: &BtioConfig,
    fh: &iosim_pfs::FileHandle,
    ext: &[(u64, u64)],
    cells: &[(u64, u64, u64)],
    base: u64,
    dump: u32,
) {
    let n = cfg.class.n();
    for &(cx, cy, cz) in cells {
        let (x0, xl) = ext[cx as usize];
        let (y0, yl) = ext[cy as usize];
        let (z0, zl) = ext[cz as usize];
        for z in z0..z0 + zl {
            for y in y0..y0 + yl {
                let off = base + run_offset(n, x0, y, z);
                fh.seek(off).await;
                match run_bytes_payload(cfg, x0, xl, y, z, dump) {
                    Some(bytes) => fh.write(bytes).await.expect("write run"),
                    None => fh.write_discard(xl * CELL).await.expect("write run"),
                }
            }
        }
    }
}

/// Optimized dump: describe all runs as pieces and write collectively.
async fn dump_collective(
    ctx: &AppCtx,
    cfg: &BtioConfig,
    fh: &iosim_pfs::FileHandle,
    ext: &[(u64, u64)],
    cells: &[(u64, u64, u64)],
    base: u64,
    dump: u32,
) {
    let n = cfg.class.n();
    let mut pieces = Vec::new();
    for &(cx, cy, cz) in cells {
        let (x0, xl) = ext[cx as usize];
        let (y0, yl) = ext[cy as usize];
        let (z0, zl) = ext[cz as usize];
        for z in z0..z0 + zl {
            for y in y0..y0 + yl {
                let off = base + run_offset(n, x0, y, z);
                match run_bytes_payload(cfg, x0, xl, y, z, dump) {
                    Some(bytes) => pieces.push(Piece::bytes(off, bytes)),
                    None => pieces.push(Piece::synthetic(off, xl * CELL)),
                }
            }
        }
    }
    write_collective(&ctx.comm, fh, pieces)
        .await
        .expect("collective dump");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(procs: usize, optimized: bool) -> BtioConfig {
        BtioConfig {
            dumps: 3,
            ..BtioConfig::new(BtClass::Custom(16), procs, optimized)
        }
    }

    #[test]
    fn extents_cover_exactly() {
        for (n, q) in [(64u64, 6u64), (102, 7), (16, 4), (5, 5)] {
            let e = extents(n, q);
            assert_eq!(e.len(), q as usize);
            let total: u64 = e.iter().map(|&(_, l)| l).sum();
            assert_eq!(total, n);
            assert_eq!(e[0].0, 0);
        }
    }

    #[test]
    fn multipartition_tiles_every_cell_once() {
        let q = 4u64;
        let mut seen = vec![false; (q * q * q) as usize];
        for i in 0..q {
            for j in 0..q {
                for (cx, cy, cz) in owned_cells(i, j, q) {
                    let idx = ((cz * q + cy) * q + cx) as usize;
                    assert!(!seen[idx], "cell ({cx},{cy},{cz}) owned twice");
                    seen[idx] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn optimized_and_unoptimized_files_are_identical() {
        let mut u = small(4, false);
        u.stored = true;
        u.dumps = 2;
        let mut o = small(4, true);
        o.stored = true;
        o.dumps = 2;
        let (_ru, fu) = run_capture(&u);
        let (_ro, fo) = run_capture(&o);
        assert_eq!(fu.len(), fo.len());
        assert_eq!(fu, fo, "two-phase I/O must write the same bytes");
        assert!(!fu.is_empty());
    }

    #[test]
    fn two_phase_slashes_io_calls_and_seeks() {
        let u = run(&small(9, false));
        let o = run(&small(9, true));
        let u_seeks = u.summary.rows[2].count;
        let o_seeks = o.summary.rows[2].count;
        assert!(
            u_seeks > 50 * o_seeks.max(1),
            "unopt seeks {u_seeks} vs opt {o_seeks}"
        );
        let u_writes = u.summary.rows[3].count;
        let o_writes = o.summary.rows[3].count;
        assert!(
            u_writes > 10 * o_writes,
            "unopt writes {u_writes} vs opt {o_writes}"
        );
    }

    #[test]
    fn optimized_reduces_execution_time() {
        let u = run(&small(16, false));
        let o = run(&small(16, true));
        assert!(
            o.exec_time < u.exec_time,
            "two-phase {:?} should beat direct {:?}",
            o.exec_time,
            u.exec_time
        );
    }

    #[test]
    fn optimized_bandwidth_is_much_higher() {
        let u = run(&small(16, false));
        let o = run(&small(16, true));
        assert!(
            o.bandwidth_mb_s() > 4.0 * u.bandwidth_mb_s(),
            "opt {} MB/s vs unopt {} MB/s",
            o.bandwidth_mb_s(),
            u.bandwidth_mb_s()
        );
    }

    #[test]
    fn class_sizes_follow_nas_definitions() {
        assert_eq!(BtClass::A.n(), 64);
        assert_eq!(BtClass::B.n(), 102);
        assert_eq!(BtClass::C.n(), 162);
        // Class A total: 64³ × 40 B × 40 dumps ≈ 419 MB (paper: 408.9).
        let cfg = BtioConfig::new(BtClass::A, 4, false);
        let mb = cfg.total_bytes() as f64 / 1e6;
        assert!((380.0..440.0).contains(&mb), "{mb} MB");
    }

    #[test]
    fn unoptimized_call_count_follows_the_multipartition_formula() {
        // Per dump: q·n² x-runs, each a seek + write.
        let cfg = small(9, false); // q = 3, n = 16, dumps = 3
        let r = run(&cfg);
        let expect = 3 * 3 * 16 * 16; // dumps × q × n²
        assert_eq!(r.summary.rows[3].count, expect);
        assert_eq!(r.summary.rows[2].count, expect);
    }

    #[test]
    fn verification_reads_the_last_dump_and_matches() {
        for optimized in [false, true] {
            let mut cfg = small(4, optimized);
            cfg.stored = true;
            cfg.verify = true;
            cfg.dumps = 2;
            // The rank programs assert data equality; completing the run
            // is the verification.
            let r = run(&cfg);
            assert_eq!(
                r.summary.rows[1].bytes,
                cfg.dump_bytes(),
                "verify phase must read exactly one dump (optimized={optimized})"
            );
        }
    }

    #[test]
    fn dump_volume_matches_formula() {
        let cfg = small(4, true);
        let res = run(&cfg);
        assert_eq!(res.io_bytes, cfg.total_bytes());
        assert_eq!(cfg.dump_bytes(), 16 * 16 * 16 * 40);
    }

    #[test]
    #[should_panic(expected = "square process count")]
    fn non_square_procs_rejected() {
        let _ = BtioConfig::new(BtClass::A, 10, false);
    }
}
