//! 2-D out-of-core FFT (paper §4.4) — the file-layout optimization.
//!
//! Three steps over two disk-resident `n × n` complex arrays:
//!
//! 1. 1-D FFTs on the columns of `A` (column panels; contiguous, since
//!    `A` is column-major),
//! 2. an out-of-core transpose `B ← Aᵀ`,
//! 3. 1-D FFT pass over `B`.
//!
//! **Unoptimized** (both files column-major): in the transpose, reading a
//! tile of `A` wants tall tiles while writing its transpose into
//! column-major `B` wants wide ones — "optimizing the block dimension for
//! one array has a negative impact on the other". The best compromise is
//! square-ish memory-bounded tiles costing `tile_w + tile_r` I/O calls
//! per tile, and once per-process column strips get narrower than the
//! memory-square side, the total call count *grows with the number of
//! processes* — reproducing Figure 5's rising I/O time.
//!
//! **Optimized** (`B` row-major, per reference \[7\]): tall panels are
//! conforming for both sides — one read and one write per panel — and
//! step 3 scans `B` along its stored (contiguous) direction, four-step
//! FFT style. The physical reorder cost is accounted in the in-memory
//! panel transpose. (See DESIGN.md: the functional 2-D FFT check runs on
//! the unoptimized pipeline; the optimized pipeline's functional check
//! verifies the transpose content byte-for-byte.)

use std::rc::Rc;

use iosim_buf::Bytes;
use iosim_core::ooc::{FileLayout, OocArray};
use iosim_machine::{presets, Interface, MachineConfig};

use crate::common::{run_ranks, AppCtx, RunResult};
use crate::dsp;

/// Complex element size (two little-endian `f64`s).
const CPX: u64 = 16;

/// FFT application configuration.
#[derive(Clone, Debug)]
pub struct FftConfig {
    /// Matrix dimension (n × n complex elements); a power of two.
    pub n: u64,
    /// Number of processes.
    pub procs: usize,
    /// Number of I/O nodes (the paper uses 2 and 4 on the small Paragon).
    pub io_nodes: usize,
    /// File-layout optimization: store `B` row-major.
    pub optimized: bool,
    /// Carry real data (small n only) instead of timing-only files.
    pub stored: bool,
    /// Per-process tile memory in bytes.
    pub mem_per_proc: u64,
    /// Run only the fill + transpose (for functional transpose checks).
    pub transpose_only: bool,
    /// Per-I/O-node LRU buffer cache in MB (0 = uncached, the paper's
    /// baseline machine).
    pub cache_mb: u64,
    /// I/O-node command-queue depth (1 = the paper's FIFO disk queue).
    pub queue_depth: usize,
}

impl FftConfig {
    /// Defaults matching the paper's small-Paragon experiment.
    pub fn new(n: u64, procs: usize, optimized: bool) -> FftConfig {
        assert!(n.is_power_of_two(), "n must be a power of two");
        FftConfig {
            n,
            procs,
            io_nodes: 2,
            optimized,
            stored: false,
            mem_per_proc: 16 << 20,
            transpose_only: false,
            cache_mb: 0,
            queue_depth: 1,
        }
    }

    /// Total bytes moved by the full pipeline (each step reads and writes
    /// the whole array): `6 · n² · 16`. The paper's configuration moves
    /// ~1.5 GB, i.e. n = 4096.
    pub fn total_io_bytes(&self) -> u64 {
        6 * self.n * self.n * CPX
    }

    fn machine(&self) -> MachineConfig {
        crate::common::with_queue_depth(
            crate::common::with_cache_mb(
                presets::paragon_small()
                    .with_compute_nodes(self.procs)
                    .with_io_nodes(self.io_nodes),
                self.cache_mb,
            ),
            self.queue_depth,
        )
    }

    /// Column range owned by `rank` (block partition with remainder
    /// spread over the low ranks).
    pub fn owned_cols(&self, rank: usize) -> (u64, u64) {
        let p = self.procs as u64;
        let r = rank as u64;
        let base = self.n / p;
        let rem = self.n % p;
        let lo = r * base + r.min(rem);
        let hi = lo + base + u64::from(r < rem);
        (lo, hi)
    }
}

/// Deterministic input value for element `(r, c)`.
pub fn input_value(r: u64, c: u64) -> (f64, f64) {
    let x = (r.wrapping_mul(31).wrapping_add(c.wrapping_mul(17)) % 101) as f64;
    let y = (r.wrapping_add(c).wrapping_mul(7) % 89) as f64;
    (x / 101.0 - 0.5, y / 89.0 - 0.5)
}

/// Run the FFT and return the measurements.
pub fn run(cfg: &FftConfig) -> RunResult {
    let cfg2 = cfg.clone();
    run_ranks(cfg.machine(), cfg.procs, move |ctx| {
        let cfg = cfg2.clone();
        Box::pin(async move {
            rank_program(ctx, cfg).await;
        })
    })
}

async fn open_arrays(ctx: &AppCtx, cfg: &FftConfig) -> (OocArray, OocArray) {
    let b_layout = if cfg.optimized {
        FileLayout::RowMajor
    } else {
        FileLayout::ColMajor
    };
    let a = OocArray::create_elems(
        &ctx.fs,
        ctx.rank,
        Interface::UnixStyle,
        "fft.A",
        cfg.n,
        cfg.n,
        FileLayout::ColMajor,
        cfg.stored,
        CPX,
    )
    .await
    .expect("create A");
    let b = OocArray::create_elems(
        &ctx.fs,
        ctx.rank,
        Interface::UnixStyle,
        "fft.B",
        cfg.n,
        cfg.n,
        b_layout,
        cfg.stored,
        CPX,
    )
    .await
    .expect("create B");
    (a, b)
}

/// One rank's FFT program. [`run`] runs it on every rank of the
/// configured machine; ablations that need a customized machine (e.g. a
/// modified seek penalty) call it from their own [`run_ranks`].
pub async fn rank_program(ctx: AppCtx, cfg: FftConfig) {
    let n = cfg.n;
    let (c_lo, c_hi) = cfg.owned_cols(ctx.rank);
    let own = c_hi - c_lo;
    let (a, b) = open_arrays(&ctx, &cfg).await;

    // ---- Fill (stored mode only): write the deterministic input. ----
    if cfg.stored && own > 0 {
        let mut buf = Vec::with_capacity((n * own * CPX) as usize);
        // Row-major block buffer for the full owned column strip.
        for r in 0..n {
            for c in c_lo..c_hi {
                let (re, im) = input_value(r, c);
                buf.extend_from_slice(&re.to_le_bytes());
                buf.extend_from_slice(&im.to_le_bytes());
            }
        }
        a.write_block_raw(0, c_lo, n, own, buf)
            .await
            .expect("fill A");
    }
    ctx.comm.barrier().await;

    // Tall-panel width bounded by memory (full columns of n elements).
    let panel_w = (cfg.mem_per_proc / (CPX * n)).clamp(1, own.max(1));

    // ---- Step 1: 1-D FFTs on the columns of A. ----
    if !cfg.transpose_only && own > 0 {
        fft_pass_columns(&ctx, &cfg, &a, c_lo, c_hi, panel_w).await;
    }
    ctx.comm.barrier().await;

    // ---- Step 2: out-of-core transpose B ← Aᵀ. ----
    if own > 0 {
        if cfg.optimized {
            transpose_optimized(&ctx, &cfg, &a, &b, c_lo, c_hi, panel_w).await;
        } else {
            transpose_unoptimized(&ctx, &cfg, &a, &b, c_lo, c_hi).await;
        }
    }
    ctx.comm.barrier().await;

    // ---- Step 3: 1-D FFT pass over B, along its stored direction. ----
    if !cfg.transpose_only && own > 0 {
        if cfg.optimized {
            fft_pass_rows(&ctx, &cfg, &b, c_lo, c_hi, panel_w).await;
        } else {
            fft_pass_columns(&ctx, &cfg, &b, c_lo, c_hi, panel_w).await;
        }
    }
    ctx.comm.barrier().await;
    a.close().await;
    b.close().await;
}

/// Read column panels, FFT each column, write back.
async fn fft_pass_columns(
    ctx: &AppCtx,
    cfg: &FftConfig,
    arr: &OocArray,
    c_lo: u64,
    c_hi: u64,
    panel_w: u64,
) {
    let n = cfg.n;
    let mut c = c_lo;
    while c < c_hi {
        let w = panel_w.min(c_hi - c);
        let raw = arr.read_block_raw(0, c, n, w).await.expect("read panel");
        let out = raw.map(|d| fft_block_columns(&d.flatten(), n, w));
        ctx.machine.compute(dsp::fft_flops(n) * w as f64).await;
        arr.write_block_raw(0, c, n, w, out)
            .await
            .expect("write panel");
        c += w;
    }
}

/// Read row panels, FFT each row, write back (the optimized step 3:
/// `B` is row-major, so rows are its contiguous direction).
async fn fft_pass_rows(
    ctx: &AppCtx,
    cfg: &FftConfig,
    arr: &OocArray,
    r_lo: u64,
    r_hi: u64,
    panel_h: u64,
) {
    let n = cfg.n;
    let mut r = r_lo;
    while r < r_hi {
        let h = panel_h.min(r_hi - r);
        let raw = arr.read_block_raw(r, 0, h, n).await.expect("read panel");
        let out = raw.map(|d| fft_block_rows(&d.flatten(), h, n));
        ctx.machine.compute(dsp::fft_flops(n) * h as f64).await;
        arr.write_block_raw(r, 0, h, n, out)
            .await
            .expect("write panel");
        r += h;
    }
}

/// Optimized transpose: tall panels, one read + one write each.
async fn transpose_optimized(
    ctx: &AppCtx,
    cfg: &FftConfig,
    a: &OocArray,
    b: &OocArray,
    c_lo: u64,
    c_hi: u64,
    panel_w: u64,
) {
    let n = cfg.n;
    let mut c = c_lo;
    while c < c_hi {
        let w = panel_w.min(c_hi - c);
        let raw = a.read_block_raw(0, c, n, w).await.expect("read A panel");
        let t = raw.map(|d| transpose_raw(&d.flatten(), n, w));
        charge_copy(ctx, n * w * CPX).await;
        b.write_block_raw(c, 0, w, n, t)
            .await
            .expect("write B panel");
        c += w;
    }
}

/// Unoptimized transpose: memory-bounded rectangular tiles; reading the
/// tile costs `tile_w` calls and writing its transpose costs `tile_r`
/// calls (both files column-major).
async fn transpose_unoptimized(
    ctx: &AppCtx,
    cfg: &FftConfig,
    a: &OocArray,
    b: &OocArray,
    c_lo: u64,
    c_hi: u64,
) {
    let n = cfg.n;
    let own = c_hi - c_lo;
    let elems = (cfg.mem_per_proc / CPX).max(1);
    // Square-ish compromise, clipped to the owned strip.
    let tile_w = ((elems as f64).sqrt() as u64).clamp(1, own);
    let tile_r = (elems / tile_w).clamp(1, n);
    let mut r = 0u64;
    while r < n {
        let tr = tile_r.min(n - r);
        let mut c = c_lo;
        while c < c_hi {
            let tw = tile_w.min(c_hi - c);
            let raw = a.read_block_raw(r, c, tr, tw).await.expect("read A tile");
            let t = raw.map(|d| transpose_raw(&d.flatten(), tr, tw));
            charge_copy(ctx, tr * tw * CPX).await;
            b.write_block_raw(c, r, tw, tr, t)
                .await
                .expect("write B tile");
            c += tw;
        }
        r += tr;
    }
}

async fn charge_copy(ctx: &AppCtx, bytes: u64) {
    let d = ctx.machine.cfg().cpu.copy_time(bytes);
    ctx.machine.handle().sleep(d).await;
}

/// Transpose a row-major `rows × cols` complex block into `cols × rows`.
fn transpose_raw(raw: &[u8], rows: u64, cols: u64) -> Vec<u8> {
    let e = CPX as usize;
    let mut out = vec![0u8; raw.len()];
    for i in 0..rows as usize {
        for j in 0..cols as usize {
            let src = (i * cols as usize + j) * e;
            let dst = (j * rows as usize + i) * e;
            out[dst..dst + e].copy_from_slice(&raw[src..src + e]);
        }
    }
    out
}

/// FFT every column of a row-major `n × w` complex block.
fn fft_block_columns(raw: &[u8], n: u64, w: u64) -> Vec<u8> {
    let mut out = raw.to_vec();
    for col in 0..w as usize {
        let mut re = Vec::with_capacity(n as usize);
        let mut im = Vec::with_capacity(n as usize);
        for row in 0..n as usize {
            let idx = (row * w as usize + col) * 16;
            re.push(f64::from_le_bytes(raw[idx..idx + 8].try_into().expect("8")));
            im.push(f64::from_le_bytes(
                raw[idx + 8..idx + 16].try_into().expect("8"),
            ));
        }
        dsp::fft_inplace(&mut re, &mut im, false);
        for row in 0..n as usize {
            let idx = (row * w as usize + col) * 16;
            out[idx..idx + 8].copy_from_slice(&re[row].to_le_bytes());
            out[idx + 8..idx + 16].copy_from_slice(&im[row].to_le_bytes());
        }
    }
    out
}

/// FFT every row of a row-major `h × n` complex block.
fn fft_block_rows(raw: &[u8], h: u64, n: u64) -> Vec<u8> {
    let mut out = raw.to_vec();
    for row in 0..h as usize {
        let start = row * n as usize * 16;
        let (mut re, mut im) = dsp::unpack_complex(&raw[start..start + n as usize * 16]);
        dsp::fft_inplace(&mut re, &mut im, false);
        out[start..start + n as usize * 16].copy_from_slice(&dsp::pack_complex(&re, &im));
    }
    out
}

/// Run the FFT and read back the full final `B` contents (stored mode;
/// for functional tests). Returns `(result, B as a row-major n×n complex
/// byte buffer)` — a shared view of the stored extents, copied nowhere.
pub fn run_capture(cfg: &FftConfig) -> (RunResult, Bytes) {
    assert!(cfg.stored, "capture needs stored arrays");
    let captured: Rc<std::cell::RefCell<Bytes>> = Rc::new(std::cell::RefCell::new(Bytes::new()));
    let cap2 = Rc::clone(&captured);
    let cfg2 = cfg.clone();
    let res = run_ranks(cfg.machine(), cfg.procs, move |ctx| {
        let cfg = cfg2.clone();
        let cap = Rc::clone(&cap2);
        Box::pin(async move {
            let rank = ctx.rank;
            rank_program_capture(ctx, cfg, rank, cap).await;
        })
    });
    let b = captured.borrow().clone();
    (res, b)
}

async fn rank_program_capture(
    ctx: AppCtx,
    cfg: FftConfig,
    rank: usize,
    cap: Rc<std::cell::RefCell<Bytes>>,
) {
    // Re-run the regular program; rank 0 then reads the final B.
    let n = cfg.n;
    let ctx2 = AppCtx {
        rank: ctx.rank,
        comm: ctx.comm,
        fs: Rc::clone(&ctx.fs),
        machine: Rc::clone(&ctx.machine),
    };
    rank_program(ctx2, cfg.clone()).await;
    if rank == 0 {
        let b_layout = if cfg.optimized {
            FileLayout::RowMajor
        } else {
            FileLayout::ColMajor
        };
        let b = OocArray::create_elems(
            &ctx.fs,
            0,
            Interface::UnixStyle,
            "fft.B",
            n,
            n,
            b_layout,
            true,
            CPX,
        )
        .await
        .expect("reopen B");
        let raw = b.read_block_raw(0, 0, n, n).await.expect("read all of B");
        *cap.borrow_mut() = raw.data.expect("fft.B is stored").flatten();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_cols_partition_the_matrix() {
        let cfg = FftConfig::new(64, 5, false);
        let mut cursor = 0;
        for r in 0..5 {
            let (lo, hi) = cfg.owned_cols(r);
            assert_eq!(lo, cursor);
            cursor = hi;
        }
        assert_eq!(cursor, 64);
    }

    #[test]
    fn transpose_raw_is_involutive() {
        let rows = 3u64;
        let cols = 5u64;
        let buf: Vec<u8> = (0..rows * cols * CPX).map(|i| (i % 256) as u8).collect();
        let t = transpose_raw(&buf, rows, cols);
        let back = transpose_raw(&t, cols, rows);
        assert_eq!(back, buf);
    }

    #[test]
    fn functional_transpose_matches_both_layouts() {
        for optimized in [false, true] {
            let cfg = FftConfig {
                stored: true,
                transpose_only: true,
                ..FftConfig::new(16, 2, optimized)
            };
            let (_res, b) = run_capture(&cfg);
            // B (row-major capture) must hold Xᵀ.
            for r in 0..16u64 {
                for c in 0..16u64 {
                    let idx = ((r * 16 + c) * CPX) as usize;
                    let re = f64::from_le_bytes(b[idx..idx + 8].try_into().unwrap());
                    let (want_re, _) = input_value(c, r); // transposed
                    assert!(
                        (re - want_re).abs() < 1e-12,
                        "optimized={optimized} B[{r}][{c}] = {re} want {want_re}"
                    );
                }
            }
        }
    }

    #[test]
    fn functional_unoptimized_pipeline_is_a_2d_fft() {
        let n = 16u64;
        let cfg = FftConfig {
            stored: true,
            ..FftConfig::new(n, 2, false)
        };
        let (_res, b) = run_capture(&cfg);
        // Expected: F = 2-D FFT of X; pipeline produces Fᵀ in B, captured
        // row-major, so b[r][c] = F[c][r].
        // Compute reference with in-memory FFTs: columns then rows.
        let nn = n as usize;
        let mut re = vec![0.0; nn * nn];
        let mut im = vec![0.0; nn * nn];
        for r in 0..nn {
            for c in 0..nn {
                let (x, y) = input_value(r as u64, c as u64);
                re[r * nn + c] = x;
                im[r * nn + c] = y;
            }
        }
        // FFT columns.
        for c in 0..nn {
            let mut cr: Vec<f64> = (0..nn).map(|r| re[r * nn + c]).collect();
            let mut ci: Vec<f64> = (0..nn).map(|r| im[r * nn + c]).collect();
            dsp::fft_inplace(&mut cr, &mut ci, false);
            for r in 0..nn {
                re[r * nn + c] = cr[r];
                im[r * nn + c] = ci[r];
            }
        }
        // FFT rows.
        for r in 0..nn {
            let mut rr: Vec<f64> = re[r * nn..(r + 1) * nn].to_vec();
            let mut ri: Vec<f64> = im[r * nn..(r + 1) * nn].to_vec();
            dsp::fft_inplace(&mut rr, &mut ri, false);
            re[r * nn..(r + 1) * nn].copy_from_slice(&rr);
            im[r * nn..(r + 1) * nn].copy_from_slice(&ri);
        }
        for r in 0..nn {
            for c in 0..nn {
                let idx = (r * nn + c) * 16;
                let got_re = f64::from_le_bytes(b[idx..idx + 8].try_into().unwrap());
                let got_im = f64::from_le_bytes(b[idx + 8..idx + 16].try_into().unwrap());
                let want_re = re[c * nn + r];
                let want_im = im[c * nn + r];
                assert!(
                    (got_re - want_re).abs() < 1e-9 && (got_im - want_im).abs() < 1e-9,
                    "B[{r}][{c}] = ({got_re},{got_im}) want ({want_re},{want_im})"
                );
            }
        }
    }

    #[test]
    fn optimized_layout_issues_far_fewer_calls() {
        let mk = |optimized| FftConfig {
            mem_per_proc: 64 << 10, // force small tiles
            ..FftConfig::new(256, 4, optimized)
        };
        let unopt = run(&mk(false));
        let opt = run(&mk(true));
        assert!(
            unopt.io_ops > 4 * opt.io_ops,
            "unopt {} calls vs opt {}",
            unopt.io_ops,
            opt.io_ops
        );
        assert!(
            opt.exec_time < unopt.exec_time,
            "opt {:?} vs unopt {:?}",
            opt.exec_time,
            unopt.exec_time
        );
    }

    #[test]
    fn optimized_two_nodes_beats_unoptimized_four_nodes() {
        // The paper's headline for FFT (Figure 5).
        let mut unopt4 = FftConfig::new(256, 8, false);
        unopt4.io_nodes = 4;
        unopt4.mem_per_proc = 64 << 10;
        let mut opt2 = FftConfig::new(256, 8, true);
        opt2.io_nodes = 2;
        opt2.mem_per_proc = 64 << 10;
        let u = run(&unopt4);
        let o = run(&opt2);
        assert!(
            o.exec_time < u.exec_time,
            "opt on 2 I/O nodes {:?} should beat unopt on 4 {:?}",
            o.exec_time,
            u.exec_time
        );
    }

    #[test]
    fn unoptimized_io_time_rises_with_procs() {
        // Figure 5: beyond a small processor count the unoptimized I/O
        // time increases.
        let t = |p: usize| {
            let mut c = FftConfig::new(256, p, false);
            c.mem_per_proc = 128 << 10;
            run(&c).io_time.as_secs_f64()
        };
        let t4 = t(4);
        let t32 = t(32);
        assert!(
            t32 > t4,
            "I/O time should rise with procs in the unoptimized code: {t4} -> {t32}"
        );
    }

    #[test]
    fn io_volume_matches_formula() {
        let cfg = FftConfig::new(128, 2, true);
        let res = run(&cfg);
        assert_eq!(res.io_bytes, cfg.total_io_bytes());
    }

    #[test]
    fn io_volume_is_independent_of_processor_count() {
        // The pipeline moves each array a fixed number of times; the
        // decomposition must not change the bytes, only the calls.
        let v: Vec<u64> = [1usize, 2, 8]
            .iter()
            .map(|&p| run(&FftConfig::new(128, p, false)).io_bytes)
            .collect();
        assert_eq!(v[0], v[1]);
        assert_eq!(v[1], v[2]);
    }

    #[test]
    fn optimized_call_count_matches_the_panel_formula() {
        // Each pass (step 1, transpose, step 3) does one read and one
        // write per panel; with memory covering the whole per-proc strip
        // there is one panel per proc per pass.
        let mut cfg = FftConfig::new(128, 4, true);
        cfg.mem_per_proc = 16 << 20; // whole strip fits
        let res = run(&cfg);
        let data_calls = res.summary.rows[1].count + res.summary.rows[3].count;
        assert_eq!(data_calls, 3 * 2 * 4);
    }
}
