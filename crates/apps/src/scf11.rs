//! SCF 1.1 — disk-based Hartree-Fock self-consistent field (paper §4.2).
//!
//! I/O pattern (from the paper and Tables 2–3):
//!
//! - **Write phase** (first SCF iteration): each process evaluates its
//!   share of the ~N⁴ two-electron integrals and writes them to a
//!   *private* file in packed ~62 KB chunks.
//! - **Read phase**: ~15 subsequent iterations; in each, every process
//!   re-reads its private file in its entirety in large chunks.
//!
//! Three versions are modelled, matching the paper's incremental
//! evaluation:
//!
//! 1. [`Scf11Version::Original`] — Fortran I/O calls, sequential access;
//! 2. [`Scf11Version::Passion`] — the PASSION interface: cheaper per-call
//!    software path, with an explicit (cheap) seek per data call, which is
//!    why Table 3 shows ~604 k seeks against Table 2's ~1 k;
//! 3. [`Scf11Version::PassionPrefetch`] — PASSION prefetch calls:
//!    double-buffered read-ahead; following the paper, wait and copy time
//!    count as I/O time for this version.
//!
//! Calibration: integral volume ≈ `0.379 · N⁴` bytes (pins the 2.5 GB
//! LARGE write volume), total compute ≈ `162,494 · N⁴` FLOPs (pins the
//! 54%-I/O split of Table 2 on the 20 MFLOPS Paragon node).

use std::cell::RefCell;
use std::rc::Rc;

use iosim_core::prefetch::Prefetcher;
use iosim_machine::{presets, Interface};
use iosim_pfs::{CreateOptions, IoRequest};
use iosim_simkit::time::SimDuration;

use crate::common::{run_ranks, AppCtx, RunResult};

/// The paper's three representative inputs (number of basis functions N).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScfInput {
    /// N = 108.
    Small,
    /// N = 140.
    Medium,
    /// N = 285.
    Large,
    /// Custom basis-set size.
    Custom(u64),
}

impl ScfInput {
    /// Number of basis functions.
    pub fn basis(self) -> u64 {
        match self {
            ScfInput::Small => 108,
            ScfInput::Medium => 140,
            ScfInput::Large => 285,
            ScfInput::Custom(n) => n,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ScfInput::Small => "SMALL",
            ScfInput::Medium => "MEDIUM",
            ScfInput::Large => "LARGE",
            ScfInput::Custom(_) => "CUSTOM",
        }
    }
}

/// Stored-integral volume in bytes for basis size `n`: `0.379 · n⁴`
/// (2.5 GB at N = 285, matching Table 2's write volume).
pub fn integral_volume(n: u64) -> u64 {
    (0.379 * (n as f64).powi(4)) as u64
}

/// Total compute in FLOPs for basis size `n` (whole run, all processes):
/// `162.5 · n⁴` pins Table 2's split — 53,600 cumulative compute seconds
/// for LARGE on 20 MFLOPS nodes (116,685 s exec × (1 − 54.06% I/O)).
pub fn total_flops(n: u64) -> f64 {
    162.5 * (n as f64).powi(4)
}

/// Which code version to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scf11Version {
    /// Original code with Fortran I/O ("O" in the Figure 1 tuples).
    Original,
    /// PASSION I/O calls ("P").
    Passion,
    /// PASSION prefetch calls ("F").
    PassionPrefetch,
}

impl Scf11Version {
    /// The tuple letter used in Figure 1.
    pub fn letter(self) -> char {
        match self {
            Scf11Version::Original => 'O',
            Scf11Version::Passion => 'P',
            Scf11Version::PassionPrefetch => 'F',
        }
    }
}

/// Configuration tuple `(V, P, M, Su, Sf)` of Figure 1, plus knobs.
#[derive(Clone, Debug)]
pub struct Scf11Config {
    /// Input size.
    pub input: ScfInput,
    /// Code version (V).
    pub version: Scf11Version,
    /// Number of processors (P).
    pub procs: usize,
    /// Per-process I/O buffer memory in KB (M).
    pub mem_kb: u64,
    /// Stripe unit in KB (Su).
    pub stripe_unit_kb: u64,
    /// Number of I/O nodes (Sf, the stripe factor).
    pub io_nodes: usize,
    /// Read-phase iterations (the paper's LARGE run re-reads ~15×).
    pub read_iterations: u32,
    /// Scale factor on volume and compute, for cheap test runs.
    pub scale: f64,
    /// Per-I/O-node LRU buffer cache in MB (0 = uncached).
    pub cache_mb: u64,
    /// I/O-node command-queue depth (1 = the paper's FIFO disk queue).
    pub queue_depth: usize,
}

impl Scf11Config {
    /// The paper's default configuration tuple `(V, 4, 64, 64, 12)`.
    pub fn new(input: ScfInput, version: Scf11Version) -> Scf11Config {
        Scf11Config {
            input,
            version,
            procs: 4,
            mem_kb: 64,
            stripe_unit_kb: 64,
            io_nodes: 12,
            read_iterations: 15,
            scale: 1.0,
            cache_mb: 0,
            queue_depth: 1,
        }
    }

    /// Figure 1 tuple notation, e.g. `(F,32,256,128,16)`.
    pub fn tuple(&self) -> String {
        format!(
            "({},{},{},{},{})",
            self.version.letter(),
            self.procs,
            self.mem_kb,
            self.stripe_unit_kb,
            self.io_nodes
        )
    }

    fn scaled_volume(&self) -> u64 {
        (integral_volume(self.input.basis()) as f64 * self.scale) as u64
    }

    fn scaled_flops(&self) -> f64 {
        total_flops(self.input.basis()) * self.scale
    }
}

/// Extended result: the paper's prefetch measurements count I/O, wait and
/// copy time as "I/O time", which differs from raw trace time when reads
/// overlap compute.
#[derive(Clone, Debug)]
pub struct Scf11Result {
    /// Common measurements.
    pub run: RunResult,
    /// Foreground I/O time of the slowest rank: blocking I/O plus, for the
    /// prefetch version, wait + copy time.
    pub fg_io_time: SimDuration,
}

impl Scf11Result {
    /// Wall-clock compute time estimate (exec − foreground I/O).
    pub fn compute_time(&self) -> SimDuration {
        self.run.exec_time.saturating_sub(self.fg_io_time)
    }
}

const WRITE_CHUNK: u64 = 62 << 10;
const EVAL_FRACTION: f64 = 0.30;
const FLUSH_EVERY: u64 = 1000;

fn machine(cfg: &Scf11Config) -> iosim_machine::MachineConfig {
    crate::common::with_queue_depth(
        crate::common::with_cache_mb(
            presets::paragon_large()
                .with_compute_nodes(cfg.procs.max(1))
                .with_io_nodes(cfg.io_nodes)
                .with_stripe_unit(cfg.stripe_unit_kb << 10),
            cfg.cache_mb,
        ),
        cfg.queue_depth,
    )
}

/// Run SCF 1.1 under `cfg` and return the measurements.
pub fn run(cfg: &Scf11Config) -> Scf11Result {
    let mcfg = machine(cfg);
    let fg_io: Rc<RefCell<Vec<SimDuration>>> = Rc::new(RefCell::new(Vec::new()));
    let fg_io2 = Rc::clone(&fg_io);
    let cfg2 = cfg.clone();
    let run = run_ranks(mcfg, cfg.procs, move |ctx| {
        let cfg = cfg2.clone();
        let fg_io = Rc::clone(&fg_io2);
        Box::pin(async move {
            let t = rank_program(ctx, cfg).await;
            fg_io.borrow_mut().push(t);
        })
    });
    let fg_io_time = fg_io
        .borrow()
        .iter()
        .copied()
        .fold(SimDuration::ZERO, SimDuration::max);
    Scf11Result { run, fg_io_time }
}

/// One process's program. Returns its foreground I/O time.
async fn rank_program(ctx: AppCtx, cfg: Scf11Config) -> SimDuration {
    let h = ctx.machine.handle().clone();
    let p = cfg.procs as u64;
    let rank = ctx.rank as u64;
    let volume = cfg.scaled_volume();
    // Uniform split with remainder to the low ranks.
    let my_bytes = volume / p + u64::from(rank < volume % p);
    let flops_per_proc = cfg.scaled_flops() / cfg.procs as f64;
    let iface = match cfg.version {
        Scf11Version::Original => Interface::Fortran,
        _ => Interface::Passion,
    };
    let mut fg_io = SimDuration::ZERO;

    // ---- Write phase: evaluate integrals, write packed chunks. ----
    let name = format!("scf11.ints.{}", ctx.rank);
    let t0 = h.now();
    let fh = ctx
        .fs
        .open(ctx.rank, iface, &name, Some(CreateOptions::default()))
        .await
        .expect("create integral file");
    fg_io += h.now() - t0;
    let eval_flops = flops_per_proc * EVAL_FRACTION;
    let n_chunks = my_bytes.div_ceil(WRITE_CHUNK).max(1);
    let flops_per_chunk = eval_flops / n_chunks as f64;
    let mut written = 0u64;
    let mut writes = 0u64;
    while written < my_bytes {
        let len = WRITE_CHUNK.min(my_bytes - written);
        ctx.machine.compute(flops_per_chunk).await;
        let t = h.now();
        if iface == Interface::Passion {
            fh.seek(written).await;
        }
        fh.writev_discard(&IoRequest::contiguous(written, len))
            .await
            .expect("write chunk");
        writes += 1;
        if writes.is_multiple_of(FLUSH_EVERY) {
            fh.flush().await;
        }
        fg_io += h.now() - t;
        written += len;
    }
    let t = h.now();
    fh.flush().await;
    fh.close().await;
    fg_io += h.now() - t;
    ctx.comm.barrier().await;

    // ---- Read phase: `read_iterations` full scans of the private file. ----
    let t = h.now();
    let fh = Rc::new(
        ctx.fs
            .open(ctx.rank, iface, &name, None)
            .await
            .expect("reopen integral file"),
    );
    fg_io += h.now() - t;
    let iters = cfg.read_iterations.max(1);
    let iter_flops = flops_per_proc * (1.0 - EVAL_FRACTION) / iters as f64;
    let read_chunk = (cfg.mem_kb << 10).clamp(16 << 10, 1 << 20);
    for _ in 0..iters {
        match cfg.version {
            Scf11Version::Original | Scf11Version::Passion => {
                let t = h.now();
                fh.seek(0).await;
                fg_io += h.now() - t;
                let chunks = my_bytes.div_ceil(read_chunk).max(1);
                let flops_per_chunk = iter_flops / chunks as f64;
                let mut off = 0u64;
                while off < my_bytes {
                    let len = read_chunk.min(my_bytes - off);
                    let t = h.now();
                    if cfg.version == Scf11Version::Passion {
                        fh.seek(off).await;
                    }
                    fh.readv_discard(&IoRequest::contiguous(off, len))
                        .await
                        .expect("read chunk");
                    fg_io += h.now() - t;
                    ctx.machine.compute(flops_per_chunk).await;
                    off += len;
                }
            }
            Scf11Version::PassionPrefetch => {
                // Double-buffered read-ahead; the PASSION runtime manages
                // its own prefetch buffers, so the application chunk size
                // is unchanged and two chunks are in flight.
                let chunk = read_chunk.max(16 << 10);
                let chunks = my_bytes.div_ceil(chunk).max(1);
                let flops_per_chunk = iter_flops / chunks as f64;
                let mut pf = Prefetcher::new(Rc::clone(&fh), 0, my_bytes, chunk, 2);
                while pf.next().await.expect("prefetch chunk").is_some() {
                    ctx.machine.compute(flops_per_chunk).await;
                }
                let st = pf.stats();
                // Paper convention: wait + copy time is I/O time.
                fg_io += st.wait_time + st.copy_time;
            }
        }
    }
    let t = h.now();
    if let Ok(only) = Rc::try_unwrap(fh) {
        only.close().await;
    }
    fg_io + (h.now() - t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_trace::OpKind;

    fn small(version: Scf11Version) -> Scf11Config {
        Scf11Config {
            scale: 0.05,
            ..Scf11Config::new(ScfInput::Small, version)
        }
    }

    #[test]
    fn volume_and_flops_pin_the_large_input() {
        let v = integral_volume(285);
        assert!((2.4e9..2.6e9).contains(&(v as f64)), "volume {v}");
        let f = total_flops(285);
        // 53,600 proc-seconds at 20 MFLOPS.
        assert!((1.05e12..1.09e12).contains(&f), "flops {f}");
    }

    #[test]
    fn passion_version_beats_original() {
        let orig = run(&small(Scf11Version::Original));
        let pass = run(&small(Scf11Version::Passion));
        assert!(
            pass.run.exec_time < orig.run.exec_time,
            "PASSION {:?} should beat original {:?}",
            pass.run.exec_time,
            orig.run.exec_time
        );
        assert!(pass.fg_io_time < orig.fg_io_time);
    }

    #[test]
    fn prefetch_version_beats_plain_passion() {
        let mut cfg = small(Scf11Version::Passion);
        cfg.mem_kb = 256;
        let pass = run(&cfg);
        cfg.version = Scf11Version::PassionPrefetch;
        let pre = run(&cfg);
        assert!(
            pre.run.exec_time < pass.run.exec_time,
            "prefetch {:?} should beat passion {:?}",
            pre.run.exec_time,
            pass.run.exec_time
        );
    }

    #[test]
    fn read_intensity_matches_the_paper() {
        // Reads dominate: ~15 scans against one write pass.
        let r = run(&small(Scf11Version::Original));
        let reads = r.run.summary.rows[1];
        let writes = r.run.summary.rows[3];
        assert!(reads.bytes > 10 * writes.bytes);
        assert!(reads.time > writes.time);
        // I/O dominates execution (the paper's 54% on LARGE; small scaled
        // inputs are even more I/O bound).
        assert!(r.run.io_fraction() > 0.30, "{}", r.run.io_fraction());
    }

    #[test]
    fn passion_issues_a_seek_per_data_call() {
        let r = run(&small(Scf11Version::Passion));
        let seeks = r.run.summary.rows[2].count;
        let data_calls = r.run.summary.rows[1].count + r.run.summary.rows[3].count;
        // One seek per read and write, plus one rewind per iteration.
        assert!(
            seeks >= data_calls && seeks <= data_calls + 16 * 15,
            "seeks {seeks} vs data calls {data_calls}"
        );
    }

    #[test]
    fn original_version_seeks_rarely() {
        let r = run(&small(Scf11Version::Original));
        let seeks = r.run.summary.rows[2].count;
        assert!(seeks <= 4 * 15, "original should only rewind: {seeks}");
    }

    #[test]
    fn op_counts_scale_with_volume() {
        let lo = run(&small(Scf11Version::Original));
        let mut cfg = small(Scf11Version::Original);
        cfg.scale = 0.10;
        let hi = run(&cfg);
        let lo_reads = lo.run.summary.rows[1].count;
        let hi_reads = hi.run.summary.rows[1].count;
        assert!(
            hi_reads > lo_reads * 3 / 2,
            "reads should grow with volume: {lo_reads} -> {hi_reads}"
        );
    }

    #[test]
    fn more_io_nodes_help_when_contended() {
        let mut cfg = small(Scf11Version::Original);
        cfg.procs = 16;
        cfg.io_nodes = 2;
        let few = run(&cfg);
        cfg.io_nodes = 16;
        let many = run(&cfg);
        assert!(
            many.run.exec_time < few.run.exec_time,
            "16 I/O nodes {:?} vs 2 {:?}",
            many.run.exec_time,
            few.run.exec_time
        );
    }

    #[test]
    fn trace_has_expected_open_close_structure() {
        let cfg = small(Scf11Version::Original);
        let r = run(&cfg);
        // Two opens per proc (write phase + read phase), two closes.
        assert_eq!(r.run.summary.rows[0].count, 2 * cfg.procs as u64);
        assert_eq!(r.run.summary.rows[5].count, 2 * cfg.procs as u64);
        assert!(r.run.summary.rows[4].count >= cfg.procs as u64); // flushes
        assert_eq!(r.run.summary.rows[1].kind, OpKind::Read);
    }
}
