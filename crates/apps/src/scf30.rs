//! SCF 3.0 — semi-direct self-consistent field with balanced I/O
//! (paper §4.3).
//!
//! SCF 3.0 lets the user choose what **percentage of the integrals is
//! cached on disk**; the remainder is recomputed on every iteration
//! ("semi-direct"). Expensive integrals are cached first, so the
//! recomputed set is cheaper than pro-rata. After the write phase the
//! integral files are **balanced to within 10% or 1 MB** so the read
//! phase is load-balanced even though integral evaluation is not.
//!
//! The paper's observations reproduced here (Figure 4):
//!
//! - at 0% cached (full recompute), adding processors helps a lot;
//! - at 100% cached (full disk), adding processors helps little, because
//!   the read phase is bounded by the I/O subsystem, not the CPUs;
//! - the number of I/O nodes matters much less than for SCF 1.1, because
//!   SCF 3.0 is not as I/O-dominant.

use std::cell::RefCell;
use std::rc::Rc;

use iosim_buf::Payload;
use iosim_core::balanced::{default_tolerance, plan_balance, SemiDirect};
use iosim_core::prefetch::Prefetcher;
use iosim_machine::{presets, Interface};
use iosim_msg::MatchSrc;
use iosim_pfs::{CreateOptions, IoRequest};

use crate::common::{run_ranks, AppCtx, RunResult};
use crate::scf11::{integral_volume, total_flops, ScfInput};

/// SCF 3.0 configuration.
#[derive(Clone, Debug)]
pub struct Scf30Config {
    /// Input size (the paper's Figure 4 uses MEDIUM).
    pub input: ScfInput,
    /// Number of processors.
    pub procs: usize,
    /// Number of I/O nodes.
    pub io_nodes: usize,
    /// Percentage of integrals cached on disk (0–100).
    pub cached_percent: u32,
    /// Balance integral file sizes after the write phase.
    pub balanced: bool,
    /// Use prefetching in the read phase.
    pub prefetch: bool,
    /// Read-phase iterations.
    pub read_iterations: u32,
    /// Scale factor on volume and compute, for cheap test runs.
    pub scale: f64,
    /// Per-I/O-node LRU buffer cache in MB (0 = uncached).
    pub cache_mb: u64,
    /// I/O-node command-queue depth (1 = the paper's FIFO disk queue).
    pub queue_depth: usize,
}

impl Scf30Config {
    /// Defaults matching the paper's Figure 4 setup.
    pub fn new(input: ScfInput, procs: usize, cached_percent: u32) -> Scf30Config {
        assert!(cached_percent <= 100, "cached percentage is 0–100");
        Scf30Config {
            input,
            procs,
            io_nodes: 16,
            cached_percent,
            balanced: true,
            prefetch: true,
            read_iterations: 15,
            scale: 1.0,
            cache_mb: 0,
            queue_depth: 1,
        }
    }
}

/// Per-process skew of integral-evaluation cost: deterministic ±25%
/// pattern standing in for the uneven shell-quartet distribution that
/// motivates SCF 3.0's file balancing.
pub fn eval_skew(rank: usize, procs: usize) -> f64 {
    if procs <= 1 {
        return 1.0;
    }
    let x = (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
    1.0 + 0.25 * (2.0 * (x % 1000) as f64 / 999.0 - 1.0)
}

const EVAL_FRACTION: f64 = 0.30;
const WRITE_CHUNK: u64 = 62 << 10;
const READ_CHUNK: u64 = 128 << 10;

/// Result of an SCF 3.0 run.
#[derive(Clone, Debug)]
pub struct Scf30Result {
    /// Common measurements.
    pub run: RunResult,
    /// Bytes moved between files by the balancing step.
    pub balance_moved: u64,
}

fn machine(cfg: &Scf30Config) -> iosim_machine::MachineConfig {
    crate::common::with_queue_depth(
        crate::common::with_cache_mb(
            presets::paragon_large()
                .with_compute_nodes(cfg.procs.max(1))
                .with_io_nodes(cfg.io_nodes),
            cfg.cache_mb,
        ),
        cfg.queue_depth,
    )
}

/// Run SCF 3.0 under `cfg`.
pub fn run(cfg: &Scf30Config) -> Scf30Result {
    let mcfg = machine(cfg);
    let moved: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
    let moved2 = Rc::clone(&moved);
    let cfg2 = cfg.clone();
    let run = run_ranks(mcfg, cfg.procs, move |ctx| {
        let cfg = cfg2.clone();
        let moved = Rc::clone(&moved2);
        Box::pin(async move {
            let m = rank_program(ctx, cfg).await;
            *moved.borrow_mut() += m;
        })
    });
    let balance_moved = *moved.borrow();
    Scf30Result { run, balance_moved }
}

/// One process's program; returns bytes it shipped during balancing.
async fn rank_program(ctx: AppCtx, cfg: Scf30Config) -> u64 {
    let p = cfg.procs;
    let rank = ctx.rank;
    let semi = SemiDirect::new(cfg.cached_percent as f64 / 100.0);
    let volume = (integral_volume(cfg.input.basis()) as f64 * cfg.scale) as u64;
    let disk_total = semi.disk_bytes(volume);
    let flops_total = total_flops(cfg.input.basis()) * cfg.scale;
    let eval_total = flops_total * EVAL_FRACTION;
    let fock_per_iter = flops_total * (1.0 - EVAL_FRACTION) / cfg.read_iterations as f64;

    // ---- Write phase: skewed evaluation, skewed file sizes. ----
    let skew_sum: f64 = (0..p).map(|r| eval_skew(r, p)).sum();
    let my_share = eval_skew(rank, p) / skew_sum;
    let my_eval_flops = eval_total * my_share;
    let my_disk = (disk_total as f64 * my_share) as u64;
    let name = |r: usize| format!("scf30.ints.{r}");
    let fh = ctx
        .fs
        .open(
            rank,
            Interface::Passion,
            &name(rank),
            Some(CreateOptions::default()),
        )
        .await
        .expect("create integral file");
    let n_chunks = my_disk.div_ceil(WRITE_CHUNK).max(1);
    let mut written = 0u64;
    for _ in 0..n_chunks {
        ctx.machine.compute(my_eval_flops / n_chunks as f64).await;
        let len = WRITE_CHUNK.min(my_disk - written);
        if len > 0 {
            fh.writev(
                &IoRequest::contiguous(written, len),
                Payload::synthetic(len),
            )
            .await
            .expect("write");
            written += len;
        }
    }
    fh.flush().await;
    ctx.comm.barrier().await;

    // ---- Balancing step (paper: to within 10% or 1 MB). ----
    let mut my_size = written;
    let mut moved_bytes = 0u64;
    if cfg.balanced && p > 1 && disk_total > 0 {
        let sizes_payload = ctx
            .comm
            .allgather(Payload::bytes(written.to_le_bytes().to_vec()))
            .await;
        let sizes: Vec<u64> = sizes_payload
            .into_iter()
            .map(|pl| u64::from_le_bytes(pl.into_bytes().try_into().expect("8 bytes")))
            .collect();
        let mean = sizes.iter().sum::<u64>() as f64 / sizes.len() as f64;
        let moves = plan_balance(
            &sizes,
            default_tolerance(mean)
                .min((mean * 0.10) as u64)
                .max(1 << 10),
        );
        // Every rank executes the plan deterministically: senders read the
        // surplus and ship it; receivers append it.
        for (i, m) in moves.iter().enumerate() {
            let tag = 7_000 + i as u64;
            if m.from == rank {
                my_size -= m.bytes;
                let surplus = fh.read_at(my_size, m.bytes).await.expect("read surplus");
                ctx.comm.send(m.to, tag, surplus).await;
                moved_bytes += m.bytes;
            } else if m.to == rank {
                let (_, pl) = ctx.comm.recv(MatchSrc::Rank(m.from), tag).await;
                let len = pl.len;
                fh.write_at(my_size, pl).await.expect("append");
                my_size += len;
            }
        }
        ctx.comm.barrier().await;
    }

    // ---- Read phase: semi-direct iterations. ----
    let fh = Rc::new(fh);
    let recompute_per_iter =
        semi.recompute_flops(volume, 16, eval_total * 16.0 / volume.max(1) as f64) / p as f64;
    for _ in 0..cfg.read_iterations {
        // Recompute the un-cached integrals (spread evenly: the runtime
        // load-balances recomputation dynamically).
        ctx.machine
            .compute(recompute_per_iter + fock_per_iter / p as f64)
            .await;
        // Read the cached integrals from my (balanced) file.
        if my_size > 0 {
            if cfg.prefetch {
                let mut pf = Prefetcher::new(Rc::clone(&fh), 0, my_size, READ_CHUNK, 2);
                while pf.next().await.expect("prefetch").is_some() {}
            } else {
                let mut off = 0u64;
                while off < my_size {
                    let len = READ_CHUNK.min(my_size - off);
                    fh.readv(&IoRequest::contiguous(off, len))
                        .await
                        .expect("read");
                    off += len;
                }
            }
        }
    }
    if let Ok(only) = Rc::try_unwrap(fh) {
        only.close().await;
    }
    moved_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_simkit::time::SimDuration;

    fn cfg(procs: usize, cached: u32) -> Scf30Config {
        Scf30Config {
            scale: 0.05,
            io_nodes: 16,
            ..Scf30Config::new(ScfInput::Small, procs, cached)
        }
    }

    #[test]
    fn full_recompute_scales_with_processors() {
        let p8 = run(&cfg(8, 0));
        let p32 = run(&cfg(32, 0));
        let speedup = p8.run.exec_time.as_secs_f64() / p32.run.exec_time.as_secs_f64();
        assert!(speedup > 2.5, "0% cached should scale: {speedup}");
    }

    #[test]
    fn full_disk_scales_worse_than_full_recompute() {
        let gain = |cached: u32| {
            let a = run(&cfg(8, cached)).run.exec_time.as_secs_f64();
            let b = run(&cfg(32, cached)).run.exec_time.as_secs_f64();
            a / b
        };
        let g0 = gain(0);
        let g100 = gain(100);
        assert!(
            g0 > g100 + 0.5,
            "recompute should benefit more from procs: {g0} vs {g100}"
        );
    }

    #[test]
    fn caching_more_reduces_total_time_on_this_platform() {
        // Paper: "increasing the percentage of integrals stored on the
        // disk gave better performance" (when disk space allows).
        let lo = run(&cfg(16, 0));
        let hi = run(&cfg(16, 90));
        assert!(
            hi.run.exec_time < lo.run.exec_time,
            "90% cached {:?} should beat 0% {:?}",
            hi.run.exec_time,
            lo.run.exec_time
        );
    }

    #[test]
    fn balancing_moves_bytes_and_helps_read_phase() {
        // Without prefetch the read phase is client-bound, so the slowest
        // (largest) file sets the pace and balancing pays off. Use enough
        // volume per rank that the call-count imbalance dominates the
        // one-time balancing cost.
        let mut unbal = cfg(4, 100);
        unbal.scale = 0.4;
        unbal.balanced = false;
        unbal.prefetch = false;
        let u = run(&unbal);
        let mut bal = unbal.clone();
        bal.balanced = true;
        let b = run(&bal);
        assert_eq!(u.balance_moved, 0);
        assert!(b.balance_moved > 0, "skewed files should need moves");
        assert!(
            b.run.exec_time <= u.run.exec_time + SimDuration::from_millis(1),
            "balanced {:?} should not lose to unbalanced {:?}",
            b.run.exec_time,
            u.run.exec_time
        );
    }

    #[test]
    fn balancing_reduces_io_imbalance_across_ranks() {
        let mut unbal = cfg(8, 100);
        unbal.balanced = false;
        unbal.prefetch = false;
        unbal.scale = 0.3;
        let u = run(&unbal);
        let mut bal = unbal.clone();
        bal.balanced = true;
        let b = run(&bal);
        assert!(
            b.run.balance.imbalance() < u.run.balance.imbalance(),
            "balancing should reduce the imbalance factor: {} vs {}",
            b.run.balance.imbalance(),
            u.run.balance.imbalance()
        );
    }

    #[test]
    fn io_volume_tracks_cached_percentage() {
        let half = run(&cfg(8, 50));
        let full = run(&cfg(8, 100));
        assert!(
            full.run.io_bytes > half.run.io_bytes * 3 / 2,
            "full disk moves more bytes: {} vs {}",
            full.run.io_bytes,
            half.run.io_bytes
        );
    }

    #[test]
    fn zero_percent_does_no_data_io() {
        let r = run(&cfg(4, 0));
        // Only metadata (open/flush/close); no reads or writes.
        assert_eq!(r.run.summary.rows[1].bytes, 0);
        assert_eq!(r.run.summary.rows[3].bytes, 0);
    }

    #[test]
    fn skew_is_deterministic_and_bounded() {
        for p in [2usize, 8, 64] {
            for r in 0..p {
                let s = eval_skew(r, p);
                assert!((0.75..=1.25).contains(&s));
                assert_eq!(s, eval_skew(r, p));
            }
        }
        assert_eq!(eval_skew(0, 1), 1.0);
    }
}
