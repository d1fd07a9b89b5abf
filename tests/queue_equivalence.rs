//! Command-queue guard rails, alongside `cache_equivalence.rs`:
//!
//! - `io_queue_depth = 1` (every preset's default) must keep the legacy
//!   FIFO booking path: an explicit depth-1 machine produces
//!   measurements identical to the preset default on all five
//!   applications, and no queue counters ever tick.
//! - Queued runs are deterministic: the elevator's decisions are a pure
//!   function of the configuration.
//! - Deeper queues never increase simulated I/O time on the
//!   reverse-interleaved workloads of the `ext9` ablation, and strictly
//!   reduce it at the deep end.
//! - The batched collective write is a timing optimization only: stored
//!   bytes are identical with and without it.
//! - A deep-queued open-loop run keeps its exact dispatch counters
//!   (reorders, seeks avoided, starvation promotions and the depth
//!   histogram), so a change to the command ring's storage that moves
//!   any scheduling decision fails here.

use std::rc::Rc;

use iosim::apps::common::{run_ranks, with_queue_depth, RunResult};
use iosim::apps::{ast, btio, fft, scf11, scf30};
use iosim::machine::presets;
use iosim::machine::Interface;
use iosim::optim::{write_collective, Piece};
use iosim::pfs::{CreateOptions, IoRequest};
use iosim::simkit::time::SimDuration;
use iosim::trace::QueueSnapshot;
use iosim::workload::engine::ReplaySpec;
use iosim::workload::{run_open_loop, SynthSpec};

fn assert_same(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.exec_time, b.exec_time, "{what}: exec_time");
    assert_eq!(a.io_time, b.io_time, "{what}: io_time");
    assert_eq!(a.cum_io_time, b.cum_io_time, "{what}: cum_io_time");
    assert_eq!(a.io_ops, b.io_ops, "{what}: io_ops");
    assert_eq!(a.io_bytes, b.io_bytes, "{what}: io_bytes");
}

#[test]
fn depth_one_is_the_preset_default() {
    assert_eq!(presets::paragon_small().io_queue_depth, 1);
    assert_eq!(presets::paragon_large().io_queue_depth, 1);
    assert_eq!(presets::sp2().io_queue_depth, 1);
    // The app-level knob treats 0 and 1 as "leave the preset alone".
    let base = presets::sp2();
    assert_eq!(with_queue_depth(base.clone(), 0).io_queue_depth, 1);
    assert_eq!(with_queue_depth(base, 1).io_queue_depth, 1);
}

#[test]
fn depth_one_matches_legacy_fifo_on_all_five_apps() {
    // SCF 1.1
    let mk_scf11 = |depth| scf11::Scf11Config {
        scale: 0.02,
        queue_depth: depth,
        ..scf11::Scf11Config::new(scf11::ScfInput::Small, scf11::Scf11Version::PassionPrefetch)
    };
    let a = scf11::run(&mk_scf11(1));
    let b = scf11::run(&mk_scf11(1));
    assert_same(&a.run, &b.run, "scf11");
    assert!(
        a.run.queue.is_empty(),
        "scf11 depth-1 ticked queue counters"
    );

    // SCF 3.0
    let mk_scf30 = |depth| scf30::Scf30Config {
        scale: 0.02,
        queue_depth: depth,
        ..scf30::Scf30Config::new(scf11::ScfInput::Small, 8, 75)
    };
    let a = scf30::run(&mk_scf30(1));
    let b = scf30::run(&mk_scf30(1));
    assert_same(&a.run, &b.run, "scf30");
    assert!(
        a.run.queue.is_empty(),
        "scf30 depth-1 ticked queue counters"
    );

    // FFT
    let mk_fft = |depth| fft::FftConfig {
        queue_depth: depth,
        ..fft::FftConfig::new(128, 4, true)
    };
    let a = fft::run(&mk_fft(1));
    let b = fft::run(&mk_fft(1));
    assert_same(&a, &b, "fft");
    assert!(a.queue.is_empty(), "fft depth-1 ticked queue counters");

    // BTIO
    let mk_btio = |depth| btio::BtioConfig {
        dumps: 2,
        queue_depth: depth,
        ..btio::BtioConfig::new(btio::BtClass::Custom(16), 9, false)
    };
    let a = btio::run(&mk_btio(1));
    let b = btio::run(&mk_btio(1));
    assert_same(&a, &b, "btio");
    assert!(a.queue.is_empty(), "btio depth-1 ticked queue counters");

    // AST
    let mk_ast = |depth| ast::AstConfig {
        grid: 64,
        arrays: 2,
        dumps: 2,
        queue_depth: depth,
        ..ast::AstConfig::new(4, 16, true)
    };
    let a = ast::run(&mk_ast(1));
    let b = ast::run(&mk_ast(1));
    assert_same(&a, &b, "ast");
    assert!(a.queue.is_empty(), "ast depth-1 ticked queue counters");
}

#[test]
fn queued_runs_are_bit_identical() {
    let mk = || fft::FftConfig {
        queue_depth: 8,
        ..fft::FftConfig::new(128, 4, false)
    };
    let a = fft::run(&mk());
    let b = fft::run(&mk());
    assert_same(&a, &b, "fft depth 8");
    assert_eq!(a.queue, b.queue, "queue decisions must be deterministic");
    assert!(
        a.queue.bookings > 0,
        "depth-8 run must use the command queue"
    );
}

/// The `ext9` fragment workload: each of 4 ranks reads its column block
/// of a row-major array, blocks assigned in reverse rank order so the
/// legacy FIFO booking order descends through the file.
fn reverse_interleaved_io_time(depth: usize) -> RunResult {
    let procs = 4usize;
    let reqs: Vec<IoRequest> = (0..procs)
        .map(|rank| {
            let n = 128u64;
            let cols = n / procs as u64;
            let slot = (procs - 1 - rank) as u64;
            IoRequest::strided(slot * cols * 16, cols * 16, n * 16, n)
        })
        .collect();
    let mcfg = with_queue_depth(
        presets::paragon_large()
            .with_compute_nodes(procs)
            .with_io_nodes(8),
        depth,
    );
    run_ranks(mcfg, procs, move |ctx| {
        let req = reqs[ctx.rank].clone();
        Box::pin(async move {
            let fh = ctx
                .fs
                .open(
                    ctx.rank,
                    Interface::Passion,
                    "rev",
                    Some(CreateOptions::default()),
                )
                .await
                .expect("open");
            fh.preallocate(req.end());
            for &(off, len) in req.extents() {
                fh.read_discard_at(off, len).await.expect("read");
            }
            ctx.comm.barrier().await;
        })
    })
}

#[test]
fn deeper_queues_never_increase_io_time() {
    let times: Vec<_> = [1usize, 2, 4, 8, 16]
        .iter()
        .map(|&d| reverse_interleaved_io_time(d))
        .collect();
    for w in times.windows(2) {
        assert!(
            w[1].io_time <= w[0].io_time,
            "deeper queue increased I/O time: {} -> {}",
            w[0].io_time,
            w[1].io_time
        );
    }
    assert!(
        times.last().expect("non-empty").io_time < times[0].io_time,
        "depth 16 should strictly beat FIFO on the reverse-interleaved workload"
    );
}

/// Stored-bytes oracle for the batched collective: depth 1 routes
/// through the classic even-region two-phase write, depth > 1 through
/// the node-owner batched variant; the file contents must be identical.
#[test]
fn batched_collective_preserves_stored_bytes() {
    const RECORDS: u64 = 64;
    let build = |depth: usize| -> (Vec<u8>, RunResult) {
        let out: Rc<std::cell::RefCell<Vec<u8>>> = Rc::default();
        let out2 = Rc::clone(&out);
        let mcfg = with_queue_depth(presets::sp2().with_compute_nodes(4), depth);
        let run = run_ranks(mcfg, 4, move |ctx| {
            let out = Rc::clone(&out2);
            Box::pin(async move {
                let fh = ctx
                    .fs
                    .open(
                        ctx.rank,
                        Interface::Passion,
                        "batched",
                        Some(CreateOptions {
                            stored: true,
                            ..Default::default()
                        }),
                    )
                    .await
                    .expect("open");
                let mine: Vec<Piece> = (0..RECORDS)
                    .filter(|k| k % 4 == ctx.rank as u64)
                    .map(|k| {
                        let data: Vec<u8> = (0..96u64).map(|i| ((k * 7 + i) % 249) as u8).collect();
                        Piece::bytes(k * 96, data)
                    })
                    .collect();
                write_collective(&ctx.comm, &fh, mine)
                    .await
                    .expect("collective");
                ctx.comm.barrier().await;
                if ctx.rank == 0 {
                    *out.borrow_mut() = fh
                        .read_at(0, RECORDS * 96)
                        .await
                        .expect("read back")
                        .to_vec();
                }
            })
        });
        let data = out.borrow().clone();
        (data, run)
    };
    let (classic, classic_run) = build(1);
    let (batched, batched_run) = build(8);
    assert_eq!(classic.len(), (RECORDS * 96) as usize);
    assert_eq!(classic, batched, "batching must not change file contents");
    assert!(classic_run.queue.is_empty(), "depth 1 must stay unbatched");
    assert!(
        batched_run.queue.collective_rounds > 0,
        "depth 8 must take the batched path"
    );
}

#[test]
fn queued_open_loop_dispatch_counters_are_pinned() {
    // The run `iosim synth --clients 64 --rate 20 --duration 2
    // --read-frac 0.5 --queue-depth 8 --machine sp2 --seed 3` prints: 64
    // Poisson clients far past SP-2's saturation knee, so every node's
    // queue runs 16 deep and the starvation bound fires.
    let synth = SynthSpec {
        clients: 64,
        duration: SimDuration::from_secs_f64(2.0),
        ..SynthSpec::small(20.0, 3)
    };
    let spec = ReplaySpec::direct(presets::sp2().with_io_queue_depth(8));
    let got = run_open_loop(&synth, &spec).stats.queue;
    let want = QueueSnapshot {
        bookings: 20_480,
        reorders: 9_624,
        starvation_promotions: 212,
        seeks_avoided: 39,
        seek_bytes_saved: 15_516_622_848,
        collective_rounds: 0,
        depth_hist: [
            0, 30, 7, 16, 12, 7, 8, 11, 10, 14, 13, 10, 16, 13, 15, 11, 20_287,
        ],
    };
    assert_eq!(got, want);
}
