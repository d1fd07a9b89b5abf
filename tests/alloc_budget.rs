//! Heap-allocation budgets of the simulation hot path.
//!
//! A counting global allocator tallies allocations per thread (the test
//! harness runs tests on parallel threads, and every simulation here is
//! single-threaded, so a thread-local count is exact). The budgets pin
//! the allocation-free steady state (DESIGN.md §15): a run's
//! allocations come from setup and from per-task spawns (one for a
//! detached task, two with a join handle), not from every timer,
//! striping decomposition or collective message. Each budget is the
//! count measured when it was set plus a little headroom.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use iosim::apps::btio::{self, BtClass, BtioConfig};
use iosim::prelude::*;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to `System`; the counter is a
// const-initialized thread-local `Cell` without a destructor, so touching
// it cannot allocate or recurse.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Heap allocations `f` makes on this thread, with its output.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

#[test]
fn unix_style_btio_allocates_almost_nothing_per_io_op() {
    let cfg = BtioConfig {
        dumps: 3,
        ..BtioConfig::new(BtClass::A, 16, false)
    };
    let (allocs, r) = allocations(|| btio::run(&cfg));
    let per_op = allocs as f64 / r.io_ops as f64;
    eprintln!(
        "btio: {allocs} allocations over {} io_ops = {per_op:.4}/op",
        r.io_ops
    );
    assert!(r.io_ops > 50_000, "{} io_ops", r.io_ops);
    assert!(
        per_op <= 0.0025,
        "{allocs} allocations for {} io_ops",
        r.io_ops
    );
}

/// One task sleeping `steps` times, one virtual millisecond each.
fn sleep_storm(steps: u64) -> SimTime {
    let mut sim = Sim::new();
    let h = sim.handle();
    sim.spawn(async move {
        for _ in 0..steps {
            h.sleep(SimDuration::from_millis(1)).await;
        }
    });
    sim.run()
}

#[test]
fn fired_timers_recycle_their_waker_slots() {
    // Warm the allocator-independent state (thread-locals of the buffer
    // crate and the like) so both storms start from the same point.
    sleep_storm(1);
    let (short, end) = allocations(|| sleep_storm(100));
    assert_eq!(end, SimTime::ZERO + SimDuration::from_millis(100));
    let (long, end) = allocations(|| sleep_storm(10_000));
    assert_eq!(end, SimTime::ZERO + SimDuration::from_millis(10_000));
    eprintln!("sleep storm: 100 steps {short}, 10k steps {long} allocations");
    assert_eq!(long, short, "a fired sleep must reuse its pooled slot");
}

/// An open-loop client in miniature: one driver issues `ops` requests a
/// millisecond apart, each a detached task that sleeps through a 5 ms
/// service time and counts its completion (about five in flight).
fn open_loop_ops(ops: u64) -> u64 {
    let mut sim = Sim::new();
    let h = sim.handle();
    let done = Rc::new(Cell::new(0u64));
    let counter = Rc::clone(&done);
    let (allocs, _) = allocations(move || {
        h.clone().spawn_detached(async move {
            for _ in 0..ops {
                h.sleep(SimDuration::from_millis(1)).await;
                let (h2, counter) = (h.clone(), Rc::clone(&counter));
                h.spawn_detached(async move {
                    h2.sleep(SimDuration::from_millis(5)).await;
                    counter.set(counter.get() + 1);
                });
            }
        });
        sim.run()
    });
    assert_eq!(done.get(), ops);
    allocs
}

#[test]
fn a_detached_open_loop_op_is_one_allocation() {
    open_loop_ops(10);
    let short = open_loop_ops(100);
    let long = open_loop_ops(1_100);
    let per_op = (long - short) as f64 / 1_000.0;
    eprintln!("detached ops: 100 ops {short}, 1100 ops {long} allocations = {per_op:.3}/op");
    assert!(per_op <= 1.0, "{per_op} allocations per detached op task");
}

/// Every rank of a `procs`-rank world opens one file and, with
/// `collective`, writes an interleaved synthetic pattern through
/// two-phase I/O: each rank holds one 4 KiB record in every other
/// rank's conforming region, so every rank sends to every rank.
fn collective_run(procs: usize, collective: bool) -> u64 {
    const RECORD: u64 = 4096;
    let cfg = presets::sp2().with_compute_nodes(procs);
    let (allocs, _) = allocations(|| {
        run_ranks(cfg, procs, move |ctx| {
            Box::pin(async move {
                let fh = ctx
                    .fs
                    .open(
                        ctx.rank,
                        Interface::UnixStyle,
                        "collective",
                        Some(CreateOptions::default()),
                    )
                    .await
                    .expect("open");
                if collective {
                    let p = procs as u64;
                    let pieces: Vec<Piece> = (0..p * p)
                        .filter(|k| k % p == ctx.rank as u64)
                        .map(|k| Piece::synthetic(k * RECORD, RECORD))
                        .collect();
                    write_collective(&ctx.comm, &fh, pieces)
                        .await
                        .expect("collective write");
                }
                ctx.comm.barrier().await;
            })
        })
    });
    allocs
}

#[test]
fn synthetic_collective_write_allocates_linearly_in_ranks() {
    let procs = 16;
    collective_run(procs, true);
    let base = collective_run(procs, false);
    let with = collective_run(procs, true);
    let cost = with - base;
    eprintln!("write_collective over {procs} ranks: {cost} allocations");
    assert!(
        cost <= 10 * procs as u64,
        "{cost} allocations for one {procs}-rank collective"
    );
}
