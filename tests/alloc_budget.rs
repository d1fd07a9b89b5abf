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
//!
//! The poll budgets at the end pin the same for executor wake-ups: a
//! collective costs each rank a few polls at any world size, not a few
//! per message. The same allocator also tracks live bytes, which pins
//! that a finished simulation frees everything it allocated.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use iosim::apps::btio::{self, BtClass, BtioConfig};
use iosim::prelude::*;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn add_live(bytes: i64) {
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: defers every operation to `System`; the counters are
// const-initialized thread-local `Cell`s without destructors, so touching
// them cannot allocate or recurse.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        add_live(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        add_live(layout.size() as i64);
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add_live(new_size as i64 - layout.size() as i64);
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

/// Executor polls per rank of one collective over `procs` ranks, each
/// rank contributing 4 KiB to every other rank.
fn collective_polls_per_rank(procs: usize, alltoallv: bool) -> f64 {
    let mut sim = Sim::new();
    let m = Machine::new(sim.handle(), presets::sp2());
    let ranks: Vec<_> = World::new(m, procs)
        .comms()
        .into_iter()
        .map(|c| async move {
            if alltoallv {
                let to_each = (0..c.size()).map(|_| Payload::synthetic(4096)).collect();
                c.alltoallv(to_each).await;
            } else {
                c.allgather(Payload::synthetic(4096)).await;
            }
        })
        .collect();
    let h = sim.handle();
    sim.spawn(async move { join_all(&h, ranks).await });
    sim.run();
    sim.events_processed() as f64 / procs as f64
}

#[test]
fn a_collective_costs_each_rank_a_few_polls_at_any_world_size() {
    // A rank posts its sends together and takes its receives together:
    // its first poll, the injection wake, a mailbox wake or two and the
    // delivery wake, however many ranks take part. Measured: 3.4 and 3.1
    // polls per rank for `allgather` at 8 and 32 ranks, 4.1 and 4.0 for
    // `alltoallv`. A message-at-a-time exchange costs about three polls
    // per message: 9.4 and 33.1 for `allgather`.
    for alltoallv in [false, true] {
        let small = collective_polls_per_rank(8, alltoallv);
        let large = collective_polls_per_rank(32, alltoallv);
        eprintln!("alltoallv={alltoallv}: {small:.2} polls/rank at 8 ranks, {large:.2} at 32");
        assert!(
            large <= small + 0.5,
            "polls per rank grew with the world: {small:.2} at 8 ranks, {large:.2} at 32"
        );
        assert!(
            small.max(large) <= 5.0,
            "{small:.2} and {large:.2} polls per rank"
        );
    }
}

#[test]
fn two_phase_replay_polls_per_io_op_stay_within_budget() {
    let text = include_str!("data/sample_opstream.trace");
    let stream = parse_any(text, 42).expect("committed sample trace parses");
    let r = iosim::workload::replay(&stream, &ReplaySpec::two_phase(presets::sp2(), 32));
    let per_op = r.stats.sim_events as f64 / r.stats.io_ops as f64;
    eprintln!(
        "two-phase replay: {} polls over {} io_ops = {per_op:.3}/op",
        r.stats.sim_events, r.stats.io_ops
    );
    // Measured 4.55 (100 polls over 22 io_ops): each rank opens the
    // checkpoint file and its own scratch log. When every rank opened
    // every file it was 4.78 (191 polls over 40 io_ops), and the
    // message-at-a-time exchange took 7.73.
    assert!(r.stats.io_ops >= 22, "{} io_ops", r.stats.io_ops);
    assert!(per_op <= 5.5, "{per_op:.3} polls per io op");
}

/// Two-phase replay polls per data op of a trace in which each of
/// `ranks` ranks writes eight records to a file no other rank opens.
fn private_files_two_phase_polls_per_data_op(ranks: usize) -> f64 {
    let mut text = String::from("#iosim opstream v1\n");
    for r in 0..ranks {
        text.push_str(&format!("{r} open own{r}.dat\n"));
        for k in 0..8 {
            text.push_str(&format!("{r} write own{r}.dat {} 65536\n", k * 65536));
        }
        text.push_str(&format!("{r} close own{r}.dat\n"));
    }
    let stream = parse_any(&text, 42).expect("generated trace parses");
    let machine = presets::sp2().with_compute_nodes(ranks);
    let r = iosim::workload::replay(&stream, &ReplaySpec::two_phase(machine, 4));
    r.stats.sim_events as f64 / stream.data_ops() as f64
}

#[test]
fn two_phase_collectives_span_only_a_files_openers() {
    // A file's collectives run over the ranks that open it, so a private
    // file costs its one rank the same polls whatever the job's size.
    // Measured: 1.28 polls per data op at 4 ranks, 1.31 at 32. When every
    // rank joined every file's collectives: 11.41 and 235.09.
    let small = private_files_two_phase_polls_per_data_op(4);
    let large = private_files_two_phase_polls_per_data_op(32);
    eprintln!("private files: {small:.2} polls/data op at 4 ranks, {large:.2} at 32");
    assert!(
        large <= small + 0.5,
        "polls per data op grew with the job: {small:.2} at 4 ranks, {large:.2} at 32"
    );
}

#[test]
fn repeated_replays_on_a_queued_machine_free_their_simulations() {
    // With a command queue, each I/O node runs a daemon task that holds
    // the machine, and through it the simulation's own core; dropping
    // the simulation must still free it.
    let text = include_str!("data/sample_opstream.trace");
    let stream = parse_any(text, 42).expect("committed sample trace parses");
    let spec = ReplaySpec::direct(presets::sp2().with_io_queue_depth(8));
    let replay = || drop(iosim::workload::replay(&stream, &spec));
    replay(); // warm up thread-local state outside the measurement
    let base = LIVE.with(Cell::get);
    replay();
    let after_one = LIVE.with(Cell::get) - base;
    for _ in 1..20 {
        replay();
    }
    let after_twenty = LIVE.with(Cell::get) - base;
    eprintln!("live bytes: {after_one} after one replay, {after_twenty} after twenty");
    assert_eq!(after_twenty, after_one, "each replay leaks its simulation");
}
