//! Property tests of the FIFO resource and the timer queue: the
//! virtual-queue booking must behave exactly like an m-server FIFO
//! queue, and sleeping tasks must wake in deadline order.
//!
//! Cases are drawn from seeded [`SimRng`]s; every failure names its
//! seed, so it reproduces without an external property-testing crate.

use iosim_simkit::prelude::*;

/// Seeds per property.
const SEEDS: u64 = 256;

/// Draw `1..max_jobs` jobs of `(arrival, duration)` with arrivals below
/// `max_arrival` and durations in `1..max_dur`, sorted by arrival.
fn draw_jobs(rng: &mut SimRng, max_jobs: u64, max_arrival: u64, max_dur: u64) -> Vec<(u64, u64)> {
    let mut jobs: Vec<(u64, u64)> = (0..rng.range(1, max_jobs))
        .map(|_| (rng.range(0, max_arrival), rng.range(1, max_dur)))
        .collect();
    jobs.sort_by_key(|&(a, _)| a);
    jobs
}

/// Book `dur` at `arrival` for every job, in order, and return the
/// (start, end) pairs.
fn book_all(capacity: usize, jobs: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let sim = Sim::new();
    let r = Resource::new(sim.handle(), "r", capacity);
    jobs.iter()
        .map(|&(arrival, dur)| {
            let (s, e) = r.reserve_at(SimTime(arrival), SimDuration(dur));
            (s.as_nanos(), e.as_nanos())
        })
        .collect()
}

#[test]
fn single_server_is_fifo_and_work_conserving() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from(0x5e41_0000 + seed);
        let jobs = draw_jobs(&mut rng, 50, 10_000, 1_000);
        let booked = book_all(1, &jobs);
        let mut prev_end = 0u64;
        for (k, (&(arrival, dur), &(start, end))) in jobs.iter().zip(&booked).enumerate() {
            // Work conservation and FIFO: the server starts each job at
            // max(arrival, previous end), never earlier and never idle
            // while work waits; service is exact.
            assert_eq!(start, arrival.max(prev_end), "seed {seed} job {k}: start");
            assert_eq!(end, start + dur, "seed {seed} job {k}: end");
            prev_end = end;
        }
    }
}

#[test]
fn multi_server_never_exceeds_capacity() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from(0x5e42_0000 + seed);
        let capacity = rng.range(1, 5) as usize;
        let jobs = draw_jobs(&mut rng, 60, 5_000, 500);
        let booked = book_all(capacity, &jobs);
        // At any service start, fewer than `capacity` other services may
        // already be running.
        for (i, &(s_i, _)) in booked.iter().enumerate() {
            let overlapping = booked
                .iter()
                .enumerate()
                .filter(|&(j, &(s, e))| j != i && s <= s_i && s_i < e)
                .count();
            assert!(
                overlapping < capacity,
                "seed {seed}: {overlapping} services already running at start {s_i} \
                 with capacity {capacity}"
            );
        }
        // Total busy time matches the sum of durations.
        let total: u64 = jobs.iter().map(|&(_, d)| d).sum();
        let busy: u64 = booked.iter().map(|&(s, e)| e - s).sum();
        assert_eq!(total, busy, "seed {seed}: busy time");
    }
}

#[test]
fn stats_agree_with_bookings() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from(0x5e43_0000 + seed);
        // Unsorted arrivals on purpose: the stats must hold either way.
        let jobs: Vec<(u64, u64)> = (0..rng.range(1, 30))
            .map(|_| (rng.range(0, 1_000), rng.range(1, 100)))
            .collect();
        let sim = Sim::new();
        let r = Resource::new(sim.handle(), "r", 2);
        let mut last = 0u64;
        for &(arrival, dur) in &jobs {
            let (_, e) = r.reserve_at(SimTime(arrival), SimDuration(dur));
            last = last.max(e.as_nanos());
        }
        let st = r.stats();
        assert_eq!(st.requests, jobs.len() as u64, "seed {seed}: requests");
        assert_eq!(
            st.busy.as_nanos(),
            jobs.iter().map(|&(_, d)| d).sum::<u64>(),
            "seed {seed}: busy"
        );
        assert_eq!(
            st.last_completion.as_nanos(),
            last,
            "seed {seed}: last completion"
        );
    }
}

#[test]
fn sleeping_tasks_complete_in_deadline_order() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from(0x5e44_0000 + seed);
        // A narrow range for some seeds forces equal deadlines, whose
        // ties must resolve in spawn order.
        let span = if seed % 2 == 0 { 1_000_000 } else { 8 };
        let delays: Vec<u64> = (0..rng.range(1, 40)).map(|_| rng.range(1, span)).collect();
        let mut sim = Sim::new();
        let h = sim.handle();
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        for (i, &d) in delays.iter().enumerate() {
            let h = h.clone();
            let log = std::rc::Rc::clone(&log);
            sim.spawn(async move {
                h.sleep(SimDuration(d)).await;
                log.borrow_mut().push((d, i));
            });
        }
        let end = sim.run();
        assert_eq!(
            end.as_nanos(),
            *delays.iter().max().unwrap(),
            "seed {seed}: end"
        );
        let completed = log.borrow().clone();
        // Completions are sorted by (deadline, spawn order).
        let mut expected = completed.clone();
        expected.sort();
        assert_eq!(completed, expected, "seed {seed}: completion order");
    }
}
