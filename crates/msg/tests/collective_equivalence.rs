//! `allgather`, `alltoallv`, `gather` and `bcast` post a rank's sends
//! together and take its receives together (`Comm::post`,
//! `Comm::recv_all`). That must be invisible to the simulation: for
//! every collective, `barrier` among them, each rank's return value,
//! completion instant and NIC statistics must equal those of the
//! message-at-a-time schedule, written here as a reference from
//! point-to-point `send`/`recv` loops.
//!
//! Each return value must also honour its collective's contract:
//! broadcast replicates the root's payload, gather and all-gather
//! collect every rank's payload in rank order, and all-to-all is a
//! transpose.
//!
//! The cases are drawn from seeded `SimRng`s: world sizes 1, 2, 3, 5, 16
//! and 17, a random sequence of collectives with random per-rank start
//! skews before each, zero-length, synthetic and real-byte payloads, and
//! mesh-link contention off and on. `allreduce_sum` has no batched form;
//! a drawn test checks that its integer sums are exact.

use iosim_machine::{presets, Machine};
use iosim_msg::{Comm, MatchSrc, Payload, World};
use iosim_simkit::executor::{join_all, Sim};
use iosim_simkit::rng::SimRng;
use iosim_simkit::time::{SimDuration, SimTime};

const SEEDS: u64 = 12;
const SIZES: [usize; 6] = [1, 2, 3, 5, 16, 17];
const STEPS: usize = 6;

#[derive(Clone, Copy, Debug)]
enum Op {
    Barrier,
    Bcast(usize),
    Gather(usize),
    Allgather,
    Alltoallv,
}

/// One drawn case: the collective sequence, each rank's skew before each
/// step, and `payloads[step][rank][dst]` (only `[..][..][0]` is used by
/// the collectives that send one payload).
struct Case {
    n: usize,
    contention: bool,
    ops: Vec<Op>,
    skews: Vec<Vec<SimDuration>>,
    payloads: Vec<Vec<Vec<Payload>>>,
}

fn draw_payload(rng: &mut SimRng) -> Payload {
    match rng.range(0, 3) {
        0 => Payload::empty(),
        1 => Payload::synthetic(rng.range(1, 1 << 20)),
        _ => {
            let mut b = vec![0u8; rng.range(1, 2048) as usize];
            rng.fill_bytes(&mut b);
            Payload::bytes(b)
        }
    }
}

fn draw_case(seed: u64, n: usize, contention: bool) -> Case {
    let mut rng = SimRng::seed_from(seed * 1_000 + n as u64);
    let ops = (0..STEPS)
        .map(|_| match rng.range(0, 5) {
            0 => Op::Barrier,
            1 => Op::Bcast(rng.range(0, n as u64) as usize),
            2 => Op::Gather(rng.range(0, n as u64) as usize),
            3 => Op::Allgather,
            _ => Op::Alltoallv,
        })
        .collect();
    let skews = (0..STEPS)
        .map(|_| {
            (0..n)
                .map(|_| match rng.range(0, 3) {
                    0 => SimDuration::ZERO,
                    _ => SimDuration::from_nanos(rng.range(1, 3_000_000)),
                })
                .collect()
        })
        .collect();
    let payloads = (0..STEPS)
        .map(|_| {
            (0..n)
                .map(|_| (0..n).map(|_| draw_payload(&mut rng)).collect())
                .collect()
        })
        .collect();
    Case {
        n,
        contention,
        ops,
        skews,
        payloads,
    }
}

async fn ref_barrier(c: &Comm, tag: u64) {
    let n = c.size();
    if c.rank() == 0 {
        for _ in 1..n {
            c.recv(MatchSrc::Any, tag).await;
        }
        for dst in 1..n {
            c.send(dst, tag + 1, Payload::empty()).await;
        }
    } else {
        c.send(0, tag, Payload::empty()).await;
        c.recv(MatchSrc::Rank(0), tag + 1).await;
    }
}

async fn ref_bcast(c: &Comm, tag: u64, root: usize, p: Payload) -> Payload {
    if c.rank() != root {
        return c.recv(MatchSrc::Rank(root), tag).await.1;
    }
    for dst in (0..c.size()).filter(|&d| d != root) {
        c.send(dst, tag, p.clone()).await;
    }
    p
}

async fn ref_gather(c: &Comm, tag: u64, root: usize, p: Payload) -> Vec<Payload> {
    if c.rank() != root {
        c.send(root, tag, p).await;
        return Vec::new();
    }
    let mut out = vec![Payload::synthetic(0); c.size()];
    out[root] = p;
    for _ in 1..c.size() {
        let (src, p) = c.recv(MatchSrc::Any, tag).await;
        out[src] = p;
    }
    out
}

async fn ref_allgather(c: &Comm, tag: u64, p: Payload) -> Vec<Payload> {
    for dst in (0..c.size()).filter(|&d| d != c.rank()) {
        c.send(dst, tag, p.clone()).await;
    }
    let mut out = vec![Payload::synthetic(0); c.size()];
    out[c.rank()] = p;
    for _ in 1..c.size() {
        let (src, p) = c.recv(MatchSrc::Any, tag).await;
        out[src] = p;
    }
    out
}

async fn ref_alltoallv(c: &Comm, tag: u64, mut slots: Vec<Payload>) -> Vec<Payload> {
    let (n, me) = (c.size(), c.rank());
    for k in 1..n {
        let dst = (me + k) % n;
        let p = std::mem::replace(&mut slots[dst], Payload::synthetic(0));
        c.send(dst, tag, p).await;
    }
    for _ in 1..n {
        let (src, p) = c.recv(MatchSrc::Any, tag).await;
        slots[src] = p;
    }
    slots
}

/// What one rank saw at one step: the collective's return value and the
/// instant it completed.
type StepOutcome = (Vec<Payload>, SimTime);

/// A NIC's statistics: requests, busy and queued nanoseconds, last
/// completion.
type NicStats = (u64, u64, u64, SimTime);

/// Run `case` with the library's collectives (`reference == false`) or
/// with the point-to-point reference, returning each rank's outcomes per
/// step and each rank's NIC statistics at the end.
fn run(case: &Case, reference: bool) -> (Vec<Vec<StepOutcome>>, Vec<NicStats>) {
    let mut sim = Sim::new();
    let mut cfg = presets::paragon_small();
    cfg.net.link_contention = case.contention;
    let m = Machine::new(sim.handle(), cfg);
    let w = World::new(m.clone(), case.n);
    let h = sim.handle();
    let ranks: Vec<_> = w
        .comms()
        .into_iter()
        .map(|c| {
            let h = h.clone();
            let me = c.rank();
            let steps: Vec<_> = (0..STEPS)
                .map(|s| (case.ops[s], case.skews[s][me], case.payloads[s][me].clone()))
                .collect();
            async move {
                let mut seen = Vec::with_capacity(steps.len());
                for (s, (op, skew, mut mine)) in steps.into_iter().enumerate() {
                    h.sleep(skew).await;
                    let tag = 2 * s as u64;
                    let first = mine[0].clone();
                    let got = match (op, reference) {
                        (Op::Barrier, false) => {
                            c.barrier().await;
                            Vec::new()
                        }
                        (Op::Barrier, true) => {
                            ref_barrier(&c, tag).await;
                            Vec::new()
                        }
                        (Op::Bcast(root), false) => {
                            let p = (me == root).then_some(first);
                            vec![c.bcast(root, p).await]
                        }
                        (Op::Bcast(root), true) => vec![ref_bcast(&c, tag, root, first).await],
                        (Op::Gather(root), false) => {
                            c.gather(root, first).await.unwrap_or_default()
                        }
                        (Op::Gather(root), true) => ref_gather(&c, tag, root, first).await,
                        (Op::Allgather, false) => c.allgather(first).await,
                        (Op::Allgather, true) => ref_allgather(&c, tag, first).await,
                        (Op::Alltoallv, false) => c.alltoallv(std::mem::take(&mut mine)).await,
                        (Op::Alltoallv, true) => {
                            ref_alltoallv(&c, tag, std::mem::take(&mut mine)).await
                        }
                    };
                    seen.push((got, h.now()));
                }
                seen
            }
        })
        .collect();
    let jh = sim.spawn(async move { join_all(&h, ranks).await });
    sim.run();
    let outcomes = jh.try_take().expect("every rank completed");
    let nics = (0..case.n)
        .map(|r| {
            let s = m.nic(r).stats();
            (
                s.requests,
                s.busy.as_nanos(),
                s.queued.as_nanos(),
                s.last_completion,
            )
        })
        .collect();
    (outcomes, nics)
}

/// What rank `rank` must get back from step `step` of `case`, by the
/// collective's contract alone.
fn contract(case: &Case, step: usize, rank: usize) -> Vec<Payload> {
    let sent = &case.payloads[step];
    let firsts = || (0..case.n).map(|r| sent[r][0].clone()).collect();
    match case.ops[step] {
        Op::Barrier => Vec::new(),
        Op::Bcast(root) => vec![sent[root][0].clone()],
        Op::Gather(root) if rank == root => firsts(),
        Op::Gather(_) => Vec::new(),
        Op::Allgather => firsts(),
        Op::Alltoallv => (0..case.n).map(|src| sent[src][rank].clone()).collect(),
    }
}

fn check(contention: bool) {
    let mut messages = 0u64;
    for seed in 0..SEEDS {
        for n in SIZES {
            let case = draw_case(seed, n, contention);
            let (got, got_nics) = run(&case, false);
            let (want, want_nics) = run(&case, true);
            for rank in 0..n {
                for step in 0..STEPS {
                    let tag = format!(
                        "seed {seed}, {n} ranks, contention {contention}, rank {rank}, \
                         step {step} ({:?})",
                        case.ops[step]
                    );
                    let ((gv, gt), (wv, wt)) = (&got[rank][step], &want[rank][step]);
                    assert_eq!(gv, wv, "{tag}: return value differs");
                    assert_eq!(gt, wt, "{tag}: completion instant differs");
                    assert_eq!(
                        gv,
                        &contract(&case, step, rank),
                        "{tag}: breaks the collective's contract"
                    );
                }
                assert_eq!(
                    got_nics[rank], want_nics[rank],
                    "seed {seed}, {n} ranks, contention {contention}, rank {rank}: NIC stats differ"
                );
            }
            messages += want_nics.iter().map(|s| s.0).sum::<u64>();
        }
    }
    // The draw must exercise real traffic, not only 1-rank worlds.
    assert!(messages > 10_000, "only {messages} messages exchanged");
}

#[test]
fn batched_collectives_match_point_to_point_loops() {
    check(false);
}

#[test]
fn collectives_under_link_contention_match_point_to_point_loops() {
    check(true);
}

#[test]
fn allreduce_sum_is_exact_for_drawn_integers() {
    for seed in 0..SEEDS * 2 {
        let mut rng = SimRng::seed_from(0xa11_0000 + seed);
        let n = rng.range(2, 7) as usize;
        let values: Vec<i64> = (0..n).map(|_| rng.range(0, 2_000) as i64 - 1_000).collect();
        let want = values.iter().sum::<i64>() as f64;
        let mut sim = Sim::new();
        let m = Machine::new(sim.handle(), presets::paragon_large());
        let w = World::new(m, n);
        let h = sim.handle();
        let ranks: Vec<_> = w
            .comms()
            .into_iter()
            .map(|c| {
                let v = values[c.rank()] as f64;
                async move { c.allreduce_sum(v).await }
            })
            .collect();
        let jh = sim.spawn(async move { join_all(&h, ranks).await });
        sim.run();
        for (rank, got) in jh
            .try_take()
            .expect("every rank completed")
            .into_iter()
            .enumerate()
        {
            assert_eq!(got, want, "seed {seed}, {n} ranks, rank {rank}: {values:?}");
        }
    }
}
