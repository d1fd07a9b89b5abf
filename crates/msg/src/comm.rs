//! Point-to-point communication: the [`World`], per-rank [`Comm`]
//! endpoints, and tag-matched receive of [`Payload`]s.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use iosim_buf::Payload;
use iosim_machine::Machine;
use iosim_simkit::time::{SimDuration, SimTime};

/// Source matching for receives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchSrc {
    /// Match messages from one specific rank.
    Rank(usize),
    /// Match messages from any rank.
    Any,
}

struct Envelope {
    src: usize,
    tag: u64,
    deliver_at: SimTime,
    payload: Payload,
}

#[derive(Default)]
struct Mailbox {
    msgs: VecDeque<Envelope>,
    wakers: Vec<Waker>,
}

struct WorldInner {
    machine: Rc<Machine>,
    /// Compute node of each rank: rank `r` sends through `nodes[r]`'s
    /// NIC and is that node's mesh position for hop counts.
    nodes: Vec<usize>,
    mailboxes: Vec<RefCell<Mailbox>>,
}

/// The communication world: ranks on compute nodes of one machine.
#[derive(Clone)]
pub struct World {
    inner: Rc<WorldInner>,
}

impl World {
    /// Create a world of `size` ranks mapped to compute nodes `0..size`.
    ///
    /// # Panics
    /// Panics if `size` exceeds the machine's compute nodes or is zero.
    pub fn new(machine: Rc<Machine>, size: usize) -> World {
        World::on_nodes(machine, (0..size).collect())
    }

    /// Create a world whose rank `r` runs on compute node `nodes[r]`: a
    /// communicator over a subset of the machine, such as the ranks that
    /// opened one file (MPI-IO runs a file's collectives over the
    /// communicator that opened it).
    ///
    /// # Panics
    /// Panics if `nodes` is empty or names a node the machine lacks.
    pub fn on_nodes(machine: Rc<Machine>, nodes: Vec<usize>) -> World {
        assert!(!nodes.is_empty(), "world must have at least one rank");
        let limit = machine.compute_nodes();
        if let Some(&bad) = nodes.iter().find(|&&n| n >= limit) {
            panic!("world rank on node {bad} exceeds {limit} compute nodes");
        }
        World {
            inner: Rc::new(WorldInner {
                machine,
                mailboxes: nodes
                    .iter()
                    .map(|_| RefCell::new(Mailbox::default()))
                    .collect(),
                nodes,
            }),
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.inner.nodes.len()
    }

    /// The machine the world runs on.
    pub fn machine(&self) -> &Rc<Machine> {
        &self.inner.machine
    }

    /// Endpoint for `rank`.
    pub fn comm(&self, rank: usize) -> Comm {
        assert!(rank < self.size(), "rank {rank} outside world");
        Comm {
            world: self.clone(),
            rank,
            coll_seq: Rc::new(std::cell::Cell::new(0)),
        }
    }

    /// Endpoints for every rank, in rank order.
    pub fn comms(&self) -> Vec<Comm> {
        (0..self.size()).map(|r| self.comm(r)).collect()
    }
}

/// A per-rank communication endpoint.
///
/// Clones share the endpoint (including the collective-tag sequence), so
/// a clone can be moved into a background task for non-blocking sends.
#[derive(Clone)]
pub struct Comm {
    world: World,
    rank: usize,
    /// Per-rank collective sequence number; ranks must call collectives in
    /// the same order (as in MPI), which keeps tags aligned.
    pub(crate) coll_seq: Rc<std::cell::Cell<u64>>,
}

impl Comm {
    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.world.size()
    }

    /// The underlying machine.
    pub fn machine(&self) -> &Rc<Machine> {
        self.world.machine()
    }

    /// The world.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Send `payload` to `dst` with `tag`.
    ///
    /// The send blocks (in virtual time) until the message has been
    /// injected through this rank's NIC — like a buffered MPI send. The
    /// message is delivered `base + per_hop × hops` after injection.
    pub async fn send(&self, dst: usize, tag: u64, payload: Payload) {
        let h = self.world.machine().handle();
        let inject_end = self.post(dst, tag, payload, h.now());
        h.sleep_until(inject_end).await;
    }

    /// Post `payload` to `dst` with `tag` as if the send were issued at
    /// `arrival` (not before now), without waiting: book the NIC from
    /// `arrival`, enqueue the envelope at `dst` with its delivery instant,
    /// and return the instant the injection ends. A sequence of sends is
    /// a chain of posts, each arriving at the previous one's injection
    /// end, followed by one sleep until the last; that books the NIC and
    /// delivers every message exactly as the sequential sends would, with
    /// one wake-up instead of one per message. That holds while no other
    /// task on this rank books its NIC during the chain: the NIC serves
    /// bookings in the order they are made, so a send from another task
    /// would queue behind the whole chain rather than between two of its
    /// messages.
    pub(crate) fn post(&self, dst: usize, tag: u64, payload: Payload, arrival: SimTime) -> SimTime {
        assert!(dst < self.size(), "send to rank {dst} outside world");
        let m = self.world.machine();
        debug_assert!(
            arrival >= m.handle().now(),
            "a send cannot arrive in the past"
        );
        let cfg = m.cfg();
        let nodes = &self.world.inner.nodes;
        let (from, to) = (nodes[self.rank], nodes[dst]);
        let inject = SimDuration::from_secs_f64(payload.len as f64 / cfg.net.bandwidth_bps);
        let (_, inject_end) = m.nic(from).reserve_at(arrival, inject);
        let hops = if dst == self.rank {
            0
        } else {
            m.topology().compute_hops(from, to)
        };
        let latency = cfg.net.base_latency + cfg.net.per_hop_latency * hops as u64;
        // Under link-contention modelling, the message also books
        // bandwidth along its XY route.
        let route_end = if dst != self.rank && m.models_link_contention() {
            m.reserve_route(
                m.topology().compute_coord(from),
                m.topology().compute_coord(to),
                payload.len,
                inject_end,
            )
        } else {
            inject_end
        };
        let deliver_at = route_end.max(inject_end) + latency;
        let mut mb = self.world.inner.mailboxes[dst].borrow_mut();
        mb.msgs.push_back(Envelope {
            src: self.rank,
            tag,
            deliver_at,
            payload,
        });
        for w in mb.wakers.drain(..) {
            w.wake();
        }
        inject_end
    }

    /// Receive a message matching `(src, tag)`. Returns `(source, payload)`.
    ///
    /// Matching is FIFO per `(source, tag)` pair; the receive completes at
    /// the message's delivery instant.
    pub async fn recv(&self, src: MatchSrc, tag: u64) -> (usize, Payload) {
        let env = MatchFuture {
            world: self.world.clone(),
            rank: self.rank,
            src,
            tag,
        }
        .await;
        let h = self.world.machine().handle().clone();
        h.sleep_until(env.deliver_at).await;
        (env.src, env.payload)
    }

    /// Receive `count` messages with `tag` from any sources, handing each
    /// to `each(source, payload)` as it is matched, and complete once the
    /// last one is delivered.
    ///
    /// Each wake-up takes every matching message already in the mailbox,
    /// and the receive then sleeps once, until the latest delivery
    /// instant. It completes at the same instant as `count` successive
    /// [`Comm::recv`]s: a message is enqueued no later than it is
    /// delivered, so both finish at the later of now and the latest
    /// delivery, whatever order the messages arrive in.
    pub(crate) async fn recv_all(
        &self,
        tag: u64,
        count: usize,
        mut each: impl FnMut(usize, Payload),
    ) {
        // A match already in the mailbox is ready without yielding, so the
        // task parks only when no matching message has been enqueued yet.
        let mut latest = SimTime::ZERO;
        for _ in 0..count {
            let env = MatchFuture {
                world: self.world.clone(),
                rank: self.rank,
                src: MatchSrc::Any,
                tag,
            }
            .await;
            latest = latest.max(env.deliver_at);
            each(env.src, env.payload);
        }
        self.world.machine().handle().sleep_until(latest).await;
    }

    /// Next collective tag (shared sequence across collective calls).
    pub(crate) fn next_coll_tag(&self) -> u64 {
        let s = self.coll_seq.get();
        self.coll_seq.set(s + 1);
        // High bit namespace separates collective tags from user tags.
        (1 << 63) | s
    }
}

struct MatchFuture {
    world: World,
    rank: usize,
    src: MatchSrc,
    tag: u64,
}

impl Future for MatchFuture {
    type Output = Envelope;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Envelope> {
        let mut mb = self.world.inner.mailboxes[self.rank].borrow_mut();
        let idx = mb.msgs.iter().position(|e| {
            e.tag == self.tag
                && match self.src {
                    MatchSrc::Any => true,
                    MatchSrc::Rank(r) => e.src == r,
                }
        });
        match idx {
            Some(i) => Poll::Ready(mb.msgs.remove(i).expect("index valid")),
            None => {
                mb.wakers.push(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_machine::presets;
    use iosim_simkit::executor::{join_all, Sim};

    fn world(sim: &Sim, n: usize) -> World {
        let m = Machine::new(sim.handle(), presets::paragon_small());
        World::new(m, n)
    }

    #[test]
    fn send_recv_roundtrip() {
        let mut sim = Sim::new();
        let w = world(&sim, 2);
        let h = sim.handle();
        let c0 = w.comm(0);
        let c1 = w.comm(1);
        let jh = sim.spawn(async move {
            let sender = h.spawn(async move {
                c0.send(1, 7, Payload::bytes(vec![1, 2, 3])).await;
            });
            let (src, p) = c1.recv(MatchSrc::Rank(0), 7).await;
            sender.await;
            (src, p.into_bytes())
        });
        sim.run();
        let (src, data) = jh.try_take().unwrap();
        assert_eq!(src, 0);
        assert_eq!(data, vec![1, 2, 3]);
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let elapsed = |bytes: u64| -> f64 {
            let mut sim = Sim::new();
            let w = world(&sim, 2);
            let h = sim.handle();
            let c0 = w.comm(0);
            let c1 = w.comm(1);
            let jh = sim.spawn(async move {
                let t0 = h.now();
                let s = h.spawn(async move {
                    c0.send(1, 0, Payload::synthetic(bytes)).await;
                });
                c1.recv(MatchSrc::Rank(0), 0).await;
                s.await;
                (h.now() - t0).as_secs_f64()
            });
            sim.run();
            jh.try_take().unwrap()
        };
        let small = elapsed(1_000);
        let big = elapsed(8_000_000);
        // 8 MB at 80 MB/s ≈ 0.1 s dominates latency.
        assert!(big > 0.09 && big < 0.2, "big transfer took {big}");
        assert!(small < 0.01, "small transfer took {small}");
    }

    #[test]
    fn tag_matching_is_selective() {
        let mut sim = Sim::new();
        let w = world(&sim, 2);
        let h = sim.handle();
        let c0 = w.comm(0);
        let c1 = w.comm(1);
        let jh = sim.spawn(async move {
            h.spawn(async move {
                c0.send(1, 5, Payload::bytes(vec![5])).await;
                c0.send(1, 9, Payload::bytes(vec![9])).await;
            });
            // Receive tag 9 first even though tag 5 was sent first.
            let (_, p9) = c1.recv(MatchSrc::Rank(0), 9).await;
            let (_, p5) = c1.recv(MatchSrc::Rank(0), 5).await;
            (p9.into_bytes(), p5.into_bytes())
        });
        sim.run();
        let (p9, p5) = jh.try_take().unwrap();
        assert_eq!(p9, vec![9]);
        assert_eq!(p5, vec![5]);
    }

    #[test]
    fn match_any_source() {
        let mut sim = Sim::new();
        let w = world(&sim, 3);
        let h = sim.handle();
        let c2 = w.comm(2);
        let senders: Vec<_> = (0..2)
            .map(|r| {
                let c = w.comm(r);
                async move {
                    c.send(2, 1, Payload::bytes(vec![r as u8])).await;
                }
            })
            .collect();
        let jh = sim.spawn(async move {
            join_all(&h, senders).await;
            let mut got = Vec::new();
            for _ in 0..2 {
                let (src, _) = c2.recv(MatchSrc::Any, 1).await;
                got.push(src);
            }
            got.sort_unstable();
            got
        });
        sim.run();
        assert_eq!(jh.try_take().unwrap(), vec![0, 1]);
    }

    #[test]
    fn nic_serializes_concurrent_sends() {
        // Two 8 MB sends from the same rank take ~2x one send.
        let mut sim = Sim::new();
        let w = world(&sim, 3);
        let h = sim.handle();
        let c0a = w.comm(0);
        let c0b = w.comm(0);
        let c1 = w.comm(1);
        let c2 = w.comm(2);
        let jh = sim.spawn(async move {
            let t0 = h.now();
            let s1 = h.spawn(async move {
                c0a.send(1, 0, Payload::synthetic(8_000_000)).await;
            });
            let s2 = h.spawn(async move {
                c0b.send(2, 0, Payload::synthetic(8_000_000)).await;
            });
            c1.recv(MatchSrc::Rank(0), 0).await;
            c2.recv(MatchSrc::Rank(0), 0).await;
            s1.await;
            s2.await;
            (h.now() - t0).as_secs_f64()
        });
        sim.run();
        let t = jh.try_take().unwrap();
        assert!(
            t > 0.19,
            "two sends through one NIC should take ~0.2 s: {t}"
        );
    }

    #[test]
    fn self_send_works() {
        let mut sim = Sim::new();
        let w = world(&sim, 1);
        let h = sim.handle();
        let ca = w.comm(0);
        let cb = w.comm(0);
        let jh = sim.spawn(async move {
            h.spawn(async move {
                ca.send(0, 3, Payload::bytes(vec![42])).await;
            });
            let (_, p) = cb.recv(MatchSrc::Rank(0), 3).await;
            p.into_bytes()
        });
        sim.run();
        assert_eq!(jh.try_take().unwrap(), vec![42]);
    }

    #[test]
    fn link_contention_slows_crossing_traffic() {
        // Many ranks in one mesh row all send across the same horizontal
        // links; with contention modelled the exchange takes longer.
        let run_exchange = |contend: bool| -> f64 {
            let mut sim = Sim::new();
            let mut cfg = presets::paragon_small();
            cfg.net.link_contention = contend;
            let m = Machine::new(sim.handle(), cfg);
            // Ranks 0..4 are one mesh row (4 columns); all send 4 MB to
            // the rank 2 rows below (same column → crossing shared
            // vertical links after the X leg... use same-row targets to
            // share horizontal links deterministically).
            let w = World::new(m, 8);
            let h = sim.handle();
            let futs: Vec<_> = (0..4usize)
                .map(|r| {
                    let tx = w.comm(r);
                    let rx = w.comm(r + 4);
                    let h2 = h.clone();
                    async move {
                        let s = h2.spawn(async move {
                            tx.send(tx.rank() + 4, 0, Payload::synthetic(4 << 20)).await;
                        });
                        rx.recv(MatchSrc::Rank(r), 0).await;
                        s.await;
                    }
                })
                .collect();
            let jh = sim.spawn(async move {
                join_all(&h, futs).await;
            });
            let end = sim.run();
            jh.try_take().expect("completed");
            end.as_secs_f64()
        };
        let free = run_exchange(false);
        let contended = run_exchange(true);
        assert!(
            contended >= free,
            "contention cannot speed things up: {contended} vs {free}"
        );
    }

    #[test]
    fn sends_match_in_posting_order_per_source_and_tag() {
        // Five sends of one tag, each from its own spawned task, all
        // posted at t = 0: the receiver matches them FIFO per
        // (source, tag), in the order they were posted.
        let mut sim = Sim::new();
        let w = world(&sim, 2);
        let h = sim.handle();
        let c0 = w.comm(0);
        let c1 = w.comm(1);
        let jh = sim.spawn(async move {
            let senders: Vec<_> = (0..5u8)
                .map(|i| {
                    let c = c0.clone();
                    h.spawn(async move { c.send(1, 9, Payload::bytes(vec![i])).await })
                })
                .collect();
            for s in senders {
                s.await;
            }
            let mut got = Vec::new();
            for _ in 0..5 {
                let (_, p) = c1.recv(MatchSrc::Rank(0), 9).await;
                got.push(p.into_bytes()[0]);
            }
            got
        });
        sim.run();
        assert_eq!(jh.try_take().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn a_world_on_chosen_nodes_sends_through_their_nics_and_hops() {
        let mut sim = Sim::new();
        let m = Machine::new(sim.handle(), presets::paragon_small());
        let w = World::on_nodes(Rc::clone(&m), vec![3, 5]);
        assert_eq!(w.size(), 2);
        let (c0, c1) = (w.comm(0), w.comm(1));
        let h = sim.handle();
        let jh = sim.spawn(async move {
            let s = h.spawn(async move { c0.send(1, 4, Payload::synthetic(80_000)).await });
            c1.recv(MatchSrc::Rank(0), 4).await;
            s.await;
            h.now()
        });
        sim.run();
        let delivered = jh.try_take().unwrap();
        assert_eq!(m.nic(3).stats().requests, 1, "rank 0 sends from node 3");
        assert_eq!(m.nic(0).stats().requests, 0, "node 0 is not in the world");
        let net = &m.cfg().net;
        let inject = SimDuration::from_secs_f64(80_000.0 / net.bandwidth_bps);
        let hops = m.topology().compute_hops(3, 5);
        assert_eq!(hops, 3, "(0,3) to (1,1) on the 4-column mesh");
        let expected = SimTime::ZERO + inject + net.base_latency + net.per_hop_latency * 3;
        assert_eq!(delivered, expected);
    }

    #[test]
    #[should_panic(expected = "exceeds 56 compute nodes")]
    fn a_world_on_a_missing_node_panics() {
        let sim = Sim::new();
        let m = Machine::new(sim.handle(), presets::paragon_small());
        let _ = World::on_nodes(m, vec![0, 56]);
    }

    #[test]
    #[should_panic(expected = "outside world")]
    fn out_of_range_rank_panics() {
        let sim = Sim::new();
        let w = world(&sim, 2);
        let _ = w.comm(2);
    }
}
