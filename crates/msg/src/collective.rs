//! Collective operations, built from point-to-point messages.
//!
//! As in MPI, every rank must call the same collectives in the same order;
//! tag alignment relies on it (each call consumes tags from a per-rank
//! sequence). Algorithms are simple linear ones — on the machines modelled
//! here the collectives' cost is dominated by payload bytes through NICs,
//! which linear algorithms capture, and the paper's optimizations do not
//! depend on clever collective trees.
//!
//! In `allgather`, `alltoallv` and the root's side of `gather` and
//! `bcast`, a rank's sends are posted together and its receives taken
//! together (see `Comm::post` and `Comm::recv_all`), so the collective
//! costs a rank one injection wait and one delivery wait rather than a
//! wake-up per message, with every virtual time unchanged. Under
//! mesh-link contention the order in which ranks book route links is
//! part of the model, so there they keep the message-at-a-time
//! schedule. `barrier` and the `allreduce_*` pair always send and
//! receive one message at a time: the reductions fold values in arrival
//! order, and batching `barrier` reorders the polls of the runs whose
//! schedule fingerprints the experiments report.

use crate::comm::{Comm, MatchSrc, Payload};

impl Comm {
    /// Whether this machine's collectives may post and receive in batches:
    /// everywhere except under mesh-link contention, where route bookings
    /// must happen in the order sequential sends would make them.
    fn batches_messages(&self) -> bool {
        !self.machine().models_link_contention()
    }

    /// Send each `(dst, payload)` with `tag`, in order, and return once the
    /// last one is injected: the same NIC bookings and delivery instants
    /// as one [`Comm::send`] after another.
    async fn send_each(&self, tag: u64, sends: impl IntoIterator<Item = (usize, Payload)>) {
        if !self.batches_messages() {
            for (dst, p) in sends {
                self.send(dst, tag, p).await;
            }
            return;
        }
        let h = self.machine().handle();
        let mut at = h.now();
        for (dst, p) in sends {
            at = self.post(dst, tag, p, at);
        }
        h.sleep_until(at).await;
    }

    /// Receive `count` messages with `tag` from any sources, handing each
    /// to `each(source, payload)`.
    async fn recv_each(&self, tag: u64, count: usize, mut each: impl FnMut(usize, Payload)) {
        if self.batches_messages() {
            return self.recv_all(tag, count, each).await;
        }
        for _ in 0..count {
            let (src, p) = self.recv(MatchSrc::Any, tag).await;
            each(src, p);
        }
    }

    /// Synchronize all ranks. Completes everywhere once every rank has
    /// arrived (gather-to-0 then broadcast of an empty token).
    pub async fn barrier(&self) {
        let t1 = self.next_coll_tag();
        let t2 = self.next_coll_tag();
        let n = self.size();
        if self.rank() == 0 {
            for _ in 1..n {
                self.recv(MatchSrc::Any, t1).await;
            }
            for dst in 1..n {
                self.send(dst, t2, Payload::empty()).await;
            }
        } else {
            self.send(0, t1, Payload::empty()).await;
            self.recv(MatchSrc::Rank(0), t2).await;
        }
    }

    /// Broadcast `payload` from `root`; every rank returns the payload.
    pub async fn bcast(&self, root: usize, payload: Option<Payload>) -> Payload {
        let t = self.next_coll_tag();
        if self.rank() == root {
            let p = payload.expect("root must supply the broadcast payload");
            let others = (0..self.size()).filter(|&dst| dst != root);
            self.send_each(t, others.map(|dst| (dst, p.clone()))).await;
            p
        } else {
            let (_, p) = self.recv(MatchSrc::Rank(root), t).await;
            p
        }
    }

    /// Gather every rank's payload at `root`. Returns `Some(payloads)` in
    /// rank order at the root, `None` elsewhere.
    pub async fn gather(&self, root: usize, payload: Payload) -> Option<Vec<Payload>> {
        let t = self.next_coll_tag();
        if self.rank() == root {
            let mut out: Vec<Option<Payload>> = (0..self.size()).map(|_| None).collect();
            out[root] = Some(payload);
            self.recv_each(t, self.size() - 1, |src, p| out[src] = Some(p))
                .await;
            Some(
                out.into_iter()
                    .map(|p| p.expect("all ranks sent"))
                    .collect(),
            )
        } else {
            self.send(root, t, payload).await;
            None
        }
    }

    /// Gather every rank's payload everywhere (gather + broadcast of the
    /// concatenated result is modelled as gather at 0 then per-rank sends).
    pub async fn allgather(&self, payload: Payload) -> Vec<Payload> {
        // Linear all-gather: every rank sends its payload to every other.
        let t = self.next_coll_tag();
        let n = self.size();
        let others = (0..n).filter(|&dst| dst != self.rank());
        self.send_each(t, others.map(|dst| (dst, payload.clone())))
            .await;
        // Every slot is overwritten: ours here, each other rank's by its
        // one message.
        let mut out = vec![Payload::synthetic(0); n];
        out[self.rank()] = payload;
        self.recv_each(t, n - 1, |src, p| out[src] = p).await;
        out
    }

    /// Personalized all-to-all: `to_each[d]` goes to rank `d`; returns the
    /// payload received from each rank, in rank order. This is the
    /// communication phase of two-phase I/O.
    pub async fn alltoallv(&self, to_each: Vec<Payload>) -> Vec<Payload> {
        assert_eq!(
            to_each.len(),
            self.size(),
            "alltoallv needs one payload per rank"
        );
        let t = self.next_coll_tag();
        let n = self.size();
        let me = self.rank();
        // The outgoing payloads are moved out, not cloned, and each
        // vacated slot then receives the payload from that rank; our own
        // payload stays in place.
        let mut slots = to_each;
        // Stagger send order by rank to avoid everyone hammering rank 0
        // first (as real implementations do).
        let sends = (1..n).map(|k| {
            let dst = (me + k) % n;
            (
                dst,
                std::mem::replace(&mut slots[dst], Payload::synthetic(0)),
            )
        });
        self.send_each(t, sends).await;
        self.recv_each(t, n - 1, |src, p| slots[src] = p).await;
        slots
    }

    /// Sum-reduce an `f64` across ranks; every rank returns the total.
    pub async fn allreduce_sum(&self, value: f64) -> f64 {
        let t1 = self.next_coll_tag();
        let t2 = self.next_coll_tag();
        let n = self.size();
        if self.rank() == 0 {
            let mut acc = value;
            for _ in 1..n {
                let (_, p) = self.recv(MatchSrc::Any, t1).await;
                acc += f64::from_le_bytes(p.into_bytes().try_into().expect("8-byte f64 payload"));
            }
            for dst in 1..n {
                self.send(dst, t2, Payload::bytes(acc.to_le_bytes().to_vec()))
                    .await;
            }
            acc
        } else {
            self.send(0, t1, Payload::bytes(value.to_le_bytes().to_vec()))
                .await;
            let (_, p) = self.recv(MatchSrc::Rank(0), t2).await;
            f64::from_le_bytes(p.into_bytes().try_into().expect("8-byte f64 payload"))
        }
    }

    /// Max-reduce a `u64` across ranks; every rank returns the maximum.
    /// Used to agree on balanced file sizes and loop bounds.
    pub async fn allreduce_max(&self, value: u64) -> u64 {
        let t1 = self.next_coll_tag();
        let t2 = self.next_coll_tag();
        let n = self.size();
        if self.rank() == 0 {
            let mut acc = value;
            for _ in 1..n {
                let (_, p) = self.recv(MatchSrc::Any, t1).await;
                acc = acc.max(u64::from_le_bytes(
                    p.into_bytes().try_into().expect("8-byte u64 payload"),
                ));
            }
            for dst in 1..n {
                self.send(dst, t2, Payload::bytes(acc.to_le_bytes().to_vec()))
                    .await;
            }
            acc
        } else {
            self.send(0, t1, Payload::bytes(value.to_le_bytes().to_vec()))
                .await;
            let (_, p) = self.recv(MatchSrc::Rank(0), t2).await;
            u64::from_le_bytes(p.into_bytes().try_into().expect("8-byte u64 payload"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::World;
    use iosim_machine::{presets, Machine};
    use iosim_simkit::executor::{join_all, Sim};
    use iosim_simkit::time::SimTime;

    /// Run `f(comm)` on every rank of an `n`-rank world and collect results.
    fn run_ranks<T: 'static, F, Fut>(n: usize, f: F) -> Vec<T>
    where
        F: Fn(Comm) -> Fut,
        Fut: std::future::Future<Output = T> + 'static,
    {
        let mut sim = Sim::new();
        let m = Machine::new(sim.handle(), presets::paragon_small());
        let w = World::new(m, n);
        let h = sim.handle();
        let futs: Vec<_> = w.comms().into_iter().map(&f).collect();
        let jh = sim.spawn(async move { join_all(&h, futs).await });
        sim.run();
        jh.try_take().expect("all ranks completed")
    }

    #[test]
    fn barrier_aligns_completion_times() {
        let times = run_ranks(4, |c| async move {
            let h = c.machine().handle().clone();
            h.sleep(iosim_simkit::time::SimDuration::from_millis(
                10 * (c.rank() as u64 + 1),
            ))
            .await;
            c.barrier().await;
            h.now()
        });
        let all_after_slowest = times.iter().all(|&t| t >= SimTime(40_000_000));
        assert!(all_after_slowest, "{times:?}");
    }

    #[test]
    fn bcast_distributes_root_payload() {
        let vals = run_ranks(5, |c| async move {
            let me = c.rank();
            let p = if me == 2 {
                Some(Payload::bytes(vec![9, 9]))
            } else {
                None
            };
            c.bcast(2, p).await.into_bytes()
        });
        assert!(vals.iter().all(|v| v == &vec![9, 9]));
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let outs = run_ranks(4, |c| async move {
            c.gather(0, Payload::bytes(vec![c.rank() as u8])).await
        });
        let at_root = outs[0].as_ref().expect("root has the gather");
        let vals: Vec<u8> = at_root.iter().map(|p| p.to_bytes()[0]).collect();
        assert_eq!(vals, vec![0, 1, 2, 3]);
        assert!(outs[1].is_none());
    }

    #[test]
    fn allgather_gives_everyone_everything() {
        let outs = run_ranks(3, |c| async move {
            let got = c.allgather(Payload::bytes(vec![c.rank() as u8 * 10])).await;
            got.iter().map(|p| p.to_bytes()[0]).collect::<Vec<u8>>()
        });
        for o in outs {
            assert_eq!(o, vec![0, 10, 20]);
        }
    }

    #[test]
    fn alltoallv_transposes_payloads() {
        let outs = run_ranks(4, |c| async move {
            let me = c.rank() as u8;
            let to_each: Vec<Payload> = (0..4).map(|d| Payload::bytes(vec![me, d as u8])).collect();
            let got = c.alltoallv(to_each).await;
            got.iter()
                .map(|p| p.to_bytes().to_vec())
                .collect::<Vec<Vec<u8>>>()
        });
        for (me, got) in outs.iter().enumerate() {
            for (src, v) in got.iter().enumerate() {
                assert_eq!(v, &vec![src as u8, me as u8]);
            }
        }
    }

    #[test]
    fn allreduce_sum_and_max() {
        let sums = run_ranks(6, |c| async move {
            let s = c.allreduce_sum((c.rank() + 1) as f64).await;
            let m = c.allreduce_max(c.rank() as u64 * 7).await;
            (s, m)
        });
        for (s, m) in sums {
            assert!((s - 21.0).abs() < 1e-12);
            assert_eq!(m, 35);
        }
    }

    #[test]
    fn collectives_compose_in_sequence() {
        // Two consecutive barriers plus a bcast must not cross-match tags.
        let vals = run_ranks(3, |c| async move {
            c.barrier().await;
            let p = if c.rank() == 0 {
                Some(Payload::bytes(vec![1]))
            } else {
                None
            };
            let v = c.bcast(0, p).await;
            c.barrier().await;
            v.into_bytes()[0]
        });
        assert_eq!(vals, vec![1, 1, 1]);
    }

    #[test]
    fn synthetic_payloads_flow_through_alltoall() {
        let outs = run_ranks(3, |c| async move {
            let to_each: Vec<Payload> = (0..3).map(|_| Payload::synthetic(1 << 20)).collect();
            let got = c.alltoallv(to_each).await;
            got.iter().map(|p| p.len).sum::<u64>()
        });
        for o in outs {
            assert_eq!(o, 3 << 20);
        }
    }
}
