//! Flat command ring for the NCQ-style per-node disk queues.
//!
//! The `pfs::cmdq` daemon used to keep its pending window in a
//! `Vec<Queued>` and, per dispatch, build a fresh `Vec<CommandView>` of
//! arrived commands, run [`crate::disk::pick_command`] over it, find the
//! pick's position again by sequence number, and `Vec::remove` it — an
//! allocation plus two O(n) scans and an O(n) shift per dispatch.
//! [`CmdRing`] replaces all of that with one flat ring addressed by
//! submission sequence number: slot `seq & mask` holds command `seq`, a
//! dispatch is a single in-place scan with precomputed head-distance rank
//! keys, and removal is a tombstone (no shifting, no allocation, no
//! re-find).
//!
//! The scheduling *policy* is byte-for-byte the one in
//! [`crate::disk::pick_command`] — both call the shared
//! [`crate::disk::elevator_rank`] — and `pick_command` stays exported as
//! the reference oracle: the property suite drives this ring against a
//! `Vec` + `pick_command` twin and asserts the dispatch sequence and every
//! decision flag agree.

use iosim_simkit::time::SimTime;

use crate::disk::{elevator_rank, STARVATION_BOUND};

/// One pending command in the ring.
struct Slot<T> {
    /// Instant the command becomes eligible for dispatch.
    arrival: SimTime,
    /// File identity (head continuations exist only within one file).
    uid: u64,
    /// First local byte offset the command touches.
    offset: u64,
    /// Times a younger command was dispatched ahead of this one.
    bypassed: u32,
    payload: T,
}

/// The scheduler's choice for one dispatch, with the bookkeeping the
/// trace counters want. Field meanings match
/// [`crate::disk::SchedDecision`], with the FIFO reference being the
/// oldest *arrived* command.
pub struct Pick<T> {
    /// File identity of the dispatched command.
    pub uid: u64,
    /// First local byte offset of the dispatched command.
    pub offset: u64,
    /// Submission sequence number of the dispatched command.
    pub seq: u64,
    /// How many commands had arrived (were eligible by time) at dispatch.
    pub arrived: usize,
    /// The pick is not the oldest arrived command.
    pub reordered: bool,
    /// The starvation bound overrode the elevator pick.
    pub starvation_forced: bool,
    /// The pick is an exact head continuation where the FIFO head was not.
    pub seek_avoided: bool,
    /// Head travel saved versus dispatching the FIFO head.
    pub seek_bytes_saved: u64,
    /// The command's payload, moved out of the ring.
    pub payload: T,
}

/// Ring of pending disk commands addressed by submission sequence number.
///
/// Sequence numbers are assigned by [`CmdRing::push`] and dense, so the
/// live span `[front, next)` maps onto a power-of-two slot array at
/// `seq & mask`; dispatched commands leave tombstones and the front bound
/// advances past them lazily. Scans in sequence order are a linear walk of
/// the span — no allocation, no sorting, no position re-derivation.
pub struct CmdRing<T> {
    slots: Vec<Option<Slot<T>>>,
    /// `slots.len() - 1`; slot count is a power of two.
    mask: u64,
    /// Lowest possibly-live sequence number.
    front: u64,
    /// Next sequence number to assign.
    next: u64,
    /// Live (un-dispatched) commands.
    live: usize,
}

impl<T> Default for CmdRing<T> {
    fn default() -> Self {
        CmdRing::new()
    }
}

impl<T> CmdRing<T> {
    /// An empty ring. Grows by doubling as commands pile up.
    pub fn new() -> CmdRing<T> {
        CmdRing {
            slots: Vec::new(),
            mask: 0,
            front: 0,
            next: 0,
            live: 0,
        }
    }

    /// Number of pending commands.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no command is pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Submit a command; returns its assigned sequence number.
    pub fn push(&mut self, arrival: SimTime, uid: u64, offset: u64, payload: T) -> u64 {
        if (self.next - self.front) as usize == self.slots.len() {
            self.grow();
        }
        let seq = self.next;
        self.next += 1;
        let idx = (seq & self.mask) as usize;
        debug_assert!(self.slots[idx].is_none(), "ring slot collision");
        self.slots[idx] = Some(Slot {
            arrival,
            uid,
            offset,
            bypassed: 0,
            payload,
        });
        self.live += 1;
        seq
    }

    /// Earliest arrival instant over all pending commands.
    pub fn min_arrival(&self) -> Option<SimTime> {
        let mut min: Option<SimTime> = None;
        for seq in self.front..self.next {
            if let Some(s) = &self.slots[(seq & self.mask) as usize] {
                min = Some(match min {
                    Some(m) if m <= s.arrival => m,
                    _ => s.arrival,
                });
            }
        }
        min
    }

    /// Dispatch one command: scan the arrived set (commands with
    /// `arrival <= now`) in sequence order, rank the oldest `window` of
    /// them with [`elevator_rank`] against `head`, apply the
    /// [`STARVATION_BOUND`] override, remove the winner, and charge a
    /// bypass to every older arrived command it overtook.
    ///
    /// Returns `None` when nothing has arrived yet.
    pub fn pick(
        &mut self,
        head: Option<(u64, u64)>,
        now: SimTime,
        window: usize,
    ) -> Option<Pick<T>> {
        assert!(window > 0, "window must be at least 1");
        // Single forward scan: track the FIFO head of the arrived set,
        // the best elevator rank in the window, and the first starved
        // command in the window.
        let mut arrived = 0usize;
        type Ranked = ((u8, u64, u64), u64, u64, u64); // rank, seq, uid, offset
        let mut fifo: Option<(u64, u64, u64)> = None; // (seq, uid, offset)
        let mut best: Option<Ranked> = None;
        let mut starved: Option<(u64, u64, u64)> = None;
        for seq in self.front..self.next {
            let Some(s) = &self.slots[(seq & self.mask) as usize] else {
                continue;
            };
            if s.arrival > now {
                continue;
            }
            arrived += 1;
            if fifo.is_none() {
                fifo = Some((seq, s.uid, s.offset));
            }
            if arrived <= window {
                let rank = elevator_rank(head, s.uid, s.offset, seq);
                // Strict less keeps the first minimum, matching
                // `min_by_key` over the seq-ordered view.
                if best.as_ref().is_none_or(|(r, ..)| rank < *r) {
                    best = Some((rank, seq, s.uid, s.offset));
                }
                if starved.is_none() && s.bypassed >= STARVATION_BOUND {
                    starved = Some((seq, s.uid, s.offset));
                }
            }
        }
        let (fifo_seq, fifo_uid, fifo_offset) = fifo?;
        let (_, elev_seq, elev_uid, elev_offset) = best.expect("arrived set non-empty");
        let ((seq, uid, offset), starvation_forced) = match starved {
            Some(s) if s.0 != elev_seq => (s, true),
            _ => ((elev_seq, elev_uid, elev_offset), false),
        };

        let dist = |uid: u64, offset: u64| -> Option<u64> {
            match head {
                Some((huid, hend)) if huid == uid => Some(offset.abs_diff(hend)),
                _ => None,
            }
        };
        let reordered = seq != fifo_seq;
        let d_fifo = dist(fifo_uid, fifo_offset);
        let d_pick = dist(uid, offset);

        let slot = self.slots[(seq & self.mask) as usize]
            .take()
            .expect("picked slot is live");
        self.live -= 1;
        // Charge a bypass to every older arrived command the pick
        // overtook (window-ineligible ones included, matching the old
        // full-queue walk).
        for s in self.front..seq {
            if let Some(q) = &mut self.slots[(s & self.mask) as usize] {
                if q.arrival <= now {
                    q.bypassed += 1;
                }
            }
        }
        // Advance the front bound past leading tombstones so scans stay
        // proportional to the live span.
        while self.front < self.next && self.slots[(self.front & self.mask) as usize].is_none() {
            self.front += 1;
        }

        Some(Pick {
            uid: slot.uid,
            offset: slot.offset,
            seq,
            arrived,
            reordered,
            starvation_forced,
            seek_avoided: reordered && d_pick == Some(0) && d_fifo != Some(0),
            seek_bytes_saved: match (d_fifo, d_pick) {
                (Some(a), Some(b)) if reordered => a.saturating_sub(b),
                _ => 0,
            },
            payload: slot.payload,
        })
    }

    /// Double the slot array, re-placing live entries under the new mask.
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(8);
        debug_assert!(new_cap.is_power_of_two());
        let mut slots: Vec<Option<Slot<T>>> = Vec::with_capacity(new_cap);
        slots.resize_with(new_cap, || None);
        let mask = (new_cap - 1) as u64;
        for (i, old) in self.slots.iter_mut().enumerate() {
            if let Some(s) = old.take() {
                // Recover the slot's seq: the unique value in the live
                // span congruent to its old index.
                let old_mask = self.mask;
                let base = self.front & !old_mask;
                let mut seq = base + (i as u64 & old_mask);
                if seq < self.front {
                    seq += old_mask + 1;
                }
                debug_assert!(seq < self.next);
                slots[(seq & mask) as usize] = Some(s);
            }
        }
        self.slots = slots;
        self.mask = mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{pick_command, CommandView};

    fn t(us: u64) -> SimTime {
        SimTime(us * 1_000)
    }

    #[test]
    fn fifo_when_cold_head() {
        let mut r = CmdRing::new();
        r.push(t(0), 1, 4096, "a");
        r.push(t(0), 1, 0, "b");
        let p = r.pick(None, t(0), 4).unwrap();
        assert_eq!((p.seq, p.payload), (0, "a"));
        assert!(!p.reordered && !p.seek_avoided);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn continuation_wins_and_charges_bypass() {
        let mut r = CmdRing::new();
        r.push(t(0), 1, 9000, "far");
        r.push(t(0), 1, 1024, "cont");
        let p = r.pick(Some((1, 1024)), t(0), 4).unwrap();
        assert_eq!(p.payload, "cont");
        assert!(p.reordered && p.seek_avoided);
        assert_eq!(p.seek_bytes_saved, 9000 - 1024);
        // The overtaken command was charged a bypass; STARVATION_BOUND
        // such charges force it next regardless of position. Keep the
        // head just past 9000 so each young continuation outranks "far".
        for _ in 1..STARVATION_BOUND {
            r.push(t(0), 1, 9001, "c");
            let q = r.pick(Some((1, 9001)), t(0), 4).unwrap();
            assert_eq!(q.payload, "c");
        }
        r.push(t(0), 1, 9001, "young");
        let forced = r.pick(Some((1, 9001)), t(0), 4).unwrap();
        assert_eq!(forced.payload, "far");
        assert!(forced.starvation_forced);
    }

    #[test]
    fn unarrived_commands_are_invisible() {
        let mut r = CmdRing::new();
        r.push(t(10), 1, 0, "late");
        assert!(r.pick(None, t(5), 4).is_none());
        assert_eq!(r.min_arrival(), Some(t(10)));
        let p = r.pick(None, t(10), 4).unwrap();
        assert_eq!(p.payload, "late");
        assert_eq!(p.arrived, 1);
    }

    #[test]
    fn growth_preserves_sequence_order() {
        let mut r = CmdRing::new();
        for i in 0..100u64 {
            r.push(t(0), 1, i * 10, i);
        }
        // Cold head: strict FIFO drain.
        for i in 0..100u64 {
            let p = r.pick(None, t(0), 1).unwrap();
            assert_eq!(p.payload, i);
            assert_eq!(p.seq, i);
        }
        assert!(r.is_empty());
    }

    /// The ring against the exported oracle: identical dispatch order and
    /// decision flags over a mixed workload.
    #[test]
    fn agrees_with_pick_command_oracle() {
        use iosim_simkit::rng::SimRng;
        let mut rng = SimRng::seed_from(0x00c0_ffee);
        let mut ring: CmdRing<u64> = CmdRing::new();
        // Twin: the exact structure the old daemon used.
        struct Queued {
            arrival: SimTime,
            uid: u64,
            offset: u64,
            seq: u64,
            bypassed: u32,
        }
        let mut twin: Vec<Queued> = Vec::new();
        let mut head: Option<(u64, u64)> = None;
        let mut seq = 0u64;
        for round in 0..2_000u64 {
            let now = t(round);
            // A few pushes with scattered arrivals.
            for _ in 0..rng.range(0, 3) {
                let uid = rng.range(1, 4);
                let offset = rng.range(0, 64) * 512;
                let arrival = t(round + rng.range(0, 5));
                ring.push(arrival, uid, offset, seq);
                twin.push(Queued {
                    arrival,
                    uid,
                    offset,
                    seq,
                    bypassed: 0,
                });
                seq += 1;
            }
            // One dispatch attempt per round.
            let arrived: Vec<CommandView> = twin
                .iter()
                .filter(|q| q.arrival <= now)
                .map(|q| CommandView {
                    uid: q.uid,
                    offset: q.offset,
                    seq: q.seq,
                    bypassed: q.bypassed,
                })
                .collect();
            let ours = ring.pick(head, now, 8);
            match (ours, arrived.is_empty()) {
                (None, true) => continue,
                (Some(p), false) => {
                    let d = pick_command(head, &arrived, 8);
                    let want_seq = arrived[d.index].seq;
                    assert_eq!(p.seq, want_seq, "round {round}");
                    assert_eq!(p.reordered, d.reordered);
                    assert_eq!(p.starvation_forced, d.starvation_forced);
                    assert_eq!(p.seek_avoided, d.seek_avoided);
                    assert_eq!(p.seek_bytes_saved, d.seek_bytes_saved);
                    assert_eq!(p.arrived, arrived.len());
                    let idx = twin.iter().position(|q| q.seq == want_seq).unwrap();
                    let picked = twin.remove(idx);
                    for q in twin.iter_mut() {
                        if q.seq < want_seq && q.arrival <= now {
                            q.bypassed += 1;
                        }
                    }
                    head = Some((picked.uid, picked.offset + 512));
                }
                (ours, _) => panic!(
                    "round {round}: ring {:?} vs twin arrived {}",
                    ours.map(|p| p.seq),
                    arrived.len()
                ),
            }
        }
    }
}
