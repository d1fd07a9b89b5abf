//! Flat 4-ary min-heap for the executor's timer queue.
//!
//! The timer queue is popped once per simulated instant and pushed once per
//! sleep/resource booking — the single hottest collection in the engine
//! after the ready queue. `std::collections::BinaryHeap` is a binary heap
//! over a `Vec`, which is already flat, so unlike the other flat-arena
//! rewrites this one starts from a strong baseline: with hole-based sifts
//! the 4-ary layout's halved depth trades evenly against its three child
//! compares per level, so on in-cache push/pop storms it only matches
//! `BinaryHeap`. What the rewrite buys instead is layout and contract:
//! keys live apart from payloads, so the run loop's peek-heavy batched
//! pops scan a dense key array without dragging waker payload lines
//! through the cache, and the key type `(SimTime, u64 seq)` is a *total*
//! order (seq is unique per registration) stated in the type — min-heap
//! pop order is fully determined and bit-identical to any other correct
//! priority queue over the same keys, including the `BinaryHeap` this
//! replaces. DESIGN.md §19 has the layout diagram.

use crate::time::SimTime;

/// Heap arity. Four children per node: one 64-byte key cache line per
/// level on 64-bit targets, and half the depth of a binary heap.
const ARITY: usize = 4;

/// Min-heap of `(SimTime, u64)`-keyed payloads with 4-ary layout.
///
/// `seq` must be unique across live entries (the executor's registration
/// counter guarantees this); the key order is then total and pop order is
/// deterministic.
///
/// Keys and payloads live in parallel vectors: a sift's child scan then
/// touches only the dense 16-byte key array (four children per cache
/// line), and each level moves one key plus one payload instead of
/// swapping whole entries — the same hole technique `std`'s `BinaryHeap`
/// uses: the sifted key and payload are held out of the array while
/// parents/children shift into the hole, and written exactly once at the
/// final slot. Each key is packed into one `u128` (`time` in the high
/// half, `seq` in the low half), so integer order *is* `(time, seq)`
/// order and a child compare is a single wide compare that lowers to a
/// conditional move rather than a branch.
pub struct TimerHeap<T> {
    keys: Vec<u128>,
    payloads: Vec<T>,
}

#[inline]
fn pack(time: SimTime, seq: u64) -> u128 {
    ((time.0 as u128) << 64) | seq as u128
}

#[inline]
fn unpack(key: u128) -> (SimTime, u64) {
    (SimTime((key >> 64) as u64), key as u64)
}

/// The smaller of two `(key, index)` candidates. Keys are unique, so the
/// tie case never decides anything; written as a plain value select so
/// the compiler emits conditional moves.
#[inline(always)]
fn min_of(a: (u128, usize), b: (u128, usize)) -> (u128, usize) {
    if b.0 < a.0 {
        b
    } else {
        a
    }
}

impl<T> Default for TimerHeap<T> {
    fn default() -> Self {
        TimerHeap::new()
    }
}

impl<T> TimerHeap<T> {
    /// An empty heap.
    pub fn new() -> TimerHeap<T> {
        TimerHeap {
            keys: Vec::new(),
            payloads: Vec::new(),
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Key of the earliest entry, if any.
    #[inline]
    pub fn peek(&self) -> Option<(SimTime, u64)> {
        self.keys.first().map(|&k| unpack(k))
    }

    /// Insert an entry. `seq` must be unique among live entries.
    pub fn push(&mut self, time: SimTime, seq: u64, payload: T) {
        self.keys.push(pack(time, seq));
        self.payloads.push(payload);
        self.sift_up(self.keys.len() - 1);
    }

    /// Remove and return the earliest entry.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        let last_key = self.keys.pop()?;
        let last_pay = self.payloads.pop().expect("parallel vecs");
        let Some(&first) = self.keys.first() else {
            let (time, seq) = unpack(last_key);
            return Some((time, seq, last_pay));
        };
        let (time, seq) = unpack(first);
        // The displaced last leaf replaces the root and sifts back down.
        let payload = std::mem::replace(&mut self.payloads[0], last_pay);
        self.keys[0] = last_key;
        self.sift_down_to_bottom(0);
        Some((time, seq, payload))
    }

    fn sift_up(&mut self, mut i: usize) {
        debug_assert!(i < self.keys.len());
        // SAFETY: `i` and every `parent` are in-bounds (`parent < i`).
        // Hole discipline as in `std::collections::BinaryHeap`: the key
        // and payload at `i` are moved out, slots shift into the hole one
        // move per level, and both are written back exactly once. Nothing
        // in the loop can panic (key compares are primitive, all array
        // access is raw), so the held payload cannot be double-dropped.
        unsafe {
            let keys = self.keys.as_mut_ptr();
            let pays = self.payloads.as_mut_ptr();
            let key = *keys.add(i);
            let pay = std::ptr::read(pays.add(i));
            while i > 0 {
                let parent = (i - 1) / ARITY;
                if key < *keys.add(parent) {
                    *keys.add(i) = *keys.add(parent);
                    std::ptr::copy_nonoverlapping(pays.add(parent), pays.add(i), 1);
                    i = parent;
                } else {
                    break;
                }
            }
            *keys.add(i) = key;
            std::ptr::write(pays.add(i), pay);
        }
    }

    /// Restore the heap property after `pop` moved the last leaf to slot
    /// `i`. The hole descends to the bottom along the min-child path
    /// *without* comparing against the displaced key at each level (the
    /// displaced element came from the deepest layer, so it almost always
    /// belongs back near the bottom), then the ascent re-inserts it along
    /// the shifted min-chain — usually zero extra moves. Same strategy as
    /// `std`'s `BinaryHeap::pop`; it saves a hard-to-predict branch per
    /// level on the way down. A full group of four children is reduced by
    /// a branch-free tournament (two pairwise selects, then a final one);
    /// only the single partial group at the bottom takes the scan.
    fn sift_down_to_bottom(&mut self, mut i: usize) {
        let n = self.keys.len();
        debug_assert!(i < n);
        // SAFETY: `first_child`, `min` and `parent` stay below `n` by
        // construction. Same hole discipline (and the same no-panic
        // argument) as in `sift_up`.
        unsafe {
            let keys = self.keys.as_mut_ptr();
            let pays = self.payloads.as_mut_ptr();
            let key = *keys.add(i);
            let pay = std::ptr::read(pays.add(i));
            loop {
                let first_child = i * ARITY + 1;
                if first_child >= n {
                    break;
                }
                let (min_key, min) = if first_child + ARITY <= n {
                    let c = first_child;
                    min_of(
                        min_of((*keys.add(c), c), (*keys.add(c + 1), c + 1)),
                        min_of((*keys.add(c + 2), c + 2), (*keys.add(c + 3), c + 3)),
                    )
                } else {
                    let mut best = (*keys.add(first_child), first_child);
                    for c in first_child + 1..n {
                        best = min_of(best, (*keys.add(c), c));
                    }
                    best
                };
                *keys.add(i) = min_key;
                std::ptr::copy_nonoverlapping(pays.add(min), pays.add(i), 1);
                i = min;
            }
            while i > 0 {
                let parent = (i - 1) / ARITY;
                if key < *keys.add(parent) {
                    *keys.add(i) = *keys.add(parent);
                    std::ptr::copy_nonoverlapping(pays.add(parent), pays.add(i), 1);
                    i = parent;
                } else {
                    break;
                }
            }
            *keys.add(i) = key;
            std::ptr::write(pays.add(i), pay);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut h = TimerHeap::new();
        h.push(SimTime(30), 0, 'c');
        h.push(SimTime(10), 1, 'a');
        h.push(SimTime(10), 2, 'b');
        h.push(SimTime(20), 3, 'x');
        assert_eq!(h.peek(), Some((SimTime(10), 1)));
        assert_eq!(h.pop(), Some((SimTime(10), 1, 'a')));
        assert_eq!(h.pop(), Some((SimTime(10), 2, 'b')));
        assert_eq!(h.pop(), Some((SimTime(20), 3, 'x')));
        assert_eq!(h.pop(), Some((SimTime(30), 0, 'c')));
        assert_eq!(h.pop(), None);
        assert!(h.is_empty());
    }

    #[test]
    fn matches_binary_heap_under_random_interleaving() {
        // Reference-model check: random push/pop interleavings agree with
        // std::BinaryHeap over the same total-ordered keys.
        let mut rng = SimRng::seed_from(0x7134_9e2d);
        let mut ours: TimerHeap<u64> = TimerHeap::new();
        let mut theirs: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        for _ in 0..20_000 {
            if theirs.is_empty() || rng.range(0, 3) != 0 {
                let t = SimTime(rng.range(0, 50) * 1_000);
                ours.push(t, seq, seq);
                theirs.push(Reverse((t, seq)));
                seq += 1;
            } else {
                let (t, s, p) = ours.pop().expect("ours nonempty");
                let Reverse((rt, rs)) = theirs.pop().expect("theirs nonempty");
                assert_eq!((t, s), (rt, rs));
                assert_eq!(p, s);
            }
        }
        while let Some((t, s, _)) = ours.pop() {
            let Reverse((rt, rs)) = theirs.pop().expect("same length");
            assert_eq!((t, s), (rt, rs));
        }
        assert!(theirs.is_empty());
    }

    /// Push `keys` (seq = index) into both heaps, then pop everything and
    /// require the same `(time, seq)` sequence.
    fn assert_drains_like_binary_heap(times: &[u64]) {
        let mut ours: TimerHeap<u64> = TimerHeap::new();
        let mut theirs: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        for (seq, &t) in times.iter().enumerate() {
            ours.push(SimTime(t), seq as u64, seq as u64);
            theirs.push(Reverse((SimTime(t), seq as u64)));
        }
        while let Some(Reverse((rt, rs))) = theirs.pop() {
            let (t, s, p) = ours.pop().expect("same length");
            assert_eq!((t, s, p), (rt, rs, rs), "heap of {}", times.len());
        }
        assert!(ours.is_empty());
    }

    #[test]
    fn every_partial_child_group_drains_in_order() {
        // Sizes 1..=85 fill the first four levels of the 4-ary tree
        // (1 + 4 + 16 + 64 = 85 slots), so the bottom child group takes
        // every fill from one to four at every depth: both the
        // full-group select and the partial-group scan are exercised.
        let mut rng = SimRng::seed_from(0x5eed_0085);
        for n in 1..=85usize {
            let times: Vec<u64> = (0..n).map(|_| rng.range(0, 20)).collect();
            assert_drains_like_binary_heap(&times);
            let descending: Vec<u64> = (0..n as u64).rev().collect();
            assert_drains_like_binary_heap(&descending);
        }
    }

    #[test]
    fn equal_times_pop_in_seq_order() {
        // All keys share one instant, so only the low (seq) half of the
        // packed key orders them.
        for n in [1usize, 2, 3, 4, 5, 17, 85, 300] {
            assert_drains_like_binary_heap(&vec![7_000; n]);
        }
        let mut h = TimerHeap::new();
        for seq in [9u64, 3, 12, 0, 5] {
            h.push(SimTime(u64::MAX), seq, ());
        }
        let order: Vec<u64> = std::iter::from_fn(|| h.pop().map(|(_, s, _)| s)).collect();
        assert_eq!(order, vec![0, 3, 5, 9, 12]);
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut h = TimerHeap::new();
        for i in 0..100u64 {
            h.push(SimTime(i % 7), i, ());
        }
        assert_eq!(h.len(), 100);
        for _ in 0..40 {
            h.pop();
        }
        assert_eq!(h.len(), 60);
    }
}
