//! Property tests for the flat core data structures of DESIGN.md §19.
//!
//! Each structure is driven against a reference model — the std-collection
//! twin it replaced, or something even simpler (a plain byte array for the
//! extent tree) — by an in-tree [`SimRng`] generator: no external
//! property-testing dependency, every failure reproducible from the seed
//! in the assertion message. The tests randomize the op mix across many
//! seeds and compare *states and outputs*, never timings:
//!
//! * extent store — every read byte-identical to a flat byte mirror under
//!   arbitrary overlapping writes;
//! * LRU order — victims, dirty-scan order and per-file dirty filters
//!   identical to a brute-force recency list;
//! * elevator pick — dispatch order over a ring with staggered arrivals
//!   identical to the exported [`pick_command`] oracle over a `Vec` view;
//! * timer pop order — identical to `BinaryHeap` under collision-heavy,
//!   wide-spread and reverse-sorted deadline patterns.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use iosim_buf::Bytes;
use iosim_cache::LruSlab;
use iosim_machine::{pick_command, CmdRing, CommandView};
use iosim_pfs::ExtentTree;
use iosim_simkit::rng::SimRng;
use iosim_simkit::time::SimTime;
use iosim_simkit::timerheap::TimerHeap;

/// Seeds per property. Each seed is an independent random trajectory.
const SEEDS: u64 = 12;

// ---------------------------------------------------------------------
// Extent store vs byte mirror

#[test]
fn extent_tree_matches_byte_mirror() {
    // The strongest possible oracle: a flat, zero-initialized byte array.
    // Writes use a distinct fill byte per step so a misplaced splice from
    // any earlier write is visible, not just the latest one.
    const SPAN: u64 = 1 << 16;
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from(0xe47e_0000 + seed);
        let mut tree = ExtentTree::new();
        let mut mirror = vec![0u8; SPAN as usize];
        for step in 0..2_000u64 {
            if rng.range(0, 3) < 2 {
                let off = rng.range(0, SPAN - 1);
                let len = rng.range(1, (SPAN - off).min(2_048) + 1);
                let fill = (step % 251) as u8 + 1;
                tree.write(off, Bytes::from_vec(vec![fill; len as usize]));
                mirror[off as usize..(off + len) as usize].fill(fill);
            } else {
                let off = rng.range(0, SPAN - 1);
                let len = rng.range(1, (SPAN - off).min(4_096) + 1);
                assert_eq!(
                    tree.read(off, len).to_vec(),
                    mirror[off as usize..(off + len) as usize],
                    "seed {seed} step {step}: read [{off}, +{len}) diverged"
                );
            }
        }
        // Full-span sweep: holes, splice boundaries and all.
        assert_eq!(
            tree.read(0, SPAN).to_vec(),
            mirror,
            "seed {seed}: final sweep"
        );
    }
}

// ---------------------------------------------------------------------
// LRU slab vs brute-force recency list

type BlockKey = (u64, u64);

/// Reference model: one `Vec` ordered least- to most-recent. Touch is a
/// remove-and-push — quadratic and obviously correct.
#[derive(Default)]
struct RecencyModel {
    order: Vec<(BlockKey, u64, bool)>, // (key, value, dirty), LRU -> MRU
}

impl RecencyModel {
    fn pos(&self, key: &BlockKey) -> Option<usize> {
        self.order.iter().position(|(k, ..)| k == key)
    }

    fn touch(&mut self, key: &BlockKey) {
        let i = self.pos(key).expect("touch of resident key");
        let e = self.order.remove(i);
        self.order.push(e);
    }

    fn set_dirty(&mut self, key: &BlockKey) {
        let i = self.pos(key).expect("resident");
        self.order[i].2 = true;
    }

    fn clear_dirty(&mut self, key: &BlockKey) {
        let i = self.pos(key).expect("resident");
        self.order[i].2 = false;
    }

    fn pop_lru(&mut self) -> Option<(BlockKey, u64, bool)> {
        if self.order.is_empty() {
            None
        } else {
            Some(self.order.remove(0))
        }
    }

    fn dirty_keys(&self) -> Vec<BlockKey> {
        self.order.iter().filter(|e| e.2).map(|e| e.0).collect()
    }
}

#[test]
fn lru_slab_matches_recency_model() {
    // Small capacity so evictions and slot recycling are constant, and a
    // key universe twice the capacity so hits and misses interleave.
    const CAP: usize = 64;
    const BATCH: usize = 8;
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from(0x10b5_0000 + seed);
        let mut slab: LruSlab<BlockKey, u64> = LruSlab::new();
        let mut model = RecencyModel::default();
        for step in 0..4_000u64 {
            match rng.range(0, 20) {
                // Access: insert-or-touch, dirtying half the time. The
                // cache's callers only dirty an entry while making it
                // most-recent, so the generator keeps that contract:
                // set_dirty is immediately followed by touch.
                0..=13 => {
                    let key = (rng.range(1, 4), rng.range(0, 2 * CAP as u64));
                    let dirty = rng.range(0, 2) == 0;
                    if slab.contains(&key) {
                        if dirty {
                            slab.set_dirty(&key);
                            model.set_dirty(&key);
                        }
                        slab.touch(&key);
                        model.touch(&key);
                    } else {
                        while slab.len() >= CAP {
                            assert_eq!(
                                slab.pop_lru(),
                                model.pop_lru(),
                                "seed {seed} step {step}: eviction victim diverged"
                            );
                        }
                        slab.insert(key, step, dirty);
                        model.order.push((key, step, dirty));
                    }
                }
                // Flush scan: dirty keys in LRU order, cleaned in place.
                14..=15 => {
                    let batch: Vec<BlockKey> = slab.iter_dirty().take(BATCH).collect();
                    let expect: Vec<BlockKey> =
                        model.dirty_keys().into_iter().take(BATCH).collect();
                    assert_eq!(batch, expect, "seed {seed} step {step}: flush batch");
                    for k in &batch {
                        slab.clear_dirty(k);
                        model.clear_dirty(k);
                    }
                }
                // Per-file flush: the same scan filtered by uid.
                16..=17 => {
                    let uid = rng.range(1, 4);
                    let batch: Vec<BlockKey> =
                        slab.iter_dirty().filter(|&(u, _)| u == uid).collect();
                    let expect: Vec<BlockKey> = model
                        .dirty_keys()
                        .into_iter()
                        .filter(|&(u, _)| u == uid)
                        .collect();
                    assert_eq!(batch, expect, "seed {seed} step {step}: file flush");
                    for k in &batch {
                        slab.clear_dirty(k);
                        model.clear_dirty(k);
                    }
                }
                // Explicit eviction.
                18 => {
                    assert_eq!(slab.pop_lru(), model.pop_lru(), "seed {seed} step {step}");
                }
                // State probe: sizes, LRU head, full dirty order.
                _ => {
                    assert_eq!(slab.len(), model.order.len(), "seed {seed} step {step}");
                    assert_eq!(
                        slab.dirty_len(),
                        model.dirty_keys().len(),
                        "seed {seed} step {step}"
                    );
                    assert_eq!(
                        slab.peek_lru().copied(),
                        model.order.first().map(|e| e.0),
                        "seed {seed} step {step}"
                    );
                    let all: Vec<BlockKey> = slab.iter_dirty().collect();
                    assert_eq!(all, model.dirty_keys(), "seed {seed} step {step}");
                }
            }
        }
        // Drain: every remaining victim, value and dirty flag in order.
        loop {
            let (a, b) = (slab.pop_lru(), model.pop_lru());
            assert_eq!(a, b, "seed {seed}: drain diverged");
            if a.is_none() {
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Command ring vs Vec + pick_command oracle

/// The pre-rewrite queue entry: the oracle keeps commands in a `Vec` in
/// submission order and rebuilds an arrived view per dispatch.
struct OracleCmd {
    arrival: SimTime,
    uid: u64,
    offset: u64,
    seq: u64,
    bypassed: u32,
}

#[test]
fn cmd_ring_matches_vec_oracle() {
    const IO: u64 = 4_096;
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from(0xc0de_0000 + seed);
        // Window varies per trajectory: 1 degenerates to FIFO, small
        // windows starve, large windows give the elevator free rein.
        let window = [1usize, 4, 16, 64][(seed % 4) as usize];
        let mut ring: CmdRing<u32> = CmdRing::new();
        let mut oracle: Vec<OracleCmd> = Vec::new();
        let mut next_seq = 0u64;
        let mut head: Option<(u64, u64)> = None;
        let mut now = SimTime::ZERO;
        let mut submitted = 0u64;
        while submitted < 1_500 || !oracle.is_empty() {
            // A burst of pushes with staggered arrivals (some in the
            // future, so picks see a partially-arrived ring).
            if submitted < 1_500 {
                for _ in 0..rng.range(1, 8) {
                    let uid = rng.range(1, 4);
                    let offset = rng.range(0, 64) * IO;
                    let arrival = SimTime(now.0 + rng.range(0, 5_000));
                    let seq = ring.push(arrival, uid, offset, 0);
                    assert_eq!(seq, next_seq, "seed {seed}: seq assignment");
                    oracle.push(OracleCmd {
                        arrival,
                        uid,
                        offset,
                        seq,
                        bypassed: 0,
                    });
                    next_seq += 1;
                    submitted += 1;
                }
            }
            // A burst of picks.
            for _ in 0..rng.range(1, 8) {
                let view: Vec<CommandView> = oracle
                    .iter()
                    .filter(|c| c.arrival <= now)
                    .map(|c| CommandView {
                        uid: c.uid,
                        offset: c.offset,
                        seq: c.seq,
                        bypassed: c.bypassed,
                    })
                    .collect();
                if view.is_empty() {
                    assert!(
                        ring.pick(head, now, window).is_none(),
                        "seed {seed}: pick from not-yet-arrived ring"
                    );
                    match ring.min_arrival() {
                        Some(t) => now = t,
                        None => break,
                    }
                    continue;
                }
                let decision = pick_command(head, &view, window);
                let expect = view[decision.index];
                let picked = ring.pick(head, now, window).expect("view non-empty");
                assert_eq!(
                    (picked.seq, picked.uid, picked.offset),
                    (expect.seq, expect.uid, expect.offset),
                    "seed {seed} now {now:?}: dispatch diverged"
                );
                assert_eq!(picked.arrived, view.len(), "seed {seed}: arrived count");
                let i = oracle
                    .iter()
                    .position(|c| c.seq == expect.seq)
                    .expect("picked command is queued");
                oracle.remove(i);
                for c in oracle.iter_mut() {
                    if c.seq < expect.seq && c.arrival <= now {
                        c.bypassed += 1;
                    }
                }
                head = Some((picked.uid, picked.offset + IO));
                now = SimTime(now.0 + rng.range(0, 2_000));
            }
        }
        assert!(ring.is_empty(), "seed {seed}: ring drained with the oracle");
    }
}

// ---------------------------------------------------------------------
// Timer heap vs BinaryHeap

#[test]
fn timer_heap_matches_binary_heap() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from(0x7177_0000 + seed);
        let mut ours: TimerHeap<u64> = TimerHeap::new();
        let mut theirs: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        for step in 0..20_000u64 {
            if theirs.is_empty() || rng.range(0, 3) != 0 {
                // Three deadline regimes per trajectory: collision-heavy
                // (ties broken by seq), wide-spread, and reverse-sorted
                // (every push sifts all the way to the root).
                let t = match seed % 3 {
                    0 => SimTime(rng.range(0, 8)),
                    1 => SimTime(rng.range(0, 1 << 40)),
                    _ => SimTime(u64::MAX - step),
                };
                ours.push(t, seq, seq);
                theirs.push(Reverse((t, seq)));
                seq += 1;
            } else {
                assert_eq!(
                    ours.peek(),
                    theirs.peek().map(|&Reverse(k)| k),
                    "seed {seed} step {step}: peek diverged"
                );
                let (t, s, p) = ours.pop().expect("ours nonempty");
                let Reverse((rt, rs)) = theirs.pop().expect("theirs nonempty");
                assert_eq!((t, s), (rt, rs), "seed {seed} step {step}: pop diverged");
                assert_eq!(p, s, "seed {seed} step {step}: payload follows its key");
            }
        }
        while let Some((t, s, _)) = ours.pop() {
            let Reverse((rt, rs)) = theirs.pop().expect("same length");
            assert_eq!((t, s), (rt, rs), "seed {seed}: drain diverged");
        }
        assert!(theirs.is_empty(), "seed {seed}: lengths agree");
    }
}
