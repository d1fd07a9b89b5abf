//! Per-structure microbenchmarks: `bench structs`.
//!
//! The flat core data structures of DESIGN.md §19 each replaced a
//! pointer-chasing std collection on a simulation hot path. This module
//! times the four of them against **twins of the exact code they
//! replaced** — not strawmen, the prior implementations transplanted
//! verbatim from git history:
//!
//! | structure | flat arm | std twin |
//! |---|---|---|
//! | extent index | sorted-`Vec` arena + cursor ([`iosim_pfs::ExtentTree`]) | `BTreeMap<u64, Bytes>` range surgery |
//! | block LRU | intrusive slab ([`iosim_cache::LruSlab`]) | `HashMap` + `BTreeMap` tick index, full-index flush scans |
//! | command queue | flat ring ([`iosim_machine::CmdRing`]) | `Vec` + per-dispatch view collect + `Vec::remove` |
//! | timer queue | 4-ary flat heap ([`iosim_simkit::timerheap::TimerHeap`]) | `BinaryHeap<Reverse<…>>` |
//!
//! Both arms of a pair replay the **same pregenerated operation
//! sequence** (fixed [`SimRng`] seeds), so the comparison isolates the
//! data structure, not the workload. Results land in the `struct_ops`
//! section of `BENCH_wallclock.json` (schema v5) and in the
//! `bench structs` subcommand's summary; like every wall-clock number
//! they are host-relative and must never gate CI on absolute values.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::time::{Duration, Instant};

use iosim_buf::{zeros, Bytes, BytesList};
use iosim_cache::LruSlab;
use iosim_machine::{pick_command, CmdRing, CommandView};
use iosim_pfs::ExtentTree;
use iosim_simkit::rng::SimRng;
use iosim_simkit::time::{SimDuration, SimTime};
use iosim_simkit::timerheap::TimerHeap;
use iosim_trace::structs as stally;

/// One timed structure workload.
#[derive(Clone, Copy, Debug)]
pub struct StructStorm {
    /// Best-of-reps host wall time.
    pub wall: Duration,
    /// Logical operations performed (identical across reps and arms).
    pub ops: u64,
}

impl StructStorm {
    /// Structure throughput: operations per host second.
    pub fn ops_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.ops as f64 / s
        } else {
            0.0
        }
    }
}

/// A flat-vs-twin pair on the identical operation sequence.
#[derive(Clone, Copy, Debug)]
pub struct StructPair {
    pub flat: StructStorm,
    pub std_twin: StructStorm,
}

impl StructPair {
    /// Wall-time ratio twin/flat (>1 means the flat structure is
    /// faster). Wall time, not ops/sec ratio: ops counts are equal by
    /// construction, so the two are the same number — but wall keeps the
    /// convention of the scheduler storms.
    pub fn speedup(&self) -> f64 {
        let f = self.flat.wall.as_secs_f64();
        if f > 0.0 {
            self.std_twin.wall.as_secs_f64() / f
        } else {
            0.0
        }
    }
}

/// Workload sizes for the four structure storms.
#[derive(Clone, Copy, Debug)]
pub struct StructsConfig {
    /// Extent storm: sequential blocks written then read, plus a random
    /// read tail of a quarter that size.
    pub extent_blocks: usize,
    /// LRU storm: total operations over a 4096-block cache.
    pub lru_ops: usize,
    /// Command-queue storm: commands pushed through a 64-deep queue.
    pub ring_cmds: usize,
    /// Timer storm: total push/pop events.
    pub timer_events: usize,
    /// Repetitions per storm; best (minimum wall time) is reported.
    pub reps: usize,
}

impl StructsConfig {
    /// Full-size storms for the committed trajectory file.
    pub fn full() -> StructsConfig {
        StructsConfig {
            extent_blocks: 4096,
            lru_ops: 200_000,
            ring_cmds: 50_000,
            timer_events: 200_000,
            reps: 3,
        }
    }

    /// Small storms for the CI smoke gate.
    pub fn smoke() -> StructsConfig {
        StructsConfig {
            extent_blocks: 256,
            lru_ops: 12_000,
            ring_cmds: 3_000,
            timer_events: 12_000,
            reps: 1,
        }
    }
}

/// The full per-structure report.
#[derive(Clone, Copy, Debug)]
pub struct StructsReport {
    pub smoke: bool,
    pub extent: StructPair,
    pub lru: StructPair,
    pub cmdq: StructPair,
    pub timer: StructPair,
    /// Cursor hit rate of the flat extent arm over the storm (the
    /// locality the sorted-Vec layout is built around).
    pub extent_cursor_hit_rate: f64,
}

/// Structure keys in report and JSON order.
pub const STRUCT_NAMES: [&str; 4] = ["extent", "lru", "cmdq", "timer"];

impl StructsReport {
    /// Pairs in [`STRUCT_NAMES`] order.
    pub fn pairs(&self) -> [(&'static str, StructPair); 4] {
        [
            ("extent", self.extent),
            ("lru", self.lru),
            ("cmdq", self.cmdq),
            ("timer", self.timer),
        ]
    }
}

/// Measure both arms with one discarded warmup each and `reps`
/// interleaved repetitions, taking each side's best wall time (same
/// protocol as the scheduler storms: interleaving cancels slow host
/// frequency drift).
fn measure<F, B>(reps: usize, mut flat: F, mut std_twin: B) -> StructPair
where
    F: FnMut() -> StructStorm,
    B: FnMut() -> StructStorm,
{
    let _ = flat();
    let _ = std_twin();
    let mut best_f = flat();
    let mut best_b = std_twin();
    for _ in 1..reps.max(1) {
        let f = flat();
        if f.wall < best_f.wall {
            best_f = f;
        }
        let b = std_twin();
        if b.wall < best_b.wall {
            best_b = b;
        }
    }
    StructPair {
        flat: best_f,
        std_twin: best_b,
    }
}

// ---------------------------------------------------------------------
// Extent storm: the PFS stored-file index under a sequential-heavy
// stream — the access pattern the paper's applications generate.

const EXTENT_BLOCK: u64 = 512;

/// Pregenerated extent op: write at offset, or read `[offset, offset+len)`.
enum ExtOp {
    Write(u64),
    Read(u64, u64),
}

fn extent_ops(cfg: &StructsConfig) -> Vec<ExtOp> {
    let n = cfg.extent_blocks as u64;
    let mut ops: Vec<ExtOp> = Vec::new();
    // Sequential write pass, sequential read pass: the hot-path shape.
    for i in 0..n {
        ops.push(ExtOp::Write(i * EXTENT_BLOCK));
    }
    for i in 0..n {
        ops.push(ExtOp::Read(i * EXTENT_BLOCK, EXTENT_BLOCK));
    }
    // Random read tail: range queries that land off the cursor.
    let mut rng = SimRng::seed_from(0x0e17_e217);
    for _ in 0..n / 4 {
        let start = rng.range(0, n * EXTENT_BLOCK);
        let len = rng.range(1, 4 * EXTENT_BLOCK);
        ops.push(ExtOp::Read(start, len));
    }
    ops
}

fn extent_flat(ops: &[ExtOp]) -> StructStorm {
    let payload = Bytes::from_vec(vec![0xabu8; EXTENT_BLOCK as usize]);
    let mut t = ExtentTree::new();
    let t0 = Instant::now();
    for op in ops {
        match *op {
            ExtOp::Write(off) => t.write(off, payload.clone()),
            ExtOp::Read(off, len) => {
                std::hint::black_box(t.read(off, len));
            }
        }
    }
    StructStorm {
        wall: t0.elapsed(),
        ops: ops.len() as u64,
    }
}

/// The pre-rewrite extent tree, verbatim: a `BTreeMap<u64, Bytes>` with
/// range-surgery writes and range-scan reads.
#[derive(Default)]
struct BTreeExtentTwin {
    extents: BTreeMap<u64, Bytes>,
}

impl BTreeExtentTwin {
    fn write(&mut self, offset: u64, data: Bytes) {
        if data.is_empty() {
            return;
        }
        let end = offset + data.len() as u64;
        if let Some((&s, e)) = self.extents.range(..offset).next_back() {
            let e_end = s + e.len() as u64;
            if e_end > offset {
                let e = self.extents.remove(&s).expect("just found");
                self.extents.insert(s, e.slice(0, (offset - s) as usize));
                if e_end > end {
                    self.extents
                        .insert(end, e.slice((end - s) as usize, (e_end - end) as usize));
                }
            }
        }
        let inside: Vec<u64> = self.extents.range(offset..end).map(|(&s, _)| s).collect();
        for s in inside {
            let e = self.extents.remove(&s).expect("just listed");
            let e_end = s + e.len() as u64;
            if e_end > end {
                self.extents
                    .insert(end, e.slice((end - s) as usize, (e_end - end) as usize));
            }
        }
        self.extents.insert(offset, data);
    }

    fn read(&self, offset: u64, len: u64) -> BytesList {
        let end = offset + len;
        let mut out = BytesList::new();
        if len == 0 {
            return out;
        }
        let mut cursor = offset;
        if let Some((&s, e)) = self.extents.range(..offset).next_back() {
            let e_end = s + e.len() as u64;
            if e_end > offset {
                let take = e_end.min(end) - offset;
                out.push(e.slice((offset - s) as usize, take as usize));
                cursor += take;
            }
        }
        for (&s, e) in self.extents.range(offset..end) {
            if s > cursor {
                out.append(zeros(s - cursor));
            }
            let take = (s + e.len() as u64).min(end) - s;
            out.push(e.slice(0, take as usize));
            cursor = s + take;
        }
        if cursor < end {
            out.append(zeros(end - cursor));
        }
        out
    }
}

fn extent_std(ops: &[ExtOp]) -> StructStorm {
    let payload = Bytes::from_vec(vec![0xabu8; EXTENT_BLOCK as usize]);
    let mut t = BTreeExtentTwin::default();
    let t0 = Instant::now();
    for op in ops {
        match *op {
            ExtOp::Write(off) => t.write(off, payload.clone()),
            ExtOp::Read(off, len) => {
                std::hint::black_box(t.read(off, len));
            }
        }
    }
    StructStorm {
        wall: t0.elapsed(),
        ops: ops.len() as u64,
    }
}

// ---------------------------------------------------------------------
// LRU storm: the block-cache recency machinery under an insert / touch /
// evict / flush-scan mix at capacity.

const LRU_CAP: usize = 4096;
const LRU_FLUSH_EVERY: usize = 256;
const LRU_FLUSH_BATCH: usize = 64;

/// Pregenerated LRU op.
enum LruOp {
    /// Insert-or-touch `key`, dirtying it when the flag is set; evict
    /// the LRU victim first when at capacity (the write/read hit path).
    Access((u64, u64), bool),
    /// Flush scan: collect up to [`LRU_FLUSH_BATCH`] dirty keys in LRU
    /// order and mark them clean in place (the flush-daemon batch).
    FlushScan,
}

fn lru_ops(cfg: &StructsConfig) -> Vec<LruOp> {
    let mut rng = SimRng::seed_from(0x0017_05c4_c8e5_u64);
    let mut ops: Vec<LruOp> = Vec::with_capacity(cfg.lru_ops);
    for i in 0..cfg.lru_ops {
        if i % LRU_FLUSH_EVERY == LRU_FLUSH_EVERY - 1 {
            ops.push(LruOp::FlushScan);
        } else {
            let key = (rng.range(1, 5), rng.range(0, 2 * LRU_CAP as u64));
            ops.push(LruOp::Access(key, rng.range(0, 2) == 0));
        }
    }
    ops
}

fn lru_flat(ops: &[LruOp]) -> StructStorm {
    let mut s: LruSlab<(u64, u64), u64> = LruSlab::new();
    let t0 = Instant::now();
    for op in ops {
        match *op {
            LruOp::Access(key, dirty) => {
                if s.contains(&key) {
                    if dirty {
                        s.set_dirty(&key);
                    }
                    s.touch(&key);
                } else {
                    while s.len() >= LRU_CAP {
                        std::hint::black_box(s.pop_lru());
                    }
                    s.insert(key, 0, dirty);
                }
            }
            LruOp::FlushScan => {
                let batch: Vec<(u64, u64)> = s.iter_dirty().take(LRU_FLUSH_BATCH).collect();
                for k in &batch {
                    s.clear_dirty(k);
                }
                std::hint::black_box(batch.len());
            }
        }
    }
    StructStorm {
        wall: t0.elapsed(),
        ops: ops.len() as u64,
    }
}

/// The pre-rewrite cache bookkeeping, verbatim: a block `HashMap`, a
/// `BTreeMap` tick index for recency, and flush scans that re-walk the
/// **full** tick index filtering for dirty blocks.
#[derive(Default)]
struct TickLruTwin {
    blocks: HashMap<(u64, u64), (u64, bool)>, // key -> (tick, dirty)
    lru: BTreeMap<u64, (u64, u64)>,
    next_tick: u64,
    dirty: usize,
}

impl TickLruTwin {
    fn touch(&mut self, key: (u64, u64)) {
        if let Some((tick, _)) = self.blocks.get_mut(&key) {
            self.lru.remove(&std::mem::replace(tick, 0));
            *tick = self.next_tick;
            self.lru.insert(self.next_tick, key);
            self.next_tick += 1;
        }
    }
}

fn lru_std(ops: &[LruOp]) -> StructStorm {
    let mut s = TickLruTwin::default();
    let t0 = Instant::now();
    for op in ops {
        match *op {
            LruOp::Access(key, dirty) => {
                if let Some(&(_, was_dirty)) = s.blocks.get(&key) {
                    if dirty && !was_dirty {
                        s.blocks.get_mut(&key).expect("present").1 = true;
                        s.dirty += 1;
                    }
                    s.touch(key);
                } else {
                    while s.blocks.len() >= LRU_CAP {
                        let (&tick, &victim) = s.lru.iter().next().expect("non-empty");
                        s.lru.remove(&tick);
                        let (_, was_dirty) = s.blocks.remove(&victim).expect("indexed");
                        if was_dirty {
                            s.dirty -= 1;
                        }
                        std::hint::black_box(victim);
                    }
                    let tick = s.next_tick;
                    s.next_tick += 1;
                    s.blocks.insert(key, (tick, dirty));
                    s.lru.insert(tick, key);
                    if dirty {
                        s.dirty += 1;
                    }
                }
            }
            LruOp::FlushScan => {
                let batch: Vec<(u64, u64)> = s
                    .lru
                    .values()
                    .filter(|key| s.blocks[key].1)
                    .take(LRU_FLUSH_BATCH)
                    .copied()
                    .collect();
                for k in &batch {
                    s.blocks.get_mut(k).expect("scanned").1 = false;
                    s.dirty -= 1;
                }
                std::hint::black_box(batch.len());
            }
        }
    }
    StructStorm {
        wall: t0.elapsed(),
        ops: ops.len() as u64,
    }
}

// ---------------------------------------------------------------------
// Command-queue storm: an NCQ window under steady load — every command
// visible (arrival ZERO), one push per pick once the window fills.

const RING_DEPTH: usize = 64;

/// Pregenerated command: (uid, first offset).
fn ring_cmds(cfg: &StructsConfig) -> Vec<(u64, u64)> {
    let mut rng = SimRng::seed_from(0x00c0_ffee_0b57_ac1e);
    (0..cfg.ring_cmds)
        .map(|_| {
            // A mix of sequential runs (continuations the elevator can
            // exploit) and far jumps, over a handful of files.
            let uid = rng.range(1, 4);
            let offset = rng.range(0, 64) * 4096;
            (uid, offset)
        })
        .collect()
}

fn cmdq_flat(cmds: &[(u64, u64)]) -> StructStorm {
    let mut ring: CmdRing<u32> = CmdRing::new();
    let mut head: Option<(u64, u64)> = None;
    let t0 = Instant::now();
    let mut it = cmds.iter();
    let mut live = 0usize;
    loop {
        while live < RING_DEPTH {
            let Some(&(uid, offset)) = it.next() else {
                break;
            };
            ring.push(SimTime::ZERO, uid, offset, 0);
            live += 1;
        }
        if live == 0 {
            break;
        }
        let picked = ring
            .pick(head, SimTime::ZERO, RING_DEPTH)
            .expect("commands arrived");
        head = Some((picked.uid, picked.offset + 4096));
        live -= 1;
        std::hint::black_box(picked.seq);
    }
    StructStorm {
        wall: t0.elapsed(),
        // One push plus one pick per command.
        ops: 2 * cmds.len() as u64,
    }
}

fn cmdq_std(cmds: &[(u64, u64)]) -> StructStorm {
    // The pre-rewrite daemon queue, verbatim: a seq-ordered `Vec`, a
    // fresh arrived-view `Vec` per dispatch, `Vec::remove` of the pick,
    // and a bypass walk over the remainder.
    struct Queued {
        uid: u64,
        offset: u64,
        seq: u64,
        bypassed: u32,
    }
    let mut queue: Vec<Queued> = Vec::new();
    let mut next_seq = 0u64;
    let mut head: Option<(u64, u64)> = None;
    let t0 = Instant::now();
    let mut it = cmds.iter();
    loop {
        while queue.len() < RING_DEPTH {
            let Some(&(uid, offset)) = it.next() else {
                break;
            };
            queue.push(Queued {
                uid,
                offset,
                seq: next_seq,
                bypassed: 0,
            });
            next_seq += 1;
        }
        if queue.is_empty() {
            break;
        }
        let arrived: Vec<CommandView> = queue
            .iter()
            .map(|q| CommandView {
                uid: q.uid,
                offset: q.offset,
                seq: q.seq,
                bypassed: q.bypassed,
            })
            .collect();
        let decision = pick_command(head, &arrived, RING_DEPTH);
        let picked_seq = arrived[decision.index].seq;
        let idx = queue
            .iter()
            .position(|q| q.seq == picked_seq)
            .expect("picked command is queued");
        let picked = queue.remove(idx);
        for q in queue.iter_mut() {
            if q.seq < picked_seq {
                q.bypassed += 1;
            }
        }
        head = Some((picked.uid, picked.offset + 4096));
        std::hint::black_box(picked.seq);
    }
    StructStorm {
        wall: t0.elapsed(),
        ops: 2 * cmds.len() as u64,
    }
}

// ---------------------------------------------------------------------
// Timer storm: the executor's deadline queue under a push/pop interleave
// with batched same-instant pops (the run-loop access pattern).

/// Pregenerated timer events: push deadlines in nanoseconds; every
/// burst of 8 pushes is followed by 8 pops.
fn timer_deadlines(cfg: &StructsConfig) -> Vec<u64> {
    let mut rng = SimRng::seed_from(0x7134_9e2d_0000_0001);
    let mut now = 0u64;
    (0..cfg.timer_events)
        .map(|_| {
            now += rng.range(0, 3);
            now + rng.range(1, 10_000)
        })
        .collect()
}

fn timer_flat(deadlines: &[u64]) -> StructStorm {
    // Payload is a `u64` — the width of the executor's payload when this
    // storm was written (an `Rc` waker-slot pointer; it is a 16-byte
    // `Waker` now) — so both arms carry equal freight.
    let mut heap: TimerHeap<u64> = TimerHeap::new();
    let mut seq = 0u64;
    let t0 = Instant::now();
    for chunk in deadlines.chunks(8) {
        for &d in chunk {
            heap.push(SimTime::ZERO + SimDuration::from_nanos(d), seq, seq);
            seq += 1;
        }
        for _ in 0..chunk.len() / 2 {
            std::hint::black_box(heap.pop());
        }
    }
    while let Some(e) = heap.pop() {
        std::hint::black_box(e);
    }
    StructStorm {
        wall: t0.elapsed(),
        // Every deadline is pushed once and popped once.
        ops: 2 * deadlines.len() as u64,
    }
}

/// Transplant of the executor's pre-rewrite `TimerEntry` (ordered by
/// `(time, seq)`, payload carried inline in every heap entry). The real
/// payload was an `Rc` waker-slot pointer; a `u64` stands in at the same
/// width so sift moves shuffle the same bytes.
struct TimerEntryTwin {
    time: SimTime,
    seq: u64,
    #[allow(dead_code)]
    slot: u64,
}

impl PartialEq for TimerEntryTwin {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for TimerEntryTwin {}
impl PartialOrd for TimerEntryTwin {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntryTwin {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

fn timer_std(deadlines: &[u64]) -> StructStorm {
    // The pre-rewrite timer queue: `BinaryHeap<Reverse<TimerEntry>>`.
    let mut heap: BinaryHeap<Reverse<TimerEntryTwin>> = BinaryHeap::new();
    let mut seq = 0u64;
    let t0 = Instant::now();
    for chunk in deadlines.chunks(8) {
        for &d in chunk {
            heap.push(Reverse(TimerEntryTwin {
                time: SimTime::ZERO + SimDuration::from_nanos(d),
                seq,
                slot: seq,
            }));
            seq += 1;
        }
        for _ in 0..chunk.len() / 2 {
            std::hint::black_box(heap.pop());
        }
    }
    while let Some(e) = heap.pop() {
        std::hint::black_box(e);
    }
    StructStorm {
        wall: t0.elapsed(),
        ops: 2 * deadlines.len() as u64,
    }
}

/// Run the four structure storms at `smoke` or full size.
pub fn run_struct_storms(smoke: bool) -> StructsReport {
    let cfg = if smoke {
        StructsConfig::smoke()
    } else {
        StructsConfig::full()
    };

    eprintln!("[structs] extent index (flat arena vs BTreeMap)");
    let ext_ops = extent_ops(&cfg);
    stally::reset();
    let extent = measure(cfg.reps, || extent_flat(&ext_ops), || extent_std(&ext_ops));
    let tally = stally::snapshot();

    eprintln!("[structs] block LRU (intrusive slab vs tick index)");
    let l_ops = lru_ops(&cfg);
    let lru = measure(cfg.reps, || lru_flat(&l_ops), || lru_std(&l_ops));

    eprintln!("[structs] command queue (ring vs Vec)");
    let cmds = ring_cmds(&cfg);
    let cmdq = measure(cfg.reps, || cmdq_flat(&cmds), || cmdq_std(&cmds));

    eprintln!("[structs] timer queue (4-ary heap vs BinaryHeap)");
    let dls = timer_deadlines(&cfg);
    let timer = measure(cfg.reps, || timer_flat(&dls), || timer_std(&dls));

    StructsReport {
        smoke,
        extent,
        lru,
        cmdq,
        timer,
        extent_cursor_hit_rate: tally.cursor_hit_rate(),
    }
}

/// Human-readable summary of the per-structure pairs.
pub fn render_summary(r: &StructsReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "struct microbenchmarks ({} mode):",
        if r.smoke { "smoke" } else { "full" }
    );
    for (name, p) in r.pairs() {
        let _ = writeln!(
            out,
            "  {name:>8}: {:>11.0} ops/s flat vs {:>11.0} ops/s std -> {:.2}x",
            p.flat.ops_per_sec(),
            p.std_twin.ops_per_sec(),
            p.speedup(),
        );
    }
    let _ = writeln!(
        out,
        "  extent cursor hit rate: {:.1}%",
        r.extent_cursor_hit_rate * 100.0
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> StructsConfig {
        StructsConfig {
            extent_blocks: 32,
            lru_ops: 1500,
            ring_cmds: 300,
            timer_events: 1200,
            reps: 1,
        }
    }

    #[test]
    fn storms_run_and_count_ops_identically() {
        let cfg = tiny();
        let ext = extent_ops(&cfg);
        assert_eq!(extent_flat(&ext).ops, extent_std(&ext).ops);
        let l = lru_ops(&cfg);
        assert_eq!(lru_flat(&l).ops, lru_std(&l).ops);
        let c = ring_cmds(&cfg);
        assert_eq!(cmdq_flat(&c).ops, cmdq_std(&c).ops);
        let d = timer_deadlines(&cfg);
        assert_eq!(timer_flat(&d).ops, timer_std(&d).ops);
        assert!(extent_flat(&ext).ops > 0);
    }

    #[test]
    fn extent_arms_return_identical_bytes() {
        // The twin is the old implementation: on the shared op sequence
        // both arms must serve byte-identical reads.
        let cfg = tiny();
        let payload = Bytes::from_vec(vec![0xabu8; EXTENT_BLOCK as usize]);
        let mut flat = ExtentTree::new();
        let mut twin = BTreeExtentTwin::default();
        for op in extent_ops(&cfg) {
            match op {
                ExtOp::Write(off) => {
                    flat.write(off, payload.clone());
                    twin.write(off, payload.clone());
                }
                ExtOp::Read(off, len) => {
                    assert_eq!(
                        flat.read(off, len).to_vec(),
                        twin.read(off, len).to_vec(),
                        "read [{off}, +{len})"
                    );
                }
            }
        }
    }

    #[test]
    fn lru_arms_agree_on_flush_order() {
        // Run both arms side by side on one sequence and compare the
        // flush batches — the determinism-critical output.
        let cfg = tiny();
        let ops = lru_ops(&cfg);
        let mut flat: LruSlab<(u64, u64), u64> = LruSlab::new();
        let mut twin = TickLruTwin::default();
        for op in &ops {
            match *op {
                LruOp::Access(key, dirty) => {
                    if flat.contains(&key) {
                        if dirty {
                            flat.set_dirty(&key);
                            let b = twin.blocks.get_mut(&key).expect("twin resident");
                            if !b.1 {
                                b.1 = true;
                                twin.dirty += 1;
                            }
                        }
                        flat.touch(&key);
                        twin.touch(key);
                    } else {
                        while flat.len() >= LRU_CAP {
                            flat.pop_lru();
                            let (&tick, &victim) = twin.lru.iter().next().expect("non-empty");
                            twin.lru.remove(&tick);
                            twin.blocks.remove(&victim);
                        }
                        flat.insert(key, 0, dirty);
                        let tick = twin.next_tick;
                        twin.next_tick += 1;
                        twin.blocks.insert(key, (tick, dirty));
                        twin.lru.insert(tick, key);
                    }
                }
                LruOp::FlushScan => {
                    let ours: Vec<(u64, u64)> = flat.iter_dirty().take(LRU_FLUSH_BATCH).collect();
                    let theirs: Vec<(u64, u64)> = twin
                        .lru
                        .values()
                        .filter(|key| twin.blocks[key].1)
                        .take(LRU_FLUSH_BATCH)
                        .copied()
                        .collect();
                    assert_eq!(ours, theirs, "flush batch");
                    for k in &ours {
                        flat.clear_dirty(k);
                        twin.blocks.get_mut(k).expect("scanned").1 = false;
                    }
                }
            }
        }
    }

    #[test]
    fn report_shape_holds_on_tiny_run() {
        // Exercise the real entry point at smoke size (kept small by the
        // smoke config itself) and sanity-check the derived numbers.
        let r = run_struct_storms(true);
        for (name, p) in r.pairs() {
            assert!(p.flat.ops > 0, "{name}: zero ops");
            assert!(p.flat.ops_per_sec().is_finite());
            assert!(p.std_twin.ops_per_sec().is_finite());
            assert!(p.speedup().is_finite());
        }
        assert!((0.0..=1.0).contains(&r.extent_cursor_hit_rate));
        assert!(
            r.extent_cursor_hit_rate > 0.5,
            "sequential storm should mostly hit the cursor, got {}",
            r.extent_cursor_hit_rate
        );
    }
}
