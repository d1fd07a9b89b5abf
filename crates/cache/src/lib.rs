//! # iosim-cache — per-I/O-node buffer-cache model
//!
//! The paper's I/O-node daemons keep a block cache in front of each disk;
//! this crate models that layer as a *timing* cache. Actual file bytes
//! live in the PFS file state and are always kept consistent
//! synchronously — the cache only decides *when* a stripe-unit request
//! completes and which disk traffic it induces:
//!
//! - **Block-granular LRU read cache.** Requests are split into
//!   cache blocks (default: the machine's stripe unit). Resident blocks
//!   are served at memory speed (a fixed lookup overhead plus a
//!   copy at `mem_bandwidth_bps`); missing blocks are fetched from the
//!   disk queue as coalesced extents, so a multi-block miss pays one
//!   positioning cost, not one per block.
//! - **Write-behind.** Writes complete once the data is in cache memory
//!   and are written back later: by a flush daemon that wakes when the
//!   dirty-block count crosses a high-water mark and drains it to the
//!   low-water mark in background batches, by dirty evictions (which
//!   stall the writer — the model's throttle when the cache is
//!   overwhelmed), or by an explicit [`BufferCache::flush_file`].
//! - **Sequential read-ahead.** When a file is read sequentially, the
//!   next `read_ahead_blocks` blocks are fetched speculatively after the
//!   demand miss; a later request overlapping an in-flight prefetch
//!   waits only for its completion. A prefetched block counts as one
//!   read-ahead hit on its first demand read, landed or not, so hits
//!   never exceed the blocks issued.
//! - **Extent lists.** The PFS hands each I/O node its share of a
//!   request as a sorted list of local extents (one extent for a
//!   contiguous access) to [`BufferCache::read_extents`] /
//!   [`BufferCache::write_extents`], served in one pass: one hit scan
//!   over the union of touched blocks, one coalesced miss set, and the
//!   lookup overhead plus memory copy paid once per request.
//!
//! Every decision is deterministic: recency lives in an intrusive
//! doubly-linked [`LruSlab`] whose dirty sublist mirrors LRU order
//! exactly (the block index is a point-lookup hash map that is never
//! iterated — see `lru.rs` for the ordering invariant), disk bookings
//! go through [`Machine::book_disk`] (the node's one head and FIFO
//! queue, shared with the uncached path), and the flush daemon is a
//! short-lived simulation task that always terminates (so the executor
//! never leaks it).
//!
//! Policy and sizing come from [`iosim_machine::CacheParams`] on the
//! machine config; [`BufferCache::new`] returns `None` under
//! [`CachePolicy::None`](iosim_machine::CachePolicy::None), which lets the PFS keep its original
//! uncached path byte-for-byte.

pub mod lru;

use std::cell::RefCell;
use std::rc::Rc;

use iosim_machine::{CacheParams, Machine};
use iosim_simkit::time::{SimDuration, SimTime};
use iosim_trace::CacheCounters;

pub use lru::LruSlab;

/// A cached block is identified by (file uid, block index within the
/// I/O node's local byte space).
type BlockKey = (u64, u64);

/// A resident block: when its contents are available in cache memory
/// (later than "now" only while a fetch or prefetch is still in flight)
/// and whether read-ahead brought it in and no demand read has used it
/// yet. The dirty flag lives in the slab.
#[derive(Clone, Copy)]
struct Resident {
    ready_at: SimTime,
    read_ahead: bool,
}

impl Resident {
    fn at(ready_at: SimTime) -> Resident {
        Resident {
            ready_at,
            read_ahead: false,
        }
    }
}

/// State of one I/O node's cache. The node's disk head is not here: it
/// is the machine's (see [`Machine::disk_head`]).
#[derive(Default)]
struct NodeCache {
    lru: LruSlab<BlockKey, Resident>,
    /// Expected (uid, block) of the next sequential read, for
    /// read-ahead trigger detection.
    next_seq: Option<(u64, u64)>,
    /// Whether a flush daemon task is currently draining this node.
    flushing: bool,
    /// Buffers reused by every request at this node, so the lookup
    /// path allocates only while they grow to the largest request.
    scratch: Scratch,
}

/// Per-request working sets of [`BufferCache::read_extents`] and
/// [`BufferCache::write_extents`]; taken out of the node for the
/// request's duration and put back with their capacity.
#[derive(Default)]
struct Scratch {
    /// Sorted, deduplicated blocks the request touches.
    blocks: Vec<u64>,
    /// Blocks to fetch (demand misses, then read-ahead candidates).
    missing: Vec<u64>,
    /// `missing` coalesced into disk transfers.
    fetch: Vec<Extent>,
}

/// A contiguous run of missing blocks, coalesced into one disk transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Extent {
    first_block: u64,
    count: u64,
}

/// The buffer-cache model shared by all files on a machine. One
/// `NodeCache` per I/O node; every disk transfer it issues (demand
/// fetch, read-ahead, write-through, eviction and flush write-back) is
/// one single-run [`Machine::book_disk`] on the node's one head and
/// queue, and counters flow through the shared [`CacheCounters`].
pub struct BufferCache {
    machine: Rc<Machine>,
    counters: CacheCounters,
    params: CacheParams,
    /// Resolved block size in bytes (params.block_bytes, or the
    /// machine's default stripe unit when 0).
    block: u64,
    /// Capacity in blocks (>= 1).
    cap_blocks: usize,
    /// Dirty-block count that wakes the flush daemon.
    high_water: usize,
    /// Dirty-block count at which the daemon stops draining.
    low_water: usize,
    nodes: Vec<RefCell<NodeCache>>,
}

/// Cap on blocks written back per daemon batch, so a drain is a series
/// of bounded disk bookings interleaved with simulated waiting rather
/// than one giant reservation.
const FLUSH_BATCH_BLOCKS: usize = 64;

impl BufferCache {
    /// Build the cache for `machine` according to its configured
    /// [`CacheParams`]. Returns `None` under [`CachePolicy::None`](iosim_machine::CachePolicy::None) so
    /// callers keep the uncached code path untouched.
    pub fn new(machine: &Rc<Machine>, counters: CacheCounters) -> Option<Rc<BufferCache>> {
        let params = machine.cfg().cache;
        if !params.enabled() {
            return None;
        }
        let block = if params.block_bytes == 0 {
            machine.cfg().default_stripe_unit.max(1)
        } else {
            params.block_bytes
        };
        let cap_blocks = ((params.capacity_bytes / block) as usize).max(1);
        let high_water =
            ((params.dirty_high_water * cap_blocks as f64).ceil() as usize).clamp(1, cap_blocks);
        let low_water = high_water / 2;
        let nodes = (0..machine.io_nodes())
            .map(|_| RefCell::new(NodeCache::default()))
            .collect();
        Some(Rc::new(BufferCache {
            machine: Rc::clone(machine),
            counters,
            params,
            block,
            cap_blocks,
            high_water,
            low_water,
            nodes,
        }))
    }

    /// The active policy parameters.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    /// Resolved cache block size in bytes.
    pub fn block_bytes(&self) -> u64 {
        self.block
    }

    /// Resident block count at `node` (tests / diagnostics).
    pub fn resident_blocks(&self, node: usize) -> usize {
        self.nodes[node].borrow().lru.len()
    }

    /// Dirty block count at `node` (tests / diagnostics).
    pub fn dirty_blocks(&self, node: usize) -> usize {
        self.nodes[node].borrow().lru.dirty_len()
    }

    /// Whether block `idx` of file `uid` is resident at `node`.
    pub fn contains(&self, node: usize, uid: u64, idx: u64) -> bool {
        self.nodes[node].borrow().lru.contains(&(uid, idx))
    }

    fn mem_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.params.mem_bandwidth_bps)
    }

    /// Evict the LRU victim at `node`. A dirty victim is written back
    /// first; its disk completion time is returned so callers can model
    /// the writer stalling behind the writeback.
    fn evict_one(&self, n: &mut NodeCache, node: usize, arrival: SimTime) -> Option<SimTime> {
        let ((uid, idx), _ready, dirty) = n.lru.pop_lru()?;
        self.counters.add_evictions(1);
        if dirty {
            let run = (idx * self.block, self.block);
            let (_, end) = self.machine.book_disk(node, uid, &[run], arrival);
            self.counters.add_flushed(1);
            Some(end)
        } else {
            None
        }
    }

    /// Insert (or refresh) a block, evicting as needed. Returns the
    /// latest writeback completion among any dirty victims. A refresh is
    /// a write over the block's contents, so it clears a read-ahead tag.
    fn insert_block(
        &self,
        n: &mut NodeCache,
        node: usize,
        key: BlockKey,
        block: Resident,
        dirty: bool,
        arrival: SimTime,
    ) -> Option<SimTime> {
        if let Some(b) = n.lru.value_mut(&key) {
            b.ready_at = b.ready_at.max(block.ready_at);
            b.read_ahead &= block.read_ahead;
            if dirty {
                n.lru.set_dirty(&key);
            }
            n.lru.touch(&key);
            return None;
        }
        let mut stall = None;
        while n.lru.len() >= self.cap_blocks {
            if let Some(end) = self.evict_one(n, node, arrival) {
                stall = Some(stall.map_or(end, |s: SimTime| s.max(end)));
            }
        }
        n.lru.insert(key, block, dirty);
        stall
    }

    /// Collect the sorted union of blocks the local `extents` touch
    /// (extents may share boundary blocks) into `blocks`, and return the
    /// request's total bytes. A zero-length extent counts as one byte.
    fn touched_blocks(&self, extents: &[(u64, u64)], blocks: &mut Vec<u64>) -> u64 {
        blocks.clear();
        let mut total = 0u64;
        for &(offset, bytes) in extents {
            let bytes = bytes.max(1);
            total += bytes;
            blocks.extend(offset / self.block..=(offset + bytes - 1) / self.block);
        }
        blocks.sort_unstable();
        blocks.dedup();
        total
    }

    /// Group a sorted list of missing block indices into contiguous
    /// extents (into `extents`) so each seek is paid once per run, not
    /// once per block.
    fn coalesce(missing: &[u64], extents: &mut Vec<Extent>) {
        extents.clear();
        for &b in missing {
            match extents.last_mut() {
                Some(e) if e.first_block + e.count == b => e.count += 1,
                _ => extents.push(Extent {
                    first_block: b,
                    count: 1,
                }),
            }
        }
    }

    /// Serve a read of sorted, disjoint local extents of file `uid` at
    /// I/O node `node` in **one pass**: one hit scan over the union of
    /// the touched blocks, one coalesced miss set fetched from the disk
    /// queue, and the lookup overhead plus memory copy paid once on the
    /// request's total bytes. Returns the completion time at the I/O
    /// node (before the network response leg).
    pub fn read_extents(
        self: &Rc<Self>,
        node: usize,
        uid: u64,
        extents: &[(u64, u64)],
        arrival: SimTime,
    ) -> SimTime {
        let mut n = self.nodes[node].borrow_mut();
        let mut scratch = std::mem::take(&mut n.scratch);
        let done = self.read_blocks(&mut n, &mut scratch, node, uid, extents, arrival);
        n.scratch = scratch;
        done
    }

    /// Body of [`BufferCache::read_extents`], working in `s`.
    fn read_blocks(
        &self,
        n: &mut NodeCache,
        s: &mut Scratch,
        node: usize,
        uid: u64,
        extents: &[(u64, u64)],
        arrival: SimTime,
    ) -> SimTime {
        let total = self.touched_blocks(extents, &mut s.blocks);
        let (Some(&first), Some(&last)) = (s.blocks.first(), s.blocks.last()) else {
            return arrival;
        };

        let mut done = arrival;
        let mut hits = 0u64;
        let mut ra_hits = 0u64;
        s.missing.clear();
        for &b in &s.blocks {
            match n.lru.value_mut(&(uid, b)) {
                Some(block) => {
                    hits += 1;
                    // A block still in flight is waited for rather than
                    // fetched again.
                    done = done.max(block.ready_at);
                    // A prefetched block scores once, on its first
                    // demand read.
                    if std::mem::take(&mut block.read_ahead) {
                        ra_hits += 1;
                    }
                    n.lru.touch(&(uid, b));
                }
                None => s.missing.push(b),
            }
        }

        Self::coalesce(&s.missing, &mut s.fetch);
        for &e in &s.fetch {
            let off = e.first_block * self.block;
            let len = e.count * self.block;
            let (_, end) = self.machine.book_disk(node, uid, &[(off, len)], arrival);
            done = done.max(end);
            for i in 0..e.count {
                let key = (uid, e.first_block + i);
                self.insert_block(n, node, key, Resident::at(end), false, arrival);
            }
        }
        self.counters.add_hits(hits);
        self.counters.add_misses(s.missing.len() as u64);
        self.counters.add_readahead_hits(ra_hits);

        // Sequential read-ahead: if this request continues the previous
        // one, speculatively fetch the next blocks after the demand work.
        let sequential = n.next_seq == Some((uid, first));
        n.next_seq = Some((uid, last + 1));
        if sequential && self.params.read_ahead_blocks > 0 {
            s.missing.clear();
            s.missing.extend(
                (last + 1..=last + self.params.read_ahead_blocks as u64)
                    .filter(|&b| !n.lru.contains(&(uid, b))),
            );
            if !s.missing.is_empty() {
                self.counters.add_readahead_issued(s.missing.len() as u64);
                Self::coalesce(&s.missing, &mut s.fetch);
                for &e in &s.fetch {
                    let off = e.first_block * self.block;
                    let len = e.count * self.block;
                    let (_, end) = self.machine.book_disk(node, uid, &[(off, len)], arrival);
                    let block = Resident {
                        ready_at: end,
                        read_ahead: true,
                    };
                    for i in 0..e.count {
                        self.insert_block(n, node, (uid, e.first_block + i), block, false, arrival);
                    }
                }
            }
        }

        // Cache lookup overhead plus the memory copy out to the network
        // buffer, paid on the full request.
        done + self.params.hit_overhead + self.mem_time(total)
    }

    /// Serve a write of sorted, disjoint local extents of file `uid` at
    /// I/O node `node` in one pass. Under write-behind the write
    /// completes at memory speed, the lookup overhead and memory copy
    /// paid once on the request's total bytes, and every touched block
    /// turns dirty; write-through books each extent's exact byte range
    /// on the disk queue like the uncached path, head-position aware,
    /// with the blocks cached clean for later reads.
    pub fn write_extents(
        self: &Rc<Self>,
        node: usize,
        uid: u64,
        extents: &[(u64, u64)],
        arrival: SimTime,
    ) -> SimTime {
        let mut n = self.nodes[node].borrow_mut();

        if !self.params.write_behind {
            // Write-through: disk timing identical in shape to the
            // uncached path (exact byte extents, head-position aware),
            // but the written blocks stay resident for readers.
            let mut done = arrival;
            for &(offset, bytes) in extents {
                let bytes = bytes.max(1);
                let (_, end) = self
                    .machine
                    .book_disk(node, uid, &[(offset, bytes)], arrival);
                for b in offset / self.block..=(offset + bytes - 1) / self.block {
                    self.insert_block(&mut n, node, (uid, b), Resident::at(end), false, arrival);
                }
                done = done.max(end);
            }
            return done;
        }

        let mut scratch = std::mem::take(&mut n.scratch);
        let blocks = &mut scratch.blocks;
        let total = self.touched_blocks(extents, blocks);
        let mut done = arrival + self.params.hit_overhead + self.mem_time(total);
        for &b in blocks.iter() {
            let block = Resident::at(done);
            if let Some(stall) = self.insert_block(&mut n, node, (uid, b), block, true, arrival) {
                // The cache was full of dirty data: the writer stalls
                // behind the eviction writeback.
                done = done.max(stall);
            }
        }
        let absorbed = blocks.len() as u64;
        n.scratch = scratch;
        if absorbed == 0 {
            return arrival;
        }
        self.counters.add_writes_absorbed(absorbed);

        if n.lru.dirty_len() >= self.high_water && !n.flushing {
            n.flushing = true;
            self.counters.add_flush_wakeup();
            drop(n);
            self.spawn_flusher(node);
        }
        done
    }

    /// Spawn a short-lived flush-daemon task that drains `node`'s dirty
    /// blocks down to the low-water mark in background batches. The task
    /// always terminates (each batch strictly reduces the dirty count),
    /// so it cannot pin the executor.
    fn spawn_flusher(self: &Rc<Self>, node: usize) {
        let cache = Rc::clone(self);
        let handle = self.machine.handle().clone();
        self.machine.handle().spawn_detached(async move {
            loop {
                let now = handle.now();
                match cache.flush_batch(node, now) {
                    Some(end) => handle.sleep_until(end).await,
                    None => break,
                }
            }
        });
    }

    /// Write back one daemon batch of LRU-ordered dirty blocks at
    /// `node`. Returns the batch's disk completion time, or `None` once
    /// the dirty count is at/below the low-water mark (clearing the
    /// `flushing` flag).
    fn flush_batch(&self, node: usize, now: SimTime) -> Option<SimTime> {
        let mut n = self.nodes[node].borrow_mut();
        if n.lru.dirty_len() <= self.low_water {
            n.flushing = false;
            return None;
        }
        let want = (n.lru.dirty_len() - self.low_water).min(FLUSH_BATCH_BLOCKS);
        // LRU-ordered dirty victims straight off the dirty sublist — no
        // full-index walk, and the same order the old tick-index filter
        // produced (the sublist mirrors LRU order by construction).
        let batch: Vec<BlockKey> = n.lru.iter_dirty().take(want).collect();
        let end = self.writeback(&mut n, node, &batch, now);
        Some(end)
    }

    /// Write back the given dirty blocks (marking them clean in place),
    /// coalescing per-file contiguous runs. Returns the latest disk
    /// completion.
    fn writeback(
        &self,
        n: &mut NodeCache,
        node: usize,
        keys: &[BlockKey],
        arrival: SimTime,
    ) -> SimTime {
        let mut sorted: Vec<BlockKey> = keys.to_vec();
        sorted.sort_unstable();
        let mut done = arrival;
        let mut i = 0;
        while i < sorted.len() {
            let (uid, first) = sorted[i];
            let mut count = 1u64;
            while i + (count as usize) < sorted.len()
                && sorted[i + count as usize] == (uid, first + count)
            {
                count += 1;
            }
            let run = (first * self.block, count * self.block);
            let (_, end) = self.machine.book_disk(node, uid, &[run], arrival);
            done = done.max(end);
            for j in 0..count {
                n.lru.clear_dirty(&(uid, first + j));
            }
            self.counters.add_flushed(count);
            i += count as usize;
        }
        done
    }

    /// Synchronously write back every dirty block of file `uid` (all
    /// nodes). Returns the completion time of the slowest writeback
    /// (`arrival` if nothing was dirty). Used by `FileHandle::flush`.
    pub fn flush_file(self: &Rc<Self>, uid: u64, arrival: SimTime) -> SimTime {
        let mut done = arrival;
        for node in 0..self.nodes.len() {
            let mut n = self.nodes[node].borrow_mut();
            let dirty: Vec<BlockKey> = n.lru.iter_dirty().filter(|&(u, _)| u == uid).collect();
            if dirty.is_empty() {
                continue;
            }
            done = done.max(self.writeback(&mut n, node, &dirty, arrival));
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_machine::{presets, CachePolicy};
    use iosim_simkit::executor::Sim;

    const BLOCK: u64 = 1024;

    /// A single-I/O-node machine with the given cache parameters.
    fn rig(params: CacheParams) -> (Sim, Rc<BufferCache>, CacheCounters) {
        let sim = Sim::new();
        let cfg = presets::paragon_small().with_io_nodes(1).with_cache(params);
        let machine = iosim_machine::Machine::new(sim.handle(), cfg);
        let counters = CacheCounters::new();
        let cache = BufferCache::new(&machine, counters.clone()).expect("cache enabled");
        (sim, cache, counters)
    }

    #[test]
    fn none_policy_builds_no_cache() {
        let sim = Sim::new();
        let machine = iosim_machine::Machine::new(sim.handle(), presets::paragon_small());
        assert_eq!(machine.cfg().cache.policy, CachePolicy::None);
        assert!(BufferCache::new(&machine, CacheCounters::new()).is_none());
    }

    #[test]
    fn lru_evicts_in_access_order() {
        // Two-block cache: after touching 0, reading 2 must evict 1.
        let params = CacheParams::lru(2 * BLOCK)
            .with_block_bytes(BLOCK)
            .with_read_ahead(0);
        let (_sim, cache, counters) = rig(params);
        let t0 = SimTime::ZERO;
        let uid = 7;
        cache.read_extents(0, uid, &[(0, BLOCK)], t0); // miss: {0}
        cache.read_extents(0, uid, &[(BLOCK, BLOCK)], t0); // miss: {0, 1}
        cache.read_extents(0, uid, &[(0, BLOCK)], t0); // hit, 0 becomes MRU
        cache.read_extents(0, uid, &[(2 * BLOCK, BLOCK)], t0); // miss: evicts 1
        assert!(cache.contains(0, uid, 0));
        assert!(!cache.contains(0, uid, 1));
        assert!(cache.contains(0, uid, 2));
        let s = counters.snapshot();
        assert_eq!(s.misses, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.evictions, 1);
    }

    #[test]
    fn repeated_reads_hit_and_get_faster() {
        let params = CacheParams::lru(64 * BLOCK)
            .with_block_bytes(BLOCK)
            .with_read_ahead(0);
        let (_sim, cache, counters) = rig(params);
        let cold = cache.read_extents(0, 1, &[(0, 4 * BLOCK)], SimTime::ZERO);
        let t1 = cold; // re-read after the fetch has landed
        let warm = cache.read_extents(0, 1, &[(0, 4 * BLOCK)], t1);
        assert!(
            warm - t1 < cold - SimTime::ZERO,
            "warm read {warm:?} from {t1:?} should beat cold {cold:?}"
        );
        let s = counters.snapshot();
        assert_eq!(s.misses, 4);
        assert_eq!(s.hits, 4);
    }

    #[test]
    fn write_behind_flush_daemon_drains_to_low_water() {
        let mut params = CacheParams::lru(8 * BLOCK)
            .with_block_bytes(BLOCK)
            .with_read_ahead(0);
        params.dirty_high_water = 0.5; // high = 4, low = 2
        let (mut sim, cache, counters) = rig(params);
        for b in 0..4u64 {
            cache.write_extents(0, 3, &[(b * BLOCK, BLOCK)], SimTime::ZERO);
        }
        assert_eq!(cache.dirty_blocks(0), 4);
        let s = counters.snapshot();
        assert_eq!(s.flush_wakeups, 1);
        assert_eq!(s.writes_absorbed, 4);
        sim.run(); // let the daemon drain
        let s = counters.snapshot();
        assert!(cache.dirty_blocks(0) <= 2, "drained to low water");
        assert!(s.flushed_blocks >= 2);
        // The daemon wrote back, it did not evict: blocks stay resident.
        assert_eq!(cache.resident_blocks(0), 4);
    }

    #[test]
    fn dirty_eviction_stalls_the_writer() {
        // Tiny cache, high water at capacity: evictions (not the
        // daemon) force writebacks, stalling the writer to disk speed.
        let mut params = CacheParams::lru(2 * BLOCK)
            .with_block_bytes(BLOCK)
            .with_read_ahead(0);
        params.dirty_high_water = 1.0;
        let (_sim, cache, counters) = rig(params);
        let fast = cache.write_extents(0, 5, &[(0, BLOCK)], SimTime::ZERO);
        cache.write_extents(0, 5, &[(BLOCK, BLOCK)], SimTime::ZERO);
        let stalled = cache.write_extents(0, 5, &[(2 * BLOCK, BLOCK)], SimTime::ZERO);
        assert!(
            stalled > fast + SimDuration::from_millis(1),
            "third write ({stalled:?}) must wait for a dirty writeback; \
             unforced write finished at {fast:?}"
        );
        let s = counters.snapshot();
        assert!(s.evictions >= 1);
        assert!(s.flushed_blocks >= 1);
    }

    #[test]
    fn sequential_reads_trigger_read_ahead_and_score_hits() {
        let params = CacheParams::lru(64 * BLOCK)
            .with_block_bytes(BLOCK)
            .with_read_ahead(2);
        let (_sim, cache, counters) = rig(params);
        let uid = 9;
        let t0 = SimTime::ZERO;
        cache.read_extents(0, uid, &[(0, BLOCK)], t0); // miss; first read is not "sequential"
        assert_eq!(counters.snapshot().readahead_issued, 0);
        cache.read_extents(0, uid, &[(BLOCK, BLOCK)], t0); // sequential: prefetch blocks 2, 3
        assert_eq!(counters.snapshot().readahead_issued, 2);
        assert!(cache.contains(0, uid, 2));
        assert!(cache.contains(0, uid, 3));
        // Arriving before the prefetch lands counts as a useful
        // read-ahead hit and waits for the in-flight fetch.
        let done = cache.read_extents(0, uid, &[(2 * BLOCK, BLOCK)], t0);
        let s = counters.snapshot();
        assert_eq!(s.readahead_hits, 1);
        assert_eq!(s.misses, 2);
        assert!(done > t0);
        // A prefetched block scores once: a second read of block 2 does
        // not count again, and block 3 counts after it has landed.
        cache.read_extents(0, uid, &[(2 * BLOCK, BLOCK)], done);
        assert_eq!(counters.snapshot().readahead_hits, 1);
        cache.read_extents(0, uid, &[(3 * BLOCK, BLOCK)], done);
        let s = counters.snapshot();
        assert_eq!(s.readahead_hits, 2);
        assert!(s.readahead_hits <= s.readahead_issued);
    }

    #[test]
    fn hits_on_an_in_flight_demand_fetch_are_not_read_ahead_hits() {
        let params = CacheParams::lru(64 * BLOCK)
            .with_block_bytes(BLOCK)
            .with_read_ahead(2);
        let (_sim, cache, counters) = rig(params);
        let t0 = SimTime::ZERO;
        let fetched = cache.read_extents(0, 4, &[(0, BLOCK)], t0);
        // A second demand read of the block while its demand fetch is
        // still in flight waits for it, but read-ahead did not bring it.
        let again = cache.read_extents(0, 4, &[(0, BLOCK)], t0);
        assert!(again >= fetched);
        let s = counters.snapshot();
        assert_eq!(s.hits, 1);
        assert_eq!(s.readahead_issued, 0);
        assert_eq!(s.readahead_hits, 0);
    }

    #[test]
    fn random_reads_do_not_prefetch() {
        let params = CacheParams::lru(64 * BLOCK)
            .with_block_bytes(BLOCK)
            .with_read_ahead(2);
        let (_sim, cache, counters) = rig(params);
        cache.read_extents(0, 2, &[(10 * BLOCK, BLOCK)], SimTime::ZERO);
        cache.read_extents(0, 2, &[(5 * BLOCK, BLOCK)], SimTime::ZERO);
        cache.read_extents(0, 2, &[(20 * BLOCK, BLOCK)], SimTime::ZERO);
        assert_eq!(counters.snapshot().readahead_issued, 0);
    }

    #[test]
    fn write_through_mode_keeps_blocks_clean_but_readable() {
        let params = CacheParams::lru(64 * BLOCK)
            .with_block_bytes(BLOCK)
            .with_read_ahead(0)
            .with_write_behind(false);
        let (_sim, cache, counters) = rig(params);
        let end = cache.write_extents(0, 4, &[(0, BLOCK)], SimTime::ZERO);
        assert!(
            end > SimTime::ZERO + SimDuration::from_millis(1),
            "paid the disk"
        );
        assert_eq!(cache.dirty_blocks(0), 0);
        assert_eq!(counters.snapshot().writes_absorbed, 0);
        cache.read_extents(0, 4, &[(0, BLOCK)], end);
        let s = counters.snapshot();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 0);
    }

    #[test]
    fn flush_file_writes_back_all_dirty_blocks() {
        let params = CacheParams::lru(64 * BLOCK)
            .with_block_bytes(BLOCK)
            .with_read_ahead(0);
        let (_sim, cache, counters) = rig(params);
        cache.write_extents(0, 6, &[(0, 2 * BLOCK)], SimTime::ZERO);
        assert_eq!(cache.dirty_blocks(0), 2);
        let t = SimTime::ZERO + SimDuration::from_secs(1);
        let done = cache.flush_file(6, t);
        assert!(done > t);
        assert_eq!(cache.dirty_blocks(0), 0);
        assert_eq!(counters.snapshot().flushed_blocks, 2);
        // Idempotent: nothing left to write.
        assert_eq!(cache.flush_file(6, done), done);
    }

    #[test]
    fn extent_list_reads_serve_in_one_pass() {
        let params = CacheParams::lru(64 * BLOCK)
            .with_block_bytes(BLOCK)
            .with_read_ahead(0);
        let (_sim, cache, counters) = rig(params);
        let req = [(0, 2 * BLOCK), (4 * BLOCK, BLOCK)];
        let cold = cache.read_extents(0, 11, &req, SimTime::ZERO);
        assert!(cold > SimTime::ZERO);
        let s = counters.snapshot();
        assert_eq!(s.misses, 3);
        assert_eq!(s.hits, 0);
        // Re-reading the same list hits entirely, at memory speed.
        let warm = cache.read_extents(0, 11, &req, cold);
        assert!(warm - cold < cold - SimTime::ZERO);
        assert_eq!(counters.snapshot().hits, 3);
    }

    #[test]
    fn extent_list_writes_count_shared_blocks_once() {
        let params = CacheParams::lru(64 * BLOCK)
            .with_block_bytes(BLOCK)
            .with_read_ahead(0);
        let (_sim, cache, counters) = rig(params);
        // Two extents inside the same cache block dirty it once.
        cache.write_extents(
            0,
            12,
            &[(0, BLOCK / 2), (BLOCK / 2, BLOCK / 2)],
            SimTime::ZERO,
        );
        assert_eq!(counters.snapshot().writes_absorbed, 1);
        assert_eq!(cache.dirty_blocks(0), 1);
    }

    #[test]
    fn miss_extents_coalesce() {
        let mut out = vec![Extent {
            first_block: 99,
            count: 1,
        }];
        BufferCache::coalesce(&[0, 1, 2, 5, 6, 9], &mut out);
        assert_eq!(
            out,
            vec![
                Extent {
                    first_block: 0,
                    count: 3
                },
                Extent {
                    first_block: 5,
                    count: 2
                },
                Extent {
                    first_block: 9,
                    count: 1
                },
            ]
        );
        BufferCache::coalesce(&[], &mut out);
        assert!(out.is_empty());
    }
}
