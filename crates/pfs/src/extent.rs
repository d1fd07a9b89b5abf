//! Extent storage for stored files: the zero-copy backing store.
//!
//! A stored file's content is a set of non-overlapping extents keyed by
//! file offset, each an [`Bytes`] view into a shared buffer. A write
//! **adopts** the incoming segments — the application's buffer becomes
//! the file's backing store, no memcpy — trimming any overlapped older
//! extents with O(1) slices. A read assembles the requested range as a
//! rope of shared views, filling holes (never-written gaps and
//! `preallocate`d tails) from a shared zero page.
//!
//! Adjacent extents are deliberately **not** merged: merging would copy,
//! and the simulator's timing engine never looks at extents — virtual
//! time depends only on (offset, length) geometry, which is unchanged.
//!
//! # Layout (DESIGN.md §19)
//!
//! The extents live in a **flat arena**: a sorted `Vec<(start, u32)>`
//! index into a slab of `Bytes` slots. Lookup is a binary search over the
//! contiguous index — no pointer chasing through `BTreeMap` nodes — and
//! because file I/O is overwhelmingly sequential, a one-entry **cursor
//! cache** remembers the last lookup's position: when the next operation
//! lands at or just after it (the sequential case), the bound check
//! answers in O(1) and the binary search is skipped entirely. The cursor
//! is an optimization only — every operation computes the same partition
//! point it would have without it, so contents are position-independent.

use std::cell::Cell;

use iosim_buf::{zeros, Bytes, BytesList};

/// Non-overlapping byte extents of one stored file.
///
/// Equality compares logical contents (offset → bytes), not arena slot
/// assignment or cursor position.
#[derive(Clone, Debug, Default)]
pub struct ExtentTree {
    /// `(start offset, arena slot)`, sorted by start.
    index: Vec<(u64, u32)>,
    /// Slab of extent payloads; `index` entries point into it.
    arena: Vec<Option<Bytes>>,
    /// Vacated arena slots available for reuse.
    free: Vec<u32>,
    /// Last lookup's partition point — the sequential-access fast path.
    cursor: Cell<usize>,
}

impl PartialEq for ExtentTree {
    fn eq(&self, other: &Self) -> bool {
        self.index.len() == other.index.len()
            && self
                .index
                .iter()
                .zip(other.index.iter())
                .all(|(&(s, a), &(t, b))| {
                    s == t && self.arena[a as usize] == other.arena[b as usize]
                })
    }
}
impl Eq for ExtentTree {}

impl ExtentTree {
    /// An empty tree.
    pub fn new() -> ExtentTree {
        ExtentTree::default()
    }

    /// Number of extents currently held (diagnostics).
    pub fn extent_count(&self) -> usize {
        self.index.len()
    }

    /// Payload of the index entry at `pos`.
    #[inline]
    fn payload(&self, pos: usize) -> &Bytes {
        self.arena[self.index[pos].1 as usize]
            .as_ref()
            .expect("indexed slot is live")
    }

    /// Store `b` in a vacant arena slot and return the slot number.
    fn alloc(&mut self, b: Bytes) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.arena[slot as usize] = Some(b);
                slot
            }
            None => {
                self.arena.push(Some(b));
                (self.arena.len() - 1) as u32
            }
        }
    }

    /// Partition point of `offset` in the index: the position of the
    /// first entry with `start >= offset`. Tries the cursor (and the slot
    /// right after it, the sequential-advance case) before falling back
    /// to a binary search; either way the result is the exact partition
    /// point, so the cursor never changes behavior, only cost.
    fn lower_bound(&self, offset: u64) -> usize {
        let n = self.index.len();
        let at = |p: usize| -> bool {
            (p == 0 || self.index[p - 1].0 < offset) && (p == n || self.index[p].0 >= offset)
        };
        let c = self.cursor.get().min(n);
        if at(c) {
            return c;
        }
        if c < n && at(c + 1) {
            return c + 1;
        }
        self.index.partition_point(|&(s, _)| s < offset)
    }

    /// Store `data` at `offset`, adopting the buffer without copying.
    /// Overlapped parts of existing extents are trimmed away (O(1)
    /// slices of their shared backing).
    pub fn write(&mut self, offset: u64, data: Bytes) {
        if data.is_empty() {
            return;
        }
        let end = offset + data.len() as u64;
        let p = self.lower_bound(offset);
        // An older extent overhanging the new range from the left is
        // split: its prefix survives (trimmed in place, same start key),
        // and — if it outlives the new range on the right too — so does
        // its suffix, re-keyed at `end`.
        let mut right_suffix: Option<Bytes> = None;
        if p > 0 {
            let (s, slot) = self.index[p - 1];
            let e = self.arena[slot as usize].as_ref().expect("live slot");
            let e_end = s + e.len() as u64;
            if e_end > offset {
                let prefix = e.slice(0, (offset - s) as usize);
                if e_end > end {
                    right_suffix = Some(e.slice((end - s) as usize, (e_end - end) as usize));
                }
                self.arena[slot as usize] = Some(prefix);
            }
        }
        // Entries starting inside the new range lose their overlapped
        // prefix; a suffix outliving the range is re-keyed at `end`.
        // (A left overhang past `end` covers all of `[offset, end)`, so
        // the two suffix sources are mutually exclusive by the
        // non-overlap invariant.)
        let mut q = p;
        while q < self.index.len() && self.index[q].0 < end {
            let (s, slot) = self.index[q];
            let e = self.arena[slot as usize].take().expect("live slot");
            self.free.push(slot);
            let e_end = s + e.len() as u64;
            if e_end > end {
                debug_assert!(right_suffix.is_none(), "non-overlap invariant");
                right_suffix = Some(e.slice((end - s) as usize, (e_end - end) as usize));
            }
            q += 1;
        }
        // Splice the removed span `[p, q)` into the new entry (plus the
        // surviving suffix): one contiguous memmove of the index tail.
        let new_slot = self.alloc(data);
        let suffix_entry = right_suffix.map(|b| (end, self.alloc(b)));
        let replacement = [(offset, new_slot)].into_iter().chain(suffix_entry);
        self.index.splice(p..q, replacement);
        // A sequential writer continues at `end`, whose partition point
        // is right after the entry just written.
        self.cursor.set(p + 1);
    }

    /// Store a rope at `offset`: each segment becomes (or trims into)
    /// its own extent, still without copying.
    pub fn write_list(&mut self, offset: u64, data: &BytesList) {
        let mut at = offset;
        for seg in data.segments() {
            let len = seg.len() as u64;
            self.write(at, seg.clone());
            at += len;
        }
    }

    /// Assemble `[offset, offset + len)` as a rope of shared views,
    /// zero-filling any holes. Never copies stored bytes.
    pub fn read(&self, offset: u64, len: u64) -> BytesList {
        let end = offset + len;
        let mut out = BytesList::new();
        if len == 0 {
            return out;
        }
        let p = self.lower_bound(offset);
        let mut cursor = offset;
        // An extent straddling `offset` from the left contributes first.
        if p > 0 {
            let (s, _) = self.index[p - 1];
            let e = self.payload(p - 1);
            let e_end = s + e.len() as u64;
            if e_end > offset {
                let take = e_end.min(end) - offset;
                out.push(e.slice((offset - s) as usize, take as usize));
                cursor += take;
            }
        }
        let mut q = p;
        while q < self.index.len() && self.index[q].0 < end {
            let (s, _) = self.index[q];
            let e = self.payload(q);
            if s > cursor {
                out.append(zeros(s - cursor));
            }
            let take = (s + e.len() as u64).min(end) - s;
            out.push(e.slice(0, take as usize));
            cursor = s + take;
            q += 1;
        }
        if cursor < end {
            out.append(zeros(end - cursor));
        }
        // A sequential reader continues at `end`, whose partition point
        // is the scan's stopping position.
        self.cursor.set(q);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_buf::tally;

    fn bytes(v: Vec<u8>) -> Bytes {
        Bytes::from_vec(v)
    }

    #[test]
    fn writes_adopt_buffers_and_reads_share_them() {
        let mut t = ExtentTree::new();
        let payload: Vec<u8> = (0..100u8).collect();
        t.write(50, bytes(payload.clone()));
        tally::reset();
        let got = t.read(50, 100);
        assert_eq!(got, payload);
        // Reading shares the stored extent: no allocation, no copy.
        assert_eq!(tally::snapshot(), tally::DataPlaneTally::default());
    }

    #[test]
    fn holes_read_as_zeros() {
        let mut t = ExtentTree::new();
        t.write(10, bytes(vec![7; 5]));
        t.write(25, bytes(vec![9; 5]));
        let got = t.read(0, 40).to_vec();
        let mut want = vec![0u8; 40];
        want[10..15].fill(7);
        want[25..30].fill(9);
        assert_eq!(got, want);
    }

    #[test]
    fn overlapping_write_trims_older_extents() {
        let mut t = ExtentTree::new();
        t.write(0, bytes((0..30u8).collect()));
        // Overwrite the middle; prefix and suffix of the old extent
        // survive as trimmed views.
        t.write(10, bytes(vec![255; 10]));
        assert_eq!(t.extent_count(), 3);
        let got = t.read(0, 30).to_vec();
        let mut want: Vec<u8> = (0..30u8).collect();
        want[10..20].fill(255);
        assert_eq!(got, want);
        // Overwrite spanning several extents collapses them.
        t.write(5, bytes(vec![1; 20]));
        assert_eq!(t.read(0, 30).to_vec()[5..25], [1u8; 20]);
    }

    #[test]
    fn exact_overwrite_replaces_in_place() {
        let mut t = ExtentTree::new();
        t.write(0, bytes(vec![1; 16]));
        t.write(0, bytes(vec![2; 16]));
        assert_eq!(t.extent_count(), 1);
        assert_eq!(t.read(0, 16), vec![2u8; 16]);
    }

    #[test]
    fn straddling_read_clips_to_range() {
        let mut t = ExtentTree::new();
        t.write(0, bytes((0..50u8).collect()));
        let got = t.read(20, 10);
        assert_eq!(got, (20..30u8).collect::<Vec<_>>());
        assert_eq!(got.segments().len(), 1);
    }

    #[test]
    fn sequential_stream_hits_the_cursor() {
        // After each op of a sequential stream the cursor sits on the
        // next op's partition point (`i + 1`), so every lookup but the
        // two stream starts is answered without a binary search.
        let mut t = ExtentTree::new();
        for i in 0..64u64 {
            t.write(i * 512, bytes(vec![i as u8; 512]));
            assert_eq!(t.cursor.get(), i as usize + 1, "after write {i}");
        }
        for i in 0..64u64 {
            assert_eq!(t.read(i * 512, 512), vec![i as u8; 512]);
            assert_eq!(t.cursor.get(), i as usize + 1, "after read {i}");
        }
    }

    #[test]
    fn equality_ignores_arena_layout() {
        // Same logical contents reached through different write orders
        // (hence different slot assignments and cursor positions).
        let mut a = ExtentTree::new();
        a.write(0, bytes(vec![1; 8]));
        a.write(8, bytes(vec![2; 8]));
        let mut b = ExtentTree::new();
        b.write(8, bytes(vec![2; 8]));
        b.write(0, bytes(vec![1; 8]));
        assert_eq!(a, b);
        b.write(4, bytes(vec![3; 2]));
        assert_ne!(a, b);
    }

    #[test]
    fn random_writes_match_byte_mirror() {
        use iosim_simkit::rng::SimRng;
        let mut rng = SimRng::seed_from(0xeea7_5eed);
        let mut t = ExtentTree::new();
        let mut mirror = vec![0u8; 4096];
        for _ in 0..500 {
            let off = rng.range(0, 4000);
            let len = rng.range(1, 96) as usize;
            let fill = rng.range(0, 256) as u8;
            t.write(off, bytes(vec![fill; len]));
            mirror[off as usize..off as usize + len].fill(fill);
        }
        assert_eq!(t.read(0, 4096).to_vec(), mirror);
        // Spot-check sub-ranges (exercises straddlers and clipping).
        for _ in 0..200 {
            let off = rng.range(0, 4000);
            let len = rng.range(0, 96);
            assert_eq!(
                t.read(off, len).to_vec(),
                mirror[off as usize..(off + len) as usize]
            );
        }
    }
}
