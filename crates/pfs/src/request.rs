//! The vectored list-I/O request descriptor.
//!
//! An [`IoRequest`] is the single I/O currency of the workspace: an
//! ordered list of `(offset, len)` extents in a file's global byte
//! space. The optimization runtime, the out-of-core array layer, and
//! the applications all describe noncontiguous accesses with one of
//! these and hand it to [`crate::FileHandle::readv`] /
//! [`crate::FileHandle::writev`], which decide — per interface — whether
//! the request is serviced as true list I/O (one call, coalesced
//! extents, one disk-queue booking per I/O node) or degenerates to the
//! historical per-fragment loop.
//!
//! Extent order is meaningful for the scatter-gather payload: `readv`
//! returns bytes concatenated in extent order and `writev` consumes its
//! buffer in extent order. Timing, by contrast, always works on the
//! sorted, coalesced view ([`IoRequest::coalesced`]).

/// A noncontiguous file request: an ordered list of `(offset, len)`
/// extents. Zero-length extents are dropped at construction (and by
/// [`IoRequest::push`]), so `fragments()` counts only real fragments.
///
/// Overlapping extents are legal and handled deterministically:
///
/// - **Timing** always uses [`IoRequest::coalesced`], which merges
///   overlapping (and adjacent) ranges, so overlapped bytes are charged
///   exactly once on the disk queues.
/// - **Payload** is scatter-gathered in extent-list order: `readv`
///   returns each fragment's bytes independently (overlapped bytes are
///   returned once per extent that covers them) and `writev` applies
///   fragments first to last, so on overlapped ranges the **last**
///   extent's bytes win.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IoRequest {
    extents: Vec<(u64, u64)>,
}

impl IoRequest {
    /// A single contiguous extent (empty request when `len == 0`).
    pub fn contiguous(offset: u64, len: u64) -> IoRequest {
        IoRequest::from_extents(vec![(offset, len)])
    }

    /// `count` fragments of `frag_len` bytes, the k-th at
    /// `start + k * stride`. The classic column-strip / strided-array
    /// pattern (stride ≥ frag_len gives disjoint fragments;
    /// stride == frag_len coalesces to one extent).
    pub fn strided(start: u64, frag_len: u64, stride: u64, count: u64) -> IoRequest {
        IoRequest::from_extents((0..count).map(|k| (start + k * stride, frag_len)).collect())
    }

    /// An arbitrary extent list, in scatter-gather order. Zero-length
    /// extents are filtered out; overlapping extents are kept verbatim
    /// (see the type-level docs for their deterministic semantics).
    pub fn from_extents(extents: Vec<(u64, u64)>) -> IoRequest {
        IoRequest {
            extents: extents.into_iter().filter(|&(_, len)| len > 0).collect(),
        }
    }

    /// Append one extent (ignored when `len == 0`).
    pub fn push(&mut self, offset: u64, len: u64) {
        if len > 0 {
            self.extents.push((offset, len));
        }
    }

    /// The extents in scatter-gather order.
    pub fn extents(&self) -> &[(u64, u64)] {
        &self.extents
    }

    /// Number of fragments.
    pub fn fragments(&self) -> usize {
        self.extents.len()
    }

    /// Whether the request carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.extents.is_empty()
    }

    /// Sum of fragment lengths (the payload size of `readv`/`writev`).
    pub fn total_bytes(&self) -> u64 {
        self.extents.iter().map(|&(_, len)| len).sum()
    }

    /// One past the last byte touched (0 for an empty request).
    pub fn end(&self) -> u64 {
        self.extents
            .iter()
            .map(|&(off, len)| off + len)
            .max()
            .unwrap_or(0)
    }

    /// The timing view: extents sorted by offset with adjacent and
    /// overlapping ranges merged. This is what the list-I/O service
    /// path splits per I/O node and books on the disk queues.
    pub fn coalesced(&self) -> Vec<(u64, u64)> {
        let mut sorted = self.extents.clone();
        sorted.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(sorted.len());
        for (off, len) in sorted {
            match merged.last_mut() {
                Some((moff, mlen)) if off <= *moff + *mlen => {
                    *mlen = (*mlen).max(off + len - *moff);
                }
                _ => merged.push((off, len)),
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_is_one_extent() {
        let r = IoRequest::contiguous(100, 50);
        assert_eq!(r.extents(), &[(100, 50)]);
        assert_eq!(r.fragments(), 1);
        assert_eq!(r.total_bytes(), 50);
        assert_eq!(r.end(), 150);
        assert!(!r.is_empty());
        assert!(IoRequest::contiguous(100, 0).is_empty());
    }

    #[test]
    fn strided_lays_out_fragments() {
        let r = IoRequest::strided(10, 4, 16, 3);
        assert_eq!(r.extents(), &[(10, 4), (26, 4), (42, 4)]);
        assert_eq!(r.total_bytes(), 12);
        // stride == frag_len: fragments are adjacent, coalesce to one.
        let dense = IoRequest::strided(0, 8, 8, 4);
        assert_eq!(dense.fragments(), 4);
        assert_eq!(dense.coalesced(), vec![(0, 32)]);
    }

    #[test]
    fn coalesced_merges_adjacent_overlapping_and_reorders() {
        let r = IoRequest::from_extents(vec![(40, 10), (0, 10), (10, 5), (45, 10), (100, 1)]);
        assert_eq!(r.coalesced(), vec![(0, 15), (40, 15), (100, 1)]);
        // Containment: a small extent inside a big one disappears.
        let c = IoRequest::from_extents(vec![(0, 100), (10, 5)]);
        assert_eq!(c.coalesced(), vec![(0, 100)]);
        assert!(IoRequest::default().coalesced().is_empty());
    }

    #[test]
    fn push_skips_empty_fragments() {
        let mut r = IoRequest::default();
        r.push(5, 0);
        r.push(5, 3);
        assert_eq!(r.extents(), &[(5, 3)]);
    }

    #[test]
    fn constructors_filter_zero_length_extents() {
        let r = IoRequest::from_extents(vec![(0, 0), (10, 4), (20, 0), (30, 2), (40, 0)]);
        assert_eq!(r.extents(), &[(10, 4), (30, 2)]);
        assert_eq!(r.fragments(), 2);
        // Zero-length fragments of a strided pattern vanish entirely.
        assert!(IoRequest::strided(0, 0, 16, 8).is_empty());
        // An all-empty list has a well-defined end.
        assert_eq!(IoRequest::from_extents(vec![(100, 0)]).end(), 0);
    }

    #[test]
    fn overlapping_extents_are_kept_but_charged_once() {
        // Identical, contained, and partially overlapping fragments all
        // survive in scatter-gather order...
        let r = IoRequest::from_extents(vec![(0, 10), (0, 10), (4, 2), (8, 6)]);
        assert_eq!(r.extents(), &[(0, 10), (0, 10), (4, 2), (8, 6)]);
        // ...and the payload size counts every fragment...
        assert_eq!(r.total_bytes(), 28);
        // ...but the timing view merges the overlaps to one range, so
        // the disk queues are charged for 14 distinct bytes.
        assert_eq!(r.coalesced(), vec![(0, 14)]);
        assert_eq!(r.end(), 14);
    }

    #[test]
    fn coalescing_overlaps_is_order_independent() {
        let fwd = IoRequest::from_extents(vec![(0, 8), (4, 8), (12, 4)]);
        let rev = IoRequest::from_extents(vec![(12, 4), (4, 8), (0, 8)]);
        assert_eq!(fwd.coalesced(), rev.coalesced());
        assert_eq!(fwd.coalesced(), vec![(0, 16)]);
    }
}
