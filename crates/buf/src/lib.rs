//! Zero-copy shared byte buffers: the data currency of the simulator.
//!
//! The simulated optimizations (two-phase collective I/O, PASSION list
//! I/O, sieving) exist to avoid redundant data movement — the host-side
//! hot path should practice the same discipline. [`Bytes`] is a cheaply
//! clonable view into a reference-counted buffer (an `Rc<Vec<u8>>` with
//! offset and length, so [`Bytes::from_vec`] adopts the caller's
//! allocation without a memcpy) with O(1) [`Bytes::slice`]; [`BytesList`]
//! is a small rope of such views so concatenation (message encode, run
//! merging, vectored writes) is O(segments) instead of O(bytes).
//! [`Payload`] carries either such a rope or only a length, for messages
//! and file operations alike.
//!
//! Every operation that really allocates or memcpys data-plane bytes
//! ticks a thread-local [`tally`]: the benchmark reports it per job as
//! `buf.*`, and `tests/dataplane_equivalence.rs` bounds it per
//! application. The simulation is single-threaded per `Sim`, so a
//! thread-local is exact, not approximate.
//!
//! No external dependencies; the workspace builds offline.

use std::rc::Rc;

/// Thread-local counters for data-plane buffer traffic.
pub mod tally {
    use std::cell::Cell;

    /// A snapshot of the data-plane counters.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct DataPlaneTally {
        /// Bytes of fresh backing store allocated for data buffers.
        pub bytes_allocated: u64,
        /// Bytes memcpy'd between buffers (slicing and cloning are free).
        pub bytes_copied: u64,
        /// Number of backing buffers allocated.
        pub buffers_allocated: u64,
    }

    thread_local! {
        static TALLY: Cell<DataPlaneTally> = const { Cell::new(DataPlaneTally {
            bytes_allocated: 0,
            bytes_copied: 0,
            buffers_allocated: 0,
        }) };
    }

    /// Reset the counters to zero (call before a measured region).
    pub fn reset() {
        TALLY.with(|t| t.set(DataPlaneTally::default()));
    }

    /// Read the counters accumulated since the last [`reset`].
    pub fn snapshot() -> DataPlaneTally {
        TALLY.with(|t| t.get())
    }

    /// Record a fresh buffer allocation of `n` bytes.
    pub fn count_alloc(n: u64) {
        TALLY.with(|t| {
            let mut v = t.get();
            v.bytes_allocated += n;
            v.buffers_allocated += 1;
            t.set(v);
        });
    }

    /// Record a host memcpy of `n` data-plane bytes.
    pub fn count_copy(n: u64) {
        TALLY.with(|t| {
            let mut v = t.get();
            v.bytes_copied += n;
            t.set(v);
        });
    }
}

thread_local! {
    /// Shared empty backing buffer so `Bytes::new()` never allocates.
    static EMPTY: Rc<Vec<u8>> = Rc::new(Vec::new());
    /// Shared zero page backing [`zeros`] (allocated once per thread).
    static ZERO_PAGE: Rc<Vec<u8>> = Rc::new(vec![0u8; ZERO_PAGE_LEN]);
}

const ZERO_PAGE_LEN: usize = 256 << 10;

/// A rope of `len` zero bytes, built from views of one shared per-thread
/// zero page: no allocation and no copy, however large (gap fills in
/// sparse file reads).
pub fn zeros(len: u64) -> BytesList {
    let mut out = BytesList::new();
    if len == 0 {
        return out;
    }
    let page = ZERO_PAGE.with(Rc::clone);
    let mut left = len;
    while left > 0 {
        let take = left.min(ZERO_PAGE_LEN as u64) as usize;
        out.push(Bytes {
            buf: Rc::clone(&page),
            off: 0,
            len: take,
        });
        left -= take as u64;
    }
    out
}

/// An immutable, cheaply clonable view into a shared byte buffer.
///
/// Cloning and [`slice`](Bytes::slice) are O(1) and never copy;
/// [`to_vec`](Bytes::to_vec) and multi-segment
/// [`BytesList::flatten`] are the only ways bytes leave the shared
/// store, and both tick the [`tally`].
#[derive(Clone)]
pub struct Bytes {
    buf: Rc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub fn new() -> Bytes {
        Bytes {
            buf: EMPTY.with(Rc::clone),
            off: 0,
            len: 0,
        }
    }

    /// Adopt a `Vec` as a shared buffer — no memcpy, the vector's own
    /// allocation becomes the backing store (counted as an allocation:
    /// the buffer enters the data plane here).
    pub fn from_vec(v: Vec<u8>) -> Bytes {
        if v.is_empty() {
            return Bytes::new();
        }
        let len = v.len();
        tally::count_alloc(len as u64);
        Bytes {
            buf: Rc::new(v),
            off: 0,
            len,
        }
    }

    /// Copy a slice into a fresh shared buffer.
    pub fn copy_from_slice(s: &[u8]) -> Bytes {
        if s.is_empty() {
            return Bytes::new();
        }
        tally::count_alloc(s.len() as u64);
        tally::count_copy(s.len() as u64);
        Bytes {
            buf: Rc::new(s.to_vec()),
            off: 0,
            len: s.len(),
        }
    }

    /// A zero-filled buffer of `len` bytes (allocation, no copy).
    pub fn zeroed(len: usize) -> Bytes {
        if len == 0 {
            return Bytes::new();
        }
        tally::count_alloc(len as u64);
        Bytes {
            buf: Rc::new(vec![0u8; len]),
            off: 0,
            len,
        }
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// O(1) sub-view `[off, off + len)` sharing the same backing buffer.
    ///
    /// # Panics
    /// Panics if the range falls outside the view.
    pub fn slice(&self, off: usize, len: usize) -> Bytes {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= self.len),
            "slice [{off}, {off}+{len}) outside buffer of {} bytes",
            self.len
        );
        Bytes {
            buf: Rc::clone(&self.buf),
            off: self.off + off,
            len,
        }
    }

    /// The viewed bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.off..self.off + self.len]
    }

    /// Copy the viewed bytes out into an owned `Vec` (counted).
    pub fn to_vec(&self) -> Vec<u8> {
        tally::count_alloc(self.len as u64);
        tally::count_copy(self.len as u64);
        self.as_slice().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes @{})", self.len, self.off)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::from_vec(v)
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl From<&Vec<u8>> for Bytes {
    fn from(v: &Vec<u8>) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(a: &[u8; N]) -> Bytes {
        Bytes::copy_from_slice(a)
    }
}

impl<const N: usize> TryFrom<Bytes> for [u8; N] {
    type Error = std::array::TryFromSliceError;
    fn try_from(b: Bytes) -> Result<[u8; N], Self::Error> {
        <[u8; N]>::try_from(b.as_slice())
    }
}

/// A rope of [`Bytes`] segments: logical concatenation without copying.
///
/// Pushing, appending, and [`slice`](BytesList::slice) never move bytes;
/// [`flatten`](BytesList::flatten) copies only when the rope holds more
/// than one segment. Most ropes (a message payload, a slice of one
/// buffer) hold a single segment, which is stored inline: building,
/// cloning and slicing such a rope touches no heap.
#[derive(Clone, Default)]
pub struct BytesList {
    segs: Segs,
    len: u64,
}

/// Segment storage of a [`BytesList`]; `Many` always holds two or more.
#[derive(Clone, Default)]
enum Segs {
    #[default]
    Empty,
    One(Bytes),
    Many(Vec<Bytes>),
}

impl Segs {
    fn as_slice(&self) -> &[Bytes] {
        match self {
            Segs::Empty => &[],
            Segs::One(b) => std::slice::from_ref(b),
            Segs::Many(v) => v,
        }
    }

    fn push(&mut self, b: Bytes) {
        match self {
            Segs::Empty => *self = Segs::One(b),
            Segs::One(_) => {
                let Segs::One(first) = std::mem::take(self) else {
                    unreachable!("matched One")
                };
                let mut segs = Vec::with_capacity(4);
                segs.extend([first, b]);
                *self = Segs::Many(segs);
            }
            Segs::Many(v) => v.push(b),
        }
    }
}

impl BytesList {
    /// An empty rope.
    pub fn new() -> BytesList {
        BytesList::default()
    }

    /// Total logical length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the rope is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The underlying segments (empty segments are never stored).
    pub fn segments(&self) -> &[Bytes] {
        self.segs.as_slice()
    }

    /// Append a segment (O(1), no copy).
    pub fn push(&mut self, b: Bytes) {
        if !b.is_empty() {
            self.len += b.len() as u64;
            self.segs.push(b);
        }
    }

    /// Append all of `other`'s segments (O(segments), no copy).
    pub fn append(&mut self, other: BytesList) {
        self.len += other.len;
        match other.segs {
            Segs::Empty => {}
            Segs::One(b) => self.segs.push(b),
            Segs::Many(v) if matches!(self.segs, Segs::Empty) => self.segs = Segs::Many(v),
            Segs::Many(v) => v.into_iter().for_each(|b| self.segs.push(b)),
        }
    }

    /// Logical sub-range `[off, off + len)` as a new rope, sharing the
    /// same backing buffers.
    ///
    /// # Panics
    /// Panics if the range falls outside the rope.
    pub fn slice(&self, off: u64, len: u64) -> BytesList {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= self.len),
            "slice [{off}, {off}+{len}) outside rope of {} bytes",
            self.len
        );
        let mut out = BytesList::new();
        let (mut skip, mut want) = (off, len);
        for seg in self.segments() {
            if want == 0 {
                break;
            }
            let sl = seg.len() as u64;
            if skip >= sl {
                skip -= sl;
                continue;
            }
            let take = (sl - skip).min(want);
            out.push(seg.slice(skip as usize, take as usize));
            skip = 0;
            want -= take;
        }
        out
    }

    /// The little-endian `u64` at logical offset `off`, read in place
    /// across segment boundaries (message headers): no allocation, and
    /// like reading through a slice it is not a data-plane copy.
    ///
    /// # Panics
    /// Panics if the eight bytes fall outside the rope.
    pub fn read_u64_le(&self, off: u64) -> u64 {
        assert!(
            off.checked_add(8).is_some_and(|end| end <= self.len),
            "u64 at {off} outside rope of {} bytes",
            self.len
        );
        let mut word = [0u8; 8];
        let mut filled = 0usize;
        let mut skip = off;
        for seg in self.segments() {
            let sl = seg.len() as u64;
            if skip >= sl {
                skip -= sl;
                continue;
            }
            let from = &seg[skip as usize..];
            let take = from.len().min(8 - filled);
            word[filled..filled + take].copy_from_slice(&from[..take]);
            filled += take;
            if filled == 8 {
                break;
            }
            skip = 0;
        }
        u64::from_le_bytes(word)
    }

    /// Collapse the rope into a single contiguous [`Bytes`]. O(1) when
    /// the rope holds zero or one segment; otherwise one allocation and
    /// one copy of the whole length (counted).
    pub fn flatten(&self) -> Bytes {
        match &self.segs {
            Segs::Empty => Bytes::new(),
            Segs::One(b) => b.clone(),
            Segs::Many(segs) => {
                tally::count_alloc(self.len);
                tally::count_copy(self.len);
                let mut v = Vec::with_capacity(self.len as usize);
                for seg in segs {
                    v.extend_from_slice(seg);
                }
                Bytes {
                    len: v.len(),
                    buf: Rc::new(v),
                    off: 0,
                }
            }
        }
    }

    /// Copy the logical bytes out into an owned `Vec` (counted).
    pub fn to_vec(&self) -> Vec<u8> {
        tally::count_alloc(self.len);
        tally::count_copy(self.len);
        let mut v = Vec::with_capacity(self.len as usize);
        for seg in self.segments() {
            v.extend_from_slice(seg);
        }
        v
    }

    /// Iterate over the logical bytes (for tests and verification).
    pub fn iter_bytes(&self) -> impl Iterator<Item = u8> + '_ {
        self.segments().iter().flat_map(|s| s.iter().copied())
    }
}

impl std::fmt::Debug for BytesList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BytesList({} bytes, {} segs)",
            self.len,
            self.segments().len()
        )
    }
}

impl PartialEq for BytesList {
    fn eq(&self, other: &BytesList) -> bool {
        self.len == other.len && self.iter_bytes().eq(other.iter_bytes())
    }
}

impl Eq for BytesList {}

impl PartialEq<[u8]> for BytesList {
    fn eq(&self, other: &[u8]) -> bool {
        self.len == other.len() as u64 && self.iter_bytes().eq(other.iter().copied())
    }
}

impl PartialEq<Vec<u8>> for BytesList {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self == other.as_slice()
    }
}

impl From<Bytes> for BytesList {
    fn from(b: Bytes) -> BytesList {
        let mut l = BytesList::new();
        l.push(b);
        l
    }
}

impl From<Vec<u8>> for BytesList {
    fn from(v: Vec<u8>) -> BytesList {
        BytesList::from(Bytes::from_vec(v))
    }
}

impl From<&[u8]> for BytesList {
    fn from(s: &[u8]) -> BytesList {
        BytesList::from(Bytes::copy_from_slice(s))
    }
}

impl From<&Vec<u8>> for BytesList {
    fn from(v: &Vec<u8>) -> BytesList {
        BytesList::from(Bytes::copy_from_slice(v))
    }
}

impl<const N: usize> From<&[u8; N]> for BytesList {
    fn from(a: &[u8; N]) -> BytesList {
        BytesList::from(Bytes::copy_from_slice(a))
    }
}

/// Data that is either real bytes or only a length: the one currency of
/// messages and file operations.
///
/// Real bytes travel as a [`BytesList`] rope of shared buffers, so
/// building a message from fragments (two-phase encode, run merging),
/// cloning a payload per destination (collectives) and reading a stored
/// file's extents never copy data — only [`Payload::into_bytes`] /
/// [`Payload::to_bytes`] on a multi-segment rope materialize contiguous
/// storage. A synthetic payload (`data: None`) carries the length alone:
/// it costs the same virtual time and moves no byte, which is how the
/// paper-scale workloads run. A read of a synthetic file returns one; a
/// write of one to a stored file grows the file without storing bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Payload {
    /// Length in bytes (always meaningful for timing).
    pub len: u64,
    /// The bytes, when carried.
    pub data: Option<BytesList>,
}

impl Payload {
    /// A payload carrying real bytes (accepts `Vec<u8>`, `Bytes`, or a
    /// prebuilt rope).
    pub fn bytes(data: impl Into<BytesList>) -> Payload {
        let data = data.into();
        Payload {
            len: data.len(),
            data: Some(data),
        }
    }

    /// A timing-only payload of `len` bytes.
    pub fn synthetic(len: u64) -> Payload {
        Payload { len, data: None }
    }

    /// An empty payload (control message).
    pub fn empty() -> Payload {
        Payload::bytes(BytesList::new())
    }

    /// The sub-range `[off, off + len)`: a shared view of the carried
    /// bytes, or a synthetic payload of `len` bytes (no copy either way).
    ///
    /// # Panics
    /// Panics if the range falls outside the payload.
    pub fn slice(&self, off: u64, len: u64) -> Payload {
        match &self.data {
            Some(d) => Payload::bytes(d.slice(off, len)),
            None => {
                assert!(
                    off.checked_add(len).is_some_and(|end| end <= self.len),
                    "slice [{off}, {off}+{len}) outside payload of {} bytes",
                    self.len
                );
                Payload::synthetic(len)
            }
        }
    }

    /// Replace the carried bytes with `f(bytes)`, keeping a synthetic
    /// payload synthetic (a transform of data that is not there costs no
    /// host work; its length is kept).
    pub fn map<T: Into<BytesList>>(self, f: impl FnOnce(BytesList) -> T) -> Payload {
        match self.data {
            Some(d) => Payload::bytes(f(d)),
            None => self,
        }
    }

    /// The carried bytes as one contiguous buffer. Header-only messages
    /// (`data: None`) yield an empty buffer — callers that need to
    /// distinguish "no data" from "empty data" check `data` directly.
    pub fn into_bytes(self) -> Bytes {
        self.data.map(|d| d.flatten()).unwrap_or_default()
    }

    /// Like [`Payload::into_bytes`], without consuming the payload.
    pub fn to_bytes(&self) -> Bytes {
        self.data.as_ref().map(|d| d.flatten()).unwrap_or_default()
    }
}

/// Anything that converts into a rope converts into a payload carrying
/// it (a blanket impl would overlap `From<Payload> for Payload`).
macro_rules! payload_from_bytes {
    ($($t:ty),*) => {$(
        impl From<$t> for Payload {
            fn from(d: $t) -> Payload {
                Payload::bytes(d)
            }
        }
    )*};
}

payload_from_bytes!(BytesList, Bytes, Vec<u8>, &Vec<u8>, &[u8]);

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(a: &[u8; N]) -> Payload {
        Payload::bytes(a)
    }
}

/// FNV-1a over a byte stream: the oracle hash used by the stored-bytes
/// equivalence tests (stable, dependency-free).
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_and_clone_share_storage_without_copying() {
        tally::reset();
        let b = Bytes::from_vec((0..100u8).collect());
        let t0 = tally::snapshot();
        assert_eq!(t0.bytes_allocated, 100);
        // Adopting a Vec moves the allocation — no memcpy.
        assert_eq!(t0.bytes_copied, 0);
        assert_eq!(t0.buffers_allocated, 1);
        let s = b.slice(10, 20);
        let c = s.clone();
        assert_eq!(&c[..], &(10..30u8).collect::<Vec<_>>()[..]);
        // No new allocations or copies from slicing/cloning.
        assert_eq!(tally::snapshot(), t0);
    }

    #[test]
    fn empty_buffers_are_free() {
        tally::reset();
        let b = Bytes::new();
        let v = Bytes::from_vec(Vec::new());
        let z = Bytes::zeroed(0);
        assert!(b.is_empty() && v.is_empty() && z.is_empty());
        assert_eq!(tally::snapshot(), tally::DataPlaneTally::default());
    }

    #[test]
    #[should_panic(expected = "outside buffer")]
    fn out_of_range_slice_panics() {
        let b = Bytes::from_vec(vec![1, 2, 3]);
        let _ = b.slice(2, 2);
    }

    #[test]
    fn equality_against_slices_and_vecs() {
        let b = Bytes::from_vec(vec![1, 2, 3]);
        assert_eq!(b, vec![1, 2, 3]);
        assert_eq!(vec![1, 2, 3], b);
        assert_eq!(b, [1u8, 2, 3][..]);
        assert_eq!(b.slice(1, 1), vec![2]);
        let arr: [u8; 3] = b.try_into().expect("3 bytes");
        assert_eq!(arr, [1, 2, 3]);
    }

    #[test]
    fn rope_slices_across_segment_boundaries() {
        let mut l = BytesList::new();
        l.push(Bytes::from_vec(vec![0, 1, 2, 3]));
        l.push(Bytes::new()); // dropped
        l.push(Bytes::from_vec(vec![4, 5]));
        l.push(Bytes::from_vec(vec![6, 7, 8]));
        assert_eq!(l.len(), 9);
        assert_eq!(l.segments().len(), 3);
        let s = l.slice(3, 4);
        assert_eq!(s, vec![3, 4, 5, 6]);
        assert_eq!(s.segments().len(), 3);
        assert_eq!(l.slice(0, 0), BytesList::new());
        assert_eq!(l.slice(9, 0).len(), 0);
    }

    #[test]
    fn flatten_is_free_for_single_segments() {
        let mut l = BytesList::from(Bytes::from_vec(vec![9, 8, 7]));
        tally::reset();
        let f = l.flatten();
        assert_eq!(f, vec![9, 8, 7]);
        assert_eq!(tally::snapshot(), tally::DataPlaneTally::default());
        // Multi-segment flatten copies exactly the logical length.
        l.push(Bytes::from_vec(vec![6]));
        tally::reset();
        assert_eq!(l.flatten(), vec![9, 8, 7, 6]);
        let t = tally::snapshot();
        assert_eq!(t.bytes_copied, 4);
        assert_eq!(t.bytes_allocated, 4);
    }

    #[test]
    fn rope_equality_ignores_segmentation() {
        let mut a = BytesList::new();
        a.push(Bytes::from_vec(vec![1, 2]));
        a.push(Bytes::from_vec(vec![3]));
        let b = BytesList::from(Bytes::from_vec(vec![1, 2, 3]));
        assert_eq!(a, b);
        assert_eq!(a, vec![1, 2, 3]);
        let mut c = BytesList::new();
        c.append(a.clone());
        assert_eq!(c, b);
    }

    #[test]
    fn rope_keeps_segment_order_through_every_storage_shape() {
        // Empty -> one inline segment -> many, and `append` into an
        // empty rope adopting the other's segment list.
        let mut a = BytesList::new();
        a.push(Bytes::new());
        assert_eq!(a.segments().len(), 0);
        a.push(Bytes::from_vec(vec![1]));
        assert_eq!(a.segments().len(), 1);
        a.append(BytesList::from(Bytes::from_vec(vec![2, 3])));
        a.push(Bytes::from_vec(vec![4]));
        assert_eq!(a.segments().len(), 3);
        let mut b = BytesList::new();
        b.append(a.clone());
        b.append(a.slice(1, 2));
        assert_eq!(b, vec![1, 2, 3, 4, 2, 3]);
        assert_eq!(b.slice(3, 2), vec![4, 2]);
        assert_eq!(b.flatten(), vec![1, 2, 3, 4, 2, 3]);
    }

    #[test]
    fn read_u64_le_spans_segments() {
        let words: Vec<u8> = [7u64, u64::MAX - 5]
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        let mut rope = BytesList::new();
        for chunk in words.chunks(3) {
            rope.push(Bytes::from_vec(chunk.to_vec()));
        }
        tally::reset();
        assert_eq!(rope.read_u64_le(0), 7);
        assert_eq!(rope.read_u64_le(8), u64::MAX - 5);
        assert_eq!(
            rope.read_u64_le(4),
            u64::from_le_bytes(words[4..12].try_into().unwrap())
        );
        assert_eq!(tally::snapshot(), tally::DataPlaneTally::default());
    }

    #[test]
    #[should_panic(expected = "outside rope")]
    fn read_u64_le_rejects_short_ropes() {
        BytesList::from(Bytes::from_vec(vec![1; 7])).read_u64_le(0);
    }

    #[test]
    fn zeroed_counts_allocation_only() {
        tally::reset();
        let z = Bytes::zeroed(64);
        assert!(z.iter().all(|&b| b == 0));
        let t = tally::snapshot();
        assert_eq!(t.bytes_allocated, 64);
        assert_eq!(t.bytes_copied, 0);
    }

    #[test]
    fn zeros_share_one_page_without_allocating() {
        // Warm the per-thread page so its one-time allocation does not
        // land in the measured window.
        let _ = zeros(1);
        tally::reset();
        let z = zeros((1 << 20) + 17);
        assert_eq!(z.len(), (1 << 20) + 17);
        assert!(z.iter_bytes().all(|b| b == 0));
        assert_eq!(tally::snapshot(), tally::DataPlaneTally::default());
    }

    #[test]
    fn into_bytes_of_header_only_payload_is_empty() {
        // Regression: this used to panic ("payload is synthetic") on
        // `data: None`, taking down receivers of header-only messages.
        assert!(Payload::synthetic(64).into_bytes().is_empty());
        assert!(Payload::synthetic(0).to_bytes().is_empty());
        assert!(Payload::empty().into_bytes().is_empty());
    }

    #[test]
    fn payload_clone_shares_buffers_without_copying() {
        let p = Payload::bytes(vec![1, 2, 3, 4]);
        tally::reset();
        let q = p.clone();
        assert_eq!(p, q);
        let t = tally::snapshot();
        assert_eq!(t.bytes_copied, 0);
        assert_eq!(t.bytes_allocated, 0);
    }

    #[test]
    fn payload_slice_and_map_keep_synthetic_payloads_synthetic() {
        let real = Payload::bytes(vec![1, 2, 3, 4]);
        assert_eq!(real.slice(1, 2), Payload::bytes(vec![2, 3]));
        assert_eq!(real.clone().map(|d| d.to_vec()), real);
        let syn = Payload::synthetic(4);
        assert_eq!(syn.slice(1, 2), Payload::synthetic(2));
        assert_eq!(
            syn.map(|_| -> Vec<u8> { unreachable!("no bytes to map") }),
            Payload::synthetic(4)
        );
    }

    #[test]
    #[should_panic(expected = "outside payload")]
    fn synthetic_slice_checks_its_range() {
        let _ = Payload::synthetic(4).slice(3, 2);
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a([]), 0xcbf29ce484222325);
        assert_eq!(fnv1a(*b"hello"), fnv1a(b"hello".to_vec()));
        assert_ne!(fnv1a(*b"hello"), fnv1a(*b"hellp"));
    }
}
