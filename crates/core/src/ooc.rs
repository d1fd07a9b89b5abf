//! Out-of-core 2-D arrays with selectable file layout.
//!
//! An [`OocArray`] is a dense 2-D `f64` array resident in one parallel
//! file. Its **file layout** — row-major or column-major — decides how a
//! rectangular block decomposes into contiguous file segments, and hence
//! how many I/O calls a block access costs:
//!
//! - reading an `nr × nc` block from a **column-major** file costs `nc`
//!   segments of `nr` elements (one per column), unless the block spans
//!   whole columns, in which case adjacent columns coalesce;
//! - from a **row-major** file it costs `nr` segments of `nc` elements,
//!   symmetric.
//!
//! This asymmetry is exactly the paper's Section 4.4 effect: the 2-D
//! out-of-core FFT transposes between two files, and with both files
//! column-major one side of the transpose always accesses across the
//! layout, generating thousands of small strided I/O calls. Storing one
//! array row-major makes *both* sides contiguous.
//!
//! Block accesses move [`Payload`]s: a stored array's blocks carry real
//! bytes, a synthetic array's carry their length alone, and both cost
//! the same virtual time, so callers pass whatever they read through a
//! transform ([`Payload::map`]) and back to the write without branching
//! on the array kind.

use std::rc::Rc;

use iosim_buf::{tally, Bytes, BytesList, Payload};
use iosim_machine::Interface;
use iosim_pfs::{CreateOptions, FileHandle, FileSystem, FsError, IoRequest};

/// File layout of a 2-D out-of-core array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileLayout {
    /// Element `(r, c)` at offset `(r * cols + c) * 8`.
    RowMajor,
    /// Element `(r, c)` at offset `(c * rows + r) * 8` (Fortran order).
    ColMajor,
}

/// A dense 2-D array of fixed-size elements stored in one file of the
/// parallel file system. Elements are `f64` (8 bytes) by default; other
/// element sizes (e.g. 16-byte complex numbers) use
/// [`OocArray::create_elems`] and the `_raw` accessors.
pub struct OocArray {
    fh: FileHandle,
    rows: u64,
    cols: u64,
    layout: FileLayout,
    elem: u64,
}

const ELEM: u64 = 8;

impl OocArray {
    /// Create (or open) the backing file and size it for `rows × cols`
    /// elements of `f64`.
    ///
    /// With `stored = true` the array holds real values (subject to the
    /// stored-file cap); otherwise accesses are timing-only.
    #[allow(clippy::too_many_arguments)]
    pub async fn create(
        fs: &Rc<FileSystem>,
        rank: usize,
        iface: Interface,
        name: &str,
        rows: u64,
        cols: u64,
        layout: FileLayout,
        stored: bool,
    ) -> Result<OocArray, FsError> {
        Self::create_elems(fs, rank, iface, name, rows, cols, layout, stored, ELEM).await
    }

    /// As [`OocArray::create`], with an explicit element size in bytes
    /// (e.g. 16 for complex `f64` pairs).
    #[allow(clippy::too_many_arguments)]
    pub async fn create_elems(
        fs: &Rc<FileSystem>,
        rank: usize,
        iface: Interface,
        name: &str,
        rows: u64,
        cols: u64,
        layout: FileLayout,
        stored: bool,
        elem_bytes: u64,
    ) -> Result<OocArray, FsError> {
        assert!(rows > 0 && cols > 0, "array must be non-empty");
        assert!(elem_bytes > 0, "element size must be positive");
        let fh = fs
            .open(
                rank,
                iface,
                name,
                Some(CreateOptions {
                    stored,
                    ..Default::default()
                }),
            )
            .await?;
        // Size the file without timing cost (allocation is metadata; the
        // paper's FFT pre-creates its files).
        fh.preallocate(rows * cols * elem_bytes);
        Ok(OocArray {
            fh,
            rows,
            cols,
            layout,
            elem: elem_bytes,
        })
    }

    /// Rows of the array.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Columns of the array.
    pub fn cols(&self) -> u64 {
        self.cols
    }

    /// The file layout.
    pub fn layout(&self) -> FileLayout {
        self.layout
    }

    /// Element size in bytes.
    pub fn elem_bytes(&self) -> u64 {
        self.elem
    }

    /// The underlying file handle.
    pub fn file(&self) -> &FileHandle {
        &self.fh
    }

    /// File offset of element `(r, c)`.
    pub fn offset_of(&self, r: u64, c: u64) -> u64 {
        debug_assert!(r < self.rows && c < self.cols);
        match self.layout {
            FileLayout::RowMajor => (r * self.cols + c) * self.elem,
            FileLayout::ColMajor => (c * self.rows + r) * self.elem,
        }
    }

    /// Decompose block `[r0, r0+nr) × [c0, c0+nc)` into coalesced
    /// contiguous file segments `(offset, bytes)`.
    ///
    /// The segment count is the I/O call count of an unoptimized block
    /// access — the quantity the layout optimization reduces.
    pub fn block_segments(&self, r0: u64, c0: u64, nr: u64, nc: u64) -> Vec<(u64, u64)> {
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "block out of range"
        );
        if nr == 0 || nc == 0 {
            return Vec::new();
        }
        // Express both layouts as: `outer` strips of `inner` contiguous
        // elements, strips `stride` elements apart.
        let (outer, inner, first, stride, full) = match self.layout {
            FileLayout::ColMajor => (
                nc,
                nr,
                self.offset_of(r0, c0),
                self.rows * self.elem,
                nr == self.rows,
            ),
            FileLayout::RowMajor => (
                nr,
                nc,
                self.offset_of(r0, c0),
                self.cols * self.elem,
                nc == self.cols,
            ),
        };
        if full {
            // Strips are contiguous end-to-end: one segment.
            return vec![(first, outer * inner * self.elem)];
        }
        (0..outer)
            .map(|k| (first + k * stride, inner * self.elem))
            .collect()
    }

    /// The block's segments as one vectored I/O request.
    pub fn block_request(&self, r0: u64, c0: u64, nr: u64, nc: u64) -> IoRequest {
        IoRequest::from_extents(self.block_segments(r0, c0, nr, nc))
    }

    /// Whether the block's corner turn is the identity permutation: the
    /// file segments of the block concatenate in exactly local
    /// row-major order, so no element reshuffle is needed. True for
    /// every block of a row-major array (the segments *are* the local
    /// rows in order) and for single-row/single-column blocks of a
    /// column-major array.
    fn corner_turn_is_identity(&self, nr: u64, nc: u64) -> bool {
        match self.layout {
            FileLayout::RowMajor => true,
            FileLayout::ColMajor => nr == 1 || nc == 1,
        }
    }

    /// Read the block into a row-major local byte buffer (element
    /// `(r0+i, c0+j)` at byte index `(i * nc + j) * elem`). The segments
    /// travel as one vectored request. A synthetic array returns a
    /// synthetic payload of the block's size, with the same timing. When
    /// the corner turn is the identity the returned bytes are shared
    /// views of the stored extents — nothing is copied.
    pub async fn read_block_raw(
        &self,
        r0: u64,
        c0: u64,
        nr: u64,
        nc: u64,
    ) -> Result<Payload, FsError> {
        let data = self.fh.readv(&self.block_request(r0, c0, nr, nc)).await?;
        if self.corner_turn_is_identity(nr, nc) {
            return Ok(data);
        }
        Ok(data.map(|rope| {
            let data = rope.flatten();
            let mut out = vec![0u8; (nr * nc * self.elem) as usize];
            let mut cursor = 0usize;
            for (offset, bytes) in self.block_segments(r0, c0, nr, nc) {
                self.scatter(
                    offset,
                    &data[cursor..cursor + bytes as usize],
                    r0,
                    c0,
                    nc,
                    &mut out,
                );
                cursor += bytes as usize;
            }
            out
        }))
    }

    /// Write a row-major local byte buffer into the block (inverse of
    /// [`OocArray::read_block_raw`]); a synthetic payload writes the
    /// block timing-only. Pass an owned buffer to adopt it without
    /// copying; when the corner turn is the identity the segments are
    /// sliced straight out of it, and otherwise each gathered segment (a
    /// genuine reshuffle, counted in `gather`) is adopted into the write
    /// rope directly.
    pub async fn write_block_raw(
        &self,
        r0: u64,
        c0: u64,
        nr: u64,
        nc: u64,
        buf: impl Into<Payload>,
    ) -> Result<(), FsError> {
        let buf = buf.into();
        assert_eq!(buf.len, nr * nc * self.elem, "buffer size mismatch");
        let segments = self.block_segments(r0, c0, nr, nc);
        let data = if self.corner_turn_is_identity(nr, nc) {
            buf
        } else {
            buf.map(|rope| {
                let buf = rope.flatten();
                let mut data = BytesList::new();
                for &(offset, bytes) in &segments {
                    data.push(Bytes::from_vec(
                        self.gather(offset, bytes, r0, c0, nc, &buf),
                    ));
                }
                data
            })
        };
        self.fh
            .writev(&IoRequest::from_extents(segments), data)
            .await
    }

    /// Read the block into a row-major `f64` buffer
    /// (`buf[i * nc + j] = a[r0+i][c0+j]`).
    ///
    /// # Panics
    /// Panics on a synthetic array (it holds no values) or on elements
    /// that are not 8 bytes.
    pub async fn read_block(
        &self,
        r0: u64,
        c0: u64,
        nr: u64,
        nc: u64,
    ) -> Result<Vec<f64>, FsError> {
        assert_eq!(self.elem, 8, "f64 accessors need 8-byte elements");
        let raw = self
            .read_block_raw(r0, c0, nr, nc)
            .await?
            .data
            .unwrap_or_else(|| panic!("read_block of synthetic array {}", self.fh.name()))
            .flatten();
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// Write a row-major `f64` buffer into the block. Requires lengths to
    /// match and 8-byte elements; stores values when the array is stored.
    pub async fn write_block(
        &self,
        r0: u64,
        c0: u64,
        nr: u64,
        nc: u64,
        buf: &[f64],
    ) -> Result<(), FsError> {
        assert_eq!(self.elem, 8, "f64 accessors need 8-byte elements");
        assert_eq!(buf.len() as u64, nr * nc, "buffer size mismatch");
        let raw: Vec<u8> = buf.iter().flat_map(|v| v.to_le_bytes()).collect();
        self.write_block_raw(r0, c0, nr, nc, raw).await
    }

    /// Close the backing file handle (cost + trace).
    pub async fn close(self) {
        self.fh.close().await;
    }

    /// Number of I/O calls a block access costs under this layout.
    pub fn block_call_count(&self, r0: u64, c0: u64, nr: u64, nc: u64) -> usize {
        self.block_segments(r0, c0, nr, nc).len()
    }

    fn rc_of_offset(&self, offset: u64) -> (u64, u64) {
        let g = offset / self.elem;
        match self.layout {
            FileLayout::RowMajor => (g / self.cols, g % self.cols),
            FileLayout::ColMajor => (g % self.rows, g / self.rows),
        }
    }

    /// Place a contiguous file segment's bytes into the row-major block
    /// buffer. This corner turn is a genuine element reshuffle, so its
    /// byte movement is counted.
    fn scatter(&self, seg_offset: u64, data: &[u8], r0: u64, c0: u64, nc: u64, out: &mut [u8]) {
        let e = self.elem as usize;
        tally::count_copy((data.len() - data.len() % e) as u64);
        for (k, chunk) in data.chunks_exact(e).enumerate() {
            let (r, c) = self.rc_of_offset(seg_offset + (k as u64) * self.elem);
            let idx = ((r - r0) * nc + (c - c0)) as usize * e;
            out[idx..idx + e].copy_from_slice(chunk);
        }
    }

    /// Collect a contiguous file segment's bytes from the row-major block
    /// buffer (a genuine corner-turn reshuffle; counted as a copy).
    fn gather(
        &self,
        seg_offset: u64,
        bytes: u64,
        r0: u64,
        c0: u64,
        nc: u64,
        buf: &[u8],
    ) -> Vec<u8> {
        let e = self.elem as usize;
        tally::count_copy(bytes - bytes % self.elem);
        let mut out = Vec::with_capacity(bytes as usize);
        for k in 0..bytes / self.elem {
            let (r, c) = self.rc_of_offset(seg_offset + k * self.elem);
            let idx = ((r - r0) * nc + (c - c0)) as usize * e;
            out.extend_from_slice(&buf[idx..idx + e]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_machine::{presets, Machine};
    use iosim_simkit::executor::Sim;
    use iosim_trace::TraceCollector;

    fn fixture(sim: &Sim) -> Rc<FileSystem> {
        let m = Machine::new(sim.handle(), presets::paragon_small());
        FileSystem::new(m, TraceCollector::new())
    }

    fn run<T: 'static>(
        f: impl FnOnce(Rc<FileSystem>) -> std::pin::Pin<Box<dyn std::future::Future<Output = T>>>,
    ) -> T {
        let mut sim = Sim::new();
        let fs = fixture(&sim);
        let jh = sim.spawn(f(fs));
        sim.run();
        jh.try_take().expect("completed")
    }

    #[test]
    fn col_major_block_is_one_segment_per_column() {
        let segs = run(|fs| {
            Box::pin(async move {
                let a = OocArray::create(
                    &fs,
                    0,
                    Interface::UnixStyle,
                    "a",
                    16,
                    16,
                    FileLayout::ColMajor,
                    false,
                )
                .await
                .unwrap();
                a.block_segments(2, 3, 4, 5)
            })
        });
        assert_eq!(segs.len(), 5);
        // First segment starts at element (2,3): offset (3*16+2)*8 = 400.
        assert_eq!(segs[0], (400, 32));
        // Next column strip is rows*8 = 128 bytes later.
        assert_eq!(segs[1].0, 400 + 128);
    }

    #[test]
    fn full_column_blocks_coalesce() {
        let (calls_full, calls_partial) = run(|fs| {
            Box::pin(async move {
                let a = OocArray::create(
                    &fs,
                    0,
                    Interface::UnixStyle,
                    "a",
                    16,
                    16,
                    FileLayout::ColMajor,
                    false,
                )
                .await
                .unwrap();
                (
                    a.block_call_count(0, 0, 16, 8),
                    a.block_call_count(0, 0, 8, 8),
                )
            })
        });
        assert_eq!(calls_full, 1);
        assert_eq!(calls_partial, 8);
    }

    #[test]
    fn row_major_is_the_transpose_of_col_major() {
        let (rm, cm) = run(|fs| {
            Box::pin(async move {
                let rm = OocArray::create(
                    &fs,
                    0,
                    Interface::UnixStyle,
                    "rm",
                    32,
                    32,
                    FileLayout::RowMajor,
                    false,
                )
                .await
                .unwrap();
                let cm = OocArray::create(
                    &fs,
                    0,
                    Interface::UnixStyle,
                    "cm",
                    32,
                    32,
                    FileLayout::ColMajor,
                    false,
                )
                .await
                .unwrap();
                (
                    rm.block_call_count(0, 0, 4, 32),
                    cm.block_call_count(0, 0, 32, 4),
                )
            })
        });
        // Full rows from a row-major file and full columns from a
        // column-major file both coalesce to one call.
        assert_eq!(rm, 1);
        assert_eq!(cm, 1);
    }

    #[test]
    fn write_then_read_block_roundtrips() {
        let ok = run(|fs| {
            Box::pin(async move {
                let a = OocArray::create(
                    &fs,
                    0,
                    Interface::UnixStyle,
                    "a",
                    8,
                    8,
                    FileLayout::ColMajor,
                    true,
                )
                .await
                .unwrap();
                let block: Vec<f64> = (0..12).map(|i| i as f64 * 1.5).collect();
                a.write_block(1, 2, 3, 4, &block).await.unwrap();
                let back = a.read_block(1, 2, 3, 4).await.unwrap();
                back == block
            })
        });
        assert!(ok);
    }

    #[test]
    fn blocks_roundtrip_across_layouts() {
        // Writing with one pattern and reading a different sub-block must
        // agree element-wise in both layouts.
        for layout in [FileLayout::RowMajor, FileLayout::ColMajor] {
            let ok = run(move |fs| {
                Box::pin(async move {
                    let a =
                        OocArray::create(&fs, 0, Interface::UnixStyle, "a", 10, 10, layout, true)
                            .await
                            .unwrap();
                    // Fill the whole array with f(r, c) = 100 r + c.
                    let all: Vec<f64> = (0..100).map(|i| (i / 10 * 100 + i % 10) as f64).collect();
                    a.write_block(0, 0, 10, 10, &all).await.unwrap();
                    // Read a 3x4 block at (5, 2).
                    let b = a.read_block(5, 2, 3, 4).await.unwrap();
                    (0..3).all(|i| (0..4).all(|j| b[i * 4 + j] == ((5 + i) * 100 + 2 + j) as f64))
                })
            });
            assert!(ok, "layout {layout:?}");
        }
    }

    #[test]
    fn synthetic_arrays_move_lengths_only() {
        run(|fs| {
            Box::pin(async move {
                let a = OocArray::create(
                    &fs,
                    0,
                    Interface::Passion,
                    "syn",
                    64,
                    64,
                    FileLayout::ColMajor,
                    false,
                )
                .await
                .unwrap();
                a.write_block_raw(0, 0, 64, 64, Payload::synthetic(64 * 64 * 8))
                    .await
                    .unwrap();
                let back = a.read_block_raw(0, 0, 64, 32).await.unwrap();
                assert_eq!(back, Payload::synthetic(64 * 32 * 8));
            })
        });
    }

    #[test]
    fn sixteen_byte_elements_roundtrip_raw() {
        let ok = run(|fs| {
            Box::pin(async move {
                let a = OocArray::create_elems(
                    &fs,
                    0,
                    Interface::UnixStyle,
                    "cpx",
                    6,
                    6,
                    FileLayout::ColMajor,
                    true,
                    16,
                )
                .await
                .unwrap();
                assert_eq!(a.elem_bytes(), 16);
                let block: Vec<u8> = (0..2 * 3 * 16).map(|i| (i % 251) as u8).collect();
                a.write_block_raw(1, 2, 2, 3, block.clone()).await.unwrap();
                let back = a.read_block_raw(1, 2, 2, 3).await.unwrap();
                back == Payload::bytes(block)
            })
        });
        assert!(ok);
    }

    #[test]
    fn elem_size_scales_segments() {
        let (seg8, seg16) = run(|fs| {
            Box::pin(async move {
                let a8 = OocArray::create(
                    &fs,
                    0,
                    Interface::UnixStyle,
                    "e8",
                    16,
                    16,
                    FileLayout::ColMajor,
                    false,
                )
                .await
                .unwrap();
                let a16 = OocArray::create_elems(
                    &fs,
                    0,
                    Interface::UnixStyle,
                    "e16",
                    16,
                    16,
                    FileLayout::ColMajor,
                    false,
                    16,
                )
                .await
                .unwrap();
                (
                    a8.block_segments(0, 0, 4, 2),
                    a16.block_segments(0, 0, 4, 2),
                )
            })
        });
        assert_eq!(seg8.len(), 2);
        assert_eq!(seg16.len(), 2);
        assert_eq!(seg8[0].1 * 2, seg16[0].1);
    }

    #[test]
    fn drawn_segments_tile_the_block_exactly() {
        for seed in 0x00c0_0000..0x00c0_0000 + 64u64 {
            let mut rng = iosim_simkit::rng::SimRng::seed_from(seed);
            let rows = rng.range(1, 40);
            let cols = rng.range(1, 40);
            let r0 = rng.range(0, rows);
            let c0 = rng.range(0, cols);
            let nr = rng.range(1, rows - r0 + 1);
            let nc = rng.range(1, cols - c0 + 1);
            let layout = if rng.range(0, 2) == 0 {
                FileLayout::RowMajor
            } else {
                FileLayout::ColMajor
            };
            let segs = run(move |fs| {
                Box::pin(async move {
                    let a = OocArray::create(
                        &fs,
                        0,
                        Interface::UnixStyle,
                        "p",
                        rows,
                        cols,
                        layout,
                        false,
                    )
                    .await
                    .unwrap();
                    a.block_segments(r0, c0, nr, nc)
                })
            });
            let tag = format!("seed {seed}: {rows}x{cols} {layout:?} block ({r0},{c0}) {nr}x{nc}");
            // Total bytes equal the block size.
            let total: u64 = segs.iter().map(|&(_, b)| b).sum();
            assert_eq!(total, nr * nc * 8, "{tag}");
            // Segments are disjoint.
            let mut sorted = segs.clone();
            sorted.sort_unstable();
            for w in sorted.windows(2) {
                assert!(w[0].0 + w[0].1 <= w[1].0, "{tag}: overlap {w:?}");
            }
            // The count matches the layout formula.
            let expect = match layout {
                FileLayout::ColMajor if nr == rows => 1,
                FileLayout::ColMajor => nc,
                FileLayout::RowMajor if nc == cols => 1,
                FileLayout::RowMajor => nr,
            };
            assert_eq!(segs.len() as u64, expect, "{tag}");
        }
    }

    #[test]
    #[should_panic(expected = "block out of range")]
    fn out_of_range_block_panics() {
        run(|fs| {
            Box::pin(async move {
                let a = OocArray::create(
                    &fs,
                    0,
                    Interface::UnixStyle,
                    "a",
                    4,
                    4,
                    FileLayout::RowMajor,
                    false,
                )
                .await
                .unwrap();
                a.block_segments(2, 2, 4, 4);
            })
        });
    }
}
