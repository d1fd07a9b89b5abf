//! Data sieving: servicing many small strided accesses with one large
//! contiguous access covering their extent.
//!
//! The third classic technique of the PASSION/ROMIO family, alongside
//! two-phase I/O and prefetching. Where two-phase I/O trades small I/O
//! calls for network exchange, sieving trades them for *wasted transfer*:
//! a read covers the whole extent including the holes; a write
//! read-modify-writes the extent. Best when the access density within the
//! extent is high and no peer processes are available to exchange with.

use iosim_buf::Payload;
use iosim_pfs::{ExtentTree, FileHandle, FsError, IoRequest};

use crate::two_phase::{Piece, Span};

/// Statistics of one sieved operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SieveStats {
    /// Bytes of the covering extent actually transferred.
    pub extent_bytes: u64,
    /// Bytes the application asked for.
    pub useful_bytes: u64,
    /// Physical I/O calls issued (1 for a pure read/fully-covered write,
    /// 2 for a read-modify-write).
    pub io_calls: u64,
}

impl SieveStats {
    /// Fraction of transferred bytes that were useful, in `(0, 1]`.
    pub fn efficiency(&self) -> f64 {
        if self.extent_bytes == 0 {
            1.0
        } else {
            self.useful_bytes as f64 / self.extent_bytes as f64
        }
    }
}

fn extent_of(offsets: impl Iterator<Item = (u64, u64)>) -> Option<(u64, u64)> {
    let mut lo = u64::MAX;
    let mut hi = 0u64;
    for (off, len) in offsets {
        lo = lo.min(off);
        hi = hi.max(off + len);
    }
    (lo < hi).then_some((lo, hi))
}

/// Whether sorted pieces fully tile their extent (no holes).
fn fully_covers(pieces: &[Piece], lo: u64, hi: u64) -> bool {
    let mut sorted: Vec<(u64, u64)> = pieces.iter().map(|p| (p.offset, p.payload.len)).collect();
    sorted.sort_unstable();
    let mut cursor = lo;
    for (off, len) in sorted {
        if off > cursor {
            return false;
        }
        cursor = cursor.max(off + len);
    }
    cursor >= hi
}

/// Write `pieces` with data sieving: one read-modify-write of the
/// covering extent (the read is skipped when the pieces tile the extent
/// completely). Works on stored files (real bytes patched) and synthetic
/// files (timing only).
pub async fn write_sieved(fh: &FileHandle, pieces: Vec<Piece>) -> Result<SieveStats, FsError> {
    let Some((lo, hi)) = extent_of(pieces.iter().map(|p| (p.offset, p.payload.len))) else {
        return Ok(SieveStats::default());
    };
    let useful: u64 = pieces.iter().map(|p| p.payload.len).sum();
    let covered = fully_covers(&pieces, lo, hi);
    let mut io_calls = 0u64;
    // With real bytes in every piece, overlay them on the background
    // content in a scratch extent tree — the merge is pure view
    // bookkeeping, no byte is copied. Otherwise the write is timing-only.
    let mut overlay = pieces
        .iter()
        .all(|p| p.payload.data.is_some())
        .then(ExtentTree::new);
    if !covered && lo < fh.size() {
        // Read-modify-write: fetch the extent (clipped to EOF).
        io_calls += 1;
        let have = fh.size().min(hi) - lo;
        let background = fh.readv(&IoRequest::contiguous(lo, have)).await?;
        if let (Some(tree), Some(b)) = (&mut overlay, &background.data) {
            tree.write_list(0, b);
        }
    }
    let data = match overlay {
        Some(mut tree) => {
            for p in &pieces {
                let d = p.payload.data.as_ref().expect("all real");
                tree.write_list(p.offset - lo, d);
            }
            Payload::bytes(tree.read(0, hi - lo))
        }
        None => Payload::synthetic(hi - lo),
    };
    fh.writev(&IoRequest::contiguous(lo, hi - lo), data).await?;
    io_calls += 1;
    Ok(SieveStats {
        extent_bytes: (hi - lo) * io_calls,
        useful_bytes: useful,
        io_calls,
    })
}

/// Read `spans` with data sieving: one read of the covering extent,
/// sliced per span. Returns one payload per span (real bytes iff the file
/// is stored).
pub async fn read_sieved(
    fh: &FileHandle,
    spans: &[Span],
) -> Result<(Vec<Payload>, SieveStats), FsError> {
    let Some((lo, hi)) = extent_of(spans.iter().map(|s| (s.offset, s.len))) else {
        return Ok((Vec::new(), SieveStats::default()));
    };
    let useful: u64 = spans.iter().map(|s| s.len).sum();
    let stats = SieveStats {
        extent_bytes: hi - lo,
        useful_bytes: useful,
        io_calls: 1,
    };
    let all = fh.readv(&Span::new(lo, hi - lo).to_request()).await?;
    let out = spans
        .iter()
        .map(|s| all.slice(s.offset - lo, s.len))
        .collect();
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iosim_machine::{presets, Interface, Machine};
    use iosim_pfs::{CreateOptions, FileSystem};
    use iosim_simkit::executor::Sim;
    use iosim_trace::{OpKind, TraceCollector};
    use std::rc::Rc;

    fn run<T: 'static>(
        f: impl FnOnce(
            Rc<FileSystem>,
            TraceCollector,
        ) -> std::pin::Pin<Box<dyn std::future::Future<Output = T>>>,
    ) -> T {
        let mut sim = Sim::new();
        let trace = TraceCollector::new();
        let m = Machine::new(sim.handle(), presets::sp2());
        let fs = FileSystem::new(m, trace.clone());
        let jh = sim.spawn(f(fs, trace));
        sim.run();
        jh.try_take().expect("completed")
    }

    fn stored() -> CreateOptions {
        CreateOptions {
            stored: true,
            ..Default::default()
        }
    }

    #[test]
    fn sieved_write_patches_holes_correctly() {
        let ok = run(|fs, _| {
            Box::pin(async move {
                let fh = fs
                    .open(0, Interface::UnixStyle, "s", Some(stored()))
                    .await
                    .unwrap();
                // Background content 0..100.
                let bg: Vec<u8> = (0..100u8).collect();
                fh.write_at(0, &bg).await.unwrap();
                // Sieve-write two strided pieces over it.
                let stats = write_sieved(
                    &fh,
                    vec![
                        Piece::bytes(10, vec![255; 5]),
                        Piece::bytes(40, vec![254; 5]),
                    ],
                )
                .await
                .unwrap();
                assert_eq!(stats.io_calls, 2); // read-modify-write
                assert_eq!(stats.useful_bytes, 10);
                let all = fh.read_at(0, 100).await.unwrap();
                let all = all.data.expect("s is stored").flatten();
                // Patched regions changed, holes preserved.
                all[10..15] == [255; 5]
                    && all[40..45] == [254; 5]
                    && all[20..40] == bg[20..40]
                    && all[..10] == bg[..10]
            })
        });
        assert!(ok);
    }

    #[test]
    fn fully_covering_write_skips_the_read() {
        let stats = run(|fs, trace| {
            Box::pin(async move {
                let fh = fs
                    .open(0, Interface::UnixStyle, "c", Some(stored()))
                    .await
                    .unwrap();
                let stats = write_sieved(
                    &fh,
                    vec![Piece::bytes(0, vec![1; 50]), Piece::bytes(50, vec![2; 50])],
                )
                .await
                .unwrap();
                assert_eq!(trace.count(OpKind::Read), 0);
                stats
            })
        });
        assert_eq!(stats.io_calls, 1);
        assert!((stats.efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sieved_read_slices_spans() {
        let ok = run(|fs, trace| {
            Box::pin(async move {
                let fh = fs
                    .open(0, Interface::UnixStyle, "r", Some(stored()))
                    .await
                    .unwrap();
                let bg: Vec<u8> = (0..200).map(|i| (i % 251) as u8).collect();
                fh.write_at(0, &bg).await.unwrap();
                let spans = vec![Span::new(5, 10), Span::new(100, 20)];
                let (got, stats) = read_sieved(&fh, &spans).await.unwrap();
                assert_eq!(trace.count(OpKind::Read), 1);
                assert_eq!(stats.extent_bytes, 115);
                assert_eq!(stats.useful_bytes, 30);
                got[0].to_bytes()[..] == bg[5..15] && got[1].to_bytes()[..] == bg[100..120]
            })
        });
        assert!(ok);
    }

    #[test]
    fn sieving_beats_per_piece_writes_for_dense_strides() {
        // 128 strided 100-byte records within a 32 KB extent.
        let pieces = || -> Vec<Piece> {
            (0..128u64)
                .map(|k| Piece::synthetic(k * 256, 100))
                .collect()
        };
        let sieved = run(|fs, _| {
            Box::pin(async move {
                let fh = fs
                    .open(0, Interface::UnixStyle, "a", Some(CreateOptions::default()))
                    .await
                    .unwrap();
                let h = fh.sim_handle();
                let t0 = h.now();
                write_sieved(&fh, pieces()).await.unwrap();
                (h.now() - t0).as_secs_f64()
            })
        });
        let direct = run(|fs, _| {
            Box::pin(async move {
                let fh = fs
                    .open(0, Interface::UnixStyle, "b", Some(CreateOptions::default()))
                    .await
                    .unwrap();
                let h = fh.sim_handle();
                let t0 = h.now();
                for p in pieces() {
                    fh.seek(p.offset).await;
                    fh.write(p.payload).await.unwrap();
                }
                (h.now() - t0).as_secs_f64()
            })
        });
        assert!(
            sieved < direct / 10.0,
            "sieving should crush per-piece writes: {sieved} vs {direct}"
        );
    }

    #[test]
    fn empty_inputs_are_noops() {
        let (stats_w, stats_r) = run(|fs, _| {
            Box::pin(async move {
                let fh = fs
                    .open(0, Interface::UnixStyle, "e", Some(stored()))
                    .await
                    .unwrap();
                let w = write_sieved(&fh, Vec::new()).await.unwrap();
                let (out, r) = read_sieved(&fh, &[]).await.unwrap();
                assert!(out.is_empty());
                (w, r)
            })
        });
        assert_eq!(stats_w.io_calls, 0);
        assert_eq!(stats_r.io_calls, 0);
        assert!((stats_w.efficiency() - 1.0).abs() < 1e-12);
    }
}
