//! Two-phase (collective) I/O, after Thakur et al.'s PASSION runtime
//! (reference \[10\] of the paper).
//!
//! In the unoptimized applications every process issues one I/O call per
//! non-contiguous chunk it owns — thousands of small seeks and calls. In
//! two-phase I/O the processes first agree on a **conforming partition**
//! of the accessed file range (contiguous region per process), exchange
//! data over the interconnect so that each process holds exactly its
//! region (phase 1), and then each process performs a *single* large
//! sequential I/O call (phase 2). The number of I/O calls drops from
//! "chunks × processes" to "processes", at the cost of an all-to-all
//! exchange — the trade the paper measures in Sections 4.5–4.6.
//!
//! Functional as well as timed: with stored files and real payloads, the
//! redistribution actually moves the bytes, so tests can assert that the
//! optimized file is byte-identical to the unoptimized one.

use iosim_buf::{zeros, Bytes, BytesList};
use iosim_msg::{Comm, Payload};
use iosim_pfs::{FileHandle, FsError, IoRequest};

/// A piece of file data held (for writes) or wanted (for reads) by a rank.
#[derive(Clone, Debug, PartialEq)]
pub struct Piece {
    /// Absolute file offset.
    pub offset: u64,
    /// The data (real bytes or synthetic length).
    pub payload: Payload,
}

impl Piece {
    /// A piece carrying real bytes (accepts `Vec<u8>`, [`Bytes`], or a
    /// prebuilt rope — owned buffers are shared, not copied).
    pub fn bytes(offset: u64, data: impl Into<BytesList>) -> Piece {
        Piece {
            offset,
            payload: Payload::bytes(data),
        }
    }

    /// A timing-only piece.
    pub fn synthetic(offset: u64, len: u64) -> Piece {
        Piece {
            offset,
            payload: Payload::synthetic(len),
        }
    }

    /// The piece's file extent `(offset, len)`.
    pub fn extent(&self) -> (u64, u64) {
        (self.offset, self.payload.len)
    }

    fn end(&self) -> u64 {
        self.offset + self.payload.len
    }
}

/// Describe `pieces` as one vectored I/O request (extent list only; the
/// payload, if any, travels separately).
pub fn pieces_request(pieces: &[Piece]) -> IoRequest {
    IoRequest::from_extents(pieces.iter().map(Piece::extent).collect())
}

/// A byte range in the file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Absolute file offset.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Span {
    /// Construct a span.
    pub fn new(offset: u64, len: u64) -> Span {
        Span { offset, len }
    }

    /// The span as a single-extent vectored I/O request.
    pub fn to_request(self) -> IoRequest {
        IoRequest::contiguous(self.offset, self.len)
    }

    fn end(&self) -> u64 {
        self.offset + self.len
    }
}

/// Statistics of one collective operation on this rank.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TwoPhaseStats {
    /// Bytes this rank sent during the exchange phase.
    pub bytes_sent: u64,
    /// Bytes this rank received during the exchange phase.
    pub bytes_received: u64,
    /// I/O calls this rank issued in phase 2.
    pub io_calls: u64,
}

/// The conforming partition: rank `r` owns `[lo + r*chunk, lo + (r+1)*chunk)`
/// clipped to `[lo, hi)`.
#[derive(Clone, Copy, Debug)]
struct Domain {
    lo: u64,
    hi: u64,
    chunk: u64,
}

impl Domain {
    fn owner_region(&self, rank: usize) -> Span {
        let start = (self.lo + rank as u64 * self.chunk).min(self.hi);
        let end = (start + self.chunk).min(self.hi);
        Span::new(start, end - start)
    }

    fn owner_of(&self, offset: u64) -> usize {
        debug_assert!(offset >= self.lo && offset < self.hi);
        ((offset - self.lo) / self.chunk) as usize
    }
}

/// Agree on the accessed domain across ranks and partition it evenly.
/// Ranks with nothing to contribute send an empty range (`lo >= hi`),
/// which is ignored in the aggregation so it cannot skew the domain.
async fn agree_domain(comm: &Comm, lo: u64, hi: u64) -> Option<Domain> {
    let range = if lo == 0 && hi == 0 {
        // The usual empty range: sixteen zero bytes of the shared zero
        // page, no buffer.
        zeros(16)
    } else {
        let mut enc = Vec::with_capacity(16);
        enc.extend_from_slice(&lo.to_le_bytes());
        enc.extend_from_slice(&hi.to_le_bytes());
        BytesList::from(Bytes::from_vec(enc))
    };
    let all = comm.allgather(Payload::bytes(range)).await;
    let mut g_lo = u64::MAX;
    let mut g_hi = 0u64;
    for p in &all {
        let b = p.data.as_ref().expect("domain ranges carry bytes");
        let (l, h) = (b.read_u64_le(0), b.read_u64_le(8));
        if l < h {
            g_lo = g_lo.min(l);
            g_hi = g_hi.max(h);
        }
    }
    if g_lo >= g_hi {
        return None; // nothing accessed anywhere
    }
    let n = comm.size() as u64;
    let chunk = (g_hi - g_lo).div_ceil(n);
    Some(Domain {
        lo: g_lo,
        hi: g_hi,
        chunk,
    })
}

/// Split `piece` at the domain's region boundaries, handing each
/// `(owner, fragment)` to `emit` in offset order.
fn route_piece(domain: &Domain, piece: Piece, emit: impl FnMut(usize, Piece)) {
    split_piece(piece, emit, |off| {
        let owner = domain.owner_of(off);
        (owner, domain.owner_region(owner).end())
    });
}

/// Cut `piece` into consecutive fragments: `locate(off)` names the
/// destination of the byte at `off` and the end of the range that
/// destination takes. Real payloads are sliced (shared views, no copy).
fn split_piece(
    piece: Piece,
    mut emit: impl FnMut(usize, Piece),
    locate: impl Fn(u64) -> (usize, u64),
) {
    let mut off = piece.offset;
    let end = piece.end();
    let mut consumed = 0u64;
    while off < end {
        let (dest, range_end) = locate(off);
        let take = (end - off).min(range_end - off);
        let payload = match &piece.payload.data {
            Some(d) => Payload::bytes(d.slice(consumed, take)),
            None => Payload::synthetic(take),
        };
        emit(
            dest,
            Piece {
                offset: off,
                payload,
            },
        );
        off += take;
        consumed += take;
    }
}

/// Serialize a list of pieces into one message payload. Real bytes are
/// carried when every piece has them; otherwise the payload is synthetic
/// with exactly the total *data* length (headers are dropped so the
/// receiver can account volume precisely; they are small next to the
/// data). Only the small header is freshly built — the data segments
/// ride along as shared views.
fn encode_pieces<'a>(pieces: impl ExactSizeIterator<Item = &'a Piece> + Clone) -> Payload {
    if !pieces.clone().all(|p| p.payload.data.is_some()) {
        return Payload::synthetic(pieces.map(|p| p.payload.len).sum());
    }
    if pieces.len() == 0 {
        // An empty list is its zero count alone: eight bytes of the
        // shared zero page, no buffer.
        return Payload::bytes(zeros(8));
    }
    let mut header = Vec::with_capacity(8 + 16 * pieces.len());
    header.extend_from_slice(&(pieces.len() as u64).to_le_bytes());
    for p in pieces.clone() {
        header.extend_from_slice(&p.offset.to_le_bytes());
        header.extend_from_slice(&p.payload.len.to_le_bytes());
    }
    let mut out = BytesList::from(Bytes::from_vec(header));
    for p in pieces {
        out.append(p.payload.data.clone().expect("all real"));
    }
    Payload::bytes(out)
}

/// One message per destination rank, in rank order, listing the
/// fragments routed to it in routing order. A stable sort on the
/// destination groups them, so no per-destination buffer is built.
fn encode_per_dest(procs: usize, mut routed: Vec<(usize, Piece)>) -> Vec<Payload> {
    routed.sort_by_key(|&(dest, _)| dest);
    let mut rest = routed.as_slice();
    let out = (0..procs)
        .map(|dest| {
            let n = rest.iter().take_while(|(d, _)| *d == dest).count();
            let (mine, tail) = rest.split_at(n);
            rest = tail;
            encode_pieces(mine.iter().map(|(_, p)| p))
        })
        .collect();
    debug_assert!(rest.is_empty(), "a fragment was routed past the last rank");
    out
}

/// Inverse of [`encode_pieces`]: append the decoded pieces to `out` and
/// return `true`, or return `false` for a synthetic payload. The pieces
/// are views into the received rope and the header is read in place —
/// no copy, no intermediate buffers.
fn decode_pieces(payload: Payload, out: &mut Vec<Piece>) -> bool {
    let Some(bytes) = payload.data else {
        return false;
    };
    let count = bytes.read_u64_le(0);
    out.reserve(count as usize);
    let mut pos = 8 + 16 * count;
    for i in 0..count {
        let off = bytes.read_u64_le(8 + 16 * i);
        let len = bytes.read_u64_le(16 + 16 * i);
        out.push(Piece::bytes(off, bytes.slice(pos, len)));
        pos += len;
    }
    true
}

/// A read request: the span count, then each span's offset and length,
/// all little-endian `u64`s. An empty list is its zero count alone:
/// eight bytes of the shared zero page, no buffer.
fn encode_spans(spans: &[Span]) -> Payload {
    if spans.is_empty() {
        return Payload::bytes(zeros(8));
    }
    let mut b = Vec::with_capacity(8 + spans.len() * 16);
    b.extend_from_slice(&(spans.len() as u64).to_le_bytes());
    for s in spans {
        b.extend_from_slice(&s.offset.to_le_bytes());
        b.extend_from_slice(&s.len.to_le_bytes());
    }
    Payload::bytes(b)
}

/// Inverse of [`encode_spans`], reading the request in place.
fn decode_spans(payload: Payload) -> Vec<Span> {
    let b = payload.data.expect("read requests carry real bytes");
    let count = b.read_u64_le(0);
    (0..count)
        .map(|i| Span::new(b.read_u64_le(8 + 16 * i), b.read_u64_le(16 + 16 * i)))
        .collect()
}

/// Merge sorted pieces into maximal contiguous runs (offset, len, data?).
/// Real payloads concatenate as ropes — O(segments), no byte movement.
fn merge_runs(mut pieces: Vec<Piece>) -> Vec<Piece> {
    pieces.sort_by_key(|p| p.offset);
    let mut out: Vec<Piece> = Vec::new();
    for p in pieces {
        match out.last_mut() {
            Some(last) if last.end() == p.offset => {
                last.payload.len += p.payload.len;
                if let (Some(buf), Some(d)) = (&mut last.payload.data, p.payload.data) {
                    buf.append(d);
                } else {
                    last.payload.data = None;
                }
            }
            _ => out.push(p),
        }
    }
    out
}

/// Collective write: every rank contributes `pieces`; after the exchange,
/// each rank writes its conforming region with (usually) one large call.
///
/// All ranks of `comm` must call this with handles to the **same file**.
pub async fn write_collective(
    comm: &Comm,
    fh: &FileHandle,
    pieces: Vec<Piece>,
) -> Result<TwoPhaseStats, FsError> {
    if fh.fs().machine().io_queue_depth() > 1 {
        // With command queuing available, the batched variant books each
        // I/O node's queue once per collective round instead of once per
        // aggregator region.
        return write_collective_batched(comm, fh, pieces).await;
    }
    let (lo, hi) = pieces.iter().fold((u64::MAX, 0u64), |(l, h), p| {
        (l.min(p.offset), h.max(p.end()))
    });
    let Some(domain) = agree_domain(comm, lo.min(hi), hi).await else {
        return Ok(TwoPhaseStats::default());
    };
    // Route fragments to owners.
    let mut routed = Vec::with_capacity(pieces.len());
    for piece in pieces {
        route_piece(&domain, piece, |owner, frag| routed.push((owner, frag)));
    }
    let to_each = encode_per_dest(comm.size(), routed);
    let bytes_sent: u64 = to_each
        .iter()
        .enumerate()
        .filter(|(d, _)| *d != comm.rank())
        .map(|(_, p)| p.len)
        .sum();
    let received = comm.alltoallv(to_each).await;
    let bytes_received: u64 = received
        .iter()
        .enumerate()
        .filter(|(s, _)| *s != comm.rank())
        .map(|(_, p)| p.len)
        .sum();

    // Reassemble this rank's region.
    let mut mine: Vec<Piece> = Vec::new();
    let mut synthetic_bytes = 0u64;
    for p in received {
        let len = p.len;
        if !decode_pieces(p, &mut mine) {
            // Synthetic envelope: carries exactly the data volume.
            synthetic_bytes += len;
        }
    }
    let region = domain.owner_region(comm.rank());
    let mut io_calls = 0u64;
    if synthetic_bytes > 0 || mine.iter().any(|p| p.payload.data.is_none()) {
        // Synthetic path: one sequential call covering the region's share.
        let len: u64 = mine.iter().map(|p| p.payload.len).sum::<u64>() + synthetic_bytes;
        if len > 0 {
            fh.writev_discard(&Span::new(region.offset, len).to_request())
                .await?;
            io_calls = 1;
        }
    } else {
        // One vectored write over the merged runs; in the usual case the
        // runs tile the region and this is a single sequential call. The
        // runs' ropes are handed to the file store as-is — the received
        // buffers become the file's extents.
        let runs = merge_runs(mine);
        let mut data = BytesList::new();
        for run in &runs {
            data.append(run.payload.data.clone().expect("real path"));
        }
        if !runs.is_empty() {
            fh.writev(&pieces_request(&runs), data).await?;
            io_calls = runs.len() as u64;
        }
    }
    Ok(TwoPhaseStats {
        bytes_sent,
        bytes_received,
        io_calls,
    })
}

/// Split `piece` at stripe-unit boundaries and route each fragment to
/// the aggregator owning the unit's I/O node: node `n` (relative stripe
/// index) belongs to aggregator `n % procs`, so every I/O node has
/// exactly one aggregator.
fn route_by_node(
    striping: &iosim_pfs::Striping,
    procs: usize,
    piece: Piece,
    emit: impl FnMut(usize, Piece),
) {
    split_piece(piece, emit, |off| {
        let unit = off / striping.unit;
        (
            striping.node_of_unit(unit) % procs,
            (unit + 1) * striping.unit,
        )
    });
}

/// Cross-rank batched collective write, the command-queue-aware variant
/// of [`write_collective`]: instead of carving the domain into one even
/// region per rank, each aggregator owns whole **I/O nodes** (relative
/// stripe node `n` belongs to rank `n % procs`) and merges every rank's
/// fragments for its nodes into one vectored request. Each I/O node's
/// command queue is therefore booked exactly **once per collective
/// round**, regardless of how many ranks contributed — the round is also
/// counted on the trace collector's queue counters, so runs can assert
/// the once-per-round invariant.
///
/// Like [`write_collective`], synthetic payloads lose their offsets in
/// transit, so the synthetic path assumes the contributions tile the
/// agreed domain `[lo, hi)`: each aggregator writes its owned stripe
/// units clipped to the domain. Real payloads are reassembled exactly.
///
/// All ranks of `comm` must call this with handles to the **same file**.
pub async fn write_collective_batched(
    comm: &Comm,
    fh: &FileHandle,
    pieces: Vec<Piece>,
) -> Result<TwoPhaseStats, FsError> {
    let (lo, hi) = pieces.iter().fold((u64::MAX, 0u64), |(l, h), p| {
        (l.min(p.offset), h.max(p.end()))
    });
    let Some(domain) = agree_domain(comm, lo.min(hi), hi).await else {
        return Ok(TwoPhaseStats::default());
    };
    let striping = fh.striping();
    let procs = comm.size();
    if comm.rank() == 0 {
        fh.fs().trace().queue().add_collective_round();
    }
    // Phase 1: route fragments to the aggregator owning their I/O node.
    let mut routed = Vec::with_capacity(pieces.len());
    for piece in pieces {
        route_by_node(&striping, procs, piece, |owner, frag| {
            routed.push((owner, frag))
        });
    }
    let to_each = encode_per_dest(procs, routed);
    let bytes_sent: u64 = to_each
        .iter()
        .enumerate()
        .filter(|(d, _)| *d != comm.rank())
        .map(|(_, p)| p.len)
        .sum();
    let received = comm.alltoallv(to_each).await;
    let bytes_received: u64 = received
        .iter()
        .enumerate()
        .filter(|(s, _)| *s != comm.rank())
        .map(|(_, p)| p.len)
        .sum();

    // Phase 2: one vectored write over everything this aggregator owns.
    let mut mine: Vec<Piece> = Vec::new();
    let mut any_synthetic = false;
    for p in received {
        any_synthetic |= !decode_pieces(p, &mut mine);
    }
    let mut io_calls = 0u64;
    if any_synthetic || mine.iter().any(|p| p.payload.data.is_none()) {
        // Synthetic envelope: reconstruct this aggregator's owned stripe
        // units over the dense domain (offsets did not survive transit).
        let mut extents: Vec<(u64, u64)> = Vec::new();
        let first_unit = domain.lo / striping.unit;
        let last_unit = (domain.hi - 1) / striping.unit;
        for u in first_unit..=last_unit {
            if striping.node_of_unit(u) % procs != comm.rank() {
                continue;
            }
            let s = (u * striping.unit).max(domain.lo);
            let e = ((u + 1) * striping.unit).min(domain.hi);
            extents.push((s, e - s));
        }
        if !extents.is_empty() {
            fh.writev_discard(&IoRequest::from_extents(extents)).await?;
            io_calls = 1;
        }
    } else {
        let runs = merge_runs(mine);
        let mut data = BytesList::new();
        for run in &runs {
            data.append(run.payload.data.clone().expect("real path"));
        }
        if !runs.is_empty() {
            fh.writev(&pieces_request(&runs), data).await?;
            io_calls = 1;
        }
    }
    Ok(TwoPhaseStats {
        bytes_sent,
        bytes_received,
        io_calls,
    })
}

/// Clip a piece to the window `[lo, hi)`, if they intersect.
fn clip_piece(p: &Piece, lo: u64, hi: u64) -> Option<Piece> {
    let s = p.offset.max(lo);
    let e = p.end().min(hi);
    if s >= e {
        return None;
    }
    let payload = match &p.payload.data {
        Some(d) => Payload::bytes(d.slice(s - p.offset, e - s)),
        None => Payload::synthetic(e - s),
    };
    Some(Piece { offset: s, payload })
}

/// Bounded-buffer collective write: like [`write_collective`], but no
/// rank ever buffers more than `buffer_bytes` of its conforming region at
/// once. The accessed range is processed in rounds of
/// `ranks × buffer_bytes`; every rank participates in every round (empty
/// contributions included), so the collectives stay aligned.
///
/// This is the PASSION/ROMIO "collective buffer" knob: with a large
/// buffer it degenerates to one round; tiny buffers trade memory for
/// extra exchange and write calls.
pub async fn write_collective_buffered(
    comm: &Comm,
    fh: &FileHandle,
    pieces: Vec<Piece>,
    buffer_bytes: u64,
) -> Result<TwoPhaseStats, FsError> {
    assert!(buffer_bytes > 0, "buffer must be positive");
    let (lo, hi) = pieces.iter().fold((u64::MAX, 0u64), |(l, h), p| {
        (l.min(p.offset), h.max(p.end()))
    });
    let Some(domain) = agree_domain(comm, lo.min(hi), hi).await else {
        return Ok(TwoPhaseStats::default());
    };
    let window = buffer_bytes * comm.size() as u64;
    let rounds = (domain.hi - domain.lo).div_ceil(window);
    let mut total = TwoPhaseStats::default();
    for r in 0..rounds {
        let w_lo = domain.lo + r * window;
        let w_hi = (w_lo + window).min(domain.hi);
        let subset: Vec<Piece> = pieces
            .iter()
            .filter_map(|p| clip_piece(p, w_lo, w_hi))
            .collect();
        let st = write_collective(comm, fh, subset).await?;
        total.bytes_sent += st.bytes_sent;
        total.bytes_received += st.bytes_received;
        total.io_calls += st.io_calls;
    }
    Ok(total)
}

/// Collective read: every rank asks for `wants` spans; owners read their
/// conforming regions with one large call each and ship fragments back.
/// Returns one payload per requested span (real bytes iff the file is
/// stored).
pub async fn read_collective(
    comm: &Comm,
    fh: &FileHandle,
    wants: Vec<Span>,
) -> Result<(Vec<Payload>, TwoPhaseStats), FsError> {
    let (lo, hi) = wants.iter().fold((u64::MAX, 0u64), |(l, h), s| {
        (l.min(s.offset), h.max(s.end()))
    });
    let Some(domain) = agree_domain(comm, lo.min(hi), hi).await else {
        return Ok((Vec::new(), TwoPhaseStats::default()));
    };

    // Tell each owner which sub-spans we need from its region.
    let mut requests: Vec<Vec<Span>> = (0..comm.size()).map(|_| Vec::new()).collect();
    for w in &wants {
        let mut off = w.offset;
        while off < w.end() {
            let owner = domain.owner_of(off);
            let region_end = domain.owner_region(owner).end();
            let take = (w.end() - off).min(region_end - off);
            requests[owner].push(Span::new(off, take));
            off += take;
        }
    }
    let encoded: Vec<Payload> = requests.iter().map(|spans| encode_spans(spans)).collect();
    let incoming = comm.alltoallv(encoded).await;

    // Phase 2 (owner side): read the merged extent of requested sub-spans
    // within my region — one sequential call — then ship fragments back.
    let asked: Vec<Vec<Span>> = incoming.into_iter().map(decode_spans).collect();
    let ext_lo = asked
        .iter()
        .flatten()
        .map(|s| s.offset)
        .min()
        .unwrap_or(u64::MAX);
    let ext_hi = asked.iter().flatten().map(|s| s.end()).max().unwrap_or(0);
    let mut io_calls = 0u64;
    let region_data: Option<Bytes> = if ext_lo < ext_hi {
        io_calls = 1;
        let req = Span::new(ext_lo, ext_hi - ext_lo).to_request();
        match fh.readv(&req).await {
            Ok(d) => Some(d),
            Err(FsError::NotStored(_)) => {
                fh.readv_discard(&req).await?;
                None
            }
            Err(e) => return Err(e),
        }
    } else {
        None
    };

    // Ship back: per requester, one message of its fragments.
    let replies: Vec<Payload> = asked
        .iter()
        .map(|spans| {
            let pieces: Vec<Piece> = spans
                .iter()
                .map(|s| match &region_data {
                    Some(d) => Piece::bytes(
                        s.offset,
                        d.slice((s.offset - ext_lo) as usize, s.len as usize),
                    ),
                    None => Piece::synthetic(s.offset, s.len),
                })
                .collect();
            encode_pieces(pieces.iter())
        })
        .collect();
    let bytes_sent: u64 = replies
        .iter()
        .enumerate()
        .filter(|(d, _)| *d != comm.rank())
        .map(|(_, p)| p.len)
        .sum();
    let got = comm.alltoallv(replies).await;
    let bytes_received: u64 = got
        .iter()
        .enumerate()
        .filter(|(s, _)| *s != comm.rank())
        .map(|(_, p)| p.len)
        .sum();

    // Reassemble the answers per requested span: stitch the fragments'
    // shared views together in offset order, zero-filling any uncovered
    // gap (matching what a direct read of a sparse file would return).
    let mut frags: Vec<Piece> = Vec::new();
    let mut any_synthetic = false;
    for p in got {
        any_synthetic |= !decode_pieces(p, &mut frags);
    }
    frags.sort_by_key(|f| f.offset);
    let out: Vec<Payload> = wants
        .iter()
        .map(|w| {
            if any_synthetic {
                return Payload::synthetic(w.len);
            }
            let mut buf = BytesList::new();
            let mut cursor = w.offset;
            for f in &frags {
                let s = f.offset.max(cursor);
                let e = f.end().min(w.end());
                if s >= e {
                    continue;
                }
                if s > cursor {
                    buf.append(zeros(s - cursor));
                }
                let d = f.payload.data.as_ref().expect("real path");
                buf.append(d.slice(s - f.offset, e - s));
                cursor = e;
            }
            if cursor < w.end() {
                buf.append(zeros(w.end() - cursor));
            }
            Payload::bytes(buf)
        })
        .collect();
    Ok((
        out,
        TwoPhaseStats {
            bytes_sent,
            bytes_received,
            io_calls,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_runs_coalesces_adjacent() {
        let runs = merge_runs(vec![
            Piece::bytes(10, vec![1, 2]),
            Piece::bytes(0, vec![9; 10]),
            Piece::bytes(12, vec![3]),
        ]);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].offset, 0);
        assert_eq!(runs[0].payload.len, 13);
        let d = runs[0].payload.to_bytes();
        assert_eq!(&d[10..], &[1, 2, 3]);
    }

    #[test]
    fn merge_runs_keeps_gaps_apart() {
        let runs = merge_runs(vec![Piece::synthetic(0, 5), Piece::synthetic(10, 5)]);
        assert_eq!(runs.len(), 2);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let pieces = vec![Piece::bytes(3, vec![7, 8]), Piece::bytes(100, vec![9])];
        let p = encode_pieces(pieces.iter());
        let mut back = Vec::new();
        assert!(decode_pieces(p, &mut back));
        assert_eq!(back, pieces);
        // An empty list still travels as a real (header-only) message,
        // built on the shared zero page rather than a fresh buffer.
        iosim_buf::tally::reset();
        let empty = encode_pieces([].iter());
        assert_eq!(empty.len, 8);
        assert_eq!(iosim_buf::tally::snapshot().buffers_allocated, 0);
        assert!(decode_pieces(empty, &mut back));
        assert_eq!(back, pieces);
        // Read requests follow the same rules.
        let spans = [Span::new(0, 4096), Span::new(1 << 40, 7)];
        assert_eq!(decode_spans(encode_spans(&spans)), spans);
        iosim_buf::tally::reset();
        let empty = encode_spans(&[]);
        assert_eq!(empty.len, 8);
        assert_eq!(iosim_buf::tally::snapshot().buffers_allocated, 0);
        assert!(decode_spans(empty).is_empty());
    }

    #[test]
    fn encode_synthetic_preserves_data_length() {
        let pieces = [Piece::synthetic(0, 1000), Piece::synthetic(2000, 500)];
        let p = encode_pieces(pieces.iter());
        assert!(p.data.is_none());
        assert_eq!(p.len, 1500);
        assert!(!decode_pieces(p, &mut Vec::new()));
    }

    #[test]
    fn route_piece_splits_on_region_boundary() {
        let d = Domain {
            lo: 0,
            hi: 100,
            chunk: 25,
        };
        let mut frags = Vec::new();
        route_piece(
            &d,
            Piece::bytes(20, (0..20u8).collect::<Vec<_>>()),
            |owner, frag| frags.push((owner, frag)),
        );
        assert_eq!(frags.len(), 2);
        assert_eq!(frags[0].0, 0);
        assert_eq!(frags[0].1.offset, 20);
        assert_eq!(frags[0].1.payload.len, 5);
        assert_eq!(frags[1].0, 1);
        assert_eq!(frags[1].1.offset, 25);
        assert_eq!(frags[1].1.payload.len, 15);
        assert_eq!(frags[1].1.payload.to_bytes()[0], 5);
    }

    #[test]
    fn clip_piece_slices_data_correctly() {
        let p = Piece::bytes(100, (0..50u8).collect::<Vec<_>>());
        assert_eq!(clip_piece(&p, 0, 100), None);
        assert_eq!(clip_piece(&p, 150, 200), None);
        let c = clip_piece(&p, 110, 130).expect("intersects");
        assert_eq!(c.offset, 110);
        assert_eq!(c.payload.to_bytes(), (10..30u8).collect::<Vec<u8>>());
        // Synthetic clipping preserves length only.
        let s = Piece::synthetic(0, 100);
        let cs = clip_piece(&s, 90, 500).expect("intersects");
        assert_eq!(cs.payload.len, 10);
        assert!(cs.payload.data.is_none());
    }

    #[test]
    fn owner_regions_tile_the_domain() {
        let d = Domain {
            lo: 10,
            hi: 107,
            chunk: 25,
        };
        let mut cursor = 10;
        for r in 0..4 {
            let region = d.owner_region(r);
            assert_eq!(region.offset, cursor);
            cursor = region.end();
        }
        assert_eq!(cursor, 107);
    }
}
