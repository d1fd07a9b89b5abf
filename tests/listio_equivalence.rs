//! The vectored list-I/O path is an *optimization*, not a semantic
//! change: `readv`/`writev` over any extent list must move exactly the
//! bytes a per-fragment `read_at`/`write_at` loop would move, and under
//! the PASSION interface it must never be slower than that loop (the
//! whole point of charging interface overhead once per request instead
//! of once per fragment). Under Unix-style interfaces the vectored call
//! degenerates to the fragment loop and must cost *exactly* the same.
//!
//! These are property-style checks over random disjoint strided
//! patterns drawn from the in-tree deterministic [`SimRng`].

use std::rc::Rc;

use iosim::prelude::*;
use iosim_machine::presets;
use iosim_trace::TraceCollector;

fn fresh_fs(sim: &Sim) -> Rc<FileSystem> {
    let machine = Machine::new(sim.handle(), presets::paragon_small());
    FileSystem::new(machine, TraceCollector::new())
}

/// A random list of disjoint, increasing extents: random fragment
/// lengths with random (possibly zero, i.e. adjacent) gaps between them.
fn random_pattern(rng: &mut SimRng) -> IoRequest {
    let count = rng.range(2, 12);
    let mut extents = Vec::new();
    let mut off = rng.range(0, 4096);
    for _ in 0..count {
        let len = rng.range(64, 4096);
        extents.push((off, len));
        off += len + rng.range(0, 2048);
    }
    IoRequest::from_extents(extents)
}

/// Deterministic fill bytes for the backing file covering `[0, end)`.
fn fill_bytes(seed: u64, end: u64) -> Vec<u8> {
    let mut data = vec![0u8; end as usize];
    SimRng::seed_from(seed).fill_bytes(&mut data);
    data
}

/// `len` bytes from `bytes()` for a stored file, or a synthetic payload
/// of `len` bytes.
fn payload(stored: bool, len: u64, bytes: impl FnOnce() -> Vec<u8>) -> Payload {
    if stored {
        Payload::bytes(bytes())
    } else {
        Payload::synthetic(len)
    }
}

/// The bytes a read returned: all of them from a stored file, none from
/// a synthetic one.
fn content(read: Payload, stored: bool) -> Vec<u8> {
    assert_eq!(
        read.data.is_some(),
        stored,
        "a read carries bytes iff the file is stored"
    );
    read.data.map(|d| d.to_vec()).unwrap_or_default()
}

/// Read `req` from a file pre-filled with `fill_bytes(seed, ..)`,
/// either as one vectored request or as a per-fragment loop. Returns
/// the bytes read and the simulated time the read portion took.
fn timed_read(
    iface: Interface,
    stored: bool,
    vectored: bool,
    req: &IoRequest,
    seed: u64,
) -> (Vec<u8>, SimDuration) {
    let req = req.clone();
    let mut sim = Sim::new();
    let fs = fresh_fs(&sim);
    let h = sim.handle();
    let jh = sim.spawn(async move {
        let opts = CreateOptions {
            stored,
            ..Default::default()
        };
        let fh = fs.open(0, iface, "f", Some(opts)).await.unwrap();
        let fill = payload(stored, req.end(), || fill_bytes(seed, req.end()));
        fh.write_at(0, fill).await.unwrap();
        let t0 = h.now();
        let mut got = Vec::new();
        if vectored {
            got = content(fh.readv(&req).await.unwrap(), stored);
        } else {
            for &(off, len) in req.extents() {
                got.extend(content(fh.read_at(off, len).await.unwrap(), stored));
            }
        }
        (got, h.now() - t0)
    });
    sim.run();
    jh.try_take().expect("read task completed")
}

/// Write random payload bytes over `req`, vectored or fragment-by-
/// fragment, into a zeroed file. Returns the whole file's final
/// contents (stored files) and the simulated time of the write portion.
fn timed_write(
    iface: Interface,
    stored: bool,
    vectored: bool,
    req: &IoRequest,
    seed: u64,
) -> (Vec<u8>, SimDuration) {
    let req = req.clone();
    let mut sim = Sim::new();
    let fs = fresh_fs(&sim);
    let h = sim.handle();
    let jh = sim.spawn(async move {
        let opts = CreateOptions {
            stored,
            ..Default::default()
        };
        let fh = fs.open(0, iface, "f", Some(opts)).await.unwrap();
        // Zero the full range first so both styles read back a fully
        // defined file afterwards.
        let zeros = payload(stored, req.end(), || vec![0u8; req.end() as usize]);
        fh.write_at(0, zeros).await.unwrap();
        let data = payload(stored, req.total_bytes(), || {
            fill_bytes(seed, req.total_bytes())
        });
        let t0 = h.now();
        if vectored {
            fh.writev(&req, data).await.unwrap();
        } else {
            let mut cursor = 0;
            for &(off, len) in req.extents() {
                fh.write_at(off, data.slice(cursor, len)).await.unwrap();
                cursor += len;
            }
        }
        let elapsed = h.now() - t0;
        let file = content(fh.read_at(0, req.end()).await.unwrap(), stored);
        (file, elapsed)
    });
    sim.run();
    jh.try_take().expect("write task completed")
}

/// One PASSION read or write (after a write that sizes the file) of
/// `req` on a fresh `cfg` machine, as one vectored call or as one
/// `read_at`/`write_at` per extent. Returns the run's end instant and
/// its trace rows as `(count, time, bytes)` per op kind.
fn traced_passion_op(
    cfg: MachineConfig,
    write: bool,
    vectored: bool,
    req: &IoRequest,
) -> (SimTime, Vec<(u64, SimDuration, u64)>) {
    let req = req.clone();
    let mut sim = Sim::new();
    let trace = TraceCollector::new();
    let fs = FileSystem::new(Machine::new(sim.handle(), cfg), trace.clone());
    let jh = sim.spawn(async move {
        let opts = CreateOptions::default();
        let fh = fs
            .open(0, Interface::Passion, "f", Some(opts))
            .await
            .unwrap();
        fh.write_at(0, Payload::synthetic(req.end())).await.unwrap();
        match (write, vectored) {
            (false, true) => {
                fh.readv(&req).await.unwrap();
            }
            (true, true) => {
                let data = Payload::synthetic(req.total_bytes());
                fh.writev(&req, data).await.unwrap();
            }
            (false, false) => {
                for &(off, len) in req.extents() {
                    fh.read_at(off, len).await.unwrap();
                }
            }
            (true, false) => {
                for &(off, len) in req.extents() {
                    fh.write_at(off, Payload::synthetic(len)).await.unwrap();
                }
            }
        }
    });
    let end = sim.run();
    jh.try_take().expect("op task completed");
    let rows = trace.summary().rows;
    (
        end,
        rows.iter().map(|r| (r.count, r.time, r.bytes)).collect(),
    )
}

/// `readv` returns byte-for-byte what a fragment loop returns — which
/// is itself byte-for-byte the pattern's slices of the backing file —
/// under both the list-I/O (PASSION) and degenerate (Unix) interfaces.
#[test]
fn readv_is_byte_identical_to_the_fragment_loop() {
    let mut rng = SimRng::seed_from(0x11510);
    for case in 0..6u64 {
        let req = random_pattern(&mut rng);
        let file = fill_bytes(case, req.end());
        let expected: Vec<u8> = req
            .extents()
            .iter()
            .flat_map(|&(off, len)| file[off as usize..(off + len) as usize].to_vec())
            .collect();
        for iface in [Interface::Passion, Interface::UnixStyle] {
            let (vec_bytes, _) = timed_read(iface, true, true, &req, case);
            let (frag_bytes, _) = timed_read(iface, true, false, &req, case);
            assert_eq!(vec_bytes, expected, "case {case} {iface:?} vectored");
            assert_eq!(frag_bytes, expected, "case {case} {iface:?} fragment loop");
        }
    }
}

/// `writev` leaves the file byte-for-byte identical to a fragment loop
/// writing the same payload slices at the same offsets.
#[test]
fn writev_is_byte_identical_to_the_fragment_loop() {
    let mut rng = SimRng::seed_from(0xbeef);
    for case in 0..6u64 {
        let req = random_pattern(&mut rng);
        for iface in [Interface::Passion, Interface::UnixStyle] {
            let (vec_file, _) = timed_write(iface, true, true, &req, case);
            let (frag_file, _) = timed_write(iface, true, false, &req, case);
            assert_eq!(vec_file, frag_file, "case {case} {iface:?}");
            assert_eq!(vec_file.len() as u64, req.end());
        }
    }
}

/// Under PASSION, list-I/O is never slower than the fragment loop, and
/// strictly faster whenever there is more than one fragment — on stored
/// files, for both reads and writes.
#[test]
fn passion_listio_is_no_slower_on_stored_files() {
    let mut rng = SimRng::seed_from(0x9a551);
    for case in 0..6u64 {
        let req = random_pattern(&mut rng);
        let (_, t_vec_r) = timed_read(Interface::Passion, true, true, &req, case);
        let (_, t_frag_r) = timed_read(Interface::Passion, true, false, &req, case);
        let (_, t_vec_w) = timed_write(Interface::Passion, true, true, &req, case);
        let (_, t_frag_w) = timed_write(Interface::Passion, true, false, &req, case);
        assert!(
            t_vec_r <= t_frag_r,
            "case {case} read: {t_vec_r} > {t_frag_r}"
        );
        assert!(
            t_vec_w <= t_frag_w,
            "case {case} write: {t_vec_w} > {t_frag_w}"
        );
        if req.fragments() > 1 {
            assert!(t_vec_r < t_frag_r, "case {case} read not strictly faster");
            assert!(t_vec_w < t_frag_w, "case {case} write not strictly faster");
        }
    }
}

/// The same holds on synthetic (discard) files: the cost model does not
/// depend on whether bytes are materialized.
#[test]
fn passion_listio_is_no_slower_on_synthetic_files() {
    let mut rng = SimRng::seed_from(0x5f9e);
    for case in 0..6u64 {
        let req = random_pattern(&mut rng);
        let (_, t_vec_r) = timed_read(Interface::Passion, false, true, &req, case);
        let (_, t_frag_r) = timed_read(Interface::Passion, false, false, &req, case);
        let (_, t_vec_w) = timed_write(Interface::Passion, false, true, &req, case);
        let (_, t_frag_w) = timed_write(Interface::Passion, false, false, &req, case);
        assert!(
            t_vec_r <= t_frag_r,
            "case {case} read: {t_vec_r} > {t_frag_r}"
        );
        assert!(
            t_vec_w <= t_frag_w,
            "case {case} write: {t_vec_w} > {t_frag_w}"
        );
        if req.fragments() > 1 {
            assert!(t_vec_r < t_frag_r, "case {case} read not strictly faster");
            assert!(t_vec_w < t_frag_w, "case {case} write not strictly faster");
        }
    }
}

/// Under a Unix-style interface the vectored call *is* the fragment
/// loop: simulated time matches exactly, fragment by fragment.
#[test]
fn unix_style_vectored_calls_cost_exactly_the_fragment_loop() {
    let mut rng = SimRng::seed_from(0x0eu64);
    for case in 0..4u64 {
        let req = random_pattern(&mut rng);
        let (_, t_vec_r) = timed_read(Interface::UnixStyle, true, true, &req, case);
        let (_, t_frag_r) = timed_read(Interface::UnixStyle, true, false, &req, case);
        let (_, t_vec_w) = timed_write(Interface::UnixStyle, true, true, &req, case);
        let (_, t_frag_w) = timed_write(Interface::UnixStyle, true, false, &req, case);
        assert_eq!(t_vec_r, t_frag_r, "case {case} read");
        assert_eq!(t_vec_w, t_frag_w, "case {case} write");
    }
}

/// The constructors' extent math holds for the regular patterns the
/// applications use: a strided request is exactly its fragment list.
#[test]
fn strided_requests_behave_like_their_explicit_extent_lists() {
    let mut rng = SimRng::seed_from(0x57de);
    for case in 0..4u64 {
        let count = rng.range(2, 8);
        let len = rng.range(128, 2048);
        let stride = len + rng.range(64, 4096);
        let start = rng.range(0, 8192);
        let strided = IoRequest::strided(start, len, stride, count);
        let explicit =
            IoRequest::from_extents((0..count).map(|k| (start + k * stride, len)).collect());
        assert_eq!(strided.extents(), explicit.extents());
        let (a, ta) = timed_read(Interface::Passion, true, true, &strided, case);
        let (b, tb) = timed_read(Interface::Passion, true, true, &explicit, case);
        assert_eq!(a, b, "case {case}");
        assert_eq!(ta, tb, "case {case}");
    }
    // Adjacent fragments coalesce into one extent, and that list request
    // costs exactly the contiguous op on the extent, on every disk path:
    // same end instant, same trace rows.
    let adjacent = IoRequest::strided(4096, 16 << 10, 16 << 10, 8);
    let whole = IoRequest::from_extents(vec![(4096, 128 << 10)]);
    assert_eq!(adjacent.coalesced(), whole.extents());
    let fifo = presets::paragon_small().with_io_nodes(4);
    for (path, cfg) in [
        ("FIFO", fifo.clone()),
        ("depth 8", fifo.clone().with_io_queue_depth(8)),
        ("cached", fifo.with_lru_cache(1 << 20)),
    ] {
        for write in [false, true] {
            let list = traced_passion_op(cfg.clone(), write, true, &adjacent);
            let contiguous = traced_passion_op(cfg.clone(), write, false, &whole);
            assert_eq!(list, contiguous, "{path}, write {write}");
        }
    }
}
