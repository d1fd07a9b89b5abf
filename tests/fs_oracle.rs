//! Property tests driving the whole stack against an in-memory oracle:
//! random sequences of writes and reads through the simulated parallel
//! file system must behave exactly like a plain byte vector, regardless
//! of striping, interface, disk path or interleaving across ranks.
//!
//! Every case draws its I/O-queue depth (1 or 8) and its per-node buffer
//! cache (none or 64 KB), so the random mixes run through all three disk
//! paths of the file system: the FIFO reservation path, the command
//! queues and the buffer cache. Vectored operations under the PASSION
//! interface take the list-I/O booking; everything else takes the
//! per-run booking. Cases come from seeded [`SimRng`]s and every failure
//! names its seed.

use std::cell::RefCell;
use std::rc::Rc;

use iosim::prelude::*;

/// An operation in a random program. Vectored extents are in
/// scatter-gather order and may overlap.
#[derive(Clone, Debug)]
enum Op {
    Write { offset: u64, len: u64, fill: u8 },
    Read { offset: u64, len: u64 },
    Writev { extents: Vec<(u64, u64)>, fill: u8 },
    Readv { extents: Vec<(u64, u64)> },
}

const MAX_FILE: u64 = 16_384;

fn draw_extents(rng: &mut SimRng) -> Vec<(u64, u64)> {
    (0..rng.range(2, 6))
        .map(|_| (rng.range(0, MAX_FILE), rng.range(1, 2048)))
        .collect()
}

fn draw_op(rng: &mut SimRng) -> Op {
    match rng.range(0, 4) {
        0 => Op::Write {
            offset: rng.range(0, MAX_FILE),
            len: rng.range(1, 2048),
            fill: rng.range(0, 256) as u8,
        },
        1 => Op::Read {
            offset: rng.range(0, MAX_FILE),
            len: rng.range(1, 2048),
        },
        2 => Op::Writev {
            extents: draw_extents(rng),
            fill: rng.range(0, 256) as u8,
        },
        _ => Op::Readv {
            extents: draw_extents(rng),
        },
    }
}

/// The disk path a machine takes (see `FileSystem::new`): a buffer cache
/// wins over command queues.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DiskPath {
    Fifo,
    CommandQueue,
    Cache,
}

/// Draw the queue depth and cache size, and the disk path they select.
fn draw_disk(rng: &mut SimRng, cfg: MachineConfig) -> (MachineConfig, DiskPath) {
    let depth = if rng.range(0, 2) == 0 { 1 } else { 8 };
    let cached = rng.range(0, 2) == 1;
    let cfg = cfg.with_io_queue_depth(depth);
    if cached {
        (cfg.with_lru_cache(64 << 10), DiskPath::Cache)
    } else if depth > 1 {
        (cfg, DiskPath::CommandQueue)
    } else {
        (cfg, DiskPath::Fifo)
    }
}

/// Check `got` against `want` byte for byte, naming the first byte that
/// differs (a whole-buffer diff would bury it).
fn assert_bytes(got: &[u8], want: &[u8], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
        panic!("{what}: byte {i} is {}, the oracle has {}", got[i], want[i]);
    }
}

/// Apply one write to the oracle.
fn oracle_write(oracle: &mut Vec<u8>, offset: u64, data: &[u8]) {
    let end = offset as usize + data.len();
    if oracle.len() < end {
        oracle.resize(end, 0);
    }
    oracle[offset as usize..end].copy_from_slice(data);
}

#[test]
fn random_io_matches_in_memory_oracle() {
    // Every (disk path, list-I/O booking) pair some case exercised.
    let mut covered: Vec<(DiskPath, bool)> = Vec::new();
    for seed in 0..96u64 {
        let mut rng = SimRng::seed_from(0x0a0c_1e00 + seed);
        let ops: Vec<Op> = (0..rng.range(1, 40)).map(|_| draw_op(&mut rng)).collect();
        let stripe_unit = rng.range(64, 4096);
        let io_nodes = rng.range(1, 6) as usize;
        let iface = if rng.range(0, 2) == 0 {
            Interface::UnixStyle
        } else {
            Interface::Passion
        };
        let (cfg, path) = draw_disk(&mut rng, presets::paragon_small().with_io_nodes(io_nodes));
        let tag = format!(
            "seed {seed}: {path:?}, {iface:?}, {io_nodes} I/O nodes, stripe unit {stripe_unit}"
        );

        let mut sim = Sim::new();
        let machine = Machine::new(sim.handle(), cfg);
        let trace = TraceCollector::new();
        let fs = FileSystem::new(Rc::clone(&machine), trace.clone());
        let tag2 = tag.clone();
        let jh = sim.spawn(async move {
            let tag = tag2;
            let fh = fs
                .open(
                    0,
                    iface,
                    "oracle",
                    Some(CreateOptions {
                        stored: true,
                        stripe_unit: Some(stripe_unit),
                        ..Default::default()
                    }),
                )
                .await
                .expect("open");
            let mut oracle: Vec<u8> = Vec::new();
            // Booked operations: [per-run, list-I/O]. Vectored calls
            // take the list-I/O booking only under PASSION.
            let mut booked = [0u64; 2];
            let vectored = usize::from(iface == Interface::Passion);
            for (step, op) in ops.into_iter().enumerate() {
                let within = |extents: &[(u64, u64)], size: usize| {
                    extents.iter().all(|&(o, l)| o + l <= size as u64)
                };
                match op {
                    Op::Write { offset, len, fill } => {
                        let data = vec![fill; len as usize];
                        fh.write_at(offset, &data[..]).await.expect("write");
                        oracle_write(&mut oracle, offset, &data);
                        booked[0] += 1;
                    }
                    Op::Read { offset, len } => {
                        let got = fh.read_at(offset, len).await;
                        if within(&[(offset, len)], oracle.len()) {
                            assert_bytes(
                                &got.expect("read"),
                                &oracle[offset as usize..(offset + len) as usize],
                                &format!("{tag} step {step}: read [{offset}, +{len})"),
                            );
                            booked[0] += 1;
                        } else {
                            assert!(got.is_err(), "{tag} step {step}: read past EOF");
                        }
                    }
                    Op::Writev { extents, fill } => {
                        // A distinct fill per fragment, so overlaps show
                        // which fragment won.
                        let frags: Vec<(u64, Vec<u8>)> = extents
                            .iter()
                            .enumerate()
                            .map(|(k, &(off, len))| {
                                (off, vec![fill.wrapping_add(k as u8); len as usize])
                            })
                            .collect();
                        let req = IoRequest::from_extents(extents.clone());
                        fh.writev(
                            &req,
                            frags
                                .iter()
                                .flat_map(|(_, d)| d.clone())
                                .collect::<Vec<u8>>(),
                        )
                        .await
                        .expect("writev");
                        // Fragments apply first to last: on overlaps the
                        // last extent's bytes win.
                        for (off, data) in &frags {
                            oracle_write(&mut oracle, *off, data);
                        }
                        booked[vectored] += 1;
                    }
                    Op::Readv { extents } => {
                        let req = IoRequest::from_extents(extents.clone());
                        let got = fh.readv(&req).await;
                        if within(&extents, oracle.len()) {
                            let want: Vec<u8> = extents
                                .iter()
                                .flat_map(|&(o, l)| oracle[o as usize..(o + l) as usize].to_vec())
                                .collect();
                            assert_bytes(
                                &got.expect("readv"),
                                &want,
                                &format!("{tag} step {step}: readv {extents:?}"),
                            );
                            booked[vectored] += 1;
                        } else {
                            assert!(got.is_err(), "{tag} step {step}: readv past EOF");
                        }
                    }
                }
                assert_eq!(fh.size(), oracle.len() as u64, "{tag} step {step}: size");
            }
            booked
        });
        sim.run();
        let [run_ops, list_ops] = jh.try_take().expect("program completed");
        if run_ops > 0 {
            covered.push((path, false));
        }
        if list_ops > 0 {
            covered.push((path, true));
        }

        // The drawn disk path is the one that serviced the program (a
        // program whose every read fell past EOF booked nothing).
        if run_ops + list_ops == 0 {
            continue;
        }
        let bookings = trace.queue().snapshot().bookings;
        let cache = trace.cache().snapshot();
        let cache_traffic = cache.hits + cache.misses + cache.writes_absorbed;
        let fifo_requests: u64 = (0..io_nodes)
            .map(|i| machine.io_queue(i).stats().requests)
            .sum();
        match path {
            DiskPath::CommandQueue => assert!(bookings > 0, "{tag}: no command-queue bookings"),
            DiskPath::Cache => {
                assert_eq!(bookings, 0, "{tag}: command queue used");
                assert!(cache_traffic > 0, "{tag}: cache unused");
            }
            DiskPath::Fifo => {
                assert_eq!(bookings, 0, "{tag}: command queue used");
                assert_eq!(cache_traffic, 0, "{tag}: cache used");
                assert!(fifo_requests > 0, "{tag}: no FIFO reservations");
            }
        }
    }
    for path in [DiskPath::Fifo, DiskPath::CommandQueue, DiskPath::Cache] {
        for list in [false, true] {
            assert!(
                covered.contains(&(path, list)),
                "no drawn case ran {path:?} with list-I/O booking {list}"
            );
        }
    }
}

#[test]
fn concurrent_writers_to_disjoint_regions_compose() {
    for seed in 0..32u64 {
        let mut rng = SimRng::seed_from(0x0a0c_2e00 + seed);
        let region = rng.range(512, 4096);
        let ranks = rng.range(2, 6) as usize;
        let salt = rng.range(0, 256) as u8;
        let (cfg, path) = draw_disk(&mut rng, presets::paragon_small());
        let pattern = move |r: usize, i: u64| (i as u8) ^ (r as u8) ^ salt;

        let mut sim = Sim::new();
        let machine = Machine::new(sim.handle(), cfg);
        let fs = FileSystem::new(machine, TraceCollector::new());
        let h = sim.handle();
        let writers: Vec<_> = (0..ranks)
            .map(|r| {
                let fs = Rc::clone(&fs);
                async move {
                    let fh = fs
                        .open(
                            r,
                            Interface::Passion,
                            "shared",
                            Some(CreateOptions {
                                stored: true,
                                ..Default::default()
                            }),
                        )
                        .await
                        .expect("open");
                    let data: Vec<u8> = (0..region).map(|i| pattern(r, i)).collect();
                    fh.write_at(r as u64 * region, data).await.expect("write");
                }
            })
            .collect();
        let jh = sim.spawn(async move {
            join_all(&h, writers).await;
            let fh = fs
                .open(0, Interface::Passion, "shared", None)
                .await
                .expect("reopen");
            fh.read_at(0, ranks as u64 * region)
                .await
                .expect("read all")
        });
        sim.run();
        let all = jh.try_take().expect("completed");
        for r in 0..ranks {
            for i in 0..region {
                assert_eq!(
                    all[(r as u64 * region + i) as usize],
                    pattern(r, i),
                    "seed {seed} ({path:?}): rank {r} byte {i}"
                );
            }
        }
    }
}

#[test]
fn stripe_groups_confine_traffic_to_their_nodes() {
    for seed in 0..64u64 {
        let mut rng = SimRng::seed_from(0x0a0c_3e00 + seed);
        let stripe_factor = rng.range(1, 5) as usize;
        let ops: Vec<(u64, u64)> = (0..rng.range(1, 12))
            .map(|_| (rng.range(0, 1_000_000), rng.range(1, 100_000)))
            .collect();
        let mut sim = Sim::new();
        let machine = Machine::new(sim.handle(), presets::paragon_small().with_io_nodes(6));
        let fs = FileSystem::new(Rc::clone(&machine), TraceCollector::new());
        let jh = sim.spawn(async move {
            let fh = fs
                .open(
                    0,
                    Interface::Passion,
                    "grouped",
                    Some(CreateOptions {
                        stripe_factor: Some(stripe_factor),
                        ..Default::default()
                    }),
                )
                .await
                .expect("open");
            for (offset, len) in ops {
                fh.write_discard_at(offset, len).await.expect("write");
            }
        });
        sim.run();
        jh.try_take().expect("completed");
        let busy_nodes = (0..6)
            .filter(|&i| machine.io_queue(i).stats().requests > 0)
            .count();
        assert!(
            busy_nodes <= stripe_factor,
            "seed {seed}: traffic leaked outside the stripe group: \
             {busy_nodes} > {stripe_factor}"
        );
    }
}

#[test]
fn two_phase_random_pieces_equal_direct() {
    for seed in 0..24u64 {
        let mut rng = SimRng::seed_from(0x0a0c_4e00 + seed);
        let piece_lens: Vec<u64> = (0..rng.range(4, 16)).map(|_| rng.range(1, 300)).collect();
        let ranks = rng.range(2, 5) as usize;
        // Depth 8 sends the collective through its batched variant.
        let depth = if rng.range(0, 2) == 0 { 1 } else { 8 };
        // Deal the random-length contiguous pieces to ranks round-robin;
        // both write paths must produce the same file.
        let offsets: Vec<u64> = piece_lens
            .iter()
            .scan(0u64, |acc, &l| {
                let o = *acc;
                *acc += l;
                Some(o)
            })
            .collect();
        let total: u64 = piece_lens.iter().sum();
        let build = |collective: bool| -> Vec<u8> {
            let out: Rc<RefCell<Vec<u8>>> = Rc::default();
            let out2 = Rc::clone(&out);
            let lens = piece_lens.clone();
            let offs = offsets.clone();
            run_ranks(
                presets::sp2()
                    .with_compute_nodes(ranks)
                    .with_io_queue_depth(depth),
                ranks,
                move |ctx| {
                    let lens = lens.clone();
                    let offs = offs.clone();
                    let out = Rc::clone(&out2);
                    Box::pin(async move {
                        let fh = ctx
                            .fs
                            .open(
                                ctx.rank,
                                Interface::UnixStyle,
                                "tp",
                                Some(CreateOptions {
                                    stored: true,
                                    ..Default::default()
                                }),
                            )
                            .await
                            .expect("open");
                        let mine: Vec<(u64, Vec<u8>)> = lens
                            .iter()
                            .zip(&offs)
                            .enumerate()
                            .filter(|(k, _)| k % ctx.comm.size() == ctx.rank)
                            .map(|(k, (&l, &o))| {
                                (
                                    o,
                                    (0..l).map(|i| ((k as u64 * 13 + i) % 251) as u8).collect(),
                                )
                            })
                            .collect();
                        if collective {
                            let pieces =
                                mine.into_iter().map(|(o, d)| Piece::bytes(o, d)).collect();
                            write_collective(&ctx.comm, &fh, pieces)
                                .await
                                .expect("collective");
                        } else {
                            for (o, d) in mine {
                                fh.write_at(o, d).await.expect("direct");
                            }
                        }
                        ctx.comm.barrier().await;
                        if ctx.rank == 0 {
                            *out.borrow_mut() =
                                fh.read_at(0, fh.size()).await.expect("read back").to_vec();
                        }
                    })
                },
            );
            let v = out.borrow().clone();
            v
        };
        let direct = build(false);
        let collective = build(true);
        let tag = format!("seed {seed}: {ranks} ranks, depth {depth}, pieces {piece_lens:?}");
        assert_eq!(direct.len() as u64, total, "{tag}");
        assert_bytes(&collective, &direct, &tag);
    }
}
