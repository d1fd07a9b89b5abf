//! The paper's optimizations must not change results, only costs: the
//! optimized and unoptimized I/O paths have to produce byte-identical
//! files and data. These tests drive the full stack (executor → machine →
//! file system → message layer → optimization runtime → application).

use std::rc::Rc;

use iosim::prelude::*;

/// Two-phase collective writes equal direct writes, for an irregular
/// interleaved pattern across ranks (not just the apps' regular ones).
#[test]
fn collective_write_equals_direct_write_for_irregular_pattern() {
    // Pattern: rank r owns every 4th 100-byte record starting at r.
    const RECORDS: u64 = 64;
    let build = |collective: bool| -> Vec<u8> {
        let out: Rc<std::cell::RefCell<Vec<u8>>> = Rc::default();
        let out2 = Rc::clone(&out);
        run_ranks(presets::sp2().with_compute_nodes(4), 4, move |ctx| {
            let out = Rc::clone(&out2);
            Box::pin(async move {
                let fh = ctx
                    .fs
                    .open(
                        ctx.rank,
                        Interface::UnixStyle,
                        "shared",
                        Some(CreateOptions {
                            stored: true,
                            ..Default::default()
                        }),
                    )
                    .await
                    .expect("open");
                let mine: Vec<(u64, Vec<u8>)> = (0..RECORDS)
                    .filter(|k| k % 4 == ctx.rank as u64)
                    .map(|k| {
                        let data: Vec<u8> =
                            (0..100u64).map(|i| ((k * 7 + i) % 251) as u8).collect();
                        (k * 100, data)
                    })
                    .collect();
                if collective {
                    let pieces: Vec<Piece> = mine
                        .into_iter()
                        .map(|(off, d)| Piece::bytes(off, d))
                        .collect();
                    write_collective(&ctx.comm, &fh, pieces)
                        .await
                        .expect("collective");
                } else {
                    for (off, d) in mine {
                        fh.write_at(off, &d).await.expect("direct write");
                    }
                }
                ctx.comm.barrier().await;
                if ctx.rank == 0 {
                    *out.borrow_mut() = fh
                        .read_at(0, RECORDS * 100)
                        .await
                        .expect("read back")
                        .data
                        .expect("shared is stored")
                        .to_vec();
                }
            })
        });
        let data = out.borrow().clone();
        data
    };
    let direct = build(false);
    let collective = build(true);
    assert_eq!(direct.len(), (RECORDS * 100) as usize);
    assert_eq!(direct, collective);
}

/// Bounded-buffer collective writes (multiple rounds) produce the same
/// file as the single-round version and as direct writes.
#[test]
fn buffered_collective_write_matches_direct() {
    use iosim::optim::write_collective_buffered;
    const RECORDS: u64 = 48;
    let build = |buffer: Option<u64>| -> Vec<u8> {
        let out: Rc<std::cell::RefCell<Vec<u8>>> = Rc::default();
        let out2 = Rc::clone(&out);
        run_ranks(presets::sp2().with_compute_nodes(4), 4, move |ctx| {
            let out = Rc::clone(&out2);
            Box::pin(async move {
                let fh = ctx
                    .fs
                    .open(
                        ctx.rank,
                        Interface::Passion,
                        "buffered",
                        Some(CreateOptions {
                            stored: true,
                            ..Default::default()
                        }),
                    )
                    .await
                    .expect("open");
                let mine: Vec<Piece> = (0..RECORDS)
                    .filter(|k| k % 4 == ctx.rank as u64)
                    .map(|k| {
                        let data: Vec<u8> = (0..64u64).map(|i| ((k * 3 + i) % 251) as u8).collect();
                        Piece::bytes(k * 64, data)
                    })
                    .collect();
                match buffer {
                    // Tiny buffer: forces many exchange/write rounds.
                    Some(b) => {
                        let st = write_collective_buffered(&ctx.comm, &fh, mine, b)
                            .await
                            .expect("buffered collective");
                        assert!(st.io_calls > 1, "tiny buffer must need rounds");
                    }
                    None => {
                        for p in mine {
                            fh.write_at(p.offset, p.payload).await.expect("direct");
                        }
                    }
                }
                ctx.comm.barrier().await;
                if ctx.rank == 0 {
                    *out.borrow_mut() = fh
                        .read_at(0, RECORDS * 64)
                        .await
                        .expect("read back")
                        .data
                        .expect("buffered is stored")
                        .to_vec();
                }
            })
        });
        let v = out.borrow().clone();
        v
    };
    let direct = build(None);
    let buffered = build(Some(200)); // ≈3 records per rank per round
    assert_eq!(direct, buffered);
}

/// A rank with nothing to write must not skew the collective domain: with
/// all data far from offset 0, the regions tile the accessed range only.
#[test]
fn empty_ranks_do_not_skew_the_collective_domain() {
    use iosim::optim::write_collective;
    let base = 1u64 << 20;
    let res = run_ranks(presets::sp2().with_compute_nodes(4), 4, move |ctx| {
        Box::pin(async move {
            let fh = ctx
                .fs
                .open(
                    ctx.rank,
                    Interface::Passion,
                    "far",
                    Some(CreateOptions::default()),
                )
                .await
                .expect("open");
            // Rank 0 contributes nothing; ranks 1..4 write 64 KB each in
            // [1 MB, 1 MB + 192 KB).
            let pieces = if ctx.rank == 0 {
                Vec::new()
            } else {
                vec![Piece::synthetic(
                    base + (ctx.rank as u64 - 1) * 65536,
                    65536,
                )]
            };
            write_collective(&ctx.comm, &fh, pieces)
                .await
                .expect("collective");
            ctx.comm.barrier().await;
            if ctx.rank == 0 {
                assert_eq!(fh.size(), base + 3 * 65536);
            }
        })
    });
    // Exactly the contributed bytes were written — nothing near offset 0.
    assert_eq!(res.io_bytes, 3 * 65536);
}

/// Collective reads return exactly the bytes written.
#[test]
fn collective_read_returns_written_bytes() {
    run_ranks(presets::sp2().with_compute_nodes(3), 3, |ctx| {
        Box::pin(async move {
            let fh = ctx
                .fs
                .open(
                    ctx.rank,
                    Interface::Passion,
                    "rc",
                    Some(CreateOptions {
                        stored: true,
                        ..Default::default()
                    }),
                )
                .await
                .expect("open");
            if ctx.rank == 0 {
                let data: Vec<u8> = (0..3000u64).map(|i| (i % 251) as u8).collect();
                fh.write_at(0, &data).await.expect("seed file");
            }
            ctx.comm.barrier().await;
            // Every rank asks for its own interleaved spans.
            let wants: Vec<Span> = (0..5u64)
                .map(|k| Span::new((k * 3 + ctx.rank as u64) * 200, 200))
                .collect();
            let (got, _) = read_collective(&ctx.comm, &fh, wants.clone())
                .await
                .expect("collective read");
            for (w, p) in wants.iter().zip(&got) {
                let bytes = p.data.as_ref().expect("stored read");
                for (i, b) in bytes.iter_bytes().enumerate() {
                    assert_eq!(b, ((w.offset + i as u64) % 251) as u8);
                }
            }
        })
    });
}

/// The BTIO application writes the same solution file with either path,
/// under a ragged (non-dividing) decomposition.
#[test]
fn btio_ragged_decomposition_files_match() {
    use iosim::apps::btio::{run_capture, BtClass, BtioConfig};
    let mk = |optimized: bool| BtioConfig {
        dumps: 2,
        stored: true,
        ..BtioConfig::new(BtClass::Custom(10), 9, optimized) // 10 % 3 != 0
    };
    let (_, a) = run_capture(&mk(false));
    let (_, b) = run_capture(&mk(true));
    assert!(!a.is_empty());
    assert_eq!(a, b);
}

/// AST's shared-file dump matches across paths with an uneven grid.
#[test]
fn ast_files_match_on_uneven_grid() {
    use iosim::apps::ast::{run_capture, AstConfig};
    let mk = |optimized: bool| AstConfig {
        grid: 50, // 50 % 5 == 0 rows? 50/√25=10 per side; uneven vs arrays
        arrays: 3,
        dumps: 2,
        stored: true,
        ..AstConfig::new(25, 16, optimized)
    };
    let (_, a) = run_capture(&mk(false));
    let (_, b) = run_capture(&mk(true));
    assert!(!a.is_empty());
    assert_eq!(a, b);
}

/// Out-of-core array blocks survive arbitrary tilings: writing tiles of
/// one shape and reading another returns the same matrix.
#[test]
fn ooc_array_tiling_is_shape_independent() {
    let mut sim = Sim::new();
    let trace = TraceCollector::new();
    let machine = Machine::new(sim.handle(), presets::paragon_small());
    let fs = FileSystem::new(machine, trace);
    let jh = sim.spawn(async move {
        let a = OocArray::create(
            &fs,
            0,
            Interface::UnixStyle,
            "m",
            12,
            12,
            FileLayout::ColMajor,
            true,
        )
        .await
        .expect("create");
        // Write in 3x4 tiles.
        for r0 in (0..12).step_by(3) {
            for c0 in (0..12).step_by(4) {
                let tile: Vec<f64> = (0..12)
                    .map(|k| {
                        let (i, j) = (k / 4, k % 4);
                        ((r0 + i) * 100 + (c0 + j)) as f64
                    })
                    .collect();
                a.write_block(r0, c0, 3, 4, &tile)
                    .await
                    .expect("write tile");
            }
        }
        // Read in 6x2 tiles and verify.
        for r0 in (0..12).step_by(6) {
            for c0 in (0..12).step_by(2) {
                let tile = a.read_block(r0, c0, 6, 2).await.expect("read tile");
                for (k, v) in tile.iter().enumerate() {
                    let (i, j) = (k as u64 / 2, k as u64 % 2);
                    assert_eq!(*v, ((r0 + i) * 100 + (c0 + j)) as f64);
                }
            }
        }
    });
    sim.run();
    jh.try_take().expect("completed");
}
