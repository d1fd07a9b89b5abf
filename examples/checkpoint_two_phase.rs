//! Checkpointing a distributed array: direct small writes vs two-phase
//! collective I/O — the AST scenario of the paper's §4.6, usable as a
//! template for any shared-file checkpoint.
//!
//! Sixteen processes hold a 2-D block-decomposed array stored
//! column-major in one shared file. The direct version writes each
//! process's fragment of every column separately (hundreds of small
//! seeks); the collective version exchanges data into conforming regions
//! and writes once per process — and we verify both produce the *same
//! file bytes*.
//!
//! ```text
//! cargo run --release --example checkpoint_two_phase
//! ```

use std::rc::Rc;

use iosim::prelude::*;

const GRID: u64 = 256; // 256×256 f64 array
const PROCS: usize = 16; // 4×4 process grid

fn value(r: u64, c: u64) -> f64 {
    (r * 1000 + c) as f64 * 0.25
}

async fn checkpoint(ctx: AppCtx, collective: bool) -> Vec<u8> {
    let q = (PROCS as f64).sqrt() as u64;
    let (pi, pj) = ((ctx.rank as u64) % q, (ctx.rank as u64) / q);
    let rows = GRID / q;
    let (r0, c0) = (pi * rows, pj * rows);
    let fh = ctx
        .fs
        .open(
            ctx.rank,
            if collective {
                Interface::Passion
            } else {
                Interface::UnixStyle
            },
            "checkpoint",
            Some(CreateOptions {
                stored: true,
                ..Default::default()
            }),
        )
        .await
        .expect("open checkpoint");

    // My fragment of column c: rows [r0, r0+rows), contiguous in the
    // column-major file.
    let fragment = |c: u64| -> (u64, Vec<u8>) {
        let off = (c * GRID + r0) * 8;
        let bytes: Vec<u8> = (r0..r0 + rows)
            .flat_map(|r| value(r, c).to_le_bytes())
            .collect();
        (off, bytes)
    };

    if collective {
        let pieces: Vec<Piece> = (c0..c0 + rows)
            .map(|c| {
                let (off, bytes) = fragment(c);
                Piece::bytes(off, bytes)
            })
            .collect();
        let stats = write_collective(&ctx.comm, &fh, pieces)
            .await
            .expect("collective checkpoint");
        if ctx.rank == 0 {
            println!(
                "  two-phase: rank 0 exchanged {} KB out / {} KB in, {} write call(s)",
                stats.bytes_sent / 1024,
                stats.bytes_received / 1024,
                stats.io_calls
            );
        }
    } else {
        for c in c0..c0 + rows {
            let (off, bytes) = fragment(c);
            fh.seek(off).await;
            fh.write(&bytes).await.expect("write fragment");
        }
    }
    ctx.comm.barrier().await;
    let data = if ctx.rank == 0 {
        let back = fh.read_at(0, GRID * GRID * 8).await.expect("read back");
        back.data.expect("checkpoint is stored").to_vec()
    } else {
        Vec::new()
    };
    fh.close().await;
    data
}

fn run(collective: bool) -> (SimDuration, Vec<u8>) {
    let out: Rc<std::cell::RefCell<Vec<u8>>> = Rc::default();
    let out2 = Rc::clone(&out);
    let res = run_ranks(
        presets::paragon_large()
            .with_compute_nodes(PROCS)
            .with_io_nodes(16),
        PROCS,
        move |ctx| {
            let out = Rc::clone(&out2);
            Box::pin(async move {
                let data = checkpoint(ctx, collective).await;
                if !data.is_empty() {
                    *out.borrow_mut() = data;
                }
            })
        },
    );
    let bytes = out.borrow().clone();
    (res.io_time, bytes)
}

fn main() {
    println!("checkpointing a {GRID}x{GRID} array from {PROCS} processes\n");
    println!("direct (Chameleon-style) small writes:");
    let (t_direct, f_direct) = run(false);
    println!("  I/O time: {t_direct}\n");
    println!("two-phase collective I/O:");
    let (t_coll, f_coll) = run(true);
    println!("  I/O time: {t_coll}\n");
    assert_eq!(f_direct, f_coll, "checkpoint files must be byte-identical");
    println!(
        "files are byte-identical; collective I/O is {:.1}x faster",
        t_direct.as_secs_f64() / t_coll.as_secs_f64()
    );
}
