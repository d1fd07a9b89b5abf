//! Failure injection: what one slow I/O node does to a striped workload.
//!
//! Round-robin striping couples every multi-stripe operation to the
//! slowest I/O node, so a single degraded node hurts far beyond its share
//! of the aggregate bandwidth — the dark side of the paper's "add more
//! I/O nodes" prescription.
//!
//! ```text
//! cargo run --release --example failure_injection
//! ```

use iosim::prelude::*;

fn run_with_hot_node(speed: f64) -> f64 {
    let mut cfg = presets::paragon_large()
        .with_compute_nodes(8)
        .with_io_nodes(16);
    if speed < 1.0 {
        cfg = cfg.with_degraded_io_node(0, speed);
    }
    let res = iosim::apps::common::run_ranks(cfg, 8, |ctx| {
        Box::pin(async move {
            let fh = ctx
                .fs
                .open(
                    ctx.rank,
                    Interface::Passion,
                    &format!("data.{}", ctx.rank),
                    Some(CreateOptions::default()),
                )
                .await
                .expect("open");
            fh.preallocate(32 << 20);
            // Scan the file twice in 256 KB chunks.
            for _ in 0..2 {
                let mut off = 0u64;
                while off < 32 << 20 {
                    fh.read_at(off, 256 << 10).await.expect("read");
                    off += 256 << 10;
                }
            }
        })
    });
    res.exec_time.as_secs_f64()
}

fn main() {
    println!("8 processes scanning 32 MB files striped over 16 I/O nodes\n");
    let nominal = run_with_hot_node(1.0);
    println!(
        "{:>12} {:>12} {:>10} {:>16}",
        "node speed", "exec (s)", "slowdown", "capacity lost"
    );
    for speed in [1.0, 0.5, 0.25, 0.1] {
        let t = run_with_hot_node(speed);
        println!(
            "{:>12.2} {:>12.2} {:>9.2}x {:>15.1}%",
            speed,
            t,
            t / nominal,
            (1.0 - speed) / 16.0 * 100.0
        );
    }
    println!(
        "\nnote how losing ~6% of aggregate capacity (one node at 10%) costs \
         several times that in wall-clock — striped I/O has no slack for \
         heterogeneity"
    );
}
