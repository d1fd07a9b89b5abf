//! Quickstart: build a simulated Paragon, run four processes doing
//! parallel I/O through PFS, and print the Pablo-style trace table.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::rc::Rc;

use iosim::prelude::*;

fn main() {
    // A 56-node Intel Paragon with 4 I/O nodes.
    let cfg = presets::paragon_small().with_io_nodes(4);
    println!("machine: {} ({} I/O nodes)\n", cfg.name, cfg.io_nodes);

    // Build the simulation: machine + file system + 4 processes.
    let mut sim = Sim::new();
    let trace = TraceCollector::new();
    let machine = Machine::new(sim.handle(), cfg);
    let fs = FileSystem::new(Rc::clone(&machine), trace.clone());
    let world = World::new(Rc::clone(&machine), 4);

    for comm in world.comms() {
        let fs = Rc::clone(&fs);
        let machine = Rc::clone(&machine);
        sim.spawn(async move {
            let rank = comm.rank();
            // Each process writes a private 4 MB file in 64 KB records…
            let fh = fs
                .open(
                    rank,
                    Interface::Passion,
                    &format!("data.{rank}"),
                    Some(CreateOptions::default()),
                )
                .await
                .expect("create file");
            for i in 0..64u64 {
                fh.write_at(i * 65536, Payload::synthetic(65536))
                    .await
                    .expect("write");
            }
            fh.flush().await;
            comm.barrier().await;
            // …then re-reads it with double-buffered prefetching while
            // "computing" on each chunk.
            let fh = Rc::new(fh);
            let mut pf = Prefetcher::new(Rc::clone(&fh), 0, 4 << 20, 256 << 10, 2);
            while pf.next().await.expect("prefetch").is_some() {
                machine.compute(2.0e6).await; // 2 MFLOP per chunk
            }
            let st = pf.stats();
            println!(
                "rank {rank}: prefetched {} chunks, waited {}, copied {}",
                st.chunks, st.wait_time, st.copy_time
            );
        });
    }
    let end = sim.run();
    let fs_report = fs.render_report();

    println!("\nvirtual execution time: {end}");
    println!(
        "\n{}",
        trace
            .summary()
            .render("I/O trace (cumulative across ranks)", {
                SimDuration::from_nanos(end.as_nanos() * 4)
            })
    );
    println!(
        "(prefetched reads overlap compute, so cumulative I/O time can \
         exceed 100% of cumulative execution time)"
    );
    println!("\n{}", fs_report);
}
