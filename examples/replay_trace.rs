//! Replay a recorded I/O trace through the simulator in all three
//! replay modes — "what would each optimization buy my workload?"
//! without touching the application.
//!
//! Uses the committed sample trace in the extended op-stream format
//! (per-rank program order plus cross-rank `<-LABEL` dependency edges),
//! then synthesizes a bigger legacy-format checkpoint to show the two
//! front-ends feed the same engine.
//!
//! ```text
//! cargo run --release --example replay_trace
//! ```

use iosim::machine::presets;
use iosim::workload::{parse_any, replay, synthesize_strided, OpStream, ReplayReport, ReplaySpec};

fn show(name: &str, r: &ReplayReport) {
    println!(
        "{name:>18}: exec {} | {} data ops | {:.2} MB/s | {}",
        r.stats.exec_time,
        r.data_ops,
        r.stats.bandwidth_mb_s(),
        r.latency.render_line(),
    );
}

fn main() {
    // The committed sample: a 4-rank checkpoint dump + readback with
    // cross-rank dependencies (see tests/data/sample_opstream.trace).
    let text = std::fs::read_to_string("tests/data/sample_opstream.trace")
        .expect("run from the repo root: tests/data/sample_opstream.trace");
    let stream = parse_any(&text, 42).expect("parse sample trace");
    let machine = || presets::paragon_small().with_compute_nodes(stream.ranks());
    println!(
        "sample trace: {} ops, {} ranks, {} files, {} KB",
        stream.ops.len(),
        stream.ranks(),
        stream.files.len(),
        stream.data_bytes() / 1024,
    );
    show("direct", &replay(&stream, &ReplaySpec::direct(machine())));
    show(
        "list-I/O",
        &replay(&stream, &ReplaySpec::list_io(machine(), 8)),
    );
    show(
        "two-phase",
        &replay(&stream, &ReplaySpec::two_phase(machine(), 8)),
    );

    // A synthesized 16-rank checkpoint in the legacy 4-column format:
    // both formats land in the same OpStream and replay engine.
    let legacy = synthesize_strided(16, 256, 1024);
    let stream = OpStream::from_legacy(&legacy);
    let machine = || presets::sp2().with_compute_nodes(16);
    println!(
        "\nsynthesized legacy checkpoint: {} ops, 16 ranks, {} KB",
        legacy.len(),
        stream.data_bytes() / 1024,
    );
    let direct = replay(&stream, &ReplaySpec::direct(machine()));
    show("direct", &direct);
    for window in [16, 64, 256] {
        let coll = replay(&stream, &ReplaySpec::two_phase(machine(), window));
        println!(
            "  two-phase (w={window:>3}): exec {} | {:.2} MB/s  ({:.1}x faster)",
            coll.stats.exec_time,
            coll.stats.bandwidth_mb_s(),
            direct.stats.exec_time.as_secs_f64() / coll.stats.exec_time.as_secs_f64(),
        );
    }
    println!("\n(the same comparison runs on real recordings via `iosim replay --trace FILE`)");
}
