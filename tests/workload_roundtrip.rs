//! Workload-subsystem integration gates over the *committed* sample
//! traces: format round-trips, deterministic expansion, bit-identical
//! generator runs, and the three replay modes all moving the same
//! bytes. These pin the "bring your own workload" contract end to end —
//! the files under `tests/data/` are the ones `verify.sh` replays.

use iosim::machine::presets;
use iosim::workload::{
    parse_any, parse_opstream, render_opstream, replay, run_open_loop, ReplaySpec, SynthSpec,
};

fn sample(name: &str) -> String {
    let path = format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn sample_opstream_roundtrips_identically() {
    let stream = parse_any(&sample("sample_opstream.trace"), 0).expect("parse sample");
    let rendered = render_opstream(&stream);
    let again = parse_opstream(&rendered).expect("parse rendered");
    assert_eq!(stream, again, "parse -> render -> parse must be identity");
    assert_eq!(stream.ranks(), 4);
    assert!(stream.has_deps(), "sample carries cross-rank dependencies");
}

#[test]
fn sample_darshan_expands_deterministically() {
    let text = sample("sample_darshan.txt");
    let a = parse_any(&text, 99).expect("expand darshan");
    let b = parse_any(&text, 99).expect("expand darshan again");
    assert_eq!(a, b, "same seed must expand bit-identically");
    let c = parse_any(&text, 100).expect("expand with another seed");
    assert_ne!(a, c, "different seeds draw different offsets");
    // The histograms pin the totals regardless of seed.
    assert_eq!(a.data_ops(), c.data_ops());
    assert_eq!(a.data_bytes(), c.data_bytes());
}

#[test]
fn three_modes_replay_the_committed_sample() {
    let stream = parse_any(&sample("sample_opstream.trace"), 0).expect("parse sample");
    let machine = || presets::paragon_small().with_compute_nodes(stream.ranks());
    let direct = replay(&stream, &ReplaySpec::direct(machine()));
    let list = replay(&stream, &ReplaySpec::list_io(machine(), 8));
    let two = replay(&stream, &ReplaySpec::two_phase(machine(), 8));
    for r in [&direct, &list, &two] {
        assert_eq!(r.data_ops, 14);
        assert_eq!(r.data_bytes, stream.data_bytes());
        assert_eq!(r.latency.count(), 14, "every data op records a latency");
    }
}

#[test]
fn open_loop_generator_is_bit_deterministic() {
    let mut synth = SynthSpec::small(8.0, 1234);
    synth.clients = 12;
    let spec = ReplaySpec::direct(presets::paragon_small());
    let a = run_open_loop(&synth, &spec);
    let b = run_open_loop(&synth, &spec);
    assert_eq!(a.stats.sched_fingerprint, b.stats.sched_fingerprint);
    assert_eq!(a.completed_ops, b.completed_ops);
    assert_eq!(a.latency.p99(), b.latency.p99());
    // A different seed must actually change the schedule.
    synth.seed = 4321;
    let c = run_open_loop(&synth, &spec);
    assert_ne!(a.stats.sched_fingerprint, c.stats.sched_fingerprint);
}
