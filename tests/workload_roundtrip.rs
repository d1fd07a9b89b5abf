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

/// One replay pin: (sample, mode, exec ns, schedule fingerprint,
/// latency p50 ns, latency p99 ns).
type ReplayPin = (&'static str, &'static str, u64, u64, u64, u64);

/// Exact virtual results of every committed sample in every replay mode
/// on `paragon-small`, with the CLI's defaults (seed 42 for the Darshan
/// expansion, batch 32). The exec times match `iosim replay --machine
/// paragon-small --mode MODE` to the printed microsecond.
#[rustfmt::skip]
const REPLAY_PINS: &[ReplayPin] = &[
    ("sample_legacy.trace", "direct", 236_257_400, 4432374782571456065, 31_457_279, 55_151_600),
    ("sample_legacy.trace", "list", 253_137_800, 1195689216268401505, 71_303_167, 122_185_200),
    ("sample_legacy.trace", "twophase", 297_961_100, 10130816903833188069, 237_855_100, 237_855_100),
    ("sample_opstream.trace", "direct", 432_283_000, 13880452990023277027, 32_505_855, 55_151_600),
    ("sample_opstream.trace", "list", 485_695_000, 6966242306973824163, 71_303_167, 122_185_200),
    ("sample_opstream.trace", "twophase", 361_663_400, 10925653804184424800, 209_715_199, 243_587_200),
    ("sample_darshan.txt", "direct", 5_499_045_800, 11909008687403224289, 54_525_951, 158_496_000),
    ("sample_darshan.txt", "list", 1_769_410_200, 17251385368715662305, 88_080_383, 1_183_123_800),
    ("sample_darshan.txt", "twophase", 2_168_657_900, 17471764550705017604, 176_160_767, 1_813_151_200),
];

fn replay_sample(name: &str, mode: &str) -> iosim::workload::ReplayReport {
    let stream = parse_any(&sample(name), 42).expect("parse sample");
    let machine = presets::paragon_small().with_compute_nodes(stream.ranks().max(1));
    let spec = match mode {
        "direct" => ReplaySpec::direct(machine),
        "list" => ReplaySpec::list_io(machine, 32),
        "twophase" => ReplaySpec::two_phase(machine, 32),
        other => unreachable!("mode {other}"),
    };
    replay(&stream, &spec)
}

#[test]
fn replay_virtual_results_are_pinned() {
    let mut got = Vec::new();
    for name in [
        "sample_legacy.trace",
        "sample_opstream.trace",
        "sample_darshan.txt",
    ] {
        for mode in ["direct", "list", "twophase"] {
            let r = replay_sample(name, mode);
            got.push((
                name,
                mode,
                r.stats.exec_time.0,
                r.stats.sched_fingerprint,
                r.latency.p50(),
                r.latency.p99(),
            ));
        }
    }
    assert_eq!(got, REPLAY_PINS, "actual pins:\n{got:#?}");
}

/// (mode, exec ns, schedule fingerprint, latency p50 ns, latency p99 ns,
/// completed ops).
type OpenLoopPin = (&'static str, u64, u64, u64, u64, u64);

/// Exact virtual results of one seeded open-loop run on an SP-2 with a
/// 4 MB-per-node LRU cache, issued directly and as list I/O.
#[rustfmt::skip]
const OPEN_LOOP_PINS: &[OpenLoopPin] = &[
    ("direct", 1_146_773_462, 13116461337768073174, 68_735_378, 68_735_378, 95),
    ("list", 1_061_560_287, 16932205681200013718, 23_522_203, 23_522_203, 95),
];

#[test]
fn open_loop_virtual_results_are_pinned() {
    let mut synth = SynthSpec::small(8.0, 1234);
    synth.clients = 12;
    let machine = || presets::sp2().with_lru_cache(4 << 20);
    let mut got = Vec::new();
    for (mode, spec) in [
        ("direct", ReplaySpec::direct(machine())),
        ("list", ReplaySpec::list_io(machine(), 8)),
    ] {
        let r = run_open_loop(&synth, &spec);
        got.push((
            mode,
            r.stats.exec_time.0,
            r.stats.sched_fingerprint,
            r.latency.p50(),
            r.latency.p99(),
            r.completed_ops,
        ));
    }
    assert_eq!(got, OPEN_LOOP_PINS, "actual pins:\n{got:#?}");
}
