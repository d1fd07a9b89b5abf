//! Cross-thread determinism stress suite for sharded trace replay.
//!
//! The contract mirrors the app suite (`tests/shard_determinism.rs`)
//! and DESIGN.md §18's partitioned-model caveat: the shard
//! decomposition is fixed by the machine topology, so every worker
//! count must produce bit-identical virtual times, latency
//! distributions, and schedule fingerprints — and a degenerate plan
//! (single I/O node) must reproduce the monolithic oracle exactly,
//! which keeps the monolithic engine the pinned reference. Cross-rank
//! `<-dep` edges in the op-stream trace become cross-shard dependency
//! tokens on the shard-link mailboxes, so this suite is the end-to-end
//! check that the token protocol preserves one schedule at every
//! thread count.
//!
//! Three repetitions per (trace, mode, workers) point matter: a racy
//! mailbox or a lookahead undercut would pass a single comparison with
//! high probability and still trip here.
//!
//! A 1,000-rank strided replay and a 1,000-client open-loop run on 16
//! shards check the same invariance at scale, plus the adaptive
//! lookahead's contract: never more rounds than the static floor.

use iosim::machine::presets;
use iosim::machine::{MachineConfig, MeshDims};
use iosim::simkit::time::SimDuration;
use iosim::workload::{
    parse_any, replay, replay_threaded, replay_threaded_static, run_open_loop_threaded,
    run_open_loop_threaded_static, OpStream, ReplayMode, ReplayReport, ReplaySpec, RunStats,
    SynthSpec, TraceKind, TraceOp,
};

const REPS: usize = 3;
const WORKER_LADDER: [usize; 2] = [2, 4];

/// Legacy 4-column trace: no dependency edges, dep-free fast path.
const LEGACY: &str = include_str!("data/sample_legacy.trace");
/// Extended op-stream trace with cross-rank `<-dep` edges.
const OPSTREAM: &str = include_str!("data/sample_opstream.trace");

fn parse(text: &str) -> OpStream {
    parse_any(text, 42).expect("committed sample trace parses")
}

fn modes() -> [(&'static str, ReplayMode); 3] {
    [
        ("direct", ReplayMode::Direct),
        ("list", ReplayMode::ListIo { batch: 32 }),
        ("twophase", ReplayMode::TwoPhase { window: 32 }),
    ]
}

fn spec_on(machine: MachineConfig, mode: ReplayMode) -> ReplaySpec {
    match mode {
        ReplayMode::Direct => ReplaySpec::direct(machine),
        ReplayMode::ListIo { batch } => ReplaySpec::list_io(machine, batch),
        ReplayMode::TwoPhase { window } => ReplaySpec::two_phase(machine, window),
    }
}

/// SP-2 preset: 4 I/O nodes, so the 4-rank sample traces decompose
/// into a real multi-shard plan.
fn sharded_spec(mode: ReplayMode) -> ReplaySpec {
    spec_on(presets::sp2(), mode)
}

fn assert_matches(tag: &str, r: &ReplayReport, oracle: &ReplayReport) {
    assert_eq!(
        r.stats.exec_time, oracle.stats.exec_time,
        "{tag}: exec_time diverged from the oracle"
    );
    assert_eq!(r.stats.io_time, oracle.stats.io_time, "{tag}: io_time");
    assert_eq!(
        r.stats.cum_io_time, oracle.stats.cum_io_time,
        "{tag}: cumulative io_time"
    );
    assert_eq!(r.stats.io_bytes, oracle.stats.io_bytes, "{tag}: io_bytes");
    assert_eq!(r.stats.io_ops, oracle.stats.io_ops, "{tag}: io_ops");
    assert_eq!(
        r.stats.sched_fingerprint, oracle.stats.sched_fingerprint,
        "{tag}: schedule fingerprint"
    );
    assert_eq!(
        r.latency.render_line(),
        oracle.latency.render_line(),
        "{tag}: latency distribution"
    );
    assert_eq!(r.data_ops, oracle.data_ops, "{tag}: data op count");
    assert_eq!(r.data_bytes, oracle.data_bytes, "{tag}: data bytes");
}

fn assert_trace_is_worker_invariant(name: &str, text: &str) {
    let stream = parse(text);
    for (mode_name, mode) in modes() {
        // The single-worker run of the *sharded* engine is the oracle:
        // same shard decomposition, no host parallelism.
        let oracle = replay_threaded(&stream, &sharded_spec(mode), 1);
        assert!(
            oracle.stats.sync_rounds > 0,
            "{name} mode={mode_name}: sample trace must actually shard on SP-2"
        );
        for workers in WORKER_LADDER {
            for rep in 0..REPS {
                let tag = format!("{name} mode={mode_name} workers={workers} rep={rep}");
                let r = replay_threaded(&stream, &sharded_spec(mode), workers);
                assert_matches(&tag, &r, &oracle);
                assert_eq!(
                    r.stats.sync_rounds, oracle.stats.sync_rounds,
                    "{tag}: adaptive round count must be worker-count-invariant"
                );
                // The static-lookahead engine runs the same schedule
                // through more synchronization rounds — virtual
                // observables must not care.
                let s = replay_threaded_static(&stream, &sharded_spec(mode), workers);
                assert_matches(&format!("{tag} (static)"), &s, &oracle);
                assert!(
                    r.stats.sync_rounds <= s.stats.sync_rounds,
                    "{tag}: adaptive lookahead used more rounds ({}) than static ({})",
                    r.stats.sync_rounds,
                    s.stats.sync_rounds
                );
            }
        }
    }
}

#[test]
fn legacy_trace_replay_is_worker_count_invariant() {
    assert_trace_is_worker_invariant("legacy", LEGACY);
}

#[test]
fn opstream_trace_replay_is_worker_count_invariant() {
    assert_trace_is_worker_invariant("opstream", OPSTREAM);
}

#[test]
fn degenerate_plan_matches_the_monolithic_oracle_exactly() {
    // One I/O node ⇒ single-shard plan ⇒ the threaded entry must fall
    // back to the monolithic engine bit for bit (zero sync rounds, no
    // per-shard memory accounting), at every requested worker count.
    for (name, text) in [("legacy", LEGACY), ("opstream", OPSTREAM)] {
        let stream = parse(text);
        for (mode_name, mode) in modes() {
            let machine = presets::sp2().with_io_nodes(1);
            let oracle = replay(&stream, &spec_on(machine.clone(), mode));
            for workers in [1, 2, 4] {
                let r = replay_threaded(&stream, &spec_on(machine.clone(), mode), workers);
                let tag = format!("{name} mode={mode_name} workers={workers} (degenerate)");
                assert_matches(&tag, &r, &oracle);
                assert_eq!(
                    r.stats.sync_rounds, 0,
                    "{tag}: degenerate plan must not shard"
                );
                assert!(r.stats.shard_mem.is_empty(), "{tag}: no shard accounting");
            }
        }
    }
}

#[test]
fn dep_free_trace_collapses_to_two_rounds() {
    // The legacy trace has no cross-rank edges, so every shard promises
    // "never sends" at build time and the adaptive window runs to the
    // horizon immediately: the whole replay costs at most two rounds,
    // where the static engine needs one round per lookahead window.
    let stream = parse(LEGACY);
    for workers in WORKER_LADDER {
        let adaptive = replay_threaded(&stream, &sharded_spec(ReplayMode::Direct), workers);
        let fixed = replay_threaded_static(&stream, &sharded_spec(ReplayMode::Direct), workers);
        assert!(
            adaptive.stats.sync_rounds <= 2,
            "dep-free replay should finish in <= 2 rounds, took {}",
            adaptive.stats.sync_rounds
        );
        assert!(
            fixed.stats.sync_rounds > adaptive.stats.sync_rounds,
            "static lookahead should need more rounds ({} vs {})",
            fixed.stats.sync_rounds,
            adaptive.stats.sync_rounds
        );
    }
}

#[test]
fn sharded_replay_accounts_per_shard_memory() {
    // Sharded runs charge per-shard footprints; the monolithic oracle
    // reports none. Peak is the worst single shard, so spreading the
    // same trace over more shards (4 I/O nodes vs 2) must not raise it.
    let stream = parse(OPSTREAM);
    let mono = replay(&stream, &sharded_spec(ReplayMode::Direct));
    assert!(mono.stats.shard_mem.is_empty());
    let wide = replay_threaded(&stream, &sharded_spec(ReplayMode::Direct), 4);
    let narrow = replay_threaded(
        &stream,
        &spec_on(presets::sp2().with_io_nodes(2), ReplayMode::Direct),
        4,
    );
    assert!(wide.stats.shard_mem.peak > 0);
    assert!(narrow.stats.shard_mem.peak > 0);
    assert!(
        wide.stats.shard_mem.peak < narrow.stats.shard_mem.peak,
        "per-shard peak must track ranks-per-shard ({} vs {})",
        wide.stats.shard_mem.peak,
        narrow.stats.shard_mem.peak
    );
}

/// Ranks (and clients) of the large-population cases below.
const LARGE_RANKS: usize = 1_000;
/// I/O nodes, hence shards, of the large-population machine.
const LARGE_IO_NODES: usize = 16;

/// The SP-2 preset scaled out to `ranks` compute nodes and 16 I/O
/// nodes. The preset's mesh is sized for its stock partition, so a
/// near-square mesh seats the extra ranks while keeping hop distances
/// (and thus the derived lookahead) representative.
fn large_machine(ranks: usize) -> MachineConfig {
    let cols = ((ranks as f64).sqrt().ceil() as usize).max(1);
    let mut m = presets::sp2()
        .with_compute_nodes(ranks)
        .with_io_nodes(LARGE_IO_NODES);
    m.mesh = MeshDims {
        rows: ranks.div_ceil(cols),
        cols,
    };
    m
}

/// Every rank writes one private 4 KB record into a shared strided
/// extent, then reads its right neighbour's record back. Dep-free.
fn large_strided_replay() -> OpStream {
    let record = 4096u64;
    let write = (0..LARGE_RANKS).map(|r| TraceOp {
        rank: r,
        kind: TraceKind::Write,
        offset: r as u64 * record,
        len: record,
    });
    let read = (0..LARGE_RANKS).map(|r| TraceOp {
        rank: r,
        kind: TraceKind::Read,
        offset: ((r + 1) % LARGE_RANKS) as u64 * record,
        len: record,
    });
    OpStream::from_legacy(&write.chain(read).collect::<Vec<_>>())
}

/// A short Poisson window at about one op per client.
fn large_synth() -> SynthSpec {
    let mut synth = SynthSpec::small(2.0, 4242);
    synth.clients = LARGE_RANKS;
    synth.duration = SimDuration::from_secs_f64(0.5);
    synth.op_bytes = 16 << 10;
    synth.fragments = 1;
    synth.files = 4;
    synth.file_bytes = 16 << 20;
    synth
}

#[test]
fn thousand_rank_runs_are_worker_invariant_and_save_rounds() {
    let spec = ReplaySpec::direct(large_machine(LARGE_RANKS));
    let stream = large_strided_replay();
    let synth = large_synth();
    for name in ["replay", "synth"] {
        let mut first: Option<RunStats> = None;
        for workers in [1, 4] {
            let (adaptive, fixed) = match name {
                "replay" => (
                    replay_threaded(&stream, &spec, workers).stats,
                    replay_threaded_static(&stream, &spec, workers).stats,
                ),
                _ => (
                    run_open_loop_threaded(&synth, &spec, workers).stats,
                    run_open_loop_threaded_static(&synth, &spec, workers).stats,
                ),
            };
            let tag = format!("{name} at {workers} workers");
            // The lookahead window paces synchronization, never the
            // schedule, and may only save rounds.
            assert_eq!(
                adaptive.sched_fingerprint, fixed.sched_fingerprint,
                "{tag}: lookahead policy moved the schedule"
            );
            assert_eq!(adaptive.exec_time, fixed.exec_time, "{tag}: exec_time");
            assert!(adaptive.sync_rounds > 0, "{tag}: did not shard");
            assert!(
                adaptive.sync_rounds <= fixed.sync_rounds,
                "{tag}: adaptive lookahead cost more rounds ({}) than static ({})",
                adaptive.sync_rounds,
                fixed.sync_rounds
            );
            assert!(adaptive.shard_mem.peak > 0, "{tag}: zero per-shard peak");
            match &first {
                None => first = Some(adaptive),
                Some(f) => {
                    assert_eq!(
                        adaptive.sched_fingerprint, f.sched_fingerprint,
                        "{tag}: fingerprint diverges across worker counts"
                    );
                    assert_eq!(
                        adaptive.exec_time, f.exec_time,
                        "{tag}: exec_time diverges across worker counts"
                    );
                }
            }
        }
    }
}
