#!/usr/bin/env bash
# Repo verification gate. Runs the tier-1 check from ROADMAP.md plus a
# clippy pass (deny warnings) over the workspace. Fully offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "== tier-1: release build =="
cargo build --release --offline

echo "== tier-1: tests (root package) =="
cargo test -q --offline

echo "== rustfmt (check only) =="
cargo fmt --all -- --check

echo "== clippy (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== workspace tests =="
cargo test -q --offline --workspace

echo "== perfbench smoke (every job repeats the warm-up job exactly) =="
# The benchmark package has its own workspace; its tests run each
# workload briefly and fail when any job's simulated results, work
# counts or data-plane tallies differ from the warm-up job's, so a
# hot-path change that makes a run depend on host state (a cache that
# survives between jobs, say) fails here rather than only under the
# benchmark gate.
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "== scheduler determinism (committed schedule oracles) =="
# Every row of the snapshot matrix must reproduce its committed virtual
# times, poll counts and schedule fingerprints.
cargo test -q --offline --test sched_determinism

echo "== advisor determinism (IOSIM_THREADS=1 and =4) =="
# Batch-advisor reports are pure functions of (query set, scale, memo
# history): the suite FNV-pins the rendered bytes and must pass with
# the evaluation fan-out pinned serial and pinned to four threads.
IOSIM_THREADS=1 cargo test -q --offline --test advisor_determinism
IOSIM_THREADS=4 cargo test -q --offline --test advisor_determinism

echo "== advisor sweep smoke (8-config grid, dedup + memo accounting) =="
# A sampled sweep draws 16 queries from an 8-point grid: the report
# must show all 16 admitted, at most 8 simulated, and the memo counters
# must reconcile (misses = unique, everything else dedup'd). Greps run
# against stdout only — the deterministic half of the output.
out="$(cargo run --release --offline -q --bin iosim -- \
  sweep --workload synth --cache 0,2 --queue-depth 1,8 --io-nodes 2,4 \
  --sample 16 --seed 7 --scale 0.25 2>/dev/null)"
echo "$out" | grep -E "^batch scale=0.25 queries=16 unique=[1-8] " >/dev/null || {
  echo "sweep smoke: missing or malformed batch header:"
  echo "$out"
  exit 1
}
echo "$out" | grep -E "^memo: hits=0 misses=[1-8] evictions=0$" >/dev/null || {
  echo "sweep smoke: memo counters did not reconcile:"
  echo "$out"
  exit 1
}

echo "== workload replay smoke (three modes over every committed sample) =="
# Replays each committed sample (legacy trace, op stream, Darshan
# summary) through every replay mode and fails on a nonzero exit or an
# empty latency histogram: the engine must both run every input format
# and actually measure per-op latency.
for sample in sample_legacy.trace sample_opstream.trace sample_darshan.txt; do
  for mode in direct list twophase; do
    out="$(cargo run --release --offline -q --bin iosim -- \
      replay --trace "tests/data/$sample" \
      --machine paragon-small --mode "$mode" 2>&1)"
    echo "$out" | grep -E "^latency: n=[1-9]" >/dev/null || {
      echo "replay smoke ($sample, $mode): empty or missing latency histogram:"
      echo "$out"
      exit 1
    }
  done
done

echo "== examples (all of them, under a second in total) =="
# Every example under examples/ must run to completion. Two also check
# their own output and panic when it is wrong: checkpoint_two_phase
# (byte-identical checkpoint files) and rollback_recovery (bit-exact
# recovery).
for ex in examples/*.rs; do
  name="$(basename "$ex" .rs)"
  cargo run --release --offline -q --example "$name" >/dev/null || {
    echo "example $name failed"
    exit 1
  }
done

echo "== EXPERIMENTS.md matches what repro writes =="
# Regenerates every paper table and extension into a temp file and diffs
# it against the committed EXPERIMENTS.md, so a change that moves any
# virtual result, shape check or schedule fingerprint fails here. Every
# number in it is virtual, so nothing is masked.
md="$(mktemp)"
cargo run --release --offline -q -p iosim-bench --bin repro -- all --write-md "$md" >/dev/null
if ! diff EXPERIMENTS.md "$md"; then
  rm -f "$md"
  echo "repro output differs from EXPERIMENTS.md (diff above)"
  exit 1
fi
rm -f "$md"

echo "== calibration (Table 2/3 per-read times within 25% of the paper) =="
# Re-runs the Table 2/3 workload and exits non-zero when the simulated
# Fortran or PASSION per-read time drifts more than 25% from the paper's
# measurement (DESIGN.md §10).
cargo run --release --offline -q -p iosim-bench --bin calibrate

echo "== flat-structure hygiene: no raw std hash maps on sim paths =="
# Engine-side crates take hash maps from iosim_simkit::hash (fixed
# keys, documented point-lookup-only discipline), never directly from
# std::collections, whose per-process random iteration order is a
# determinism hazard. Top-level imports only: test modules (indented
# imports) may use std maps to build reference-model twins, and the
# wrapper module itself is exempt.
if grep -rn "^use std::collections::.*Hash\(Map\|Set\)" \
    crates/simkit/src crates/machine/src crates/cache/src \
    crates/pfs/src crates/msg/src crates/workload/src \
  | grep -v "crates/simkit/src/hash.rs"; then
  echo "raw std hash map import on a sim path - use iosim_simkit::hash"
  exit 1
fi

echo "== flat-structure hygiene: no unreviewed map iteration on sim paths =="
# No sim-visible decision may consume hash-map iteration order. Every
# iteration-shaped call in an engine-side file that holds an FxHash map
# must be on the reviewed list below (each flows through a sort before
# anything order-dependent, or lives in a test module); a new site
# fails the gate until it is reviewed and listed here.
fx_files=$(grep -rl "FxHashMap\|FxHashSet" \
    crates/simkit/src crates/machine/src crates/cache/src \
    crates/pfs/src crates/msg/src crates/workload/src \
  | grep -v "crates/simkit/src/hash.rs" || true)
if [ -n "$fx_files" ]; then
  # shellcheck disable=SC2086
  hits=$(grep -n "\.keys()\|\.values()\|\.values_mut()\|\.drain()" $fx_files \
    | grep -v "crates/pfs/src/fs.rs:.*files\.keys()" \
    | grep -v "crates/workload/src/engine.rs:.*handles\.drain()" \
    | grep -v "crates/workload/src/engine.rs:.*map\.keys()" \
    | grep -v "crates/cache/src/lru.rs:" || true)
  if [ -n "$hits" ]; then
    echo "unreviewed hash-map iteration on a sim path:"
    echo "$hits"
    exit 1
  fi
fi

echo "== unsafe hygiene: no unsafe outside the executor =="
# The executor's waker vtable and in-place task polls are the one place
# that needs unsafe code (its module doc states the invariant). Every
# other library and binary source stays safe Rust; test files are not
# scanned (the allocation-budget suite installs a counting allocator).
if grep -rnw "unsafe" crates/*/src src | grep -v "^crates/simkit/src/executor.rs:"; then
  echo "unsafe outside crates/simkit/src/executor.rs"
  exit 1
fi

echo "verify.sh: all checks passed"
