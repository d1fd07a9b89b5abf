//! Cross-thread determinism suite for the batch what-if advisor.
//!
//! The advisor's contract (DESIGN.md §20): same query set + same seed ⇒
//! a byte-identical report, regardless of how many host threads the
//! evaluation fanned out over. The memo cache is consulted only in the
//! sequential admission pass, misses are written back by input slot, and
//! every rendered number is an exact integer — so nothing in the report
//! may depend on host scheduling.
//!
//! Two layers of checking, matching `tests/sched_determinism.rs`:
//!
//! 1. in-process: advisors built with thread budgets 1 and 4 must render
//!    byte-identical reports;
//! 2. cross-process: the reports hash to pinned constants, and
//!    `verify.sh` runs this suite under both `IOSIM_THREADS=1` and `=4`
//!    (the env pin overrides every `map_parallel` caller), so the pins
//!    catch any schedule dependence a single process can't see.

use iosim::bench::advisor::{render_advise, render_batch, AdviseOpts, BatchAdvisor, Query};
use iosim::optim::HintGrid;

/// FNV-1a over the report bytes: stable, dependency-free pinning.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

fn sweep_grid() -> HintGrid {
    HintGrid {
        cache_mb: vec![0, 2],
        io_queue_depth: vec![1, 8],
        io_nodes: vec![2, 4],
        ..HintGrid::default()
    }
}

fn sweep_queries() -> Vec<Query> {
    sweep_grid()
        .sample(24, 7)
        .into_iter()
        .map(|h| Query::new("synth", h).expect("synth is advisable"))
        .collect()
}

/// Render the full observable state of a sweep: the batch report plus
/// the memo counters (which must themselves be schedule-independent).
fn sweep_report(threads: usize) -> String {
    let mut advisor = BatchAdvisor::new(64, threads);
    let queries = sweep_queries();
    let warm = advisor.evaluate(&queries, 0.25).expect("valid hints");
    let hot = advisor.evaluate(&queries, 0.25).expect("valid hints");
    let (hits, misses, evictions) = advisor.memo_counters();
    format!(
        "{}{}memo: hits={hits} misses={misses} evictions={evictions}\n",
        render_batch(&warm),
        render_batch(&hot),
    )
}

fn advise_report(threads: usize) -> String {
    let mut advisor = BatchAdvisor::new(64, threads);
    let report = advisor
        .advise("synth", &sweep_grid(), &AdviseOpts::default())
        .expect("valid grid");
    render_advise(&report)
}

#[test]
fn sweep_reports_are_thread_invariant_and_pinned() {
    let r1 = sweep_report(1);
    let r4 = sweep_report(4);
    assert_eq!(r1, r4, "sweep report differs between thread budgets");
    // Pinned against the committed simulation model: breaks only when
    // the model, the renderer, or the hint encoding intentionally
    // changes. verify.sh re-runs this under IOSIM_THREADS=1 and =4.
    assert_eq!(
        fnv1a(r1.as_bytes()),
        0xe4cf_7a5a_13b3_626d,
        "sweep report bytes moved; if intentional, re-pin:\n{r1}"
    );
}

#[test]
fn advise_reports_are_thread_invariant_and_pinned() {
    let r1 = advise_report(1);
    let r4 = advise_report(4);
    assert_eq!(r1, r4, "advise report differs between thread budgets");
    assert_eq!(
        fnv1a(r1.as_bytes()),
        0x88c9_bbee_6dac_5786,
        "advise report bytes moved; if intentional, re-pin:\n{r1}"
    );
}

#[test]
fn memo_and_dedup_cut_simulations_at_least_5x() {
    // The acceptance floor, checked on deterministic counters rather
    // than wall clocks: a duplicate-heavy sweep (24 draws from 8
    // configurations, run twice) must simulate at least 5x fewer
    // configurations than naive per-query re-simulation would.
    let mut advisor = BatchAdvisor::new(64, 2);
    let queries = sweep_queries();
    let warm = advisor.evaluate(&queries, 0.25).expect("valid hints");
    let hot = advisor.evaluate(&queries, 0.25).expect("valid hints");
    let naive = 2 * queries.len();
    let simulated = warm.stats.evaluated + hot.stats.evaluated;
    assert!(simulated > 0);
    assert!(
        naive >= 5 * simulated,
        "only {naive} naive vs {simulated} memoized simulations"
    );
    assert_eq!(hot.stats.evaluated, 0, "second pass must be fully memoized");
    assert_eq!(hot.stats.memo_hits, queries.len());
}
