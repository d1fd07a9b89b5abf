//! Batch what-if advisor: memoized, deduplicated, parallel config-space
//! search over the hint engine.
//!
//! The analysis-tools literature (Kunkel et al.) wants *thousands* of
//! cheap what-if evaluations per planning session, and the queries a
//! shared capacity-planning service sees are heavily repetitive — the
//! same few configurations asked about again and again with different
//! spellings. This module is therefore shaped like a batch-serving
//! stack:
//!
//! 1. **admission** — every query's hints are validated and
//!    canonicalized ([`iosim_core::Hints::canonical`]); invalid knobs are
//!    rejected before any simulation runs;
//! 2. **dedup** — queries collapse by `(workload, fingerprint, scale)`;
//!    a batch containing the same configuration 40 times simulates once;
//! 3. **memo cache** — a bounded LRU over [`RunSummary`] values keyed by
//!    the same triple, with hit/miss/eviction counters, so repeats
//!    *across* batches are served without simulating;
//! 4. **parallel evaluation** — the surviving misses fan out over the
//!    work-stealing [`map_parallel`]; results are assembled in input
//!    order, so the report is bit-identical at every thread count.
//!
//! On top of the batch engine, [`BatchAdvisor::advise`] runs a
//! successive-halving auto-tuner: coarse low-fidelity passes prune the
//! grid (keep the better half, sorted by virtual time with fingerprint
//! tie-breaks) before the survivors get full-fidelity runs, and the
//! report carries the winner plus the time-vs-cache-memory Pareto
//! frontier. Determinism note: every sort key is an exact integer pair
//! `(exec_ns, fingerprint)` — never a host wall-clock — so advise
//! reports are as reproducible as the simulations underneath.

use std::collections::HashMap;

use iosim_apps::hinted::{run_hinted, workload_index, RunSummary, WORKLOADS};
use iosim_core::advisor::hints::{HintError, HintGrid, Hints};

use crate::parallel::map_parallel;

/// One what-if query: a workload name and a hint set.
#[derive(Clone, Copy, Debug)]
pub struct Query {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: &'static str,
    /// The hint set to evaluate (any valid spelling; admission
    /// canonicalizes).
    pub hints: Hints,
}

impl Query {
    /// Build a query, resolving `workload` against [`WORKLOADS`].
    /// Returns `None` for an unknown workload name.
    pub fn new(workload: &str, hints: Hints) -> Option<Query> {
        workload_index(workload).map(|i| Query {
            workload: WORKLOADS[i],
            hints,
        })
    }
}

/// Memo key: workload ordinal, canonical hint fingerprint, and the exact
/// bits of the fidelity scale. Coarse and full evaluations of the same
/// configuration are different simulations and must never alias.
type MemoKey = (usize, u64, u64);

fn memo_key(workload: &'static str, canonical: &Hints, scale: f64) -> MemoKey {
    let w = workload_index(workload).expect("query holds a known workload");
    (w, canonical.fingerprint(), scale.to_bits())
}

const NIL: usize = usize::MAX;

struct MemoEntry {
    key: MemoKey,
    val: RunSummary,
    prev: usize,
    next: usize,
}

/// Bounded LRU memo cache over evaluation summaries: a slab of entries
/// threaded on an intrusive recency list (head = most recent), with a
/// point-lookup map from key to slot. Capacity 0 disables memoization
/// (every lookup misses, nothing is stored) — the "naive" arm of the
/// throughput benchmark.
pub struct MemoCache {
    cap: usize,
    map: HashMap<MemoKey, usize>,
    slab: Vec<MemoEntry>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl MemoCache {
    /// An empty cache holding at most `cap` summaries.
    pub fn new(cap: usize) -> MemoCache {
        MemoCache {
            cap,
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lifetime (hits, misses, evictions).
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Unlink slot `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slab[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slab[next].prev = prev;
        }
    }

    /// Link slot `i` at the head (most recently used).
    fn link_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Look `key` up, counting a hit (and refreshing recency) or a miss.
    fn lookup(&mut self, key: MemoKey) -> Option<RunSummary> {
        match self.map.get(&key).copied() {
            Some(i) => {
                self.hits += 1;
                if self.head != i {
                    self.unlink(i);
                    self.link_front(i);
                }
                Some(self.slab[i].val)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Every cached entry in LRU-first order (tail to head), so that
    /// re-inserting them front-to-back reconstructs the recency list
    /// exactly.
    fn entries_lru_first(&self) -> Vec<(MemoKey, RunSummary)> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut i = self.tail;
        while i != NIL {
            out.push((self.slab[i].key, self.slab[i].val));
            i = self.slab[i].prev;
        }
        out
    }

    /// Insert a freshly computed summary, evicting the least recently
    /// used entry if at capacity. No-op at capacity 0.
    fn insert(&mut self, key: MemoKey, val: RunSummary) {
        if self.cap == 0 {
            return;
        }
        if let Some(&i) = self.map.get(&key) {
            // Re-insert of a key another batch already cached: refresh.
            self.slab[i].val = val;
            if self.head != i {
                self.unlink(i);
                self.link_front(i);
            }
            return;
        }
        if self.map.len() >= self.cap {
            let lru = self.tail;
            self.unlink(lru);
            let old = self.slab[lru].key;
            self.map.remove(&old);
            self.free.push(lru);
            self.evictions += 1;
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i] = MemoEntry {
                    key,
                    val,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.slab.push(MemoEntry {
                    key,
                    val,
                    prev: NIL,
                    next: NIL,
                });
                self.slab.len() - 1
            }
        };
        self.map.insert(key, i);
        self.link_front(i);
    }
}

/// Memo snapshot format version; an unknown version is treated as
/// corruption and the load starts cold. Version 2: hint fingerprints no
/// longer pack a host-thread count, so a version-1 key would decode to
/// a different configuration.
const MEMO_FORMAT_VERSION: u8 = 2;

/// Fixed record width: the 3-word memo key plus the 5-word summary.
const MEMO_RECORD_BYTES: usize = 8 * 8;

/// Strict parse of a memo snapshot. `None` on any structural problem:
/// the caller treats that as "start cold", so a bad byte can never
/// poison a partial load.
fn parse_memo_snapshot(bytes: &[u8]) -> Option<Vec<(MemoKey, RunSummary)>> {
    let (&version, rest) = bytes.split_first()?;
    if version != MEMO_FORMAT_VERSION || rest.len() < 8 {
        return None;
    }
    let (len_bytes, body) = rest.split_at(8);
    let count = u64::from_le_bytes(len_bytes.try_into().unwrap());
    let count = usize::try_from(count).ok()?;
    if body.len() != count.checked_mul(MEMO_RECORD_BYTES)? {
        return None;
    }
    let mut out = Vec::with_capacity(count);
    for rec in body.chunks_exact(MEMO_RECORD_BYTES) {
        let mut w = [0u64; 8];
        for (slot, chunk) in w.iter_mut().zip(rec.chunks_exact(8)) {
            *slot = u64::from_le_bytes(chunk.try_into().unwrap());
        }
        let widx = usize::try_from(w[0]).ok()?;
        if widx >= WORKLOADS.len() {
            return None;
        }
        out.push((
            (widx, w[1], w[2]),
            RunSummary {
                exec_ns: w[3],
                io_ns: w[4],
                io_bytes: w[5],
                io_ops: w[6],
                sched_fingerprint: w[7],
            },
        ));
    }
    Some(out)
}

/// Where a row's summary came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowSource {
    /// Served from the memo cache.
    Memo,
    /// Deduplicated onto an identical query evaluated in this batch.
    Dedup,
    /// Freshly simulated in this batch.
    Computed,
}

/// One resolved query in a batch report, in input order.
#[derive(Clone, Copy, Debug)]
pub struct QueryRow {
    /// The workload asked about.
    pub workload: &'static str,
    /// The canonical hint set (admission's view of the query).
    pub hints: Hints,
    /// The canonical fingerprint.
    pub fingerprint: u64,
    /// The evaluation summary.
    pub summary: RunSummary,
    /// How the summary was obtained.
    pub source: RowSource,
}

/// Batch-level accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchStats {
    /// Queries admitted.
    pub queries: usize,
    /// Distinct `(workload, fingerprint)` configurations in the batch.
    pub unique: usize,
    /// Queries served from the memo cache.
    pub memo_hits: usize,
    /// Queries deduplicated onto an in-batch twin.
    pub deduped: usize,
    /// Simulations actually run.
    pub evaluated: usize,
}

/// The result of one batch evaluation: rows in input order + stats.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// The fidelity the batch ran at.
    pub scale: f64,
    /// Resolved rows, one per admitted query, in input order.
    pub rows: Vec<QueryRow>,
    /// Batch accounting.
    pub stats: BatchStats,
}

/// The batch advisor service: a memo cache plus a thread budget.
pub struct BatchAdvisor {
    memo: MemoCache,
    threads: usize,
}

impl BatchAdvisor {
    /// A service with a `memo_capacity`-entry cache fanning evaluations
    /// over up to `threads` host threads (`IOSIM_THREADS` still pins the
    /// actual worker count, exactly as for every other sweep).
    pub fn new(memo_capacity: usize, threads: usize) -> BatchAdvisor {
        BatchAdvisor {
            memo: MemoCache::new(memo_capacity),
            threads: threads.max(1),
        }
    }

    /// Memo-cache lifetime counters (hits, misses, evictions).
    pub fn memo_counters(&self) -> (u64, u64, u64) {
        self.memo.counters()
    }

    /// Evaluate a query set at one fidelity. Admission canonicalizes
    /// every hint set (first invalid knob aborts the whole batch before
    /// any simulation runs); dedup + memo decide what actually
    /// simulates; misses fan out over [`map_parallel`]; rows come back
    /// in input order. Same query set + same scale ⇒ bit-identical
    /// report at every thread count: the memo is consulted only in the
    /// sequential admission pass, and parallel evaluation writes results
    /// by input slot.
    pub fn evaluate(&mut self, queries: &[Query], scale: f64) -> Result<BatchReport, HintError> {
        // Pass 1 (sequential): canonicalize, consult memo, dedup.
        enum Slot {
            Ready(RunSummary, RowSource),
            // Index into `pending` (the miss list).
            Wait(usize),
        }
        let mut rows_meta: Vec<(Hints, u64)> = Vec::with_capacity(queries.len());
        let mut slots: Vec<Slot> = Vec::with_capacity(queries.len());
        let mut pending: Vec<(&'static str, Hints)> = Vec::new();
        let mut pending_by_key: HashMap<MemoKey, usize> = HashMap::new();
        let mut stats = BatchStats {
            queries: queries.len(),
            ..BatchStats::default()
        };
        for q in queries {
            let canon = q.hints.canonical()?;
            let key = memo_key(q.workload, &canon, scale);
            rows_meta.push((canon, canon.fingerprint()));
            if let Some(p) = pending_by_key.get(&key) {
                stats.deduped += 1;
                slots.push(Slot::Wait(*p));
            } else if let Some(hit) = self.memo.lookup(key) {
                stats.memo_hits += 1;
                slots.push(Slot::Ready(hit, RowSource::Memo));
            } else {
                let p = pending.len();
                pending_by_key.insert(key, p);
                pending.push((q.workload, canon));
                slots.push(Slot::Wait(p));
            }
        }
        stats.unique = {
            let mut keys: Vec<MemoKey> = queries
                .iter()
                .zip(&rows_meta)
                .map(|(q, (canon, _))| memo_key(q.workload, canon, scale))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            keys.len()
        };
        stats.evaluated = pending.len();

        // Pass 2 (parallel): simulate the misses; input order preserved.
        let computed: Vec<RunSummary> = map_parallel(pending.clone(), self.threads, |(w, h)| {
            run_hinted(w, h, scale)
        });

        // Pass 3 (sequential): feed the memo in miss order, then resolve.
        for ((w, h), s) in pending.iter().zip(&computed) {
            self.memo.insert(memo_key(w, h, scale), *s);
        }
        let mut first_of_pending: Vec<bool> = vec![true; pending.len()];
        let rows = queries
            .iter()
            .zip(rows_meta)
            .zip(slots)
            .map(|((q, (canon, fp)), slot)| {
                let (summary, source) = match slot {
                    Slot::Ready(s, src) => (s, src),
                    Slot::Wait(p) => {
                        let src = if first_of_pending[p] {
                            first_of_pending[p] = false;
                            RowSource::Computed
                        } else {
                            RowSource::Dedup
                        };
                        (computed[p], src)
                    }
                };
                QueryRow {
                    workload: q.workload,
                    hints: canon,
                    fingerprint: fp,
                    summary,
                    source,
                }
            })
            .collect();
        Ok(BatchReport { scale, rows, stats })
    }

    /// Persist the memo cache to `path` so a later process can start
    /// warm. The format is a version byte, a little-endian `u64` record
    /// count, then fixed-width 64-byte records (workload ordinal,
    /// canonical hint fingerprint, fidelity-scale bits, and the five
    /// [`RunSummary`] words, all LE `u64`). Entries are written
    /// LRU-first so [`BatchAdvisor::load`] restores recency as well as
    /// contents. Returns the number of entries written.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let entries = self.memo.entries_lru_first();
        let mut buf = Vec::with_capacity(1 + 8 + entries.len() * MEMO_RECORD_BYTES);
        buf.push(MEMO_FORMAT_VERSION);
        buf.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for ((w, fp, scale_bits), s) in &entries {
            for word in [
                *w as u64,
                *fp,
                *scale_bits,
                s.exec_ns,
                s.io_ns,
                s.io_bytes,
                s.io_ops,
                s.sched_fingerprint,
            ] {
                buf.extend_from_slice(&word.to_le_bytes());
            }
        }
        std::fs::write(path, &buf)?;
        Ok(entries.len())
    }

    /// Restore a memo snapshot written by [`BatchAdvisor::save`].
    /// Returns the number of entries restored. A missing or corrupt
    /// file (wrong version byte, truncation, trailing bytes, or an
    /// out-of-range workload ordinal) restores nothing — the memo is
    /// simply left cold; this never panics and never fails the run.
    /// When the snapshot holds more entries than the cache capacity,
    /// only the most recent `capacity` entries are kept, so restoring
    /// never inflates the eviction counter.
    pub fn load(&mut self, path: &std::path::Path) -> usize {
        let Ok(bytes) = std::fs::read(path) else {
            return 0;
        };
        let Some(mut entries) = parse_memo_snapshot(&bytes) else {
            return 0;
        };
        // entries is LRU-first: keep the newest `cap`.
        let cap = self.memo.cap;
        if entries.len() > cap {
            entries.drain(..entries.len() - cap);
        }
        let n = entries.len();
        for (key, val) in entries {
            self.memo.insert(key, val);
        }
        n
    }

    /// Successive-halving auto-tune over a hint grid: see
    /// [`AdviseOpts`] for the schedule knobs.
    pub fn advise(
        &mut self,
        workload: &str,
        grid: &HintGrid,
        opts: &AdviseOpts,
    ) -> Result<AdviseReport, HintError> {
        let Some(widx) = workload_index(workload) else {
            panic!("unknown advisable workload {workload:?}");
        };
        let workload = WORKLOADS[widx];
        assert!(!grid.is_empty(), "cannot advise over an empty grid");
        // Canonical dedup of the grid, first occurrence wins.
        let mut candidates: Vec<Hints> = Vec::new();
        {
            let mut seen: Vec<u64> = Vec::new();
            for i in 0..grid.len() {
                let c = grid.at(i).canonical()?;
                let fp = c.fingerprint();
                if !seen.contains(&fp) {
                    seen.push(fp);
                    candidates.push(c);
                }
            }
        }
        let unique = candidates.len();
        let final_keep = opts.final_keep.max(1);

        // Coarse pruning rounds: evaluate, sort by (virtual time,
        // fingerprint), keep the better half, raise fidelity.
        let mut rounds: Vec<Round> = Vec::new();
        let mut scale = opts.coarse_scale;
        while candidates.len() > final_keep {
            rounds.push(Round {
                scale,
                candidates: candidates.len(),
            });
            let queries: Vec<Query> = candidates
                .iter()
                .map(|&hints| Query { workload, hints })
                .collect();
            let report = self.evaluate(&queries, scale)?;
            let mut ranked: Vec<(u64, u64, Hints)> = report
                .rows
                .iter()
                .map(|r| (r.summary.exec_ns, r.fingerprint, r.hints))
                .collect();
            ranked.sort_unstable_by_key(|&(t, fp, _)| (t, fp));
            let keep = final_keep.max(candidates.len().div_ceil(2));
            ranked.truncate(keep);
            candidates = ranked.into_iter().map(|(_, _, h)| h).collect();
            scale = (scale * 2.0).min(0.5);
        }
        rounds.push(Round {
            scale: 1.0,
            candidates: candidates.len(),
        });

        // Full-fidelity evaluation of the survivors.
        let queries: Vec<Query> = candidates
            .iter()
            .map(|&hints| Query { workload, hints })
            .collect();
        let full = self.evaluate(&queries, 1.0)?;
        let mut survivors = full.rows.clone();
        survivors.sort_unstable_by_key(|r| (r.summary.exec_ns, r.fingerprint));
        let best = survivors[0];
        let pareto = pareto_frontier(&survivors);
        let full_evals = survivors.len();
        Ok(AdviseReport {
            workload,
            grid_points: grid.len(),
            unique,
            rounds,
            survivors,
            best,
            pareto,
            pruning_ratio: 1.0 - full_evals as f64 / unique as f64,
        })
    }
}

/// Auto-tuner schedule knobs.
#[derive(Clone, Copy, Debug)]
pub struct AdviseOpts {
    /// Fidelity of the first pruning round (doubles per round, capped at
    /// 0.5; the survivor round always runs at 1.0).
    pub coarse_scale: f64,
    /// Stop pruning once this many candidates remain; they get the
    /// full-fidelity evaluation.
    pub final_keep: usize,
}

impl Default for AdviseOpts {
    fn default() -> AdviseOpts {
        AdviseOpts {
            coarse_scale: 0.25,
            final_keep: 4,
        }
    }
}

/// One successive-halving round: the fidelity it ran at and the
/// candidate count *entering* it. Candidate counts are non-increasing
/// by construction (the halving unit test checks it).
#[derive(Clone, Copy, Debug)]
pub struct Round {
    /// Fidelity scale of the round.
    pub scale: f64,
    /// Candidates entering the round.
    pub candidates: usize,
}

/// The auto-tuner's report.
#[derive(Clone, Debug)]
pub struct AdviseReport {
    /// The workload tuned.
    pub workload: &'static str,
    /// Raw grid points before canonical dedup.
    pub grid_points: usize,
    /// Distinct canonical configurations in the grid.
    pub unique: usize,
    /// The halving schedule actually run (last round is the full-
    /// fidelity survivor round).
    pub rounds: Vec<Round>,
    /// Survivors with full-fidelity summaries, best first.
    pub survivors: Vec<QueryRow>,
    /// The winner: fastest virtual time, fingerprint tie-break.
    pub best: QueryRow,
    /// Time-vs-cache-memory Pareto frontier over the survivors, by
    /// increasing memory.
    pub pareto: Vec<QueryRow>,
    /// Fraction of unique configurations pruned before full fidelity.
    pub pruning_ratio: f64,
}

/// Pareto frontier over `(cache_total_mb, exec_ns)`: cheapest-memory
/// first; a point joins if it is strictly faster than everything with
/// less-or-equal memory already on the frontier.
fn pareto_frontier(rows: &[QueryRow]) -> Vec<QueryRow> {
    let mut by_mem: Vec<QueryRow> = rows.to_vec();
    by_mem.sort_unstable_by_key(|r| (r.hints.cache_total_mb(), r.summary.exec_ns, r.fingerprint));
    let mut frontier: Vec<QueryRow> = Vec::new();
    for r in by_mem {
        match frontier.last() {
            Some(last) if r.summary.exec_ns >= last.summary.exec_ns => {}
            _ => frontier.push(r),
        }
    }
    frontier
}

/// Fixed-width nanosecond rendering as seconds with 6 decimals: pure
/// integer arithmetic, so output bytes never depend on the host.
fn fmt_secs(ns: u64) -> String {
    format!("{}.{:06}", ns / 1_000_000_000, (ns % 1_000_000_000) / 1_000)
}

/// Render a batch report deterministically (no wall-clock content).
pub fn render_batch(r: &BatchReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "batch scale={} queries={} unique={} memo_hits={} deduped={} evaluated={}\n",
        r.scale,
        r.stats.queries,
        r.stats.unique,
        r.stats.memo_hits,
        r.stats.deduped,
        r.stats.evaluated
    ));
    for (i, row) in r.rows.iter().enumerate() {
        out.push_str(&format!(
            "[{i:4}] {:8} fp={:016x} exec={}s io={}s ops={} src={:?} | {}\n",
            row.workload,
            row.fingerprint,
            fmt_secs(row.summary.exec_ns),
            fmt_secs(row.summary.io_ns),
            row.summary.io_ops,
            row.source,
            row.hints.render(),
        ));
    }
    out
}

/// Render an advise report deterministically (no wall-clock content).
pub fn render_advise(r: &AdviseReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "advise {}: grid={} unique={} full_evals={} pruned={:.1}%\n",
        r.workload,
        r.grid_points,
        r.unique,
        r.survivors.len(),
        r.pruning_ratio * 100.0
    ));
    for (i, round) in r.rounds.iter().enumerate() {
        out.push_str(&format!(
            "  round {i}: scale={} candidates={}\n",
            round.scale, round.candidates
        ));
    }
    out.push_str(&format!(
        "best: exec={}s fp={:016x} | {}\n",
        fmt_secs(r.best.summary.exec_ns),
        r.best.fingerprint,
        r.best.hints.render()
    ));
    out.push_str("pareto (memory MB -> exec s):\n");
    for p in &r.pareto {
        out.push_str(&format!(
            "  {:6} MB -> {}s | {}\n",
            p.hints.cache_total_mb(),
            fmt_secs(p.summary.exec_ns),
            p.hints.render()
        ));
    }
    out.push_str("survivors:\n");
    for s in &r.survivors {
        out.push_str(&format!(
            "  exec={}s fp={:016x} | {}\n",
            fmt_secs(s.summary.exec_ns),
            s.fingerprint,
            s.hints.render()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(hints: Hints) -> Query {
        Query::new("synth", hints).unwrap()
    }

    fn grid_2x2() -> HintGrid {
        HintGrid {
            cache_mb: vec![0, 2],
            io_queue_depth: vec![1, 8],
            ..HintGrid::default()
        }
    }

    #[test]
    fn dedup_collapses_identical_queries() {
        let mut adv = BatchAdvisor::new(64, 1);
        let a = q(Hints::default());
        // Same canonical config spelled two ways + a distinct one.
        let b = q(Hints {
            io_queue_depth: 0,
            stripe_unit_kb: 48,
            ..Hints::default()
        });
        let c = q(Hints {
            cache_mb: 2,
            ..Hints::default()
        });
        let r = adv.evaluate(&[a, b, c, a], 0.25).unwrap();
        assert_eq!(r.stats.queries, 4);
        assert_eq!(r.stats.unique, 2);
        assert_eq!(r.stats.evaluated, 2);
        assert_eq!(r.stats.deduped, 2);
        assert_eq!(r.rows[0].summary, r.rows[1].summary);
        assert_eq!(r.rows[0].summary, r.rows[3].summary);
        assert_ne!(r.rows[0].fingerprint, r.rows[2].fingerprint);
    }

    #[test]
    fn memo_serves_repeats_across_batches() {
        let mut adv = BatchAdvisor::new(64, 1);
        let batch = [q(Hints::default())];
        let r1 = adv.evaluate(&batch, 0.25).unwrap();
        assert_eq!(r1.stats.memo_hits, 0);
        assert_eq!(r1.stats.evaluated, 1);
        let r2 = adv.evaluate(&batch, 0.25).unwrap();
        assert_eq!(r2.stats.memo_hits, 1);
        assert_eq!(r2.stats.evaluated, 0);
        assert_eq!(r1.rows[0].summary, r2.rows[0].summary);
        assert_eq!(r2.rows[0].source, RowSource::Memo);
        let (hits, misses, _) = adv.memo_counters();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn scales_never_alias_in_the_memo() {
        let mut adv = BatchAdvisor::new(64, 1);
        let batch = [q(Hints::default())];
        let coarse = adv.evaluate(&batch, 0.25).unwrap();
        let full = adv.evaluate(&batch, 1.0).unwrap();
        assert_eq!(full.stats.memo_hits, 0, "coarse result must not serve full");
        assert_ne!(coarse.rows[0].summary, full.rows[0].summary);
    }

    #[test]
    fn capacity_zero_disables_memoization() {
        let mut adv = BatchAdvisor::new(0, 1);
        let batch = [q(Hints::default())];
        adv.evaluate(&batch, 0.25).unwrap();
        let r = adv.evaluate(&batch, 0.25).unwrap();
        assert_eq!(r.stats.memo_hits, 0);
        assert_eq!(r.stats.evaluated, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = MemoCache::new(2);
        let s = RunSummary {
            exec_ns: 1,
            io_ns: 1,
            io_bytes: 1,
            io_ops: 1,
            sched_fingerprint: 1,
        };
        c.insert((0, 1, 0), s);
        c.insert((0, 2, 0), s);
        assert!(c.lookup((0, 1, 0)).is_some()); // 1 is now MRU
        c.insert((0, 3, 0), s); // evicts 2
        assert!(c.lookup((0, 2, 0)).is_none());
        assert!(c.lookup((0, 1, 0)).is_some());
        assert!(c.lookup((0, 3, 0)).is_some());
        let (_, _, evictions) = c.counters();
        assert_eq!(evictions, 1);
        assert_eq!(c.len(), 2);
    }

    /// Scratch file that cleans up after itself; unique per test name so
    /// the suite can run fully parallel.
    struct TempPath(std::path::PathBuf);
    impl TempPath {
        fn new(tag: &str) -> TempPath {
            let mut p = std::env::temp_dir();
            p.push(format!("iosim-memo-{}-{tag}.bin", std::process::id()));
            TempPath(p)
        }
    }
    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn memo_snapshot_roundtrips_across_advisors() {
        let tmp = TempPath::new("roundtrip");
        let a = q(Hints::default());
        let b = q(Hints {
            cache_mb: 2,
            ..Hints::default()
        });
        let mut warm = BatchAdvisor::new(64, 1);
        warm.evaluate(&[a, b], 0.25).unwrap();
        assert_eq!(warm.save(&tmp.0).unwrap(), 2);

        // A fresh "process": same queries are served entirely from the
        // restored memo, bit-identical summaries.
        let mut cold = BatchAdvisor::new(64, 1);
        assert_eq!(cold.load(&tmp.0), 2);
        let r = cold.evaluate(&[a, b], 0.25).unwrap();
        assert_eq!(r.stats.memo_hits, 2);
        assert_eq!(r.stats.evaluated, 0);
        let fresh = BatchAdvisor::new(64, 1).evaluate(&[a, b], 0.25).unwrap();
        assert_eq!(r.rows[0].summary, fresh.rows[0].summary);
        assert_eq!(r.rows[1].summary, fresh.rows[1].summary);
        // A different scale still misses: keys carry the scale bits.
        let r_full = cold.evaluate(&[a], 1.0).unwrap();
        assert_eq!(r_full.stats.memo_hits, 0);
    }

    #[test]
    fn memo_load_tolerates_missing_and_corrupt_files() {
        let tmp = TempPath::new("corrupt");
        let mut adv = BatchAdvisor::new(64, 1);
        // Missing file: cold start, no error.
        assert_eq!(adv.load(&tmp.0), 0);
        adv.evaluate(&[q(Hints::default())], 0.25).unwrap();
        adv.save(&tmp.0).unwrap();
        let good = std::fs::read(&tmp.0).unwrap();

        // Wrong version byte.
        let mut bad = good.clone();
        bad[0] = bad[0].wrapping_add(1);
        std::fs::write(&tmp.0, &bad).unwrap();
        assert_eq!(BatchAdvisor::new(64, 1).load(&tmp.0), 0);

        // Truncated mid-record.
        std::fs::write(&tmp.0, &good[..good.len() - 7]).unwrap();
        assert_eq!(BatchAdvisor::new(64, 1).load(&tmp.0), 0);

        // Trailing garbage.
        let mut long = good.clone();
        long.push(0xAA);
        std::fs::write(&tmp.0, &long).unwrap();
        assert_eq!(BatchAdvisor::new(64, 1).load(&tmp.0), 0);

        // Out-of-range workload ordinal in the first record.
        let mut alien = good.clone();
        alien[9..17].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&tmp.0, &alien).unwrap();
        assert_eq!(BatchAdvisor::new(64, 1).load(&tmp.0), 0);

        // Arbitrary junk.
        std::fs::write(&tmp.0, b"not a memo snapshot").unwrap();
        let mut junked = BatchAdvisor::new(64, 1);
        assert_eq!(junked.load(&tmp.0), 0);
        let r = junked.evaluate(&[q(Hints::default())], 0.25).unwrap();
        assert_eq!(r.stats.memo_hits, 0, "corrupt load must leave memo cold");

        // The pristine bytes still load.
        std::fs::write(&tmp.0, &good).unwrap();
        assert_eq!(BatchAdvisor::new(64, 1).load(&tmp.0), 1);
    }

    #[test]
    fn version_one_memo_files_load_cold() {
        let tmp = TempPath::new("v1");
        let mut adv = BatchAdvisor::new(64, 1);
        adv.evaluate(&[q(Hints::default())], 0.25).unwrap();
        adv.save(&tmp.0).unwrap();
        let mut v1 = std::fs::read(&tmp.0).unwrap();
        v1[0] = 1;
        std::fs::write(&tmp.0, &v1).unwrap();
        let mut cold = BatchAdvisor::new(64, 1);
        assert_eq!(cold.load(&tmp.0), 0);
        let r = cold.evaluate(&[q(Hints::default())], 0.25).unwrap();
        assert_eq!(r.stats.memo_hits, 0);
    }

    #[test]
    fn memo_load_respects_capacity_and_recency() {
        let tmp = TempPath::new("capacity");
        let hints: Vec<Query> = (0..4)
            .map(|i| {
                q(Hints {
                    cache_mb: 2 * i,
                    ..Hints::default()
                })
            })
            .collect();
        let mut warm = BatchAdvisor::new(64, 1);
        warm.evaluate(&hints, 0.25).unwrap();
        assert_eq!(warm.save(&tmp.0).unwrap(), 4);

        // Capacity 2 keeps only the two most recent entries — and the
        // restore itself must not count evictions.
        let mut small = BatchAdvisor::new(2, 1);
        assert_eq!(small.load(&tmp.0), 2);
        let r = small.evaluate(&hints, 0.25).unwrap();
        assert_eq!(r.stats.memo_hits, 2);
        let (_, _, evictions) = small.memo_counters();
        assert_eq!(evictions, 2, "only the re-evaluation evicts");

        // Capacity 0 restores nothing (memoization disabled).
        let mut off = BatchAdvisor::new(0, 1);
        assert_eq!(off.load(&tmp.0), 0);
    }

    #[test]
    fn invalid_hints_abort_admission() {
        let mut adv = BatchAdvisor::new(4, 1);
        let bad = q(Hints {
            cache_mb: u64::MAX,
            ..Hints::default()
        });
        let err = adv.evaluate(&[bad], 0.25).unwrap_err();
        assert_eq!(err.knob, "cache_mb");
        let (hits, misses, _) = adv.memo_counters();
        assert_eq!((hits, misses), (0, 0), "no simulation before rejection");
    }

    #[test]
    fn reports_are_thread_count_invariant() {
        let grid = grid_2x2();
        let queries: Vec<Query> = grid.sample(16, 9).into_iter().map(q).collect();
        let mut adv1 = BatchAdvisor::new(64, 1);
        let mut adv4 = BatchAdvisor::new(64, 4);
        let r1 = adv1.evaluate(&queries, 0.25).unwrap();
        let r4 = adv4.evaluate(&queries, 0.25).unwrap();
        assert_eq!(render_batch(&r1), render_batch(&r4));
    }

    #[test]
    fn halving_prunes_at_least_half_and_matches_exhaustive() {
        let knobs = HintGrid {
            cache_mb: vec![0, 2],
            io_queue_depth: vec![1, 8],
            io_nodes: vec![2, 4],
            ..HintGrid::default()
        };
        // An 8-point grid on a fixed interface, and a 16-point grid that
        // also varies the stripe unit on the default interface.
        let grids = [
            HintGrid {
                interface: vec![iosim_machine::Interface::Passion],
                ..knobs.clone()
            },
            HintGrid {
                stripe_unit_kb: vec![64, 256],
                ..knobs
            },
        ];
        for (grid, points) in grids.iter().zip([8, 16]) {
            let mut adv = BatchAdvisor::new(256, 2);
            let report = adv.advise("synth", grid, &AdviseOpts::default()).unwrap();
            assert_eq!(report.unique, points);
            assert!(
                report.survivors.len() * 2 <= report.unique,
                "{points}-point grid pruned less than half: {} of {}",
                report.survivors.len(),
                report.unique
            );
            assert!(report.pruning_ratio >= 0.5);
            // Exhaustive full-fidelity search must name the same winner.
            let queries: Vec<Query> = grid
                .enumerate()
                .into_iter()
                .map(|h| Query::new("synth", h).unwrap())
                .collect();
            let mut exhaustive = BatchAdvisor::new(256, 2);
            let all = exhaustive.evaluate(&queries, 1.0).unwrap();
            let winner = all
                .rows
                .iter()
                .min_by_key(|r| (r.summary.exec_ns, r.fingerprint))
                .unwrap();
            assert_eq!(
                winner.fingerprint, report.best.fingerprint,
                "{points}-point grid"
            );
            assert_eq!(winner.summary, report.best.summary, "{points}-point grid");
            // Rounds: candidate counts non-increasing, last round full
            // scale.
            assert!(report
                .rounds
                .windows(2)
                .all(|w| w[1].candidates <= w[0].candidates));
            assert_eq!(report.rounds.last().unwrap().scale, 1.0);
        }
    }

    #[test]
    fn pareto_frontier_is_monotone() {
        let grid = HintGrid {
            cache_mb: vec![0, 2, 4],
            ..HintGrid::default()
        };
        let mut adv = BatchAdvisor::new(64, 1);
        let report = adv
            .advise(
                "synth",
                &grid,
                &AdviseOpts {
                    final_keep: 3,
                    ..AdviseOpts::default()
                },
            )
            .unwrap();
        assert!(!report.pareto.is_empty());
        for w in report.pareto.windows(2) {
            assert!(w[0].hints.cache_total_mb() < w[1].hints.cache_total_mb());
            assert!(w[0].summary.exec_ns > w[1].summary.exec_ns);
        }
        // The global best is always on the frontier.
        assert!(report
            .pareto
            .iter()
            .any(|p| p.fingerprint == report.best.fingerprint));
    }
}
