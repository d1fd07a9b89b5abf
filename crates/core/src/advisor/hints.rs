//! Tunable hint sets over the simulator's optimization knobs.
//!
//! ROMIO turned the paper's per-app optimization matrix into *hints*: a
//! bag of named tunables (collective-buffering node count, data-sieving
//! buffer sizes, striping parameters) that an MPI-IO implementation may
//! honor or ignore per file. This module is that production form for the
//! simulator: [`Hints`] names every machine/runtime knob grown over the
//! previous PRs (buffer cache, command-queue depth, aggregator count,
//! client interface, stripe unit, stripe factor), with
//!
//! - **validation** — every knob range-checked against the documented
//!   bounds, so a planning service rejects nonsense before simulating it;
//! - **canonicalization** — equivalent spellings collapse to one form
//!   (queue depth 0 and 1 are both the legacy FIFO, a stripe unit rounds
//!   up to the power of two the PFS would actually use, zero counts mean
//!   "one"), so duplicate what-if queries dedup instead of re-simulating;
//! - **a stable 64-bit fingerprint** — an *injective* encoding of the
//!   canonical form (54 bits of bounded knobs through an invertible
//!   mixer), so fingerprint equality is exactly canonical-form equality
//!   and a memo cache can key on the fingerprint alone.
//!
//! [`HintGrid`] spans the search spaces the batch advisor sweeps:
//! cartesian enumeration in a deterministic order, plus seeded sampling
//! with replacement (the duplicate-heavy query mix a shared planning
//! service actually sees).

use iosim_machine::Interface;
use iosim_simkit::rng::SimRng;

/// Largest per-I/O-node LRU cache the hint set admits, in MB.
pub const MAX_CACHE_MB: u64 = 4096;
/// Largest I/O-node command-queue depth.
pub const MAX_QUEUE_DEPTH: usize = 256;
/// Largest two-phase aggregator count (0 = collective path off).
pub const MAX_AGGREGATORS: usize = 4096;
/// Largest stripe unit, in KB (canonical stripe units are powers of two).
pub const MAX_STRIPE_UNIT_KB: u64 = 16_384;
/// Largest I/O-node count (stripe factor).
pub const MAX_IO_NODES: usize = 4096;

/// A validation failure: which knob, and the offending value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HintError {
    /// Knob name, as spelled in [`Hints`].
    pub knob: &'static str,
    /// The rejected value.
    pub value: u64,
    /// The inclusive upper bound the value exceeded.
    pub max: u64,
}

impl std::fmt::Display for HintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hint {} = {} out of range (max {})",
            self.knob, self.value, self.max
        )
    }
}

impl std::error::Error for HintError {}

/// One tunable configuration of the simulated machine + runtime: the
/// knobs every application and workload run accepts, as a hint set.
///
/// Like MPI-IO hints, a workload may *ignore* knobs it has no use for
/// (BTIO's SP-2 preset fixes its I/O-node count; only SCF 1.1 exposes a
/// client-interface choice); the fingerprint still covers every knob, so
/// two hint sets are interchangeable only when they agree everywhere.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Hints {
    /// Per-I/O-node LRU buffer cache in MB (0 = uncached).
    pub cache_mb: u64,
    /// I/O-node command-queue depth (0 and 1 = the legacy FIFO).
    pub io_queue_depth: usize,
    /// Two-phase aggregator count (0 = collective optimization off).
    pub aggregators: usize,
    /// Client interface (Fortran records, UNIX-style, or PASSION).
    pub interface: Interface,
    /// Stripe unit in KB; canonicalizes up to a power of two.
    pub stripe_unit_kb: u64,
    /// I/O-node count — the stripe factor (0 means 1).
    pub io_nodes: usize,
}

impl Default for Hints {
    /// The paper's baseline posture: no cache, FIFO disk queue, no
    /// collective aggregation, PASSION interface, 64 KB stripe over 16
    /// I/O nodes.
    fn default() -> Hints {
        Hints {
            cache_mb: 0,
            io_queue_depth: 1,
            aggregators: 0,
            interface: Interface::Passion,
            stripe_unit_kb: 64,
            io_nodes: 16,
        }
    }
}

/// Stable ordinal of an [`Interface`] inside the fingerprint.
fn interface_ordinal(i: Interface) -> u64 {
    match i {
        Interface::Fortran => 0,
        Interface::UnixStyle => 1,
        Interface::Passion => 2,
    }
}

/// SplitMix64 finalizer: a *bijective* mixer on `u64`, so packing then
/// mixing stays injective (fingerprint equality ⇔ packed-field equality).
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Hints {
    /// Range-check every knob. Values at the bound are accepted;
    /// canonicalization never moves a valid value out of range (the
    /// stripe unit rounds *up*, and `MAX_STRIPE_UNIT_KB` is itself a
    /// power of two).
    pub fn validate(&self) -> Result<(), HintError> {
        let checks: [(&'static str, u64, u64); 5] = [
            ("cache_mb", self.cache_mb, MAX_CACHE_MB),
            (
                "io_queue_depth",
                self.io_queue_depth as u64,
                MAX_QUEUE_DEPTH as u64,
            ),
            (
                "aggregators",
                self.aggregators as u64,
                MAX_AGGREGATORS as u64,
            ),
            ("stripe_unit_kb", self.stripe_unit_kb, MAX_STRIPE_UNIT_KB),
            ("io_nodes", self.io_nodes as u64, MAX_IO_NODES as u64),
        ];
        for (knob, value, max) in checks {
            if value > max {
                return Err(HintError { knob, value, max });
            }
        }
        Ok(())
    }

    /// The canonical form: the representative of this hint set's
    /// equivalence class. Idempotent, and the domain of the fingerprint.
    ///
    /// - queue depth 0 → 1 (both are the legacy FIFO path);
    /// - I/O-node count 0 → 1;
    /// - stripe unit rounds up to the next power of two (what the PFS
    ///   block layer would actually allocate), 0 → 1 KB.
    pub fn canonical(&self) -> Result<Hints, HintError> {
        self.validate()?;
        Ok(Hints {
            cache_mb: self.cache_mb,
            io_queue_depth: self.io_queue_depth.max(1),
            aggregators: self.aggregators,
            interface: self.interface,
            stripe_unit_kb: self.stripe_unit_kb.next_power_of_two().max(1),
            io_nodes: self.io_nodes.max(1),
        })
    }

    /// True when `self` already is its own canonical form.
    pub fn is_canonical(&self) -> bool {
        self.canonical().as_ref() == Ok(self)
    }

    /// The stable 64-bit configuration fingerprint: the canonical form
    /// packed into 54 bits of bounded fields, then passed through an
    /// invertible mixer. Injective on the validated hint space, so
    /// **fingerprint equality ⇔ canonical-form equality** — a memo cache
    /// may key on the fingerprint alone, with no collision audit.
    ///
    /// # Panics
    /// Panics if the hints fail [`Hints::validate`]; callers canonicalize
    /// (and thereby validate) before fingerprinting.
    pub fn fingerprint(&self) -> u64 {
        let c = self.canonical().expect("fingerprint of invalid hints");
        // Field widths: 13 + 9 + 13 + 2 + 4 + 13 = 54 bits.
        let mut packed = c.cache_mb; // ≤ 4096 → 13 bits
        packed = (packed << 9) | c.io_queue_depth as u64; // 1..=256 → 9 bits
        packed = (packed << 13) | c.aggregators as u64; // ≤ 4096 → 13 bits
        packed = (packed << 2) | interface_ordinal(c.interface); // 2 bits
        packed = (packed << 4) | c.stripe_unit_kb.trailing_zeros() as u64; // 2^0..2^14 → 4 bits
        packed = (packed << 13) | c.io_nodes as u64; // 1..=4096 → 13 bits
        mix64(packed)
    }

    /// Total cache memory this configuration buys, in MB (the Pareto
    /// cost axis: per-node cache × stripe factor).
    pub fn cache_total_mb(&self) -> u64 {
        self.cache_mb * self.io_nodes.max(1) as u64
    }

    /// Compact one-line rendering, fingerprint-stable field order.
    pub fn render(&self) -> String {
        format!(
            "cache={}MB depth={} agg={} if={:?} stripe={}KB ion={}",
            self.cache_mb,
            self.io_queue_depth,
            self.aggregators,
            self.interface,
            self.stripe_unit_kb,
            self.io_nodes,
        )
    }
}

/// A cartesian search space: one value list per knob. `enumerate`
/// walks the product in a fixed mixed-radix order (I/O nodes fastest,
/// cache slowest — the declaration order below); `sample` draws with
/// replacement, which deliberately produces duplicate queries.
#[derive(Clone, Debug)]
pub struct HintGrid {
    /// Cache sizes to try, MB.
    pub cache_mb: Vec<u64>,
    /// Queue depths to try.
    pub io_queue_depth: Vec<usize>,
    /// Aggregator counts to try.
    pub aggregators: Vec<usize>,
    /// Interfaces to try.
    pub interface: Vec<Interface>,
    /// Stripe units to try, KB.
    pub stripe_unit_kb: Vec<u64>,
    /// I/O-node counts to try.
    pub io_nodes: Vec<usize>,
}

impl Default for HintGrid {
    /// The singleton grid holding only [`Hints::default`].
    fn default() -> HintGrid {
        let d = Hints::default();
        HintGrid {
            cache_mb: vec![d.cache_mb],
            io_queue_depth: vec![d.io_queue_depth],
            aggregators: vec![d.aggregators],
            interface: vec![d.interface],
            stripe_unit_kb: vec![d.stripe_unit_kb],
            io_nodes: vec![d.io_nodes],
        }
    }
}

impl HintGrid {
    /// Points in the grid (product of the per-knob list lengths).
    pub fn len(&self) -> usize {
        self.cache_mb.len()
            * self.io_queue_depth.len()
            * self.aggregators.len()
            * self.interface.len()
            * self.stripe_unit_kb.len()
            * self.io_nodes.len()
    }

    /// True when any knob list is empty (the grid spans no point).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `idx`-th grid point in enumeration order (mixed-radix decode,
    /// `io_nodes` the fastest-varying digit).
    ///
    /// # Panics
    /// Panics if `idx >= self.len()`.
    pub fn at(&self, idx: usize) -> Hints {
        assert!(idx < self.len(), "grid index {idx} out of bounds");
        let mut rest = idx;
        let mut digit = |len: usize| {
            let d = rest % len;
            rest /= len;
            d
        };
        let io_nodes = self.io_nodes[digit(self.io_nodes.len())];
        let stripe_unit_kb = self.stripe_unit_kb[digit(self.stripe_unit_kb.len())];
        let interface = self.interface[digit(self.interface.len())];
        let aggregators = self.aggregators[digit(self.aggregators.len())];
        let io_queue_depth = self.io_queue_depth[digit(self.io_queue_depth.len())];
        let cache_mb = self.cache_mb[digit(self.cache_mb.len())];
        Hints {
            cache_mb,
            io_queue_depth,
            aggregators,
            interface,
            stripe_unit_kb,
            io_nodes,
        }
    }

    /// Every grid point, in enumeration order.
    pub fn enumerate(&self) -> Vec<Hints> {
        (0..self.len()).map(|i| self.at(i)).collect()
    }

    /// `n` uniform draws from the grid **with replacement**, from the
    /// seeded in-tree RNG: a deterministic, duplicate-heavy query mix
    /// (the shape a shared planning service sees, and what the memo
    /// cache exists for).
    pub fn sample(&self, n: usize, seed: u64) -> Vec<Hints> {
        assert!(!self.is_empty(), "cannot sample an empty grid");
        let mut rng = SimRng::seed_from(seed);
        let len = self.len() as u64;
        (0..n)
            .map(|_| self.at(rng.range(0, len) as usize))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_hints_are_canonical_and_valid() {
        let d = Hints::default();
        d.validate().unwrap();
        assert!(d.is_canonical());
        assert_eq!(d.canonical().unwrap(), d);
    }

    #[test]
    fn canonicalization_collapses_equivalent_spellings() {
        let base = Hints::default();
        let zeroed = Hints {
            io_queue_depth: 0,
            io_nodes: 0,
            ..base
        };
        assert_eq!(
            zeroed.canonical().unwrap(),
            Hints {
                io_nodes: 1,
                ..base
            }
        );
        let zeroed = Hints {
            io_queue_depth: 0,
            ..base
        };
        assert_eq!(zeroed.canonical().unwrap(), base);
        assert_eq!(zeroed.fingerprint(), base.fingerprint());
        let rounded = Hints {
            stripe_unit_kb: 48,
            ..base
        };
        assert_eq!(rounded.canonical().unwrap().stripe_unit_kb, 64);
        assert_eq!(rounded.fingerprint(), base.fingerprint());
    }

    #[test]
    fn canonicalization_is_idempotent() {
        let raw = Hints {
            cache_mb: 7,
            io_queue_depth: 0,
            aggregators: 3,
            interface: Interface::UnixStyle,
            stripe_unit_kb: 100,
            io_nodes: 0,
        };
        let once = raw.canonical().unwrap();
        assert_eq!(once.canonical().unwrap(), once);
        assert!(once.is_canonical());
    }

    #[test]
    fn validation_rejects_out_of_range_knobs() {
        let over = |h: Hints| h.validate().unwrap_err();
        let e = over(Hints {
            cache_mb: MAX_CACHE_MB + 1,
            ..Hints::default()
        });
        assert_eq!(e.knob, "cache_mb");
        let e = over(Hints {
            io_queue_depth: MAX_QUEUE_DEPTH + 1,
            ..Hints::default()
        });
        assert_eq!(e.knob, "io_queue_depth");
        let e = over(Hints {
            stripe_unit_kb: MAX_STRIPE_UNIT_KB + 1,
            ..Hints::default()
        });
        assert_eq!(e.knob, "stripe_unit_kb");
        let e = over(Hints {
            io_nodes: MAX_IO_NODES + 1,
            ..Hints::default()
        });
        assert_eq!(e.knob, "io_nodes");
    }

    #[test]
    fn fingerprint_distinguishes_every_knob() {
        // Flip each knob away from the default one at a time: all seven
        // fingerprints (default + 6 mutants) must be distinct.
        let d = Hints::default();
        let mutants = [
            d,
            Hints { cache_mb: 8, ..d },
            Hints {
                io_queue_depth: 16,
                ..d
            },
            Hints {
                aggregators: 4,
                ..d
            },
            Hints {
                interface: Interface::Fortran,
                ..d
            },
            Hints {
                stripe_unit_kb: 128,
                ..d
            },
            Hints { io_nodes: 64, ..d },
        ];
        let mut fps: Vec<u64> = mutants.iter().map(Hints::fingerprint).collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), mutants.len(), "fingerprint collision");
    }

    #[test]
    fn fingerprint_is_stable_across_releases() {
        // The memo cache and the BENCH trajectory key on this value; a
        // silent encoding change would invalidate both. Pin it.
        assert_eq!(Hints::default().fingerprint(), 0x2d6f_97c3_1ee0_760a);
    }

    #[test]
    fn grid_enumeration_covers_the_product_in_order() {
        let g = HintGrid {
            cache_mb: vec![0, 4],
            io_queue_depth: vec![1, 8],
            io_nodes: vec![16, 32],
            ..HintGrid::default()
        };
        assert_eq!(g.len(), 8);
        let all = g.enumerate();
        assert_eq!(all.len(), 8);
        // I/O nodes vary fastest, cache slowest.
        assert_eq!(
            (all[0].cache_mb, all[0].io_queue_depth, all[0].io_nodes),
            (0, 1, 16)
        );
        assert_eq!(
            (all[1].cache_mb, all[1].io_queue_depth, all[1].io_nodes),
            (0, 1, 32)
        );
        assert_eq!(
            (all[7].cache_mb, all[7].io_queue_depth, all[7].io_nodes),
            (4, 8, 32)
        );
        // No duplicates in a product enumeration.
        let mut fps: Vec<u64> = all.iter().map(Hints::fingerprint).collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), 8);
    }

    #[test]
    fn grid_sampling_is_seeded_and_duplicate_heavy() {
        let g = HintGrid {
            cache_mb: vec![0, 2],
            io_queue_depth: vec![1, 4],
            ..HintGrid::default()
        };
        let a = g.sample(64, 42);
        let b = g.sample(64, 42);
        assert_eq!(a, b, "same seed, same draw");
        assert_ne!(g.sample(64, 43), a, "different seed, different draw");
        // 64 draws from 4 points must repeat (pigeonhole, but check the
        // dedup the advisor will actually perform).
        let mut fps: Vec<u64> = a.iter().map(Hints::fingerprint).collect();
        fps.sort_unstable();
        fps.dedup();
        assert!(fps.len() <= 4);
    }
}
