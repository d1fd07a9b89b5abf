//! Property tests for the hint engine of DESIGN.md §20.
//!
//! The advisor's memo cache keys on [`Hints::fingerprint`] alone — no
//! stored-key collision audit — so the load-bearing property is the
//! *iff*: **fingerprint equality ⇔ canonical-form equality**, on every
//! validated hint set. Like `struct_props.rs`, the generator is the
//! in-tree [`SimRng`]: no external property-testing dependency, every
//! failure reproducible from the seed in the assertion message.
//!
//! * forward (injectivity) — distinct canonical forms never share a
//!   fingerprint, driven by random pairs and by single-knob mutants
//!   (the adversarial case for a packed encoding);
//! * backward (well-definedness) — equivalent raw spellings (depth 0,
//!   zero counts, non-power-of-two stripe units) collapse to one
//!   fingerprint;
//! * canonicalization is idempotent and never moves a valid value out
//!   of range;
//! * out-of-range knobs are rejected naming the offending knob;
//! * grid sampling is a pure function of (grid, n, seed).

use iosim_core::advisor::hints::{
    MAX_AGGREGATORS, MAX_CACHE_MB, MAX_IO_NODES, MAX_QUEUE_DEPTH, MAX_STRIPE_UNIT_KB,
};
use iosim_core::{HintGrid, Hints};
use iosim_machine::Interface;
use iosim_simkit::rng::SimRng;

/// Seeds per property. Each seed is an independent random trajectory.
const SEEDS: u64 = 12;

const INTERFACES: [Interface; 3] = [Interface::Fortran, Interface::UnixStyle, Interface::Passion];

/// A random *valid* hint set, deliberately spanning the non-canonical
/// spellings: zero counts, depth 0, arbitrary (non-power-of-two) stripe
/// units. Small ranges keep collisions of canonical forms frequent, so
/// the ⇔ check exercises both sides of the biconditional.
fn arb_hints(rng: &mut SimRng) -> Hints {
    Hints {
        cache_mb: rng.range(0, 9),
        io_queue_depth: rng.range(0, 5) as usize,
        aggregators: rng.range(0, 4) as usize,
        interface: INTERFACES[rng.range(0, 3) as usize],
        stripe_unit_kb: rng.range(0, 130),
        io_nodes: rng.range(0, 5) as usize,
    }
}

/// An equivalent re-spelling of `h`: same canonical form, possibly
/// different raw bytes. Each transform is one the canonicalizer
/// documents as collapsing.
fn respell(h: &Hints, rng: &mut SimRng) -> Hints {
    let mut r = *h;
    // depth 1 ↔ 0: both are the legacy FIFO.
    if r.io_queue_depth <= 1 {
        r.io_queue_depth = rng.range(0, 2) as usize;
    }
    // zero counts mean one.
    if r.io_nodes <= 1 {
        r.io_nodes = rng.range(0, 2) as usize;
    }
    // any stripe unit in (pow2/2, pow2] rounds up to the same pow2.
    let pow2 = r.stripe_unit_kb.next_power_of_two().max(1);
    r.stripe_unit_kb = rng.range(pow2 / 2 + 1, pow2 + 1).min(pow2);
    r
}

#[test]
fn fingerprint_equality_iff_canonical_equality() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from(0x41f7_0000 + seed);
        for step in 0..2_000u64 {
            let a = arb_hints(&mut rng);
            // Half the pairs are independent draws (usually distinct
            // canonical forms), half are re-spellings of `a` (always the
            // same canonical form) — so both directions get dense cover.
            let b = if rng.range(0, 2) == 0 {
                arb_hints(&mut rng)
            } else {
                respell(&a, &mut rng)
            };
            let (ca, cb) = (a.canonical().unwrap(), b.canonical().unwrap());
            assert_eq!(
                a.fingerprint() == b.fingerprint(),
                ca == cb,
                "seed {seed} step {step}: fp iff violated for {a:?} vs {b:?}"
            );
        }
    }
}

#[test]
fn single_knob_mutants_never_collide() {
    // The adversarial case for a bit-packed fingerprint: two hint sets
    // differing in exactly one canonical knob. A field-width mistake
    // (one knob's bits bleeding into a neighbor's) shows up here first.
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from(0x51de_0000 + seed);
        for step in 0..500u64 {
            let base = arb_hints(&mut rng).canonical().unwrap();
            let mut m = base;
            match rng.range(0, 6) {
                0 => m.cache_mb = (m.cache_mb + 1 + rng.range(0, 16)) % (MAX_CACHE_MB + 1),
                1 => {
                    m.io_queue_depth =
                        1 + (m.io_queue_depth + rng.range(0, 8) as usize) % MAX_QUEUE_DEPTH
                }
                2 => m.aggregators = (m.aggregators + 1) % (MAX_AGGREGATORS + 1),
                3 => {
                    m.interface =
                        INTERFACES[(interface_ord(m.interface) + 1 + rng.range(0, 2) as usize) % 3]
                }
                4 => m.stripe_unit_kb = other_pow2(m.stripe_unit_kb, &mut rng),
                _ => m.io_nodes = 1 + m.io_nodes % MAX_IO_NODES,
            }
            let m = m.canonical().unwrap();
            if m == base {
                continue; // mutation wrapped back onto itself
            }
            assert_ne!(
                m.fingerprint(),
                base.fingerprint(),
                "seed {seed} step {step}: collision between {base:?} and {m:?}"
            );
        }
    }
}

fn interface_ord(i: Interface) -> usize {
    INTERFACES.iter().position(|&x| x == i).unwrap()
}

/// A power of two in range, different from `cur`'s canonical stripe.
fn other_pow2(cur: u64, rng: &mut SimRng) -> u64 {
    let cur = cur.next_power_of_two().max(1);
    loop {
        let cand = 1u64 << rng.range(0, MAX_STRIPE_UNIT_KB.trailing_zeros() as u64 + 1);
        if cand != cur {
            return cand;
        }
    }
}

#[test]
fn canonicalization_is_idempotent_and_stays_in_range() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::seed_from(0x1de3_0000 + seed);
        for step in 0..2_000u64 {
            let raw = arb_hints(&mut rng);
            let once = raw.canonical().unwrap();
            assert!(
                once.is_canonical(),
                "seed {seed} step {step}: canonical({raw:?}) not a fixed point"
            );
            assert_eq!(once.canonical().unwrap(), once, "seed {seed} step {step}");
            // Canonicalization must never push a valid value past a
            // bound (the stripe unit rounds *up*).
            once.validate()
                .unwrap_or_else(|e| panic!("seed {seed} step {step}: {e} after canonical"));
            // And the maximum stripe unit must survive round-up intact.
            let at_max = Hints {
                stripe_unit_kb: MAX_STRIPE_UNIT_KB,
                ..raw
            };
            assert_eq!(
                at_max.canonical().unwrap().stripe_unit_kb,
                MAX_STRIPE_UNIT_KB,
                "seed {seed} step {step}"
            );
        }
    }
}

#[test]
fn out_of_range_knobs_are_rejected_by_name() {
    // Every knob, one past its bound: validation names the knob, and
    // fingerprints of invalid hints are unreachable (canonical() errors
    // rather than packing out-of-width bits).
    let cases: [(&str, Hints); 5] = [
        (
            "cache_mb",
            Hints {
                cache_mb: MAX_CACHE_MB + 1,
                ..Hints::default()
            },
        ),
        (
            "io_queue_depth",
            Hints {
                io_queue_depth: MAX_QUEUE_DEPTH + 1,
                ..Hints::default()
            },
        ),
        (
            "aggregators",
            Hints {
                aggregators: MAX_AGGREGATORS + 1,
                ..Hints::default()
            },
        ),
        (
            "stripe_unit_kb",
            Hints {
                stripe_unit_kb: MAX_STRIPE_UNIT_KB + 1,
                ..Hints::default()
            },
        ),
        (
            "io_nodes",
            Hints {
                io_nodes: MAX_IO_NODES + 1,
                ..Hints::default()
            },
        ),
    ];
    for (knob, h) in cases {
        let e = h.validate().unwrap_err();
        assert_eq!(e.knob, knob);
        assert!(h.canonical().is_err(), "{knob}: canonical must refuse");
        assert_eq!(
            e.to_string(),
            format!("hint {} = {} out of range (max {})", e.knob, e.value, e.max)
        );
    }
}

#[test]
fn grid_sampling_is_a_pure_function_of_grid_and_seed() {
    for seed in 0..SEEDS {
        let g = HintGrid {
            cache_mb: vec![0, 2, 8],
            io_queue_depth: vec![1, 8],
            io_nodes: vec![2, 16],
            ..HintGrid::default()
        };
        let a = g.sample(48, seed);
        let b = g.sample(48, seed);
        assert_eq!(a, b, "seed {seed}: same seed must reproduce the draw");
        // Every draw is a grid point (membership via the enumerated set).
        let all = g.enumerate();
        for (i, h) in a.iter().enumerate() {
            assert!(all.contains(h), "seed {seed} draw {i}: {h:?} not in grid");
        }
        // Distinct seeds diverge (48 draws from 12 points: a clash of
        // whole sequences would be a broken seed plumbing, not luck).
        assert_ne!(g.sample(48, seed + SEEDS), a, "seed {seed}: seed ignored");
    }
}
