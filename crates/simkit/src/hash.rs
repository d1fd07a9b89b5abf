//! Deterministic, fast hashing for simulation hot paths.
//!
//! `std::collections::HashMap`'s default SipHash is keyed by a per-process
//! random seed: hashes differ between runs, which makes iteration order
//! nondeterministic *and* costs ~1–2 ns per word more than necessary. Maps
//! on simulation hot paths (block cache index, open-file table) use
//! [`FxHashMap`] instead: the rustc-style "Fx" hash — a word-at-a-time
//! multiply-rotate — which is seedless, so the same program hashes the
//! same keys to the same buckets in every run, and several times cheaper
//! per lookup on the short fixed-size keys these maps use.
//!
//! ## Determinism discipline
//!
//! A seedless hash makes *iteration order* reproducible across runs of the
//! same binary, but it is still insertion-history- and capacity-dependent —
//! not a stable order anything should depend on. The workspace rule stands
//! regardless of hasher: **no sim-visible decision may consume map iteration
//! order** (point lookups are always fine; iterate only after collecting and
//! sorting keys). `verify.sh` greps for violations.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from FxHash (as used by rustc): a 64-bit constant derived
/// from pi with good avalanche behavior under multiply-rotate mixing.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time multiply-rotate hasher. Seedless and deterministic:
/// identical key streams produce identical hashes in every process.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while rest.len() >= 8 {
            let mut word = [0u8; 8];
            word.copy_from_slice(&rest[..8]);
            self.add_to_hash(u64::from_le_bytes(word));
            rest = &rest[8..];
        }
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add_to_hash(v as u64);
        self.add_to_hash((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]; zero-sized, so the map itself carries no
/// seed state.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` with the deterministic Fx hasher. Drop-in for
/// `std::collections::HashMap` on sim hot paths.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` with the deterministic Fx hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn identical_keys_hash_identically() {
        // Seedless: two independently built hashers agree, which is what
        // makes bucket layout reproducible across runs of the same binary.
        assert_eq!(hash_of(&(7u64, 42u64)), hash_of(&(7u64, 42u64)));
        assert_eq!(hash_of(&"fft.dat"), hash_of(&"fft.dat"));
        assert_eq!(hash_of(&12345usize), hash_of(&12345usize));
    }

    #[test]
    fn distinct_keys_spread() {
        // Not a hash-quality suite, just a sanity screen: consecutive
        // block keys must not collapse onto a few hash values.
        let mut seen = std::collections::BTreeSet::new();
        for uid in 0..16u64 {
            for blk in 0..64u64 {
                seen.insert(hash_of(&(uid, blk)));
            }
        }
        assert_eq!(seen.len(), 16 * 64);
    }

    #[test]
    fn byte_stream_matches_padded_tail() {
        // The `write` tail path zero-pads; different lengths with the same
        // prefix still differ because the padded words differ.
        let mut a = FxHasher::default();
        a.write(b"abcdefgh");
        let mut b = FxHasher::default();
        b.write(b"abcdefg");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<(u64, u64), u32> = FxHashMap::default();
        m.insert((1, 2), 3);
        assert_eq!(m.get(&(1, 2)), Some(&3));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(9);
        assert!(s.contains(&9));
    }
}
