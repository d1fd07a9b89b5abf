//! Intrusive-list LRU slab: the flat engine under the block cache.
//!
//! The first cache implementation kept three pointer-chasing collections
//! per I/O node: a `HashMap<BlockKey, Block>` for residency, a
//! `BTreeMap<u64, BlockKey>` over a monotonic access tick for LRU order,
//! and a dirty *count* — so a touch was a B-tree remove + insert, an
//! eviction a B-tree first-entry walk, and every flush round re-walked
//! the **entire** tick index filtering for dirty blocks. [`LruSlab`]
//! replaces all three with one slab of nodes threaded by two intrusive
//! doubly-linked lists (u32 indices, `NIL = u32::MAX`):
//!
//! ```text
//!   entries: [ Node{key, value, dirty, prev, next, dprev, dnext} ... ]
//!              ▲ slots reused through a free list
//!   LRU list:   head (least recent) ⇄ ... ⇄ tail (most recent)
//!   dirty list: dhead ⇄ ... ⇄ dtail   (sublist, same relative order)
//! ```
//!
//! Touch, insert, evict, and clean are all O(1) pointer splices; the
//! flush daemon walks the dirty sublist directly instead of filtering
//! the full index. A deterministic [`FxHashMap`] keyed by block maps to
//! slot indices for point lookups only — no sim-visible decision ever
//! iterates it.
//!
//! # Determinism
//!
//! The dirty sublist is kept ordered exactly like the old tick-index
//! filter: every operation that moves a block to most-recent in the main
//! list ([`LruSlab::touch`], [`LruSlab::insert`]) also moves it to the
//! dirty tail if dirty, and [`LruSlab::set_dirty`] appends at the dirty
//! tail precisely when the block is (or just became) most-recent. So
//! "dirty sublist order" ≡ "LRU order restricted to dirty blocks" at all
//! times, and flush batches pick the same victims in the same order the
//! `BTreeMap` filter did — the property suite pins this against a twin.

use std::hash::Hash;

use iosim_simkit::hash::FxHashMap;

/// Null link.
const NIL: u32 = u32::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    dirty: bool,
    /// Main LRU list links (prev = toward least-recent).
    prev: u32,
    next: u32,
    /// Dirty sublist links (valid only while `dirty`).
    dprev: u32,
    dnext: u32,
}

/// Slab-backed LRU map with an intrusive dirty sublist.
///
/// Keys must be cheap to copy (block keys are `(u64, u64)`); values are
/// arbitrary. Least-recent is the *front* of the list; [`LruSlab::insert`]
/// and [`LruSlab::touch`] place entries at the back (most-recent).
pub struct LruSlab<K, V> {
    entries: Vec<Option<Node<K, V>>>,
    free: Vec<u32>,
    /// Point-lookup index; never iterated.
    index: FxHashMap<K, u32>,
    head: u32,
    tail: u32,
    dhead: u32,
    dtail: u32,
    dirty: usize,
}

impl<K: Copy + Eq + Hash, V> Default for LruSlab<K, V> {
    fn default() -> Self {
        LruSlab::new()
    }
}

impl<K: Copy + Eq + Hash, V> LruSlab<K, V> {
    /// An empty slab.
    pub fn new() -> LruSlab<K, V> {
        LruSlab {
            entries: Vec::new(),
            free: Vec::new(),
            index: FxHashMap::default(),
            head: NIL,
            tail: NIL,
            dhead: NIL,
            dtail: NIL,
            dirty: 0,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of dirty entries.
    pub fn dirty_len(&self) -> usize {
        self.dirty
    }

    /// Whether `key` is resident.
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Shared borrow of `key`'s value (no LRU effect).
    pub fn value(&self, key: &K) -> Option<&V> {
        let &slot = self.index.get(key)?;
        Some(&self.node(slot).value)
    }

    /// Mutable borrow of `key`'s value (no LRU effect).
    pub fn value_mut(&mut self, key: &K) -> Option<&mut V> {
        let &slot = self.index.get(key)?;
        Some(&mut self.node_mut(slot).value)
    }

    /// Move `key` to most-recent (and, if dirty, to the dirty tail, so
    /// the sublist keeps mirroring LRU order). Returns whether the key
    /// was resident.
    pub fn touch(&mut self, key: &K) -> bool {
        let Some(&slot) = self.index.get(key) else {
            return false;
        };
        self.unlink_main(slot);
        self.push_back_main(slot);
        if self.node(slot).dirty {
            self.unlink_dirty(slot);
            self.push_back_dirty(slot);
        }
        true
    }

    /// Insert a new entry at most-recent. Panics if the key is already
    /// resident (callers check residency first — the update path has
    /// different semantics).
    pub fn insert(&mut self, key: K, value: V, dirty: bool) {
        let node = Node {
            key,
            value,
            dirty,
            prev: NIL,
            next: NIL,
            dprev: NIL,
            dnext: NIL,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.entries[s as usize] = Some(node);
                s
            }
            None => {
                self.entries.push(Some(node));
                (self.entries.len() - 1) as u32
            }
        };
        let prev = self.index.insert(key, slot);
        assert!(prev.is_none(), "insert of a resident key");
        self.push_back_main(slot);
        if dirty {
            self.push_back_dirty(slot);
            self.dirty += 1;
        }
    }

    /// Mark `key` dirty, appending it to the dirty tail if it was clean.
    /// Returns true when the key was resident and newly dirtied.
    ///
    /// Callers dirty a block only while making it most-recent (the
    /// write hit path touches right after), which is what keeps the
    /// dirty-tail append consistent with LRU order.
    pub fn set_dirty(&mut self, key: &K) -> bool {
        let Some(&slot) = self.index.get(key) else {
            return false;
        };
        if self.node(slot).dirty {
            return false;
        }
        self.node_mut(slot).dirty = true;
        self.push_back_dirty(slot);
        self.dirty += 1;
        true
    }

    /// Mark `key` clean in place: removed from the dirty sublist, main
    /// LRU position untouched (a writeback is not an access). Returns
    /// true when the key was resident and dirty.
    pub fn clear_dirty(&mut self, key: &K) -> bool {
        let Some(&slot) = self.index.get(key) else {
            return false;
        };
        if !self.node(slot).dirty {
            return false;
        }
        self.unlink_dirty(slot);
        self.node_mut(slot).dirty = false;
        self.dirty -= 1;
        true
    }

    /// Remove and return the least-recent entry: `(key, value, dirty)`.
    pub fn pop_lru(&mut self) -> Option<(K, V, bool)> {
        let slot = self.head;
        if slot == NIL {
            return None;
        }
        self.unlink_main(slot);
        if self.node(slot).dirty {
            self.unlink_dirty(slot);
            self.dirty -= 1;
        }
        let node = self.entries[slot as usize].take().expect("live head");
        self.free.push(slot);
        self.index.remove(&node.key);
        Some((node.key, node.value, node.dirty))
    }

    /// Least-recent key without removing it.
    pub fn peek_lru(&self) -> Option<&K> {
        if self.head == NIL {
            None
        } else {
            Some(&self.node(self.head).key)
        }
    }

    /// Keys of the dirty entries, least-recent first — the flush
    /// daemon's victim order, identical to filtering the full LRU order
    /// for dirty entries (see the module invariant).
    pub fn iter_dirty(&self) -> DirtyIter<'_, K, V> {
        DirtyIter {
            slab: self,
            at: self.dhead,
        }
    }

    #[inline]
    fn node(&self, slot: u32) -> &Node<K, V> {
        self.entries[slot as usize].as_ref().expect("live slot")
    }

    #[inline]
    fn node_mut(&mut self, slot: u32) -> &mut Node<K, V> {
        self.entries[slot as usize].as_mut().expect("live slot")
    }

    fn unlink_main(&mut self, slot: u32) {
        let (prev, next) = {
            let n = self.node(slot);
            (n.prev, n.next)
        };
        if prev != NIL {
            self.node_mut(prev).next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.node_mut(next).prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_back_main(&mut self, slot: u32) {
        let old_tail = self.tail;
        {
            let n = self.node_mut(slot);
            n.prev = old_tail;
            n.next = NIL;
        }
        if old_tail != NIL {
            self.node_mut(old_tail).next = slot;
        } else {
            self.head = slot;
        }
        self.tail = slot;
    }

    fn unlink_dirty(&mut self, slot: u32) {
        let (dprev, dnext) = {
            let n = self.node(slot);
            (n.dprev, n.dnext)
        };
        if dprev != NIL {
            self.node_mut(dprev).dnext = dnext;
        } else {
            self.dhead = dnext;
        }
        if dnext != NIL {
            self.node_mut(dnext).dprev = dprev;
        } else {
            self.dtail = dprev;
        }
    }

    fn push_back_dirty(&mut self, slot: u32) {
        let old_tail = self.dtail;
        {
            let n = self.node_mut(slot);
            n.dprev = old_tail;
            n.dnext = NIL;
        }
        if old_tail != NIL {
            self.node_mut(old_tail).dnext = slot;
        } else {
            self.dhead = slot;
        }
        self.dtail = slot;
    }
}

/// Iterator over dirty keys, least-recent first.
pub struct DirtyIter<'a, K, V> {
    slab: &'a LruSlab<K, V>,
    at: u32,
}

impl<K: Copy + Eq + Hash, V> Iterator for DirtyIter<'_, K, V> {
    type Item = K;
    fn next(&mut self) -> Option<K> {
        if self.at == NIL {
            return None;
        }
        let n = self.slab.node(self.at);
        self.at = n.dnext;
        Some(n.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Key = (u64, u64);

    #[test]
    fn lru_order_is_insert_then_touch_order() {
        let mut s: LruSlab<Key, u32> = LruSlab::new();
        for i in 0..4u64 {
            s.insert((1, i), i as u32, false);
        }
        assert_eq!(s.peek_lru(), Some(&(1, 0)));
        assert!(s.touch(&(1, 0)));
        assert_eq!(s.peek_lru(), Some(&(1, 1)));
        let order: Vec<Key> = std::iter::from_fn(|| s.pop_lru().map(|(k, ..)| k)).collect();
        assert_eq!(order, vec![(1, 1), (1, 2), (1, 3), (1, 0)]);
        assert!(s.is_empty());
    }

    #[test]
    fn dirty_sublist_mirrors_lru_order() {
        let mut s: LruSlab<Key, ()> = LruSlab::new();
        s.insert((1, 0), (), true);
        s.insert((1, 1), (), false);
        s.insert((1, 2), (), true);
        s.insert((1, 3), (), true);
        assert_eq!(s.dirty_len(), 3);
        assert_eq!(
            s.iter_dirty().collect::<Vec<_>>(),
            vec![(1, 0), (1, 2), (1, 3)]
        );
        // Touching a dirty entry moves it to both tails.
        s.touch(&(1, 0));
        assert_eq!(
            s.iter_dirty().collect::<Vec<_>>(),
            vec![(1, 2), (1, 3), (1, 0)]
        );
        // Cleaning keeps the LRU position but leaves the sublist.
        assert!(s.clear_dirty(&(1, 3)));
        assert_eq!(s.iter_dirty().collect::<Vec<_>>(), vec![(1, 2), (1, 0)]);
        assert_eq!(s.dirty_len(), 2);
        // Re-dirtying a clean, already-resident entry appends.
        assert!(s.set_dirty(&(1, 1)));
        assert!(!s.set_dirty(&(1, 1)), "already dirty");
        assert_eq!(
            s.iter_dirty().collect::<Vec<_>>(),
            vec![(1, 2), (1, 0), (1, 1)]
        );
    }

    #[test]
    fn pop_reports_dirtiness_and_recycles_slots() {
        let mut s: LruSlab<Key, u8> = LruSlab::new();
        s.insert((7, 0), 1, true);
        s.insert((7, 1), 2, false);
        assert_eq!(s.pop_lru(), Some(((7, 0), 1, true)));
        assert_eq!(s.dirty_len(), 0);
        // The freed slot is reused; links stay coherent.
        s.insert((7, 2), 3, true);
        assert_eq!(s.entries.len(), 2, "slot was recycled");
        assert_eq!(s.pop_lru(), Some(((7, 1), 2, false)));
        assert_eq!(s.pop_lru(), Some(((7, 2), 3, true)));
        assert_eq!(s.pop_lru(), None);
    }

    #[test]
    fn value_mut_does_not_reorder() {
        let mut s: LruSlab<Key, u64> = LruSlab::new();
        s.insert((1, 0), 10, false);
        s.insert((1, 1), 20, false);
        *s.value_mut(&(1, 0)).unwrap() = 99;
        assert_eq!(s.peek_lru(), Some(&(1, 0)));
        assert_eq!(s.value(&(1, 0)), Some(&99));
    }

    /// Twin check against the old representation: a BTreeMap over access
    /// ticks plus a HashMap of dirty flags, driven by a random op mix.
    /// Eviction order and the dirty flush order must agree everywhere.
    #[test]
    fn matches_tick_index_twin() {
        use iosim_simkit::rng::SimRng;
        use std::collections::{BTreeMap, HashMap};

        struct Twin {
            blocks: HashMap<Key, (u64, bool)>, // tick, dirty
            lru: BTreeMap<u64, Key>,
            next_tick: u64,
        }
        impl Twin {
            fn touch(&mut self, key: Key) {
                if let Some((tick, _)) = self.blocks.get_mut(&key) {
                    self.lru.remove(&std::mem::replace(tick, 0));
                    *tick = self.next_tick;
                    self.lru.insert(self.next_tick, key);
                    self.next_tick += 1;
                }
            }
            fn dirty_in_lru_order(&self) -> Vec<Key> {
                self.lru
                    .values()
                    .filter(|k| self.blocks[k].1)
                    .copied()
                    .collect()
            }
        }

        let mut rng = SimRng::seed_from(0xd157_0a7a);
        let mut ours: LruSlab<Key, ()> = LruSlab::new();
        let mut twin = Twin {
            blocks: HashMap::new(),
            lru: BTreeMap::new(),
            next_tick: 0,
        };
        for step in 0..30_000u32 {
            let key: Key = (rng.range(1, 3), rng.range(0, 24));
            match rng.range(0, 100) {
                // Insert-or-touch, possibly dirtying (the write path).
                0..=39 => {
                    let dirty = rng.range(0, 2) == 0;
                    if ours.contains(&key) {
                        if dirty {
                            ours.set_dirty(&key);
                            twin.blocks.get_mut(&key).unwrap().1 = true;
                        }
                        ours.touch(&key);
                        twin.touch(key);
                    } else {
                        ours.insert(key, (), dirty);
                        twin.blocks.insert(key, (twin.next_tick, dirty));
                        twin.lru.insert(twin.next_tick, key);
                        twin.next_tick += 1;
                    }
                }
                // Read hit path: touch only.
                40..=69 => {
                    ours.touch(&key);
                    twin.touch(key);
                }
                // Eviction.
                70..=84 => {
                    let got = ours.pop_lru();
                    let want = twin.lru.iter().next().map(|(&t, &k)| (t, k));
                    match (got, want) {
                        (None, None) => {}
                        (Some((k, _, d)), Some((t, wk))) => {
                            assert_eq!(k, wk, "victim at step {step}");
                            assert_eq!(d, twin.blocks[&wk].1);
                            twin.lru.remove(&t);
                            twin.blocks.remove(&wk);
                        }
                        (g, w) => panic!("step {step}: {g:?} vs {w:?}"),
                    }
                }
                // Writeback: clean the oldest dirty block in place.
                _ => {
                    let ours_first = ours.iter_dirty().next();
                    let twin_first = twin.dirty_in_lru_order().first().copied();
                    assert_eq!(ours_first, twin_first, "flush victim at step {step}");
                    if let Some(k) = ours_first {
                        ours.clear_dirty(&k);
                        twin.blocks.get_mut(&k).unwrap().1 = false;
                    }
                }
            }
            assert_eq!(ours.len(), twin.blocks.len());
            if step % 512 == 0 {
                assert_eq!(
                    ours.iter_dirty().collect::<Vec<_>>(),
                    twin.dirty_in_lru_order()
                );
            }
        }
    }
}
