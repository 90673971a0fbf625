//! Dense bitset state sets and FxHash-style interning.
//!
//! The decision procedures of this workspace bottom out in subset
//! construction, products, and partition refinement, all of which manipulate
//! sets of [`StateId`]s. [`StateSet`] packs such a set into `Vec<u64>` words
//! so that membership is one shift-and-mask, union/intersection run over
//! `n/64` words, and iteration walks set bits with `trailing_zeros` — always
//! in ascending order, so every construction built on it keeps the
//! deterministic iteration order the B-tree containers used to provide.
//!
//! [`Interner`] maps structured keys (subset states, ranking states, product
//! pairs) to dense ids using a [`FxHasher`]-based hash map — the multiply-xor
//! hash used by rustc, implemented locally because this workspace builds
//! offline with no external crates. Lookups verify full key equality, so
//! hash collisions can never conflate two distinct states.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::StateId;

/// The multiplier of the Fx (Firefox/rustc) multiply-xor hash.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, non-cryptographic [`Hasher`] (the rustc "FxHash" scheme).
///
/// Each written word is folded in with a rotate-xor-multiply step. The hash
/// is deterministic across runs and platforms of the same word size, which
/// is all the in-process interners here need.
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, w: u64) {
        self.hash = (self.hash.rotate_left(5) ^ w).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// [`std::hash::BuildHasher`] for [`FxHasher`]-backed maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A set of [`StateId`]s stored as a dense bitset (`Vec<u64>` words).
///
/// Invariant: the word vector never ends in a zero word, so equality and
/// hashing are plain word-slice comparisons regardless of how large a
/// universe a set has touched. Iteration yields members in ascending order.
///
/// # Example
///
/// ```
/// use rl_automata::StateSet;
///
/// let mut s = StateSet::new();
/// s.insert(3);
/// s.insert(130);
/// assert!(s.contains(3) && s.contains(130) && !s.contains(64));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 130]);
/// assert_eq!(s.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct StateSet {
    words: Vec<u64>,
}

impl StateSet {
    /// The empty set.
    pub fn new() -> StateSet {
        StateSet::default()
    }

    /// The empty set, with capacity for states `< universe` preallocated.
    pub fn with_universe(universe: usize) -> StateSet {
        StateSet {
            words: Vec::with_capacity(universe.div_ceil(64)),
        }
    }

    /// Removes every member, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Number of members (popcount over the words).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether `q` is a member.
    #[inline]
    pub fn contains(&self, q: StateId) -> bool {
        match self.words.get(q / 64) {
            Some(w) => w & (1u64 << (q % 64)) != 0,
            None => false,
        }
    }

    /// Inserts `q`; returns whether it was newly added.
    #[inline]
    pub fn insert(&mut self, q: StateId) -> bool {
        let (wi, bit) = (q / 64, 1u64 << (q % 64));
        if wi >= self.words.len() {
            self.words.resize(wi + 1, 0);
        }
        let fresh = self.words[wi] & bit == 0;
        self.words[wi] |= bit;
        fresh
    }

    /// Removes `q`; returns whether it was present.
    pub fn remove(&mut self, q: StateId) -> bool {
        let (wi, bit) = (q / 64, 1u64 << (q % 64));
        match self.words.get_mut(wi) {
            Some(w) if *w & bit != 0 => {
                *w &= !bit;
                self.trim();
                true
            }
            _ => false,
        }
    }

    /// In-place union: `self ∪= other`.
    pub fn union_with(&mut self, other: &StateSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// In-place intersection: `self ∩= other`.
    pub fn intersect_with(&mut self, other: &StateSet) {
        self.words.truncate(other.words.len());
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
        self.trim();
    }

    /// In-place difference: `self \= other`.
    pub fn difference_with(&mut self, other: &StateSet) {
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
        self.trim();
    }

    /// `self ∩ other` as a new set.
    pub fn intersection(&self, other: &StateSet) -> StateSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// `self \ other` as a new set.
    pub fn difference(&self, other: &StateSet) -> StateSet {
        let mut out = self.clone();
        out.difference_with(other);
        out
    }

    /// Whether the sets share a member.
    pub fn intersects(&self, other: &StateSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .any(|(&a, &b)| a & b != 0)
    }

    /// Whether every member of `self` is in `other`.
    pub fn is_subset(&self, other: &StateSet) -> bool {
        self.words.len() <= other.words.len()
            && self
                .words
                .iter()
                .zip(&other.words)
                .all(|(&a, &b)| a & !b == 0)
    }

    /// The smallest member, if any.
    pub fn first(&self) -> Option<StateId> {
        self.iter().next()
    }

    /// Iterates over the members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = StateId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + bit)
            })
        })
    }

    /// Drops trailing zero words, restoring the normal form that makes
    /// derived `Eq`/`Hash` correct.
    fn trim(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }
}

impl FromIterator<StateId> for StateSet {
    fn from_iter<I: IntoIterator<Item = StateId>>(iter: I) -> StateSet {
        let mut s = StateSet::new();
        for q in iter {
            s.insert(q);
        }
        s
    }
}

impl Extend<StateId> for StateSet {
    fn extend<I: IntoIterator<Item = StateId>>(&mut self, iter: I) {
        for q in iter {
            self.insert(q);
        }
    }
}

/// Interns structured keys (subsets, rankings, product tuples) as dense ids.
///
/// Replaces the `BTreeMap<Key, StateId>` indexes of the exploration loops:
/// [`Interner::intern`] returns the existing id of an equal key or assigns
/// the next id (`keys` order is insertion order, which the worklist
/// algorithms rely on for deterministic numbering). Lookup verifies key
/// equality, so two keys that collide in the hash can never share an id.
///
/// Each key is stored once and hashed once per call: a table maps the
/// key's [`FxHasher`] hash to the last id interned with that hash, and ids
/// of equal hash are chained (full 64-bit collisions are rare, so chains
/// are almost always one long).
///
/// # Example
///
/// ```
/// use rl_automata::{Interner, StateSet};
///
/// let mut index: Interner<StateSet> = Interner::new();
/// let (a, fresh_a) = index.intern(StateSet::from_iter([1, 2]));
/// let (b, fresh_b) = index.intern(StateSet::from_iter([2, 1]));
/// assert_eq!(a, b);
/// assert!(fresh_a && !fresh_b);
/// assert_eq!(index.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Interner<K> {
    /// Key hash → the last id interned with that hash.
    heads: HashMap<u64, StateId, BuildHasherDefault<HashedHasher>>,
    /// `chain[id]`: the previous id whose key has `keys[id]`'s hash, or
    /// [`NO_ID`].
    chain: Vec<StateId>,
    keys: Vec<K>,
}

/// End of an [`Interner`] hash chain.
const NO_ID: StateId = StateId::MAX;

/// Passes an [`Interner`]'s precomputed `u64` key hash through unchanged.
#[derive(Debug, Clone, Default)]
struct HashedHasher(u64);

impl Hasher for HashedHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("only u64 hashes are written");
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

impl<K: Hash + Eq + Clone> Interner<K> {
    /// An empty interner.
    pub fn new() -> Interner<K> {
        Interner {
            heads: HashMap::default(),
            chain: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// An empty interner with room for `capacity` keys.
    pub fn with_capacity(capacity: usize) -> Interner<K> {
        Interner {
            heads: HashMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default()),
            chain: Vec::with_capacity(capacity),
            keys: Vec::with_capacity(capacity),
        }
    }

    /// Returns the id of `key`, interning it when new; the flag is `true`
    /// exactly when the key was newly added.
    pub fn intern(&mut self, key: K) -> (StateId, bool) {
        match self.try_intern(&key, || Ok::<(), std::convert::Infallible>(())) {
            Ok(found) => found,
            Err(never) => match never {},
        }
    }

    /// [`Interner::intern`] behind an admission check: a new key is
    /// interned (cloned) only when `admit` returns `Ok`; when it refuses,
    /// its error is returned and the interner is unchanged. Known keys
    /// never call `admit`. The subset constructions charge a guard state
    /// here, and a bounded exploration checks its limit.
    ///
    /// # Errors
    ///
    /// The error of `admit`.
    pub fn try_intern<E>(
        &mut self,
        key: &K,
        admit: impl FnOnce() -> Result<(), E>,
    ) -> Result<(StateId, bool), E> {
        let id = self.keys.len();
        let prev = match self.heads.entry(fx_hash(key)) {
            Entry::Vacant(slot) => {
                admit()?;
                slot.insert(id);
                NO_ID
            }
            Entry::Occupied(mut slot) => {
                let mut at = *slot.get();
                while at != NO_ID {
                    if self.keys[at] == *key {
                        return Ok((at, false));
                    }
                    at = self.chain[at];
                }
                admit()?;
                std::mem::replace(slot.get_mut(), id)
            }
        };
        self.chain.push(prev);
        self.keys.push(key.clone());
        Ok((id, true))
    }

    /// The id of `key`, when already interned.
    pub fn get(&self, key: &K) -> Option<StateId> {
        let mut at = *self.heads.get(&fx_hash(key))?;
        while at != NO_ID {
            if self.keys[at] == *key {
                return Some(at);
            }
            at = self.chain[at];
        }
        None
    }

    /// The key interned as `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` has not been assigned.
    pub fn key(&self, id: StateId) -> &K {
        &self.keys[id]
    }

    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// The [`FxHasher`] hash of `key`.
fn fx_hash<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut hasher = FxHasher::default();
    key.hash(&mut hasher);
    hasher.finish()
}

/// Index for product constructions: maps a state pair `(p, q)` from two
/// operand automata to the id of the materialized product state.
///
/// When the product bound `rows × cols` is small enough the table is a flat
/// pre-sized vector (one probe, no hashing, no rebalancing — this is the
/// "pre-size from the known product bound" fast path); for huge bounds it
/// falls back to an [`FxHashMap`] so memory stays proportional to the states
/// actually materialized rather than to the worst case.
///
/// # Example
///
/// ```
/// use rl_automata::PairTable;
///
/// let mut t = PairTable::new(10, 10);
/// assert_eq!(t.get(3, 4), None);
/// t.set(3, 4, 0);
/// assert_eq!(t.get(3, 4), Some(0));
/// ```
#[derive(Debug, Clone)]
pub struct PairTable {
    cols: usize,
    repr: PairRepr,
}

#[derive(Debug, Clone)]
enum PairRepr {
    /// `flat[p * cols + q]`, with `u32::MAX` meaning "absent".
    Flat(Vec<u32>),
    Sparse(FxHashMap<(StateId, StateId), StateId>),
}

impl PairTable {
    /// Largest product bound allocated flat (16 MiB of `u32`s).
    const FLAT_LIMIT: usize = 1 << 22;

    /// An empty table for pairs in `[0, rows) × [0, cols)`.
    pub fn new(rows: usize, cols: usize) -> PairTable {
        let bound = rows.checked_mul(cols);
        let repr = match bound {
            Some(b) if b <= Self::FLAT_LIMIT => PairRepr::Flat(vec![u32::MAX; b]),
            _ => PairRepr::Sparse(FxHashMap::default()),
        };
        PairTable { cols, repr }
    }

    /// The id assigned to `(p, q)`, if any.
    #[inline]
    pub fn get(&self, p: StateId, q: StateId) -> Option<StateId> {
        match &self.repr {
            PairRepr::Flat(flat) => {
                let v = flat[p * self.cols + q];
                (v != u32::MAX).then_some(v as StateId)
            }
            PairRepr::Sparse(map) => map.get(&(p, q)).copied(),
        }
    }

    /// Assigns `id` to `(p, q)`.
    ///
    /// # Panics
    ///
    /// Panics if a flat table is given an id that does not fit in the
    /// `u32` sentinel encoding (unreachable under any realistic budget).
    #[inline]
    pub fn set(&mut self, p: StateId, q: StateId, id: StateId) {
        match &mut self.repr {
            PairRepr::Flat(flat) => {
                assert!(id < u32::MAX as StateId, "product id overflow");
                flat[p * self.cols + q] = id as u32;
            }
            PairRepr::Sparse(map) => {
                map.insert((p, q), id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fx_hash<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = FxHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn empty_set_behaves() {
        let s = StateSet::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(0));
        assert_eq!(s.iter().count(), 0);
        assert_eq!(s.first(), None);
        assert_eq!(s, StateSet::default());
    }

    #[test]
    fn word_boundary_members_63_64_65() {
        for q in [63usize, 64, 65] {
            let mut s = StateSet::new();
            assert!(s.insert(q));
            assert!(!s.insert(q), "re-insert of {q} reports not-fresh");
            assert!(s.contains(q));
            assert!(!s.contains(q - 1));
            assert!(!s.contains(q + 1));
            assert_eq!(s.len(), 1);
            assert_eq!(s.iter().collect::<Vec<_>>(), vec![q]);
            assert!(s.remove(q));
            assert!(s.is_empty(), "removal at {q} trims back to empty");
        }
    }

    #[test]
    fn sets_larger_than_64_states() {
        let members: Vec<StateId> = (0..200).filter(|q| q % 3 == 0).collect();
        let s: StateSet = members.iter().copied().collect();
        assert_eq!(s.len(), members.len());
        assert_eq!(s.iter().collect::<Vec<_>>(), members);
        for q in 0..220 {
            assert_eq!(s.contains(q), q < 200 && q % 3 == 0, "state {q}");
        }
    }

    #[test]
    fn union_intersection_difference_match_btreeset() {
        use std::collections::BTreeSet;
        let a_members = [0usize, 5, 63, 64, 100, 191, 192];
        let b_members = [5usize, 64, 65, 100, 150, 192, 300];
        let (a, b): (StateSet, StateSet) = (
            a_members.iter().copied().collect(),
            b_members.iter().copied().collect(),
        );
        let (ba, bb): (BTreeSet<_>, BTreeSet<_>) = (
            a_members.iter().copied().collect(),
            b_members.iter().copied().collect(),
        );

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(
            u.iter().collect::<Vec<_>>(),
            ba.union(&bb).copied().collect::<Vec<_>>()
        );
        assert_eq!(
            a.intersection(&b).iter().collect::<Vec<_>>(),
            ba.intersection(&bb).copied().collect::<Vec<_>>()
        );
        assert_eq!(
            a.difference(&b).iter().collect::<Vec<_>>(),
            ba.difference(&bb).copied().collect::<Vec<_>>()
        );
        assert!(a.intersects(&b));
        assert!(a.intersection(&b).is_subset(&a));
    }

    #[test]
    fn equality_ignores_touched_universe() {
        // A set that grew to word 5 and shrank back must equal a fresh set.
        let mut big = StateSet::new();
        big.insert(320);
        big.insert(2);
        big.remove(320);
        let small = StateSet::from_iter([2]);
        assert_eq!(big, small);
        assert_eq!(fx_hash(&big), fx_hash(&small));
        let mut inter = StateSet::from_iter([2, 320]);
        inter.intersect_with(&small);
        assert_eq!(inter, small);
        let mut diff = StateSet::from_iter([2, 320]);
        diff.difference_with(&StateSet::from_iter([320]));
        assert_eq!(diff, small);
    }

    #[test]
    fn subset_checks_across_word_lengths() {
        let small = StateSet::from_iter([1, 63]);
        let large = StateSet::from_iter([1, 63, 200]);
        assert!(small.is_subset(&large));
        assert!(!large.is_subset(&small));
        assert!(StateSet::new().is_subset(&small));
    }

    #[test]
    fn interner_assigns_dense_ids_in_first_seen_order() {
        let mut i: Interner<(usize, usize)> = Interner::with_capacity(4);
        assert!(i.is_empty());
        assert_eq!(i.intern((7, 7)), (0, true));
        assert_eq!(i.intern((1, 2)), (1, true));
        assert_eq!(i.intern((7, 7)), (0, false));
        assert_eq!(i.len(), 2);
        assert_eq!(i.get(&(1, 2)), Some(1));
        assert_eq!(i.get(&(9, 9)), None);
        assert_eq!(i.key(1), &(1, 2));
    }

    #[test]
    fn refused_admission_leaves_the_interner_unchanged() {
        let mut i: Interner<StateSet> = Interner::new();
        let known = StateSet::from_iter([1, 2]);
        assert_eq!(i.try_intern(&known, || Ok::<(), ()>(())), Ok((0, true)));
        // A known key is found without asking.
        let asked = std::cell::Cell::new(false);
        let found = i.try_intern(&known, || {
            asked.set(true);
            Err("refused")
        });
        assert_eq!(found, Ok((0, false)));
        assert!(!asked.get());
        // A refused new key is not interned: same length, no id, and the
        // next admitted key gets the id the refused one would have had.
        let fresh = StateSet::from_iter([3]);
        assert_eq!(i.try_intern(&fresh, || Err("refused")), Err("refused"));
        assert_eq!(i.len(), 1);
        assert_eq!(i.get(&fresh), None);
        assert_eq!(i.get(&known), Some(0));
        assert_eq!(i.try_intern(&fresh, || Ok::<(), ()>(())), Ok((1, true)));
        assert_eq!(i.key(1), &fresh);
    }

    #[test]
    fn interner_chains_keys_of_equal_hash() {
        // Keys whose hashes collide: a key type hashing to a constant.
        #[derive(Debug, Clone, PartialEq, Eq)]
        struct Same(u32);
        impl Hash for Same {
            fn hash<H: Hasher>(&self, state: &mut H) {
                state.write_u64(7);
            }
        }
        let mut i: Interner<Same> = Interner::new();
        for n in 0..4 {
            assert_eq!(i.intern(Same(n)), (n as usize, true));
        }
        for n in 0..4 {
            assert_eq!(i.intern(Same(n)), (n as usize, false));
            assert_eq!(i.get(&Same(n)), Some(n as usize));
        }
        assert_eq!(i.get(&Same(9)), None);
    }

    #[test]
    fn pair_table_flat_and_sparse_agree() {
        // Tiny bound: flat. Astronomic bound: sparse. Same behavior.
        let mut flat = PairTable::new(8, 8);
        let mut sparse = PairTable::new(usize::MAX / 2, 4);
        for (i, (p, q)) in [(0, 0), (7, 7), (3, 4), (4, 3)].into_iter().enumerate() {
            assert_eq!(flat.get(p, q), None);
            assert_eq!(sparse.get(p, q), None);
            flat.set(p, q, i);
            sparse.set(p, q, i);
        }
        for (i, (p, q)) in [(0, 0), (7, 7), (3, 4), (4, 3)].into_iter().enumerate() {
            assert_eq!(flat.get(p, q), Some(i));
            assert_eq!(sparse.get(p, q), Some(i));
        }
        assert_eq!(flat.get(1, 1), None);
    }

    #[test]
    fn fx_hash_is_deterministic_and_spreads() {
        let h1 = fx_hash(&[1u64, 2, 3][..]);
        let h2 = fx_hash(&[1u64, 2, 3][..]);
        let h3 = fx_hash(&[3u64, 2, 1][..]);
        assert_eq!(h1, h2);
        assert_ne!(h1, h3, "order must matter");
    }
}
