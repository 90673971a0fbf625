//! Per-pipeline memoization of expensive automaton operations.
//!
//! One end-to-end check runs the classical, relative-liveness and
//! relative-safety deciders in sequence, and each of them re-derives the same
//! intermediate machines: the system/property intersection, the prefix
//! language's subset construction, the negated property's complement. An
//! [`OpCache`] attached to a [`crate::Guard`] lets the guarded constructions
//! memoize those results for the lifetime of the pipeline.
//!
//! Keys are structural hashes ([`crate::fx_hash`] over the operand's states,
//! transitions, and alphabet). Hashing alone would be unsound — two distinct
//! automata may collide — so every cache entry stores its operands (as
//! interned `Arc`s, see [`OpCache::intern_operand`]) and a hit requires full
//! structural equality, checked by the caller-supplied `matches` predicate.
//! A collision therefore costs one extra comparison, never a wrong answer.
//!
//! The cache is thread-safe and **sharded**: entries are distributed over
//! [`SHARDS`] independently locked tables by the top bits of the key hash,
//! so concurrent checks — the jobs of an `rlcheck batch` or of a serve
//! daemon — share memoized results without serializing on one lock. Clone the handle freely; all
//! clones (across threads) share one logical table.
//!
//! # Memory accounting and eviction
//!
//! A cache that lives for one CLI invocation can grow without limit; a cache
//! shared by a resident `rlcheck serve` process cannot. Every stored value
//! therefore carries a deterministic byte estimate ([`crate::MemFootprint`]),
//! and a cache built with a byte budget ([`OpCache::with_limits`]) evicts
//! under **cost-aware LRU**: when a shard's resident bytes exceed its slice
//! of the budget (`budget / SHARDS`), the least-recently-touched entry goes
//! first, and among equally old entries the largest goes first — recency is
//! the primary signal, byte cost breaks ties toward freeing the most memory
//! per eviction. Eviction only ever drops memoized results; correctness is
//! untouched because every lookup that misses simply rebuilds. Accounting
//! invariant: after every insert, each shard's tracked resident bytes are at
//! or below its budget slice, so the whole table never exceeds the
//! configured budget.
//!
//! The `opcache-evict` fault point ([`crate::fault`]) forcibly clears every
//! shard on the n-th lookup, so tests can prove mid-job eviction changes no
//! verdict.

use std::any::Any;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use rl_obs::{HistogramRegistry, Tracer};

use crate::fault;
use crate::mem::MemFootprint;
use crate::stateset::FxHashMap;

/// Number of independently locked sub-tables. A power of two well above the
/// worker counts we deploy (pools default to the core count), so two
/// concurrent lookups rarely contend.
pub const SHARDS: usize = 16;

/// Amortized bookkeeping bytes charged per stored entry on top of the
/// value's own footprint: the bucket key, the `Vec` slot, and the `Arc`
/// control block.
const ENTRY_OVERHEAD: usize = 64;

/// One stored cache entry: the `Arc`-erased value plus its accounting state.
struct Stored {
    value: Arc<dyn Any + Send + Sync>,
    /// Deterministic byte estimate charged against the shard budget.
    bytes: usize,
    /// Last-touch stamp from the shard's logical clock (unique per shard:
    /// every touch increments the clock, so LRU order is a total order).
    stamp: u64,
}

/// Shared memo table for automaton-level operations.
///
/// Cheap to clone (the handle is reference counted); all clones share one
/// sharded table and may live on different threads. See the module docs for
/// the soundness contract and the eviction policy.
///
/// # Example
///
/// ```
/// use rl_automata::{Budget, Guard, Nfa, OpCache, Alphabet};
///
/// # fn main() -> Result<(), rl_automata::AutomataError> {
/// let ab = Alphabet::new(["a"])?;
/// let a = ab.symbol("a").unwrap();
/// let nfa = Nfa::from_parts(ab, 2, [0], [1], [(0, a, 1), (1, a, 0)])?;
/// let guard = Guard::new(Budget::unlimited()).with_op_cache(OpCache::new());
/// let d1 = nfa.determinize_with(&guard)?;
/// let d2 = nfa.determinize_with(&guard)?; // memo hit: no re-construction
/// assert_eq!(d1, d2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Default)]
pub struct OpCache {
    inner: Arc<CacheInner>,
}

struct CacheInner {
    shards: [Mutex<Table>; SHARDS],
    /// Optional timeline tracer; hit/miss/adoption/eviction instants carry
    /// the shard index so contention concentrating on one shard is visible.
    tracer: Option<Arc<Tracer>>,
    /// Per-shard byte ceiling (`total budget / SHARDS`); `None` = unbounded.
    shard_budget: Option<usize>,
    /// Optional percentile plane: when set, lookups record
    /// `opcache/probe_us` and `opcache/lock_wait_us` samples. A `OnceLock`
    /// so the hot path pays one lock-free load when detached.
    hists: OnceLock<HistogramRegistry>,
}

impl Default for CacheInner {
    fn default() -> CacheInner {
        CacheInner {
            shards: std::array::from_fn(|_| Mutex::new(Table::default())),
            tracer: None,
            shard_budget: None,
            hists: OnceLock::new(),
        }
    }
}

#[derive(Default)]
struct Table {
    /// `(operation, structural hash)` → entries. A bucket holds more than
    /// one entry only on hash collision.
    entries: FxHashMap<(&'static str, u64), Vec<Stored>>,
    hits: usize,
    misses: usize,
    /// Hits resolved on the insert-side re-check: this thread built the
    /// value, lost the race, and adopted the winner's entry instead.
    adoptions: usize,
    /// Entries dropped to stay under the shard's byte budget (or by a forced
    /// fault-injection clear).
    evictions: usize,
    /// Tracked resident bytes of all stored entries.
    resident: usize,
    /// Logical touch clock driving LRU stamps.
    clock: u64,
}

impl Table {
    /// Finds a matching entry and refreshes its LRU stamp.
    fn touch<T: Send + Sync + 'static>(
        &mut self,
        bucket_key: (&'static str, u64),
        matches: impl Fn(&T) -> bool,
    ) -> Option<Arc<T>> {
        let clock = &mut self.clock;
        let entry = self
            .entries
            .get_mut(&bucket_key)?
            .iter_mut()
            .find(|e| e.value.clone().downcast::<T>().is_ok_and(|v| matches(&v)))?;
        *clock += 1;
        entry.stamp = *clock;
        entry.value.clone().downcast::<T>().ok()
    }

    /// Stores `value` under `bucket_key`, charging `bytes` to the shard.
    fn insert(
        &mut self,
        bucket_key: (&'static str, u64),
        value: Arc<dyn Any + Send + Sync>,
        bytes: usize,
    ) {
        self.clock += 1;
        let stamp = self.clock;
        self.resident += bytes;
        self.entries.entry(bucket_key).or_default().push(Stored {
            value,
            bytes,
            stamp,
        });
    }

    /// Evicts cost-aware-LRU victims until resident bytes fit `budget`.
    /// Returns how many entries were dropped.
    fn evict_to(&mut self, budget: usize) -> usize {
        let mut dropped = 0;
        while self.resident > budget {
            // Victim: oldest stamp; stamps are unique per shard so this is a
            // total order. (Equal stamps cannot happen, but the byte
            // tie-break documents the intent and guards refactors.)
            let victim = self
                .entries
                .iter()
                .flat_map(|(k, bucket)| {
                    bucket
                        .iter()
                        .enumerate()
                        .map(move |(i, e)| (e.stamp, std::cmp::Reverse(e.bytes), *k, i))
                })
                .min();
            let Some((_, _, key, index)) = victim else {
                break; // accounting drift safety valve: nothing left to drop
            };
            let bucket = self.entries.get_mut(&key).expect("victim bucket exists");
            let removed = bucket.remove(index);
            self.resident = self.resident.saturating_sub(removed.bytes);
            if bucket.is_empty() {
                self.entries.remove(&key);
            }
            self.evictions += 1;
            dropped += 1;
        }
        dropped
    }

    /// Drops every entry (forced eviction), returning the count.
    fn clear(&mut self) -> usize {
        let n: usize = self.entries.values().map(Vec::len).sum();
        self.entries.clear();
        self.resident = 0;
        self.evictions += n;
        n
    }
}

impl OpCache {
    /// An empty, unbounded cache.
    pub fn new() -> OpCache {
        OpCache::with_limits(None, None)
    }

    /// An empty, unbounded cache whose lookups additionally record timeline
    /// instants (`hit`/`miss`/`adopt`/`evict`, tagged with the shard index)
    /// to `tracer`.
    pub fn with_tracer(tracer: Arc<Tracer>) -> OpCache {
        OpCache::with_limits(Some(tracer), None)
    }

    /// The general constructor: an optional timeline tracer and an optional
    /// resident-byte budget. With a budget, each of the `SHARDS` shards
    /// caps its tracked resident bytes at `budget / SHARDS` (at least one
    /// byte, so a tiny budget degrades to "cache nothing", never divides to
    /// a zero-progress loop) and evicts cost-aware-LRU victims on insert.
    pub fn with_limits(tracer: Option<Arc<Tracer>>, byte_budget: Option<usize>) -> OpCache {
        OpCache {
            inner: Arc::new(CacheInner {
                shards: std::array::from_fn(|_| Mutex::new(Table::default())),
                tracer,
                shard_budget: byte_budget.map(|b| (b / SHARDS).max(1)),
                hists: OnceLock::new(),
            }),
        }
    }

    /// Attaches a [`HistogramRegistry`]: subsequent lookups record
    /// `opcache/probe_us` (time to resolve a lookup, excluding builds) and
    /// `opcache/lock_wait_us` (shard-lock acquisition wait). First call
    /// wins; later calls on the same logical table are no-ops. Detached
    /// caches pay one lock-free load per lookup and take no timestamps.
    pub fn set_histograms(&self, hists: HistogramRegistry) {
        let _ = self.inner.hists.set(hists);
    }

    /// The configured total byte budget, if any (shard granularity rounds
    /// down: `SHARDS * (budget / SHARDS)`).
    pub fn byte_budget(&self) -> Option<usize> {
        self.inner.shard_budget.map(|b| b * SHARDS)
    }

    /// The shard index responsible for `key`. Keys are FxHash outputs whose
    /// entropy concentrates in the high bits, so shard selection uses the
    /// top nibble.
    fn shard_index(key: u64) -> usize {
        (key >> 60) as usize % SHARDS
    }

    /// The shard responsible for `key`.
    fn shard(&self, key: u64) -> &Mutex<Table> {
        &self.inner.shards[Self::shard_index(key)]
    }

    /// Records a lookup-outcome instant (no-op without a tracer). Called
    /// after the shard lock is released so event recording never extends a
    /// critical section.
    fn trace(&self, outcome: &'static str, key: u64) {
        if let Some(t) = &self.inner.tracer {
            t.instant(
                "opcache",
                outcome,
                Some(("shard", Self::shard_index(key) as u64)),
            );
        }
    }

    /// Evicts from `table` if it now exceeds the shard budget; traces the
    /// evictions (after the caller releases the lock — this only counts).
    fn evict_if_over(&self, table: &mut Table) -> usize {
        match self.inner.shard_budget {
            Some(budget) => table.evict_to(budget),
            None => 0,
        }
    }

    /// Looks up `(op, key)`; on miss, runs `build`, stores the result, and
    /// returns it. The boolean is `true` on a hit.
    ///
    /// `matches` must compare the entry's stored operands with the current
    /// ones — returning `true` for structurally different operands breaks
    /// the cache's soundness contract.
    ///
    /// The shard lock is *not* held while `build` runs, so a construction
    /// may itself consult the cache (products calling determinization, say).
    /// Two threads missing on the same key may both build; the insert
    /// re-checks the bucket and keeps the first finisher's entry, so both
    /// threads still return structurally equal values.
    ///
    /// # Errors
    ///
    /// Propagates `build`'s error; nothing is stored in that case.
    pub fn get_or_insert_with<T: MemFootprint + Send + Sync + 'static, E>(
        &self,
        op: &'static str,
        key: u64,
        matches: impl Fn(&T) -> bool,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<(Arc<T>, bool), E> {
        if fault::fires("opcache-evict") {
            self.evict_all();
        }
        let hists = self.inner.hists.get();
        let probe_started = hists.map(|_| Instant::now());
        let shard = self.shard(key);
        {
            let lock_started = hists.map(|_| Instant::now());
            if let Ok(mut table) = shard.lock() {
                if let (Some(h), Some(t0)) = (hists, lock_started) {
                    h.hist("opcache/lock_wait_us").record_elapsed_us(t0);
                }
                if let Some(hit) = table.touch((op, key), &matches) {
                    table.hits += 1;
                    drop(table);
                    if let (Some(h), Some(t0)) = (hists, probe_started) {
                        h.hist("opcache/probe_us").record_elapsed_us(t0);
                    }
                    self.trace("hit", key);
                    return Ok((hit, true));
                }
            }
        }
        // The probe is over once we know we must build; the build itself is
        // accounted by the construction's own spans, not the cache.
        if let (Some(h), Some(t0)) = (hists, probe_started) {
            h.hist("opcache/probe_us").record_elapsed_us(t0);
        }
        let value = Arc::new(build()?);
        // Explicitly the *payload*'s footprint: a method call on the `Arc`
        // would resolve to the handle impl (a pointer) instead.
        let bytes = ENTRY_OVERHEAD + <T as MemFootprint>::mem_bytes(&value);
        let lock_started = hists.map(|_| Instant::now());
        let Ok(mut table) = shard.lock() else {
            return Ok((value, false));
        };
        if let (Some(h), Some(t0)) = (hists, lock_started) {
            h.hist("opcache/lock_wait_us").record_elapsed_us(t0);
        }
        // Re-check: another thread may have finished the same build while we
        // ran unlocked. Keeping its entry (and dropping ours) makes repeated
        // lookups converge on one allocation.
        if let Some(hit) = table.touch((op, key), &matches) {
            table.hits += 1;
            table.adoptions += 1;
            drop(table);
            self.trace("adopt", key);
            return Ok((hit, true));
        }
        table.misses += 1;
        table.insert(
            (op, key),
            value.clone() as Arc<dyn Any + Send + Sync>,
            bytes,
        );
        let evicted = self.evict_if_over(&mut table);
        drop(table);
        self.trace("miss", key);
        for _ in 0..evicted {
            self.trace("evict", key);
        }
        Ok((value, false))
    }

    /// Interns an operand by structural `hash`: returns the `Arc` already
    /// stored for an equal value, or stores (a clone of) `value` and returns
    /// that. Memo entries hold these shared `Arc`s instead of each cloning
    /// the operand, so sharding doesn't multiply operand memory — and
    /// operand equality checks between entries of one operand are pointer
    /// comparisons on the fast path.
    ///
    /// The operand's footprint is charged here, where the shared allocation
    /// is created; the `Arc` handles memo entries hold weigh as pointers
    /// (see [`crate::mem`]). Evicting an interned operand only drops the
    /// intern table's handle — entries still holding it keep it alive, and
    /// the allocation is freed when the last of them goes.
    ///
    /// Not counted in [`OpCache::hits`]/[`OpCache::misses`] (it is interning,
    /// not memoization) but included in [`OpCache::len`].
    pub fn intern_operand<T>(&self, hash: u64, value: &T) -> Arc<T>
    where
        T: Clone + PartialEq + MemFootprint + Send + Sync + 'static,
    {
        const OP: &str = "__operand";
        let shard = self.shard(hash);
        let Ok(mut table) = shard.lock() else {
            return Arc::new(value.clone());
        };
        if let Some(existing) = table.touch((OP, hash), |v: &T| v == value) {
            return existing;
        }
        let interned = Arc::new(value.clone());
        let bytes = ENTRY_OVERHEAD + <T as MemFootprint>::mem_bytes(&interned);
        table.insert(
            (OP, hash),
            interned.clone() as Arc<dyn Any + Send + Sync>,
            bytes,
        );
        let evicted = self.evict_if_over(&mut table);
        drop(table);
        for _ in 0..evicted {
            self.trace("evict", hash);
        }
        interned
    }

    /// Forcibly evicts every entry from every shard (the `opcache-evict`
    /// fault point, and available to resident servers that want to shed
    /// memory between bursts). Counted in [`OpCache::evictions`].
    pub fn evict_all(&self) {
        let mut dropped = 0;
        for shard in &self.inner.shards {
            if let Ok(mut table) = shard.lock() {
                dropped += table.clear();
            }
        }
        if dropped > 0 {
            self.trace("evict", 0);
        }
    }

    /// Number of lookups answered from the table so far.
    pub fn hits(&self) -> usize {
        self.fold(|t| t.hits)
    }

    /// Number of lookups that had to build (and then stored) a result.
    pub fn misses(&self) -> usize {
        self.fold(|t| t.misses)
    }

    /// Number of hits resolved by adopting a racing thread's entry after a
    /// redundant build (a subset of [`OpCache::hits`]). Nonzero only when
    /// concurrent lookups miss on the same key.
    pub fn adoptions(&self) -> usize {
        self.fold(|t| t.adoptions)
    }

    /// Number of entries evicted so far (budget pressure or forced clears).
    pub fn evictions(&self) -> usize {
        self.fold(|t| t.evictions)
    }

    /// Tracked resident bytes of all stored entries (the deterministic
    /// [`crate::MemFootprint`] estimate plus fixed per-entry overhead).
    /// Never exceeds [`OpCache::byte_budget`] when one is set.
    pub fn resident_bytes(&self) -> usize {
        self.fold(|t| t.resident)
    }

    /// Number of stored entries (memo results and interned operands).
    pub fn len(&self) -> usize {
        self.fold(|t| t.entries.values().map(Vec::len).sum())
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn fold(&self, per_shard: impl Fn(&Table) -> usize) -> usize {
        self.inner
            .shards
            .iter()
            .filter_map(|s| s.lock().ok())
            .map(|t| per_shard(&t))
            .sum()
    }
}

impl fmt::Debug for OpCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OpCache")
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("resident_bytes", &self.resident_bytes())
            .field("evictions", &self.evictions())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_builds_then_hit_reuses() {
        let cache = OpCache::new();
        let mut built = 0;
        for round in 0..3 {
            let (v, hit) = cache
                .get_or_insert_with::<i64, ()>(
                    "op",
                    42,
                    |&v| v == 7,
                    || {
                        built += 1;
                        Ok(7)
                    },
                )
                .unwrap();
            assert_eq!(*v, 7);
            assert_eq!(hit, round > 0);
        }
        assert_eq!(built, 1);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (2, 1, 1));
    }

    #[test]
    fn colliding_keys_are_kept_apart_by_matches() {
        let cache = OpCache::new();
        // Same (op, key) — as under a real hash collision — but the stored
        // operand differs, so `matches` must reject the first entry.
        let (a, _) = cache
            .get_or_insert_with::<(u8, &'static str), ()>(
                "op",
                1,
                |e| e.0 == 1,
                || Ok((1, "first")),
            )
            .unwrap();
        let (b, hit) = cache
            .get_or_insert_with::<(u8, &'static str), ()>(
                "op",
                1,
                |e| e.0 == 2,
                || Ok((2, "second")),
            )
            .unwrap();
        assert!(!hit);
        assert_eq!((a.1, b.1), ("first", "second"));
        assert_eq!(cache.len(), 2);
        // And the first entry is still retrievable.
        let (a2, hit2) = cache
            .get_or_insert_with::<(u8, &'static str), ()>("op", 1, |e| e.0 == 1, || Ok((9, "no")))
            .unwrap();
        assert!(hit2);
        assert_eq!(a2.1, "first");
    }

    #[test]
    fn distinct_ops_do_not_share_entries() {
        let cache = OpCache::new();
        cache
            .get_or_insert_with::<u8, ()>("left", 5, |_| true, || Ok(1))
            .unwrap();
        let (v, hit) = cache
            .get_or_insert_with::<u8, ()>("right", 5, |_| true, || Ok(2))
            .unwrap();
        assert!(!hit);
        assert_eq!(*v, 2);
    }

    #[test]
    fn build_errors_are_not_cached() {
        let cache = OpCache::new();
        let err: Result<_, &str> =
            cache.get_or_insert_with::<u8, _>("op", 3, |_| true, || Err("boom"));
        assert_eq!(err.unwrap_err(), "boom");
        assert!(cache.is_empty());
        let (v, hit) = cache
            .get_or_insert_with::<u8, &str>("op", 3, |_| true, || Ok(4))
            .unwrap();
        assert!(!hit);
        assert_eq!(*v, 4);
    }

    #[test]
    fn clones_share_one_table() {
        let cache = OpCache::new();
        let alias = cache.clone();
        alias
            .get_or_insert_with::<u8, ()>("op", 9, |_| true, || Ok(3))
            .unwrap();
        let (_, hit) = cache
            .get_or_insert_with::<u8, ()>("op", 9, |_| true, || Ok(0))
            .unwrap();
        assert!(hit);
        assert!(format!("{cache:?}").contains("hits"));
    }

    #[test]
    fn keys_spread_across_shards_and_totals_aggregate() {
        let cache = OpCache::new();
        // Keys differing in their top nibble land in different shards; the
        // counters must still read as one logical table.
        for i in 0..SHARDS as u64 {
            cache
                .get_or_insert_with::<u64, ()>("op", i << 60, |_| true, || Ok(i))
                .unwrap();
        }
        assert_eq!(cache.misses(), SHARDS);
        assert_eq!(cache.len(), SHARDS);
        for i in 0..SHARDS as u64 {
            let (v, hit) = cache
                .get_or_insert_with::<u64, ()>("op", i << 60, |_| true, || Ok(999))
                .unwrap();
            assert!(hit);
            assert_eq!(*v, i);
        }
        assert_eq!(cache.hits(), SHARDS);
    }

    #[test]
    fn intern_operand_dedupes_equal_values() {
        let cache = OpCache::new();
        let a = cache.intern_operand(77, &String::from("operand"));
        let b = cache.intern_operand(77, &String::from("operand"));
        assert!(Arc::ptr_eq(&a, &b), "equal operands share one allocation");
        // A colliding hash with a different value must not unify.
        let c = cache.intern_operand(77, &String::from("other"));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(*c, "other");
        // Interning is invisible to memo statistics but occupies entries.
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 0, 2));
    }

    #[test]
    fn racer_adoption_is_counted_and_traced() {
        let tracer = Arc::new(Tracer::new());
        let cache = OpCache::with_tracer(tracer.clone());
        // Simulate losing a build race deterministically: the build runs
        // unlocked, so a nested insert of the same key lands first and the
        // outer insert's re-check must adopt it.
        let (v, hit) = cache
            .get_or_insert_with::<u64, ()>(
                "op",
                5,
                |&v| v == 42,
                || {
                    let _ = cache.get_or_insert_with::<u64, ()>("op", 5, |&v| v == 42, || Ok(42));
                    Ok(42)
                },
            )
            .unwrap();
        assert!(hit, "adoption reports as a hit");
        assert_eq!(*v, 42);
        assert_eq!((cache.hits(), cache.misses(), cache.adoptions()), (1, 1, 1));
        let events = tracer.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["miss", "adopt"]);
        assert!(events.iter().all(|e| matches!(e.arg, Some(("shard", _)))));
    }

    #[test]
    fn concurrent_hammering_is_coherent() {
        let cache = OpCache::new();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    let mut held = Vec::new();
                    for round in 0..200u64 {
                        let key = round % 8;
                        let (v, _) = cache
                            .get_or_insert_with::<u64, ()>(
                                "stress",
                                key << 57, // straddle shard boundaries
                                |&v| v == key,
                                || Ok(key),
                            )
                            .unwrap();
                        assert_eq!(*v, key, "thread {t}");
                        let op = cache.intern_operand(key, &key);
                        assert_eq!(*op, key);
                        held.push((key, Arc::as_ptr(&v) as usize, Arc::as_ptr(&op) as usize));
                    }
                    held
                })
            })
            .collect();
        // Racers adopt the winner's entry: every caller of one key, on any
        // thread, holds the same allocation, and so does every interning
        // of one operand.
        let mut first = std::collections::HashMap::new();
        for h in handles {
            for (key, memo, op) in h.join().unwrap() {
                let (memo0, op0) = *first.entry(key).or_insert((memo, op));
                assert!(memo == memo0 && op == op0, "two Arcs for key {key}");
            }
        }
        // Every lookup after the first per key is a hit; racing first
        // lookups may each build, but at most one entry per key survives
        // observation — all values agreed above.
        assert_eq!(cache.hits() + cache.misses(), 4 * 200);
        assert!(cache.len() >= 16, "8 memo keys + 8 interned operands");
    }

    // ------------------------------------------------------------------
    // Byte accounting and eviction
    // ------------------------------------------------------------------

    #[test]
    fn resident_bytes_track_inserts() {
        let cache = OpCache::new();
        assert_eq!(cache.resident_bytes(), 0);
        cache
            .get_or_insert_with::<String, ()>(
                "op",
                1,
                |_| true,
                || Ok(String::from("x").repeat(100)),
            )
            .unwrap();
        let one = cache.resident_bytes();
        assert!(one >= 100, "payload bytes are counted: {one}");
        cache
            .get_or_insert_with::<String, ()>(
                "op",
                2,
                |_| true,
                || Ok(String::from("y").repeat(100)),
            )
            .unwrap();
        assert!(cache.resident_bytes() > one, "second entry adds bytes");
        // Hits never change residency.
        let before = cache.resident_bytes();
        cache
            .get_or_insert_with::<String, ()>("op", 1, |_| true, || Ok(String::new()))
            .unwrap();
        assert_eq!(cache.resident_bytes(), before);
    }

    #[test]
    fn budgeted_cache_never_exceeds_budget_and_evicts_lru_first() {
        // All keys in one shard (same top nibble) so the LRU order is fully
        // observable through one budget slice.
        let budget = SHARDS * 4096; // 4 KiB per shard
        let cache = OpCache::with_limits(None, Some(budget));
        assert_eq!(cache.byte_budget(), Some(budget));
        let big = || Ok::<_, ()>(vec![0u8; 1500]);
        for key in 0..4u64 {
            cache
                .get_or_insert_with::<Vec<u8>, ()>("op", key, |_| true, big)
                .unwrap();
            assert!(
                cache.resident_bytes() <= budget / SHARDS,
                "shard stays within its slice after every insert"
            );
        }
        assert!(cache.evictions() >= 1, "budget pressure evicted something");
        // Key 0 was inserted first and never touched again: it must be gone,
        // while the most recent key is still resident.
        let (_, hit_old) = cache
            .get_or_insert_with::<Vec<u8>, ()>("op", 0, |_| true, big)
            .unwrap();
        assert!(!hit_old, "LRU victim was evicted");
        let (_, hit_new) = cache
            .get_or_insert_with::<Vec<u8>, ()>("op", 3, |_| true, big)
            .unwrap();
        assert!(hit_new, "most recently inserted entry survives");
    }

    #[test]
    fn hits_refresh_lru_order() {
        let cache = OpCache::with_limits(None, Some(SHARDS * 4096));
        let big = || Ok::<_, ()>(vec![0u8; 1500]);
        cache
            .get_or_insert_with::<Vec<u8>, ()>("op", 0, |_| true, big)
            .unwrap();
        cache
            .get_or_insert_with::<Vec<u8>, ()>("op", 1, |_| true, big)
            .unwrap();
        // Touch key 0: key 1 becomes the LRU victim.
        cache
            .get_or_insert_with::<Vec<u8>, ()>("op", 0, |_| true, big)
            .unwrap();
        cache
            .get_or_insert_with::<Vec<u8>, ()>("op", 2, |_| true, big)
            .unwrap();
        let (_, hit0) = cache
            .get_or_insert_with::<Vec<u8>, ()>("op", 0, |_| true, big)
            .unwrap();
        assert!(hit0, "recently touched entry survives eviction");
    }

    #[test]
    fn eviction_sequence_is_deterministic() {
        let run = || {
            let cache = OpCache::with_limits(None, Some(SHARDS * 2048));
            for key in 0..16u64 {
                cache
                    .get_or_insert_with::<Vec<u8>, ()>("op", key, |_| true, || Ok(vec![0u8; 700]))
                    .unwrap();
            }
            (cache.evictions(), cache.resident_bytes(), cache.len())
        };
        assert_eq!(run(), run(), "same op sequence, same eviction outcome");
    }

    #[test]
    fn evict_all_clears_and_counts() {
        let cache = OpCache::new();
        for key in 0..4u64 {
            cache
                .get_or_insert_with::<u64, ()>("op", key, |_| true, || Ok(key))
                .unwrap();
        }
        cache.evict_all();
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(cache.evictions(), 4);
        // The cache keeps working after a forced clear.
        let (_, hit) = cache
            .get_or_insert_with::<u64, ()>("op", 0, |_| true, || Ok(0))
            .unwrap();
        assert!(!hit);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = OpCache::new();
        for key in 0..64u64 {
            cache
                .get_or_insert_with::<Vec<u8>, ()>("op", key, |_| true, || Ok(vec![0u8; 4096]))
                .unwrap();
        }
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), 64);
        assert_eq!(cache.byte_budget(), None);
    }

    #[test]
    fn attached_histograms_record_probe_and_lock_wait() {
        let cache = OpCache::new();
        let hists = HistogramRegistry::new();
        cache.set_histograms(hists.clone());
        for round in 0..3u64 {
            cache
                .get_or_insert_with::<u64, ()>("op", 11, |&v| v == 1, || Ok(1))
                .unwrap();
            let _ = round;
        }
        let snaps: std::collections::BTreeMap<String, _> = hists.snapshot().into_iter().collect();
        // One probe per lookup; at least one lock wait per lookup (misses
        // take the shard lock twice: probe then insert).
        assert_eq!(snaps["opcache/probe_us"].count, 3);
        assert!(snaps["opcache/lock_wait_us"].count >= 3);
        // Detached caches keep working and record nothing.
        let plain = OpCache::new();
        plain
            .get_or_insert_with::<u64, ()>("op", 1, |_| true, || Ok(1))
            .unwrap();
    }

    #[test]
    fn evictions_are_traced() {
        let tracer = Arc::new(Tracer::new());
        let cache = OpCache::with_limits(Some(tracer.clone()), Some(SHARDS * 2048));
        for key in 0..4u64 {
            cache
                .get_or_insert_with::<Vec<u8>, ()>("op", key, |_| true, || Ok(vec![0u8; 1500]))
                .unwrap();
        }
        assert!(cache.evictions() >= 1);
        let events = tracer.events();
        assert!(
            events.iter().any(|e| e.name == "evict"),
            "evictions leave timeline instants"
        );
    }
}
