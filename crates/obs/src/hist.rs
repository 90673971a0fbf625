//! Lock-free log-bucketed histograms with percentile estimation.
//!
//! Counters answer "how many"; the service-level questions the serve daemon
//! faces — queue-wait spikes, job wall-time tails — need "how long, at
//! which quantile". This module provides the dependency-free percentile
//! plane:
//!
//! * [`Histogram`] — a fixed array of atomic buckets. Recording a value is
//!   a handful of relaxed atomic adds (no locks, no allocation), so the hot
//!   paths of the pool, batch jobs and the serve daemon can record
//!   unconditionally once a registry is attached.
//! * [`HistogramSnapshot`] — the detached, mergeable, serializable copy:
//!   the unit that crosses threads, rides the telemetry stream as `hist`
//!   events, lands in the metrics journal, and renders percentile columns.
//! * [`HistogramRegistry`] — named histograms in registration order,
//!   `Send + Sync` (unlike the deliberately single-threaded
//!   [`MetricsRegistry`](crate::MetricsRegistry)), snapshotted alongside
//!   the counters.
//!
//! # Bucketing and the error bound
//!
//! Buckets are logarithmic with four sub-buckets per octave (power of two):
//! a value `v ≥ 4` lands in the bucket keyed by its two leading significant
//! bits below the top bit, so bucket width is `2^(o-2)` for the octave
//! `o = floor(log2 v)`. Values below 8 are exact (bucket width 1). Quantile
//! estimation returns the *upper bound* of the bucket holding the requested
//! rank, clamped to the observed maximum, so for any recorded distribution:
//!
//! > `true_quantile ≤ estimate ≤ true_quantile · (1 + 1/4)`
//!
//! i.e. estimates never under-report and over-report by **less than 25%**
//! (exactly 0% below 8). The property test in this module checks both sides
//! against an exact sorted reference.
//!
//! Histograms never touch the deterministic metrics or counters: enabling
//! them cannot perturb `states`/`transitions`/`cache_hits`/`guard_charges`,
//! which stay bit-for-bit identical with and without them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rl_json::{FromJson, Json, JsonError, ObjBuilder, ToJson};

/// log2 of the sub-buckets per octave.
const SUB_BITS: u32 = 2;
/// Sub-buckets per octave (4): two significant bits of sub-octave position.
const SUBS: usize = 1 << SUB_BITS;
/// Total buckets: `SUBS` exact low buckets (values 0..4) plus `SUBS` per
/// octave for octaves 2..=63.
pub const BUCKET_COUNT: usize = SUBS + (64 - SUB_BITS as usize) * SUBS;

/// The bucket index a value records into.
fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros(); // >= SUB_BITS since v >= SUBS
    let sub = ((v >> (octave - SUB_BITS)) as usize) & (SUBS - 1);
    SUBS + (octave - SUB_BITS) as usize * SUBS + sub
}

/// The inclusive value range `[lo, hi]` covered by bucket `index`.
fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUBS {
        return (index as u64, index as u64);
    }
    let octave = SUB_BITS + ((index - SUBS) / SUBS) as u32;
    let sub = ((index - SUBS) % SUBS) as u64;
    let width = 1u64 << (octave - SUB_BITS);
    let lo = (1u64 << octave) + sub * width;
    (lo, lo.saturating_add(width - 1))
}

/// A lock-free log-bucketed histogram of `u64` samples (typically
/// microsecond latencies).
///
/// Recording is wait-free: one relaxed `fetch_add` per bucket/count/sum and
/// one `fetch_max` for the maximum. Concurrent recorders never block each
/// other, and a snapshot taken mid-record is a valid (momentarily slightly
/// stale) histogram. See the module docs for the bucket scheme and the
/// ≤ 25% quantile error bound.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records the microseconds elapsed since `started` — the common shape
    /// at every latency call site.
    pub fn record_elapsed_us(&self, started: Instant) {
        self.record(started.elapsed().as_micros() as u64);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Adds a detached snapshot into this histogram (bucket-wise), e.g. to
    /// fold a finished job's shard into the server-global registry.
    pub fn absorb(&self, snap: &HistogramSnapshot) {
        for &(index, n) in &snap.buckets {
            self.buckets[index.min(BUCKET_COUNT - 1)].fetch_add(n, Ordering::Relaxed);
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        self.max.fetch_max(snap.max, Ordering::Relaxed);
    }

    /// A detached copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i, n))
            })
            .collect();
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A detached, mergeable histogram state: sparse non-empty buckets (sorted
/// by index) plus the count/sum/max totals.
///
/// This is the serialized form everywhere — `hist` telemetry events, the
/// metrics journal, `rl-obs/v3` files, SLO baselines.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `(bucket index, samples)` for every non-empty bucket, ascending.
    pub buckets: Vec<(usize, u64)>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (exact, unlike the bucketed values).
    pub sum: u64,
    /// Largest sample observed (exact).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Whether any sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merges `other` into `self` (bucket-wise sum; max of maxima).
    /// Merging is commutative and associative, so shard merge order never
    /// changes the result — the property test pins this down.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        let mut merged: Vec<(usize, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        while let (Some(&&(ia, _)), Some(&&(ib, _))) = (a.peek(), b.peek()) {
            match ia.cmp(&ib) {
                std::cmp::Ordering::Less => merged.push(*a.next().expect("peeked")),
                std::cmp::Ordering::Greater => merged.push(*b.next().expect("peeked")),
                std::cmp::Ordering::Equal => {
                    let (_, na) = a.next().expect("peeked");
                    let (_, nb) = b.next().expect("peeked");
                    merged.push((ia, na + nb));
                }
            }
        }
        merged.extend(a.copied());
        merged.extend(b.copied());
        self.buckets = merged;
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The estimated `q`-quantile (`0.0 < q ≤ 1.0`): the upper bound of the
    /// bucket holding rank `ceil(q · count)`, clamped to the observed
    /// maximum. `None` when empty. Never under-reports; over-reports by
    /// less than 25% (module docs).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(index, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                let (_, hi) = bucket_bounds(index);
                return Some(hi.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Estimated median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50).unwrap_or(0)
    }

    /// Estimated 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90).unwrap_or(0)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99).unwrap_or(0)
    }

    /// Mean of the recorded samples (exact, from the running sum).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The samples in `other` that are not (yet) in `self`, assuming `self`
    /// is an earlier cumulative snapshot of the same histogram. Returns
    /// `None` when nothing changed.
    pub fn delta_to(&self, newer: &HistogramSnapshot) -> Option<HistogramSnapshot> {
        if newer.count == self.count {
            return None;
        }
        let mut buckets = Vec::new();
        let mut old = self.buckets.iter().peekable();
        for &(index, n) in &newer.buckets {
            let prev = match old.peek() {
                Some(&&(oi, on)) if oi == index => {
                    old.next();
                    on
                }
                _ => 0,
            };
            if n > prev {
                buckets.push((index, n - prev));
            }
        }
        Some(HistogramSnapshot {
            buckets,
            count: newer.count - self.count,
            sum: newer.sum.saturating_sub(self.sum),
            max: newer.max,
        })
    }
}

impl ToJson for HistogramSnapshot {
    fn to_json(&self) -> Json {
        let buckets = Json::Arr(
            self.buckets
                .iter()
                .map(|&(i, n)| Json::Arr(vec![Json::Int(i as i64), Json::Int(n as i64)]))
                .collect(),
        );
        ObjBuilder::new()
            .field("count", self.count)
            .field("sum", self.sum)
            .field("max", self.max)
            .field("buckets", buckets)
            .build()
    }
}

impl FromJson for HistogramSnapshot {
    fn from_json(value: &Json) -> Result<HistogramSnapshot, JsonError> {
        let raw = match value.field("buckets")? {
            Json::Arr(items) => items,
            _ => return Err(JsonError::custom("buckets must be an array")),
        };
        let mut buckets = Vec::with_capacity(raw.len());
        for pair in raw {
            let Json::Arr(kv) = pair else {
                return Err(JsonError::custom("bucket entries are [index, count]"));
            };
            if kv.len() != 2 {
                return Err(JsonError::custom("bucket entries are [index, count]"));
            }
            let index = usize::from_json(&kv[0])?;
            if index >= BUCKET_COUNT {
                return Err(JsonError::custom(format!(
                    "bucket index {index} out of range (< {BUCKET_COUNT})"
                )));
            }
            buckets.push((index, u64::from_json(&kv[1])?));
        }
        buckets.sort_unstable_by_key(|&(i, _)| i);
        Ok(HistogramSnapshot {
            buckets,
            count: u64::from_json(value.field("count")?)?,
            sum: u64::from_json(value.field("sum")?)?,
            max: u64::from_json(value.field("max")?)?,
        })
    }
}

/// Named histograms in registration order — the percentile-plane sibling of
/// [`MetricsRegistry`](crate::MetricsRegistry).
///
/// Cheaply clonable (all clones share state) and `Send + Sync`: the lock
/// guards only registration and snapshotting, never the record hot path —
/// call sites hold their `Arc<Histogram>` and record without touching the
/// registry again.
#[derive(Debug, Clone, Default)]
pub struct HistogramRegistry {
    inner: Arc<Mutex<Families>>,
}

/// Registered histograms in registration order.
type Families = Vec<(String, Arc<Histogram>)>;

impl HistogramRegistry {
    /// A fresh, empty registry.
    pub fn new() -> HistogramRegistry {
        HistogramRegistry::default()
    }

    /// Registers (or retrieves) the named histogram. Names are slash-paths
    /// by convention, with a unit suffix, e.g. `serve/queue_wait_us`.
    pub fn hist(&self, name: &str) -> Arc<Histogram> {
        let mut hists = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some((_, h)) = hists.iter().find(|(n, _)| n == name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        hists.push((name.to_owned(), Arc::clone(&h)));
        h
    }

    /// Detached snapshots of every registered histogram, in registration
    /// order.
    pub fn snapshot(&self) -> Vec<(String, HistogramSnapshot)> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect()
    }

    /// Folds a shard's snapshots into this registry by name (registering
    /// names this registry has not seen). Used when a finished serve job's
    /// per-job histograms merge into the server-global registry.
    pub fn absorb(&self, shard: &[(String, HistogramSnapshot)]) {
        for (name, snap) in shard {
            self.hist(name).absorb(snap);
        }
    }

    /// Whether any histogram has recorded a sample.
    pub fn is_empty(&self) -> bool {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .all(|(_, h)| h.count() == 0)
    }
}

/// The percentile table of every text sink (`--stats`, `rlcheck report`,
/// `report --dir`): a header whose first column reads `first`, then one
/// `label count p50 p90 p99 max` row per entry. Empty, with no header,
/// when `rows` is.
pub fn percentile_table<'a, L: AsRef<str>>(
    first: &str,
    rows: impl IntoIterator<Item = (L, &'a HistogramSnapshot)>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (label, snap) in rows {
        if out.is_empty() {
            let _ = writeln!(
                out,
                "{first:<36} {:>8} {:>10} {:>10} {:>10} {:>10}",
                "count", "p50", "p90", "p99", "max"
            );
        }
        let _ = writeln!(
            out,
            "{:<36} {:>8} {:>10} {:>10} {:>10} {:>10}",
            label.as_ref(),
            snap.count,
            snap.p50(),
            snap.p90(),
            snap.p99(),
            snap.max,
        );
    }
    out
}

/// One `hist` JSONL event: the wire form of a named cumulative snapshot,
/// used by `rl-obs/v3` files and the serve `metrics` verb's JSONL body. The
/// snapshot's own fields (`count`/`sum`/`max`/`buckets`) are inlined, so
/// [`HistogramSnapshot::from_json`] parses the event directly.
pub fn hist_event_json(name: &str, snap: &HistogramSnapshot) -> Json {
    let mut b = ObjBuilder::new().field("event", "hist").field("name", name);
    let Json::Obj(fields) = snap.to_json() else {
        unreachable!("snapshot serializes to an object");
    };
    for (key, value) in fields {
        b = b.field(&key, value);
    }
    b.build()
}

/// Sanitizes a metric name for Prometheus: `[a-zA-Z0-9_]` pass through,
/// everything else becomes `_`, and an `rl_` namespace prefix is added.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 3);
    out.push_str("rl_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders counters and histogram snapshots as Prometheus text exposition
/// (format version 0.0.4): counters as `<name>_total`, histograms as
/// cumulative `_bucket{le="…"}` series (only non-empty buckets, plus the
/// mandatory `+Inf`) with `_sum` and `_count`. Standard scrapers can attach
/// to the serve socket's `metrics` verb via socat and ingest this directly.
pub fn render_prometheus(
    counters: &[(String, u64)],
    hists: &[(String, HistogramSnapshot)],
) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    for (name, value) in counters {
        let name = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {name}_total counter");
        let _ = writeln!(out, "{name}_total {value}");
    }
    for (name, snap) in hists {
        let name = prometheus_name(name);
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for &(index, n) in &snap.buckets {
            cumulative += n;
            let (_, hi) = bucket_bounds(index);
            let _ = writeln!(out, "{name}_bucket{{le=\"{hi}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", snap.count);
        let _ = writeln!(out, "{name}_sum {}", snap.sum);
        let _ = writeln!(out, "{name}_count {}", snap.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_values_are_exact_and_indexing_is_monotone() {
        for v in 0..8u64 {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert_eq!((lo, hi), (v, v), "values below 8 get exact buckets");
        }
        // Bucket index is monotone in the value and bounds contain it.
        let mut prev = 0;
        for v in 0..=10_000u64 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index monotone at {v}");
            prev = idx;
        }
        for shift in 2..63 {
            for off in [0u64, 1, 3] {
                let v = (1u64 << shift) + off;
                let (lo, hi) = bucket_bounds(bucket_index(v));
                assert!(lo <= v && v <= hi, "{v} outside bucket [{lo}, {hi}]");
                // The documented bound: hi ≤ 1.25 * lo for log buckets.
                assert!(
                    hi as f64 <= lo as f64 * 1.25,
                    "bucket [{lo}, {hi}] too wide"
                );
            }
        }
        assert!(bucket_index(u64::MAX) < BUCKET_COUNT);
    }

    #[test]
    fn record_snapshot_and_quantiles() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.max, 100);
        let p50 = s.p50();
        assert!((50..=63).contains(&p50), "p50 estimate {p50}");
        let p99 = s.p99();
        assert!((99..=100).contains(&p99), "p99 estimate {p99}");
        assert_eq!(s.quantile(1.0), Some(100));
        assert!(HistogramSnapshot::default().quantile(0.5).is_none());
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let h = Histogram::new();
        for v in [0, 1, 7, 100, 5_000, 1 << 40] {
            h.record(v);
        }
        let snap = h.snapshot();
        let text = rl_json::to_string(&snap).unwrap();
        let back: HistogramSnapshot = rl_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn registry_shares_by_name_and_absorbs_shards() {
        let reg = HistogramRegistry::new();
        assert!(reg.is_empty());
        reg.hist("a/x_us").record(10);
        reg.hist("a/x_us").record(20);
        reg.hist("b/y_us").record(5);
        assert!(!reg.is_empty());
        let snap = reg.snapshot();
        assert_eq!(snap[0].0, "a/x_us");
        assert_eq!(snap[0].1.count, 2);
        assert_eq!(snap[1].0, "b/y_us");

        let global = HistogramRegistry::new();
        global.hist("a/x_us").record(1);
        global.absorb(&snap);
        let merged = global.snapshot();
        assert_eq!(merged[0].1.count, 3);
        assert_eq!(merged[1].1.count, 1);
    }

    #[test]
    fn delta_to_reports_only_new_samples() {
        let h = Histogram::new();
        h.record(10);
        let old = h.snapshot();
        assert!(old.delta_to(&h.snapshot()).is_none(), "no change, no delta");
        h.record(10);
        h.record(500);
        let delta = old.delta_to(&h.snapshot()).unwrap();
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum, 510);
        let mut rebuilt = old;
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, h.snapshot());
    }

    #[test]
    fn prometheus_exposition_is_cumulative_and_well_formed() {
        let reg = HistogramRegistry::new();
        let h = reg.hist("serve/queue_wait_us");
        for v in [1u64, 1, 2, 100, 100, 100, 4_000] {
            h.record(v);
        }
        let counters = vec![("lazy/expanded".to_owned(), 3u64)];
        let text = render_prometheus(&counters, &reg.snapshot());
        assert!(text.contains("# TYPE rl_lazy_expanded_total counter"));
        assert!(text.contains("rl_lazy_expanded_total 3"));
        assert!(text.contains("# TYPE rl_serve_queue_wait_us histogram"));
        assert!(text.contains("rl_serve_queue_wait_us_bucket{le=\"+Inf\"} 7"));
        assert!(text.contains("rl_serve_queue_wait_us_sum 4304"));
        assert!(text.contains("rl_serve_queue_wait_us_count 7"));
        // Bucket series must be cumulative (monotone non-decreasing) with
        // strictly increasing le bounds.
        let mut last_le = -1.0f64;
        let mut last_cum = 0u64;
        for line in text.lines() {
            let Some(rest) = line.strip_prefix("rl_serve_queue_wait_us_bucket{le=\"") else {
                continue;
            };
            let (le, cum) = rest.split_once("\"} ").unwrap();
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap()
            };
            let cum: u64 = cum.parse().unwrap();
            assert!(le > last_le, "le bounds strictly increase");
            assert!(cum >= last_cum, "bucket counts are cumulative");
            last_le = le;
            last_cum = cum;
        }
        assert_eq!(last_cum, 7);
    }

    // Satellite: merge order-independence and the documented error bound,
    // against an exact sorted reference, over pseudo-random sample sets.
    #[test]
    fn property_merge_is_order_independent_and_quantiles_bounded() {
        // Deterministic xorshift so the test is reproducible.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..50 {
            // A few shards of samples with mixed magnitudes.
            let shards: Vec<Vec<u64>> = (0..4)
                .map(|_| {
                    (0..(next() % 40 + 1))
                        .map(|_| match next() % 4 {
                            0 => next() % 8,         // exact region
                            1 => next() % 1_000,     // typical latencies
                            2 => next() % 1_000_000, // long tails
                            _ => next() % (1 << 40), // extreme outliers
                        })
                        .collect()
                })
                .collect();
            let snaps: Vec<HistogramSnapshot> = shards
                .iter()
                .map(|samples| {
                    let h = Histogram::new();
                    for &v in samples {
                        h.record(v);
                    }
                    h.snapshot()
                })
                .collect();

            // Merge in forward, reverse, and interleaved order: identical.
            let merge_all = |order: &[usize]| {
                let mut acc = HistogramSnapshot::default();
                for &i in order {
                    acc.merge(&snaps[i]);
                }
                acc
            };
            let forward = merge_all(&[0, 1, 2, 3]);
            assert_eq!(forward, merge_all(&[3, 2, 1, 0]), "round {round}");
            assert_eq!(forward, merge_all(&[2, 0, 3, 1]), "round {round}");

            // Quantile estimates vs the exact sorted reference.
            let mut all: Vec<u64> = shards.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(forward.count as usize, all.len());
            assert_eq!(forward.max, *all.last().unwrap());
            for &q in &[0.5, 0.9, 0.99, 1.0] {
                let rank = ((q * all.len() as f64).ceil() as usize).clamp(1, all.len());
                let exact = all[rank - 1];
                let est = forward.quantile(q).unwrap();
                assert!(est >= exact, "q{q} under-reported: {est} < {exact}");
                // Documented bound: estimate < exact * 1.25 (and never
                // above the observed max).
                assert!(
                    est as f64 <= (exact as f64) * 1.25 && est <= forward.max,
                    "q{q} over bound: {est} vs exact {exact} (round {round})"
                );
            }
        }
    }
}
