//! Structured tracing, metrics, and phase profiling for the checking stack.
//!
//! Every decision procedure in this workspace is worst-case exponential, so
//! knowing *where* the state-space cost lands matters as much as the final
//! verdict. This crate provides the three observability primitives the rest
//! of the workspace threads through its guarded (`*_with`) procedures:
//!
//! * [`Span`] — a named, nested, wall-clock-timed phase. Spans form a stack;
//!   each records, on close, its path (e.g. `check/relative_liveness/
//!   determinize`), its duration, and the *delta* of every built-in metric
//!   over its lifetime (inclusive of children).
//! * [`Counter`] — a monotonic named counter for ad-hoc instrumentation,
//!   registered on a [`MetricsRegistry`] and reported with the totals.
//! * [`MetricsRegistry`] — the cheaply clonable handle collecting it all,
//!   with two sinks: a human-readable phase table ([`MetricsRegistry::
//!   summary`], for stderr) and machine-readable JSONL events
//!   ([`MetricsRegistry::to_jsonl`], via the in-repo `rl-json` layer).
//!
//! # Overhead discipline
//!
//! Observability must cost (almost) nothing when off. The registry is meant
//! to sit behind an `Option` in the instrumented code (`rl-automata`'s
//! `Guard` does exactly that): when absent, counter traffic is a single
//! branch and spans are the inert [`Span::disabled`] value, whose creation
//! and drop do no work. When present, counters are plain [`Cell`]s — no
//! atomics anywhere on the hot path — and a span open/close is two `Vec`
//! pushes plus one `Instant` read each.
//!
//! # Example
//!
//! ```
//! use rl_obs::{Metric, MetricsRegistry};
//!
//! let m = MetricsRegistry::new();
//! {
//!     let _outer = m.enter("check");
//!     {
//!         let _inner = m.enter("determinize");
//!         m.add(Metric::States, 40);
//!     }
//!     m.add(Metric::States, 2);
//! }
//! let records = m.records();
//! assert_eq!(records.len(), 2);
//! // Records come back in open order; deltas are inclusive of children.
//! assert_eq!(records[0].path, "check");
//! assert_eq!(records[0].states, 42);
//! assert_eq!(records[1].path, "check/determinize");
//! assert_eq!(records[1].states, 40);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod journal;
pub mod knobs;
mod report;
mod slo;
mod stream;
mod trace;

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rl_json::{FromJson, Json, JsonError, ObjBuilder, ToJson};

pub use hist::{
    hist_event_json, percentile_table, render_prometheus, Histogram, HistogramRegistry,
    HistogramSnapshot, BUCKET_COUNT,
};
pub use journal::{
    read_journal, render_journal, Journal, JournalSample, JournalWriter, DEFAULT_SEGMENT_BYTES,
};
pub use report::{ObsReport, SCHEMA_STREAM};
pub use slo::{
    evaluate as evaluate_slo, parse_baseline as parse_slo_baseline, SloBaseline, SloCeilings,
    SLO_SCHEMA,
};
pub use stream::{EventRing, Heartbeat, StreamBus, StreamSubscription};
pub use trace::{
    chrome_trace_json, folded_stacks, set_thread_track, thread_track, track_name, TraceEvent,
    TracePhase, Tracer, EVENT_SHARDS, TRACK_MAIN,
};

/// The fixed, hot-path metrics every guarded construction reports.
///
/// These four are `Cell`-backed slots addressed by index — incrementing one
/// is a load, an add, and a store, with no hashing and no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Automaton states materialized.
    States,
    /// Automaton transitions materialized.
    Transitions,
    /// Memoization hits (e.g. the simplicity check's continuation cache).
    CacheHits,
    /// Calls into the resource guard (charge/tick traffic).
    GuardCharges,
}

/// Number of [`Metric`] variants (size of the per-span delta vectors).
pub const METRIC_COUNT: usize = 4;

impl Metric {
    /// All metrics, in reporting order.
    pub const ALL: [Metric; METRIC_COUNT] = [
        Metric::States,
        Metric::Transitions,
        Metric::CacheHits,
        Metric::GuardCharges,
    ];

    /// The stable snake_case name used in JSONL events and table headers.
    pub fn name(self) -> &'static str {
        match self {
            Metric::States => "states",
            Metric::Transitions => "transitions",
            Metric::CacheHits => "cache_hits",
            Metric::GuardCharges => "guard_charges",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// A completed span: one row of the phase profile.
///
/// `states`/`transitions`/`cache_hits`/`guard_charges` are the metric
/// *deltas* accumulated while the span was open — inclusive of child spans,
/// so a parent's numbers bound the sum of its children's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Slash-joined path from the root span, e.g.
    /// `check/relative_liveness/determinize`.
    pub path: String,
    /// The span's own name (the last path component).
    pub name: String,
    /// Nesting depth (0 for a root span).
    pub depth: usize,
    /// Open order: the n-th span opened on this registry has `seq == n`.
    pub seq: u64,
    /// When the span opened, relative to registry creation.
    pub started: Duration,
    /// Wall-clock time the span was open.
    pub elapsed: Duration,
    /// States materialized while open.
    pub states: u64,
    /// Transitions materialized while open.
    pub transitions: u64,
    /// Cache hits while open.
    pub cache_hits: u64,
    /// Guard charges while open.
    pub guard_charges: u64,
}

impl SpanRecord {
    /// The delta recorded for `metric`.
    pub fn metric(&self, metric: Metric) -> u64 {
        match metric {
            Metric::States => self.states,
            Metric::Transitions => self.transitions,
            Metric::CacheHits => self.cache_hits,
            Metric::GuardCharges => self.guard_charges,
        }
    }
}

impl ToJson for SpanRecord {
    fn to_json(&self) -> Json {
        ObjBuilder::new()
            .field("event", "span")
            .field("path", &self.path)
            .field("name", &self.name)
            .field("depth", self.depth)
            .field("seq", self.seq)
            .field("start_us", self.started.as_micros() as u64)
            .field("elapsed_us", self.elapsed.as_micros() as u64)
            .field("states", self.states)
            .field("transitions", self.transitions)
            .field("cache_hits", self.cache_hits)
            .field("guard_charges", self.guard_charges)
            .build()
    }
}

impl FromJson for SpanRecord {
    fn from_json(value: &Json) -> Result<SpanRecord, JsonError> {
        let event = String::from_json(value.field("event")?)?;
        if event != "span" {
            return Err(JsonError::custom(format!(
                "expected a span event, got {event:?}"
            )));
        }
        Ok(SpanRecord {
            path: String::from_json(value.field("path")?)?,
            name: String::from_json(value.field("name")?)?,
            depth: usize::from_json(value.field("depth")?)?,
            seq: u64::from_json(value.field("seq")?)?,
            started: Duration::from_micros(u64::from_json(value.field("start_us")?)?),
            elapsed: Duration::from_micros(u64::from_json(value.field("elapsed_us")?)?),
            states: u64::from_json(value.field("states")?)?,
            transitions: u64::from_json(value.field("transitions")?)?,
            cache_hits: u64::from_json(value.field("cache_hits")?)?,
            guard_charges: u64::from_json(value.field("guard_charges")?)?,
        })
    }
}

/// An open frame on the span stack.
#[derive(Debug)]
struct Frame {
    name: &'static str,
    path: String,
    seq: u64,
    started: Duration,
    snapshot: [u64; METRIC_COUNT],
}

#[derive(Debug)]
struct CustomCounter {
    name: String,
    value: Rc<Cell<u64>>,
}

#[derive(Debug)]
struct Inner {
    start: Instant,
    next_seq: Cell<u64>,
    totals: [Cell<u64>; METRIC_COUNT],
    stack: RefCell<Vec<Frame>>,
    records: RefCell<Vec<SpanRecord>>,
    custom: RefCell<Vec<CustomCounter>>,
    jobs: Cell<Option<usize>>,
    tracer: RefCell<Option<Arc<Tracer>>>,
}

/// A detached, immutable copy of a registry's completed output: records,
/// metric totals, and custom counters.
///
/// Unlike [`MetricsRegistry`] (which is `Rc`-based and single-threaded by
/// design), a snapshot is plain owned data and is `Send` — it is the unit
/// that crosses threads when parallel workers or batch jobs each meter their
/// own shard registry and the parent absorbs the shards at join
/// ([`MetricsRegistry::absorb`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// Completed spans, in open (`seq`) order.
    pub records: Vec<SpanRecord>,
    /// Built-in metric totals, indexed like [`Metric::ALL`].
    pub totals: [u64; METRIC_COUNT],
    /// Custom counter totals, in registration order.
    pub counters: Vec<(String, u64)>,
    /// Wall-clock lifetime of the source registry at snapshot time.
    pub elapsed: Duration,
}

impl RegistrySnapshot {
    /// The snapshotted total of a built-in metric.
    pub fn total(&self, metric: Metric) -> u64 {
        self.totals[metric.index()]
    }

    /// Human-readable phase table (one indented row per span, in open
    /// order) plus a totals footer — the `--stats` sink.
    ///
    /// Rendering from a snapshot rather than a live registry means the
    /// table and the JSONL written from the *same* snapshot agree to the
    /// byte, which is what lets `rlcheck report` reproduce a committed
    /// run's `--stats` output exactly.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>10} {:>12} {:>10} {:>12}",
            "phase", "states", "transitions", "cache-hits", "elapsed"
        );
        for r in &self.records {
            let label = format!("{}{}", "  ".repeat(r.depth), r.name);
            let _ = writeln!(
                out,
                "{label:<44} {:>10} {:>12} {:>10} {:>12}",
                r.states,
                r.transitions,
                r.cache_hits,
                format_duration(r.elapsed),
            );
        }
        let _ = writeln!(
            out,
            "{:<44} {:>10} {:>12} {:>10} {:>12}",
            "total",
            self.total(Metric::States),
            self.total(Metric::Transitions),
            self.total(Metric::CacheHits),
            format_duration(self.elapsed),
        );
        for (name, value) in &self.counters {
            let _ = writeln!(out, "{name:<44} {value:>10}");
        }
        out
    }
}

/// The one `--metrics` schema tag, written on every file's `meta` line.
pub(crate) const SCHEMA: &str = "rl-obs/v3";

/// Machine-readable JSONL for a snapshot, schema `rl-obs/v3`: a `meta` line
/// (with the `spans`, `events` and `hists` counts), one `span` line per
/// completed span (open order), one `trace` line per event, one `hist` line
/// per histogram family (sparse buckets plus count/sum/max), and a closing
/// `totals` line. Every line is an independent JSON object; see
/// `docs/OBSERVABILITY.md`.
pub fn render_jsonl(
    snapshot: &RegistrySnapshot,
    jobs: Option<usize>,
    events: &[TraceEvent],
    hists: &[(String, HistogramSnapshot)],
) -> String {
    let records = &snapshot.records;
    let mut lines = Vec::with_capacity(records.len() + events.len() + hists.len() + 2);
    let mut meta = ObjBuilder::new()
        .field("event", "meta")
        .field("schema", SCHEMA)
        .field("spans", records.len())
        .field("events", events.len())
        .field("hists", hists.len())
        .field("elapsed_us", snapshot.elapsed.as_micros() as u64);
    if let Some(jobs) = jobs {
        meta = meta.field("jobs", jobs);
    }
    lines.push(compact(&meta.build()));
    for r in records {
        lines.push(compact(&r.to_json()));
    }
    for e in events {
        lines.push(compact(&e.to_json()));
    }
    for (name, snap) in hists {
        lines.push(compact(&hist_event_json(name, snap)));
    }
    let mut totals = ObjBuilder::new().field("event", "totals");
    for m in Metric::ALL {
        totals = totals.field(m.name(), snapshot.total(m));
    }
    let custom = Json::Obj(
        snapshot
            .counters
            .iter()
            .map(|(name, value)| (name.clone(), Json::Int(*value as i64)))
            .collect(),
    );
    lines.push(compact(&totals.field("counters", custom).build()));
    lines.join("\n") + "\n"
}

/// The collector for spans, metrics, and counters of one checking run.
///
/// Cloning is cheap (an `Rc` bump) and all clones share state; the registry
/// is single-threaded by design, matching the single-threaded decision
/// procedures (`Cell`/`RefCell`, no atomics).
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    inner: Rc<Inner>,
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// A fresh registry; its clock starts now.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            inner: Rc::new(Inner {
                start: Instant::now(),
                next_seq: Cell::new(0),
                totals: std::array::from_fn(|_| Cell::new(0)),
                stack: RefCell::new(Vec::new()),
                records: RefCell::new(Vec::new()),
                custom: RefCell::new(Vec::new()),
                jobs: Cell::new(None),
                tracer: RefCell::new(None),
            }),
        }
    }

    /// Attaches an event-level [`Tracer`]: from now on every span open/close
    /// also records a timestamped begin/end event on the calling thread's
    /// track, and [`MetricsRegistry::to_jsonl`] writes those events as
    /// `trace` lines. Tracing never touches the metric counters, so deterministic
    /// totals are bit-for-bit identical with and without a tracer.
    pub fn set_tracer(&self, tracer: Arc<Tracer>) {
        *self.inner.tracer.borrow_mut() = Some(tracer);
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<Arc<Tracer>> {
        self.inner.tracer.borrow().clone()
    }

    /// Records the degree of parallelism this run executed with (the resolved
    /// `--jobs`/`RL_THREADS` choice). Shows up as the `jobs` field of the
    /// JSONL `meta` header so traces are attributable to a thread count.
    pub fn note_jobs(&self, jobs: usize) {
        self.inner.jobs.set(Some(jobs));
    }

    /// The recorded parallelism degree, if one was noted.
    pub fn jobs(&self) -> Option<usize> {
        self.inner.jobs.get()
    }

    /// Opens a named span nested under the currently open one. Closing
    /// happens on drop of the returned [`Span`], so spans must be closed in
    /// LIFO order — which scoping gives for free.
    pub fn enter(&self, name: &'static str) -> Span {
        let inner = &self.inner;
        let seq = inner.next_seq.get();
        inner.next_seq.set(seq + 1);
        let mut stack = inner.stack.borrow_mut();
        let path = match stack.last() {
            Some(parent) => format!("{}/{name}", parent.path),
            None => name.to_owned(),
        };
        stack.push(Frame {
            name,
            path,
            seq,
            started: inner.start.elapsed(),
            snapshot: std::array::from_fn(|i| inner.totals[i].get()),
        });
        drop(stack);
        if let Some(t) = &*inner.tracer.borrow() {
            t.begin("span", name);
        }
        Span {
            registry: Some(self.clone()),
        }
    }

    /// Adds `n` to a built-in metric.
    pub fn add(&self, metric: Metric, n: u64) {
        let cell = &self.inner.totals[metric.index()];
        cell.set(cell.get() + n);
    }

    /// Increments a built-in metric by one.
    pub fn inc(&self, metric: Metric) {
        self.add(metric, 1);
    }

    /// The running total of a built-in metric.
    pub fn total(&self, metric: Metric) -> u64 {
        self.inner.totals[metric.index()].get()
    }

    /// Registers (or retrieves) a named monotonic [`Counter`]. Counters show
    /// up in the JSONL `totals` event and the summary footer.
    pub fn counter(&self, name: &str) -> Counter {
        let mut custom = self.inner.custom.borrow_mut();
        let value = match custom.iter().find(|c| c.name == name) {
            Some(c) => c.value.clone(),
            None => {
                let value: Rc<Cell<u64>> = Rc::new(Cell::new(0));
                custom.push(CustomCounter {
                    name: name.to_owned(),
                    value: value.clone(),
                });
                value
            }
        };
        Counter { value }
    }

    /// The slash-joined path of the currently open span, if any — used to
    /// tag budget-exhaustion diagnostics with the phase that blew the
    /// budget.
    pub fn current_path(&self) -> Option<String> {
        self.inner.stack.borrow().last().map(|f| f.path.clone())
    }

    /// Wall-clock time since the registry was created.
    pub fn elapsed(&self) -> Duration {
        self.inner.start.elapsed()
    }

    /// All completed spans so far, in open (`seq`) order.
    ///
    /// Spans still open (e.g. when a construction was interrupted by a
    /// budget error and the stack unwound past this call) are not included;
    /// they *are* included once their RAII guards drop.
    pub fn records(&self) -> Vec<SpanRecord> {
        let mut records = self.inner.records.borrow().clone();
        records.sort_by_key(|r| r.seq);
        records
    }

    /// Custom counter totals, in registration order.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.inner
            .custom
            .borrow()
            .iter()
            .map(|c| (c.name.clone(), c.value.get()))
            .collect()
    }

    /// A detached, `Send`-able copy of everything recorded so far — the
    /// shard side of the shard/merge protocol (see
    /// [`MetricsRegistry::absorb`]).
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            records: self.records(),
            totals: std::array::from_fn(|i| self.inner.totals[i].get()),
            counters: self.counters(),
            elapsed: self.elapsed(),
        }
    }

    /// Merges a worker/job shard into this registry: every shard span is
    /// re-recorded under `prefix/` (depth shifted by one, `seq` renumbered
    /// after everything already recorded here) and the shard's metric and
    /// counter totals are added to this registry's totals.
    ///
    /// Callers absorb shards **in submission order at join**, not in
    /// completion order, so the merged `--stats`/`--metrics` output is
    /// deterministic regardless of how the parallel schedule interleaved.
    pub fn absorb(&self, prefix: &str, shard: &RegistrySnapshot) {
        let inner = &self.inner;
        {
            let mut records = inner.records.borrow_mut();
            // A synthetic root row for the shard, so summaries show the
            // prefix (e.g. `job3`) as the parent of the re-rooted spans.
            let seq = inner.next_seq.get();
            inner.next_seq.set(seq + 1);
            records.push(SpanRecord {
                path: prefix.to_owned(),
                name: prefix.to_owned(),
                depth: 0,
                seq,
                started: shard.records.first().map_or(Duration::ZERO, |r| r.started),
                elapsed: shard.elapsed,
                states: shard.total(Metric::States),
                transitions: shard.total(Metric::Transitions),
                cache_hits: shard.total(Metric::CacheHits),
                guard_charges: shard.total(Metric::GuardCharges),
            });
            for r in &shard.records {
                let seq = inner.next_seq.get();
                inner.next_seq.set(seq + 1);
                records.push(SpanRecord {
                    path: format!("{prefix}/{}", r.path),
                    name: r.name.clone(),
                    depth: r.depth + 1,
                    seq,
                    started: r.started,
                    elapsed: r.elapsed,
                    states: r.states,
                    transitions: r.transitions,
                    cache_hits: r.cache_hits,
                    guard_charges: r.guard_charges,
                });
            }
        }
        for (i, total) in inner.totals.iter().enumerate() {
            total.set(total.get() + shard.totals[i]);
        }
        for (name, value) in &shard.counters {
            self.counter(name).add(*value);
        }
    }

    fn close_top(&self) {
        let inner = &self.inner;
        let Some(frame) = inner.stack.borrow_mut().pop() else {
            return;
        };
        if let Some(t) = &*inner.tracer.borrow() {
            t.end("span", frame.name);
        }
        let deltas: [u64; METRIC_COUNT] =
            std::array::from_fn(|i| inner.totals[i].get() - frame.snapshot[i]);
        let depth = inner.stack.borrow().len();
        inner.records.borrow_mut().push(SpanRecord {
            name: frame.name.to_owned(),
            depth,
            seq: frame.seq,
            started: frame.started,
            elapsed: inner.start.elapsed().saturating_sub(frame.started),
            states: deltas[Metric::States.index()],
            transitions: deltas[Metric::Transitions.index()],
            cache_hits: deltas[Metric::CacheHits.index()],
            guard_charges: deltas[Metric::GuardCharges.index()],
            path: frame.path,
        });
    }

    /// Human-readable phase table (one indented row per span, in open
    /// order) plus a totals footer — the `--stats` sink. Delegates to
    /// [`RegistrySnapshot::summary`] on a snapshot taken now.
    pub fn summary(&self) -> String {
        self.snapshot().summary()
    }

    /// Machine-readable JSONL: [`render_jsonl`] on a snapshot taken now,
    /// with the attached tracer's events (none without a tracer) and no
    /// histogram families.
    pub fn to_jsonl(&self) -> String {
        let events = self.tracer().map(|t| t.events()).unwrap_or_default();
        render_jsonl(&self.snapshot(), self.jobs(), &events, &[])
    }
}

fn compact(value: &Json) -> String {
    rl_json::to_string(value).unwrap_or_else(|_| "{}".to_owned())
}

pub(crate) fn format_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.3}s", us as f64 / 1_000_000.0)
    }
}

/// RAII handle for an open phase; closing (recording) happens on drop.
///
/// The disabled variant ([`Span::disabled`]) carries no registry and its
/// whole lifecycle is a no-op, so instrumented code can unconditionally hold
/// a `Span` without caring whether observability is on.
#[derive(Debug)]
#[must_use = "a span records its phase when dropped; binding it to `_` closes it immediately"]
pub struct Span {
    registry: Option<MetricsRegistry>,
}

impl Span {
    /// The inert span: does nothing on creation or drop.
    pub fn disabled() -> Span {
        Span { registry: None }
    }

    /// Whether this span records anything.
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(registry) = &self.registry {
            registry.close_top();
        }
    }
}

/// A monotonic named counter registered on a [`MetricsRegistry`].
///
/// # Example
///
/// ```
/// use rl_obs::MetricsRegistry;
///
/// let m = MetricsRegistry::new();
/// let rows = m.counter("table_rows");
/// rows.add(3);
/// rows.inc();
/// assert_eq!(m.counters(), vec![("table_rows".to_owned(), 4)]);
/// ```
#[derive(Debug, Clone)]
pub struct Counter {
    value: Rc<Cell<u64>>,
}

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.set(self.value.get() + n);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_paths_depths_and_inclusive_deltas() {
        let m = MetricsRegistry::new();
        {
            let _check = m.enter("check");
            m.add(Metric::States, 1);
            {
                let _det = m.enter("determinize");
                m.add(Metric::States, 10);
                m.add(Metric::Transitions, 20);
            }
            {
                let _inc = m.enter("inclusion");
                m.add(Metric::States, 5);
            }
        }
        let records = m.records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].path, "check");
        assert_eq!(records[0].depth, 0);
        assert_eq!(records[0].states, 16, "parent deltas include children");
        assert_eq!(records[1].path, "check/determinize");
        assert_eq!(records[1].depth, 1);
        assert_eq!((records[1].states, records[1].transitions), (10, 20));
        assert_eq!(records[2].path, "check/inclusion");
        assert_eq!(records[2].states, 5);
        // seq reflects open order even though parents close last.
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn current_path_tracks_the_open_span() {
        let m = MetricsRegistry::new();
        assert_eq!(m.current_path(), None);
        let outer = m.enter("a");
        assert_eq!(m.current_path().as_deref(), Some("a"));
        let inner = m.enter("b");
        assert_eq!(m.current_path().as_deref(), Some("a/b"));
        drop(inner);
        assert_eq!(m.current_path().as_deref(), Some("a"));
        drop(outer);
        assert_eq!(m.current_path(), None);
    }

    #[test]
    fn disabled_span_is_inert() {
        let span = Span::disabled();
        assert!(!span.is_enabled());
        drop(span); // must not panic or touch any registry
    }

    #[test]
    fn span_record_round_trips_through_json() {
        let record = SpanRecord {
            path: "check/relative_liveness/determinize".to_owned(),
            name: "determinize".to_owned(),
            depth: 2,
            seq: 7,
            started: Duration::from_micros(1_234),
            elapsed: Duration::from_micros(56_789),
            states: 4096,
            transitions: 16_384,
            cache_hits: 12,
            guard_charges: 20_480,
        };
        let text = rl_json::to_string(&record).unwrap();
        let back: SpanRecord = rl_json::from_str(&text).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn jsonl_has_meta_span_and_totals_lines_all_parseable() {
        let m = MetricsRegistry::new();
        {
            let _s = m.enter("phase_one");
            m.add(Metric::States, 3);
        }
        m.counter("extra").add(9);
        let jsonl = m.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            rl_json::parse(line).expect("every JSONL line parses");
        }
        let meta = rl_json::parse(lines[0]).unwrap();
        assert_eq!(meta.get("event"), Some(&Json::Str("meta".to_owned())));
        assert_eq!(meta.get("spans"), Some(&Json::Int(1)));
        let span: SpanRecord = rl_json::from_str(lines[1]).unwrap();
        assert_eq!(span.path, "phase_one");
        assert_eq!(span.states, 3);
        let totals = rl_json::parse(lines[2]).unwrap();
        assert_eq!(totals.get("states"), Some(&Json::Int(3)));
        assert_eq!(
            totals.get("counters").and_then(|c| c.get("extra")),
            Some(&Json::Int(9))
        );
    }

    #[test]
    fn summary_table_lists_phases_indented_with_totals_footer() {
        let m = MetricsRegistry::new();
        {
            let _outer = m.enter("check");
            let _inner = m.enter("determinize");
            m.add(Metric::States, 2);
        }
        let summary = m.summary();
        assert!(summary.contains("phase"));
        assert!(summary.contains("check"));
        assert!(summary.contains("  determinize"), "nested rows indent");
        assert!(summary.contains("total"));
    }

    #[test]
    fn snapshot_absorb_prefixes_renumbers_and_sums() {
        let parent = MetricsRegistry::new();
        {
            let _own = parent.enter("batch");
            parent.add(Metric::States, 1);
        }
        let shard = MetricsRegistry::new();
        {
            let _s = shard.enter("check");
            let _inner = shard.enter("determinize");
            shard.add(Metric::States, 10);
            shard.add(Metric::Transitions, 4);
        }
        shard.counter("rows").add(7);
        let snap = shard.snapshot();
        assert_eq!(snap.total(Metric::States), 10);
        parent.absorb("job0", &snap);
        parent.absorb("job1", &snap);

        let records = parent.records();
        assert_eq!(records.len(), 7);
        assert_eq!(records[0].path, "batch");
        // Each absorb contributes a synthetic root row carrying the shard's
        // totals, then the shard's spans re-rooted under the prefix.
        assert_eq!(records[1].path, "job0");
        assert_eq!(records[1].depth, 0);
        assert_eq!(records[1].states, 10);
        assert_eq!(records[1].transitions, 4);
        assert_eq!(records[2].path, "job0/check");
        assert_eq!(records[2].depth, 1);
        assert_eq!(records[3].path, "job0/check/determinize");
        assert_eq!(records[3].depth, 2);
        assert_eq!(records[4].path, "job1");
        assert_eq!(records[5].path, "job1/check");
        // seq strictly increases across absorbs (deterministic merge order).
        assert!(records.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(parent.total(Metric::States), 21);
        assert_eq!(parent.total(Metric::Transitions), 8);
        assert_eq!(parent.counters(), vec![("rows".to_owned(), 14)]);
    }

    #[test]
    fn jobs_choice_lands_in_the_meta_header() {
        let m = MetricsRegistry::new();
        assert_eq!(m.jobs(), None);
        assert!(!m.to_jsonl().lines().next().unwrap().contains("\"jobs\""));
        m.note_jobs(4);
        assert_eq!(m.jobs(), Some(4));
        let meta = rl_json::parse(m.to_jsonl().lines().next().unwrap()).unwrap();
        assert_eq!(meta.get("jobs"), Some(&Json::Int(4)));
    }

    #[test]
    fn snapshot_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<RegistrySnapshot>();
    }

    #[test]
    fn counters_are_shared_by_name() {
        let m = MetricsRegistry::new();
        let a = m.counter("hits");
        let b = m.counter("hits");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(m.counters(), vec![("hits".to_owned(), 3)]);
    }
}
