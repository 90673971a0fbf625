//! Event-level timeline tracing: a `Send + Sync` sharded collector safe to
//! record from pool workers, plus exporters for standard tooling formats.
//!
//! The phase profiler in the crate root answers *where did the cost land*;
//! the [`Tracer`] answers *when, and on which worker*. It records timestamped
//! begin/end events for spans and pool tasks and instant events for pool
//! telemetry (spawns, steals, parks/unparks) and kernel samples, each
//! tagged with a per-thread *track* id so a timeline viewer renders one
//! lane per worker.
//!
//! # Overhead discipline
//!
//! Tracing is opt-in per run: nothing in this module touches the registry's
//! `Rc`/`Cell` hot path, and deterministic metric counters are never read or
//! written here — enabling the tracer cannot change `states`/`transitions`/
//! `cache_hits`/`guard_charges` by construction. When a tracer *is*
//! attached, each event is one `Instant` read plus a push into one of
//! [`EVENT_SHARDS`] mutex-protected vectors selected by the recording
//! thread's track id, so workers on different tracks never contend.
//!
//! # Exporters
//!
//! * [`Tracer::chrome_trace`] — the Chrome trace-event JSON object
//!   (`{"traceEvents": [...]}`) loadable in `chrome://tracing` or Perfetto,
//!   one named track per worker.
//! * [`folded_stacks`] — folded-stack lines (`path;to;frame self_us`) for
//!   flamegraph tooling, computed from completed [`SpanRecord`]s.
//!
//! See `docs/OBSERVABILITY.md` for the full schema contract.

use std::cell::Cell;
use std::sync::Mutex;
use std::time::Instant;

use rl_json::{FromJson, Json, JsonError, ObjBuilder, ToJson};

use crate::SpanRecord;

/// Number of independent event shards; track ids map onto shards modulo this.
pub const EVENT_SHARDS: usize = 16;

/// The track id of the main (non-pool) thread.
pub const TRACK_MAIN: usize = 0;

thread_local! {
    static CURRENT_TRACK: Cell<usize> = const { Cell::new(TRACK_MAIN) };
}

/// Assigns this thread's timeline track. Pool workers call this once at
/// startup with `home + 1` (track 0 is reserved for the main thread), so
/// every event they record — including registry span events and kernel
/// instants — lands on their own lane.
pub fn set_thread_track(track: usize) {
    CURRENT_TRACK.with(|c| c.set(track));
}

/// The timeline track assigned to this thread ([`TRACK_MAIN`] by default).
pub fn thread_track() -> usize {
    CURRENT_TRACK.with(Cell::get)
}

/// The human-readable lane name for a track id (`main`, `worker-1`, ...).
pub fn track_name(track: usize) -> String {
    if track == TRACK_MAIN {
        "main".to_owned()
    } else {
        format!("worker-{track}")
    }
}

/// Event kind, mirroring the Chrome trace-event `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// A duration begins on this track (`ph: "B"`).
    Begin,
    /// The most recent open duration on this track ends (`ph: "E"`).
    End,
    /// A point event (`ph: "I"`, thread-scoped).
    Instant,
}

impl TracePhase {
    /// The one-letter Chrome trace-event phase code.
    pub fn code(self) -> &'static str {
        match self {
            TracePhase::Begin => "B",
            TracePhase::End => "E",
            TracePhase::Instant => "I",
        }
    }

    fn from_code(code: &str) -> Result<TracePhase, JsonError> {
        match code {
            "B" => Ok(TracePhase::Begin),
            "E" => Ok(TracePhase::End),
            "I" => Ok(TracePhase::Instant),
            other => Err(JsonError::custom(format!(
                "unknown trace phase {other:?} (expected B, E, or I)"
            ))),
        }
    }
}

/// One timeline event: what happened, when, and on which track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The recording thread's track ([`thread_track`] at record time).
    pub track: usize,
    /// Begin/end/instant.
    pub phase: TracePhase,
    /// Event category (`span`, `pool`, `kernel`).
    pub category: &'static str,
    /// Event name (span name, `steal`, `park`, ...).
    pub name: String,
    /// Microseconds since the tracer was created.
    pub ts_us: u64,
    /// Optional numeric payload (e.g. `("victim", 3)` on a steal).
    pub arg: Option<(&'static str, u64)>,
}

impl ToJson for TraceEvent {
    fn to_json(&self) -> Json {
        let mut b = ObjBuilder::new()
            .field("event", "trace")
            .field("ph", self.phase.code())
            .field("track", self.track)
            .field("cat", self.category)
            .field("name", &self.name)
            .field("ts_us", self.ts_us);
        if let Some((key, value)) = self.arg {
            b = b.field("arg", Json::Obj(vec![(key.to_owned(), int(value))]));
        }
        b.build()
    }
}

impl FromJson for TraceEvent {
    fn from_json(value: &Json) -> Result<TraceEvent, JsonError> {
        let event = String::from_json(value.field("event")?)?;
        if event != "trace" {
            return Err(JsonError::custom(format!(
                "expected a trace event, got {event:?}"
            )));
        }
        let arg = match value.get("arg") {
            Some(Json::Obj(fields)) => match fields.first() {
                Some((key, val)) => Some((leak_static(key), u64::from_json(val)?)),
                None => None,
            },
            _ => None,
        };
        Ok(TraceEvent {
            track: usize::from_json(value.field("track")?)?,
            phase: TracePhase::from_code(&String::from_json(value.field("ph")?)?)?,
            category: leak_static(&String::from_json(value.field("cat")?)?),
            name: String::from_json(value.field("name")?)?,
            ts_us: u64::from_json(value.field("ts_us")?)?,
            arg,
        })
    }
}

/// Interns a parsed category/arg-key string as `&'static str`.
///
/// Event categories and argument keys form a tiny closed vocabulary (see
/// `docs/OBSERVABILITY.md`), so leaking the handful of distinct strings a
/// report parse encounters is bounded; the common ones don't allocate at
/// all.
fn leak_static(s: &str) -> &'static str {
    match s {
        "span" => "span",
        "pool" => "pool",
        "kernel" => "kernel",
        "queue" => "queue",
        "victim" => "victim",
        "width" => "width",
        "count" => "count",
        "stage" => "stage",
        other => Box::leak(other.to_owned().into_boxed_str()),
    }
}

fn int(value: u64) -> Json {
    Json::Int(value as i64)
}

/// The `Send + Sync` sharded event collector.
///
/// Workers record into per-track shards (track id modulo [`EVENT_SHARDS`])
/// so they never contend with each other; [`Tracer::events`] absorbs the
/// shards deterministically — merged by ascending track, preserving each
/// track's own record order — mirroring how `RegistrySnapshot`s are absorbed
/// in submission order at join.
#[derive(Debug)]
pub struct Tracer {
    start: Instant,
    shards: [Mutex<TraceShard>; EVENT_SHARDS],
}

/// One shard's storage plus the streaming cursor: `taken` marks how many of
/// this shard's events [`Tracer::drain_new`] has already handed out, so
/// live streaming never re-delivers an event while the full [`Tracer::events`]
/// flush at the end of the run still sees everything.
#[derive(Debug, Default)]
struct TraceShard {
    events: Vec<TraceEvent>,
    taken: usize,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A fresh tracer; its clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            start: Instant::now(),
            shards: std::array::from_fn(|_| Mutex::new(TraceShard::default())),
        }
    }

    /// Microseconds elapsed since the tracer was created.
    pub fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn record(&self, event: TraceEvent) {
        let shard = &self.shards[event.track % EVENT_SHARDS];
        if let Ok(mut s) = shard.lock() {
            s.events.push(event);
        }
    }

    /// Records a duration-begin event on the calling thread's track.
    pub fn begin(&self, category: &'static str, name: &str) {
        self.record(TraceEvent {
            track: thread_track(),
            phase: TracePhase::Begin,
            category,
            name: name.to_owned(),
            ts_us: self.now_us(),
            arg: None,
        });
    }

    /// Records the matching duration-end event on the calling thread's
    /// track. Chrome trace semantics close the most recent open `B` on the
    /// same track, so begins/ends must nest per thread — which RAII spans
    /// and the pool's task bracketing give for free.
    pub fn end(&self, category: &'static str, name: &str) {
        self.record(TraceEvent {
            track: thread_track(),
            phase: TracePhase::End,
            category,
            name: name.to_owned(),
            ts_us: self.now_us(),
            arg: None,
        });
    }

    /// Records a point event on the calling thread's track, optionally
    /// carrying one numeric argument.
    pub fn instant(&self, category: &'static str, name: &str, arg: Option<(&'static str, u64)>) {
        self.record(TraceEvent {
            track: thread_track(),
            phase: TracePhase::Instant,
            category,
            name: name.to_owned(),
            ts_us: self.now_us(),
            arg,
        });
    }

    /// Total events recorded so far.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().map_or(0, |v| v.events.len()))
            .sum()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Absorbs every shard into one deterministic stream: events sorted by
    /// ascending track, each track's events kept in the order that track
    /// recorded them. (Timestamps across tracks may interleave arbitrarily;
    /// per-track structure — B/E nesting — is what consumers rely on.)
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            if let Ok(s) = shard.lock() {
                all.extend(s.events.iter().cloned());
            }
        }
        // Stable: ties (same track, from the same shard) keep push order.
        all.sort_by_key(|e| e.track);
        all
    }

    /// Takes every event recorded since the previous `drain_new` call,
    /// sorted by timestamp (ties keep per-track record order, so B/E
    /// nesting within a track is preserved). The events stay in the tracer
    /// — a later [`Tracer::events`] flush still returns the full stream —
    /// only the streaming cursor advances. This is what lets `rlcheck
    /// serve` forward a live tracer incrementally to subscribers without
    /// disturbing the end-of-run sinks.
    pub fn drain_new(&self) -> Vec<TraceEvent> {
        let mut fresh: Vec<TraceEvent> = Vec::new();
        for shard in &self.shards {
            if let Ok(mut s) = shard.lock() {
                let from = s.taken;
                fresh.extend(s.events[from..].iter().cloned());
                s.taken = s.events.len();
            }
        }
        fresh.sort_by(|a, b| a.ts_us.cmp(&b.ts_us).then(a.track.cmp(&b.track)));
        fresh
    }

    /// Replays an already-recorded event stream into this tracer with every
    /// timestamp shifted by `offset_us` (the moment, on this tracer's
    /// clock, that the source tracer was created). Events keep their
    /// original tracks, so a per-job tracer merged at job completion lands
    /// on the same lanes its events were recorded on. Call from the thread
    /// that ran the job (inside its pool-task bracket) so per-track B/E
    /// nesting stays valid.
    pub fn absorb_events(&self, offset_us: u64, events: &[TraceEvent]) {
        for e in events {
            let mut shifted = e.clone();
            shifted.ts_us = shifted.ts_us.saturating_add(offset_us);
            self.record(shifted);
        }
    }

    /// The Chrome trace-event JSON object: `{"traceEvents": [...]}` with a
    /// `thread_name` metadata record per track, loadable in
    /// `chrome://tracing` or Perfetto. See `docs/OBSERVABILITY.md` for the
    /// field mapping.
    pub fn chrome_trace(&self) -> Json {
        chrome_trace_json(&self.events())
    }
}

/// Builds the Chrome trace-event JSON for an already-absorbed event stream
/// (used both by [`Tracer::chrome_trace`] and by `rlcheck report` when
/// re-exporting a committed v2 JSONL).
pub fn chrome_trace_json(events: &[TraceEvent]) -> Json {
    let mut tracks: Vec<usize> = events.iter().map(|e| e.track).collect();
    tracks.sort_unstable();
    tracks.dedup();

    let mut out: Vec<Json> = Vec::with_capacity(events.len() + tracks.len());
    for track in tracks {
        out.push(
            ObjBuilder::new()
                .field("name", "thread_name")
                .field("ph", "M")
                .field("pid", 0usize)
                .field("tid", track)
                .field(
                    "args",
                    Json::Obj(vec![("name".to_owned(), Json::Str(track_name(track)))]),
                )
                .build(),
        );
    }
    for e in events {
        let mut b = ObjBuilder::new()
            .field("name", &e.name)
            .field("cat", e.category)
            .field("ph", e.phase.code())
            .field("ts", e.ts_us)
            .field("pid", 0usize)
            .field("tid", e.track);
        if e.phase == TracePhase::Instant {
            b = b.field("s", "t");
        }
        if let Some((key, value)) = e.arg {
            b = b.field("args", Json::Obj(vec![(key.to_owned(), int(value))]));
        }
        out.push(b.build());
    }
    Json::Obj(vec![("traceEvents".to_owned(), Json::Arr(out))])
}

/// Renders completed spans as folded stacks for flamegraph tooling: one
/// `root;child;leaf self_us` line per stack with nonzero *self* time (total
/// elapsed minus the elapsed of direct children), in first-open order.
///
/// Works on any span set with slash-joined paths — a live registry's
/// records or a parsed report's — so batch output folds `job<i>` prefixes
/// into the stack naturally.
pub fn folded_stacks(records: &[SpanRecord]) -> String {
    // Paths can repeat (a phase entered many times); aggregate totals and
    // child time per distinct path, keeping first-seen order. Span counts
    // are small (tens), so linear scans beat hashing here.
    fn index_of<'a>(order: &mut Vec<&'a str>, path: &'a str) -> usize {
        match order.iter().position(|&p| p == path) {
            Some(i) => i,
            None => {
                order.push(path);
                order.len() - 1
            }
        }
    }
    let mut order: Vec<&str> = Vec::new();
    let mut total: Vec<u64> = Vec::new();
    let mut child: Vec<u64> = Vec::new();
    for r in records {
        let us = r.elapsed.as_micros() as u64;
        let i = index_of(&mut order, r.path.as_str());
        if total.len() <= i {
            total.resize(i + 1, 0);
            child.resize(i + 1, 0);
        }
        total[i] += us;
        if let Some(cut) = r.path.rfind('/') {
            let j = index_of(&mut order, &r.path[..cut]);
            if child.len() <= j {
                total.resize(j + 1, 0);
                child.resize(j + 1, 0);
            }
            child[j] += us;
        }
    }
    let mut out = String::new();
    for (i, path) in order.iter().enumerate() {
        let self_us = total[i].saturating_sub(child[i]);
        if self_us > 0 {
            out.push_str(&path.replace('/', ";"));
            out.push(' ');
            out.push_str(&self_us.to_string());
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(path: &str, depth: usize, seq: u64, elapsed_us: u64) -> SpanRecord {
        SpanRecord {
            path: path.to_owned(),
            name: path.rsplit('/').next().unwrap_or(path).to_owned(),
            depth,
            seq,
            started: Duration::ZERO,
            elapsed: Duration::from_micros(elapsed_us),
            states: 0,
            transitions: 0,
            cache_hits: 0,
            guard_charges: 0,
        }
    }

    #[test]
    fn tracer_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tracer>();
    }

    #[test]
    fn events_merge_by_track_preserving_per_track_order() {
        let t = Tracer::new();
        t.begin("span", "a");
        t.end("span", "a");
        let handle = {
            let t = std::sync::Arc::new(t);
            let t2 = t.clone();
            let h = std::thread::spawn(move || {
                set_thread_track(2);
                t2.begin("pool", "task");
                t2.instant("pool", "steal", Some(("victim", 1)));
                t2.end("pool", "task");
            });
            h.join().unwrap();
            t
        };
        let events = handle.events();
        assert_eq!(events.len(), 5);
        assert!(events.windows(2).all(|w| w[0].track <= w[1].track));
        let track2: Vec<&str> = events
            .iter()
            .filter(|e| e.track == 2)
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(track2, vec!["task", "steal", "task"]);
        assert_eq!(
            events.iter().find(|e| e.name == "steal").unwrap().arg,
            Some(("victim", 1))
        );
    }

    #[test]
    fn drain_new_advances_cursor_without_consuming_events() {
        let t = Tracer::new();
        t.begin("span", "a");
        t.end("span", "a");
        let first = t.drain_new();
        assert_eq!(first.len(), 2);
        assert!(t.drain_new().is_empty(), "cursor advanced");
        t.instant("kernel", "determinize-layer", Some(("width", 9)));
        let second = t.drain_new();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].name, "determinize-layer");
        assert_eq!(t.events().len(), 3, "full flush still sees everything");
    }

    #[test]
    fn absorb_events_shifts_timestamps_onto_this_clock() {
        let src = Tracer::new();
        src.begin("span", "job");
        src.end("span", "job");
        let dst = Tracer::new();
        dst.absorb_events(1_000_000, &src.events());
        let events = dst.events();
        assert_eq!(events.len(), 2);
        assert!(
            events.iter().all(|e| e.ts_us >= 1_000_000),
            "timestamps shifted by the offset: {events:?}"
        );
        assert_eq!(events[0].phase, TracePhase::Begin);
        assert_eq!(events[1].phase, TracePhase::End);
    }

    #[test]
    fn trace_event_round_trips_through_json() {
        for event in [
            TraceEvent {
                track: 3,
                phase: TracePhase::Instant,
                category: "pool",
                name: "steal".to_owned(),
                ts_us: 42,
                arg: Some(("victim", 7)),
            },
            TraceEvent {
                track: 0,
                phase: TracePhase::Begin,
                category: "span",
                name: "determinize".to_owned(),
                ts_us: 0,
                arg: None,
            },
        ] {
            let text = rl_json::to_string(&event).unwrap();
            let back: TraceEvent = rl_json::from_str(&text).unwrap();
            assert_eq!(back, event);
        }
    }

    #[test]
    fn chrome_trace_has_metadata_and_balanced_events() {
        let t = Tracer::new();
        t.begin("span", "check");
        t.instant("pool", "spawn", Some(("queue", 2)));
        t.end("span", "check");
        let json = t.chrome_trace();
        let events = json.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 thread_name metadata + 3 events.
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].get("ph"), Some(&Json::Str("M".to_owned())));
        assert_eq!(
            events[0].get("args").and_then(|a| a.get("name")),
            Some(&Json::Str("main".to_owned()))
        );
        let phases: Vec<&Json> = events[1..].iter().filter_map(|e| e.get("ph")).collect();
        assert_eq!(
            phases,
            vec![
                &Json::Str("B".to_owned()),
                &Json::Str("I".to_owned()),
                &Json::Str("E".to_owned())
            ]
        );
        assert_eq!(
            events[2].get("s"),
            Some(&Json::Str("t".to_owned())),
            "instants are thread-scoped"
        );
    }

    #[test]
    fn folded_stacks_compute_self_time_and_fold_paths() {
        let records = vec![
            span("check", 0, 0, 100),
            span("check/determinize", 1, 1, 60),
            span("check/determinize/inner", 2, 2, 10),
            span("check/minimize", 1, 3, 40),
        ];
        let folded = folded_stacks(&records);
        let lines: Vec<&str> = folded.lines().collect();
        // check self = 100 - (60 + 40) = 0 → omitted.
        assert_eq!(
            lines,
            vec![
                "check;determinize 50",
                "check;determinize;inner 10",
                "check;minimize 40"
            ]
        );
    }

    #[test]
    fn folded_stacks_aggregate_repeated_paths() {
        let records = vec![
            span("check", 0, 0, 100),
            span("check/step", 1, 1, 20),
            span("check/step", 1, 2, 30),
        ];
        let folded = folded_stacks(&records);
        assert_eq!(folded, "check 50\ncheck;step 50\n");
    }
}
