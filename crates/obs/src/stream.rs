//! Live streaming primitives: heartbeat serialization shared between
//! `--progress` and the serve wire protocol, plus the bounded fan-out
//! machinery (`EventRing`, `StreamBus`) that lets `rlcheck serve` publish
//! per-job telemetry to subscribers without ever blocking a job.
//!
//! # Backpressure contract
//!
//! Publishers never wait: [`EventRing::push`] is drop-**oldest** when the
//! ring is full, incrementing a `dropped` counter the subscriber can
//! observe. A slow (or wedged) subscriber therefore costs at most
//! `capacity` buffered lines and some dropped events — it can never stall
//! the publishing thread, a sibling job, or graceful drain. The consuming
//! side ([`EventRing::drain`]) swaps the buffer out under the same short
//! mutex, so the two sides only contend for the duration of a pointer swap.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rl_json::{FromJson, Json, JsonError, ObjBuilder, ToJson};

/// One progress sample of a running check, read from the guard's shared
/// atomics through a `GuardProbe`.
///
/// This is the single serialization used everywhere a heartbeat surfaces:
/// the `--progress` stderr line ([`Heartbeat::render_line`]), the serve
/// wire stream (`{"event":"heartbeat",...}` via [`ToJson`]), and offline
/// re-rendering of captured streams (`rlcheck report` via [`FromJson`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Heartbeat {
    /// The serve job id this sample belongs to (`None` for one-shot runs).
    pub job: Option<u64>,
    /// Microseconds since the guard was armed.
    pub elapsed_us: u64,
    /// States expanded so far.
    pub states: u64,
    /// Transitions taken so far.
    pub transitions: u64,
    /// Current frontier width.
    pub frontier: u64,
    /// The `max_states` budget, when one is set.
    pub states_limit: Option<u64>,
    /// The wall-clock deadline in microseconds, when one is set.
    pub deadline_us: Option<u64>,
}

impl Heartbeat {
    /// Cumulative throughput: states divided by elapsed seconds (zero for
    /// sub-microsecond samples).
    pub fn states_per_sec(&self) -> u64 {
        if self.elapsed_us == 0 {
            return 0;
        }
        ((self.states as f64) / (self.elapsed_us as f64 / 1e6)) as u64
    }

    /// The human `--progress` line for this sample (without the
    /// `rlcheck: [progress] ` prefix the CLI adds): elapsed, states with
    /// cumulative rate, frontier width, and a `% of` fraction for each
    /// budget limit that is actually set.
    pub fn render_line(&self) -> String {
        let secs = self.elapsed_us as f64 / 1e6;
        let mut line = format!(
            "{:.1}s elapsed, {} states ({}/s), frontier {}",
            secs,
            self.states,
            self.states_per_sec(),
            self.frontier
        );
        if let Some(max) = self.states_limit {
            let pct = 100.0 * self.states as f64 / max.max(1) as f64;
            line.push_str(&format!(", states {pct:.0}% of {max}"));
        }
        if let Some(deadline_us) = self.deadline_us {
            let limit_secs = deadline_us as f64 / 1e6;
            let pct = 100.0 * secs / limit_secs.max(f64::EPSILON);
            line.push_str(&format!(", time {pct:.0}% of {limit_secs:.0}s"));
        }
        line
    }
}

impl ToJson for Heartbeat {
    fn to_json(&self) -> Json {
        let mut b = ObjBuilder::new().field("event", "heartbeat");
        if let Some(job) = self.job {
            b = b.field("job", job);
        }
        b = b
            .field("elapsed_us", self.elapsed_us)
            .field("states", self.states)
            .field("transitions", self.transitions)
            .field("states_per_sec", self.states_per_sec())
            .field("frontier", self.frontier);
        if let Some(v) = self.states_limit {
            b = b.field("states_limit", v);
        }
        if let Some(v) = self.deadline_us {
            b = b.field("deadline_us", v);
        }
        b.build()
    }
}

impl FromJson for Heartbeat {
    fn from_json(value: &Json) -> Result<Heartbeat, JsonError> {
        let event = String::from_json(value.field("event")?)?;
        if event != "heartbeat" {
            return Err(JsonError::custom(format!(
                "expected a heartbeat event, got {event:?}"
            )));
        }
        let opt = |key: &str| -> Result<Option<u64>, JsonError> {
            match value.get(key) {
                Some(v) => Ok(Some(u64::from_json(v)?)),
                None => Ok(None),
            }
        };
        Ok(Heartbeat {
            job: opt("job")?,
            elapsed_us: u64::from_json(value.field("elapsed_us")?)?,
            states: u64::from_json(value.field("states")?)?,
            transitions: opt("transitions")?.unwrap_or(0),
            frontier: opt("frontier")?.unwrap_or(0),
            states_limit: opt("states_limit")?,
            deadline_us: opt("deadline_us")?,
        })
    }
}

/// A bounded ring of pre-serialized JSONL lines with drop-oldest
/// backpressure. The publishing side never blocks; overflow evicts the
/// oldest buffered line and bumps the [`EventRing::dropped`] counter.
#[derive(Debug)]
pub struct EventRing {
    capacity: usize,
    lines: Mutex<VecDeque<String>>,
    dropped: AtomicU64,
}

impl EventRing {
    /// A ring holding at most `capacity` lines (minimum 1).
    pub fn new(capacity: usize) -> EventRing {
        EventRing {
            capacity: capacity.max(1),
            lines: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a line, evicting the oldest buffered line (and counting the
    /// drop) when the ring is full. Never blocks beyond the buffer mutex.
    pub fn push(&self, line: String) {
        if let Ok(mut lines) = self.lines.lock() {
            if lines.len() >= self.capacity {
                lines.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            lines.push_back(line);
        }
    }

    /// Takes every buffered line, oldest first.
    pub fn drain(&self) -> Vec<String> {
        match self.lines.lock() {
            Ok(mut lines) => lines.drain(..).collect(),
            Err(_) => Vec::new(),
        }
    }

    /// Lines currently buffered.
    pub fn len(&self) -> usize {
        self.lines.lock().map_or(0, |l| l.len())
    }

    /// Whether the ring is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime count of lines evicted by overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// One subscriber's registration on a [`StreamBus`]: an id (for
/// unsubscribe), a job filter, and the bounded ring the bus publishes into.
#[derive(Debug)]
pub struct StreamSubscription {
    id: u64,
    filter: Option<u64>,
    ring: EventRing,
}

impl StreamSubscription {
    /// The bus-assigned subscription id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether events for `job` are delivered to this subscription.
    pub fn matches(&self, job: u64) -> bool {
        self.filter.is_none_or(|want| want == job)
    }

    /// Takes every buffered line, oldest first.
    pub fn drain(&self) -> Vec<String> {
        self.ring.drain()
    }

    /// Lifetime count of lines this subscription lost to backpressure.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// The ring capacity this subscription was created with.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }
}

/// The publish side of the streaming plane: a registry of subscriptions
/// that [`StreamBus::publish`] fans pre-serialized lines out to.
///
/// Publishing is wait-free from the job's perspective — each delivery is a
/// ring push (drop-oldest on overflow), so no subscriber can slow a
/// publisher down.
#[derive(Debug, Default)]
pub struct StreamBus {
    subs: Mutex<Vec<Arc<StreamSubscription>>>,
    next_id: AtomicU64,
    retired_dropped: AtomicU64,
}

impl StreamBus {
    /// An empty bus.
    pub fn new() -> StreamBus {
        StreamBus::default()
    }

    /// Registers a subscription for `filter` (`None` = all jobs) with a
    /// ring of `capacity` lines.
    pub fn subscribe(&self, filter: Option<u64>, capacity: usize) -> Arc<StreamSubscription> {
        let sub = Arc::new(StreamSubscription {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            filter,
            ring: EventRing::new(capacity),
        });
        if let Ok(mut subs) = self.subs.lock() {
            subs.push(sub.clone());
        }
        sub
    }

    /// Removes a subscription, folding its drop count into the bus-lifetime
    /// total so `stats` keeps seeing it after the subscriber disconnects.
    pub fn unsubscribe(&self, id: u64) {
        if let Ok(mut subs) = self.subs.lock() {
            if let Some(i) = subs.iter().position(|s| s.id == id) {
                let sub = subs.swap_remove(i);
                self.retired_dropped
                    .fetch_add(sub.dropped(), Ordering::Relaxed);
            }
        }
    }

    /// Delivers one pre-serialized line to every subscription whose filter
    /// matches `job`. Never blocks beyond the registry mutex and each
    /// ring's buffer mutex.
    pub fn publish(&self, job: u64, line: &str) {
        if let Ok(subs) = self.subs.lock() {
            for sub in subs.iter().filter(|s| s.matches(job)) {
                sub.ring.push(line.to_owned());
            }
        }
    }

    /// Active subscriptions.
    pub fn subscriber_count(&self) -> usize {
        self.subs.lock().map_or(0, |s| s.len())
    }

    /// Lines lost to backpressure across all subscriptions, including ones
    /// that have since unsubscribed.
    pub fn dropped_events(&self) -> u64 {
        let live: u64 = self
            .subs
            .lock()
            .map_or(0, |subs| subs.iter().map(|s| s.dropped()).sum());
        self.retired_dropped.load(Ordering::Relaxed) + live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beat(job: Option<u64>, states: u64, elapsed_us: u64) -> Heartbeat {
        Heartbeat {
            job,
            elapsed_us,
            states,
            transitions: states * 2,
            frontier: 7,
            states_limit: Some(200_000),
            deadline_us: Some(60_000_000),
        }
    }

    #[test]
    fn heartbeat_round_trips_through_json() {
        for hb in [
            beat(Some(3), 81_920, 2_000_000),
            Heartbeat {
                job: None,
                elapsed_us: 0,
                states: 0,
                transitions: 0,
                frontier: 0,
                states_limit: None,
                deadline_us: None,
            },
        ] {
            let text = rl_json::to_string(&hb).expect("serializes");
            assert!(text.starts_with("{\"event\":\"heartbeat\""), "{text}");
            let back: Heartbeat = rl_json::from_str(&text).expect("parses");
            assert_eq!(back, hb);
        }
    }

    #[test]
    fn render_line_matches_progress_format() {
        let hb = beat(None, 81_920, 2_000_000);
        assert_eq!(
            hb.render_line(),
            "2.0s elapsed, 81920 states (40960/s), frontier 7, \
             states 41% of 200000, time 3% of 60s"
        );
        let bare = Heartbeat {
            states_limit: None,
            deadline_us: None,
            ..hb
        };
        assert_eq!(
            bare.render_line(),
            "2.0s elapsed, 81920 states (40960/s), frontier 7"
        );
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let ring = EventRing::new(3);
        for i in 0..5 {
            ring.push(format!("line{i}"));
        }
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.drain(), vec!["line2", "line3", "line4"]);
        assert_eq!(ring.drain(), Vec::<String>::new());
        assert_eq!(ring.dropped(), 2, "draining does not reset the counter");
    }

    #[test]
    fn bus_filters_by_job_and_tracks_drops_across_unsubscribe() {
        let bus = StreamBus::new();
        let all = bus.subscribe(None, 2);
        let one = bus.subscribe(Some(1), 16);
        bus.publish(1, "a");
        bus.publish(2, "b");
        bus.publish(1, "c");
        bus.publish(2, "d"); // overflows `all` (capacity 2)
        assert_eq!(all.drain(), vec!["c", "d"]);
        assert_eq!(one.drain(), vec!["a", "c"]);
        assert_eq!(bus.dropped_events(), 2);
        assert_eq!(bus.subscriber_count(), 2);
        bus.unsubscribe(all.id());
        assert_eq!(bus.subscriber_count(), 1);
        assert_eq!(bus.dropped_events(), 2, "drops survive unsubscribe");
    }
}
