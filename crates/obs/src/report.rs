//! Offline rendering of committed `rl-obs` JSONL files.
//!
//! A `--metrics` file outlives the run that wrote it — it lands in CI
//! artifacts, bench directories, and bug reports. [`ObsReport`] parses both
//! the `rl-obs/v1` span stream and the `rl-obs/v2` event stream back into
//! structured form so `rlcheck report` can reproduce the original `--stats`
//! table byte-for-byte and summarize the recorded timeline, long after the
//! process that ran the check is gone.
//!
//! Parsing is deliberately tolerant of *truncation*: a run that panicked or
//! was killed mid-write may be missing its closing `totals` line, in which
//! case totals are reconstructed from the depth-0 span rows and
//! [`ObsReport::truncated`] is set so consumers can flag the report as
//! partial.

use std::fmt::Write as _;
use std::time::Duration;

use rl_json::{FromJson, Json, JsonError};

use crate::hist::HistogramSnapshot;
use crate::stream::Heartbeat;
use crate::trace::{track_name, TraceEvent, TracePhase};
use crate::{Metric, RegistrySnapshot, SpanRecord, METRIC_COUNT};

/// The synthetic schema tag assigned to captured subscribe streams, which
/// carry no `meta` header of their own.
pub const SCHEMA_STREAM: &str = "rl-obs/stream";

/// A parsed `rl-obs/v1`, `rl-obs/v2`, or `rl-obs/v3` JSONL file, or a
/// captured `rlcheck serve` subscribe stream ([`SCHEMA_STREAM`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsReport {
    /// The schema tag from the `meta` line (`rl-obs/v1`..`v3`), or
    /// [`SCHEMA_STREAM`] for a headerless captured subscribe stream.
    pub schema: String,
    /// The resolved `--jobs` choice recorded in the `meta` line, if any.
    pub jobs: Option<usize>,
    /// Wall-clock lifetime of the source registry.
    pub elapsed: Duration,
    /// Completed spans, in the order they appear in the file (open order).
    pub spans: Vec<SpanRecord>,
    /// Timeline events (`rl-obs/v2` only; empty for v1 files).
    pub events: Vec<TraceEvent>,
    /// Built-in metric totals, indexed like [`Metric::ALL`].
    pub totals: [u64; METRIC_COUNT],
    /// Custom counter totals, in registration order.
    pub counters: Vec<(String, u64)>,
    /// Histogram snapshots (`rl-obs/v3` files and captured streams):
    /// `(job, family, snapshot)`, keyed by job and family with
    /// latest-cumulative-wins semantics — stream `hist` events repeat a
    /// job's growing snapshot, so replacing (not merging) is what yields
    /// the final state.
    pub hists: Vec<(Option<u64>, String, HistogramSnapshot)>,
    /// Heartbeat samples, in file order (captured streams; empty for
    /// ordinary v1/v2 files unless a future writer interleaves them).
    pub heartbeats: Vec<Heartbeat>,
    /// `done` records from a captured stream: `(job, exit code)` in
    /// completion order.
    pub done: Vec<(u64, u64)>,
    /// Total events a captured stream reported dropping to backpressure
    /// (the sum of its `dropped` notices).
    pub dropped_events: u64,
    /// Unknown `"event"` kinds encountered, with occurrence counts, in
    /// first-seen order. Unknown kinds are counted rather than rejected so
    /// files written by a newer `rlcheck` still render.
    pub unknown_events: Vec<(String, u64)>,
    /// Whether the closing `totals` line was missing (interrupted write).
    /// When set, `totals` holds the sum of depth-0 span rows instead and
    /// `counters` is empty.
    pub truncated: bool,
}

impl ObsReport {
    /// Parses a JSONL metrics file or captured subscribe stream.
    ///
    /// For metrics files the first non-empty line must be a `meta` event
    /// with a supported schema. A first line that is instead one of the
    /// serve wire stream kinds (`heartbeat`, `trace`, `done`, `dropped`,
    /// or an `{"ok":...}` reply ack) selects stream mode under the
    /// synthetic schema [`SCHEMA_STREAM`]. In both modes, later lines with
    /// an unknown `"event"` kind are counted in
    /// [`ObsReport::unknown_events`] rather than rejected (forward
    /// compatibility).
    pub fn parse(text: &str) -> Result<ObsReport, JsonError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let first = lines
            .next()
            .ok_or_else(|| JsonError::custom("empty metrics file (no meta line)"))?;
        let head = rl_json::parse(first)?;
        let head_event = match head.get("event") {
            Some(Json::Str(s)) => s.clone(),
            _ => String::new(),
        };
        let mut report = ObsReport {
            schema: String::new(),
            jobs: None,
            elapsed: Duration::ZERO,
            spans: Vec::new(),
            events: Vec::new(),
            totals: [0; METRIC_COUNT],
            counters: Vec::new(),
            hists: Vec::new(),
            heartbeats: Vec::new(),
            done: Vec::new(),
            dropped_events: 0,
            unknown_events: Vec::new(),
            truncated: true,
        };
        if head_event == "meta" {
            let schema = String::from_json(head.field("schema")?)?;
            if !matches!(schema.as_str(), "rl-obs/v1" | "rl-obs/v2" | "rl-obs/v3") {
                return Err(JsonError::custom(format!(
                    "unsupported schema {schema:?} (expected rl-obs/v1, v2, or v3)"
                )));
            }
            report.schema = schema;
            report.jobs = match head.get("jobs") {
                Some(v) => Some(usize::from_json(v)?),
                None => None,
            };
            report.elapsed = Duration::from_micros(u64::from_json(head.field("elapsed_us")?)?);
            for line in lines {
                // A file cut mid-record (the writer was killed mid-write)
                // truncates here: everything before the cut still renders,
                // and the missing-totals path below flags the report.
                let value = match rl_json::parse(line) {
                    Ok(v) => v,
                    Err(_) => {
                        report.truncated = true;
                        break;
                    }
                };
                report.absorb_line(&value)?;
            }
        } else if matches!(
            head_event.as_str(),
            "heartbeat" | "trace" | "done" | "dropped"
        ) || head.get("ok").is_some()
        {
            // A captured subscribe stream: no meta header, possibly
            // starting with the subscribe reply ack itself.
            report.schema = SCHEMA_STREAM.to_owned();
            report.truncated = false;
            report.absorb_line(&head)?;
            for line in lines {
                // A capture cut mid-line (the subscriber was killed) is
                // expected; flag it rather than rejecting the whole file.
                let value = match rl_json::parse(line) {
                    Ok(v) => v,
                    Err(_) => {
                        report.truncated = true;
                        break;
                    }
                };
                report.absorb_line(&value)?;
            }
            report.elapsed = Duration::from_micros(
                report
                    .heartbeats
                    .iter()
                    .map(|h| h.elapsed_us)
                    .max()
                    .unwrap_or(0),
            );
            return Ok(report);
        } else {
            return Err(JsonError::custom(
                "first line is not a meta event; not an rl-obs JSONL file",
            ));
        }
        if report.truncated {
            // Reconstruct what we can: each depth-0 row's deltas are
            // inclusive of its children, so root rows sum to the totals of
            // everything that *completed*.
            for r in report.spans.iter().filter(|r| r.depth == 0) {
                for (i, m) in Metric::ALL.iter().enumerate() {
                    report.totals[i] += r.metric(*m);
                }
            }
        }
        Ok(report)
    }

    fn absorb_line(&mut self, value: &Json) -> Result<(), JsonError> {
        let event = match value.get("event") {
            Some(Json::Str(s)) => s.as_str(),
            // Wire reply acks ({"ok":...}) and other non-event lines.
            _ => return Ok(()),
        };
        match event {
            "span" => self.spans.push(SpanRecord::from_json(value)?),
            "trace" => self.events.push(TraceEvent::from_json(value)?),
            "heartbeat" => self.heartbeats.push(Heartbeat::from_json(value)?),
            "done" => {
                let job = u64::from_json(value.field("job")?)?;
                let code = match value.get("code") {
                    Some(v) => u64::from_json(v)?,
                    None => 0,
                };
                self.done.push((job, code));
            }
            "dropped" => {
                if let Some(v) = value.get("count") {
                    self.dropped_events += u64::from_json(v)?;
                }
            }
            "hist" => {
                let name = String::from_json(value.field("name")?)?;
                let job = match value.get("job") {
                    Some(v) => Some(u64::from_json(v)?),
                    None => None,
                };
                let snap = HistogramSnapshot::from_json(value)?;
                match self
                    .hists
                    .iter_mut()
                    .find(|(j, n, _)| *j == job && *n == name)
                {
                    Some((_, _, s)) => *s = snap,
                    None => self.hists.push((job, name, snap)),
                }
            }
            "meta" => {}
            "totals" => {
                for (i, m) in Metric::ALL.iter().enumerate() {
                    self.totals[i] = u64::from_json(value.field(m.name())?)?;
                }
                if let Some(Json::Obj(fields)) = value.get("counters") {
                    self.counters = fields
                        .iter()
                        .map(|(name, v)| Ok((name.clone(), u64::from_json(v)?)))
                        .collect::<Result<_, JsonError>>()?;
                }
                self.truncated = false;
            }
            other => match self.unknown_events.iter_mut().find(|(k, _)| k == other) {
                Some((_, n)) => *n += 1,
                None => self.unknown_events.push((other.to_owned(), 1)),
            },
        }
        Ok(())
    }

    /// The recorded total of a built-in metric.
    pub fn total(&self, metric: Metric) -> u64 {
        self.totals[metric as usize]
    }

    /// The report's data as a [`RegistrySnapshot`] (the summary-rendering
    /// currency).
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            records: self.spans.clone(),
            totals: self.totals,
            counters: self.counters.clone(),
            elapsed: self.elapsed,
        }
    }

    /// The human phase table for this report — byte-for-byte identical to
    /// the `--stats` output of the run that wrote the file (both render the
    /// same snapshot; durations are stored at microsecond precision, which
    /// is exactly what the table formats).
    pub fn summary(&self) -> String {
        self.snapshot().summary()
    }

    /// A per-track digest of the recorded timeline (`rl-obs/v2` only):
    /// event totals and the begin/end/instant split for each worker lane.
    /// Empty string when the report carries no events.
    pub fn event_summary(&self) -> String {
        if self.events.is_empty() {
            return String::new();
        }
        let mut tracks: Vec<usize> = self.events.iter().map(|e| e.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace: {} events across {} track(s)",
            self.events.len(),
            tracks.len()
        );
        for track in tracks {
            let (mut begins, mut ends, mut instants) = (0usize, 0usize, 0usize);
            for e in self.events.iter().filter(|e| e.track == track) {
                match e.phase {
                    TracePhase::Begin => begins += 1,
                    TracePhase::End => ends += 1,
                    TracePhase::Instant => instants += 1,
                }
            }
            let _ = writeln!(
                out,
                "  {:<10} {:>6} begin {:>6} end {:>6} instant",
                track_name(track),
                begins,
                ends,
                instants
            );
        }
        // Algorithm-level instants — the lazy pipeline's layer/prune marks
        // — rolled up by name, so a committed trace answers "how often did
        // the antichain prune?" at a glance.
        let mut named: Vec<(&str, usize)> = Vec::new();
        for e in &self.events {
            if e.phase != TracePhase::Instant || !e.name.starts_with("lazy-") {
                continue;
            }
            match named.iter_mut().find(|(name, _)| *name == e.name) {
                Some((_, n)) => *n += 1,
                None => named.push((e.name.as_str(), 1)),
            }
        }
        for (name, n) in named {
            let _ = writeln!(out, "  {name:<24} {n:>6} instant(s)");
        }
        out
    }

    /// A percentile table for the report's histogram families (`rl-obs/v3`
    /// files and captured streams), or the empty string when the report
    /// carries none.
    pub fn hist_summary(&self) -> String {
        if self.hists.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<36} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "histogram", "count", "p50", "p90", "p99", "max"
        );
        for (job, name, snap) in &self.hists {
            let label = match job {
                Some(job) => format!("{name} (job {job})"),
                None => name.clone(),
            };
            let _ = writeln!(
                out,
                "{label:<36} {:>8} {:>10} {:>10} {:>10} {:>10}",
                snap.count,
                snap.p50(),
                snap.p90(),
                snap.p99(),
                snap.max,
            );
        }
        out
    }

    /// Whether this report was parsed from a captured subscribe stream
    /// (no `meta` header; schema [`SCHEMA_STREAM`]).
    pub fn is_stream(&self) -> bool {
        self.schema == SCHEMA_STREAM
    }

    /// A per-job digest of a captured subscribe stream: heartbeat counts,
    /// the last observed progress sample, and the recorded exit code for
    /// each job the stream touched.
    pub fn stream_summary(&self) -> String {
        let mut jobs: Vec<u64> = self
            .heartbeats
            .iter()
            .filter_map(|h| h.job)
            .chain(self.done.iter().map(|&(job, _)| job))
            .collect();
        jobs.sort_unstable();
        jobs.dedup();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "stream: {} job(s), {} heartbeat(s), {} trace event(s), {} dropped",
            jobs.len(),
            self.heartbeats.len(),
            self.events.len(),
            self.dropped_events
        );
        for job in jobs {
            let beats: Vec<&Heartbeat> = self
                .heartbeats
                .iter()
                .filter(|h| h.job == Some(job))
                .collect();
            let last = beats.last();
            let status = match self.done.iter().find(|&&(j, _)| j == job) {
                Some(&(_, code)) => format!("done code {code}"),
                None => "still running".to_owned(),
            };
            let _ = writeln!(
                out,
                "  job {:<5} {:>5} heartbeat(s)   {:>12} states   {:>8.1}s   {}",
                job,
                beats.len(),
                last.map_or(0, |h| h.states),
                last.map_or(0.0, |h| h.elapsed_us as f64 / 1e6),
                status
            );
        }
        if self.truncated {
            let _ = writeln!(out, "  (capture truncated mid-line)");
        }
        out
    }

    /// A one-line notice about unknown event kinds, or the empty string
    /// when every line parsed as a known kind.
    pub fn unknown_note(&self) -> String {
        if self.unknown_events.is_empty() {
            return String::new();
        }
        let total: u64 = self.unknown_events.iter().map(|(_, n)| n).sum();
        let kinds: Vec<String> = self
            .unknown_events
            .iter()
            .map(|(k, n)| format!("{k} ({n})"))
            .collect();
        format!(
            "note: {} line(s) with unknown event kind skipped: {}",
            total,
            kinds.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{render_jsonl, MetricsRegistry, Tracer};
    use std::sync::Arc;

    fn sample_registry() -> MetricsRegistry {
        let m = MetricsRegistry::new();
        {
            let _check = m.enter("check");
            m.add(Metric::States, 7);
            {
                let _det = m.enter("determinize");
                m.add(Metric::Transitions, 3);
            }
        }
        m.counter("pool/steals").add(5);
        m
    }

    #[test]
    fn v1_round_trip_reproduces_summary_byte_for_byte() {
        let m = sample_registry();
        let snap = m.snapshot();
        let jsonl = render_jsonl(&snap, Some(2), None);
        let report = ObsReport::parse(&jsonl).unwrap();
        assert_eq!(report.schema, "rl-obs/v1");
        assert_eq!(report.jobs, Some(2));
        assert!(!report.truncated);
        assert_eq!(report.total(Metric::States), 7);
        assert_eq!(report.counters, vec![("pool/steals".to_owned(), 5)]);
        assert_eq!(report.summary(), snap.summary());
        assert!(report.event_summary().is_empty());
    }

    #[test]
    fn v2_round_trip_recovers_events() {
        let m = sample_registry();
        let tracer = Arc::new(Tracer::new());
        m.set_tracer(tracer.clone());
        {
            let _more = m.enter("inclusion");
            tracer.instant("pool", "steal", Some(("victim", 1)));
        }
        let jsonl = m.to_jsonl();
        assert!(jsonl.starts_with("{\"event\":\"meta\",\"schema\":\"rl-obs/v2\""));
        let report = ObsReport::parse(&jsonl).unwrap();
        assert_eq!(report.schema, "rl-obs/v2");
        // Two span events (begin+end for "inclusion") plus the instant.
        assert_eq!(report.events.len(), 3);
        assert_eq!(report.events, tracer.events());
        let digest = report.event_summary();
        assert!(digest.contains("3 events"));
        assert!(digest.contains("main"));
    }

    #[test]
    fn truncated_file_reconstructs_totals_from_root_spans() {
        let m = sample_registry();
        let jsonl = m.to_jsonl();
        // Drop the closing totals line, as a mid-write kill would.
        let cut = jsonl.trim_end().rfind('\n').unwrap();
        let report = ObsReport::parse(&jsonl[..cut]).unwrap();
        assert!(report.truncated);
        assert_eq!(report.total(Metric::States), 7);
        assert_eq!(report.total(Metric::Transitions), 3);
        assert!(report.counters.is_empty());
    }

    #[test]
    fn unknown_event_kinds_are_counted_not_fatal() {
        let m = sample_registry();
        let snap = m.snapshot();
        let jsonl = render_jsonl(&snap, None, None);
        // Splice two future-schema lines ahead of the totals line.
        let cut = jsonl.trim_end().rfind('\n').unwrap() + 1;
        let spliced = format!(
            "{}{}\n{}\n{}",
            &jsonl[..cut],
            "{\"event\":\"frob\",\"x\":1}",
            "{\"event\":\"frob\",\"x\":2}",
            &jsonl[cut..]
        );
        let report = ObsReport::parse(&spliced).unwrap();
        assert!(!report.truncated);
        assert_eq!(report.unknown_events, vec![("frob".to_owned(), 2)]);
        assert!(report.unknown_note().contains("frob (2)"));
        assert_eq!(
            report.summary(),
            snap.summary(),
            "unknown lines must not perturb the byte-for-byte table"
        );
        let clean = ObsReport::parse(&jsonl).unwrap();
        assert!(clean.unknown_note().is_empty());
    }

    #[test]
    fn v3_round_trip_recovers_histograms() {
        use crate::{render_jsonl_with_hists, Histogram};
        let m = sample_registry();
        let h = Histogram::new();
        for v in [10u64, 20, 3_000] {
            h.record(v);
        }
        let hists = vec![("serve/queue_wait_us".to_owned(), h.snapshot())];
        let snap = m.snapshot();
        let jsonl = render_jsonl_with_hists(&snap, Some(1), None, &hists);
        assert!(jsonl.starts_with("{\"event\":\"meta\",\"schema\":\"rl-obs/v3\""));
        let report = ObsReport::parse(&jsonl).unwrap();
        assert_eq!(report.schema, "rl-obs/v3");
        assert!(!report.truncated);
        assert_eq!(report.hists.len(), 1);
        assert_eq!(report.hists[0].0, None);
        assert_eq!(report.hists[0].1, "serve/queue_wait_us");
        assert_eq!(report.hists[0].2, hists[0].1);
        let table = report.hist_summary();
        assert!(table.contains("serve/queue_wait_us"), "{table}");
        assert!(table.contains("p99"), "{table}");
        // The deterministic phase table is untouched by hist lines.
        assert_eq!(report.summary(), snap.summary());
    }

    // Satellite: a metrics file cut mid-record (writer killed mid-write)
    // must degrade gracefully — render what survived, flag truncation.
    #[test]
    fn v2_file_cut_mid_record_degrades_gracefully() {
        let m = sample_registry();
        let tracer = Arc::new(Tracer::new());
        m.set_tracer(tracer.clone());
        {
            let _s = m.enter("inclusion");
        }
        let jsonl = m.to_jsonl();
        assert!(jsonl.contains("rl-obs/v2"));
        // Cut in the middle of the last record, not at a line boundary.
        let cut = jsonl.trim_end().rfind('\n').unwrap() + 10;
        let report = ObsReport::parse(&jsonl[..cut]).unwrap();
        assert!(report.truncated, "mid-record cut must flag truncation");
        assert_eq!(report.total(Metric::States), 7);
        assert!(!report.summary().is_empty());
    }

    #[test]
    fn parses_captured_subscribe_stream() {
        let text = concat!(
            "{\"ok\":true,\"subscribed\":\"*\"}\n",
            "{\"event\":\"heartbeat\",\"job\":1,\"elapsed_us\":500000,",
            "\"states\":1000,\"transitions\":2000,\"states_per_sec\":2000,",
            "\"frontier\":10}\n",
            "{\"event\":\"trace\",\"job\":1,\"ph\":\"I\",\"track\":0,",
            "\"cat\":\"kernel\",\"name\":\"determinize-layer\",\"ts_us\":42}\n",
            "{\"event\":\"dropped\",\"count\":3,\"total\":3}\n",
            "{\"event\":\"done\",\"job\":1,\"code\":0}\n",
        );
        let report = ObsReport::parse(text).unwrap();
        assert!(report.is_stream());
        assert_eq!(report.schema, SCHEMA_STREAM);
        assert!(!report.truncated);
        assert_eq!(report.heartbeats.len(), 1);
        assert_eq!(report.heartbeats[0].job, Some(1));
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.done, vec![(1, 0)]);
        assert_eq!(report.dropped_events, 3);
        let digest = report.stream_summary();
        assert!(digest.contains("1 job(s)"), "{digest}");
        assert!(digest.contains("done code 0"), "{digest}");
        assert!(!report.event_summary().is_empty());
    }

    #[test]
    fn stream_capture_cut_mid_line_is_flagged_truncated() {
        let text = concat!(
            "{\"event\":\"heartbeat\",\"job\":2,\"elapsed_us\":100,\"states\":5}\n",
            "{\"event\":\"heartbeat\",\"job\":2,\"elapsed_",
        );
        let report = ObsReport::parse(text).unwrap();
        assert!(report.is_stream());
        assert!(report.truncated);
        assert_eq!(report.heartbeats.len(), 1);
        assert!(report.stream_summary().contains("truncated"));
    }

    #[test]
    fn rejects_non_obs_input() {
        assert!(ObsReport::parse("").is_err());
        assert!(ObsReport::parse("{\"event\":\"span\"}\n").is_err());
        assert!(ObsReport::parse(
            "{\"event\":\"meta\",\"schema\":\"rl-obs/v99\",\"elapsed_us\":0}\n"
        )
        .is_err());
    }
}
