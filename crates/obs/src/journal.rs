//! The persistent metrics journal: rotating JSONL snapshots that survive
//! daemon restarts.
//!
//! `rlcheck serve --metrics-dir <dir>` appends one *sample* line per
//! progress interval (sharing `RL_PROGRESS_MS` with the telemetry sampler):
//! a wall-clock timestamp, the daemon's uptime, the live counters, and a
//! cumulative [`HistogramSnapshot`] per histogram family. Samples land in
//! rotating `metrics-<seq>.jsonl` segments — every daemon start opens a
//! fresh segment, and a segment also rotates once it crosses the size
//! budget — so the directory is an append-only time series across restarts.
//!
//! Reading is tolerant by construction: a mid-record-truncated line (the
//! daemon died mid-write), a zero-length rotated segment, or an unknown
//! event kind is skipped and tallied, never fatal. `rlcheck report --dir`
//! renders the surviving series with percentile columns, and `rlcheck slo`
//! gates on the merged histograms (see [`crate::slo`]).

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use rl_json::{FromJson, Json, ObjBuilder, ToJson};

use crate::format_duration;
use crate::hist::{percentile_table, HistogramSnapshot};

/// Default size budget per segment before rotation.
pub const DEFAULT_SEGMENT_BYTES: u64 = 1 << 20;

/// File-name prefix of journal segments.
const SEGMENT_PREFIX: &str = "metrics-";
/// File-name suffix of journal segments.
const SEGMENT_SUFFIX: &str = ".jsonl";

/// One interval snapshot, as written by the daemon and read back by
/// `rlcheck report --dir`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalSample {
    /// Wall-clock milliseconds since the Unix epoch at sample time.
    pub ts_ms: u64,
    /// Milliseconds since the writing daemon started — resets on restart.
    pub uptime_ms: u64,
    /// Identifies the writing daemon run (the daemon stamps its start time
    /// here). A change between consecutive samples marks a restart; 0 in
    /// samples from writers that predate the field, for which an
    /// `uptime_ms` drop is the fallback boundary signal.
    pub run_id: u64,
    /// Live counter totals at sample time.
    pub counters: Vec<(String, u64)>,
    /// Cumulative (since daemon start) histogram snapshots by family.
    pub hists: Vec<(String, HistogramSnapshot)>,
}

impl ToJson for JournalSample {
    fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(name, v)| (name.clone(), Json::Int(*v as i64)))
                .collect(),
        );
        let hists = Json::Obj(
            self.hists
                .iter()
                .map(|(name, snap)| (name.clone(), snap.to_json()))
                .collect(),
        );
        ObjBuilder::new()
            .field("event", "sample")
            .field("ts_ms", self.ts_ms)
            .field("uptime_ms", self.uptime_ms)
            .field("run_id", self.run_id)
            .field("counters", counters)
            .field("hists", hists)
            .build()
    }
}

impl FromJson for JournalSample {
    fn from_json(value: &Json) -> Result<JournalSample, rl_json::JsonError> {
        let event = String::from_json(value.field("event")?)?;
        if event != "sample" {
            return Err(rl_json::JsonError::custom(format!(
                "expected a sample event, got {event:?}"
            )));
        }
        let mut counters = Vec::new();
        if let Json::Obj(fields) = value.field("counters")? {
            for (name, v) in fields {
                counters.push((name.clone(), u64::from_json(v)?));
            }
        }
        let mut hists = Vec::new();
        if let Json::Obj(fields) = value.field("hists")? {
            for (name, v) in fields {
                hists.push((name.clone(), HistogramSnapshot::from_json(v)?));
            }
        }
        Ok(JournalSample {
            ts_ms: u64::from_json(value.field("ts_ms")?)?,
            uptime_ms: u64::from_json(value.field("uptime_ms")?)?,
            run_id: match value.get("run_id") {
                Some(v) => u64::from_json(v)?,
                None => 0,
            },
            counters,
            hists,
        })
    }
}

/// Appends samples to rotating segments under one directory.
///
/// Opening always starts a *new* segment (numbered after the highest
/// existing one), so each daemon run is separable in the directory listing
/// and a crashed run's possibly-truncated tail is never appended to.
#[derive(Debug)]
pub struct JournalWriter {
    dir: PathBuf,
    file: File,
    next_seq: u64,
    written: u64,
    max_segment_bytes: u64,
}

fn segment_seq(name: &str) -> Option<u64> {
    name.strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(SEGMENT_SUFFIX)?
        .parse()
        .ok()
}

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{seq:06}{SEGMENT_SUFFIX}"))
}

impl JournalWriter {
    /// Creates `dir` if needed and opens a fresh segment after any existing
    /// ones. `max_segment_bytes` of 0 means [`DEFAULT_SEGMENT_BYTES`].
    pub fn open(dir: &Path, max_segment_bytes: u64) -> io::Result<JournalWriter> {
        fs::create_dir_all(dir)?;
        let mut seq = 0u64;
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(n) = entry.file_name().to_str().and_then(segment_seq) {
                seq = seq.max(n + 1);
            }
        }
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(segment_path(dir, seq))?;
        Ok(JournalWriter {
            dir: dir.to_owned(),
            file,
            next_seq: seq + 1,
            written: 0,
            max_segment_bytes: if max_segment_bytes == 0 {
                DEFAULT_SEGMENT_BYTES
            } else {
                max_segment_bytes
            },
        })
    }

    /// Appends one sample (one line) and flushes, rotating first when the
    /// current segment has crossed the size budget.
    pub fn append(&mut self, sample: &JournalSample) -> io::Result<()> {
        if self.written >= self.max_segment_bytes {
            self.file = OpenOptions::new()
                .create_new(true)
                .write(true)
                .open(segment_path(&self.dir, self.next_seq))?;
            self.next_seq += 1;
            self.written = 0;
        }
        let line = rl_json::to_string(sample)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()?;
        self.written += line.len() as u64 + 1;
        Ok(())
    }
}

/// A parsed journal directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Journal {
    /// All surviving samples, in segment order then line order.
    pub samples: Vec<JournalSample>,
    /// Segments found (zero-length ones included).
    pub segments: usize,
    /// Lines that failed to parse (truncated tails, foreign garbage).
    pub skipped_lines: usize,
}

/// True when `next` was written by a different daemon run than `prev`.
/// The `run_id` stamp is authoritative when present; an `uptime_ms` drop
/// is the fallback for pre-`run_id` writers (where two equal-length runs
/// are genuinely indistinguishable).
fn run_boundary(prev: &JournalSample, next: &JournalSample) -> bool {
    next.run_id != prev.run_id || next.uptime_ms < prev.uptime_ms
}

impl Journal {
    /// The histogram families merged across every run in the journal.
    ///
    /// Samples are cumulative *within* a daemon run and reset at restart;
    /// the last sample of each run is merged (run boundary: the `run_id`
    /// stamp changed, or `uptime_ms` dropped for pre-`run_id` writers).
    /// This is what `rlcheck slo` gates on.
    pub fn merged_hists(&self) -> Vec<(String, HistogramSnapshot)> {
        let mut merged: Vec<(String, HistogramSnapshot)> = Vec::new();
        let mut fold = |sample: &JournalSample| {
            for (name, snap) in &sample.hists {
                match merged.iter_mut().find(|(n, _)| n == name) {
                    Some((_, acc)) => acc.merge(snap),
                    None => merged.push((name.clone(), snap.clone())),
                }
            }
        };
        let mut prev: Option<&JournalSample> = None;
        for sample in &self.samples {
            if let Some(p) = prev {
                if run_boundary(p, sample) {
                    fold(p); // p ended a run; this sample starts a new one
                }
            }
            prev = Some(sample);
        }
        if let Some(p) = prev {
            fold(p);
        }
        merged
    }

    /// Number of daemon runs the samples span (boundaries + 1).
    pub fn runs(&self) -> usize {
        if self.samples.is_empty() {
            return 0;
        }
        1 + self
            .samples
            .windows(2)
            .filter(|w| run_boundary(&w[0], &w[1]))
            .count()
    }
}

/// Reads every `metrics-*.jsonl` segment under `dir`, in sequence order,
/// skipping (and counting) unparsable lines. Zero-length segments are fine.
/// Only a missing/unreadable directory is an error.
pub fn read_journal(dir: &Path) -> io::Result<Journal> {
    let mut segments: Vec<(u64, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(segment_seq) {
            segments.push((seq, entry.path()));
        }
    }
    segments.sort_unstable_by_key(|&(seq, _)| seq);
    let mut journal = Journal {
        segments: segments.len(),
        ..Journal::default()
    };
    for (_, path) in segments {
        // A segment that vanished or turned unreadable mid-scan degrades to
        // skipped content rather than failing the whole render.
        let Ok(text) = fs::read_to_string(&path) else {
            journal.skipped_lines += 1;
            continue;
        };
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match rl_json::from_str::<JournalSample>(line) {
                Ok(sample) => journal.samples.push(sample),
                Err(_) => journal.skipped_lines += 1,
            }
        }
    }
    Ok(journal)
}

/// Renders the journal's time series: a header, the merged per-family
/// percentile summary, and per-family rows (one per sample) with
/// percentile columns. Timestamps are offsets from the first sample.
pub fn render_journal(journal: &Journal) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "metrics journal: {} segment{}, {} sample{} across {} run{}{}",
        journal.segments,
        if journal.segments == 1 { "" } else { "s" },
        journal.samples.len(),
        if journal.samples.len() == 1 { "" } else { "s" },
        journal.runs(),
        if journal.runs() == 1 { "" } else { "s" },
        if journal.skipped_lines > 0 {
            format!(" ({} unparsable line(s) skipped)", journal.skipped_lines)
        } else {
            String::new()
        },
    );
    let merged = journal.merged_hists();
    if merged.is_empty() {
        let _ = writeln!(out, "no histogram samples recorded");
        return out;
    }
    out += &percentile_table(
        "family (all runs)",
        merged.iter().map(|(name, snap)| (name, snap)),
    );
    let t0 = journal.samples.first().map_or(0, |s| s.ts_ms);
    for (name, _) in &merged {
        let _ = writeln!(out, "\ntime series: {name}");
        let _ = writeln!(
            out,
            "  {:>10} {:>10} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "t", "uptime", "count", "p50", "p90", "p99", "max"
        );
        for sample in &journal.samples {
            let Some((_, snap)) = sample.hists.iter().find(|(n, _)| n == name) else {
                continue;
            };
            let _ = writeln!(
                out,
                "  {:>10} {:>10} {:>8} {:>10} {:>10} {:>10} {:>10}",
                format!(
                    "+{}",
                    format_duration(std::time::Duration::from_millis(
                        sample.ts_ms.saturating_sub(t0)
                    ))
                ),
                format_duration(std::time::Duration::from_millis(sample.uptime_ms)),
                snap.count,
                snap.p50(),
                snap.p90(),
                snap.p99(),
                snap.max,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    fn sample(ts_ms: u64, uptime_ms: u64, values: &[u64]) -> JournalSample {
        let h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        JournalSample {
            ts_ms,
            uptime_ms,
            run_id: 0,
            counters: vec![("serve/jobs".to_owned(), values.len() as u64)],
            hists: vec![("serve/queue_wait_us".to_owned(), h.snapshot())],
        }
    }

    // Two back-to-back daemon runs of near-identical length never show an
    // uptime drop — the `run_id` stamp is what separates them.
    #[test]
    fn equal_length_runs_split_on_run_id() {
        let mut a = sample(1_000, 21, &[5]);
        let mut b = sample(2_000, 22, &[50]);
        a.run_id = 1_000;
        b.run_id = 2_000;
        let journal = Journal {
            samples: vec![a, b],
            segments: 2,
            skipped_lines: 0,
        };
        assert_eq!(journal.runs(), 2);
        let merged = journal.merged_hists();
        assert_eq!(merged[0].1.count, 2, "both runs' last samples merged");
    }

    #[test]
    fn writer_rotates_and_reader_orders_segments() {
        let dir = std::env::temp_dir().join(format!("rl-journal-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            // Tiny budget: every append after the first rotates.
            let mut w = JournalWriter::open(&dir, 8).unwrap();
            w.append(&sample(1_000, 10, &[5])).unwrap();
            w.append(&sample(2_000, 20, &[5, 50])).unwrap();
        }
        {
            // A "restarted daemon": new writer, new segment, uptime resets.
            let mut w = JournalWriter::open(&dir, 0).unwrap();
            w.append(&sample(3_000, 7, &[500])).unwrap();
        }
        let journal = read_journal(&dir).unwrap();
        assert_eq!(journal.segments, 3);
        assert_eq!(journal.samples.len(), 3);
        assert_eq!(journal.skipped_lines, 0);
        assert_eq!(journal.runs(), 2);
        let uptimes: Vec<u64> = journal.samples.iter().map(|s| s.uptime_ms).collect();
        assert_eq!(uptimes, vec![10, 20, 7]);
        // Merged: last sample of run 1 (2 samples) + last of run 2 (1).
        let merged = journal.merged_hists();
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].1.count, 3);
        assert_eq!(merged[0].1.max, 500);
        let rendered = render_journal(&journal);
        assert!(rendered.contains("3 segments, 3 samples across 2 runs"));
        assert!(rendered.contains("serve/queue_wait_us"));
        let _ = fs::remove_dir_all(&dir);
    }

    // Satellite: a zero-length rotated segment and a mid-record-truncated
    // tail must degrade gracefully, never panic.
    #[test]
    fn truncated_tail_and_zero_length_segment_degrade_gracefully() {
        let dir = std::env::temp_dir().join(format!("rl-journal-trunc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let full = rl_json::to_string(&sample(1_000, 10, &[5, 50, 500])).unwrap();
        // Segment 0: one good line, then a tail cut mid-record.
        fs::write(
            dir.join("metrics-000000.jsonl"),
            format!("{full}\n{}", &full[..full.len() / 2]),
        )
        .unwrap();
        // Segment 1: zero-length (rotation happened, daemon died first).
        fs::write(dir.join("metrics-000001.jsonl"), "").unwrap();
        // A foreign file must be ignored entirely.
        fs::write(dir.join("notes.txt"), "not a segment").unwrap();
        let journal = read_journal(&dir).unwrap();
        assert_eq!(journal.segments, 2);
        assert_eq!(journal.samples.len(), 1);
        assert_eq!(journal.skipped_lines, 1);
        let rendered = render_journal(&journal);
        assert!(rendered.contains("1 unparsable line(s) skipped"));
        assert!(rendered.contains("serve/queue_wait_us"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sample_round_trips_through_json() {
        let s = sample(123, 45, &[1, 2, 3]);
        let text = rl_json::to_string(&s).unwrap();
        let back: JournalSample = rl_json::from_str(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn empty_journal_renders_without_panicking() {
        let dir = std::env::temp_dir().join(format!("rl-journal-empty-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let journal = read_journal(&dir).unwrap();
        assert_eq!(journal.runs(), 0);
        assert!(render_journal(&journal).contains("no histogram samples"));
        assert!(read_journal(Path::new("/nonexistent-journal-dir")).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
