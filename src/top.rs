//! `rlcheck top` — a live per-job view of a running `rlcheck serve`
//! daemon.
//!
//! The client side of the telemetry plane: connects to the daemon's
//! socket, issues a `subscribe` (all jobs by default, one job with
//! `--job`), and renders the streamed heartbeat/trace events as a
//! refreshing per-job table on stderr — states/sec, current phase, budget
//! consumption, cache hit rate. When stderr is not a TTY the refresh
//! degrades to plain line output (one line per heartbeat/completion), so
//! `rlcheck top ... 2> capture.log` leaves a readable, greppable record —
//! and the captured stream itself replays through `rlcheck report`.
//!
//! The daemon's drain closes the stream (EOF), which `top` treats as a
//! normal exit; so does SIGINT via the shared cancel token.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, IsTerminal, Read, Write as IoWrite};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use rl_automata::CancelToken;
use rl_core::CheckError;
use rl_json::{FromJson, Json};
use rl_obs::{Heartbeat, TraceEvent, TracePhase};

/// One row of the live table: the latest observed state of a job.
#[derive(Default)]
struct JobRow {
    /// The most recent heartbeat, verbatim.
    last: Option<Heartbeat>,
    /// Heartbeats seen for this job.
    beats: u64,
    /// Trace events seen for this job.
    traces: u64,
    /// Open `span` begin names per track — the top of the most recently
    /// touched non-empty stack is the displayed phase.
    stacks: BTreeMap<u64, Vec<String>>,
    /// The currently displayed phase name.
    phase: String,
    /// The most recent algorithm instant (`lazy-*`), shown
    /// beside the phase — "what the kernel just did" at one glance.
    note: String,
    /// The exit code from the job's `done` record, once it settles.
    done: Option<u64>,
}

impl JobRow {
    fn budget_pct(&self) -> Option<u64> {
        let hb = self.last.as_ref()?;
        let states = hb
            .states_limit
            .map(|max| 100 * hb.states / max.max(1))
            .unwrap_or(0);
        let time = hb
            .deadline_us
            .map(|d| 100 * hb.elapsed_us / d.max(1))
            .unwrap_or(0);
        (hb.states_limit.is_some() || hb.deadline_us.is_some()).then_some(states.max(time))
    }

    fn cache_pct(&self) -> Option<u64> {
        let hb = self.last.as_ref()?;
        let (hits, misses) = (hb.cache_hits?, hb.cache_misses?);
        (hits + misses > 0).then(|| 100 * hits / (hits + misses))
    }

    fn status(&self) -> String {
        match self.done {
            Some(code) => format!("done({code})"),
            None => "running".to_owned(),
        }
    }
}

/// The accumulated view over the subscribe stream.
#[derive(Default)]
struct TopView {
    jobs: BTreeMap<u64, JobRow>,
    dropped: u64,
    dirty: bool,
}

impl TopView {
    /// Folds one streamed line into the view. Returns a plain-mode output
    /// line when the event warrants one (heartbeats and completions).
    fn take_line(&mut self, line: &str) -> Option<String> {
        let value = rl_json::parse(line).ok()?;
        let event = match value.get("event") {
            Some(Json::Str(s)) => s.clone(),
            // Reply acks ({"ok":...}) and anything non-event: ignore,
            // except a refused subscribe which the caller screens earlier.
            _ => return None,
        };
        match event.as_str() {
            "heartbeat" => {
                let hb = Heartbeat::from_json(&value).ok()?;
                let job = hb.job?;
                let row = self.jobs.entry(job).or_default();
                row.beats += 1;
                let text = format!("job {job}: {}", hb.render_line());
                row.last = Some(hb);
                self.dirty = true;
                Some(text)
            }
            "trace" => {
                let e = TraceEvent::from_json(&value).ok()?;
                let job = u64_field(&value, "job")?;
                let row = self.jobs.entry(job).or_default();
                row.traces += 1;
                if e.category == "span" {
                    let stack = row.stacks.entry(e.track as u64).or_default();
                    match e.phase {
                        TracePhase::Begin => {
                            stack.push(e.name.clone());
                            row.phase = e.name;
                        }
                        TracePhase::End => {
                            stack.pop();
                            row.phase = stack.last().cloned().unwrap_or_default();
                        }
                        TracePhase::Instant => {}
                    }
                    self.dirty = true;
                } else if e.phase == TracePhase::Instant && e.name.starts_with("lazy-") {
                    // The fused search narrates itself through kernel
                    // instants; surface the latest one beside the phase.
                    row.note = e.name;
                    self.dirty = true;
                }
                None
            }
            "done" => {
                let job = u64_field(&value, "job")?;
                let code = u64_field(&value, "code").unwrap_or(0);
                self.jobs.entry(job).or_default().done = Some(code);
                self.dirty = true;
                Some(format!("job {job}: done code {code}"))
            }
            "dropped" => {
                if let Some(n) = u64_field(&value, "count") {
                    self.dropped += n;
                    self.dirty = true;
                    return Some(format!("({n} event(s) dropped to backpressure)"));
                }
                None
            }
            _ => None, // unknown future kinds: skip, like `rlcheck report`
        }
    }

    /// The full-screen table (TTY mode). `daemon` is the latest `stats`
    /// poll, rendered as a footer when available.
    fn render(&self, socket: &str, daemon: Option<&DaemonStats>) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "rlcheck top — {socket} — {} job(s), {} event(s) dropped",
            self.jobs.len(),
            self.dropped
        );
        let _ = writeln!(
            out,
            "{:>5}  {:<9} {:>9} {:>12} {:>10} {:>9} {:>7} {:>7}  PHASE",
            "JOB", "STATUS", "ELAPSED", "STATES", "RATE/S", "FRONTIER", "BUDGET%", "CACHE%"
        );
        for (id, row) in &self.jobs {
            let hb = row.last.as_ref();
            let _ = writeln!(
                out,
                "{:>5}  {:<9} {:>8.1}s {:>12} {:>10} {:>9} {:>7} {:>7}  {}",
                id,
                row.status(),
                hb.map_or(0.0, |h| h.elapsed_us as f64 / 1e6),
                hb.map_or(0, |h| h.states),
                hb.map_or(0, Heartbeat::states_per_sec),
                hb.map_or(0, |h| h.frontier),
                row.budget_pct()
                    .map_or_else(|| "-".to_owned(), |p| p.to_string()),
                row.cache_pct()
                    .map_or_else(|| "-".to_owned(), |p| p.to_string()),
                if row.note.is_empty() {
                    row.phase.clone()
                } else {
                    format!("{} [{}]", row.phase, row.note)
                }
            );
        }
        if let Some(d) = daemon {
            let _ = writeln!(out, "{}", d.footer());
        }
        out
    }
}

/// Daemon-level gauges from the `stats` verb, polled on a side connection
/// (the subscribe stream carries per-job events only).
struct DaemonStats {
    uptime_ms: u64,
    subscribers: u64,
    events_dropped: u64,
}

impl DaemonStats {
    /// Parses a `stats` reply line; `None` when it is not an ok-reply.
    fn parse(line: &str) -> Option<DaemonStats> {
        let v = rl_json::parse(line).ok()?;
        if v.get("ok") != Some(&Json::Bool(true)) {
            return None;
        }
        Some(DaemonStats {
            uptime_ms: u64_field(&v, "uptime_ms")?,
            subscribers: u64_field(&v, "subscribers").unwrap_or(0),
            events_dropped: u64_field(&v, "events_dropped").unwrap_or(0),
        })
    }

    fn footer(&self) -> String {
        format!(
            "daemon: up {:.1}s, {} subscriber(s), {} event(s) dropped daemon-wide",
            self.uptime_ms as f64 / 1e3,
            self.subscribers,
            self.events_dropped
        )
    }
}

/// One `stats` round-trip on a fresh connection. Any failure (daemon
/// draining, timeout) degrades to `None`; the footer just keeps its last
/// value.
fn poll_stats(socket: &str) -> Option<DaemonStats> {
    let mut stream = UnixStream::connect(socket).ok()?;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    stream.write_all(b"{\"cmd\":\"stats\"}\n").ok()?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).ok()?;
    DaemonStats::parse(line.trim())
}

fn u64_field(v: &Json, key: &str) -> Option<u64> {
    match v.get(key) {
        Some(Json::Int(i)) if *i >= 0 => Some(*i as u64),
        _ => None,
    }
}

/// Connects to a serve socket, subscribes (`job` restricts to one id), and
/// renders the live stream until the daemon drains (EOF) or `cancel` fires
/// (SIGINT). Returns the process exit code: 0 on a clean stream end.
///
/// # Errors
///
/// [`CheckError::Parse`] when the socket cannot be reached or the daemon
/// refuses the subscription.
pub fn run_top(socket: &str, job: Option<u64>, cancel: &CancelToken) -> Result<u8, CheckError> {
    let mut stream = UnixStream::connect(socket)
        .map_err(|e| CheckError::Parse(format!("top: {socket}: {e}")))?;
    let request = match job {
        Some(id) => format!("{{\"cmd\":\"subscribe\",\"id\":{id}}}\n"),
        None => "{\"cmd\":\"subscribe\",\"id\":\"*\"}\n".to_owned(),
    };
    stream
        .write_all(request.as_bytes())
        .map_err(|e| CheckError::Parse(format!("top: {socket}: {e}")))?;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));

    let live = std::io::stderr().is_terminal();
    let mut view = TopView::default();
    let mut acked = false;
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    // Daemon-level stats ride a side connection, refreshed about once a
    // second; a failed poll keeps the previous footer rather than blanking.
    let mut daemon: Option<DaemonStats> = None;
    let mut last_poll: Option<Instant> = None;
    loop {
        if cancel.is_cancelled() {
            break;
        }
        if last_poll.is_none_or(|t| t.elapsed() >= Duration::from_secs(1)) {
            last_poll = Some(Instant::now());
            if let Some(stats) = poll_stats(socket) {
                daemon = Some(stats);
                view.dirty = true;
            }
        }
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line_bytes: Vec<u8> = buf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line_bytes);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if !acked {
                // The first line is the subscribe reply.
                acked = true;
                let v = rl_json::parse(line)
                    .map_err(|e| CheckError::Parse(format!("top: bad reply: {e}")))?;
                if v.get("ok") != Some(&Json::Bool(true)) {
                    return Err(CheckError::Parse(format!("top: subscribe refused: {line}")));
                }
                continue;
            }
            let plain = view.take_line(line);
            if !live {
                if let Some(text) = plain {
                    eprintln!("{text}");
                }
            }
        }
        if live && view.dirty {
            view.dirty = false;
            // Clear and redraw: home the cursor, wipe, print the table.
            eprint!("\x1b[H\x1b[2J{}", view.render(socket, daemon.as_ref()));
        }
        match stream.read(&mut chunk) {
            Ok(0) => break, // daemon drained: clean end of stream
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    if live {
        eprint!("{}", view.render(socket, daemon.as_ref()));
    } else {
        let done = view.jobs.values().filter(|r| r.done.is_some()).count();
        eprintln!(
            "rlcheck top: stream closed ({} job(s) observed, {} finished, {} event(s) dropped)",
            view.jobs.len(),
            done,
            view.dropped
        );
        if let Some(d) = &daemon {
            eprintln!("rlcheck top: {}", d.footer());
        }
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_tracks_phase_budget_and_completion() {
        let mut view = TopView::default();
        assert!(view
            .take_line(
                "{\"event\":\"trace\",\"job\":1,\"ph\":\"B\",\"track\":0,\
                 \"cat\":\"span\",\"name\":\"determinize\",\"ts_us\":5}"
            )
            .is_none());
        let plain = view.take_line(
            "{\"event\":\"heartbeat\",\"job\":1,\"elapsed_us\":2000000,\
             \"states\":81920,\"transitions\":1,\"frontier\":4096,\
             \"states_limit\":200000,\"cache_hits\":97,\"cache_misses\":3}",
        );
        assert!(plain
            .expect("heartbeats emit plain lines")
            .contains("81920 states"));
        let row = view.jobs.get(&1).expect("job row exists");
        assert_eq!(row.phase, "determinize");
        assert_eq!(row.budget_pct(), Some(40));
        assert_eq!(row.cache_pct(), Some(97));
        assert_eq!(row.status(), "running");
        let done = view.take_line("{\"event\":\"done\",\"job\":1,\"code\":0}");
        assert_eq!(done.as_deref(), Some("job 1: done code 0"));
        assert_eq!(view.jobs[&1].status(), "done(0)");
        let table = view.render("/tmp/x.sock", None);
        assert!(table.contains("done(0)"), "{table}");
        assert!(table.contains("determinize"), "{table}");
    }

    #[test]
    fn hist_events_leave_the_table_unchanged() {
        let mut view = TopView::default();
        view.take_line("{\"event\":\"done\",\"job\":7,\"code\":0}");
        let before = view.render("s", None);
        // No stream carries per-job histograms any more: a `hist` line is
        // an unknown kind, so it opens no row and prints no plain line.
        for job in [7, 8] {
            let line = format!(
                "{{\"event\":\"hist\",\"job\":{job},\"name\":\"serve/queue_wait_us\",\
                 \"count\":10,\"sum\":40,\"max\":4,\"buckets\":[[4,10]]}}"
            );
            assert!(view.take_line(&line).is_none(), "no plain line");
        }
        assert_eq!(view.render("s", None), before);
        assert_eq!(view.jobs.len(), 1);
        assert!(!before.contains("P50US"), "{before}");
    }

    #[test]
    fn daemon_stats_parse_and_footer() {
        let stats = DaemonStats::parse(
            "{\"ok\":true,\"uptime_ms\":2500,\"subscribers\":3,\"events_dropped\":9}",
        )
        .expect("parses ok reply");
        assert_eq!(
            stats.footer(),
            "daemon: up 2.5s, 3 subscriber(s), 9 event(s) dropped daemon-wide"
        );
        assert!(DaemonStats::parse("{\"ok\":false,\"error\":\"x\"}").is_none());
        assert!(DaemonStats::parse("not json").is_none());
        // The footer rides the rendered table when stats are known.
        let view = TopView::default();
        assert!(view.render("s", Some(&stats)).contains("daemon: up 2.5s"));
    }

    #[test]
    fn view_surfaces_algorithm_instants_beside_the_phase() {
        let mut view = TopView::default();
        view.take_line(
            "{\"event\":\"trace\",\"job\":3,\"ph\":\"B\",\"track\":0,\
             \"cat\":\"span\",\"name\":\"lazy_inclusion\",\"ts_us\":1}",
        );
        view.take_line(
            "{\"event\":\"trace\",\"job\":3,\"ph\":\"I\",\"track\":0,\
             \"cat\":\"kernel\",\"name\":\"lazy-layer\",\"ts_us\":2,\
             \"arg\":{\"width\":2}}",
        );
        let table = view.render("/tmp/x.sock", None);
        assert!(table.contains("lazy_inclusion [lazy-layer]"), "{table}");
        // The latest instant replaces the note.
        view.take_line(
            "{\"event\":\"trace\",\"job\":3,\"ph\":\"I\",\"track\":0,\
             \"cat\":\"kernel\",\"name\":\"lazy-prune\",\"ts_us\":3,\
             \"arg\":{\"count\":7}}",
        );
        assert!(view
            .render("s", None)
            .contains("lazy_inclusion [lazy-prune]"));
        // Other kernel instants are not phase narration and stay out of
        // the column.
        view.jobs.get_mut(&3).expect("row").note.clear();
        view.take_line(
            "{\"event\":\"trace\",\"job\":3,\"ph\":\"I\",\"track\":0,\
             \"cat\":\"kernel\",\"name\":\"determinize-layer\",\"ts_us\":4}",
        );
        assert!(!view.render("s", None).contains("[determinize-layer]"));
    }

    #[test]
    fn view_skips_unknown_kinds_and_counts_drops() {
        let mut view = TopView::default();
        assert!(view.take_line("{\"event\":\"frob\",\"x\":1}").is_none());
        assert!(view.take_line("{\"ok\":true}").is_none());
        let note = view.take_line("{\"event\":\"dropped\",\"count\":4,\"total\":4}");
        assert!(note.expect("drop notice").contains("4 event(s) dropped"));
        assert_eq!(view.dropped, 4);
        assert!(view.jobs.is_empty());
    }
}
