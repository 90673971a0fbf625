//! End-to-end tests of `rlcheck serve`: the wire protocol, per-job panic
//! isolation, admission control, client-disconnect cancellation and
//! graceful drain — including the deterministic `RL_FAULT` fault-injection
//! points.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rl_json::{Json, ObjBuilder};

/// A socket/scratch path that is unique per test *and* short enough for
/// `sun_path` (temp dir + a short name).
fn scratch(name: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rl-{name}-{}.{ext}", std::process::id()))
}

struct Daemon {
    child: Child,
    socket: PathBuf,
    stderr_path: PathBuf,
}

fn start_daemon(name: &str, extra: &[&str], envs: &[(&str, &str)]) -> Daemon {
    let socket = scratch(name, "sock");
    let _ = std::fs::remove_file(&socket);
    let stderr_path = scratch(name, "err");
    let stderr_file = std::fs::File::create(&stderr_path).expect("stderr capture file");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rlcheck"));
    cmd.arg("serve")
        .arg("--socket")
        .arg(&socket)
        .args(extra)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::from(stderr_file))
        // Fast heartbeats and a short drain grace keep the tests snappy.
        .env("RL_HEARTBEAT_MS", "20")
        .env("RL_DRAIN_GRACE_MS", "2000");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let child = cmd.spawn().expect("daemon spawns");
    // The socket file appears at bind(2), before listen(2): only a
    // connection that succeeds shows the daemon is accepting.
    let deadline = Instant::now() + Duration::from_secs(30);
    while UnixStream::connect(&socket).is_err() {
        assert!(
            Instant::now() < deadline,
            "daemon never accepted a connection on {socket:?}; stderr: {}",
            std::fs::read_to_string(&stderr_path).unwrap_or_default()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    Daemon {
        child,
        socket,
        stderr_path,
    }
}

impl Daemon {
    fn stderr_text(&self) -> String {
        std::fs::read_to_string(&self.stderr_path).unwrap_or_default()
    }

    /// Waits for the process to exit (after a `shutdown` request or a
    /// signal) and returns its exit code.
    fn wait_exit(&mut self) -> i32 {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status.code().unwrap_or(-1);
            }
            assert!(
                Instant::now() < deadline,
                "daemon did not exit; stderr: {}",
                self.stderr_text()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

fn connect(d: &Daemon) -> Client {
    let stream = UnixStream::connect(&d.socket).expect("connect to daemon");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    Client {
        writer: stream,
        reader,
    }
}

impl Client {
    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("request write");
    }

    /// Reads one reply line; `None` when the server closed the connection.
    fn try_recv(&mut self) -> Option<Json> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("reply read");
        if n == 0 {
            return None;
        }
        Some(rl_json::parse(line.trim()).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}")))
    }

    fn request(&mut self, line: &str) -> Json {
        self.send(line);
        self.try_recv()
            .expect("server closed connection mid-request")
    }

    /// Blocks (server-side) until job `id` completes; returns the reply.
    fn wait_job(&mut self, id: i64) -> Json {
        self.request(&format!("{{\"cmd\":\"wait\",\"id\":{id}}}"))
    }

    fn stats(&mut self) -> Json {
        self.request("{\"cmd\":\"stats\"}")
    }

    fn shutdown(&mut self) -> Json {
        self.request("{\"cmd\":\"shutdown\"}")
    }
}

fn submit_line(fields: &[(&str, Json)]) -> String {
    let mut b = ObjBuilder::new().field("cmd", "submit");
    for (k, v) in fields {
        b = b.field(k, v.clone());
    }
    rl_json::to_string(&b.build()).expect("render request")
}

/// The one-state system whose behaviors are all of {a, b}^ω.
const SIGMA_AB: &str = "system\nalphabet: a b\ninitial: s\ns a -> s\ns b -> s\n";

/// A submit that runs for minutes unless its deadline or a cancel ends it:
/// the LTL→Büchi tableau of `rl_bench::nested_until(14)` over [`SIGMA_AB`]
/// polls both, and charges no states, so `max_states` never stops it.
fn slow_submit(fields: &[(&str, Json)]) -> String {
    let formula = rl_bench::nested_until(14).to_string();
    let mut all = vec![("system", s(SIGMA_AB)), ("formula", s(&formula))];
    all.extend(fields.iter().cloned());
    submit_line(&all)
}

fn s(v: &str) -> Json {
    Json::Str(v.to_owned())
}

fn i(v: i64) -> Json {
    Json::Int(v)
}

fn int_field(v: &Json, key: &str) -> i64 {
    match v.get(key) {
        Some(Json::Int(n)) => *n,
        other => panic!("field {key} not an int: {other:?} in {v:?}"),
    }
}

fn str_field(v: &Json, key: &str) -> String {
    match v.get(key) {
        Some(Json::Str(t)) => t.clone(),
        other => panic!("field {key} not a string: {other:?} in {v:?}"),
    }
}

fn bool_field(v: &Json, key: &str) -> bool {
    match v.get(key) {
        Some(Json::Bool(b)) => *b,
        other => panic!("field {key} not a bool: {other:?} in {v:?}"),
    }
}

// ---------------------------------------------------------------------------

#[test]
fn serve_runs_jobs_and_drains_cleanly() {
    let mut d = start_daemon("basic", &["--jobs", "2"], &[]);
    let mut c = connect(&d);

    // A file-backed job (paths resolve in the daemon's working directory).
    let r = c.request(&submit_line(&[
        ("path", s("examples/systems/server.pn")),
        ("formula", s("[]<>result")),
    ]));
    assert!(bool_field(&r, "ok"), "{r:?}");
    let id1 = int_field(&r, "id");
    assert_eq!(id1, 1, "job ids are assigned in submission order");

    // An inline job: the daemon needs no shared filesystem with clients.
    let r = c.request(&submit_line(&[
        ("system", s("system\nalphabet: go\ninitial: a\na go -> a\n")),
        ("name", s("wire-loop")),
        ("formula", s("[]<>go")),
    ]));
    assert!(bool_field(&r, "ok"), "{r:?}");
    let id2 = int_field(&r, "id");
    assert_eq!(id2, 2);

    let done1 = c.wait_job(id1);
    assert_eq!(str_field(&done1, "status"), "done");
    assert_eq!(int_field(&done1, "code"), 0, "{done1:?}");
    assert!(bool_field(&done1, "holds"));
    let output = str_field(&done1, "output");
    assert!(output.contains("rel-live   []<>result: HOLDS"), "{output}");

    let done2 = c.wait_job(id2);
    assert_eq!(int_field(&done2, "code"), 0, "{done2:?}");
    assert!(str_field(&done2, "output").contains("=== wire-loop []<>go"));

    // Delivery consumes the record: `wait` is a one-shot handoff, and
    // reaping delivered jobs is what keeps the resident table bounded.
    let gone = c.request("{\"cmd\":\"status\",\"id\":1}");
    assert!(!bool_field(&gone, "ok"), "{gone:?}");

    // Unknown ids and malformed requests are errors, not disconnects.
    let bad = c.request("{\"cmd\":\"status\",\"id\":99}");
    assert!(!bool_field(&bad, "ok"));
    let bad = c.request("this is not json");
    assert!(!bool_field(&bad, "ok"));

    let st = c.stats();
    assert_eq!(int_field(&st, "submitted"), 2);
    assert_eq!(int_field(&st, "completed"), 2);
    assert_eq!(int_field(&st, "inflight_states"), 0);
    // Uptime, per-verb request counters, and the telemetry-plane gauges
    // ride along in the same reply.
    assert!(int_field(&st, "uptime_ms") >= 0);
    let req = st.field("requests").expect("requests object");
    assert_eq!(int_field(req, "submit"), 2);
    assert_eq!(int_field(req, "wait"), 2);
    assert!(int_field(req, "status") >= 2);
    assert!(int_field(req, "stats") >= 1, "the stats call counts itself");
    assert_eq!(int_field(&st, "subscribers"), 0);
    assert_eq!(int_field(&st, "events_dropped"), 0);

    let ack = c.shutdown();
    assert_eq!(str_field(&ack, "status"), "draining");
    assert_eq!(d.wait_exit(), 0, "clean drain exits 0");
    let err = d.stderr_text();
    assert!(err.contains("drained"), "stderr: {err}");
}

/// The fault-injected service smoke: panic containment, admission reject,
/// disconnect-cancel, a parse error confined to its job, the `stats`
/// counts and a clean drain, on one daemon.
#[test]
fn fault_injected_daemon_contains_panics_rejects_cancels_and_drains() {
    let mut d = start_daemon(
        "smoke",
        &[
            "--jobs",
            "2",
            "--max-inflight-states",
            "2000000",
            "--queue-cap",
            "0",
        ],
        &[("RL_FAULT", "job-panic:2")],
    );
    let mut c = connect(&d);
    // Two concurrent jobs; the second is armed to panic. Their declared
    // budgets fit under the admission ceiling together (two undeclared
    // jobs would not, and the queue takes none).
    let r1 = c.request(&submit_line(&[
        ("path", s("examples/systems/server.pn")),
        ("formula", s("[]<>result")),
        ("max_states", i(100_000)),
    ]));
    assert!(bool_field(&r1, "ok") && int_field(&r1, "id") == 1, "{r1:?}");
    let r2 = c.request(&submit_line(&[
        ("path", s("examples/systems/server_err.pn")),
        ("formula", s("[]<>result")),
        ("max_states", i(100_000)),
    ]));
    assert!(bool_field(&r2, "ok") && int_field(&r2, "id") == 2, "{r2:?}");
    // Admission control: a declaration above the ceiling is rejected.
    let r3 = c.request(&submit_line(&[
        ("path", s("examples/systems/clock.ts")),
        ("formula", s("[]<>tick")),
        ("max_states", i(3_000_000)),
    ]));
    assert!(!bool_field(&r3, "ok"), "{r3:?}");
    assert_eq!(str_field(&r3, "status"), "rejected", "{r3:?}");
    let d1 = c.wait_job(1);
    assert_eq!(int_field(&d1, "code"), 0, "{d1:?}");
    assert!(bool_field(&d1, "holds"), "{d1:?}");
    // The poisoned job is contained: a 101 reply, daemon and sibling fine.
    let d2 = c.wait_job(2);
    assert_eq!(int_field(&d2, "code"), 101, "{d2:?}");
    assert!(
        str_field(&d2, "diagnostics").contains("internal panic"),
        "{d2:?}"
    );
    // Disconnect-cancel: another client submits a long job and vanishes.
    let mut gone = connect(&d);
    let r4 = gone.request(&slow_submit(&[("timeout_ms", i(20_000))]));
    assert!(bool_field(&r4, "ok"), "{r4:?}");
    drop(gone);
    let d4 = c.wait_job(int_field(&r4, "id"));
    assert_eq!(int_field(&d4, "code"), 3, "{d4:?}");
    // A formula nested 2000 deep is a parse error for its job alone; the
    // daemon answers the next submit.
    let deep = format!("{}tick{}", "(".repeat(2000), ")".repeat(2000));
    let r5 = c.request(&submit_line(&[
        ("path", s("examples/systems/clock.ts")),
        ("formula", s(&deep)),
    ]));
    assert!(bool_field(&r5, "ok"), "{r5:?}");
    let d5 = c.wait_job(int_field(&r5, "id"));
    assert_eq!(int_field(&d5, "code"), 2, "{d5:?}");
    assert!(
        str_field(&d5, "diagnostics").contains("nests deeper"),
        "{d5:?}"
    );
    let r6 = c.request(&submit_line(&[
        ("path", s("examples/systems/clock.ts")),
        ("formula", s("[]<>tick")),
    ]));
    assert!(bool_field(&r6, "ok"), "{r6:?}");
    let d6 = c.wait_job(int_field(&r6, "id"));
    assert_eq!(int_field(&d6, "code"), 0, "{d6:?}");
    let st = c.stats();
    assert_eq!(int_field(&st, "panicked"), 1, "{st:?}");
    assert_eq!(int_field(&st, "cancelled"), 1, "{st:?}");
    assert_eq!(int_field(&st, "rejected"), 1, "{st:?}");
    assert_eq!(int_field(&st, "inflight_states"), 0, "{st:?}");
    let ack = c.shutdown();
    assert!(bool_field(&ack, "ok"), "{ack:?}");
    assert_eq!(str_field(&ack, "status"), "draining");
    assert_eq!(d.wait_exit(), 0, "clean drain exits 0");
    let err = d.stderr_text();
    assert!(err.contains("drained"), "stderr: {err}");
}

/// Span rows (path, states, transitions, guard charges) for the jobs
/// `job<id>/...` of the metrics file `path`, `id` in `jobs`.
fn job_spans(path: &Path, jobs: &[u64]) -> Vec<(String, i64, i64, i64)> {
    let metrics = std::fs::read_to_string(path).expect("metrics written");
    let mut spans = Vec::new();
    for line in metrics.lines() {
        let v = rl_json::parse(line).unwrap_or_else(|e| panic!("bad metrics line {line:?}: {e}"));
        if matches!(v.get("event"), Some(Json::Str(e)) if e == "span") {
            let path = str_field(&v, "path");
            if jobs.iter().any(|id| path.starts_with(&format!("job{id}/"))) {
                spans.push((
                    path,
                    int_field(&v, "states"),
                    int_field(&v, "transitions"),
                    int_field(&v, "guard_charges"),
                ));
            }
        }
    }
    spans
}

#[test]
fn panicking_job_is_contained_and_siblings_stay_deterministic() {
    // Two identical daemons; in the second, job 2 is armed to panic on its
    // worker (value-matched, so pool scheduling cannot change the victim).
    let m_clean = scratch("panic-clean", "jsonl");
    let m_fault = scratch("panic-fault", "jsonl");
    let submit = |c: &mut Client| {
        for (path, formula) in [
            ("examples/systems/server.pn", "[]<>result"),
            ("examples/systems/server_err.pn", "[]<>result"),
            ("examples/systems/server.pn", "[]<>result"),
        ] {
            let r = c.request(&submit_line(&[("path", s(path)), ("formula", s(formula))]));
            assert!(bool_field(&r, "ok"), "{r:?}");
        }
    };

    // Jobs 1 and 3 are the same check; each builds its own machines, so
    // per-job spans do not depend on pool scheduling.
    let mut clean = start_daemon(
        "panic-a",
        &["--jobs", "2", "--metrics", m_clean.to_str().unwrap()],
        &[],
    );
    let mut c = connect(&clean);
    submit(&mut c);
    let codes: Vec<i64> = (1..=3)
        .map(|id| int_field(&c.wait_job(id), "code"))
        .collect();
    assert_eq!(codes, vec![0, 1, 0], "clean verdicts");
    c.shutdown();
    assert_eq!(clean.wait_exit(), 0);

    let mut faulted = start_daemon(
        "panic-b",
        &["--jobs", "2", "--metrics", m_fault.to_str().unwrap()],
        &[("RL_FAULT", "job-panic:2")],
    );
    let mut c = connect(&faulted);
    submit(&mut c);
    let r1 = c.wait_job(1);
    let r2 = c.wait_job(2);
    let r3 = c.wait_job(3);
    // The poisoned job reports exit 101 with the panic message …
    assert_eq!(int_field(&r2, "code"), 101, "{r2:?}");
    assert!(
        str_field(&r2, "diagnostics").contains("internal panic"),
        "{r2:?}"
    );
    // … while its concurrent siblings finish with their normal verdicts.
    assert_eq!(int_field(&r1, "code"), 0, "{r1:?}");
    assert_eq!(int_field(&r3, "code"), 0, "{r3:?}");
    let st = c.stats();
    assert_eq!(int_field(&st, "panicked"), 1);
    assert_eq!(int_field(&st, "completed"), 3);
    c.shutdown();
    assert_eq!(
        faulted.wait_exit(),
        0,
        "a panicking job never kills the daemon"
    );

    // The surviving jobs' deterministic counters are bit-for-bit unchanged
    // by the sibling panic: same span paths, states, transitions and
    // guard charges.
    let clean_spans = job_spans(&m_clean, &[1, 3]);
    let fault_spans = job_spans(&m_fault, &[1, 3]);
    assert!(!clean_spans.is_empty(), "metrics record job spans");
    assert_eq!(clean_spans, fault_spans);
}

#[test]
fn client_disconnect_cancels_its_job() {
    let d = start_daemon("disco", &["--jobs", "1"], &[]);

    // Client A submits a check that would run for minutes …
    let mut a = connect(&d);
    let r = a.request(&slow_submit(&[("timeout_ms", i(20_000))]));
    assert!(bool_field(&r, "ok"), "{r:?}");
    let id = int_field(&r, "id");
    assert_eq!(str_field(&r, "status"), "running");
    // … and vanishes without cancelling.
    drop(a);

    // The disconnect propagates to the job's cancel token within one
    // heartbeat; the budget frees and the job settles as cancelled (3).
    let mut b = connect(&d);
    let done = b.wait_job(id);
    assert_eq!(str_field(&done, "status"), "done");
    assert_eq!(int_field(&done, "code"), 3, "{done:?}");
    let st = b.stats();
    assert_eq!(int_field(&st, "cancelled"), 1);
    assert_eq!(int_field(&st, "inflight_states"), 0, "budget freed");
}

#[test]
fn admission_queues_over_ceiling_then_admits() {
    let d = start_daemon(
        "queue",
        &[
            "--jobs",
            "1",
            "--max-inflight-states",
            "300000",
            "--queue-cap",
            "8",
        ],
        &[],
    );
    let mut c = connect(&d);

    // Job 1 occupies 200k of the 300k ceiling until its deadline trips.
    let r1 = c.request(&slow_submit(&[
        ("max_states", i(200_000)),
        ("timeout_ms", i(2_000)),
    ]));
    assert_eq!(str_field(&r1, "status"), "running", "{r1:?}");

    // Job 2 would overflow the ceiling: it queues instead of OOMing.
    let r2 = c.request(&submit_line(&[
        ("path", s("examples/systems/clock.ts")),
        ("formula", s("[]<>tick")),
        ("max_states", i(200_000)),
    ]));
    assert!(bool_field(&r2, "ok"), "{r2:?}");
    assert_eq!(str_field(&r2, "status"), "queued", "{r2:?}");

    // Once job 1 releases its weight, job 2 is admitted and completes.
    let done1 = c.wait_job(int_field(&r1, "id"));
    assert_eq!(
        int_field(&done1, "code"),
        3,
        "the slow job trips its deadline"
    );
    let done2 = c.wait_job(int_field(&r2, "id"));
    let code2 = int_field(&done2, "code");
    assert!(
        code2 == 0 || code2 == 1,
        "clock verdict, not a budget trip: {done2:?}"
    );

    let st = c.stats();
    assert_eq!(int_field(&st, "queued"), 1);
    assert_eq!(int_field(&st, "admitted"), 2);
    assert_eq!(int_field(&st, "rejected"), 0);
}

#[test]
fn completion_admits_queued_jobs_only_up_to_capacity() {
    let d = start_daemon(
        "fifo-cap",
        &[
            "--jobs",
            "2",
            "--max-inflight-states",
            "300000",
            "--queue-cap",
            "8",
        ],
        &[],
    );
    let mut c = connect(&d);

    // Job 1 briefly holds 200k of the 300k ceiling.
    let r1 = c.request(&slow_submit(&[
        ("max_states", i(200_000)),
        ("timeout_ms", i(1_000)),
    ]));
    assert_eq!(str_field(&r1, "status"), "running", "{r1:?}");

    // Jobs 2 and 3 declare 200k each and queue behind it. When job 1
    // releases its weight, only ONE of them fits: admitting every queued
    // job that individually fits would put 400k — 133% of the ceiling —
    // in flight at once.
    let mut ids = Vec::new();
    for _ in 0..2 {
        let r = c.request(&slow_submit(&[
            ("max_states", i(200_000)),
            ("timeout_ms", i(20_000)),
        ]));
        assert_eq!(str_field(&r, "status"), "queued", "{r:?}");
        ids.push(int_field(&r, "id"));
    }

    c.wait_job(int_field(&r1, "id"));
    // Settle the stragglers one at a time; each completion admits the
    // next queued job, never more than capacity allows.
    for id in ids {
        let r = c.request(&format!("{{\"cmd\":\"cancel\",\"id\":{id}}}"));
        assert!(bool_field(&r, "ok"), "{r:?}");
        let done = c.wait_job(id);
        assert_eq!(int_field(&done, "code"), 3, "{done:?}");
    }

    let st = c.stats();
    assert_eq!(int_field(&st, "admitted"), 3);
    assert_eq!(int_field(&st, "queued"), 2);
    // The high-water mark proves the ceiling was never overcommitted:
    // the three 200k jobs ran strictly one at a time.
    assert_eq!(int_field(&st, "peak_inflight_states"), 200_000, "{st:?}");
}

#[test]
fn admission_rejects_oversize_jobs_and_full_queues() {
    let d = start_daemon(
        "reject",
        &[
            "--jobs",
            "1",
            "--max-inflight-states",
            "300000",
            "--queue-cap",
            "0",
        ],
        &[],
    );
    let mut c = connect(&d);

    // A declared budget larger than the whole ceiling can never run.
    let r = c.request(&submit_line(&[
        ("path", s("examples/systems/clock.ts")),
        ("formula", s("[]<>tick")),
        ("max_states", i(500_000)),
    ]));
    assert!(!bool_field(&r, "ok"));
    assert_eq!(str_field(&r, "status"), "rejected");
    assert!(str_field(&r, "error").contains("ceiling"), "{r:?}");

    // Occupy most of the ceiling …
    let r1 = c.request(&slow_submit(&[
        ("max_states", i(250_000)),
        ("timeout_ms", i(2_000)),
    ]));
    assert_eq!(str_field(&r1, "status"), "running", "{r1:?}");
    // … and with a zero-length queue the next submit is bounced outright.
    let r2 = c.request(&submit_line(&[
        ("path", s("examples/systems/clock.ts")),
        ("formula", s("[]<>tick")),
        ("max_states", i(100_000)),
    ]));
    assert!(!bool_field(&r2, "ok"));
    assert_eq!(str_field(&r2, "status"), "rejected");
    assert!(str_field(&r2, "error").contains("queue full"), "{r2:?}");

    let st = c.stats();
    assert_eq!(int_field(&st, "rejected"), 2);
}

#[test]
fn sigterm_drains_and_flushes_parseable_sinks() {
    let metrics = scratch("sigterm", "jsonl");
    let mut d = start_daemon(
        "sigterm",
        &["--jobs", "2", "--metrics", metrics.to_str().unwrap()],
        &[],
    );
    let mut c = connect(&d);
    for (path, formula) in [
        ("examples/systems/server.pn", "[]<>result"),
        ("examples/systems/server_err.pn", "[]<>result"),
    ] {
        let r = c.request(&submit_line(&[("path", s(path)), ("formula", s(formula))]));
        assert!(bool_field(&r, "ok"), "{r:?}");
    }
    c.wait_job(1);
    c.wait_job(2);

    // SIGTERM → graceful drain → sinks flushed → exit 0.
    let pid = d.child.id().to_string();
    let killed = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("kill runs");
    assert!(killed.success());
    assert_eq!(d.wait_exit(), 0, "stderr: {}", d.stderr_text());
    assert!(d.stderr_text().contains("drained"), "{}", d.stderr_text());

    // Every line of the metrics file parses; meta first, totals last, with
    // per-job spans and the service counters in between.
    let text = std::fs::read_to_string(&metrics).expect("metrics flushed");
    let lines: Vec<Json> = text
        .lines()
        .map(|l| rl_json::parse(l).unwrap_or_else(|e| panic!("bad line {l:?}: {e}")))
        .collect();
    assert!(lines.len() >= 3, "metrics has content: {text}");
    assert_eq!(str_field(&lines[0], "event"), "meta");
    let totals = lines.last().expect("nonempty");
    assert_eq!(str_field(totals, "event"), "totals");
    let counters = totals.field("counters").expect("counters object");
    assert_eq!(int_field(counters, "serve/submitted"), 2);
    assert_eq!(int_field(counters, "serve/completed"), 2);
    assert!(lines
        .iter()
        .any(|v| matches!(v.get("path"), Some(Json::Str(p)) if p.starts_with("job1"))));

    // The offline renderer accepts the drained file.
    let report = Command::new(env!("CARGO_BIN_EXE_rlcheck"))
        .args(["report", metrics.to_str().unwrap()])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("report runs");
    assert_eq!(report.status.code(), Some(0));
}

/// Polls `status` until the predicate holds or the deadline passes.
fn poll_status(c: &mut Client, id: i64, what: &str, pred: impl Fn(&Json) -> bool) -> Json {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let r = c.request(&format!("{{\"cmd\":\"status\",\"id\":{id}}}"));
        if pred(&r) {
            return r;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} never became {what}: {r:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn undelivered_results_are_reaped_after_ttl() {
    let d = start_daemon("ttl", &["--jobs", "1"], &[("RL_RESULT_TTL_MS", "50")]);
    let mut c = connect(&d);
    let r = c.request(&submit_line(&[
        ("path", s("examples/systems/server.pn")),
        ("formula", s("[]<>result")),
    ]));
    let id = int_field(&r, "id");

    // `status` is a non-consuming poll: the record survives it …
    poll_status(&mut c, id, "done", |r| {
        bool_field(r, "ok") && r.get("code").is_some()
    });
    // … but an uncollected result outlives its TTL by at most one sweep,
    // so a daemon whose clients never `wait` cannot leak job records.
    poll_status(&mut c, id, "reaped", |r| !bool_field(r, "ok"));
    let st = c.stats();
    assert_eq!(int_field(&st, "completed"), 1, "counters survive the reap");
}

#[test]
fn disconnect_reaps_the_clients_undelivered_results() {
    let d = start_daemon("reap", &["--jobs", "1"], &[]);
    let mut a = connect(&d);
    let r = a.request(&submit_line(&[
        ("path", s("examples/systems/server.pn")),
        ("formula", s("[]<>result")),
    ]));
    let id = int_field(&r, "id");
    // The job finishes while A is connected, but A never waits …
    poll_status(&mut a, id, "done", |r| {
        bool_field(r, "ok") && r.get("code").is_some()
    });
    drop(a);

    // … so the result can never be delivered to it; the disconnect reaps
    // the record (within one heartbeat) instead of waiting out the TTL.
    let mut b = connect(&d);
    poll_status(&mut b, id, "reaped", |r| !bool_field(r, "ok"));
    let st = b.stats();
    assert_eq!(int_field(&st, "completed"), 1);
    assert_eq!(int_field(&st, "cancelled"), 0, "the job finished normally");
}

#[test]
fn second_server_on_a_live_socket_is_refused() {
    let mut d = start_daemon("busy", &[], &[]);

    // A second server on the same socket must refuse to start — silently
    // unlinking a live socket would orphan the first server (running but
    // unreachable) — and must leave the incumbent untouched.
    let out = Command::new(env!("CARGO_BIN_EXE_rlcheck"))
        .args(["serve", "--socket", d.socket.to_str().unwrap()])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("second server runs");
    assert!(!out.status.success(), "second bind must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("already listening"), "stderr: {err}");

    let mut c = connect(&d);
    let st = c.stats();
    assert!(bool_field(&st, "ok"), "incumbent still answers: {st:?}");
    c.shutdown();
    assert_eq!(d.wait_exit(), 0);
}

/// Polls `stats` until the predicate holds or the deadline passes.
fn poll_stats(c: &mut Client, what: &str, pred: impl Fn(&Json) -> bool) -> Json {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let st = c.stats();
        if pred(&st) {
            return st;
        }
        assert!(
            Instant::now() < deadline,
            "stats never became {what}: {st:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn subscribe_streams_heartbeats_and_traces_before_done() {
    let mut d = start_daemon("sub", &["--jobs", "4"], &[("RL_PROGRESS_MS", "5")]);

    // One connection subscribes to every job before any is submitted.
    let mut sub = connect(&d);
    let ack = sub.request("{\"cmd\":\"subscribe\",\"id\":\"*\"}");
    assert!(bool_field(&ack, "ok"), "{ack:?}");
    assert_eq!(int_field(&ack, "ring_capacity"), 1024, "default ring size");

    // Another submits and collects the verdicts through the normal verbs.
    let mut c = connect(&d);
    let ids: Vec<i64> = [
        "examples/systems/server.pn",
        "examples/systems/server_err.pn",
        "examples/systems/server.pn",
    ]
    .into_iter()
    .map(|path| {
        let r = c.request(&submit_line(&[
            ("path", s(path)),
            ("formula", s("[]<>result")),
        ]));
        assert!(bool_field(&r, "ok"), "{r:?}");
        int_field(&r, "id")
    })
    .collect();
    let codes: Vec<i64> = ids
        .iter()
        .map(|&id| int_field(&c.wait_job(id), "code"))
        .collect();
    assert_eq!(codes, vec![0, 1, 0]);

    let st = c.stats();
    assert_eq!(int_field(&st, "subscribers"), 1, "{st:?}");

    // Capture the stream until every job is done, then up to the
    // `unsubscribe` reply: everything published before the detach is on
    // the wire ahead of it.
    let mut events = Vec::new();
    let mut open = ids.len();
    while open > 0 {
        let v = sub
            .try_recv()
            .expect("stream ended before every done record");
        if str_field(&v, "event") == "done" {
            open -= 1;
        }
        events.push(v);
    }
    sub.send("{\"cmd\":\"unsubscribe\"}");
    let off = loop {
        let v = sub
            .try_recv()
            .expect("stream ended before the unsubscribe reply");
        if v.get("event").is_none() {
            break v;
        }
        events.push(v);
    };
    assert!(bool_field(&off, "ok"), "{off:?}");
    assert!(bool_field(&off, "unsubscribed"), "{off:?}");

    // Each job gets at least one heartbeat and one trace event strictly
    // before exactly one `done` record — guaranteed even for runs shorter
    // than the sampling period, because completion publishes a final
    // heartbeat and the trace tail under the same lock as `done`.
    for &id in &ids {
        let seen: Vec<String> = events
            .iter()
            .filter(|v| matches!(v.get("job"), Some(Json::Int(j)) if *j == id))
            .map(|v| str_field(v, "event"))
            .collect();
        let done_at = seen
            .iter()
            .position(|e| e == "done")
            .unwrap_or_else(|| panic!("job {id}: no done record in {seen:?}"));
        assert!(
            seen[..done_at].iter().any(|e| e == "heartbeat"),
            "job {id}: no heartbeat before done: {seen:?}"
        );
        assert!(
            seen[..done_at].iter().any(|e| e == "trace"),
            "job {id}: no trace event before done: {seen:?}"
        );
        assert_eq!(
            done_at + 1,
            seen.len(),
            "job {id}: events after done: {seen:?}"
        );
    }

    // The captured stream replays offline through `rlcheck report`.
    let capture = scratch("sub-capture", "jsonl");
    let text: String = events
        .iter()
        .map(|v| rl_json::to_string(v).expect("render event") + "\n")
        .collect();
    std::fs::write(&capture, text).expect("capture written");
    let (out, err, code) = run_rlcheck(&["report", capture.to_str().unwrap()]);
    let _ = std::fs::remove_file(&capture);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("stream: 3 job(s)"), "{out}");
    assert!(out.contains("done code 1"), "{out}");

    // The detached connection stays usable.
    let st = sub.stats();
    assert_eq!(int_field(&st, "subscribers"), 0, "{st:?}");
    let req = st.field("requests").expect("requests object");
    assert_eq!(int_field(req, "subscribe"), 1);
    assert_eq!(int_field(req, "unsubscribe"), 1);

    let ack = c.shutdown();
    assert_eq!(str_field(&ack, "status"), "draining");
    assert_eq!(d.wait_exit(), 0, "stderr: {}", d.stderr_text());
    assert!(d.stderr_text().contains("drained"), "{}", d.stderr_text());
}

#[test]
fn slow_subscriber_drops_events_but_never_stalls_the_job_or_drain() {
    // A tiny ring and a fast sampler guarantee overflow: far more events
    // are published per flush window than the ring can hold.
    let mut d = start_daemon(
        "slowsub",
        &["--jobs", "1"],
        &[("RL_PROGRESS_MS", "2"), ("RL_SUBSCRIBER_RING", "4")],
    );
    let mut sub = connect(&d);
    let ack = sub.request("{\"cmd\":\"subscribe\",\"id\":\"*\"}");
    assert!(bool_field(&ack, "ok"), "{ack:?}");
    assert_eq!(int_field(&ack, "ring_capacity"), 4);
    // The subscriber now goes silent: it never reads another byte.

    let mut c = connect(&d);
    let started = Instant::now();
    let r = c.request(&slow_submit(&[("timeout_ms", i(2_000))]));
    assert!(bool_field(&r, "ok"), "{r:?}");
    let done = c.wait_job(int_field(&r, "id"));
    // The job settles on its own 2s budget: publishing to a wedged
    // subscriber is drop-oldest into the ring, never a blocking write from
    // the worker, so the stall adds no meaningful delay.
    assert_eq!(int_field(&done, "code"), 3, "{done:?}");
    assert!(
        started.elapsed() < Duration::from_secs(15),
        "slow subscriber delayed the job: {:?}",
        started.elapsed()
    );

    let st = c.stats();
    assert!(
        int_field(&st, "events_dropped") > 0,
        "a 4-slot ring must overflow under a 2ms sampler: {st:?}"
    );

    // Drain completes within the grace window even though the subscriber
    // never read its stream.
    let ack = c.shutdown();
    assert_eq!(str_field(&ack, "status"), "draining");
    assert_eq!(d.wait_exit(), 0, "stderr: {}", d.stderr_text());
    assert!(d.stderr_text().contains("drained"), "{}", d.stderr_text());
    drop(sub);
}

#[test]
fn active_subscriber_leaves_deterministic_counters_unchanged() {
    let m_quiet = scratch("sub-quiet", "jsonl");
    let m_watched = scratch("sub-watched", "jsonl");
    let submit = |c: &mut Client| {
        for path in [
            "examples/systems/server.pn",
            "examples/systems/server_err.pn",
            "examples/systems/server.pn",
        ] {
            let r = c.request(&submit_line(&[
                ("path", s(path)),
                ("formula", s("[]<>result")),
            ]));
            assert!(bool_field(&r, "ok"), "{r:?}");
        }
    };

    // Daemon A: no subscriber.
    let mut quiet = start_daemon(
        "sub-quiet",
        &["--jobs", "4", "--metrics", m_quiet.to_str().unwrap()],
        &[],
    );
    let mut c = connect(&quiet);
    submit(&mut c);
    let codes: Vec<i64> = (1..=3)
        .map(|id| int_field(&c.wait_job(id), "code"))
        .collect();
    assert_eq!(codes, vec![0, 1, 0]);
    c.shutdown();
    assert_eq!(quiet.wait_exit(), 0);

    // Daemon B: identical jobs under an aggressive sampler and a live
    // subscriber reading the whole stream.
    let mut watched = start_daemon(
        "sub-watched",
        &["--jobs", "4", "--metrics", m_watched.to_str().unwrap()],
        &[("RL_PROGRESS_MS", "2")],
    );
    let mut sub = connect(&watched);
    // Subscribed before the first submit: the ack is the daemon's word.
    let ack = sub.request("{\"cmd\":\"subscribe\",\"id\":\"*\"}");
    assert!(bool_field(&ack, "ok"), "{ack:?}");
    let mut sub_reader = sub.reader;
    let reader = std::thread::spawn(move || {
        // Reads the whole stream until the daemon drains (EOF), counting
        // heartbeats; errors end the stream like EOF.
        let mut beats = 0u64;
        let mut line = String::new();
        loop {
            line.clear();
            match sub_reader.read_line(&mut line) {
                Ok(0) | Err(_) => return beats,
                Ok(_) => {
                    if line.contains("\"event\":\"heartbeat\"") {
                        beats += 1;
                    }
                }
            }
        }
    });
    let mut c = connect(&watched);
    submit(&mut c);
    let codes: Vec<i64> = (1..=3)
        .map(|id| int_field(&c.wait_job(id), "code"))
        .collect();
    assert_eq!(codes, vec![0, 1, 0], "verdicts unchanged under observation");
    c.shutdown();
    assert_eq!(watched.wait_exit(), 0);
    let beats = reader.join().expect("reader thread");
    assert!(beats >= 1, "the subscriber observed the jobs");

    // The observed daemon's deterministic per-job counters are bit-for-bit
    // those of the unobserved one: same span paths, states, transitions
    // and guard charges, for every job.
    let quiet_spans = job_spans(&m_quiet, &[1, 2, 3]);
    let watched_spans = job_spans(&m_watched, &[1, 2, 3]);
    assert!(!quiet_spans.is_empty(), "metrics record job spans");
    assert_eq!(quiet_spans, watched_spans);
}

#[test]
fn injected_subscriber_drop_severs_the_stream_but_not_the_job() {
    // The fault point arms the first non-empty subscriber flush: the
    // stream is severed mid-job, exactly like a crashed `top`.
    let d = start_daemon(
        "dropsub",
        &["--jobs", "1"],
        &[("RL_FAULT", "serve-drop-sub:1"), ("RL_PROGRESS_MS", "5")],
    );
    let mut sub = connect(&d);
    let ack = sub.request("{\"cmd\":\"subscribe\",\"id\":\"*\"}");
    assert!(bool_field(&ack, "ok"), "{ack:?}");

    let mut c = connect(&d);
    let r = c.request(&submit_line(&[
        ("path", s("examples/systems/server.pn")),
        ("formula", s("[]<>result")),
    ]));
    let done = c.wait_job(int_field(&r, "id"));
    assert_eq!(int_field(&done, "code"), 0, "job unaffected: {done:?}");

    // The severed subscriber sees EOF, and the daemon reaps its
    // subscription within a heartbeat.
    assert!(sub.try_recv().is_none(), "stream should be severed");
    let st = poll_stats(&mut c, "subscriber-free", |st| {
        int_field(st, "subscribers") == 0
    });
    assert_eq!(int_field(&st, "completed"), 1, "{st:?}");
}

#[test]
fn injected_connection_drop_cancels_like_a_real_disconnect() {
    // The server-side fault point severs the connection after the second
    // reply; the submitted job must be cancelled exactly as if the client
    // had crashed.
    let d = start_daemon(
        "dropconn",
        &["--jobs", "1"],
        &[("RL_FAULT", "serve-drop-conn:2")],
    );
    let mut a = connect(&d);
    let r = a.request(&slow_submit(&[("timeout_ms", i(20_000))]));
    let id = int_field(&r, "id");
    let _ = a.request("{\"cmd\":\"stats\"}"); // second reply, then the drop
    assert!(
        a.try_recv().is_none(),
        "connection should be severed after the armed reply"
    );

    let mut b = connect(&d);
    let done = b.wait_job(id);
    assert_eq!(int_field(&done, "code"), 3, "{done:?}");
    let st = b.stats();
    assert_eq!(int_field(&st, "cancelled"), 1);
}

// ---------------------------------------------------------------------------
// The percentile telemetry plane: the `metrics` verb, the persistent
// journal, and the SLO regression gate.

/// Runs the `rlcheck` binary as a one-shot subcommand (report/slo) from the
/// repository root; returns (stdout, stderr, exit code).
fn run_rlcheck(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_rlcheck"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("rlcheck runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

/// Whether `line` is a Prometheus exposition sample: a metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`), optionally `{labels}`, one space, and an
/// integer or decimal value.
fn is_exposition_sample(line: &str) -> bool {
    let Some((name_labels, value)) = line.split_once(' ') else {
        return false;
    };
    let (name, labels) = match name_labels.split_once('{') {
        Some((name, rest)) => (name, Some(rest)),
        None => (name_labels, None),
    };
    let name_ok = name.chars().enumerate().all(|(i, c)| {
        c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
    }) && !name.is_empty();
    let labels_ok =
        labels.is_none_or(|l| l.ends_with('}') && !l[..l.len() - 1].contains(['{', '}']));
    let digits = |d: &str| !d.is_empty() && d.chars().all(|c| c.is_ascii_digit());
    let unsigned = value.strip_prefix('-').unwrap_or(value);
    let value_ok = match unsigned.split_once('.') {
        Some((int, frac)) => digits(int) && digits(frac),
        None => digits(unsigned),
    };
    name_ok && labels_ok && value_ok
}

#[test]
fn metrics_verb_emits_prometheus_exposition_and_jsonl() {
    let mut d = start_daemon("metrics", &["--jobs", "2"], &[]);
    let mut c = connect(&d);
    for (path, formula) in [
        ("examples/systems/server.pn", "[]<>result"),
        ("examples/systems/clock.ts", "[]<>tick"),
    ] {
        let r = c.request(&submit_line(&[("path", s(path)), ("formula", s(formula))]));
        assert!(bool_field(&r, "ok"), "{r:?}");
        let done = c.wait_job(int_field(&r, "id"));
        assert!(matches!(int_field(&done, "code"), 0 | 1), "{done:?}");
    }

    let m = c.request("{\"cmd\":\"metrics\"}");
    assert!(bool_field(&m, "ok"), "{m:?}");
    assert_eq!(str_field(&m, "format"), "prometheus");
    let body = str_field(&m, "body");
    assert!(body.contains("rl_serve_submitted_total 2"), "{body}");
    // Every line is a comment or a `name{labels} value` sample.
    for line in body
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        assert!(is_exposition_sample(line), "malformed sample line {line:?}");
    }
    // Every histogram's cumulative buckets never decrease in `le` order,
    // end at `+Inf`, and the `+Inf` bucket equals `_count`.
    let histograms: Vec<&str> = body
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.strip_suffix(" histogram"))
        .collect();
    assert!(!histograms.is_empty(), "{body}");
    for family in &histograms {
        let value = |l: &str| -> u64 {
            let v = l.rsplit(' ').next().expect("a value");
            v.parse().unwrap_or_else(|_| panic!("bad count in {l:?}"))
        };
        let buckets: Vec<(&str, u64)> = body
            .lines()
            .filter_map(|l| {
                let le = l.strip_prefix(&format!("{family}_bucket{{le=\""))?;
                Some((le.split('"').next().expect("closing quote"), value(l)))
            })
            .collect();
        let count = body
            .lines()
            .find(|l| l.starts_with(&format!("{family}_count ")))
            .map(value);
        assert!(
            body.lines()
                .any(|l| l.starts_with(&format!("{family}_sum "))),
            "{family} lacks _sum:\n{body}"
        );
        assert!(
            buckets.windows(2).all(|w| w[0].1 <= w[1].1),
            "{family} buckets decrease: {buckets:?}"
        );
        assert_eq!(buckets.last().map(|b| b.0), Some("+Inf"), "{family}");
        assert_eq!(
            buckets.last().map(|b| b.1),
            count,
            "{family}: +Inf != _count"
        );
    }
    // Checks no longer memoize, yet the exposition keeps this counter at 0
    // for readers that still scrape it.
    assert!(
        body.lines().any(|l| l == "rl_opcache_hits_total 0"),
        "{body}"
    );
    // The acceptance families: queue wait, job wall time and admission
    // latency — each a well-formed histogram with cumulative buckets
    // closed by +Inf.
    for family in [
        "rl_serve_queue_wait_us",
        "rl_serve_job_wall_us",
        "rl_serve_admission_us",
    ] {
        assert!(
            body.contains(&format!("# TYPE {family} histogram")),
            "missing family {family} in:\n{body}"
        );
        assert!(
            body.contains(&format!("{family}_bucket{{le=\"+Inf\"}}")),
            "{family} lacks the +Inf bucket:\n{body}"
        );
        assert!(body.contains(&format!("{family}_count")), "{body}");
        assert!(body.contains(&format!("{family}_sum")), "{body}");
    }

    // The JSONL variant: one parseable `hist` event per family.
    let j = c.request("{\"cmd\":\"metrics\",\"format\":\"jsonl\"}");
    assert!(bool_field(&j, "ok"), "{j:?}");
    let body = str_field(&j, "body");
    let mut families = 0;
    for line in body.lines() {
        let v = rl_json::parse(line).unwrap_or_else(|e| panic!("bad hist line {line:?}: {e}"));
        assert_eq!(str_field(&v, "event"), "hist");
        assert!(int_field(&v, "count") >= 1, "{line}");
        families += 1;
    }
    assert!(
        families >= 3,
        "expected >= 3 families, got {families}:\n{body}"
    );

    // Unknown formats are an error reply, not a disconnect.
    let bad = c.request("{\"cmd\":\"metrics\",\"format\":\"xml\"}");
    assert!(!bool_field(&bad, "ok"), "{bad:?}");

    // The verb counts itself in the stats reply.
    let st = c.stats();
    let req = st.field("requests").expect("requests object");
    assert_eq!(int_field(req, "metrics"), 3);

    assert_eq!(str_field(&c.shutdown(), "status"), "draining");
    assert_eq!(d.wait_exit(), 0);
}

#[test]
fn metrics_journal_survives_restart_and_gates_slo() {
    let dir = scratch("journal", "d");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("journal dir");
    let dir_s = dir.to_str().expect("utf8 path");

    // Two daemon lifetimes over one journal directory: each run appends its
    // own rotated segment and flushes a final sample at drain.
    for round in 0..2 {
        let mut d = start_daemon(
            &format!("journal{round}"),
            &["--metrics-dir", dir_s],
            &[("RL_PROGRESS_MS", "40")],
        );
        let mut c = connect(&d);
        let r = c.request(&submit_line(&[
            ("path", s("examples/systems/server.pn")),
            ("formula", s("[]<>result")),
        ]));
        assert!(bool_field(&r, "ok"), "{r:?}");
        c.wait_job(int_field(&r, "id"));
        c.shutdown();
        assert_eq!(d.wait_exit(), 0, "stderr: {}", d.stderr_text());
    }

    // `report --dir` stitches both runs into one time series.
    let (out, err, code) = run_rlcheck(&["report", "--dir", dir_s]);
    assert_eq!(code, 0, "report --dir failed: {err}");
    assert!(out.contains("2 runs"), "{out}");
    assert!(out.contains("p50"), "{out}");
    assert!(out.contains("p99"), "{out}");
    assert!(out.contains("serve/job_wall_us"), "{out}");
    assert!(out.contains("time series: serve/queue_wait_us"), "{out}");

    // The committed baseline passes against a healthy journal…
    let (out, err, code) = run_rlcheck(&["slo", "SLO_BASELINE.json", "--dir", dir_s]);
    assert_eq!(code, 0, "slo gate failed: {err}");
    assert!(out.contains("slo: ok"), "{out}");
    // …and an injected regression (0µs ceiling on job wall time, zero
    // tolerance) exits 1 with the violating family named.
    let tight = scratch("slo-tight", "json");
    std::fs::write(
        &tight,
        "{\"schema\":\"rl-slo/v1\",\"tolerance_pct\":0,\
         \"families\":{\"serve/job_wall_us\":{\"p99\":0}}}",
    )
    .expect("tight baseline");
    let (_, err, code) = run_rlcheck(&["slo", tight.to_str().expect("utf8"), "--dir", dir_s]);
    assert_eq!(code, 1, "tight gate must fail: {err}");
    assert!(err.contains("serve/job_wall_us"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&tight);
}

#[test]
fn misconfigured_knobs_warn_once_on_daemon_stderr() {
    // Garbage in both env knobs: the daemon must say so (once each) and
    // keep serving with the defaults rather than silently misbehaving.
    let mut d = start_daemon(
        "badknobs",
        &[],
        &[("RL_PROGRESS_MS", "1s"), ("RL_SUBSCRIBER_RING", "big")],
    );
    // A subscriber forces the ring-capacity knob to be read (it is parsed
    // per subscription, deduped by the warn-once policy).
    let mut sub = connect(&d);
    let ack = sub.request("{\"cmd\":\"subscribe\",\"id\":\"*\"}");
    assert!(bool_field(&ack, "ok"), "{ack:?}");
    let mut c = connect(&d);
    let r = c.request(&submit_line(&[
        ("path", s("examples/systems/server.pn")),
        ("formula", s("[]<>result")),
    ]));
    assert!(bool_field(&r, "ok"), "{r:?}");
    c.wait_job(int_field(&r, "id"));
    c.shutdown();
    assert_eq!(d.wait_exit(), 0);
    let err = d.stderr_text();
    assert_eq!(
        err.matches("warning: RL_PROGRESS_MS=\"1s\"").count(),
        1,
        "stderr: {err}"
    );
    assert_eq!(
        err.matches("warning: RL_SUBSCRIBER_RING=\"big\"").count(),
        1,
        "stderr: {err}"
    );
}

#[test]
fn deep_formula_is_a_parse_error_and_the_daemon_keeps_serving() {
    // 2000 nested parentheses once overflowed the pool worker's stack and
    // aborted the daemon with every sibling job; now the parser's depth cap
    // turns it into a usage error for this job alone.
    let mut d = start_daemon("deep", &["--jobs", "2"], &[]);
    let mut c = connect(&d);
    let deep = format!("{}tick{}", "(".repeat(2000), ")".repeat(2000));
    let r = c.request(&submit_line(&[
        ("path", s("examples/systems/clock.ts")),
        ("formula", s(&deep)),
    ]));
    assert!(bool_field(&r, "ok"), "{r:?}");
    let done = c.wait_job(int_field(&r, "id"));
    assert_eq!(int_field(&done, "code"), 2, "{done:?}");
    assert!(
        str_field(&done, "diagnostics").contains("formula nests deeper than"),
        "{done:?}"
    );

    let r = c.request(&submit_line(&[
        ("path", s("examples/systems/clock.ts")),
        ("formula", s("[]<>tick")),
    ]));
    assert!(bool_field(&r, "ok"), "{r:?}");
    let done = c.wait_job(int_field(&r, "id"));
    assert_eq!(int_field(&done, "code"), 0, "{done:?}");

    assert_eq!(str_field(&c.shutdown(), "status"), "draining");
    assert_eq!(d.wait_exit(), 0, "clean drain exits 0");
}

#[test]
fn oversize_request_line_is_refused_and_the_daemon_keeps_serving() {
    let mut d = start_daemon("bigline", &["--jobs", "2"], &[]);
    let mut c = connect(&d);
    // A daemon that keeps buffering fails the test instead of hanging it.
    c.reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    // One byte past the 16 MiB pending-line cap, and no newline.
    c.writer
        .write_all(&vec![b'x'; (16 << 20) + 1])
        .expect("oversize write");
    let r = c.try_recv().expect("an error reply before the close");
    assert!(!bool_field(&r, "ok"), "{r:?}");
    assert!(str_field(&r, "error").contains("exceeds"), "{r:?}");
    assert!(c.try_recv().is_none(), "the connection is closed");

    let mut c = connect(&d);
    let r = c.request(&submit_line(&[
        ("path", s("examples/systems/clock.ts")),
        ("formula", s("[]<>tick")),
    ]));
    assert!(bool_field(&r, "ok"), "{r:?}");
    let done = c.wait_job(int_field(&r, "id"));
    assert_eq!(int_field(&done, "code"), 0, "{done:?}");
    assert_eq!(str_field(&c.shutdown(), "status"), "draining");
    assert_eq!(d.wait_exit(), 0, "clean drain exits 0");
}

/// One seeded mutation of a valid request line: a truncation, byte flips,
/// a field of the wrong type, an out-of-range id or an unknown verb. The
/// result never contains a newline and never trims to empty, so the daemon
/// owes it exactly one reply.
fn mutate(rng: &mut rand::rngs::StdRng, valid: &str) -> Vec<u8> {
    use rand::Rng;
    let bytes = valid.as_bytes();
    let pick = |rng: &mut rand::rngs::StdRng, options: &[&str]| {
        options[rng.gen_range(0..options.len())].to_owned()
    };
    let line = match rng.gen_range(0..5u32) {
        0 => return bytes[..rng.gen_range(1..bytes.len())].to_vec(),
        1 => {
            let mut out = bytes.to_vec();
            for _ in 0..rng.gen_range(1..4usize) {
                let at = rng.gen_range(0..out.len());
                out[at] = match rng.gen_range(0..256u32) as u8 {
                    b'\n' => b'?',
                    b => b,
                };
            }
            return out;
        }
        2 => pick(
            rng,
            &[
                r#"{"cmd":"status","id":"1"}"#,
                r#"{"cmd":"wait","id":[1]}"#,
                r#"{"cmd":"wait","id":{"id":1}}"#,
                r#"{"cmd":"status","id":1.5}"#,
                r#"{"cmd":7}"#,
                r#"{"cmd":null,"id":1}"#,
                r#"["submit"]"#,
                r#""wait""#,
                r#"{"cmd":"submit","path":7,"formula":"[]<>tick"}"#,
                r#"{"cmd":"submit","path":"examples/systems/clock.ts","formula":null}"#,
                r#"{"cmd":"submit","system":false,"formula":"[]<>tick"}"#,
                r#"{"cmd":"submit","path":"examples/systems/clock.ts","formula":"[]<>tick","max_states":"many"}"#,
                r#"{"cmd":"submit","path":"examples/systems/clock.ts","formula":"[]<>tick","timeout_ms":-5}"#,
                r#"{"cmd":"submit","path":"examples/systems/clock.ts","formula":"[]<>tick","no_lazy":"yes"}"#,
            ],
        ),
        3 => format!(
            r#"{{"cmd":"{}","id":{}}}"#,
            pick(rng, &["status", "wait", "cancel"]),
            pick(
                rng,
                &[
                    "-1",
                    "-9223372036854775808",
                    "9223372036854775807",
                    "18446744073709551616",
                    "99999999999999999999999999",
                    "1e300",
                    "-0",
                ],
            )
        ),
        _ => format!(
            r#"{{"cmd":"{}","id":1}}"#,
            pick(
                rng,
                &["frob", "SUBMIT", "wait ", "", "submit\\u0000", "stat"]
            )
        ),
    };
    line.into_bytes()
}

#[test]
fn malformed_wire_lines_get_one_reply_each_and_the_connection_survives() {
    use rand::SeedableRng;
    let mut d = start_daemon("fuzz", &["--jobs", "2"], &[]);
    let mut c = connect(&d);
    // A lost reply fails the test instead of hanging it.
    c.reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let valid = [
        submit_line(&[
            ("path", s("examples/systems/clock.ts")),
            ("formula", s("[]<>tick")),
        ]),
        r#"{"cmd":"status","id":1}"#.to_owned(),
        r#"{"cmd":"wait","id":1}"#.to_owned(),
    ];
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
    for case in 0..300 {
        let mut line = mutate(&mut rng, &valid[case % valid.len()]);
        let shown = String::from_utf8_lossy(&line).into_owned();
        line.push(b'\n');
        c.writer.write_all(&line).expect("mutated line write");
        // The mutated line's reply, then the reply to a `stats` probe: a
        // missing or doubled reply shows up as a misplaced `uptime_ms`.
        let reply = c
            .try_recv()
            .unwrap_or_else(|| panic!("connection closed after {shown:?}"));
        assert!(reply.get("ok").is_some(), "{shown:?} -> {reply:?}");
        assert!(reply.get("uptime_ms").is_none(), "{shown:?} got no reply");
        let probe = c.stats();
        assert!(
            probe.get("uptime_ms").is_some(),
            "{shown:?} got more than one reply: {probe:?}"
        );
    }
    let stats = c.stats();
    assert!(bool_field(&stats, "ok"), "{stats:?}");
    assert_eq!(int_field(&stats, "panicked"), 0, "{stats:?}");
    assert_eq!(str_field(&c.shutdown(), "status"), "draining");
    assert_eq!(d.wait_exit(), 0, "clean drain exits 0");
}
