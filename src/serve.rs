//! `rlcheck serve` — a fault-isolated checking service.
//!
//! A long-running daemon that accepts relative-liveness check jobs over a
//! Unix domain socket, so heavy fan-in traffic shares one warm process
//! instead of paying a fresh CLI start per check of the paper's
//! `pre(L_ω) = pre(L_ω ∩ P)` test (Lemma 4.3). Robustness is the
//! design driver; DESIGN.md §12 is the architecture chapter. In brief:
//!
//! * **Wire protocol** — line-delimited JSON, one request object per line,
//!   one reply object per line: `submit`, `status`, `wait`, `cancel`,
//!   `stats`, `metrics`, `subscribe`, `unsubscribe`, `shutdown`. See the
//!   README for examples.
//! * **Percentile telemetry** — a service-global [`HistogramRegistry`]
//!   records queue wait, job wall time, admission latency, subscriber
//!   write stalls and pool steal/park latencies.
//!   The `metrics` verb exposes it as Prometheus text exposition (or
//!   rl-obs/v3 JSONL), and `--metrics-dir` persists interval snapshots to
//!   a rotating journal that `rlcheck report --dir` renders and
//!   `rlcheck slo` gates on.
//! * **Live streaming** — `subscribe` attaches this connection to the
//!   telemetry plane: heartbeat events sampled from each running job's
//!   [`GuardProbe`] atomics plus the job's tracer events, fanned out
//!   through a per-subscriber bounded ring with drop-oldest backpressure
//!   (`RL_SUBSCRIBER_RING` lines), so a slow subscriber can never stall a
//!   job, a sibling, or drain. Deterministic counters are bit-for-bit
//!   unaffected by subscribers: jobs meter themselves identically whether
//!   or not anyone is watching.
//! * **Isolation** — every job runs on the shared work-stealing [`Pool`]
//!   under its own [`Guard`] (deadline, max-states, cancel token) behind
//!   `catch_unwind`: a poisoned job replies `code 101` and its siblings —
//!   and the process — keep going.
//! * **Admission control** — jobs are charged their declared `max_states`
//!   against a configurable in-flight ceiling. Over the ceiling, jobs
//!   queue (FIFO) up to a queue cap, then are rejected outright:
//!   backpressure instead of OOM.
//! * **Client failure** — a dropped connection cancels that client's
//!   unfinished jobs through their [`CancelToken`]s within one heartbeat,
//!   so abandoned work frees its budget.
//! * **Result retention** — `wait` is a consuming handoff: delivering a
//!   result reaps the job record. Undelivered results are reaped when
//!   their submitting connection closes, or after `RL_RESULT_TTL_MS`
//!   (default 10 min) for orphans, so a resident service's job table
//!   stays bounded no matter how many jobs it ever served. Metrics
//!   shards are captured at completion and outlive the records.
//! * **Graceful drain** — a `shutdown` request or SIGINT/SIGTERM (the CLI
//!   wires the signal token) stops admission, cancels queued jobs, lets
//!   running jobs finish (cancelling them after a grace period), absorbs
//!   every job's metrics shard, and only then lets the CLI flush the
//!   rl-obs sinks.
//! * **Fault injection** — the deterministic `RL_FAULT` points
//!   `job-panic:<id>` (value-matched), `serve-drop-conn:<n>`, and
//!   `serve-drop-sub:<n>` (occurrence-counted) let the integration tests
//!   provoke each failure mode on demand; see [`rl_automata::fault`].

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write as IoWrite};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rl_automata::{fault, Budget, CancelToken, Guard, GuardProbe, Pool};
use rl_core::CheckError;
use rl_json::{Json, ObjBuilder, ToJson};
use rl_obs::{
    hist_event_json, knobs, render_prometheus, HistogramRegistry, JournalSample, JournalWriter,
    MetricsRegistry, RegistrySnapshot, StreamBus, StreamSubscription, Tracer,
};

use crate::check::{report_check, CheckSpec, SystemSource};

/// A job with no declared `--max-states` still occupies admission budget;
/// this is its assumed weight (states) against the in-flight ceiling.
pub const DEFAULT_JOB_WEIGHT: u64 = 1 << 20;

/// The longest request line a connection may hold pending (16 MiB), far
/// above any inline `system` a client sends. A connection whose unfinished
/// line grows past it gets an error reply and is closed, so one client
/// streaming bytes without a newline cannot grow the daemon's memory.
const MAX_REQUEST_LINE: usize = 16 << 20;

/// Configuration of one service instance, assembled by the CLI front end.
pub struct ServeConfig {
    /// Path of the Unix domain socket to listen on.
    pub socket: String,
    /// Worker threads of the shared checking pool.
    pub threads: usize,
    /// Default per-job budget (`--timeout`/`--max-states`); a `submit` may
    /// tighten it with `timeout_ms`/`max_states` fields.
    pub job_budget: Budget,
    /// Admission ceiling: the sum of in-flight jobs' declared max-states
    /// weights may not exceed this. `None` disables admission control.
    pub max_inflight_states: Option<u64>,
    /// Jobs allowed to wait for admission before submits are rejected.
    pub queue_cap: usize,
    /// Event-level tracer shared by the pool and the jobs (`--trace-out`).
    pub tracer: Option<Arc<Tracer>>,
    /// Service-wide `--no-lazy`: jobs run the eager materializing pipeline
    /// instead of the lazy fused one. A `submit` may also opt out per job
    /// with a `no_lazy` field.
    pub no_lazy: bool,
    /// Directory of the persistent metrics journal (`--metrics-dir`):
    /// the sampler appends interval snapshots of the service counters and
    /// histograms to rotating JSONL segments that survive restarts and are
    /// rendered by `rlcheck report --dir`.
    pub metrics_dir: Option<String>,
}

/// The heartbeat period: connection reads time out at this cadence (which
/// bounds how fast drains close idle connections) and the accept loop polls
/// at a quarter of it. `RL_HEARTBEAT_MS` overrides, for tests.
fn heartbeat() -> Duration {
    let ms = std::env::var("RL_HEARTBEAT_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100u64);
    Duration::from_millis(ms.max(1))
}

/// How long a drain waits for running jobs before cancelling them.
/// `RL_DRAIN_GRACE_MS` overrides, for tests.
fn drain_grace() -> Duration {
    let ms = std::env::var("RL_DRAIN_GRACE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5_000u64);
    Duration::from_millis(ms)
}

/// How long an undelivered result is retained for `status`/`wait` pickup
/// once its job is done. The accept loop sweeps expired records so a
/// resident service's job table cannot grow without bound even when
/// clients never collect. `RL_RESULT_TTL_MS` overrides, for tests.
fn result_ttl() -> Duration {
    let ms = std::env::var("RL_RESULT_TTL_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(600_000u64);
    Duration::from_millis(ms.max(1))
}

/// How often the fan-out sampler publishes a heartbeat for each running
/// job. Shares `RL_PROGRESS_MS` with the one-shot `--progress` sampler
/// (default one second) since both are the same "how fast do humans need
/// progress" knob.
fn progress_period() -> Duration {
    Duration::from_millis(knobs::env_u64("RL_PROGRESS_MS", 1_000).max(1))
}

/// Per-subscriber ring capacity (buffered event lines). Overflow drops the
/// oldest line and counts it — the knob trades replay completeness for
/// bounded memory per subscriber. `RL_SUBSCRIBER_RING` overrides, for
/// tests (which shrink it to force drops deterministically).
fn ring_capacity() -> usize {
    knobs::env_u64("RL_SUBSCRIBER_RING", 1_024).max(1) as usize
}

/// Lifecycle of one submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    /// Waiting for admission capacity.
    Queued,
    /// Admitted; running (or enqueued) on the pool.
    Running,
    /// Finished — result recorded.
    Done,
}

impl JobState {
    fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
        }
    }
}

/// The outcome of one job, recorded at completion.
struct JobResult {
    /// Exit-code scheme of the CLI: 0 holds, 1 fails, 2 input error,
    /// 3 budget/cancelled, 101 panic.
    code: u8,
    /// The relative-liveness verdict, when one was reached.
    holds: Option<bool>,
    /// The buffered report.
    out: String,
    /// Buffered diagnostics.
    err: String,
    /// The job's metrics shard, absorbed into the parent registry at drain.
    snapshot: Option<RegistrySnapshot>,
}

/// One entry of the job table.
struct JobRecord {
    spec: CheckSpec,
    budget: Budget,
    /// Whether this job runs the lazy fused pipeline (service default,
    /// overridable per submit via `no_lazy`).
    lazy: bool,
    /// Admission weight (declared max-states, or [`DEFAULT_JOB_WEIGHT`]).
    weight: u64,
    /// Id of the submitting connection — disconnects cancel by this.
    conn: u64,
    /// When the submit was accepted — start of the `serve/queue_wait_us`
    /// clock, stopped when a worker picks the job up.
    submitted_at: Instant,
    cancel: CancelToken,
    state: JobState,
    result: Option<JobResult>,
    /// When the job settled — starts the undelivered-result TTL clock.
    done_at: Option<Instant>,
    /// The job's telemetry taps, registered when it starts on a worker.
    stream: Option<Arc<JobStream>>,
}

/// The read-only telemetry taps of one running job: the guard probe the
/// sampler reads heartbeats from and the per-job tracer it forwards
/// incrementally. Both are sampling windows — publishing through them
/// never touches the job's execution path, which is what keeps
/// deterministic counters independent of subscribers.
struct JobStream {
    probe: GuardProbe,
    tracer: Arc<Tracer>,
    /// Serializes sampler ticks against the completion flush so the final
    /// heartbeat and trace tail always precede the `done` record.
    publish: Mutex<()>,
    /// Set by the completion flush (under `publish`): a sampler tick that
    /// sampled the job as running but lost the race stops short instead of
    /// publishing a heartbeat after `done` — per job, `done` is last.
    finished: AtomicBool,
}

/// Monotonic service counters, reported by `stats` and folded into the
/// metrics registry at drain as `serve/*` counters.
#[derive(Debug, Clone, Copy, Default)]
struct ServeCounters {
    submitted: u64,
    admitted: u64,
    queued: u64,
    rejected: u64,
    completed: u64,
    panicked: u64,
    cancelled: u64,
    /// High-water mark of the in-flight state budget — the direct witness
    /// that admission never overcommitted the ceiling.
    peak_inflight: u64,
    /// Requests handled, by verb — the `stats` reply's `requests` object.
    verbs: VerbCounters,
}

/// Per-verb request counters (every parsed request with a `cmd` counts,
/// including ones that then fail validation).
#[derive(Debug, Clone, Copy, Default)]
struct VerbCounters {
    submit: u64,
    status: u64,
    wait: u64,
    cancel: u64,
    stats: u64,
    metrics: u64,
    subscribe: u64,
    unsubscribe: u64,
    shutdown: u64,
    unknown: u64,
}

/// The mutable half of the server, behind one mutex.
struct Table {
    next_job: u64,
    /// Sum of the weights of `Running` jobs.
    inflight: u64,
    /// Job ids waiting for admission, in submission order.
    queue: VecDeque<u64>,
    entries: HashMap<u64, JobRecord>,
    /// Metrics shards of settled jobs, in completion order. Kept apart
    /// from `entries` because job records are reaped once their result is
    /// delivered, while the shards must survive until the drain absorbs
    /// them (sorted by job id) into the parent registry.
    shards: Vec<(u64, RegistrySnapshot)>,
    draining: bool,
    counters: ServeCounters,
}

/// Shared server state: the job table plus the immutable plumbing.
struct Core {
    jobs: Mutex<Table>,
    /// Notified on every completion, admission, or drain transition.
    changed: Condvar,
    pool: Pool,
    tracer: Option<Arc<Tracer>>,
    /// Whether jobs should ship their metrics shards home for the drain
    /// (jobs always meter themselves — see [`run_job`] — so subscriber
    /// presence can never change what gets counted).
    want_snapshots: bool,
    max_inflight: Option<u64>,
    queue_cap: usize,
    default_budget: Budget,
    /// Service-wide lazy opt-out (`--no-lazy`), the default for submits
    /// that carry no `no_lazy` field.
    no_lazy: bool,
    /// The subscriber fan-out plane.
    bus: StreamBus,
    /// Service-global percentile plane: queue wait, job wall time,
    /// admission latency, subscriber write stalls and the pool's
    /// latencies. Exposed by the `metrics` verb and journaled by the
    /// sampler.
    hists: HistogramRegistry,
    /// The persistent metrics journal (`--metrics-dir`), appended by the
    /// sampler thread and once more at drain.
    journal: Option<Mutex<JournalWriter>>,
    /// When the service started — the `stats` reply's `uptime_ms`.
    started: Instant,
    /// Wall-clock start time stamped into every journal sample, so the
    /// reader can tell two runs apart even when their uptimes never
    /// overlap enough for the uptime-drop heuristic.
    run_id: u64,
}

impl Core {
    fn lock(&self) -> MutexGuard<'_, Table> {
        self.jobs
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn draining(&self) -> bool {
        self.lock().draining
    }
}

/// What the connection loop should do after writing a reply.
enum Action {
    /// Keep reading requests.
    Continue,
    /// Close this connection (a `shutdown` acknowledgment).
    Close,
}

/// How a submit was admitted.
enum Admission {
    Run,
    Queue,
    Reject(String),
}

fn admission_decision(t: &Table, core: &Core, weight: u64) -> Admission {
    if t.draining {
        return Admission::Reject("server is draining".to_owned());
    }
    let Some(cap) = core.max_inflight else {
        return Admission::Run;
    };
    if weight > cap {
        return Admission::Reject(format!(
            "declared budget of {weight} states exceeds the admission ceiling of {cap}"
        ));
    }
    if t.inflight + weight <= cap {
        Admission::Run
    } else if t.queue.len() < core.queue_cap {
        Admission::Queue
    } else {
        Admission::Reject(format!(
            "in-flight state budget exhausted ({} of {cap} states in flight, queue full)",
            t.inflight
        ))
    }
}

/// Flips `id` to `Running` and charges its weight against the in-flight
/// budget. Must run in the SAME lock scope as the decision to admit:
/// charging under a later, separate lock acquisition would let concurrent
/// submits — or the re-admission loop itself — judge the ceiling against
/// a stale in-flight sum and overcommit it many times over.
fn charge_locked(t: &mut Table, id: u64) {
    if let Some(e) = t.entries.get_mut(&id) {
        e.state = JobState::Running;
        t.inflight += e.weight;
        t.counters.admitted += 1;
        t.counters.peak_inflight = t.counters.peak_inflight.max(t.inflight);
    }
}

/// Hands an already-charged (`Running`) job to the pool. The table lock
/// must NOT be held.
fn spawn_job(core: &Arc<Core>, id: u64) {
    let worker_core = Arc::clone(core);
    core.pool.execute(move || run_job(&worker_core, id));
}

/// Marks `id` done with `result` under the table lock: moves the job's
/// metrics shard to the drain-ordered shard list, stamps the retention
/// clock, and counts the completion.
fn settle_locked(t: &mut Table, id: u64, mut result: JobResult) {
    if !t.entries.contains_key(&id) {
        return;
    }
    if let Some(shard) = result.snapshot.take() {
        t.shards.push((id, shard));
    }
    let e = t.entries.get_mut(&id).expect("presence checked above");
    e.state = JobState::Done;
    e.done_at = Some(Instant::now());
    e.result = Some(result);
    t.counters.completed += 1;
}

/// Executes one job on a pool worker: builds the per-job guard, runs the
/// shared check pipeline behind `catch_unwind`, and records the result.
fn run_job(core: &Arc<Core>, id: u64) {
    let (spec, budget, cancel, lazy, submitted_at) = {
        let t = core.lock();
        let Some(e) = t.entries.get(&id) else {
            return;
        };
        (
            e.spec.clone(),
            e.budget.clone(),
            e.cancel.clone(),
            e.lazy,
            e.submitted_at,
        )
    };
    core.hists
        .hist("serve/queue_wait_us")
        .record_elapsed_us(submitted_at);
    // The shard registry lives outside the unwind boundary so a panicking
    // job still ships its partial spans (closed-so-far) home. Every job
    // meters itself into a per-job registry and tracer unconditionally:
    // subscribers only *read* the resulting probe/tracer, so whether
    // anyone is watching cannot change what the job executes or counts.
    let reg = MetricsRegistry::new();
    let job_tracer = Arc::new(Tracer::new());
    let global_offset = core.tracer.as_ref().map(|t| t.now_us());
    reg.set_tracer(Arc::clone(&job_tracer));
    let was_cancelled = cancel.clone();
    let guard = Guard::with_cancel(budget, cancel)
        .with_lazy(lazy)
        .with_metrics(reg.clone());
    let stream = Arc::new(JobStream {
        probe: guard.probe(),
        tracer: Arc::clone(&job_tracer),
        publish: Mutex::new(()),
        finished: AtomicBool::new(false),
    });
    {
        let mut t = core.lock();
        if let Some(e) = t.entries.get_mut(&id) {
            e.stream = Some(Arc::clone(&stream));
        }
    }
    let wall_started = Instant::now();
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        if fault::armed_value("job-panic") == Some(id) {
            panic!("injected panic (RL_FAULT=job-panic:{id})");
        }
        let mut out = String::new();
        let mut err = String::new();
        let code = report_check(&spec, &guard, &mut out, &mut err);
        let holds = matches!(code, 0 | 1).then(|| code == 0);
        (code, holds, out, err)
    }));
    core.hists
        .hist("serve/job_wall_us")
        .record_elapsed_us(wall_started);
    let result = match outcome {
        Ok((code, holds, out, err)) => JobResult {
            code,
            holds,
            out,
            err,
            snapshot: core.want_snapshots.then(|| reg.snapshot()),
        },
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_owned());
            JobResult {
                code: 101,
                holds: None,
                out: String::new(),
                err: format!("rlcheck: internal panic: {msg}\n"),
                snapshot: core.want_snapshots.then(|| reg.snapshot()),
            }
        }
    };
    // Final stream flush — last heartbeat, trace tail, `done` — before the
    // result settles, so a subscriber always sees telemetry precede the
    // job's completion.
    publish_job_final(core, id, &stream, result.code);
    // Merge the job's timeline into the global tracer (`--trace-out`),
    // still on this worker thread — inside the pool's task bracket — so
    // per-track B/E nesting stays valid in the merged stream.
    if let Some((global, offset)) = core.tracer.as_ref().zip(global_offset) {
        global.absorb_events(offset, &job_tracer.events());
    }
    complete(core, id, result, was_cancelled.is_cancelled());
}

/// Serializes `value` and fans it out to subscribers following `job`.
fn publish_json(core: &Core, job: u64, value: &Json) {
    if let Ok(text) = rl_json::to_string(value) {
        core.bus.publish(job, &text);
    }
}

/// The `{"event":"done",...}` record closing a job's stream.
fn done_json(id: u64, code: u8) -> Json {
    ObjBuilder::new()
        .field("event", "done")
        .field("job", id)
        .field("code", code)
        .build()
}

/// One heartbeat sample for `id`: the probe's atomics, tagged with the
/// job id.
fn job_heartbeat_json(id: u64, stream: &JobStream) -> Json {
    let mut hb = stream.probe.heartbeat();
    hb.job = Some(id);
    hb.to_json()
}

/// Forwards every tracer event recorded since the last tick, tagged with
/// the job id (the wire addition `rlcheck report` tolerates and `top`
/// keys on).
fn publish_job_trace(core: &Core, id: u64, stream: &JobStream) {
    for e in stream.tracer.drain_new() {
        let mut obj = e.to_json();
        if let Json::Obj(fields) = &mut obj {
            fields.push(("job".to_owned(), Json::Int(id as i64)));
        }
        publish_json(core, id, &obj);
    }
}

/// One sampler tick for a running job: a heartbeat, then the fresh trace
/// events.
fn publish_job_tick(core: &Core, id: u64, stream: &JobStream) {
    let _order = stream
        .publish
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if stream.finished.load(Ordering::Acquire) {
        return;
    }
    publish_json(core, id, &job_heartbeat_json(id, stream));
    publish_job_trace(core, id, stream);
}

/// The completion flush: guarantees at least one heartbeat and the whole
/// trace tail are published before the `done` record, even for jobs
/// shorter than one sampler period.
fn publish_job_final(core: &Core, id: u64, stream: &JobStream, code: u8) {
    let _order = stream
        .publish
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    publish_json(core, id, &job_heartbeat_json(id, stream));
    publish_job_trace(core, id, stream);
    publish_json(core, id, &done_json(id, code));
    stream.finished.store(true, Ordering::Release);
}

/// Records a finished job, releases its admission weight, and admits as
/// many queued jobs as now fit.
fn complete(core: &Arc<Core>, id: u64, result: JobResult, was_cancelled: bool) {
    let mut to_spawn = Vec::new();
    {
        let mut t = core.lock();
        let Some(e) = t.entries.get(&id) else {
            return;
        };
        let weight = e.weight;
        let code = result.code;
        settle_locked(&mut t, id, result);
        t.inflight = t.inflight.saturating_sub(weight);
        if code == 101 {
            t.counters.panicked += 1;
        }
        if code == 3 && was_cancelled {
            t.counters.cancelled += 1;
        }
        // FIFO admission from the queue, head first, while capacity lasts.
        // Each admitted job is charged HERE, in this lock scope, so the
        // next head is judged against a budget that already includes the
        // jobs admitted this round — only the pool handoff is deferred.
        // Charging later would admit every queued job that individually
        // fits and overcommit the ceiling by the queue depth.
        while let Some(&head) = t.queue.front() {
            if t.draining {
                break;
            }
            match t.entries.get(&head) {
                None => {
                    t.queue.pop_front(); // stale id; drop it
                }
                Some(h) => {
                    let fits = core
                        .max_inflight
                        .is_none_or(|cap| t.inflight + h.weight <= cap);
                    if !fits {
                        break;
                    }
                    t.queue.pop_front();
                    charge_locked(&mut t, head);
                    to_spawn.push(head);
                }
            }
        }
    }
    core.changed.notify_all();
    for id in to_spawn {
        spawn_job(core, id);
    }
}

/// Cancels every unfinished job submitted by connection `conn` — the
/// disconnect path: abandoned jobs free their budget.
fn cancel_conn_jobs(core: &Arc<Core>, conn: u64) {
    let mut queued_now_dead = Vec::new();
    let mut settled: Vec<u64> = Vec::new();
    {
        let mut t = core.lock();
        let ids: Vec<u64> = t
            .entries
            .iter()
            .filter(|(_, e)| e.conn == conn && e.state != JobState::Done)
            .map(|(&id, _)| id)
            .collect();
        for id in ids {
            let e = &t.entries[&id];
            e.cancel.cancel();
            if e.state == JobState::Queued {
                queued_now_dead.push(id);
            }
        }
        // Queued jobs never reached a worker; finish them here so waiters
        // and the drain see them settle.
        for id in queued_now_dead {
            t.queue.retain(|q| *q != id);
            let Some(e) = t.entries.get(&id) else {
                continue;
            };
            let name = e.spec.source.display_name().to_owned();
            settle_locked(
                &mut t,
                id,
                JobResult {
                    code: 3,
                    holds: None,
                    out: String::new(),
                    err: format!(
                        "rlcheck: [{name}] cancelled before start (client disconnected)\n"
                    ),
                    snapshot: None,
                },
            );
            t.counters.cancelled += 1;
            settled.push(id);
        }
        // Results this connection finished but never collected can only
        // rot now that it is gone; reap them instead of waiting out the
        // TTL. Jobs it leaves Running settle later and stay retrievable
        // (another client may `wait` them) until delivery or expiry.
        t.entries
            .retain(|_, e| e.conn != conn || e.state != JobState::Done);
    }
    // Jobs that settled without ever starting still close their streams.
    for id in settled {
        publish_json(core, id, &done_json(id, 3));
    }
    core.changed.notify_all();
}

/// A `status`/`wait` reply for job `id` under the table lock.
fn status_reply(t: &Table, id: u64) -> Json {
    let Some(e) = t.entries.get(&id) else {
        return error_reply(format!("no such job {id}"));
    };
    let mut b = ObjBuilder::new()
        .field("ok", true)
        .field("id", id)
        .field("status", e.state.as_str());
    if let Some(r) = &e.result {
        b = b
            .field("code", r.code)
            .field("holds", r.holds)
            .field("output", r.out.as_str())
            .field("diagnostics", r.err.as_str());
    }
    b.build()
}

fn error_reply(msg: impl std::fmt::Display) -> Json {
    ObjBuilder::new()
        .field("ok", false)
        .field("error", msg.to_string())
        .build()
}

/// Field access helpers over the wire JSON.
fn str_field(v: &Json, key: &str) -> Option<String> {
    match v.get(key) {
        Some(Json::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

fn u64_field(v: &Json, key: &str) -> Option<u64> {
    match v.get(key) {
        Some(Json::Int(i)) if *i >= 0 => Some(*i as u64),
        _ => None,
    }
}

fn bool_field(v: &Json, key: &str) -> Option<bool> {
    match v.get(key) {
        Some(Json::Bool(b)) => Some(*b),
        _ => None,
    }
}

/// Per-connection subscription state, owned by the connection thread and
/// reaped (via [`StreamBus::unsubscribe`]) when the connection closes.
#[derive(Default)]
struct ConnState {
    sub: Option<Arc<StreamSubscription>>,
    /// Drop count already reported to this client via `dropped` notices.
    dropped_seen: u64,
}

/// Handles one request line; returns the reply and what to do next.
fn handle_request(
    core: &Arc<Core>,
    conn: u64,
    state: &mut ConnState,
    line: &str,
) -> (Json, Action) {
    let v = match rl_json::parse(line) {
        Ok(v) => v,
        Err(e) => return (error_reply(format!("bad request: {e}")), Action::Continue),
    };
    let Some(cmd) = str_field(&v, "cmd") else {
        return (error_reply("bad request: missing `cmd`"), Action::Continue);
    };
    {
        let mut t = core.lock();
        let verbs = &mut t.counters.verbs;
        match cmd.as_str() {
            "submit" => verbs.submit += 1,
            "status" => verbs.status += 1,
            "wait" => verbs.wait += 1,
            "cancel" => verbs.cancel += 1,
            "stats" => verbs.stats += 1,
            "metrics" => verbs.metrics += 1,
            "subscribe" => verbs.subscribe += 1,
            "unsubscribe" => verbs.unsubscribe += 1,
            "shutdown" => verbs.shutdown += 1,
            _ => verbs.unknown += 1,
        }
    }
    match cmd.as_str() {
        "submit" => (handle_submit(core, conn, &v), Action::Continue),
        "status" => {
            let Some(id) = u64_field(&v, "id") else {
                return (error_reply("status needs `id`"), Action::Continue);
            };
            (status_reply(&core.lock(), id), Action::Continue)
        }
        "wait" => {
            let Some(id) = u64_field(&v, "id") else {
                return (error_reply("wait needs `id`"), Action::Continue);
            };
            let mut t = core.lock();
            loop {
                match t.entries.get(&id) {
                    // Unknown, already delivered, or reaped mid-wait.
                    None => return (error_reply(format!("no such job {id}")), Action::Continue),
                    Some(e) if e.state == JobState::Done => break,
                    Some(_) => {}
                }
                t = core
                    .changed
                    .wait_timeout(t, heartbeat())
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .0;
            }
            // Delivery consumes the record: `wait` is the result handoff
            // (at most one client receives it), and reaping here is what
            // keeps a long-lived daemon's job table bounded. The metrics
            // shard already moved to the drain list at completion.
            let reply = status_reply(&t, id);
            t.entries.remove(&id);
            (reply, Action::Continue)
        }
        "cancel" => {
            let Some(id) = u64_field(&v, "id") else {
                return (error_reply("cancel needs `id`"), Action::Continue);
            };
            let t = core.lock();
            match t.entries.get(&id) {
                Some(e) => {
                    e.cancel.cancel();
                    (
                        ObjBuilder::new().field("ok", true).field("id", id).build(),
                        Action::Continue,
                    )
                }
                None => (error_reply(format!("no such job {id}")), Action::Continue),
            }
        }
        "stats" => (stats_reply(core), Action::Continue),
        "metrics" => (
            metrics_reply(core, str_field(&v, "format").as_deref()),
            Action::Continue,
        ),
        "subscribe" => {
            let filter = match v.get("id") {
                None => None,
                Some(Json::Str(s)) if s == "*" => None,
                Some(Json::Int(i)) if *i >= 0 => Some(*i as u64),
                _ => {
                    return (
                        error_reply("subscribe `id` must be a job id or \"*\""),
                        Action::Continue,
                    )
                }
            };
            // One subscription per connection; re-subscribing replaces it
            // (and re-arms the drop accounting from zero).
            if let Some(old) = state.sub.take() {
                core.bus.unsubscribe(old.id());
            }
            let sub = core.bus.subscribe(filter, ring_capacity());
            let reply = ObjBuilder::new()
                .field("ok", true)
                .field(
                    "subscribed",
                    match filter {
                        Some(id) => Json::Int(id as i64),
                        None => Json::Str("*".to_owned()),
                    },
                )
                .field("ring_capacity", sub.capacity())
                .build();
            state.sub = Some(sub);
            state.dropped_seen = 0;
            (reply, Action::Continue)
        }
        "unsubscribe" => {
            let had = state.sub.take();
            if let Some(sub) = &had {
                core.bus.unsubscribe(sub.id());
            }
            (
                ObjBuilder::new()
                    .field("ok", true)
                    .field("unsubscribed", had.is_some())
                    .build(),
                Action::Continue,
            )
        }
        "shutdown" => {
            {
                let mut t = core.lock();
                t.draining = true;
            }
            core.changed.notify_all();
            (
                ObjBuilder::new()
                    .field("ok", true)
                    .field("status", "draining")
                    .build(),
                Action::Close,
            )
        }
        other => (
            error_reply(format!("unknown cmd {other:?}")),
            Action::Continue,
        ),
    }
}

/// The live service counter totals as named values — the counter half of
/// the `metrics` exposition and of every journal sample.
fn service_counters(core: &Core) -> Vec<(String, u64)> {
    let (c, inflight, queue_depth) = {
        let t = core.lock();
        (t.counters, t.inflight, t.queue.len() as u64)
    };
    let own = |name: &str, v: u64| (name.to_owned(), v);
    vec![
        own("serve/submitted", c.submitted),
        own("serve/admitted", c.admitted),
        own("serve/queued", c.queued),
        own("serve/rejected", c.rejected),
        own("serve/completed", c.completed),
        own("serve/panicked", c.panicked),
        own("serve/cancelled", c.cancelled),
        own("serve/inflight_states", inflight),
        own("serve/peak_inflight_states", c.peak_inflight),
        own("serve/queue_depth", queue_depth),
        own("serve/subscribers", core.bus.subscriber_count() as u64),
        own("serve/events_dropped", core.bus.dropped_events()),
    ]
}

/// The `metrics` verb: the live counters and histograms, rendered as
/// Prometheus text exposition (default) or as rl-obs/v3 `hist` JSONL
/// lines (`"format":"jsonl"`), carried in the reply's `body` field.
fn metrics_reply(core: &Arc<Core>, format: Option<&str>) -> Json {
    let mut counters = service_counters(core);
    // Checks no longer memoize, so this counter stays 0. It is exposed only
    // because the benchmark's served layer still reads it; it will be
    // removed with that reader.
    counters.push(("opcache/hits".to_owned(), 0));
    let hists = core.hists.snapshot();
    match format {
        None | Some("prometheus") => ObjBuilder::new()
            .field("ok", true)
            .field("format", "prometheus")
            .field("body", render_prometheus(&counters, &hists))
            .build(),
        Some("jsonl") => {
            let mut body = String::new();
            for (name, snap) in &hists {
                if let Ok(line) = rl_json::to_string(&hist_event_json(name, snap)) {
                    body.push_str(&line);
                    body.push('\n');
                }
            }
            ObjBuilder::new()
                .field("ok", true)
                .field("format", "jsonl")
                .field("body", body)
                .build()
        }
        Some(other) => error_reply(format!(
            "metrics `format` {other:?} must be \"prometheus\" or \"jsonl\""
        )),
    }
}

/// Appends one interval snapshot of the service counters and histograms to
/// the metrics journal (no-op without `--metrics-dir`). Write errors are
/// reported on stderr but never disturb the service.
fn journal_sample(core: &Core) {
    let Some(journal) = &core.journal else {
        return;
    };
    let ts_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    let sample = JournalSample {
        ts_ms,
        uptime_ms: core.started.elapsed().as_millis() as u64,
        run_id: core.run_id,
        counters: service_counters(core),
        hists: core.hists.snapshot(),
    };
    let mut w = journal
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Err(e) = w.append(&sample) {
        eprintln!("rlcheck: serve: metrics journal: {e}");
    }
}

fn stats_reply(core: &Arc<Core>) -> Json {
    let (c, inflight, queue_depth, draining) = {
        let t = core.lock();
        (t.counters, t.inflight, t.queue.len(), t.draining)
    };
    let requests = ObjBuilder::new()
        .field("submit", c.verbs.submit)
        .field("status", c.verbs.status)
        .field("wait", c.verbs.wait)
        .field("cancel", c.verbs.cancel)
        .field("stats", c.verbs.stats)
        .field("metrics", c.verbs.metrics)
        .field("subscribe", c.verbs.subscribe)
        .field("unsubscribe", c.verbs.unsubscribe)
        .field("shutdown", c.verbs.shutdown)
        .field("unknown", c.verbs.unknown)
        .build();
    ObjBuilder::new()
        .field("ok", true)
        .field("uptime_ms", core.started.elapsed().as_millis() as u64)
        .field("requests", requests)
        .field("subscribers", core.bus.subscriber_count())
        .field("events_dropped", core.bus.dropped_events())
        .field("submitted", c.submitted)
        .field("admitted", c.admitted)
        .field("queued", c.queued)
        .field("rejected", c.rejected)
        .field("completed", c.completed)
        .field("panicked", c.panicked)
        .field("cancelled", c.cancelled)
        .field("inflight_states", inflight)
        .field("peak_inflight_states", c.peak_inflight)
        .field("queue_depth", queue_depth)
        .field("draining", draining)
        .build()
}

fn handle_submit(core: &Arc<Core>, conn: u64, v: &Json) -> Json {
    let Some(formula) = str_field(v, "formula") else {
        return error_reply("submit needs `formula`");
    };
    let source = match (str_field(v, "path"), str_field(v, "system")) {
        (Some(path), None) => SystemSource::Path(path),
        (None, Some(text)) => SystemSource::Inline {
            name: str_field(v, "name").unwrap_or_else(|| "inline".to_owned()),
            text,
        },
        _ => return error_reply("submit needs exactly one of `path` or `system`"),
    };
    let mut budget = core.default_budget.clone();
    if let Some(ms) = u64_field(v, "timeout_ms") {
        budget.deadline = Some(Duration::from_millis(ms));
    }
    if let Some(n) = u64_field(v, "max_states") {
        budget.max_states = Some(n as usize);
    }
    let weight = budget.max_states.map_or(DEFAULT_JOB_WEIGHT, |n| n as u64);
    let lazy = !bool_field(v, "no_lazy").unwrap_or(core.no_lazy);
    let spec = CheckSpec { source, formula };

    let admit_started = Instant::now();
    let (id, decision) = {
        let mut t = core.lock();
        t.counters.submitted += 1;
        let decision = admission_decision(&t, core, weight);
        if let Admission::Reject(reason) = &decision {
            t.counters.rejected += 1;
            drop(t);
            core.hists
                .hist("serve/admission_us")
                .record_elapsed_us(admit_started);
            return ObjBuilder::new()
                .field("ok", false)
                .field("status", "rejected")
                .field("error", format!("rejected: {reason}"))
                .build();
        }
        let id = t.next_job;
        t.next_job += 1;
        t.entries.insert(
            id,
            JobRecord {
                spec,
                budget,
                lazy,
                weight,
                conn,
                submitted_at: Instant::now(),
                cancel: CancelToken::new(),
                state: JobState::Queued,
                result: None,
                done_at: None,
                stream: None,
            },
        );
        // An admitted job is charged in the SAME lock scope as the
        // admission decision — deferring the charge to a later lock
        // acquisition would let a concurrent submit read the stale
        // in-flight sum and be admitted into the same capacity.
        if matches!(decision, Admission::Queue) {
            t.counters.queued += 1;
            t.queue.push_back(id);
        } else {
            charge_locked(&mut t, id);
        }
        (id, decision)
    };
    core.hists
        .hist("serve/admission_us")
        .record_elapsed_us(admit_started);
    let status = match decision {
        Admission::Queue => "queued",
        _ => {
            spawn_job(core, id);
            "running"
        }
    };
    ObjBuilder::new()
        .field("ok", true)
        .field("id", id)
        .field("status", status)
        .build()
}

/// One client connection: a heartbeat-paced read loop over line-delimited
/// JSON. EOF or a read error is a disconnect, which cancels the
/// connection's unfinished jobs.
fn handle_conn(core: Arc<Core>, mut stream: UnixStream, conn: u64) {
    let beat = heartbeat();
    let _ = stream.set_read_timeout(Some(beat));
    // A client that stops reading (full socket buffer) must not pin this
    // thread in `write_all` forever — the drain joins every connection
    // thread, so one stalled reader would hang graceful shutdown. A write
    // that cannot make progress within the drain grace is a disconnect.
    let _ = stream.set_write_timeout(Some(drain_grace()));
    let mut state = ConnState::default();
    let mut buf: Vec<u8> = Vec::new();
    // `buf[..scanned]` is known to hold no newline: each read scans only
    // the bytes it added.
    let mut scanned = 0;
    let mut chunk = [0u8; 4096];
    'conn: loop {
        // Drain complete lines first.
        while let Some(off) = buf[scanned..].iter().position(|&b| b == b'\n') {
            let line_bytes: Vec<u8> = buf.drain(..=scanned + off).collect();
            scanned = 0;
            let line = String::from_utf8_lossy(&line_bytes);
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (reply, action) = handle_request(&core, conn, &mut state, line);
            let text = rl_json::to_string(&reply)
                .unwrap_or_else(|e| format!("{{\"ok\":false,\"error\":\"render: {e}\"}}"));
            if stream.write_all(format!("{text}\n").as_bytes()).is_err() {
                break 'conn;
            }
            if fault::fires("serve-drop-conn") {
                // Injected server-side connection drop: exercise the same
                // cleanup path a client crash takes.
                break 'conn;
            }
            if matches!(action, Action::Close) {
                break 'conn;
            }
        }
        scanned = buf.len();
        if scanned > MAX_REQUEST_LINE {
            let reply = error_reply(format!("request line exceeds {MAX_REQUEST_LINE} bytes"));
            if let Ok(text) = rl_json::to_string(&reply) {
                let _ = stream.write_all(format!("{text}\n").as_bytes());
            }
            break 'conn;
        }
        if !flush_subscription(&core, &mut stream, &mut state) {
            break 'conn;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break, // EOF: client closed or died
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Heartbeat tick. Idle connections don't outlive a drain —
                // except a draining subscriber, which keeps receiving until
                // its followed jobs have settled (the drain severs it by
                // joining this thread only after every job is done).
                if core.draining() && state.sub.is_none() {
                    break;
                }
                if core.draining()
                    && core
                        .lock()
                        .entries
                        .values()
                        .all(|e| e.state == JobState::Done)
                {
                    // Flush whatever the settled jobs left, then close.
                    let _ = flush_subscription(&core, &mut stream, &mut state);
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    // Reap this connection's subscription so the fan-out stops buffering
    // for a reader that is gone.
    if let Some(sub) = state.sub.take() {
        core.bus.unsubscribe(sub.id());
    }
    cancel_conn_jobs(&core, conn);
}

/// Writes everything the connection's subscription has buffered: event
/// lines oldest-first, then a `dropped` notice when backpressure discarded
/// lines since the last report. Returns `false` when the connection should
/// be severed (write failure, or the injected `serve-drop-sub` fault).
fn flush_subscription(core: &Core, stream: &mut UnixStream, state: &mut ConnState) -> bool {
    let Some(sub) = &state.sub else {
        return true;
    };
    let lines = sub.drain();
    let dropped = sub.dropped();
    let mut payload = String::new();
    for line in &lines {
        payload.push_str(line);
        payload.push('\n');
    }
    if dropped > state.dropped_seen {
        let delta = dropped - state.dropped_seen;
        state.dropped_seen = dropped;
        payload.push_str(&format!(
            "{{\"event\":\"dropped\",\"count\":{delta},\"total\":{dropped}}}\n"
        ));
    }
    if payload.is_empty() {
        return true;
    }
    if fault::fires("serve-drop-sub") {
        // Injected mid-stream subscriber drop: exercise the reap path a
        // subscriber crash takes.
        return false;
    }
    // A slow subscriber shows up here as write-stall latency — the
    // percentile witness that backpressure is on the socket, not the jobs.
    let write_started = Instant::now();
    let ok = stream.write_all(payload.as_bytes()).is_ok();
    core.hists
        .hist("serve/write_stall_us")
        .record_elapsed_us(write_started);
    ok
}

/// Runs the service until a `shutdown` request or the external `shutdown`
/// token (the CLI's signal handler) triggers a graceful drain. Returns the
/// process exit code — 0 for a clean drain.
///
/// Per-job metrics shards are absorbed into `registry` (as `job<id>/`
/// prefixes, in job-id order) and the `serve/*` counters are recorded
/// there too; the caller flushes the sinks afterwards, so `--stats`,
/// `--metrics`, `--trace-out`, and `--flame-out` all work for a drained
/// service exactly as they do for a one-shot check.
///
/// # Errors
///
/// Returns [`CheckError::Parse`] when the socket cannot be bound.
pub fn serve(
    config: ServeConfig,
    shutdown: CancelToken,
    registry: Option<&MetricsRegistry>,
) -> Result<u8, CheckError> {
    let socket = config.socket.clone();
    // A leftover socket file is either stale (its server died — safe to
    // take over) or live (unlinking it would silently orphan a running
    // server: still up, no longer reachable). Probe it: a successful
    // connect means a server answered, so refuse to start; ECONNREFUSED
    // means nobody is accepting, so the file is stale and removable.
    if std::path::Path::new(&socket).exists() {
        match UnixStream::connect(&socket) {
            Ok(_) => {
                return Err(CheckError::Parse(format!(
                    "serve: {socket}: a server is already listening on this socket"
                )));
            }
            Err(e) if e.kind() == ErrorKind::ConnectionRefused => {
                let _ = std::fs::remove_file(&socket);
            }
            Err(e) if e.kind() == ErrorKind::NotFound => {} // raced away
            Err(_) => {} // leave the file; bind below reports the problem
        }
    }
    let listener = UnixListener::bind(&socket)
        .map_err(|e| CheckError::Parse(format!("serve: {socket}: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| CheckError::Parse(format!("serve: {socket}: {e}")))?;

    // Open the metrics journal before accepting work: a misconfigured
    // `--metrics-dir` should fail the start, not silently drop telemetry.
    let journal = match &config.metrics_dir {
        Some(dir) => Some(Mutex::new(
            JournalWriter::open(std::path::Path::new(dir), 0)
                .map_err(|e| CheckError::Parse(format!("serve: metrics journal {dir}: {e}")))?,
        )),
        None => None,
    };

    let core = Arc::new(Core {
        jobs: Mutex::new(Table {
            next_job: 1,
            inflight: 0,
            queue: VecDeque::new(),
            entries: HashMap::new(),
            shards: Vec::new(),
            draining: false,
            counters: ServeCounters::default(),
        }),
        changed: Condvar::new(),
        pool: Pool::with_tracer(config.threads, config.tracer.clone()),
        tracer: config.tracer.clone(),
        want_snapshots: registry.is_some(),
        max_inflight: config.max_inflight_states,
        queue_cap: config.queue_cap,
        default_budget: config.job_budget.clone(),
        no_lazy: config.no_lazy,
        bus: StreamBus::new(),
        hists: HistogramRegistry::new(),
        journal,
        started: Instant::now(),
        run_id: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64),
    });
    // The shared pool records its scheduler latencies into the same
    // service-global registry.
    core.pool.set_histograms(core.hists.clone());

    eprintln!(
        "rlcheck: serve: listening on {socket} ({} workers)",
        config.threads
    );
    // The fan-out sampler: every progress period, publish one heartbeat
    // (and any fresh trace events) per running job. It only *reads* probe
    // atomics and the per-job tracer, and [`StreamBus::publish`] is
    // drop-oldest, so this thread can never slow a job down.
    let sampler_stop = Arc::new((Mutex::new(false), Condvar::new()));
    let sampler = {
        let core = Arc::clone(&core);
        let shared = Arc::clone(&sampler_stop);
        let period = progress_period();
        std::thread::Builder::new()
            .name("rl-serve-sampler".to_owned())
            .spawn(move || {
                let (lock, cv) = &*shared;
                let mut stop = lock
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                while !*stop {
                    let (next, timeout) = cv
                        .wait_timeout(stop, period)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    stop = next;
                    if *stop || !timeout.timed_out() {
                        continue;
                    }
                    let running: Vec<(u64, Arc<JobStream>)> = {
                        let t = core.lock();
                        t.entries
                            .iter()
                            .filter(|(_, e)| e.state == JobState::Running)
                            .filter_map(|(&id, e)| e.stream.as_ref().map(|s| (id, Arc::clone(s))))
                            .collect()
                    };
                    for (id, stream) in running {
                        publish_job_tick(&core, id, &stream);
                    }
                    journal_sample(&core);
                }
            })
            .expect("spawning the sampler thread succeeds")
    };
    let beat = heartbeat();
    let ttl = result_ttl();
    let sweep_every = beat.max(ttl / 4);
    let mut last_sweep = Instant::now();
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut next_conn = 1u64;
    loop {
        if shutdown.is_cancelled() || core.draining() {
            break;
        }
        // Reap expired undelivered results (their metrics shards already
        // live on the drain list), bounding the table even when clients
        // submit and never collect.
        if last_sweep.elapsed() >= sweep_every {
            last_sweep = Instant::now();
            let mut t = core.lock();
            t.entries.retain(|_, e| {
                e.state != JobState::Done || e.done_at.is_none_or(|at| at.elapsed() < ttl)
            });
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let core = Arc::clone(&core);
                let id = next_conn;
                next_conn += 1;
                conns.push(
                    std::thread::Builder::new()
                        .name(format!("rl-serve-conn-{id}"))
                        .spawn(move || handle_conn(core, stream, id))
                        .expect("spawning a connection thread succeeds"),
                );
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                std::thread::sleep(beat / 4);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("rlcheck: serve: accept: {e}");
                break;
            }
        }
    }

    // ---- graceful drain -------------------------------------------------
    eprintln!("rlcheck: serve: draining");
    let mut drain_settled: Vec<u64> = Vec::new();
    {
        let mut t = core.lock();
        t.draining = true;
        // Queued jobs never started; settle them as cancelled.
        while let Some(id) = t.queue.pop_front() {
            let Some(e) = t.entries.get(&id) else {
                continue;
            };
            e.cancel.cancel();
            let name = e.spec.source.display_name().to_owned();
            settle_locked(
                &mut t,
                id,
                JobResult {
                    code: 3,
                    holds: None,
                    out: String::new(),
                    err: format!("rlcheck: [{name}] cancelled before start (drain)\n"),
                    snapshot: None,
                },
            );
            t.counters.cancelled += 1;
            drain_settled.push(id);
        }
    }
    for id in drain_settled {
        publish_json(&core, id, &done_json(id, 3));
    }
    core.changed.notify_all();
    // Let running jobs finish; past the grace period, cancel them and keep
    // waiting — their guards notice within one charge interval.
    let grace_ends = Instant::now() + drain_grace();
    let mut cancelled_late = false;
    {
        let mut t = core.lock();
        while t.entries.values().any(|e| e.state != JobState::Done) {
            if !cancelled_late && Instant::now() >= grace_ends {
                cancelled_late = true;
                for e in t.entries.values().filter(|e| e.state != JobState::Done) {
                    e.cancel.cancel();
                }
            }
            t = core
                .changed
                .wait_timeout(t, beat)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }
    core.changed.notify_all();
    // Stop the sampler before joining connections: every job is settled,
    // so its final heartbeats/trace tails are already in the rings and the
    // connection threads' last flushes deliver them.
    {
        let (lock, cv) = &*sampler_stop;
        *lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        cv.notify_all();
    }
    let _ = sampler.join();
    for handle in conns {
        let _ = handle.join();
    }
    // One final journal sample after every job settled, so short-lived
    // daemons (and the last interval of long ones) are never lost — this
    // is what lets `rlcheck report --dir` stitch runs across restarts.
    journal_sample(&core);
    let _ = std::fs::remove_file(&socket);

    // Fold every job's metrics shard and the service counters into the
    // parent registry, in job-id (submission) order, so the flushed sinks
    // are deterministic regardless of completion interleaving. The shards
    // were captured at completion time — job records themselves may be
    // long reaped by result delivery or the TTL sweep.
    let mut t = core.lock();
    t.shards.sort_by_key(|&(id, _)| id);
    if let Some(reg) = registry {
        for (id, shard) in &t.shards {
            reg.absorb(&format!("job{id}"), shard);
        }
        let c = t.counters;
        reg.counter("serve/submitted").add(c.submitted);
        reg.counter("serve/admitted").add(c.admitted);
        reg.counter("serve/queued").add(c.queued);
        reg.counter("serve/rejected").add(c.rejected);
        reg.counter("serve/completed").add(c.completed);
        reg.counter("serve/panicked").add(c.panicked);
        reg.counter("serve/cancelled").add(c.cancelled);
        reg.counter("serve/peak_inflight_states")
            .add(c.peak_inflight);
    }
    let c = t.counters;
    eprintln!(
        "rlcheck: serve: drained: {} completed ({} panicked, {} cancelled), {} rejected",
        c.completed, c.panicked, c.cancelled, c.rejected
    );
    Ok(0)
}
