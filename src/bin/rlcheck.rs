//! `rlcheck` — command-line relative-liveness checker.
//!
//! ```text
//! rlcheck check <system-file> <formula>
//!     classical satisfaction, relative liveness and relative safety,
//!     with counterexamples.
//!
//! rlcheck abstract <system-file> <formula> --keep a,b,c
//!     the Section 8 pipeline: abstract by hiding everything but the kept
//!     actions, check simplicity, decide on the abstraction, transfer.
//!
//! rlcheck simplicity <system-file> --keep a,b,c
//!     just the Definition 6.3 simplicity check.
//!
//! rlcheck fair <system-file> <formula> [--steps N]
//!     Theorem 5.1: synthesize the fair implementation and execute it with
//!     the strongly fair aging scheduler.
//!
//! rlcheck dot <system-file>
//!     Graphviz DOT output of the system.
//!
//! rlcheck batch [--manifest <file>] [<system-file>... --formula <f>]
//!     run many checks as one batch: manifest lines are
//!     `<system-file> <formula>` (# comments allowed), positional files
//!     all use --formula. Checks fan out across --jobs workers with
//!     per-check isolation; outputs print in submission order and the
//!     worst per-check exit code wins.
//!
//! rlcheck report <metrics.jsonl> | --dir <journal-dir>
//!     render a committed --metrics file (schema rl-obs/v3) offline: the
//!     phase table and any percentile table on stdout — byte-for-byte the
//!     --stats output of the run that wrote it — and a per-track event
//!     digest on stderr. Also accepts a captured `subscribe` stream (the
//!     event lines a socket client read after `{"cmd":"subscribe"}`) and
//!     renders its per-job heartbeat/completion digest. With --dir,
//!     renders the persistent metrics journal a `serve --metrics-dir`
//!     daemon wrote: runs are stitched across restarts and rotated
//!     segments, with percentile columns per histogram family.
//!
//! rlcheck slo <baseline.json> --dir <journal-dir>
//!     regression gate: compare the journal's merged percentiles against a
//!     committed rl-slo/v1 baseline (per-family p50/p90/p99/max ceilings
//!     plus a tolerance). Exit 0 within tolerance, exit 1 with one stderr
//!     line per violation — CI gates on the exit code.
//!
//! rlcheck serve --socket <path> [--max-inflight-states <n>] [--queue-cap <n>]
//!               [--metrics-dir <dir>]
//!     long-running checking service on a Unix domain socket with a
//!     line-delimited JSON protocol (submit/status/wait/cancel/stats/
//!     subscribe/unsubscribe/shutdown), per-job panic isolation, admission
//!     control, live telemetry streaming, and graceful drain on
//!     SIGINT/SIGTERM. --timeout/--max-states set the default per-job
//!     budget; see DESIGN.md §12 and the README for the protocol.
//! ```
//!
//! Every subcommand additionally accepts resource limits and observability
//! flags:
//!
//! ```text
//! --timeout <secs>     wall-clock deadline for the decision procedures
//!                      (in batch mode: one deadline for the whole batch)
//! --max-states <n>     cap on states materialized by any construction
//! --jobs <n>           batch and serve only: how many whole checks run at
//!                      once. 0 = all cores; overrides the RL_THREADS env
//!                      var; results are bit-for-bit identical for every
//!                      value. Every other subcommand runs its one check on
//!                      the calling thread and rejects the flag (exit 2)
//! --stats              per-phase profile (states, transitions, elapsed)
//!                      printed to stderr after the verdict
//! --metrics <file>     machine-readable JSONL trace written to <file>
//!                      (schema rl-obs/v3: spans, trace events under
//!                      --trace-out, percentile histograms, totals)
//! --trace-out <file>   event-level timeline: Chrome trace-event JSON
//!                      (chrome://tracing, Perfetto), one track per worker,
//!                      with pool telemetry instants
//! --flame-out <file>   folded stacks (phase;subphase self_us) for
//!                      flamegraph tooling
//! --progress           live heartbeats on stderr (elapsed, states/sec,
//!                      frontier, budget fraction) while a check runs
//! ```
//!
//! SIGINT/SIGTERM cancel the run through the guard's cancel token: the
//! process exits 3 with partial diagnostics and every sink flushed instead
//! of dying mid-write (in serve mode, the signals trigger a graceful
//! drain).
//!
//! All sinks are also flushed when a budget trips (exit 3) *and* on the
//! internal-panic path (exit 101), so the profile shows where the budget —
//! or the bug — lives. Tracing never perturbs the deterministic counters:
//! states/transitions/cache-hits/guard-charges are bit-for-bit identical
//! with and without `--trace-out`, and at every batch `--jobs` value.
//!
//! Exit codes: `0` property holds, `1` it fails, `2` usage or input error,
//! `3` resource budget exhausted (or an inconclusive abstraction verdict),
//! `101` internal panic.
//!
//! System files use the `system`/`petri` formats of
//! [`relative_liveness::format`].

use std::ffi::OsString;
use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use relative_liveness::check::{
    batch_job_deadline, parse_formula, report_check, run_check, verdict, worst_exit, CheckSpec,
    SystemSource,
};
use relative_liveness::prelude::*;
use rl_obs::{
    evaluate_slo, knobs, parse_slo_baseline, percentile_table, read_journal, render_journal,
    render_jsonl, HistogramRegistry, HistogramSnapshot,
};

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("rlcheck: {msg}");
    ExitCode::from(2)
}

fn load(path: &str) -> Result<TransitionSystem, CheckError> {
    SystemSource::Path(path.to_owned()).load()
}

fn keep_list(args: &[String]) -> Option<Vec<String>> {
    let idx = args.iter().position(|a| a == "--keep")?;
    let raw = args.get(idx + 1)?;
    Some(raw.split(',').map(|s| s.trim().to_owned()).collect())
}

/// Extracts `--timeout <secs>` and `--max-states <n>` from the argument list
/// (removing them so positional parsing stays untouched) and builds the
/// resulting [`Budget`].
fn extract_budget(args: &mut Vec<String>) -> Result<Budget, String> {
    let mut budget = Budget::unlimited();
    for (flag, what) in [("--timeout", "seconds"), ("--max-states", "count")] {
        // Consume every occurrence; the last value wins.
        while let Some(idx) = args.iter().position(|a| a == flag) {
            let Some(raw) = args.get(idx + 1).cloned() else {
                return Err(format!("{flag} needs a value ({what})"));
            };
            let value: u64 = raw
                .parse()
                .map_err(|_| format!("{flag}: {raw:?} is not a valid {what}"))?;
            args.drain(idx..idx + 2);
            match flag {
                "--timeout" => budget.deadline = Some(Duration::from_secs(value)),
                _ => budget.max_states = Some(value as usize),
            }
        }
    }
    Ok(budget)
}

/// The observability sinks requested on the command line.
#[derive(Default)]
struct ObsFlags {
    /// `--stats`: phase table on stderr.
    stats: bool,
    /// `--metrics <file>`: JSONL (rl-obs/v3).
    metrics: Option<String>,
    /// `--trace-out <file>`: Chrome trace-event JSON.
    trace: Option<String>,
    /// `--flame-out <file>`: folded stacks.
    flame: Option<String>,
    /// `--progress`: live heartbeats on stderr.
    progress: bool,
}

impl ObsFlags {
    /// Whether any sink needs a metrics registry attached to the guard.
    fn wants_registry(&self) -> bool {
        self.stats || self.metrics.is_some() || self.trace.is_some() || self.flame.is_some()
    }
}

/// Extracts the observability flags from the argument list (removing them so
/// positional parsing stays untouched).
fn extract_obs(args: &mut Vec<String>) -> Result<ObsFlags, String> {
    let mut obs = ObsFlags::default();
    for (flag, target) in [
        ("--stats", &mut obs.stats),
        ("--progress", &mut obs.progress),
    ] {
        while let Some(idx) = args.iter().position(|a| a == flag) {
            args.remove(idx);
            *target = true;
        }
    }
    for (flag, target) in [
        ("--metrics", &mut obs.metrics),
        ("--trace-out", &mut obs.trace),
        ("--flame-out", &mut obs.flame),
    ] {
        while let Some(idx) = args.iter().position(|a| a == flag) {
            let Some(raw) = args.get(idx + 1).cloned() else {
                return Err(format!("{flag} needs a value (output file)"));
            };
            args.drain(idx..idx + 2);
            *target = Some(raw);
        }
    }
    Ok(obs)
}

/// The first argument after the subcommand that looks like a flag but was
/// consumed by no extractor.
fn unknown_flag(args: &[String]) -> Option<&String> {
    args.iter().skip(1).find(|a| a.starts_with("--"))
}

/// Extracts a `<flag> <value>` pair from the argument list (every
/// occurrence; the last value wins).
fn extract_value_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let mut value = None;
    while let Some(idx) = args.iter().position(|a| a == flag) {
        let Some(raw) = args.get(idx + 1).cloned() else {
            return Err(format!("{flag} needs a value"));
        };
        args.drain(idx..idx + 2);
        value = Some(raw);
    }
    Ok(value)
}

/// Extracts `--jobs <n>`, the worker count of `batch` and `serve`. Every
/// other subcommand runs its one check on the calling thread and rejects
/// the flag.
fn extract_jobs(args: &mut Vec<String>) -> Result<Option<usize>, String> {
    extract_value_flag(args, "--jobs")?
        .map(|raw| {
            raw.parse::<usize>()
                .map_err(|_| format!("--jobs: {raw:?} is not a valid worker count"))
        })
        .transpose()
}

/// Parses a batch manifest: one `<system-file> <formula>` per line, where
/// the formula is the rest of the line; blank lines and `#` comments are
/// skipped.
fn parse_manifest(text: &str) -> Result<Vec<CheckSpec>, String> {
    let mut checks = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((path, formula)) = line.split_once(char::is_whitespace) else {
            return Err(format!(
                "manifest line {}: expected `<system-file> <formula>`",
                ln + 1
            ));
        };
        checks.push(CheckSpec::from_path(path, formula.trim()));
    }
    Ok(checks)
}

/// What one batch job reports back across the pool: buffered stdout/stderr,
/// an exit code, and (when observability is on) its metrics shard.
type JobOutcome = (String, String, u8, Option<RegistrySnapshot>);

/// The guard-shaping state every batch job starts from: the shared budget
/// and the one cancel token.
struct GuardSeed {
    budget: Budget,
    cancel: CancelToken,
    /// Percentile registry of the batch: the pool's latencies and each
    /// job's wall time (`batch/job_wall_us`). Unlike the counter registry
    /// (sharded per job and absorbed in submission order for determinism),
    /// it is shared: records are lock-free atomic increments and quantiles
    /// are order-independent.
    hists: Option<HistogramRegistry>,
}

/// Runs a batch of checks across a worker pool with per-check isolation:
/// each check gets its own guard (sharing the batch deadline's *remaining*
/// time and one cancel token), its output is buffered and
/// printed in submission order, a panicking check maps to exit 101 without
/// taking down its siblings, and the worst per-check exit code wins.
fn cmd_batch(
    checks: Vec<CheckSpec>,
    threads: usize,
    seed: GuardSeed,
    registry: Option<&MetricsRegistry>,
    tracer: Option<&Arc<Tracer>>,
) -> ExitCode {
    let pool = Pool::with_tracer(threads, tracer.cloned());
    if let Some(h) = &seed.hists {
        pool.set_histograms(h.clone());
    }
    let batch_start = std::time::Instant::now();
    let want_snapshots = registry.is_some();

    let total = checks.len();
    // Completed-job count, for the fair deadline split below.
    let finished = Arc::new(AtomicUsize::new(0));
    let jobs: Vec<Box<dyn FnOnce() -> JobOutcome + Send>> = checks
        .into_iter()
        .map(|check| {
            let budget = seed.budget.clone();
            let cancel = seed.cancel.clone();
            let hists = seed.hists.clone();
            let tracer = tracer.cloned();
            let finished = Arc::clone(&finished);
            let job = move || -> JobOutcome {
                let started = std::time::Instant::now();
                // Budget splitting: the whole batch shares one wall clock.
                // At each job start, the *live* remaining time is divided by
                // the scheduling waves the still-unfinished jobs need, so a
                // job that finishes early donates its unused slice to jobs
                // that start later instead of stranding it.
                let mut budget = budget;
                if let Some(deadline) = budget.deadline {
                    let remaining = deadline.saturating_sub(batch_start.elapsed());
                    let unfinished = total - finished.load(Ordering::Relaxed).min(total);
                    budget.deadline = Some(batch_job_deadline(remaining, unfinished, threads));
                }
                // The guard is assembled *inside* the job: its metrics
                // registry is thread-local, so results cross back to the
                // parent as a Send snapshot. The tracer is the shared
                // sharded collector, so the job's span events land on the
                // worker's own timeline track.
                let reg = want_snapshots.then(MetricsRegistry::new);
                let mut guard = Guard::with_cancel(budget, cancel);
                if let Some(r) = &reg {
                    if let Some(t) = tracer {
                        r.set_tracer(t);
                    }
                    guard = guard.with_metrics(r.clone());
                }
                let mut out = String::new();
                let mut err = String::new();
                let code = report_check(&check, &guard, &mut out, &mut err);
                if let Some(h) = &hists {
                    h.hist("batch/job_wall_us").record_elapsed_us(started);
                }
                finished.fetch_add(1, Ordering::Relaxed);
                (out, err, code, reg.as_ref().map(MetricsRegistry::snapshot))
            };
            Box::new(job) as Box<dyn FnOnce() -> JobOutcome + Send>
        })
        .collect();

    let results = pool.run_jobs(jobs);

    let mut worst = 0u8;
    let mut held = 0usize;
    for (i, result) in results.into_iter().enumerate() {
        let (out, err, code, snapshot) = match result {
            Ok(outcome) => outcome,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".to_owned());
                (
                    String::new(),
                    format!("rlcheck: internal panic: {msg}\n"),
                    101,
                    None,
                )
            }
        };
        print!("{out}");
        eprint!("{err}");
        if code == 0 {
            held += 1;
        }
        worst = worst_exit(worst, code);
        // Merge the job's metrics shard into the parent registry, in
        // submission order, so --stats/--metrics output is deterministic.
        if let (Some(parent), Some(shard)) = (registry, &snapshot) {
            parent.absorb(&format!("job{i}"), shard);
        }
    }
    note_pool_counters(registry, &pool);
    println!("batch: {held}/{total} checks relatively live (exit {worst})");
    ExitCode::from(worst)
}

/// Folds the pool's scheduler telemetry into the registry as named
/// counters, so they ride the `--stats` footer and the JSONL `totals` line.
/// These are schedule-dependent (steal/park counts vary run to run), which
/// is exactly why they are *counters* and never deterministic metrics. They
/// only appear for parallel batch runs (`--jobs > 1`).
fn note_pool_counters(registry: Option<&MetricsRegistry>, pool: &Pool) {
    let Some(reg) = registry else {
        return;
    };
    if pool.threads() >= 2 {
        let c = pool.counters();
        reg.counter("pool/spawns").add(c.spawns);
        reg.counter("pool/steals").add(c.steals);
        reg.counter("pool/parks").add(c.parks);
        reg.counter("pool/unparks").add(c.unparks);
    }
}

fn cmd_check(path: &str, formula: &str, guard: &Guard) -> Result<ExitCode, CheckError> {
    let spec = CheckSpec::from_path(path, formula);
    let (mut out, mut err) = (String::new(), String::new());
    let result = run_check(&spec, guard, &mut out, &mut err);
    eprint!("{err}");
    print!("{out}");
    Ok(if result? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_abstract(
    path: &str,
    formula: &str,
    keep: Vec<String>,
    guard: &Guard,
) -> Result<ExitCode, CheckError> {
    let _span = guard.span("abstract");
    let ts = load(path)?;
    let eta = parse_formula(formula)?;
    let keep_refs: Vec<&str> = keep.iter().map(String::as_str).collect();
    let h =
        Homomorphism::hiding(ts.alphabet(), keep_refs.iter().copied()).map_err(CheckError::from)?;
    let analysis = verify_via_abstraction_with(&ts, &h, &eta, guard)?;
    println!(
        "abstraction: {} states (concrete {})",
        analysis.abstract_system.state_count(),
        ts.state_count()
    );
    println!(
        "abstract rel-live {eta}: {}",
        verdict(analysis.abstract_verdict.holds)
    );
    println!("h simple: {}", verdict(analysis.simplicity.simple));
    if let Some(w) = &analysis.simplicity.violation {
        println!("  violation: {}", format_word(ts.alphabet(), w));
    }
    println!("maximal words in h(L): {}", analysis.maximal_words);
    println!("transported property: {}", analysis.transported_formula);
    let (text, code) = match &analysis.conclusion {
        TransferConclusion::ConcreteHolds => (
            "concrete system relatively satisfies the property (Thm 8.2)",
            ExitCode::SUCCESS,
        ),
        TransferConclusion::ConcreteFails { .. } => (
            "concrete system does NOT relatively satisfy it (Thm 8.3)",
            ExitCode::FAILURE,
        ),
        TransferConclusion::InconclusiveNotSimple { .. } => (
            "INCONCLUSIVE: homomorphism not simple — verify concretely",
            ExitCode::from(3),
        ),
        TransferConclusion::InconclusiveMaximalWords => (
            "INCONCLUSIVE: h(L) has maximal words — apply the #-extension",
            ExitCode::from(3),
        ),
    };
    println!("conclusion: {text}");
    Ok(code)
}

fn cmd_simplicity(path: &str, keep: Vec<String>, guard: &Guard) -> Result<ExitCode, CheckError> {
    let ts = load(path)?;
    let keep_refs: Vec<&str> = keep.iter().map(String::as_str).collect();
    let h =
        Homomorphism::hiding(ts.alphabet(), keep_refs.iter().copied()).map_err(CheckError::from)?;
    let report = check_simplicity_with(&h, &ts, guard)?;
    println!("homomorphism: {h}");
    println!(
        "simple: {} ({} continuation pairs checked)",
        verdict(report.simple),
        report.pairs_checked
    );
    if let Some(w) = &report.violation {
        println!("violation word: {}", format_word(ts.alphabet(), w));
    }
    Ok(if report.simple {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_fair(path: &str, formula: &str, steps: usize) -> Result<ExitCode, CheckError> {
    let ts = load(path)?;
    let eta = parse_formula(formula)?;
    let imp = synthesize_fair_implementation(&ts, &Property::formula(eta.clone()))
        .map_err(CheckError::from)?;
    println!(
        "synthesized implementation: {} states (original {})",
        imp.system.state_count(),
        ts.state_count()
    );
    let r = run(&imp.system, &mut AgingScheduler::new(), steps);
    println!(
        "strongly fair run: {} steps{}",
        r.len(),
        if r.deadlocked { " (deadlocked)" } else { "" }
    );
    let mut counts: Vec<(String, usize)> = r
        .action_counts()
        .into_iter()
        .map(|(a, n)| (imp.system.alphabet().name(a).to_owned(), n))
        .collect();
    counts.sort();
    for (name, n) in counts {
        println!("  {name:<16} ×{n}");
    }
    if let Some(gap) = r.max_gap_between_visits(&imp.recurrent) {
        println!("max gap between recurrent visits: {gap}");
    }
    Ok(ExitCode::SUCCESS)
}

/// The `report` subcommand: renders a committed `--metrics` JSONL file
/// (rl-obs/v3) offline. The phase table and percentile table go to stdout —
/// byte-for-byte the `--stats` stderr of the run that wrote the file, since
/// both render the same snapshot at the same microsecond precision — and
/// the per-track event digest (traced runs only) goes to stderr. A captured
/// `subscribe` stream (no meta header, `"event"` lines only) renders as a
/// per-job heartbeat/completion digest instead. Unknown event kinds are
/// skipped and tallied, never fatal, so newer captures stay readable.
fn cmd_report(path: &str) -> Result<ExitCode, CheckError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CheckError::Parse(format!("{path}: {e}")))?;
    let report = ObsReport::parse(&text).map_err(|e| CheckError::Parse(format!("{path}: {e}")))?;
    if report.is_stream() {
        // Truncation is flagged inline by the summary itself.
        print!("{}", report.stream_summary());
    } else {
        print!("{}", report.summary());
        let digest = report.event_summary();
        if !digest.is_empty() {
            eprint!("{digest}");
        }
        if report.truncated {
            eprintln!(
                "rlcheck: report: {path} is truncated (no totals line); \
                 totals reconstructed from completed root spans"
            );
        }
    }
    let hist_table = report.hist_summary();
    if !hist_table.is_empty() {
        print!("{hist_table}");
    }
    let note = report.unknown_note();
    if !note.is_empty() {
        eprintln!("rlcheck: report: {note}");
    }
    Ok(ExitCode::SUCCESS)
}

/// The `report --dir` mode: renders the persistent metrics journal written
/// by `rlcheck serve --metrics-dir`. Samples from every rotated segment are
/// stitched into runs (a restart shows up as `uptime_ms` resetting), each
/// run's final snapshot is merged, and the percentile table plus per-run
/// time series go to stdout. Truncated tails, zero-length rotated segments,
/// and foreign files in the directory degrade to a skipped-line count on
/// stderr — never a parse failure, never a panic.
fn cmd_report_dir(dir: &str) -> Result<ExitCode, CheckError> {
    let journal = read_journal(std::path::Path::new(dir))
        .map_err(|e| CheckError::Parse(format!("{dir}: {e}")))?;
    print!("{}", render_journal(&journal));
    if journal.skipped_lines > 0 {
        eprintln!(
            "rlcheck: report: {dir}: skipped {} unparsable line(s)",
            journal.skipped_lines
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// The `slo` subcommand: the regression gate. Loads a committed rl-slo/v1
/// baseline (percentile ceilings per histogram family, plus a tolerance),
/// merges the journal the daemon wrote under `--metrics-dir`, and compares.
/// Exit 0 when every observed percentile is within `ceiling × (1 +
/// tolerance)`; exit 1 with one stderr line per violation otherwise, so CI
/// can gate on it directly.
fn cmd_slo(baseline_path: &str, dir: &str) -> Result<ExitCode, CheckError> {
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| CheckError::Parse(format!("{baseline_path}: {e}")))?;
    let baseline = parse_slo_baseline(&text)
        .map_err(|e| CheckError::Parse(format!("{baseline_path}: {e}")))?;
    let journal = read_journal(std::path::Path::new(dir))
        .map_err(|e| CheckError::Parse(format!("{dir}: {e}")))?;
    let observed = journal.merged_hists();
    if observed.is_empty() {
        return Err(CheckError::Parse(format!(
            "{dir}: journal holds no histogram samples to gate on"
        )));
    }
    let violations = evaluate_slo(&baseline, &observed);
    if violations.is_empty() {
        println!(
            "slo: ok ({} famil{} within tolerance {}%)",
            baseline.families.len(),
            if baseline.families.len() == 1 {
                "y"
            } else {
                "ies"
            },
            baseline.tolerance_pct
        );
        Ok(ExitCode::SUCCESS)
    } else {
        for v in &violations {
            eprintln!("slo: {v}");
        }
        eprintln!("slo: {} violation(s)", violations.len());
        Ok(ExitCode::FAILURE)
    }
}

/// Live progress heartbeats: a sampler thread that reads the guard's shared
/// atomics through a [`GuardProbe`] and prints one stderr line per period
/// (default 1s; `RL_PROGRESS_MS` overrides, for tests). The probe shares
/// only the `GuardCore` — no metrics, no locks on the hot path — so
/// heartbeats never perturb the run they observe. In batch mode each job
/// builds its own guard, so heartbeats report elapsed wall clock only.
struct ProgressMonitor {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
    probe: GuardProbe,
}

impl ProgressMonitor {
    fn start(probe: GuardProbe) -> ProgressMonitor {
        let period = knobs::env_u64("RL_PROGRESS_MS", 1_000).max(1);
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let shared = Arc::clone(&stop);
        let sampler_probe = probe.clone();
        let handle = std::thread::spawn(move || {
            let (lock, cv) = &*shared;
            let mut done = lock
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            while !*done {
                let (next, timeout) = cv
                    .wait_timeout(done, Duration::from_millis(period))
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                done = next;
                if *done || !timeout.timed_out() {
                    continue;
                }
                eprintln!("{}", heartbeat_line(&sampler_probe));
            }
        });
        ProgressMonitor {
            stop,
            handle: Some(handle),
            probe,
        }
    }

    /// Stops the sampler and joins it, so no heartbeat can interleave with
    /// the final summary — then flushes one last heartbeat, so even a run
    /// shorter than the sampling period leaves a progress record.
    fn finish(mut self) {
        let (lock, cv) = &*self.stop;
        *lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        cv.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        eprintln!("{}", heartbeat_line(&self.probe));
    }
}

/// One heartbeat: elapsed, states (with rate), frontier width, and — when a
/// budget is set — the fraction of each limit consumed. The serialization
/// lives in `rl_obs::Heartbeat::render_line`, shared byte-for-byte with the
/// lines that `serve` streams to subscribers.
fn heartbeat_line(probe: &GuardProbe) -> String {
    format!("rlcheck: [progress] {}", probe.heartbeat().render_line())
}

/// Minimal SIGINT/SIGTERM handling (Unix): the handler stores one flag into
/// a process-global `AtomicBool` — the only async-signal-safe thing it could
/// do — and a watcher thread propagates the flag to the run's
/// [`CancelToken`]. The deciders notice the cancelled token at their next
/// charge poll, unwind with `CheckError::Cancelled`, and the normal exit-3
/// path flushes every observability sink; in serve mode the same token
/// triggers the graceful drain. This module lives in the binary because it
/// is the workspace's only `unsafe` (every library crate
/// `forbid(unsafe_code)`s).
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    use relative_liveness::prelude::CancelToken;

    /// Hand-declared `signal(2)` binding, honoring the vendor-only policy
    /// (no libc crate in the tree).
    #[allow(non_camel_case_types)]
    type sighandler_t = usize;
    extern "C" {
        fn signal(signum: i32, handler: sighandler_t) -> sighandler_t;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    /// `SIG_DFL`, to restore default disposition after the first signal so
    /// a second Ctrl-C kills a stuck drain instead of being swallowed.
    const SIG_DFL: sighandler_t = 0;

    static SEEN: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        SEEN.store(true, Ordering::SeqCst);
    }

    /// Whether a SIGINT/SIGTERM has arrived.
    pub fn seen() -> bool {
        SEEN.load(Ordering::SeqCst)
    }

    /// Installs the handlers and spawns the watcher that cancels `token`
    /// when a signal lands (poll period 25ms, well under a charge
    /// interval), then restores the default disposition so a second signal
    /// terminates the process outright.
    pub fn install(token: CancelToken) {
        unsafe {
            signal(SIGINT, on_signal as extern "C" fn(i32) as sighandler_t);
            signal(SIGTERM, on_signal as extern "C" fn(i32) as sighandler_t);
        }
        std::thread::Builder::new()
            .name("rl-sig-watch".to_owned())
            .spawn(move || loop {
                if SEEN.load(Ordering::SeqCst) {
                    token.cancel();
                    unsafe {
                        signal(SIGINT, SIG_DFL);
                        signal(SIGTERM, SIG_DFL);
                    }
                    return;
                }
                std::thread::sleep(Duration::from_millis(25));
            })
            .expect("spawning the signal watcher succeeds");
    }
}

/// Non-Unix stub: signals are not wired, runs are stopped by the budget.
#[cfg(not(unix))]
mod sig {
    use relative_liveness::prelude::CancelToken;

    pub fn seen() -> bool {
        false
    }

    pub fn install(_token: CancelToken) {}
}

/// Runs a subcommand behind panic isolation and maps [`CheckError`] onto the
/// documented exit codes.
fn govern(body: impl FnOnce() -> Result<ExitCode, CheckError>) -> ExitCode {
    let outcome = panic::catch_unwind(AssertUnwindSafe(body));
    match outcome {
        Ok(Ok(code)) => code,
        Ok(Err(e @ CheckError::BudgetExceeded { .. }))
        | Ok(Err(e @ CheckError::Cancelled { .. })) => {
            eprintln!("rlcheck: resource budget exhausted before a verdict was reached");
            eprintln!("rlcheck: {e}");
            eprintln!("rlcheck: raise --timeout / --max-states, or simplify the input");
            ExitCode::from(3)
        }
        Ok(Err(e)) => fail(e),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_owned());
            eprintln!("rlcheck: internal panic: {msg}");
            ExitCode::from(101)
        }
    }
}

fn main() -> ExitCode {
    let args: Result<Vec<String>, _> = std::env::args_os()
        .skip(1)
        .map(OsString::into_string)
        .collect();
    let usage = "usage: rlcheck <check|abstract|simplicity|fair|dot|batch|report|serve|slo> \
                 <system-file>... [<formula>] [--keep a,b,c] [--steps N] \
                 [--timeout <secs>] [--max-states <n>] [--jobs <n>] \
                 [--manifest <file>] [--formula <f>] \
                 [--socket <path>] [--max-inflight-states <n>] [--queue-cap <n>] \
                 [--metrics-dir <dir>] [--dir <journal-dir>] \
                 [--stats] [--metrics <file>] [--trace-out <file>] \
                 [--flame-out <file>] [--progress]";
    let Ok(mut args) = args else {
        return fail(format!("arguments must be valid UTF-8\n{usage}"));
    };
    let budget = match extract_budget(&mut args) {
        Ok(b) => b,
        Err(e) => return fail(format!("{e}\n{usage}")),
    };
    let obs = match extract_obs(&mut args) {
        Ok(o) => o,
        Err(e) => return fail(format!("{e}\n{usage}")),
    };
    let jobs_flag = match extract_jobs(&mut args) {
        Ok(j) => j,
        Err(e) => return fail(format!("{e}\n{usage}")),
    };
    let Some(cmd) = args.first().cloned() else {
        return fail(usage);
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{usage}");
        return ExitCode::SUCCESS;
    }
    // The flag wins over the RL_THREADS env var, and 0 (in either)
    // auto-detects the machine's cores.
    let jobs = match (cmd.as_str(), jobs_flag) {
        ("batch" | "serve", flag) => resolve_jobs(flag),
        (_, Some(_)) => {
            return fail(format!(
                "--jobs applies only to batch and serve; {cmd} runs on one thread\n{usage}"
            ))
        }
        (_, None) => 1,
    };
    // Only attach a registry when a sink was requested: default runs keep
    // the guard's metrics hook at `None`, so charges stay branch-only.
    let registry = obs.wants_registry().then(MetricsRegistry::new);
    if let Some(reg) = &registry {
        // The resolved worker count lands in the JSONL header, so traces
        // record how the run was parallelized.
        reg.note_jobs(jobs);
    }
    // Percentile telemetry rides the same opt-in: without a sink the guard's
    // histogram hook stays `None` and the hot paths never call Instant::now.
    let hist_registry = obs.wants_registry().then(HistogramRegistry::new);
    // The event tracer exists only under --trace-out: without it the
    // registry keeps its Rc/Cell hot path and the pool skips the
    // recording branches entirely — tracing is strictly opt-in, and the
    // deterministic counters are bit-for-bit identical either way.
    let tracer = obs.trace.is_some().then(|| Arc::new(Tracer::new()));
    if let (Some(reg), Some(t)) = (&registry, &tracer) {
        reg.set_tracer(Arc::clone(t));
    }
    // One cancel token for the whole process: SIGINT/SIGTERM cancel through
    // it, so budget-style unwinding (exit 3) replaces dying mid-write with
    // half-flushed sinks. Serve mode reads it as the drain trigger.
    let cancel = CancelToken::new();
    sig::install(cancel.clone());
    let mut guard = Guard::with_cancel(budget.clone(), cancel.clone());
    if let Some(reg) = &registry {
        guard = guard.with_metrics(reg.clone());
    }
    let monitor = obs.progress.then(|| ProgressMonitor::start(guard.probe()));
    let code = match cmd.as_str() {
        "batch" => {
            let manifest = match extract_value_flag(&mut args, "--manifest") {
                Ok(m) => m,
                Err(e) => return fail(format!("{e}\n{usage}")),
            };
            let formula = match extract_value_flag(&mut args, "--formula") {
                Ok(f) => f,
                Err(e) => return fail(format!("{e}\n{usage}")),
            };
            let mut checks = Vec::new();
            if let Some(path) = &manifest {
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => return fail(format!("--manifest {path}: {e}")),
                };
                match parse_manifest(&text) {
                    Ok(mut m) => checks.append(&mut m),
                    Err(e) => return fail(format!("--manifest {path}: {e}")),
                }
            }
            if let Some(flag) = unknown_flag(&args) {
                return fail(format!("batch: unexpected argument {flag:?}\n{usage}"));
            }
            let files: Vec<String> = args[1..].to_vec();
            if !files.is_empty() {
                let Some(formula) = formula.clone() else {
                    return fail("batch: positional system files need --formula <f>");
                };
                for path in files {
                    checks.push(CheckSpec::from_path(path, formula.clone()));
                }
            }
            if checks.is_empty() {
                return fail(
                    "batch needs checks: --manifest <file> and/or <system-file>... --formula <f>",
                );
            }
            cmd_batch(
                checks,
                jobs,
                GuardSeed {
                    budget: budget.clone(),
                    cancel: cancel.clone(),
                    hists: hist_registry.clone(),
                },
                registry.as_ref(),
                tracer.as_ref(),
            )
        }
        "serve" => {
            #[cfg(unix)]
            {
                let socket = match extract_value_flag(&mut args, "--socket") {
                    Ok(Some(s)) => s,
                    Ok(None) => match args.get(1) {
                        Some(s) => s.clone(),
                        None => return fail("serve needs --socket <path>"),
                    },
                    Err(e) => return fail(format!("{e}\n{usage}")),
                };
                let max_inflight_states =
                    match extract_value_flag(&mut args, "--max-inflight-states") {
                        Ok(v) => match v.map(|raw| raw.parse::<u64>()).transpose() {
                            Ok(n) => n,
                            Err(_) => return fail("--max-inflight-states needs a state count"),
                        },
                        Err(e) => return fail(format!("{e}\n{usage}")),
                    };
                let queue_cap = match extract_value_flag(&mut args, "--queue-cap") {
                    Ok(v) => match v.map(|raw| raw.parse::<usize>()).transpose() {
                        Ok(n) => n.unwrap_or(16),
                        Err(_) => return fail("--queue-cap needs a count"),
                    },
                    Err(e) => return fail(format!("{e}\n{usage}")),
                };
                let metrics_dir = match extract_value_flag(&mut args, "--metrics-dir") {
                    Ok(d) => d,
                    Err(e) => return fail(format!("{e}\n{usage}")),
                };
                if let Some(flag) = unknown_flag(&args) {
                    return fail(format!("serve: unexpected argument {flag:?}\n{usage}"));
                }
                let config = relative_liveness::serve::ServeConfig {
                    socket,
                    threads: jobs,
                    job_budget: budget.clone(),
                    max_inflight_states,
                    queue_cap,
                    tracer: tracer.clone(),
                    metrics_dir,
                };
                let shutdown = cancel.clone();
                let reg = registry.clone();
                govern(move || {
                    relative_liveness::serve::serve(config, shutdown, reg.as_ref())
                        .map(ExitCode::from)
                })
            }
            #[cfg(not(unix))]
            {
                fail("serve requires Unix domain sockets and is not available on this platform")
            }
        }
        "report" => {
            let dir = match extract_value_flag(&mut args, "--dir") {
                Ok(d) => d,
                Err(e) => return fail(format!("{e}\n{usage}")),
            };
            match (dir, args.get(1)) {
                (Some(dir), None) => govern(move || cmd_report_dir(&dir)),
                (None, Some(path)) => govern(|| cmd_report(path)),
                (Some(_), Some(_)) => {
                    fail("report takes either <metrics.jsonl> or --dir <journal-dir>, not both")
                }
                (None, None) => fail("report needs <metrics.jsonl> or --dir <journal-dir>"),
            }
        }
        "slo" => {
            let dir = match extract_value_flag(&mut args, "--dir") {
                Ok(d) => d,
                Err(e) => return fail(format!("{e}\n{usage}")),
            };
            match (args.get(1).cloned(), dir) {
                (Some(baseline), Some(dir)) => govern(move || cmd_slo(&baseline, &dir)),
                _ => fail("slo needs <baseline.json> --dir <journal-dir>"),
            }
        }
        "check" => match &args[1..] {
            [path, f] => govern(|| cmd_check(path, f, &guard)),
            [_, _, extra, ..] => fail(format!("check: unexpected argument {extra:?}\n{usage}")),
            _ => fail(usage),
        },
        "abstract" => match (args.get(1), args.get(2), keep_list(&args)) {
            (Some(path), Some(f), Some(keep)) => govern(|| cmd_abstract(path, f, keep, &guard)),
            _ => fail("abstract needs <system-file> <formula> --keep a,b,c"),
        },
        "simplicity" => match (args.get(1), keep_list(&args)) {
            (Some(path), Some(keep)) => govern(|| cmd_simplicity(path, keep, &guard)),
            _ => fail("simplicity needs <system-file> --keep a,b,c"),
        },
        "fair" => match (args.get(1), args.get(2)) {
            (Some(path), Some(f)) => {
                let steps = args
                    .iter()
                    .position(|a| a == "--steps")
                    .and_then(|i| args.get(i + 1))
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(1_000);
                govern(|| cmd_fair(path, f, steps))
            }
            _ => fail(usage),
        },
        "dot" => match args.get(1) {
            Some(path) => govern(|| {
                let ts = load(path)?;
                println!("{}", ts.to_dot("system"));
                Ok(ExitCode::SUCCESS)
            }),
            None => fail(usage),
        },
        other => fail(format!("unknown command {other:?}\n{usage}")),
    };
    if let Some(monitor) = monitor {
        monitor.finish();
    }
    if sig::seen() {
        eprintln!("rlcheck: interrupted by signal; partial diagnostics follow");
    }
    finish(
        code,
        &obs,
        registry.as_ref(),
        hist_registry.as_ref(),
        tracer.as_deref(),
    )
}

/// Flushes the observability sinks last, after every span has closed —
/// including on the exit-3 path, where the profile shows which phase
/// consumed the budget, and the exit-101 path, where `govern`'s
/// `catch_unwind` has already run every span's drop so the partial profile
/// is still well-formed.
///
/// All sinks render from ONE snapshot taken here: the `--stats` table and
/// the `--metrics` JSONL therefore agree to the byte, which is what lets
/// `rlcheck report` reproduce the live table exactly.
fn finish(
    code: ExitCode,
    obs: &ObsFlags,
    registry: Option<&MetricsRegistry>,
    hists: Option<&HistogramRegistry>,
    tracer: Option<&Tracer>,
) -> ExitCode {
    let Some(reg) = registry else {
        return code;
    };
    let snapshot = reg.snapshot();
    // One histogram snapshot feeds both sinks, mirroring the counter
    // snapshot discipline: --stats and --metrics agree to the byte.
    // Families that never recorded are dropped here so the file and the
    // footer list the same rows.
    let hist_snaps: Vec<(String, HistogramSnapshot)> = hists
        .map(HistogramRegistry::snapshot)
        .unwrap_or_default()
        .into_iter()
        .filter(|(_, snap)| snap.count > 0)
        .collect();
    let events = tracer.map(Tracer::events).unwrap_or_default();
    if obs.stats {
        eprint!("{}", snapshot.summary());
        // Percentiles are schedule-dependent, so they live below the
        // deterministic counter table, in the layout `rlcheck report` uses.
        eprint!(
            "{}",
            percentile_table("histogram", hist_snaps.iter().map(|(n, s)| (n, s)))
        );
    }
    if let Some(path) = &obs.metrics {
        let jsonl = render_jsonl(&snapshot, reg.jobs(), &events, &hist_snaps);
        if let Err(e) = std::fs::write(path, jsonl) {
            return fail(format!("--metrics {path}: {e}"));
        }
    }
    if let Some(path) = &obs.trace {
        let chrome = chrome_trace_json(&events);
        let text = relative_liveness::json::to_string_pretty(&chrome)
            .unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"));
        if let Err(e) = std::fs::write(path, text) {
            return fail(format!("--trace-out {path}: {e}"));
        }
    }
    if let Some(path) = &obs.flame {
        if let Err(e) = std::fs::write(path, folded_stacks(&snapshot.records)) {
            return fail(format!("--flame-out {path}: {e}"));
        }
    }
    code
}
