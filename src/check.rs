//! The shared check pipeline behind `rlcheck check`, `rlcheck batch`, and
//! `rlcheck serve`.
//!
//! One check — parse a system, parse a formula, decide classical
//! satisfaction plus relative liveness/safety under a [`Guard`] — is the
//! same work whether it arrives as a CLI invocation, a line of a batch
//! manifest, or a `submit` request on the service socket. This module is
//! that single implementation: the front ends differ only in where the
//! system text comes from ([`SystemSource`]), which guard they assemble,
//! and where the buffered report goes.
//!
//! Everything here writes into caller-supplied `String` buffers instead of
//! the process streams, so concurrent checks (batch jobs, service jobs)
//! can run on pool workers and still be printed — or shipped over a
//! socket — in a deterministic order.

use std::fmt::Write;
use std::time::Duration;

use rl_automata::{fault, format_word, TransitionSystem};
use rl_buchi::behaviors_of_ts_with;
use rl_core::{CheckError, CheckPlan, Guard, Property};
use rl_logic::{parse, Formula};

use crate::format::parse_system;

/// Where a check's system description comes from.
///
/// The CLI reads files; the service accepts the system text inline over the
/// wire (a daemon should not trust or require a shared filesystem with its
/// clients).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemSource {
    /// A path on the local filesystem, in the `system`/`petri` formats of
    /// [`crate::format`].
    Path(String),
    /// System text shipped inline, plus a display name for reports.
    Inline {
        /// Name shown in reports and diagnostics (a client-chosen label).
        name: String,
        /// The system description itself.
        text: String,
    },
}

impl SystemSource {
    /// The name used in report headers and error messages.
    pub fn display_name(&self) -> &str {
        match self {
            SystemSource::Path(p) => p,
            SystemSource::Inline { name, .. } => name,
        }
    }

    /// Parses the system, reading it from disk first if needed; inline
    /// text is parsed where it lies.
    pub fn load(&self) -> Result<TransitionSystem, CheckError> {
        let name = self.display_name();
        let read;
        let text = match self {
            SystemSource::Path(path) => {
                read = std::fs::read_to_string(path)
                    .map_err(|e| CheckError::Parse(format!("{path}: {e}")))?;
                &read
            }
            SystemSource::Inline { text, .. } => text,
        };
        parse_system(text).map_err(|e| CheckError::Parse(format!("{name}: {e}")))
    }
}

/// One check: a system and a formula to decide against it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckSpec {
    /// The system under check.
    pub source: SystemSource,
    /// The PLTL property, unparsed.
    pub formula: String,
}

impl CheckSpec {
    /// A check of a system file on disk.
    pub fn from_path(path: impl Into<String>, formula: impl Into<String>) -> CheckSpec {
        CheckSpec {
            source: SystemSource::Path(path.into()),
            formula: formula.into(),
        }
    }
}

/// Parses a PLTL formula, mapping the error into [`CheckError::Parse`].
pub fn parse_formula(formula: &str) -> Result<Formula, CheckError> {
    parse(formula).map_err(|e| CheckError::Parse(e.to_string()))
}

/// `HOLDS`/`fails`, the verdict vocabulary of every report.
pub fn verdict(b: bool) -> &'static str {
    if b {
        "HOLDS"
    } else {
        "fails"
    }
}

/// Severity order for aggregating exit codes across jobs: panic > budget >
/// usage/input error > property failure > success.
pub fn severity(code: u8) -> u8 {
    match code {
        101 => 4,
        3 => 3,
        2 => 2,
        1 => 1,
        _ => 0,
    }
}

/// The larger of two exit codes under the [`severity`] order (ties keep the
/// current value).
pub fn worst_exit(current: u8, new: u8) -> u8 {
    if severity(new) > severity(current) {
        new
    } else {
        current
    }
}

/// The fair share of a batch's remaining deadline for the next job to start.
///
/// `remaining` is the wall clock left on the whole batch *right now*,
/// `unfinished` the number of jobs not yet completed (including the one
/// about to start), and `threads` the pool width. The unfinished jobs run
/// in about `ceil(unfinished / threads)` scheduling waves, so the next
/// job's slice is `remaining / waves` — recomputed from the live clock at
/// every job start. A job that finishes early therefore shrinks
/// `unfinished` (fewer waves) while leaving `remaining` nearly untouched:
/// its unused slice is *donated* to the jobs that start after it instead of
/// stranded. With at least as many threads as unfinished jobs there is one
/// wave and every job gets the full remaining time, which is also the
/// single-job behavior.
pub fn batch_job_deadline(remaining: Duration, unfinished: usize, threads: usize) -> Duration {
    let waves = unfinished.max(1).div_ceil(threads.max(1));
    remaining / waves as u32
}

/// The `check` pipeline, writing its report into `out` and warnings into
/// `err` (so batch and service modes can run checks concurrently and still
/// emit them in a deterministic order). Returns whether relative liveness
/// holds.
///
/// The three verdicts come from one [`CheckPlan`]: each shared automaton
/// is built once, and Theorem 4.7 settles relative liveness and safety
/// when the property holds classically, and relative safety when it is
/// relatively live but not classically true.
pub fn run_check(
    spec: &CheckSpec,
    guard: &Guard,
    out: &mut String,
    err: &mut String,
) -> Result<bool, CheckError> {
    let _span = guard.span("check");
    let (ts, eta) = {
        let _parse = guard.span("parse");
        (spec.source.load()?, parse_formula(&spec.formula)?)
    };
    warn_unknown_atoms(&eta, &ts, err);
    let behaviors = behaviors_of_ts_with(&ts, guard).map_err(CheckError::from)?;
    // Test hook: lets the CLI/service tests exercise the panic-containment
    // paths with real partial state (some spans closed, some charges
    // recorded) and assert the observability sinks still flush parseable
    // output. The `check-panic` fault point fires on exactly the armed
    // occurrence.
    if fault::fires("check-panic") {
        panic!("injected panic (RL_FAULT=check-panic)");
    }
    let prop = Property::formula(eta.clone());
    let mut plan = CheckPlan::new(&behaviors, &prop, guard);

    // Each verdict is written as soon as it is decided, so a budget trip
    // later in the plan still leaves the earlier verdicts in the report.
    let sat = plan.classical()?;
    let _ = writeln!(out, "classical  {eta}: {}", verdict(sat.holds));
    if let Some(x) = sat.counterexample {
        let _ = writeln!(
            out,
            "           counterexample: {}",
            x.display(ts.alphabet())
        );
    }
    let rl = plan.relative_liveness()?;
    let _ = writeln!(out, "rel-live   {eta}: {}", verdict(rl.holds));
    if let Some(w) = &rl.doomed_prefix {
        let _ = writeln!(
            out,
            "           doomed prefix: {}",
            format_word(ts.alphabet(), w)
        );
    }
    let rs = plan.relative_safety()?;
    let _ = writeln!(out, "rel-safe   {eta}: {}", verdict(rs.holds));
    if let Some(x) = rs.escaping_behavior {
        let _ = writeln!(
            out,
            "           escaping behavior: {}",
            x.display(ts.alphabet())
        );
    }
    Ok(rl.holds)
}

/// Warns about every atom of `eta` that names no action of `ts`. Under the
/// canonical labeling `λ_Σ` such an atom never holds, which is almost always
/// a typo.
fn warn_unknown_atoms(eta: &Formula, ts: &TransitionSystem, err: &mut String) {
    for atom in eta.atoms() {
        if ts.alphabet().symbol(&atom).is_none() {
            let _ = writeln!(
                err,
                "warning: atom \"{atom}\" is not an action of the system; under λ_Σ it never holds"
            );
        }
    }
}

/// Runs one check against `guard`, writing the report to `out` and
/// diagnostics to `err`; returns the job's exit code (same scheme as the
/// process exit codes: 0 holds, 1 fails, 2 input error, 3 budget).
pub fn report_check(spec: &CheckSpec, guard: &Guard, out: &mut String, err: &mut String) -> u8 {
    let name = spec.source.display_name();
    let _ = writeln!(out, "=== {} {}", name, spec.formula);
    match run_check(spec, guard, out, err) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e @ CheckError::BudgetExceeded { .. }) | Err(e @ CheckError::Cancelled { .. }) => {
            let _ = writeln!(
                err,
                "rlcheck: [{name}] resource budget exhausted before a verdict was reached"
            );
            let _ = writeln!(err, "rlcheck: {e}");
            3
        }
        Err(e) => {
            let _ = writeln!(err, "rlcheck: [{name}] {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_shim_changes_neither_report_nor_spans() {
        use rl_automata::{MetricsRegistry, OpCache};
        let run = |cache: bool| {
            let reg = MetricsRegistry::new();
            let mut guard = Guard::unlimited().with_metrics(reg.clone());
            if cache {
                guard = guard.with_op_cache(OpCache::with_limits(None, None));
            }
            let spec = CheckSpec::from_path("examples/systems/server_err.pn", "[]<>result");
            let (mut out, mut err) = (String::new(), String::new());
            let code = report_check(&spec, &guard, &mut out, &mut err);
            let spans: Vec<_> = reg
                .records()
                .into_iter()
                .map(|r| {
                    (
                        r.path,
                        r.states,
                        r.transitions,
                        r.cache_hits,
                        r.guard_charges,
                    )
                })
                .collect();
            (code, out, err, spans)
        };
        let plain = run(false);
        assert_eq!(plain.0, 1, "{plain:?}");
        assert!(!plain.3.is_empty());
        assert_eq!(run(true), plain);
    }

    #[test]
    fn severity_orders_panic_over_budget_over_usage() {
        let codes = [0u8, 1, 2, 3, 101];
        for window in codes.windows(2) {
            assert!(severity(window[0]) < severity(window[1]));
        }
        assert_eq!(worst_exit(3, 1), 3);
        assert_eq!(worst_exit(1, 101), 101);
        assert_eq!(worst_exit(0, 0), 0);
    }

    #[test]
    fn deadline_split_gives_full_remaining_when_one_wave() {
        let remaining = Duration::from_secs(30);
        // As many threads as jobs: a single wave, full remaining each.
        assert_eq!(batch_job_deadline(remaining, 4, 4), remaining);
        assert_eq!(batch_job_deadline(remaining, 1, 1), remaining);
        // More threads than jobs changes nothing.
        assert_eq!(batch_job_deadline(remaining, 2, 8), remaining);
    }

    #[test]
    fn deadline_split_divides_by_scheduling_waves() {
        let remaining = Duration::from_secs(30);
        // 4 jobs on 2 threads: two waves, half the remaining each.
        assert_eq!(batch_job_deadline(remaining, 4, 2), Duration::from_secs(15));
        // 5 jobs on 2 threads: three waves.
        assert_eq!(batch_job_deadline(remaining, 5, 2), Duration::from_secs(10));
    }

    #[test]
    fn deadline_split_donates_unused_time_as_jobs_finish() {
        // 4 jobs, 1 thread, 40s: the first job is offered 10s. If it takes
        // only 2s, the next job sees 38s remaining across 3 unfinished jobs
        // and is offered ~12.6s — strictly more than its original 10s share.
        let first = batch_job_deadline(Duration::from_secs(40), 4, 1);
        assert_eq!(first, Duration::from_secs(10));
        let second = batch_job_deadline(Duration::from_secs(38), 3, 1);
        assert!(second > first, "{second:?} should exceed {first:?}");
    }

    #[test]
    fn deadline_split_never_divides_by_zero() {
        assert_eq!(batch_job_deadline(Duration::ZERO, 0, 0), Duration::ZERO);
        assert_eq!(
            batch_job_deadline(Duration::from_secs(7), 0, 3),
            Duration::from_secs(7)
        );
    }

    #[test]
    fn inline_sources_parse_like_files() {
        let text = "system\nalphabet: go\ninitial: a\na go -> b\n";
        let inline = SystemSource::Inline {
            name: "wire:1".to_owned(),
            text: text.to_owned(),
        };
        assert_eq!(inline.display_name(), "wire:1");
        let ts = inline.load().expect("inline system parses");
        assert_eq!(ts.state_count(), 2);
    }
}
