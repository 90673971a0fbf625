//! Execution governance for potentially exponential constructions: resource
//! [`Budget`]s, wall-clock deadlines, and cooperative cancellation.
//!
//! Every worst-case-exponential procedure in this workspace (subset
//! construction, products, Büchi complementation, the simplicity check, …)
//! has a `*_with(&Guard)` variant that charges each materialized state and
//! transition against a [`Budget`] and periodically consults the wall clock
//! and a [`CancelToken`]. When a limit is hit the construction stops with
//! [`AutomataError::BudgetExceeded`] carrying a [`Progress`] snapshot
//! (states explored, frontier size, elapsed time) instead of looping or
//! exhausting memory. The un-suffixed entry points delegate to the guarded
//! ones with [`Guard::unlimited`], so existing callers are unaffected.
//!
//! A single [`Guard`] is intended to be threaded through *all* phases of one
//! logical check, so the budget covers the end-to-end run rather than each
//! construction separately.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use rl_automata::{Budget, Guard};
//!
//! let budget = Budget::unlimited()
//!     .with_max_states(10_000)
//!     .with_deadline(Duration::from_secs(5));
//! let guard = Guard::new(budget);
//! assert!(guard.charge_state().is_ok());
//! assert_eq!(guard.progress().states, 1);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rl_obs::{Metric, MetricsRegistry, Span, Tracer};

use crate::error::AutomataError;

/// The resource dimensions a [`Budget`] can cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// Materialized automaton states.
    States,
    /// Materialized transitions.
    Transitions,
    /// Wall-clock time (reported in milliseconds).
    WallClock,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::States => write!(f, "states"),
            Resource::Transitions => write!(f, "transitions"),
            Resource::WallClock => write!(f, "wall-clock milliseconds"),
        }
    }
}

/// Declarative resource limits for a run of the decision procedures.
///
/// `None` in a field means "unlimited". Budgets are plain data; attach one
/// to a [`Guard`] to enforce it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock limit for the whole guarded run.
    pub deadline: Option<Duration>,
    /// Cap on states materialized across all guarded constructions.
    pub max_states: Option<usize>,
    /// Cap on transitions materialized across all guarded constructions.
    pub max_transitions: Option<usize>,
}

impl Budget {
    /// A budget with no limits at all.
    pub const fn unlimited() -> Budget {
        Budget {
            deadline: None,
            max_states: None,
            max_transitions: None,
        }
    }

    /// Returns the budget with a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Budget {
        self.deadline = Some(deadline);
        self
    }

    /// Returns the budget with a cap on materialized states.
    pub fn with_max_states(mut self, max_states: usize) -> Budget {
        self.max_states = Some(max_states);
        self
    }

    /// Returns the budget with a cap on materialized transitions.
    pub fn with_max_transitions(mut self, max_transitions: usize) -> Budget {
        self.max_transitions = Some(max_transitions);
        self
    }

    /// Whether no limit is set in any dimension.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_states.is_none() && self.max_transitions.is_none()
    }
}

/// A shared flag for cooperative cancellation.
///
/// Clone the token, hand one clone to the checking thread (inside a
/// [`Guard`]) and keep the other; calling [`CancelToken::cancel`] makes the
/// next guard check fail with [`AutomataError::Cancelled`].
///
/// # Example
///
/// ```
/// use rl_automata::{Budget, CancelToken, Guard};
///
/// let token = CancelToken::new();
/// let guard = Guard::with_cancel(Budget::unlimited(), token.clone());
/// assert!(guard.check_now().is_ok());
/// token.cancel();
/// assert!(guard.check_now().is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, not-yet-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation; all guards holding this token trip at their
    /// next check.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Snapshot of the work a guarded run had performed when it was interrupted
/// (or queried): the partial diagnostics carried by
/// [`AutomataError::BudgetExceeded`] and [`AutomataError::Cancelled`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Progress {
    /// States materialized so far.
    pub states: usize,
    /// Transitions materialized so far.
    pub transitions: usize,
    /// Size of the active worklist/frontier at the last report.
    pub frontier: usize,
    /// Wall-clock time since the guard was created.
    pub elapsed: Duration,
    /// Slash-joined path of the phase that was active when the snapshot was
    /// taken (e.g. `check/relative_liveness/determinize`), when the guard
    /// had a [`MetricsRegistry`] attached and a span was open — so
    /// budget-exhaustion reports name the phase that blew the budget, not
    /// just global counters.
    pub phase: Option<String>,
}

impl fmt::Display for Progress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} states, {} transitions explored (frontier {}) in {:?}",
            self.states, self.transitions, self.frontier, self.elapsed
        )?;
        if let Some(phase) = &self.phase {
            write!(f, ", in phase {phase}")?;
        }
        Ok(())
    }
}

/// The budget-enforcement core shared by a [`Guard`] and its
/// [`GuardProbe`]s: the limits, the clock, the cancel token, and atomic
/// spend counters.
///
/// Counters are relaxed atomics: the checking thread charges, while
/// `--progress` and serve heartbeats *read* them from another thread
/// (through a probe). Only one thread ever writes them: a [`Guard`] is
/// neither `Send` nor `Sync` (its [`MetricsRegistry`] is `Rc`-based), and
/// probes only read. So a charge is a relaxed `load` and `store`, not a
/// read-modify-write: even uncontended, `fetch_add` is a locked
/// instruction, and with it an unlimited guard's `charge_transition` took
/// about 9 ns, against about 3 ns with the plain store (release build,
/// 2-vCPU Xeon). A probe still reads a whole value, never a torn one.
#[derive(Debug)]
struct GuardCore {
    budget: Budget,
    cancel: Option<CancelToken>,
    start: Instant,
    states: AtomicUsize,
    transitions: AtomicUsize,
    frontier: AtomicUsize,
    until_clock_check: AtomicU32,
}

impl GuardCore {
    fn progress(&self, phase: Option<String>) -> Progress {
        Progress {
            states: self.states.load(Ordering::Relaxed),
            transitions: self.transitions.load(Ordering::Relaxed),
            frontier: self.frontier.load(Ordering::Relaxed),
            elapsed: self.start.elapsed(),
            phase,
        }
    }
}

/// A `Send + Sync` read-only window onto a [`Guard`]'s core, for heartbeat
/// reporters that sample a check's progress from another thread. Cloning
/// is an `Arc` bump.
#[derive(Debug, Clone)]
pub struct GuardProbe {
    core: Arc<GuardCore>,
}

impl GuardProbe {
    /// A phase-less snapshot of the shared counters — the live-progress
    /// feed: heartbeat reporters sample this off-thread while the owning
    /// guard keeps checking.
    pub fn progress(&self) -> Progress {
        self.core.progress(None)
    }

    /// The budget the shared core enforces, for reporting consumed
    /// fractions against its limits.
    pub fn budget(&self) -> &Budget {
        &self.core.budget
    }

    /// One heartbeat sample of the shared atomics: progress plus the
    /// budget limits that are set, in the serialization shared by
    /// `--progress` and the serve wire stream. The job id is the caller's
    /// to fill in — the probe does not know it.
    pub fn heartbeat(&self) -> rl_obs::Heartbeat {
        let p = self.progress();
        let b = self.budget();
        rl_obs::Heartbeat {
            job: None,
            elapsed_us: p.elapsed.as_micros() as u64,
            states: p.states as u64,
            transitions: p.transitions as u64,
            frontier: p.frontier as u64,
            states_limit: b.max_states.map(|n| n as u64),
            deadline_us: b.deadline.map(|d| d.as_micros() as u64),
        }
    }
}

/// An operation cache that holds nothing: guarded constructions build
/// every automaton directly.
///
/// Kept only because `perfbench/` calls it; the benchmark change of
/// ROADMAP item 1 removes it.
#[derive(Debug, Clone, Default)]
pub struct OpCache;

impl OpCache {
    /// The empty cache.
    pub fn new() -> OpCache {
        OpCache
    }

    /// The empty cache; the tracer and the byte budget are ignored.
    pub fn with_limits(_tracer: Option<Arc<Tracer>>, _byte_budget: Option<usize>) -> OpCache {
        OpCache
    }
}

/// The cheap per-iteration handle that construction loops tick.
///
/// The budget/clock/counter core is `Arc`-shared (see [`GuardProbe`]); the
/// guard itself additionally carries the thread-local
/// [`MetricsRegistry`] hook. The wall clock
/// and the cancel flag are consulted only every [`Guard::CHECK_INTERVAL`]
/// charges, so guarding adds a few nanoseconds per iteration.
///
/// A guard stays on the thread that made it, the one thread that charges
/// its counters:
///
/// ```compile_fail
/// fn send<T: Send>() {}
/// send::<rl_automata::Guard>();
/// ```
#[derive(Debug)]
pub struct Guard {
    core: Arc<GuardCore>,
    metrics: Option<MetricsRegistry>,
}

impl Guard {
    /// How many cheap checks elapse between wall-clock/cancellation polls.
    pub const CHECK_INTERVAL: u32 = 256;

    /// A guard enforcing `budget`, with the clock starting now.
    pub fn new(budget: Budget) -> Guard {
        Guard::build(budget, None)
    }

    /// A guard with no limits (never trips).
    pub fn unlimited() -> Guard {
        Guard::new(Budget::unlimited())
    }

    /// A guard that additionally trips when `token` is cancelled.
    pub fn with_cancel(budget: Budget, token: CancelToken) -> Guard {
        Guard::build(budget, Some(token))
    }

    fn build(budget: Budget, cancel: Option<CancelToken>) -> Guard {
        Guard {
            core: Arc::new(GuardCore {
                budget,
                cancel,
                start: Instant::now(),
                states: AtomicUsize::new(0),
                transitions: AtomicUsize::new(0),
                frontier: AtomicUsize::new(0),
                until_clock_check: AtomicU32::new(Self::CHECK_INTERVAL),
            }),
            metrics: None,
        }
    }

    /// Does nothing: the eager determinizing pipeline this once selected is
    /// gone, and every check decides Lemma 4.3 by the lazy antichain search.
    ///
    /// Kept only because `perfbench/` calls it; the benchmark change of
    /// ROADMAP item 1 removes it.
    pub fn with_lazy(self, _lazy: bool) -> Guard {
        self
    }

    /// Does nothing: the semidecision pre-filter ladder this once switched
    /// is gone.
    ///
    /// Kept only because `perfbench/` calls it; the benchmark change of
    /// ROADMAP item 1 removes it.
    pub fn with_filters(self, _filters: bool) -> Guard {
        self
    }

    /// Attaches a [`MetricsRegistry`]: every subsequent charge is mirrored
    /// into the registry's counters, [`Guard::span`] opens real phases, and
    /// [`Progress`] snapshots carry the active span path.
    ///
    /// Without this call the guard's observability hooks are no-ops (a
    /// single branch per charge — no allocation, no atomics).
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Guard {
        self.metrics = Some(metrics);
        self
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    /// Does nothing: guarded constructions no longer memoize, so there is
    /// no operation cache to attach.
    ///
    /// Kept only because `perfbench/` calls it; the benchmark change of
    /// ROADMAP item 1 removes it.
    pub fn with_op_cache(self, _cache: OpCache) -> Guard {
        self
    }

    /// A `Send + Sync` probe onto this guard's progress counters, for
    /// heartbeat reporters on other threads.
    pub fn probe(&self) -> GuardProbe {
        GuardProbe {
            core: self.core.clone(),
        }
    }

    /// Opens a named phase span on the attached registry, or the inert
    /// [`Span::disabled`] when observability is off.
    ///
    /// Constructions hold the returned guard for their whole run:
    ///
    /// ```
    /// # use rl_automata::Guard;
    /// # fn construction(guard: &Guard) {
    /// let _span = guard.span("determinize");
    /// // ... materialize states, charging the guard ...
    /// # }
    /// ```
    pub fn span(&self, name: &'static str) -> Span {
        match &self.metrics {
            Some(m) => m.enter(name),
            None => Span::disabled(),
        }
    }

    /// Records a memoization hit on the attached registry (no-op when
    /// observability is off).
    pub fn note_cache_hit(&self) {
        if let Some(m) = &self.metrics {
            m.inc(Metric::CacheHits);
        }
    }

    /// Records a kernel timeline instant (e.g. per-layer width samples of
    /// the lazy inclusion search) on the registry's attached tracer.
    /// A no-op unless both a registry and a tracer are attached — in
    /// particular, it never touches the metric counters, so tracing cannot
    /// perturb deterministic totals.
    pub fn trace_instant(&self, name: &'static str, arg: Option<(&'static str, u64)>) {
        if let Some(m) = &self.metrics {
            if let Some(t) = m.tracer() {
                t.instant("kernel", name, arg);
            }
        }
    }

    /// The budget being enforced.
    pub fn budget(&self) -> &Budget {
        &self.core.budget
    }

    /// Wall-clock time since the guard was created.
    pub fn elapsed(&self) -> Duration {
        self.core.start.elapsed()
    }

    /// Snapshot of the work charged so far.
    pub fn progress(&self) -> Progress {
        self.core
            .progress(self.metrics.as_ref().and_then(|m| m.current_path()))
    }

    /// Records the current worklist size, for partial diagnostics.
    pub fn note_frontier(&self, len: usize) {
        self.core.frontier.store(len, Ordering::Relaxed);
    }

    /// Charges one materialized state against the budget.
    ///
    /// # Errors
    ///
    /// [`AutomataError::BudgetExceeded`] when the state cap is exceeded;
    /// also performs the periodic deadline/cancellation check of
    /// [`Guard::tick`].
    pub fn charge_state(&self) -> Result<(), AutomataError> {
        // The owning thread is the only writer (see `GuardCore`).
        let n = self.core.states.load(Ordering::Relaxed) + 1;
        self.core.states.store(n, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.inc(Metric::States);
        }
        if let Some(limit) = self.core.budget.max_states {
            if n > limit {
                return Err(self.exceeded(Resource::States, n as u64, limit as u64));
            }
        }
        self.tick()
    }

    /// Charges one materialized transition against the budget.
    ///
    /// # Errors
    ///
    /// [`AutomataError::BudgetExceeded`] when the transition cap is
    /// exceeded; also performs the periodic check of [`Guard::tick`].
    pub fn charge_transition(&self) -> Result<(), AutomataError> {
        let n = self.core.transitions.load(Ordering::Relaxed) + 1;
        self.core.transitions.store(n, Ordering::Relaxed);
        if let Some(m) = &self.metrics {
            m.inc(Metric::Transitions);
        }
        if let Some(limit) = self.core.budget.max_transitions {
            if n > limit {
                return Err(self.exceeded(Resource::Transitions, n as u64, limit as u64));
            }
        }
        self.tick()
    }

    /// Cheap cooperative checkpoint for loops that allocate nothing: every
    /// [`Guard::CHECK_INTERVAL`] calls, polls the deadline and the cancel
    /// token.
    ///
    /// # Errors
    ///
    /// Propagates [`Guard::check_now`] on the polling iterations.
    pub fn tick(&self) -> Result<(), AutomataError> {
        if let Some(m) = &self.metrics {
            m.inc(Metric::GuardCharges);
        }
        // Charges happen on the guard-owning thread only, so this
        // load/store countdown stays exact.
        let left = self.core.until_clock_check.load(Ordering::Relaxed);
        if left > 1 {
            self.core
                .until_clock_check
                .store(left - 1, Ordering::Relaxed);
            return Ok(());
        }
        self.core
            .until_clock_check
            .store(Self::CHECK_INTERVAL, Ordering::Relaxed);
        self.check_now()
    }

    /// Immediately polls the cancel token and the wall-clock deadline.
    ///
    /// # Errors
    ///
    /// [`AutomataError::Cancelled`] when the token has been cancelled,
    /// [`AutomataError::BudgetExceeded`] when the deadline has passed.
    pub fn check_now(&self) -> Result<(), AutomataError> {
        let core = &self.core;
        if core.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Err(AutomataError::Cancelled(self.progress()));
        }
        if let Some(deadline) = core.budget.deadline {
            let elapsed = core.start.elapsed();
            if elapsed > deadline {
                return Err(AutomataError::BudgetExceeded {
                    resource: Resource::WallClock,
                    spent: elapsed.as_millis() as u64,
                    limit: deadline.as_millis() as u64,
                    partial: self.progress(),
                });
            }
        }
        Ok(())
    }

    fn exceeded(&self, resource: Resource, spent: u64, limit: u64) -> AutomataError {
        AutomataError::BudgetExceeded {
            resource,
            spent,
            limit,
            partial: self.progress(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_guard_never_trips() {
        let g = Guard::unlimited();
        for _ in 0..10_000 {
            g.charge_state().unwrap();
            g.charge_transition().unwrap();
        }
        assert_eq!(g.progress().states, 10_000);
        assert_eq!(g.progress().transitions, 10_000);
    }

    #[test]
    fn state_cap_trips_exactly_past_the_limit() {
        let g = Guard::new(Budget::unlimited().with_max_states(3));
        for _ in 0..3 {
            g.charge_state().unwrap();
        }
        let err = g.charge_state().unwrap_err();
        match err {
            AutomataError::BudgetExceeded {
                resource,
                spent,
                limit,
                partial,
            } => {
                assert_eq!(resource, Resource::States);
                assert_eq!(spent, 4);
                assert_eq!(limit, 3);
                assert_eq!(partial.states, 4);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn transition_cap_trips() {
        let g = Guard::new(Budget::unlimited().with_max_transitions(2));
        g.charge_transition().unwrap();
        g.charge_transition().unwrap();
        assert!(matches!(
            g.charge_transition(),
            Err(AutomataError::BudgetExceeded {
                resource: Resource::Transitions,
                ..
            })
        ));
    }

    #[test]
    fn zero_deadline_trips_within_one_check_interval() {
        let g = Guard::new(Budget::unlimited().with_deadline(Duration::ZERO));
        let mut tripped = false;
        for _ in 0..=Guard::CHECK_INTERVAL {
            if g.tick().is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "deadline of zero must trip within one interval");
        assert!(matches!(
            g.check_now(),
            Err(AutomataError::BudgetExceeded {
                resource: Resource::WallClock,
                ..
            })
        ));
    }

    #[test]
    fn cancellation_is_observed() {
        let token = CancelToken::new();
        let g = Guard::with_cancel(Budget::unlimited(), token.clone());
        assert!(g.check_now().is_ok());
        token.cancel();
        match g.check_now().unwrap_err() {
            AutomataError::Cancelled(p) => assert_eq!(p.states, 0),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn frontier_is_reported_in_diagnostics() {
        let g = Guard::new(Budget::unlimited().with_max_states(0));
        g.note_frontier(17);
        match g.charge_state().unwrap_err() {
            AutomataError::BudgetExceeded { partial, .. } => assert_eq!(partial.frontier, 17),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn metrics_mirror_charges_and_progress_names_the_phase() {
        use rl_obs::{Metric, MetricsRegistry};
        let m = MetricsRegistry::new();
        let g = Guard::new(Budget::unlimited().with_max_states(2)).with_metrics(m.clone());
        let _outer = g.span("check");
        let _inner = g.span("determinize");
        g.charge_state().unwrap();
        g.charge_state().unwrap();
        g.charge_transition().unwrap();
        assert_eq!(m.total(Metric::States), 2);
        assert_eq!(m.total(Metric::Transitions), 1);
        assert_eq!(m.total(Metric::GuardCharges), 3);
        let err = g.charge_state().unwrap_err();
        match err {
            AutomataError::BudgetExceeded { partial, .. } => {
                assert_eq!(partial.phase.as_deref(), Some("check/determinize"));
                assert!(partial.to_string().contains("in phase check/determinize"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn no_op_sink_adds_zero_counter_traffic() {
        use rl_obs::{Metric, MetricsRegistry};
        // A registry exists in the program, but this guard runs without one
        // attached: none of its traffic may leak into the registry, and its
        // spans must be inert.
        let bystander = MetricsRegistry::new();
        let g = Guard::unlimited();
        let span = g.span("determinize");
        assert!(!span.is_enabled(), "detached guards hand out inert spans");
        for _ in 0..1_000 {
            g.charge_state().unwrap();
            g.charge_transition().unwrap();
            g.note_cache_hit();
        }
        drop(span);
        for metric in Metric::ALL {
            assert_eq!(bystander.total(metric), 0, "{}", metric.name());
        }
        assert!(bystander.records().is_empty());
        assert_eq!(g.progress().phase, None);
    }

    #[test]
    fn cache_hits_are_counted_when_attached() {
        use rl_obs::{Metric, MetricsRegistry};
        let m = MetricsRegistry::new();
        let g = Guard::unlimited().with_metrics(m.clone());
        g.note_cache_hit();
        g.note_cache_hit();
        assert_eq!(m.total(Metric::CacheHits), 2);
    }

    #[test]
    fn budget_builder_composes() {
        let b = Budget::unlimited()
            .with_max_states(5)
            .with_max_transitions(6)
            .with_deadline(Duration::from_secs(1));
        assert_eq!(b.max_states, Some(5));
        assert_eq!(b.max_transitions, Some(6));
        assert_eq!(b.deadline, Some(Duration::from_secs(1)));
        assert!(!b.is_unlimited());
        assert!(Budget::unlimited().is_unlimited());
    }
}
