//! Executing transition systems under a scheduler, with run statistics.

use std::collections::BTreeMap;

use rl_automata::{StateId, Symbol, TransitionSystem};

use crate::scheduler::Scheduler;

/// A finite execution: the visited states and the fired action word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    /// States visited, starting with the initial state
    /// (`states.len() == word.len() + 1`).
    pub states: Vec<StateId>,
    /// Actions fired.
    pub word: Vec<Symbol>,
    /// Whether the run stopped early in a deadlock.
    pub deadlocked: bool,
}

impl Run {
    /// Number of steps taken.
    pub fn len(&self) -> usize {
        self.word.len()
    }

    /// Whether no step was taken.
    pub fn is_empty(&self) -> bool {
        self.word.is_empty()
    }

    /// How often each action was fired.
    pub fn action_counts(&self) -> BTreeMap<Symbol, usize> {
        let mut counts = BTreeMap::new();
        for &a in &self.word {
            *counts.entry(a).or_insert(0) += 1;
        }
        counts
    }

    /// The largest gap (in steps) between consecutive visits to any state in
    /// `targets`, measuring how "recurrent" the target set is. Returns
    /// `None` when the run never visits a target.
    pub fn max_gap_between_visits(&self, targets: &[bool]) -> Option<usize> {
        let mut last: Option<usize> = None;
        let mut max_gap = 0usize;
        let mut seen = false;
        for (i, &q) in self.states.iter().enumerate() {
            if targets.get(q).copied().unwrap_or(false) {
                if let Some(l) = last {
                    max_gap = max_gap.max(i - l);
                }
                last = Some(i);
                seen = true;
            }
        }
        if !seen {
            return None;
        }
        // Count the tail after the final visit too.
        if let Some(l) = last {
            max_gap = max_gap.max(self.states.len() - 1 - l);
        }
        Some(max_gap)
    }
}

impl Run {
    /// Formats the first `limit` steps as `state --action--> state …`,
    /// using state labels when available — for logs and failure messages.
    pub fn display_trace(&self, ts: &TransitionSystem, limit: usize) -> String {
        let name = |q: StateId| ts.state_label(q).unwrap_or_else(|| format!("s{q}"));
        let mut out = String::new();
        out.push_str(&name(self.states[0]));
        for (i, &a) in self.word.iter().take(limit).enumerate() {
            out.push_str(" --");
            out.push_str(ts.alphabet().name(a));
            out.push_str("--> ");
            out.push_str(&name(self.states[i + 1]));
        }
        if self.word.len() > limit {
            out.push_str(" …");
        }
        out
    }
}

/// Runs `ts` for up to `steps` steps under `scheduler`, starting from the
/// initial state. Stops early at deadlocks.
///
/// # Example — fairness makes the difference (the paper's Section 1 point)
///
/// ```
/// use rl_exec::{run, AgingScheduler, PriorityScheduler};
/// use rl_petri::examples::server_behaviors;
///
/// let ts = server_behaviors(); // Figure 2
/// let ab = ts.alphabet().clone();
/// let result = ab.symbol("result").unwrap();
///
/// // The strongly fair scheduler produces results over and over …
/// let fair = run(&ts, &mut AgingScheduler::new(), 400);
/// assert!(fair.action_counts().get(&result).copied().unwrap_or(0) > 10);
///
/// // … while an adversary that locks the resource first starves the client
/// // forever: lock · (request · no · reject)^ω, the paper's computation.
/// let lock_first = PriorityScheduler::new([ab.symbol("lock").unwrap()]);
/// let unfair = run(&ts, &mut { lock_first }, 400);
/// assert_eq!(unfair.action_counts().get(&result).copied().unwrap_or(0), 0);
/// ```
pub fn run(ts: &TransitionSystem, scheduler: &mut dyn Scheduler, steps: usize) -> Run {
    let mut states = vec![ts.initial()];
    let mut word = Vec::with_capacity(steps);
    let mut current = ts.initial();
    let mut deadlocked = false;
    for _ in 0..steps {
        let enabled = ts.enabled(current);
        if enabled.is_empty() {
            deadlocked = true;
            break;
        }
        let idx = scheduler.choose(current, &enabled);
        let (a, next) = enabled[idx];
        word.push(a);
        states.push(next);
        current = next;
    }
    Run {
        states,
        word,
        deadlocked,
    }
}

/// Empirical strong-fairness measure of a run: for every transition
/// `(q, a, t)` of the system, the ratio `taken / enabled-at-q-visits`;
/// returns the minimum ratio over transitions whose source was visited at
/// least `min_visits` times. Strongly fair runs have a positive minimum.
pub fn min_fairness_ratio(ts: &TransitionSystem, run: &Run, min_visits: usize) -> f64 {
    let mut visits = vec![0usize; ts.state_count()];
    for &q in &run.states[..run.states.len().saturating_sub(1)] {
        visits[q] += 1;
    }
    let mut taken: BTreeMap<(StateId, Symbol, StateId), usize> = BTreeMap::new();
    for (i, &a) in run.word.iter().enumerate() {
        *taken
            .entry((run.states[i], a, run.states[i + 1]))
            .or_insert(0) += 1;
    }
    let mut min_ratio = f64::INFINITY;
    for (q, a, t) in ts.transitions() {
        if visits[q] < min_visits {
            continue;
        }
        let k = taken.get(&(q, a, t)).copied().unwrap_or(0);
        min_ratio = min_ratio.min(k as f64 / visits[q] as f64);
    }
    if min_ratio.is_infinite() {
        0.0
    } else {
        min_ratio
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{AgingScheduler, FixedPriorityScheduler, RandomScheduler};
    use rl_automata::Alphabet;

    /// A one-state system with two self-loop actions.
    fn coin() -> TransitionSystem {
        let ab = Alphabet::new(["heads", "tails"]).unwrap();
        let h = ab.symbol("heads").unwrap();
        let t = ab.symbol("tails").unwrap();
        let mut ts = TransitionSystem::new(ab);
        let s = ts.add_state();
        ts.set_initial(s);
        ts.add_transition(s, h, s);
        ts.add_transition(s, t, s);
        ts
    }

    #[test]
    fn aging_run_is_balanced() {
        let ts = coin();
        let r = run(&ts, &mut AgingScheduler::new(), 100);
        assert_eq!(r.len(), 100);
        assert!(!r.deadlocked);
        let counts = r.action_counts();
        let h = ts.alphabet().symbol("heads").unwrap();
        let t = ts.alphabet().symbol("tails").unwrap();
        assert_eq!(counts[&h], 50);
        assert_eq!(counts[&t], 50);
        assert!(min_fairness_ratio(&ts, &r, 1) > 0.4);
    }

    #[test]
    fn unfair_run_starves() {
        let ts = coin();
        let r = run(&ts, &mut FixedPriorityScheduler::new(), 100);
        let t = ts.alphabet().symbol("tails").unwrap();
        assert_eq!(r.action_counts().get(&t).copied().unwrap_or(0), 0);
        assert_eq!(min_fairness_ratio(&ts, &r, 1), 0.0);
    }

    #[test]
    fn random_run_hits_both() {
        let ts = coin();
        let r = run(&ts, &mut RandomScheduler::new(42), 200);
        let counts = r.action_counts();
        assert_eq!(counts.len(), 2, "both actions should occur");
    }

    #[test]
    fn deadlock_stops_run() {
        let ab = Alphabet::new(["go"]).unwrap();
        let go = ab.symbol("go").unwrap();
        let mut ts = TransitionSystem::new(ab);
        let s0 = ts.add_state();
        let s1 = ts.add_state();
        ts.set_initial(s0);
        ts.add_transition(s0, go, s1);
        let r = run(&ts, &mut AgingScheduler::new(), 10);
        assert!(r.deadlocked);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn trace_display() {
        let ts = coin();
        let r = run(&ts, &mut AgingScheduler::new(), 3);
        let trace = r.display_trace(&ts, 2);
        assert!(trace.contains("--heads-->") || trace.contains("--tails-->"));
        assert!(trace.ends_with('…'), "long runs are elided: {trace}");
        let full = r.display_trace(&ts, 10);
        assert!(!full.ends_with('…'));
    }

    #[test]
    fn gap_measurement() {
        let ts = coin();
        let r = run(&ts, &mut AgingScheduler::new(), 20);
        // The single state is always visited: max gap 1.
        assert_eq!(r.max_gap_between_visits(&[true]), Some(1));
        assert_eq!(r.max_gap_between_visits(&[false]), None);
    }
}
