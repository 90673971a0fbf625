//! Limits of regular languages and behaviors of transition systems.
//!
//! The paper (Section 3) defines `lim(L) = { x ∈ Σ^ω | ∃^∞ w ∈ pre(x): w ∈ L }`
//! and models systems as finite-state transition systems without acceptance,
//! whose ω-behavior is the limit of their prefix-closed finite-word language.

use std::collections::BTreeSet;

use rl_automata::{AutomataError, Guard, TransitionSystem};

use crate::buchi::Buchi;

/// The ω-behavior `lim(L)` of a transition system, where `L` is its
/// prefix-closed finite-word language (Definition 6.2 with `h = id`).
///
/// Every state is accepting, so the behaviors are exactly the infinite runs;
/// deadlocked branches contribute nothing (they admit no infinite run).
/// The system's language is prefix closed and all-accepting, so its limit
/// is the system's graph read with Büchi semantics. König's lemma closes
/// the gap that makes a limit need a deterministic automaton in general:
/// the run tree of an ω-word `x` has a node at depth `n` exactly when
/// `x`'s length-`n` prefix is in `L`, and branching is finite, so *all*
/// prefixes of `x` being in `L` yields an infinite run, which every state
/// accepting makes Büchi-accepting. Nothing is determinized, and a
/// nondeterministic system such as `needle24.ts` stays polynomial.
pub fn behaviors_of_ts(ts: &TransitionSystem) -> Buchi {
    behaviors_of_ts_with(ts, &Guard::unlimited()).expect("an unlimited guard never trips")
}

/// [`behaviors_of_ts`] under a resource [`Guard`].
///
/// The Büchi automaton is built straight from the system's transitions,
/// one state per system state and one edge per transition, in a `limit`
/// span that charges every state, then every transition.
///
/// # Errors
///
/// Returns a budget error when the guard trips.
pub fn behaviors_of_ts_with(ts: &TransitionSystem, guard: &Guard) -> Result<Buchi, AutomataError> {
    let _span = guard.span("behaviors");
    let _lim = guard.span("limit");
    let n = ts.state_count();
    for _ in 0..n {
        guard.charge_state()?;
    }
    // The system's rows are sorted and deduplicated already: copy them.
    let mut edges = Vec::with_capacity(n);
    for q in 0..n {
        let row = ts.enabled(q);
        for _ in &row {
            guard.charge_transition()?;
        }
        edges.push(row);
    }
    let initial = if n > 0 {
        BTreeSet::from([ts.initial()])
    } else {
        BTreeSet::new()
    };
    Ok(Buchi::from_rows(
        ts.alphabet().clone(),
        initial,
        vec![true; n],
        edges,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::upword::UpWord;
    use rl_automata::{Alphabet, Dfa, Nfa};

    /// `lim(L(d))` of a *deterministic* automaton: the unique run of `x`
    /// visits accepting states at exactly the positions whose prefix is in
    /// `L`, so the same graph read with Büchi semantics accepts `lim(L)`.
    fn limit_of_deterministic(d: &Dfa) -> Buchi {
        Buchi::from_nfa_structure(&d.to_nfa())
    }

    #[test]
    fn limit_excludes_deadlocked_runs() {
        let ab = Alphabet::new(["go", "stop"]).unwrap();
        let go = ab.symbol("go").unwrap();
        let stop = ab.symbol("stop").unwrap();
        let mut ts = TransitionSystem::new(ab);
        let s0 = ts.add_state();
        let s1 = ts.add_state(); // deadlock after "stop"
        ts.set_initial(s0);
        ts.add_transition(s0, go, s0);
        ts.add_transition(s0, stop, s1);
        let b = behaviors_of_ts(&ts);
        assert!(b.accepts_upword(&UpWord::periodic(vec![go]).unwrap()));
        // "stop" leads to deadlock: no ω-word goes through it.
        assert!(!b.accepts_upword(&UpWord::new(vec![stop], vec![go]).unwrap()));
    }

    #[test]
    fn behaviors_are_the_infinite_runs() {
        let ab = Alphabet::new(["a", "b"]).unwrap();
        let a = ab.symbol("a").unwrap();
        let b = ab.symbol("b").unwrap();
        let mut ts = TransitionSystem::new(ab);
        let s0 = ts.add_state();
        let s1 = ts.add_state();
        ts.set_initial(s0);
        ts.add_transition(s0, a, s1);
        ts.add_transition(s1, b, s0);
        let beh = behaviors_of_ts(&ts);
        assert!(beh.accepts_upword(&UpWord::periodic(vec![a, b]).unwrap()));
        assert!(!beh.accepts_upword(&UpWord::periodic(vec![a]).unwrap()));
        assert!(!beh.accepts_upword(&UpWord::periodic(vec![b, a]).unwrap()));
    }

    #[test]
    fn limit_of_finite_language_is_empty() {
        let ab = Alphabet::new(["a"]).unwrap();
        let a = ab.symbol("a").unwrap();
        // L = {ε, a}: finite, so lim(L) = ∅.
        let d = Nfa::from_parts(ab, 2, [0], [0, 1], [(0, a, 1)])
            .unwrap()
            .determinize();
        assert!(limit_of_deterministic(&d).is_empty_language());
    }
}
