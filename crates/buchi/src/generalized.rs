//! Generalized Büchi automata (multiple acceptance sets) and counter-based
//! degeneralization.
//!
//! The GPVW tableau of `rl-logic` naturally produces one acceptance set per
//! Until subformula; this type holds that intermediate object and converts
//! it to an ordinary [`Buchi`] automaton via the standard counter
//! construction (one copy of the state space per acceptance set).

use std::collections::BTreeSet;

use rl_automata::{Alphabet, AutomataError, StateId, Symbol};

use crate::buchi::Buchi;

/// A nondeterministic generalized Büchi automaton: a run is accepting when
/// it visits **every** acceptance set infinitely often.
///
/// # Example
///
/// ```
/// use rl_automata::Alphabet;
/// use rl_buchi::{GeneralizedBuchi, UpWord};
///
/// # fn main() -> Result<(), rl_automata::AutomataError> {
/// let ab = Alphabet::new(["a", "b"])?;
/// let a = ab.symbol("a").unwrap();
/// let b = ab.symbol("b").unwrap();
/// // One state, two acceptance sets tracked on edges-into-state… encoded
/// // with two states: visiting s_a means "just read a", s_b "just read b".
/// let mut g = GeneralizedBuchi::new(ab);
/// let sa = g.add_state();
/// let sb = g.add_state();
/// g.set_initial(sa);
/// g.set_initial(sb);
/// for (p, q, sym) in [(sa, sa, a), (sa, sb, b), (sb, sa, a), (sb, sb, b)] {
///     g.add_transition(p, sym, q);
/// }
/// g.add_acceptance_set([sa])?; // infinitely many a
/// g.add_acceptance_set([sb])?; // infinitely many b
/// let m = g.degeneralize();
/// assert!(m.accepts_upword(&UpWord::periodic(vec![a, b])?));
/// assert!(!m.accepts_upword(&UpWord::periodic(vec![a])?));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneralizedBuchi {
    alphabet: Alphabet,
    initial: BTreeSet<StateId>,
    state_count: usize,
    transitions: Vec<(StateId, Symbol, StateId)>,
    acceptance: Vec<BTreeSet<StateId>>,
}

impl GeneralizedBuchi {
    /// Creates an empty automaton over `alphabet`.
    pub fn new(alphabet: Alphabet) -> GeneralizedBuchi {
        GeneralizedBuchi {
            alphabet,
            initial: BTreeSet::new(),
            state_count: 0,
            transitions: Vec::new(),
            acceptance: Vec::new(),
        }
    }

    /// Adds a state, returning its id.
    pub fn add_state(&mut self) -> StateId {
        self.state_count += 1;
        self.state_count - 1
    }

    /// Adds `q` to the initial set.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn set_initial(&mut self, q: StateId) {
        assert!(q < self.state_count, "invalid state {q}");
        self.initial.insert(q);
    }

    /// Adds the transition `from --symbol--> to`.
    ///
    /// # Panics
    ///
    /// Panics if a state is out of range.
    pub fn add_transition(&mut self, from: StateId, symbol: Symbol, to: StateId) {
        assert!(from < self.state_count, "invalid state {from}");
        assert!(to < self.state_count, "invalid state {to}");
        self.transitions.push((from, symbol, to));
    }

    /// Appends an acceptance set.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::InvalidState`] for out-of-range members.
    pub fn add_acceptance_set(
        &mut self,
        states: impl IntoIterator<Item = StateId>,
    ) -> Result<(), AutomataError> {
        let set: BTreeSet<StateId> = states.into_iter().collect();
        if let Some(&bad) = set.iter().find(|&&q| q >= self.state_count) {
            return Err(AutomataError::InvalidState(bad));
        }
        self.acceptance.push(set);
        Ok(())
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.state_count
    }

    /// Counter-based degeneralization into an ordinary Büchi automaton.
    ///
    /// With `k` acceptance sets the result has up to `k·n` states: a counter
    /// tracks which set is currently awaited, advancing when the run passes
    /// through it; the Büchi acceptance marks completion of a full round.
    /// With zero acceptance sets every infinite run accepts (the counter
    /// degenerates to a single always-accepting copy). The result is
    /// [`Buchi::reduce`]d.
    pub fn degeneralize(&self) -> Buchi {
        let k = self.acceptance.len().max(1);
        let in_set = |i: usize, q: StateId| -> bool {
            self.acceptance.get(i).is_none_or(|s| s.contains(&q))
        };
        // Copy `c` of state `q` is state `q·k + c`.
        let index = |q: StateId, c: usize| q * k + c;
        let accepting = (0..self.state_count)
            .flat_map(|q| (0..k).map(move |c| c == k - 1 && in_set(k - 1, q)))
            .collect();
        let initial = self.initial.iter().map(|&q| index(q, 0)).collect();
        let mut edges: Vec<Vec<(Symbol, StateId)>> = vec![Vec::new(); self.state_count * k];
        for &(p, a, q) in &self.transitions {
            for c in 0..k {
                let c2 = if in_set(c, p) { (c + 1) % k } else { c };
                edges[index(p, c)].push((a, index(q, c2)));
            }
        }
        for row in &mut edges {
            row.sort_unstable();
            row.dedup();
        }
        Buchi::from_rows(self.alphabet.clone(), initial, accepting, edges).reduce()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::upword::UpWord;

    fn ab2() -> (Alphabet, Symbol, Symbol) {
        let ab = Alphabet::new(["a", "b"]).unwrap();
        (ab.clone(), ab.symbol("a").unwrap(), ab.symbol("b").unwrap())
    }

    /// Two-state tracker: state records the letter just read.
    fn tracker() -> (GeneralizedBuchi, StateId, StateId) {
        let (ab, a, b) = ab2();
        let mut g = GeneralizedBuchi::new(ab);
        let sa = g.add_state();
        let sb = g.add_state();
        g.set_initial(sa);
        g.set_initial(sb);
        for (p, q, sym) in [(sa, sa, a), (sb, sa, a), (sa, sb, b), (sb, sb, b)] {
            g.add_transition(p, sym, q);
        }
        (g, sa, sb)
    }

    #[test]
    fn two_sets_mean_both_infinitely_often() {
        let (_, a, b) = ab2();
        let (mut g, sa, sb) = tracker();
        g.add_acceptance_set([sa]).unwrap();
        g.add_acceptance_set([sb]).unwrap();
        let m = g.degeneralize();
        assert!(m.accepts_upword(&UpWord::periodic(vec![a, b]).unwrap()));
        assert!(m.accepts_upword(&UpWord::new(vec![a, a], vec![b, a, a]).unwrap()));
        assert!(!m.accepts_upword(&UpWord::periodic(vec![a]).unwrap()));
        assert!(!m.accepts_upword(&UpWord::new(vec![b, a], vec![b]).unwrap()));
    }

    #[test]
    fn zero_sets_accept_all_infinite_runs() {
        let (_, a, b) = ab2();
        let (g, _, _) = tracker();
        let m = g.degeneralize();
        assert!(m.accepts_upword(&UpWord::periodic(vec![a]).unwrap()));
        assert!(m.accepts_upword(&UpWord::periodic(vec![b, a]).unwrap()));
    }

    #[test]
    fn one_set_is_plain_buchi() {
        let (_, a, b) = ab2();
        let (mut g, sa, _) = tracker();
        g.add_acceptance_set([sa]).unwrap();
        let m = g.degeneralize();
        assert!(m.accepts_upword(&UpWord::periodic(vec![a]).unwrap()));
        assert!(m.accepts_upword(&UpWord::periodic(vec![a, b]).unwrap()));
        assert!(!m.accepts_upword(&UpWord::periodic(vec![b]).unwrap()));
    }

    #[test]
    fn invalid_acceptance_member_rejected() {
        let (ab, _, _) = ab2();
        let mut g = GeneralizedBuchi::new(ab);
        let _ = g.add_state();
        assert!(g.add_acceptance_set([7]).is_err());
    }
}
