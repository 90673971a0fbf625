//! Labeled transition systems: finite-state systems without acceptance.
//!
//! Section 6 of the paper considers "finite-state transition systems without
//! acceptance conditions. Hence the finite-word languages accepted by the
//! systems we consider are the prefix-closed regular languages, and the
//! ω-languages they accept are the limits of prefix-closed regular
//! languages." [`TransitionSystem`] is exactly that object.

use std::collections::{BTreeMap, VecDeque};

use crate::alphabet::{Alphabet, Symbol};
use crate::error::AutomataError;
use crate::lazy::EdgeRows;
use crate::nfa::Nfa;
use crate::word::Word;
use crate::StateId;

/// A finite labeled transition system with a single initial state and no
/// acceptance condition.
///
/// Its finite-word language `L` (all firing sequences) is prefix closed; its
/// infinite behaviors are `lim(L)` (see `rl-buchi`). States may carry an
/// optional display label (e.g. a Petri-net marking).
///
/// # Example
///
/// ```
/// use rl_automata::{Alphabet, TransitionSystem};
///
/// # fn main() -> Result<(), rl_automata::AutomataError> {
/// let ab = Alphabet::new(["tick", "tock"])?;
/// let tick = ab.symbol("tick").unwrap();
/// let tock = ab.symbol("tock").unwrap();
/// let mut ts = TransitionSystem::new(ab);
/// let s0 = ts.add_state();
/// let s1 = ts.add_state();
/// ts.set_initial(s0);
/// ts.add_transition(s0, tick, s1);
/// ts.add_transition(s1, tock, s0);
/// assert!(ts.to_nfa().accepts(&[tick, tock, tick]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionSystem {
    alphabet: Alphabet,
    initial: StateId,
    /// Every display label, end to end in state order: `labels[q]` is the
    /// span of `q`'s label in it, if `q` has one. A label is set only when
    /// its state is added, so equal systems lay this text out alike.
    label_text: String,
    labels: Vec<Option<(usize, usize)>>,
    /// `delta[q]` = the transitions leaving `q` as `(symbol, successor)`
    /// pairs, sorted and deduplicated: the same row layout as a Büchi
    /// automaton's, so building the system's behaviors copies rows.
    delta: Vec<Vec<(Symbol, StateId)>>,
}

impl TransitionSystem {
    /// Creates an empty system over `alphabet`.
    pub fn new(alphabet: Alphabet) -> TransitionSystem {
        TransitionSystem {
            alphabet,
            initial: 0,
            label_text: String::new(),
            labels: Vec::new(),
            delta: Vec::new(),
        }
    }

    /// A whole system at once: state `q` has the `q`-th label of `labels`
    /// and the transitions `rows[q]`, which are sorted and deduplicated
    /// here, once per row, instead of one
    /// [`TransitionSystem::add_transition`] insert per edge.
    ///
    /// # Panics
    ///
    /// Panics if `labels` and `rows` differ in length, or if `initial` or a
    /// successor is out of range.
    pub fn from_rows<'a>(
        alphabet: Alphabet,
        initial: StateId,
        labels: impl IntoIterator<Item = Option<&'a str>>,
        mut rows: Vec<Vec<(Symbol, StateId)>>,
    ) -> TransitionSystem {
        let mut label_text = String::new();
        let labels: Vec<_> = labels
            .into_iter()
            .map(|label| {
                label.map(|l| {
                    label_text.push_str(l);
                    (label_text.len() - l.len(), label_text.len())
                })
            })
            .collect();
        let n = labels.len();
        assert_eq!(rows.len(), n, "one row per state");
        assert!(initial < n, "invalid state {initial}");
        for row in &mut rows {
            if !row.windows(2).all(|w| w[0] < w[1]) {
                row.sort_unstable();
                row.dedup();
            }
            if let Some(&(_, q)) = row.iter().find(|&&(_, q)| q >= n) {
                panic!("invalid state {q}");
            }
        }
        TransitionSystem {
            alphabet,
            initial,
            label_text,
            labels,
            delta: rows,
        }
    }

    /// Adds a state, returning its id.
    pub fn add_state(&mut self) -> StateId {
        self.labels.push(None);
        self.delta.push(Vec::new());
        self.labels.len() - 1
    }

    /// Adds a state with a display label.
    pub fn add_labeled_state(&mut self, label: impl AsRef<str>) -> StateId {
        let id = self.add_state();
        let start = self.label_text.len();
        self.label_text.push_str(label.as_ref());
        self.labels[id] = Some((start, self.label_text.len()));
        id
    }

    /// Sets the initial state.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn set_initial(&mut self, q: StateId) {
        assert!(q < self.state_count(), "invalid state {q}");
        self.initial = q;
    }

    /// Adds the transition `from --symbol--> to` (duplicates are merged).
    ///
    /// # Panics
    ///
    /// Panics if a state is out of range.
    pub fn add_transition(&mut self, from: StateId, symbol: Symbol, to: StateId) {
        assert!(from < self.state_count(), "invalid state {from}");
        assert!(to < self.state_count(), "invalid state {to}");
        let row = &mut self.delta[from];
        if let Err(pos) = row.binary_search(&(symbol, to)) {
            row.insert(pos, (symbol, to));
        }
    }

    /// The system's alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.labels.len()
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// The display label of `q`, if set.
    pub fn state_label(&self, q: StateId) -> Option<String> {
        self.labels[q].map(|(start, end)| self.label_text[start..end].to_owned())
    }

    /// Enabled `(symbol, successor)` pairs in state `q`, sorted.
    pub fn enabled(&self, q: StateId) -> Vec<(Symbol, StateId)> {
        self.delta[q].clone()
    }

    /// The part of `q`'s row that carries `symbol`.
    fn row_on(&self, q: StateId, symbol: Symbol) -> &[(Symbol, StateId)] {
        let row = &self.delta[q];
        let lo = row.partition_point(|&(a, _)| a < symbol);
        let len = row[lo..].partition_point(|&(a, _)| a == symbol);
        &row[lo..lo + len]
    }

    /// Whether `q` is a deadlock (no enabled transitions).
    pub fn is_deadlock(&self, q: StateId) -> bool {
        self.delta[q].is_empty()
    }

    /// Iterates over all transitions in sorted order.
    pub fn transitions(&self) -> impl Iterator<Item = (StateId, Symbol, StateId)> + '_ {
        self.delta
            .iter()
            .enumerate()
            .flat_map(|(p, row)| row.iter().map(move |&(a, q)| (p, a, q)))
    }

    /// Total number of transitions.
    pub fn transition_count(&self) -> usize {
        self.delta.iter().map(Vec::len).sum()
    }

    /// The prefix-closed finite-word language of the system, as an NFA with
    /// every state accepting.
    pub fn to_nfa(&self) -> Nfa {
        Nfa::from_rows(self)
    }

    /// Builds a system from an NFA by forgetting acceptance and keeping the
    /// states reachable from a single merged initial state.
    ///
    /// This is only faithful when the NFA's language is prefix closed and the
    /// NFA has a single initial state; it is meant for round trips with
    /// [`TransitionSystem::to_nfa`] and for adopting determinized abstract
    /// behaviors (whose DFA always has a single initial state).
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::InvalidState`] when the NFA has no initial
    /// state.
    pub fn from_nfa(nfa: &Nfa) -> Result<TransitionSystem, AutomataError> {
        let &q0 = nfa
            .initial()
            .iter()
            .next()
            .ok_or(AutomataError::InvalidState(0))?;
        let mut ts = TransitionSystem::new(nfa.alphabet().clone());
        for _ in 0..nfa.state_count() {
            ts.add_state();
        }
        ts.set_initial(q0);
        for (p, a, q) in nfa.transitions() {
            ts.add_transition(p, a, q);
        }
        Ok(ts)
    }

    /// Runs the system on a word (following all nondeterministic choices),
    /// returning the set of states reached, or an empty vector when the word
    /// is not a firing sequence.
    pub fn run(&self, word: &[Symbol]) -> Vec<StateId> {
        let mut cur = vec![self.initial];
        for &a in word {
            let mut next: Vec<StateId> = Vec::new();
            for &q in &cur {
                for &(_, t) in self.row_on(q, a) {
                    if !next.contains(&t) {
                        next.push(t);
                    }
                }
            }
            next.sort_unstable();
            cur = next;
            if cur.is_empty() {
                break;
            }
        }
        cur
    }

    /// Whether `word` is a firing sequence (i.e. in the language `L`).
    pub fn admits(&self, word: &[Symbol]) -> bool {
        !self.run(word).is_empty()
    }

    /// Synchronous composition of two systems.
    ///
    /// The composite alphabet is the union (in `self`-then-`other` name
    /// order). Shared actions synchronize; exclusive actions interleave. This
    /// mirrors the compositional system construction of Ochsenschläger that
    /// the paper builds on.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; kept fallible for uniformity with
    /// other combinators.
    pub fn compose(&self, other: &TransitionSystem) -> Result<TransitionSystem, AutomataError> {
        let mut names = self.alphabet.names();
        for n in other.alphabet.names() {
            if !names.contains(&n) {
                names.push(n);
            }
        }
        let alphabet = Alphabet::new(names)?;
        // Symbol translation tables into the composite alphabet.
        let lmap: Vec<Symbol> = self
            .alphabet
            .names()
            .iter()
            .map(|n| alphabet.symbol(n).expect("union alphabet"))
            .collect();
        let rmap: Vec<Symbol> = other
            .alphabet
            .names()
            .iter()
            .map(|n| alphabet.symbol(n).expect("union alphabet"))
            .collect();
        let shared: Vec<bool> = alphabet
            .names()
            .iter()
            .map(|n| self.alphabet.symbol(n).is_some() && other.alphabet.symbol(n).is_some())
            .collect();

        let mut out = TransitionSystem::new(alphabet);
        let mut index: BTreeMap<(StateId, StateId), StateId> = BTreeMap::new();
        let mut work = VecDeque::new();
        let s0 = out.add_state();
        index.insert((self.initial, other.initial), s0);
        out.set_initial(s0);
        work.push_back((self.initial, other.initial));
        while let Some((p, q)) = work.pop_front() {
            let id = index[&(p, q)];
            let mut moves: Vec<(Symbol, StateId, StateId)> = Vec::new();
            for &(a, p2) in &self.delta[p] {
                let ca = lmap[a.index()];
                if shared[ca.index()] {
                    // Synchronize: the right side must also move on this name.
                    let ra = other
                        .alphabet
                        .symbol(out.alphabet.name(ca))
                        .expect("shared");
                    for &(_, q2) in other.row_on(q, ra) {
                        moves.push((ca, p2, q2));
                    }
                } else {
                    moves.push((ca, p2, q));
                }
            }
            for &(a, q2) in &other.delta[q] {
                let ca = rmap[a.index()];
                if !shared[ca.index()] {
                    moves.push((ca, p, q2));
                }
            }
            for (a, p2, q2) in moves {
                let nid = *index.entry((p2, q2)).or_insert_with(|| {
                    let nid = out.add_state();
                    work.push_back((p2, q2));
                    nid
                });
                out.add_transition(id, a, nid);
            }
        }
        Ok(out)
    }

    /// All firing sequences of length at most `max_len` (for tests/examples).
    pub fn firing_sequences_up_to(&self, max_len: usize) -> Vec<Word> {
        self.to_nfa().words_up_to(max_len)
    }
}

/// The system's language as rows: every state accepts.
impl EdgeRows for TransitionSystem {
    fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    fn state_count(&self) -> usize {
        self.labels.len()
    }

    fn initial(&self) -> impl Iterator<Item = StateId> + '_ {
        (self.initial < self.labels.len())
            .then_some(self.initial)
            .into_iter()
    }

    fn is_accepting(&self, _: StateId) -> bool {
        true
    }

    fn row(&self, q: StateId) -> impl Iterator<Item = (Symbol, StateId)> + '_ {
        self.delta[q].iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock() -> (TransitionSystem, Symbol, Symbol) {
        let ab = Alphabet::new(["tick", "tock"]).unwrap();
        let tick = ab.symbol("tick").unwrap();
        let tock = ab.symbol("tock").unwrap();
        let mut ts = TransitionSystem::new(ab);
        let s0 = ts.add_state();
        let s1 = ts.add_state();
        ts.set_initial(s0);
        ts.add_transition(s0, tick, s1);
        ts.add_transition(s1, tock, s0);
        (ts, tick, tock)
    }

    #[test]
    fn language_is_prefix_closed() {
        let (ts, tick, tock) = clock();
        let nfa = ts.to_nfa();
        assert!(nfa.is_prefix_closed());
        assert!(ts.admits(&[]));
        assert!(ts.admits(&[tick]));
        assert!(ts.admits(&[tick, tock]));
        assert!(!ts.admits(&[tock]));
    }

    #[test]
    fn roundtrip_via_nfa() {
        let (ts, _, _) = clock();
        let back = TransitionSystem::from_nfa(&ts.to_nfa()).unwrap();
        assert_eq!(ts.state_count(), back.state_count());
        assert_eq!(ts.transition_count(), back.transition_count());
    }

    #[test]
    fn deadlock_detection() {
        let ab = Alphabet::new(["go"]).unwrap();
        let go = ab.symbol("go").unwrap();
        let mut ts = TransitionSystem::new(ab);
        let s0 = ts.add_state();
        let s1 = ts.add_state();
        ts.set_initial(s0);
        ts.add_transition(s0, go, s1);
        assert!(!ts.is_deadlock(s0));
        assert!(ts.is_deadlock(s1));
    }

    #[test]
    fn composition_synchronizes_shared_actions() {
        // Producer: (produce handoff)*, Consumer: (handoff consume)*.
        let pab = Alphabet::new(["produce", "handoff"]).unwrap();
        let cab = Alphabet::new(["handoff", "consume"]).unwrap();
        let (pp, ph) = (
            pab.symbol("produce").unwrap(),
            pab.symbol("handoff").unwrap(),
        );
        let (ch, cc) = (
            cab.symbol("handoff").unwrap(),
            cab.symbol("consume").unwrap(),
        );
        let mut prod = TransitionSystem::new(pab);
        let p0 = prod.add_state();
        let p1 = prod.add_state();
        prod.set_initial(p0);
        prod.add_transition(p0, pp, p1);
        prod.add_transition(p1, ph, p0);
        let mut cons = TransitionSystem::new(cab);
        let c0 = cons.add_state();
        let c1 = cons.add_state();
        cons.set_initial(c0);
        cons.add_transition(c0, ch, c1);
        cons.add_transition(c1, cc, c0);

        let sys = prod.compose(&cons).unwrap();
        let ab = sys.alphabet().clone();
        let produce = ab.symbol("produce").unwrap();
        let handoff = ab.symbol("handoff").unwrap();
        let consume = ab.symbol("consume").unwrap();
        // handoff can only happen after produce, consume only after handoff.
        assert!(sys.admits(&[produce, handoff, consume]));
        assert!(sys.admits(&[produce, handoff, produce, consume]));
        assert!(!sys.admits(&[handoff]));
        assert!(!sys.admits(&[produce, consume]));
        assert_eq!(sys.state_count(), 4);
    }

    #[test]
    fn labeled_states_render() {
        let ab = Alphabet::new(["x"]).unwrap();
        let mut ts = TransitionSystem::new(ab);
        let s = ts.add_labeled_state("idle");
        ts.set_initial(s);
        assert_eq!(ts.state_label(s).as_deref(), Some("idle"));
        assert!(ts.to_dot("g").contains("idle"));
    }
}
