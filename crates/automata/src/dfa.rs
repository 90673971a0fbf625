//! Deterministic finite automata over finite words.

use std::collections::VecDeque;

use crate::alphabet::{Alphabet, Symbol};
use crate::error::AutomataError;
use crate::guard::Guard;
use crate::nfa::Nfa;
use crate::stateset::PairTable;
use crate::word::Word;
use crate::StateId;

/// Sentinel marking an undefined transition in the flat delta table.
const NO_TRANSITION: u32 = u32::MAX;

/// A deterministic finite automaton, possibly *partial* (missing transitions
/// reject).
///
/// Produced by [`Nfa::determinize`] and consumed by the minimization and
/// equivalence algorithms. A `Dfa` always has exactly one initial state.
///
/// # Example
///
/// ```
/// use rl_automata::{Alphabet, Dfa};
///
/// # fn main() -> Result<(), rl_automata::AutomataError> {
/// let ab = Alphabet::new(["a"])?;
/// let a = ab.symbol("a").unwrap();
/// let mut d = Dfa::new(ab);
/// let q0 = d.add_state(false);
/// let q1 = d.add_state(true);
/// d.set_initial(q0);
/// d.set_transition(q0, a, q1);
/// assert!(d.accepts(&[a]));
/// assert!(!d.accepts(&[a, a])); // partial: missing transition rejects
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dfa {
    alphabet: Alphabet,
    initial: StateId,
    accepting: Vec<bool>,
    /// `delta[q][a.index()]` = successor id, or [`NO_TRANSITION`] when
    /// undefined. Lookup is two array probes; no tree walks.
    delta: Vec<Vec<u32>>,
}

impl Dfa {
    /// Creates an empty automaton over `alphabet`.
    ///
    /// The initial state defaults to the first state added.
    pub fn new(alphabet: Alphabet) -> Dfa {
        Dfa {
            alphabet,
            initial: 0,
            accepting: Vec::new(),
            delta: Vec::new(),
        }
    }

    /// Like [`Dfa::new`], but with state/delta storage pre-sized for
    /// `states` states, so product-style builders do not reallocate while
    /// growing toward a known bound.
    pub fn with_capacity(alphabet: Alphabet, states: usize) -> Dfa {
        Dfa {
            alphabet,
            initial: 0,
            accepting: Vec::with_capacity(states),
            delta: Vec::with_capacity(states),
        }
    }

    /// Builds a DFA from raw parts, validating all indices.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::InvalidState`] for an out-of-range state.
    pub fn from_parts(
        alphabet: Alphabet,
        state_count: usize,
        initial: StateId,
        accepting: impl IntoIterator<Item = StateId>,
        transitions: impl IntoIterator<Item = (StateId, Symbol, StateId)>,
    ) -> Result<Dfa, AutomataError> {
        let mut dfa = Dfa::new(alphabet);
        for _ in 0..state_count {
            dfa.add_state(false);
        }
        if initial >= state_count {
            return Err(AutomataError::InvalidState(initial));
        }
        dfa.initial = initial;
        for q in accepting {
            if q >= state_count {
                return Err(AutomataError::InvalidState(q));
            }
            dfa.accepting[q] = true;
        }
        for (p, a, q) in transitions {
            if p >= state_count {
                return Err(AutomataError::InvalidState(p));
            }
            if q >= state_count {
                return Err(AutomataError::InvalidState(q));
            }
            dfa.set_transition(p, a, q);
        }
        Ok(dfa)
    }

    /// Adds a state, returning its id.
    pub fn add_state(&mut self, accepting: bool) -> StateId {
        self.accepting.push(accepting);
        self.delta.push(vec![NO_TRANSITION; self.alphabet.len()]);
        self.accepting.len() - 1
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

    /// Sets (overwrites) the transition `from --symbol--> to`.
    ///
    /// # Panics
    ///
    /// Panics if a state is out of range.
    pub fn set_transition(&mut self, from: StateId, symbol: Symbol, to: StateId) {
        assert!(from < self.state_count(), "invalid state {from}");
        assert!(to < self.state_count(), "invalid state {to}");
        assert!(
            to < NO_TRANSITION as usize,
            "state id overflows delta table"
        );
        self.delta[from][symbol.index()] = to as u32;
    }

    /// The automaton's alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.accepting.len()
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// Whether `q` accepts.
    pub fn is_accepting(&self, q: StateId) -> bool {
        self.accepting[q]
    }

    /// The successor of `q` on `symbol`, if defined.
    pub fn next(&self, q: StateId, symbol: Symbol) -> Option<StateId> {
        let t = self.delta[q][symbol.index()];
        (t != NO_TRANSITION).then_some(t as StateId)
    }

    /// Runs the automaton on `word` from the initial state, returning the
    /// state reached (or `None` if the run falls off the partial function).
    pub fn run(&self, word: &[Symbol]) -> Option<StateId> {
        self.run_from(self.initial, word)
    }

    /// Runs the automaton on `word` from `q`.
    pub fn run_from(&self, q: StateId, word: &[Symbol]) -> Option<StateId> {
        let mut cur = q;
        for &a in word {
            cur = self.next(cur, a)?;
        }
        Some(cur)
    }

    /// Whether the automaton accepts `word`.
    pub fn accepts(&self, word: &[Symbol]) -> bool {
        self.run(word).is_some_and(|q| self.accepting[q])
    }

    /// Iterates over all transitions in sorted order.
    pub fn transitions(&self) -> impl Iterator<Item = (StateId, Symbol, StateId)> + '_ {
        self.delta.iter().enumerate().flat_map(|(p, row)| {
            row.iter().enumerate().filter_map(move |(ai, &t)| {
                (t != NO_TRANSITION).then_some((p, Symbol::from_index(ai), t as StateId))
            })
        })
    }

    /// Whether the transition function is total.
    pub fn is_complete(&self) -> bool {
        self.delta
            .iter()
            .all(|row| row.iter().all(|&t| t != NO_TRANSITION))
    }

    /// Completes the transition function by adding a rejecting sink if any
    /// transition is missing. The language is unchanged.
    pub fn complete(&self) -> Dfa {
        if self.is_complete() {
            return self.clone();
        }
        let mut out = Dfa::with_capacity(self.alphabet.clone(), self.state_count() + 1);
        out.accepting.extend_from_slice(&self.accepting);
        out.delta.extend_from_slice(&self.delta);
        out.initial = self.initial;
        let sink = out.add_state(false);
        for row in &mut out.delta {
            for t in row.iter_mut() {
                if *t == NO_TRANSITION {
                    *t = sink as u32;
                }
            }
        }
        out
    }

    /// Complement automaton: accepts exactly the words `self` rejects.
    pub fn complement(&self) -> Dfa {
        let mut out = self.complete();
        for acc in &mut out.accepting {
            *acc = !*acc;
        }
        out
    }

    /// Product automaton, combining acceptance with `combine`.
    ///
    /// With `|p, q| p && q` this is intersection; with `|p, q| p && !q` it is
    /// difference; with `|p, q| p != q` symmetric difference. Both operands
    /// are completed first so the product is total.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::AlphabetMismatch`] when the alphabets differ.
    pub fn product(
        &self,
        other: &Dfa,
        combine: impl Fn(bool, bool) -> bool,
    ) -> Result<Dfa, AutomataError> {
        self.product_with(other, combine, &Guard::unlimited())
    }

    /// [`Dfa::product`] under a resource [`Guard`].
    ///
    /// Every materialized pair state is charged against the guard's state
    /// budget and every product transition against its transition budget.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::AlphabetMismatch`] when the alphabets differ,
    /// or a budget error when the guard trips.
    pub fn product_with(
        &self,
        other: &Dfa,
        combine: impl Fn(bool, bool) -> bool,
        guard: &Guard,
    ) -> Result<Dfa, AutomataError> {
        let _span = guard.span("dfa_product");
        self.alphabet.check_compatible(&other.alphabet)?;
        let a = self.complete();
        let b = other.complete();
        let bound = a.state_count().saturating_mul(b.state_count());
        let mut index = PairTable::new(a.state_count(), b.state_count());
        // Pre-size from the product bound, capped so pathological products
        // do not commit gigabytes up front.
        let mut out = Dfa::with_capacity(self.alphabet.clone(), bound.min(1 << 16));
        let mut work = vec![(a.initial, b.initial)];
        guard.charge_state()?;
        let start = out.add_state(combine(a.accepting[a.initial], b.accepting[b.initial]));
        out.set_initial(start);
        index.set(a.initial, b.initial, start);
        while let Some((p, q)) = work.pop() {
            guard.note_frontier(work.len());
            let id = index.get(p, q).expect("worklist pairs are interned");
            for s in self.alphabet.symbols() {
                let (p2, q2) = (
                    a.next(p, s).expect("complete"),
                    b.next(q, s).expect("complete"),
                );
                let nid = match index.get(p2, q2) {
                    Some(nid) => nid,
                    None => {
                        guard.charge_state()?;
                        let nid = out.add_state(combine(a.accepting[p2], b.accepting[q2]));
                        index.set(p2, q2, nid);
                        work.push((p2, q2));
                        nid
                    }
                };
                guard.charge_transition()?;
                out.set_transition(id, s, nid);
            }
        }
        Ok(out)
    }

    /// `L(self) \ L(other)` as a DFA.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::AlphabetMismatch`] when the alphabets differ.
    pub fn difference(&self, other: &Dfa) -> Result<Dfa, AutomataError> {
        self.product(other, |p, q| p && !q)
    }

    /// Whether the language is empty.
    pub fn is_empty_language(&self) -> bool {
        let reach = self.reachable();
        !(0..self.state_count()).any(|q| reach[q] && self.accepting[q])
    }

    /// A shortest accepted word, when the language is non-empty: the path
    /// to the first accepting state of a breadth-first search that tries
    /// letters in alphabet order.
    pub fn shortest_accepted(&self) -> Option<Word> {
        let n = self.state_count();
        let mut parent: Vec<Option<(StateId, Symbol)>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = VecDeque::new();
        if n > 0 {
            seen[self.initial] = true;
            queue.push_back(self.initial);
        }
        let mut q = loop {
            let p = queue.pop_front()?;
            if self.accepting[p] {
                break p;
            }
            for (ai, &t) in self.delta[p].iter().enumerate() {
                if t != NO_TRANSITION && !seen[t as usize] {
                    seen[t as usize] = true;
                    parent[t as usize] = Some((p, Symbol::from_index(ai)));
                    queue.push_back(t as StateId);
                }
            }
        };
        let mut word = Vec::new();
        while let Some((p, a)) = parent[q] {
            word.push(a);
            q = p;
        }
        word.reverse();
        Some(word)
    }

    /// Converts to an equivalent [`Nfa`].
    pub fn to_nfa(&self) -> Nfa {
        let mut out = Nfa::new(self.alphabet.clone());
        for q in 0..self.state_count() {
            out.add_state(self.accepting[q]);
        }
        if self.state_count() > 0 {
            out.set_initial(self.initial);
        }
        for (p, a, q) in self.transitions() {
            out.add_transition(p, a, q);
        }
        out
    }

    /// Re-roots the automaton at `q`: the result accepts the left quotient
    /// `cont(w, L)` for any `w` with `run(w) == Some(q)`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn rooted_at(&self, q: StateId) -> Dfa {
        assert!(q < self.state_count(), "invalid state {q}");
        let mut out = self.clone();
        out.initial = q;
        out
    }

    /// The minimal complete DFA for the language (Hopcroft).
    ///
    /// The result has a canonical shape for
    /// each language (up to state numbering determined by BFS order).
    pub fn min_dfa(&self) -> Dfa {
        crate::minimize::minimize(self)
    }

    /// [`Dfa::min_dfa`] with a "minimize" phase span recorded on the guard's
    /// metrics registry (minimization itself is polynomial and is not
    /// charged against the budget).
    pub fn min_dfa_with(&self, guard: &Guard) -> Dfa {
        let _span = guard.span("minimize");
        crate::minimize::minimize(self)
    }

    /// The Myhill–Nerode class of every state: `classes[p] == classes[q]`
    /// iff `p` and `q` accept the same language (missing transitions
    /// reject). Ids are dense, numbered in order of first appearance.
    ///
    /// One Hopcroft refinement covers all states, reachable from the
    /// initial state or not, so a DFA built from many roots (see
    /// [`Nfa::determinize_roots_with`]) answers every language-equivalence
    /// question between its states by comparing two ids.
    pub fn equivalence_classes(&self) -> Vec<usize> {
        let blocks = crate::minimize::partition(&self.complete());
        let mut number: Vec<Option<usize>> = vec![None; blocks.len()];
        let mut next = 0;
        // `complete` only appends a sink, so the first `state_count` blocks
        // are ours.
        blocks[..self.state_count()]
            .iter()
            .map(|&b| {
                *number[b].get_or_insert_with(|| {
                    next += 1;
                    next - 1
                })
            })
            .collect()
    }

    /// States reachable from the initial state (none when there are no
    /// states), by a forward search over the rows.
    fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.state_count()];
        let mut stack = Vec::new();
        if let Some(s) = seen.get_mut(self.initial) {
            *s = true;
            stack.push(self.initial);
        }
        while let Some(p) = stack.pop() {
            for &t in &self.delta[p] {
                if t != NO_TRANSITION && !seen[t as usize] {
                    seen[t as usize] = true;
                    stack.push(t as StateId);
                }
            }
        }
        seen
    }

    /// The live states: those reachable from the initial state that can
    /// reach an accepting state. A word is a prefix of an accepted word
    /// exactly when it leads to a live state.
    ///
    /// After the forward search, the edges leaving reachable states are
    /// reversed into one flat array grouped by target, and a backward
    /// search from the reachable accepting states runs over it; every
    /// state it meets is reachable, since it only follows edges from
    /// reachable states.
    fn live_states(&self) -> Vec<bool> {
        let n = self.state_count();
        let reach = self.reachable();
        // `end[t]` counts the reverse edges into states up to `t`; filling
        // `pred` from the back moves it to the start of `t`'s group, so
        // `pred[end[t]..end[t + 1]]` are the predecessors of `t`.
        let mut end = vec![0usize; n + 1];
        let edges_from_reachable = || {
            (0..n)
                .filter(|&p| reach[p])
                .flat_map(|p| self.delta[p].iter().map(move |&t| (p, t)))
                .filter(|&(_, t)| t != NO_TRANSITION)
        };
        for (_, t) in edges_from_reachable() {
            end[t as usize] += 1;
        }
        for t in 1..=n {
            end[t] += end[t - 1];
        }
        let mut pred = vec![0u32; end[n]];
        for (p, t) in edges_from_reachable() {
            end[t as usize] -= 1;
            pred[end[t as usize]] = p as u32;
        }
        let mut live = vec![false; n];
        let mut stack: Vec<StateId> = (0..n).filter(|&q| reach[q] && self.accepting[q]).collect();
        for &q in &stack {
            live[q] = true;
        }
        while let Some(t) = stack.pop() {
            for &p in &pred[end[t]..end[t + 1]] {
                if !live[p as usize] {
                    live[p as usize] = true;
                    stack.push(p as StateId);
                }
            }
        }
        live
    }

    /// Keeps exactly the states with `keep[q] == true`, in their old order;
    /// transitions into dropped states become undefined. The initial state
    /// must be kept whenever any state is (both callers keep sets closed
    /// under the search from it); when none is, the result has no states.
    fn restrict(&self, keep: &[bool]) -> Dfa {
        let n = self.state_count();
        debug_assert!(
            keep[..n].iter().all(|&k| !k) || keep[self.initial],
            "restriction drops the initial state"
        );
        // New id of each kept state; dropped states map to "no transition".
        let mut map = vec![NO_TRANSITION; n];
        let mut out = Dfa::with_capacity(
            self.alphabet.clone(),
            keep[..n].iter().filter(|&&k| k).count(),
        );
        for q in (0..n).filter(|&q| keep[q]) {
            map[q] = out.accepting.len() as u32;
            out.accepting.push(self.accepting[q]);
        }
        for q in (0..n).filter(|&q| keep[q]) {
            let row = self.delta[q].iter().map(|&t| match t {
                NO_TRANSITION => NO_TRANSITION,
                t => map[t as usize],
            });
            out.delta.push(row.collect());
        }
        if let Some(&q0) = map.get(self.initial).filter(|&&q| q != NO_TRANSITION) {
            out.initial = q0 as StateId;
        }
        out
    }

    /// Restricts the automaton to its live states (reachable and
    /// co-reachable). The language is unchanged; an empty language yields
    /// a DFA with no states.
    pub fn trim(&self) -> Dfa {
        self.restrict(&self.live_states())
    }

    /// Whether the language is prefix closed (`L = pre(L)`): every live
    /// state accepts, since a word is a prefix of `L` exactly when it leads
    /// to a live state.
    pub fn is_prefix_closed(&self) -> bool {
        self.live_states()
            .iter()
            .enumerate()
            .all(|(q, &live)| !live || self.accepting[q])
    }

    /// Whether the language has a *maximal* word, one that is no proper
    /// prefix of another accepted word: some live accepting state has no
    /// live successor.
    pub fn has_maximal_words(&self) -> bool {
        let live = self.live_states();
        (0..self.state_count()).any(|q| {
            live[q]
                && self.accepting[q]
                && !self
                    .alphabet
                    .symbols()
                    .any(|a| self.next(q, a).is_some_and(|t| live[t]))
        })
    }

    /// Removes states unreachable from the initial state. An automaton
    /// without states comes back unchanged.
    ///
    /// Minimization, its only caller, still finds those states on an `Nfa`
    /// copy: the forward search over the rows speeds up the `abstract`
    /// benchmark's minimizations by enough that its `peak_rss_mb`, which
    /// grows with the operations completed, would exceed its bound
    /// (ROADMAP item 7).
    pub fn remove_unreachable(&self) -> Dfa {
        self.restrict(&self.to_nfa().reachable())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab2() -> (Alphabet, Symbol, Symbol) {
        let ab = Alphabet::new(["a", "b"]).unwrap();
        let a = ab.symbol("a").unwrap();
        let b = ab.symbol("b").unwrap();
        (ab, a, b)
    }

    /// D accepting words with an even number of `a`s.
    fn even_a() -> Dfa {
        let (ab, a, b) = ab2();
        let mut d = Dfa::new(ab);
        let q0 = d.add_state(true);
        let q1 = d.add_state(false);
        d.set_initial(q0);
        d.set_transition(q0, a, q1);
        d.set_transition(q1, a, q0);
        d.set_transition(q0, b, q0);
        d.set_transition(q1, b, q1);
        d
    }

    #[test]
    fn equivalence_classes_cover_unreachable_and_partial_states() {
        let (_, a, b) = ab2();
        let mut d = even_a();
        // Two more copies of the parities, unreachable from the initial
        // state, and a partial state.
        let q2 = d.add_state(true);
        let q3 = d.add_state(false);
        let q4 = d.add_state(true);
        for (p, t) in [(q2, q3), (q3, q2)] {
            d.set_transition(p, a, t);
            d.set_transition(p, b, p);
        }
        d.set_transition(q4, b, q4);
        // q4 accepts b* only: its own class.
        assert_eq!(d.equivalence_classes(), vec![0, 1, 0, 1, 2]);
    }

    #[test]
    fn complement_flips_membership() {
        let (_, a, b) = ab2();
        let d = even_a();
        let c = d.complement();
        for w in [vec![], vec![a], vec![a, a], vec![b, a, b]] {
            assert_eq!(d.accepts(&w), !c.accepts(&w), "word {w:?}");
        }
    }

    #[test]
    fn partial_dfa_rejects_missing() {
        let (ab, a, _) = ab2();
        let mut d = Dfa::new(ab);
        let q0 = d.add_state(false);
        let q1 = d.add_state(true);
        d.set_initial(q0);
        d.set_transition(q0, a, q1);
        assert!(d.accepts(&[a]));
        assert!(!d.accepts(&[a, a]));
        assert!(!d.is_complete());
        let c = d.complete();
        assert!(c.is_complete());
        assert!(!c.accepts(&[a, a]));
        assert!(c.accepts(&[a]));
    }

    #[test]
    fn product_difference() {
        let (ab, a, b) = ab2();
        let even = even_a();
        // All words containing at least one b.
        let mut has_b = Dfa::new(ab);
        let p0 = has_b.add_state(false);
        let p1 = has_b.add_state(true);
        has_b.set_initial(p0);
        has_b.set_transition(p0, a, p0);
        has_b.set_transition(p0, b, p1);
        has_b.set_transition(p1, a, p1);
        has_b.set_transition(p1, b, p1);

        let diff = even.difference(&has_b).unwrap();
        // even #a and no b => words in a(aa)*... i.e. (aa)*
        assert!(diff.accepts(&[]));
        assert!(diff.accepts(&[a, a]));
        assert!(!diff.accepts(&[a]));
        assert!(!diff.accepts(&[a, a, b]));
    }

    #[test]
    fn rooted_at_gives_left_quotient() {
        let (_, a, b) = ab2();
        let d = even_a();
        let q = d.run(&[a]).unwrap();
        let rooted = d.rooted_at(q);
        // cont(a, L) = words with odd #a.
        assert!(rooted.accepts(&[a]));
        assert!(!rooted.accepts(&[]));
        assert!(rooted.accepts(&[b, a, b]));
    }

    #[test]
    fn min_dfa_is_minimal() {
        let (ab, a, b) = ab2();
        // A redundant 4-state automaton for "even number of a's".
        let mut d = Dfa::new(ab);
        let q0 = d.add_state(true);
        let q1 = d.add_state(false);
        let q2 = d.add_state(true);
        let q3 = d.add_state(false);
        d.set_initial(q0);
        d.set_transition(q0, a, q1);
        d.set_transition(q1, a, q2);
        d.set_transition(q2, a, q3);
        d.set_transition(q3, a, q0);
        for q in [q0, q1, q2, q3] {
            d.set_transition(q, b, q);
        }
        let m = d.min_dfa();
        assert_eq!(m.state_count(), 2);
        assert!(crate::equiv::dfa_equivalent(&m, &even_a()));
    }

    #[test]
    fn empty_languages_minimize_to_one_rejecting_sink() {
        let (ab, a, _) = ab2();
        let none = Dfa::new(ab.clone());
        assert_eq!(none.remove_unreachable(), none);
        // A reachable but dead state trims away to no states at all.
        let mut dead = Dfa::new(ab);
        let q0 = dead.add_state(false);
        dead.set_transition(q0, a, q0);
        let trimmed = dead.trim();
        assert_eq!(trimmed.state_count(), 0);
        for d in [none, trimmed] {
            let m = d.min_dfa();
            assert_eq!(m.state_count(), 1);
            assert!(m.is_complete() && m.is_empty_language());
            assert_eq!(m.shortest_accepted(), None);
        }
    }

    #[test]
    fn restrict_renumbers_in_order_and_cuts_edges() {
        let (ab, a, b) = ab2();
        // State 0 is dropped; the initial state 1 and state 2 move down.
        let mut d = Dfa::new(ab);
        let orphan = d.add_state(false);
        let q1 = d.add_state(true);
        let q2 = d.add_state(false);
        d.set_initial(q1);
        d.set_transition(orphan, a, q1);
        d.set_transition(q1, a, q2);
        d.set_transition(q2, a, q1);
        d.set_transition(q2, b, orphan);
        let r = d.restrict(&[false, true, true]);
        assert_eq!(r.state_count(), 2);
        assert_eq!(r.initial(), 0);
        assert!(r.is_accepting(0) && !r.is_accepting(1));
        assert_eq!(r.next(0, a), Some(1));
        assert_eq!(r.next(1, a), Some(0));
        // The edge into the dropped state is cut.
        assert_eq!(r.next(1, b), None);
    }

    #[test]
    fn remove_unreachable_drops_orphans() {
        let (ab, a, _) = ab2();
        let mut d = Dfa::new(ab);
        let q0 = d.add_state(true);
        let _orphan = d.add_state(true);
        d.set_initial(q0);
        d.set_transition(q0, a, q0);
        let r = d.remove_unreachable();
        assert_eq!(r.state_count(), 1);
    }
}
