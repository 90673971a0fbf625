//! Nondeterministic finite automata over finite words.

use std::collections::{BTreeSet, VecDeque};

use crate::alphabet::{Alphabet, Symbol};
use crate::dfa::Dfa;
use crate::error::AutomataError;
use crate::guard::Guard;
use crate::lazy::EdgeRows;
use crate::stateset::{Interner, PairTable, StateSet};
use crate::word::Word;
use crate::StateId;

/// A nondeterministic finite automaton (NFA) over finite words.
///
/// States are dense indices. The transition relation is a flat
/// alphabet-indexed table: per state, one sorted successor list per symbol
/// index, so lookup is two array probes and all iteration is deterministic
/// (symbols in index order, successors ascending).
///
/// An `Nfa` may have several initial states. A word is accepted when some run
/// from an initial state ends in an accepting state.
///
/// # Example
///
/// ```
/// use rl_automata::{Alphabet, Nfa};
///
/// # fn main() -> Result<(), rl_automata::AutomataError> {
/// let ab = Alphabet::new(["a", "b"])?;
/// let (a, b) = (ab.symbol("a").unwrap(), ab.symbol("b").unwrap());
/// let mut n = Nfa::new(ab);
/// let q0 = n.add_state(true);
/// let q1 = n.add_state(false);
/// n.set_initial(q0);
/// n.add_transition(q0, a, q1);
/// n.add_transition(q1, b, q0);
/// assert!(n.accepts(&[]));
/// assert!(n.accepts(&[a, b]));
/// assert!(!n.accepts(&[a]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Nfa {
    alphabet: Alphabet,
    initial: BTreeSet<StateId>,
    accepting: Vec<bool>,
    /// `delta[q][a.index()]` = sorted, deduplicated successors of `q` on `a`.
    delta: Vec<Vec<Vec<StateId>>>,
}

impl Nfa {
    /// Creates an empty automaton (no states) over `alphabet`.
    pub fn new(alphabet: Alphabet) -> Nfa {
        Nfa {
            alphabet,
            initial: BTreeSet::new(),
            accepting: Vec::new(),
            delta: Vec::new(),
        }
    }

    /// Builds an NFA from raw parts, validating all indices.
    ///
    /// `transitions` is a list of `(from, symbol, to)` triples. This is the
    /// constructor of choice for randomized/property tests.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::InvalidState`] for an out-of-range state.
    pub fn from_parts(
        alphabet: Alphabet,
        state_count: usize,
        initial: impl IntoIterator<Item = StateId>,
        accepting: impl IntoIterator<Item = StateId>,
        transitions: impl IntoIterator<Item = (StateId, Symbol, StateId)>,
    ) -> Result<Nfa, AutomataError> {
        let mut nfa = Nfa::new(alphabet);
        for _ in 0..state_count {
            nfa.add_state(false);
        }
        for q in initial {
            if q >= state_count {
                return Err(AutomataError::InvalidState(q));
            }
            nfa.initial.insert(q);
        }
        for q in accepting {
            if q >= state_count {
                return Err(AutomataError::InvalidState(q));
            }
            nfa.accepting[q] = true;
        }
        for (p, a, q) in transitions {
            if p >= state_count {
                return Err(AutomataError::InvalidState(p));
            }
            if q >= state_count {
                return Err(AutomataError::InvalidState(q));
            }
            nfa.add_transition(p, a, q);
        }
        Ok(nfa)
    }

    /// Builds an NFA from transitions that may be labeled `None` (the empty
    /// word `ε`), eliminating the ε-transitions.
    ///
    /// Relabel a machine, mapping hidden actions to `None`, and this gives a
    /// plain NFA for the image language. The abstraction pipeline does not
    /// build it: [`EdgeRows::determinize_image_with`] determinizes the image
    /// from the relabelled machine directly, and this ε-elimination is its
    /// test oracle.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::InvalidState`] for an out-of-range state.
    pub fn from_epsilon_parts(
        alphabet: Alphabet,
        state_count: usize,
        initial: impl IntoIterator<Item = StateId>,
        accepting: impl IntoIterator<Item = StateId>,
        transitions: impl IntoIterator<Item = (StateId, Option<Symbol>, StateId)>,
    ) -> Result<Nfa, AutomataError> {
        let mut eps: Vec<Vec<StateId>> = vec![Vec::new(); state_count];
        let mut real: Vec<Vec<(Symbol, StateId)>> = vec![Vec::new(); state_count];
        for (p, label, q) in transitions {
            if p >= state_count {
                return Err(AutomataError::InvalidState(p));
            }
            if q >= state_count {
                return Err(AutomataError::InvalidState(q));
            }
            match label {
                Some(sym) => real[p].push((sym, q)),
                None => eps[p].push(q),
            }
        }
        // Transitive ε-closure per state (small machines: BFS per state).
        let closure: Vec<StateSet> = (0..state_count)
            .map(|s| {
                let mut seen = StateSet::with_universe(state_count);
                let mut queue = VecDeque::from([s]);
                seen.insert(s);
                while let Some(p) = queue.pop_front() {
                    for &q in &eps[p] {
                        if seen.insert(q) {
                            queue.push_back(q);
                        }
                    }
                }
                seen
            })
            .collect();

        let accepting: BTreeSet<StateId> = accepting.into_iter().collect();
        for &q in &accepting {
            if q >= state_count {
                return Err(AutomataError::InvalidState(q));
            }
        }
        let mut nfa = Nfa::new(alphabet);
        for _ in 0..state_count {
            nfa.add_state(false);
        }
        // A state accepts if its ε-closure meets the accepting set.
        for (s, cl) in closure.iter().enumerate().take(state_count) {
            if cl.iter().any(|q| accepting.contains(&q)) {
                nfa.accepting[s] = true;
            }
        }
        for q in initial {
            if q >= state_count {
                return Err(AutomataError::InvalidState(q));
            }
            nfa.initial.insert(q);
        }
        // delta'(s, a) = ε-closure targets of real transitions leaving the
        // ε-closure of s.
        for s in 0..state_count {
            for p in closure[s].iter() {
                for &(a, q) in &real[p] {
                    for r in closure[q].iter() {
                        nfa.add_transition(s, a, r);
                    }
                }
            }
        }
        Ok(nfa)
    }

    /// A copy of any automaton's rows: the same states, initial and
    /// accepting states, and transitions.
    pub fn from_rows<R: EdgeRows + ?Sized>(rows: &R) -> Nfa {
        let mut out = Nfa::new(rows.alphabet().clone());
        for q in 0..rows.state_count() {
            out.add_state(rows.is_accepting(q));
        }
        out.initial.extend(rows.initial());
        for p in 0..rows.state_count() {
            for (a, q) in rows.row(p) {
                out.add_transition(p, a, q);
            }
        }
        out
    }

    /// Adds a state, returning its id.
    pub fn add_state(&mut self, accepting: bool) -> StateId {
        self.accepting.push(accepting);
        self.delta.push(vec![Vec::new(); self.alphabet.len()]);
        self.accepting.len() - 1
    }

    /// Marks `q` as (the only new) initial state.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn set_initial(&mut self, q: StateId) {
        assert!(q < self.state_count(), "invalid state {q}");
        self.initial.insert(q);
    }

    /// Adds the transition `from --symbol--> to`.
    ///
    /// # Panics
    ///
    /// Panics if a state is out of range.
    pub fn add_transition(&mut self, from: StateId, symbol: Symbol, to: StateId) {
        assert!(from < self.state_count(), "invalid state {from}");
        assert!(to < self.state_count(), "invalid state {to}");
        let row = &mut self.delta[from][symbol.index()];
        if let Err(pos) = row.binary_search(&to) {
            row.insert(pos, to);
        }
    }

    /// The automaton's alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.accepting.len()
    }

    /// The set of initial states.
    pub fn initial(&self) -> &BTreeSet<StateId> {
        &self.initial
    }

    /// Whether `q` accepts.
    pub fn is_accepting(&self, q: StateId) -> bool {
        self.accepting[q]
    }

    /// Successors of `q` on `symbol`, in ascending order.
    pub fn successors(&self, q: StateId, symbol: Symbol) -> impl Iterator<Item = StateId> + '_ {
        self.delta[q][symbol.index()].iter().copied()
    }

    /// Sorted successor list of `q` on `symbol`, as a slice.
    pub(crate) fn successor_slice(&self, q: StateId, symbol: Symbol) -> &[StateId] {
        &self.delta[q][symbol.index()]
    }

    /// Iterates over all transitions `(from, symbol, to)` in sorted order.
    pub fn transitions(&self) -> impl Iterator<Item = (StateId, Symbol, StateId)> + '_ {
        self.delta.iter().enumerate().flat_map(|(p, row)| {
            row.iter()
                .enumerate()
                .flat_map(move |(ai, tos)| tos.iter().map(move |&q| (p, Symbol::from_index(ai), q)))
        })
    }

    /// Total number of transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions().count()
    }

    /// One simultaneous step of the subset semantics.
    pub fn step(&self, set: &BTreeSet<StateId>, symbol: Symbol) -> BTreeSet<StateId> {
        let mut next = BTreeSet::new();
        for &q in set {
            next.extend(self.successors(q, symbol));
        }
        next
    }

    /// Whether the automaton accepts `word`.
    pub fn accepts(&self, word: &[Symbol]) -> bool {
        let mut set = self.initial.clone();
        for &a in word {
            if set.is_empty() {
                return false;
            }
            set = self.step(&set, a);
        }
        set.iter().any(|&q| self.accepting[q])
    }

    /// States reachable from the initial states.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.state_count()];
        let mut queue: VecDeque<StateId> = self.initial.iter().copied().collect();
        for &q in &self.initial {
            seen[q] = true;
        }
        while let Some(p) = queue.pop_front() {
            for tos in &self.delta[p] {
                for &q in tos {
                    if !seen[q] {
                        seen[q] = true;
                        queue.push_back(q);
                    }
                }
            }
        }
        seen
    }

    /// States from which an accepting state is reachable (co-reachable).
    pub fn coreachable(&self) -> Vec<bool> {
        let mut rev: Vec<Vec<StateId>> = vec![Vec::new(); self.state_count()];
        for (p, _, q) in self.transitions() {
            rev[q].push(p);
        }
        let mut seen = vec![false; self.state_count()];
        let mut queue: VecDeque<StateId> = VecDeque::new();
        for (q, &acc) in self.accepting.iter().enumerate() {
            if acc {
                seen[q] = true;
                queue.push_back(q);
            }
        }
        while let Some(p) = queue.pop_front() {
            for &r in &rev[p] {
                if !seen[r] {
                    seen[r] = true;
                    queue.push_back(r);
                }
            }
        }
        seen
    }

    /// Removes states that are unreachable or cannot reach acceptance.
    ///
    /// The language is unchanged. Returns the trimmed automaton (possibly with
    /// zero states, when the language is empty).
    pub fn trim(&self) -> Nfa {
        let reach = self.reachable();
        let coreach = self.coreachable();
        let keep: Vec<bool> = reach.iter().zip(&coreach).map(|(&r, &c)| r && c).collect();
        self.restrict(&keep)
    }

    /// Keeps exactly the states with `keep[q] == true`, re-indexing.
    pub fn restrict(&self, keep: &[bool]) -> Nfa {
        let mut map: Vec<Option<StateId>> = vec![None; self.state_count()];
        let mut out = Nfa::new(self.alphabet.clone());
        for q in 0..self.state_count() {
            if keep[q] {
                map[q] = Some(out.add_state(self.accepting[q]));
            }
        }
        for &q in &self.initial {
            if let Some(nq) = map[q] {
                out.initial.insert(nq);
            }
        }
        for (p, a, q) in self.transitions() {
            if let (Some(np), Some(nq)) = (map[p], map[q]) {
                out.add_transition(np, a, nq);
            }
        }
        out
    }

    /// Whether the language is empty.
    pub fn is_empty_language(&self) -> bool {
        let reach = self.reachable();
        !(0..self.state_count()).any(|q| reach[q] && self.accepting[q])
    }

    /// A shortest accepted word, when the language is non-empty.
    pub fn shortest_accepted(&self) -> Option<Word> {
        // BFS over states, remembering the first-discovered path.
        let mut parent: Vec<Option<(StateId, Symbol)>> = vec![None; self.state_count()];
        let mut seen = vec![false; self.state_count()];
        let mut queue: VecDeque<StateId> = VecDeque::new();
        for &q in &self.initial {
            seen[q] = true;
            queue.push_back(q);
        }
        let mut hit = None;
        'bfs: while let Some(p) = queue.pop_front() {
            if self.accepting[p] {
                hit = Some(p);
                break 'bfs;
            }
            for (ai, tos) in self.delta[p].iter().enumerate() {
                let a = Symbol::from_index(ai);
                for &q in tos {
                    if !seen[q] {
                        seen[q] = true;
                        parent[q] = Some((p, a));
                        queue.push_back(q);
                    }
                }
            }
        }
        let mut q = hit?;
        let mut word = Vec::new();
        while let Some((p, a)) = parent[q] {
            word.push(a);
            q = p;
        }
        word.reverse();
        Some(word)
    }

    /// Marks every co-reachable state accepting: the language becomes the set
    /// of *prefixes* of the original language, `pre(L)`.
    pub fn prefix_closure(&self) -> Nfa {
        let coreach = self.coreachable();
        let mut out = self.clone();
        for (q, &live) in coreach.iter().enumerate() {
            if live {
                out.accepting[q] = true;
            }
        }
        out
    }

    /// Whether the language is prefix closed (`L = pre(L)`).
    pub fn is_prefix_closed(&self) -> bool {
        self.is_prefix_closed_with(&Guard::unlimited())
            .expect("an unlimited guard never trips")
    }

    /// [`Nfa::is_prefix_closed`] under a resource [`Guard`]: one charged
    /// determinization, then [`Dfa::is_prefix_closed`] (every live state
    /// accepts).
    ///
    /// # Errors
    ///
    /// Returns a budget error when the guard trips during determinization.
    pub fn is_prefix_closed_with(&self, guard: &Guard) -> Result<bool, AutomataError> {
        let _span = guard.span("prefix_closed");
        Ok(self.determinize_with(guard)?.is_prefix_closed())
    }

    /// Subset construction: an equivalent [`Dfa`].
    ///
    /// Only subsets reachable from the initial subset are materialized. The
    /// empty subset is never materialized (the DFA is partial).
    ///
    /// Worst-case exponential (`2^n` subsets); use
    /// [`Nfa::determinize_with`] to bound the blow-up.
    pub fn determinize(&self) -> Dfa {
        self.determinize_with(&Guard::unlimited())
            .expect("an unlimited guard never trips")
    }

    /// Subset construction under a resource [`Guard`].
    ///
    /// Each materialized subset state and DFA transition is charged against
    /// the guard's budget, and the wall clock/cancellation flag is polled
    /// periodically.
    ///
    /// # Errors
    ///
    /// [`AutomataError::BudgetExceeded`] or [`AutomataError::Cancelled`]
    /// when the guard trips; the error carries partial diagnostics.
    pub fn determinize_with(&self, guard: &Guard) -> Result<Dfa, AutomataError> {
        let start: StateSet = self.initial.iter().copied().collect();
        Ok(self.determinize_roots_with(&[start], guard)?.0)
    }

    /// Product automaton for the intersection `L(self) ∩ L(other)`.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::AlphabetMismatch`] when the alphabets differ.
    pub fn intersection(&self, other: &Nfa) -> Result<Nfa, AutomataError> {
        self.intersection_with(other, &Guard::unlimited())
    }

    /// Intersection product under a resource [`Guard`].
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::AlphabetMismatch`] when the alphabets
    /// differ, [`AutomataError::BudgetExceeded`]/[`AutomataError::Cancelled`]
    /// when the guard trips.
    pub fn intersection_with(&self, other: &Nfa, guard: &Guard) -> Result<Nfa, AutomataError> {
        let _span = guard.span("nfa_intersection");
        self.alphabet.check_compatible(&other.alphabet)?;
        let mut index = PairTable::new(self.state_count(), other.state_count());
        let mut out = Nfa::new(self.alphabet.clone());
        let mut work = VecDeque::new();
        for &p in &self.initial {
            for &q in &other.initial {
                guard.charge_state()?;
                let id = out.add_state(self.accepting[p] && other.accepting[q]);
                index.set(p, q, id);
                out.initial.insert(id);
                work.push_back((p, q));
            }
        }
        while let Some((p, q)) = work.pop_front() {
            guard.note_frontier(work.len());
            let id = index.get(p, q).expect("worklist pairs are interned");
            for a in self.alphabet.symbols() {
                for &p2 in self.successor_slice(p, a) {
                    for &q2 in other.successor_slice(q, a) {
                        let nid = match index.get(p2, q2) {
                            Some(nid) => nid,
                            None => {
                                guard.charge_state()?;
                                let nid = out.add_state(self.accepting[p2] && other.accepting[q2]);
                                index.set(p2, q2, nid);
                                work.push_back((p2, q2));
                                nid
                            }
                        };
                        guard.charge_transition()?;
                        out.add_transition(id, a, nid);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Disjoint union: `L(self) ∪ L(other)`.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::AlphabetMismatch`] when the alphabets differ.
    pub fn union(&self, other: &Nfa) -> Result<Nfa, AutomataError> {
        self.alphabet.check_compatible(&other.alphabet)?;
        let mut out = self.clone();
        let offset = out.state_count();
        for q in 0..other.state_count() {
            out.add_state(other.accepting[q]);
        }
        for &q in &other.initial {
            out.initial.insert(q + offset);
        }
        for (p, a, q) in other.transitions() {
            out.add_transition(p + offset, a, q + offset);
        }
        Ok(out)
    }

    /// The reversal automaton: accepts `w` iff `self` accepts `w` reversed.
    pub fn reverse(&self) -> Nfa {
        let mut out = Nfa::new(self.alphabet.clone());
        for q in 0..self.state_count() {
            out.add_state(self.initial.contains(&q));
        }
        for q in 0..self.state_count() {
            if self.accepting[q] {
                out.initial.insert(q);
            }
        }
        for (p, a, q) in self.transitions() {
            out.add_transition(q, a, p);
        }
        out
    }

    /// Enumerates all accepted words of length at most `max_len`, in
    /// length-lexicographic order. Exponential; intended for tests.
    pub fn words_up_to(&self, max_len: usize) -> Vec<Word> {
        let mut out = Vec::new();
        let mut layer: Vec<(Word, BTreeSet<StateId>)> = vec![(Vec::new(), self.initial.clone())];
        if self.initial.iter().any(|&q| self.accepting[q]) {
            out.push(Vec::new());
        }
        for _ in 0..max_len {
            let mut next_layer = Vec::new();
            for (w, set) in &layer {
                for a in self.alphabet.symbols() {
                    let next = self.step(set, a);
                    if next.is_empty() {
                        continue;
                    }
                    let mut w2 = w.clone();
                    w2.push(a);
                    if next.iter().any(|&q| self.accepting[q]) {
                        out.push(w2.clone());
                    }
                    next_layer.push((w2, next));
                }
            }
            layer = next_layer;
            if layer.is_empty() {
                break;
            }
        }
        out
    }
}

/// The subset construction behind [`EdgeRows::determinize_image_with`],
/// over any rows.
pub(crate) fn determinize_image<R: EdgeRows + ?Sized>(
    rows: &R,
    target: &Alphabet,
    relabel: &[Option<Symbol>],
    roots: &[StateSet],
    guard: &Guard,
) -> Result<(Dfa, Vec<StateId>), AutomataError> {
    let _span = guard.span("determinize");
    assert_eq!(relabel.len(), rows.alphabet().len(), "one label per letter");
    let closures = epsilon_closures(rows, relabel);
    // Adds the ε-closure of `q` (just `q` when nothing is hidden).
    let close = |set: &mut StateSet, q: StateId| match closures.get(q) {
        Some(closure) => set.union_with(closure),
        None => {
            set.insert(q);
        }
    };
    let mut index: Interner<StateSet> = Interner::new();
    let mut dfa = Dfa::new(target.clone());
    let accepts = |set: &StateSet| set.iter().any(|q| rows.is_accepting(q));

    let mut root_states = Vec::with_capacity(roots.len());
    let mut closed = StateSet::new();
    for root in roots {
        closed.clear();
        for q in root.iter() {
            close(&mut closed, q);
        }
        let (d, fresh) = index.try_intern(&closed, || guard.charge_state())?;
        if fresh {
            dfa.add_state(accepts(&closed));
        }
        root_states.push(d);
    }
    if let Some(&q0) = root_states.first() {
        dfa.set_initial(q0);
    }

    // One accumulator per target letter; `touched` lists the non-empty
    // ones. Subsets get ids in discovery order, so expanding them in id
    // order is the FIFO search.
    let mut next: Vec<StateSet> = vec![StateSet::new(); target.len()];
    let mut touched: Vec<Symbol> = Vec::new();
    let mut d = 0;
    while d < dfa.state_count() {
        guard.note_frontier(dfa.state_count() - d - 1);
        for q in index.key(d).iter() {
            for (a, q2) in rows.row(q) {
                let Some(b) = relabel[a.index()] else {
                    continue;
                };
                let acc = &mut next[b.index()];
                if acc.is_empty() {
                    touched.push(b);
                }
                close(acc, q2);
            }
        }
        touched.sort_unstable();
        for &b in &touched {
            let set = &next[b.index()];
            let (nd, fresh) = index.try_intern(set, || guard.charge_state())?;
            if fresh {
                dfa.add_state(accepts(set));
            }
            guard.charge_transition()?;
            dfa.set_transition(d, b, nd);
        }
        for b in touched.drain(..) {
            next[b.index()].clear();
        }
        d += 1;
    }
    Ok((dfa, root_states))
}

/// The ε-closure of every state under the hidden letters of `relabel`
/// (those mapped to `None`), or nothing when no letter is hidden.
///
/// States are closed in the post-order of a depth-first search over the
/// hidden edges, so a successor's closure is usually complete already
/// and is added whole; only successors on a cycle through the state
/// are walked edge by edge.
fn epsilon_closures<R: EdgeRows + ?Sized>(rows: &R, relabel: &[Option<Symbol>]) -> Vec<StateSet> {
    if relabel.iter().all(Option::is_some) {
        return Vec::new();
    }
    let n = rows.state_count();
    let succ: Vec<Vec<StateId>> = (0..n)
        .map(|p| {
            let hidden = rows.row(p).filter(|&(a, _)| relabel[a.index()].is_none());
            hidden.map(|(_, q)| q).collect()
        })
        .collect();
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut path: Vec<(StateId, usize)> = Vec::new();
    for s in 0..n {
        if visited[s] {
            continue;
        }
        visited[s] = true;
        path.push((s, 0));
        while let Some((p, i)) = path.last_mut() {
            match succ[*p].get(*i) {
                Some(&q) => {
                    *i += 1;
                    if !visited[q] {
                        visited[q] = true;
                        path.push((q, 0));
                    }
                }
                None => {
                    order.push(*p);
                    path.pop();
                }
            }
        }
    }
    let mut closures = vec![StateSet::new(); n];
    let mut done = vec![false; n];
    let mut stack = Vec::new();
    for s in order {
        let mut closure = StateSet::with_universe(n);
        closure.insert(s);
        stack.push(s);
        while let Some(p) = stack.pop() {
            for &q in &succ[p] {
                if closure.contains(q) {
                    continue;
                }
                if done[q] {
                    closure.union_with(&closures[q]);
                } else {
                    closure.insert(q);
                    stack.push(q);
                }
            }
        }
        closures[s] = closure;
        done[s] = true;
    }
    closures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::Budget;

    fn ab2() -> (Alphabet, Symbol, Symbol) {
        let ab = Alphabet::new(["a", "b"]).unwrap();
        let a = ab.symbol("a").unwrap();
        let b = ab.symbol("b").unwrap();
        (ab, a, b)
    }

    /// L = (ab)*
    fn ab_star() -> Nfa {
        let (ab, a, b) = ab2();
        let mut n = Nfa::new(ab);
        let q0 = n.add_state(true);
        let q1 = n.add_state(false);
        n.set_initial(q0);
        n.add_transition(q0, a, q1);
        n.add_transition(q1, b, q0);
        n
    }

    #[test]
    fn accepts_basic() {
        let (_, a, b) = ab2();
        let n = ab_star();
        assert!(n.accepts(&[]));
        assert!(n.accepts(&[a, b]));
        assert!(n.accepts(&[a, b, a, b]));
        assert!(!n.accepts(&[b]));
        assert!(!n.accepts(&[a, a]));
    }

    #[test]
    fn determinize_agrees_on_words() {
        let n = ab_star();
        let d = n.determinize();
        for w in n.words_up_to(5) {
            assert!(d.accepts(&w));
        }
        let (_, a, b) = ab2();
        assert!(!d.accepts(&[b, a]));
        assert!(!d.accepts(&[a]));
    }

    #[test]
    fn trim_preserves_language() {
        let (ab, a, b) = ab2();
        let mut n = Nfa::new(ab);
        let q0 = n.add_state(false);
        let q1 = n.add_state(true);
        let dead = n.add_state(false); // unreachable-from-acceptance sink
        n.set_initial(q0);
        n.add_transition(q0, a, q1);
        n.add_transition(q0, b, dead);
        n.add_transition(dead, b, dead);
        let t = n.trim();
        assert_eq!(t.state_count(), 2);
        assert!(t.accepts(&[a]));
        assert!(!t.accepts(&[b]));
    }

    #[test]
    fn prefix_closure_yields_prefixes() {
        let (ab, a, b) = ab2();
        // L = { ab } exactly.
        let mut n = Nfa::new(ab);
        let q0 = n.add_state(false);
        let q1 = n.add_state(false);
        let q2 = n.add_state(true);
        n.set_initial(q0);
        n.add_transition(q0, a, q1);
        n.add_transition(q1, b, q2);
        assert!(!n.is_prefix_closed());
        let p = n.prefix_closure();
        assert!(p.accepts(&[]));
        assert!(p.accepts(&[a]));
        assert!(p.accepts(&[a, b]));
        assert!(!p.accepts(&[b]));
        assert!(p.is_prefix_closed());
    }

    #[test]
    fn intersection_and_union() {
        let (ab, a, b) = ab2();
        let star = ab_star();
        // M = words of even length
        let mut even = Nfa::new(ab);
        let e0 = even.add_state(true);
        let e1 = even.add_state(false);
        even.set_initial(e0);
        for s in [a, b] {
            even.add_transition(e0, s, e1);
            even.add_transition(e1, s, e0);
        }
        let inter = star.intersection(&even).unwrap();
        // (ab)* is all even length, so intersection == (ab)*.
        assert!(crate::equiv::dfa_equivalent(
            &inter.determinize(),
            &star.determinize()
        ));
        let uni = star.union(&even).unwrap();
        assert!(uni.accepts(&[b, b]));
        assert!(uni.accepts(&[a, b]));
        assert!(!uni.accepts(&[a]));
    }

    #[test]
    fn reverse_reverses() {
        let (ab, a, b) = ab2();
        // L = a.b*
        let mut n = Nfa::new(ab);
        let q0 = n.add_state(false);
        let q1 = n.add_state(true);
        n.set_initial(q0);
        n.add_transition(q0, a, q1);
        n.add_transition(q1, b, q1);
        let r = n.reverse();
        assert!(r.accepts(&[a]));
        assert!(r.accepts(&[b, b, a]));
        assert!(!r.accepts(&[a, b]));
    }

    #[test]
    fn epsilon_elimination() {
        let (ab, a, b) = ab2();
        // Machine: q0 --a--> q1 --ε--> q2 --b--> q3(acc), q0 --ε--> q2.
        let n = Nfa::from_epsilon_parts(
            ab,
            4,
            [0],
            [3],
            [(0, Some(a), 1), (1, None, 2), (2, Some(b), 3), (0, None, 2)],
        )
        .unwrap();
        assert!(n.accepts(&[a, b]));
        assert!(n.accepts(&[b]));
        assert!(!n.accepts(&[a]));
        assert!(!n.accepts(&[]));
    }

    #[test]
    fn epsilon_acceptance_through_closure() {
        let (ab, a, _) = ab2();
        // q0 --a--> q1 --ε--> q2(acc): "a" must be accepted.
        let n = Nfa::from_epsilon_parts(ab, 3, [0], [2], [(0, Some(a), 1), (1, None, 2)]).unwrap();
        assert!(n.accepts(&[a]));
        assert!(!n.accepts(&[]));
    }

    #[test]
    fn shortest_accepted_is_shortest() {
        let (ab, a, b) = ab2();
        let mut n = Nfa::new(ab);
        let q0 = n.add_state(false);
        let q1 = n.add_state(false);
        let q2 = n.add_state(true);
        n.set_initial(q0);
        n.add_transition(q0, a, q1);
        n.add_transition(q1, a, q2);
        n.add_transition(q0, b, q2);
        assert_eq!(n.shortest_accepted().unwrap(), vec![b]);
    }

    #[test]
    fn empty_language_detected() {
        let (ab, a, _) = ab2();
        let mut n = Nfa::new(ab);
        let q0 = n.add_state(false);
        n.set_initial(q0);
        n.add_transition(q0, a, q0);
        assert!(n.is_empty_language());
        assert_eq!(n.shortest_accepted(), None);
    }

    #[test]
    fn from_parts_validates() {
        let (ab, a, _) = ab2();
        let err = Nfa::from_parts(ab, 2, [0], [5], [(0, a, 1)]).unwrap_err();
        assert_eq!(err, AutomataError::InvalidState(5));
    }

    #[test]
    fn words_up_to_enumerates_in_order() {
        let (_, a, b) = ab2();
        let n = ab_star();
        let ws = n.words_up_to(4);
        assert_eq!(ws, vec![vec![], vec![a, b], vec![a, b, a, b]]);
    }

    /// The "nth symbol from the end is an a" NFA: n+1 states, 2^n subset
    /// states after determinization.
    fn nth_from_end(n: usize) -> Nfa {
        let (ab, a, b) = ab2();
        let mut nfa = Nfa::new(ab);
        let q0 = nfa.add_state(false);
        nfa.set_initial(q0);
        nfa.add_transition(q0, a, q0);
        nfa.add_transition(q0, b, q0);
        let mut prev = q0;
        for i in 0..n {
            let q = nfa.add_state(i == n - 1);
            if prev == q0 {
                nfa.add_transition(q0, a, q);
            } else {
                nfa.add_transition(prev, a, q);
                nfa.add_transition(prev, b, q);
            }
            prev = q;
        }
        nfa
    }

    #[test]
    fn tiny_state_budget_trips_subset_construction_deterministically() {
        let nfa = nth_from_end(12); // 2^12 = 4096 subset states
        let guard = Guard::new(Budget::unlimited().with_max_states(100));
        let err = nfa.determinize_with(&guard).unwrap_err();
        match &err {
            AutomataError::BudgetExceeded {
                resource,
                spent,
                limit,
                partial,
            } => {
                assert_eq!(*resource, crate::guard::Resource::States);
                assert_eq!(*limit, 100);
                assert_eq!(*spent, 101);
                assert_eq!(partial.states, 101);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // Deterministic: a second run trips at exactly the same point
        // (elapsed wall-clock aside).
        let guard2 = Guard::new(Budget::unlimited().with_max_states(100));
        match (nfa.determinize_with(&guard2).unwrap_err(), err) {
            (
                AutomataError::BudgetExceeded {
                    resource: r2,
                    spent: s2,
                    limit: l2,
                    partial: p2,
                },
                AutomataError::BudgetExceeded {
                    resource: r1,
                    spent: s1,
                    limit: l1,
                    partial: p1,
                },
            ) => {
                assert_eq!((r2, s2, l2), (r1, s1, l1));
                assert_eq!(
                    (p2.states, p2.transitions, p2.frontier),
                    (p1.states, p1.transitions, p1.frontier)
                );
            }
            other => panic!("expected two BudgetExceeded errors, got {other:?}"),
        }
    }

    #[test]
    fn roots_share_one_subset_construction() {
        let nfa = nth_from_end(4);
        let n = nfa.state_count();
        let roots: Vec<StateSet> = (0..n).map(|q| StateSet::from_iter([q])).collect();
        let (dfa, root) = nfa
            .determinize_roots_with(&roots, &Guard::unlimited())
            .unwrap();
        assert_eq!(dfa.initial(), root[0]);
        for (q, &r) in root.iter().enumerate() {
            let accepting = (0..n).filter(|&p| nfa.is_accepting(p));
            let from_q =
                Nfa::from_parts(nfa.alphabet.clone(), n, [q], accepting, nfa.transitions())
                    .unwrap();
            assert!(crate::equiv::dfa_equivalent(
                &dfa.rooted_at(r),
                &from_q.determinize()
            ));
        }
        let twice = [roots[1].clone(), roots[1].clone()];
        let (_, root) = nfa
            .determinize_roots_with(&twice, &Guard::unlimited())
            .unwrap();
        assert_eq!(root[0], root[1]);
    }

    #[test]
    fn sufficient_budget_matches_unbudgeted_result() {
        let nfa = nth_from_end(6);
        let guard = Guard::new(Budget::unlimited().with_max_states(1 << 10));
        let budgeted = nfa.determinize_with(&guard).unwrap();
        assert!(crate::equiv::dfa_equivalent(&budgeted, &nfa.determinize()));
    }
}
