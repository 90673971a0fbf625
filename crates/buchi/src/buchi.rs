//! Nondeterministic Büchi automata.

use std::collections::{BTreeSet, VecDeque};

use rl_automata::{Alphabet, AutomataError, EdgeRows, Guard, Nfa, PairTable, StateId, Symbol};

use crate::classes::ClassBuchi;
use crate::emptiness::{self, Poll};
use crate::upword::UpWord;

/// A nondeterministic Büchi automaton over an [`Alphabet`].
///
/// An ω-word is accepted when some infinite run from an initial state visits
/// an accepting state infinitely often.
///
/// # Example
///
/// ```
/// use rl_automata::Alphabet;
/// use rl_buchi::{Buchi, UpWord};
///
/// # fn main() -> Result<(), rl_automata::AutomataError> {
/// let ab = Alphabet::new(["a", "b"])?;
/// let a = ab.symbol("a").unwrap();
/// let b = ab.symbol("b").unwrap();
/// // "eventually always a"
/// let mut m = Buchi::new(ab);
/// let q0 = m.add_state(false);
/// let q1 = m.add_state(true);
/// m.set_initial(q0);
/// m.add_transition(q0, a, q0);
/// m.add_transition(q0, b, q0);
/// m.add_transition(q0, a, q1);
/// m.add_transition(q1, a, q1);
/// assert!(m.accepts_upword(&UpWord::new(vec![b, b], vec![a])?));
/// assert!(!m.accepts_upword(&UpWord::periodic(vec![a, b])?));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Buchi {
    alphabet: Alphabet,
    initial: BTreeSet<StateId>,
    accepting: Vec<bool>,
    /// `edges[q]` = the transitions leaving `q` as `(symbol, successor)`
    /// pairs, sorted and deduplicated. A state stores only the letters it
    /// enables, so every pass over the automaton is O(states + transitions)
    /// however large the alphabet.
    edges: Vec<Vec<(Symbol, StateId)>>,
}

impl Buchi {
    /// Creates an empty automaton over `alphabet`.
    pub fn new(alphabet: Alphabet) -> Buchi {
        Buchi {
            alphabet,
            initial: BTreeSet::new(),
            accepting: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Assembles an automaton whose rows were each written once.
    ///
    /// Every row must already be sorted and deduplicated, and every
    /// successor must be a state of the automaton.
    pub(crate) fn from_rows(
        alphabet: Alphabet,
        initial: BTreeSet<StateId>,
        accepting: Vec<bool>,
        edges: Vec<Vec<(Symbol, StateId)>>,
    ) -> Buchi {
        debug_assert_eq!(accepting.len(), edges.len());
        debug_assert!(edges.iter().all(|row| {
            row.windows(2).all(|w| w[0] < w[1]) && row.iter().all(|&(_, q)| q < edges.len())
        }));
        Buchi {
            alphabet,
            initial,
            accepting,
            edges,
        }
    }

    /// Builds a Büchi automaton from raw parts, validating all indices.
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
    ) -> Result<Buchi, AutomataError> {
        let nfa = Nfa::from_parts(alphabet, state_count, initial, accepting, transitions)?;
        Ok(Buchi::from_nfa_structure(&nfa))
    }

    /// Reinterprets an NFA's graph as a Büchi automaton (same states,
    /// transitions, initial and accepting sets — but now read with Büchi
    /// semantics over ω-words).
    pub fn from_nfa_structure(nfa: &Nfa) -> Buchi {
        let mut b = Buchi::new(nfa.alphabet().clone());
        for q in 0..nfa.state_count() {
            b.add_state(nfa.is_accepting(q));
        }
        for &q in nfa.initial() {
            b.initial.insert(q);
        }
        for (p, a, q) in nfa.transitions() {
            b.add_transition(p, a, q);
        }
        b
    }

    /// Reinterprets the automaton's graph as an NFA over finite words.
    pub fn to_nfa_structure(&self) -> Nfa {
        Nfa::from_rows(self)
    }

    /// Adds a state, returning its id.
    pub fn add_state(&mut self, accepting: bool) -> StateId {
        self.accepting.push(accepting);
        self.edges.push(Vec::new());
        self.accepting.len() - 1
    }

    /// Adds `q` to the initial set.
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
        let row = &mut self.edges[from];
        if let Err(pos) = row.binary_search(&(symbol, to)) {
            row.insert(pos, (symbol, to));
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

    /// Whether `q` is accepting.
    pub fn is_accepting(&self, q: StateId) -> bool {
        self.accepting[q]
    }

    /// Whether every state accepts. Then the accepted words are exactly
    /// the words of infinite runs, and the language is limit closed: by
    /// König's lemma, a word all of whose prefixes have runs in a finitely
    /// branching graph has an infinite run.
    pub fn accepts_everywhere(&self) -> bool {
        self.accepting.iter().all(|&acc| acc)
    }

    /// Successors of `q` on `symbol`, in ascending order.
    pub fn successors(&self, q: StateId, symbol: Symbol) -> impl Iterator<Item = StateId> + '_ {
        let row = &self.edges[q];
        let lo = row.partition_point(|&(a, _)| a < symbol);
        let hi = lo + row[lo..].partition_point(|&(a, _)| a == symbol);
        row[lo..hi].iter().map(|&(_, to)| to)
    }

    /// The transitions leaving `q`, as `(symbol, successor)` pairs sorted by
    /// symbol, then successor.
    pub(crate) fn edges(&self, q: StateId) -> &[(Symbol, StateId)] {
        &self.edges[q]
    }

    /// Iterates over all transitions `(p, a, q)`, sorted by `p`, then `a`,
    /// then `q`.
    pub fn transitions(&self) -> impl Iterator<Item = (StateId, Symbol, StateId)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .flat_map(|(p, row)| row.iter().map(move |&(a, q)| (p, a, q)))
    }

    /// Total number of transitions.
    pub fn transition_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Whether the accepted ω-language is empty.
    pub fn is_empty_language(&self) -> bool {
        self.accepted_upword().is_none()
    }

    /// An accepted ultimately periodic word, when the language is non-empty.
    pub fn accepted_upword(&self) -> Option<UpWord> {
        self.accepted_upword_with(&Guard::unlimited())
            .expect("an unlimited guard never trips")
    }

    /// [`Buchi::accepted_upword`] that stops at `guard`'s deadline or
    /// cancellation.
    ///
    /// Every 64 visited states it calls [`Guard::check_now`]. It charges no
    /// states or transitions and makes no [`Guard::tick`], so a search that
    /// finishes leaves the guard's counters as they were.
    ///
    /// # Errors
    ///
    /// [`AutomataError::BudgetExceeded`] when the deadline passes and
    /// [`AutomataError::Cancelled`] when the guard's token is cancelled.
    pub fn accepted_upword_with(&self, guard: &Guard) -> Result<Option<UpWord>, AutomataError> {
        emptiness::accepting_lasso(self, &mut Poll::new(guard))
    }

    /// Whether the automaton accepts the ultimately periodic word `w`.
    ///
    /// Decided exactly, by intersecting with the one-word lasso automaton and
    /// checking emptiness of the product graph.
    pub fn accepts_upword(&self, w: &UpWord) -> bool {
        emptiness::accepts_upword(self, w)
    }

    /// *Reduction* in the sense of Theorem 5.1: removes every state from
    /// which no accepting run departs (and every unreachable state). The
    /// ω-language is unchanged.
    pub fn reduce(&self) -> Buchi {
        self.reduce_with(&mut Poll::new(&Guard::unlimited()))
            .expect("an unlimited guard never trips")
    }

    fn reduce_with(&self, poll: &mut Poll<'_>) -> Result<Buchi, AutomataError> {
        let live = self.live_states_with(poll)?;
        let mut map: Vec<Option<StateId>> = vec![None; self.state_count()];
        let mut accepting = Vec::new();
        for q in (0..self.state_count()).filter(|&q| live[q]) {
            map[q] = Some(accepting.len());
            accepting.push(self.accepting[q]);
        }
        let initial = self.initial.iter().filter_map(|&q| map[q]).collect();
        // `map` is increasing, so filtering a sorted row keeps it sorted.
        let edges = (0..self.state_count())
            .filter(|&p| live[p])
            .map(|p| {
                self.edges[p]
                    .iter()
                    .filter_map(|&(a, q)| map[q].map(|nq| (a, nq)))
                    .collect()
            })
            .collect();
        Ok(Buchi::from_rows(
            self.alphabet.clone(),
            initial,
            accepting,
            edges,
        ))
    }

    /// Marks states that are reachable from the initial set *and* from which
    /// an accepting cycle is reachable ("live" states: some accepting run
    /// passes through them).
    pub fn live_states(&self) -> Vec<bool> {
        self.live_states_with(&mut Poll::new(&Guard::unlimited()))
            .expect("an unlimited guard never trips")
    }

    fn live_states_with(&self, poll: &mut Poll<'_>) -> Result<Vec<bool>, AutomataError> {
        let n = self.state_count();
        // Forward reachability.
        let mut reach = vec![false; n];
        let mut queue: VecDeque<StateId> = self.initial.iter().copied().collect();
        for &q in &self.initial {
            reach[q] = true;
        }
        while let Some(p) = queue.pop_front() {
            poll.visit()?;
            for &(_, q) in &self.edges[p] {
                if !reach[q] {
                    reach[q] = true;
                    queue.push_back(q);
                }
            }
        }
        // States inside accepting cycles (within the reachable part).
        let core = emptiness::accepting_cycle_states(self, &reach, poll)?;
        // Backward reachability from the core, over the reversed edges of
        // the reachable part in one flat array: `rev[start[q]..start[q + 1]]`
        // are the predecessors of `q`.
        let mut start = vec![0usize; n + 1];
        for p in (0..n).filter(|&p| reach[p]) {
            for &(_, q) in &self.edges[p] {
                start[q + 1] += 1;
            }
        }
        for q in 0..n {
            start[q + 1] += start[q];
        }
        let mut fill = start.clone();
        let mut rev = vec![0; start[n]];
        for p in (0..n).filter(|&p| reach[p]) {
            for &(_, q) in &self.edges[p] {
                rev[fill[q]] = p;
                fill[q] += 1;
            }
        }
        let mut live = vec![false; n];
        let mut queue: VecDeque<StateId> = VecDeque::new();
        for q in 0..n {
            if core[q] {
                live[q] = true;
                queue.push_back(q);
            }
        }
        while let Some(p) = queue.pop_front() {
            poll.visit()?;
            for &r in &rev[start[p]..start[p + 1]] {
                if !live[r] {
                    live[r] = true;
                    queue.push_back(r);
                }
            }
        }
        Ok(live)
    }

    /// Intersection product: accepts `L(self) ∩ L(other)`.
    ///
    /// When either automaton has every state accepting (its language is
    /// limit closed: the behaviors of a transition system, a prefix graph)
    /// the product is one copy of the state pairs `(p, q)`, accepting where
    /// the other side accepts. Only for two genuine Büchi automata does it
    /// use the classical two-phase construction (a flag tracks whether we
    /// are waiting for an accepting state of `self` or of `other`).
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::AlphabetMismatch`] when the alphabets differ.
    pub fn intersection(&self, other: &Buchi) -> Result<Buchi, AutomataError> {
        self.intersection_with(other, &Guard::unlimited())
    }

    /// [`Buchi::intersection`] under a resource [`Guard`].
    ///
    /// Every interned product state is charged against the guard's state
    /// budget and every product transition against its transition budget.
    /// A side that accepts everywhere makes the product one copy, as in
    /// [`Buchi::intersection`].
    ///
    /// Each product state's successors come from its left row: every run
    /// of edges on one symbol finds that symbol's edges in the right row by
    /// binary search, so the product costs O(left transitions · log) plus
    /// the product transitions, not O(product states × |Σ|). Successors
    /// are interned and charged in `(symbol, left successor, right
    /// successor)` order from a breadth-first worklist, which fixes the
    /// product's state numbering and the exact charge at which a budget
    /// trips. It is the same join as [`Buchi::intersection_with_classes`],
    /// with every letter in a class of its own.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::AlphabetMismatch`] when the alphabets differ,
    /// or a budget error when the guard trips.
    pub fn intersection_with(&self, other: &Buchi, guard: &Guard) -> Result<Buchi, AutomataError> {
        self.product(other, |a| a, guard)
    }

    /// [`Buchi::intersection_with`] against an automaton over letter
    /// classes: accepts `L(self) ∩ L(other)`.
    ///
    /// Each edge `(a, p2)` of a left row meets the right row's edges on
    /// `a`'s class, found with one lookup, so the product costs
    /// O(product transitions) however many letters share a class. States
    /// are numbered and charged exactly as [`Buchi::intersection_with`]
    /// numbers and charges them against `other.to_letters()`, and the
    /// product is equal to that one.
    ///
    /// # Errors
    ///
    /// As [`Buchi::intersection_with`].
    pub fn intersection_with_classes(
        &self,
        other: &ClassBuchi,
        guard: &Guard,
    ) -> Result<Buchi, AutomataError> {
        self.product(other.rows(), |a| other.class_of(a), guard)
    }

    /// The product of `self` with `other`, whose edges carry the class
    /// `class_of(a)` of each letter `a` (the identity for a product of two
    /// letter automata).
    fn product(
        &self,
        other: &Buchi,
        class_of: impl Fn(Symbol) -> Symbol,
        guard: &Guard,
    ) -> Result<Buchi, AutomataError> {
        let _span = guard.span("buchi_intersection");
        self.alphabet.check_compatible(&other.alphabet)?;
        // Classical two-copy product: in copy 0 we wait for `self` to accept,
        // in copy 1 for `other`; acceptance = copy-0 states whose left
        // component accepts (visited infinitely often iff both sides accept
        // infinitely often). Copy `c` of `(p, q)` sits in column
        // `copies · q + c`.
        //
        // When either side accepts everywhere (a limit-closed language,
        // such as a transition system's behaviors or a prefix graph), every
        // run of it is accepting, so the product needs no flag: one copy,
        // whose states accept exactly when the other side's component does.
        //
        // Ids are handed out in discovery order and states are expanded in
        // id order, so `keys[id]` is the breadth-first worklist and each
        // row is written once, when its state is expanded.
        let copies = if self.accepts_everywhere() || other.accepts_everywhere() {
            1
        } else {
            2
        };
        struct Product<'a> {
            index: PairTable,
            copies: usize,
            keys: Vec<(StateId, StateId, usize)>,
            accepting: Vec<bool>,
            left_accepting: &'a [bool],
            right_accepting: &'a [bool],
            guard: &'a Guard,
        }
        impl Product<'_> {
            fn intern(
                &mut self,
                p: StateId,
                q: StateId,
                copy: usize,
            ) -> Result<StateId, AutomataError> {
                let column = self.copies * q + copy;
                if let Some(id) = self.index.get(p, column) {
                    return Ok(id);
                }
                self.guard.charge_state()?;
                let id = self.keys.len();
                self.index.set(p, column, id);
                self.keys.push((p, q, copy));
                // One copy: one side accepts everywhere, so this is the
                // other side's acceptance.
                self.accepting.push(
                    copy == 0
                        && self.left_accepting[p]
                        && (self.copies == 2 || self.right_accepting[q]),
                );
                Ok(id)
            }
        }
        let mut product = Product {
            index: PairTable::new(self.state_count(), copies * other.state_count()),
            copies,
            keys: Vec::new(),
            accepting: Vec::new(),
            left_accepting: &self.accepting,
            right_accepting: &other.accepting,
            guard,
        };
        let mut initial = BTreeSet::new();
        for &p in &self.initial {
            for &q in &other.initial {
                initial.insert(product.intern(p, q, 0)?);
            }
        }
        let mut edges: Vec<Vec<(Symbol, StateId)>> = Vec::new();
        let mut row = Vec::new();
        let mut id = 0;
        while let Some(&(p, q, copy)) = product.keys.get(id) {
            guard.note_frontier(product.keys.len() - id - 1);
            let copy2 = match copy {
                0 if copies == 2 && self.accepting[p] => 1,
                1 if other.accepting[q] => 0,
                c => c,
            };
            // Successors in `(symbol, left successor, right successor)`
            // order: the left row is sorted by symbol, and each symbol's
            // class is found in the right row by binary search.
            let (left, right) = (&self.edges[p], &other.edges[q]);
            let mut i = 0;
            while let Some(&(a, _)) = left.get(i) {
                let i_end = i + left[i..].partition_point(|&(b, _)| b == a);
                let c = class_of(a);
                let lo = right.partition_point(|&(d, _)| d < c);
                let hi = lo + right[lo..].partition_point(|&(d, _)| d == c);
                for &(_, p2) in &left[i..i_end] {
                    for &(_, q2) in &right[lo..hi] {
                        let nid = product.intern(p2, q2, copy2)?;
                        guard.charge_transition()?;
                        row.push((a, nid));
                    }
                }
                i = i_end;
            }
            row.sort_unstable();
            row.dedup();
            edges.push(row.clone());
            row.clear();
            id += 1;
        }
        Ok(Buchi::from_rows(
            self.alphabet.clone(),
            initial,
            product.accepting,
            edges,
        ))
    }

    /// Disjoint union: accepts `L(self) ∪ L(other)`.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::AlphabetMismatch`] when the alphabets differ.
    pub fn union(&self, other: &Buchi) -> Result<Buchi, AutomataError> {
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

    /// The NFA of finite prefixes `pre(L(self))` of accepted ω-words: the
    /// [`Buchi::prefix_graph_with`] graph in the alphabet-indexed layout.
    pub fn prefix_nfa(&self) -> Nfa {
        self.prefix_graph_with(&Guard::unlimited())
            .expect("an unlimited guard never trips")
            .to_nfa_structure()
    }

    /// The prefix graph of the language: the reduced automaton with every
    /// state accepting, or the empty automaton when `L(self) = ∅`.
    ///
    /// After reduction every remaining state lies on some accepting run, so
    /// every finite run prefix is the prefix of an accepted ω-word. Read as
    /// an NFA (through [`EdgeRows`]) the graph accepts exactly
    /// `pre(L(self))`. Read as a Büchi automaton it accepts
    /// `lim(pre(L(self)))`: by König's lemma an ω-word all of whose
    /// prefixes have runs in a finitely branching graph has an infinite
    /// run, and every state accepts.
    ///
    /// The reduction polls [`Guard::check_now`] every 64 visited states,
    /// like [`Buchi::accepted_upword_with`], and charges nothing.
    ///
    /// # Errors
    ///
    /// [`AutomataError::BudgetExceeded`] when the deadline passes and
    /// [`AutomataError::Cancelled`] when the guard's token is cancelled.
    pub fn prefix_graph_with(&self, guard: &Guard) -> Result<Buchi, AutomataError> {
        let mut reduced = self.reduce_with(&mut Poll::new(guard))?;
        // When the ω-language is empty there are no prefixes at all — not
        // even ε — so return an automaton of the empty language.
        if reduced.initial.is_empty() {
            return Ok(Buchi::new(reduced.alphabet));
        }
        reduced.accepting.fill(true);
        Ok(reduced)
    }

    /// A universal Büchi automaton accepting all of `Σ^ω`.
    pub fn universal(alphabet: Alphabet) -> Buchi {
        let mut b = Buchi::new(alphabet.clone());
        let q = b.add_state(true);
        b.set_initial(q);
        for a in alphabet.symbols() {
            b.add_transition(q, a, q);
        }
        b
    }

    /// Renders the automaton in Graphviz DOT syntax.
    pub fn to_dot(&self, name: &str) -> String {
        self.to_nfa_structure().to_dot(name)
    }
}

impl EdgeRows for Buchi {
    fn alphabet(&self) -> &Alphabet {
        Buchi::alphabet(self)
    }

    fn state_count(&self) -> usize {
        Buchi::state_count(self)
    }

    fn initial(&self) -> impl Iterator<Item = StateId> + '_ {
        self.initial.iter().copied()
    }

    fn is_accepting(&self, q: StateId) -> bool {
        self.accepting[q]
    }

    fn row(&self, q: StateId) -> impl Iterator<Item = (Symbol, StateId)> + '_ {
        self.edges[q].iter().copied()
    }

    fn successors_on(&self, q: StateId, symbol: Symbol) -> impl Iterator<Item = StateId> + '_ {
        Buchi::successors(self, q, symbol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab2() -> (Alphabet, Symbol, Symbol) {
        let ab = Alphabet::new(["a", "b"]).unwrap();
        (ab.clone(), ab.symbol("a").unwrap(), ab.symbol("b").unwrap())
    }

    /// "infinitely many a" over {a,b}.
    fn inf_a() -> Buchi {
        let (ab, a, b) = ab2();
        Buchi::from_parts(
            ab,
            2,
            [0],
            [1],
            [(0, b, 0), (0, a, 1), (1, a, 1), (1, b, 0)],
        )
        .unwrap()
    }

    /// "finitely many a" (eventually always b).
    fn fin_a() -> Buchi {
        let (ab, a, b) = ab2();
        Buchi::from_parts(
            ab,
            2,
            [0],
            [1],
            [(0, a, 0), (0, b, 0), (0, b, 1), (1, b, 1)],
        )
        .unwrap()
    }

    #[test]
    fn membership_basic() {
        let (_, a, b) = ab2();
        let m = inf_a();
        assert!(m.accepts_upword(&UpWord::periodic(vec![a]).unwrap()));
        assert!(m.accepts_upword(&UpWord::periodic(vec![a, b, b]).unwrap()));
        assert!(!m.accepts_upword(&UpWord::new(vec![a, a], vec![b]).unwrap()));
    }

    #[test]
    fn emptiness_and_witness() {
        let (ab, a, _) = ab2();
        let m = inf_a();
        assert!(!m.is_empty_language());
        let w = m.accepted_upword().unwrap();
        assert!(m.accepts_upword(&w));

        // An automaton whose accepting state is not on a cycle: empty.
        let dead = Buchi::from_parts(ab, 2, [0], [1], [(0, a, 1)]).unwrap();
        assert!(dead.is_empty_language());
        assert_eq!(dead.accepted_upword(), None);
    }

    #[test]
    fn intersection_of_inf_and_fin_is_empty() {
        let m = inf_a().intersection(&fin_a()).unwrap();
        assert!(m.is_empty_language());
    }

    #[test]
    fn intersection_agrees_with_memberships() {
        let (_, a, b) = ab2();
        // inf-a ∩ inf-b = words with infinitely many of both.
        let (ab, _, _) = ab2();
        let inf_b = Buchi::from_parts(
            ab,
            2,
            [0],
            [1],
            [(0, a, 0), (0, b, 1), (1, b, 1), (1, a, 0)],
        )
        .unwrap();
        let m = inf_a().intersection(&inf_b).unwrap();
        assert!(m.accepts_upword(&UpWord::periodic(vec![a, b]).unwrap()));
        assert!(!m.accepts_upword(&UpWord::periodic(vec![a]).unwrap()));
        assert!(!m.accepts_upword(&UpWord::periodic(vec![b]).unwrap()));
        assert!(m.accepts_upword(&UpWord::new(vec![b, b], vec![b, a]).unwrap()));
    }

    #[test]
    fn union_accepts_either() {
        let (_, a, b) = ab2();
        let m = inf_a().union(&fin_a()).unwrap();
        assert!(m.accepts_upword(&UpWord::periodic(vec![a]).unwrap()));
        assert!(m.accepts_upword(&UpWord::periodic(vec![b]).unwrap()));
        assert!(m.accepts_upword(&UpWord::periodic(vec![a, b]).unwrap()));
    }

    #[test]
    fn reduce_removes_dead_states() {
        let (ab, a, _) = ab2();
        // q0 -a-> q1(acc, self-loop), q0 -a-> q2 (dead end).
        let m = Buchi::from_parts(ab, 3, [0], [1], [(0, a, 1), (1, a, 1), (0, a, 2)]).unwrap();
        let r = m.reduce();
        assert_eq!(r.state_count(), 2);
        assert!(r.accepts_upword(&UpWord::periodic(vec![a]).unwrap()));
    }

    #[test]
    fn prefix_nfa_is_prefix_closed() {
        let (_, a, b) = ab2();
        let m = inf_a();
        let pre = m.prefix_nfa();
        assert!(pre.accepts(&[]));
        assert!(pre.accepts(&[b, b, a]));
        assert!(pre.is_prefix_closed());
        // For inf_a every finite word is a prefix.
        assert!(pre.accepts(&[a, a, b, b, a]));
    }

    #[test]
    fn prefix_nfa_of_empty_language_is_empty() {
        let (ab, a, _) = ab2();
        let dead = Buchi::from_parts(ab, 2, [0], [1], [(0, a, 1)]).unwrap();
        let pre = dead.prefix_nfa();
        assert!(pre.is_empty_language());
        assert!(!pre.accepts(&[]));
    }

    #[test]
    fn universal_accepts_everything() {
        let (ab, a, b) = ab2();
        let u = Buchi::universal(ab);
        assert!(u.accepts_upword(&UpWord::periodic(vec![a]).unwrap()));
        assert!(u.accepts_upword(&UpWord::new(vec![a, b, a], vec![b, b, a]).unwrap()));
    }

    #[test]
    fn cancelled_guard_stops_emptiness_and_prefix_reduction() {
        // A 100-state accepting ring: both searches visit more than the 64
        // states between two polls.
        let (ab, a, _) = ab2();
        let ring = Buchi::from_parts(
            ab,
            100,
            [0],
            0..100,
            (0..100).map(|q| (q, a, (q + 1) % 100)),
        )
        .unwrap();
        let token = rl_automata::CancelToken::new();
        token.cancel();
        let guard = Guard::with_cancel(rl_automata::Budget::unlimited(), token);
        assert!(matches!(
            ring.accepted_upword_with(&guard),
            Err(AutomataError::Cancelled(_))
        ));
        assert!(matches!(
            ring.prefix_graph_with(&guard),
            Err(AutomataError::Cancelled(_))
        ));
        // Polling charges nothing.
        assert_eq!(guard.progress().states, 0);
        assert!(ring
            .accepted_upword_with(&Guard::unlimited())
            .unwrap()
            .is_some());
    }

    #[test]
    fn nfa_structure_roundtrip() {
        let m = inf_a();
        let back = Buchi::from_nfa_structure(&m.to_nfa_structure());
        assert_eq!(m, back);
    }
}
