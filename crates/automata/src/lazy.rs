//! On-the-fly language inclusion with antichain subsumption.
//!
//! The materializing pipeline decides `L(A) ⊆ L(B)` by determinizing both
//! automata, building the difference product, and searching it for an
//! accepted word — paying for every macro-state of `B`'s subset
//! construction whether or not a counterexample search would ever visit it.
//! This module fuses the three stages into one breadth-first search over
//! *(state of `A`, macro-state of `B`)* pairs generated on demand:
//!
//! * **On-the-fly product** — a node `(q, S)` means some run of `A` on the
//!   current word `w` ends in `q` while `S = δ_B(initials, w)` is the full
//!   set of `B` states reachable on `w`. Successors are computed from the
//!   transition tables directly; no automaton is ever constructed.
//! * **Counterexample check** — `w ∈ L(A) \ L(B)` exactly when `q` is
//!   accepting and `S` contains no accepting state, so each node is tested
//!   as it is generated and the search stops at the *first* hit (BFS layer
//!   order makes it a shortest one). The word is reconstructed from parent
//!   pointers into the existing witness format.
//! * **Antichain subsumption** — counterexamples reachable from `(q, S′)`
//!   are a subset of those reachable from `(q, S)` whenever `S ⊆ S′`
//!   (smaller macro-states accept fewer words), so a candidate whose
//!   macro-state is a superset of one already admitted on the same `A`
//!   state is dropped. Per `A` state only the minimal macro-states are kept
//!   ([`StateSet::is_subset`] tests); on hard inputs this collapses an
//!   exponential frontier to a handful of nodes.
//!
//! The search runs one BFS layer at a time on the calling thread. Between
//! layers it drops nodes that a later admission dominated while they
//! waited (*retro-pruning*); within a layer every node is expanded in FIFO
//! order, so verdicts, charge sequences, and the `lazy/*` counters are
//! deterministic.
//!
//! The search reads its operands through [`EdgeRows`]: each state's
//! transitions as `(symbol, successor)` pairs sorted by symbol, then
//! successor. An expanded node visits only the letters its `A` state
//! enables, so on Büchi edge lists a step costs O(transitions) however
//! large the alphabet; an [`Nfa`] walks its alphabet-indexed rows in the
//! same order and gives the same search.

use std::collections::BTreeSet;

use crate::error::AutomataError;
use crate::guard::Guard;
use crate::nfa::Nfa;
use crate::stateset::{FxHashMap, StateSet};
use crate::word::Word;
use crate::{StateId, Symbol};

/// An automaton over finite words as the lazy search reads it: dense
/// states, initial and accepting sets, and per state the outgoing
/// transitions in `(symbol, successor)` order.
///
/// [`Nfa`] implements it over its alphabet-indexed rows, and `rl-buchi`'s
/// `Buchi` over its edge lists (read as an NFA: a finite word is accepted
/// when some run on it ends in an accepting state).
pub trait EdgeRows {
    /// Number of states.
    fn state_count(&self) -> usize;
    /// The initial states.
    fn initial(&self) -> &BTreeSet<StateId>;
    /// Whether `q` accepts.
    fn is_accepting(&self, q: StateId) -> bool;
    /// The transitions leaving `q`, sorted by symbol, then successor, with
    /// no duplicates.
    fn row(&self, q: StateId) -> impl Iterator<Item = (Symbol, StateId)> + '_;
    /// The successors of `q` on `symbol`, ascending.
    fn successors_on(&self, q: StateId, symbol: Symbol) -> impl Iterator<Item = StateId> + '_;
}

impl EdgeRows for Nfa {
    fn state_count(&self) -> usize {
        Nfa::state_count(self)
    }

    fn initial(&self) -> &BTreeSet<StateId> {
        Nfa::initial(self)
    }

    fn is_accepting(&self, q: StateId) -> bool {
        Nfa::is_accepting(self, q)
    }

    fn row(&self, q: StateId) -> impl Iterator<Item = (Symbol, StateId)> + '_ {
        self.alphabet()
            .symbols()
            .flat_map(move |a| self.successor_slice(q, a).iter().map(move |&to| (a, to)))
    }

    fn successors_on(&self, q: StateId, symbol: Symbol) -> impl Iterator<Item = StateId> + '_ {
        self.successor_slice(q, symbol).iter().copied()
    }
}

/// One frontier node: a single `A` state paired with the `B` macro-state
/// reached on the same word, plus the edge that discovered it (for witness
/// reconstruction).
struct Node {
    left: StateId,
    right: StateSet,
    parent: Option<(usize, Symbol)>,
    /// Set when a later-admitted node dominated this one while it was still
    /// waiting in the next layer; dead nodes are dropped before expansion.
    dead: bool,
}

struct Search<'x, A: ?Sized, B: ?Sized> {
    a: &'x A,
    b: &'x B,
    guard: &'x Guard,
    nodes: Vec<Node>,
    /// Per `A` state, the minimal (antichain) macro-states admitted so far,
    /// each tagged with the node that owns it (so displacing an entry can
    /// mark the owner dead).
    antichain: FxHashMap<StateId, Vec<(StateSet, usize)>>,
}

impl<A: EdgeRows + ?Sized, B: EdgeRows + ?Sized> Search<'_, A, B> {
    fn count(&self, name: &'static str) {
        if let Some(m) = self.guard.metrics() {
            m.counter(name).inc();
        }
    }

    /// The word spelled by the parent chain ending at `parent`.
    fn witness(&self, mut parent: Option<(usize, Symbol)>) -> Word {
        let mut w = Vec::new();
        while let Some((pi, sym)) = parent {
            w.push(sym);
            parent = self.nodes[pi].parent;
        }
        w.reverse();
        w
    }

    /// Tests a candidate node and either reports it as a counterexample,
    /// drops it as subsumed, or admits it into `next_layer`.
    fn admit(
        &mut self,
        left: StateId,
        right: &StateSet,
        parent: Option<(usize, Symbol)>,
        next_layer: &mut Vec<usize>,
    ) -> Result<Option<Word>, AutomataError> {
        if self.a.is_accepting(left) && !right.iter().any(|q| self.b.is_accepting(q)) {
            self.count("lazy/early_exit");
            return Ok(Some(self.witness(parent)));
        }
        let chain = self.antichain.entry(left).or_default();
        if chain.iter().any(|(t, _)| t.is_subset(right)) {
            self.count("lazy/subsumed");
            return Ok(None);
        }
        // Keep the antichain minimal, and *retro-prune*: a displaced entry's
        // owner node is marked dead, so if it is still waiting in the next
        // layer it is dropped before expansion. This matters when admission
        // order works against the search (symbol order can deliver every
        // superset before the minimal macro-state that dominates them);
        // without it the frontier degenerates to the full subset
        // construction.
        let id = self.nodes.len();
        let mut displaced = Vec::new();
        chain.retain(|(t, owner)| {
            let drop = right.is_subset(t);
            if drop {
                displaced.push(*owner);
            }
            !drop
        });
        chain.push((right.clone(), id));
        for owner in displaced {
            self.nodes[owner].dead = true;
        }
        self.guard.charge_state()?;
        self.nodes.push(Node {
            left,
            right: right.clone(),
            parent,
            dead: false,
        });
        next_layer.push(id);
        Ok(None)
    }
}

/// Decides `L(a) ⊆ L(b)` by lazy antichain search; on failure returns a
/// shortest witness word in `L(a) \ L(b)`.
///
/// Both operands are read as automata over finite words through
/// [`EdgeRows`], so either may be an [`Nfa`] or a Büchi edge-list graph.
/// Successor candidates are generated in the `A` state's row order —
/// symbols ascending, then successors ascending — so both layouts of the
/// same automaton admit, charge and count identically.
///
/// Semantically equivalent to determinizing both automata and running
/// [`crate::dfa_included_with`], but only ever expands (state, macro-state)
/// pairs the counterexample search actually reaches, prunes
/// subset-dominated frontier nodes, and exits on the first hit. Expanded
/// pairs are charged as states and generated candidates as transitions
/// against the guard; with a metrics registry attached the search reports
/// `lazy/expanded`, `lazy/subsumed`, and `lazy/early_exit` counters plus
/// per-layer `lazy-layer`/`lazy-prune` trace instants.
///
/// Note the witness is a shortest word of `L(a) \ L(b)`, like the eager
/// path's, but among equal-length witnesses the tie-break may differ from
/// the difference-product search.
///
/// # Errors
///
/// [`AutomataError::BudgetExceeded`] or [`AutomataError::Cancelled`] when
/// the guard trips.
pub fn nfa_included_lazy<A, B>(a: &A, b: &B, guard: &Guard) -> Result<Option<Word>, AutomataError>
where
    A: EdgeRows + ?Sized,
    B: EdgeRows + ?Sized,
{
    let _span = guard.span("lazy_inclusion");
    let mut search = Search {
        a,
        b,
        guard,
        nodes: Vec::new(),
        antichain: FxHashMap::default(),
    };

    let s0: StateSet = b.initial().iter().copied().collect();
    let mut layer: Vec<usize> = Vec::new();
    for &q in a.initial() {
        if let Some(w) = search.admit(q, &s0, None, &mut layer)? {
            return Ok(Some(w));
        }
    }

    let mut next = StateSet::with_universe(b.state_count());
    let mut subsumed_before = 0u64;
    loop {
        // Retro-prune: drop nodes that a later admission dominated while
        // they waited in this layer. They were never expanded, so skipping
        // them loses no counterexamples — any word escaping from a dominated
        // node also escapes from its (same-or-earlier-layer) dominator.
        // Nodes displaced mid-layer are still expanded: the flag is only
        // read here, at the layer boundary.
        let admitted = layer.len();
        layer.retain(|&ni| !search.nodes[ni].dead);
        for _ in layer.len()..admitted {
            search.count("lazy/subsumed");
        }
        if layer.is_empty() {
            break;
        }
        guard.trace_instant("lazy-layer", Some(("width", layer.len() as u64)));
        let m = layer.len();
        let mut next_layer: Vec<usize> = Vec::new();
        for (li, &ni) in layer.iter().enumerate() {
            guard.note_frontier((m - 1 - li) + next_layer.len());
            search.count("lazy/expanded");
            let left = search.nodes[ni].left;
            // The row groups `left`'s transitions by symbol: the macro-state
            // successor is computed once per letter, on its first target.
            let mut letter = None;
            for (sym, q2) in a.row(left) {
                if letter != Some(sym) {
                    letter = Some(sym);
                    next.clear();
                    for q in search.nodes[ni].right.iter() {
                        for q3 in b.successors_on(q, sym) {
                            next.insert(q3);
                        }
                    }
                }
                guard.charge_transition()?;
                if let Some(w) = search.admit(q2, &next, Some((ni, sym)), &mut next_layer)? {
                    return Ok(Some(w));
                }
            }
        }
        let subsumed_now = search
            .guard
            .metrics()
            .map_or(0, |m| m.counter("lazy/subsumed").get());
        if subsumed_now > subsumed_before {
            guard.trace_instant(
                "lazy-prune",
                Some(("count", subsumed_now - subsumed_before)),
            );
            subsumed_before = subsumed_now;
        }
        layer = next_layer;
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Alphabet, Nfa};

    fn ab2() -> (Alphabet, Symbol, Symbol) {
        let ab = Alphabet::new(["a", "b"]).unwrap();
        (ab.clone(), ab.symbol("a").unwrap(), ab.symbol("b").unwrap())
    }

    /// The eager reference: determinize both sides and difference them.
    fn eager(a: &Nfa, b: &Nfa) -> Option<Word> {
        crate::dfa_included(&a.determinize(), &b.determinize())
    }

    #[test]
    fn agrees_with_eager_on_small_machines() {
        let (ab, a, b) = ab2();
        let univ = Nfa::from_parts(ab.clone(), 1, [0], [0], [(0, a, 0), (0, b, 0)]).unwrap();
        let no_bb = Nfa::from_parts(
            ab.clone(),
            2,
            [0],
            [0, 1],
            [(0, a, 0), (0, b, 1), (1, a, 0)],
        )
        .unwrap();
        let g = Guard::unlimited();
        assert_eq!(nfa_included_lazy(&no_bb, &univ, &g).unwrap(), None);
        // Both searches find a shortest witness; `bb` is the unique one.
        assert_eq!(
            nfa_included_lazy(&univ, &no_bb, &g).unwrap(),
            Some(vec![b, b])
        );
        assert_eq!(eager(&univ, &no_bb), Some(vec![b, b]));
    }

    #[test]
    fn empty_left_language_is_always_included() {
        let (ab, a, _) = ab2();
        let empty = Nfa::new(ab.clone());
        let l1 = Nfa::from_parts(ab, 2, [0], [1], [(0, a, 1)]).unwrap();
        let g = Guard::unlimited();
        assert_eq!(nfa_included_lazy(&empty, &l1, &g).unwrap(), None);
        // The reverse fails on the shortest word of L1.
        assert_eq!(nfa_included_lazy(&l1, &empty, &g).unwrap(), Some(vec![a]));
    }

    #[test]
    fn epsilon_witness_when_right_is_empty() {
        let (ab, a, _) = ab2();
        // L(a*) with all states accepting vs the empty language: ε escapes.
        let l = Nfa::from_parts(ab.clone(), 1, [0], [0], [(0, a, 0)]).unwrap();
        let none = Nfa::new(ab);
        let g = Guard::unlimited();
        assert_eq!(nfa_included_lazy(&l, &none, &g).unwrap(), Some(vec![]));
    }

    #[test]
    fn budget_trips_deterministically() {
        let (ab, a, b) = ab2();
        // Included languages, so the search must explore (no early exit).
        let l = Nfa::from_parts(
            ab.clone(),
            3,
            [0],
            [0, 1, 2],
            [(0, a, 1), (1, b, 2), (2, a, 0), (0, b, 0)],
        )
        .unwrap();
        let univ = Nfa::from_parts(ab, 1, [0], [0], [(0, a, 0), (0, b, 0)]).unwrap();
        let budget = crate::Budget::unlimited().with_max_states(1);
        let g1 = Guard::new(budget.clone());
        let g2 = Guard::new(budget);
        let e1 = format!("{}", nfa_included_lazy(&l, &univ, &g1).unwrap_err());
        let e2 = format!("{}", nfa_included_lazy(&l, &univ, &g2).unwrap_err());
        // Identical trip points up to the (wall-clock) elapsed suffix.
        assert_eq!(e1.split(" in ").next(), e2.split(" in ").next());
    }

    #[test]
    fn subsumption_prunes_dominated_macrostates() {
        let (ab, a, b) = ab2();
        // A: universal over {a,b} (one all-accepting state). B: after any
        // `a` the macro-state grows; the all-b macro-state stays minimal and
        // subsumes every superset on the shared A state.
        let univ = Nfa::from_parts(ab.clone(), 1, [0], [0], [(0, a, 0), (0, b, 0)]).unwrap();
        let big = Nfa::from_parts(
            ab,
            3,
            [0],
            [0, 1, 2],
            [
                (0, a, 0),
                (0, b, 0),
                (0, a, 1),
                (1, a, 2),
                (1, b, 2),
                (2, a, 2),
                (2, b, 2),
            ],
        )
        .unwrap();
        let reg = rl_obs::MetricsRegistry::new();
        let g = Guard::unlimited().with_metrics(reg.clone());
        assert_eq!(nfa_included_lazy(&univ, &big, &g).unwrap(), None);
        assert!(reg.counter("lazy/subsumed").get() > 0);
        assert!(reg.counter("lazy/expanded").get() > 0);
        assert_eq!(reg.counter("lazy/early_exit").get(), 0);
    }
}
