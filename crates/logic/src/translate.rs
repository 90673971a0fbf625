//! PLTL → Büchi translation (GPVW tableau construction).
//!
//! Implements Gerth–Peled–Vardi–Wolper on-the-fly node expansion into a
//! labeled generalized Büchi automaton, followed by counter-based
//! degeneralization. This is the `L_η` of Definition 3.2: given a formula and
//! a labeling `λ : Σ → 2^AP`, the resulting automaton accepts exactly
//! `{ x ∈ Σ^ω | x, λ ⊨ η }`.
//!
//! The translation goes through positive normal form, so all of the paper's
//! operators (including `B`) are supported; properties are *negated at the
//! formula level* when a complement automaton is needed, which keeps the
//! relative-liveness/safety deciders of `rl-core` out of exponential Büchi
//! complementation for formula-given properties.
//!
//! The tableau runs over the *interned closure* of the PNF formula: every
//! subformula gets a dense index, and a node's `new`, `old` and `next` sets
//! are word bitsets over those indices. Indices follow `Formula`'s `Ord`, so
//! "the lowest set bit of `new`" is the least formula of the set. Expanding
//! the least pending formula first fixes the expansion order, the node ids
//! and with them the numbering of every state of the result.

use rl_automata::{AutomataError, FxHashMap, Guard, Symbol};
use rl_buchi::{Buchi, GeneralizedBuchi};

use crate::ast::Formula;
use crate::labeling::Labeling;

/// Sentinel "incoming" id for initial tableau nodes.
const INIT: usize = usize::MAX;

/// Tableau expansions between two polls of the guard's deadline and cancel
/// token.
const POLL_INTERVAL: usize = 64;

/// Translates `formula` (any PLTL formula; converted to PNF internally) into
/// a Büchi automaton over `labeling.alphabet()` accepting exactly the words
/// satisfying it under `labeling`.
///
/// The returned automaton is reduced (every state lies on some accepting
/// run).
///
/// # Example
///
/// ```
/// use rl_automata::Alphabet;
/// use rl_buchi::UpWord;
/// use rl_logic::{formula_to_buchi, parse, Labeling};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ab = Alphabet::new(["req", "ack"])?;
/// let req = ab.symbol("req").unwrap();
/// let ack = ab.symbol("ack").unwrap();
/// let lam = Labeling::canonical(&ab);
/// let aut = formula_to_buchi(&parse("[](req -> X ack)")?, &lam);
/// assert!(aut.accepts_upword(&UpWord::periodic(vec![req, ack])?));
/// assert!(!aut.accepts_upword(&UpWord::periodic(vec![req, req, ack])?));
/// # Ok(())
/// # }
/// ```
pub fn formula_to_buchi(formula: &Formula, labeling: &Labeling) -> Buchi {
    formula_to_buchi_with(formula, labeling, &Guard::unlimited())
        .expect("an unlimited guard never trips")
}

/// [`formula_to_buchi`] that stops at `guard`'s deadline or cancellation.
///
/// The tableau is exponential in the size of the formula. Every 64
/// expansions it calls [`Guard::check_now`]. It charges no
/// states or transitions and makes no [`Guard::tick`], so a run that
/// finishes leaves the guard's counters as they were.
///
/// # Errors
///
/// [`AutomataError::BudgetExceeded`] when the deadline passes and
/// [`AutomataError::Cancelled`] when the guard's token is cancelled.
pub fn formula_to_buchi_with(
    formula: &Formula,
    labeling: &Labeling,
    guard: &Guard,
) -> Result<Buchi, AutomataError> {
    let pnf = formula.to_pnf();
    let closure = Closure::new(&pnf);
    let nodes = expand_graph(&closure, guard)?;
    let n = nodes.len();

    // Edge labels: a node admits symbol `a` when none of its literals is
    // false at `a`.
    let alphabet = labeling.alphabet();
    let symbols: Vec<Symbol> = alphabet.symbols().collect();
    let false_at: Vec<Vec<u64>> = symbols
        .iter()
        .map(|&a| closure.literals_false_at(a, labeling))
        .collect();
    let labels: Vec<Vec<Symbol>> = nodes
        .iter()
        .map(|node| {
            symbols
                .iter()
                .zip(&false_at)
                .filter(|(_, mask)| disjoint(&node.old, mask))
                .map(|(&a, _)| a)
                .collect()
        })
        .collect();

    // Assemble the labeled generalized Büchi automaton and degeneralize.
    let mut gba = GeneralizedBuchi::new(alphabet.clone());
    for _ in 0..n {
        gba.add_state();
    }
    for (r, node) in nodes.iter().enumerate() {
        for &q in &node.incoming {
            if q == INIT {
                gba.set_initial(r);
            } else {
                // Transition q --a--> r for symbols a satisfying old(q).
                for &a in &labels[q] {
                    gba.add_transition(q, a, r);
                }
            }
        }
    }
    // Generalized acceptance, one set per Until `x U y` of the closure:
    // F = {r | x U y ∉ old(r) ∨ y ∈ old(r)}. Without an Until every run
    // accepts.
    let untils: Vec<(usize, usize)> = (0..closure.ops.len())
        .filter_map(|u| match closure.ops[u] {
            Op::Until(_, y) => Some((u, y)),
            _ => None,
        })
        .collect();
    if untils.is_empty() {
        gba.add_acceptance_set(0..n)?;
    }
    for (u, y) in untils {
        gba.add_acceptance_set(
            (0..n).filter(|&r| !contains(&nodes[r].old, u) || contains(&nodes[r].old, y)),
        )?;
    }
    Ok(gba.degeneralize())
}

/// A member of the closure, with its operands given as closure indices.
#[derive(Debug, Clone, Copy)]
enum Op<'f> {
    True,
    False,
    /// `p` or `¬p`. `complement` indexes the opposite literal when the
    /// closure has it.
    Literal {
        atom: &'f str,
        positive: bool,
        complement: Option<usize>,
    },
    And(usize, usize),
    Or(usize, usize),
    Next(usize),
    Until(usize, usize),
    Release(usize, usize),
}

/// The closure of a PNF formula: each subformula once, indexed in
/// `Formula`'s `Ord` order.
struct Closure<'f> {
    ops: Vec<Op<'f>>,
    /// The index of the whole formula.
    root: usize,
    /// Words per bitset over the closure.
    words: usize,
}

impl<'f> Closure<'f> {
    fn new(pnf: &'f Formula) -> Closure<'f> {
        fn collect<'f>(f: &'f Formula, into: &mut Vec<&'f Formula>) {
            into.push(f);
            match f {
                Formula::Not(x) | Formula::Next(x) => collect(x, into),
                Formula::And(x, y)
                | Formula::Or(x, y)
                | Formula::Until(x, y)
                | Formula::Release(x, y) => {
                    collect(x, into);
                    collect(y, into);
                }
                _ => {}
            }
        }
        let mut members = Vec::new();
        collect(pnf, &mut members);
        members.sort_unstable();
        members.dedup();
        let index = |f: &Formula| members.binary_search(&f).ok();
        let at = |f: &Formula| index(f).expect("operands are in the closure");
        let ops = members
            .iter()
            .map(|&f| match f {
                Formula::True => Op::True,
                Formula::False => Op::False,
                Formula::Atom(p) => Op::Literal {
                    atom: p,
                    positive: true,
                    complement: index(&f.clone().not()),
                },
                Formula::Not(x) => match &**x {
                    Formula::Atom(p) => Op::Literal {
                        atom: p,
                        positive: false,
                        complement: Some(at(x)),
                    },
                    _ => unreachable!("PNF negates atoms only"),
                },
                Formula::And(x, y) => Op::And(at(x), at(y)),
                Formula::Or(x, y) => Op::Or(at(x), at(y)),
                Formula::Next(x) => Op::Next(at(x)),
                Formula::Until(x, y) => Op::Until(at(x), at(y)),
                Formula::Release(x, y) => Op::Release(at(x), at(y)),
                Formula::Implies(..)
                | Formula::Iff(..)
                | Formula::Before(..)
                | Formula::WeakUntil(..)
                | Formula::Eventually(..)
                | Formula::Always(..) => {
                    unreachable!("the tableau requires positive normal form input")
                }
            })
            .collect::<Vec<_>>();
        Closure {
            root: at(pnf),
            words: ops.len().div_ceil(64),
            ops,
        }
    }

    /// The literals of the closure that are false at symbol `a`.
    fn literals_false_at(&self, a: Symbol, labeling: &Labeling) -> Vec<u64> {
        let mut mask = vec![0; self.words];
        for (i, op) in self.ops.iter().enumerate() {
            if let Op::Literal { atom, positive, .. } = *op {
                if labeling.satisfies(a, atom) != positive {
                    mask[i / 64] |= 1 << (i % 64);
                }
            }
        }
        mask
    }
}

fn contains(set: &[u64], i: usize) -> bool {
    set[i / 64] >> (i % 64) & 1 == 1
}

fn disjoint(x: &[u64], y: &[u64]) -> bool {
    x.iter().zip(y).all(|(a, b)| a & b == 0)
}

/// Offsets of a node's three sets in [`Node::sets`].
const NEW: usize = 0;
const OLD: usize = 1;
const NEXT: usize = 2;

/// A tableau node under expansion.
#[derive(Debug, Clone)]
struct Node {
    id: usize,
    /// The node this one was seeded from, or [`INIT`].
    incoming: usize,
    /// The `new`, `old` and `next` bitsets, back to back.
    sets: Vec<u64>,
}

impl Node {
    fn seed(id: usize, incoming: usize, words: usize, new: &[u64]) -> Node {
        let mut sets = vec![0; 3 * words];
        sets[..words].copy_from_slice(new);
        Node { id, incoming, sets }
    }

    fn set(&self, which: usize) -> &[u64] {
        let words = self.sets.len() / 3;
        &self.sets[which * words..(which + 1) * words]
    }

    fn insert(&mut self, which: usize, i: usize) {
        let words = self.sets.len() / 3;
        self.sets[which * words + i / 64] |= 1 << (i % 64);
    }

    /// Schedules `i` for expansion unless it is already in `old`.
    fn demand(&mut self, i: usize) {
        if !contains(self.set(OLD), i) {
            self.insert(NEW, i);
        }
    }

    /// Removes and returns the least formula of `new`.
    fn pop_new(&mut self) -> Option<usize> {
        let words = self.sets.len() / 3;
        self.sets[..words]
            .iter_mut()
            .enumerate()
            .find(|(_, w)| **w != 0)
            .map(|(k, w)| {
                let bit = w.trailing_zeros() as usize;
                *w &= *w - 1;
                k * 64 + bit
            })
    }

    /// `old` followed by `next`: completed nodes with equal keys merge.
    fn key(&self) -> &[u64] {
        &self.sets[self.sets.len() / 3..]
    }
}

/// A fully expanded tableau node: a state of the generalized automaton.
struct State {
    id: usize,
    /// Predecessor states, ascending, with [`INIT`] last.
    incoming: Vec<usize>,
    old: Vec<u64>,
}

/// GPVW node expansion. Returns the completed nodes in id order, with
/// `incoming` renumbered to positions in that order.
fn expand_graph(closure: &Closure<'_>, guard: &Guard) -> Result<Vec<State>, AutomataError> {
    let words = closure.words;
    let mut completed: Vec<State> = Vec::new();
    let mut by_key: FxHashMap<Vec<u64>, usize> = FxHashMap::default();
    let mut fresh = 0usize;
    let mut next_id = || {
        fresh += 1;
        fresh - 1
    };

    let mut root = vec![0; words];
    root[closure.root / 64] |= 1 << (closure.root % 64);
    let mut stack = vec![Node::seed(next_id(), INIT, words, &root)];
    let mut expansions = 0usize;

    while let Some(mut node) = stack.pop() {
        expansions += 1;
        if expansions.is_multiple_of(POLL_INTERVAL) {
            guard.check_now()?;
        }
        let Some(eta) = node.pop_new() else {
            // Fully expanded: merge or store, then spawn the successor seed.
            if let Some(&at) = by_key.get(node.key()) {
                completed[at].incoming.push(node.incoming);
                continue;
            }
            by_key.insert(node.key().to_vec(), completed.len());
            completed.push(State {
                id: node.id,
                incoming: vec![node.incoming],
                old: node.set(OLD).to_vec(),
            });
            stack.push(Node::seed(next_id(), node.id, words, node.set(NEXT)));
            continue;
        };
        match closure.ops[eta] {
            Op::True => {
                // Keep `true` in old: the acceptance sets test the rhs of a
                // fulfilled until by membership in `old`, and `… U true`
                // must count as fulfilled.
                node.insert(OLD, eta);
                stack.push(node);
            }
            Op::False => {
                // Contradiction: discard this node.
            }
            Op::Literal { complement, .. } => {
                // Inconsistent with a literal already in old: discard.
                if !complement.is_some_and(|c| contains(node.set(OLD), c)) {
                    node.insert(OLD, eta);
                    stack.push(node);
                }
            }
            Op::And(x, y) => {
                node.demand(x);
                node.demand(y);
                node.insert(OLD, eta);
                stack.push(node);
            }
            Op::Next(x) => {
                node.insert(OLD, eta);
                node.insert(NEXT, x);
                stack.push(node);
            }
            Op::Or(x, y) => {
                node.insert(OLD, eta);
                let mut right = node.clone();
                right.id = next_id();
                node.demand(x);
                right.demand(y);
                stack.push(node);
                stack.push(right);
            }
            Op::Until(x, y) => {
                // η = x U y: either y now, or x now and η next.
                node.insert(OLD, eta);
                let mut done = node.clone();
                done.id = next_id();
                node.demand(x);
                node.insert(NEXT, eta);
                done.demand(y);
                stack.push(node);
                stack.push(done);
            }
            Op::Release(x, y) => {
                // η = x R y: y now, and (x now or η next).
                node.insert(OLD, eta);
                let mut stop = node.clone();
                stop.id = next_id();
                node.demand(y);
                node.insert(NEXT, eta);
                stop.demand(x);
                stop.demand(y);
                stack.push(node);
                stack.push(stop);
            }
        }
    }

    completed.sort_unstable_by_key(|node| node.id);
    let mut position = vec![INIT; fresh];
    for (at, node) in completed.iter().enumerate() {
        position[node.id] = at;
    }
    for node in &mut completed {
        for q in &mut node.incoming {
            if *q != INIT {
                *q = position[*q];
            }
        }
        node.incoming.sort_unstable();
        node.incoming.dedup();
    }
    Ok(completed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::parser::parse;
    use rl_automata::Alphabet;
    use rl_buchi::UpWord;

    fn setup() -> (Labeling, rl_automata::Symbol, rl_automata::Symbol) {
        let ab = Alphabet::new(["a", "b"]).unwrap();
        let lam = Labeling::canonical(&ab);
        let a = ab.symbol("a").unwrap();
        let b = ab.symbol("b").unwrap();
        (lam, a, b)
    }

    fn sample_words(a: rl_automata::Symbol, b: rl_automata::Symbol) -> Vec<UpWord> {
        vec![
            UpWord::periodic(vec![a]).unwrap(),
            UpWord::periodic(vec![b]).unwrap(),
            UpWord::periodic(vec![a, b]).unwrap(),
            UpWord::periodic(vec![b, a]).unwrap(),
            UpWord::new(vec![a], vec![b]).unwrap(),
            UpWord::new(vec![b], vec![a]).unwrap(),
            UpWord::new(vec![a, a, b], vec![b, a]).unwrap(),
            UpWord::new(vec![b, b], vec![a, a, b]).unwrap(),
        ]
    }

    #[test]
    fn translation_agrees_with_direct_evaluation() {
        let (lam, a, b) = setup();
        let formulas = [
            "a",
            "!a",
            "X b",
            "a U b",
            "a R b",
            "[]<>a",
            "<>[]b",
            "[](a -> X b)",
            "a B b",
            "(a U b) & []<>a",
            "X X a | []b",
            "true U (a & X a)",
            "false",
            "true",
            "[](a <-> !b)",
        ];
        for text in formulas {
            let f = parse(text).unwrap();
            let aut = formula_to_buchi(&f, &lam);
            for w in sample_words(a, b) {
                assert_eq!(
                    aut.accepts_upword(&w),
                    evaluate(&f, &w, &lam),
                    "formula {text}, word {w}"
                );
            }
        }
    }

    #[test]
    fn box_diamond_automaton_shape() {
        let (lam, a, b) = setup();
        let aut = formula_to_buchi(&parse("[]<>a").unwrap(), &lam);
        assert!(aut.accepts_upword(&UpWord::periodic(vec![a, b, b]).unwrap()));
        assert!(!aut.accepts_upword(&UpWord::new(vec![a, a], vec![b]).unwrap()));
    }

    #[test]
    fn unsatisfiable_formula_yields_empty_automaton() {
        let (lam, _, _) = setup();
        let aut = formula_to_buchi(&parse("a & !a").unwrap(), &lam);
        assert!(aut.is_empty_language());
        let aut2 = formula_to_buchi(&parse("<>(a & !a)").unwrap(), &lam);
        assert!(aut2.is_empty_language());
    }

    #[test]
    fn valid_formula_is_universal() {
        let (lam, a, b) = setup();
        let aut = formula_to_buchi(&parse("a | !a").unwrap(), &lam);
        for w in sample_words(a, b) {
            assert!(aut.accepts_upword(&w), "word {w}");
        }
    }

    #[test]
    fn negation_gives_complement_on_samples() {
        let (lam, a, b) = setup();
        for text in ["[]<>a", "a U b", "X a", "a R (b | X a)"] {
            let f = parse(text).unwrap();
            let aut = formula_to_buchi(&f, &lam);
            let neg = formula_to_buchi(&f.clone().not(), &lam);
            for w in sample_words(a, b) {
                assert_ne!(
                    aut.accepts_upword(&w),
                    neg.accepts_upword(&w),
                    "formula {text}, word {w}"
                );
            }
        }
    }

    /// `X^k a`: a closure of `k + 1` formulas.
    fn next_power(k: usize) -> Formula {
        (0..k).fold(Formula::atom("a"), |f, _| f.next())
    }

    #[test]
    fn closures_wider_than_one_word_translate_exactly() {
        let (lam, a, b) = setup();
        // Literals sort first in the closure, so 70 distinct atoms put
        // literals in the second word; 70 nested nexts put an Until there.
        let atoms = |negate: bool| {
            (0..70).map(move |i| {
                let p = Formula::atom(format!("p{i}"));
                if negate {
                    p.not()
                } else {
                    p
                }
            })
        };
        let any_p = atoms(false).fold(Formula::atom("a"), Formula::or);
        let no_p = atoms(true).fold(Formula::atom("b").eventually(), Formula::and);
        let formulas = [
            next_power(70),
            Formula::atom("b").until(next_power(70)),
            (0..66).fold(Formula::atom("a").until(Formula::atom("b")), |f, _| {
                f.next()
            }),
            any_p.eventually().always(),
            no_p.always(),
        ];
        let mut words = sample_words(a, b);
        for k in [69, 70, 71] {
            words.push(UpWord::new(vec![b; k], vec![a]).unwrap());
            words.push(UpWord::new(vec![a; k], vec![b]).unwrap());
        }
        for f in &formulas {
            let aut = formula_to_buchi(f, &lam);
            let neg = formula_to_buchi(&f.clone().not(), &lam);
            for w in &words {
                let holds = evaluate(f, w, &lam);
                assert_eq!(aut.accepts_upword(w), holds, "formula {f}, word {w}");
                assert_eq!(neg.accepts_upword(w), !holds, "formula !({f}), word {w}");
            }
        }
    }

    #[test]
    fn translation_stops_when_the_guard_trips() {
        use rl_automata::{Budget, CancelToken, Metric, MetricsRegistry};
        let (lam, _, _) = setup();
        let f = next_power(200);
        let token = CancelToken::new();
        token.cancel();
        let cancelled = Guard::with_cancel(Budget::unlimited(), token);
        assert!(matches!(
            formula_to_buchi_with(&f, &lam, &cancelled),
            Err(AutomataError::Cancelled(_))
        ));
        let expired = Guard::new(Budget::unlimited().with_deadline(std::time::Duration::ZERO));
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(matches!(
            formula_to_buchi_with(&f, &lam, &expired),
            Err(AutomataError::BudgetExceeded { .. })
        ));
        // A run that finishes charges nothing and makes no guard tick.
        let metrics = MetricsRegistry::new();
        let guard = Guard::unlimited().with_metrics(metrics.clone());
        assert!(formula_to_buchi_with(&f, &lam, &guard).is_ok());
        let progress = guard.progress();
        assert_eq!((progress.states, progress.transitions), (0, 0));
        assert_eq!(metrics.total(Metric::GuardCharges), 0);
    }
}
