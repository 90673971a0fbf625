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
//! and with them the numbering of every state of the result. The closure is
//! built with every subformula shared, so it stays linear in the formula
//! where the PNF tree is exponential (nested `⇔`).
//!
//! Edges are labelled with letter classes, one per set of the formula's
//! atoms that some letter satisfies ([`formula_to_classes_with`]); the
//! per-letter automaton is their expansion.

use std::cmp::Ordering;

use rl_automata::{AutomataError, FxHashMap, Guard, Symbol};
use rl_buchi::{Buchi, ClassBuchi, GeneralizedBuchi};

use crate::ast::{Formula, PnfBuilder};
use crate::labeling::{Labeling, LetterClasses};

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
    Ok(formula_to_classes_with(formula, labeling, guard)?.to_letters())
}

/// [`formula_to_buchi_with`] over letter classes: the automaton's edges
/// carry classes of letters that satisfy the same atoms of `formula` under
/// `labeling`, so its size does not grow with the alphabet. Its
/// [`ClassBuchi::to_letters`] is [`formula_to_buchi_with`]'s result, state
/// for state.
///
/// # Errors
///
/// As [`formula_to_buchi_with`].
pub fn formula_to_classes_with(
    formula: &Formula,
    labeling: &Labeling,
    guard: &Guard,
) -> Result<ClassBuchi, AutomataError> {
    let closure = Closure::new(formula);
    let nodes = expand_graph(&closure, guard)?;
    let n = nodes.len();

    // Edge labels: a node admits a class when none of its literals is
    // false there.
    let classes = labeling.classes(&closure.atoms);
    let false_in: Vec<Vec<u64>> = (0..classes.count)
        .map(|c| closure.literals_false_in(c, &classes))
        .collect();
    let labels: Vec<Vec<Symbol>> = nodes
        .iter()
        .map(|node| {
            (0..classes.count)
                .filter(|&c| disjoint(&node.old, &false_in[c]))
                .map(Symbol::from_index)
                .collect()
        })
        .collect();

    // Assemble the generalized Büchi automaton over class ids and
    // degeneralize.
    let mut gba = GeneralizedBuchi::new(labeling.alphabet().clone());
    for _ in 0..n {
        gba.add_state();
    }
    for (r, node) in nodes.iter().enumerate() {
        for &q in &node.incoming {
            if q == INIT {
                gba.set_initial(r);
            } else {
                // Transition q --c--> r for classes c satisfying old(q).
                for &c in &labels[q] {
                    gba.add_transition(q, c, r);
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
    Ok(ClassBuchi::new(gba.degeneralize(), classes.class_of))
}

/// A member of the closure, with its operands given as closure indices.
#[derive(Debug, Clone, Copy)]
enum Op {
    True,
    False,
    /// `p` or `¬p`, with `p` an index into [`Closure::atoms`].
    /// `complement` indexes the opposite literal when the closure has it.
    Literal {
        atom: usize,
        positive: bool,
        complement: Option<usize>,
    },
    And(usize, usize),
    Or(usize, usize),
    Next(usize),
    Until(usize, usize),
    Release(usize, usize),
}

/// The closure of a formula's positive normal form: each subformula once,
/// indexed in `Formula`'s `Ord` order.
struct Closure<'f> {
    ops: Vec<Op>,
    /// The atoms of the literals, in closure order.
    atoms: Vec<&'f str>,
    /// The index of the whole formula.
    root: usize,
    /// Words per bitset over the closure.
    words: usize,
}

/// A PNF node under construction, with its operands as [`Shared`] ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Shape<'f> {
    Constant(bool),
    Literal(&'f str, bool),
    And(usize, usize),
    Or(usize, usize),
    Next(usize),
    Until(usize, usize),
    Release(usize, usize),
}

impl Shape<'_> {
    /// The position of the node's `Formula` variant in the enum, which
    /// `Formula`'s derived `Ord` compares first.
    fn variant(self) -> u8 {
        match self {
            Shape::Constant(true) => 0,
            Shape::Constant(false) => 1,
            Shape::Literal(_, true) => 2,
            Shape::Literal(_, false) => 3,
            Shape::And(..) => 4,
            Shape::Or(..) => 5,
            Shape::Next(_) => 8,
            Shape::Until(..) => 9,
            Shape::Release(..) => 10,
        }
    }
}

/// Builds PNF with every distinct subformula once: a subformula and its
/// polarity are converted once, and equal nodes get one id. The closure is
/// then linear in the formula, even where the PNF tree is exponential
/// (each `⇔` copies both polarities of both sides).
#[derive(Default)]
struct Shared<'f> {
    nodes: Vec<Shape<'f>>,
    ids: FxHashMap<Shape<'f>, usize>,
    converted: FxHashMap<(*const Formula, bool), usize>,
}

impl<'f> Shared<'f> {
    fn node(&mut self, shape: Shape<'f>) -> usize {
        let fresh = self.nodes.len();
        let id = *self.ids.entry(shape).or_insert(fresh);
        if id == fresh {
            self.nodes.push(shape);
        }
        id
    }

    /// `Formula`'s derived `Ord` on two nodes. Equal subformulas share an
    /// id, so at most one pair of operands differs and is compared further:
    /// the cost is the height of the formula.
    fn cmp(&self, x: usize, y: usize) -> Ordering {
        if x == y {
            return Ordering::Equal;
        }
        let (a, b) = (self.nodes[x], self.nodes[y]);
        a.variant().cmp(&b.variant()).then_with(|| match (a, b) {
            (Shape::Literal(p, _), Shape::Literal(q, _)) => p.cmp(q),
            (Shape::Next(x1), Shape::Next(x2)) => self.cmp(x1, x2),
            (Shape::And(x1, y1), Shape::And(x2, y2))
            | (Shape::Or(x1, y1), Shape::Or(x2, y2))
            | (Shape::Until(x1, y1), Shape::Until(x2, y2))
            | (Shape::Release(x1, y1), Shape::Release(x2, y2)) => {
                self.cmp(x1, x2).then_with(|| self.cmp(y1, y2))
            }
            _ => unreachable!("equal variants have equal shapes"),
        })
    }
}

impl<'f> PnfBuilder<'f> for Shared<'f> {
    type Node = usize;

    fn constant(&mut self, value: bool) -> usize {
        self.node(Shape::Constant(value))
    }

    fn literal(&mut self, atom: &'f str, positive: bool) -> usize {
        // `¬p` has `p` for a subformula, as in the tree.
        let p = self.node(Shape::Literal(atom, true));
        if positive {
            p
        } else {
            self.node(Shape::Literal(atom, false))
        }
    }

    fn and(&mut self, x: usize, y: usize) -> usize {
        self.node(Shape::And(x, y))
    }

    fn or(&mut self, x: usize, y: usize) -> usize {
        self.node(Shape::Or(x, y))
    }

    fn next(&mut self, x: usize) -> usize {
        self.node(Shape::Next(x))
    }

    fn until(&mut self, x: usize, y: usize) -> usize {
        self.node(Shape::Until(x, y))
    }

    fn release(&mut self, x: usize, y: usize) -> usize {
        self.node(Shape::Release(x, y))
    }

    fn share(
        &mut self,
        f: &'f Formula,
        negated: bool,
        build: impl FnOnce(&mut Self) -> usize,
    ) -> usize {
        let key = (f as *const Formula, negated);
        if let Some(&id) = self.converted.get(&key) {
            return id;
        }
        let id = build(self);
        self.converted.insert(key, id);
        id
    }
}

impl<'f> Closure<'f> {
    fn new(formula: &'f Formula) -> Closure<'f> {
        let mut shared = Shared::default();
        let root = formula.pnf_into(false, &mut shared);
        let mut order: Vec<usize> = (0..shared.nodes.len()).collect();
        order.sort_unstable_by(|&x, &y| shared.cmp(x, y));
        let mut at = vec![0; order.len()];
        for (i, &x) in order.iter().enumerate() {
            at[x] = i;
        }
        let mut atoms: Vec<&'f str> = Vec::new();
        let mut atom_ids: FxHashMap<&'f str, usize> = FxHashMap::default();
        let ops = order
            .iter()
            .map(|&x| match shared.nodes[x] {
                Shape::Constant(true) => Op::True,
                Shape::Constant(false) => Op::False,
                Shape::Literal(p, positive) => Op::Literal {
                    atom: *atom_ids.entry(p).or_insert_with(|| {
                        atoms.push(p);
                        atoms.len() - 1
                    }),
                    positive,
                    complement: shared
                        .ids
                        .get(&Shape::Literal(p, !positive))
                        .map(|&c| at[c]),
                },
                Shape::And(x, y) => Op::And(at[x], at[y]),
                Shape::Or(x, y) => Op::Or(at[x], at[y]),
                Shape::Next(x) => Op::Next(at[x]),
                Shape::Until(x, y) => Op::Until(at[x], at[y]),
                Shape::Release(x, y) => Op::Release(at[x], at[y]),
            })
            .collect::<Vec<_>>();
        Closure {
            root: at[root],
            words: ops.len().div_ceil(64),
            ops,
            atoms,
        }
    }

    /// The literals of the closure that are false at the letters of class
    /// `c`.
    fn literals_false_in(&self, c: usize, classes: &LetterClasses) -> Vec<u64> {
        let mut mask = vec![0; self.words];
        for (i, op) in self.ops.iter().enumerate() {
            if let Op::Literal { atom, positive, .. } = *op {
                if classes.holds(c, atom) != positive {
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
