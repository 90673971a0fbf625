//! Property tests for the bitset-backed kernels: on random NFAs, the
//! `StateSet`/`Interner` implementations of determinization, product and
//! minimization must agree with straightforward `BTreeSet`/`BTreeMap`
//! reference implementations (the shapes the kernels replaced).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use proptest::prelude::*;
use rl_automata::{dfa_equivalent, Alphabet, Dfa, Nfa, StateId, Symbol};

const SIGMA2: [&str; 2] = ["a", "b"];

fn alphabet2() -> Alphabet {
    Alphabet::new(SIGMA2).expect("valid alphabet")
}

/// Random NFA over {a, b} with exactly `n` states.
fn nfa_strategy(n: usize) -> impl Strategy<Value = Nfa> {
    let transitions = proptest::collection::vec((0..n, 0..2usize, 0..n), 0..=(3 * n));
    let accepting = proptest::collection::vec(0..n, 0..=n);
    let initial = proptest::collection::vec(0..n, 1..=2);
    (transitions, accepting, initial).prop_map(move |(ts, acc, init)| {
        Nfa::from_parts(
            alphabet2(),
            n,
            init,
            acc,
            ts.into_iter()
                .map(|(p, s, q)| (p, Symbol::from_index(s), q)),
        )
        .expect("indices in range")
    })
}

/// Classic subset construction over `BTreeSet` subsets keyed in a
/// `BTreeMap` — the pre-bitset implementation of [`Nfa::determinize`],
/// expanding subsets first in, first out, letter by letter, so it numbers
/// them in the kernel's order.
fn ref_determinize(nfa: &Nfa) -> Dfa {
    let ab = nfa.alphabet().clone();
    let mut out = Dfa::new(ab.clone());
    let mut index: BTreeMap<BTreeSet<StateId>, StateId> = BTreeMap::new();
    let start = nfa.initial().clone();
    let d0 = out.add_state(start.iter().any(|&q| nfa.is_accepting(q)));
    out.set_initial(d0);
    index.insert(start.clone(), d0);
    let mut work = VecDeque::from([start]);
    while let Some(subset) = work.pop_front() {
        let d = index[&subset];
        for a in ab.symbols() {
            let next = nfa.step(&subset, a);
            // The kernel leaves the dead subset implicit (partial DFA).
            if next.is_empty() {
                continue;
            }
            let nd = match index.get(&next) {
                Some(&nd) => nd,
                None => {
                    let nd = out.add_state(next.iter().any(|&q| nfa.is_accepting(q)));
                    index.insert(next.clone(), nd);
                    work.push_back(next);
                    nd
                }
            };
            out.set_transition(d, a, nd);
        }
    }
    out
}

/// Pair product of two completed DFAs via a `BTreeMap` pair index — the
/// pre-bitset implementation of [`Dfa::product`].
fn ref_product(x: &Dfa, y: &Dfa, combine: impl Fn(bool, bool) -> bool) -> Dfa {
    let a = x.complete();
    let b = y.complete();
    let ab = a.alphabet().clone();
    let mut out = Dfa::new(ab.clone());
    let mut index: BTreeMap<(StateId, StateId), StateId> = BTreeMap::new();
    let start = (a.initial(), b.initial());
    let d0 = out.add_state(combine(a.is_accepting(start.0), b.is_accepting(start.1)));
    out.set_initial(d0);
    index.insert(start, d0);
    let mut work = vec![start];
    while let Some((p, q)) = work.pop() {
        let d = index[&(p, q)];
        for s in ab.symbols() {
            let next = (
                a.next(p, s).expect("complete"),
                b.next(q, s).expect("complete"),
            );
            let nd = *index.entry(next).or_insert_with(|| {
                work.push(next);
                out.add_state(combine(a.is_accepting(next.0), b.is_accepting(next.1)))
            });
            out.set_transition(d, s, nd);
        }
    }
    out
}

/// Moore's partition refinement over `BTreeMap` signatures — a slow but
/// obviously-correct reference for Hopcroft minimization. The input must be
/// reachable and complete (we feed it `complete().remove_unreachable()`).
fn ref_minimize(dfa: &Dfa) -> Dfa {
    let d = dfa.complete().remove_unreachable();
    let n = d.state_count();
    let ab = d.alphabet().clone();
    let mut class: Vec<usize> = (0..n).map(|q| usize::from(d.is_accepting(q))).collect();
    loop {
        let mut sig_index: BTreeMap<(usize, Vec<usize>), usize> = BTreeMap::new();
        let mut next_class: Vec<usize> = vec![0; n];
        for q in 0..n {
            let sig = (
                class[q],
                ab.symbols()
                    .map(|a| class[d.next(q, a).expect("complete")])
                    .collect::<Vec<_>>(),
            );
            let fresh = sig_index.len();
            next_class[q] = *sig_index.entry(sig).or_insert(fresh);
        }
        if next_class == class {
            break;
        }
        class = next_class;
    }
    let block_count = class.iter().max().map_or(0, |&m| m + 1);
    let mut rep: Vec<StateId> = vec![0; block_count];
    for q in (0..n).rev() {
        rep[class[q]] = q;
    }
    let mut out = Dfa::new(ab.clone());
    for &r in &rep {
        out.add_state(d.is_accepting(r));
    }
    out.set_initial(class[d.initial()]);
    for (c, &r) in rep.iter().enumerate() {
        for a in ab.symbols() {
            out.set_transition(c, a, class[d.next(r, a).expect("complete")]);
        }
    }
    out
}

/// All words over {a, b} up to length `len`.
fn all_words(len: usize) -> Vec<Vec<Symbol>> {
    let mut out = vec![vec![]];
    let mut layer: Vec<Vec<Symbol>> = vec![vec![]];
    for _ in 0..len {
        let mut next = Vec::new();
        for w in &layer {
            for s in 0..2 {
                let mut w2 = w.clone();
                w2.push(Symbol::from_index(s));
                out.push(w2.clone());
                next.push(w2);
            }
        }
        layer = next;
    }
    out
}

proptest! {
    /// Bitset subset construction builds the same machine as the BTreeSet
    /// reference, state for state: the same numbering, acceptance and
    /// edges.
    #[test]
    fn determinize_matches_reference(nfa in nfa_strategy(5)) {
        let fast = nfa.determinize();
        let slow = ref_determinize(&nfa);
        prop_assert_eq!(&fast, &slow);
        for w in all_words(5) {
            prop_assert_eq!(fast.accepts(&w), nfa.accepts(&w));
        }
    }

    /// PairTable-indexed DFA product agrees with the BTreeMap pair product
    /// for intersection, difference and symmetric difference.
    #[test]
    fn product_matches_reference(n1 in nfa_strategy(4), n2 in nfa_strategy(4)) {
        let d1 = n1.determinize();
        let d2 = n2.determinize();
        let combines: [fn(bool, bool) -> bool; 3] =
            [|p, q| p && q, |p, q| p && !q, |p, q| p != q];
        for combine in combines {
            let fast = d1.product(&d2, combine).expect("same alphabet");
            let slow = ref_product(&d1, &d2, combine);
            prop_assert_eq!(fast.state_count(), slow.state_count());
            prop_assert!(dfa_equivalent(&fast, &slow));
        }
    }

    /// Bitset Hopcroft reaches the same block count as Moore refinement and
    /// preserves the language.
    #[test]
    fn minimize_matches_reference(nfa in nfa_strategy(5)) {
        let d = nfa.determinize();
        let fast = d.min_dfa();
        let slow = ref_minimize(&d);
        prop_assert_eq!(fast.state_count(), slow.state_count());
        prop_assert!(dfa_equivalent(&fast, &slow));
        prop_assert!(dfa_equivalent(&fast, &d));
    }

    /// The rewritten NFA pair intersection accepts exactly L(A) ∩ L(B).
    #[test]
    fn nfa_intersection_matches_languages(n1 in nfa_strategy(4), n2 in nfa_strategy(4)) {
        let inter = n1.intersection(&n2).expect("same alphabet");
        for w in all_words(5) {
            prop_assert_eq!(inter.accepts(&w), n1.accepts(&w) && n2.accepts(&w));
        }
    }
}
