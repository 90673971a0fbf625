//! Differential test of the DFA's own graph passes.
//!
//! `Dfa` finds its reachable and live states, trims, and restricts over its
//! own rows. The oracle is the route those passes replaced: copy the DFA
//! into an `Nfa`, run `reachable`/`coreachable` there, restrict the copy
//! and read the result back as a DFA. Every public pass built on them must
//! agree with it state for state on random partial DFAs, with or without
//! states, including unreachable and dead ones.

use proptest::prelude::*;
use rl_automata::{Alphabet, Dfa, Nfa, StateId, Symbol};

const LETTERS: [&str; 3] = ["a", "b", "c"];
const MAX_STATES: usize = 8;

/// A DFA of 0 to 8 states over 1 to 3 letters. Each of the (up to) 24
/// transition slots draws from `0..12`: below 8 it is the target, taken
/// modulo the state count, and from 8 on the slot stays undefined, so
/// partial rows, dead ends and unreachable states are all common.
fn dfa_strategy() -> impl Strategy<Value = Dfa> {
    let slots = proptest::collection::vec(0..12usize, MAX_STATES * LETTERS.len());
    let accepting = proptest::collection::vec(0..2usize, MAX_STATES);
    (
        0..MAX_STATES + 1,
        1..LETTERS.len() + 1,
        0..MAX_STATES,
        slots,
        accepting,
    )
        .prop_map(|(n, k, initial, slots, accepting)| {
            let ab = Alphabet::new(&LETTERS[..k]).expect("valid alphabet");
            let mut d = Dfa::new(ab);
            for &acc in &accepting[..n] {
                d.add_state(acc == 1);
            }
            if n > 0 {
                d.set_initial(initial % n);
            }
            for p in 0..n {
                for a in 0..k {
                    let t = slots[p * LETTERS.len() + a];
                    if t < MAX_STATES {
                        d.set_transition(p, Symbol::from_index(a), t % n);
                    }
                }
            }
            d
        })
}

/// Reachable and co-reachable, computed on the `Nfa` copy.
fn ref_live(d: &Dfa) -> Vec<bool> {
    let nfa = d.to_nfa();
    let (reach, coreach) = (nfa.reachable(), nfa.coreachable());
    reach.iter().zip(&coreach).map(|(&r, &c)| r && c).collect()
}

/// Restricts the `Nfa` copy and reads it back as a DFA (initial state 0,
/// the default, when the restriction keeps none).
fn ref_restrict(d: &Dfa, keep: &[bool]) -> Dfa {
    let kept: Nfa = d.to_nfa().restrict(keep);
    let mut out = Dfa::new(d.alphabet().clone());
    for q in 0..kept.state_count() {
        out.add_state(kept.is_accepting(q));
    }
    if let Some(&q0) = kept.initial().iter().next() {
        out.set_initial(q0);
    }
    for (p, a, q) in kept.transitions() {
        out.set_transition(p, a, q);
    }
    out
}

fn ref_has_maximal_words(d: &Dfa, live: &[bool]) -> bool {
    (0..d.state_count()).any(|q: StateId| {
        live[q]
            && d.is_accepting(q)
            && !d
                .alphabet()
                .symbols()
                .any(|a| d.next(q, a).is_some_and(|t| live[t]))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn native_passes_match_the_nfa_route(d in dfa_strategy()) {
        let live = ref_live(&d);
        prop_assert_eq!(d.trim(), ref_restrict(&d, &live));
        prop_assert_eq!(d.remove_unreachable(), ref_restrict(&d, &d.to_nfa().reachable()));
        prop_assert_eq!(
            d.is_prefix_closed(),
            (0..d.state_count()).all(|q| !live[q] || d.is_accepting(q))
        );
        prop_assert_eq!(d.has_maximal_words(), ref_has_maximal_words(&d, &live));
        let nfa = d.to_nfa();
        prop_assert_eq!(d.is_empty_language(), nfa.is_empty_language());
        prop_assert_eq!(d.shortest_accepted(), nfa.shortest_accepted());
    }
}
