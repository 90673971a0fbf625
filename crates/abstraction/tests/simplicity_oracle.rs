//! Oracle test for the simplicity decider (Definition 6.3).
//!
//! The oracle decides simplicity the direct way: one determinization of
//! `h(cont(w, L))` for each state of the DFA of `L`, and for each reachable
//! `(q, s)` pair a walk of the product of the `h(L)`-DFA with that image,
//! testing residual equivalence with Hopcroft–Karp at every step. The
//! decider under test shares one multi-root image DFA and one partition
//! instead; both must agree on the verdict and on the violating word.

use std::collections::VecDeque;

use proptest::prelude::*;
use rl_abstraction::{check_simplicity, image_nfa, Homomorphism};
use rl_automata::{equivalent_states, Alphabet, Dfa, Nfa, StateId, Symbol, TransitionSystem, Word};

const SIGMA: [&str; 5] = ["a", "b", "c", "t1", "t2"];

/// Definition 6.3 by per-state determinization: `(simple, violation)`.
fn oracle(h: &Homomorphism, language: &Nfa) -> (bool, Option<Word>) {
    let d = language.determinize().trim();
    if d.state_count() == 0 {
        return (true, None);
    }
    let dh = image_nfa(h, language).determinize().trim();
    let mut seen: Vec<Vec<Option<Word>>> = vec![vec![None; dh.state_count()]; d.state_count()];
    let mut queue = VecDeque::from([(d.initial(), dh.initial())]);
    seen[d.initial()][dh.initial()] = Some(Vec::new());
    while let Some((q, s)) = queue.pop_front() {
        let witness = seen[q][s].clone().expect("queued pairs are seen");
        let e_q = image_nfa(h, &d.rooted_at(q).to_nfa()).determinize();
        if !exists_converging_u(&dh, s, &e_q) {
            return (false, Some(witness));
        }
        for a in d.alphabet().symbols() {
            let Some(q2) = d.next(q, a) else { continue };
            let s2 = match h.apply(a) {
                Some(b) => dh.next(s, b).expect("h(w) ∈ h(L)"),
                None => s,
            };
            if seen[q2][s2].is_none() {
                let mut w2 = witness.clone();
                w2.push(a);
                seen[q2][s2] = Some(w2);
                queue.push_back((q2, s2));
            }
        }
    }
    (true, None)
}

/// Is there `u ∈ L(dh from s)` with `cont(u, L(dh from s)) = cont(u, L(e_q))`?
fn exists_converging_u(dh: &Dfa, s: StateId, e_q: &Dfa) -> bool {
    let mut seen = vec![vec![false; e_q.state_count() + 1]; dh.state_count()];
    let bottom = e_q.state_count();
    let mut queue = VecDeque::from([(s, Some(e_q.initial()))]);
    seen[s][e_q.initial()] = true;
    while let Some((t1, t2)) = queue.pop_front() {
        if !dh.is_accepting(t1) {
            continue;
        }
        if let Some(t2) = t2 {
            if equivalent_states(dh, t1, e_q, t2) {
                return true;
            }
        }
        for b in dh.alphabet().symbols() {
            let Some(n1) = dh.next(t1, b) else { continue };
            let n2 = t2.and_then(|t| e_q.next(t, b));
            let slot = &mut seen[n1][n2.unwrap_or(bottom)];
            if !*slot {
                *slot = true;
                queue.push_back((n1, n2));
            }
        }
    }
    false
}

/// A system of 1–7 states over `SIGMA` (deadlocks allowed), plus the
/// abstraction: `hide` picks 1–3 hidden actions and `merge` maps the first
/// two visible actions onto one target action.
#[derive(Debug)]
struct Case {
    ts: TransitionSystem,
    hidden: Vec<usize>,
    merge: bool,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    let edges = proptest::collection::vec((0..7usize, 0..SIGMA.len(), 0..7usize), 0..=21);
    let hide = proptest::collection::vec(0..SIGMA.len(), 1..=3);
    (1..8usize, edges, hide, 0..2usize).prop_map(|(n, edges, mut hidden, merge)| {
        let mut ts = TransitionSystem::new(Alphabet::new(SIGMA).unwrap());
        for _ in 0..n {
            ts.add_state();
        }
        ts.set_initial(0);
        for (p, a, q) in edges {
            ts.add_transition(p % n, Symbol::from_index(a), q % n);
        }
        hidden.sort_unstable();
        hidden.dedup();
        Case {
            ts,
            hidden,
            merge: merge == 1,
        }
    })
}

fn homomorphism(case: &Case) -> Homomorphism {
    let sigma = case.ts.alphabet();
    let visible: Vec<&str> = (0..SIGMA.len())
        .filter(|i| !case.hidden.contains(i))
        .map(|i| SIGMA[i])
        .collect();
    if !case.merge || visible.len() < 2 {
        return Homomorphism::hiding(sigma, visible).unwrap();
    }
    // Non-injective: the second visible action is renamed to the first.
    let target = Alphabet::new(visible[..1].iter().chain(&visible[2..]).copied()).unwrap();
    let (first, second) = (visible[0], visible[1]);
    Homomorphism::new(sigma, &target, |name| {
        if case.hidden.iter().any(|&i| SIGMA[i] == name) {
            None
        } else if name == second {
            Some(first.to_owned())
        } else {
            Some(name.to_owned())
        }
    })
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The shared-image decider agrees with the per-state oracle on the
    /// verdict and on the (shortlex-least) violating word, which is a word
    /// of `L`.
    #[test]
    fn shared_image_decider_matches_per_state_oracle(case in case_strategy()) {
        let h = homomorphism(&case);
        let language = case.ts.to_nfa();
        let report = check_simplicity(&h, &language).unwrap();
        let (simple, violation) = oracle(&h, &language);
        prop_assert_eq!(report.simple, simple, "{:?}", case);
        prop_assert_eq!(&report.violation, &violation, "{:?}", case);
        if let Some(w) = &report.violation {
            prop_assert!(language.accepts(w), "violation {:?} not in L", w);
        }
    }
}
