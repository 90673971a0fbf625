//! Büchi emptiness and reduction against their definition.
//!
//! On random automata with 1–8 states over {a, b}, a state is *live* when
//! it is reachable from an initial state and reaches an accepting state
//! that lies on a non-empty cycle. The oracle decides that with a boolean
//! transitive closure, sharing no code with the Tarjan pass behind
//! [`Buchi::live_states`] and [`Buchi::accepted_upword`]:
//!
//! * [`Buchi::live_states`] marks exactly the live states;
//! * [`Buchi::accepted_upword`] finds a word exactly when some state is
//!   live, and [`Buchi::accepts_upword`] accepts every word it finds.

use proptest::prelude::*;
use rl_automata::{Alphabet, Symbol};
use rl_buchi::Buchi;

/// A random automaton: 1–8 states, at most `3n` transitions, indices drawn
/// up to 8 and reduced modulo the state count `n`.
fn buchi_strategy() -> impl Strategy<Value = Buchi> {
    (
        1..9usize,
        proptest::collection::vec((0..8usize, 0..2usize, 0..8usize), 0..=24),
        proptest::collection::vec(0..8usize, 0..=8),
        proptest::collection::vec(0..8usize, 1..=2),
    )
        .prop_map(|(n, ts, acc, init)| {
            Buchi::from_parts(
                Alphabet::new(["a", "b"]).expect("valid alphabet"),
                n,
                init.into_iter().map(|q| q % n),
                acc.into_iter().map(|q| q % n),
                ts.into_iter()
                    .take(3 * n)
                    .map(|(p, a, q)| (p % n, Symbol::from_index(a), q % n)),
            )
            .expect("indices in range")
        })
}

/// `path[p][q]`: a path of one or more transitions leads from `p` to `q`
/// (Warshall's closure of the edge relation).
fn paths(b: &Buchi) -> Vec<Vec<bool>> {
    let n = b.state_count();
    let mut path = vec![vec![false; n]; n];
    for (p, _, q) in b.transitions() {
        path[p][q] = true;
    }
    for k in 0..n {
        let via_k = path[k].clone();
        for row in path.iter_mut().filter(|row| row[k]) {
            for (cell, &via) in row.iter_mut().zip(&via_k) {
                *cell |= via;
            }
        }
    }
    path
}

/// The live states by definition.
fn live_by_definition(b: &Buchi) -> Vec<bool> {
    let n = b.state_count();
    let path = paths(b);
    let reachable = |q: usize| b.initial().iter().any(|&i| i == q || path[i][q]);
    let recurrent = |f: usize| b.is_accepting(f) && path[f][f];
    (0..n)
        .map(|q| reachable(q) && (0..n).any(|f| recurrent(f) && (q == f || path[q][f])))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn live_states_match_the_definition(b in buchi_strategy()) {
        prop_assert_eq!(b.live_states(), live_by_definition(&b));
    }

    #[test]
    fn emptiness_matches_the_definition(b in buchi_strategy()) {
        let nonempty = live_by_definition(&b).contains(&true);
        let witness = b.accepted_upword();
        prop_assert_eq!(witness.is_some(), nonempty);
        if let Some(w) = witness {
            prop_assert!(b.accepts_upword(&w), "witness {:?} is not accepted", w);
        }
    }
}
