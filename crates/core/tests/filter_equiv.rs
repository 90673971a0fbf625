//! Soundness of the semidecision kernels behind
//! [`rl_core::prefilter_inclusion`]: on random prefix-closed NFAs every
//! `Proved` or `Refuted` answer agrees with the exact subset-construction
//! inclusion, and every refutation witness replays.

use rl_automata::{Alphabet, Guard, Nfa, Symbol};
use rl_core::{prefilter_inclusion, FilterOutcome};

#[test]
fn prefilter_outcomes_match_exact_inclusion_on_random_nfas() {
    // Direct ladder-level differential: on random prefix-closed NFAs the
    // ladder's Proved/Refuted answers are always consistent with the exact
    // subset-construction inclusion (Unknown is always allowed).
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let ab = Alphabet::new(["a", "b"]).expect("valid alphabet");
    let guard = Guard::unlimited();
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for _ in 0..200 {
        let mut make = |n: usize| {
            let edges: Vec<(usize, Symbol, usize)> = (0..rng.gen_range(1..3 * n + 1))
                .map(|_| {
                    (
                        rng.gen_range(0..n),
                        Symbol::from_index(rng.gen_range(0..2)),
                        rng.gen_range(0..n),
                    )
                })
                .collect();
            // All states accepting: the ladder's inputs are prefix NFAs.
            Nfa::from_parts(ab.clone(), n, [0], 0..n, edges).expect("indices in range")
        };
        let a = make(4);
        let b = make(4);
        let exact = rl_automata::dfa_included(&a.determinize(), &b.determinize());
        match prefilter_inclusion(&a, &b, &guard).expect("unlimited guard") {
            FilterOutcome::Proved => {
                assert!(exact.is_none(), "ladder proved a failing inclusion");
            }
            FilterOutcome::Refuted(w) => {
                assert!(exact.is_some(), "ladder refuted a holding inclusion");
                assert!(a.accepts(&w) && !b.accepts(&w), "witness fails replay");
            }
            FilterOutcome::Unknown => {}
        }
    }
}
