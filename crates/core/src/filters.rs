//! Sound semidecisions for the Lemma 4.3 inclusion, off the check path.
//!
//! [`prefilter_inclusion`] chains the near-linear kernels of
//! [`rl_automata`] — letter-count refutation ([`parikh_refute`]), counts
//! mod 2, 3 and 5 ([`modk_refute`]) and the simulation fast-accept
//! ([`nfa_simulates`]) — and reports the first decisive answer. No decider
//! calls it: [`crate::CheckPlan`] settles the inclusion with the exact
//! lazy search alone (DESIGN.md §14 says why). It stays as a measured side
//! call and as the kernels' soundness harness.

use rl_automata::{modk_refute, nfa_simulates, parikh_refute, Guard, Nfa, Word};

use crate::property::CoreError;

/// Answer of [`prefilter_inclusion`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterOutcome {
    /// The inclusion holds.
    Proved,
    /// The inclusion fails, witnessed by a word accepted on the left and
    /// rejected on the right.
    Refuted(Word),
    /// No kernel settled the question.
    Unknown,
}

/// Tries the kernels on `L(a) ⊆ L(b)` in cost order: Parikh, counts mod
/// 2, 3 and 5, then simulation. Records no counters and charges nothing.
///
/// # Errors
///
/// Propagates guard deadline/cancellation trips from the kernels.
pub fn prefilter_inclusion(a: &Nfa, b: &Nfa, guard: &Guard) -> Result<FilterOutcome, CoreError> {
    if let Some(w) = parikh_refute(a, b, guard)? {
        return Ok(FilterOutcome::Refuted(w));
    }
    for k in [2, 3, 5] {
        if let Some(w) = modk_refute(a, b, k, guard)? {
            return Ok(FilterOutcome::Refuted(w));
        }
    }
    Ok(if nfa_simulates(b, a, guard)? {
        FilterOutcome::Proved
    } else {
        FilterOutcome::Unknown
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_automata::Alphabet;

    fn prefix_nfa(ab: &Alphabet, states: usize, edges: &[(usize, &str, usize)]) -> Nfa {
        Nfa::from_parts(
            ab.clone(),
            states,
            [0],
            0..states,
            edges
                .iter()
                .map(|&(p, name, q)| (p, ab.symbol(name).unwrap(), q)),
        )
        .unwrap()
    }

    #[test]
    fn ladder_refutes_proves_and_abstains() {
        let ab = Alphabet::new(["a", "b"]).unwrap();
        let any = prefix_nfa(&ab, 1, &[(0, "a", 0), (0, "b", 0)]);
        let a_only = prefix_nfa(&ab, 1, &[(0, "a", 0)]);
        let g = Guard::unlimited();
        // Refute: `any` reaches b-words `a_only` cannot.
        match prefilter_inclusion(&any, &a_only, &g).unwrap() {
            FilterOutcome::Refuted(w) => {
                assert!(any.accepts(&w) && !a_only.accepts(&w));
            }
            other => panic!("expected refutation, got {other:?}"),
        }
        // Prove: the inclusion the simulation sees immediately.
        assert_eq!(
            prefilter_inclusion(&a_only, &any, &g).unwrap(),
            FilterOutcome::Proved
        );
    }
}
