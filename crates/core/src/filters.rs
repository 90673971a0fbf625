//! An abstaining stand-in for a semidecision of the Lemma 4.3 inclusion.
//!
//! [`crate::CheckPlan`] settles the inclusion with the exact lazy search
//! alone (DESIGN.md §14 says why); abstaining is sound for any
//! semidecision.

use rl_automata::{Guard, Nfa, Word};

use crate::property::CoreError;

/// Answer of [`prefilter_inclusion`].
///
/// Kept only because `perfbench/` calls it; the benchmark change of
/// ROADMAP item 1 removes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterOutcome {
    /// The inclusion holds.
    Proved,
    /// The inclusion fails, witnessed by a word accepted on the left and
    /// rejected on the right.
    Refuted(Word),
    /// Nothing settled the question.
    Unknown,
}

/// Answers [`FilterOutcome::Unknown`] on every `L(a) ⊆ L(b)`: it runs
/// nothing, records no counters and charges nothing.
///
/// Kept only because `perfbench/` calls it; the benchmark change of
/// ROADMAP item 1 removes it.
///
/// # Errors
///
/// Never; the `Result` keeps the signature the benchmark compiles against.
pub fn prefilter_inclusion(_a: &Nfa, _b: &Nfa, _guard: &Guard) -> Result<FilterOutcome, CoreError> {
    Ok(FilterOutcome::Unknown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_automata::Alphabet;

    fn prefix_nfa(ab: &Alphabet, edges: &[&str]) -> Nfa {
        Nfa::from_parts(
            ab.clone(),
            1,
            [0],
            [0],
            edges.iter().map(|&name| (0, ab.symbol(name).unwrap(), 0)),
        )
        .unwrap()
    }

    #[test]
    fn shim_abstains_and_charges_nothing() {
        let ab = Alphabet::new(["a", "b"]).unwrap();
        let any = prefix_nfa(&ab, &["a", "b"]);
        let a_only = prefix_nfa(&ab, &["a"]);
        let g = Guard::unlimited();
        // One inclusion that holds, one that fails: both abstain.
        for (a, b) in [(&a_only, &any), (&any, &a_only)] {
            assert_eq!(
                prefilter_inclusion(a, b, &g).unwrap(),
                FilterOutcome::Unknown
            );
        }
        let p = g.progress();
        assert_eq!((p.states, p.transitions, p.frontier), (0, 0, 0));
    }
}
