//! Differential test of the image subset construction.
//!
//! [`image_dfa_with`] determinizes `h(L)` straight from the machine, over
//! ε-closed subsets of its own states. The oracle is the two-step route:
//! ε-eliminate first ([`image_nfa`]), then determinize the result. Both
//! must accept the same language from every root, on random machines with
//! hidden cycles under a homomorphism that merges letters.

use proptest::prelude::*;
use rl_abstraction::{
    abstract_image_with, has_maximal_words, image_dfa_with, image_nfa, Homomorphism,
};
use rl_automata::{
    dfa_equivalent, Alphabet, Guard, Nfa, StateId, StateSet, Symbol, TransitionSystem,
};

const SOURCE: [&str; 6] = ["a", "b", "c", "d", "t1", "t2"];
const TARGET: [&str; 2] = ["x", "y"];

fn source() -> Alphabet {
    Alphabet::new(SOURCE).expect("valid alphabet")
}

/// `a` and `b` both map to `x` (so `h` is never injective), `t1` and `t2`
/// are hidden, and `c` and `d` each go to `x`, `y` or `ε` as `image`
/// says (0, 1 or 2).
fn homomorphism(image: (usize, usize)) -> Homomorphism {
    let target = Alphabet::new(TARGET).expect("valid alphabet");
    Homomorphism::new(&source(), &target, |name| {
        let choice = match name {
            "a" | "b" => 0,
            "c" => image.0,
            "d" => image.1,
            _ => 2,
        };
        TARGET.get(choice).map(|&t| t.to_owned())
    })
    .expect("target names exist")
}

/// A machine of 1 to 6 states: random edges over `SOURCE`, plus the
/// hidden cycle `i -t1-> j -t2-> i` (a self-loop when `i == j`), with
/// random accepting and initial states. State indices are drawn from
/// `0..6` and taken modulo the state count.
#[derive(Debug, Clone)]
struct Machine {
    states: usize,
    edges: Vec<(StateId, Symbol, StateId)>,
    accepting: Vec<StateId>,
    initial: Vec<StateId>,
}

fn machine_strategy() -> impl Strategy<Value = Machine> {
    let edges = proptest::collection::vec((0..6usize, 0..SOURCE.len(), 0..6usize), 0..=18);
    let accepting = proptest::collection::vec(0..6usize, 0..=6);
    let initial = proptest::collection::vec(0..6usize, 1..=2);
    (1..7usize, edges, (0..6usize, 0..6usize), accepting, initial).prop_map(
        |(n, edges, (i, j), accepting, initial)| {
            let [t1, t2] = [4, 5].map(Symbol::from_index);
            let mut edges: Vec<_> = edges
                .into_iter()
                .map(|(p, a, q)| (p % n, Symbol::from_index(a), q % n))
                .collect();
            edges.extend([(i % n, t1, j % n), (j % n, t2, i % n)]);
            Machine {
                states: n,
                edges,
                accepting: accepting.into_iter().map(|q| q % n).collect(),
                initial: initial.into_iter().map(|q| q % n).collect(),
            }
        },
    )
}

impl Machine {
    fn nfa(&self) -> Nfa {
        let edges = self.edges.iter().copied();
        let (initial, accepting) = (self.initial.iter().copied(), self.accepting.iter().copied());
        Nfa::from_parts(source(), self.states, initial, accepting, edges).expect("in range")
    }

    /// The same edges as a system rooted at state 0 (every state accepts).
    fn system(&self) -> TransitionSystem {
        let mut ts = TransitionSystem::new(source());
        for _ in 0..self.states {
            ts.add_state();
        }
        ts.set_initial(0);
        for &(p, a, q) in &self.edges {
            ts.add_transition(p, a, q);
        }
        ts
    }
}

/// `nfa` with `{q}` as its only initial state.
fn rooted(nfa: &Nfa, q: StateId) -> Nfa {
    let accepting = (0..nfa.state_count()).filter(|&p| nfa.is_accepting(p));
    Nfa::from_parts(
        nfa.alphabet().clone(),
        nfa.state_count(),
        [q],
        accepting,
        nfa.transitions(),
    )
    .expect("indices preserved")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// From the initial states and from every root `{q}` of one
    /// multi-root construction, the DFA accepts what the ε-eliminated
    /// image accepts after a plain determinization, and it has a maximal
    /// word exactly when the ε-eliminated image has one.
    #[test]
    fn image_subsets_match_the_epsilon_eliminated_image(
        machine in machine_strategy(),
        image in (0..3usize, 0..3usize),
    ) {
        let (h, nfa) = (homomorphism(image), machine.nfa());
        let guard = Guard::unlimited();
        let initial: StateSet = nfa.initial().iter().copied().collect();
        let (dfa, _) = image_dfa_with(&h, &nfa, &[initial], &guard).unwrap();
        let image = image_nfa(&h, &nfa);
        prop_assert!(dfa_equivalent(&dfa, &image.determinize()));
        prop_assert_eq!(dfa.has_maximal_words(), has_maximal_words(&image));

        let roots: Vec<StateSet> = (0..nfa.state_count())
            .map(|q| StateSet::from_iter([q]))
            .collect();
        let (dfa, root) = image_dfa_with(&h, &nfa, &roots, &guard).unwrap();
        for (q, &state) in root.iter().enumerate() {
            let oracle = image_nfa(&h, &rooted(&nfa, q)).determinize();
            prop_assert!(dfa_equivalent(&dfa.rooted_at(state), &oracle), "root {{{}}}", q);
        }
    }

    /// The abstract system and the maximal-word flag read off one DFA of
    /// `h(L)` are what the two-step route gives: the same minimized
    /// system, state for state, and `has_maximal_words` of the
    /// ε-eliminated image.
    #[test]
    fn abstract_image_matches_the_two_step_route(
        machine in machine_strategy(),
        image in (0..3usize, 0..3usize),
    ) {
        let (h, ts) = (homomorphism(image), machine.system());
        let (system, maximal) = abstract_image_with(&h, &ts, &Guard::unlimited()).unwrap();
        let oracle = image_nfa(&h, &ts.to_nfa());
        prop_assert_eq!(maximal, has_maximal_words(&oracle));
        let min = oracle.determinize().min_dfa();
        let keep: Vec<bool> = (0..min.state_count()).map(|q| min.is_accepting(q)).collect();
        let expected = TransitionSystem::from_nfa(&min.to_nfa().restrict(&keep)).unwrap();
        prop_assert_eq!(system, expected);
    }
}
