//! Differential test of the image subset construction.
//!
//! [`image_dfa_with`] determinizes `h(L)` straight from the machine, over
//! ε-closed subsets of its own states. The oracle is the two-step route:
//! ε-eliminate first ([`image_nfa`]), then determinize the result. Both
//! must accept the same language from every root, on random machines with
//! hidden cycles under a homomorphism that merges letters.
//!
//! The construction reads any rows: a system's, a partial DFA's or an
//! NFA's. On a system or a DFA it must give exactly what it gives on its
//! `Nfa` copy (equal to `to_nfa()`, but built here from the transition
//! list, so the copy does not read the rows under test), and so must the
//! simplicity check: the same DFA and root states, the same report, and
//! the same guard charges in the same order.

use proptest::prelude::*;
use rl_abstraction::{
    abstract_image_with, check_simplicity_with, has_maximal_words, image_dfa_with, image_nfa,
    AbstractionError, Homomorphism,
};
use rl_automata::{
    dfa_equivalent, Alphabet, AutomataError, Budget, Dfa, EdgeRows, Guard, Nfa, StateId, StateSet,
    Symbol, TransitionSystem,
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

    /// The same edges as a partial DFA (a later edge on a letter replaces
    /// an earlier one), rooted at the first initial state; states it cannot
    /// reach stay.
    fn dfa(&self) -> Dfa {
        let (edges, accepting) = (self.edges.iter().copied(), self.accepting.iter().copied());
        Dfa::from_parts(source(), self.states, self.initial[0], accepting, edges).expect("in range")
    }
}

/// What a run charges: its totals under no budget, then, for a state and
/// a transition budget of half (rounded down) of each total, where it
/// trips (`None` when it does not): the resource, the amount spent and the
/// states and transitions charged by then. Equal trips at the cut show the
/// charges came in the same order up to it.
fn charges<T>(run: impl Fn(&Guard) -> Result<T, AutomataError>) -> Vec<Option<[u64; 3]>> {
    let unlimited = Guard::unlimited();
    run(&unlimited).expect("no budget");
    let total = unlimited.progress();
    let mut out = vec![Some([total.states as u64, total.transitions as u64, 0])];
    for budget in [
        Budget::unlimited().with_max_states(total.states / 2),
        Budget::unlimited().with_max_transitions(total.transitions / 2),
    ] {
        out.push(match run(&Guard::new(budget)) {
            Ok(_) => None,
            Err(AutomataError::BudgetExceeded { spent, partial, .. }) => {
                Some([spent, partial.states as u64, partial.transitions as u64])
            }
            Err(other) => panic!("unexpected error {other}"),
        });
    }
    out
}

/// Unwraps the automata error of a simplicity check for [`charges`].
fn automata<T>(result: Result<T, AbstractionError>) -> Result<T, AutomataError> {
    result.map_err(|e| match e {
        AbstractionError::Automata(e) => e,
        other => panic!("unexpected error {other}"),
    })
}

/// The `Nfa` copy of a system, built from its transition list (not its
/// rows) with every state accepting.
fn system_copy(ts: &TransitionSystem) -> Nfa {
    let all = 0..ts.state_count();
    Nfa::from_parts(
        source(),
        ts.state_count(),
        [ts.initial()],
        all,
        ts.transitions(),
    )
    .expect("indices preserved")
}

/// The `Nfa` copy of a DFA with at least one state, built from its
/// transition list (not its rows).
fn dfa_copy(dfa: &Dfa) -> Nfa {
    let accepting = (0..dfa.state_count()).filter(|&q| dfa.is_accepting(q));
    let (n, transitions) = (dfa.state_count(), dfa.transitions());
    Nfa::from_parts(source(), n, [dfa.initial()], accepting, transitions).expect("in range")
}

/// One root `{q}` per state, after the initial states' subset.
fn roots<R: EdgeRows>(rows: &R) -> Vec<StateSet> {
    let singletons = (0..rows.state_count()).map(|q| StateSet::from_iter([q]));
    std::iter::once(rows.initial().collect())
        .chain(singletons)
        .collect()
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

    /// On a system and on a partial DFA, the construction gives what it
    /// gives on their `to_nfa()` copies: the same DFA state for state, the
    /// same root states, and the same charges.
    #[test]
    fn rows_give_what_their_nfa_copies_give(
        machine in machine_strategy(),
        image in (0..3usize, 0..3usize),
    ) {
        let h = homomorphism(image);
        let (ts, dfa) = (machine.system(), machine.dfa());
        let copy = system_copy(&ts);
        prop_assert_eq!(&copy, &ts.to_nfa());
        let on_system = |g: &Guard| image_dfa_with(&h, &ts, &roots(&ts), g);
        let on_copy = |g: &Guard| image_dfa_with(&h, &copy, &roots(&ts), g);
        prop_assert_eq!(on_system(&Guard::unlimited()), on_copy(&Guard::unlimited()));
        prop_assert_eq!(charges(on_system), charges(on_copy));

        let copy = dfa_copy(&dfa);
        prop_assert_eq!(&copy, &dfa.to_nfa());
        let on_dfa = |g: &Guard| image_dfa_with(&h, &dfa, &roots(&dfa), g);
        let on_copy = |g: &Guard| image_dfa_with(&h, &copy, &roots(&dfa), g);
        prop_assert_eq!(on_dfa(&Guard::unlimited()), on_copy(&Guard::unlimited()));
        prop_assert_eq!(charges(on_dfa), charges(on_copy));
    }

    /// The simplicity check on a system reports and charges what it does
    /// on the system's `to_nfa()` copy.
    #[test]
    fn simplicity_on_a_system_matches_its_nfa_copy(
        machine in machine_strategy(),
        image in (0..3usize, 0..3usize),
    ) {
        let (h, ts) = (homomorphism(image), machine.system());
        let copy = system_copy(&ts);
        let on_system = |g: &Guard| automata(check_simplicity_with(&h, &ts, g));
        let on_copy = |g: &Guard| automata(check_simplicity_with(&h, &copy, g));
        prop_assert_eq!(on_system(&Guard::unlimited()), on_copy(&Guard::unlimited()));
        prop_assert_eq!(charges(on_system), charges(on_copy));
    }
}
