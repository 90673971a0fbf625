//! Differential tests pinning the edge-list layout of [`Buchi`].
//!
//! On random Büchi pairs with 1–6 states over alphabets of 1–40 letters:
//!
//! * [`Buchi::intersection_with`] equals a symbol-major product that walks
//!   every letter of the alphabet for every product state (the
//!   construction that fixed the product's numbering and charge order),
//!   one copy when either side accepts everywhere and two otherwise;
//! * under a state budget one short of the product's size, both trip at
//!   the same `spent`;
//! * when one side accepts everywhere, the one-copy product has the
//!   language of the classical two-copy product: both are empty or
//!   neither is, and each accepts the other's witness lasso;
//! * [`Buchi::transitions`] is sorted by `(p, a, q)` and
//!   [`Buchi::successors`] is its `(q, a)` slice;
//! * [`Buchi::accepts_upword`] accepts [`Buchi::accepted_upword`]'s lasso.

use std::collections::VecDeque;

use proptest::prelude::*;
use rl_automata::{Alphabet, AutomataError, Budget, Guard, Interner, StateId, Symbol};
use rl_buchi::Buchi;

/// Raw draws for one automaton: its state count (1–6) and transitions,
/// accepting states and initial states with indices reduced modulo the
/// state count and alphabet size when the automaton is built.
type Draw = (usize, Vec<(usize, usize, usize)>, Vec<usize>, Vec<usize>);

fn draw_strategy() -> impl Strategy<Value = Draw> {
    (
        1..7usize,
        proptest::collection::vec((0..6usize, 0..40usize, 0..6usize), 0..=24),
        proptest::collection::vec(0..6usize, 0..=6),
        proptest::collection::vec(0..6usize, 1..=2),
    )
}

/// The automaton `draw` describes over `alphabet`, with at most `4n`
/// transitions on `n` states.
fn build(alphabet: &Alphabet, (n, ts, acc, init): Draw) -> Buchi {
    let letters = alphabet.len();
    Buchi::from_parts(
        alphabet.clone(),
        n,
        init.into_iter().map(|q| q % n),
        acc.into_iter().map(|q| q % n),
        ts.into_iter()
            .take(4 * n)
            .map(|(p, a, q)| (p % n, Symbol::from_index(a % letters), q % n)),
    )
    .expect("indices in range")
}

/// The alphabet `{a0, …, a(letters−1)}`.
fn alphabet(letters: usize) -> Alphabet {
    Alphabet::new((0..letters).map(|i| format!("a{i}"))).expect("distinct names")
}

/// A random Büchi automaton with 1–6 states over 40 letters.
fn buchi_strategy() -> impl Strategy<Value = Buchi> {
    draw_strategy().prop_map(|d| build(&alphabet(40), d))
}

/// Two automata with 1–6 states each over one alphabet of 1–40 letters.
fn pair_strategy() -> impl Strategy<Value = (Buchi, Buchi)> {
    (1..41usize, draw_strategy(), draw_strategy()).prop_map(|(letters, l, r)| {
        // Both sides share one interned alphabet, as a system and its
        // property do.
        let ab = alphabet(letters);
        (build(&ab, l), build(&ab, r))
    })
}

/// `b` with every state accepting: its language is the limit of its
/// finite runs.
fn accepting_everywhere(b: &Buchi) -> Buchi {
    Buchi::from_parts(
        b.alphabet().clone(),
        b.state_count(),
        b.initial().iter().copied(),
        0..b.state_count(),
        b.transitions(),
    )
    .expect("indices in range")
}

/// The product, symbol-major: for every product state, every letter of
/// the alphabet, then every left and right successor on it. It has one
/// copy when either side accepts everywhere, like
/// [`Buchi::intersection_with`].
fn symbol_major_product(
    left: &Buchi,
    right: &Buchi,
    guard: &Guard,
) -> Result<Buchi, AutomataError> {
    let one_copy = left.accepts_everywhere() || right.accepts_everywhere();
    symbol_major(left, right, one_copy, guard)
}

/// The classical two-copy product, whatever the operands accept: the
/// language oracle for the one-copy product.
fn two_copy_product(left: &Buchi, right: &Buchi) -> Buchi {
    symbol_major(left, right, false, &Guard::unlimited()).expect("unlimited")
}

/// The symbol-major product with one copy (states `(p, q, 1)`, accepting
/// where both sides accept) or two (copy 1 waits for `left` to accept,
/// copy 2 for `right`; copy-1 states of accepting `p` accept).
fn symbol_major(
    left: &Buchi,
    right: &Buchi,
    one_copy: bool,
    guard: &Guard,
) -> Result<Buchi, AutomataError> {
    let mut index: Interner<(StateId, StateId, u8)> = Interner::new();
    let mut out = Buchi::new(left.alphabet().clone());
    let mut work: VecDeque<(StateId, StateId, u8)> = VecDeque::new();
    let mut intern = |key: (StateId, StateId, u8),
                      out: &mut Buchi,
                      work: &mut VecDeque<(StateId, StateId, u8)>|
     -> Result<StateId, AutomataError> {
        if let Some(id) = index.get(&key) {
            return Ok(id);
        }
        guard.charge_state()?;
        let (p, q, copy) = key;
        let accepting = if one_copy {
            left.is_accepting(p) && right.is_accepting(q)
        } else {
            copy == 1 && left.is_accepting(p)
        };
        let id = out.add_state(accepting);
        index.intern(key);
        work.push_back(key);
        Ok(id)
    };
    let mut initials = Vec::new();
    for &p in left.initial() {
        for &q in right.initial() {
            initials.push(intern((p, q, 1), &mut out, &mut work)?);
        }
    }
    for id in initials {
        out.set_initial(id);
    }
    let mut next_id = 0;
    while let Some((p, q, copy)) = work.pop_front() {
        guard.note_frontier(work.len());
        // Keys leave the worklist in the order they were interned.
        let id = next_id;
        next_id += 1;
        let copy2 = match copy {
            1 if !one_copy && left.is_accepting(p) => 2,
            2 if right.is_accepting(q) => 1,
            c => c,
        };
        for a in left.alphabet().symbols() {
            for p2 in left.successors(p, a) {
                for q2 in right.successors(q, a) {
                    let nid = intern((p2, q2, copy2), &mut out, &mut work)?;
                    guard.charge_transition()?;
                    out.add_transition(id, a, nid);
                }
            }
        }
    }
    Ok(out)
}

fn states_spent(result: Result<Buchi, AutomataError>) -> u64 {
    match result {
        Err(AutomataError::BudgetExceeded { spent, .. }) => spent,
        other => panic!("expected a state-budget trip, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn product_equals_the_symbol_major_product(pair in pair_strategy()) {
        let (l, r) = pair;
        let fast = l.intersection_with(&r, &Guard::unlimited()).expect("same alphabet");
        let slow = symbol_major_product(&l, &r, &Guard::unlimited()).expect("unlimited");
        prop_assert_eq!(&fast, &slow);

        // One state short of the product: both trip at the same charge.
        let n = slow.state_count();
        let budget = || Guard::new(Budget::unlimited().with_max_states(n - 1));
        prop_assert_eq!(
            states_spent(l.intersection_with(&r, &budget())),
            states_spent(symbol_major_product(&l, &r, &budget()))
        );
    }

    #[test]
    fn one_copy_product_has_the_two_copy_language(
        pair in pair_strategy(),
        left_accepts_everywhere in proptest::sample::select(&[true, false]),
    ) {
        let (l, r) = pair;
        let (l, r) = if left_accepts_everywhere {
            (accepting_everywhere(&l), r)
        } else {
            (l, accepting_everywhere(&r))
        };
        let one = l.intersection(&r).expect("same alphabet");
        let two = two_copy_product(&l, &r);
        prop_assert!(one.state_count() <= two.state_count());
        prop_assert_eq!(one.is_empty_language(), two.is_empty_language());
        for (witness, other) in [(one.accepted_upword(), &two), (two.accepted_upword(), &one)] {
            if let Some(w) = witness {
                prop_assert!(other.accepts_upword(&w), "witness {:?} rejected", w);
                prop_assert!(l.accepts_upword(&w) && r.accepts_upword(&w));
            }
        }
    }

    #[test]
    fn transitions_are_sorted_and_successors_are_their_slices(b in buchi_strategy()) {
        let all: Vec<(StateId, Symbol, StateId)> = b.transitions().collect();
        prop_assert!(all.windows(2).all(|w| w[0] < w[1]), "not strictly sorted: {:?}", all);
        prop_assert_eq!(all.len(), b.transition_count());
        for q in 0..b.state_count() {
            for a in b.alphabet().symbols() {
                let listed: Vec<StateId> = b.successors(q, a).collect();
                let filtered: Vec<StateId> = all
                    .iter()
                    .filter(|&&(p, c, _)| p == q && c == a)
                    .map(|&(_, _, to)| to)
                    .collect();
                prop_assert_eq!(listed, filtered);
            }
        }
    }

    #[test]
    fn the_emptiness_witness_is_accepted(pair in pair_strategy()) {
        let (l, r) = pair;
        for b in [l.intersection(&r).expect("same alphabet"), l, r] {
            if let Some(w) = b.accepted_upword() {
                prop_assert!(b.accepts_upword(&w), "witness {:?} rejected", w);
            }
        }
    }
}
