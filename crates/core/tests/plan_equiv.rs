//! Differential tests pinning [`CheckPlan`] to the paper's definitions.
//!
//! On small random Büchi systems — limit-closed ones (every state
//! accepting, like the behaviors of a transition system) and ones with
//! non-accepting states — and a fixed set of formulas, the plan's three
//! verdicts must equal:
//!
//! * Definition 3.2 read literally: emptiness of `L_ω ∩ ¬P`;
//! * Lemma 4.3: `pre(L_ω) ⊆ pre(L_ω ∩ P)` on the *determinized* prefix
//!   automata (`dfa_included`);
//! * Lemma 4.4: emptiness of `L_ω ∩ lim(pre(L_ω ∩ P)) ∩ ¬P`, the limit
//!   taken on the determinized prefix automaton (`limit_of_dfa`);
//!
//! and the standalone `*_with` wrappers. Every witness must be
//! semantically valid, and every automaton the plan shares must be built
//! at most once.

use proptest::prelude::*;
use rl_automata::{dfa_included, Alphabet, Guard, MetricsRegistry, Symbol};
use rl_buchi::{limit_of_dfa, limit_of_prefix_closed, Buchi};
use rl_core::{
    is_relative_liveness_with, is_relative_safety_with, satisfies_with, CheckPlan, CheckVerdicts,
    Property,
};
use rl_logic::parse;

const FORMULAS: [&str; 10] = [
    "[]<>a",
    "<>[]b",
    "[]a",
    "<>b",
    "a U b",
    "X a",
    "[](a -> <>b)",
    "[]<>a & <>[]b",
    "true",
    "false",
];

/// A random Büchi automaton over `{a, b}` with `n` states; when
/// `all_accepting` every state accepts (a limit-closed language).
fn system_strategy(n: usize) -> impl Strategy<Value = Buchi> {
    let transitions = proptest::collection::vec((0..n, 0..2usize, 0..n), 1..=(3 * n));
    let accepting = proptest::collection::vec(0..n, 0..=n);
    let initial = proptest::collection::vec(0..n, 1..=2);
    (transitions, accepting, initial, 0..2u8).prop_map(move |(ts, acc, init, all_accepting)| {
        let acc = if all_accepting == 1 {
            (0..n).collect()
        } else {
            acc
        };
        Buchi::from_parts(
            Alphabet::new(["a", "b"]).expect("valid alphabet"),
            n,
            init,
            acc,
            ts.into_iter()
                .map(|(p, s, q)| (p, Symbol::from_index(s), q)),
        )
        .expect("indices in range")
    })
}

/// The three verdicts computed literally from the definitions, sharing no
/// decision code with the plan.
fn literal(system: &Buchi, prop: &Property) -> (bool, bool, bool) {
    let ab = system.alphabet();
    let p = prop.to_buchi(ab).expect("translates");
    let neg = prop.negation_to_buchi(ab).expect("translates");
    let classical = system
        .intersection(&neg)
        .expect("same alphabet")
        .is_empty_language();
    let both = system.intersection(&p).expect("same alphabet");
    let pre_l = system.prefix_nfa().determinize();
    let pre_lp = both.prefix_nfa().determinize();
    let live = dfa_included(&pre_l, &pre_lp).is_none();
    let safe = system
        .intersection(&limit_of_dfa(&pre_lp))
        .and_then(|b| b.intersection(&neg))
        .expect("same alphabet")
        .is_empty_language();
    (classical, live, safe)
}

fn bits(v: &CheckVerdicts) -> (bool, bool, bool) {
    (v.classical.holds, v.liveness.holds, v.safety.holds)
}

/// Every witness the plan reports is a genuine one.
fn assert_witnesses_valid(system: &Buchi, prop: &Property, v: &CheckVerdicts) {
    let ab = system.alphabet();
    let neg = prop.negation_to_buchi(ab).expect("translates");
    let both = system
        .intersection(&prop.to_buchi(ab).expect("translates"))
        .expect("same alphabet");
    if let Some(x) = &v.classical.counterexample {
        assert!(system.accepts_upword(x), "counterexample not in L: {x:?}");
        assert!(neg.accepts_upword(x), "counterexample satisfies P: {x:?}");
    }
    if let Some(w) = &v.liveness.doomed_prefix {
        assert!(system.prefix_nfa().accepts(w), "doomed {w:?} not in pre(L)");
        assert!(!both.prefix_nfa().accepts(w), "doomed {w:?} in pre(L ∩ P)");
    }
    if let Some(x) = &v.safety.escaping_behavior {
        assert!(system.accepts_upword(x), "escape not in L: {x:?}");
        assert!(neg.accepts_upword(x), "escape satisfies P: {x:?}");
        assert!(
            limit_of_prefix_closed(&both.prefix_nfa()).accepts_upword(x),
            "escape not in lim(pre(L ∩ P)): {x:?}"
        );
    }
    assert_eq!(v.classical.holds, v.classical.counterexample.is_none());
    assert_eq!(v.liveness.holds, v.liveness.doomed_prefix.is_none());
    assert_eq!(v.safety.holds, v.safety.escaping_behavior.is_none());
}

/// Span records named `name` in a registry.
fn spans(reg: &MetricsRegistry, name: &str) -> usize {
    reg.records().iter().filter(|r| r.name == name).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn plan_matches_the_definitions_and_the_wrappers(
        system in prop_oneof![system_strategy(1), system_strategy(2), system_strategy(3), system_strategy(4)],
        formula in 0..FORMULAS.len(),
    ) {
        let prop = Property::formula(parse(FORMULAS[formula]).expect("parses"));
        let want = literal(&system, &prop);
        for lazy in [true, false] {
            let guard = Guard::unlimited().with_lazy(lazy);
            let v = CheckPlan::new(&system, &prop, &guard).decide().expect("decides");
            prop_assert_eq!(bits(&v), want, "lazy {}", lazy);
            assert_witnesses_valid(&system, &prop, &v);
            // The standalone wrappers decide the same verdicts; the
            // classical and liveness witnesses come from the same code.
            let sat = satisfies_with(&system, &prop, &guard).expect("classical");
            let live = is_relative_liveness_with(&system, &prop, &guard).expect("rel-live");
            let safe = is_relative_safety_with(&system, &prop, &guard).expect("rel-safe");
            prop_assert_eq!(&sat, &v.classical);
            prop_assert_eq!(&live, &v.liveness);
            prop_assert_eq!(safe.holds, v.safety.holds);
            assert_witnesses_valid(
                &system,
                &prop,
                &CheckVerdicts { classical: sat, liveness: live, safety: safe },
            );
        }
    }

    #[test]
    fn plan_builds_each_automaton_once(
        system in system_strategy(4),
        formula in 0..FORMULAS.len(),
    ) {
        let prop = Property::formula(parse(FORMULAS[formula]).expect("parses"));
        let reg = MetricsRegistry::new();
        let guard = Guard::unlimited().with_metrics(reg.clone());
        let v = CheckPlan::new(&system, &prop, &guard).decide().expect("decides");
        // ¬P and P are each translated at most once; pre(L) and
        // pre(L ∩ P) are each built at most once, as are the three
        // products L ∩ ¬P, L ∩ P and the Lemma 4.4 violation product.
        prop_assert_eq!(spans(&reg, "negation"), 1);
        prop_assert!(spans(&reg, "translate") <= 1);
        prop_assert!(spans(&reg, "prefix") <= 2);
        prop_assert!(spans(&reg, "buchi_intersection") <= 3);
        if v.classical.holds {
            // Theorem 4.7 settles both relative verdicts: P is never
            // translated and no relative product is built.
            prop_assert_eq!(spans(&reg, "translate"), 0);
            prop_assert_eq!(spans(&reg, "buchi_intersection"), 1);
        } else if v.liveness.holds {
            // Rel-safe fails by Theorem 4.7, with the classical
            // counterexample as its escape: no Lemma 4.4 product.
            prop_assert_eq!(spans(&reg, "buchi_intersection"), 2);
            prop_assert_eq!(&v.safety.escaping_behavior, &v.classical.counterexample);
        }
        // Every verdict's span is open in the tree, decided or not.
        for name in ["classical", "relative_liveness", "relative_safety"] {
            prop_assert_eq!(spans(&reg, name), 1, "{}", name);
        }
    }
}

#[test]
fn standalone_relative_safety_keeps_l_when_it_is_not_limit_closed() {
    // L_ω = □◇a: a non-accepting state makes lim(pre(L_ω)) = Σ^ω ⊋ L_ω, so
    // dropping the L_ω factor would report b^ω as an escape. P = □◇a holds
    // on all of L_ω, hence is relatively safe.
    let ab = Alphabet::new(["a", "b"]).expect("valid alphabet");
    let (a, b) = (Symbol::from_index(0), Symbol::from_index(1));
    let system = Buchi::from_parts(
        ab,
        2,
        [0],
        [0],
        [(0, a, 0), (0, b, 1), (1, a, 0), (1, b, 1)],
    )
    .expect("indices in range");
    let prop = Property::formula(parse("[]<>a").expect("parses"));
    let guard = Guard::unlimited();
    let safe = is_relative_safety_with(&system, &prop, &guard).expect("rel-safe");
    assert!(safe.holds, "escape {:?}", safe.escaping_behavior);
    assert_eq!(literal(&system, &prop), (true, true, true));
}
