//! Second wave of property-based tests: abstraction invariants, execution
//! fairness, the probabilistic module, ω-operations, and the CTL*-fragment
//! correspondence.

use proptest::prelude::*;
use relative_liveness::prelude::*;

const SIGMA3: [&str; 3] = ["a", "b", "tau"];

fn alphabet2() -> Alphabet {
    Alphabet::new(["a", "b"]).unwrap()
}

fn alphabet3() -> Alphabet {
    Alphabet::new(SIGMA3).unwrap()
}

/// Random TS over {a,b,tau}; may contain deadlocks.
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

/// Random *deterministic*, deadlock-free TS over {a,b}: per (state, symbol)
/// at most one successor, and every state keeps at least one edge.
fn det_ts_strategy(n: usize) -> impl Strategy<Value = TransitionSystem> {
    let cells = proptest::collection::vec(proptest::option::of(0..n), 2 * n);
    (cells, proptest::collection::vec(0..n, n)).prop_map(move |(cells, fallback)| {
        let ab = alphabet2();
        let mut sys = TransitionSystem::new(ab);
        for _ in 0..n {
            sys.add_state();
        }
        sys.set_initial(0);
        for q in 0..n {
            for s in 0..2usize {
                if let Some(t) = cells[q * 2 + s] {
                    sys.add_transition(q, Symbol::from_index(s), t);
                }
            }
            if sys.enabled(q).is_empty() {
                sys.add_transition(q, Symbol::from_index(0), fallback[q]);
            }
        }
        sys
    })
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The identity homomorphism is simple on every prefix-closed language.
    #[test]
    fn identity_homomorphism_always_simple(ts in ts_strategy(4)) {
        let ab = ts.alphabet().clone();
        let h = Homomorphism::new(&ab, &ab, |n| Some(n.to_owned())).unwrap();
        let report = check_simplicity(&h, &ts.to_nfa()).unwrap();
        prop_assert!(report.simple);
    }

    /// abstract_behavior generates exactly h(L): language equality of the
    /// determinized image and the generated system's language.
    #[test]
    fn abstract_behavior_generates_image_language(ts in ts_strategy(4)) {
        let h = Homomorphism::hiding(ts.alphabet(), ["a", "b"]).unwrap();
        let image = image_nfa(&h, &ts.to_nfa());
        let abs = abstract_behavior(&h, &ts);
        prop_assert!(dfa_equivalent(
            &image.determinize(),
            &abs.to_nfa().determinize()
        ));
    }

    /// Inverse image: w ∈ h⁻¹(L') ⟺ h(w) ∈ L', brute-forced on short words.
    #[test]
    fn inverse_image_pointwise(ts in ts_strategy(3)) {
        let h = Homomorphism::hiding(ts.alphabet(), ["a", "b"]).unwrap();
        // L' = image of the system language (arbitrary non-trivial choice).
        let lp = image_nfa(&h, &ts.to_nfa());
        let inv = inverse_image_nfa(&h, &lp);
        // Enumerate concrete words up to length 4.
        let ab = ts.alphabet().clone();
        let mut words: Vec<Vec<Symbol>> = vec![vec![]];
        let mut layer: Vec<Vec<Symbol>> = vec![vec![]];
        for _ in 0..4 {
            let mut next = Vec::new();
            for w in &layer {
                for s in ab.symbols() {
                    let mut w2 = w.clone();
                    w2.push(s);
                    words.push(w2.clone());
                    next.push(w2);
                }
            }
            layer = next;
        }
        for w in words {
            let img = h.apply_word(&w);
            prop_assert_eq!(inv.accepts(&w), lp.accepts(&img), "word {:?}", w);
        }
    }

    /// The #-extension always removes maximal words.
    #[test]
    fn hash_extension_removes_maximal_words(ts in ts_strategy(4)) {
        let h = Homomorphism::hiding(ts.alphabet(), ["a", "b"]).unwrap();
        let image = image_nfa(&h, &ts.to_nfa());
        let extended = extend_with_hash(&image).unwrap();
        prop_assert!(!has_maximal_words(&extended));
    }

    /// The aging scheduler is empirically strongly fair: on deadlock-free
    /// deterministic systems, every transition whose source is visited
    /// often is taken a positive fraction of the time.
    #[test]
    fn aging_scheduler_is_fair(ts in det_ts_strategy(4)) {
        let r = run(&ts, &mut AgingScheduler::new(), 400);
        prop_assert!(!r.deadlocked);
        prop_assert!(min_fairness_ratio(&ts, &r, 50) > 0.0);
    }

    /// Sampled lassos are always genuine behaviors of the system.
    #[test]
    fn sampled_lassos_are_behaviors(ts in det_ts_strategy(4), seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        if let Some(w) = sample_lasso(&ts, &mut rng, 64) {
            let unrolled = w.unroll(w.lasso_len() + 2 * w.period().len());
            prop_assert!(ts.admits(&unrolled));
        }
    }

    /// Exact Markov recurrence agrees with sign of the Monte-Carlo estimate
    /// on deterministic deadlock-free systems: probability 0 ⇒ estimate
    /// (almost) 0; probability 1 ⇒ estimate (near) 1.
    #[test]
    fn markov_vs_montecarlo(ts in det_ts_strategy(3)) {
        let a = ts.alphabet().symbol("a").unwrap();
        let p = probability_of_recurrence(&ts, a);
        let lam = Labeling::canonical(ts.alphabet());
        let est = estimate_satisfaction(&ts, &parse("[]<>a").unwrap(), &lam, 200, 9);
        if p < 1e-9 {
            prop_assert!(est.probability < 0.2, "p=0 but estimate {}", est.probability);
        }
        if p > 1.0 - 1e-9 {
            prop_assert!(est.probability > 0.8, "p=1 but estimate {}", est.probability);
        }
    }

    /// ∀□∃◇-recurrence coincides with relative liveness of □◇a on
    /// deterministic systems.
    #[test]
    fn ctl_fragment_matches_relative_liveness(ts in det_ts_strategy(4)) {
        let a = ts.alphabet().symbol("a").unwrap();
        let ctl = forall_always_recurrently(&ts, a).is_none();
        let rl = is_relative_liveness_of_ts(
            &ts,
            &Property::formula(parse("[]<>a").unwrap()),
        )
        .unwrap()
        .holds;
        prop_assert_eq!(ctl, rl);
    }

    /// ω-inclusion is sound: when it reports inclusion, sampled members of
    /// the left language belong to the right one; its counterexample is
    /// genuine otherwise.
    #[test]
    fn omega_inclusion_sound(x in ts_strategy(3), y in ts_strategy(3)) {
        let bx = behaviors_of_ts(&x);
        let by = behaviors_of_ts(&y);
        match omega_included(&bx, &by).unwrap() {
            None => {
                if let Some(w) = bx.accepted_upword() {
                    prop_assert!(by.accepts_upword(&w));
                }
            }
            Some(w) => {
                prop_assert!(bx.accepts_upword(&w));
                prop_assert!(!by.accepts_upword(&w));
            }
        }
    }

    /// The Cantor distance is an ultrametric on random word triples.
    #[test]
    fn cantor_ultrametric(
        x in upword_strategy(2),
        y in upword_strategy(2),
        z in upword_strategy(2),
    ) {
        let dxy = cantor_distance(&x, &y);
        let dyz = cantor_distance(&y, &z);
        let dxz = cantor_distance(&x, &z);
        prop_assert!(dxz <= dxy.max(dyz) + 1e-12);
        prop_assert_eq!(dxy, cantor_distance(&y, &x));
        prop_assert_eq!(cantor_distance(&x, &x.clone()), 0.0);
    }

    /// UpWord canonical equality is reflexive/symmetric and consistent with
    /// the distance being zero.
    #[test]
    fn upword_equality_consistency(x in upword_strategy(2), y in upword_strategy(2)) {
        prop_assert!(x.same_word(&x.clone()));
        prop_assert_eq!(x.same_word(&y), y.same_word(&x));
        prop_assert_eq!(x.same_word(&y), cantor_distance(&x, &y) == 0.0);
        // Unrollings of equal words agree everywhere (spot-check 12 letters).
        if x.same_word(&y) {
            prop_assert_eq!(x.unroll(12), y.unroll(12));
        }
    }

    /// Resource governance never changes answers: a budgeted check either
    /// returns the same verdict as the unbudgeted one or fails with a budget
    /// error — it never reports a *different* verdict.
    #[test]
    fn budgeted_check_never_lies(ts in ts_strategy(4), max_states in 1usize..400) {
        let p = Property::formula(parse("[]<>a").unwrap());
        let truth = is_relative_liveness_of_ts(&ts, &p).unwrap().holds;
        let guard = Guard::new(Budget::unlimited().with_max_states(max_states));
        match is_relative_liveness_of_ts_with(&ts, &p, &guard) {
            Ok(verdict) => prop_assert_eq!(verdict.holds, truth),
            Err(e) => {
                let e = CheckError::from(e);
                prop_assert!(
                    matches!(
                        e,
                        CheckError::BudgetExceeded { .. } | CheckError::Cancelled { .. }
                    ),
                    "budgeted run failed with a non-budget error: {}", e
                );
            }
        }
    }

    /// The fair-implementation synthesis preserves behaviors whenever the
    /// property is relatively live (random systems × a small formula pool).
    #[test]
    fn synthesis_roundtrip_random(ts in det_ts_strategy(3), pick in 0usize..4) {
        let texts = ["[]<>a", "<>a", "a U b", "<>(a & X b)"];
        let eta = parse(texts[pick]).unwrap();
        let p = Property::formula(eta);
        match synthesize_fair_implementation(&ts, &p) {
            Ok(imp) => {
                prop_assert!(rl_core::implementation_faithful(&ts, &imp.system));
            }
            Err(CoreError::Precondition(_)) => {
                // Property was not relatively live: verify that's the truth.
                let rl = is_relative_liveness_of_ts(&ts, &p).unwrap();
                prop_assert!(!rl.holds);
            }
            Err(other) => prop_assert!(false, "unexpected error {other}"),
        }
    }
}

// ---------- regex layer ----------

/// Random regex over a 2-letter alphabet.
fn regex_strategy() -> BoxedStrategy<rl_automata::Regex> {
    use rl_automata::Regex;
    let ab = alphabet2();
    let a = ab.symbol("a").unwrap();
    let b = ab.symbol("b").unwrap();
    let leaf = prop_oneof![
        Just(Regex::Epsilon),
        Just(Regex::Empty),
        Just(Regex::symbol(&ab, a)),
        Just(Regex::symbol(&ab, b)),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| x.then(y)),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| x.or(y)),
            inner.prop_map(|x| x.star()),
        ]
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Thompson construction and Brzozowski derivatives agree (exhaustive
    /// on words up to length 5).
    #[test]
    fn regex_nfa_matches_derivatives(re in regex_strategy()) {
        let ab = alphabet2();
        let nfa = re.to_nfa_over(&ab).unwrap();
        let mut layer: Vec<Vec<Symbol>> = vec![vec![]];
        for len in 0..=5usize {
            for w in &layer {
                prop_assert_eq!(nfa.accepts(w), re.matches(w), "re {} word {:?}", re, w);
            }
            if len < 5 {
                let mut next = Vec::new();
                for w in &layer {
                    for s in ab.symbols() {
                        let mut w2 = w.clone();
                        w2.push(s);
                        next.push(w2);
                    }
                }
                layer = next;
            }
        }
    }

    /// Simplification preserves PLTL semantics on random formula/word pairs.
    #[test]
    fn simplify_preserves_semantics(
        f in formula_pool(),
        w in upword_strategy(2),
    ) {
        let lam = Labeling::canonical(&alphabet2());
        let s = simplify(&f);
        prop_assert!(s.size() <= f.size());
        prop_assert_eq!(evaluate(&f, &w, &lam), evaluate(&s, &w, &lam), "formula {}", f);
    }
}

/// Random formulas reusing the pool from the primary proptest file (local
/// copy — integration tests cannot share modules).
fn formula_pool() -> BoxedStrategy<Formula> {
    let leaf = prop_oneof![
        Just(Formula::True),
        Just(Formula::False),
        Just(Formula::atom("a")),
        Just(Formula::atom("b")),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Compositional abstraction agrees with the monolithic construction on
    /// random component pairs with local hidden actions.
    #[test]
    fn compositional_matches_monolithic(
        t1 in proptest::collection::vec((0..3usize, 0..2usize, 0..3usize), 1..8),
        t2 in proptest::collection::vec((0..3usize, 0..2usize, 0..3usize), 1..8),
    ) {
        // Component 1 over {shared, tau1}; component 2 over {shared, tau2}.
        let mk = |names: [&str; 2], edges: &[(usize, usize, usize)]| {
            let ab = Alphabet::new(names).unwrap();
            let mut ts = TransitionSystem::new(ab);
            for _ in 0..3 {
                ts.add_state();
            }
            ts.set_initial(0);
            for &(p, s, q) in edges {
                ts.add_transition(p, Symbol::from_index(s), q);
            }
            ts
        };
        let c1 = mk(["shared", "tau1"], &t1);
        let c2 = mk(["shared", "tau2"], &t2);
        let composite = c1.compose(&c2).unwrap();
        let h = Homomorphism::hiding(composite.alphabet(), ["shared"]).unwrap();
        let mono = abstract_behavior(&h, &composite);
        let comp = compositional_abstract_behavior(&[c1, c2], &h).unwrap();
        prop_assert_eq!(mono.alphabet(), comp.alphabet());
        prop_assert!(dfa_equivalent(
            &mono.to_nfa().determinize(),
            &comp.to_nfa().determinize()
        ));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The recurrence-strengthened ∀□∃◇ check implies the plain one (a
    /// recurrently reachable action is in particular reachable).
    #[test]
    fn ctl_recurrent_implies_reachable(ts in ts_strategy(4)) {
        let a = ts.alphabet().symbol("a").unwrap();
        if forall_always_recurrently(&ts, a).is_none() {
            prop_assert_eq!(forall_always_exists_eventually(&ts, a), None);
        }
    }

    /// Weak until agrees with its defining identity (ξ U ζ) ∨ □ξ on random
    /// operands and lassos, through both evaluation and translation.
    #[test]
    fn weak_until_identity(w in upword_strategy(2)) {
        let lam = Labeling::canonical(&alphabet2());
        let weak = parse("a W b").unwrap();
        let def = parse("(a U b) | []a").unwrap();
        prop_assert_eq!(evaluate(&weak, &w, &lam), evaluate(&def, &w, &lam));
        let aut = formula_to_buchi(&weak, &lam);
        prop_assert_eq!(aut.accepts_upword(&w), evaluate(&def, &w, &lam));
    }

    /// JSON round-trips preserve NFA languages on random machines.
    #[test]
    fn serde_nfa_roundtrip(raw in proptest::collection::vec((0..4usize, 0..2usize, 0..4usize), 0..12)) {
        let ab = alphabet2();
        let nfa = Nfa::from_parts(
            ab,
            4,
            [0],
            [1, 3],
            raw.into_iter().map(|(p, s, q)| (p, Symbol::from_index(s), q)),
        )
        .unwrap();
        let json = relative_liveness::json::to_string(&nfa).unwrap();
        let back: Nfa = relative_liveness::json::from_str(&json).unwrap();
        prop_assert!(dfa_equivalent(&nfa.determinize(), &back.determinize()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Simulation is sound for language inclusion on random systems.
    #[test]
    fn simulation_implies_trace_inclusion(
        spec in ts_strategy(4),
        imp in ts_strategy(4),
    ) {
        if simulates(&spec, &imp) {
            prop_assert!(
                dfa_included(&imp.to_nfa().determinize(), &spec.to_nfa().determinize())
                    .is_none()
            );
        }
    }

    /// The largest simulation is reflexive and transitive (preorder laws)
    /// on a random system against itself.
    #[test]
    fn simulation_is_a_preorder(ts in ts_strategy(4)) {
        let rel = largest_simulation(&ts, &ts);
        for q in 0..ts.state_count() {
            prop_assert!(rel.contains(&(q, q)), "reflexivity at {q}");
        }
        for &(a, b) in &rel {
            for &(b2, c) in &rel {
                if b == b2 {
                    prop_assert!(rel.contains(&(a, c)), "transitivity {a}≤{b}≤{c}");
                }
            }
        }
    }
}

/// The nine shipped fixtures, as text.
const FIXTURES: [&str; 9] = [
    include_str!("../examples/systems/abp.ts"),
    include_str!("../examples/systems/clock.ts"),
    include_str!("../examples/systems/filter_fallthrough.ts"),
    include_str!("../examples/systems/filter_mod3.ts"),
    include_str!("../examples/systems/filter_parikh.ts"),
    include_str!("../examples/systems/filter_sim.ts"),
    include_str!("../examples/systems/needle24.ts"),
    include_str!("../examples/systems/server.pn"),
    include_str!("../examples/systems/server_err.pn"),
];

/// What the `system` text of `ts` keeps, whatever the state numbering: the
/// alphabet, the initial state's label, the state count and every
/// transition by labels.
type Labeled = (Vec<String>, String, usize, Vec<(String, String, String)>);

fn labeled(ts: &TransitionSystem) -> Labeled {
    let name = |q| ts.state_label(q).unwrap_or_default();
    let mut edges: Vec<_> = ts
        .transitions()
        .map(|(p, a, q)| (name(p), ts.alphabet().name(a).to_string(), name(q)))
        .collect();
    edges.sort();
    edges.dedup();
    (
        ts.alphabet().names(),
        name(ts.initial()),
        ts.state_count(),
        edges,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Malformed input never panics: a fixture with lines truncated,
    /// deleted or duplicated parses to `Ok` or `Err`, and every `Ok`
    /// survives `render_system` → `parse_system` as the same system.
    #[test]
    fn mangled_fixtures_parse_or_fail_cleanly(
        fixture in 0..9usize,
        edits in proptest::collection::vec((0..3usize, 0..1000usize, 0..24usize), 1..4),
    ) {
        use relative_liveness::format::{parse_system, render_system};
        let mut lines: Vec<String> = FIXTURES[fixture].lines().map(str::to_owned).collect();
        for (op, at, cut) in edits {
            if lines.is_empty() {
                break;
            }
            let at = at % lines.len();
            match op {
                0 => {
                    lines.truncate(at + 1);
                    let keep = lines[at].char_indices().nth(cut).map_or(lines[at].len(), |(i, _)| i);
                    lines[at].truncate(keep);
                }
                1 => drop(lines.remove(at)),
                _ => lines.insert(at, lines[at].clone()),
            }
        }
        let text = lines.join("\n");
        let parsed = std::panic::catch_unwind(|| parse_system(&text));
        prop_assert!(parsed.is_ok(), "parse_system panicked on {text:?}");
        if let Ok(Ok(ts)) = parsed {
            let rendered = render_system(&ts);
            let back = parse_system(&rendered);
            prop_assert!(back.is_ok(), "{rendered:?} does not parse: {back:?}");
            prop_assert_eq!(labeled(&back.expect("checked")), labeled(&ts));
        }
    }
}

/// Grammar tokens of the LTL syntax, plus a few near misses the lexer
/// rejects.
const LTL_TOKENS: [&str; 28] = [
    "(", ")", "!", "&", "&&", "|", "||", "->", "<->", "X", "F", "G", "[]", "<>", "U", "R", "B",
    "W", "true", "false", "a", "b", "-", "<", "[", "@", " ", "_x1",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Malformed LTL never panics: a formula's text truncated, with a
    /// slice duplicated or a grammar token spliced in, and soups of grammar
    /// tokens all parse to `Ok` or `Err`. Every `Ok` prints back to text
    /// that parses to the same formula.
    #[test]
    fn malformed_ltl_parses_or_fails_cleanly(
        f in formula_pool(),
        edits in proptest::collection::vec((0..3usize, 0..64usize, 0..64usize, 0..28usize), 0..4),
        soup in proptest::collection::vec(0..28usize, 0..16),
        spaced in 0..2usize,
    ) {
        let mut chars: Vec<char> = f.to_string().chars().collect();
        for (op, at, len, token) in edits {
            let at = at % (chars.len() + 1);
            match op {
                0 => chars.truncate(at),
                1 => {
                    let end = (at + len).min(chars.len());
                    let slice = chars[at..end].to_vec();
                    chars.splice(at..at, slice);
                }
                _ => {
                    chars.splice(at..at, LTL_TOKENS[token].chars());
                }
            }
        }
        let mangled: String = chars.into_iter().collect();
        let soup = soup
            .into_iter()
            .map(|t| LTL_TOKENS[t])
            .collect::<Vec<_>>()
            .join(if spaced == 1 { " " } else { "" });
        for text in [mangled, soup] {
            let parsed = std::panic::catch_unwind(|| parse(&text));
            prop_assert!(parsed.is_ok(), "parse panicked on {text:?}");
            if let Ok(Ok(g)) = parsed {
                prop_assert_eq!(parse(&g.to_string()), Ok(g), "{}", text);
            }
        }
    }
}
