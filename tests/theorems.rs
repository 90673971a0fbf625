//! Executable checks for every numbered result of the paper (experiments
//! E8–E12 of DESIGN.md, deterministic instances; the randomized versions
//! live in tests/proptests.rs).

use relative_liveness::prelude::*;

fn ab2() -> (Alphabet, Symbol, Symbol) {
    let ab = Alphabet::new(["a", "b"]).unwrap();
    (ab.clone(), ab.symbol("a").unwrap(), ab.symbol("b").unwrap())
}

/// Lemma 4.3: `P` rel-live ⟺ `pre(L) = pre(L ∩ P)` — cross-checked on both
/// a holding and a failing instance by computing the prefix languages
/// explicitly.
#[test]
fn lemma_4_3_characterization() {
    let (ab, a, b) = ab2();
    let system = Buchi::universal(ab.clone());
    let p = Property::formula(parse("[]<>a").unwrap());
    let p_aut = p.to_buchi(&ab).unwrap();
    let both = system.intersection(&p_aut).unwrap();
    let pre_l = system.prefix_nfa().determinize();
    let pre_lp = both.prefix_nfa().determinize();
    assert!(dfa_equivalent(&pre_l, &pre_lp));
    assert!(is_relative_liveness(&system, &p).unwrap().holds);

    // Failing case: system = a^ω ∪ b^ω, P = ◇a.
    let sys2 = Buchi::from_parts(ab.clone(), 2, [0, 1], [0, 1], [(0, a, 0), (1, b, 1)]).unwrap();
    let q = Property::formula(parse("<>a").unwrap());
    let q_aut = q.to_buchi(&ab).unwrap();
    let both2 = sys2.intersection(&q_aut).unwrap();
    assert!(!dfa_equivalent(
        &sys2.prefix_nfa().determinize(),
        &both2.prefix_nfa().determinize()
    ));
    assert!(!is_relative_liveness(&sys2, &q).unwrap().holds);
}

/// Lemma 4.4 / relative safety: hand-checked instances.
#[test]
fn lemma_4_4_relative_safety() {
    let (ab, a, b) = ab2();
    // System (ab)^ω: within it, "always (a implies next b)" is rel-safe
    // (it holds outright), and □◇a is also satisfied hence rel-safe.
    let sys = Buchi::from_parts(ab.clone(), 2, [0], [0, 1], [(0, a, 1), (1, b, 0)]).unwrap();
    for text in ["[](a -> X b)", "[]<>a", "[]<>b"] {
        let p = Property::formula(parse(text).unwrap());
        assert!(is_relative_safety(&sys, &p).unwrap().holds, "{text}");
        assert!(satisfies(&sys, &p).unwrap().holds, "{text}");
    }
    // Over Σ^ω, □◇a is NOT rel-safe (liveness is never safety, except ⊤).
    let univ = Buchi::universal(ab);
    let p = Property::formula(parse("[]<>a").unwrap());
    let v = is_relative_safety(&univ, &p).unwrap();
    assert!(!v.holds);
    assert!(v.escaping_behavior.is_some());
}

/// Theorem 4.5, decidability half: the deciders agree with brute-force
/// prefix enumeration on a nontrivial system.
#[test]
fn theorem_4_5_decider_vs_bruteforce() {
    let ts = server_behaviors();
    let behaviors = behaviors_of_ts(&ts);
    let p = Property::formula(parse("[]<>result").unwrap());
    let p_aut = p.to_buchi(ts.alphabet()).unwrap();
    let both = behaviors.intersection(&p_aut).unwrap();
    // Brute force: every firing sequence up to length 6 must be a prefix of
    // some behavior in L ∩ P.
    let pre_lp = both.prefix_nfa();
    for w in ts.firing_sequences_up_to(6) {
        assert!(
            pre_lp.accepts(&w),
            "prefix {} not extendable into P",
            format_word(ts.alphabet(), &w)
        );
    }
    assert!(is_relative_liveness(&behaviors, &p).unwrap().holds);
}

/// Theorem 4.7: `L ⊆ P` ⟺ rel-safe ∧ rel-live — deterministic matrix.
#[test]
fn theorem_4_7_decomposition() {
    let (ab, a, b) = ab2();
    // System: (ab)^ω ∪ a^ω.
    let sys = Buchi::from_parts(ab, 3, [0, 2], [0, 2], [(0, a, 1), (1, b, 0), (2, a, 2)]).unwrap();
    let cases = [
        // (formula, satisfied, rel-live, rel-safe)
        ("[]<>a", true, true, true),
        // the a^ω branch dooms any b-requirement: prefix "aa" has only a^ω
        // as continuation, so <>b is rel-safe (the violation is locally
        // observable) but not rel-live.
        ("<>b", false, false, true),
        ("[]b", false, false, true), // fails at position 0: safety-style
        ("a", true, true, true),
    ];
    for (text, sat, rl, rs) in cases {
        let p = Property::formula(parse(text).unwrap());
        assert_eq!(satisfies(&sys, &p).unwrap().holds, sat, "{text} sat");
        assert_eq!(
            is_relative_liveness(&sys, &p).unwrap().holds,
            rl,
            "{text} rel-live"
        );
        assert_eq!(
            is_relative_safety(&sys, &p).unwrap().holds,
            rs,
            "{text} rel-safe"
        );
        assert_eq!(sat, rl && rs, "{text} theorem 4.7");
    }
    // The remaining quadrant (rel-live but not rel-safe, hence unsatisfied)
    // needs real branching: over Σ^ω, □◇a is exactly that.
    let (ab2_, _, _) = ab2();
    let univ = Buchi::universal(ab2_);
    let p = Property::formula(parse("[]<>a").unwrap());
    assert!(!satisfies(&univ, &p).unwrap().holds);
    assert!(is_relative_liveness(&univ, &p).unwrap().holds);
    assert!(!is_relative_safety(&univ, &p).unwrap().holds);
}

/// Definition 4.6 note: rel-liveness ⟺ machine closure of (L, P ∩ L).
#[test]
fn machine_closure_equivalence() {
    let (ab, a, b) = ab2();
    let sys = Buchi::from_parts(ab.clone(), 2, [0, 1], [0, 1], [(0, a, 0), (1, b, 1)]).unwrap();
    for text in ["<>a", "[]<>a", "true", "[]a | []b"] {
        let p = Property::formula(parse(text).unwrap());
        let p_aut = p.to_buchi(&ab).unwrap();
        let lam = sys.intersection(&p_aut).unwrap();
        assert_eq!(
            is_machine_closed(&sys, &lam).unwrap(),
            is_relative_liveness(&sys, &p).unwrap().holds,
            "{text}"
        );
    }
}

/// Theorem 5.1 on the paper's own Section 5 example, with the full chain:
/// synthesis, behavior preservation, and fair-run satisfaction.
#[test]
fn theorem_5_1_fair_implementation() {
    let (ab, a, b) = ab2();
    let mut minimal = TransitionSystem::new(ab.clone());
    let s = minimal.add_state();
    minimal.set_initial(s);
    minimal.add_transition(s, a, s);
    minimal.add_transition(s, b, s);

    let p = Property::formula(parse("<>(a & X a)").unwrap());
    let imp = synthesize_fair_implementation(&minimal, &p).unwrap();
    // (1) Behaviors preserved.
    assert!(rl_core::implementation_faithful(&minimal, &imp.system));
    // (2) Strictly more states: the paper's "more state information".
    assert!(imp.system.state_count() > 1);
    // (3) Strongly fair executions satisfy the property: run the aging
    // scheduler from several cold starts and check the witness appears.
    let run = rl_exec::run(&imp.system, &mut AgingScheduler::new(), 200);
    assert!(!run.deadlocked);
    assert!(
        run.word.windows(2).any(|w| w[0] == a && w[1] == a),
        "strongly fair run must realize <>(a & X a)"
    );
    // (4) Recurrent states are visited with bounded gaps.
    let gap = run.max_gap_between_visits(&imp.recurrent).unwrap();
    assert!(gap <= imp.system.state_count() * 4, "gap {gap} too large");
}

/// Lemma 7.5, automata-theoretic reading: for words with h defined,
/// satisfaction of R̄(η) under λ_h coincides with satisfaction of η on the
/// image — checked through the inverse-image automaton.
#[test]
fn lemma_7_5_inverse_image() {
    let sigma = Alphabet::new(["a", "b", "tau"]).unwrap();
    let h = Homomorphism::hiding(&sigma, ["a", "b"]).unwrap();
    let lam_h = labeling_for_homomorphism(&h);
    let eta = parse("[]<>a").unwrap();
    // Automaton route: h⁻¹(L_η).
    let abs_aut = formula_to_buchi(&eta, &Labeling::canonical(h.target()));
    let inv = inverse_image_buchi(&h, &abs_aut).unwrap();
    // Formula route: R̄(η) under λ_h, restricted to "h defined".
    let transported = r_bar(&eta, h.target()).unwrap();
    let trans_aut = formula_to_buchi(&transported, &lam_h);

    let a = sigma.symbol("a").unwrap();
    let b = sigma.symbol("b").unwrap();
    let tau = sigma.symbol("tau").unwrap();
    let words = [
        UpWord::periodic(vec![a]).unwrap(),
        UpWord::periodic(vec![tau, a]).unwrap(),
        UpWord::periodic(vec![tau, b]).unwrap(),
        UpWord::new(vec![a, tau], vec![b, tau, a]).unwrap(),
        UpWord::new(vec![tau, tau, a], vec![b]).unwrap(),
    ];
    for w in &words {
        // h(w) is defined for all samples: membership must agree.
        assert!(h.apply_upword(w).is_some());
        assert_eq!(
            inv.accepts_upword(w),
            trans_aut.accepts_upword(w),
            "word {w}"
        );
    }
    // Where h is undefined, the inverse image rejects while R̄(η) holds
    // vacuously — the two sides of Lemma 7.5's h⁻¹ restriction.
    let silent = UpWord::new(vec![a], vec![tau]).unwrap();
    assert!(!inv.accepts_upword(&silent));
    assert!(trans_aut.accepts_upword(&silent));
}

/// Lemma 8.1: `lim(h(L)) = h(lim(L))` for prefix-closed regular `L` —
/// sampled both ways on the server example.
#[test]
fn lemma_8_1_limit_commutes() {
    let ts = server_behaviors();
    let h = Homomorphism::hiding(ts.alphabet(), ["request", "result", "reject"]).unwrap();
    let conc = behaviors_of_ts(&ts);
    let abs = behaviors_of_ts(&abstract_behavior(&h, &ts));

    // ⊆: image of every concrete behavior is an abstract behavior.
    let ab = ts.alphabet().clone();
    let samples = [
        UpWord::periodic(parse_word(&ab, "request.yes.result").unwrap()).unwrap(),
        UpWord::new(
            parse_word(&ab, "lock").unwrap(),
            parse_word(&ab, "request.no.reject").unwrap(),
        )
        .unwrap(),
        UpWord::periodic(parse_word(&ab, "lock.free").unwrap()).unwrap(),
        UpWord::new(
            parse_word(&ab, "request.yes").unwrap(),
            parse_word(&ab, "lock.free.result.request.yes").unwrap(),
        )
        .unwrap(),
    ];
    for x in &samples {
        assert!(conc.accepts_upword(x), "sample not a behavior: {x}");
        // A `None` image is a silent tail: no limit image (lock.free cycle).
        if let Some(y) = h.apply_upword(x) {
            assert!(abs.accepts_upword(&y), "image not abstract: {x}");
        }
    }
    // ⊇ (the König direction): every abstract behavior has a concrete
    // preimage — check via the inverse-image automaton: lim(L) ∩ h⁻¹(y)
    // must be non-empty for sampled abstract behaviors y.
    let tb = h.target().clone();
    let abs_samples = [
        UpWord::periodic(parse_word(&tb, "request.result").unwrap()).unwrap(),
        UpWord::periodic(parse_word(&tb, "request.reject").unwrap()).unwrap(),
        UpWord::new(
            parse_word(&tb, "request.result").unwrap(),
            parse_word(&tb, "request.reject.request.result").unwrap(),
        )
        .unwrap(),
    ];
    for y in &abs_samples {
        assert!(abs.accepts_upword(y), "not an abstract behavior: {y}");
        // Singleton abstract language {y} as a Büchi automaton.
        let singleton = upword_automaton(&tb, y);
        let pre_image = inverse_image_buchi(&h, &singleton).unwrap();
        let meet = conc.intersection(&pre_image).unwrap();
        assert!(
            !meet.is_empty_language(),
            "abstract behavior {y} has no concrete preimage"
        );
    }
}

/// Builds a Büchi automaton accepting exactly the single ω-word `w`.
fn upword_automaton(ab: &Alphabet, w: &UpWord) -> Buchi {
    let len = w.lasso_len();
    let mut b = Buchi::new(ab.clone());
    for i in 0..len {
        b.add_state(i >= w.prefix().len());
    }
    b.set_initial(0);
    for i in 0..len {
        b.add_transition(i, w.at(i), w.lasso_next(i) % len);
    }
    b
}

/// Theorems 8.2 + 8.3 (Corollary 8.4) on the paper's systems, both
/// directions, cross-validated against the direct concrete check.
#[test]
fn corollary_8_4_on_paper_systems() {
    let keep = ["request", "result", "reject"];
    let eta = parse("[]<>result").unwrap();

    // Figure 2: simple ⇒ biconditional transfer.
    let good = server_behaviors();
    let h = Homomorphism::hiding(good.alphabet(), keep).unwrap();
    let analysis = verify_via_abstraction(&good, &h, &eta).unwrap();
    assert_eq!(analysis.conclusion, TransferConclusion::ConcreteHolds);
    assert!(check_transported_concrete(&good, &h, &eta).unwrap().holds);

    // Figure 3: not simple; the converse direction (Theorem 8.3) still
    // holds — concrete failure is consistent with abstract success only
    // because the implication goes concrete → abstract.
    let bad = server_err_behaviors();
    let h_bad = Homomorphism::hiding(bad.alphabet(), keep).unwrap();
    let analysis_bad = verify_via_abstraction(&bad, &h_bad, &eta).unwrap();
    assert!(matches!(
        analysis_bad.conclusion,
        TransferConclusion::InconclusiveNotSimple { .. }
    ));
    let concrete = check_transported_concrete(&bad, &h_bad, &eta).unwrap();
    assert!(!concrete.holds);
    // Theorem 8.3 (contrapositive check): had the concrete check succeeded,
    // the abstract one would have to as well. Here abstract holds, concrete
    // fails — allowed exactly because h is not simple.
    assert!(analysis_bad.abstract_verdict.holds);
}

/// Remark 1: on `L_ω = Σ^ω`, relative notions coincide with the classical
/// Alpern–Schneider ones.
#[test]
fn remark_1_classical_specialization() {
    let (ab, _, _) = ab2();
    let live = ["[]<>a", "<>a", "<>(a & X a)", "true"];
    for text in live {
        assert!(
            is_liveness_property(&Property::formula(parse(text).unwrap()), &ab).unwrap(),
            "{text} should be a liveness property"
        );
    }
    let safe = ["[]a", "a", "[](a -> X b)", "true", "false"];
    for text in safe {
        assert!(
            is_safety_property(&Property::formula(parse(text).unwrap()), &ab).unwrap(),
            "{text} should be a safety property"
        );
    }
    // ◇a is not safety; □a is not liveness.
    assert!(!is_safety_property(&Property::formula(parse("<>a").unwrap()), &ab).unwrap());
    assert!(!is_liveness_property(&Property::formula(parse("[]a").unwrap()), &ab).unwrap());
}

/// Lemmas 4.9/4.10 via the Cantor metric utilities (experiment E15).
#[test]
fn topology_lemmas() {
    let ts = server_behaviors();
    let behaviors = behaviors_of_ts(&ts);
    let ab = ts.alphabet().clone();
    let p = Property::formula(parse("[]<>result").unwrap());
    // Density (Lemma 4.9): around the paper's unfair behavior, arbitrarily
    // close P-satisfying behaviors exist.
    let lock = ab.symbol("lock").unwrap();
    let unfair = UpWord::new(vec![lock], parse_word(&ab, "request.no.reject").unwrap()).unwrap();
    assert!(
        certify_density(&behaviors, &p, std::slice::from_ref(&unfair), 8)
            .unwrap()
            .is_none()
    );
    let y = dense_witness(&behaviors, &p, &unfair, 7).unwrap().unwrap();
    assert!(cantor_distance(&unfair, &y) <= 1.0 / 8.0);
    // In the erroneous system density fails at radius index 1 (after lock).
    let bad = behaviors_of_ts(&server_err_behaviors());
    let ab_bad = server_err_behaviors().alphabet().clone();
    let lock_b = ab_bad.symbol("lock").unwrap();
    let req = ab_bad.symbol("request").unwrap();
    let no = ab_bad.symbol("no").unwrap();
    let rej = ab_bad.symbol("reject").unwrap();
    let doomed = UpWord::new(vec![lock_b], vec![req, no, rej]).unwrap();
    let fail = certify_density(&bad, &p, &[doomed], 4).unwrap();
    assert_eq!(fail.map(|(_, n)| n), Some(1));
}

/// The reconstruction finding of DESIGN.md §5.2, pinned: with the *vacuous*
/// reading of R̄, Theorem 8.3 fails on a silently-diverging system; the
/// *strict* reading `R̄(η) ∧ □◇¬ε` repairs it.
#[test]
fn theorem_8_3_requires_strict_r_bar() {
    // s0 --a--> s2, s2 --a--> s0, s2 --tau--> s2 : can go silent forever.
    let sigma = Alphabet::new(["a", "b", "tau"]).unwrap();
    let a = sigma.symbol("a").unwrap();
    let tau = sigma.symbol("tau").unwrap();
    let mut ts = TransitionSystem::new(sigma.clone());
    let s0 = ts.add_state();
    let _s1 = ts.add_state();
    let s2 = ts.add_state();
    ts.set_initial(s0);
    ts.add_transition(s0, a, s2);
    ts.add_transition(s2, a, s0);
    ts.add_transition(s2, tau, s2);

    let h = Homomorphism::hiding(&sigma, ["a", "b"]).unwrap();
    let image = image_nfa(&h, &ts.to_nfa());
    assert!(!has_maximal_words(&image), "side condition must hold");

    // η = ◇false is unsatisfiable: not rel-live on the (non-empty) abstract
    // behaviors.
    let eta = parse("<>false").unwrap();
    let abstract_system = abstract_behavior(&h, &ts);
    let abstract_holds = is_relative_liveness(
        &behaviors_of_ts(&abstract_system),
        &Property::formula(eta.clone()),
    )
    .unwrap()
    .holds;
    assert!(!abstract_holds);

    // Vacuous reading: R̄(◇false) degenerates to "eventually always hidden",
    // which IS relatively live concretely — contradicting Theorem 8.3 as
    // literally stated.
    let vacuous = r_bar(&eta, h.target()).unwrap();
    let lam_h = labeling_for_homomorphism(&h);
    let vacuous_holds = is_relative_liveness(
        &behaviors_of_ts(&ts),
        &Property::labeled(vacuous, lam_h.clone()),
    )
    .unwrap()
    .holds;
    assert!(
        vacuous_holds,
        "the vacuous reading must exhibit the 8.3 counterexample"
    );

    // Strict reading: R̄(◇false) ∧ □◇¬ε is not relatively live — Theorem 8.3
    // holds again (this is what the pipeline uses).
    let strict = r_bar_strict(&eta, h.target()).unwrap();
    let strict_holds =
        is_relative_liveness(&behaviors_of_ts(&ts), &Property::labeled(strict, lam_h))
            .unwrap()
            .holds;
    assert!(!strict_holds);
    // And via the public API:
    assert!(!check_transported_concrete(&ts, &h, &eta).unwrap().holds);
}

/// Definition 6.2 with `h = id`: the unguarded `behaviors_of_ts` façade
/// reads the system graph as a Büchi automaton (König's lemma) and never
/// determinizes, so it returns on needle24 (2^24 subset states) and agrees
/// with the guarded constructor — and, where determinizing is feasible,
/// with the determinized limit — on every short lasso.
#[test]
fn behaviors_facade_needs_no_determinization() {
    fn words(sigma: &[Symbol], max: usize) -> Vec<Vec<Symbol>> {
        let mut all = vec![Vec::new()];
        let mut layer = vec![Vec::new()];
        for _ in 0..max {
            layer = layer
                .iter()
                .flat_map(|w: &Vec<Symbol>| {
                    sigma.iter().map(move |&s| {
                        let mut w = w.clone();
                        w.push(s);
                        w
                    })
                })
                .collect();
            all.extend(layer.iter().cloned());
        }
        all
    }
    for file in [
        "needle24.ts",
        "abp.ts",
        "clock.ts",
        "server.pn",
        "server_err.pn",
    ] {
        let text = std::fs::read_to_string(format!("examples/systems/{file}")).expect("fixture");
        let ts = relative_liveness::format::parse_system(&text).expect("fixture parses");
        let facade = behaviors_of_ts(&ts);
        let mut references = vec![behaviors_of_ts_with(&ts, &Guard::unlimited()).expect("L")];
        if file != "needle24.ts" {
            let eager = Guard::unlimited().with_lazy(false);
            references.push(behaviors_of_ts_with(&ts, &eager).expect("determinized L"));
        }
        // Every short lasso, then lassos closed by seeded random walks
        // through the system (behaviors, unless the walk deadlocks).
        let sigma: Vec<Symbol> = ts.alphabet().symbols().collect();
        let mut lassos = Vec::new();
        for prefix in words(&sigma, 2) {
            for period in words(&sigma, 2).into_iter().filter(|w| !w.is_empty()) {
                lassos.push(UpWord::new(prefix.clone(), period).expect("non-empty period"));
            }
        }
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..64 {
            let (mut visited, mut symbols) = (vec![ts.initial()], Vec::new());
            while let Some(&q) = visited.last() {
                let enabled = ts.enabled(q);
                if enabled.is_empty() {
                    break;
                }
                seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let (symbol, next) = enabled[(seed >> 33) as usize % enabled.len()];
                symbols.push(symbol);
                if let Some(i) = visited.iter().position(|&p| p == next) {
                    let period = symbols.split_off(i);
                    lassos.push(UpWord::new(symbols, period).expect("non-empty period"));
                    break;
                }
                visited.push(next);
            }
        }
        let mut accepted = 0;
        for lasso in &lassos {
            let want = facade.accepts_upword(lasso);
            for reference in &references {
                assert_eq!(reference.accepts_upword(lasso), want, "{file}: {lasso:?}");
            }
            accepted += usize::from(want);
        }
        assert!(accepted > 0, "{file}: no sampled lasso is a behavior");
        assert!(
            accepted < lassos.len() || file == "needle24.ts",
            "{file}: all accepted"
        );
    }
}

/// The transported check of Corollary 8.4 runs under the caller's guard:
/// a small state budget stops it on a two-server farm, and a roomy one
/// gives the unguarded verdict.
#[test]
fn transported_check_is_bounded_by_its_guard() {
    use relative_liveness::automata::AutomataError;
    let ts = rl_bench::server_farm(2);
    let keep = rl_bench::farm_observables(2);
    let h = Homomorphism::hiding(ts.alphabet(), keep.iter().map(String::as_str)).unwrap();
    let eta = parse("[]<>result0").unwrap();
    let tight = Guard::new(Budget::unlimited().with_max_states(10));
    match check_transported_concrete_with(&ts, &h, &eta, &tight) {
        Err(CoreError::Automata(AutomataError::BudgetExceeded { .. })) => {}
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    let roomy = Guard::new(Budget::unlimited().with_max_states(1_000_000));
    assert_eq!(
        check_transported_concrete_with(&ts, &h, &eta, &roomy).unwrap(),
        check_transported_concrete(&ts, &h, &eta).unwrap()
    );
}
