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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

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

/// The `system` reader as it was before it became one pass over the text,
/// kept word for word as the oracle the shipped reader must agree with:
/// the same `TransitionSystem` (numbering, labels, rows) or the same
/// `FormatError` (line and message). `petri` texts go to the shipped
/// reader, whose Petri-net path did not change.
mod oracle {
    use std::collections::HashMap;

    use relative_liveness::automata::{Alphabet, TransitionSystem};
    use relative_liveness::format::FormatError;

    fn err(line: usize, message: impl Into<String>) -> FormatError {
        FormatError {
            line,
            message: message.into(),
        }
    }

    pub fn parse_system(text: &str) -> Result<TransitionSystem, FormatError> {
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l.split('#').next().unwrap_or("").trim()))
            .filter(|(_, l)| !l.is_empty());
        match lines.next() {
            Some((_, "system")) => parse_transition_system(lines),
            Some((_, "petri")) => relative_liveness::format::parse_system(text),
            Some((n, other)) => Err(err(
                n,
                format!("expected header 'system' or 'petri', found {other:?}"),
            )),
            None => Err(err(0, "empty input")),
        }
    }

    fn parse_transition_system<'a>(
        lines: impl Iterator<Item = (usize, &'a str)>,
    ) -> Result<TransitionSystem, FormatError> {
        let mut alphabet: Option<Alphabet> = None;
        let mut initial_name: Option<&str> = None;
        let mut transitions: Vec<(usize, &str, &str, &str)> = Vec::new();

        for (n, line) in lines {
            if let Some(rest) = line.strip_prefix("alphabet:") {
                if alphabet.is_some() {
                    return Err(err(n, "second 'alphabet:' line"));
                }
                alphabet = Some(
                    Alphabet::new(rest.split_whitespace()).map_err(|e| err(n, e.to_string()))?,
                );
            } else if let Some(rest) = line.strip_prefix("initial:") {
                if initial_name.is_some() {
                    return Err(err(n, "second 'initial:' line"));
                }
                let mut names = rest.split_whitespace();
                let (Some(name), None) = (names.next(), names.next()) else {
                    return Err(err(n, "'initial:' must name exactly one state"));
                };
                initial_name = Some(name);
            } else {
                // "<src> <action> -> <dst>"
                let Some((lhs, rhs)) = line.split_once("->") else {
                    return Err(err(n, format!("expected a transition, found {line:?}")));
                };
                let mut parts = lhs
                    .split_whitespace()
                    .chain(["->"])
                    .chain(rhs.split_whitespace());
                let (Some(src), Some(action), Some("->"), Some(dst), None) = (
                    parts.next(),
                    parts.next(),
                    parts.next(),
                    parts.next(),
                    parts.next(),
                ) else {
                    return Err(err(n, "transition must be '<src> <action> -> <dst>'"));
                };
                transitions.push((n, src, action, dst));
            }
        }
        let alphabet = alphabet.ok_or_else(|| err(0, "missing 'alphabet:' line"))?;
        let initial_name = initial_name.ok_or_else(|| err(0, "missing 'initial:' line"))?;

        let mut ts = TransitionSystem::new(alphabet.clone());
        // State names come from outside the program: keep the default,
        // collision-resistant hasher.
        let mut states: HashMap<&str, usize> = HashMap::new();
        let mut intern = |name: &'a str, ts: &mut TransitionSystem| -> usize {
            *states
                .entry(name)
                .or_insert_with(|| ts.add_labeled_state(name))
        };
        let init = intern(initial_name, &mut ts);
        ts.set_initial(init);
        for (n, src, action, dst) in transitions {
            let sym = alphabet
                .symbol(action)
                .ok_or_else(|| err(n, format!("unknown action {action:?}")))?;
            let s = intern(src, &mut ts);
            let d = intern(dst, &mut ts);
            ts.add_transition(s, sym, d);
        }
        Ok(ts)
    }
}

/// Whitespace of every kind `char::is_whitespace` knows, ASCII and not,
/// alone and in runs.
const SPACES: [&str; 14] = [
    " ", " ", " ", "  ", "\t", " \t ", "\r", "\x0b", "\x0c", "\u{a0}", "\u{85}", "\u{2003}",
    "\u{2028}", "\u{3000}",
];
/// State names: plain, Petri-marking style, non-ASCII, and ones holding
/// `-`, `>` or `->`, which only a target can carry whole.
const STATE_NAMES: [&str; 12] = [
    "s0", "s1", "s2", "s3", "idle", "busy×2", "∅", "é", "q-1", "a>b", "x->y", "->",
];
/// Action names, `->` among them: `s -> -> t` is a transition on `->`.
const ACTION_NAMES: [&str; 7] = ["a", "b", "tau", "go→", "ü", "->", "a-"];
/// Comments, with and without the things a transition holds.
const COMMENTS: [&str; 5] = ["#", "# note", "#s a -> t", "## initial: x", "#\u{a0}é"];

/// One random `system` text: mostly well formed (headers before or after
/// the transitions, duplicate edges, states first seen as targets, every
/// kind of whitespace, comments, blank lines, CRLF), often with one line
/// broken in one of the ways the reader names.
fn random_system_text(rng: &mut rand::rngs::StdRng) -> String {
    use rand::Rng;
    let pick = |rng: &mut rand::rngs::StdRng, items: &[&'static str]| -> &'static str {
        items[rng.gen_range(0..items.len())]
    };
    let space = |rng: &mut rand::rngs::StdRng| -> String {
        (0..rng.gen_range(1..3))
            .map(|_| pick(rng, &SPACES))
            .collect()
    };
    // Around `->` the space may be left out: `s a->t` is a transition.
    let maybe_space = |rng: &mut rand::rngs::StdRng| -> String {
        if rng.gen_bool(0.2) {
            String::new()
        } else {
            space(rng)
        }
    };
    let n_actions = rng.gen_range(1..5);
    let mut actions: Vec<&str> = Vec::new();
    while actions.len() < n_actions {
        let a = pick(rng, &ACTION_NAMES);
        if !actions.contains(&a) {
            actions.push(a);
        }
    }
    let n_states = rng.gen_range(1..7);
    let states: Vec<&str> = (0..n_states)
        .map(|i| STATE_NAMES[(i * 5 + 3) % 12])
        .collect();
    let state = |rng: &mut rand::rngs::StdRng| states[rng.gen_range(0..states.len())];

    let mut body: Vec<String> = Vec::new();
    for _ in 0..rng.gen_range(0..12) {
        // A target may be any name, so states are often first seen there.
        let (src, dst) = (state(rng), pick(rng, &STATE_NAMES));
        let action = actions[rng.gen_range(0..actions.len())];
        let line = format!(
            "{}{src}{}{action}{}->{}{dst}{}",
            maybe_space(rng),
            space(rng),
            maybe_space(rng),
            maybe_space(rng),
            maybe_space(rng)
        );
        if rng.gen_bool(0.15) {
            body.push(line.clone()); // a duplicate edge
        }
        body.push(line);
    }
    let alphabet = format!("alphabet:{}{}", space(rng), actions.join(&space(rng)));
    let initial = format!("initial:{}{}", space(rng), state(rng));
    // Headers first, or anywhere among the transitions.
    for header in [initial, alphabet] {
        let at = if rng.gen_bool(0.6) {
            0
        } else {
            rng.gen_range(0..body.len() + 1)
        };
        body.insert(at, header);
    }
    for _ in 0..rng.gen_range(0..4) {
        let at = rng.gen_range(0..body.len() + 1);
        let filler = match rng.gen_range(0..3) {
            0 => String::new(),
            1 => space(rng),
            _ => pick(rng, &COMMENTS).to_owned(),
        };
        body.insert(at, filler);
    }
    if rng.gen_bool(0.6) {
        let at = rng.gen_range(0..body.len());
        let broken = match rng.gen_range(0..16) {
            0 => "alphabet: a b".to_owned(),   // a second alphabet line
            1 => "initial: s0".to_owned(),     // a second initial line
            2 => "initial:".to_owned(),        // no initial state
            3 => "initial: s0 s1".to_owned(),  // two initial states
            4 => "alphabet:".to_owned(),       // an empty alphabet
            5 => "alphabet: a b a".to_owned(), // a repeated action
            6 => "s0 zz -> s1".to_owned(),     // an unknown action
            7 => "s0 a s1".to_owned(),         // no arrow
            8 => "s0 a b -> s1".to_owned(),    // too many words on the left
            9 => "s0 a -> s1 s2".to_owned(),   // too many on the right
            10 => "s0 a ->".to_owned(),        // no target
            11 => "s0 -> s1".to_owned(),       // no action
            12 => "-> a -> s1".to_owned(),     // `->` as the source
            13 => "s0->a -> s1".to_owned(),    // `->` glued on the left
            14 => String::new(),               // the line dropped
            _ => {
                // A line cut short at a random char.
                let line = body[at].clone();
                let cut = rng.gen_range(0..line.chars().count() + 1);
                line.chars().take(cut).collect()
            }
        };
        body[at] = broken;
    }
    if rng.gen_bool(0.1) {
        // A header line dropped.
        let at = body.iter().position(|l| {
            l.starts_with(if rng.gen_bool(0.5) {
                "alphabet:"
            } else {
                "initial:"
            })
        });
        if let Some(at) = at {
            body.remove(at);
        }
    }
    for line in &mut body {
        if rng.gen_bool(0.1) {
            line.push_str(&maybe_space(rng));
            line.push_str(pick(rng, &COMMENTS));
        }
    }
    let header = match rng.gen_range(0..20) {
        0 => "System",
        1 => "",
        2 => "  system  # the header",
        3 => "sys tem",
        _ => "system",
    };
    let mut lines = vec![header.to_owned()];
    if rng.gen_bool(0.2) {
        lines.insert(0, pick(rng, &COMMENTS).to_owned());
    }
    lines.extend(body);
    let newline = if rng.gen_bool(0.3) { "\r\n" } else { "\n" };
    let mut text = lines.join(newline);
    if rng.gen_bool(0.7) {
        text.push_str(newline);
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The one-pass `system` reader gives exactly what the old one gave:
    /// the same system, state for state, or the same error, line and
    /// message, on random texts both well formed and broken.
    #[test]
    fn one_pass_reader_matches_the_oracle(seed in 0..u64::MAX) {
        use rand::SeedableRng;
        let text = random_system_text(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let got = relative_liveness::format::parse_system(&text);
        prop_assert_eq!(got, oracle::parse_system(&text), "{:?}", text);
    }
}

/// The generated systems the benchmark reads: their rendered text reads
/// exactly as the oracle reads it, and as the same system. The ring
/// labels its states and numbers them in the order the text first names
/// them, so it reads back exactly; the farm and the random system leave
/// their states unlabeled (rendered as `s<q>`) and number them in
/// discovery order, so they read back equal up to that naming.
#[test]
fn rendered_generated_systems_read_back_exactly() {
    use relative_liveness::format::{parse_system, render_system};
    let ring = rl_bench::token_ring(128);
    assert_eq!(parse_system(&render_system(&ring)).as_ref(), Ok(&ring));
    for ts in [
        rl_bench::server_farm(3),
        ring,
        rl_bench::random_system(1, 500, 4, 0.4),
    ] {
        let text = render_system(&ts);
        let read = parse_system(&text).expect("rendered text parses");
        assert_eq!(read, oracle::parse_system(&text).expect("oracle parses"));
        let name = |q: usize| ts.state_label(q).unwrap_or_else(|| format!("s{q}"));
        let mut edges: Vec<_> = ts
            .transitions()
            .map(|(p, a, q)| (name(p), ts.alphabet().name(a).to_string(), name(q)))
            .collect();
        edges.sort();
        let want = (
            ts.alphabet().names(),
            name(ts.initial()),
            ts.state_count(),
            edges,
        );
        assert_eq!(labeled(&read), want);
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
