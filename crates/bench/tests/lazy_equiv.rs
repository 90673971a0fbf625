//! Differential tests pinning the lazy fused pipeline to the materializing
//! one: on the shipped trajectory fixtures and on random machines, the
//! verdicts of `satisfies`/`is_relative_liveness`/`is_relative_safety`
//! must be identical with `Guard::with_lazy(true)` (the default) and
//! `with_lazy(false)` (the CLI's `--no-lazy`) — and every witness either
//! path produces must be
//! *semantically valid* (witnesses may differ in tie-break between the
//! search orders, so validity, not equality, is what is pinned).

use proptest::prelude::*;
use relative_liveness::format::parse_system;
use rl_automata::{
    dfa_included, nfa_included_lazy, Alphabet, Guard, Metric, MetricsRegistry, Nfa, Symbol,
    TransitionSystem, Word,
};
use rl_bench::random_system;
use rl_buchi::{behaviors_of_ts_with, limit_of_prefix_closed, Buchi, UpWord};
use rl_core::{is_relative_liveness_with, is_relative_safety_with, satisfies_with, Property};
use rl_logic::parse;

const SIGMA2: [&str; 2] = ["a", "b"];

fn alphabet2() -> Alphabet {
    Alphabet::new(SIGMA2).expect("valid alphabet")
}

/// Random NFA over {a, b} with exactly `n` states (the `bitset_equiv`
/// generator).
fn nfa_strategy(n: usize) -> impl Strategy<Value = Nfa> {
    let transitions = proptest::collection::vec((0..n, 0..2usize, 0..n), 0..=(3 * n));
    let accepting = proptest::collection::vec(0..n, 0..=n);
    let initial = proptest::collection::vec(0..n, 1..=2);
    (transitions, accepting, initial).prop_map(move |(ts, acc, init)| {
        Nfa::from_parts(
            alphabet2(),
            n,
            init,
            acc,
            ts.into_iter()
                .map(|(p, s, q)| (p, Symbol::from_index(s), q)),
        )
        .expect("indices in range")
    })
}

proptest! {
    /// The fused antichain search decides exactly the inclusion the
    /// materializing path (determinize both, difference, shortest accepted
    /// word) decides, and its witnesses are shortest words of the
    /// difference language.
    #[test]
    fn lazy_inclusion_agrees_with_eager(a in nfa_strategy(5), b in nfa_strategy(5)) {
        let guard = Guard::unlimited();
        let lazy = nfa_included_lazy(&a, &b, &guard).expect("unlimited guard");
        let eager = dfa_included(&a.determinize(), &b.determinize());
        match (&lazy, &eager) {
            (None, None) => {}
            (Some(lw), Some(ew)) => {
                // Same verdict; witnesses are both shortest, so same length.
                prop_assert_eq!(lw.len(), ew.len());
                prop_assert!(a.accepts(lw), "lazy witness not in L(a): {:?}", lw);
                prop_assert!(!b.accepts(lw), "lazy witness in L(b): {:?}", lw);
            }
            _ => prop_assert!(false, "verdicts differ: lazy {:?}, eager {:?}", lazy, eager),
        }
    }
}

/// One full check (behaviors → classical → rel-live → rel-safe) of a
/// formula against a transition system under a configured guard.
struct Run {
    sat: bool,
    live: bool,
    safe: bool,
    counterexample: Option<UpWord>,
    doomed: Option<Word>,
    escape: Option<UpWord>,
    /// Deterministic totals: (states, transitions, guard charges,
    /// lazy/expanded, lazy/subsumed).
    counters: (u64, u64, u64, u64, u64),
}

fn run_check(ts: &TransitionSystem, formula: &str, lazy: bool) -> Run {
    let prop = Property::formula(parse(formula).expect("formula parses"));
    let reg = MetricsRegistry::new();
    let guard = Guard::unlimited().with_lazy(lazy).with_metrics(reg.clone());
    let behaviors = behaviors_of_ts_with(ts, &guard).expect("behaviors");
    let sat = satisfies_with(&behaviors, &prop, &guard).expect("satisfies");
    let live = is_relative_liveness_with(&behaviors, &prop, &guard).expect("rel-live");
    let safe = is_relative_safety_with(&behaviors, &prop, &guard).expect("rel-safe");
    Run {
        sat: sat.holds,
        live: live.holds,
        safe: safe.holds,
        counterexample: sat.counterexample,
        doomed: live.doomed_prefix,
        escape: safe.escaping_behavior,
        counters: (
            reg.total(Metric::States),
            reg.total(Metric::Transitions),
            reg.total(Metric::GuardCharges),
            reg.counter("lazy/expanded").get(),
            reg.counter("lazy/subsumed").get(),
        ),
    }
}

/// Semantic validity of the witnesses a run produced, against the system's
/// behaviors and the property — independent of which pipeline found them.
fn assert_witnesses_valid(ts: &TransitionSystem, formula: &str, run: &Run) {
    let prop = Property::formula(parse(formula).expect("formula parses"));
    let guard = Guard::unlimited();
    let behaviors = behaviors_of_ts_with(ts, &guard).expect("behaviors");
    let p = prop
        .to_buchi(behaviors.alphabet())
        .expect("property to Büchi");
    if let Some(x) = &run.counterexample {
        assert!(behaviors.accepts_upword(x), "counterexample not a behavior");
        assert!(!p.accepts_upword(x), "counterexample satisfies P");
    }
    if let Some(w) = &run.doomed {
        // Lemma 4.3: w ∈ pre(L_ω) but w ∉ pre(L_ω ∩ P).
        let both = behaviors.intersection(&p).expect("intersection");
        assert!(
            behaviors.prefix_nfa().accepts(w),
            "doomed prefix not a prefix of any behavior: {w:?}"
        );
        assert!(
            !both.prefix_nfa().accepts(w),
            "doomed prefix extends into P: {w:?}"
        );
    }
    if let Some(x) = &run.escape {
        assert!(behaviors.accepts_upword(x), "escape not a behavior");
        assert!(!p.accepts_upword(x), "escape satisfies P");
    }
}

/// Compares a lazy run against the eager reference: the three verdict bits
/// must agree, and both runs' witnesses must be valid.
fn assert_equivalent(ts: &TransitionSystem, formula: &str, lazy: &Run, eager: &Run) {
    assert_eq!(lazy.sat, eager.sat, "classical verdict differs ({formula})");
    assert_eq!(
        lazy.live, eager.live,
        "rel-live verdict differs ({formula})"
    );
    assert_eq!(
        lazy.safe, eager.safe,
        "rel-safe verdict differs ({formula})"
    );
    assert_witnesses_valid(ts, formula, lazy);
    assert_witnesses_valid(ts, formula, eager);
}

fn fixture(file: &str) -> TransitionSystem {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let text =
        std::fs::read_to_string(format!("{root}/examples/systems/{file}")).expect("fixture reads");
    parse_system(&text).expect("fixture parses")
}

/// The shipped trajectory fixtures (minus needle24, whose eager run is the
/// point of the lazy pipeline — it gets its own test below).
const FIXTURES: [(&str, &str); 4] = [
    ("abp.ts", "[]<>deliver"),
    ("clock.ts", "[]<>tick"),
    ("server.pn", "[]<>result"),
    ("server_err.pn", "[]<>result"),
];

#[test]
fn trajectory_fixtures_agree_across_pipelines() {
    for (file, formula) in FIXTURES {
        let ts = fixture(file);
        let eager = run_check(&ts, formula, false);
        let lazy = run_check(&ts, formula, true);
        assert_equivalent(&ts, formula, &lazy, &eager);
    }
}

#[test]
fn needle24_is_feasible_only_lazily() {
    // The subset construction the eager path cannot avoid needs 2^24
    // states on this fixture; the fused search with retro-pruned antichain
    // subsumption decides it in a few dozen expansions.
    let ts = fixture("needle24.ts");
    let lazy = run_check(&ts, "[]<>a", true);
    assert!(lazy.live, "needle24 is relative-live for []<>a");
    assert!(!lazy.sat && !lazy.safe);
    assert_witnesses_valid(&ts, "[]<>a", &lazy);
    let (_, _, _, expanded, subsumed) = lazy.counters;
    assert!(
        expanded < 1000,
        "antichain search must stay tiny, expanded {expanded}"
    );
    assert!(subsumed > 0, "subsumption must fire, subsumed {subsumed}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random systems: the full three-decider pipeline agrees between the
    /// lazy and materializing paths, and witnesses stay valid.
    #[test]
    fn random_systems_agree_across_pipelines(
        seed in 0u64..10_000,
        n in 2usize..7,
        density in proptest::sample::select(&[0.2f64, 0.4, 0.7][..]),
        formula in proptest::sample::select(&["[]<>t0", "<>t1", "[]t0", "[]<>t1"][..]),
    ) {
        let ts = random_system(seed, n, 2, density);
        let lazy = run_check(&ts, formula, true);
        let eager = run_check(&ts, formula, false);
        assert_equivalent(&ts, formula, &lazy, &eager);
    }
}

/// What one lazy inclusion run reports: the witness, then the `lazy/*`
/// counters (expanded, subsumed, early exit) and the guard's charges
/// (states, transitions, total charges).
type LazyRun = (Option<Word>, [u64; 3], [u64; 3]);

fn lazy_run(run: impl FnOnce(&Guard) -> Option<Word>) -> LazyRun {
    let reg = MetricsRegistry::new();
    let guard = Guard::unlimited().with_metrics(reg.clone());
    let witness = run(&guard);
    let progress = guard.progress();
    (
        witness,
        ["lazy/expanded", "lazy/subsumed", "lazy/early_exit"].map(|c| reg.counter(c).get()),
        [
            progress.states as u64,
            progress.transitions as u64,
            reg.total(Metric::GuardCharges),
        ],
    )
}

/// `pre(a) ⊆ pre(b)` decided over the two prefix graphs and over their
/// `prefix_nfa()` NFAs must agree in every observable.
fn assert_layouts_agree(a: &Buchi, b: &Buchi) {
    let unlimited = Guard::unlimited();
    let graphs = (
        a.prefix_graph_with(&unlimited).expect("unlimited guard"),
        b.prefix_graph_with(&unlimited).expect("unlimited guard"),
    );
    let nfas = (a.prefix_nfa(), b.prefix_nfa());
    let on_graphs = lazy_run(|g| nfa_included_lazy(&graphs.0, &graphs.1, g).expect("no budget"));
    let on_nfas = lazy_run(|g| nfa_included_lazy(&nfas.0, &nfas.1, g).expect("no budget"));
    assert_eq!(on_graphs, on_nfas);
}

/// The Lemma 4.3 inclusion `pre(L) ⊆ pre(L ∩ P)` of one check, across
/// layouts.
fn assert_check_layouts_agree(ts: &TransitionSystem, formula: &str) {
    let behaviors = behaviors_of_ts_with(ts, &Guard::unlimited()).expect("behaviors");
    let p = Property::formula(parse(formula).expect("formula parses"))
        .to_buchi(behaviors.alphabet())
        .expect("property to Büchi");
    let both = behaviors.intersection(&p).expect("intersection");
    assert_layouts_agree(&behaviors, &both);
}

/// The nine fixtures with the formulas the golden check runs on them.
fn all_fixtures() -> impl Iterator<Item = (&'static str, &'static str)> {
    FIXTURES.into_iter().chain([
        ("filter_fallthrough.ts", "[]<>a"),
        ("filter_mod3.ts", "[]<>a"),
        ("filter_parikh.ts", "[]<>a"),
        ("filter_sim.ts", "[]<>ack"),
        ("needle24.ts", "[]<>a"),
    ])
}

#[test]
fn fixtures_decide_lemma_4_3_alike_on_both_layouts() {
    for (file, formula) in all_fixtures() {
        assert_check_layouts_agree(&fixture(file), formula);
    }
}

/// The behaviors built straight from a system's transitions equal its NFA
/// read as a Büchi automaton.
fn assert_behaviors_match_nfa(ts: &TransitionSystem) {
    let direct = behaviors_of_ts_with(ts, &Guard::unlimited()).expect("unlimited guard");
    assert_eq!(direct, limit_of_prefix_closed(&ts.to_nfa()));
}

#[test]
fn fixture_behaviors_match_their_nfas() {
    for (file, _) in all_fixtures() {
        assert_behaviors_match_nfa(&fixture(file));
    }
}

/// Random Büchi automaton over {a, b} with exactly `n` states.
fn buchi_strategy(n: usize) -> impl Strategy<Value = Buchi> {
    nfa_strategy(n).prop_map(|nfa| Buchi::from_nfa_structure(&nfa))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random Büchi pairs: the search over prefix graphs and over their
    /// NFAs returns the same witness, counters and charges.
    #[test]
    fn lazy_search_agrees_across_layouts(a in buchi_strategy(5), b in buchi_strategy(5)) {
        assert_layouts_agree(&a, &b);
    }

    #[test]
    fn random_behaviors_match_their_nfas(
        seed in 0u64..10_000,
        n in 1usize..9,
        density in proptest::sample::select(&[0.2f64, 0.4, 0.7][..]),
    ) {
        assert_behaviors_match_nfa(&random_system(seed, n, 3, density));
    }

    /// Random systems against a few properties, across layouts.
    #[test]
    fn random_checks_agree_across_layouts(
        seed in 0u64..10_000,
        n in 2usize..7,
        density in proptest::sample::select(&[0.2f64, 0.4, 0.7][..]),
        formula in proptest::sample::select(&["[]<>t0", "<>t1", "[]t0", "[]<>t0 | <>[]!t0"][..]),
    ) {
        assert_check_layouts_agree(&random_system(seed, n, 2, density), formula);
    }
}
