//! Differential tests pinning the semidecision pre-filter ladder to the
//! exact deciders: on the paper's fixtures and on random machines, the
//! relative-liveness verdict must be identical with `Guard::with_filters`
//! on (the default) and off (the CLI's `--no-filters`), across the lazy
//! and eager pipelines, with and without the op cache.
//!
//! Witnesses are compared by *semantic validity*, never by equality: a
//! ladder refutation is the shortest witness **within its abstraction**
//! (the support path of a Parikh-dead letter, the access word of a missing
//! residue class), which may be longer than the exact decider's globally
//! shortest doomed prefix. Both must replay — accepted by `pre(L_ω)`,
//! rejected by `pre(L_ω ∩ P)` — and that is what is pinned.
//!
//! When the ladder falls through (every stage `Unknown`), the run must be
//! *indistinguishable* from a `--no-filters` run in the four deterministic
//! metric totals: the filter kernels only poll the guard, never charge it.

use proptest::prelude::*;
use rl_automata::{
    Alphabet, Guard, Metric, MetricsRegistry, Nfa, OpCache, Symbol, TransitionSystem, Word,
};
use rl_buchi::behaviors_of_ts_with;
use rl_core::{is_relative_liveness_with, prefilter_inclusion, FilterOutcome, Property};
use rl_logic::parse;

/// Random transition system over `{t0, t1}` with `n` states. Local to this
/// suite: rl-bench's generators live downstream of rl-core and cannot be a
/// dev-dependency here.
fn ts_strategy(n: usize) -> impl Strategy<Value = TransitionSystem> {
    let transitions = proptest::collection::vec((0..n, 0..2usize, 0..n), 1..=(3 * n));
    transitions.prop_map(move |edges| {
        let ab = Alphabet::new(["t0", "t1"]).expect("valid alphabet");
        let mut ts = TransitionSystem::new(ab);
        for _ in 0..n {
            ts.add_state();
        }
        ts.set_initial(0);
        for (p, s, q) in edges {
            ts.add_transition(p, Symbol::from_index(s), q);
        }
        ts
    })
}

/// One relative-liveness check under a configured guard.
struct Run {
    live: bool,
    doomed: Option<Word>,
    /// The four deterministic metric totals.
    metrics: [u64; 4],
    /// Ladder accounting: (hits, fallthroughs) — both zero with filters
    /// off.
    ladder: (u64, u64),
}

fn run_check(ts: &TransitionSystem, formula: &str, filters: bool, lazy: bool, cache: bool) -> Run {
    let prop = Property::formula(parse(formula).expect("formula parses"));
    let reg = MetricsRegistry::new();
    let mut guard = Guard::unlimited()
        .with_filters(filters)
        .with_lazy(lazy)
        .with_metrics(reg.clone());
    if cache {
        guard = guard.with_op_cache(OpCache::new());
    }
    let behaviors = behaviors_of_ts_with(ts, &guard).expect("behaviors");
    let verdict = is_relative_liveness_with(&behaviors, &prop, &guard).expect("rel-live");
    Run {
        live: verdict.holds,
        doomed: verdict.doomed_prefix,
        metrics: [
            reg.total(Metric::States),
            reg.total(Metric::Transitions),
            reg.total(Metric::CacheHits),
            reg.total(Metric::GuardCharges),
        ],
        ladder: (
            reg.counter("filter/hit").get(),
            reg.counter("filter/fallthrough").get(),
        ),
    }
}

/// Replays a doomed prefix against the Lemma 4.3 inclusion: in `pre(L_ω)`,
/// not in `pre(L_ω ∩ P)`.
fn assert_doomed_valid(ts: &TransitionSystem, formula: &str, doomed: &Word) {
    let prop = Property::formula(parse(formula).expect("formula parses"));
    let guard = Guard::unlimited();
    let behaviors = behaviors_of_ts_with(ts, &guard).expect("behaviors");
    let p = prop
        .to_buchi(behaviors.alphabet())
        .expect("property to Büchi");
    let both = behaviors.intersection(&p).expect("intersection");
    assert!(
        behaviors.prefix_nfa().accepts(doomed),
        "doomed prefix not a prefix of any behavior: {doomed:?}"
    );
    assert!(
        !both.prefix_nfa().accepts(doomed),
        "doomed prefix extends into P: {doomed:?}"
    );
}

/// The core contract: same verdict with the ladder on and off; valid
/// witnesses on both sides; bit-for-bit deterministic metrics whenever the
/// ladder fell through (or never ran).
fn assert_filters_sound(ts: &TransitionSystem, formula: &str, on: &Run, off: &Run) {
    assert_eq!(on.live, off.live, "filters flipped the verdict ({formula})");
    assert_eq!(off.ladder, (0, 0), "a --no-filters run must not ladder");
    for run in [on, off] {
        if let Some(w) = &run.doomed {
            assert_doomed_valid(ts, formula, w);
        }
    }
    // Witness presence agrees with the verdict on both sides.
    assert_eq!(on.doomed.is_some(), !on.live);
    assert_eq!(off.doomed.is_some(), !off.live);
    if on.ladder.0 == 0 {
        // Pure fall-through: the ladder left no trace in the deterministic
        // totals — the kernels only poll, never charge.
        assert_eq!(
            on.metrics, off.metrics,
            "fall-through run diverged from --no-filters metrics ({formula})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random systems: the filtered pipeline agrees with `--no-filters`
    /// across both exact pipelines and op-cache on/off.
    #[test]
    fn random_systems_agree_with_and_without_filters(
        ts in ts_strategy(5),
        formula in proptest::sample::select(&["[]<>t0", "<>t1", "[]t0", "[]<>t1"][..]),
    ) {
        let off = run_check(&ts, formula, false, true, true);
        for lazy in [true, false] {
            for cache in [true, false] {
                let on = run_check(&ts, formula, true, lazy, cache);
                // The eager reference for metric comparison must match
                // the run's own pipeline/cache configuration.
                let reference = run_check(&ts, formula, false, lazy, cache);
                assert_filters_sound(&ts, formula, &on, &reference);
                prop_assert_eq!(on.live, off.live, "verdict depends on configuration");
            }
        }
    }
}

#[test]
fn fixtures_agree_with_and_without_filters() {
    for (ts, formula) in [
        (rl_petri::examples::server_behaviors(), "[]<>result"),
        (rl_petri::examples::server_err_behaviors(), "[]<>result"),
    ] {
        for lazy in [true, false] {
            let on = run_check(&ts, formula, true, lazy, true);
            let off = run_check(&ts, formula, false, lazy, true);
            assert_filters_sound(&ts, formula, &on, &off);
        }
    }
}

#[test]
fn ladder_refutations_replay_on_the_fixture_that_fails() {
    // server_err is *not* rel-live for []<>result; whatever stage answers,
    // the witness must replay against the exact inclusion.
    let ts = rl_petri::examples::server_err_behaviors();
    let run = run_check(&ts, "[]<>result", true, true, true);
    assert!(!run.live);
    let w = run.doomed.as_ref().expect("refutation carries a witness");
    assert_doomed_valid(&ts, "[]<>result", w);
}

#[test]
fn ladder_outcomes_do_not_depend_on_the_cache() {
    // The ladder itself is unmetered, so its hit/fallthrough accounting —
    // and the witness it returns — cannot depend on the op cache.
    let ts = rl_petri::examples::server_err_behaviors();
    let cached = run_check(&ts, "[]<>result", true, true, true);
    let uncached = run_check(&ts, "[]<>result", true, true, false);
    assert_eq!(cached.ladder, uncached.ladder);
    assert_eq!(cached.doomed, uncached.doomed);
}

#[test]
fn prefilter_outcomes_match_exact_inclusion_on_random_nfas() {
    // Direct ladder-level differential: on random prefix-closed NFAs the
    // ladder's Proved/Refuted answers are always consistent with the exact
    // subset-construction inclusion (Unknown is always allowed).
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let ab = Alphabet::new(["a", "b"]).expect("valid alphabet");
    let guard = Guard::unlimited();
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for _ in 0..200 {
        let mut make = |n: usize| {
            let edges: Vec<(usize, Symbol, usize)> = (0..rng.gen_range(1..3 * n + 1))
                .map(|_| {
                    (
                        rng.gen_range(0..n),
                        Symbol::from_index(rng.gen_range(0..2)),
                        rng.gen_range(0..n),
                    )
                })
                .collect();
            // All states accepting: the ladder's inputs are prefix NFAs.
            Nfa::from_parts(ab.clone(), n, [0], 0..n, edges).expect("indices in range")
        };
        let a = make(4);
        let b = make(4);
        let exact = rl_automata::dfa_included(&a.determinize(), &b.determinize());
        match prefilter_inclusion(&a, &b, &guard).expect("unlimited guard") {
            FilterOutcome::Proved => {
                assert!(exact.is_none(), "ladder proved a failing inclusion");
            }
            FilterOutcome::Refuted(w) => {
                assert!(exact.is_some(), "ladder refuted a holding inclusion");
                assert!(a.accepts(&w) && !b.accepts(&w), "witness fails replay");
            }
            FilterOutcome::Unknown => {}
        }
    }
}
