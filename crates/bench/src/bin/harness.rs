//! Experiment harness: regenerates every table recorded in EXPERIMENTS.md.
//!
//! Usage: `cargo run --release -p rl-bench --bin harness [-- <experiment>]`
//! where `<experiment>` is one of `fig2 fig3 fig4 scaling payoff hardness
//! ltl fair prob all` (default `all`). It prints tables and writes no file.

use std::time::Instant;

use rl_abstraction::Homomorphism;
use rl_bench::{
    fairness_chain, farm_observables, nested_until, nth_from_end_property, server_farm, token_ring,
};
use rl_buchi::{behaviors_of_ts, Buchi};
use rl_core::{
    is_relative_liveness, is_relative_liveness_with, is_relative_safety, satisfies,
    synthesize_fair_implementation, verify_via_abstraction, verify_via_abstraction_with, Guard,
    MetricsRegistry, Property, TransferConclusion,
};
use rl_exec::{run, AgingScheduler};
use rl_logic::{formula_to_buchi, parse, Labeling};
use rl_petri::examples::{server_behaviors, server_err_behaviors};

/// Runs `f` `repeats` times: the last result and every wall time in ms,
/// ascending.
fn time_runs<T>(repeats: usize, f: impl Fn() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut out = None;
    for _ in 0..repeats {
        let start = Instant::now();
        out = Some(f());
        times.push(start.elapsed().as_secs_f64() * 1_000.0);
    }
    times.sort_by(f64::total_cmp);
    (out.expect("ran at least once"), times)
}

fn time_ms<T>(f: impl Fn() -> T) -> (T, f64) {
    // Median of three runs.
    let (out, times) = time_runs(3, f);
    (out, times[1])
}

/// `median [least–greatest]` of ascending times, in ms.
fn spread(times: &[f64]) -> String {
    let (least, greatest) = (times[0], times[times.len() - 1]);
    format!("{:.2} [{least:.2}–{greatest:.2}]", times[times.len() / 2])
}

fn fig2() {
    println!("== E2/E3 — Figure 2: the correct server ==");
    let ts = server_behaviors();
    let behaviors = behaviors_of_ts(&ts);
    let p = Property::formula(parse("[]<>result").expect("parses"));
    let classical = satisfies(&behaviors, &p).expect("checks");
    let relative = is_relative_liveness(&behaviors, &p).expect("checks");
    let safety = is_relative_safety(&behaviors, &p).expect("checks");
    println!("states                {:>8}", ts.state_count());
    println!("transitions           {:>8}", ts.transition_count());
    println!("classical []<>result  {:>8}", classical.holds);
    println!(
        "counterexample        {:>8}",
        classical
            .counterexample
            .map(|x| x.display(ts.alphabet()))
            .unwrap_or_default()
    );
    println!("rel-live []<>result   {:>8}", relative.holds);
    println!("rel-safe []<>result   {:>8}", safety.holds);
    println!();
}

fn fig3() {
    println!("== E4 — Figure 3: the erroneous server ==");
    let ts = server_err_behaviors();
    let behaviors = behaviors_of_ts(&ts);
    let p = Property::formula(parse("[]<>result").expect("parses"));
    let relative = is_relative_liveness(&behaviors, &p).expect("checks");
    println!("states                {:>8}", ts.state_count());
    println!("rel-live []<>result   {:>8}", relative.holds);
    println!(
        "doomed prefix         {:>8}",
        relative
            .doomed_prefix
            .map(|w| rl_automata::format_word(ts.alphabet(), &w))
            .unwrap_or_default()
    );
    println!();
}

fn fig4() {
    println!("== E5/E6/E12 — Figure 4 + simplicity + transfer ==");
    let keep = ["request", "result", "reject"];
    let eta = parse("[]<>result").expect("parses");
    for (name, ts) in [
        ("Figure 2", server_behaviors()),
        ("Figure 3", server_err_behaviors()),
    ] {
        let h = Homomorphism::hiding(ts.alphabet(), keep).expect("visible actions exist");
        let analysis = verify_via_abstraction(&ts, &h, &eta).expect("pipeline runs");
        let conclusion = match analysis.conclusion {
            TransferConclusion::ConcreteHolds => "concrete HOLDS (Thm 8.2)",
            TransferConclusion::ConcreteFails { .. } => "concrete FAILS (Thm 8.3)",
            TransferConclusion::InconclusiveNotSimple { .. } => "INCONCLUSIVE (not simple)",
            TransferConclusion::InconclusiveMaximalWords => "INCONCLUSIVE (maximal words)",
        };
        println!(
            "{name}: abstract states {} | abstract holds {} | simple {} | {}",
            analysis.abstract_system.state_count(),
            analysis.abstract_verdict.holds,
            analysis.simplicity.simple,
            conclusion
        );
    }
    println!();
}

fn scaling() {
    println!("== E8 — relative-liveness decision scaling (Theorem 4.5) ==");
    println!(
        "{:<18} {:>8} {:>12} {:>10}",
        "family", "states", "rel-live", "ms"
    );
    for n in [4usize, 8, 16, 32, 64, 128] {
        let ts = token_ring(n);
        let p = Property::formula(parse("[]<>pass0").expect("parses"));
        let behaviors = behaviors_of_ts(&ts);
        let (verdict, ms) = time_ms(|| is_relative_liveness(&behaviors, &p).expect("checks"));
        println!(
            "{:<18} {:>8} {:>12} {:>10.2}",
            format!("token_ring({n})"),
            ts.state_count(),
            verdict.holds,
            ms
        );
    }
    for k in [1usize, 2, 3] {
        let ts = server_farm(k);
        let p = Property::formula(parse("[]<>result0").expect("parses"));
        let behaviors = behaviors_of_ts(&ts);
        let (verdict, ms) = time_ms(|| is_relative_liveness(&behaviors, &p).expect("checks"));
        println!(
            "{:<18} {:>8} {:>12} {:>10.2}",
            format!("server_farm({k})"),
            ts.state_count(),
            verdict.holds,
            ms
        );
    }
    println!();
}

fn payoff() {
    println!("== E13 — abstraction payoff (Corollary 8.4) ==");
    println!("(ms: median [least–greatest] of {PAYOFF_REPEATS} calls)");
    println!(
        "{:<16} {:>6} {:>10} {:>22} {:>22} {:>22} {:>9}",
        "system",
        "states",
        "abs-states",
        "concrete-ms",
        "abstract-ms",
        "compositional-ms",
        "speedup"
    );
    for k in [1usize, 2, 3] {
        let ts = server_farm(k);
        let keep: Vec<String> = farm_observables(k);
        let keep_refs: Vec<&str> = keep.iter().map(String::as_str).collect();
        let h = Homomorphism::hiding(ts.alphabet(), keep_refs.iter().copied())
            .expect("observables exist");
        let eta = parse("[]<>result0").expect("parses");

        // Concrete route: decide the transported property on the full system.
        let (concrete, concrete_ms) = time_runs(PAYOFF_REPEATS, || {
            rl_core::check_transported_concrete(&ts, &h, &eta).expect("concrete check")
        });
        // Abstract route: the shipped pipeline (abstraction, maximal-word
        // side condition, abstract decision, simplicity), as `rlcheck
        // abstract` runs it.
        let (abs_states, abstract_ms) = time_runs(PAYOFF_REPEATS, || {
            let run = verify_via_abstraction_with(&ts, &h, &eta, &Guard::unlimited())
                .expect("abstract route");
            assert_eq!(run.abstract_verdict.holds, concrete.holds);
            assert_eq!(run.conclusion, TransferConclusion::ConcreteHolds);
            run.abstract_system.state_count()
        });
        // Compositional route (Ochsenschläger-style): never build the
        // concrete composite at all.
        let components: Vec<rl_automata::TransitionSystem> =
            (0..k).map(rl_bench::indexed_server).collect();
        let union_names: Vec<String> = components
            .iter()
            .flat_map(|c| c.alphabet().names())
            .collect();
        let union_ab = rl_automata::Alphabet::new(union_names).expect("distinct names");
        let h_union = Homomorphism::new(&union_ab, h.target(), |n| {
            if keep.iter().any(|v| v == n) {
                Some(n.to_owned())
            } else {
                None
            }
        })
        .expect("same visible names");
        let (_, compositional_ms) = time_runs(PAYOFF_REPEATS, || {
            let abs = rl_abstraction::compositional_abstract_behavior(&components, &h_union)
                .expect("hidden actions are local");
            let verdict =
                is_relative_liveness(&behaviors_of_ts(&abs), &Property::formula(eta.clone()))
                    .expect("abstract check");
            assert!(verdict.holds == concrete.holds || k > 2);
            abs.state_count()
        });
        let median = |times: &[f64]| times[times.len() / 2];
        println!(
            "{:<16} {:>6} {:>10} {:>22} {:>22} {:>22} {:>8.1}x",
            format!("server_farm({k})"),
            ts.state_count(),
            abs_states,
            spread(&concrete_ms),
            spread(&abstract_ms),
            spread(&compositional_ms),
            median(&concrete_ms) / median(&compositional_ms)
        );
    }
    println!();
}

/// Calls per route and system in `payoff`.
const PAYOFF_REPEATS: usize = 7;

fn hardness() {
    println!("== E14 — determinization-hardness family (PSPACE shape), lazy search ==");
    println!(
        "{:<4} {:>15} {:>9} {:>14} {:>14} {:>9} {:>24}",
        "n",
        "property-states",
        "rel-live",
        "lazy/expanded",
        "lazy/subsumed",
        "ms",
        "oracle: pre-DFA-states"
    );
    let ab = rl_automata::Alphabet::new(["a", "b"]).expect("two symbols");
    for n in [2usize, 4, 6, 8, 10, 12] {
        let prop = nth_from_end_property(n);
        let system = Buchi::universal(ab.clone());
        let property = Property::automaton(prop.clone());
        // The shipped Lemma 4.3 decider, timed without a registry, then
        // run once more with one to read its counters.
        let (holds, ms) = time_ms(|| {
            is_relative_liveness_with(&system, &property, &Guard::unlimited())
                .expect("same alphabet")
                .holds
        });
        let reg = MetricsRegistry::new();
        let guard = Guard::unlimited().with_metrics(reg.clone());
        is_relative_liveness_with(&system, &property, &guard).expect("same alphabet");
        println!(
            "{:<4} {:>15} {:>9} {:>14} {:>14} {:>9.3} {:>24}",
            n,
            prop.state_count(),
            if holds { "HOLDS" } else { "fails" },
            reg.counter("lazy/expanded").get(),
            reg.counter("lazy/subsumed").get(),
            ms,
            oracle_pre_dfa_states(&system, &prop)
        );
    }
    println!();
}

/// Oracle only, run by no decider: the size of the determinized prefix
/// automaton of `system ∩ prop`, the subset construction the lazy search
/// avoids.
fn oracle_pre_dfa_states(system: &Buchi, prop: &Buchi) -> usize {
    let both = system.intersection(prop).expect("same alphabet").reduce();
    both.prefix_nfa().determinize().state_count()
}

fn ltl() {
    println!("== LTL → Büchi translation (GPVW) ==");
    println!(
        "{:<22} {:>10} {:>12} {:>10}",
        "formula family", "size", "aut-states", "ms"
    );
    let ab = rl_automata::Alphabet::new(["a", "b"]).expect("two symbols");
    let lam = Labeling::canonical(&ab);
    for k in [1usize, 2, 3, 4, 5] {
        let f = nested_until(k);
        let (states, ms) = time_ms(|| formula_to_buchi(&f, &lam).state_count());
        println!(
            "{:<22} {:>10} {:>12} {:>10.2}",
            format!("nested_until({k})"),
            f.size(),
            states,
            ms
        );
    }
    for k in [1usize, 2, 3] {
        let f = fairness_chain(k);
        let (states, ms) = time_ms(|| formula_to_buchi(&f, &lam).state_count());
        println!(
            "{:<22} {:>10} {:>12} {:>10.2}",
            format!("fairness_chain({k})"),
            f.size(),
            states,
            ms
        );
    }
    println!();
}

fn fair() {
    println!("== E10 — Theorem 5.1 synthesis + strongly fair execution ==");
    let ts = server_behaviors();
    let p = Property::formula(parse("[]<>result").expect("parses"));
    let imp = synthesize_fair_implementation(&ts, &p).expect("rel-live property");
    let r = run(&imp.system, &mut AgingScheduler::new(), 10_000);
    let result = imp.system.alphabet().symbol("result").expect("interned");
    let count = r.action_counts().get(&result).copied().unwrap_or(0);
    let gap = r
        .max_gap_between_visits(&imp.recurrent)
        .unwrap_or(usize::MAX);
    println!("original states       {:>8}", ts.state_count());
    println!("synthesized states    {:>8}", imp.system.state_count());
    println!("fair-run steps        {:>8}", r.len());
    println!("results produced      {:>8}", count);
    println!("max recurrence gap    {:>8}", gap);
    println!(
        "fairness ratio        {:>8.3}",
        rl_exec::min_fairness_ratio(&imp.system, &r, 10)
    );
    println!();
}

fn prob() {
    println!("== E16 — relative liveness vs probabilistic truth ==");
    println!(
        "{:<28} {:<12} {:>9} {:>12} {:>10}",
        "system", "property", "rel-live", "MC-estimate", "exact-Pr"
    );
    let rows: Vec<(&str, rl_automata::TransitionSystem, &str, Option<&str>)> = {
        let ab = rl_automata::Alphabet::new(["a", "b"]).expect("two symbols");
        let a = ab.symbol("a").expect("interned");
        let b = ab.symbol("b").expect("interned");
        let mut coin = rl_automata::TransitionSystem::new(ab);
        let s = coin.add_state();
        coin.set_initial(s);
        coin.add_transition(s, a, s);
        coin.add_transition(s, b, s);
        vec![
            (
                "server (Fig 2)",
                server_behaviors(),
                "[]<>result",
                Some("result"),
            ),
            (
                "erroneous server (Fig 3)",
                server_err_behaviors(),
                "[]<>result",
                Some("result"),
            ),
            ("coin flips {a,b}^ω", coin.clone(), "<>[]a", None),
            ("coin flips {a,b}^ω", coin, "[]<>a", Some("a")),
        ]
    };
    for (name, ts, text, action) in rows {
        let eta = parse(text).expect("parses");
        let rl = is_relative_liveness(&behaviors_of_ts(&ts), &Property::formula(eta.clone()))
            .expect("checks")
            .holds;
        let lam = Labeling::canonical(ts.alphabet());
        let est = rl_exec::estimate_satisfaction(&ts, &eta, &lam, 2_000, 17);
        let exact = action
            .map(|act| {
                let sym = ts.alphabet().symbol(act).expect("interned");
                format!("{:.2}", rl_exec::probability_of_recurrence(&ts, sym))
            })
            .unwrap_or_else(|| "-".to_owned());
        println!(
            "{:<28} {:<12} {:>9} {:>12.2} {:>10}",
            name, text, rl, est.probability, exact
        );
    }
    println!();
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_owned());
    match arg.as_str() {
        "fig2" => fig2(),
        "fig3" => fig3(),
        "fig4" => fig4(),
        "scaling" => scaling(),
        "payoff" => payoff(),
        "hardness" => hardness(),
        "ltl" => ltl(),
        "fair" => fair(),
        "prob" => prob(),
        "all" => {
            fig2();
            fig3();
            fig4();
            scaling();
            payoff();
            hardness();
            ltl();
            fair();
            prob();
        }
        other => {
            eprintln!(
                "unknown experiment {other:?}; expected one of \
                 fig2 fig3 fig4 scaling payoff hardness ltl fair prob all"
            );
            std::process::exit(2);
        }
    }
}
