//! Experiment harness: regenerates every table recorded in EXPERIMENTS.md.
//!
//! Usage: `cargo run --release -p rl-bench --bin harness [-- <experiment>]`
//! where `<experiment>` is one of `fig2 fig3 fig4 scaling payoff hardness
//! ltl fair prob trajectory lazy filters hist all` (default `all`).
//!
//! `trajectory` additionally writes `BENCH_<date>.json` at the repository
//! root: per-phase observability metrics (schema `rl-bench-trajectory/v1`)
//! for every example system, including `needle24.ts` under a budget.
//! `--out <path>` redirects that JSON (used by the `bench_compare` CI job
//! to produce a fresh run without clobbering the committed baseline). Every
//! case is additionally re-run with the event tracer attached; the run
//! aborts if tracing shifts any deterministic counter, and the traced wall
//! clock, event count, and equality witness land in the JSON
//! (`traced_elapsed_us`, `trace_events`, `trace_counters_equal`).
//!
//! `lazy` writes `BENCH_<date>-lazy.json` (schema `rl-bench-lazy/v1`):
//! every trajectory case checked with the lazy fused pipeline (the default)
//! and with `--no-lazy` materialization side by side — expanded-state and
//! wall-clock deltas, with needle24 as the headline case.
//!
//! `filters` writes `BENCH_<date>-filters.json` (schema
//! `rl-bench-filters/v1`): every trajectory case plus the shipped
//! `filter_*.ts` instances run with the semidecision pre-filter ladder on
//! and off — which stage settled each case, the zero-exact-work invariant
//! on hits, and the bit-for-bit fall-through counter identity.
//!
//! `hist` writes `BENCH_<date>-hist.json` (schema `rl-bench-hist/v1`):
//! every trajectory case run with the percentile histogram registry
//! attached next to a detached control — per-family p50/p90/p99/max plus a
//! `hist_counters_equal` witness that recording latency samples moved no
//! deterministic counter.

use std::time::{Duration, Instant};

use relative_liveness::format::parse_system;
use rl_abstraction::{abstract_behavior, check_simplicity, Homomorphism};
use rl_bench::{
    fairness_chain, farm_observables, nested_until, nth_from_end_property, server_farm, token_ring,
};
use rl_buchi::{behaviors_of_ts, behaviors_of_ts_with, Buchi};
use rl_core::{
    is_relative_liveness, is_relative_safety, satisfies, synthesize_fair_implementation,
    verify_via_abstraction, Budget, CheckError, CheckPlan, Guard, Metric, MetricsRegistry,
    Property, TransferConclusion,
};
use rl_exec::{run, AgingScheduler};
use rl_json::{Json, ObjBuilder, ToJson};
use rl_logic::{formula_to_buchi, parse, Labeling};
use rl_petri::examples::{server_behaviors, server_err_behaviors};

fn time_ms<T>(f: impl Fn() -> T) -> (T, f64) {
    // Median of three runs.
    let mut times = Vec::new();
    let mut out = None;
    for _ in 0..3 {
        let start = Instant::now();
        out = Some(f());
        times.push(start.elapsed().as_secs_f64() * 1_000.0);
    }
    times.sort_by(f64::total_cmp);
    (out.expect("ran at least once"), times[1])
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
    println!(
        "{:<16} {:>8} {:>10} {:>14} {:>14} {:>18} {:>9}",
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
        let (concrete, concrete_ms) =
            time_ms(|| rl_core::check_transported_concrete(&ts, &h, &eta).expect("concrete check"));
        // Abstract route: abstraction + simplicity + abstract decision.
        let (abs_states, abstract_ms) = time_ms(|| {
            let abs = abstract_behavior(&h, &ts);
            let simple = check_simplicity(&h, &ts.to_nfa())
                .expect("simplicity")
                .simple;
            let verdict =
                is_relative_liveness(&behaviors_of_ts(&abs), &Property::formula(eta.clone()))
                    .expect("abstract check");
            assert!(simple && verdict.holds == concrete.holds);
            abs.state_count()
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
        let (_, compositional_ms) = time_ms(|| {
            let abs = rl_abstraction::compositional_abstract_behavior(&components, &h_union)
                .expect("hidden actions are local");
            let verdict =
                is_relative_liveness(&behaviors_of_ts(&abs), &Property::formula(eta.clone()))
                    .expect("abstract check");
            assert!(verdict.holds == concrete.holds || k > 2);
            abs.state_count()
        });
        println!(
            "{:<16} {:>8} {:>10} {:>14.2} {:>14.2} {:>18.2} {:>8.1}x",
            format!("server_farm({k})"),
            ts.state_count(),
            abs_states,
            concrete_ms,
            abstract_ms,
            compositional_ms,
            concrete_ms / compositional_ms
        );
    }
    println!();
}

fn hardness() {
    println!("== E14 — determinization-hardness family (PSPACE shape) ==");
    println!(
        "{:<6} {:>14} {:>16} {:>10}",
        "n", "property-states", "pre-DFA-states", "ms"
    );
    let ab = rl_automata::Alphabet::new(["a", "b"]).expect("two symbols");
    for n in [2usize, 4, 6, 8, 10, 12] {
        let prop = nth_from_end_property(n);
        let system = Buchi::universal(ab.clone());
        let (size, ms) = time_ms(|| {
            let both = system.intersection(&prop).expect("same alphabet").reduce();
            both.prefix_nfa().determinize().state_count()
        });
        println!(
            "{:<6} {:>14} {:>16} {:>10.2}",
            n,
            prop.state_count(),
            size,
            ms
        );
    }
    println!();
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

/// Today's civil date as `YYYY-MM-DD` (Hinnant's `civil_from_days`, so no
/// calendar dependency is needed).
fn today() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after 1970")
        .as_secs();
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Which pipeline variant a [`trajectory_case`] runs: the lazy-search and
/// filter-ladder toggles (the `--no-lazy` and `--no-filters` knobs of the
/// CLI).
#[derive(Clone, Copy)]
struct Pipeline {
    lazy: bool,
    filters: bool,
}

impl Pipeline {
    /// The CLI's defaults: lazy on, filters on.
    const DEFAULT: Pipeline = Pipeline {
        lazy: true,
        filters: true,
    };
}

/// One trajectory case: the full `check` pipeline (one `CheckPlan` for
/// classical, relative liveness and relative safety) on an example system
/// under a metered guard.
/// With a tracer the registry and op cache record timeline events; with a
/// histogram registry the guard and op cache record percentile samples —
/// the counters must come out bit-for-bit identical either way. Returns
/// the outcome, the registry, and the run's wall clock in µs, read the
/// moment the pipeline returns (the registry's own clock keeps running).
fn trajectory_case(
    root: &str,
    file: &str,
    formula: &str,
    budget: Budget,
    pipeline: Pipeline,
    tracer: Option<std::sync::Arc<rl_automata::Tracer>>,
    hists: Option<&rl_automata::HistogramRegistry>,
) -> (String, MetricsRegistry, u64) {
    let text = std::fs::read_to_string(format!("{root}/examples/systems/{file}"))
        .expect("example system exists");
    let ts = parse_system(&text).expect("example system parses");
    let eta = parse(formula).expect("parses");
    let prop = Property::formula(eta);
    let registry = MetricsRegistry::new();
    if let Some(t) = &tracer {
        registry.set_tracer(std::sync::Arc::clone(t));
    }
    // One memo cache per case, exactly like a default `rlcheck` invocation.
    let cache = match tracer {
        Some(t) => rl_automata::OpCache::with_tracer(t),
        None => rl_automata::OpCache::new(),
    };
    let mut guard = Guard::new(budget)
        .with_lazy(pipeline.lazy)
        .with_filters(pipeline.filters)
        .with_metrics(registry.clone());
    if let Some(h) = hists {
        cache.set_histograms(h.clone());
        guard = guard.with_histograms(h.clone());
    }
    let guard = guard.with_op_cache(cache);
    let verdict = (|| -> Result<bool, CheckError> {
        let _span = guard.span("check");
        let behaviors = behaviors_of_ts_with(&ts, &guard).map_err(CheckError::from)?;
        let verdicts = CheckPlan::new(&behaviors, &prop, &guard).decide()?;
        Ok(verdicts.liveness.holds)
    })();
    let elapsed_us = registry.elapsed().as_micros() as u64;
    let outcome = match verdict {
        Ok(true) => "rel-live holds".to_owned(),
        Ok(false) => "rel-live fails".to_owned(),
        Err(CheckError::BudgetExceeded { partial, .. }) => format!(
            "budget exhausted in {}",
            partial.phase.unwrap_or_else(|| "?".to_owned())
        ),
        Err(e) => format!("error: {e}"),
    };
    (outcome, registry, elapsed_us)
}

/// The shared case list of the metered experiments.
fn trajectory_cases() -> [(&'static str, &'static str, Budget); 5] {
    let mut needle_budget = Budget::unlimited();
    needle_budget.max_states = Some(20_000);
    needle_budget.deadline = Some(Duration::from_secs(5));
    [
        ("abp.ts", "[]<>deliver", Budget::unlimited()),
        ("clock.ts", "[]<>tick", Budget::unlimited()),
        ("server.pn", "[]<>result", Budget::unlimited()),
        ("server_err.pn", "[]<>result", Budget::unlimited()),
        ("needle24.ts", "[]<>a", needle_budget),
    ]
}

fn trajectory(out_override: Option<&str>) {
    println!("== E17 — per-phase observability trajectory ==");
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let cases = trajectory_cases();
    println!(
        "{:<16} {:>10} {:>12} {:>8} {:>10}   outcome",
        "system", "states", "transitions", "phases", "ms"
    );
    let totals = |r: &MetricsRegistry| {
        [
            r.total(Metric::States),
            r.total(Metric::Transitions),
            r.total(Metric::GuardCharges),
            r.total(Metric::CacheHits),
        ]
    };
    let mut rows = Vec::new();
    for (file, formula, budget) in cases {
        let (outcome, registry, elapsed_us) = trajectory_case(
            root,
            file,
            formula,
            budget.clone(),
            Pipeline::DEFAULT,
            None,
            None,
        );
        // Tracer-overhead guard: the same case with the event tracer
        // attached must charge bit-for-bit the same deterministic counters
        // — tracing is timeline-only by construction, and this is where
        // that invariant is enforced release after release.
        let tracer = std::sync::Arc::new(rl_automata::Tracer::new());
        let (traced_outcome, traced_registry, traced_elapsed_us) = trajectory_case(
            root,
            file,
            formula,
            budget,
            Pipeline::DEFAULT,
            Some(std::sync::Arc::clone(&tracer)),
            None,
        );
        let trace_counters_equal =
            totals(&registry) == totals(&traced_registry) && outcome == traced_outcome;
        assert!(
            trace_counters_equal,
            "{file}: tracer perturbed the deterministic counters \
             ({:?} untraced vs {:?} traced)",
            totals(&registry),
            totals(&traced_registry)
        );
        let records = registry.records();
        println!(
            "{:<16} {:>10} {:>12} {:>8} {:>10.2}   {}",
            file,
            registry.total(Metric::States),
            registry.total(Metric::Transitions),
            records.len(),
            elapsed_us as f64 / 1_000.0,
            outcome
        );
        rows.push(
            ObjBuilder::new()
                .field("system", file)
                .field("formula", formula)
                .field("outcome", outcome)
                .field("elapsed_us", elapsed_us)
                .field("states", registry.total(Metric::States))
                .field("transitions", registry.total(Metric::Transitions))
                .field("guard_charges", registry.total(Metric::GuardCharges))
                .field("cache_hits", registry.total(Metric::CacheHits))
                .field("traced_elapsed_us", traced_elapsed_us)
                .field("trace_events", tracer.events().len() as u64)
                .field("trace_counters_equal", trace_counters_equal)
                .field(
                    "phases",
                    Json::Arr(records.iter().map(ToJson::to_json).collect()),
                )
                .build(),
        );
    }
    let date = today();
    let doc = ObjBuilder::new()
        .field("schema", "rl-bench-trajectory/v1")
        .field("date", date.as_str())
        .field("cases", Json::Arr(rows))
        .build();
    let path = match out_override {
        Some(p) => p.to_owned(),
        None => format!("{root}/BENCH_{date}.json"),
    };
    let text = rl_json::to_string_pretty(&doc).expect("trajectory document serializes");
    std::fs::write(&path, text + "\n").expect("output path is writable");
    println!("wrote {path}");
    println!();
}

/// Lazy fused pipeline vs the materializing one: every trajectory case run
/// with `Guard::with_lazy(true)` and `with_lazy(false)` side by side.
/// Writes `BENCH_<date>-lazy.json` (schema `rl-bench-lazy/v1`): the
/// deterministic expanded-state delta (`eager_states` vs `lazy_expanded`)
/// and the elapsed delta, with the needle24 case as the headline — eager
/// exhausts its budget in the subset construction, the fused antichain
/// search decides it in a few dozen expansions.
fn lazy_experiment(out_override: Option<&str>) {
    println!("== E19 — lazy fused pipeline vs materializing ==");
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    println!(
        "{:<16} {:>12} {:>12} {:>10} {:>10} {:>10}   outcome (lazy | eager)",
        "system", "lazy-ms", "eager-ms", "expanded", "subsumed", "eager-st"
    );
    let mut rows = Vec::new();
    // Filters off throughout: this experiment pins the two *exact*
    // pipelines against each other; the pre-filter ladder would settle
    // most of these inclusions before either one ran (`filters` below
    // measures the ladder itself).
    for (file, formula, budget) in trajectory_cases() {
        let pipeline = |lazy| Pipeline {
            lazy,
            filters: false,
        };
        let (lazy_outcome, lazy_reg, lazy_us) = trajectory_case(
            root,
            file,
            formula,
            budget.clone(),
            pipeline(true),
            None,
            None,
        );
        let (eager_outcome, eager_reg, eager_us) =
            trajectory_case(root, file, formula, budget, pipeline(false), None, None);
        let lazy_states = lazy_reg.total(Metric::States);
        let expanded = lazy_reg.counter("lazy/expanded").get();
        let subsumed = lazy_reg.counter("lazy/subsumed").get();
        let eager_states = eager_reg.total(Metric::States);
        // Expanded-state delta: nodes the fused search admitted vs states
        // the materializing pipeline charged before finishing (or before
        // its budget tripped, for needle24).
        let expanded_ratio = eager_states as f64 / expanded.max(1) as f64;
        println!(
            "{:<16} {:>12.2} {:>12.2} {:>10} {:>10} {:>10}   {} | {}",
            file,
            lazy_us as f64 / 1_000.0,
            eager_us as f64 / 1_000.0,
            expanded,
            subsumed,
            eager_states,
            lazy_outcome,
            eager_outcome
        );
        if file == "needle24.ts" {
            // The acceptance headline: the antichain search must beat the
            // subset construction's state count by at least 5x.
            assert!(
                eager_states >= 5 * expanded.max(1),
                "needle24: expanded-state drop below 5x \
                 (eager {eager_states}, lazy expanded {expanded})"
            );
        }
        rows.push(
            ObjBuilder::new()
                .field("system", file)
                .field("formula", formula)
                .field("lazy_outcome", lazy_outcome)
                .field("eager_outcome", eager_outcome)
                .field("lazy_expanded", expanded)
                .field("lazy_subsumed", subsumed)
                .field("lazy_states", lazy_states)
                .field("eager_states", eager_states)
                .field("expanded_ratio", expanded_ratio)
                .field("lazy_jobs1_us", lazy_us)
                .field("eager_us", eager_us)
                .build(),
        );
    }
    let date = today();
    let doc = ObjBuilder::new()
        .field("schema", "rl-bench-lazy/v1")
        .field("date", date.as_str())
        .field(
            "note",
            "expanded_ratio = eager_states / lazy_expanded; needle24 is the \
             headline (eager exhausts its budget in the subset construction)",
        )
        .field("cases", Json::Arr(rows))
        .build();
    let path = match out_override {
        Some(p) => p.to_owned(),
        None => format!("{root}/BENCH_{date}-lazy.json"),
    };
    let text = rl_json::to_string_pretty(&doc).expect("lazy document serializes");
    std::fs::write(&path, text + "\n").expect("output path is writable");
    println!("wrote {path}");
    println!();
}

/// The semidecision pre-filter ladder vs the exact deciders: every
/// trajectory case plus the four shipped `filter_*.ts` instances, each run
/// three ways — filters on (the default), `--no-filters` on the lazy
/// pipeline, and `--no-filters --no-lazy` (the materializing PSPACE core).
/// Writes `BENCH_<date>-filters.json` (schema `rl-bench-filters/v1`): the
/// stage that settled each case, the elapsed deltas, and two hard
/// invariants — a ladder hit leaves zero `lazy/expanded` work behind and
/// beats the materializing core by ≥10x on the windowed instances, while a
/// pure fall-through charges bit-for-bit the `--no-filters` deterministic
/// counters at <5% (or <2ms) wall-clock overhead.
fn filters_experiment(out_override: Option<&str>) {
    println!("== E20 — semidecision pre-filter ladder vs the exact core ==");
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    println!(
        "{:<24} {:<8} {:>12} {:>12} {:>12}   outcome",
        "system", "stage", "filtered-ms", "lazy-ms", "eager-ms"
    );
    let counters = |r: &MetricsRegistry| {
        [
            r.total(Metric::States),
            r.total(Metric::Transitions),
            r.total(Metric::GuardCharges),
            r.total(Metric::CacheHits),
        ]
    };
    let mut cases: Vec<(&str, &str, Budget)> = trajectory_cases().to_vec();
    cases.extend([
        ("filter_parikh.ts", "[]<>a", Budget::unlimited()),
        ("filter_mod3.ts", "[]<>a", Budget::unlimited()),
        ("filter_sim.ts", "[]<>ack", Budget::unlimited()),
        ("filter_fallthrough.ts", "[]<>a", Budget::unlimited()),
    ]);
    let mut rows = Vec::new();
    for (file, formula, budget) in cases {
        // Median-of-three wall clocks per configuration, like `time_ms`.
        let timed = |lazy: bool, filters: bool| {
            let mut runs: Vec<(String, MetricsRegistry, u64)> = (0..3)
                .map(|_| {
                    let pipeline = Pipeline { lazy, filters };
                    trajectory_case(root, file, formula, budget.clone(), pipeline, None, None)
                })
                .collect();
            runs.sort_by_key(|&(_, _, us)| us);
            runs.swap_remove(1)
        };
        let (outcome, reg, us) = timed(true, true);
        let (lazy_outcome, lazy_reg, lazy_us) = timed(true, false);
        let (_eager_outcome, _eager_reg, eager_us) = timed(false, false);
        let hit = reg.counter("filter/hit").get() == 1;
        let stage = if reg.counter("filter/parikh/hit").get() == 1 {
            "parikh"
        } else if reg.counter("filter/modk/hit").get() == 1 {
            "modk"
        } else if reg.counter("filter/sim/hit").get() == 1 {
            "sim"
        } else {
            "none"
        };
        let expanded = reg.counter("lazy/expanded").get();
        // The ladder never changes a verdict, and a hit leaves the exact
        // machinery untouched for the relative-liveness phase.
        assert_eq!(outcome, lazy_outcome, "{file}: filters changed the verdict");
        assert!(
            !hit || expanded == 0,
            "{file}: ladder hit but the fused search still expanded {expanded}"
        );
        // Fall-through must be indistinguishable in the deterministic
        // counters (the kernels only poll the guard) and nearly free:
        // under 5% of the --no-filters wall clock, or under 2ms absolute
        // (the examples are small enough for scheduler jitter to matter).
        let counters_equal = hit || counters(&reg) == counters(&lazy_reg);
        assert!(
            counters_equal,
            "{file}: fall-through diverged from --no-filters counters \
             ({:?} vs {:?})",
            counters(&reg),
            counters(&lazy_reg)
        );
        if !hit {
            let overhead_us = us.saturating_sub(lazy_us);
            assert!(
                us as f64 <= lazy_us as f64 * 1.05 || overhead_us < 2_000,
                "{file}: fall-through overhead {overhead_us}us over {lazy_us}us"
            );
        }
        // The windowed filter instances are the headline: the ladder beats
        // the materializing PSPACE core by at least 10x wall clock.
        if file.starts_with("filter_") && file != "filter_fallthrough.ts" && file != "filter_sim.ts"
        {
            assert!(
                eager_us >= 10 * us.max(1),
                "{file}: ladder speedup below 10x (filtered {us}us, eager {eager_us}us)"
            );
        }
        println!(
            "{:<24} {:<8} {:>12.2} {:>12.2} {:>12.2}   {}",
            file,
            stage,
            us as f64 / 1_000.0,
            lazy_us as f64 / 1_000.0,
            eager_us as f64 / 1_000.0,
            outcome
        );
        rows.push(
            ObjBuilder::new()
                .field("system", file)
                .field("formula", formula)
                .field("outcome", outcome)
                .field("stage", stage)
                .field("filter_hit", hit)
                .field("filtered_states", reg.total(Metric::States))
                .field("filtered_transitions", reg.total(Metric::Transitions))
                .field("lazy_expanded", expanded)
                .field("filtered_us", us)
                .field("nofilter_lazy_us", lazy_us)
                .field("nofilter_eager_us", eager_us)
                .field("filters_agree", counters_equal)
                .build(),
        );
    }
    let date = today();
    let doc = ObjBuilder::new()
        .field("schema", "rl-bench-filters/v1")
        .field("date", date.as_str())
        .field(
            "note",
            "stage = ladder stage that settled the inclusion (none = fall-through \
             to the exact core); filters_agree witnesses verdict agreement and, on \
             fall-through, bit-for-bit deterministic counters vs --no-filters",
        )
        .field("cases", Json::Arr(rows))
        .build();
    let path = match out_override {
        Some(p) => p.to_owned(),
        None => format!("{root}/BENCH_{date}-filters.json"),
    };
    let text = rl_json::to_string_pretty(&doc).expect("filters document serializes");
    std::fs::write(&path, text + "\n").expect("output path is writable");
    println!("wrote {path}");
    println!();
}

/// Writes `BENCH_<date>-hist.json` (schema `rl-bench-hist/v1`): every
/// trajectory case run with the percentile histogram registry attached,
/// next to a detached control run. Witness `hist_counters_equal`: recording
/// latency samples must not move any deterministic counter — histograms
/// observe the pipeline, never steer it. Per-family `count`/`p50`/`p90`/
/// `p99`/`max` land in the JSON so `bench_compare` can gate percentile
/// regressions against the committed baseline.
fn hist_experiment(out_override: Option<&str>) {
    println!("== E21 — percentile histograms: attached vs detached ==");
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let totals = |r: &MetricsRegistry| {
        [
            r.total(Metric::States),
            r.total(Metric::Transitions),
            r.total(Metric::GuardCharges),
        ]
    };
    println!(
        "{:<16} {:>9} {:>9} {:>10}   busiest family",
        "system", "families", "samples", "ms"
    );
    let mut rows = Vec::new();
    for (file, formula, budget) in trajectory_cases() {
        let (plain_outcome, plain_reg, _) = trajectory_case(
            root,
            file,
            formula,
            budget.clone(),
            Pipeline::DEFAULT,
            None,
            None,
        );
        let registry = rl_automata::HistogramRegistry::new();
        let (outcome, reg, elapsed_us) = trajectory_case(
            root,
            file,
            formula,
            budget,
            Pipeline::DEFAULT,
            None,
            Some(&registry),
        );
        let hists = registry.snapshot();
        let hist_counters_equal = totals(&plain_reg) == totals(&reg) && plain_outcome == outcome;
        assert!(
            hist_counters_equal,
            "{file}: histogram recording perturbed the deterministic counters \
             ({:?} detached vs {:?} attached)",
            totals(&plain_reg),
            totals(&reg)
        );
        let recorded: Vec<_> = hists.iter().filter(|(_, s)| s.count > 0).collect();
        let samples: u64 = recorded.iter().map(|(_, s)| s.count).sum();
        let busiest = recorded.iter().max_by_key(|(_, s)| s.count).map_or_else(
            || "-".to_owned(),
            |(n, s)| format!("{n} (p99 {}µs)", s.p99()),
        );
        println!(
            "{:<16} {:>9} {:>9} {:>10.2}   {}",
            file,
            recorded.len(),
            samples,
            elapsed_us as f64 / 1_000.0,
            busiest
        );
        let families: Vec<Json> = recorded
            .iter()
            .map(|(name, snap)| {
                ObjBuilder::new()
                    .field("name", name.as_str())
                    .field("count", snap.count)
                    .field("p50", snap.p50())
                    .field("p90", snap.p90())
                    .field("p99", snap.p99())
                    .field("max", snap.max)
                    .build()
            })
            .collect();
        rows.push(
            ObjBuilder::new()
                .field("system", file)
                .field("formula", formula)
                .field("outcome", outcome)
                .field("elapsed_us", elapsed_us)
                .field("states", reg.total(Metric::States))
                .field("transitions", reg.total(Metric::Transitions))
                .field("guard_charges", reg.total(Metric::GuardCharges))
                .field("hist_counters_equal", hist_counters_equal)
                .field("families", Json::Arr(families))
                .build(),
        );
    }
    let date = today();
    let doc = ObjBuilder::new()
        .field("schema", "rl-bench-hist/v1")
        .field("date", date.as_str())
        .field("cases", Json::Arr(rows))
        .build();
    let path = match out_override {
        Some(p) => p.to_owned(),
        None => format!("{root}/BENCH_{date}-hist.json"),
    };
    let text = rl_json::to_string_pretty(&doc).expect("hist document serializes");
    std::fs::write(&path, text + "\n").expect("output path is writable");
    println!("wrote {path}");
    println!();
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--out <path>` redirects the trajectory JSON (default:
    // `BENCH_<date>.json` at the repo root).
    let mut out = None;
    while let Some(idx) = args.iter().position(|a| a == "--out") {
        if idx + 1 >= args.len() {
            eprintln!("--out needs a value (output file)");
            std::process::exit(2);
        }
        out = Some(args.remove(idx + 1));
        args.remove(idx);
    }
    let arg = args.first().cloned().unwrap_or_else(|| "all".to_owned());
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
        "trajectory" => trajectory(out.as_deref()),
        "lazy" => lazy_experiment(out.as_deref()),
        "filters" => filters_experiment(out.as_deref()),
        "hist" => hist_experiment(out.as_deref()),
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
            trajectory(out.as_deref());
            lazy_experiment(None);
            filters_experiment(None);
            hist_experiment(None);
        }
        other => {
            eprintln!(
                "unknown experiment {other:?}; expected one of \
                 fig2 fig3 fig4 scaling payoff hardness ltl fair prob trajectory lazy filters \
                 hist all"
            );
            std::process::exit(2);
        }
    }
}
