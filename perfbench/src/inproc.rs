//! The in-process operations: one `report_check` (the `check` workload), one
//! `verify_via_abstraction_with` (the `abstract` workload), and their traced
//! twins, which call each layer's public functions one by one from here and
//! time them from outside.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use relative_liveness::abstraction::{
    abstract_behavior_with, check_simplicity_with, has_maximal_words_with, image_nfa, Homomorphism,
};
use relative_liveness::automata::{nfa_included_lazy, OpCache, TransitionSystem};
use relative_liveness::buchi::behaviors_of_ts_with;
use relative_liveness::check::{parse_formula, report_check, CheckSpec};
use relative_liveness::core::{
    is_relative_liveness_with, is_relative_safety_with, prefilter_inclusion, satisfies_with,
    verify_via_abstraction_with, Budget, CancelToken, FilterOutcome, Guard, Metric,
    MetricsRegistry, Property, TransferConclusion,
};
use relative_liveness::format::parse_system;
use relative_liveness::logic::{r_bar_strict, simplify, Formula};

use crate::cases::{Case, Conclusion, Source, Verdicts};
use crate::stats::{median, weighted_mean};

/// A case made ready to run: its system on disk (generated systems are
/// written out, so every check reads a file as `rlcheck check` does), and
/// the parsed system, formula and homomorphism the abstraction route takes.
pub struct Prepared {
    pub case: Case,
    pub spec: CheckSpec,
    pub ts: TransitionSystem,
    pub eta: Formula,
    pub hom: Option<Homomorphism>,
}

/// Writes the generated systems into `work` and parses every case.
pub fn prepare(cases: &[Case], work: &Path) -> Result<Vec<Prepared>, String> {
    cases
        .iter()
        .enumerate()
        .map(|(i, case)| {
            let path = match &case.source {
                Source::Fixture(path) => path.to_string(),
                Source::Generated(text) => {
                    let path = work.join(format!("case{i}.ts"));
                    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
                    path.to_string_lossy().into_owned()
                }
            };
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            let ts = parse_system(&text).map_err(|e| format!("{path}: {e}"))?;
            let eta = parse_formula(&case.formula).map_err(|e| format!("{}: {e}", case.name))?;
            let hom = match &case.abstraction {
                None => None,
                Some(a) => Some(
                    Homomorphism::hiding(ts.alphabet(), a.keep.iter().map(String::as_str))
                        .map_err(|e| format!("{}: {e}", case.name))?,
                ),
            };
            Ok(Prepared {
                case: case.clone(),
                spec: CheckSpec::from_path(path, case.formula.clone()),
                ts,
                eta,
                hom,
            })
        })
        .collect()
}

/// The guard `rlcheck` assembles for a one-shot run with no flags: no
/// budget, lazy deciders, the filter ladder, and a fresh operation cache.
pub fn default_guard() -> Guard {
    Guard::with_cancel(Budget::unlimited(), CancelToken::new())
        .with_lazy(true)
        .with_filters(true)
        .with_op_cache(OpCache::with_limits(None, None))
}

/// Reads the three verdict lines of a check report.
pub fn verdicts_of_report(out: &str) -> Option<Verdicts> {
    let find = |tag: &str| -> Option<bool> {
        let line = out.lines().find(|l| l.starts_with(tag))?;
        if line.ends_with(": HOLDS") {
            Some(true)
        } else if line.ends_with(": fails") {
            Some(false)
        } else {
            None
        }
    };
    Some(Verdicts {
        classical: find("classical ")?,
        rel_live: find("rel-live ")?,
        rel_safe: find("rel-safe ")?,
    })
}

/// Checks a job's exit code and report against the expected table.
pub fn verify_report(code: u8, out: &str, expect: &Verdicts) -> Result<(), String> {
    let want_code = if expect.rel_live { 0 } else { 1 };
    if code != want_code {
        return Err(format!("exit code {code}, expected {want_code}"));
    }
    match verdicts_of_report(out) {
        Some(v) if v == *expect => Ok(()),
        Some(v) => Err(format!("verdicts {v:?}, expected {expect:?}")),
        None => Err(format!("unreadable report: {out:?}")),
    }
}

/// One `check` operation; the caller times it.
pub fn check_op(p: &Prepared) -> Result<(), String> {
    let (code, out) = {
        let guard = default_guard();
        let (mut out, mut err) = (String::new(), String::new());
        (report_check(&p.spec, &guard, &mut out, &mut err), out)
    };
    verify_report(code, &out, &p.case.expect)
}

fn conclusion_matches(got: &TransferConclusion, want: Conclusion) -> bool {
    matches!(
        (got, want),
        (TransferConclusion::ConcreteHolds, Conclusion::ConcreteHolds)
            | (
                TransferConclusion::InconclusiveNotSimple { .. },
                Conclusion::InconclusiveNotSimple
            )
    )
}

/// One `abstract` operation, the whole Corollary 8.4 pipeline; the caller
/// times it.
pub fn abstract_op(p: &Prepared) -> Result<(), String> {
    let (h, want) = abstraction_of(p)?;
    let analysis = {
        let guard = default_guard();
        verify_via_abstraction_with(&p.ts, h, &p.eta, &guard)
    };
    let analysis = analysis.map_err(|e| e.to_string())?;
    if conclusion_matches(&analysis.conclusion, want) {
        Ok(())
    } else {
        Err(format!(
            "conclusion {:?}, expected {want:?}",
            analysis.conclusion
        ))
    }
}

fn abstraction_of(p: &Prepared) -> Result<(&Homomorphism, Conclusion), String> {
    match (&p.hom, &p.case.abstraction) {
        (Some(h), Some(a)) => Ok((h, a.expect)),
        _ => Err(format!("{} has no abstraction", p.case.name)),
    }
}

/// Per-layer samples, keyed by metric name then case index. Times keep
/// every sample (reported as medians); counts must repeat exactly for a
/// case, and a case whose count changes is recorded as a mismatch.
#[derive(Default)]
pub struct Layers {
    times: BTreeMap<&'static str, BTreeMap<usize, Vec<f64>>>,
    counts: BTreeMap<&'static str, BTreeMap<usize, f64>>,
    pub count_mismatches: Vec<String>,
}

impl Layers {
    pub fn time(&mut self, metric: &'static str, case: usize, ms: f64) {
        self.times
            .entry(metric)
            .or_default()
            .entry(case)
            .or_default()
            .push(ms);
    }

    pub fn count(&mut self, metric: &'static str, case: usize, value: f64) {
        let slot = self.counts.entry(metric).or_default();
        match slot.get(&case) {
            Some(&old) if old != value => self
                .count_mismatches
                .push(format!("{metric} of case {case}: {old} then {value}")),
            Some(_) => {}
            None => {
                slot.insert(case, value);
            }
        }
    }

    /// Per metric: the mix-weighted mean over cases of each case's median
    /// (times) or exact value (counts) — the expected cost of one operation
    /// of the mix in that layer.
    pub fn finish(&self, weight: impl Fn(usize) -> f64) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (name, per_case) in &self.times {
            let v = weighted_mean(per_case.iter().map(|(&c, s)| (weight(c), median(s))));
            out.insert(*name, v);
        }
        for (name, per_case) in &self.counts {
            let v = weighted_mean(per_case.iter().map(|(&c, &v)| (weight(c), v)));
            out.insert(*name, v);
        }
        out
    }

    /// How many samples each metric holds, summed over cases.
    pub fn sample_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for (name, per_case) in &self.times {
            out.insert(*name, per_case.values().map(Vec::len).sum());
        }
        for (name, per_case) in &self.counts {
            out.insert(*name, per_case.len());
        }
        out
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The registry counters a decider call charges.
fn charges(reg: &MetricsRegistry) -> [u64; 3] {
    [
        reg.total(Metric::States),
        reg.total(Metric::Transitions),
        reg.total(Metric::GuardCharges),
    ]
}

/// Adds `reg`'s charges since `before` into `acc`.
fn add_charges(acc: &mut [u64; 3], reg: &MetricsRegistry, before: [u64; 3]) {
    let after = charges(reg);
    for i in 0..3 {
        acc[i] += after[i] - before[i];
    }
}

fn record_charges(layers: &mut Layers, case: usize, acc: [u64; 3]) {
    layers.count("core.states", case, acc[0] as f64);
    layers.count("core.transitions", case, acc[1] as f64);
    layers.count("core.guard_charges", case, acc[2] as f64);
}

/// The side calls shared by both traced operations, on a fresh default
/// guard so they cannot warm the timed pipeline's cache: property
/// translation, then the Lemma 4.3 inclusion `pre(L) ⊆ pre(L ∩ P)` through
/// the filter ladder and through the lazy decider.
fn trace_inclusion(
    layers: &mut Layers,
    case: usize,
    system: &TransitionSystem,
    prop: &Property,
    want_live: bool,
) -> Result<(), String> {
    let guard = default_guard();
    let behaviors = behaviors_of_ts_with(system, &guard).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let p = prop
        .to_buchi(behaviors.alphabet())
        .map_err(|e| e.to_string())?;
    prop.negation_to_buchi_with(behaviors.alphabet(), &guard)
        .map_err(|e| e.to_string())?;
    layers.time("logic.translate_ms", case, ms_since(t));
    let both = behaviors
        .intersection_with(&p, &guard)
        .map_err(|e| e.to_string())?;
    let (pre_l, pre_lp) = (behaviors.prefix_nfa(), both.prefix_nfa());
    let t = Instant::now();
    let outcome = prefilter_inclusion(&pre_l, &pre_lp, &guard).map_err(|e| e.to_string())?;
    layers.time("core.prefilter_ms", case, ms_since(t));
    let decided = match outcome {
        FilterOutcome::Proved => Some(true),
        FilterOutcome::Refuted(_) => Some(false),
        FilterOutcome::Unknown => None,
    };
    layers.count(
        "core.prefilter_decided_ratio",
        case,
        if decided.is_some() { 1.0 } else { 0.0 },
    );
    let t = Instant::now();
    let doomed = nfa_included_lazy(&pre_l, &pre_lp, &guard).map_err(|e| e.to_string())?;
    layers.time("automata.lazy_inclusion_ms", case, ms_since(t));
    if doomed.is_none() != want_live || decided.is_some_and(|d| d != want_live) {
        return Err("inclusion deciders disagree with the expected rel-live verdict".into());
    }
    Ok(())
}

/// A traced `check`: the pipeline of `run_check` called layer by layer
/// under a registry-backed default guard. Returns the pipeline's time
/// (file read to rel-safe verdict; the side calls are not included).
pub fn traced_check(p: &Prepared, case: usize, layers: &mut Layers) -> Result<f64, String> {
    let reg = MetricsRegistry::new();
    let mut acc = [0u64; 3];
    // Timed like `check_op`: from building the guard to dropping it and
    // every intermediate automaton.
    let start = Instant::now();
    let (got, ts, prop) = {
        let guard = default_guard().with_metrics(reg.clone());
        let ts = p.spec.source.load().map_err(|e| e.to_string())?;
        let eta = parse_formula(&p.spec.formula).map_err(|e| e.to_string())?;
        let behaviors = behaviors_of_ts_with(&ts, &guard).map_err(|e| e.to_string())?;
        let prop = Property::formula(eta);
        let (before, t) = (charges(&reg), Instant::now());
        let sat = satisfies_with(&behaviors, &prop, &guard).map_err(|e| e.to_string())?;
        layers.time("core.classical_ms", case, ms_since(t));
        add_charges(&mut acc, &reg, before);
        let (before, t) = (charges(&reg), Instant::now());
        let rl = is_relative_liveness_with(&behaviors, &prop, &guard).map_err(|e| e.to_string())?;
        layers.time("core.rel_live_ms", case, ms_since(t));
        add_charges(&mut acc, &reg, before);
        let (before, t) = (charges(&reg), Instant::now());
        let rs = is_relative_safety_with(&behaviors, &prop, &guard).map_err(|e| e.to_string())?;
        layers.time("core.rel_safe_ms", case, ms_since(t));
        add_charges(&mut acc, &reg, before);
        let got = Verdicts {
            classical: sat.holds,
            rel_live: rl.holds,
            rel_safe: rs.holds,
        };
        (got, ts, prop)
    };
    let pipeline_ms = ms_since(start);
    record_charges(layers, case, acc);
    layers.count(
        "automata.cache_hits_per_check",
        case,
        reg.total(Metric::CacheHits) as f64,
    );
    if got != p.case.expect {
        return Err(format!("verdicts {got:?}, expected {:?}", p.case.expect));
    }
    trace_inclusion(layers, case, &ts, &prop, p.case.expect.rel_live)?;
    Ok(pipeline_ms)
}

/// A traced `abstract`: the public calls `verify_via_abstraction_with`
/// makes, in its order, under a registry-backed default guard. Returns the
/// pipeline's time (the side calls on the abstract system are not
/// included).
pub fn traced_abstract(p: &Prepared, case: usize, layers: &mut Layers) -> Result<f64, String> {
    let (h, want) = abstraction_of(p)?;
    let reg = MetricsRegistry::new();
    let mut acc = [0u64; 3];
    // Timed like `abstract_op`: from building the guard to dropping it.
    let start = Instant::now();
    let (maximal, verdict, simplicity, abstract_system, behaviors, prop) = {
        let guard = default_guard().with_metrics(reg.clone());
        h.source()
            .check_compatible(p.ts.alphabet())
            .map_err(|e| e.to_string())?;
        let language = p.ts.to_nfa();
        let t = Instant::now();
        let image = image_nfa(h, &language);
        layers.time("abstraction.image_ms", case, ms_since(t));
        let t = Instant::now();
        let maximal = has_maximal_words_with(&image, &guard).map_err(|e| e.to_string())?;
        layers.time("abstraction.maximal_ms", case, ms_since(t));
        let t = Instant::now();
        let abstract_system =
            abstract_behavior_with(h, &p.ts, &guard).map_err(|e| e.to_string())?;
        layers.time("abstraction.abstract_behavior_ms", case, ms_since(t));
        let behaviors =
            behaviors_of_ts_with(&abstract_system, &guard).map_err(|e| e.to_string())?;
        let prop = Property::formula(p.eta.clone());
        let (before, t) = (charges(&reg), Instant::now());
        let verdict =
            is_relative_liveness_with(&behaviors, &prop, &guard).map_err(|e| e.to_string())?;
        layers.time("core.rel_live_ms", case, ms_since(t));
        add_charges(&mut acc, &reg, before);
        let t = Instant::now();
        let simplicity = check_simplicity_with(h, &language, &guard).map_err(|e| e.to_string())?;
        layers.time("abstraction.simplicity_ms", case, ms_since(t));
        let t = Instant::now();
        let transported = r_bar_strict(&p.eta, h.target()).map_err(|e| e.to_string())?;
        let _ = simplify(&transported);
        layers.time("logic.r_bar_ms", case, ms_since(t));
        (
            maximal,
            verdict,
            simplicity,
            abstract_system,
            behaviors,
            prop,
        )
    };
    let pipeline_ms = ms_since(start);
    record_charges(layers, case, acc);
    layers.count(
        "automata.cache_hits_per_check",
        case,
        reg.total(Metric::CacheHits) as f64,
    );
    let got = match (maximal, verdict.holds, simplicity.simple) {
        (false, true, true) => Some(Conclusion::ConcreteHolds),
        (false, true, false) => Some(Conclusion::InconclusiveNotSimple),
        _ => None,
    };
    if got != Some(want) {
        return Err(format!(
            "maximal {maximal}, abstract rel-live {}, simple {}; expected {want:?}",
            verdict.holds, simplicity.simple
        ));
    }
    // What deciding the two other verdicts on the abstraction would cost:
    // the pipeline itself only needs relative liveness there.
    let side = default_guard();
    let t = Instant::now();
    satisfies_with(&behaviors, &prop, &side).map_err(|e| e.to_string())?;
    layers.time("core.classical_ms", case, ms_since(t));
    let t = Instant::now();
    is_relative_safety_with(&behaviors, &prop, &side).map_err(|e| e.to_string())?;
    layers.time("core.rel_safe_ms", case, ms_since(t));
    trace_inclusion(layers, case, &abstract_system, &prop, true)?;
    Ok(pipeline_ms)
}
