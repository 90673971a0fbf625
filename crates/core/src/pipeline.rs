//! The verification-by-abstraction pipeline (Section 8, Corollary 8.4).
//!
//! Given a concrete system `S` (behaviors `lim(L)`), an abstracting
//! homomorphism `h`, and a property `η` in Σ'-normal form over the abstract
//! alphabet:
//!
//! 1. compute the abstract system generating `lim(h(L))`,
//! 2. check the side condition that `h(L)` has no maximal words (on the
//!    same DFA of `h(L)` as step 1),
//! 3. decide relative liveness of `η` on the *abstract* system,
//! 4. check simplicity of `h` on `L` (Definition 6.3),
//! 5. conclude about `lim(L) ⊨_RL R̄(η)`:
//!    * abstract **holds** + `h` simple ⇒ concrete holds (Theorem 8.2),
//!    * abstract **fails** ⇒ concrete fails (Theorem 8.3, contrapositive —
//!      no simplicity needed),
//!    * abstract holds but `h` not simple ⇒ inconclusive (the paper's
//!      Figure 3 trap: the abstraction looks fine, the system is broken).

use rl_abstraction::{abstract_image_with, check_simplicity_with, Homomorphism};
use rl_automata::{Guard, TransitionSystem, Word};
use rl_buchi::behaviors_of_ts_with;
use rl_logic::{r_bar_strict, simplify, Formula, Labeling, EPSILON_PROP};

use crate::property::{CoreError, Property};
use crate::relative::{is_relative_liveness_with, RelativeLivenessVerdict};

/// What the abstraction run lets us conclude about the concrete system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransferConclusion {
    /// `η` is rel-live on the abstraction and `h` is simple:
    /// `lim(L) ⊨_RL R̄(η)` (Theorem 8.2 / Corollary 8.4).
    ConcreteHolds,
    /// `η` is *not* rel-live on the abstraction: by Theorem 8.3
    /// (contrapositive) the concrete system cannot satisfy `R̄(η)` relatively
    /// either. Carries the doomed abstract prefix.
    ConcreteFails {
        /// A prefix of the abstract behavior that cannot be extended into
        /// `η` within the abstraction.
        doomed_abstract_prefix: Word,
    },
    /// The abstract check succeeded but `h` is not simple — exactly the
    /// situation of the paper's Figure 3, where the abstraction hides the
    /// defect. Carries the simplicity violation.
    InconclusiveNotSimple {
        /// A concrete word at which Definition 6.3 fails.
        violation: Word,
    },
    /// `h(L)` contains maximal words, violating the side condition of
    /// Theorems 8.2/8.3; apply `rl_abstraction::extend_with_hash` first.
    InconclusiveMaximalWords,
}

/// Full evidence record of a verification-by-abstraction run.
#[derive(Debug, Clone)]
pub struct AbstractionAnalysis {
    /// The abstract system (minimized generator of `h(L)` — Figure 4).
    pub abstract_system: TransitionSystem,
    /// Whether `h(L)` contains maximal words (side condition).
    pub maximal_words: bool,
    /// The abstract relative-liveness verdict for `η`.
    pub abstract_verdict: RelativeLivenessVerdict,
    /// Whether `h` is simple on `L`, with a violation witness when not.
    pub simplicity: rl_abstraction::SimplicityReport,
    /// The transported property over `Σ' ∪ {ε}`: the *strict* reading
    /// `R̄(η) ∧ □◇¬ε` of Definition 7.4 (see [`rl_logic::r_bar_strict`] for
    /// why the strict conjunct is needed for a sound Theorem 8.3).
    pub transported_formula: Formula,
    /// The conclusion licensed by Theorems 8.2/8.3.
    pub conclusion: TransferConclusion,
}

/// Runs the full Corollary 8.4 pipeline.
///
/// # Errors
///
/// * alphabet mismatches between `ts` and `h`,
/// * `η` not expressible in Σ'-normal form over `h`'s target alphabet,
/// * propagated construction failures.
///
/// # Example — the paper's Section 2, end to end
///
/// ```
/// use rl_abstraction::Homomorphism;
/// use rl_core::{verify_via_abstraction, TransferConclusion};
/// use rl_logic::parse;
/// use rl_petri::examples::{server_behaviors, server_err_behaviors};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let keep = ["request", "result", "reject"];
/// let eta = parse("[]<>result")?;
///
/// // Figure 2: abstraction says yes, h is simple ⇒ the concrete system
/// // relatively satisfies □◇result.
/// let good = server_behaviors();
/// let h = Homomorphism::hiding(good.alphabet(), keep)?;
/// let run = verify_via_abstraction(&good, &h, &eta)?;
/// assert_eq!(run.conclusion, TransferConclusion::ConcreteHolds);
///
/// // Figure 3: the abstraction looks identical, but h is not simple ⇒ no
/// // conclusion may be drawn (and indeed the concrete system is broken).
/// let bad = server_err_behaviors();
/// let h_bad = Homomorphism::hiding(bad.alphabet(), keep)?;
/// let run_bad = verify_via_abstraction(&bad, &h_bad, &eta)?;
/// assert!(matches!(
///     run_bad.conclusion,
///     TransferConclusion::InconclusiveNotSimple { .. }
/// ));
/// # Ok(())
/// # }
/// ```
pub fn verify_via_abstraction(
    ts: &TransitionSystem,
    h: &Homomorphism,
    eta: &Formula,
) -> Result<AbstractionAnalysis, CoreError> {
    verify_via_abstraction_with(ts, h, eta, &Guard::unlimited())
}

/// [`verify_via_abstraction`] under a resource [`Guard`].
///
/// The abstract-system construction, the abstract relative-liveness
/// decision, and the simplicity check are all charged against the same
/// guard, so a single budget bounds the whole pipeline. Three subset
/// constructions run, all over `ts`'s own rows or a DFA's: `h(L)` once
/// under `abstract_image` (the abstract system and the maximal-word side
/// condition are both read off it), then `L` and the continuation images
/// under `simplicity`. A `transport` span covers building and simplifying
/// the transported property.
///
/// # Errors
///
/// As [`verify_via_abstraction`], plus a budget error when the guard trips.
pub fn verify_via_abstraction_with(
    ts: &TransitionSystem,
    h: &Homomorphism,
    eta: &Formula,
    guard: &Guard,
) -> Result<AbstractionAnalysis, CoreError> {
    let _span = guard.span("abstraction_pipeline");
    h.source().check_compatible(ts.alphabet())?;

    // One DFA of h(L) gives both the side condition and the abstract system.
    let (abstract_system, maximal_words) = abstract_image_with(h, ts, guard)?;
    let abstract_behaviors = behaviors_of_ts_with(&abstract_system, guard)?;
    let abstract_verdict =
        is_relative_liveness_with(&abstract_behaviors, &Property::formula(eta.clone()), guard)?;

    let simplicity = check_simplicity_with(h, ts, guard)?;
    // The strict transport R̄(η) ∧ □◇¬ε — the reading under which both
    // transfer theorems are sound (see rl_logic::r_bar_strict).
    let transported_formula = {
        let _span = guard.span("transport");
        simplify(&r_bar_strict(eta, h.target()).map_err(CoreError::Automata)?)
    };

    let conclusion = if maximal_words {
        TransferConclusion::InconclusiveMaximalWords
    } else if !abstract_verdict.holds {
        TransferConclusion::ConcreteFails {
            doomed_abstract_prefix: abstract_verdict.doomed_prefix.clone().unwrap_or_default(),
        }
    } else if simplicity.simple {
        TransferConclusion::ConcreteHolds
    } else {
        TransferConclusion::InconclusiveNotSimple {
            violation: simplicity.violation.clone().unwrap_or_default(),
        }
    };

    Ok(AbstractionAnalysis {
        abstract_system,
        maximal_words,
        abstract_verdict,
        simplicity,
        transported_formula,
        conclusion,
    })
}

/// The canonical homomorphism labeling `λ_hΣΣ'` of Definition 7.3 over the
/// *concrete* alphabet: a visible action satisfies its abstract name, a
/// hidden action satisfies the proposition [`EPSILON_PROP`].
pub fn labeling_for_homomorphism(h: &Homomorphism) -> Labeling {
    Labeling::from_fn(h.source(), |a| match h.apply(a) {
        Some(t) => vec![h.target().name(t).to_owned()],
        None => vec![EPSILON_PROP.to_owned()],
    })
    .expect("labeling construction is infallible")
}

/// Directly decides `lim(L), λ_hΣΣ' ⊨_RL R̄(η)` on the *concrete* system —
/// the right-hand side of Corollary 8.4, used to cross-validate the
/// transfer theorems.
///
/// # Errors
///
/// Propagates alphabet mismatches and Σ'-normal-form failures.
pub fn check_transported_concrete(
    ts: &TransitionSystem,
    h: &Homomorphism,
    eta: &Formula,
) -> Result<RelativeLivenessVerdict, CoreError> {
    check_transported_concrete_with(ts, h, eta, &Guard::unlimited())
}

/// [`check_transported_concrete`] under a resource [`Guard`]: building the
/// concrete behaviors and deciding relative liveness on them are charged
/// to the guard, so its budget, deadline and cancel token bound the run.
///
/// # Errors
///
/// As [`check_transported_concrete`], plus the guard's budget, deadline
/// and cancellation errors.
pub fn check_transported_concrete_with(
    ts: &TransitionSystem,
    h: &Homomorphism,
    eta: &Formula,
    guard: &Guard,
) -> Result<RelativeLivenessVerdict, CoreError> {
    h.source().check_compatible(ts.alphabet())?;
    let transported = simplify(&r_bar_strict(eta, h.target()).map_err(CoreError::Automata)?);
    let lam = labeling_for_homomorphism(h);
    let prop = Property::labeled(transported, lam);
    let behaviors = behaviors_of_ts_with(ts, guard)?;
    is_relative_liveness_with(&behaviors, &prop, guard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_automata::Alphabet;
    use rl_logic::parse;
    use rl_petri::examples::{server_behaviors, server_err_behaviors};

    #[test]
    fn figure_2_transfers() {
        let ts = server_behaviors();
        let h = Homomorphism::hiding(ts.alphabet(), ["request", "result", "reject"]).unwrap();
        let eta = parse("[]<>result").unwrap();
        let run = verify_via_abstraction(&ts, &h, &eta).unwrap();
        assert_eq!(run.abstract_system.state_count(), 2); // Figure 4
        assert!(!run.maximal_words);
        assert!(run.abstract_verdict.holds);
        assert!(run.simplicity.simple);
        assert_eq!(run.conclusion, TransferConclusion::ConcreteHolds);
        // Cross-check Theorem 8.2: the transported property really is
        // rel-live on the concrete system.
        assert!(check_transported_concrete(&ts, &h, &eta).unwrap().holds);
    }

    #[test]
    fn figure_3_is_inconclusive_and_actually_broken() {
        let ts = server_err_behaviors();
        let h = Homomorphism::hiding(ts.alphabet(), ["request", "result", "reject"]).unwrap();
        let eta = parse("[]<>result").unwrap();
        let run = verify_via_abstraction(&ts, &h, &eta).unwrap();
        // Abstractly fine (same Figure 4!), but not simple.
        assert!(run.abstract_verdict.holds);
        assert!(matches!(
            run.conclusion,
            TransferConclusion::InconclusiveNotSimple { .. }
        ));
        // And the concrete transported check indeed fails — confirming that
        // simplicity was the only thing standing between us and a wrong
        // conclusion.
        assert!(!check_transported_concrete(&ts, &h, &eta).unwrap().holds);
    }

    #[test]
    fn abstract_failure_transfers_to_concrete_failure() {
        // System: a^ω ∪ ab^ω (visible), property ◇(always a)… choose an
        // abstract property that fails abstractly: []<>b on a system that
        // can commit to a-only.
        let sigma = Alphabet::new(["a", "b", "tau"]).unwrap();
        let a = sigma.symbol("a").unwrap();
        let b = sigma.symbol("b").unwrap();
        let mut ts = TransitionSystem::new(sigma.clone());
        let s0 = ts.add_state();
        let s1 = ts.add_state();
        ts.set_initial(s0);
        ts.add_transition(s0, a, s0);
        ts.add_transition(s0, b, s1);
        ts.add_transition(s1, a, s1);
        let h = Homomorphism::hiding(&sigma, ["a", "b"]).unwrap();
        let eta = parse("[]<>b").unwrap();
        let run = verify_via_abstraction(&ts, &h, &eta).unwrap();
        assert!(matches!(
            run.conclusion,
            TransferConclusion::ConcreteFails { .. }
        ));
        // Theorem 8.3 contrapositive confirmed concretely:
        assert!(!check_transported_concrete(&ts, &h, &eta).unwrap().holds);
    }

    #[test]
    fn maximal_words_flagged() {
        // A system that deadlocks after one visible action: h(L) = {ε, a}
        // has the maximal word "a".
        let sigma = Alphabet::new(["a", "tau"]).unwrap();
        let a = sigma.symbol("a").unwrap();
        let mut ts = TransitionSystem::new(sigma.clone());
        let s0 = ts.add_state();
        let s1 = ts.add_state();
        ts.set_initial(s0);
        ts.add_transition(s0, a, s1);
        let h = Homomorphism::hiding(&sigma, ["a"]).unwrap();
        let run = verify_via_abstraction(&ts, &h, &parse("<>a").unwrap()).unwrap();
        assert!(run.maximal_words);
        assert_eq!(run.conclusion, TransferConclusion::InconclusiveMaximalWords);
    }

    #[test]
    fn one_run_determinizes_three_times() {
        let ts = server_behaviors();
        let h = Homomorphism::hiding(ts.alphabet(), ["request", "result", "reject"]).unwrap();
        let registry = rl_automata::MetricsRegistry::new();
        let guard = Guard::unlimited().with_metrics(registry.clone());
        verify_via_abstraction_with(&ts, &h, &parse("[]<>result").unwrap(), &guard).unwrap();
        let records = registry.records();
        let paths = |name: &str| -> Vec<&str> {
            let named = records.iter().filter(|r| r.name == name);
            named.map(|r| r.path.as_str()).collect()
        };
        // h(L) once, for both the abstract system and the maximal-word
        // side condition; then L and every continuation image in the
        // simplicity check.
        let image = "abstraction_pipeline/abstract_image";
        assert_eq!(
            paths("determinize"),
            [
                format!("{image}/determinize"),
                "abstraction_pipeline/simplicity/determinize".to_owned(),
                "abstraction_pipeline/simplicity/determinize".to_owned(),
            ]
        );
        assert_eq!(paths("maximal_words"), [format!("{image}/maximal_words")]);
        assert_eq!(paths("minimize"), [format!("{image}/minimize")]);
        assert_eq!(paths("trim"), ["abstraction_pipeline/simplicity/trim"]);
        assert_eq!(paths("partition").len(), 1);
    }

    #[test]
    fn homomorphism_labeling_marks_hidden_actions() {
        let ts = server_behaviors();
        let h = Homomorphism::hiding(ts.alphabet(), ["request", "result", "reject"]).unwrap();
        let lam = labeling_for_homomorphism(&h);
        let lock = ts.alphabet().symbol("lock").unwrap();
        let request = ts.alphabet().symbol("request").unwrap();
        assert!(lam.satisfies(lock, EPSILON_PROP));
        assert!(lam.satisfies(request, "request"));
        assert!(!lam.satisfies(request, EPSILON_PROP));
    }
}
