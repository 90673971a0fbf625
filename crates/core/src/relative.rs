//! The relative liveness and relative safety deciders (Section 4).
//!
//! * Relative liveness is decided through Lemma 4.3:
//!   `P` rel-live for `L_ω` ⇔ `pre(L_ω) = pre(L_ω ∩ P)`.
//! * Relative safety through Lemma 4.4:
//!   `P` rel-safe for `L_ω` ⇔ `L_ω ∩ lim(pre(L_ω ∩ P)) ⊆ P`.
//!
//! Both are effective for ω-regular data (Theorem 4.5); the procedures
//! below additionally extract counterexamples: a non-extendable prefix for
//! liveness, a limit behavior escaping `P` for safety. Each `_with` entry
//! point is a single-verdict [`CheckPlan`]; a caller that needs all three
//! verdicts should call [`CheckPlan::decide`], which shares the automata
//! and lets Theorem 4.7 skip work.

use rl_automata::{nfa_included_lazy, Guard, TransitionSystem, Word};
use rl_buchi::{behaviors_of_ts, behaviors_of_ts_with, Buchi, UpWord};

use crate::plan::CheckPlan;
use crate::property::{CoreError, Property};

/// Verdict of a relative-liveness check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelativeLivenessVerdict {
    /// Whether `P` is a relative liveness property of the system.
    pub holds: bool,
    /// When it does not hold: a prefix `w ∈ pre(L_ω)` that no continuation
    /// inside the system can extend into `P` (e.g. `lock` for Figure 3).
    pub doomed_prefix: Option<Word>,
}

/// Verdict of a relative-safety check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelativeSafetyVerdict {
    /// Whether `P` is a relative safety property of the system.
    pub holds: bool,
    /// When it does not hold: a behavior `x ∈ L_ω \ P` all of whose
    /// prefixes can be extended into `L_ω ∩ P`.
    pub escaping_behavior: Option<UpWord>,
}

/// Verdict of classical satisfaction `L_ω ⊆ P`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SatisfactionVerdict {
    /// Whether every behavior satisfies the property.
    pub holds: bool,
    /// When not: a behavior violating `P`.
    pub counterexample: Option<UpWord>,
}

/// Decides whether `property` is a **relative liveness** property of the
/// ω-language of `system` (Definition 4.1, via Lemma 4.3).
///
/// # Errors
///
/// Propagates alphabet mismatches between system and property.
///
/// # Example — the paper's Section 2 claims
///
/// ```
/// use rl_core::{is_relative_liveness, Property};
/// use rl_buchi::behaviors_of_ts;
/// use rl_logic::parse;
/// use rl_petri::examples::{server_behaviors, server_err_behaviors};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = Property::formula(parse("[]<>result")?);
/// // Figure 2: □◇result IS a relative liveness property …
/// let good = behaviors_of_ts(&server_behaviors());
/// assert!(is_relative_liveness(&good, &p)?.holds);
/// // … Figure 3: it is NOT (no fairness can save it).
/// let bad = behaviors_of_ts(&server_err_behaviors());
/// let verdict = is_relative_liveness(&bad, &p)?;
/// assert!(!verdict.holds);
/// # Ok(())
/// # }
/// ```
pub fn is_relative_liveness(
    system: &Buchi,
    property: &Property,
) -> Result<RelativeLivenessVerdict, CoreError> {
    is_relative_liveness_with(system, property, &Guard::unlimited())
}

/// [`is_relative_liveness`] under a resource [`Guard`]: a single-verdict
/// [`CheckPlan`], deciding the Lemma 4.3 inclusion as
/// [`CheckPlan::relative_liveness`] describes (the lazy antichain
/// search). Every expansion is charged against the guard's budget; on
/// exhaustion the decider returns a budget error with partial diagnostics
/// instead of hanging.
///
/// # Errors
///
/// As [`is_relative_liveness`], plus a budget error when the guard trips.
pub fn is_relative_liveness_with(
    system: &Buchi,
    property: &Property,
    guard: &Guard,
) -> Result<RelativeLivenessVerdict, CoreError> {
    CheckPlan::new(system, property, guard).relative_liveness()
}

/// Decides whether `property` is a **relative safety** property of the
/// ω-language of `system` (Definition 4.2, via Lemma 4.4).
///
/// # Errors
///
/// Propagates alphabet mismatches between system and property.
///
/// # Example
///
/// ```
/// use rl_automata::Alphabet;
/// use rl_buchi::Buchi;
/// use rl_core::{is_relative_safety, Property};
/// use rl_logic::parse;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ab = Alphabet::new(["a", "b"])?;
/// let sys = Buchi::universal(ab);
/// // Over Σ^ω, relative safety = classical safety (Remark 1):
/// assert!(is_relative_safety(&sys, &Property::formula(parse("[]a")?))?.holds);
/// assert!(!is_relative_safety(&sys, &Property::formula(parse("[]<>a")?))?.holds);
/// # Ok(())
/// # }
/// ```
pub fn is_relative_safety(
    system: &Buchi,
    property: &Property,
) -> Result<RelativeSafetyVerdict, CoreError> {
    is_relative_safety_with(system, property, &Guard::unlimited())
}

/// [`is_relative_safety`] under a resource [`Guard`]: a single-verdict
/// [`CheckPlan`], deciding Lemma 4.4 as [`CheckPlan::relative_safety`]
/// describes. It does not route through relative liveness, so it stays
/// polynomial-size products plus one emptiness check on the default lazy
/// path: `lim(pre(L_ω ∩ P))` is read off the prefix automaton without a
/// subset construction, and when `L_ω` is limit closed (every state of
/// `system` accepting) the violation product is `lim(pre(L_ω ∩ P)) ∩ ¬P`
/// — by König's lemma `lim(pre(L_ω ∩ P)) ⊆ L_ω`. The property
/// complementation (for automaton-given properties) and every product are
/// charged against the guard's budget.
///
/// # Errors
///
/// As [`is_relative_safety`], plus a budget error when the guard trips.
pub fn is_relative_safety_with(
    system: &Buchi,
    property: &Property,
    guard: &Guard,
) -> Result<RelativeSafetyVerdict, CoreError> {
    CheckPlan::new(system, property, guard).relative_safety()
}

/// Classical satisfaction `L_ω ⊆ P` (Definition 3.2), with counterexample.
///
/// By Theorem 4.7 this holds exactly when `property` is both a relative
/// safety and a relative liveness property of the system — the property
/// tests cross-check that equivalence.
///
/// # Errors
///
/// Propagates alphabet mismatches between system and property.
pub fn satisfies(system: &Buchi, property: &Property) -> Result<SatisfactionVerdict, CoreError> {
    satisfies_with(system, property, &Guard::unlimited())
}

/// [`satisfies`] under a resource [`Guard`]: a single-verdict
/// [`CheckPlan`] ([`CheckPlan::classical`]), emptiness of `L_ω ∩ ¬P`.
///
/// The property complementation (for automaton-given properties) and the
/// intersection product are charged against the guard's budget.
///
/// # Errors
///
/// As [`satisfies`], plus a budget error when the guard trips.
pub fn satisfies_with(
    system: &Buchi,
    property: &Property,
    guard: &Guard,
) -> Result<SatisfactionVerdict, CoreError> {
    CheckPlan::new(system, property, guard).classical()
}

/// Classical **liveness** in the sense of Alpern–Schneider: `P` is a
/// liveness property iff every finite word extends to a word in `P` — the
/// special case `L_ω = Σ^ω` of relative liveness (Remark 1).
///
/// # Errors
///
/// Propagates property translation failures.
pub fn is_liveness_property(
    property: &Property,
    alphabet: &rl_automata::Alphabet,
) -> Result<bool, CoreError> {
    let sigma_omega = Buchi::universal(alphabet.clone());
    Ok(is_relative_liveness(&sigma_omega, property)?.holds)
}

/// Classical **safety** (Alpern–Schneider): the special case `L_ω = Σ^ω` of
/// relative safety (Remark 1) — equivalently, `P` is limit closed.
///
/// # Errors
///
/// Propagates property translation failures.
pub fn is_safety_property(
    property: &Property,
    alphabet: &rl_automata::Alphabet,
) -> Result<bool, CoreError> {
    let sigma_omega = Buchi::universal(alphabet.clone());
    Ok(is_relative_safety(&sigma_omega, property)?.holds)
}

/// Machine closure (Definition 4.6): `(L_ω, Λ)` is machine closed iff
/// `pre(L_ω) ⊆ pre(Λ)`.
///
/// The paper observes `P` is rel-live for `L_ω` iff `(L_ω, P ∩ L_ω)` is a
/// machine-closed live structure. This function decides that inclusion
/// directly on the two prefix graphs ([`Buchi::prefix_graph_with`]) with
/// the antichain search [`nfa_included_lazy`] that
/// [`CheckPlan::relative_liveness`] runs for Lemma 4.3.
///
/// # Errors
///
/// Returns an alphabet mismatch when the two languages disagree.
pub fn is_machine_closed(l_omega: &Buchi, lambda: &Buchi) -> Result<bool, CoreError> {
    l_omega.alphabet().check_compatible(lambda.alphabet())?;
    let guard = Guard::unlimited();
    let pre_l = l_omega.prefix_graph_with(&guard)?;
    let pre_lam = lambda.prefix_graph_with(&guard)?;
    Ok(nfa_included_lazy(&pre_l, &pre_lam, &guard)?.is_none())
}

/// Finds a behavior of `system` that extends `prefix` and satisfies
/// `property` — the existential witness in Definition 4.1 (and, via Lemma
/// 4.9, a density witness in the Cantor topology).
///
/// Returns `None` when the prefix is doomed (no such extension), which for a
/// relative liveness property can only happen when `prefix ∉ pre(L_ω)`.
///
/// # Errors
///
/// Propagates alphabet mismatches.
pub fn extension_witness(
    system: &Buchi,
    property: &Property,
    prefix: &[rl_automata::Symbol],
) -> Result<Option<UpWord>, CoreError> {
    let p = property.to_buchi(system.alphabet())?;
    let both = system.intersection(&p)?.reduce();
    // Simulate the prefix through the product, then look for any accepting
    // lasso from the reached frontier.
    let mut frontier: Vec<usize> = both.initial().iter().copied().collect();
    for &a in prefix {
        let mut next: Vec<usize> = Vec::new();
        for &q in &frontier {
            for t in both.successors(q, a) {
                if !next.contains(&t) {
                    next.push(t);
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            return Ok(None);
        }
    }
    // Re-root the automaton at the frontier.
    let mut rerooted = Buchi::new(both.alphabet().clone());
    for q in 0..both.state_count() {
        rerooted.add_state(both.is_accepting(q));
    }
    for (pq, a, q) in both.transitions() {
        rerooted.add_transition(pq, a, q);
    }
    for &q in &frontier {
        rerooted.set_initial(q);
    }
    Ok(rerooted.accepted_upword().map(|w| w.prepend(prefix)))
}

/// Convenience: the behaviors `lim(L)` of a transition system together with
/// a relative-liveness check (the common entry point for Petri-net systems).
///
/// # Errors
///
/// Propagates alphabet mismatches between system and property.
pub fn is_relative_liveness_of_ts(
    ts: &TransitionSystem,
    property: &Property,
) -> Result<RelativeLivenessVerdict, CoreError> {
    is_relative_liveness(&behaviors_of_ts(ts), property)
}

/// [`is_relative_liveness_of_ts`] under a resource [`Guard`].
///
/// # Errors
///
/// As [`is_relative_liveness_of_ts`], plus a budget error when the guard
/// trips.
pub fn is_relative_liveness_of_ts_with(
    ts: &TransitionSystem,
    property: &Property,
    guard: &Guard,
) -> Result<RelativeLivenessVerdict, CoreError> {
    is_relative_liveness_with(&behaviors_of_ts_with(ts, guard)?, property, guard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_automata::Alphabet;
    use rl_logic::parse;

    fn ab2() -> (Alphabet, rl_automata::Symbol, rl_automata::Symbol) {
        let ab = Alphabet::new(["a", "b"]).unwrap();
        (ab.clone(), ab.symbol("a").unwrap(), ab.symbol("b").unwrap())
    }

    #[test]
    fn remark_1_relative_equals_classical_on_sigma_omega() {
        let (ab, _, _) = ab2();
        // □◇a is a classical liveness property; □a a safety property; their
        // conjunction neither.
        assert!(is_liveness_property(&Property::formula(parse("[]<>a").unwrap()), &ab).unwrap());
        assert!(!is_safety_property(&Property::formula(parse("[]<>a").unwrap()), &ab).unwrap());
        assert!(is_safety_property(&Property::formula(parse("[]a").unwrap()), &ab).unwrap());
        assert!(!is_liveness_property(&Property::formula(parse("[]a").unwrap()), &ab).unwrap());
        // "starts with a AND infinitely many b" is neither safety nor
        // liveness (note: []a & []<>b would be the *empty* property, which
        // counts as safety — closed — so it is not a good mixed example).
        let mixed = Property::formula(parse("a & []<>b").unwrap());
        assert!(!is_liveness_property(&mixed, &ab).unwrap());
        assert!(!is_safety_property(&mixed, &ab).unwrap());
        // The empty property: safety but not liveness.
        let empty = Property::formula(parse("[]a & []<>b").unwrap());
        assert!(is_safety_property(&empty, &ab).unwrap());
        assert!(!is_liveness_property(&empty, &ab).unwrap());
    }

    #[test]
    fn paper_example_diamond_a_next_a() {
        // Section 5's example: ◇(a ∧ O a) is a relative liveness property of
        // {a,b}^ω.
        let (ab, _, _) = ab2();
        let sys = Buchi::universal(ab);
        let p = Property::formula(parse("<>(a & X a)").unwrap());
        assert!(is_relative_liveness(&sys, &p).unwrap().holds);
    }

    #[test]
    fn doomed_prefix_is_reported() {
        let (ab, a, b) = ab2();
        // System: a^ω + b^ω (choice at the start); P = "contains an a".
        let sys = Buchi::from_parts(ab, 2, [0, 1], [0, 1], [(0, a, 0), (1, b, 1)]).unwrap();
        let p = Property::formula(parse("<>a").unwrap());
        let verdict = is_relative_liveness(&sys, &p).unwrap();
        assert!(!verdict.holds);
        assert_eq!(verdict.doomed_prefix, Some(vec![b]));
    }

    #[test]
    fn thm_4_7_satisfaction_iff_rel_live_and_rel_safe() {
        let (ab, a, b) = ab2();
        // System: (ab)^ω ∪ a^ω.
        let sys =
            Buchi::from_parts(ab, 3, [0, 2], [0, 2], [(0, a, 1), (1, b, 0), (2, a, 2)]).unwrap();
        for text in ["[]<>a", "[]<>b", "<>b", "[]a", "X a", "a U b"] {
            let p = Property::formula(parse(text).unwrap());
            let sat = satisfies(&sys, &p).unwrap().holds;
            let rl = is_relative_liveness(&sys, &p).unwrap().holds;
            let rs = is_relative_safety(&sys, &p).unwrap().holds;
            assert_eq!(sat, rl && rs, "property {text}: sat={sat} rl={rl} rs={rs}");
        }
    }

    #[test]
    fn relative_safety_escape_witness() {
        let (ab, a, b) = ab2();
        let sys = Buchi::universal(ab);
        let p = Property::formula(parse("[]<>a").unwrap());
        let verdict = is_relative_safety(&sys, &p).unwrap();
        assert!(!verdict.holds);
        let x = verdict.escaping_behavior.unwrap();
        // The escape has finitely many a's.
        assert!(x.period().iter().all(|&s| s == b));
        let _ = a;
    }

    #[test]
    fn machine_closure_matches_relative_liveness() {
        let (ab, _, _) = ab2();
        let sys = Buchi::universal(ab.clone());
        let p = Property::formula(parse("[]<>a").unwrap());
        let p_aut = p.to_buchi(&ab).unwrap();
        let lam = sys.intersection(&p_aut).unwrap();
        assert!(is_machine_closed(&sys, &lam).unwrap());
        let q = Property::formula(parse("[]a").unwrap());
        let q_aut = q.to_buchi(&ab).unwrap();
        let lam_q = sys.intersection(&q_aut).unwrap();
        assert_eq!(
            is_machine_closed(&sys, &lam_q).unwrap(),
            is_relative_liveness(&sys, &q).unwrap().holds
        );
    }

    #[test]
    fn extension_witness_extends_prefix() {
        let (ab, a, b) = ab2();
        let sys = Buchi::universal(ab.clone());
        let p = Property::formula(parse("[]<>a").unwrap());
        let w = extension_witness(&sys, &p, &[b, b, b]).unwrap().unwrap();
        assert_eq!(&w.prefix()[..3], &[b, b, b]);
        // The witness satisfies the property.
        let lam = rl_logic::Labeling::canonical(&ab);
        assert!(rl_logic::evaluate(&parse("[]<>a").unwrap(), &w, &lam));
        let _ = a;
    }

    #[test]
    fn extension_witness_none_outside_language() {
        let (ab, a, b) = ab2();
        // System: a^ω only.
        let sys = Buchi::from_parts(ab, 1, [0], [0], [(0, a, 0)]).unwrap();
        let p = Property::formula(parse("true").unwrap());
        assert!(extension_witness(&sys, &p, &[b]).unwrap().is_none());
        assert!(extension_witness(&sys, &p, &[a]).unwrap().is_some());
    }
}
