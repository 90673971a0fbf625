//! Fair-implementation synthesis (Theorem 5.1).
//!
//! If `P` is a relative liveness property of a limit-closed finite-state
//! behavior set `L_ω`, then there is a finite-state system `𝒜` accepting
//! exactly `L_ω` whose *strongly fair* computations all satisfy `P`: take a
//! reduced Büchi automaton for `L_ω ∩ P` and drop its acceptance condition.
//! The extra states are the "state information added in a noninterfering
//! way" the paper speaks of; `rl-exec`'s aging scheduler realizes strong
//! transition fairness on the result.

use rl_automata::{nfa_included_lazy, Guard, TransitionSystem};
use rl_buchi::behaviors_of_ts;

use crate::property::{CoreError, Property};
use crate::relative::is_relative_liveness;

/// The synthesized implementation of Theorem 5.1.
#[derive(Debug, Clone)]
pub struct FairImplementation {
    /// The finite-state system `𝒜` (no acceptance condition); its behaviors
    /// are exactly the original `L_ω`.
    pub system: TransitionSystem,
    /// Per state of `system`: whether it was accepting in the reduced Büchi
    /// automaton for `L_ω ∩ P`. Every strongly fair run visits marked
    /// states infinitely often — and hence satisfies `P`.
    pub recurrent: Vec<bool>,
}

/// Synthesizes the Theorem 5.1 implementation for a transition system `ts`
/// (whose behaviors `lim(L)` are limit closed by construction) and a
/// relative liveness property.
///
/// # Errors
///
/// * [`CoreError::Precondition`] when `property` is *not* a relative
///   liveness property of `lim(L)` (the theorem's hypothesis), with the
///   doomed prefix in the message;
/// * alphabet mismatches from the property translation.
///
/// # Example
///
/// ```
/// use rl_core::{synthesize_fair_implementation, Property};
/// use rl_logic::parse;
/// use rl_petri::examples::server_behaviors;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ts = server_behaviors(); // Figure 2
/// let p = Property::formula(parse("[]<>result")?);
/// let imp = synthesize_fair_implementation(&ts, &p)?;
/// // Same behaviors, plus a recurrence marking for the scheduler.
/// assert!(imp.recurrent.iter().any(|&r| r));
/// # Ok(())
/// # }
/// ```
pub fn synthesize_fair_implementation(
    ts: &TransitionSystem,
    property: &Property,
) -> Result<FairImplementation, CoreError> {
    let l_omega = behaviors_of_ts(ts);
    let verdict = is_relative_liveness(&l_omega, property)?;
    if !verdict.holds {
        let prefix = verdict
            .doomed_prefix
            .map(|w| rl_automata::format_word(ts.alphabet(), &w))
            .unwrap_or_default();
        return Err(CoreError::Precondition(format!(
            "property is not a relative liveness property of the system \
             (doomed prefix: {prefix})"
        )));
    }
    let p = property.to_buchi(ts.alphabet())?;
    // Reduced Büchi automaton A for L_ω ∩ P …
    let reduced = l_omega.intersection(&p)?.reduce();
    // … with the acceptance condition removed (Theorem 5.1's 𝒜).
    let mut system = TransitionSystem::new(ts.alphabet().clone());
    for _ in 0..reduced.state_count() {
        system.add_state();
    }
    // `reduce()` keeps all initial states; a TransitionSystem has one
    // initial state, so add a fresh root when the product has several.
    let initials: Vec<usize> = reduced.initial().iter().copied().collect();
    match initials.as_slice() {
        [] => {
            return Err(CoreError::Precondition(
                "system has no behaviors (empty ω-language)".to_owned(),
            ))
        }
        [single] => system.set_initial(*single),
        several => {
            let root = system.add_state();
            system.set_initial(root);
            for &init in several {
                for (p0, a, q0) in reduced.transitions() {
                    if p0 == init {
                        system.add_transition(root, a, q0);
                    }
                }
            }
        }
    }
    for (p0, a, q0) in reduced.transitions() {
        system.add_transition(p0, a, q0);
    }
    let mut recurrent: Vec<bool> = (0..reduced.state_count())
        .map(|q| reduced.is_accepting(q))
        .collect();
    recurrent.resize(system.state_count(), false);

    debug_assert!(
        implementation_faithful(ts, &system),
        "synthesized system changed the behavior set"
    );
    Ok(FairImplementation { system, recurrent })
}

/// Checks that the synthesized system has exactly the original behaviors:
/// for limit-closed behavior sets this reduces to equality of the prefix
/// languages (`lim` is determined by `pre` — equation (1) in the proof of
/// Theorem 5.1), decided as two inclusions of prefix graphs by the lazy
/// antichain search.
pub fn implementation_faithful(
    original: &TransitionSystem,
    implementation: &TransitionSystem,
) -> bool {
    let guard = Guard::unlimited();
    let prefixes = |ts| {
        behaviors_of_ts(ts)
            .prefix_graph_with(&guard)
            .expect("an unlimited guard never trips")
    };
    let (pre_orig, pre_impl) = (prefixes(original), prefixes(implementation));
    let included = |a, b| {
        nfa_included_lazy(a, b, &guard)
            .expect("an unlimited guard never trips")
            .is_none()
    };
    included(&pre_orig, &pre_impl) && included(&pre_impl, &pre_orig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_automata::Alphabet;
    use rl_buchi::{Buchi, UpWord};
    use rl_logic::parse;

    /// {a,b}^ω as a one-state transition system.
    fn full_ts() -> (TransitionSystem, rl_automata::Symbol, rl_automata::Symbol) {
        let ab = Alphabet::new(["a", "b"]).unwrap();
        let a = ab.symbol("a").unwrap();
        let b = ab.symbol("b").unwrap();
        let mut ts = TransitionSystem::new(ab);
        let s = ts.add_state();
        ts.set_initial(s);
        ts.add_transition(s, a, s);
        ts.add_transition(s, b, s);
        (ts, a, b)
    }

    #[test]
    fn synthesis_preserves_behaviors() {
        let (ts, a, b) = full_ts();
        let p = Property::formula(parse("<>(a & X a)").unwrap());
        let imp = synthesize_fair_implementation(&ts, &p).unwrap();
        assert!(implementation_faithful(&ts, &imp.system));
        // The paper's Section 5 point: the implementation has *more states*
        // than the minimal automaton for {a,b}^ω.
        assert!(imp.system.state_count() > ts.state_count());
        let beh = behaviors_of_ts(&imp.system);
        assert!(beh.accepts_upword(&UpWord::periodic(vec![b]).unwrap()));
        assert!(beh.accepts_upword(&UpWord::periodic(vec![a, b]).unwrap()));
    }

    #[test]
    fn synthesis_rejects_non_relative_liveness() {
        let (ts, _, _) = full_ts();
        let p = Property::formula(parse("[]a").unwrap());
        let err = synthesize_fair_implementation(&ts, &p).unwrap_err();
        match err {
            CoreError::Precondition(msg) => assert!(msg.contains("doomed prefix")),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn recurrent_states_characterize_property() {
        // Visiting `recurrent` infinitely often must imply P: every lasso of
        // the synthesized system that cycles through a recurrent state
        // satisfies the property.
        let (ts, a, _) = full_ts();
        let p = Property::formula(parse("[]<>a").unwrap());
        let imp = synthesize_fair_implementation(&ts, &p).unwrap();
        // Interpret the implementation as a Büchi automaton with the
        // recurrent marking: it must accept exactly L ∩ P.
        let mut marked = Buchi::new(imp.system.alphabet().clone());
        for q in 0..imp.system.state_count() {
            marked.add_state(imp.recurrent[q]);
        }
        marked.set_initial(imp.system.initial());
        for (p0, sym, q0) in imp.system.transitions() {
            marked.add_transition(p0, sym, q0);
        }
        assert!(marked.accepts_upword(&UpWord::periodic(vec![a]).unwrap()));
        let lam = rl_logic::Labeling::canonical(imp.system.alphabet());
        let w = marked.accepted_upword().unwrap();
        assert!(rl_logic::evaluate(&parse("[]<>a").unwrap(), &w, &lam));
    }
}
