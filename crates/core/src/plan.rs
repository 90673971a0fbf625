//! One check, three verdicts: the shared plan behind `rlcheck check`.

use rl_automata::{dfa_included, dfa_included_with, nfa_included_lazy, Guard};
use rl_buchi::{limit_of_dfa, Buchi, ClassBuchi, UpWord};

use crate::property::{CoreError, Property};
use crate::relative::{RelativeLivenessVerdict, RelativeSafetyVerdict, SatisfactionVerdict};

/// The three verdicts of one check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckVerdicts {
    /// Classical satisfaction `L_ω ⊆ P`.
    pub classical: SatisfactionVerdict,
    /// Relative liveness (Definition 4.1).
    pub liveness: RelativeLivenessVerdict,
    /// Relative safety (Definition 4.2).
    pub safety: RelativeSafetyVerdict,
}

/// Decides classical satisfaction, relative liveness and relative safety
/// of one property against one system, building every shared automaton
/// once.
///
/// Classical satisfaction (Definition 3.2), relative liveness (Lemma 4.3)
/// and relative safety (Lemma 4.4) are three views of the same automata:
/// `¬P`, `L_ω ∩ ¬P`, `P`, `L_ω ∩ P`, `pre(L_ω)` and `pre(L_ω ∩ P)`. The
/// plan builds each at most once, on first use. Every one is a Büchi
/// automaton: `pre(·)` is the reduced graph read all-accepting
/// ([`Buchi::prefix_graph_with`]), which as an NFA accepts the prefixes
/// and, by König's lemma, as a Büchi automaton accepts their limit. `¬P`
/// and `P` are held over letter classes ([`ClassBuchi`]): a formula's
/// automaton has one edge per class of letters that satisfy the same
/// atoms, and each product looks a system letter's class up once. The
/// plan also remembers the verdicts it has decided, and a later decision skips every step Theorem
/// 4.7 (`L_ω ⊆ P` ⇔ rel-live ∧ rel-safe) settles from them. Decided in
/// [`CheckPlan::decide`]'s order:
///
/// 1. **Classical**: `L_ω ∩ ¬P` and one emptiness check. When it is empty
///    both relative verdicts hold, and `P` is never translated.
/// 2. **Relative liveness**: `pre(L_ω) ⊆ pre(L_ω ∩ P)` through the lazy
///    search, or the eager inclusion under `Guard::with_lazy(false)`.
/// 3. **Relative safety**: when rel-live holds (and classical failed) it
///    fails, and the classical counterexample `x ∈ L_ω \ P` is a Lemma 4.4
///    escape — every prefix of `x` lies in `pre(L_ω) = pre(L_ω ∩ P)`, so
///    `x ∈ lim(pre(L_ω ∩ P))`. Only when rel-live fails is Lemma 4.4's
///    violation product built, from the `¬P` or `L_ω ∩ ¬P` and the
///    `pre(L_ω ∩ P)` the plan already holds.
///
/// A caller that reports each verdict as soon as it is known calls
/// [`CheckPlan::classical`], [`CheckPlan::relative_liveness`] and
/// [`CheckPlan::relative_safety`] in that order itself. The standalone
/// [`crate::satisfies_with`], [`crate::is_relative_liveness_with`] and
/// [`crate::is_relative_safety_with`] each ask a fresh plan one question,
/// so no theorem short cut applies to them.
///
/// Each decision opens its span (`classical`, `relative_liveness`,
/// `relative_safety`) on the guard's registry; a verdict Theorem 4.7
/// settles still opens its span, and charges nothing inside it.
///
/// # Example
///
/// ```
/// use rl_buchi::behaviors_of_ts;
/// use rl_core::{CheckPlan, Guard, Property};
/// use rl_logic::parse;
/// use rl_petri::examples::server_behaviors;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let behaviors = behaviors_of_ts(&server_behaviors());
/// let eta = Property::formula(parse("[]<>result")?);
/// let guard = Guard::unlimited();
/// let v = CheckPlan::new(&behaviors, &eta, &guard).decide()?;
/// // Figure 2: classically false, relatively live, so (Thm 4.7) not
/// // relatively safe — and the classical counterexample is the escape.
/// assert!(!v.classical.holds && v.liveness.holds && !v.safety.holds);
/// assert_eq!(v.safety.escaping_behavior, v.classical.counterexample);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CheckPlan<'a> {
    system: &'a Buchi,
    property: &'a Property,
    guard: &'a Guard,
    /// `¬P` over letter classes, translated on first use.
    negation: Option<ClassBuchi>,
    /// `L_ω ∩ ¬P`, the classical violation product. Dropped after the
    /// classical verdict when `L_ω` is limit closed: relative safety then
    /// never reads it.
    violations: Option<Buchi>,
    /// The prefix graph of `L_ω ∩ P`; `P` and `L_ω ∩ P` are built only to
    /// derive it.
    good_prefixes: Option<Buchi>,
    /// The classical verdict, once decided.
    satisfaction: Option<SatisfactionVerdict>,
    /// Whether `P` is relatively live, once decided.
    live: Option<bool>,
}

impl<'a> CheckPlan<'a> {
    /// A plan for `property` against the ω-language of `system`; nothing
    /// is built until a decision asks for it.
    pub fn new(system: &'a Buchi, property: &'a Property, guard: &'a Guard) -> CheckPlan<'a> {
        CheckPlan {
            system,
            property,
            guard,
            negation: None,
            violations: None,
            good_prefixes: None,
            satisfaction: None,
            live: None,
        }
    }

    /// All three verdicts, in the order that lets Theorem 4.7 skip work.
    ///
    /// # Errors
    ///
    /// Propagates alphabet mismatches between system and property, and
    /// budget errors when the guard trips.
    pub fn decide(mut self) -> Result<CheckVerdicts, CoreError> {
        let classical = self.classical()?;
        let liveness = self.relative_liveness()?;
        let safety = self.relative_safety()?;
        Ok(CheckVerdicts {
            classical,
            liveness,
            safety,
        })
    }

    /// Classical satisfaction `L_ω ⊆ P` (Definition 3.2): emptiness of
    /// `L_ω ∩ ¬P`, with a counterexample when it is not empty.
    ///
    /// # Errors
    ///
    /// As [`CheckPlan::decide`].
    pub fn classical(&mut self) -> Result<SatisfactionVerdict, CoreError> {
        let guard = self.guard;
        let _span = guard.span("classical");
        let cex = accepted_upword(self.violations()?, guard)?;
        if self.system.accepts_everywhere() {
            self.violations = None;
        }
        let verdict = SatisfactionVerdict {
            holds: cex.is_none(),
            counterexample: cex,
        };
        self.satisfaction = Some(verdict.clone());
        Ok(verdict)
    }

    /// Relative liveness through Lemma 4.3: `pre(L_ω) ⊆ pre(L_ω ∩ P)`
    /// (the reverse inclusion always holds). When this plan already found
    /// that `P` holds classically, it holds by Theorem 4.7 and nothing is
    /// built.
    ///
    /// By default ([`Guard::lazy_enabled`]) the inclusion is decided by the
    /// fused antichain search [`nfa_included_lazy`] over the two prefix
    /// graphs' edge lists, which never determinizes; `Guard::with_lazy(false)`
    /// converts both graphs to NFAs, determinizes them and runs the DFA
    /// inclusion product instead. Both are exact and return a shortest
    /// doomed prefix.
    ///
    /// # Errors
    ///
    /// As [`CheckPlan::decide`].
    pub fn relative_liveness(&mut self) -> Result<RelativeLivenessVerdict, CoreError> {
        let guard = self.guard;
        let _span = guard.span("relative_liveness");
        if self.satisfaction.as_ref().is_some_and(|c| c.holds) {
            return Ok(RelativeLivenessVerdict {
                holds: true,
                doomed_prefix: None,
            });
        }
        let system = self.system;
        let pre_lp = self.good_prefixes()?;
        let pre_l = prefixes(system, guard)?;
        let doomed = if guard.lazy_enabled() {
            // Both prefix graphs are all-accepting (prefix-closed) by
            // construction, so acceptance along the lazy product is run-set
            // non-emptiness and the antichain search decides the inclusion
            // without a single subset construction.
            nfa_included_lazy(&pre_l, pre_lp, guard)?
        } else {
            let pre_l_dfa = pre_l.to_nfa_structure().determinize_with(guard)?;
            let pre_lp_dfa = pre_lp.to_nfa_structure().determinize_with(guard)?;
            debug_assert!(
                dfa_included(&pre_lp_dfa, &pre_l_dfa).is_none(),
                "pre(L ∩ P) ⊈ pre(L): construction bug"
            );
            dfa_included_with(&pre_l_dfa, &pre_lp_dfa, guard)?
        };
        self.live = Some(doomed.is_none());
        Ok(RelativeLivenessVerdict {
            holds: doomed.is_none(),
            doomed_prefix: doomed,
        })
    }

    /// Relative safety through Lemma 4.4: emptiness of
    /// `L_ω ∩ lim(pre(L_ω ∩ P)) ∩ ¬P`, with an escaping behavior when it is
    /// not empty. It never decides relative liveness itself, so it stays
    /// polynomial on the lazy path even where Lemma 4.3 is exponential.
    ///
    /// Theorem 4.7 settles it from verdicts this plan already holds: it
    /// holds when `P` holds classically; when `P` fails classically but is
    /// relatively live it fails, and the classical counterexample
    /// `x ∈ L_ω \ P` is the escape — every prefix of `x` lies in
    /// `pre(L_ω) = pre(L_ω ∩ P)`, so `x ∈ lim(pre(L_ω ∩ P))`.
    ///
    /// By default ([`Guard::lazy_enabled`]) `lim(pre(L_ω ∩ P))` is the
    /// prefix graph itself (König's lemma, see [`Buchi::prefix_graph_with`]);
    /// `Guard::with_lazy(false)` takes the limit of its determinization
    /// instead. When `L_ω` is limit
    /// closed — every state of `system` accepting, as the behaviors of a
    /// transition system are — `lim(pre(L_ω ∩ P)) ⊆ lim(pre(L_ω)) = L_ω`,
    /// so the `L_ω` factor is dropped and the product is
    /// `lim(pre(L_ω ∩ P)) ∩ ¬P`. Otherwise it is
    /// `(L_ω ∩ ¬P) ∩ lim(pre(L_ω ∩ P))`, reusing the classical product.
    ///
    /// # Errors
    ///
    /// As [`CheckPlan::decide`].
    pub fn relative_safety(&mut self) -> Result<RelativeSafetyVerdict, CoreError> {
        let guard = self.guard;
        let _span = guard.span("relative_safety");
        if let Some(classical) = &self.satisfaction {
            if classical.holds || self.live == Some(true) {
                return Ok(RelativeSafetyVerdict {
                    holds: classical.holds,
                    escaping_behavior: classical.counterexample.clone(),
                });
            }
        }
        let pre_lp = self.take_good_prefixes()?;
        let eager_lim = {
            // Opened on the lazy path too, where the limit is free, so the
            // span tree has the same shape under both pipelines.
            let _span = guard.span("limit");
            if guard.lazy_enabled() {
                None
            } else {
                Some(limit_of_dfa(
                    &pre_lp.to_nfa_structure().determinize_with(guard)?,
                ))
            }
        };
        let lim = eager_lim.as_ref().unwrap_or(&pre_lp);
        let bad = if self.system.accepts_everywhere() {
            lim.intersection_with_classes(self.negation()?, guard)?
        } else {
            self.violations()?.intersection_with(lim, guard)?
        };
        self.good_prefixes = Some(pre_lp);
        let escape = accepted_upword(&bad, guard)?;
        Ok(RelativeSafetyVerdict {
            holds: escape.is_none(),
            escaping_behavior: escape,
        })
    }

    /// `¬P`, translated once.
    fn negation(&mut self) -> Result<&ClassBuchi, CoreError> {
        let neg = match self.negation.take() {
            Some(neg) => neg,
            None => self
                .property
                .negation_classes_with(self.system.alphabet(), self.guard)?,
        };
        Ok(self.negation.insert(neg))
    }

    /// `L_ω ∩ ¬P`, built once.
    fn violations(&mut self) -> Result<&Buchi, CoreError> {
        let product = match self.violations.take() {
            Some(product) => product,
            None => {
                let (system, guard) = (self.system, self.guard);
                system.intersection_with_classes(self.negation()?, guard)?
            }
        };
        Ok(self.violations.insert(product))
    }

    /// The prefix graph of `L_ω ∩ P`, built once.
    fn good_prefixes(&mut self) -> Result<&Buchi, CoreError> {
        let pre = self.take_good_prefixes()?;
        Ok(self.good_prefixes.insert(pre))
    }

    /// Takes the prefix graph of `L_ω ∩ P` out of the plan, first
    /// translating `P` and building `L_ω ∩ P` when it is not built yet.
    fn take_good_prefixes(&mut self) -> Result<Buchi, CoreError> {
        if let Some(pre) = self.good_prefixes.take() {
            return Ok(pre);
        }
        let p = {
            let _span = self.guard.span("translate");
            self.property
                .to_classes_with(self.system.alphabet(), self.guard)?
        };
        let both = self.system.intersection_with_classes(&p, self.guard)?;
        prefixes(&both, self.guard)
    }
}

/// [`Buchi::prefix_graph_with`] (reduce, then read all-accepting) in a
/// `prefix` span.
fn prefixes(b: &Buchi, guard: &Guard) -> Result<Buchi, CoreError> {
    let _span = guard.span("prefix");
    Ok(b.prefix_graph_with(guard)?)
}

/// [`Buchi::accepted_upword_with`] in an `emptiness` span.
fn accepted_upword(b: &Buchi, guard: &Guard) -> Result<Option<UpWord>, CoreError> {
    let _span = guard.span("emptiness");
    Ok(b.accepted_upword_with(guard)?)
}
