//! Simplicity of abstracting homomorphisms (Definition 6.3, after
//! Ochsenschläger).
//!
//! `h` is *simple* for a prefix-closed language `L` and a word `w ∈ L` iff
//! there exists `u ∈ cont(h(w), h(L))` such that
//!
//! ```text
//! cont(u, cont(h(w), h(L))) = cont(u, h(cont(w, L))),
//! ```
//!
//! i.e. the abstract continuations *eventually* (after some `u`) coincide
//! with the image of the concrete continuations. Theorem 8.2 shows this is
//! exactly what makes relative liveness transfer from the abstraction to the
//! concrete system.
//!
//! # Decision procedure
//!
//! For regular `L` the data of `w` is a pair `(q, s)`. Here `q = δ(q₀, w)`
//! in the trimmed DFA `d` of `L` determines `cont(w, L)`, and
//! `s = δ(s₀, h(w))` in a DFA for `h(L)` determines `cont(h(w), h(L))`.
//! Every state of `d` accepts, which is also how prefix-closedness is read
//! off `d` (every live state accepts).
//!
//! Both kinds of language come from one automaton. The image of `d` under
//! `h` is determinized once, from one root `{q}` per state of `d`, by
//! [`image_dfa_with`]: its subsets are ε-closed sets of states of `d`
//! itself, so no ε-eliminated automaton is built. `root[q]` recognizes
//! `h(cont(w, L))` for every `w` reaching `q`, and `root[q₀]` recognizes
//! `h(L)` itself. One Hopcroft partition of that DFA
//! merges the states of equal language, so in the resulting class DFA
//! residual equivalence is equality of states, and `s` is tracked there.
//!
//! A BFS over the reachable `(q, s)` pairs looks for a pair where no `u` as
//! in Definition 6.3 exists. That search walks pairs of classes from
//! `(s, class(root[q]))` until the two coincide. It runs once per distinct
//! class pair, and its answer is memoized. Both searches are complete, so
//! the procedure decides simplicity exactly. The BFS visits words in
//! shortlex order, so when `h` is *not* simple the returned witness is the
//! shortlex-least violating word.

use std::collections::{HashSet, VecDeque};

use rl_automata::{
    AutomataError, Dfa, EdgeRows, FxBuildHasher, FxHashMap, Guard, PairTable, StateId, StateSet,
    Symbol, Word,
};

use crate::hom::{AbstractionError, Homomorphism};
use crate::image::image_dfa_with;

/// Outcome of a simplicity check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimplicityReport {
    /// Whether `h` is simple for the language.
    pub simple: bool,
    /// When not simple: a word `w ∈ L` for which no `u` as in Definition 6.3
    /// exists (e.g. `lock` for the paper's Figure 3 system).
    pub violation: Option<Word>,
    /// Number of `(q, s)` pairs examined (a size measure for benchmarks):
    /// `q` a state of the trimmed DFA of `L`, `s` a language-equivalence
    /// class of the shared image DFA, reachable from the class of `h(L)`.
    pub pairs_checked: usize,
}

/// Decides whether `h` is simple for the prefix-closed regular language
/// `L(language)` (Definition 6.3). `language` is any automaton the subset
/// construction reads: a system (its language, every state accepting), an
/// [`Nfa`](rl_automata::Nfa) or a [`Dfa`].
///
/// # Errors
///
/// * [`AbstractionError::NotPrefixClosed`] when `language` is not prefix
///   closed (the paper's systems always are — Section 6),
/// * [`AbstractionError::Automata`] when the alphabets do not line up.
///
/// # Example
///
/// ```
/// use rl_automata::Alphabet;
/// use rl_abstraction::{check_simplicity, Homomorphism};
/// use rl_petri::examples::{server_behaviors, server_err_behaviors};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let keep = ["request", "result", "reject"];
/// // Figure 2: the abstraction is simple …
/// let good = server_behaviors();
/// let h = Homomorphism::hiding(good.alphabet(), keep)?;
/// assert!(check_simplicity(&h, &good)?.simple);
/// // … Figure 3: it is not (the `lock` prefix kills all results).
/// let bad = server_err_behaviors();
/// let h_err = Homomorphism::hiding(bad.alphabet(), keep)?;
/// let report = check_simplicity(&h_err, &bad)?;
/// assert!(!report.simple);
/// # Ok(())
/// # }
/// ```
pub fn check_simplicity<L: EdgeRows + ?Sized>(
    h: &Homomorphism,
    language: &L,
) -> Result<SimplicityReport, AbstractionError> {
    check_simplicity_with(h, language, &Guard::unlimited())
}

/// [`check_simplicity`] under a resource [`Guard`].
///
/// Two subset constructions run, each under a `determinize` span: one for
/// `L` and one shared multi-root construction for all continuation images,
/// over ε-closed sets of states of `L`'s trimmed DFA; both read the rows
/// they are given, with no [`Nfa`](rl_automata::Nfa) copy. Between them, a
/// `trim` span covers trimming `L`'s DFA: one live-state pass, whose
/// result also shows whether `L` is prefix closed.
/// A `partition` span covers the Hopcroft refinement of the image DFA,
/// which is polynomial and not charged. The guard is charged, in order,
/// for the subset states and edges of both constructions, then one state
/// per `(q, s)` pair the BFS examines, then one state per class pair a
/// `∃u` search materializes.
///
/// # Errors
///
/// As [`check_simplicity`], plus [`AbstractionError::Automata`] carrying a
/// budget error when the guard trips.
pub fn check_simplicity_with<L: EdgeRows + ?Sized>(
    h: &Homomorphism,
    language: &L,
    guard: &Guard,
) -> Result<SimplicityReport, AbstractionError> {
    let _span = guard.span("simplicity");
    h.source().check_compatible(language.alphabet())?;
    let (full, _) = language.determinize_roots_with(&[language.initial().collect()], guard)?;
    // The trim keeps exactly the live states, so `L` is prefix closed
    // exactly when every state of `d` accepts.
    let d = {
        let _span = guard.span("trim");
        full.trim()
    };
    if (0..d.state_count()).any(|q| !d.is_accepting(q)) {
        return Err(AbstractionError::NotPrefixClosed);
    }
    if d.state_count() == 0 {
        // Empty language: vacuously simple (no words to check).
        return Ok(SimplicityReport {
            simple: true,
            violation: None,
            pairs_checked: 0,
        });
    }

    // One DFA for every image: `root[q]` recognizes h(language of d from q).
    // Its states all accept (each subset holds states of `d`), so merging
    // the states of each Myhill–Nerode class gives a partial DFA in which
    // equal residual languages are equal states.
    let roots: Vec<StateSet> = (0..d.state_count())
        .map(|q| StateSet::from_iter([q]))
        .collect();
    let (img, root) = image_dfa_with(h, &d, &roots, guard)?;
    let (classes, class) = {
        let _span = guard.span("partition");
        let class = img.equivalence_classes();
        (quotient(&img, &class), class)
    };
    let root: Vec<StateId> = root.iter().map(|&r| class[r]).collect();

    // BFS over reachable (q, s) pairs, `s` a class. Pairs are numbered in
    // discovery order, so `pairs[next..]` is the queue; each pair keeps its
    // BFS parent and letter, and the witness is spelled out only for a
    // violation.
    let mut index = PairTable::new(d.state_count(), classes.state_count());
    let mut pairs: Vec<Pair> = Vec::new();
    let (q0, s0) = (d.initial(), root[d.initial()]);
    index.set(q0, s0, 0);
    pairs.push((q0, s0, None));
    let mut converges: FxHashMap<(StateId, StateId), bool> = FxHashMap::default();
    let mut next = 0;
    while let Some(&(q, s, _)) = pairs.get(next) {
        let id = next;
        next += 1;
        guard.charge_state()?;
        guard.note_frontier(pairs.len() - next);
        let key = (s, root[q]);
        let simple_here = match converges.get(&key) {
            Some(&known) => {
                guard.note_cache_hit();
                known
            }
            None => {
                let found = exists_converging_u(&classes, key, guard)?;
                converges.insert(key, found);
                found
            }
        };
        if !simple_here {
            return Ok(SimplicityReport {
                simple: false,
                violation: Some(witness(&pairs, id)),
                pairs_checked: next,
            });
        }
        for a in d.alphabet().symbols() {
            let Some(q2) = d.next(q, a) else { continue };
            let s2 = match h.apply(a) {
                Some(b) => classes
                    .next(s, b)
                    .expect("h(wa) ∈ h(L) is tracked from the h(L) root"),
                None => s,
            };
            if index.get(q2, s2).is_none() {
                index.set(q2, s2, pairs.len());
                pairs.push((q2, s2, Some((id, a))));
            }
        }
    }
    Ok(SimplicityReport {
        simple: true,
        violation: None,
        pairs_checked: next,
    })
}

/// A BFS node: `(q, s)` and the parent pair and letter it was reached by.
type Pair = (StateId, StateId, Option<(usize, Symbol)>);

/// The word spelled by the BFS tree from the start pair to pair `id`.
fn witness(pairs: &[Pair], mut id: usize) -> Word {
    let mut word = Vec::new();
    while let Some((p, a)) = pairs[id].2 {
        word.push(a);
        id = p;
    }
    word.reverse();
    word
}

/// The partial DFA on the classes of `img` (all accepting). Equivalent
/// states have equivalent successors under every letter, so any member's
/// transitions serve for its class.
fn quotient(img: &Dfa, class: &[usize]) -> Dfa {
    let mut out = Dfa::new(img.alphabet().clone());
    for _ in 0..class.iter().max().map_or(0, |&c| c + 1) {
        out.add_state(true);
    }
    for (p, b, t) in img.transitions() {
        out.set_transition(class[p], b, class[t]);
    }
    out
}

/// Does some `u ∈ L(s)` satisfy `cont(u, L(s)) = cont(u, L(r))`, for the
/// states `(s, r)` of the class DFA? That is, does a common word lead the
/// two to one state?
///
/// Every state accepts, so `u ∈ L(s)` exactly while `s` has a
/// `u`-successor. Once `r` has none its residual is empty while `s`'s holds
/// `ε`, and no extension can agree again, so that branch is pruned. Each
/// state pair materialized is charged as a state.
fn exists_converging_u(
    classes: &Dfa,
    (s, r): (StateId, StateId),
    guard: &Guard,
) -> Result<bool, AutomataError> {
    let mut seen: HashSet<(StateId, StateId), FxBuildHasher> = HashSet::default();
    let mut queue = VecDeque::from([(s, r)]);
    guard.charge_state()?;
    seen.insert((s, r));
    while let Some((x, y)) = queue.pop_front() {
        guard.note_frontier(queue.len());
        if x == y {
            return Ok(true);
        }
        for b in classes.alphabet().symbols() {
            let (Some(nx), Some(ny)) = (classes.next(x, b), classes.next(y, b)) else {
                continue;
            };
            if seen.insert((nx, ny)) {
                guard.charge_state()?;
                queue.push_back((nx, ny));
            }
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_automata::{
        Alphabet, Budget, CancelToken, MetricsRegistry, Nfa, Resource, TransitionSystem,
    };
    use rl_petri::{reachability_graph, PetriNet};

    /// h hiding tau over a two-action alphabet.
    fn hom(sigma: &Alphabet) -> Homomorphism {
        Homomorphism::hiding(sigma, ["a", "b"]).unwrap()
    }

    #[test]
    fn identity_homomorphism_is_simple() {
        let sigma = Alphabet::new(["a", "b"]).unwrap();
        let h = Homomorphism::new(&sigma, &sigma, |n| Some(n.to_owned())).unwrap();
        let mut ts = TransitionSystem::new(sigma.clone());
        let s0 = ts.add_state();
        let s1 = ts.add_state();
        ts.set_initial(s0);
        ts.add_transition(s0, sigma.symbol("a").unwrap(), s1);
        ts.add_transition(s1, sigma.symbol("b").unwrap(), s0);
        let report = check_simplicity(&h, &ts.to_nfa()).unwrap();
        assert!(report.simple);
    }

    #[test]
    fn hiding_a_neutral_loop_is_simple() {
        // (tau* a)* — hiding tau: abstract a*, continuations always the same.
        let sigma = Alphabet::new(["a", "b", "tau"]).unwrap();
        let a = sigma.symbol("a").unwrap();
        let tau = sigma.symbol("tau").unwrap();
        let mut ts = TransitionSystem::new(sigma.clone());
        let s0 = ts.add_state();
        ts.set_initial(s0);
        ts.add_transition(s0, tau, s0);
        ts.add_transition(s0, a, s0);
        let report = check_simplicity(&hom(&sigma), &ts.to_nfa()).unwrap();
        assert!(report.simple);
    }

    #[test]
    fn hidden_mode_switch_is_not_simple() {
        // tau silently degrades (a|b)* into b*: abstractly nothing happened,
        // but concretely the `a` capability is gone forever — the
        // continuations never re-converge, so no witness `u` exists.
        let sigma = Alphabet::new(["a", "b", "tau"]).unwrap();
        let a = sigma.symbol("a").unwrap();
        let b = sigma.symbol("b").unwrap();
        let tau = sigma.symbol("tau").unwrap();
        let mut ts = TransitionSystem::new(sigma.clone());
        let s0 = ts.add_state();
        let s1 = ts.add_state();
        ts.set_initial(s0);
        ts.add_transition(s0, a, s0);
        ts.add_transition(s0, b, s0);
        ts.add_transition(s0, tau, s1);
        ts.add_transition(s1, b, s1);
        let report = check_simplicity(&hom(&sigma), &ts.to_nfa()).unwrap();
        assert!(!report.simple);
        // The violation is the silent switch itself.
        assert_eq!(report.violation, Some(vec![tau]));
    }

    #[test]
    fn converging_mode_switch_is_simple() {
        // tau switches a* into b*-only, but the abstract language a*b* also
        // loses its `a`s after the first b: continuations converge at u = b,
        // so Definition 6.3's ∃u is satisfied — h *is* simple here.
        let sigma = Alphabet::new(["a", "b", "tau"]).unwrap();
        let a = sigma.symbol("a").unwrap();
        let b = sigma.symbol("b").unwrap();
        let tau = sigma.symbol("tau").unwrap();
        let mut ts = TransitionSystem::new(sigma.clone());
        let s0 = ts.add_state();
        let s1 = ts.add_state();
        ts.set_initial(s0);
        ts.add_transition(s0, a, s0);
        ts.add_transition(s0, tau, s1);
        ts.add_transition(s1, b, s1);
        let report = check_simplicity(&hom(&sigma), &ts.to_nfa()).unwrap();
        assert!(report.simple, "violation: {:?}", report.violation);
    }

    #[test]
    fn eventual_agreement_is_enough() {
        // After the hidden action the concrete continuations disagree with
        // the abstract ones for one step, but coincide after u = a.
        // L: s0 --tau--> s1 --a--> s2, s2 --(a|b)--> s2 ; also s0 --a--> s2.
        // h(cont(tau, L)) = a (a|b)*, cont(h(tau)=ε, h(L)) = h(L) = a (a|b)*.
        let sigma = Alphabet::new(["a", "b", "tau"]).unwrap();
        let a = sigma.symbol("a").unwrap();
        let b = sigma.symbol("b").unwrap();
        let tau = sigma.symbol("tau").unwrap();
        let mut ts = TransitionSystem::new(sigma.clone());
        let s0 = ts.add_state();
        let s1 = ts.add_state();
        let s2 = ts.add_state();
        ts.set_initial(s0);
        ts.add_transition(s0, tau, s1);
        ts.add_transition(s0, a, s2);
        ts.add_transition(s1, a, s2);
        ts.add_transition(s2, a, s2);
        ts.add_transition(s2, b, s2);
        let report = check_simplicity(&hom(&sigma), &ts.to_nfa()).unwrap();
        assert!(report.simple);
    }

    #[test]
    fn non_prefix_closed_input_rejected() {
        let sigma = Alphabet::new(["a", "b", "tau"]).unwrap();
        let a = sigma.symbol("a").unwrap();
        let l = Nfa::from_parts(sigma.clone(), 2, [0], [1], [(0, a, 1)]).unwrap();
        assert_eq!(
            check_simplicity(&hom(&sigma), &l).unwrap_err(),
            AbstractionError::NotPrefixClosed
        );
    }

    #[test]
    fn empty_language_is_simple() {
        let sigma = Alphabet::new(["a", "b", "tau"]).unwrap();
        let l = Nfa::new(sigma.clone());
        let report = check_simplicity(&hom(&sigma), &l).unwrap();
        assert!(report.simple);
        assert_eq!(report.pairs_checked, 0);
    }

    /// Two interleaved copies of the Figure 1 server (the benchmark suite's
    /// `server_farm(2)`, 64 states) and the hiding onto request, result and
    /// reject of both servers.
    fn server_farm_2() -> (TransitionSystem, Homomorphism) {
        let mut farm: Option<TransitionSystem> = None;
        for i in 0..2 {
            let mut net = PetriNet::new();
            let [idle, busy, granting, rejecting, free, locked] =
                ["idle", "busy", "granting", "rejecting", "free", "locked"].map(|p| {
                    let tokens = u32::from(p == "idle" || p == "free");
                    net.add_place(format!("{p}{i}"), tokens).unwrap()
                });
            for (name, pre, post) in [
                ("request", vec![idle], vec![busy]),
                ("yes", vec![busy, free], vec![granting, free]),
                ("no", vec![busy, locked], vec![rejecting, locked]),
                ("result", vec![granting], vec![idle]),
                ("reject", vec![rejecting], vec![idle]),
                ("lock", vec![free], vec![locked]),
                ("free", vec![locked], vec![free]),
            ] {
                let arcs = |places: Vec<_>| places.into_iter().map(|p| (p, 1));
                net.add_transition(format!("{name}{i}"), arcs(pre), arcs(post))
                    .unwrap();
            }
            let server = reachability_graph(&net, 100).unwrap();
            farm = Some(match farm {
                None => server,
                Some(f) => f.compose(&server).unwrap(),
            });
        }
        let ts = farm.unwrap();
        assert_eq!(ts.state_count(), 64);
        let keep = [
            "request0", "result0", "reject0", "request1", "result1", "reject1",
        ];
        let h = Homomorphism::hiding(ts.alphabet(), keep).unwrap();
        (ts, h)
    }

    #[test]
    fn state_budget_admits_exactly_the_states_charged() {
        let (l, h) = server_farm_2();
        let unlimited = Guard::unlimited();
        let report = check_simplicity_with(&h, &l, &unlimited).unwrap();
        assert!(report.simple);
        let n = unlimited.progress().states;

        let exact = Guard::new(Budget::unlimited().with_max_states(n));
        assert_eq!(check_simplicity_with(&h, &l, &exact).unwrap(), report);

        let short = Guard::new(Budget::unlimited().with_max_states(n - 1))
            .with_metrics(MetricsRegistry::new());
        match check_simplicity_with(&h, &l, &short) {
            Err(AbstractionError::Automata(AutomataError::BudgetExceeded {
                resource: Resource::States,
                spent,
                limit,
                partial,
            })) => {
                assert_eq!((spent, limit), (n as u64, n as u64 - 1));
                let phase = partial.phase.expect("a registry names the phase");
                assert!(phase.starts_with("simplicity"), "{phase}");
            }
            other => panic!("expected a state-budget error, got {other:?}"),
        }
    }

    #[test]
    fn cancelled_token_stops_the_check() {
        let (l, h) = server_farm_2();
        let token = CancelToken::new();
        token.cancel();
        let guard = Guard::with_cancel(Budget::unlimited(), token);
        assert!(matches!(
            check_simplicity_with(&h, &l, &guard),
            Err(AbstractionError::Automata(AutomataError::Cancelled(_)))
        ));
    }

    #[test]
    fn one_check_determinizes_twice_and_partitions_once() {
        let (l, h) = server_farm_2();
        let registry = MetricsRegistry::new();
        let guard = Guard::unlimited().with_metrics(registry.clone());
        check_simplicity_with(&h, &l, &guard).unwrap();
        let records = registry.records();
        let count = |name: &str| records.iter().filter(|r| r.name == name).count();
        // One subset construction for L, one shared one for every image,
        // and one live-state pass between them.
        assert_eq!(count("determinize"), 2);
        assert_eq!(count("trim"), 1);
        assert_eq!(count("partition"), 1);
        assert_eq!(count("prefix_closed"), 0);
    }
}
