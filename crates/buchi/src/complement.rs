//! Büchi complementation (rank-based, Kupferman–Vardi) and the ω-language
//! inclusion/equivalence tests built on it.
//!
//! Complementation is inherently exponential (`2^O(n log n)`); the paper only
//! needs it to decide relative safety for properties given as raw Büchi
//! automata (Theorem 4.5), which in practice are small. Properties given as
//! PLTL formulas avoid this construction entirely — `rl-logic` translates the
//! *negated* formula instead.

use std::collections::VecDeque;

use rl_automata::{AutomataError, Guard, Interner, StateId, StateSet, Symbol};

use crate::buchi::Buchi;
use crate::upword::UpWord;

/// A level ranking: the current subset of `A`-states, each with a rank.
type Ranking = Vec<(StateId, u32)>;
/// Complement state: ranking + the "owing" set of the breakpoint
/// construction.
type CState = (Ranking, Vec<StateId>);

/// Unset entry of the per-state rank-bound table (max_rank ≤ 2n < MAX).
const NO_BOUND: u32 = u32::MAX;

/// Returns a Büchi automaton accepting exactly `Σ^ω \ L(a)`.
///
/// Implements the Kupferman–Vardi rank-based construction: states are level
/// rankings (subset states annotated with ranks `0..=2n`, accepting states
/// even-ranked) plus a breakpoint set `O`; a word is in the complement iff
/// some ranking run exists in which `O` empties infinitely often.
///
/// The result can be exponentially larger than `a` — use only on small
/// automata (the deciders in `rl-core` reserve it for automaton-given
/// properties).
///
/// # Example
///
/// ```
/// use rl_automata::Alphabet;
/// use rl_buchi::{complement, Buchi, UpWord};
///
/// # fn main() -> Result<(), rl_automata::AutomataError> {
/// let ab = Alphabet::new(["a", "b"])?;
/// let a = ab.symbol("a").unwrap();
/// let b = ab.symbol("b").unwrap();
/// // "infinitely many a"
/// let m = Buchi::from_parts(
///     ab, 2, [0], [1],
///     [(0, b, 0), (0, a, 1), (1, a, 1), (1, b, 0)],
/// )?;
/// let c = complement(&m);
/// // complement = "finitely many a"
/// assert!(c.accepts_upword(&UpWord::new(vec![a, a], vec![b])?));
/// assert!(!c.accepts_upword(&UpWord::periodic(vec![a, b])?));
/// # Ok(())
/// # }
/// ```
pub fn complement(a: &Buchi) -> Buchi {
    complement_with(a, &Guard::unlimited()).expect("an unlimited guard never trips")
}

/// Expands one `(complement state, symbol)` cell: enumerates every successor
/// ranking within the rank bounds and returns the resulting complement-state
/// keys in enumeration order. Pure except for `on_candidate`, which fires
/// once per enumerated partial ranking — the sequential path charges the
/// guard's transition budget there, pool workers count candidates (and poll
/// the cancellation probe) so the merge can replay exactly that many
/// charges.
fn expand_cell(
    a: &Buchi,
    n: usize,
    f: &Ranking,
    o: &[StateId],
    sym: Symbol,
    mut on_candidate: impl FnMut() -> Result<(), AutomataError>,
) -> Result<Vec<CState>, AutomataError> {
    // Successor subset with per-state rank bounds.
    let mut bound: Vec<u32> = vec![NO_BOUND; n];
    for &(q, r) in f {
        for q2 in a.successors(q, sym) {
            bound[q2] = bound[q2].min(r);
        }
    }
    // δ(O, sym): successors of the owing set.
    let mut o_succ = StateSet::with_universe(n);
    for &q in o {
        for q2 in a.successors(q, sym) {
            o_succ.insert(q2);
        }
    }

    // Enumerate all rankings g within bounds (accepting ⇒ even rank).
    let targets: Vec<(StateId, u32)> = bound
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b != NO_BOUND)
        .map(|(q2, &b)| (q2, b))
        .collect();
    let mut assignments: Vec<Ranking> = vec![Vec::new()];
    for &(q2, b) in &targets {
        let mut next = Vec::new();
        for g in &assignments {
            for r in 0..=b {
                if a.is_accepting(q2) && r % 2 == 1 {
                    continue;
                }
                // Each candidate becomes one complement transition; the
                // callback bounds the pre-interning blow-up.
                on_candidate()?;
                let mut g2 = g.clone();
                g2.push((q2, r));
                next.push(g2);
            }
        }
        assignments = next;
    }

    Ok(assignments
        .into_iter()
        .map(|g| {
            let even: Vec<StateId> = g
                .iter()
                .filter(|&&(_, r)| r % 2 == 0)
                .map(|&(q, _)| q)
                .collect();
            let o2: Vec<StateId> = if o.is_empty() {
                even
            } else {
                even.into_iter().filter(|&q| o_succ.contains(q)).collect()
            };
            (g, o2)
        })
        .collect())
}

/// [`complement`] under a resource [`Guard`].
///
/// Every interned ranking state is charged against the guard's state budget
/// and every enumerated ranking candidate against its transition budget (the
/// candidate enumeration, not the interning, is where memory blows up).
///
/// # Errors
///
/// Returns a budget error when the guard trips.
pub fn complement_with(a: &Buchi, guard: &Guard) -> Result<Buchi, AutomataError> {
    let _span = guard.span("buchi_complement");
    // Restrict to reachable states (language-preserving, shrinks n).
    let a = restrict_reachable(a);
    let n = a.state_count();
    if n == 0 || a.initial().is_empty() {
        return Ok(Buchi::universal(a.alphabet().clone()));
    }
    let max_rank = 2 * n as u32;

    let mut out = Buchi::new(a.alphabet().clone());
    // Interner ids align with `out` state ids: both are assigned
    // sequentially, always in the same order.
    let mut index: Interner<CState> = Interner::new();
    let mut work: VecDeque<StateId> = VecDeque::new();

    let init: CState = (
        a.initial().iter().map(|&q| (q, max_rank)).collect(),
        Vec::new(),
    );
    // Initial ranking must respect parity for accepting states; max_rank is
    // even, so it always does.
    guard.charge_state()?;
    let id = out.add_state(true); // O = ∅
    index.intern(init);
    out.set_initial(id);
    work.push_back(id);

    while let Some(id) = work.pop_front() {
        guard.note_frontier(work.len());
        let (f, o) = index.key(id).clone();
        for sym in a.alphabet().symbols() {
            let keys = expand_cell(&a, n, &f, &o, sym, || guard.charge_transition())?;
            for key in keys {
                let nid = match index.get(&key) {
                    Some(nid) => nid,
                    None => {
                        guard.charge_state()?;
                        let nid = out.add_state(key.1.is_empty());
                        index.intern(key);
                        work.push_back(nid);
                        nid
                    }
                };
                out.add_transition(id, sym, nid);
            }
        }
    }
    Ok(out)
}

fn restrict_reachable(a: &Buchi) -> Buchi {
    let nfa = a.to_nfa_structure();
    let reach = nfa.reachable();
    Buchi::from_nfa_structure(&nfa.restrict(&reach))
}

/// Decides ω-language inclusion `L(a) ⊆ L(b)`; on failure returns a witness
/// ultimately periodic word in `L(a) \ L(b)`.
///
/// Built on [`complement`], so exponential in `b` — keep `b` small.
///
/// # Errors
///
/// Returns [`rl_automata::AutomataError::AlphabetMismatch`] when the
/// alphabets differ.
pub fn omega_included(a: &Buchi, b: &Buchi) -> Result<Option<UpWord>, rl_automata::AutomataError> {
    omega_included_with(a, b, &Guard::unlimited())
}

/// [`omega_included`] under a resource [`Guard`]: both the complementation of
/// `b` and the intersection product are charged against the guard's budget.
///
/// # Errors
///
/// Returns [`rl_automata::AutomataError::AlphabetMismatch`] when the
/// alphabets differ, or a budget error when the guard trips.
pub fn omega_included_with(
    a: &Buchi,
    b: &Buchi,
    guard: &Guard,
) -> Result<Option<UpWord>, rl_automata::AutomataError> {
    let _span = guard.span("omega_inclusion");
    let diff = a.intersection_with(&complement_with(b, guard)?, guard)?;
    Ok(diff.accepted_upword())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_automata::Alphabet;

    fn ab2() -> (Alphabet, rl_automata::Symbol, rl_automata::Symbol) {
        let ab = Alphabet::new(["a", "b"]).unwrap();
        (ab.clone(), ab.symbol("a").unwrap(), ab.symbol("b").unwrap())
    }

    fn inf_a() -> Buchi {
        let (ab, a, b) = ab2();
        Buchi::from_parts(
            ab,
            2,
            [0],
            [1],
            [(0, b, 0), (0, a, 1), (1, a, 1), (1, b, 0)],
        )
        .unwrap()
    }

    #[test]
    fn complement_flips_membership_on_samples() {
        let (_, a, b) = ab2();
        let m = inf_a();
        let c = complement(&m);
        let words = [
            UpWord::periodic(vec![a]).unwrap(),
            UpWord::periodic(vec![b]).unwrap(),
            UpWord::periodic(vec![a, b]).unwrap(),
            UpWord::new(vec![a, a, a], vec![b]).unwrap(),
            UpWord::new(vec![b, b], vec![a, b, b]).unwrap(),
        ];
        for w in &words {
            assert_ne!(m.accepts_upword(w), c.accepts_upword(w), "word {w}");
        }
    }

    #[test]
    fn complement_of_empty_is_universal() {
        let (ab, a, _) = ab2();
        let empty = Buchi::new(ab.clone());
        let c = complement(&empty);
        assert!(c.accepts_upword(&UpWord::periodic(vec![a]).unwrap()));
    }

    #[test]
    fn complement_of_universal_is_empty() {
        let (ab, _, _) = ab2();
        let c = complement(&Buchi::universal(ab));
        assert!(c.is_empty_language());
    }

    #[test]
    fn inclusion_and_witness() {
        let (ab, a, b) = ab2();
        let m = inf_a();
        let univ = Buchi::universal(ab.clone());
        assert_eq!(omega_included(&m, &m.clone()).unwrap(), None);
        assert_eq!(omega_included(&m, &univ).unwrap(), None);
        let w = omega_included(&univ, &m).unwrap().expect("strict");
        // Witness has finitely many a's.
        assert!(!m.accepts_upword(&w));
        let _ = (a, b);
    }

    #[test]
    fn complement_handles_dying_runs() {
        let (ab, a, b) = ab2();
        // Accepts only a^ω and dies on b.
        let m = Buchi::from_parts(ab, 1, [0], [0], [(0, a, 0)]).unwrap();
        let c = complement(&m);
        assert!(c.accepts_upword(&UpWord::new(vec![b], vec![a]).unwrap()));
        assert!(c.accepts_upword(&UpWord::periodic(vec![b]).unwrap()));
        assert!(!c.accepts_upword(&UpWord::periodic(vec![a]).unwrap()));
    }
}
