//! Semidecision kernels for NFA inclusion: sound, incomplete analyses
//! that settle `L(a) ⊆ L(b)` without running a PSPACE decision procedure.
//! No check path calls them; `rl_core::prefilter_inclusion` chains them
//! for measurement and for their soundness tests.
//!
//! Three kernels live here, each near-linear in the automata:
//!
//! * [`parikh_refute`] — letter-count (Parikh) refutation: a word of `a`
//!   whose per-letter counts are provably unachievable by `b` disproves the
//!   inclusion with a concrete witness.
//! * [`modk_refute`] — counts-mod-`k` refutation: quotient both languages
//!   by the Parikh vector modulo `k` and refute when `a` reaches a residue
//!   class `b` never does.
//! * [`nfa_simulates`] — structural fast-accept: a simulation of `a` by `b`
//!   proves the inclusion outright.
//!
//! Every refutation candidate is re-validated by word replay
//! (`a.accepts(w) && !b.accepts(w)`) before it is returned, so a `Some`
//! answer from the refuting kernels is always a true counterexample, for
//! *any* pair of NFAs. The kernels are tuned for the prefix-closed,
//! all-accepting automata of the Lemma 4.3 inclusion, where candidate paths
//! are always accepted; on other automata they simply find fewer
//! refutations. None of the kernels touches the guard's charge counters:
//! they only poll deadlines/cancellation.

use std::collections::VecDeque;

use crate::alphabet::Symbol;
use crate::error::AutomataError;
use crate::guard::Guard;
use crate::nfa::Nfa;
use crate::word::Word;
use crate::StateId;

/// Largest `states × residue-classes` product [`modk_refute`] materializes
/// before giving up (returning "no refutation found"). Deliberately small:
/// the quotient is only worth exploring while it is orders of magnitude
/// below the exact search space, and a semidecision that gives up must not
/// have spent more than a sliver of the exact decider's time.
const MODK_PAIR_CAP: usize = 1 << 16;

/// Largest `states(a) × states(b)` relation [`nfa_simulates`] refines before
/// giving up (answering `false`, i.e. "not proved").
const SIM_PAIR_CAP: usize = 1 << 22;

/// Longest witness the pumping construction of [`parikh_refute`] bothers to
/// build; beyond this the exact decider's shortest witness is preferable.
const PUMP_WITNESS_CAP: usize = 10_000;

/// Forward adjacency lists over all symbols, for plain graph traversals.
fn adjacency(nfa: &Nfa) -> Vec<Vec<StateId>> {
    let mut adj: Vec<Vec<StateId>> = vec![Vec::new(); nfa.state_count()];
    for (p, _, q) in nfa.transitions() {
        adj[p].push(q);
    }
    adj
}

/// Strongly connected component id per state (Kosaraju, iterative). Ids are
/// arbitrary but equal exactly within a component.
fn scc_ids(nfa: &Nfa) -> Vec<usize> {
    let n = nfa.state_count();
    let adj = adjacency(nfa);
    let mut radj: Vec<Vec<StateId>> = vec![Vec::new(); n];
    for (p, row) in adj.iter().enumerate() {
        for &q in row {
            radj[q].push(p);
        }
    }
    // Pass 1: DFS finish order.
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for root in 0..n {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        let mut stack: Vec<(StateId, usize)> = vec![(root, 0)];
        while let Some(&mut (p, ref mut next)) = stack.last_mut() {
            if *next < adj[p].len() {
                let q = adj[p][*next];
                *next += 1;
                if !seen[q] {
                    seen[q] = true;
                    stack.push((q, 0));
                }
            } else {
                order.push(p);
                stack.pop();
            }
        }
    }
    // Pass 2: reverse graph, reverse finish order.
    let mut comp = vec![usize::MAX; n];
    let mut id = 0;
    for &root in order.iter().rev() {
        if comp[root] != usize::MAX {
            continue;
        }
        comp[root] = id;
        let mut queue = VecDeque::from([root]);
        while let Some(p) = queue.pop_front() {
            for &q in &radj[p] {
                if comp[q] == usize::MAX {
                    comp[q] = id;
                    queue.push_back(q);
                }
            }
        }
        id += 1;
    }
    comp
}

/// BFS tree from the initial states: per state, its depth and the
/// `(predecessor, symbol)` edge that first discovered it. Unreachable states
/// keep depth `usize::MAX`.
fn bfs_tree(nfa: &Nfa) -> (Vec<usize>, Vec<Option<(StateId, Symbol)>>) {
    let n = nfa.state_count();
    let mut depth = vec![usize::MAX; n];
    let mut parent: Vec<Option<(StateId, Symbol)>> = vec![None; n];
    let mut queue = VecDeque::new();
    for &q in nfa.initial() {
        if depth[q] == usize::MAX {
            depth[q] = 0;
            queue.push_back(q);
        }
    }
    while let Some(p) = queue.pop_front() {
        for a in nfa.alphabet().symbols() {
            for &q in nfa.successor_slice(p, a) {
                if depth[q] == usize::MAX {
                    depth[q] = depth[p] + 1;
                    parent[q] = Some((p, a));
                    queue.push_back(q);
                }
            }
        }
    }
    (depth, parent)
}

/// The word spelled by the BFS tree path from an initial state to `q`.
fn tree_word(parent: &[Option<(StateId, Symbol)>], mut q: StateId) -> Word {
    let mut word = Vec::new();
    while let Some((p, a)) = parent[q] {
        word.push(a);
        q = p;
    }
    word.reverse();
    word
}

/// A shortest word labeling some path `from ⇝ to`, by plain BFS.
fn bfs_path(nfa: &Nfa, from: StateId, to: StateId) -> Option<Word> {
    if from == to {
        return Some(Vec::new());
    }
    let n = nfa.state_count();
    let mut parent: Vec<Option<(StateId, Symbol)>> = vec![None; n];
    let mut seen = vec![false; n];
    seen[from] = true;
    let mut queue = VecDeque::from([from]);
    while let Some(p) = queue.pop_front() {
        for a in nfa.alphabet().symbols() {
            for &q in nfa.successor_slice(p, a) {
                if !seen[q] {
                    seen[q] = true;
                    parent[q] = Some((p, a));
                    if q == to {
                        return Some(tree_word(&parent, to));
                    }
                    queue.push_back(q);
                }
            }
        }
    }
    None
}

/// How many times `b` can use a letter across any single run.
#[derive(Clone, Copy, PartialEq, Eq)]
enum LetterBound {
    /// No reachable transition carries the letter: the count is zero.
    Zero,
    /// No reachable transition carrying the letter lies on a cycle, so each
    /// can fire at most once per run: the count is at most this many.
    AtMost(usize),
    /// Some reachable carrying transition lies on a cycle: unbounded.
    Unbounded,
}

/// Per-letter usage bounds of `b`'s reachable transition graph.
fn letter_bounds(b: &Nfa) -> Vec<LetterBound> {
    let reach = b.reachable();
    let comp = scc_ids(b);
    let mut bounds = vec![LetterBound::Zero; b.alphabet().len()];
    for (p, a, q) in b.transitions() {
        if !reach[p] {
            continue;
        }
        bounds[a.index()] = match bounds[a.index()] {
            _ if comp[p] == comp[q] => LetterBound::Unbounded,
            LetterBound::Unbounded => LetterBound::Unbounded,
            LetterBound::Zero => LetterBound::AtMost(1),
            LetterBound::AtMost(c) => LetterBound::AtMost(c + 1),
        };
    }
    bounds
}

/// Letter-count (Parikh) refutation of `L(a) ⊆ L(b)`.
///
/// Computes, per letter, an upper bound on how often `b` can use it in any
/// single word — zero when no reachable transition carries it, finite when
/// none of the carrying transitions lies on a cycle, unbounded otherwise —
/// and searches `a` for a shortest word exceeding some bound. The whole
/// analysis is O(states × alphabet) graph work.
///
/// Returns `Some(witness)` only after replaying the candidate on both
/// automata (`a` accepts it, `b` does not), so a refutation is always
/// genuine; `None` means "no refutation found", not inclusion.
///
/// # Errors
///
/// Propagates guard deadline/cancellation trips ([`Guard::check_now`]); the
/// kernel never charges states or transitions.
pub fn parikh_refute(a: &Nfa, b: &Nfa, guard: &Guard) -> Result<Option<Word>, AutomataError> {
    guard.check_now()?;
    if a.alphabet().check_compatible(b.alphabet()).is_err() {
        return Ok(None);
    }
    // ε first: it has no letter counts but is the shortest witness of all
    // (covers an empty-language `b` against a non-empty `a`).
    if a.accepts(&[]) && !b.accepts(&[]) {
        return Ok(Some(Vec::new()));
    }
    let bounds = letter_bounds(b);
    let (depth_a, parent_a) = bfs_tree(a);
    guard.check_now()?;

    // Support refutation: a letter `a` can reach but `b` can never fire.
    // Among all (letter, source-state) options take the shortest word.
    let mut best: Option<(usize, StateId, Symbol)> = None;
    for x in a.alphabet().symbols() {
        if bounds[x.index()] != LetterBound::Zero {
            continue;
        }
        for (p, &depth) in depth_a.iter().enumerate() {
            if depth == usize::MAX || a.successor_slice(p, x).is_empty() {
                continue;
            }
            if best.is_none_or(|(d, _, _)| depth + 1 < d) {
                best = Some((depth + 1, p, x));
            }
        }
    }
    if let Some((_, p, x)) = best {
        let mut w = tree_word(&parent_a, p);
        w.push(x);
        if a.accepts(&w) && !b.accepts(&w) {
            return Ok(Some(w));
        }
    }

    // Pumping refutation: `b` can fire a letter at most C times, but `a`
    // has a reachable carrying transition on a cycle — pump it C+1 times.
    let comp_a = scc_ids(a);
    for x in a.alphabet().symbols() {
        let LetterBound::AtMost(c) = bounds[x.index()] else {
            continue;
        };
        guard.check_now()?;
        let Some((p, q)) = (0..a.state_count())
            .filter(|&p| depth_a[p] != usize::MAX)
            .flat_map(|p| {
                a.successor_slice(p, x)
                    .iter()
                    .map(move |&q| (p, q))
                    .filter(|&(p, q)| comp_a[p] == comp_a[q])
            })
            .min_by_key(|&(p, _)| depth_a[p])
        else {
            continue;
        };
        let Some(back) = bfs_path(a, q, p) else {
            continue;
        };
        let access = tree_word(&parent_a, p);
        let len = access.len() + (c + 1) * (1 + back.len());
        if len > PUMP_WITNESS_CAP {
            continue;
        }
        let mut w = access;
        for i in 0..=c {
            w.push(x);
            if i < c {
                w.extend_from_slice(&back);
            }
        }
        if a.accepts(&w) && !b.accepts(&w) {
            return Ok(Some(w));
        }
    }
    Ok(None)
}

/// Counts-mod-`k` refutation of `L(a) ⊆ L(b)`.
///
/// Quotients both languages by the Parikh vector modulo `k` (per letter):
/// the reachable residue classes of each automaton are computed by a BFS
/// over `state × (Z_k)^Σ` pairs, and a shortest word of `a` reaching a
/// class `b` never reaches refutes the inclusion. Since `b`'s class set is
/// an over-approximation of its language's image, a mismatch is a genuine
/// counterexample (asserted by replay all the same).
///
/// Returns `None` without working when `k < 2` or the `states × kᐩΣᐩ`
/// product of either side exceeds an internal cap — the quotient is only
/// worthwhile while it is far smaller than the exact search space.
///
/// # Errors
///
/// Propagates guard deadline/cancellation trips; never charges states or
/// transitions.
pub fn modk_refute(
    a: &Nfa,
    b: &Nfa,
    k: usize,
    guard: &Guard,
) -> Result<Option<Word>, AutomataError> {
    guard.check_now()?;
    if k < 2 || a.alphabet().check_compatible(b.alphabet()).is_err() {
        return Ok(None);
    }
    let letters = a.alphabet().len();
    let mut space = 1usize;
    for _ in 0..letters {
        space = match space.checked_mul(k) {
            Some(s) if s <= MODK_PAIR_CAP => s,
            _ => return Ok(None),
        };
    }
    let cap = |nfa: &Nfa| {
        nfa.state_count()
            .checked_mul(space)
            .filter(|&n| n <= MODK_PAIR_CAP)
    };
    let (Some(a_pairs), Some(b_pairs)) = (cap(a), cap(b)) else {
        return Ok(None);
    };
    let pow: Vec<usize> = (0..letters)
        .scan(1usize, |acc, _| {
            let p = *acc;
            *acc *= k;
            Some(p)
        })
        .collect();
    let step = |vec_idx: usize, sym: Symbol| {
        let digit = (vec_idx / pow[sym.index()]) % k;
        vec_idx - digit * pow[sym.index()] + ((digit + 1) % k) * pow[sym.index()]
    };

    // Residue classes `b` reaches at any state (an over-approximation of
    // its language's mod-k image, which is all soundness needs).
    let mut b_classes = vec![false; space];
    {
        let mut seen = vec![false; b_pairs];
        let mut queue = VecDeque::new();
        for &q in b.initial() {
            let pair = q * space;
            if !seen[pair] {
                seen[pair] = true;
                b_classes[0] = true;
                queue.push_back(pair);
            }
        }
        let mut polls = 0u32;
        while let Some(pair) = queue.pop_front() {
            polls += 1;
            if polls.is_multiple_of(256) {
                guard.check_now()?;
            }
            let (q, vec_idx) = (pair / space, pair % space);
            for x in b.alphabet().symbols() {
                let next_vec = step(vec_idx, x);
                for &q2 in b.successor_slice(q, x) {
                    let next = q2 * space + next_vec;
                    if !seen[next] {
                        seen[next] = true;
                        b_classes[next_vec] = true;
                        queue.push_back(next);
                    }
                }
            }
        }
    }

    // Shortest word of `a` into a residue class `b` misses.
    let mut seen = vec![false; a_pairs];
    let mut parent: Vec<Option<(usize, Symbol)>> = vec![None; a_pairs];
    let mut queue = VecDeque::new();
    for &q in a.initial() {
        let pair = q * space;
        if !seen[pair] {
            seen[pair] = true;
            queue.push_back(pair);
        }
    }
    let mut polls = 0u32;
    while let Some(pair) = queue.pop_front() {
        polls += 1;
        if polls.is_multiple_of(256) {
            guard.check_now()?;
        }
        let (q, vec_idx) = (pair / space, pair % space);
        if a.is_accepting(q) && !b_classes[vec_idx] {
            let mut word = Vec::new();
            let mut cur = pair;
            while let Some((prev, x)) = parent[cur] {
                word.push(x);
                cur = prev;
            }
            word.reverse();
            if a.accepts(&word) && !b.accepts(&word) {
                return Ok(Some(word));
            }
            continue;
        }
        for x in a.alphabet().symbols() {
            let next_vec = step(vec_idx, x);
            for &q2 in a.successor_slice(q, x) {
                let next = q2 * space + next_vec;
                if !seen[next] {
                    seen[next] = true;
                    parent[next] = Some((pair, x));
                    queue.push_back(next);
                }
            }
        }
    }
    Ok(None)
}

/// Structural fast-accept: whether `big` simulates `small` state-by-state,
/// which proves `L(small) ⊆ L(big)`.
///
/// The largest simulation respecting acceptance (`R(q, s)` requires that
/// `q` accepting implies `s` accepting, and every `q --x--> q'` is matched
/// by some `s --x--> s'` with `R(q', s')`) is computed as a greatest
/// fixpoint, the NFA twin of [`crate::largest_simulation`]; the answer is
/// `true` when every initial state of `small` is simulated by some initial
/// state of `big`. A `false` answer proves nothing (simulation is strictly
/// finer than inclusion); it is also returned outright when the alphabets
/// differ or the `states × states` relation exceeds an internal cap.
///
/// # Errors
///
/// Propagates guard deadline/cancellation trips; never charges states or
/// transitions.
pub fn nfa_simulates(big: &Nfa, small: &Nfa, guard: &Guard) -> Result<bool, AutomataError> {
    guard.check_now()?;
    if small.alphabet().check_compatible(big.alphabet()).is_err() {
        return Ok(false);
    }
    let (n, m) = (small.state_count(), big.state_count());
    if small.initial().is_empty() {
        return Ok(true); // empty language is included in anything
    }
    if m == 0 || n.checked_mul(m).is_none_or(|pairs| pairs > SIM_PAIR_CAP) {
        return Ok(false);
    }
    let mut related = vec![true; n * m];
    for q in 0..n {
        for s in 0..m {
            if small.is_accepting(q) && !big.is_accepting(s) {
                related[q * m + s] = false;
            }
        }
    }
    loop {
        guard.check_now()?;
        let mut changed = false;
        for q in 0..n {
            for s in 0..m {
                if !related[q * m + s] {
                    continue;
                }
                let ok = small.alphabet().symbols().all(|x| {
                    small.successor_slice(q, x).iter().all(|&q2| {
                        big.successor_slice(s, x)
                            .iter()
                            .any(|&s2| related[q2 * m + s2])
                    })
                });
                if !ok {
                    related[q * m + s] = false;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    Ok(small
        .initial()
        .iter()
        .all(|&q| big.initial().iter().any(|&s| related[q * m + s])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;

    fn nfa(
        ab: &Alphabet,
        states: usize,
        initial: &[StateId],
        edges: &[(StateId, &str, StateId)],
    ) -> Nfa {
        // All states accepting: the prefix-closed shape of Lemma 4.3.
        Nfa::from_parts(
            ab.clone(),
            states,
            initial.iter().copied(),
            0..states,
            edges
                .iter()
                .map(|&(p, name, q)| (p, ab.symbol(name).unwrap(), q)),
        )
        .unwrap()
    }

    #[test]
    fn parikh_refutes_on_missing_support() {
        let ab = Alphabet::new(["a", "b", "c"]).unwrap();
        // a: can do c after an a; b: only a/b loops.
        let big = nfa(&ab, 2, &[0], &[(0, "a", 0), (0, "c", 1), (1, "b", 1)]);
        let small = nfa(&ab, 1, &[0], &[(0, "a", 0), (0, "b", 0)]);
        let g = Guard::unlimited();
        let w = parikh_refute(&big, &small, &g).unwrap().unwrap();
        assert_eq!(w, vec![ab.symbol("c").unwrap()]);
        assert!(big.accepts(&w) && !small.accepts(&w));
        // And the inclusion direction that holds is not refuted.
        assert_eq!(parikh_refute(&small, &big, &g).unwrap(), None);
    }

    #[test]
    fn parikh_refutes_by_pumping_past_a_finite_bound() {
        let ab = Alphabet::new(["a", "b"]).unwrap();
        // b fires `a` at most once per run (no cycle through it)...
        let bounded = nfa(&ab, 2, &[0], &[(0, "b", 0), (0, "a", 1), (1, "b", 1)]);
        // ...while a loops on it.
        let looper = nfa(&ab, 1, &[0], &[(0, "a", 0), (0, "b", 0)]);
        let g = Guard::unlimited();
        let w = parikh_refute(&looper, &bounded, &g).unwrap().unwrap();
        assert!(looper.accepts(&w) && !bounded.accepts(&w));
        assert_eq!(parikh_refute(&bounded, &looper, &g).unwrap(), None);
    }

    #[test]
    fn parikh_refutes_empty_right_side_with_epsilon() {
        let ab = Alphabet::new(["a"]).unwrap();
        let one = nfa(&ab, 1, &[0], &[(0, "a", 0)]);
        let empty = Nfa::new(ab);
        let g = Guard::unlimited();
        assert_eq!(parikh_refute(&one, &empty, &g).unwrap(), Some(Vec::new()));
    }

    #[test]
    fn modk_sees_a_joint_residue_support_cannot() {
        let ab = Alphabet::new(["a", "b"]).unwrap();
        // b: strict alternation — #a − #b stays in {0, 1}, both unbounded.
        let alt = nfa(&ab, 2, &[0], &[(0, "a", 1), (1, "b", 0)]);
        // a: anything.
        let any = nfa(&ab, 1, &[0], &[(0, "a", 0), (0, "b", 0)]);
        let g = Guard::unlimited();
        // Per-letter analysis is blind here...
        assert_eq!(parikh_refute(&any, &alt, &g).unwrap(), None);
        // ...k = 2 still is (all four residue pairs are reachable)...
        assert_eq!(modk_refute(&any, &alt, 2, &g).unwrap(), None);
        // ...but k = 3 rules out (#a − #b) ≡ 2 — shortest offender is "b",
        // whose residue (0, 1) the alternator never reaches.
        let w = modk_refute(&any, &alt, 3, &g).unwrap().unwrap();
        assert_eq!(w, vec![ab.symbol("b").unwrap()]);
        assert!(any.accepts(&w) && !alt.accepts(&w));
    }

    #[test]
    fn modk_declines_oversized_quotients() {
        let names: Vec<String> = (0..32).map(|i| format!("x{i}")).collect();
        let ab = Alphabet::new(names.iter().map(String::as_str)).unwrap();
        let n = nfa(&ab, 1, &[0], &[]);
        let g = Guard::unlimited();
        // 2^32 residue classes blow the cap: the kernel abstains.
        assert_eq!(modk_refute(&n, &n, 2, &g).unwrap(), None);
    }

    #[test]
    fn simulation_accepts_identical_and_looser_specs() {
        let ab = Alphabet::new(["a", "b"]).unwrap();
        let alt = nfa(&ab, 2, &[0], &[(0, "a", 1), (1, "b", 0)]);
        let any = nfa(&ab, 1, &[0], &[(0, "a", 0), (0, "b", 0)]);
        let g = Guard::unlimited();
        assert!(nfa_simulates(&alt, &alt, &g).unwrap());
        assert!(nfa_simulates(&any, &alt, &g).unwrap());
        assert!(!nfa_simulates(&alt, &any, &g).unwrap());
    }

    #[test]
    fn simulation_respects_acceptance() {
        let ab = Alphabet::new(["a"]).unwrap();
        let mut acc = Nfa::new(ab.clone());
        let q = acc.add_state(true);
        acc.set_initial(q);
        let mut rej = Nfa::new(ab);
        let r = rej.add_state(false);
        rej.set_initial(r);
        let g = Guard::unlimited();
        // ε ∈ L(acc) but L(rej) = ∅: no simulation may claim inclusion.
        assert!(!nfa_simulates(&rej, &acc, &g).unwrap());
        assert!(nfa_simulates(&acc, &rej, &g).unwrap());
    }

    #[test]
    fn kernels_poll_cancellation() {
        use crate::guard::{Budget, CancelToken};
        let ab = Alphabet::new(["a", "b"]).unwrap();
        let n = nfa(&ab, 2, &[0], &[(0, "a", 1), (1, "b", 0)]);
        let token = CancelToken::new();
        token.cancel();
        let g = Guard::with_cancel(Budget::unlimited(), token);
        assert!(parikh_refute(&n, &n, &g).is_err());
        assert!(modk_refute(&n, &n, 2, &g).is_err());
        assert!(nfa_simulates(&n, &n, &g).is_err());
    }
}
