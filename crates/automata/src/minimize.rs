//! Hopcroft partition refinement: language-equivalence classes of DFA
//! states, and DFA minimization as the quotient by them.

use std::collections::VecDeque;

use crate::dfa::Dfa;
use crate::stateset::StateSet;
use crate::StateId;

/// Returns the minimal *complete* DFA for `dfa`'s language.
///
/// The input is completed and stripped of unreachable states first; the
/// output is the quotient by [`partition`], numbered by BFS from the
/// initial block, so the result is canonical up to this deterministic
/// numbering.
pub(crate) fn minimize(dfa: &Dfa) -> Dfa {
    let d = dfa.complete().remove_unreachable();
    if d.state_count() == 0 {
        // No states at all: represent ∅ with a single rejecting sink.
        let mut out = Dfa::new(d.alphabet().clone());
        let sink = out.add_state(false);
        out.set_initial(sink);
        for a in out.alphabet().clone().symbols() {
            out.set_transition(sink, a, sink);
        }
        return out;
    }
    quotient(&d, &partition(&d))
}

/// Hopcroft's partition refinement over *every* state of the complete DFA
/// `d`: `block_of[p] == block_of[q]` iff `p` and `q` accept the same
/// language. Reachability from the initial state plays no part, so one
/// call classifies the states of a DFA with many roots at once.
pub(crate) fn partition(d: &Dfa) -> Vec<usize> {
    debug_assert!(d.is_complete(), "partition needs a complete DFA");
    let n = d.state_count();
    if n == 0 {
        return Vec::new();
    }
    // Inverse transition table: inv[a][q] = { p | δ(p, a) = q }.
    let k = d.alphabet().len();
    let mut inv: Vec<Vec<Vec<StateId>>> = vec![vec![Vec::new(); n]; k];
    for (p, a, q) in d.transitions() {
        inv[a.index()][q].push(p);
    }

    // Initial partition {F, Q \ F}, dropping empty blocks.
    let mut blocks: Vec<StateSet> = Vec::new();
    let mut block_of: Vec<usize> = vec![0; n];
    let accepting: StateSet = (0..n).filter(|&q| d.is_accepting(q)).collect();
    let rejecting: StateSet = (0..n).filter(|&q| !d.is_accepting(q)).collect();
    for set in [accepting, rejecting] {
        if !set.is_empty() {
            let id = blocks.len();
            for q in set.iter() {
                block_of[q] = id;
            }
            blocks.push(set);
        }
    }

    // Worklist of (block, symbol) splitters, membership tracked in a flat
    // bit vector indexed `block * k + symbol` (grown as blocks split).
    // Seeding with every block is correct (the "smaller half" rule is only
    // an optimization).
    let mut work: VecDeque<(usize, usize)> = VecDeque::new();
    let mut in_work: Vec<bool> = vec![true; blocks.len() * k];
    for b in 0..blocks.len() {
        for a in 0..k {
            work.push_back((b, a));
        }
    }

    while let Some((bi, a)) = work.pop_front() {
        in_work[bi * k + a] = false;
        // X = δ⁻¹(blocks[bi], a)
        let mut x = StateSet::with_universe(n);
        for q in blocks[bi].iter() {
            for &p in &inv[a][q] {
                x.insert(p);
            }
        }
        if x.is_empty() {
            continue;
        }
        // Split every block that X cuts properly.
        let mut affected = StateSet::new();
        for p in x.iter() {
            affected.insert(block_of[p]);
        }
        for yi in affected.iter() {
            let inter = blocks[yi].intersection(&x);
            if inter.len() == blocks[yi].len() {
                continue; // X ⊇ Y: no split
            }
            let diff = blocks[yi].difference(&x);
            let new_id = blocks.len();
            // Keep the larger part in place, move the smaller out: then every
            // future splitter derived from the moved part is cheap.
            let (stay, moved) = if inter.len() <= diff.len() {
                (diff, inter)
            } else {
                (inter, diff)
            };
            for q in moved.iter() {
                block_of[q] = new_id;
            }
            blocks[yi] = stay;
            blocks.push(moved);
            // If (yi, c) is still queued it now denotes the kept half, so
            // queueing the moved (smaller) half covers both; if it is not
            // queued, the smaller-half rule says queueing the moved half
            // alone suffices. Either way: queue (new_id, c).
            in_work.resize(blocks.len() * k, false);
            for c in 0..k {
                if !in_work[new_id * k + c] {
                    in_work[new_id * k + c] = true;
                    work.push_back((new_id, c));
                }
            }
        }
    }

    block_of
}

/// The quotient of the complete DFA `d` by the blocks `block_of`, numbered
/// by BFS from the initial block; each block is represented by its
/// smallest state.
fn quotient(d: &Dfa, block_of: &[usize]) -> Dfa {
    let blocks = block_of.iter().max().map_or(0, |&b| b + 1);
    let mut rep: Vec<Option<StateId>> = vec![None; blocks];
    for (q, &b) in block_of.iter().enumerate() {
        rep[b].get_or_insert(q);
    }
    let rep = |b: usize| rep[b].expect("refinement keeps blocks non-empty");
    let mut out = Dfa::new(d.alphabet().clone());
    let mut number: Vec<Option<StateId>> = vec![None; blocks];
    let b0 = block_of[d.initial()];
    let mut queue = VecDeque::from([b0]);
    let q0 = out.add_state(d.is_accepting(rep(b0)));
    out.set_initial(q0);
    number[b0] = Some(q0);
    while let Some(b) = queue.pop_front() {
        let id = number[b].expect("every queued block was numbered first");
        let r = rep(b);
        for a in d.alphabet().clone().symbols() {
            let t = d.next(r, a).expect("input was completed");
            let tb = block_of[t];
            let tid = match number[tb] {
                Some(tid) => tid,
                None => {
                    let tid = out.add_state(d.is_accepting(rep(tb)));
                    number[tb] = Some(tid);
                    queue.push_back(tb);
                    tid
                }
            };
            out.set_transition(id, a, tid);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::{dfa_equivalent, Alphabet, Nfa};

    #[test]
    fn minimize_is_idempotent_and_language_preserving() {
        let ab = Alphabet::new(["a", "b"]).unwrap();
        let a = ab.symbol("a").unwrap();
        let b = ab.symbol("b").unwrap();
        // L = words with "aa" as factor (3-state NFA → DFA → minimize).
        let mut n = Nfa::new(ab);
        let q0 = n.add_state(false);
        let q1 = n.add_state(false);
        let q2 = n.add_state(true);
        n.set_initial(q0);
        for s in [a, b] {
            n.add_transition(q0, s, q0);
            n.add_transition(q2, s, q2);
        }
        n.add_transition(q0, a, q1);
        n.add_transition(q1, a, q2);
        let d = n.determinize();
        let m = d.min_dfa();
        assert!(dfa_equivalent(&d, &m));
        let m2 = m.min_dfa();
        assert_eq!(m.state_count(), m2.state_count());
        // Known minimal size: 3 live states + no sink needed (complete).
        assert_eq!(m.state_count(), 3);
    }

    #[test]
    fn minimize_empty_language() {
        let ab = Alphabet::new(["a"]).unwrap();
        let n = Nfa::new(ab);
        let m = n.determinize().min_dfa();
        // One all-rejecting sink.
        assert_eq!(m.state_count(), 1);
        assert!(!m.accepts(&[]));
    }

    #[test]
    fn minimize_universal_language() {
        let ab = Alphabet::new(["a", "b"]).unwrap();
        let a = ab.symbol("a").unwrap();
        let b = ab.symbol("b").unwrap();
        let mut n = Nfa::new(ab.clone());
        let q0 = n.add_state(true);
        let q1 = n.add_state(true);
        n.set_initial(q0);
        for s in [a, b] {
            n.add_transition(q0, s, q1);
            n.add_transition(q1, s, q0);
        }
        let m = n.determinize().min_dfa();
        assert_eq!(m.state_count(), 1);
        assert!(m.accepts(&[a, b, b, a]));
    }
}
