//! Language equivalence and inclusion tests.

use std::collections::VecDeque;

use crate::dfa::Dfa;
use crate::word::Word;
use crate::StateId;

/// Union-find with path halving.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Unions the classes of `x` and `y`; returns `false` if already joined.
    fn union(&mut self, x: usize, y: usize) -> bool {
        let (rx, ry) = (self.find(x), self.find(y));
        if rx == ry {
            return false;
        }
        self.parent[rx] = ry;
        true
    }
}

/// Decides `L(a from sa) == L(b from sb)` by Hopcroft–Karp near-linear
/// equivalence testing on the completed automata.
///
/// Both automata must share the same alphabet (callers in this workspace
/// always guarantee it; a mismatch simply yields `false`).
///
/// # Example
///
/// ```
/// use rl_automata::{equivalent_states, Alphabet, Dfa};
///
/// # fn main() -> Result<(), rl_automata::AutomataError> {
/// let ab = Alphabet::new(["a"])?;
/// let a = ab.symbol("a").unwrap();
/// // Two copies of "even number of a's", rooted at opposite parities.
/// let mut d = Dfa::new(ab);
/// let q0 = d.add_state(true);
/// let q1 = d.add_state(false);
/// d.set_initial(q0);
/// d.set_transition(q0, a, q1);
/// d.set_transition(q1, a, q0);
/// assert!(equivalent_states(&d, q0, &d, q0));
/// assert!(!equivalent_states(&d, q0, &d, q1));
/// # Ok(())
/// # }
/// ```
pub fn equivalent_states(a: &Dfa, sa: StateId, b: &Dfa, sb: StateId) -> bool {
    if a.alphabet() != b.alphabet() {
        return false;
    }
    let ac = a.complete();
    let bc = b.complete();
    // `complete` appends a sink and never renumbers, so sa/sb stay valid.
    let na = ac.state_count();
    let mut uf = UnionFind::new(na + bc.state_count());
    let mut queue: VecDeque<(StateId, StateId)> = VecDeque::new();
    if ac.is_accepting(sa) != bc.is_accepting(sb) {
        return false;
    }
    uf.union(sa, na + sb);
    queue.push_back((sa, sb));
    while let Some((p, q)) = queue.pop_front() {
        for s in ac.alphabet().symbols() {
            let p2 = ac.next(p, s).expect("complete");
            let q2 = bc.next(q, s).expect("complete");
            if uf.union(p2, na + q2) {
                if ac.is_accepting(p2) != bc.is_accepting(q2) {
                    return false;
                }
                queue.push_back((p2, q2));
            }
        }
    }
    true
}

/// Decides `L(a) == L(b)` (from the initial states).
pub fn dfa_equivalent(a: &Dfa, b: &Dfa) -> bool {
    equivalent_states(a, a.initial(), b, b.initial())
}

/// Decides `L(a) ⊆ L(b)`; on failure returns a witness word in
/// `L(a) \ L(b)`.
///
/// # Example
///
/// ```
/// use rl_automata::{dfa_included, Alphabet, Nfa};
///
/// # fn main() -> Result<(), rl_automata::AutomataError> {
/// let ab = Alphabet::new(["a"])?;
/// let a = ab.symbol("a").unwrap();
/// // L1 = {a}, L2 = {ε, a}
/// let l1 = Nfa::from_parts(ab.clone(), 2, [0], [1], [(0, a, 1)])?.determinize();
/// let l2 = Nfa::from_parts(ab.clone(), 2, [0], [0, 1], [(0, a, 1)])?.determinize();
/// assert_eq!(dfa_included(&l1, &l2), None);
/// assert_eq!(dfa_included(&l2, &l1), Some(vec![]));
/// # Ok(())
/// # }
/// ```
pub fn dfa_included(a: &Dfa, b: &Dfa) -> Option<Word> {
    let diff = a.difference(b).expect("alphabet mismatch in dfa_included");
    diff.shortest_accepted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Alphabet, Nfa};

    #[test]
    fn equivalence_of_different_presentations() {
        let ab = Alphabet::new(["a", "b"]).unwrap();
        let a = ab.symbol("a").unwrap();
        let b = ab.symbol("b").unwrap();
        // L = Σ* a : NFA version and a hand-built DFA version.
        let nfa =
            Nfa::from_parts(ab.clone(), 2, [0], [1], [(0, a, 0), (0, b, 0), (0, a, 1)]).unwrap();
        let d1 = nfa.determinize();
        let mut d2 = Dfa::new(ab);
        let q0 = d2.add_state(false);
        let q1 = d2.add_state(true);
        d2.set_initial(q0);
        d2.set_transition(q0, a, q1);
        d2.set_transition(q0, b, q0);
        d2.set_transition(q1, a, q1);
        d2.set_transition(q1, b, q0);
        assert!(dfa_equivalent(&d1, &d2));
        assert!(!dfa_equivalent(&d1, &d2.complement()));
    }

    #[test]
    fn inclusion_witness_is_minimal() {
        let ab = Alphabet::new(["a", "b"]).unwrap();
        let a = ab.symbol("a").unwrap();
        let b = ab.symbol("b").unwrap();
        // L1 = Σ*, L2 = words without factor bb.
        let univ = Nfa::from_parts(ab.clone(), 1, [0], [0], [(0, a, 0), (0, b, 0)])
            .unwrap()
            .determinize();
        let no_bb = Nfa::from_parts(
            ab.clone(),
            2,
            [0],
            [0, 1],
            [(0, a, 0), (0, b, 1), (1, a, 0)],
        )
        .unwrap()
        .determinize();
        assert_eq!(dfa_included(&no_bb, &univ), None);
        assert_eq!(dfa_included(&univ, &no_bb), Some(vec![b, b]));
    }
}
