//! Büchi emptiness: SCC analysis, accepting lassos, ultimately-periodic
//! membership.

use std::collections::VecDeque;

use rl_automata::{AutomataError, Guard, StateId, Symbol};

use crate::buchi::Buchi;
use crate::upword::UpWord;

/// Visited states between two polls of the guard's deadline and cancel
/// token.
const POLL_INTERVAL: usize = 64;

/// Counts the states a search visits and polls [`Guard::check_now`] every
/// [`POLL_INTERVAL`] of them. It charges nothing, so a search that finishes
/// leaves the guard's counters as they were.
pub(crate) struct Poll<'g> {
    guard: &'g Guard,
    visited: usize,
}

impl<'g> Poll<'g> {
    pub(crate) fn new(guard: &'g Guard) -> Poll<'g> {
        Poll { guard, visited: 0 }
    }

    /// Counts one visited state.
    pub(crate) fn visit(&mut self) -> Result<(), AutomataError> {
        self.visited += 1;
        if self.visited.is_multiple_of(POLL_INTERVAL) {
            self.guard.check_now()?;
        }
        Ok(())
    }
}

/// Iterative Tarjan SCC over the nodes reachable from `roots`, where
/// `succ(v, i)` is the `i`-th successor of `v` (`None` past the last).
/// Returns `comp[v]` = component id (ids are in reverse topological order
/// of discovery), or `usize::MAX` for a node no root reaches; every node it
/// indexes counts as visited.
///
/// The DFS stack holds `(node, next successor position)` pairs and reads
/// successors in place, so the pass allocates nothing per node. Duplicate
/// edges are harmless: a second edge to an indexed node only repeats a
/// `low` update.
fn tarjan(
    n: usize,
    roots: impl IntoIterator<Item = usize>,
    succ: impl Fn(usize, usize) -> Option<usize>,
    poll: &mut Poll<'_>,
) -> Result<Vec<usize>, AutomataError> {
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut comp = vec![UNSET; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut call: Vec<(usize, usize)> = Vec::new();
    let mut next_index = 0usize;
    let mut next_comp = 0usize;

    for root in roots {
        if index[root] != UNSET {
            continue;
        }
        poll.visit()?;
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        call.push((root, 0));
        while let Some(&mut (v, ref mut i)) = call.last_mut() {
            if let Some(w) = succ(v, *i) {
                *i += 1;
                if index[w] == UNSET {
                    poll.visit()?;
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            // All successors processed: maybe pop an SCC.
            call.pop();
            if low[v] == index[v] {
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w] = false;
                    comp[w] = next_comp;
                    if w == v {
                        break;
                    }
                }
                next_comp += 1;
            }
            if let Some(&(parent, _)) = call.last() {
                low[parent] = low[parent].min(low[v]);
            }
        }
    }
    Ok(comp)
}

/// Marks the states of `b` that lie on an *accepting cycle*: a cycle whose
/// SCC contains an accepting state. These are the recurrence cores of
/// accepting runs.
///
/// `reach` must be closed under successors (the states reachable from the
/// initial set): Tarjan starts only from its states and walks `b`'s edge
/// rows in place.
pub(crate) fn accepting_cycle_states(
    b: &Buchi,
    reach: &[bool],
    poll: &mut Poll<'_>,
) -> Result<Vec<bool>, AutomataError> {
    let n = b.state_count();
    let succ = |v: usize, i: usize| b.edges(v).get(i).map(|&(_, q)| q);
    let comp = tarjan(n, (0..n).filter(|&v| reach[v]), succ, poll)?;
    let ncomp = comp
        .iter()
        .filter(|&&c| c != usize::MAX)
        .max()
        .map_or(0, |&m| m + 1);
    // An SCC is "cyclic" when it has an internal edge (covers self-loops and
    // non-trivial SCCs alike).
    let mut cyclic = vec![false; ncomp];
    let mut has_acc = vec![false; ncomp];
    for v in (0..n).filter(|&v| reach[v]) {
        if b.is_accepting(v) {
            has_acc[comp[v]] = true;
        }
        if b.edges(v).iter().any(|&(_, w)| comp[w] == comp[v]) {
            cyclic[comp[v]] = true;
        }
    }
    Ok((0..n)
        .map(|v| reach[v] && cyclic[comp[v]] && has_acc[comp[v]])
        .collect())
}

/// Finds an accepting lasso of `b`: an ultimately periodic word `u·v^ω`
/// accepted by `b`, or `None` when `L(b) = ∅`.
///
/// The lasso is returned tight ([`UpWord::canonicalize`]): while `u` and
/// `v` end in the same letter it is folded into the period, and a period
/// `w^k` is cut to `w`, so `tick.(tock.tick)^ω` comes out as
/// `(tick.tock)^ω` and `b.(b.b)^ω` as `(b)^ω`. The ω-word is the same.
pub(crate) fn accepting_lasso(
    b: &Buchi,
    poll: &mut Poll<'_>,
) -> Result<Option<UpWord>, AutomataError> {
    let n = b.state_count();
    let mut reach = vec![false; n];
    let mut parent: Vec<Option<(StateId, Symbol)>> = vec![None; n];
    let mut queue: VecDeque<StateId> = VecDeque::new();
    for &q in b.initial() {
        reach[q] = true;
        queue.push_back(q);
    }
    while let Some(p) = queue.pop_front() {
        poll.visit()?;
        for &(a, q) in b.edges(p) {
            if !reach[q] {
                reach[q] = true;
                parent[q] = Some((p, a));
                queue.push_back(q);
            }
        }
    }
    let core = accepting_cycle_states(b, &reach, poll)?;
    // Pick an accepting state inside a cyclic accepting SCC (one must exist
    // inside the core: the SCC contains an accepting state by definition).
    let Some(target) = (0..n).find(|&q| core[q] && b.is_accepting(q)) else {
        return Ok(None);
    };
    // Prefix: initial → target.
    let mut prefix = Vec::new();
    let mut cur = target;
    while let Some((p, a)) = parent[cur] {
        prefix.push(a);
        cur = p;
    }
    prefix.reverse();
    // Cycle: target → target within the core's SCC (stay inside `core`).
    let mut cparent: Vec<Option<(StateId, Symbol)>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue: VecDeque<StateId> = VecDeque::new();
    // Start from target's successors so that the cycle has length ≥ 1.
    for &(a, q) in b.edges(target) {
        if !core[q] {
            continue;
        }
        if q == target {
            let w = UpWord::new(prefix, vec![a]).expect("period of length 1 is non-empty");
            return Ok(Some(w.canonicalize()));
        }
        if !seen[q] {
            seen[q] = true;
            cparent[q] = Some((target, a));
            queue.push_back(q);
        }
    }
    while let Some(p) = queue.pop_front() {
        poll.visit()?;
        for &(a, q) in b.edges(p) {
            if !core[q] {
                continue;
            }
            if q == target {
                // Reconstruct cycle labels: target → … → p → target.
                let mut labels = vec![a];
                let mut cur = p;
                while let Some((r, c)) = cparent[cur] {
                    labels.push(c);
                    cur = r;
                }
                labels.reverse();
                let w = UpWord::new(prefix, labels).expect("non-empty cycle");
                return Ok(Some(w.canonicalize()));
            }
            if !seen[q] {
                seen[q] = true;
                cparent[q] = Some((p, a));
                queue.push_back(q);
            }
        }
    }
    // `target` is in a cyclic SCC containing it, so a cycle must exist.
    unreachable!("state in cyclic SCC must lie on a cycle")
}

/// Exact membership of the ultimately periodic word `w` in `L(b)`.
pub(crate) fn accepts_upword(b: &Buchi, w: &UpWord) -> bool {
    // Product of b with the lasso graph of w: nodes (q, i) encoded as
    // q * lasso_len + i.
    let n = b.state_count();
    let len = w.lasso_len();
    let total = n * len;
    let node = |q: StateId, i: usize| q * len + i;
    let succs = |v: usize| {
        let (q, i) = (v / len, v % len);
        let j = w.lasso_next(i);
        b.successors(q, w.at(i)).map(move |q2| node(q2, j))
    };
    // Reachability from initial nodes.
    let mut reach = vec![false; total];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &q in b.initial() {
        let v = node(q, 0);
        if !reach[v] {
            reach[v] = true;
            queue.push_back(v);
        }
    }
    while let Some(v) = queue.pop_front() {
        for u in succs(v) {
            if !reach[u] {
                reach[u] = true;
                queue.push_back(u);
            }
        }
    }
    // A run of b over w exists with infinitely many accepting states iff the
    // product graph has a reachable cycle through an accepting node.
    let comp = tarjan(
        total,
        (0..total).filter(|&v| reach[v]),
        |v, k| succs(v).nth(k),
        &mut Poll::new(&Guard::unlimited()),
    )
    .expect("an unlimited guard never trips");
    let ncomp = comp
        .iter()
        .filter(|&&c| c != usize::MAX)
        .max()
        .map_or(0, |&m| m + 1);
    let mut cyclic = vec![false; ncomp];
    let mut has_acc = vec![false; ncomp];
    for v in (0..total).filter(|&v| reach[v]) {
        if b.is_accepting(v / len) {
            has_acc[comp[v]] = true;
        }
        if succs(v).any(|u| comp[u] == comp[v]) {
            cyclic[comp[v]] = true;
        }
    }
    (0..ncomp).any(|c| cyclic[c] && has_acc[c])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_automata::Alphabet;

    #[test]
    fn tarjan_finds_components() {
        // 0 → 1 → 2 → 0 (one SCC), 3 isolated, 2 → 3.
        let adj: Vec<Vec<usize>> = vec![vec![1], vec![2], vec![0, 3], vec![]];
        let guard = Guard::unlimited();
        let comp = tarjan(
            4,
            0..4,
            |v, i| adj[v].get(i).copied(),
            &mut Poll::new(&guard),
        )
        .unwrap();
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_ne!(comp[0], comp[3]);
    }

    #[test]
    fn tarjan_handles_self_loop() {
        let adj: Vec<Vec<usize>> = vec![vec![0], vec![]];
        let guard = Guard::unlimited();
        let comp = tarjan(
            2,
            0..2,
            |v, i| adj[v].get(i).copied(),
            &mut Poll::new(&guard),
        )
        .unwrap();
        assert_ne!(comp[0], comp[1]);
    }

    #[test]
    fn lasso_witness_is_accepted() {
        let ab = Alphabet::new(["x", "y"]).unwrap();
        let x = ab.symbol("x").unwrap();
        let y = ab.symbol("y").unwrap();
        // q0 --x--> q1(acc) --y--> q2 --x--> q1
        let b = Buchi::from_parts(ab, 3, [0], [1], [(0, x, 1), (1, y, 2), (2, x, 1)]).unwrap();
        let guard = Guard::unlimited();
        let w = accepting_lasso(&b, &mut Poll::new(&guard))
            .unwrap()
            .expect("nonempty");
        assert!(accepts_upword(&b, &w));
        // x.(y.x)^ω, with the prefix's x folded into the period.
        assert_eq!(w.prefix(), &[] as &[Symbol]);
        assert_eq!(w.period(), &[x, y]);
    }

    #[test]
    fn membership_respects_prefix_positions() {
        let ab = Alphabet::new(["x", "y"]).unwrap();
        let x = ab.symbol("x").unwrap();
        let y = ab.symbol("y").unwrap();
        // Accepts exactly x^ω (single accepting self-loop on x).
        let b = Buchi::from_parts(ab, 1, [0], [0], [(0, x, 0)]).unwrap();
        assert!(accepts_upword(&b, &UpWord::periodic(vec![x]).unwrap()));
        assert!(!accepts_upword(&b, &UpWord::new(vec![y], vec![x]).unwrap()));
        assert!(!accepts_upword(
            &b,
            &UpWord::new(vec![x], vec![x, y]).unwrap()
        ));
    }
}
