//! Bounded reachability-graph construction.
//!
//! The reachability graph of a bounded net is a finite labeled transition
//! system — the paper's Figure 2 is exactly the reachability graph of its
//! Figure 1 net. Unbounded nets are detected by a configurable marking
//! budget.

use rl_automata::{Alphabet, Interner, StateId, Symbol, TransitionSystem};

use crate::net::{Marking, PetriError, PetriNet};

/// Default limit on the number of distinct markings explored.
pub const DEFAULT_MARKING_LIMIT: usize = 100_000;

/// The reachable markings of a net, explored once, breadth first: marking
/// `q` is the `q`-th discovered (the initial marking is 0), and `rows[q]`
/// lists its firings as `(transition, successor)`, in transition order.
/// Every analysis of this crate reads this one exploration.
pub(crate) struct Exploration {
    pub(crate) markings: Interner<Marking>,
    pub(crate) rows: Vec<Vec<(Symbol, StateId)>>,
}

/// Explores the markings reachable in `net`.
///
/// # Errors
///
/// Returns [`PetriError::BoundExceeded`] when more than `limit` markings
/// are reachable.
pub(crate) fn explore(net: &PetriNet, limit: usize) -> Result<Exploration, PetriError> {
    let mut markings = Interner::new();
    markings.intern(net.initial_marking());
    let mut rows = Vec::new();
    let mut next = Marking::new();
    // Ids are handed out in discovery order, so expanding them in id order
    // is the FIFO search.
    while rows.len() < markings.len() {
        let mut row = Vec::new();
        for t in 0..net.transition_count() {
            if !net.fire_into(markings.key(rows.len()), t, &mut next) {
                continue;
            }
            let q = match markings.get(&next) {
                Some(q) => q,
                None if markings.len() >= limit => return Err(PetriError::BoundExceeded { limit }),
                None => markings.intern(next.clone()).0,
            };
            // The alphabet lists the transitions in order: `t` is its symbol.
            row.push((Symbol::from_index(t), q));
        }
        rows.push(row);
    }
    Ok(Exploration { markings, rows })
}

/// Builds the reachability graph of `net` as a [`TransitionSystem`] whose
/// action alphabet is the net's transition names and whose states are the
/// reachable markings (labeled with [`PetriNet::format_marking`]).
///
/// # Errors
///
/// Returns [`PetriError::NoTransitions`] for a net without transitions
/// (its action alphabet would be empty), and [`PetriError::BoundExceeded`]
/// when more than `limit` markings are reachable (the net is unbounded or
/// too large).
///
/// # Example
///
/// ```
/// use rl_petri::{reachability_graph, PetriNet};
///
/// # fn main() -> Result<(), rl_petri::PetriError> {
/// let mut net = PetriNet::new();
/// let a = net.add_place("a", 1)?;
/// let b = net.add_place("b", 0)?;
/// net.add_transition("go", [(a, 1)], [(b, 1)])?;
/// net.add_transition("back", [(b, 1)], [(a, 1)])?;
/// let ts = reachability_graph(&net, 100)?;
/// assert_eq!(ts.state_count(), 2);
/// assert_eq!(ts.transition_count(), 2);
/// # Ok(())
/// # }
/// ```
pub fn reachability_graph(net: &PetriNet, limit: usize) -> Result<TransitionSystem, PetriError> {
    // Transition names are validated unique at insertion, so an empty
    // name list is the only way alphabet construction can fail.
    let alphabet = Alphabet::new(net.transitions().iter().map(|t| &t.name))
        .map_err(|_| PetriError::NoTransitions)?;
    let Exploration { markings, rows } = explore(net, limit)?;
    let mut text = String::new();
    let ends: Vec<usize> = (0..markings.len())
        .map(|q| {
            net.write_marking(&mut text, markings.key(q));
            text.len()
        })
        .collect();
    let labels = ends.iter().scan(0, |start, &end| {
        let label = &text[*start..end];
        *start = end;
        Some(Some(label))
    });
    Ok(TransitionSystem::from_rows(alphabet, 0, labels, rows))
}

/// Checks `k`-boundedness of every place within the explored graph: returns
/// the maximal token count seen per place, or an error when exploration
/// exceeds `limit` markings.
///
/// # Errors
///
/// Returns [`PetriError::BoundExceeded`] when the net has more than `limit`
/// reachable markings.
pub fn place_bounds(net: &PetriNet, limit: usize) -> Result<Vec<u32>, PetriError> {
    let markings = explore(net, limit)?.markings;
    let mut bounds = vec![0u32; net.place_count()];
    for q in 0..markings.len() {
        for (bound, &n) in bounds.iter_mut().zip(markings.key(q)) {
            *bound = (*bound).max(n);
        }
    }
    Ok(bounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_net_detected() {
        let mut net = PetriNet::new();
        let p = net.add_place("p", 0).unwrap();
        net.add_transition("spawn", [], [(p, 1)]).unwrap();
        let err = reachability_graph(&net, 50).unwrap_err();
        assert_eq!(err, PetriError::BoundExceeded { limit: 50 });
        assert!(place_bounds(&net, 50).is_err());
    }

    #[test]
    fn net_without_transitions_is_rejected() {
        let mut net = PetriNet::new();
        net.add_place("p", 1).unwrap();
        assert_eq!(
            reachability_graph(&net, 10).unwrap_err(),
            PetriError::NoTransitions
        );
    }

    #[test]
    fn bounds_of_safe_net_are_one() {
        let mut net = PetriNet::new();
        let a = net.add_place("a", 1).unwrap();
        let b = net.add_place("b", 0).unwrap();
        net.add_transition("go", [(a, 1)], [(b, 1)]).unwrap();
        net.add_transition("back", [(b, 1)], [(a, 1)]).unwrap();
        assert_eq!(place_bounds(&net, 100).unwrap(), vec![1, 1]);
    }

    #[test]
    fn markings_are_numbered_in_breadth_first_discovery_order() {
        // Figure 2: state `q` is the `q`-th marking the FIFO search finds,
        // firing transitions in declaration order.
        let ts = reachability_graph(&crate::examples::server_net(), 100).unwrap();
        let labels: Vec<String> = (0..8).filter_map(|q| ts.state_label(q)).collect();
        assert_eq!(
            labels.join(" "),
            "idle,free busy,free idle,locked granting,free busy,locked \
             granting,locked rejecting,locked rejecting,free"
        );
        let edges: String = ts
            .transitions()
            .map(|(p, a, q)| format!("{p}{}{q} ", a.index()))
            .collect();
        assert_eq!(
            edges,
            "001 052 113 154 204 260 330 355 426 461 532 563 642 667 740 756 "
        );
    }

    #[test]
    fn graph_labels_are_markings() {
        let mut net = PetriNet::new();
        let a = net.add_place("a", 1).unwrap();
        let b = net.add_place("b", 0).unwrap();
        net.add_transition("go", [(a, 1)], [(b, 1)]).unwrap();
        let ts = reachability_graph(&net, 100).unwrap();
        assert_eq!(ts.state_label(ts.initial()).as_deref(), Some("a"));
        assert_eq!(ts.state_count(), 2);
    }

    #[test]
    fn concurrent_transitions_interleave() {
        // Two independent toggles: 4 reachable markings.
        let mut net = PetriNet::new();
        let a0 = net.add_place("a0", 1).unwrap();
        let a1 = net.add_place("a1", 0).unwrap();
        let b0 = net.add_place("b0", 1).unwrap();
        let b1 = net.add_place("b1", 0).unwrap();
        net.add_transition("ta", [(a0, 1)], [(a1, 1)]).unwrap();
        net.add_transition("tb", [(b0, 1)], [(b1, 1)]).unwrap();
        let ts = reachability_graph(&net, 100).unwrap();
        assert_eq!(ts.state_count(), 4);
        let nfa = ts.to_nfa();
        let ta = ts.alphabet().symbol("ta").unwrap();
        let tb = ts.alphabet().symbol("tb").unwrap();
        assert!(nfa.accepts(&[ta, tb]));
        assert!(nfa.accepts(&[tb, ta]));
        assert!(!nfa.accepts(&[ta, ta]));
    }
}
