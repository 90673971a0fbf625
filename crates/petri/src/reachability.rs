//! Bounded reachability-graph construction.
//!
//! The reachability graph of a bounded net is a finite labeled transition
//! system — the paper's Figure 2 is exactly the reachability graph of its
//! Figure 1 net. Unbounded nets are detected by a configurable marking
//! budget.

use std::collections::{BTreeMap, VecDeque};

use rl_automata::{Alphabet, TransitionSystem};

use crate::net::{Marking, PetriError, PetriNet};

/// Default limit on the number of distinct markings explored.
pub const DEFAULT_MARKING_LIMIT: usize = 100_000;

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
    let names: Vec<String> = net.transitions().iter().map(|t| t.name.clone()).collect();
    // Transition names are validated unique at insertion, so an empty
    // name list is the only way alphabet construction can fail.
    let alphabet = Alphabet::new(names).map_err(|_| PetriError::NoTransitions)?;
    let mut ts = TransitionSystem::new(alphabet.clone());
    let mut index: BTreeMap<Marking, usize> = BTreeMap::new();
    let m0 = net.initial_marking();
    let s0 = ts.add_labeled_state(net.format_marking(&m0));
    ts.set_initial(s0);
    index.insert(m0.clone(), s0);
    let mut work = VecDeque::from([m0]);
    while let Some(m) = work.pop_front() {
        let sid = index[&m];
        for t in net.enabled_transitions(&m) {
            let m2 = net.fire(&m, t).expect("enabled transition fires");
            let tid = match index.get(&m2) {
                Some(&tid) => tid,
                None => {
                    if index.len() >= limit {
                        return Err(PetriError::BoundExceeded { limit });
                    }
                    let tid = ts.add_labeled_state(net.format_marking(&m2));
                    index.insert(m2.clone(), tid);
                    work.push_back(m2.clone());
                    tid
                }
            };
            let sym = alphabet
                .symbol(&net.transitions()[t].name)
                .expect("transition name interned");
            ts.add_transition(sid, sym, tid);
        }
    }
    Ok(ts)
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
    let mut bounds = vec![0u32; net.place_count()];
    let mut seen: BTreeMap<Marking, ()> = BTreeMap::new();
    let m0 = net.initial_marking();
    seen.insert(m0.clone(), ());
    let mut work = VecDeque::from([m0]);
    while let Some(m) = work.pop_front() {
        for (p, &n) in m.iter().enumerate() {
            bounds[p] = bounds[p].max(n);
        }
        for t in net.enabled_transitions(&m) {
            let m2 = net.fire(&m, t).expect("enabled transition fires");
            if !seen.contains_key(&m2) {
                if seen.len() >= limit {
                    return Err(PetriError::BoundExceeded { limit });
                }
                seen.insert(m2.clone(), ());
                work.push_back(m2);
            }
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
