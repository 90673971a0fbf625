//! Classical Petri-net analyses on the bounded reachability graph.
//!
//! *Transition liveness* (a transition can always fire again from every
//! reachable marking's future) is the net-theoretic cousin of the paper's
//! relative liveness: `t` is live exactly when `□◇t` is a relative liveness
//! property of the net's behaviors — compare `rl-core`'s `∀□∃◇` module.

use crate::net::{Marking, PetriError, PetriNet};
use crate::reachability::explore;

/// The reachable *dead* markings (no transition enabled).
///
/// # Errors
///
/// Returns [`PetriError::BoundExceeded`] for (effectively) unbounded nets.
///
/// # Example
///
/// ```
/// use rl_petri::{deadlock_markings, PetriNet};
///
/// # fn main() -> Result<(), rl_petri::PetriError> {
/// let mut net = PetriNet::new();
/// let p = net.add_place("p", 1)?;
/// net.add_transition("consume", [(p, 1)], [])?;
/// let dead = deadlock_markings(&net, 100)?;
/// assert_eq!(dead, vec![vec![0]]); // token consumed, nothing enabled
/// # Ok(())
/// # }
/// ```
pub fn deadlock_markings(net: &PetriNet, limit: usize) -> Result<Vec<Marking>, PetriError> {
    let ex = explore(net, limit)?;
    Ok((0..ex.rows.len())
        .filter(|&q| ex.rows[q].is_empty())
        .map(|q| ex.markings.key(q).clone())
        .collect())
}

/// Per transition: is it *live* in the classical Petri sense — from every
/// reachable marking, some firing sequence enables it again?
///
/// Computed on the reachability graph: `t` is live iff every reachable
/// marking can reach a marking enabling `t`.
///
/// # Errors
///
/// Returns [`PetriError::BoundExceeded`] for (effectively) unbounded nets.
///
/// # Example — the paper's two servers
///
/// ```
/// use rl_petri::examples::{server_net, server_net_err};
/// use rl_petri::live_transitions;
///
/// # fn main() -> Result<(), rl_petri::PetriError> {
/// // Correct server: every transition stays live.
/// let live = live_transitions(&server_net(), 1000)?;
/// assert!(live.iter().all(|&l| l));
/// // Erroneous server: `result` (and others) can die.
/// let live_err = live_transitions(&server_net_err(), 1000)?;
/// let result = server_net_err().transition_by_name("result").unwrap();
/// assert!(!live_err[result]);
/// # Ok(())
/// # }
/// ```
pub fn live_transitions(net: &PetriNet, limit: usize) -> Result<Vec<bool>, PetriError> {
    let rows = explore(net, limit)?.rows;
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); rows.len()];
    for (p, row) in rows.iter().enumerate() {
        for &(_, q) in row {
            rev[q].push(p);
        }
    }
    let live = (0..net.transition_count()).map(|t| {
        // Backward closure of "enables t".
        let mut good: Vec<bool> = rows
            .iter()
            .map(|row| row.iter().any(|&(a, _)| a.index() == t))
            .collect();
        let mut stack: Vec<usize> = (0..rows.len()).filter(|&q| good[q]).collect();
        while let Some(q) = stack.pop() {
            for &p in &rev[q] {
                if !good[p] {
                    good[p] = true;
                    stack.push(p);
                }
            }
        }
        good.iter().all(|&g| g)
    });
    Ok(live.collect())
}

impl PetriNet {
    /// Renders the net in Graphviz DOT syntax: circles for places (labeled
    /// with their initial tokens), boxes for transitions.
    pub fn to_dot(&self, name: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph {name} {{");
        let _ = writeln!(out, "  rankdir=LR;");
        for (i, place) in self.place_names().iter().enumerate() {
            let tokens = self.initial_marking()[i];
            let label = if tokens > 0 {
                format!("{place}\\n●{tokens}")
            } else {
                place.clone()
            };
            let _ = writeln!(out, "  p{i} [shape=circle, label=\"{label}\"];");
        }
        for (j, trans) in self.transitions().iter().enumerate() {
            let _ = writeln!(out, "  t{j} [shape=box, label=\"{}\"];", trans.name);
            for &(p, w) in &trans.pre {
                let lbl = if w > 1 {
                    format!(" [label=\"{w}\"]")
                } else {
                    String::new()
                };
                let _ = writeln!(out, "  p{p} -> t{j}{lbl};");
            }
            for &(p, w) in &trans.post {
                let lbl = if w > 1 {
                    format!(" [label=\"{w}\"]")
                } else {
                    String::new()
                };
                let _ = writeln!(out, "  t{j} -> p{p}{lbl};");
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{server_net, server_net_err};

    #[test]
    fn server_has_no_deadlocks() {
        assert!(deadlock_markings(&server_net(), 1000).unwrap().is_empty());
        assert!(deadlock_markings(&server_net_err(), 1000)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn liveness_mirrors_relative_liveness_verdicts() {
        let live = live_transitions(&server_net(), 1000).unwrap();
        assert!(live.iter().all(|&l| l), "all of Figure 2 is live");
        let net = server_net_err();
        let live_err = live_transitions(&net, 1000).unwrap();
        for (name, expect) in [
            ("request", true),
            ("no", true),
            ("reject", true),
            // After `lock`, these can never fire again:
            ("yes", false),
            ("result", false),
            ("lock", false),
        ] {
            let t = net.transition_by_name(name).unwrap();
            assert_eq!(live_err[t], expect, "transition {name}");
        }
    }

    #[test]
    fn deadlock_found_in_consuming_net() {
        let mut net = PetriNet::new();
        let p = net.add_place("p", 2).unwrap();
        net.add_transition("burn", [(p, 1)], []).unwrap();
        let dead = deadlock_markings(&net, 100).unwrap();
        assert_eq!(dead, vec![vec![0]]);
        let live = live_transitions(&net, 100).unwrap();
        assert_eq!(live, vec![false]);
    }

    #[test]
    fn dot_renders_weights() {
        let mut net = PetriNet::new();
        let p = net.add_place("pool", 3).unwrap();
        let q = net.add_place("out", 0).unwrap();
        net.add_transition("take2", [(p, 2)], [(q, 1)]).unwrap();
        let dot = net.to_dot("net");
        assert!(dot.contains("shape=circle"));
        assert!(dot.contains("shape=box"));
        assert!(dot.contains("label=\"2\""));
        assert!(dot.contains("●3"));
    }
}
