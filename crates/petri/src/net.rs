//! Place/transition Petri nets.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Index of a place.
pub type PlaceId = usize;
/// Index of a net transition.
pub type TransitionId = usize;

/// A marking: the token count of every place.
pub type Marking = Vec<u32>;

/// Errors from net construction or analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PetriError {
    /// A place or transition index was out of range.
    InvalidIndex(usize),
    /// A name was declared twice.
    DuplicateName(String),
    /// The net declares no transitions, so its reachability graph would
    /// have an empty action alphabet.
    NoTransitions,
    /// The reachability graph exceeded the configured bound — the net is
    /// unbounded or too large.
    BoundExceeded {
        /// The limit that was hit.
        limit: usize,
    },
}

impl fmt::Display for PetriError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PetriError::InvalidIndex(i) => write!(f, "invalid place/transition index {i}"),
            PetriError::DuplicateName(n) => write!(f, "duplicate name {n:?}"),
            PetriError::NoTransitions => write!(f, "the net declares no transitions"),
            PetriError::BoundExceeded { limit } => {
                write!(
                    f,
                    "reachability graph exceeded the bound of {limit} markings"
                )
            }
        }
    }
}

impl Error for PetriError {}

/// A transition of a net: consumes `pre`, produces `post` (weighted arcs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetTransition {
    /// Action name; this becomes the label in the reachability graph.
    pub name: String,
    /// Input arcs `(place, weight)`.
    pub pre: Vec<(PlaceId, u32)>,
    /// Output arcs `(place, weight)`.
    pub post: Vec<(PlaceId, u32)>,
}

/// A place/transition Petri net with an initial marking.
///
/// The paper's Figure 1 system is provided in [`crate::examples`]; the
/// reachability graph construction ([`crate::reachability_graph`]) turns a
/// bounded net into the [`rl_automata::TransitionSystem`] of its behaviors
/// (the paper's Figure 2).
///
/// # Example
///
/// ```
/// use rl_petri::PetriNet;
///
/// # fn main() -> Result<(), rl_petri::PetriError> {
/// let mut net = PetriNet::new();
/// let free = net.add_place("free", 1)?;
/// let locked = net.add_place("locked", 0)?;
/// net.add_transition("lock", [(free, 1)], [(locked, 1)])?;
/// net.add_transition("unlock", [(locked, 1)], [(free, 1)])?;
/// let m0 = net.initial_marking();
/// let lock = net.transition_by_name("lock").unwrap();
/// assert!(net.is_enabled(&m0, lock));
/// let m1 = net.fire(&m0, lock).unwrap();
/// assert_eq!(m1, vec![0, 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PetriNet {
    places: Vec<String>,
    initial: Marking,
    transitions: Vec<NetTransition>,
    place_index: BTreeMap<String, PlaceId>,
}

impl PetriNet {
    /// Creates an empty net.
    pub fn new() -> PetriNet {
        PetriNet::default()
    }

    /// Adds a place with an initial token count; returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::DuplicateName`] when the name is taken.
    pub fn add_place(
        &mut self,
        name: impl Into<String>,
        tokens: u32,
    ) -> Result<PlaceId, PetriError> {
        let name = name.into();
        if self.place_index.contains_key(&name) {
            return Err(PetriError::DuplicateName(name));
        }
        let id = self.places.len();
        self.place_index.insert(name.clone(), id);
        self.places.push(name);
        self.initial.push(tokens);
        Ok(id)
    }

    /// Adds a transition; returns its id. Arc weights must be ≥ 1.
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::InvalidIndex`] for an unknown place and
    /// [`PetriError::DuplicateName`] for a repeated transition name.
    pub fn add_transition(
        &mut self,
        name: impl Into<String>,
        pre: impl IntoIterator<Item = (PlaceId, u32)>,
        post: impl IntoIterator<Item = (PlaceId, u32)>,
    ) -> Result<TransitionId, PetriError> {
        let name = name.into();
        if self.transitions.iter().any(|t| t.name == name) {
            return Err(PetriError::DuplicateName(name));
        }
        let pre: Vec<(PlaceId, u32)> = pre.into_iter().collect();
        let post: Vec<(PlaceId, u32)> = post.into_iter().collect();
        for &(p, _) in pre.iter().chain(post.iter()) {
            if p >= self.places.len() {
                return Err(PetriError::InvalidIndex(p));
            }
        }
        self.transitions.push(NetTransition { name, pre, post });
        Ok(self.transitions.len() - 1)
    }

    /// Number of places.
    pub fn place_count(&self) -> usize {
        self.places.len()
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// The place names in id order.
    pub fn place_names(&self) -> &[String] {
        &self.places
    }

    /// The transitions in id order.
    pub fn transitions(&self) -> &[NetTransition] {
        &self.transitions
    }

    /// Looks up a place id by name.
    pub fn place_by_name(&self, name: &str) -> Option<PlaceId> {
        self.place_index.get(name).copied()
    }

    /// Looks up a transition id by name.
    pub fn transition_by_name(&self, name: &str) -> Option<TransitionId> {
        self.transitions.iter().position(|t| t.name == name)
    }

    /// The initial marking.
    pub fn initial_marking(&self) -> Marking {
        self.initial.clone()
    }

    /// Whether transition `t` is enabled at `marking`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn is_enabled(&self, marking: &Marking, t: TransitionId) -> bool {
        self.transitions[t]
            .pre
            .iter()
            .all(|&(p, w)| marking[p] >= w)
    }

    /// Fires `t` at `marking`, returning the successor marking, or `None`
    /// when `t` is not enabled.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn fire(&self, marking: &Marking, t: TransitionId) -> Option<Marking> {
        if !self.is_enabled(marking, t) {
            return None;
        }
        let mut next = marking.clone();
        for &(p, w) in &self.transitions[t].pre {
            next[p] -= w;
        }
        for &(p, w) in &self.transitions[t].post {
            next[p] += w;
        }
        Some(next)
    }

    /// All transitions enabled at `marking`.
    pub fn enabled_transitions(&self, marking: &Marking) -> Vec<TransitionId> {
        (0..self.transitions.len())
            .filter(|&t| self.is_enabled(marking, t))
            .collect()
    }

    /// A compact display of a marking: names of marked places (with counts
    /// when > 1).
    pub fn format_marking(&self, marking: &Marking) -> String {
        let parts: Vec<String> = marking
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(p, &n)| {
                if n == 1 {
                    self.places[p].clone()
                } else {
                    format!("{}×{n}", self.places[p])
                }
            })
            .collect();
        if parts.is_empty() {
            "∅".to_owned()
        } else {
            parts.join(",")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toggle_net() -> PetriNet {
        let mut net = PetriNet::new();
        let free = net.add_place("free", 1).unwrap();
        let locked = net.add_place("locked", 0).unwrap();
        net.add_transition("lock", [(free, 1)], [(locked, 1)])
            .unwrap();
        net.add_transition("unlock", [(locked, 1)], [(free, 1)])
            .unwrap();
        net
    }

    #[test]
    fn firing_moves_tokens() {
        let net = toggle_net();
        let m0 = net.initial_marking();
        let lock = net.transition_by_name("lock").unwrap();
        let unlock = net.transition_by_name("unlock").unwrap();
        assert!(net.is_enabled(&m0, lock));
        assert!(!net.is_enabled(&m0, unlock));
        let m1 = net.fire(&m0, lock).unwrap();
        assert_eq!(m1, vec![0, 1]);
        assert_eq!(net.fire(&m1, unlock).unwrap(), m0);
        assert_eq!(net.fire(&m1, lock), None);
    }

    #[test]
    fn enabled_transitions_listed() {
        let net = toggle_net();
        assert_eq!(net.enabled_transitions(&net.initial_marking()), vec![0]);
    }

    #[test]
    fn weighted_arcs() {
        let mut net = PetriNet::new();
        let p = net.add_place("p", 3).unwrap();
        let q = net.add_place("q", 0).unwrap();
        net.add_transition("burn", [(p, 2)], [(q, 1)]).unwrap();
        let m0 = net.initial_marking();
        let m1 = net.fire(&m0, 0).unwrap();
        assert_eq!(m1, vec![1, 1]);
        assert!(!net.is_enabled(&m1, 0));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut net = PetriNet::new();
        net.add_place("p", 0).unwrap();
        assert_eq!(
            net.add_place("p", 1).unwrap_err(),
            PetriError::DuplicateName("p".into())
        );
        net.add_transition("t", [], []).unwrap();
        assert_eq!(
            net.add_transition("t", [], []).unwrap_err(),
            PetriError::DuplicateName("t".into())
        );
    }

    #[test]
    fn invalid_place_rejected() {
        let mut net = PetriNet::new();
        net.add_place("p", 0).unwrap();
        assert_eq!(
            net.add_transition("t", [(7, 1)], []).unwrap_err(),
            PetriError::InvalidIndex(7)
        );
    }

    #[test]
    fn marking_display() {
        let net = toggle_net();
        assert_eq!(net.format_marking(&vec![1, 0]), "free");
        assert_eq!(net.format_marking(&vec![0, 0]), "∅");
        assert_eq!(net.format_marking(&vec![2, 1]), "free×2,locked");
    }
}
