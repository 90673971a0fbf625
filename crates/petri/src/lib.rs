//! Place/transition Petri nets and bounded reachability analysis.
//!
//! The paper's Section 2 introduces its running example as a Petri net
//! (Figure 1) whose behaviors are the finite-state reachability graph
//! (Figure 2). This crate provides exactly that substrate:
//!
//! * [`PetriNet`] — place/transition nets with weighted arcs,
//! * [`reachability_graph`] — bounded reachability-graph construction into an
//!   [`rl_automata::TransitionSystem`],
//! * [`place_bounds`] — boundedness analysis,
//! * [`live_transitions`] / [`deadlock_markings`] — classical liveness and
//!   deadlock analysis (transition liveness is the net-theoretic cousin of
//!   the paper's relative liveness of `□◇t`),
//! * [`examples`] — the paper's server net (Figure 1) and its erroneous
//!   variant (Figure 3).
//!
//! # Example
//!
//! ```
//! use rl_petri::examples::{server_behaviors, server_net};
//! use rl_petri::reachability_graph;
//!
//! # fn main() -> Result<(), rl_petri::PetriError> {
//! let ts = server_behaviors(); // the paper's Figure 2
//! assert_eq!(ts.state_count(), 8);
//! assert!(ts.to_nfa().is_prefix_closed());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
pub mod examples;
mod net;
mod reachability;

pub use analysis::{deadlock_markings, live_transitions};
pub use net::{Marking, NetTransition, PetriError, PetriNet, PlaceId, TransitionId};
pub use reachability::{place_bounds, reachability_graph, DEFAULT_MARKING_LIMIT};
