//! Finite-word automata substrate for the relative-liveness workspace.
//!
//! This crate implements the classical theory of regular languages that the
//! constructions of Nitsche & Wolper (PODC '97) are built on:
//!
//! * interned [`Alphabet`]s and [`Symbol`]s,
//! * nondeterministic finite automata ([`Nfa`]) and deterministic finite
//!   automata ([`Dfa`]) over finite words,
//! * the standard algorithms: subset construction, product constructions,
//!   complement, Hopcroft minimization, Hopcroft–Karp equivalence, language
//!   inclusion, emptiness, reversal, prefix closure,
//! * resource governance: [`Budget`]s, [`Guard`]s and [`CancelToken`]s that
//!   bound every worst-case-exponential construction (`determinize_with`,
//!   `intersection_with`, `product_with`) by states, transitions, and
//!   wall-clock time, with partial diagnostics on exhaustion,
//! * observability: attach a [`MetricsRegistry`] (re-exported from
//!   `rl-obs`) to a [`Guard`] and every guarded construction reports
//!   per-phase state/transition/time breakdowns through nested [`Span`]s,
//!   at zero cost when detached,
//! * labeled transition systems ([`TransitionSystem`]) — finite-state systems
//!   *without acceptance conditions*, whose finite-word language is prefix
//!   closed (Section 6 of the paper),
//! * Graphviz/DOT rendering for all machine types.
//!
//! Everything here is deterministic (transition rows are flat
//! alphabet-indexed tables with sorted successor lists, and subset states
//! iterate as ascending-order bitsets — see [`StateSet`]), so results are
//! reproducible across runs.
//!
//! # Example
//!
//! ```
//! use rl_automata::{Alphabet, Nfa};
//!
//! # fn main() -> Result<(), rl_automata::AutomataError> {
//! let ab = Alphabet::new(["a", "b"])?;
//! let a = ab.symbol("a").unwrap();
//! let b = ab.symbol("b").unwrap();
//!
//! // L = words ending in "ab"
//! let mut nfa = Nfa::new(ab);
//! let q0 = nfa.add_state(false);
//! let q1 = nfa.add_state(false);
//! let q2 = nfa.add_state(true);
//! nfa.set_initial(q0);
//! nfa.add_transition(q0, a, q0);
//! nfa.add_transition(q0, b, q0);
//! nfa.add_transition(q0, a, q1);
//! nfa.add_transition(q1, b, q2);
//!
//! assert!(nfa.accepts(&[a, b]));
//! assert!(nfa.accepts(&[b, a, a, b]));
//! assert!(!nfa.accepts(&[a, b, a]));
//!
//! let dfa = nfa.determinize();
//! assert_eq!(dfa.min_dfa().state_count(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alphabet;
mod dfa;
mod dot;
mod equiv;
mod error;
pub mod fault;
mod guard;
pub mod lazy;
mod minimize;
mod nfa;
mod par;
mod stateset;
mod ts;
mod word;

pub use alphabet::{Alphabet, Symbol};
pub use dfa::Dfa;
pub use equiv::{dfa_equivalent, dfa_included, equivalent_states};
pub use error::AutomataError;
pub use guard::{Budget, CancelToken, Guard, GuardProbe, OpCache, Progress, Resource};
pub use lazy::{nfa_included_lazy, EdgeRows};
pub use nfa::Nfa;
pub use par::{resolve_jobs, Pool, PoolCounters};
pub use rl_obs::knobs;
pub use rl_obs::{
    chrome_trace_json, folded_stacks, render_jsonl, set_thread_track, thread_track, track_name,
    Counter, Histogram, HistogramRegistry, HistogramSnapshot, Metric, MetricsRegistry, ObsReport,
    RegistrySnapshot, Span, SpanRecord, TraceEvent, TracePhase, Tracer,
};
pub use stateset::{FxBuildHasher, FxHashMap, FxHasher, Interner, PairTable, StateSet};
pub use ts::TransitionSystem;
pub use word::{format_word, parse_word, Word};

/// Index of an automaton state.
///
/// States are dense indices into the automaton's internal tables; the value is
/// only meaningful relative to the automaton that created it.
pub type StateId = usize;
