//! ω-automata (Büchi automata) for the relative-liveness workspace.
//!
//! The constructions of Nitsche & Wolper (PODC '97) live in the ω-regular
//! world: system behaviors are `lim(L)` of prefix-closed regular languages,
//! properties are ω-regular sets, and the decision procedures of Theorem 4.5
//! reduce relative liveness/safety to Büchi-automaton operations. This crate
//! provides that substrate:
//!
//! * [`Buchi`] — nondeterministic Büchi automata,
//! * [`ClassBuchi`] — Büchi automata whose edges carry letter classes,
//! * intersection products (letter × letter and letter × class) and unions,
//! * SCC-based emptiness with ultimately-periodic counterexamples
//!   ([`UpWord`]),
//! * *reduction* (trimming states that admit no accepting run — the
//!   "reduced Büchi automaton" of Theorem 5.1),
//! * `pre(·)` — the NFA of finite prefixes of accepted ω-words,
//! * `lim(·)` — the Büchi automaton accepting the limit of a DFA's language,
//! * rank-based (Kupferman–Vardi) complementation and ω-language inclusion,
//! * membership of ultimately periodic words.
//!
//! # Example
//!
//! ```
//! use rl_automata::Alphabet;
//! use rl_buchi::{Buchi, UpWord};
//!
//! # fn main() -> Result<(), rl_automata::AutomataError> {
//! let ab = Alphabet::new(["a", "b"])?;
//! let a = ab.symbol("a").unwrap();
//! let b = ab.symbol("b").unwrap();
//! // L = "infinitely many a's"
//! let mut m = Buchi::new(ab);
//! let q0 = m.add_state(false);
//! let q1 = m.add_state(true);
//! m.set_initial(q0);
//! m.add_transition(q0, b, q0);
//! m.add_transition(q0, a, q1);
//! m.add_transition(q1, b, q0);
//! m.add_transition(q1, a, q1);
//!
//! assert!(m.accepts_upword(&UpWord::new(vec![], vec![a])?));
//! assert!(m.accepts_upword(&UpWord::new(vec![b], vec![a, b])?));
//! assert!(!m.accepts_upword(&UpWord::new(vec![a], vec![b])?));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buchi;
mod classes;
mod complement;
mod emptiness;
mod generalized;
mod limits;
mod upword;

pub use buchi::Buchi;
pub use classes::ClassBuchi;
pub use complement::{complement, complement_with, omega_included, omega_included_with};
pub use generalized::GeneralizedBuchi;
pub use limits::{behaviors_of_ts, behaviors_of_ts_with};
pub use upword::UpWord;
