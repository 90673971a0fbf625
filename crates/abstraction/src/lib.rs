//! Behavior abstraction via alphabetic language homomorphisms.
//!
//! Implements Section 6 of Nitsche & Wolper (PODC '97):
//!
//! * [`Homomorphism`] — abstracting homomorphisms `h : Σ → Σ' ∪ {ε}`
//!   (Definition 6.1), applied to symbols, words, lasso ω-words, automata,
//! * [`image_nfa`] / [`image_dfa_with`] / [`abstract_behavior`] — the
//!   abstract behavior `lim(h(L))` of a system (Definition 6.2),
//! * [`inverse_image_nfa`] / [`inverse_image_buchi`] — `h⁻¹`,
//! * [`check_simplicity`] — decides whether `h` is *simple* for a
//!   prefix-closed regular language (Definition 6.3, after Ochsenschläger),
//!   with a concrete counterexample word when it is not,
//! * [`has_maximal_words`] / [`extend_with_hash`] — the maximal-word side
//!   condition of Theorems 8.2/8.3 and the `{#}*` fix of Section 8,
//! * [`compositional_abstract_behavior`] — abstract components first, then
//!   compose (the partial-state-space-exploration shortcut of the paper's
//!   conclusion, after Ochsenschläger \[22\]).
//!
//! # Example — the paper's Section 2 story
//!
//! ```
//! use rl_abstraction::{abstract_behavior, check_simplicity, Homomorphism};
//! use rl_petri::examples::{server_behaviors, server_err_behaviors};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let keep = ["request", "result", "reject"];
//!
//! // Both the correct system (Fig. 2) and the erroneous one (Fig. 3)
//! // abstract to the same two-state system (Fig. 4) …
//! let good = server_behaviors();
//! let bad = server_err_behaviors();
//! let h_good = Homomorphism::hiding(good.alphabet(), keep)?;
//! let h_bad = Homomorphism::hiding(bad.alphabet(), keep)?;
//! let abs_good = abstract_behavior(&h_good, &good);
//! let abs_bad = abstract_behavior(&h_bad, &bad);
//! assert_eq!(abs_good.state_count(), 2);
//! assert_eq!(abs_bad.state_count(), 2);
//!
//! // … but only the correct system's homomorphism is simple, which is what
//! // licenses transferring relative liveness down from the abstraction.
//! assert!(check_simplicity(&h_good, &good)?.simple);
//! assert!(!check_simplicity(&h_bad, &bad)?.simple);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compositional;
mod hom;
mod image;
mod maximal;
mod simplicity;

pub use compositional::compositional_abstract_behavior;
pub use hom::{AbstractionError, Homomorphism};
pub use image::{
    abstract_behavior, abstract_behavior_with, abstract_image_with, image_dfa_with, image_nfa,
    inverse_image_buchi, inverse_image_nfa,
};
pub use maximal::{extend_with_hash, has_maximal_words, has_maximal_words_with, HASH_ACTION};
pub use simplicity::{check_simplicity, check_simplicity_with, SimplicityReport};
