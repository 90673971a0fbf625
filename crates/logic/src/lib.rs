//! Propositional linear temporal logic (PLTL) for the relative-liveness
//! workspace.
//!
//! Implements Section 3 and Section 7 of Nitsche & Wolper (PODC '97):
//!
//! * [`Formula`] — PLTL syntax with the paper's operators (`O`/`X`, `U`, and
//!   the derived `∨ ⇒ ⇔ ◇ □ B`), plus release `R` for positive normal form,
//! * [`parse`] — an ASCII concrete syntax (`[]<>result`, `a U (b & !c)`, …),
//! * positive normal form (Definition 7.1) and Σ-normal form
//!   (Definition 7.2),
//! * [`Labeling`] — labeling functions `λ : Σ → 2^AP`, including the
//!   canonical `λ_Σ` and support for the homomorphism labeling `λ_hΣΣ'`
//!   (Definition 7.3) via [`EPSILON_PROP`],
//! * [`evaluate`] — exact semantics on ultimately periodic words,
//! * [`formula_to_buchi`] — GPVW tableau translation to Büchi automata
//!   ([`formula_to_buchi_with`] stops at a guard's deadline),
//! * [`transform_t`] / [`r_bar`] — the property transport of Definition 7.4
//!   (Figure 5), reconstructed and verified against Lemma 7.5.
//!
//! # Example
//!
//! ```
//! use rl_automata::Alphabet;
//! use rl_buchi::UpWord;
//! use rl_logic::{evaluate, formula_to_buchi, parse, Labeling};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ab = Alphabet::new(["request", "result", "reject"])?;
//! let lam = Labeling::canonical(&ab);
//! let eta = parse("[]<>result")?;
//!
//! let request = ab.symbol("request").unwrap();
//! let result = ab.symbol("result").unwrap();
//! let reject = ab.symbol("reject").unwrap();
//!
//! let good = UpWord::periodic(vec![request, result])?;
//! let bad = UpWord::new(vec![request, result], vec![request, reject])?;
//! assert!(evaluate(&eta, &good, &lam));
//! assert!(!evaluate(&eta, &bad, &lam));
//!
//! // The same answers through the automata-theoretic route:
//! let aut = formula_to_buchi(&eta, &lam);
//! assert!(aut.accepts_upword(&good));
//! assert!(!aut.accepts_upword(&bad));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod eval;
mod json;
mod labeling;
mod parser;
mod simplify;
mod transform;
mod translate;

pub use ast::Formula;
pub use eval::{evaluate, truth};
pub use labeling::{Labeling, EPSILON_PROP};
pub use parser::{parse, ParseError, MAX_DEPTH};
pub use simplify::simplify;
pub use transform::{is_sigma_normal_form, r_bar, r_bar_strict, to_sigma_normal_form, transform_t};
pub use translate::{formula_to_buchi, formula_to_buchi_with};
