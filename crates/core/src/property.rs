//! Properties: ω-regular sets given by PLTL formulas or Büchi automata
//! (Definition 3.2).

use std::error::Error;
use std::fmt;

use rl_abstraction::AbstractionError;
use rl_automata::{Alphabet, AutomataError, Guard};
use rl_buchi::{complement_with, Buchi};
use rl_logic::{formula_to_buchi_with, Formula, Labeling};

/// Errors from the relative-liveness/safety deciders and pipelines.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// Underlying automata error.
    Automata(AutomataError),
    /// Underlying abstraction error.
    Abstraction(AbstractionError),
    /// A precondition of a construction failed; the message names it.
    Precondition(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Automata(e) => write!(f, "{e}"),
            CoreError::Abstraction(e) => write!(f, "{e}"),
            CoreError::Precondition(m) => write!(f, "precondition failed: {m}"),
        }
    }
}

impl Error for CoreError {}

impl From<AutomataError> for CoreError {
    fn from(e: AutomataError) -> CoreError {
        CoreError::Automata(e)
    }
}

impl From<AbstractionError> for CoreError {
    fn from(e: AbstractionError) -> CoreError {
        CoreError::Abstraction(e)
    }
}

/// An ω-regular property `P ⊆ Σ^ω`.
///
/// Formula-given properties are interpreted with an explicit [`Labeling`]
/// (or the canonical `λ_Σ` by default), and their complements are obtained
/// by *negating the formula* — avoiding exponential Büchi complementation.
/// Automaton-given properties fall back to rank-based complementation.
///
/// # Example
///
/// ```
/// use rl_automata::Alphabet;
/// use rl_core::Property;
/// use rl_logic::parse;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ab = Alphabet::new(["request", "result"])?;
/// let p = Property::formula(parse("[]<>result")?);
/// let aut = p.to_buchi(&ab)?;
/// assert!(!aut.is_empty_language());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub enum Property {
    /// A PLTL formula interpreted with the canonical labeling `λ_Σ` of the
    /// system's alphabet.
    Formula(Formula),
    /// A PLTL formula with an explicit labeling (e.g. `λ_hΣΣ'`).
    LabeledFormula(Formula, Labeling),
    /// A property given directly as a Büchi automaton.
    Automaton(Buchi),
}

impl Property {
    /// A formula property under the canonical labeling.
    pub fn formula(f: Formula) -> Property {
        Property::Formula(f)
    }

    /// A formula property under an explicit labeling.
    pub fn labeled(f: Formula, labeling: Labeling) -> Property {
        Property::LabeledFormula(f, labeling)
    }

    /// A Büchi-automaton property.
    pub fn automaton(b: Buchi) -> Property {
        Property::Automaton(b)
    }

    /// A Büchi automaton for the property over `alphabet`.
    ///
    /// # Errors
    ///
    /// Returns an alphabet mismatch when a labeled formula or automaton was
    /// built for a different alphabet.
    pub fn to_buchi(&self, alphabet: &Alphabet) -> Result<Buchi, CoreError> {
        self.to_buchi_with(alphabet, &Guard::unlimited())
    }

    /// [`Property::to_buchi`] under a resource [`Guard`]: formula
    /// translation stops at the guard's deadline or cancellation (see
    /// [`formula_to_buchi_with`]).
    ///
    /// # Errors
    ///
    /// Same as [`Property::to_buchi`], plus a budget or cancellation error
    /// when the guard trips during translation.
    pub fn to_buchi_with(&self, alphabet: &Alphabet, guard: &Guard) -> Result<Buchi, CoreError> {
        match self {
            Property::Formula(f) => {
                let lam = Labeling::canonical(alphabet);
                Ok(formula_to_buchi_with(f, &lam, guard)?)
            }
            Property::LabeledFormula(f, lam) => {
                lam.alphabet().check_compatible(alphabet)?;
                Ok(formula_to_buchi_with(f, lam, guard)?)
            }
            Property::Automaton(b) => {
                b.alphabet().check_compatible(alphabet)?;
                Ok(b.clone())
            }
        }
    }

    /// A Büchi automaton for the *complement* `Σ^ω \ P`.
    ///
    /// # Errors
    ///
    /// Same as [`Property::to_buchi`].
    pub fn negation_to_buchi(&self, alphabet: &Alphabet) -> Result<Buchi, CoreError> {
        self.negation_to_buchi_with(alphabet, &Guard::unlimited())
    }

    /// [`Property::negation_to_buchi`] under a resource [`Guard`].
    ///
    /// Automaton-given properties are complemented with the exponential
    /// rank-based construction, which charges the guard and can trip it.
    /// Formula-given properties negate the formula and translate it with
    /// [`formula_to_buchi_with`], the GPVW tableau. It is exponential in the
    /// size of the formula and charges no states, but it polls the guard's
    /// deadline and cancel token, so `--timeout` and cancellation stop it.
    ///
    /// # Errors
    ///
    /// Same as [`Property::to_buchi`], plus a budget error when the guard
    /// trips during complementation, and a budget or cancellation error when
    /// it trips during translation.
    pub fn negation_to_buchi_with(
        &self,
        alphabet: &Alphabet,
        guard: &Guard,
    ) -> Result<Buchi, CoreError> {
        let _span = guard.span("negation");
        match self {
            Property::Formula(f) => {
                let lam = Labeling::canonical(alphabet);
                Ok(formula_to_buchi_with(&f.clone().not(), &lam, guard)?)
            }
            Property::LabeledFormula(f, lam) => {
                lam.alphabet().check_compatible(alphabet)?;
                Ok(formula_to_buchi_with(&f.clone().not(), lam, guard)?)
            }
            Property::Automaton(b) => {
                b.alphabet().check_compatible(alphabet)?;
                Ok(complement_with(b, guard)?)
            }
        }
    }

    /// A short human-readable description.
    pub fn describe(&self) -> String {
        match self {
            Property::Formula(f) => format!("⊨ {f}"),
            Property::LabeledFormula(f, _) => format!("⊨ {f} (custom labeling)"),
            Property::Automaton(b) => format!("Büchi property ({} states)", b.state_count()),
        }
    }
}

impl From<Formula> for Property {
    fn from(f: Formula) -> Property {
        Property::Formula(f)
    }
}

impl From<Buchi> for Property {
    fn from(b: Buchi) -> Property {
        Property::Automaton(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_buchi::UpWord;
    use rl_logic::parse;

    #[test]
    fn formula_and_negation_partition() {
        let ab = Alphabet::new(["a", "b"]).unwrap();
        let a = ab.symbol("a").unwrap();
        let b = ab.symbol("b").unwrap();
        let p = Property::formula(parse("[]<>a").unwrap());
        let pos = p.to_buchi(&ab).unwrap();
        let neg = p.negation_to_buchi(&ab).unwrap();
        for w in [
            UpWord::periodic(vec![a]).unwrap(),
            UpWord::periodic(vec![b]).unwrap(),
            UpWord::new(vec![a, b], vec![b, a]).unwrap(),
        ] {
            assert_ne!(pos.accepts_upword(&w), neg.accepts_upword(&w));
        }
    }

    #[test]
    fn automaton_property_roundtrip() {
        let ab = Alphabet::new(["a"]).unwrap();
        let a = ab.symbol("a").unwrap();
        let b = Buchi::from_parts(ab.clone(), 1, [0], [0], [(0, a, 0)]).unwrap();
        let p = Property::automaton(b);
        let pos = p.to_buchi(&ab).unwrap();
        assert!(pos.accepts_upword(&UpWord::periodic(vec![a]).unwrap()));
        let neg = p.negation_to_buchi(&ab).unwrap();
        assert!(neg.is_empty_language());
    }

    #[test]
    fn alphabet_mismatch_detected() {
        let ab1 = Alphabet::new(["a"]).unwrap();
        let ab2 = Alphabet::new(["b"]).unwrap();
        let b = Buchi::universal(ab1);
        let p = Property::automaton(b);
        assert!(p.to_buchi(&ab2).is_err());
    }
}
