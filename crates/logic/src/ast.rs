//! Propositional linear temporal logic (PLTL) syntax.
//!
//! The paper's Section 3 defines PLTL with `¬`, `∧`, `O` (next) and `U`
//! (until), plus derived operators `∨`, `⇒`, `⇔`, `◇`, `□` and `B`
//! ("before", `ξ B ζ = ¬((¬ξ) U ζ)`). We keep all of these as first-class
//! constructors plus the *release* operator `R` (`ξ R ζ = ¬((¬ξ) U (¬ζ))`),
//! which positive normal form needs as the dual of `U`.

use std::fmt;

/// A PLTL formula.
///
/// Atomic propositions are named by strings; how names relate to alphabet
/// symbols is decided by a [`crate::Labeling`] at interpretation time
/// (Definition 3.2 of the paper).
///
/// # Example
///
/// ```
/// use rl_logic::Formula;
///
/// // □◇result — "infinitely often result"
/// let f = Formula::atom("result").eventually().always();
/// assert_eq!(f.to_string(), "[]<>result");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Formula {
    /// The constant `true`.
    True,
    /// The constant `false`.
    False,
    /// An atomic proposition.
    Atom(String),
    /// Negation `¬ξ`.
    Not(Box<Formula>),
    /// Conjunction `ξ ∧ ζ`.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction `ξ ∨ ζ`.
    Or(Box<Formula>, Box<Formula>),
    /// Implication `ξ ⇒ ζ`.
    Implies(Box<Formula>, Box<Formula>),
    /// Equivalence `ξ ⇔ ζ`.
    Iff(Box<Formula>, Box<Formula>),
    /// Next `O ξ` (written `X` in ASCII syntax).
    Next(Box<Formula>),
    /// Until `ξ U ζ`.
    Until(Box<Formula>, Box<Formula>),
    /// Release `ξ R ζ` (dual of until).
    Release(Box<Formula>, Box<Formula>),
    /// The paper's "before": `ξ B ζ = ¬((¬ξ) U ζ)`.
    Before(Box<Formula>, Box<Formula>),
    /// Weak until `ξ W ζ = (ξ U ζ) ∨ □ξ` (no obligation that `ζ` ever
    /// happens).
    WeakUntil(Box<Formula>, Box<Formula>),
    /// Eventually `◇ξ = true U ξ` (written `<>` or `F`).
    Eventually(Box<Formula>),
    /// Always `□ξ = ¬◇¬ξ` (written `[]` or `G`).
    Always(Box<Formula>),
}

impl Formula {
    /// An atomic proposition.
    pub fn atom(name: impl Into<String>) -> Formula {
        Formula::Atom(name.into())
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Formula {
        Formula::Not(Box::new(self))
    }

    /// Conjunction.
    pub fn and(self, other: Formula) -> Formula {
        Formula::And(Box::new(self), Box::new(other))
    }

    /// Disjunction.
    pub fn or(self, other: Formula) -> Formula {
        Formula::Or(Box::new(self), Box::new(other))
    }

    /// Implication.
    pub fn implies(self, other: Formula) -> Formula {
        Formula::Implies(Box::new(self), Box::new(other))
    }

    /// Equivalence.
    pub fn iff(self, other: Formula) -> Formula {
        Formula::Iff(Box::new(self), Box::new(other))
    }

    /// Next.
    pub fn next(self) -> Formula {
        Formula::Next(Box::new(self))
    }

    /// Until.
    pub fn until(self, other: Formula) -> Formula {
        Formula::Until(Box::new(self), Box::new(other))
    }

    /// Release.
    pub fn release(self, other: Formula) -> Formula {
        Formula::Release(Box::new(self), Box::new(other))
    }

    /// Before (`self B other`).
    pub fn before(self, other: Formula) -> Formula {
        Formula::Before(Box::new(self), Box::new(other))
    }

    /// Weak until (`self W other`).
    pub fn weak_until(self, other: Formula) -> Formula {
        Formula::WeakUntil(Box::new(self), Box::new(other))
    }

    /// Eventually.
    pub fn eventually(self) -> Formula {
        Formula::Eventually(Box::new(self))
    }

    /// Always.
    pub fn always(self) -> Formula {
        Formula::Always(Box::new(self))
    }

    /// The set of atomic proposition names occurring in the formula.
    pub fn atoms(&self) -> std::collections::BTreeSet<String> {
        let mut set = std::collections::BTreeSet::new();
        self.collect_atoms(&mut set);
        set
    }

    fn collect_atoms(&self, set: &mut std::collections::BTreeSet<String>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Atom(p) => {
                set.insert(p.clone());
            }
            Formula::Not(x) | Formula::Next(x) | Formula::Eventually(x) | Formula::Always(x) => {
                x.collect_atoms(set)
            }
            Formula::And(x, y)
            | Formula::Or(x, y)
            | Formula::Implies(x, y)
            | Formula::Iff(x, y)
            | Formula::Until(x, y)
            | Formula::Release(x, y)
            | Formula::Before(x, y)
            | Formula::WeakUntil(x, y) => {
                x.collect_atoms(set);
                y.collect_atoms(set);
            }
        }
    }

    /// Syntactic size (number of operators and atoms).
    pub fn size(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) => 1,
            Formula::Not(x) | Formula::Next(x) | Formula::Eventually(x) | Formula::Always(x) => {
                1 + x.size()
            }
            Formula::And(x, y)
            | Formula::Or(x, y)
            | Formula::Implies(x, y)
            | Formula::Iff(x, y)
            | Formula::Until(x, y)
            | Formula::Release(x, y)
            | Formula::Before(x, y)
            | Formula::WeakUntil(x, y) => 1 + x.size() + y.size(),
        }
    }

    /// Converts the formula to *positive normal form* (Definition 7.1): the
    /// scope of every negation is a single atomic proposition; the derived
    /// operators `⇒`, `⇔`, `B`, `◇`, `□` are expanded into
    /// `∧/∨/O/U/R`-combinations.
    ///
    /// # Example
    ///
    /// ```
    /// use rl_logic::Formula;
    ///
    /// let f = Formula::atom("a").until(Formula::atom("b")).not();
    /// assert_eq!(f.to_pnf().to_string(), "!a R !b");
    /// ```
    pub fn to_pnf(&self) -> Formula {
        self.pnf_into(false, &mut Trees)
    }

    /// The positive normal form of `self` (of `¬self` when `negated`),
    /// built by `b`.
    pub(crate) fn pnf_into<'f, B: PnfBuilder<'f>>(&'f self, negated: bool, b: &mut B) -> B::Node {
        b.share(self, negated, |b| match self {
            Formula::True => b.constant(!negated),
            Formula::False => b.constant(negated),
            Formula::Atom(p) => b.literal(p, !negated),
            Formula::Not(x) => x.pnf_into(!negated, b),
            Formula::And(x, y) | Formula::Or(x, y) => {
                // ¬(x ∧ y) = ¬x ∨ ¬y and ¬(x ∨ y) = ¬x ∧ ¬y.
                let (x, y) = (x.pnf_into(negated, b), y.pnf_into(negated, b));
                if matches!(self, Formula::And(..)) != negated {
                    b.and(x, y)
                } else {
                    b.or(x, y)
                }
            }
            Formula::Implies(x, y) => {
                // x ⇒ y = ¬x ∨ y
                if negated {
                    let (x, y) = (x.pnf_into(false, b), y.pnf_into(true, b));
                    b.and(x, y)
                } else {
                    let (x, y) = (x.pnf_into(true, b), y.pnf_into(false, b));
                    b.or(x, y)
                }
            }
            Formula::Iff(x, y) => {
                // x ⇔ y = (x ∧ y) ∨ (¬x ∧ ¬y), and
                // ¬(x ⇔ y) = (x ∧ ¬y) ∨ (¬x ∧ y).
                let (x1, y1) = (x.pnf_into(false, b), y.pnf_into(negated, b));
                let left = b.and(x1, y1);
                let (x2, y2) = (x.pnf_into(true, b), y.pnf_into(!negated, b));
                let right = b.and(x2, y2);
                b.or(left, right)
            }
            Formula::Next(x) => {
                let x = x.pnf_into(negated, b);
                b.next(x)
            }
            Formula::Until(x, y) | Formula::Release(x, y) => {
                // ¬(x U y) = ¬x R ¬y and ¬(x R y) = ¬x U ¬y.
                let (x, y) = (x.pnf_into(negated, b), y.pnf_into(negated, b));
                if matches!(self, Formula::Until(..)) != negated {
                    b.until(x, y)
                } else {
                    b.release(x, y)
                }
            }
            Formula::Before(x, y) => {
                // x B y = ¬((¬x) U y) = x R ¬y
                let (x, y) = (x.pnf_into(negated, b), y.pnf_into(!negated, b));
                if negated {
                    b.until(x, y)
                } else {
                    b.release(x, y)
                }
            }
            Formula::WeakUntil(x, y) => {
                // x W y = y R (y ∨ x); ¬(x W y) = (¬y) U (¬y ∧ ¬x).
                let (y1, y2, x) = (
                    y.pnf_into(negated, b),
                    y.pnf_into(negated, b),
                    x.pnf_into(negated, b),
                );
                if negated {
                    let rhs = b.and(y2, x);
                    b.until(y1, rhs)
                } else {
                    let rhs = b.or(y2, x);
                    b.release(y1, rhs)
                }
            }
            Formula::Eventually(x) | Formula::Always(x) => {
                // ◇x = true U x and □x = false R x; ¬◇x = false R ¬x and
                // ¬□x = true U ¬x.
                let eventually = matches!(self, Formula::Eventually(..)) != negated;
                let (c, x) = (b.constant(eventually), x.pnf_into(negated, b));
                if eventually {
                    b.until(c, x)
                } else {
                    b.release(c, x)
                }
            }
        })
    }

    /// Whether the formula is in positive normal form.
    pub fn is_pnf(&self) -> bool {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) => true,
            Formula::Not(x) => matches!(**x, Formula::Atom(_)),
            Formula::And(x, y)
            | Formula::Or(x, y)
            | Formula::Until(x, y)
            | Formula::Release(x, y) => x.is_pnf() && y.is_pnf(),
            Formula::Next(x) => x.is_pnf(),
            Formula::Implies(..)
            | Formula::Iff(..)
            | Formula::Before(..)
            | Formula::WeakUntil(..)
            | Formula::Eventually(..)
            | Formula::Always(..) => false,
        }
    }

    /// Whether the formula is *purely boolean*: no temporal operator occurs.
    ///
    /// The `R̄` extension of Definition 7.4 treats maximal such subformulas
    /// specially.
    pub fn is_boolean(&self) -> bool {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) => true,
            Formula::Not(x) => x.is_boolean(),
            Formula::And(x, y)
            | Formula::Or(x, y)
            | Formula::Implies(x, y)
            | Formula::Iff(x, y) => x.is_boolean() && y.is_boolean(),
            Formula::Next(_)
            | Formula::Until(..)
            | Formula::Release(..)
            | Formula::Before(..)
            | Formula::WeakUntil(..)
            | Formula::Eventually(_)
            | Formula::Always(_) => false,
        }
    }
}

/// Operator precedence for printing (higher binds tighter).
fn prec(f: &Formula) -> u8 {
    match f {
        Formula::True | Formula::False | Formula::Atom(_) => 6,
        Formula::Not(_) | Formula::Next(_) | Formula::Eventually(_) | Formula::Always(_) => 5,
        Formula::Until(..)
        | Formula::Release(..)
        | Formula::Before(..)
        | Formula::WeakUntil(..) => 4,
        Formula::And(..) => 3,
        Formula::Or(..) => 2,
        Formula::Implies(..) => 1,
        Formula::Iff(..) => 0,
    }
}

/// A target for positive normal form ([`Formula::pnf_into`]): each method
/// builds one PNF node from nodes already built.
pub(crate) trait PnfBuilder<'f> {
    /// A built formula.
    type Node;

    /// `true` or `false`.
    fn constant(&mut self, value: bool) -> Self::Node;
    /// The atom `p` when `positive`, else `¬p`.
    fn literal(&mut self, atom: &'f str, positive: bool) -> Self::Node;
    /// `x ∧ y`.
    fn and(&mut self, x: Self::Node, y: Self::Node) -> Self::Node;
    /// `x ∨ y`.
    fn or(&mut self, x: Self::Node, y: Self::Node) -> Self::Node;
    /// `O x`.
    fn next(&mut self, x: Self::Node) -> Self::Node;
    /// `x U y`.
    fn until(&mut self, x: Self::Node, y: Self::Node) -> Self::Node;
    /// `x R y`.
    fn release(&mut self, x: Self::Node, y: Self::Node) -> Self::Node;

    /// The PNF of the subformula `f` (negated when `negated`), which
    /// `build` builds. A builder that shares nodes returns the one it built
    /// before for the same `f` and polarity.
    fn share(
        &mut self,
        f: &'f Formula,
        negated: bool,
        build: impl FnOnce(&mut Self) -> Self::Node,
    ) -> Self::Node {
        let _ = (f, negated);
        build(self)
    }
}

/// Builds PNF as a plain [`Formula`] tree.
struct Trees;

impl PnfBuilder<'_> for Trees {
    type Node = Formula;

    fn constant(&mut self, value: bool) -> Formula {
        if value {
            Formula::True
        } else {
            Formula::False
        }
    }

    fn literal(&mut self, atom: &str, positive: bool) -> Formula {
        let p = Formula::atom(atom);
        if positive {
            p
        } else {
            p.not()
        }
    }

    fn and(&mut self, x: Formula, y: Formula) -> Formula {
        x.and(y)
    }

    fn or(&mut self, x: Formula, y: Formula) -> Formula {
        x.or(y)
    }

    fn next(&mut self, x: Formula) -> Formula {
        x.next()
    }

    fn until(&mut self, x: Formula, y: Formula) -> Formula {
        x.until(y)
    }

    fn release(&mut self, x: Formula, y: Formula) -> Formula {
        x.release(y)
    }
}

impl fmt::Display for Formula {
    /// Prints in the ASCII syntax accepted by [`crate::parse`]:
    /// `! & | -> <-> X U R B [] <>`, with minimal parentheses.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn child(f: &mut fmt::Formatter<'_>, parent: u8, c: &Formula, strict: bool) -> fmt::Result {
            let cp = prec(c);
            let need = if strict { cp <= parent } else { cp < parent };
            if need {
                write!(f, "(")?;
                write!(f, "{c}")?;
                write!(f, ")")
            } else {
                write!(f, "{c}")
            }
        }
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::Atom(p) => write!(f, "{p}"),
            Formula::Not(x) => {
                write!(f, "!")?;
                child(f, 5, x, false)
            }
            Formula::Next(x) => {
                // The X keyword always takes a space so the lexer never
                // glues it to a following alphabetic token ("X X a", "X a").
                write!(f, "X ")?;
                child(f, 5, x, false)
            }
            Formula::Eventually(x) => {
                write!(f, "<>")?;
                child(f, 5, x, false)
            }
            Formula::Always(x) => {
                write!(f, "[]")?;
                child(f, 5, x, false)
            }
            Formula::Until(x, y) => {
                child(f, 4, x, true)?;
                write!(f, " U ")?;
                // Right-associative: right child at same level needs no parens.
                child(f, 3, y, true)
            }
            Formula::Release(x, y) => {
                child(f, 4, x, true)?;
                write!(f, " R ")?;
                child(f, 3, y, true)
            }
            Formula::Before(x, y) => {
                child(f, 4, x, true)?;
                write!(f, " B ")?;
                child(f, 3, y, true)
            }
            Formula::WeakUntil(x, y) => {
                child(f, 4, x, true)?;
                write!(f, " W ")?;
                child(f, 3, y, true)
            }
            Formula::And(x, y) => {
                child(f, 3, x, false)?;
                write!(f, " & ")?;
                child(f, 3, y, true)
            }
            Formula::Or(x, y) => {
                child(f, 2, x, false)?;
                write!(f, " | ")?;
                child(f, 2, y, true)
            }
            Formula::Implies(x, y) => {
                child(f, 1, x, true)?;
                write!(f, " -> ")?;
                child(f, 1, y, false)
            }
            Formula::Iff(x, y) => {
                child(f, 0, x, true)?;
                write!(f, " <-> ")?;
                child(f, 0, y, true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pnf_pushes_negations() {
        let f = Formula::atom("a").and(Formula::atom("b").next()).not();
        let p = f.to_pnf();
        assert!(p.is_pnf());
        assert_eq!(
            p,
            Formula::atom("a").not().or(Formula::atom("b").not().next())
        );
    }

    #[test]
    fn pnf_of_box_diamond() {
        let f = Formula::atom("result").eventually().always();
        let p = f.to_pnf();
        assert!(p.is_pnf());
        // □◇a = false R (true U a)
        assert_eq!(
            p,
            Formula::False.release(Formula::True.until(Formula::atom("result")))
        );
    }

    #[test]
    fn before_definition_matches_paper() {
        // ξ B ζ = ¬((¬ξ) U ζ); PNF: ξ R ¬ζ
        let f = Formula::atom("a").before(Formula::atom("b"));
        assert_eq!(
            f.to_pnf(),
            Formula::atom("a").release(Formula::atom("b").not())
        );
        // And double negation: ¬(ξ B ζ) = (¬ξ) U ζ.
        assert_eq!(
            f.not().to_pnf(),
            Formula::atom("a").not().until(Formula::atom("b"))
        );
    }

    #[test]
    fn pnf_is_idempotent() {
        let f = Formula::atom("a")
            .implies(Formula::atom("b").eventually())
            .always();
        let p = f.to_pnf();
        assert_eq!(p, p.to_pnf());
    }

    #[test]
    fn atoms_collected() {
        let f = Formula::atom("x").until(Formula::atom("y").and(Formula::atom("x")));
        let atoms = f.atoms();
        assert_eq!(atoms.len(), 2);
        assert!(atoms.contains("x"));
        assert!(atoms.contains("y"));
    }

    #[test]
    fn boolean_detection() {
        assert!(Formula::atom("a")
            .and(Formula::atom("b").not())
            .is_boolean());
        assert!(!Formula::atom("a").next().is_boolean());
        assert!(!Formula::atom("a")
            .and(Formula::atom("b").eventually())
            .is_boolean());
    }

    #[test]
    fn display_uses_minimal_parens() {
        let f = Formula::atom("a")
            .and(Formula::atom("b"))
            .or(Formula::atom("c"));
        assert_eq!(f.to_string(), "a & b | c");
        let g = Formula::atom("a")
            .or(Formula::atom("b"))
            .and(Formula::atom("c"));
        assert_eq!(g.to_string(), "(a | b) & c");
    }

    #[test]
    fn size_counts_nodes() {
        let f = Formula::atom("a").until(Formula::atom("b")).not();
        assert_eq!(f.size(), 4);
    }
}
