//! Semantics-preserving formula simplification.
//!
//! The `R̄` transport of Definition 7.4 produces syntactically heavy
//! formulas (`(ε U (true ∧ ¬ε)) ∨ □ε …`); this module's local rewrite
//! rules shrink them before translation, which directly shrinks the GPVW
//! tableau. All rules are classical PLTL equivalences; the property tests
//! check `evaluate(f) == evaluate(simplify(f))` on random formula/word
//! pairs.

use crate::ast::Formula;

/// Applies local simplification rules in one bottom-up pass, rewriting
/// each node to a local fixpoint.
///
/// A node's children are simplified first, so no rule applies inside
/// them; a rule that builds a new node over them (`true U ζ ≡ ◇ζ`,
/// `ξ ⇒ false ≡ ¬ξ`, …) rewrites that node again. Every rule shrinks the
/// formula, so the pass ends, and no rule applies anywhere in its result.
///
/// # Example
///
/// ```
/// use rl_logic::{parse, simplify};
///
/// # fn main() -> Result<(), rl_logic::ParseError> {
/// assert_eq!(simplify(&parse("a & true")?), parse("a")?);
/// assert_eq!(simplify(&parse("!!a | false")?), parse("a")?);
/// assert_eq!(simplify(&parse("<> <> a")?), parse("<>a")?);
/// assert_eq!(simplify(&parse("true U a")?), parse("<>a")?);
/// # Ok(())
/// # }
/// ```
pub fn simplify(f: &Formula) -> Formula {
    use Formula::*;
    let node = match f {
        True | False | Atom(_) => f.clone(),
        Not(x) => simplify(x).not(),
        And(x, y) => simplify(x).and(simplify(y)),
        Or(x, y) => simplify(x).or(simplify(y)),
        Implies(x, y) => simplify(x).implies(simplify(y)),
        Iff(x, y) => simplify(x).iff(simplify(y)),
        Next(x) => simplify(x).next(),
        Until(x, y) => simplify(x).until(simplify(y)),
        Release(x, y) => simplify(x).release(simplify(y)),
        Before(x, y) => simplify(x).before(simplify(y)),
        WeakUntil(x, y) => simplify(x).weak_until(simplify(y)),
        Eventually(x) => simplify(x).eventually(),
        Always(x) => simplify(x).always(),
    };
    rewrite(node)
}

/// One rule at the root of `f`, whose children are already simplified;
/// a node the rule builds over them is rewritten in turn.
fn rewrite(f: Formula) -> Formula {
    use Formula::*;
    match f {
        Not(x) => match *x {
            True => False,
            False => True,
            Not(inner) => *inner,
            other => Not(Box::new(other)),
        },
        And(x, y) => match (*x, *y) {
            (True, other) | (other, True) => other,
            (False, _) | (_, False) => False,
            (a, b) if a == b => a,
            (a, b) => a.and(b),
        },
        Or(x, y) => match (*x, *y) {
            (False, other) | (other, False) => other,
            (True, _) | (_, True) => True,
            (a, b) if a == b => a,
            (a, b) => a.or(b),
        },
        Implies(x, y) => match (*x, *y) {
            (True, other) => other,
            (False, _) => True,
            (_, True) => True,
            (a, False) => rewrite(a.not()),
            (a, b) if a == b => True,
            (a, b) => a.implies(b),
        },
        Iff(x, y) => match (*x, *y) {
            (True, other) | (other, True) => other,
            (False, other) | (other, False) => rewrite(other.not()),
            (a, b) if a == b => True,
            (a, b) => a.iff(b),
        },
        Next(x) => match *x {
            True => True,
            False => False,
            other => other.next(),
        },
        Until(x, y) => match (*x, *y) {
            // ξ U true ≡ true; ξ U false ≡ false.
            (_, True) => True,
            (_, False) => False,
            // false U ζ ≡ ζ (the witness must be immediate).
            (False, z) => z,
            // true U ζ ≡ ◇ζ.
            (True, z) => rewrite(z.eventually()),
            (a, b) if a == b => a,
            (a, b) => a.until(b),
        },
        Release(x, y) => match (*x, *y) {
            // ξ R true ≡ true; ξ R false ≡ false.
            (_, True) => True,
            (_, False) => False,
            // true R ζ ≡ ζ (released immediately).
            (True, z) => z,
            // false R ζ ≡ □ζ.
            (False, z) => rewrite(z.always()),
            (a, b) if a == b => a,
            (a, b) => a.release(b),
        },
        WeakUntil(x, y) => match (*x, *y) {
            // ξ W true ≡ true; true W ζ ≡ true (□true branch).
            (_, True) | (True, _) => True,
            // ξ W false ≡ □ξ; false W ζ ≡ ζ.
            (a, False) => rewrite(a.always()),
            (False, z) => z,
            (a, b) if a == b => a,
            (a, b) => a.weak_until(b),
        },
        Before(x, y) => match (*x, *y) {
            // ξ B false ≡ true (nothing to precede).
            (_, False) => True,
            // ξ B true ≡ ¬(¬ξ U true) ≡ false … unless ξ holds now; keep the
            // general rewrite only for the constant-false rhs.
            (a, b) => a.before(b),
        },
        Eventually(x) => match *x {
            True => True,
            False => False,
            Eventually(inner) => (*inner).eventually(),
            other => other.eventually(),
        },
        Always(x) => match *x {
            True => True,
            False => False,
            Always(inner) => (*inner).always(),
            other => other.always(),
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::labeling::Labeling;
    use crate::parser::parse;
    use rl_automata::Alphabet;
    use rl_buchi::UpWord;

    #[test]
    fn constant_folding() {
        for (input, expect) in [
            ("a & true", "a"),
            ("false | b", "b"),
            ("!(!a)", "a"),
            ("!true", "false"),
            ("X false", "false"),
            ("true -> a", "a"),
            ("a -> false", "!a"),
            ("a <-> true", "a"),
            ("<> <> a", "<>a"),
            ("[] [] a", "[]a"),
            ("true U a", "<>a"),
            ("false R a", "[]a"),
            ("true R a", "a"),
            ("false U a", "a"),
            ("a U true", "true"),
            ("a R false", "false"),
            ("a & a", "a"),
            ("a | a", "a"),
            ("a -> a", "true"),
        ] {
            assert_eq!(
                simplify(&parse(input).unwrap()),
                parse(expect).unwrap(),
                "{input}"
            );
        }
    }

    #[test]
    fn nested_folding_cascades() {
        // (a & true) | false → a; X(!!b) → X b.
        assert_eq!(
            simplify(&parse("(a & true) | false").unwrap()),
            parse("a").unwrap()
        );
        assert_eq!(simplify(&parse("X !!b").unwrap()), parse("X b").unwrap());
        // □(true U (false | a)) → □◇a
        assert_eq!(
            simplify(&parse("[](true U (false | a))").unwrap()),
            parse("[]<>a").unwrap()
        );
    }

    #[test]
    fn simplification_preserves_semantics_on_samples() {
        let ab = Alphabet::new(["a", "b"]).unwrap();
        let lam = Labeling::canonical(&ab);
        let a = ab.symbol("a").unwrap();
        let b = ab.symbol("b").unwrap();
        let words = [
            UpWord::periodic(vec![a]).unwrap(),
            UpWord::periodic(vec![b]).unwrap(),
            UpWord::new(vec![a, b], vec![b, a]).unwrap(),
        ];
        for text in [
            "a U (b & true)",
            "(false R a) | X true",
            "!(a & !a)",
            "a B false",
            "((a | a) U (b | false)) & true",
        ] {
            let f = parse(text).unwrap();
            let s = simplify(&f);
            assert!(s.size() <= f.size(), "{text} grew");
            for w in &words {
                assert_eq!(
                    evaluate(&f, w, &lam),
                    evaluate(&s, w, &lam),
                    "{text} on {w}"
                );
            }
        }
    }

    #[test]
    fn shrinks_r_bar_output() {
        let sigma = Alphabet::new(["a", "b"]).unwrap();
        let transported = crate::transform::r_bar(&parse("<>a").unwrap(), &sigma).unwrap();
        let slim = simplify(&transported);
        assert!(
            slim.size() < transported.size(),
            "R̄ output should shrink: {} vs {}",
            slim.size(),
            transported.size()
        );
    }
}
