//! Differential test of the one-pass simplifier.
//!
//! `simplify` rewrites each node once, bottom-up, to a local fixpoint. The
//! oracle below is the simplifier it replaced, kept verbatim: whole-tree
//! passes, each rebuilding the formula and applying one rule per node,
//! repeated until a pass changes nothing. Both must return the same
//! formula, node for node, on random formulas over every connective and on
//! the `R̄` transports the abstraction pipeline simplifies.

use proptest::prelude::*;
use rl_automata::Alphabet;
use rl_logic::{r_bar_strict, simplify, Formula};

/// The replaced simplifier: one-rule-per-node passes until a fixpoint.
fn simplify_to_fixpoint(f: &Formula) -> Formula {
    let mut cur = f.clone();
    // Rules strictly shrink the size, so |f| iterations terminate; cap for
    // safety anyway.
    for _ in 0..=f.size() {
        let next = pass(&cur);
        if next == cur {
            return cur;
        }
        cur = next;
    }
    cur
}

fn pass(f: &Formula) -> Formula {
    use Formula::*;
    // First simplify children, then the node itself.
    let node = match f {
        True | False | Atom(_) => f.clone(),
        Not(x) => pass(x).not(),
        And(x, y) => pass(x).and(pass(y)),
        Or(x, y) => pass(x).or(pass(y)),
        Implies(x, y) => pass(x).implies(pass(y)),
        Iff(x, y) => pass(x).iff(pass(y)),
        Next(x) => pass(x).next(),
        Until(x, y) => pass(x).until(pass(y)),
        Release(x, y) => pass(x).release(pass(y)),
        Before(x, y) => pass(x).before(pass(y)),
        WeakUntil(x, y) => pass(x).weak_until(pass(y)),
        Eventually(x) => pass(x).eventually(),
        Always(x) => pass(x).always(),
    };
    rewrite(node)
}

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
            (True, z) => z.eventually(),
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
            (False, z) => z.always(),
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

/// Random formulas over every connective, with constants and two atoms
/// frequent enough that most rules (and equal-operand rules) fire.
fn formula_strategy() -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        Just(Formula::True),
        Just(Formula::False),
        proptest::sample::select(&["a", "b"][..]).prop_map(Formula::atom),
    ];
    leaf.prop_recursive(6, 48, 2, |inner| {
        let pair = || (inner.clone(), inner.clone());
        prop_oneof![
            inner.clone().prop_map(Formula::not),
            inner.clone().prop_map(Formula::next),
            inner.clone().prop_map(Formula::eventually),
            inner.clone().prop_map(Formula::always),
            pair().prop_map(|(f, g)| f.and(g)),
            pair().prop_map(|(f, g)| f.or(g)),
            pair().prop_map(|(f, g)| f.implies(g)),
            pair().prop_map(|(f, g)| f.iff(g)),
            pair().prop_map(|(f, g)| f.until(g)),
            pair().prop_map(|(f, g)| f.release(g)),
            pair().prop_map(|(f, g)| f.before(g)),
            pair().prop_map(|(f, g)| f.weak_until(g)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn one_pass_matches_the_fixpoint_loop(f in formula_strategy()) {
        prop_assert_eq!(simplify(&f), simplify_to_fixpoint(&f));
    }

    #[test]
    fn one_pass_matches_the_fixpoint_loop_on_transports(f in formula_strategy()) {
        let target = Alphabet::new(["a", "b"]).expect("valid alphabet");
        let transported = r_bar_strict(&f, &target);
        prop_assume!(transported.is_ok());
        let transported = transported.expect("assumed");
        prop_assert_eq!(simplify(&transported), simplify_to_fixpoint(&transported));
    }
}
