//! Büchi automata over letter classes.
//!
//! A PLTL property only tells apart letters whose labels differ on the
//! formula's atoms (Definition 3.2), so its automaton needs one edge per
//! *class* of such letters, not one per letter. A [`ClassBuchi`] keeps the
//! edge rows of an ordinary [`Buchi`] whose symbols are class ids, plus
//! the map from letters to classes; products against it look each letter
//! up once ([`Buchi::intersection_with_classes`]).

use std::hash::Hasher;

use rl_automata::{Alphabet, FxHasher, MemFootprint, Symbol};

use crate::buchi::Buchi;

/// A Büchi automaton whose edges carry letter classes.
///
/// The alphabet is partitioned into classes numbered `0..k`. Reading
/// letter `a` takes an edge labelled with `a`'s class. Under the canonical
/// labeling a formula naming `n` atoms has at most `n + 1` classes,
/// however large the alphabet.
///
/// # Example
///
/// ```
/// use rl_automata::{Alphabet, Symbol};
/// use rl_buchi::{Buchi, ClassBuchi, UpWord};
///
/// # fn main() -> Result<(), rl_automata::AutomataError> {
/// let ab = Alphabet::new(["a", "b", "c"])?;
/// let (a, b) = (ab.symbol("a").unwrap(), ab.symbol("b").unwrap());
/// // Class 0 = {a}, class 1 = {b, c}; "infinitely many a".
/// let (is_a, other) = (Symbol::from_index(0), Symbol::from_index(1));
/// let rows = Buchi::from_parts(
///     ab.clone(),
///     2,
///     [0],
///     [1],
///     [(0, other, 0), (0, is_a, 1), (1, is_a, 1), (1, other, 0)],
/// )?;
/// let classes = vec![is_a, other, other];
/// let m = ClassBuchi::new(rows, classes).to_letters();
/// assert_eq!(m.transition_count(), 6);
/// assert!(m.accepts_upword(&UpWord::periodic(vec![b, a])?));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassBuchi {
    /// The automaton with class ids for symbols; its alphabet is the
    /// letter alphabet.
    rows: Buchi,
    /// `class_of[a]` = the class of letter `a`.
    class_of: Vec<Symbol>,
}

impl MemFootprint for ClassBuchi {
    fn heap_bytes(&self) -> usize {
        self.rows.heap_bytes() + self.class_of.heap_bytes()
    }
}

impl ClassBuchi {
    /// Wraps `rows`, whose edge symbols are class ids, with the letter map
    /// `class_of` (indexed by the letters of `rows.alphabet()`).
    ///
    /// # Panics
    ///
    /// Panics if `class_of` does not give exactly one class per letter.
    pub fn new(rows: Buchi, class_of: Vec<Symbol>) -> ClassBuchi {
        assert_eq!(
            class_of.len(),
            rows.alphabet().len(),
            "one class per letter"
        );
        ClassBuchi { rows, class_of }
    }

    /// Every letter in a class of its own: the same automaton, read
    /// through the identity map.
    pub fn from_letters(b: Buchi) -> ClassBuchi {
        let class_of = b.alphabet().symbols().collect();
        ClassBuchi { rows: b, class_of }
    }

    /// The letter alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        self.rows.alphabet()
    }

    /// The class of letter `a`.
    pub fn class_of(&self, a: Symbol) -> Symbol {
        self.class_of[a.index()]
    }

    /// Number of class edges (each stands for every letter of its class).
    pub fn transition_count(&self) -> usize {
        self.rows.transition_count()
    }

    /// The rows, with class ids for symbols.
    pub(crate) fn rows(&self) -> &Buchi {
        &self.rows
    }

    /// The same language over letters: each class edge becomes one edge
    /// per letter of its class. States, initial and accepting sets keep
    /// their numbers.
    pub fn to_letters(&self) -> Buchi {
        let classes = self.class_of.iter().map(|c| c.index() + 1).max();
        let mut members: Vec<Vec<Symbol>> = vec![Vec::new(); classes.unwrap_or(0)];
        for (a, &c) in self.class_of.iter().enumerate() {
            members[c.index()].push(Symbol::from_index(a));
        }
        let edges = (0..self.rows.state_count())
            .map(|q| {
                let mut row: Vec<(Symbol, usize)> = self
                    .rows
                    .edges(q)
                    .iter()
                    .flat_map(|&(c, to)| {
                        members
                            .get(c.index())
                            .into_iter()
                            .flatten()
                            .map(move |&a| (a, to))
                    })
                    .collect();
                row.sort_unstable();
                row
            })
            .collect();
        Buchi::from_rows(
            self.alphabet().clone(),
            self.rows.initial().clone(),
            (0..self.rows.state_count())
                .map(|q| self.rows.is_accepting(q))
                .collect(),
            edges,
        )
    }

    /// A deterministic structural hash: the rows' hash and the letter map.
    pub(crate) fn structural_hash(&self) -> u64 {
        let mut h = FxHasher::default();
        h.write_u64(self.rows.structural_hash());
        for c in &self.class_of {
            h.write_usize(c.index());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_automata::Guard;

    fn abc() -> Alphabet {
        Alphabet::new(["a", "b", "c"]).unwrap()
    }

    /// "Infinitely many a" over {a, b, c}, with b and c in one class.
    fn inf_a() -> ClassBuchi {
        let (is_a, other) = (Symbol::from_index(0), Symbol::from_index(1));
        let rows = Buchi::from_parts(
            abc(),
            2,
            [0],
            [1],
            [(0, other, 0), (0, is_a, 1), (1, is_a, 1), (1, other, 0)],
        )
        .unwrap();
        ClassBuchi::new(rows, vec![is_a, other, other])
    }

    #[test]
    fn expansion_and_identity_agree() {
        let m = inf_a();
        let letters = m.to_letters();
        assert_eq!(letters.transition_count(), 6);
        assert_eq!(
            ClassBuchi::from_letters(letters.clone()).to_letters(),
            letters
        );
    }

    #[test]
    fn class_product_equals_letter_product() {
        let ab = abc();
        let (a, b, c) = (
            Symbol::from_index(0),
            Symbol::from_index(1),
            Symbol::from_index(2),
        );
        // A system cycling a·b·c·c, plus a b self-loop at its start.
        let system = Buchi::from_parts(
            ab,
            4,
            [0],
            0..4,
            [(0, a, 1), (0, b, 0), (1, b, 2), (2, c, 3), (3, c, 0)],
        )
        .unwrap();
        let m = inf_a();
        let guard = Guard::unlimited();
        assert_eq!(
            system.intersection_with_classes(&m, &guard).unwrap(),
            system.intersection_with(&m.to_letters(), &guard).unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "one class per letter")]
    fn a_short_letter_map_is_rejected() {
        let m = inf_a();
        let _ = ClassBuchi::new(m.rows.clone(), vec![Symbol::from_index(0)]);
    }
}
