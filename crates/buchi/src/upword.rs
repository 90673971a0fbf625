//! Ultimately periodic ω-words (`u · v^ω`).

use std::fmt;

use rl_automata::{Alphabet, AutomataError, Symbol};

/// An ultimately periodic ω-word `u · v^ω` with finite prefix `u` (the
/// "spoke") and non-empty period `v` (the "loop").
///
/// Every non-empty ω-regular language contains such a word, so these are the
/// counterexample currency of all the deciders in this workspace.
///
/// # Example
///
/// ```
/// use rl_automata::Alphabet;
/// use rl_buchi::UpWord;
///
/// # fn main() -> Result<(), rl_automata::AutomataError> {
/// let ab = Alphabet::new(["a", "b"])?;
/// let a = ab.symbol("a").unwrap();
/// let b = ab.symbol("b").unwrap();
/// let w = UpWord::new(vec![a], vec![b, a])?;   // a (b a)^ω
/// assert_eq!(w.at(0), a);
/// assert_eq!(w.at(1), b);
/// assert_eq!(w.at(2), a);
/// assert_eq!(w.at(3), b);
/// assert_eq!(w.display(&ab), "a.(b.a)^ω");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UpWord {
    prefix: Vec<Symbol>,
    period: Vec<Symbol>,
}

impl UpWord {
    /// Creates `prefix · period^ω`.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::InvalidState`] when `period` is empty (there
    /// is no ω-word with an empty loop).
    pub fn new(prefix: Vec<Symbol>, period: Vec<Symbol>) -> Result<UpWord, AutomataError> {
        if period.is_empty() {
            return Err(AutomataError::InvalidState(0));
        }
        Ok(UpWord { prefix, period })
    }

    /// A purely periodic word `v^ω`.
    ///
    /// # Errors
    ///
    /// Returns an error when `period` is empty.
    pub fn periodic(period: Vec<Symbol>) -> Result<UpWord, AutomataError> {
        UpWord::new(Vec::new(), period)
    }

    /// The finite prefix `u`.
    pub fn prefix(&self) -> &[Symbol] {
        &self.prefix
    }

    /// The repeated period `v`.
    pub fn period(&self) -> &[Symbol] {
        &self.period
    }

    /// The letter at position `i` (0-based).
    pub fn at(&self, i: usize) -> Symbol {
        if i < self.prefix.len() {
            self.prefix[i]
        } else {
            self.period[(i - self.prefix.len()) % self.period.len()]
        }
    }

    /// Length of one "lasso unrolling": `|u| + |v|`.
    pub fn lasso_len(&self) -> usize {
        self.prefix.len() + self.period.len()
    }

    /// Position index of the successor of position `i` *within the lasso*
    /// (positions `0..lasso_len()`, with the last looping back to `|u|`).
    pub fn lasso_next(&self, i: usize) -> usize {
        if i + 1 < self.lasso_len() {
            i + 1
        } else {
            self.prefix.len()
        }
    }

    /// The suffix ω-word starting at position `n` (the paper's `x_(n...)`),
    /// itself ultimately periodic.
    pub fn suffix(&self, n: usize) -> UpWord {
        if n <= self.prefix.len() {
            UpWord {
                prefix: self.prefix[n..].to_vec(),
                period: self.period.clone(),
            }
        } else {
            let k = (n - self.prefix.len()) % self.period.len();
            let mut period = self.period[k..].to_vec();
            period.extend_from_slice(&self.period[..k]);
            UpWord {
                prefix: Vec::new(),
                period,
            }
        }
    }

    /// Prepends a finite word: `w · self`.
    pub fn prepend(&self, w: &[Symbol]) -> UpWord {
        let mut prefix = w.to_vec();
        prefix.extend_from_slice(&self.prefix);
        UpWord {
            prefix,
            period: self.period.clone(),
        }
    }

    /// The finite unrolling of the first `n` letters.
    pub fn unroll(&self, n: usize) -> Vec<Symbol> {
        (0..n).map(|i| self.at(i)).collect()
    }

    /// A canonical form: the period is cut to its primitive root (`w^k`
    /// becomes `w`), then the prefix is shortened while its last letter
    /// equals the last letter of the period, rotating that letter into the
    /// period. Two `UpWord`s denote the same ω-word exactly when their
    /// canonical forms are equal ([`UpWord::same_word`]).
    pub fn canonicalize(&self) -> UpWord {
        let mut prefix = self.prefix.clone();
        let mut period = self.period.clone();
        // Shrink the period to its primitive root.
        'outer: for d in 1..=period.len() / 2 {
            if !period.len().is_multiple_of(d) {
                continue;
            }
            for i in d..period.len() {
                if period[i] != period[i - d] {
                    continue 'outer;
                }
            }
            period.truncate(d);
            break;
        }
        // Absorb trailing prefix letters into the rotation.
        while let (Some(&last), Some(&period_last)) = (prefix.last(), period.last()) {
            if last == period_last {
                prefix.pop();
                period.rotate_right(1);
            } else {
                break;
            }
        }
        UpWord { prefix, period }
    }

    /// Semantic equality of the denoted ω-words.
    pub fn same_word(&self, other: &UpWord) -> bool {
        let a = self.canonicalize();
        let b = other.canonicalize();
        a == b
    }

    /// Formats as `u.(v)^ω` using symbol names.
    pub fn display(&self, alphabet: &Alphabet) -> String {
        let v = self
            .period
            .iter()
            .map(|&s| alphabet.name(s))
            .collect::<Vec<_>>()
            .join(".");
        if self.prefix.is_empty() {
            format!("({v})^ω")
        } else {
            let u = self
                .prefix
                .iter()
                .map(|&s| alphabet.name(s))
                .collect::<Vec<_>>()
                .join(".");
            format!("{u}.({v})^ω")
        }
    }

    /// The longest common prefix length with another ω-word, or `None` when
    /// the words are equal (common prefix is infinite).
    ///
    /// This is the `common(x, y)` of Definition 4.8.
    pub fn common_prefix_len(&self, other: &UpWord) -> Option<usize> {
        if self.same_word(other) {
            return None;
        }
        // Distinct ultimately periodic words differ within |u1|+|u2|+lcm-ish
        // bounds; p1+p2+2*lcm(q1,q2) is a safe horizon.
        let bound =
            self.prefix.len() + other.prefix.len() + 2 * lcm(self.period.len(), other.period.len());
        for i in 0..=bound {
            if self.at(i) != other.at(i) {
                return Some(i);
            }
        }
        unreachable!("distinct ultimately periodic words must differ within the bound")
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: usize, b: usize) -> usize {
    a / gcd(a, b) * b
}

impl fmt::Display for UpWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self
            .period
            .iter()
            .map(|s| s.index().to_string())
            .collect::<Vec<_>>()
            .join(".");
        if self.prefix.is_empty() {
            write!(f, "({v})^ω")
        } else {
            let u = self
                .prefix
                .iter()
                .map(|s| s.index().to_string())
                .collect::<Vec<_>>()
                .join(".");
            write!(f, "{u}.({v})^ω")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms() -> (Symbol, Symbol) {
        let ab = Alphabet::new(["a", "b"]).unwrap();
        (ab.symbol("a").unwrap(), ab.symbol("b").unwrap())
    }

    #[test]
    fn rejects_empty_period() {
        let (a, _) = syms();
        assert!(UpWord::new(vec![a], vec![]).is_err());
    }

    #[test]
    fn indexing_wraps() {
        let (a, b) = syms();
        let w = UpWord::new(vec![a, a], vec![b, a]).unwrap();
        let expect = [a, a, b, a, b, a, b, a];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(w.at(i), e, "position {i}");
        }
    }

    #[test]
    fn suffix_inside_prefix_and_period() {
        let (a, b) = syms();
        let w = UpWord::new(vec![a, b], vec![a, a, b]).unwrap();
        let s1 = w.suffix(1);
        assert_eq!(s1.prefix(), &[b]);
        let s4 = w.suffix(4); // inside period at offset 2
        for i in 0..10 {
            assert_eq!(s4.at(i), w.at(4 + i), "position {i}");
        }
    }

    #[test]
    fn canonical_equality() {
        let (a, b) = syms();
        // a (b a)^ω == (a b)^ω
        let w1 = UpWord::new(vec![a], vec![b, a]).unwrap();
        let w2 = UpWord::periodic(vec![a, b]).unwrap();
        assert!(w1.same_word(&w2));
        // (a b a b)^ω == (a b)^ω (primitive root)
        let w3 = UpWord::periodic(vec![a, b, a, b]).unwrap();
        assert!(w3.same_word(&w2));
        let w4 = UpWord::periodic(vec![b, a]).unwrap();
        assert!(!w4.same_word(&UpWord::periodic(vec![a]).unwrap()));
        // rotations: (ab)^ω != (ba)^ω (they differ at position 0)
        assert!(!w2.same_word(&w4));
    }

    #[test]
    fn common_prefix_len_matches_manual() {
        let (a, b) = syms();
        let w1 = UpWord::periodic(vec![a, b]).unwrap();
        let w2 = UpWord::periodic(vec![a, a]).unwrap();
        assert_eq!(w1.common_prefix_len(&w2), Some(1));
        let w3 = UpWord::new(vec![a], vec![b, a]).unwrap();
        assert_eq!(w1.common_prefix_len(&w3), None);
    }

    #[test]
    fn display_format() {
        let ab = Alphabet::new(["a", "b"]).unwrap();
        let (a, b) = (ab.symbol("a").unwrap(), ab.symbol("b").unwrap());
        let w = UpWord::new(vec![a], vec![b]).unwrap();
        assert_eq!(w.display(&ab), "a.(b)^ω");
        assert_eq!(UpWord::periodic(vec![a]).unwrap().display(&ab), "(a)^ω");
    }

    #[test]
    fn prepend_shifts_positions() {
        let (a, b) = syms();
        let w = UpWord::periodic(vec![b]).unwrap().prepend(&[a, a]);
        assert_eq!(w.at(0), a);
        assert_eq!(w.at(1), a);
        assert_eq!(w.at(2), b);
    }

    #[test]
    fn unroll_prefix() {
        let (a, b) = syms();
        let w = UpWord::new(vec![a], vec![b]).unwrap();
        assert_eq!(w.unroll(4), vec![a, b, b, b]);
    }
}
