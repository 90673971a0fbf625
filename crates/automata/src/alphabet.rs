//! Interned alphabets and symbols.

use std::fmt;
use std::sync::Arc;

use crate::error::AutomataError;

/// A symbol (action letter) of an [`Alphabet`].
///
/// Symbols are small indices; they are only meaningful together with the
/// alphabet that created them. All automaton transitions are labeled with
/// `Symbol`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// Returns the dense index of this symbol within its alphabet.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a symbol from a dense index.
    ///
    /// Prefer [`Alphabet::symbol`]; this is for iteration code that already
    /// knows the index is in range.
    pub fn from_index(idx: usize) -> Symbol {
        Symbol(idx as u32)
    }
}

#[derive(Debug)]
struct Inner {
    /// Every name, end to end in symbol order: symbol `i`'s name ends at
    /// `ends[i]` and starts where the one before it ends.
    text: String,
    ends: Box<[usize]>,
    /// Every symbol once, ordered by name, beside its name's [`prefix`]:
    /// a lookup binary-searches the integers and compares whole names (in
    /// `text`, so none is stored twice) only where they tie.
    by_name: Box<[(u64, Symbol)]>,
}

impl Inner {
    fn name(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }
}

/// A name's first eight bytes as a big-endian integer, zero-padded: it
/// never decreases as names increase, so it orders names as far as it can
/// tell them apart.
fn prefix(name: &str) -> u64 {
    let mut head = [0u8; 8];
    let n = name.len().min(8);
    head[..n].copy_from_slice(&name.as_bytes()[..n]);
    u64::from_be_bytes(head)
}

/// A finite, named action alphabet `Σ`.
///
/// Alphabets are cheap to clone (internally reference counted) and compare
/// equal when they intern the same symbol names in the same order. Automata
/// over different alphabets refuse to be combined.
///
/// # Example
///
/// ```
/// use rl_automata::Alphabet;
///
/// # fn main() -> Result<(), rl_automata::AutomataError> {
/// let ab = Alphabet::new(["request", "result", "reject"])?;
/// assert_eq!(ab.len(), 3);
/// let r = ab.symbol("request").unwrap();
/// assert_eq!(ab.name(r), "request");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Alphabet {
    inner: Arc<Inner>,
}

impl Alphabet {
    /// Creates an alphabet from symbol names, in order.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::DuplicateSymbol`] if a name repeats and
    /// [`AutomataError::EmptyAlphabet`] if no names are given.
    pub fn new<I, S>(names: I) -> Result<Alphabet, AutomataError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut text = String::new();
        let mut ends = Vec::new();
        let mut by_name = Vec::new();
        for name in names {
            let name = name.as_ref();
            text.push_str(name);
            by_name.push((prefix(name), Symbol::from_index(ends.len())));
            ends.push(text.len());
        }
        if ends.is_empty() {
            return Err(AutomataError::EmptyAlphabet);
        }
        let mut inner = Inner {
            text,
            ends: ends.into_boxed_slice(),
            by_name: Box::default(),
        };
        let name = |s: Symbol| inner.name(s.index());
        // Stable: equal names stay in declaration order, so each run's
        // second symbol is where that name first repeats.
        by_name.sort_by(|&(p, a), &(q, b)| p.cmp(&q).then_with(|| name(a).cmp(name(b))));
        let repeat = by_name
            .windows(2)
            .filter(|w| name(w[0].1) == name(w[1].1))
            .map(|w| w[1].1)
            .min();
        if let Some(sym) = repeat {
            return Err(AutomataError::DuplicateSymbol(name(sym).to_owned()));
        }
        inner.by_name = by_name.into_boxed_slice();
        Ok(Alphabet {
            inner: Arc::new(inner),
        })
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.inner.ends.len()
    }

    /// Whether the alphabet has no symbols (never true for constructed ones).
    pub fn is_empty(&self) -> bool {
        self.inner.ends.is_empty()
    }

    /// Looks up a symbol by name.
    pub fn symbol(&self, name: &str) -> Option<Symbol> {
        let inner = &*self.inner;
        let key = prefix(name);
        inner
            .by_name
            .binary_search_by(|&(p, s)| p.cmp(&key).then_with(|| inner.name(s.index()).cmp(name)))
            .ok()
            .map(|i| inner.by_name[i].1)
    }

    /// Looks up a symbol by name, erroring when absent.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::UnknownSymbol`] when `name` is not interned.
    pub fn require(&self, name: &str) -> Result<Symbol, AutomataError> {
        self.symbol(name)
            .ok_or_else(|| AutomataError::UnknownSymbol(name.to_owned()))
    }

    /// The name of a symbol.
    ///
    /// # Panics
    ///
    /// Panics if `sym` does not belong to this alphabet.
    pub fn name(&self, sym: Symbol) -> &str {
        self.inner.name(sym.index())
    }

    /// Iterates over all symbols in index order.
    pub fn symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        (0..self.len()).map(Symbol::from_index)
    }

    /// Iterates over `(symbol, name)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> + '_ {
        (0..self.len()).map(|i| (Symbol::from_index(i), self.inner.name(i)))
    }

    /// All symbol names, in index order.
    pub fn names(&self) -> Vec<String> {
        self.iter().map(|(_, name)| name.to_owned()).collect()
    }

    /// Checks that two alphabets intern the same names in the same order.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::AlphabetMismatch`] when they differ.
    pub fn check_compatible(&self, other: &Alphabet) -> Result<(), AutomataError> {
        if self == other {
            Ok(())
        } else {
            Err(AutomataError::AlphabetMismatch {
                left: self.names(),
                right: other.names(),
            })
        }
    }
}

impl PartialEq for Alphabet {
    fn eq(&self, other: &Alphabet) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
            || (self.inner.ends == other.inner.ends && self.inner.text == other.inner.text)
    }
}

impl Eq for Alphabet {}

impl fmt::Display for Alphabet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.names().join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interns_in_order() {
        let ab = Alphabet::new(["x", "y", "z"]).unwrap();
        assert_eq!(ab.len(), 3);
        assert_eq!(ab.symbol("y").unwrap().index(), 1);
        assert_eq!(ab.name(Symbol::from_index(2)), "z");
    }

    #[test]
    fn rejects_duplicates() {
        let err = Alphabet::new(["x", "x"]).unwrap_err();
        assert_eq!(err, AutomataError::DuplicateSymbol("x".into()));
    }

    #[test]
    fn reports_the_first_name_that_repeats() {
        // "y" repeats at index 3, before "x" repeats at index 4.
        let err = Alphabet::new(["x", "y", "z", "y", "x"]).unwrap_err();
        assert_eq!(err, AutomataError::DuplicateSymbol("y".into()));
        let err = Alphabet::new(["b", "a", "b", "a"]).unwrap_err();
        assert_eq!(err, AutomataError::DuplicateSymbol("b".into()));
    }

    #[test]
    fn finds_every_name_and_no_other() {
        let names = [
            "pass0",
            "work0",
            "pass1",
            "",
            "->",
            "∅",
            "busy×2",
            "ab",
            "ab\0",
            "request0",
            "request1",
            "request10",
        ];
        let ab = Alphabet::new(names).unwrap();
        for (i, name) in names.iter().enumerate() {
            assert_eq!(ab.symbol(name), Some(Symbol::from_index(i)), "{name}");
        }
        for absent in ["pass", "work00", "z", "busy"] {
            assert_eq!(ab.symbol(absent), None, "{absent}");
        }
    }

    #[test]
    fn rejects_empty() {
        let err = Alphabet::new(Vec::<String>::new()).unwrap_err();
        assert_eq!(err, AutomataError::EmptyAlphabet);
    }

    #[test]
    fn equality_is_structural() {
        let a = Alphabet::new(["p", "q"]).unwrap();
        let b = Alphabet::new(["p", "q"]).unwrap();
        let c = Alphabet::new(["q", "p"]).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.check_compatible(&b).is_ok());
        assert!(a.check_compatible(&c).is_err());
    }

    #[test]
    fn require_reports_unknown() {
        let a = Alphabet::new(["p"]).unwrap();
        assert_eq!(
            a.require("nope").unwrap_err(),
            AutomataError::UnknownSymbol("nope".into())
        );
    }

    #[test]
    fn display_lists_names() {
        let a = Alphabet::new(["p", "q"]).unwrap();
        assert_eq!(a.to_string(), "{p, q}");
    }
}
