//! Labeling functions `λ : Σ → 2^AP` (Section 3 and Definitions 7.2/7.3).
//!
//! PLTL formulas speak about atomic propositions; ω-words are sequences of
//! alphabet symbols. A [`Labeling`] bridges the two: it assigns to every
//! symbol the set of propositions that hold when that symbol occurs.

use std::collections::{BTreeMap, BTreeSet};

use rl_automata::{Alphabet, AutomataError, FxHashMap, Symbol};

/// The proposition name used for hidden actions by the canonical
/// homomorphism labeling `λ_hΣΣ'` (Definition 7.3): a concrete action `a`
/// with `h(a) = ε` satisfies exactly this proposition.
pub const EPSILON_PROP: &str = "ε";

/// A labeling function `λ : Σ → 2^AP`.
///
/// # Example
///
/// ```
/// use rl_automata::Alphabet;
/// use rl_logic::Labeling;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ab = Alphabet::new(["request", "result"])?;
/// let lam = Labeling::canonical(&ab);
/// let request = ab.symbol("request").unwrap();
/// assert!(lam.satisfies(request, "request"));
/// assert!(!lam.satisfies(request, "result"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Labeling {
    alphabet: Alphabet,
    /// The propositions of a general labeling; `None` for the canonical
    /// `λ_Σ`, whose propositions are the letters' own names.
    assigned: Option<Assigned>,
}

/// The propositions of a labeling built by [`Labeling::from_fn`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct Assigned {
    props: Vec<String>,
    index: BTreeMap<String, usize>,
    sat: Vec<BTreeSet<usize>>, // per symbol: indices of true propositions
}

impl Labeling {
    /// The canonical `λ_Σ` of Definition 7.2: propositions are the symbol
    /// names themselves and `λ_Σ(a) = {a}`.
    pub fn canonical(alphabet: &Alphabet) -> Labeling {
        Labeling {
            alphabet: alphabet.clone(),
            assigned: None,
        }
    }

    /// A general labeling: `assign(a)` lists the proposition names true at
    /// symbol `a`. The proposition set is the union of all assigned names.
    ///
    /// # Errors
    ///
    /// Currently infallible; fallible for future validation uniformity.
    pub fn from_fn(
        alphabet: &Alphabet,
        assign: impl Fn(Symbol) -> Vec<String>,
    ) -> Result<Labeling, AutomataError> {
        let mut props: Vec<String> = Vec::new();
        let mut index: BTreeMap<String, usize> = BTreeMap::new();
        let mut sat: Vec<BTreeSet<usize>> = Vec::new();
        for a in alphabet.symbols() {
            let mut set = BTreeSet::new();
            for name in assign(a) {
                let i = *index.entry(name.clone()).or_insert_with(|| {
                    props.push(name.clone());
                    props.len() - 1
                });
                set.insert(i);
            }
            sat.push(set);
        }
        Ok(Labeling {
            alphabet: alphabet.clone(),
            assigned: Some(Assigned { props, index, sat }),
        })
    }

    /// The alphabet this labeling interprets.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// All proposition names, in interning order (alphabet order for the
    /// canonical labeling).
    pub fn props(&self) -> Vec<&str> {
        match &self.assigned {
            None => self.alphabet.iter().map(|(_, name)| name).collect(),
            Some(x) => x.props.iter().map(String::as_str).collect(),
        }
    }

    /// Whether proposition `prop` holds at symbol `a`. Unknown proposition
    /// names hold nowhere.
    pub fn satisfies(&self, a: Symbol, prop: &str) -> bool {
        match &self.assigned {
            None => self.alphabet.name(a) == prop,
            Some(x) => x
                .index
                .get(prop)
                .is_some_and(|i| x.sat[a.index()].contains(i)),
        }
    }

    /// The proposition names true at symbol `a`.
    pub fn props_at(&self, a: Symbol) -> Vec<&str> {
        match &self.assigned {
            None => vec![self.alphabet.name(a)],
            Some(x) => x.sat[a.index()]
                .iter()
                .map(|&i| x.props[i].as_str())
                .collect(),
        }
    }

    /// Partitions the alphabet by which of `atoms` each letter satisfies.
    ///
    /// Under `λ_Σ` an atom holds at the one letter it names, so there are
    /// at most `atoms.len() + 1` classes, found from the atoms' symbol
    /// lookups and one fill of the letter map.
    pub(crate) fn classes(&self, atoms: &[&str]) -> LetterClasses {
        let mut classes = LetterClasses {
            class_of: Vec::new(),
            holds: Vec::new(),
            atoms: atoms.len(),
            count: 0,
        };
        match &self.assigned {
            None => {
                // Each atom holds at the one letter it names. Classes are
                // numbered by their least letters: the named letters below
                // the least unnamed letter `u`, then the class of every
                // unnamed letter, then the named letters above `u`.
                let mut named: Vec<(usize, usize)> = atoms
                    .iter()
                    .enumerate()
                    .filter_map(|(i, atom)| Some((self.alphabet.symbol(atom)?.index(), i)))
                    .collect();
                named.sort_unstable();
                let len = self.alphabet.len();
                let u = (named.iter().enumerate())
                    .position(|(j, &(a, _))| a != j)
                    .unwrap_or(named.len());
                classes.class_of = vec![Symbol::from_index(u); len];
                for (j, &(a, i)) in named.iter().enumerate() {
                    if j == u {
                        classes.push(|_| false);
                    }
                    classes.class_of[a] = classes.push(|k| k == i);
                }
                if classes.count == u && u < len {
                    classes.push(|_| false);
                }
            }
            Some(x) => {
                let ids: Vec<Option<usize>> = atoms
                    .iter()
                    .map(|atom| x.index.get(*atom).copied())
                    .collect();
                let mut seen: FxHashMap<Vec<bool>, Symbol> = FxHashMap::default();
                for sat in &x.sat {
                    let key: Vec<bool> = ids
                        .iter()
                        .map(|id| id.is_some_and(|i| sat.contains(&i)))
                        .collect();
                    let c = match seen.get(&key) {
                        Some(&c) => c,
                        None => {
                            let c = classes.push(|k| key[k]);
                            seen.insert(key, c);
                            c
                        }
                    };
                    classes.class_of.push(c);
                }
            }
        }
        classes
    }
}

/// A partition of the alphabet into classes of letters that satisfy the
/// same atoms, numbered in the order of their least letters.
#[derive(Debug)]
pub(crate) struct LetterClasses {
    /// `class_of[a]`: the class of letter `a`.
    pub(crate) class_of: Vec<Symbol>,
    /// `holds[c * atoms + i]`: whether atom `i` holds in class `c`.
    holds: Vec<bool>,
    atoms: usize,
    /// Number of classes.
    pub(crate) count: usize,
}

impl LetterClasses {
    /// Appends a class in which atom `i` holds when `holds(i)`.
    fn push(&mut self, holds: impl Fn(usize) -> bool) -> Symbol {
        self.holds.extend((0..self.atoms).map(holds));
        self.count += 1;
        Symbol::from_index(self.count - 1)
    }

    /// Whether atom `i` holds at the letters of class `c`.
    pub(crate) fn holds(&self, c: usize, i: usize) -> bool {
        self.holds[c * self.atoms + i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_is_identity_like() {
        let ab = Alphabet::new(["a", "b"]).unwrap();
        let lam = Labeling::canonical(&ab);
        let a = ab.symbol("a").unwrap();
        let b = ab.symbol("b").unwrap();
        assert!(lam.satisfies(a, "a"));
        assert!(!lam.satisfies(a, "b"));
        assert!(lam.satisfies(b, "b"));
        assert!(!lam.satisfies(a, "zzz"));
        assert_eq!(lam.props_at(a), vec!["a"]);
    }

    #[test]
    fn from_fn_builds_homomorphism_style_labelings() {
        // h: lock ↦ ε, request ↦ request.
        let ab = Alphabet::new(["lock", "request"]).unwrap();
        let lam = Labeling::from_fn(&ab, |s| {
            if ab.name(s) == "lock" {
                vec![EPSILON_PROP.to_owned()]
            } else {
                vec![ab.name(s).to_owned()]
            }
        })
        .unwrap();
        let lock = ab.symbol("lock").unwrap();
        let request = ab.symbol("request").unwrap();
        assert!(lam.satisfies(lock, EPSILON_PROP));
        assert!(!lam.satisfies(lock, "lock"));
        assert!(lam.satisfies(request, "request"));
        assert!(!lam.satisfies(request, EPSILON_PROP));
    }

    #[test]
    fn classes_are_numbered_by_their_least_letters() {
        let ab = Alphabet::new(["a", "b", "c", "d"]).unwrap();
        let canonical = Labeling::canonical(&ab);
        let spelled_out = Labeling::from_fn(&ab, |s| vec![ab.name(s).to_owned()]).unwrap();
        for (atoms, want) in [
            (&["c"][..], [0, 0, 1, 0]),
            (&["b", "a", "zz"][..], [0, 1, 2, 2]),
            (&["d", "c", "b", "a"][..], [0, 1, 2, 3]),
            (&[][..], [0, 0, 0, 0]),
        ] {
            let (x, y) = (canonical.classes(atoms), spelled_out.classes(atoms));
            assert_eq!(x.class_of, y.class_of, "{atoms:?}");
            let ids: Vec<usize> = x.class_of.iter().map(|c| c.index()).collect();
            assert_eq!(ids, want, "{atoms:?}");
            for (c, i) in (0..x.count).flat_map(|c| (0..atoms.len()).map(move |i| (c, i))) {
                assert_eq!(x.holds(c, i), y.holds(c, i), "{atoms:?}");
            }
        }
    }

    #[test]
    fn multiple_props_per_symbol() {
        let ab = Alphabet::new(["ra"]).unwrap();
        let lam = Labeling::from_fn(&ab, |_| vec!["r".to_owned(), "a".to_owned()]).unwrap();
        let ra = ab.symbol("ra").unwrap();
        assert!(lam.satisfies(ra, "r"));
        assert!(lam.satisfies(ra, "a"));
        assert_eq!(lam.props().len(), 2);
    }
}
