//! Maximal words and the `#`-extension of Section 8.
//!
//! Theorems 8.2/8.3 require that `h(L)` contains no *maximal* words (words
//! that are not a proper prefix of another word of the language): a maximal
//! word is an abstract behavior that stops, and `lim(h(L))` would silently
//! drop it. The paper's remedy (after [Nitsche–Ochsenschläger 96]) is to
//! extend maximal words by `{#}*`, keeping them visible in the limit.

use rl_automata::{Alphabet, AutomataError, Guard, Nfa};

/// The terminator action used by [`extend_with_hash`].
pub const HASH_ACTION: &str = "#";

/// Whether the (prefix-closed) language contains maximal words.
///
/// Decided on the trimmed DFA: a maximal word is one reaching an accepting
/// state with no live outgoing transition. The abstraction pipeline reads
/// the same condition off its own DFA of `h(L)`
/// ([`rl_automata::Dfa::has_maximal_words`]); this function is that
/// read's test oracle.
///
/// # Example
///
/// ```
/// use rl_automata::{Alphabet, Nfa};
/// use rl_abstraction::has_maximal_words;
///
/// # fn main() -> Result<(), rl_automata::AutomataError> {
/// let ab = Alphabet::new(["a"])?;
/// let a = ab.symbol("a").unwrap();
/// // L = {ε, a}: "a" is maximal.
/// let l = Nfa::from_parts(ab.clone(), 2, [0], [0, 1], [(0, a, 1)])?;
/// assert!(has_maximal_words(&l));
/// // L = a*: no maximal words.
/// let astar = Nfa::from_parts(ab, 1, [0], [0], [(0, a, 0)])?;
/// assert!(!has_maximal_words(&astar));
/// # Ok(())
/// # }
/// ```
pub fn has_maximal_words(language: &Nfa) -> bool {
    has_maximal_words_with(language, &Guard::unlimited()).expect("an unlimited guard never trips")
}

/// [`has_maximal_words`] under a resource [`Guard`] (the subset construction
/// on the language can blow up even over small — in particular unary —
/// alphabets).
///
/// # Errors
///
/// Returns a budget error when the guard trips during determinization.
pub fn has_maximal_words_with(language: &Nfa, guard: &Guard) -> Result<bool, AutomataError> {
    let _span = guard.span("maximal_words");
    let d = language.determinize_with(guard)?;
    let nfa = d.to_nfa();
    let reach = nfa.reachable();
    let coreach = nfa.coreachable();
    for q in 0..d.state_count() {
        if !(reach[q] && coreach[q] && d.is_accepting(q)) {
            continue;
        }
        // Is there a live outgoing transition into a state from which an
        // accepting state remains reachable?
        let extendable = d
            .alphabet()
            .symbols()
            .any(|a| d.next(q, a).is_some_and(|t| reach[t] && coreach[t]));
        if !extendable {
            return Ok(true);
        }
    }
    Ok(false)
}

/// The `{#}*`-extension: adds a fresh terminator action `#` and lets every
/// maximal word continue with `#^*`, making `lim` preserve it.
///
/// The result is over the alphabet `Σ' ∪ {#}` and has no maximal words.
///
/// # Errors
///
/// Returns [`AutomataError::DuplicateSymbol`] when the alphabet already
/// contains `#`.
pub fn extend_with_hash(language: &Nfa) -> Result<Nfa, AutomataError> {
    let mut names = language.alphabet().names();
    if names.iter().any(|n| n == HASH_ACTION) {
        return Err(AutomataError::DuplicateSymbol(HASH_ACTION.to_owned()));
    }
    names.push(HASH_ACTION.to_owned());
    let alphabet = Alphabet::new(names)?;
    let hash = alphabet.symbol(HASH_ACTION).expect("just added");

    let d = language.determinize();
    let base = d.to_nfa();
    let reach = base.reachable();
    let coreach = base.coreachable();

    let mut out = Nfa::new(alphabet);
    for q in 0..d.state_count() {
        out.add_state(d.is_accepting(q));
    }
    for &q in base.initial() {
        out.set_initial(q);
    }
    for (p, a, q) in base.transitions() {
        // Translate symbols by name into the extended alphabet (same order).
        out.add_transition(p, rl_automata::Symbol::from_index(a.index()), q);
    }
    for q in 0..d.state_count() {
        if !(reach[q] && coreach[q] && d.is_accepting(q)) {
            continue;
        }
        let extendable = d
            .alphabet()
            .symbols()
            .any(|a| d.next(q, a).is_some_and(|t| reach[t] && coreach[t]));
        if !extendable {
            out.add_transition(q, hash, q);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extension_removes_maximal_words() {
        let ab = Alphabet::new(["a"]).unwrap();
        let a = ab.symbol("a").unwrap();
        let l = Nfa::from_parts(ab, 2, [0], [0, 1], [(0, a, 1)]).unwrap();
        assert!(has_maximal_words(&l));
        let ext = extend_with_hash(&l).unwrap();
        assert!(!has_maximal_words(&ext));
        let hash = ext.alphabet().symbol(HASH_ACTION).unwrap();
        let a2 = ext.alphabet().symbol("a").unwrap();
        assert!(ext.accepts(&[a2, hash, hash]));
        assert!(!ext.accepts(&[hash]));
    }

    #[test]
    fn extension_rejects_existing_hash() {
        let ab = Alphabet::new(["#"]).unwrap();
        let l = Nfa::new(ab);
        assert!(extend_with_hash(&l).is_err());
    }

    #[test]
    fn finite_branches_of_infinite_language() {
        let ab = Alphabet::new(["a", "b"]).unwrap();
        let a = ab.symbol("a").unwrap();
        let b = ab.symbol("b").unwrap();
        // L = a* + a*b: the b-words are maximal.
        let l = Nfa::from_parts(ab, 2, [0], [0, 1], [(0, a, 0), (0, b, 1)]).unwrap();
        assert!(has_maximal_words(&l));
    }
}
