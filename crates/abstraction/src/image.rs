//! Images and inverse images of languages and behaviors under abstracting
//! homomorphisms (Definitions 6.1/6.2).

use rl_automata::{
    AutomataError, Dfa, EdgeRows, Guard, Nfa, StateId, StateSet, Symbol, TransitionSystem,
};
use rl_buchi::Buchi;

use crate::hom::{AbstractionError, Homomorphism};

/// The image `h(L(nfa))` as an NFA over the target alphabet.
///
/// Hidden transitions become ε-transitions, which are then eliminated
/// ([`Nfa::from_epsilon_parts`]). The pipeline does not build this NFA: it
/// determinizes the image straight from the machine with
/// [`image_dfa_with`], and this two-step route is that construction's
/// test oracle.
///
/// # Example
///
/// ```
/// use rl_automata::{parse_word, Alphabet, Nfa};
/// use rl_abstraction::{image_nfa, Homomorphism};
///
/// # fn main() -> Result<(), rl_abstraction::AbstractionError> {
/// let sigma = Alphabet::new(["a", "tau"])?;
/// let a = sigma.symbol("a").unwrap();
/// let tau = sigma.symbol("tau").unwrap();
/// // L = { tau a, a }
/// let l = Nfa::from_parts(sigma.clone(), 3, [0], [2], [(0, tau, 1), (1, a, 2), (0, a, 2)])
///     .map_err(rl_abstraction::AbstractionError::from)?;
/// let h = Homomorphism::hiding(&sigma, ["a"])?;
/// let img = image_nfa(&h, &l);
/// let a_t = h.target().symbol("a").unwrap();
/// assert!(img.accepts(&[a_t]));
/// assert!(!img.accepts(&[]));
/// # Ok(())
/// # }
/// ```
pub fn image_nfa(h: &Homomorphism, nfa: &Nfa) -> Nfa {
    let transitions: Vec<_> = nfa
        .transitions()
        .map(|(p, a, q)| (p, h.apply(a), q))
        .collect();
    Nfa::from_epsilon_parts(
        h.target().clone(),
        nfa.state_count(),
        nfa.initial().iter().copied(),
        (0..nfa.state_count()).filter(|&q| nfa.is_accepting(q)),
        transitions,
    )
    .expect("indices preserved from a valid NFA")
}

/// One subset construction of `h(L(rows))`, from several start subsets at
/// once: the DFA and its state for each root, in `roots` order (the first
/// root's state is initial).
///
/// `rows` is any automaton the construction reads ([`Nfa`], [`Dfa`],
/// [`TransitionSystem`]). The subsets are ε-closed sets of its own states
/// (see [`EdgeRows::determinize_image_with`]), so neither an ε-eliminated
/// automaton nor an [`Nfa`] copy is built;
/// [`image_nfa`] followed by a determinization accepts the same language
/// from each root and serves as this construction's test oracle. The
/// guard is charged one state per subset and one transition per DFA edge,
/// under one `determinize` span.
///
/// # Errors
///
/// [`AutomataError::AlphabetMismatch`](rl_automata::AutomataError) when
/// `rows` is not over `h`'s source alphabet, and the guard's budget,
/// deadline and cancellation errors.
pub fn image_dfa_with<R: EdgeRows + ?Sized>(
    h: &Homomorphism,
    rows: &R,
    roots: &[StateSet],
    guard: &Guard,
) -> Result<(Dfa, Vec<StateId>), AutomataError> {
    h.source().check_compatible(rows.alphabet())?;
    let relabel: Vec<Option<Symbol>> = h.source().symbols().map(|a| h.apply(a)).collect();
    rows.determinize_image_with(h.target(), &relabel, roots, guard)
}

/// The abstract behavior generator of Definition 6.2: the transition system
/// whose prefix-closed language is `h(L)` where `L` is `ts`'s language, and
/// whose ω-behavior is therefore `lim(h(L))`.
///
/// The result is the *minimized deterministic* presentation of `h(L)`
/// (restricted to live states), which is what the paper's Figure 4 shows.
pub fn abstract_behavior(h: &Homomorphism, ts: &TransitionSystem) -> TransitionSystem {
    abstract_behavior_with(h, ts, &Guard::unlimited()).expect("an unlimited guard never trips")
}

/// [`abstract_behavior`] under a resource [`Guard`]: the subset construction
/// of `h(L)` is charged against the guard's budget.
///
/// # Errors
///
/// Returns [`AbstractionError::Automata`] carrying a budget error when the
/// guard trips.
pub fn abstract_behavior_with(
    h: &Homomorphism,
    ts: &TransitionSystem,
    guard: &Guard,
) -> Result<TransitionSystem, AbstractionError> {
    Ok(abstract_image_with(h, ts, guard)?.0)
}

/// The abstract system of [`abstract_behavior_with`] together with
/// whether `h(L)` has maximal words (the side condition of Theorems
/// 8.2/8.3, as [`has_maximal_words_with`](crate::has_maximal_words_with)
/// decides it on [`image_nfa`]), both read off one DFA of `h(L)`.
///
/// Under an `abstract_image` span: [`image_dfa_with`] builds the DFA from
/// `ts`'s own rows (its `determinize` span is the only charged step), a
/// `maximal_words` span looks for a live state without a live successor,
/// and a `minimize` span minimizes it; the rejecting sink is then dropped.
///
/// # Errors
///
/// Returns [`AbstractionError::Automata`] for an alphabet mismatch or when
/// the guard trips.
pub fn abstract_image_with(
    h: &Homomorphism,
    ts: &TransitionSystem,
    guard: &Guard,
) -> Result<(TransitionSystem, bool), AbstractionError> {
    let _span = guard.span("abstract_image");
    let root: StateSet = EdgeRows::initial(ts).collect();
    let (image, _) = image_dfa_with(h, ts, &[root], guard)?;
    let maximal_words = {
        let _span = guard.span("maximal_words");
        image.has_maximal_words()
    };
    let min = image.min_dfa_with(guard);
    // `min` is complete; drop the rejecting sink (h(L) is prefix closed, so
    // live states are exactly the accepting ones).
    let keep: Vec<bool> = (0..min.state_count())
        .map(|q| min.is_accepting(q))
        .collect();
    let live = min.to_nfa().restrict(&keep);
    let system = TransitionSystem::from_nfa(&live).expect("non-empty prefix-closed language");
    Ok((system, maximal_words))
}

/// The inverse image `h⁻¹(L'(nfa))` over the source alphabet, for finite
/// words: accepts `w` iff `h(w) ∈ L'`.
pub fn inverse_image_nfa(h: &Homomorphism, nfa: &Nfa) -> Nfa {
    let mut out = Nfa::new(h.source().clone());
    for q in 0..nfa.state_count() {
        out.add_state(nfa.is_accepting(q));
    }
    for &q in nfa.initial() {
        out.set_initial(q);
    }
    for a in h.source().symbols() {
        match h.apply(a) {
            Some(b) => {
                for (p, sym, q) in nfa.transitions() {
                    if sym == b {
                        out.add_transition(p, a, q);
                    }
                }
            }
            None => {
                // Hidden actions do not advance the abstract word.
                for q in 0..nfa.state_count() {
                    out.add_transition(q, a, q);
                }
            }
        }
    }
    out
}

/// The inverse image `h⁻¹(L'_ω)` of an ω-language: accepts `x` iff `h(x)` is
/// **defined** and `h(x) ∈ L'_ω`.
///
/// Built as the product of the stay-on-hidden structure with the constraint
/// "infinitely many visible actions" (which is what makes `h(x)` defined).
///
/// # Errors
///
/// Propagates alphabet mismatches from the product construction.
pub fn inverse_image_buchi(h: &Homomorphism, b: &Buchi) -> Result<Buchi, AbstractionError> {
    // Structure part: follow visible letters, self-loop on hidden ones.
    let mut st = Buchi::new(h.source().clone());
    for q in 0..b.state_count() {
        st.add_state(b.is_accepting(q));
    }
    for &q in b.initial() {
        st.set_initial(q);
    }
    for a in h.source().symbols() {
        match h.apply(a) {
            Some(t) => {
                for (p, sym, q) in b.transitions() {
                    if sym == t {
                        st.add_transition(p, a, q);
                    }
                }
            }
            None => {
                for q in 0..b.state_count() {
                    st.add_transition(q, a, q);
                }
            }
        }
    }
    // Visibility part: infinitely many visible letters.
    let mut vis = Buchi::new(h.source().clone());
    let wait = vis.add_state(false);
    let seen = vis.add_state(true);
    vis.set_initial(wait);
    for a in h.source().symbols() {
        if h.hides(a) {
            vis.add_transition(wait, a, wait);
            vis.add_transition(seen, a, wait);
        } else {
            vis.add_transition(wait, a, seen);
            vis.add_transition(seen, a, seen);
        }
    }
    Ok(st.intersection(&vis)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_automata::Alphabet;
    use rl_buchi::{behaviors_of_ts, UpWord};

    fn setup() -> (Alphabet, Homomorphism) {
        let sigma = Alphabet::new(["a", "b", "tau"]).unwrap();
        let h = Homomorphism::hiding(&sigma, ["a", "b"]).unwrap();
        (sigma, h)
    }

    #[test]
    fn image_of_ts_language() {
        let (sigma, h) = setup();
        let a = sigma.symbol("a").unwrap();
        let tau = sigma.symbol("tau").unwrap();
        // System: (tau a)* — image should be a*.
        let mut ts = TransitionSystem::new(sigma.clone());
        let s0 = ts.add_state();
        let s1 = ts.add_state();
        ts.set_initial(s0);
        ts.add_transition(s0, tau, s1);
        ts.add_transition(s1, a, s0);
        let abs = abstract_behavior(&h, &ts);
        assert_eq!(abs.state_count(), 1);
        let a_t = h.target().symbol("a").unwrap();
        assert!(abs.admits(&[a_t, a_t, a_t]));
        let b_t = h.target().symbol("b").unwrap();
        assert!(!abs.admits(&[b_t]));
    }

    #[test]
    fn inverse_image_finite_words() {
        let (sigma, h) = setup();
        let a = sigma.symbol("a").unwrap();
        let b = sigma.symbol("b").unwrap();
        let tau = sigma.symbol("tau").unwrap();
        // L' = { ab } over the target.
        let ta = h.target().symbol("a").unwrap();
        let tb = h.target().symbol("b").unwrap();
        let lp =
            Nfa::from_parts(h.target().clone(), 3, [0], [2], [(0, ta, 1), (1, tb, 2)]).unwrap();
        let inv = inverse_image_nfa(&h, &lp);
        assert!(inv.accepts(&[a, b]));
        assert!(inv.accepts(&[tau, a, tau, tau, b, tau]));
        assert!(!inv.accepts(&[a]));
        assert!(!inv.accepts(&[b, a]));
    }

    #[test]
    fn inverse_image_omega_requires_defined_h() {
        let (sigma, h) = setup();
        let a = sigma.symbol("a").unwrap();
        let tau = sigma.symbol("tau").unwrap();
        // L' = a^ω over the target.
        let ta = h.target().symbol("a").unwrap();
        let lp = Buchi::from_parts(h.target().clone(), 1, [0], [0], [(0, ta, 0)]).unwrap();
        let inv = inverse_image_buchi(&h, &lp).unwrap();
        assert!(inv.accepts_upword(&UpWord::periodic(vec![a]).unwrap()));
        assert!(inv.accepts_upword(&UpWord::periodic(vec![tau, a]).unwrap()));
        // h(x) undefined: not in the inverse image even though the abstract
        // prefix matches.
        assert!(!inv.accepts_upword(&UpWord::new(vec![a, a], vec![tau]).unwrap()));
    }

    #[test]
    fn image_behaviors_commute_on_example() {
        // Check lim(h(L)) membership against image of concrete lassos
        // (Lemma 8.1 in miniature).
        let (sigma, h) = setup();
        let a = sigma.symbol("a").unwrap();
        let tau = sigma.symbol("tau").unwrap();
        let mut ts = TransitionSystem::new(sigma.clone());
        let s0 = ts.add_state();
        let s1 = ts.add_state();
        ts.set_initial(s0);
        ts.add_transition(s0, tau, s1);
        ts.add_transition(s1, a, s0);
        ts.add_transition(s1, tau, s1);
        let abs = abstract_behavior(&h, &ts);
        let abs_beh = behaviors_of_ts(&abs);
        let conc = UpWord::periodic(vec![tau, a]).unwrap();
        let img = h.apply_upword(&conc).unwrap();
        assert!(behaviors_of_ts(&ts).accepts_upword(&conc));
        assert!(abs_beh.accepts_upword(&img));
    }
}
