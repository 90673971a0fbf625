//! Workload generators for the benchmark suite (experiments E8, E13, E14 of
//! DESIGN.md).
//!
//! The paper has no measured evaluation (it is a theory extended abstract),
//! so the quantitative experiments here characterize the implemented
//! decision procedures of Theorem 4.5 and the practical payoff of the
//! Section 8 abstraction workflow:
//!
//! * [`server_farm`] — `k` independent copies of the paper's Figure 1
//!   server, composed by interleaving: state space `8^k`, the natural
//!   "bigger version" of the running example,
//! * [`token_ring`] — an `n`-station ring passing a token, a classic
//!   structured scaling family,
//! * [`nth_from_end_property`] — the textbook determinization-hardness
//!   family (`a` at the `n`-th position from the end), driving the
//!   exponential worst case that PSPACE-hardness (Theorem 4.5) predicts,
//! * [`random_system`] — seeded random transition systems,
//! * [`fairness_chain`] — PLTL formula families of growing size for the
//!   translation benchmarks,
//! * [`alternating_bit`] — the alternating-bit protocol over a lossy
//!   channel: the textbook system whose liveness is *exactly* a relative
//!   liveness property.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl_automata::{Alphabet, Symbol, TransitionSystem};
use rl_buchi::Buchi;
use rl_logic::Formula;
use rl_petri::reachability_graph;
use rl_petri::PetriNet;

/// One server (the paper's Figure 1), with all actions suffixed by `idx` so
/// that composed copies interleave instead of synchronizing.
pub fn indexed_server(idx: usize) -> TransitionSystem {
    let mut net = PetriNet::new();
    let idle = net.add_place(format!("idle{idx}"), 1).expect("fresh");
    let busy = net.add_place(format!("busy{idx}"), 0).expect("fresh");
    let granting = net.add_place(format!("granting{idx}"), 0).expect("fresh");
    let rejecting = net.add_place(format!("rejecting{idx}"), 0).expect("fresh");
    let free = net.add_place(format!("free{idx}"), 1).expect("fresh");
    let locked = net.add_place(format!("locked{idx}"), 0).expect("fresh");
    net.add_transition(format!("request{idx}"), [(idle, 1)], [(busy, 1)])
        .expect("valid");
    net.add_transition(
        format!("yes{idx}"),
        [(busy, 1), (free, 1)],
        [(granting, 1), (free, 1)],
    )
    .expect("valid");
    net.add_transition(
        format!("no{idx}"),
        [(busy, 1), (locked, 1)],
        [(rejecting, 1), (locked, 1)],
    )
    .expect("valid");
    net.add_transition(format!("result{idx}"), [(granting, 1)], [(idle, 1)])
        .expect("valid");
    net.add_transition(format!("reject{idx}"), [(rejecting, 1)], [(idle, 1)])
        .expect("valid");
    net.add_transition(format!("lock{idx}"), [(free, 1)], [(locked, 1)])
        .expect("valid");
    net.add_transition(format!("free{idx}"), [(locked, 1)], [(free, 1)])
        .expect("valid");
    reachability_graph(&net, 100).expect("1-bounded")
}

/// `k` interleaved copies of the Figure 1 server: `8^k` states.
pub fn server_farm(k: usize) -> TransitionSystem {
    assert!(k >= 1, "at least one server");
    let mut sys = indexed_server(0);
    for i in 1..k {
        sys = sys.compose(&indexed_server(i)).expect("disjoint alphabets");
    }
    sys
}

/// The observable actions of a `k`-server farm (requests/results/rejects of
/// every server).
pub fn farm_observables(k: usize) -> Vec<String> {
    let mut names = Vec::new();
    for i in 0..k {
        names.push(format!("request{i}"));
        names.push(format!("result{i}"));
        names.push(format!("reject{i}"));
    }
    names
}

/// An `n`-station token ring: station `i` passes the token with action
/// `pass_i`; each station may also `work_i` while holding the token.
/// `□◇pass_0` is a relative liveness property (the token can always travel).
pub fn token_ring(n: usize) -> TransitionSystem {
    assert!(n >= 2, "ring needs at least 2 stations");
    let mut names = Vec::new();
    for i in 0..n {
        names.push(format!("pass{i}"));
        names.push(format!("work{i}"));
    }
    let ab = Alphabet::new(names).expect("distinct names");
    let mut ts = TransitionSystem::new(ab.clone());
    for i in 0..n {
        ts.add_labeled_state(format!("token@{i}"));
    }
    ts.set_initial(0);
    for i in 0..n {
        let pass = ab.symbol(&format!("pass{i}")).expect("interned");
        let work = ab.symbol(&format!("work{i}")).expect("interned");
        ts.add_transition(i, pass, (i + 1) % n);
        ts.add_transition(i, work, i);
    }
    ts
}

/// A seeded random transition system over an alphabet of `k` actions with
/// `n` states and roughly `density × n × k` transitions.
pub fn random_system(seed: u64, n: usize, k: usize, density: f64) -> TransitionSystem {
    let names: Vec<String> = (0..k).map(|i| format!("t{i}")).collect();
    let ab = Alphabet::new(names).expect("distinct names");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ts = TransitionSystem::new(ab);
    for _ in 0..n {
        ts.add_state();
    }
    ts.set_initial(0);
    for p in 0..n {
        for s in 0..k {
            if rng.gen_bool(density.clamp(0.0, 1.0)) {
                let q = rng.gen_range(0..n);
                ts.add_transition(p, Symbol::from_index(s), q);
            }
        }
        // Avoid deadlocks: guarantee one outgoing edge.
        if ts.enabled(p).is_empty() {
            let s = rng.gen_range(0..k);
            let q = rng.gen_range(0..n);
            ts.add_transition(p, Symbol::from_index(s), q);
        }
    }
    ts
}

/// The determinization-hardness property over `{a, b}`: Büchi automaton for
/// "infinitely often, the letter `n` positions back is an `a`" — its prefix
/// analysis forces `2^n` subsets, exhibiting the exponential worst case the
/// PSPACE bound of Theorem 4.5 allows.
pub fn nth_from_end_property(n: usize) -> Buchi {
    let ab = Alphabet::new(["a", "b"]).expect("two symbols");
    let a = ab.symbol("a").expect("interned");
    let b_sym = ab.symbol("b").expect("interned");
    // NFA-style Büchi: guess the distinguished `a`, count n letters, accept,
    // restart. States: 0 = idle (self-loop on both), 1..=n = counting,
    // state n is accepting and loops back to idle behavior.
    let mut m = Buchi::new(ab);
    for i in 0..=n {
        m.add_state(i == n);
    }
    m.set_initial(0);
    m.add_transition(0, a, 0);
    m.add_transition(0, b_sym, 0);
    m.add_transition(0, a, 1); // guess: this `a` is n-from-the-end of a block
    for i in 1..n {
        m.add_transition(i, a, i + 1);
        m.add_transition(i, b_sym, i + 1);
    }
    // Restart after the block.
    m.add_transition(n, a, 0);
    m.add_transition(n, b_sym, 0);
    m.add_transition(n, a, 1);
    m
}

/// Generalized-fairness formula family: `⋀_{i<k} □◇aᵢ …` expressed over two
/// atoms as `(□◇a → □◇b)` chains of growing size, for the LTL-translation
/// benchmark.
pub fn fairness_chain(k: usize) -> Formula {
    let mut f = Formula::atom("a").eventually().always();
    for i in 0..k {
        let next = if i % 2 == 0 {
            Formula::atom("b").eventually().always()
        } else {
            Formula::atom("a").eventually().always()
        };
        f = f.implies(next);
    }
    f
}

/// Nested-until family `a U (a U (… U b))` of depth `k`.
pub fn nested_until(k: usize) -> Formula {
    let mut f = Formula::atom("b");
    for _ in 0..k {
        f = Formula::atom("a").until(f);
    }
    f
}

/// The alternating-bit protocol over a lossy channel, as a composition of
/// three components (sender, channel, receiver).
///
/// * `send0/send1` — sender puts the current frame on the channel (also
///   used for retransmission);
/// * `deliver0/deliver1` — the channel hands the frame to the receiver;
/// * `lose` — the channel silently drops the frame;
/// * `deliver` — the receiver delivers fresh payload to the application
///   (the observable event);
/// * `ack0/ack1` — receiver acknowledgements, synchronized with the sender
///   (the ack path is modeled reliable; the data channel is the lossy one).
///
/// `□◇deliver` is classically false (the channel may lose every frame
/// forever) but is a **relative liveness** property — the protocol works
/// under fairness. This is the textbook instance of the paper's notion.
pub fn alternating_bit() -> TransitionSystem {
    let [sender, channel, receiver] = alternating_bit_components();
    sender
        .compose(&channel)
        .expect("disjoint-but-synced alphabets")
        .compose(&receiver)
        .expect("disjoint-but-synced alphabets")
}

/// The three components of [`alternating_bit`], before composition — used
/// to demonstrate when the compositional abstraction shortcut applies (it
/// does not here: the hidden actions are exactly the synchronized ones).
pub fn alternating_bit_components() -> [TransitionSystem; 3] {
    // Sender: S0 --send0--> A0; A0: send0 (retransmit), ack0 -> S1,
    //         ack1 ignored; symmetrically for bit 1.
    let sender = {
        let ab = Alphabet::new(["send0", "send1", "ack0", "ack1"]).expect("distinct");
        let send0 = ab.symbol("send0").expect("interned");
        let send1 = ab.symbol("send1").expect("interned");
        let ack0 = ab.symbol("ack0").expect("interned");
        let ack1 = ab.symbol("ack1").expect("interned");
        let mut ts = TransitionSystem::new(ab);
        let s0 = ts.add_labeled_state("S0");
        let a0 = ts.add_labeled_state("A0");
        let s1 = ts.add_labeled_state("S1");
        let a1 = ts.add_labeled_state("A1");
        ts.set_initial(s0);
        ts.add_transition(s0, send0, a0);
        ts.add_transition(a0, send0, a0); // retransmit
        ts.add_transition(a0, ack0, s1);
        ts.add_transition(a0, ack1, a0); // stale ack ignored
        ts.add_transition(s1, send1, a1);
        ts.add_transition(a1, send1, a1);
        ts.add_transition(a1, ack1, s0);
        ts.add_transition(a1, ack0, a1); // stale ack ignored
        ts
    };
    // Lossy channel: empty / holding a 0-frame / holding a 1-frame.
    let channel = {
        let ab =
            Alphabet::new(["send0", "send1", "deliver0", "deliver1", "lose"]).expect("distinct");
        let send0 = ab.symbol("send0").expect("interned");
        let send1 = ab.symbol("send1").expect("interned");
        let deliver0 = ab.symbol("deliver0").expect("interned");
        let deliver1 = ab.symbol("deliver1").expect("interned");
        let lose = ab.symbol("lose").expect("interned");
        let mut ts = TransitionSystem::new(ab);
        let empty = ts.add_labeled_state("empty");
        let c0 = ts.add_labeled_state("frame0");
        let c1 = ts.add_labeled_state("frame1");
        ts.set_initial(empty);
        ts.add_transition(empty, send0, c0);
        ts.add_transition(empty, send1, c1);
        ts.add_transition(c0, deliver0, empty);
        ts.add_transition(c0, lose, empty);
        ts.add_transition(c1, deliver1, empty);
        ts.add_transition(c1, lose, empty);
        ts
    };
    // Receiver: expecting bit b, fresh frames are delivered to the
    // application then acknowledged; duplicate frames are re-acknowledged
    // silently.
    let receiver = {
        let ab =
            Alphabet::new(["deliver0", "deliver1", "ack0", "ack1", "deliver"]).expect("distinct");
        let deliver0 = ab.symbol("deliver0").expect("interned");
        let deliver1 = ab.symbol("deliver1").expect("interned");
        let ack0 = ab.symbol("ack0").expect("interned");
        let ack1 = ab.symbol("ack1").expect("interned");
        let deliver = ab.symbol("deliver").expect("interned");
        let mut ts = TransitionSystem::new(ab);
        let r0 = ts.add_labeled_state("R0");
        let d0 = ts.add_labeled_state("D0");
        let g0 = ts.add_labeled_state("G0");
        let k0 = ts.add_labeled_state("dup1@R0");
        let r1 = ts.add_labeled_state("R1");
        let d1 = ts.add_labeled_state("D1");
        let g1 = ts.add_labeled_state("G1");
        let k1 = ts.add_labeled_state("dup0@R1");
        ts.set_initial(r0);
        ts.add_transition(r0, deliver0, d0);
        ts.add_transition(d0, deliver, g0);
        ts.add_transition(g0, ack0, r1);
        ts.add_transition(r0, deliver1, k0); // duplicate of the old frame
        ts.add_transition(k0, ack1, r0);
        ts.add_transition(r1, deliver1, d1);
        ts.add_transition(d1, deliver, g1);
        ts.add_transition(g1, ack1, r0);
        ts.add_transition(r1, deliver0, k1);
        ts.add_transition(k1, ack0, r1);
        ts
    };
    [sender, channel, receiver]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_buchi::behaviors_of_ts;
    use rl_core::{is_relative_liveness, Property};
    use rl_logic::parse;

    #[test]
    fn farm_sizes_multiply() {
        assert_eq!(server_farm(1).state_count(), 8);
        assert_eq!(server_farm(2).state_count(), 64);
    }

    #[test]
    fn farm_keeps_relative_liveness() {
        let sys = server_farm(2);
        let p = Property::formula(parse("[]<>result0").unwrap());
        assert!(
            is_relative_liveness(&behaviors_of_ts(&sys), &p)
                .unwrap()
                .holds
        );
    }

    #[test]
    fn ring_token_travels() {
        let sys = token_ring(4);
        let p = Property::formula(parse("[]<>pass0").unwrap());
        assert!(
            is_relative_liveness(&behaviors_of_ts(&sys), &p)
                .unwrap()
                .holds
        );
        // But "station 1 eventually always works" is not relatively live:
        // work1 requires the token at 1, and passing is unavoidable to
        // return there — []work1 is doomed from the start.
        let q = Property::formula(parse("<>[]work1").unwrap());
        let verdict = is_relative_liveness(&behaviors_of_ts(&sys), &q).unwrap();
        assert!(verdict.holds == (verdict.doomed_prefix.is_none()));
    }

    #[test]
    fn random_system_is_deadlock_free() {
        let sys = random_system(11, 20, 3, 0.3);
        for q in 0..sys.state_count() {
            assert!(!sys.is_deadlock(q));
        }
    }

    #[test]
    fn hardness_family_grows() {
        let p3 = nth_from_end_property(3);
        let pre = p3.prefix_nfa().determinize();
        assert!(pre.state_count() >= 8, "expected ≥ 2^3 subset states");
    }

    #[test]
    fn alternating_bit_is_relatively_live() {
        let ts = alternating_bit();
        // Deadlock-free protocol.
        for q in 0..ts.state_count() {
            assert!(!ts.is_deadlock(q), "state {q} deadlocks");
        }
        let p = Property::formula(parse("[]<>deliver").unwrap());
        let behaviors = behaviors_of_ts(&ts);
        // Classically false: the channel may lose everything …
        assert!(!rl_core::satisfies(&behaviors, &p).unwrap().holds);
        // … relatively live: fairness delivers.
        assert!(is_relative_liveness(&behaviors, &p).unwrap().holds);
    }

    #[test]
    fn formula_families_sizes() {
        assert!(fairness_chain(4).size() > fairness_chain(1).size());
        assert_eq!(nested_until(3).size(), 7);
    }
}
