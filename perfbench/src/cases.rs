//! The benchmark's inputs and the hand-written table of expected verdicts.
//!
//! Every entry below is justified by the paper's figures, the fixture's
//! header comment (or, for fixtures of a few lines, the fixture text
//! itself), or the generator's doc comment in `rl-bench` — never by running
//! the checker. Where only relative liveness is stated by a source, the
//! other two verdicts follow from Theorem 4.7 (`L_ω ⊆ P` iff `P` is both
//! relatively safe and relatively live):
//!
//! * classical fails and rel-live holds ⇒ rel-safe fails;
//! * classical holds ⇒ rel-live and rel-safe hold.

use relative_liveness::format::render_system;
use rl_bench::{fairness_chain, farm_observables, random_system, server_farm, token_ring};

/// Expected outcome of `classical`, `rel-live` and `rel-safe`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdicts {
    pub classical: bool,
    pub rel_live: bool,
    pub rel_safe: bool,
}

/// Classically false, relatively live, hence (Thm 4.7) not relatively safe:
/// the shape of every "fairness is needed" system in the paper.
const LIVE_UNDER_FAIRNESS: Verdicts = Verdicts {
    classical: false,
    rel_live: true,
    rel_safe: false,
};

/// A valid property: holds classically, hence both relative verdicts hold.
const VALID: Verdicts = Verdicts {
    classical: true,
    rel_live: true,
    rel_safe: true,
};

/// Expected conclusion of the Corollary 8.4 pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conclusion {
    /// Abstractly rel-live and `h` simple (Theorem 8.2).
    ConcreteHolds,
    /// Abstractly rel-live but `h` not simple (the paper's Figure 3 trap).
    InconclusiveNotSimple,
}

/// A homomorphism for the abstraction route: the actions kept visible.
#[derive(Debug, Clone)]
pub struct Abstraction {
    pub keep: Vec<String>,
    pub expect: Conclusion,
    /// Occurrences per round of the `abstract` mix.
    pub weight: usize,
}

/// Where a case's system comes from.
#[derive(Debug, Clone)]
pub enum Source {
    /// A committed fixture, read from disk by every check.
    Fixture(&'static str),
    /// A generated system, rendered to the `system` text format.
    Generated(String),
}

/// One system/formula pair and where it appears.
#[derive(Debug, Clone)]
pub struct Case {
    pub name: String,
    pub source: Source,
    pub formula: String,
    pub expect: Verdicts,
    /// Occurrences per round of the `check` mix (0: not in it).
    pub check_weight: usize,
    /// Present when the case is in the `abstract` mix.
    pub abstraction: Option<Abstraction>,
}

impl Case {
    fn new(name: impl Into<String>, source: Source, formula: impl Into<String>) -> Case {
        Case {
            name: name.into(),
            source,
            formula: formula.into(),
            expect: LIVE_UNDER_FAIRNESS,
            check_weight: 1,
            abstraction: None,
        }
    }

    fn expect(mut self, v: Verdicts) -> Case {
        self.expect = v;
        self
    }

    fn weight(mut self, check: usize) -> Case {
        self.check_weight = check;
        self
    }

    fn abstracted(self, keep: &[&str], expect: Conclusion, weight: usize) -> Case {
        let keep = keep.iter().map(|s| (*s).to_owned()).collect();
        self.abstracted_owned(keep, expect, weight)
    }

    fn abstracted_owned(mut self, keep: Vec<String>, expect: Conclusion, weight: usize) -> Case {
        self.abstraction = Some(Abstraction {
            keep,
            expect,
            weight,
        });
        self
    }
}

fn generated(ts: &relative_liveness::automata::TransitionSystem) -> Source {
    Source::Generated(render_system(ts))
}

/// The one-state system over `{a, b}`: its behaviors are all of `{a,b}^ω`.
const SIGMA_OMEGA_AB: &str = "system\nalphabet: a b\ninitial: s\ns a -> s\ns b -> s\n";

/// Every case of every workload. `seed` feeds the random systems only; the
/// table of expected verdicts does not depend on it.
///
/// The weights put each reported percentile in the middle of one case's
/// block of samples when the mix is sorted by cost, so noise cannot flip it
/// between two cases of different cost:
///
/// * `check` (76 per round): p50 in the middle of `server_farm(2)` (8), p90
///   in the middle of `needle24` (8), with the three costliest cases above
///   it. `random_system(200)` costs about as much as `needle24` and lands
///   above or below it by seed, so the block is wide enough that p90 stays
///   inside it either way;
/// * `abstract` (20): p50 inside `token_ring(32)` (10), p90 in the middle
///   of `server_farm(2)` (4), the costliest case.
pub fn all_cases(seed: u64) -> Vec<Case> {
    let fixture = |file: &'static str| Source::Fixture(file);
    let figure_keep = ["request", "result", "reject"];
    let mut cases = vec![
        // Paper, Figure 2 (and the fixture header: "the paper's Figure 1
        // server"): []<>result fails classically (unfair schedules starve the
        // client) but is relatively live. The hiding homomorphism onto
        // {request, result, reject} is simple, so Corollary 8.4 transfers.
        Case::new(
            "server.pn",
            fixture("examples/systems/server.pn"),
            "[]<>result",
        )
        .weight(6)
        .abstracted(&figure_keep, Conclusion::ConcreteHolds, 2),
        // Paper, Figure 3 (header: "no way to free the resource again"):
        // after `lock` no `result` is reachable, so []<>result is not
        // relatively live. It is not relatively safe either: the behavior
        // (request.no.reject)^ω misses P while each of its prefixes extends
        // into P via request.yes.result. The abstraction looks like Figure
        // 4 but the homomorphism is not simple.
        Case::new(
            "server_err.pn",
            fixture("examples/systems/server_err.pn"),
            "[]<>result",
        )
        .expect(Verdicts {
            classical: false,
            rel_live: false,
            rel_safe: false,
        })
        .weight(2)
        .abstracted(&figure_keep, Conclusion::InconclusiveNotSimple, 1),
        // Header: the alternating-bit protocol generated from
        // rl_bench::alternating_bit(), whose doc comment says []<>deliver is
        // classically false but a relative liveness property. Hiding the
        // lossy channel (send/deliver/lose of frames) keeps every abstract
        // continuation reachable after any hidden choice — a lost frame is
        // always retransmitted — so the hiding is simple.
        Case::new("abp.ts", fixture("examples/systems/abp.ts"), "[]<>deliver")
            .weight(6)
            .abstracted(&["deliver", "ack0", "ack1"], Conclusion::ConcreteHolds, 2),
        // Fixture text: lo -tick-> hi -tock-> lo, and hi may chime forever.
        // (tick.tock)^ω never chimes, yet from any state one can reach hi
        // and chime forever.
        Case::new(
            "clock.ts",
            fixture("examples/systems/clock.ts"),
            "[]<>chime",
        )
        .weight(4),
        // Header: the inclusion pre(L) ⊆ pre(L ∩ []<>a) fails, with doomed
        // prefix b.b. The only a-free cycle is d3's b-loop, and every other
        // path meets an a within 16 letters, so a prefix ending in b^17 can
        // only be read into d3: no behavior outside P has all its prefixes
        // in pre(L ∩ P), so P is relatively safe (Lemma 4.4).
        Case::new(
            "filter_fallthrough.ts",
            fixture("examples/systems/filter_fallthrough.ts"),
            "[]<>a",
        )
        .expect(Verdicts {
            classical: false,
            rel_live: false,
            rel_safe: true,
        })
        .weight(6),
        // Header: the early b wedges into the b-only sink d1 (doomed prefix
        // "b"). The x-loop on s0 gives x^ω ∉ P, and each x^k extends by
        // (a.b)^ω into P, so P is not relatively safe.
        Case::new(
            "filter_mod3.ts",
            fixture("examples/systems/filter_mod3.ts"),
            "[]<>a",
        )
        .expect(Verdicts {
            classical: false,
            rel_live: false,
            rel_safe: false,
        })
        .weight(3),
        // Header: after `c` no a is ever possible (doomed prefix containing
        // c). The b-loop on s0 gives b^ω ∉ P, and each b^k extends by a^ω
        // into P, so P is not relatively safe.
        Case::new(
            "filter_parikh.ts",
            fixture("examples/systems/filter_parikh.ts"),
            "[]<>a",
        )
        .expect(Verdicts {
            classical: false,
            rel_live: false,
            rel_safe: false,
        })
        .weight(8),
        // Header: "[]<>ack is relative-live". Its busy state loops on `work`,
        // so req.work^ω never acknowledges: classically false.
        Case::new(
            "filter_sim.ts",
            fixture("examples/systems/filter_sim.ts"),
            "[]<>ack",
        )
        .weight(2),
        // Header: the nth-from-the-end guessing automaton; s0 loops on a and
        // b, so b^ω misses []<>a, and every window state leads back to s0,
        // from which a^ω satisfies it.
        Case::new(
            "needle24.ts",
            fixture("examples/systems/needle24.ts"),
            "[]<>a",
        )
        .weight(8),
        // rl_bench::server_farm doc: k interleaved Figure 1 servers. Server 0
        // is relatively live for []<>result0 (Figure 2), while an unfair
        // schedule can run the other servers forever. The observable hiding
        // is simple per component, as in Figure 2.
        Case::new("server_farm(1)", generated(&server_farm(1)), "[]<>result0")
            .weight(0)
            .abstracted_owned(farm_observables(1), Conclusion::ConcreteHolds, 1),
        Case::new("server_farm(2)", generated(&server_farm(2)), "[]<>result0")
            .weight(8)
            .abstracted_owned(farm_observables(2), Conclusion::ConcreteHolds, 4),
        Case::new("server_farm(3)", generated(&server_farm(3)), "[]<>result0").weight(1),
        // rl_bench::token_ring doc: "[]<>pass_0 is a relative liveness
        // property (the token can always travel)"; a station may `work`
        // forever, so it fails classically. Hiding the work_i self-loops
        // leaves the pass cycle, and a hidden self-loop never changes which
        // continuations remain, so the hiding is simple.
        Case::new("token_ring(32)", generated(&token_ring(32)), "[]<>pass0")
            .weight(3)
            .abstracted_owned(ring_passes(32), Conclusion::ConcreteHolds, 10),
        Case::new("token_ring(128)", generated(&token_ring(128)), "[]<>pass0").weight(1),
    ];
    // rl_bench::random_system doc: a seeded system over t0..t3 with every
    // state given an outgoing edge. The formula is valid (every ω-word has
    // infinitely many t0 or eventually none), so it holds classically.
    let tautology = "[]<>t0 | <>[]!t0";
    for n in [200usize, 500] {
        let ts = random_system(seed ^ (n as u64), n, 4, 0.4);
        cases.push(
            Case::new(format!("random_system({n})"), generated(&ts), tautology)
                .expect(VALID)
                .weight(1),
        );
    }
    // rl_bench::fairness_chain(k) for even k reduces to []<>a: each pair of
    // links `(f → []<>b) → []<>a` collapses back to []<>a. Over {a,b}^ω
    // relative liveness is classical liveness (Remark 1): []<>a is live but
    // not safe, and b^ω violates it.
    for (k, weight) in [(2usize, 5), (4, 3), (6, 8)] {
        cases.push(
            Case::new(
                format!("fairness_chain({k})"),
                Source::Generated(SIGMA_OMEGA_AB.to_owned()),
                fairness_chain(k).to_string(),
            )
            .weight(weight),
        );
    }
    cases
}

fn ring_passes(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("pass{i}")).collect()
}
