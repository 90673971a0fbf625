//! # relative-liveness
//!
//! A complete, executable reproduction of Ulrich Nitsche and Pierre Wolper,
//! *Relative Liveness and Behavior Abstraction* (PODC 1997): relative
//! liveness/safety checking for ω-regular systems, fair-implementation
//! synthesis, and verification by behavior abstraction under simple
//! homomorphisms — together with every substrate the paper relies on
//! (finite and ω-automata, PLTL, Petri nets, abstraction homomorphisms,
//! fair schedulers), implemented from scratch in Rust.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`automata`] | `rl-automata` | alphabets, NFA/DFA, minimization, equivalence, transition systems |
//! | [`buchi`] | `rl-buchi` | Büchi automata, products, emptiness, complementation, `pre`/`lim` |
//! | [`logic`] | `rl-logic` | PLTL, GPVW translation, the `T`/`R̄` transforms of Definition 7.4 |
//! | [`petri`] | `rl-petri` | Petri nets, reachability graphs, the paper's Figures 1–3 |
//! | [`abstraction`] | `rl-abstraction` | homomorphisms, images, simplicity (Definition 6.3) |
//! | [`core`] | `rl-core` | relative liveness/safety (Theorem 4.5), Theorem 5.1 synthesis, the Corollary 8.4 pipeline |
//! | [`exec`] | `rl-exec` | strongly fair / random / adversarial schedulers and runners |
//!
//! # Quickstart
//!
//! ```
//! use relative_liveness::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's server (Figure 1 → Figure 2).
//! let system = server_behaviors();
//! let eta = parse("[]<>result")?;
//!
//! // Classically false (unfair schedules starve the client) …
//! let behaviors = behaviors_of_ts(&system);
//! assert!(!satisfies(&behaviors, &Property::formula(eta.clone()))?.holds);
//! // … but relatively live: some fairness makes it true.
//! assert!(is_relative_liveness(&behaviors, &Property::formula(eta.clone()))?.holds);
//!
//! // And the whole Section 8 pipeline: abstract to {request, result,
//! // reject}, check simplicity, verify on the 2-state abstraction, and
//! // transfer the verdict to the concrete 8-state system.
//! let h = Homomorphism::hiding(system.alphabet(), ["request", "result", "reject"])?;
//! let analysis = verify_via_abstraction(&system, &h, &eta)?;
//! assert_eq!(analysis.conclusion, TransferConclusion::ConcreteHolds);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod format;
#[cfg(unix)]
pub mod serve;

pub use rl_abstraction as abstraction;
pub use rl_automata as automata;
pub use rl_buchi as buchi;
pub use rl_core as core;
pub use rl_exec as exec;
pub use rl_json as json;
pub use rl_logic as logic;
pub use rl_petri as petri;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use rl_abstraction::{
        abstract_behavior, abstract_behavior_with, check_simplicity, check_simplicity_with,
        compositional_abstract_behavior, extend_with_hash, has_maximal_words,
        has_maximal_words_with, image_nfa, inverse_image_buchi, inverse_image_nfa, Homomorphism,
    };
    pub use rl_automata::{
        dfa_equivalent, dfa_included, format_word, parse_word, resolve_jobs, Alphabet, Dfa,
        GuardProbe, Nfa, Pool, RegistrySnapshot, Symbol, TransitionSystem, Word,
    };
    pub use rl_buchi::{
        behaviors_of_ts, behaviors_of_ts_with, complement, complement_with, omega_included,
        omega_included_with, Buchi, UpWord,
    };
    pub use rl_core::{
        cantor_distance, certify_density, check_transported_concrete,
        check_transported_concrete_with, chrome_trace_json, dense_witness, extension_witness,
        folded_stacks, forall_always_exists_eventually, forall_always_recurrently,
        is_liveness_property, is_machine_closed, is_relative_liveness, is_relative_liveness_of_ts,
        is_relative_liveness_of_ts_with, is_relative_liveness_with, is_relative_safety,
        is_relative_safety_with, is_safety_property, labeling_for_homomorphism, render_jsonl,
        satisfies, satisfies_with, synthesize_fair_implementation, verify_via_abstraction,
        verify_via_abstraction_with, AbstractionAnalysis, Budget, CancelToken, CheckError,
        CheckPlan, CheckVerdicts, CoreError, Counter, FairImplementation, Guard, Metric,
        MetricsRegistry, ObsReport, PoolCounters, Progress, Property, Resource, Span, SpanRecord,
        TraceEvent, TracePhase, Tracer, TransferConclusion,
    };
    pub use rl_exec::{
        almost_surely_recurrent, estimate_satisfaction, min_fairness_ratio,
        probability_of_recurrence, run, sample_lasso, AgingScheduler, FixedPriorityScheduler,
        MonteCarloEstimate, PriorityScheduler, RandomScheduler, Scheduler,
    };
    pub use rl_logic::{
        evaluate, formula_to_buchi, parse, r_bar, r_bar_strict, simplify, to_sigma_normal_form,
        transform_t, Formula, Labeling, EPSILON_PROP,
    };
    pub use rl_petri::examples::{
        server_behaviors, server_err_behaviors, server_net, server_net_err,
    };
    pub use rl_petri::{
        deadlock_markings, live_transitions, place_bounds, reachability_graph, PetriNet,
    };
}
