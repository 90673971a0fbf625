//! Deterministic fault injection for robustness tests.
//!
//! The long-running service mode (and the CLI's panic-isolation paths) make
//! claims like "a poisoned job never takes down the process" and "a dropped
//! connection cancels its job". Those claims are only testable
//! if the failure can be provoked *deterministically*. This module is that
//! trigger: the `RL_FAULT` environment variable arms named fault points, and
//! production code asks [`fires`] / [`armed_value`] at each point.
//!
//! Syntax: `RL_FAULT=<point>:<n>[,<point>:<n>...]` — e.g.
//! `RL_FAULT=check-panic:3,serve-drop-conn:2`.
//!
//! Two firing disciplines, chosen by the call site:
//!
//! * [`fires(point)`](fires) — *occurrence-counted*: returns `true` exactly
//!   once, on the `n`-th call for that point (1-based). Used for "the 3rd
//!   guarded check panics" style faults.
//! * [`armed_value(point)`](armed_value) — *value-matched*: returns the armed
//!   `n` for the caller to compare against its own identifier (a job id, a
//!   connection id). Used for "job 2 panics" style faults, which stay
//!   deterministic even when execution order does not.
//!
//! With `RL_FAULT` unset every query is a branch on an initialized-once
//! `Option` — no parsing, no locks — so the hooks are safe to leave in hot
//! paths.
//!
//! Known points (grep for the string to find the site):
//!
//! | point             | discipline | effect                                          |
//! |-------------------|------------|-------------------------------------------------|
//! | `check-panic`     | counted    | the n-th guarded check panics mid-pipeline      |
//! | `job-panic`       | value      | the serve job with id `n` panics on its worker  |
//! | `serve-drop-conn` | counted    | the server drops the n-th request's connection  |
//! | `serve-drop-sub`  | counted    | the n-th subscriber stream flush severs the conn|

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// One armed fault point: the target occurrence/value and a hit counter.
struct Point {
    n: u64,
    seen: AtomicU64,
}

/// The parsed `RL_FAULT` plan; `None` when the variable is unset or empty.
fn plan() -> Option<&'static HashMap<String, Point>> {
    static PLAN: OnceLock<Option<HashMap<String, Point>>> = OnceLock::new();
    PLAN.get_or_init(|| {
        let raw = std::env::var("RL_FAULT").ok()?;
        let mut points = HashMap::new();
        for part in raw.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let Some((name, n)) = part.split_once(':') else {
                continue; // malformed specs are ignored, never fatal
            };
            let Ok(n) = n.trim().parse::<u64>() else {
                continue;
            };
            points.insert(
                name.trim().to_owned(),
                Point {
                    n,
                    seen: AtomicU64::new(0),
                },
            );
        }
        (!points.is_empty()).then_some(points)
    })
    .as_ref()
}

/// Occurrence-counted fault: increments the hit counter for `point` and
/// returns `true` exactly on the armed `n`-th call (1-based). Always `false`
/// when `RL_FAULT` does not arm the point.
pub fn fires(point: &str) -> bool {
    let Some(p) = plan().and_then(|m| m.get(point)) else {
        return false;
    };
    p.seen.fetch_add(1, Ordering::Relaxed) + 1 == p.n
}

/// Value-matched fault: the armed `n` for `point`, for the caller to compare
/// with its own identifier. `None` when the point is not armed.
pub fn armed_value(point: &str) -> Option<u64> {
    plan().and_then(|m| m.get(point)).map(|p| p.n)
}

#[cfg(test)]
mod tests {
    // `RL_FAULT` is process-global and parsed once, so unit tests here can
    // only cover the unarmed path; the armed paths are exercised end-to-end
    // by `tests/serve.rs` and `tests/cli.rs`, which set the variable on
    // child processes.
    use super::*;

    #[test]
    fn unarmed_points_never_fire() {
        if std::env::var_os("RL_FAULT").is_some() {
            return; // an outer harness armed faults; skip
        }
        for _ in 0..3 {
            assert!(!fires("check-panic"));
        }
        assert_eq!(armed_value("job-panic"), None);
    }
}
