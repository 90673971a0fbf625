//! Environment-knob parsing with a warn-once policy.
//!
//! The runtime knobs (`RL_PROGRESS_MS`, `RL_SUBSCRIBER_RING`,
//! `RL_THREADS`, …) used to fall back to their defaults *silently* on a
//! parse failure, so a typo like `RL_PROGRESS_MS=1s` quietly sampled at the
//! default period. The helpers here separate the pure, unit-testable parse
//! (`parse_u64` / the callers' own list parsers) from the side effect: one
//! stderr warning per knob name per process, so a misconfigured daemon says
//! so exactly once instead of never or once per job.

use std::collections::BTreeSet;
use std::sync::Mutex;

/// Knob names that have already warned this process.
static WARNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

/// Prints `msg` to stderr the first time `name` warns in this process;
/// subsequent calls for the same knob are no-ops.
pub fn warn_once(name: &'static str, msg: &str) {
    let mut warned = WARNED
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if warned.insert(name) {
        eprintln!("{msg}");
    }
}

/// Pure parse of a `u64` knob value: `Ok` on success, `Err` with the
/// warning text (mentioning the knob, the rejected value, and the default
/// kept) on failure. Side-effect free so tests can cover each knob without
/// racing on the process environment.
pub fn parse_u64(name: &str, raw: &str, default: u64) -> Result<u64, String> {
    raw.trim().parse::<u64>().map_err(|_| {
        format!("warning: {name}={raw:?} is not a valid integer; using default {default}")
    })
}

/// Reads a `u64` knob from the environment: unset yields `default`
/// silently; a set-but-unparsable value yields `default` with a one-time
/// stderr warning.
pub fn env_u64(name: &'static str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(raw) => match parse_u64(name, &raw, default) {
            Ok(v) => v,
            Err(msg) => {
                warn_once(name, &msg);
                default
            }
        },
        Err(_) => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One unit test per knob, on the pure parser (the tests must not
    // mutate the process environment: the suite runs in parallel).

    #[test]
    fn progress_ms_knob_warns_on_garbage_and_keeps_default() {
        assert_eq!(parse_u64("RL_PROGRESS_MS", "250", 1_000), Ok(250));
        let err = parse_u64("RL_PROGRESS_MS", "1s", 1_000).unwrap_err();
        assert!(err.contains("RL_PROGRESS_MS"));
        assert!(err.contains("\"1s\""));
        assert!(err.contains("default 1000"));
    }

    #[test]
    fn subscriber_ring_knob_warns_on_garbage_and_keeps_default() {
        assert_eq!(parse_u64("RL_SUBSCRIBER_RING", "64", 1_024), Ok(64));
        let err = parse_u64("RL_SUBSCRIBER_RING", "-3", 1_024).unwrap_err();
        assert!(err.contains("RL_SUBSCRIBER_RING"));
        assert!(err.contains("default 1024"));
    }

    #[test]
    fn threads_knob_warns_on_garbage_and_keeps_default() {
        assert_eq!(parse_u64("RL_THREADS", "4", 1), Ok(4));
        assert_eq!(parse_u64("RL_THREADS", "0", 1), Ok(0));
        let err = parse_u64("RL_THREADS", "four", 1).unwrap_err();
        assert!(err.contains("RL_THREADS"));
        assert!(err.contains("\"four\""));
        assert!(err.contains("default 1"));
    }

    #[test]
    fn warn_once_fires_a_single_time_per_name() {
        // Only exercises the dedup bookkeeping (the message itself goes to
        // stderr); a second insert for the same name must report seen.
        warn_once("RL_TEST_KNOB_DEDUP", "warning: first");
        let before = WARNED
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len();
        warn_once("RL_TEST_KNOB_DEDUP", "warning: second");
        let after = WARNED
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len();
        assert_eq!(before, after);
    }
}
