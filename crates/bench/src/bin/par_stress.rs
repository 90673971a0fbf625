//! Loom-free concurrency stress harness for the shared state of batch and
//! serve runs.
//!
//! Hammers the pieces that concurrent whole checks share — the
//! work-stealing [`Pool`] and the sharded [`OpCache`] — from many threads
//! at once, across repeated rounds. CI runs this binary directly; it exits
//! non-zero on the first violated invariant.
//!
//! ```text
//! cargo run --release -p rl-bench --bin par_stress [-- <rounds>]
//! ```

#![forbid(unsafe_code)]

use std::sync::Arc;

use rl_automata::{OpCache, Pool};

/// One unit of pool work returning a checkable value.
type Task = Box<dyn FnOnce() -> usize + Send>;

fn main() {
    let rounds: usize = std::env::args()
        .nth(1)
        .map(|raw| raw.parse().expect("rounds must be a number"))
        .unwrap_or(8);

    // The panic-isolation stress panics on purpose; keep the expected ones
    // out of CI logs while still reporting real failures.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let expected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("deliberate stress panic"));
        if !expected {
            default_hook(info);
        }
    }));

    for round in 0..rounds {
        stress_pool_panic_isolation();
        stress_op_cache(round);
    }
    println!("par_stress: {rounds} rounds clean");
}

/// A panicking job must not poison the pool or take sibling jobs with it.
fn stress_pool_panic_isolation() {
    let pool = Pool::new(3);
    let jobs: Vec<Task> = (0..64usize)
        .map(|i| {
            Box::new(move || {
                if i == 17 {
                    panic!("deliberate stress panic");
                }
                i
            }) as Task
        })
        .collect();
    let results = pool.run_jobs(jobs);
    assert_eq!(results.len(), 64);
    for (i, r) in results.into_iter().enumerate() {
        match r {
            Ok(v) => assert_eq!(v, i),
            Err(_) => assert_eq!(i, 17, "only job 17 panics"),
        }
    }
    // The pool is still usable after the panic.
    let echo: Vec<usize> = pool
        .run_jobs(jobs_of(32, |i| i))
        .into_iter()
        .map(|r| r.expect("echo job completes"))
        .collect();
    assert_eq!(echo, (0..32).collect::<Vec<_>>());
}

/// Concurrent `get_or_insert_with` on colliding keys must build each entry's
/// value once per (key, op) from some thread and hand every caller the same
/// `Arc`; interned operands must dedupe across threads.
fn stress_op_cache(round: usize) {
    let cache = OpCache::new();
    let pool = Pool::new(4);
    let keys = 97usize; // prime, so shard selection gets a ragged spread
    let jobs: Vec<Task> = (0..1024usize)
        .map(|i| {
            let cache = cache.clone();
            Box::new(move || {
                let key = ((i % keys) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let built: Result<(Arc<Vec<usize>>, bool), std::convert::Infallible> = cache
                    .get_or_insert_with(
                        "stress",
                        key,
                        |v: &Vec<usize>| v[0] == i % keys,
                        || Ok(vec![i % keys, round]),
                    );
                let (arc, _hit) = built.expect("infallible build");
                assert_eq!(arc[0], i % keys, "wrong entry for key");
                Arc::as_ptr(&arc) as usize
            }) as Task
        })
        .collect();
    let arcs: Vec<usize> = pool
        .run_jobs(jobs)
        .into_iter()
        .map(|r| r.expect("cache job completes"))
        .collect();
    // Every caller that hit the same key observed the same allocation.
    let mut by_key: Vec<Option<usize>> = vec![None; keys];
    for (i, ptr) in arcs.iter().enumerate() {
        let slot = &mut by_key[i % keys];
        match slot {
            None => *slot = Some(*ptr),
            Some(seen) => assert_eq!(seen, ptr, "two Arcs for one cache key"),
        }
    }
    assert_eq!(cache.len(), keys, "one entry per distinct key");
    assert_eq!(cache.hits() + cache.misses(), 1024);

    let a = cache.intern_operand(42, &"operand".to_string());
    let b = cache.intern_operand(42, &"operand".to_string());
    assert!(Arc::ptr_eq(&a, &b), "operands interned to one Arc");
}

/// `n` jobs computing `f(i)`, for [`Pool::run_jobs`].
fn jobs_of(n: usize, f: fn(usize) -> usize) -> Vec<Task> {
    (0..n).map(|i| Box::new(move || f(i)) as Task).collect()
}
