//! A dependency-free work-stealing thread pool for whole checks.
//!
//! Every single check runs on the thread that calls it; the pool only runs
//! *independent* checks side by side — the `rlcheck batch` and
//! `rlcheck serve` front ends. [`Pool`] provides exactly the primitives
//! those two need:
//!
//! * [`Pool::new`] spawns a fixed set of worker threads, each owning a
//!   chunked deque. Submitted work is dealt round-robin across the deques;
//!   an idle worker drains its own deque front-first and **steals from the
//!   back of a sibling's deque** when it runs dry, then parks on a condvar
//!   until new work arrives.
//! * [`Pool::execute`] — fire-and-forget submission (the serve daemon's
//!   job runner).
//! * [`Pool::run_jobs`] — the batch primitive: run independent jobs and
//!   return each job's result or captured panic, in submission order.
//!
//! Everything here is safe Rust on `std` only (mutex-backed deques, channel
//! joins, condvar parking — honoring the workspace's vendor-only policy);
//! tasks are `'static`, so callers share operands via [`Arc`] clones.
//!
//! The pool promises nothing about *execution* order, only about
//! [`Pool::run_jobs`]'s *result* order; since each job is a whole check on
//! one thread, outputs are independent of the worker count (see
//! `DESIGN.md` §10).

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rl_obs::{HistogramRegistry, Tracer};

/// A queued unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Scheduler telemetry totals, sampled via [`Pool::counters`].
///
/// These are always collected (relaxed atomic bumps next to deque locks the
/// pool already takes, so they cost nothing measurable) and are inherently
/// *schedule-dependent*: two runs of the same check may steal or park
/// different amounts. Consumers surface them as named observability
/// counters, never as deterministic metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Jobs submitted via [`Pool::execute`] (including `run_jobs` jobs).
    pub spawns: u64,
    /// Jobs a worker popped from a sibling's deque.
    pub steals: u64,
    /// Transitions of a worker from running to idle (about to park).
    pub parks: u64,
    /// Transitions of a worker from idle back to running.
    pub unparks: u64,
}

/// Shared state between the pool handle and its workers.
struct PoolInner {
    /// One chunked deque per worker; owners pop the front, thieves the back.
    deques: Vec<Mutex<VecDeque<Job>>>,
    /// Lock/condvar pair for parking idle workers.
    park: Mutex<()>,
    bell: Condvar,
    /// Cleared on shutdown; parked workers re-check it on every wake.
    open: AtomicBool,
    /// Round-robin cursor for dealing submissions across deques.
    next_deque: AtomicUsize,
    /// Optional timeline tracer; fixed at construction so workers can
    /// record without any coordination.
    tracer: Option<Arc<Tracer>>,
    /// Scheduler telemetry (see [`PoolCounters`]).
    spawns: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
    unparks: AtomicU64,
    /// Optional percentile plane: when set, workers record `pool/steal_us`
    /// (sibling-sweep latency of a successful steal) and `pool/park_us`
    /// (idle-period duration). A `OnceLock` so detached pools pay one
    /// lock-free load per event site.
    hists: OnceLock<HistogramRegistry>,
}

impl PoolInner {
    /// Pops work for worker `home`: own deque first (front), then a sweep of
    /// the siblings' deques (back — the stealing half of the protocol).
    fn find_work(&self, home: usize) -> Option<Job> {
        if let Some(job) = self.deques[home].lock().ok()?.pop_front() {
            return Some(job);
        }
        let hists = self.hists.get();
        let sweep_started = hists.map(|_| Instant::now());
        let n = self.deques.len();
        for offset in 1..n {
            let victim = (home + offset) % n;
            if let Some(job) = self.deques[victim].lock().ok()?.pop_back() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                if let (Some(h), Some(t0)) = (hists, sweep_started) {
                    h.hist("pool/steal_us").record_elapsed_us(t0);
                }
                if let Some(t) = &self.tracer {
                    t.instant("pool", "steal", Some(("victim", victim as u64)));
                }
                return Some(job);
            }
        }
        None
    }
}

/// A fixed-size work-stealing thread pool (see the module docs).
///
/// Dropping the pool shuts it down: remaining queued work is abandoned,
/// running jobs finish, and the worker threads are joined.
///
/// # Example
///
/// ```
/// use rl_automata::Pool;
///
/// type Job = Box<dyn FnOnce() -> usize + Send>;
///
/// let pool = Pool::new(4);
/// let jobs: Vec<Job> = (0..8usize).map(|i| Box::new(move || i * i) as Job).collect();
/// let squares: Vec<usize> = pool.run_jobs(jobs).into_iter().map(|r| r.unwrap()).collect();
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub struct Pool {
    inner: Arc<PoolInner>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl Pool {
    /// Spawns a pool of `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> Pool {
        Pool::with_tracer(threads, None)
    }

    /// Spawns a pool whose workers additionally record timeline events
    /// (task begin/end, steals, parks/unparks, spawn queue depths) to
    /// `tracer`. Each worker claims its own trace track (`home + 1`; track
    /// 0 is the submitting thread), so one lane per worker comes out of the
    /// Chrome-trace export for free.
    pub fn with_tracer(threads: usize, tracer: Option<Arc<Tracer>>) -> Pool {
        let threads = threads.max(1);
        let inner = Arc::new(PoolInner {
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            park: Mutex::new(()),
            bell: Condvar::new(),
            open: AtomicBool::new(true),
            next_deque: AtomicUsize::new(0),
            tracer,
            spawns: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            unparks: AtomicU64::new(0),
            hists: OnceLock::new(),
        });
        let workers = (0..threads)
            .map(|home| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("rl-par-{home}"))
                    .spawn(move || worker_loop(&inner, home))
                    .expect("spawning a pool worker succeeds")
            })
            .collect();
        Pool {
            inner,
            workers,
            threads,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Attaches a [`HistogramRegistry`]: workers record `pool/steal_us`
    /// (latency of the sibling sweep on a successful steal) and
    /// `pool/park_us` (duration of each idle period). First call wins;
    /// later calls are no-ops. Detached pools take no timestamps.
    pub fn set_histograms(&self, hists: HistogramRegistry) {
        let _ = self.inner.hists.set(hists);
    }

    /// A snapshot of the scheduler telemetry totals so far.
    pub fn counters(&self) -> PoolCounters {
        PoolCounters {
            spawns: self.inner.spawns.load(Ordering::Relaxed),
            steals: self.inner.steals.load(Ordering::Relaxed),
            parks: self.inner.parks.load(Ordering::Relaxed),
            unparks: self.inner.unparks.load(Ordering::Relaxed),
        }
    }

    /// Enqueues one fire-and-forget job (dealt round-robin, stealable).
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        let slot = self.inner.next_deque.fetch_add(1, Ordering::Relaxed) % self.threads;
        self.inner.spawns.fetch_add(1, Ordering::Relaxed);
        let mut depth = 0;
        if let Ok(mut deque) = self.inner.deques[slot].lock() {
            deque.push_back(Box::new(job));
            depth = deque.len();
        }
        if let Some(t) = &self.inner.tracer {
            // Queue-depth sample at submission, on the submitter's track.
            t.instant("pool", "spawn", Some(("queue", depth as u64)));
        }
        self.inner.bell.notify_all();
    }

    /// Runs independent jobs across the pool and returns each job's result —
    /// or its captured panic payload — **in submission order**. This is the
    /// batch-checking primitive: one panicking check must not take down its
    /// siblings or the driver.
    pub fn run_jobs<R: Send + 'static>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> R + Send>>,
    ) -> Vec<std::thread::Result<R>> {
        let n = jobs.len();
        let (tx, rx) = mpsc::channel();
        for (i, job) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            self.execute(move || {
                let result = panic::catch_unwind(AssertUnwindSafe(job));
                let _ = tx.send((i, result));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<std::thread::Result<R>>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (i, result) = rx.recv().expect("all jobs report back");
            slots[i] = Some(result);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every job settled"))
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.inner.open.store(false, Ordering::Release);
        self.inner.bell.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: &PoolInner, home: usize) {
    // Claim this worker's timeline track; all events it records from here
    // on (pool, kernel, registry spans) land on its own lane.
    rl_obs::set_thread_track(home + 1);
    // Park/unpark are counted per idle *transition*, not per condvar wake,
    // so the 10ms timeout re-checks don't inflate the totals. `idle_since`
    // spans the whole idle period for the `pool/park_us` histogram.
    let mut idle = false;
    let mut idle_since: Option<Instant> = None;
    while inner.open.load(Ordering::Acquire) {
        match inner.find_work(home) {
            Some(job) => {
                if idle {
                    idle = false;
                    inner.unparks.fetch_add(1, Ordering::Relaxed);
                    if let (Some(h), Some(t0)) = (inner.hists.get(), idle_since.take()) {
                        h.hist("pool/park_us").record_elapsed_us(t0);
                    }
                    if let Some(t) = &inner.tracer {
                        t.instant("pool", "unpark", None);
                    }
                }
                match &inner.tracer {
                    Some(t) => {
                        t.begin("pool", "task");
                        job();
                        t.end("pool", "task");
                    }
                    None => job(),
                }
            }
            None => {
                if !idle {
                    idle = true;
                    idle_since = inner.hists.get().map(|_| Instant::now());
                    inner.parks.fetch_add(1, Ordering::Relaxed);
                    if let Some(t) = &inner.tracer {
                        t.instant("pool", "park", None);
                    }
                }
                let Ok(guard) = inner.park.lock() else {
                    return;
                };
                // Re-check under the park lock, then park with a timeout: the
                // timeout makes the loop robust against any wake lost between
                // the deque scan and the wait.
                if !inner.open.load(Ordering::Acquire) {
                    return;
                }
                let _ = inner.bell.wait_timeout(guard, Duration::from_millis(10));
            }
        }
    }
}

/// Resolves the effective worker count for a requested `--jobs` value:
/// `Some(0)` (and the `RL_THREADS=0` form) auto-detect the machine's cores
/// via [`std::thread::available_parallelism`], `None` falls back to the
/// `RL_THREADS` environment variable (a malformed value warns once on
/// stderr and counts as unset), and everything else passes through. The
/// final answer is always at least 1.
pub fn resolve_jobs(requested: Option<usize>) -> usize {
    let n = requested.unwrap_or_else(|| rl_obs::knobs::env_u64("RL_THREADS", 1) as usize);
    if n == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Task = Box<dyn FnOnce() -> usize + Send>;

    /// `n` jobs computing `f(i)`, for [`Pool::run_jobs`].
    fn tasks(n: usize, f: fn(usize) -> usize) -> Vec<Task> {
        (0..n).map(|i| Box::new(move || f(i)) as Task).collect()
    }

    fn values(results: Vec<std::thread::Result<usize>>) -> Vec<usize> {
        results
            .into_iter()
            .map(|r| r.expect("job completes"))
            .collect()
    }

    #[test]
    fn run_jobs_preserves_submission_order_under_uneven_work() {
        let pool = Pool::new(3);
        // Skewed jobs force stealing; results still come back in order.
        let out = values(pool.run_jobs(tasks(100, |i| {
            if i % 10 == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
            i
        })));
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        assert!(pool.run_jobs(Vec::<Task>::new()).is_empty());
    }

    #[test]
    fn run_jobs_isolates_panics_per_job() {
        let pool = Pool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(|| 10),
            Box::new(|| panic!("job 1 exploded")),
            Box::new(|| 30),
        ];
        let results = pool.run_jobs(jobs);
        assert_eq!(results.len(), 3);
        assert_eq!(*results[0].as_ref().expect("job 0 fine"), 10);
        assert!(results[1].is_err());
        assert_eq!(*results[2].as_ref().expect("job 2 fine"), 30);
        // The pool survives a panicking job and keeps serving work.
        assert_eq!(values(pool.run_jobs(tasks(4, |i| i))), vec![0, 1, 2, 3]);
    }

    #[test]
    fn pool_shuts_down_cleanly_when_dropped() {
        let pool = Pool::new(4);
        let _ = pool.run_jobs(tasks(100, |i| i));
        drop(pool); // must join all workers without hanging
    }

    #[test]
    fn single_worker_pool_still_completes_jobs() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        assert_eq!(
            values(pool.run_jobs(tasks(5, |i| i * 2))),
            vec![0, 2, 4, 6, 8]
        );
    }

    #[test]
    fn pool_counters_count_spawns_and_idle_transitions() {
        let pool = Pool::new(2);
        let _ = pool.run_jobs(tasks(64, |i| i));
        let c = pool.counters();
        assert_eq!(c.spawns, 64, "every job is a spawn: {c:?}");
        // Idle transitions are paired: a worker can only unpark after a
        // park, so unparks never exceed parks.
        assert!(c.unparks <= c.parks, "{c:?}");
    }

    #[test]
    fn traced_pool_records_balanced_task_events_per_track() {
        let tracer = Arc::new(rl_obs::Tracer::new());
        let pool = Pool::with_tracer(2, Some(tracer.clone()));
        let _ = pool.run_jobs(tasks(64, |i| i * i));
        drop(pool);
        let events = tracer.events();
        // Spawn instants land on the submitting thread's track.
        assert!(events
            .iter()
            .any(|e| e.name == "spawn" && e.track == rl_obs::TRACK_MAIN));
        // Every worker track keeps task begins/ends balanced and nested.
        for track in 1..=2usize {
            let mut open = 0i64;
            for e in events.iter().filter(|e| e.track == track) {
                match (e.phase, e.name.as_str()) {
                    (rl_obs::TracePhase::Begin, "task") => open += 1,
                    (rl_obs::TracePhase::End, "task") => {
                        open -= 1;
                        assert!(open >= 0, "end without begin on track {track}");
                    }
                    _ => {}
                }
            }
            assert_eq!(open, 0, "unbalanced task events on track {track}");
        }
    }

    #[test]
    fn attached_histograms_record_parks_and_match_counters() {
        let pool = Pool::new(2);
        let hists = HistogramRegistry::new();
        pool.set_histograms(hists.clone());
        // Force idle periods: run a batch, then wait until both workers
        // have drained and parked (an idle worker counts one park it has
        // not yet matched with an unpark), so the next batch unparks them.
        let _ = pool.run_jobs(tasks(64, |i| i));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let c = pool.counters();
            if c.parks.saturating_sub(c.unparks) >= 2 {
                break;
            }
            assert!(Instant::now() < deadline, "workers never parked: {c:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = pool.run_jobs(tasks(64, |i| i));
        let c = pool.counters();
        drop(pool);
        let snaps: std::collections::BTreeMap<String, _> = hists.snapshot().into_iter().collect();
        let parks = snaps.get("pool/park_us").map_or(0, |s| s.count);
        assert!(parks >= 1, "workers parked at least once: {c:?}");
        // Every histogram sample corresponds to a counted transition.
        assert!(parks <= c.unparks + 2, "park samples bounded by unparks");
        if let Some(steals) = snaps.get("pool/steal_us") {
            assert!(steals.count <= c.steals, "steal samples bounded");
        }
    }

    #[test]
    fn resolve_jobs_honors_flag_env_and_autodetect() {
        // Explicit flag wins outright.
        assert_eq!(resolve_jobs(Some(3)), 3);
        // 0 auto-detects: at least one core.
        assert!(resolve_jobs(Some(0)) >= 1);
        // No flag and no env (tests don't set RL_THREADS): sequential.
        if std::env::var("RL_THREADS").is_err() {
            assert_eq!(resolve_jobs(None), 1);
        }
    }
}
