//! `perfbench` — the checker's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <check|abstract> --seed <n> --seconds <s>
//!           --trace <0|1> --rlcheck <path> [--quick]
//! ```
//!
//! Prints a metadata line and then, as the last line of standard output,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See README.md for the workloads and the metrics.

mod cases;
mod inproc;
mod served;
mod speed;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cases::{all_cases, Case, Source};
use inproc::{abstract_op, check_op, prepare, traced_abstract, traced_check, Layers, Prepared};
use served::{closed_loop, Daemon, DaemonView, Job};
use speed::Gauge;
use stats::{median, quantile, Latencies};

/// Segments per run. Each sets up afresh, then times rounds for its share
/// of `--seconds`; `setup_s` is the median of the set-ups. Spreading the
/// set-ups over the run exposes them to the same phases of a shared machine
/// as the timed rounds, instead of to the first few seconds only.
const SEGMENTS: usize = 9;
/// Operations between two speed probes (see `speed`).
const PROBE_EVERY: usize = 4;
/// Traced passes of the side measurements (layers a workload does not
/// drive through its own timed loop).
const SIDE_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rlcheck: PathBuf,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut rlcheck, mut quick) =
        (None, None, None, None, None, false);
    while let Some(flag) = raw.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed: not a number")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds: not a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                })
            }
            "--rlcheck" => rlcheck = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        rlcheck: rlcheck.ok_or("--rlcheck is required")?,
        quick,
    })
}

/// Fisher–Yates.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

/// This process's VmHWM, in MiB.
fn vm_hwm_mb() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The mix as a list of case indices, each repeated by its weight.
fn expand(weights: &[usize]) -> Vec<usize> {
    weights
        .iter()
        .enumerate()
        .flat_map(|(i, &w)| std::iter::repeat_n(i, w))
        .collect()
}

/// Everything a run reports.
#[derive(Default)]
struct Report {
    attempted: usize,
    failures: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    meta: BTreeMap<&'static str, String>,
}

impl Report {
    fn tally(&mut self, name: &str, result: &Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(format!("{name}: {e}"));
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn print(&self) {
        let meta: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        println!("{{\"meta\": {{{}}}}}", meta.join(", "));
        for f in self.failures.iter().take(20) {
            eprintln!("perfbench: failed: {f}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        );
    }
}

fn json_str(s: &str) -> String {
    format!("{s:?}")
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "1e300".to_owned()
    }
}

fn json_map<V: std::fmt::Display>(entries: impl IntoIterator<Item = (String, V)>) -> String {
    let parts: Vec<String> = entries
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", json_str(&k)))
        .collect();
    format!("{{{}}}", parts.join(", "))
}

/// The six end-to-end metrics, over every sample of the timed rounds.
fn end_to_end(
    report: &mut Report,
    names: &[String],
    lat: &Latencies,
    timed_s: f64,
    rss_mb: f64,
    setups: &[f64],
) {
    let all = lat.all();
    report.metric("latency_p50_ms", quantile(&all, 0.5), "ms");
    report.metric("latency_p90_ms", quantile(&all, 0.9), "ms");
    report.metric("latency_geomean_ms", lat.geomean_of_medians(), "ms");
    report.metric("checks_per_s", lat.count() as f64 / timed_s, "1/s");
    report.metric("peak_rss_mb", rss_mb, "MiB");
    report.metric("setup_s", median(setups), "s");
    let each: Vec<String> = setups.iter().map(|&s| json_num(s)).collect();
    report
        .meta
        .insert("setups_s", format!("[{}]", each.join(", ")));
    report.meta.insert(
        "samples_per_metric",
        json_map([
            ("latency_p50_ms".to_owned(), lat.count()),
            ("latency_p90_ms".to_owned(), lat.count()),
            ("latency_geomean_ms".to_owned(), lat.count()),
            ("checks_per_s".to_owned(), lat.count()),
            ("peak_rss_mb".to_owned(), 1),
            ("setup_s".to_owned(), setups.len()),
        ]),
    );
    record_samples_meta(report, names, lat);
}

fn record_samples_meta(report: &mut Report, names: &[String], lat: &Latencies) {
    report.meta.insert(
        "samples_per_case",
        json_map(names.iter().cloned().zip(lat.per_case.iter().map(Vec::len))),
    );
    report.meta.insert(
        "median_ms_per_case",
        json_map(
            names
                .iter()
                .cloned()
                .zip(lat.per_case.iter())
                .filter(|(_, s)| !s.is_empty())
                .map(|(n, s)| (n, json_num(median(s)))),
        ),
    );
}

fn layer_meta(report: &mut Report, layers: &Layers) {
    report.meta.insert(
        "layer_samples",
        json_map(
            layers
                .sample_counts()
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v)),
        ),
    );
    for m in &layers.count_mismatches {
        report.failures.push(format!("count did not repeat: {m}"));
    }
}

/// Wall-clock totals next to their reference-speed twins: the metrics are
/// at reference speed, the metadata line carries what the clock read.
#[derive(Default)]
struct Clock {
    timed_wall_s: f64,
    timed_ref_s: f64,
    setups_wall_s: Vec<f64>,
    /// The median probe of every set-up and untraced round.
    probes_ms: Vec<f64>,
}

impl Clock {
    fn setup(&mut self, wall_s: f64, gauge: &Gauge) {
        self.setups_wall_s.push(wall_s);
        self.probes_ms.push(gauge.median_ms());
    }

    fn round(&mut self, wall_s: f64, gauge: &Gauge) {
        self.timed_wall_s += wall_s;
        self.timed_ref_s += wall_s * gauge.scale();
        self.probes_ms.push(gauge.median_ms());
    }

    fn record(&self, report: &mut Report, wall: &Latencies) {
        let all = wall.all();
        let read = [
            ("latency_p50_ms", quantile(&all, 0.5)),
            ("latency_p90_ms", quantile(&all, 0.9)),
            ("latency_geomean_ms", wall.geomean_of_medians()),
            ("checks_per_s", wall.count() as f64 / self.timed_wall_s),
            ("setup_s", median(&self.setups_wall_s)),
        ];
        report.meta.insert(
            "wall_clock",
            json_map(read.map(|(k, v)| (k.to_owned(), json_num(v)))),
        );
        report.meta.insert("timed_s", json_num(self.timed_wall_s));
        report
            .meta
            .insert("probe_ms_median", json_num(median(&self.probes_ms)));
    }
}

/// Which of the workloads a run drives.
#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Check,
    Abstract,
}

fn run(args: &Args, kind: Workload, work: &Path, report: &mut Report) -> Result<(), String> {
    let cases: Vec<Case> = all_cases(args.seed)
        .into_iter()
        .filter(|c| match kind {
            Workload::Check => c.check_weight > 0,
            Workload::Abstract => c.abstraction.is_some(),
        })
        .collect();
    let weights: Vec<usize> = cases
        .iter()
        .map(|c| match kind {
            Workload::Check => c.check_weight,
            Workload::Abstract => c.abstraction.as_ref().map_or(0, |a| a.weight),
        })
        .collect();
    let op = |p: &Prepared| match kind {
        Workload::Check => check_op(p),
        Workload::Abstract => abstract_op(p),
    };
    let names: Vec<String> = cases.iter().map(|c| c.name.clone()).collect();
    let mix = expand(&weights);
    let segments = if args.quick { 1 } else { SEGMENTS };
    let mut setups = Vec::new();
    let mut prepared = Vec::new();
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut plain = Latencies::new(cases.len());
    let mut traced = Latencies::new(cases.len());
    let mut wall = Latencies::new(cases.len());
    let mut clock = Clock::default();
    let mut layers = Layers::default();
    // Only whole rounds run, so every sample set holds the exact mix; the
    // first round (the first two when tracing) always runs.
    let whole_rounds = if args.trace { 2 } else { 1 };
    let mut round = 0usize;
    for _ in 0..segments {
        // Set-up: inputs, then one untimed warm-up round of the whole mix.
        let mut gauge = Gauge::default();
        let start = Instant::now();
        let _ = std::fs::remove_dir_all(work);
        std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
        prepared = prepare(&cases, work)?;
        for (k, &i) in mix.iter().enumerate() {
            if k % PROBE_EVERY == 0 {
                gauge.probe();
            }
            let result = op(&prepared[i]);
            report.tally(&prepared[i].case.name, &result);
        }
        let setup_s = start.elapsed().as_secs_f64() - gauge.spent_ms() / 1e3;
        setups.push(setup_s * gauge.scale());
        clock.setup(setup_s, &gauge);

        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds / segments as f64);
        loop {
            let mut order = mix.clone();
            shuffle(&mut order, &mut rng);
            // Traced runs alternate untraced and traced rounds, so both see
            // the same phases of the machine.
            let tracing = args.trace && round % 2 == 1;
            let mut gauge = Gauge::default();
            let mut samples = Vec::with_capacity(order.len());
            let start = Instant::now();
            for (k, &i) in order.iter().enumerate() {
                if k % PROBE_EVERY == 0 {
                    gauge.probe();
                }
                let p = &prepared[i];
                let result = if tracing {
                    match kind {
                        Workload::Check => traced_check(p, i, &mut layers),
                        Workload::Abstract => traced_abstract(p, i, &mut layers),
                    }
                } else {
                    let t = Instant::now();
                    op(p).map(|()| t.elapsed().as_secs_f64() * 1e3)
                };
                // A failed operation misses every latency limit.
                samples.push((i, *result.as_ref().unwrap_or(&f64::INFINITY)));
                report.tally(&p.case.name, &result.map(|_| ()));
            }
            let round_s = start.elapsed().as_secs_f64() - gauge.spent_ms() / 1e3;
            let scale = gauge.scale();
            for (i, ms) in samples {
                if tracing {
                    traced.push(i, ms * scale);
                } else {
                    plain.push(i, ms * scale);
                    wall.push(i, ms);
                }
            }
            if !tracing {
                clock.round(round_s, &gauge);
            }
            round += 1;
            if round >= whole_rounds && Instant::now() >= deadline {
                break;
            }
        }
    }
    report.meta.insert("rounds", round.to_string());
    clock.record(report, &wall);

    if !args.trace {
        let rss = vm_hwm_mb().unwrap_or(f64::NAN);
        end_to_end(report, &names, &plain, clock.timed_ref_s, rss, &setups);
        return Ok(());
    }
    record_samples_meta(report, &names, &plain);

    let weight = |i: usize| weights[i] as f64;
    let mut values = layers.finish(weight);
    layer_meta(report, &layers);
    if kind == Workload::Check {
        values.extend(side_abstraction(&prepared, weight, report));
    }
    // The serve layer on this workload's checks: one pass through a daemon.
    let jobs: Vec<Job> = cases.iter().map(job_of).collect::<Result<_, _>>()?;
    values.extend(daemon_pass(args, work, &jobs, &mix, report)?);
    values.insert(
        "trace.overhead_pct",
        (traced.geomean_of_medians() / plain.geomean_of_medians() - 1.0) * 100.0,
    );
    emit_layers(report, &values);
    Ok(())
}

/// The abstraction layer on the mix's systems that have a natural
/// homomorphism (the paper's figures, the protocol, farm and ring): traced
/// passes of the abstraction route over them.
fn side_abstraction(
    prepared: &[Prepared],
    weight: impl Fn(usize) -> f64,
    report: &mut Report,
) -> BTreeMap<&'static str, f64> {
    let mut layers = Layers::default();
    for _ in 0..SIDE_PASSES {
        for (i, p) in prepared.iter().enumerate() {
            if p.hom.is_some() {
                let result = traced_abstract(p, i, &mut layers).map(|_| ());
                report.tally(&p.case.name, &result);
            }
        }
    }
    layers
        .finish(weight)
        .into_iter()
        .filter(|(k, _)| k.starts_with("abstraction.") || *k == "logic.r_bar_ms")
        .collect()
}

fn job_of(c: &Case) -> Result<Job, String> {
    let system = match &c.source {
        Source::Fixture(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
        }
        Source::Generated(text) => text.clone(),
    };
    Ok(Job {
        name: c.name.clone(),
        system,
        formula: c.formula.clone(),
        expect: c.expect,
    })
}

/// One shuffled round of `mix` per client, two clients, through a fresh
/// `rlcheck serve --jobs 2`: the serve layer numbers.
fn daemon_pass(
    args: &Args,
    work: &Path,
    jobs: &[Job],
    mix: &[usize],
    report: &mut Report,
) -> Result<BTreeMap<&'static str, f64>, String> {
    // Socket paths are limited to ~100 bytes: keep it relative to the
    // checkout root, which is the working directory.
    let mut daemon = Daemon::spawn(&args.rlcheck, &work.join("s.sock"))?;
    let mut clients = (0..2)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;
    let before = DaemonView::take(&mut clients[0])?;
    let samples = closed_loop(&mut clients, jobs, mix, args.seed);
    let after = DaemonView::take(&mut clients[0])?;
    for s in &samples {
        let result = s.failure.clone().map_or(Ok(()), Err);
        report.tally(&jobs[s.job].name, &result);
    }
    drop(clients);
    daemon.shutdown()?;
    let acks: Vec<f64> = samples.iter().map(|s| s.ack_ms).collect();
    let [queue_p50, queue_p90, wall_p50, hits_per_job] = before.delta(&after)?;
    Ok(BTreeMap::from([
        ("serve.submit_ack_ms", median(&acks)),
        ("serve.queue_wait_us_p50", queue_p50),
        ("serve.queue_wait_us_p90", queue_p90),
        ("serve.job_wall_us_p50", wall_p50),
        ("serve.cache_hits_per_job", hits_per_job),
    ]))
}

/// The per-layer metrics, in BENCHMARK.json order, with their units.
const LAYER_METRICS: [(&str, &str); 22] = [
    ("logic.translate_ms", "ms"),
    ("core.classical_ms", "ms"),
    ("core.rel_live_ms", "ms"),
    ("core.rel_safe_ms", "ms"),
    ("core.states", "count"),
    ("core.transitions", "count"),
    ("core.guard_charges", "count"),
    ("core.prefilter_ms", "ms"),
    ("core.prefilter_decided_ratio", "ratio"),
    ("automata.lazy_inclusion_ms", "ms"),
    ("automata.cache_hits_per_check", "count"),
    ("abstraction.image_ms", "ms"),
    ("abstraction.maximal_ms", "ms"),
    ("abstraction.abstract_behavior_ms", "ms"),
    ("abstraction.simplicity_ms", "ms"),
    ("logic.r_bar_ms", "ms"),
    ("serve.submit_ack_ms", "ms"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.queue_wait_us_p90", "us"),
    ("serve.job_wall_us_p50", "us"),
    ("serve.cache_hits_per_job", "count"),
    ("trace.overhead_pct", "%"),
];

fn emit_layers(report: &mut Report, values: &BTreeMap<&'static str, f64>) {
    for (name, unit) in LAYER_METRICS {
        match values.get(name) {
            Some(&v) => report.metric(name, v, unit),
            None => report
                .failures
                .push(format!("per-layer metric {name} not measured")),
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let kind = match args.workload.as_str() {
        "check" => Workload::Check,
        "abstract" => Workload::Abstract,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    report.meta.insert("workload", json_str(&args.workload));
    report.meta.insert("seed", args.seed.to_string());
    report.meta.insert(
        "nproc",
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .to_string(),
    );
    for (key, var) in [("commit", "PERFBENCH_COMMIT"), ("rustc", "PERFBENCH_RUSTC")] {
        let value = std::env::var(var).unwrap_or_else(|_| "unknown".to_owned());
        report.meta.insert(key, json_str(&value));
    }
    report.meta.insert("trace", args.trace.to_string());
    let work = PathBuf::from(format!(".bench_work/{}", std::process::id()));
    let result = run(&args, kind, &work, &mut report);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    report.print();
}
