//! End-to-end tests of the `rlcheck` command-line tool against the sample
//! system files shipped in `examples/systems/`.

use std::path::Path;
use std::process::{Command, Output};

fn rlcheck(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rlcheck"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("rlcheck binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn sample_files_exist() {
    for f in [
        "examples/systems/server.pn",
        "examples/systems/server_err.pn",
        "examples/systems/clock.ts",
    ] {
        assert!(
            Path::new(env!("CARGO_MANIFEST_DIR")).join(f).exists(),
            "missing sample {f}"
        );
    }
}

#[test]
fn check_reports_relative_liveness() {
    let out = rlcheck(&["check", "examples/systems/server.pn", "[]<>result"]);
    assert_eq!(out.status.code(), Some(0), "rel-live => exit 0");
    let text = stdout(&out);
    assert!(text.contains("classical  []<>result: fails"));
    assert!(text.contains("rel-live   []<>result: HOLDS"));
    assert!(text.contains("counterexample"));
}

#[test]
fn check_reports_doomed_prefix() {
    let out = rlcheck(&["check", "examples/systems/server_err.pn", "[]<>result"]);
    assert_eq!(out.status.code(), Some(1), "not rel-live => exit 1");
    let text = stdout(&out);
    assert!(text.contains("rel-live   []<>result: fails"));
    assert!(text.contains("doomed prefix: lock"));
}

#[test]
fn abstract_pipeline_flags_non_simplicity() {
    let out = rlcheck(&[
        "abstract",
        "examples/systems/server_err.pn",
        "[]<>result",
        "--keep",
        "request,result,reject",
    ]);
    assert_eq!(out.status.code(), Some(3), "inconclusive => exit 3");
    let text = stdout(&out);
    assert!(text.contains("h simple: fails"));
    assert!(text.contains("violation: lock"));
    assert!(text.contains("INCONCLUSIVE"));
}

#[test]
fn abstract_pipeline_transfers_on_correct_server() {
    let out = rlcheck(&[
        "abstract",
        "examples/systems/server.pn",
        "[]<>result",
        "--keep",
        "request,result,reject",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.contains("h simple: HOLDS"));
    assert!(text.contains("Thm 8.2"));
}

#[test]
fn simplicity_subcommand() {
    let out = rlcheck(&[
        "simplicity",
        "examples/systems/server.pn",
        "--keep",
        "request,result,reject",
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        stdout(&out),
        "homomorphism: {request↦request, yes↦ε, no↦ε, result↦result, reject↦reject, lock↦ε, free↦ε}\n\
         simple: HOLDS (8 continuation pairs checked)\n"
    );
}

#[test]
fn simplicity_subcommand_names_the_violation() {
    let out = rlcheck(&[
        "simplicity",
        "examples/systems/server_err.pn",
        "--keep",
        "request,result,reject",
    ]);
    assert_eq!(out.status.code(), Some(1), "not simple => exit 1");
    let text = stdout(&out);
    assert!(text.contains("simple: fails"));
    assert!(text.contains("violation word: lock\n"));
}

#[test]
fn fair_subcommand_runs_scheduler() {
    let out = rlcheck(&[
        "fair",
        "examples/systems/clock.ts",
        "[]<>chime",
        "--steps",
        "50",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.contains("synthesized implementation"));
    assert!(text.contains("chime"));
}

#[test]
fn dot_subcommand_outputs_graphviz() {
    let out = rlcheck(&["dot", "examples/systems/clock.ts"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.starts_with("digraph"));
    assert!(text.contains("tick"));
}

#[test]
fn bad_usage_exits_2() {
    let out = rlcheck(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let out2 = rlcheck(&["check", "no/such/file.pn", "[]<>x"]);
    assert_eq!(out2.status.code(), Some(2));
    let out3 = rlcheck(&["check", "examples/systems/clock.ts", "[[[["]);
    assert_eq!(out3.status.code(), Some(2));
    // The retired live viewer is an unknown command, gone from the usage.
    let top = rlcheck(&["top", "/nonexistent.sock"]);
    assert_eq!(top.status.code(), Some(2));
    assert!(stderr(&top).contains("unknown command \"top\""));
    assert!(!stderr(&top).contains("|top|"), "{}", stderr(&top));
}

#[cfg(unix)]
#[test]
fn non_utf8_arguments_exit_2_with_usage() {
    use std::ffi::OsStr;
    use std::os::unix::ffi::OsStrExt;
    let out = Command::new(env!("CARGO_BIN_EXE_rlcheck"))
        .args(["check", "examples/systems/clock.ts"])
        .arg(OsStr::from_bytes(b"tick\xff"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("rlcheck binary runs");
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("usage: rlcheck"), "{}", stderr(&out));
}

/// `depth` parentheses around `tick`: the shape that costs the parser the
/// most stack per level.
fn parenthesized(depth: usize) -> String {
    format!("{}tick{}", "(".repeat(depth), ")".repeat(depth))
}

#[test]
fn deep_formulas_are_parse_errors_not_aborts() {
    use relative_liveness::logic::MAX_DEPTH;
    let batch = |formula: &str| {
        rlcheck(&[
            "batch",
            "examples/systems/clock.ts",
            "--formula",
            formula,
            "--jobs",
            "2",
        ])
    };
    // At the cap a formula still checks on a pool worker's stack.
    for formula in [
        parenthesized(MAX_DEPTH),
        format!("{}tick", "X ".repeat(MAX_DEPTH - 1)),
    ] {
        let out = batch(&formula);
        assert!(
            matches!(out.status.code(), Some(0 | 1)),
            "{:?}: {}",
            out.status,
            stderr(&out)
        );
    }
    let too_deep = format!("formula nests deeper than {MAX_DEPTH} levels");
    for formula in [
        parenthesized(MAX_DEPTH + 1),
        parenthesized(2000),
        format!("{}tick", "tick -> ".repeat(10_000)),
        format!("{}tick", "X ".repeat(10_000)),
    ] {
        let out = batch(&formula);
        assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
        assert!(stderr(&out).contains(&too_deep), "{}", stderr(&out));
    }
    // `check` parses on the main thread and fails the same way.
    let out = rlcheck(&["check", "examples/systems/clock.ts", &parenthesized(20_000)]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains(&too_deep), "{}", stderr(&out));
}

#[test]
fn help_prints_usage_and_exits_0() {
    for arg in ["help", "--help", "-h"] {
        let out = rlcheck(&[arg]);
        assert_eq!(out.status.code(), Some(0), "{arg}");
        assert!(stdout(&out).starts_with("usage: rlcheck <check|"), "{arg}");
        assert!(stderr(&out).is_empty(), "{arg}");
    }
    assert_eq!(rlcheck(&["--hlep"]).status.code(), Some(2));
}

#[test]
fn abp_sample_file_checks() {
    let out = rlcheck(&["check", "examples/systems/abp.ts", "[]<>deliver"]);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.contains("classical  []<>deliver: fails"));
    assert!(text.contains("rel-live   []<>deliver: HOLDS"));
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn max_states_budget_exhaustion_exits_3() {
    // The abstraction's simplicity check determinizes needle24.ts's
    // language, 2^24 subset states; a 5k-state budget must trip almost
    // immediately instead of hanging.
    let out = rlcheck(&[
        "abstract",
        "examples/systems/needle24.ts",
        "[]<>a",
        "--keep",
        "a",
        "--max-states",
        "5000",
        "--timeout",
        "5",
    ]);
    assert_eq!(out.status.code(), Some(3), "budget exhaustion => exit 3");
    let err = stderr(&out);
    assert!(err.contains("BudgetExceeded"), "stderr: {err}");
    assert!(err.contains("states"), "stderr: {err}");
    assert!(err.contains("limit 5000"), "stderr: {err}");
}

#[test]
fn zero_timeout_exits_3_with_wall_clock_report() {
    let out = rlcheck(&[
        "check",
        "examples/systems/needle24.ts",
        "[]<>a",
        "--timeout",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(3), "deadline exhaustion => exit 3");
    let err = stderr(&out);
    assert!(err.contains("BudgetExceeded"), "stderr: {err}");
    assert!(err.contains("wall-clock"), "stderr: {err}");
}

/// The one-state system whose behaviors are all of {a, b}^ω.
const SIGMA_AB: &str = "system\nalphabet: a b\ninitial: s\ns a -> s\ns b -> s\n";

/// Writes [`SIGMA_AB`] into a fresh temp directory named `dir`.
fn sigma_ab_system(dir: &str) -> String {
    let dir = std::env::temp_dir().join(dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("sigma_ab.ts");
    std::fs::write(&path, SIGMA_AB).expect("system written");
    path.to_str().expect("utf-8 path").to_owned()
}

#[test]
fn formula_blow_up_stops_at_the_deadline() {
    // The LTL→Büchi tableau of a 14-deep nested until runs for minutes,
    // even in a release build; translation polls the deadline, so a 1 s
    // timeout ends the check with exit 3 instead.
    let system = sigma_ab_system("rlcheck-formula-blow-up");
    let formula = rl_bench::nested_until(14).to_string();
    let started = std::time::Instant::now();
    let out = rlcheck(&["check", &system, &formula, "--timeout", "1"]);
    let took = started.elapsed();
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    assert!(
        took < std::time::Duration::from_secs(5),
        "took {took:?}; stderr: {}",
        stderr(&out)
    );
    assert!(stderr(&out).contains("wall-clock"), "{}", stderr(&out));
}

/// `a_d <-> (a_{d-1} <-> (… <-> a_0))`, with `atom(i)` naming `a_i`.
fn iff_chain(depth: usize, atom: impl Fn(usize) -> String) -> String {
    (1..=depth).fold(atom(0), |f, i| format!("{} <-> ({f})", atom(i)))
}

#[test]
fn iff_chains_end_within_the_deadline() {
    // Positive normal form copies both polarities of both sides of every
    // `<->`, so the PNF tree of a 20-deep chain has millions of nodes; the
    // translation's closure shares them and stays linear. A chain over one
    // atom then translates at once.
    let timed = |formula: &str| {
        let started = std::time::Instant::now();
        let out = rlcheck(&[
            "check",
            "examples/systems/clock.ts",
            formula,
            "--timeout",
            "1",
        ]);
        let took = started.elapsed();
        assert!(
            took < std::time::Duration::from_secs(5),
            "took {took:?}; stderr: {}",
            stderr(&out)
        );
        out
    };
    let out = timed(&iff_chain(20, |_| "tick".to_owned()));
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    // Over 21 distinct atoms the tableau itself is exponential (the parity
    // of the atoms), and its deadline polling ends the check with exit 3.
    let out = timed(&iff_chain(20, |i| format!("p{i}")));
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("wall-clock"), "{}", stderr(&out));
}

#[test]
fn easy_inputs_finish_under_a_five_second_timeout() {
    for (file, formula) in [
        ("examples/systems/abp.ts", "[]<>deliver"),
        ("examples/systems/server.pn", "[]<>result"),
    ] {
        let out = rlcheck(&["check", file, formula, "--timeout", "5"]);
        assert_eq!(out.status.code(), Some(0), "{file}: {}", stderr(&out));
    }
}

#[test]
fn large_alphabet_product_trips_max_states_at_a_pinned_charge() {
    // token_ring(128): 128 states over 256 actions. The classical
    // product charges 384 states; the charge order and worklist of the
    // relative-liveness product `L_ω ∩ P` fix where the budget trips.
    let mut text = String::from("system\nalphabet:");
    for i in 0..128 {
        text += &format!(" pass{i} work{i}");
    }
    text += "\ninitial: token@0\n";
    for i in 0..128 {
        text += &format!("token@{i} pass{i} -> token@{}\n", (i + 1) % 128);
        text += &format!("token@{i} work{i} -> token@{i}\n");
    }
    let dir = std::env::temp_dir().join("rlcheck-ring128");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("ring128.ts");
    std::fs::write(&path, text).expect("system written");
    let path = path.to_str().expect("utf-8 path");
    let out = rlcheck(&["check", path, "[]<>pass0", "--max-states", "600"]);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.lines()
            .any(|l| l.contains("601 states, 1452 transitions explored (frontier 0)")),
        "stderr: {err}"
    );
}

#[test]
fn atoms_outside_the_alphabet_are_warned_about() {
    let out = rlcheck(&["check", "examples/systems/clock.ts", "[]<>c | <>chime"]);
    let err = stderr(&out);
    assert!(
        err.contains(
            "warning: atom \"c\" is not an action of the system; under λ_Σ it never holds"
        ),
        "stderr: {err}"
    );
    assert!(!err.contains("atom \"chime\""), "stderr: {err}");
    // The warning changes neither the report nor the exit code.
    let plain = rlcheck(&["check", "examples/systems/clock.ts", "[]<>chime"]);
    assert!(stderr(&plain).is_empty(), "{}", stderr(&plain));
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("rel-live   []<>c | <>chime: HOLDS"));
}

/// `(label, path, formula)` of the golden cases: the nine fixtures
/// with perfbench's formulas, then `rl_bench::fairness_chain(k)` over
/// [`SIGMA_AB`], then the generated farms, rings and random systems whose
/// alphabets grow with the system.
fn golden_cases() -> Vec<(String, String, String)> {
    let sigma_ab = sigma_ab_system("rlcheck-golden-check");
    let generated = |label: String, ts: rl_automata::TransitionSystem, formula: &str| {
        let path = write_generated("rlcheck-golden-generated", &label, &ts);
        (label, path, formula.to_owned())
    };
    let mut cases: Vec<(String, String, String)> = [
        ("server.pn", "[]<>result"),
        ("server_err.pn", "[]<>result"),
        ("abp.ts", "[]<>deliver"),
        ("clock.ts", "[]<>chime"),
        ("filter_fallthrough.ts", "[]<>a"),
        ("filter_mod3.ts", "[]<>a"),
        ("filter_parikh.ts", "[]<>a"),
        ("filter_sim.ts", "[]<>ack"),
        ("needle24.ts", "[]<>a"),
    ]
    .into_iter()
    .map(|(file, formula)| {
        let path = format!("examples/systems/{file}");
        (path.clone(), path, formula.to_owned())
    })
    .collect();
    for k in [2, 4, 6] {
        let formula = rl_bench::fairness_chain(k).to_string();
        cases.push(("sigma_ab.ts".to_owned(), sigma_ab.clone(), formula));
    }
    for k in [2, 3] {
        let ts = rl_bench::server_farm(k);
        cases.push(generated(format!("server_farm({k})"), ts, "[]<>result0"));
    }
    for n in [32, 128] {
        let ts = rl_bench::token_ring(n);
        cases.push(generated(format!("token_ring({n})"), ts, "[]<>pass0"));
    }
    for n in [200, 500] {
        let ts = rl_bench::random_system(n as u64, n, 4, 0.4);
        let label = format!("random_system({n})");
        cases.push(generated(label, ts, "[]<>t0 | <>[]!t0"));
    }
    cases
}

/// Writes `ts` as `<temp dir>/<dir>/<label>.ts` and returns the path.
fn write_generated(dir: &str, label: &str, ts: &rl_automata::TransitionSystem) -> String {
    let dir = std::env::temp_dir().join(dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{label}.ts"));
    std::fs::write(&path, relative_liveness::format::render_system(ts)).expect("system written");
    path.to_str().expect("utf-8 path").to_owned()
}

/// One `rlcheck check <path> <formula> --metrics <file>` run of the golden
/// tests.
struct GoldenRun {
    /// `label formula`.
    header: String,
    /// The arguments after `check`: a path and a formula.
    args: Vec<String>,
    stdout: String,
    code: i32,
    /// [`counter_block`] of the run's `--metrics` file.
    counters: String,
}

impl GoldenRun {
    /// Runs `rlcheck check <args> --metrics <temp dir>/<name>.jsonl`.
    fn run(header: String, args: Vec<String>, name: &str) -> GoldenRun {
        let metrics = std::env::temp_dir().join(format!("rlcheck-golden-generated/{name}.jsonl"));
        let mut argv = vec!["check"];
        argv.extend(args.iter().map(String::as_str));
        argv.extend(["--metrics", metrics.to_str().expect("utf-8 path")]);
        let out = rlcheck(&argv);
        let code = out.status.code().expect("rlcheck exits with a code");
        let text = std::fs::read_to_string(&metrics).expect("--metrics wrote the file");
        GoldenRun {
            counters: counter_block(&text, code),
            stdout: stdout(&out),
            header,
            args,
            code,
        }
    }
}

/// The deterministic work one `--metrics` file records: every span as
/// `path states transitions guard_charges` in `seq` order, the exit code,
/// then the totals and their named counters.
fn counter_block(metrics: &str, code: i32) -> String {
    let lines: Vec<rl_json::Json> = metrics
        .lines()
        .map(|l| rl_json::parse(l).unwrap_or_else(|e| panic!("bad JSONL line {l:?}: {e}")))
        .collect();
    let work = |v: &rl_json::Json| {
        let [s, t, g] = ["states", "transitions", "guard_charges"].map(|k| int_field(v, k));
        format!("{s} {t} {g}")
    };
    let mut spans: Vec<_> = lines
        .iter()
        .filter(|v| str_field_of(v, "event") == "span")
        .collect();
    spans.sort_by_key(|v| int_field(v, "seq"));
    let mut block = String::new();
    for span in spans {
        block += &format!("{} {}\n", str_field_of(span, "path"), work(span));
    }
    block += &format!("exit {code}\n");
    let totals = lines.last().expect("a totals line");
    assert_eq!(str_field_of(totals, "event"), "totals");
    block += &format!("totals {}\n", work(totals));
    if let Some(rl_json::Json::Obj(counters)) = totals.get("counters") {
        for (name, value) in counters {
            match value {
                rl_json::Json::Int(n) => block += &format!("  {name} {n}\n"),
                other => panic!("counter {name} is not an int: {other:?}"),
            }
        }
    }
    block
}

/// Every golden run, made once per test binary: one per default case. No
/// run takes a flag, so no line depends on the machine.
fn golden_runs() -> &'static [GoldenRun] {
    static RUNS: std::sync::OnceLock<Vec<GoldenRun>> = std::sync::OnceLock::new();
    RUNS.get_or_init(|| {
        golden_cases()
            .into_iter()
            .enumerate()
            .map(|(i, (label, path, formula))| {
                let header = format!("{label} {formula}");
                GoldenRun::run(header, vec![path, formula], &i.to_string())
            })
            .collect()
    })
}

/// Set to any value, this makes the golden tests write their actual output
/// to `tests/golden/` instead of comparing against it:
/// `RL_BLESS_GOLDEN=1 cargo test --test cli golden`.
const BLESS_VAR: &str = "RL_BLESS_GOLDEN";

fn assert_matches_golden(file: &str, actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os(BLESS_VAR).is_some() {
        std::fs::write(&path, actual).expect("golden file writable");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file readable");
    for (i, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "line {} of tests/golden/{file}", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "tests/golden/{file}"
    );
}

#[test]
fn check_stdout_matches_golden() {
    let mut text = String::new();
    for run in golden_runs() {
        text += &format!("=== {}\n{}exit {}\n", run.header, run.stdout, run.code);
    }
    assert_matches_golden("check_stdout.txt", &text);
}

#[test]
fn check_counters_match_golden() {
    let mut text = String::new();
    for run in golden_runs() {
        text += &format!("=== {}\n{}", run.header, run.counters);
    }
    assert_matches_golden("check_counters.txt", &text);
    // Telemetry observes and never steers: the event tracer leaves every
    // counter of every default case where it was.
    for (i, run) in golden_runs().iter().enumerate() {
        let trace = std::env::temp_dir().join(format!("rlcheck-golden-generated/{i}.trace.json"));
        let mut args = run.args.clone();
        args.extend(["--trace-out".to_owned(), trace.display().to_string()]);
        let traced = GoldenRun::run(run.header.clone(), args, &format!("{i}.traced"));
        assert_eq!(
            traced.counters, run.counters,
            "{} under --trace-out",
            run.header
        );
    }
}

/// `rlcheck abstract` stdout and exit code on perfbench's `abstract` mix
/// (the two servers, the protocol, `server_farm(1|2)`, `token_ring(32)`)
/// plus `server_farm(3)` and `token_ring(128)`, each with the hiding the
/// mix uses: the abstract system's size, both verdicts, the simplicity
/// witness, the maximal-word side condition and the conclusion.
#[test]
fn abstract_stdout_matches_golden() {
    let figure = "request,result,reject".to_owned();
    let mut cases: Vec<(String, String, String, String)> = [
        ("server.pn", "[]<>result", figure.clone()),
        ("server_err.pn", "[]<>result", figure),
        ("abp.ts", "[]<>deliver", "deliver,ack0,ack1".to_owned()),
    ]
    .into_iter()
    .map(|(file, formula, keep)| {
        let path = format!("examples/systems/{file}");
        (path.clone(), path, formula.to_owned(), keep)
    })
    .collect();
    let generated = |label: String, ts, formula: &str, keep: Vec<String>| {
        let path = write_generated("rlcheck-golden-abstract", &label, &ts);
        (label, path, formula.to_owned(), keep.join(","))
    };
    for k in [1, 2, 3] {
        let ts = rl_bench::server_farm(k);
        let keep = rl_bench::farm_observables(k);
        cases.push(generated(
            format!("server_farm({k})"),
            ts,
            "[]<>result0",
            keep,
        ));
    }
    for n in [32, 128] {
        let keep = (0..n).map(|i| format!("pass{i}")).collect();
        let ts = rl_bench::token_ring(n);
        cases.push(generated(format!("token_ring({n})"), ts, "[]<>pass0", keep));
    }
    let mut text = String::new();
    for (label, path, formula, keep) in cases {
        let out = rlcheck(&["abstract", &path, &formula, "--keep", &keep]);
        let code = out.status.code().expect("rlcheck exits with a code");
        text += &format!("=== {label} {formula}\n{}exit {code}\n", stdout(&out));
    }
    assert_matches_golden("abstract_stdout.txt", &text);
}

/// Deterministic work of one default check run as a batch job on a
/// two-worker pool: the `check` span's totals and every named counter,
/// with or without the pool's latency histograms attached.
fn check_work(file: &str, formula: &str, max_states: usize, hists: bool) -> Vec<(String, u64)> {
    use relative_liveness::automata::{HistogramRegistry, Pool};
    use relative_liveness::core::{Budget, CheckPlan, Guard, Metric, MetricsRegistry, Property};
    let text = std::fs::read_to_string(format!("examples/systems/{file}")).expect("fixture");
    let ts = relative_liveness::format::parse_system(&text).expect("fixture parses");
    let prop = Property::formula(relative_liveness::logic::parse(formula).expect("formula"));
    let pool = Pool::new(2);
    if hists {
        pool.set_histograms(HistogramRegistry::new());
    }
    let job = move || {
        let registry = MetricsRegistry::new();
        let mut budget = Budget::unlimited();
        budget.max_states = Some(max_states);
        let guard = Guard::new(budget).with_metrics(registry.clone());
        {
            let _span = guard.span("check");
            let behaviors = relative_liveness::buchi::behaviors_of_ts_with(&ts, &guard).expect("L");
            CheckPlan::new(&behaviors, &prop, &guard)
                .decide()
                .expect("decided");
        }
        registry.snapshot()
    };
    let jobs: Vec<Box<dyn FnOnce() -> _ + Send>> = vec![Box::new(job)];
    let snapshot = pool
        .run_jobs(jobs)
        .pop()
        .expect("one job")
        .expect("no panic");
    let mut work = snapshot.counters.clone();
    for metric in [
        Metric::States,
        Metric::Transitions,
        Metric::GuardCharges,
        Metric::CacheHits,
    ] {
        work.push((format!("{metric:?}"), snapshot.total(metric)));
    }
    work
}

#[test]
fn histograms_move_no_counter() {
    for (file, formula, max_states) in [
        ("abp.ts", "[]<>deliver", usize::MAX),
        ("clock.ts", "[]<>tick", usize::MAX),
        ("server.pn", "[]<>result", usize::MAX),
        ("server_err.pn", "[]<>result", usize::MAX),
        ("needle24.ts", "[]<>a", 20_000),
    ] {
        let plain = check_work(file, formula, max_states, false);
        assert_eq!(check_work(file, formula, max_states, true), plain, "{file}");
    }
}

#[test]
fn budget_flags_do_not_disturb_small_inputs() {
    // The same flags on an easy input leave the verdict (and exit 0) alone.
    let out = rlcheck(&[
        "check",
        "examples/systems/abp.ts",
        "[]<>deliver",
        "--max-states",
        "100000",
        "--timeout",
        "60",
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("rel-live   []<>deliver: HOLDS"));
}

/// The rows of a `--stats` phase table as slash-joined span paths, each
/// with its states column (two spaces of indent per nesting level).
fn stats_rows(err: &str) -> Vec<(String, u64)> {
    let mut stack: Vec<String> = Vec::new();
    let mut rows = Vec::new();
    for line in err
        .lines()
        .skip_while(|l| !l.starts_with("phase"))
        .skip(1)
        .take_while(|l| !l.starts_with("total"))
    {
        let depth = (line.len() - line.trim_start().len()) / 2;
        let mut cols = line.split_whitespace();
        let (Some(name), Some(states)) = (cols.next(), cols.next()) else {
            continue;
        };
        stack.truncate(depth);
        stack.push(name.to_owned());
        rows.push((stack.join("/"), states.parse().expect("states column")));
    }
    rows
}

#[test]
fn stats_flag_prints_phase_table_on_stderr() {
    let out = rlcheck(&["check", "examples/systems/abp.ts", "[]<>deliver", "--stats"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "--stats must not change the verdict"
    );
    // The verdict stays on stdout, the profile goes to stderr.
    assert!(stdout(&out).contains("rel-live   []<>deliver: HOLDS"));
    let err = stderr(&out);
    let header = err
        .lines()
        .find(|l| l.starts_with("phase"))
        .unwrap_or_else(|| panic!("no header in stderr: {err}"));
    for col in ["states", "transitions", "cache-hits", "elapsed"] {
        assert!(header.contains(col), "header missing {col}: {header}");
    }
    for phase in [
        "check",
        "parse",
        "behaviors",
        "classical",
        "relative_liveness",
        "relative_safety",
        "lazy_inclusion",
        "buchi_intersection",
    ] {
        assert!(err.contains(phase), "no {phase} row in stderr: {err}");
    }
    // The lazy-pipeline counters are headline rows of the profile.
    for counter in ["lazy/expanded", "lazy/subsumed"] {
        assert!(err.contains(counter), "no {counter} row in stderr: {err}");
    }
    assert!(err.contains("total"), "no totals footer: {err}");
    // abp is relatively live but fails classically, so Theorem 4.7 settles
    // relative safety: its span is opened and charges nothing.
    let rows = stats_rows(&err);
    assert!(
        rows.iter()
            .any(|(path, states)| path == "check/relative_safety" && *states == 0),
        "relative_safety row should charge 0 states: {rows:?}"
    );
    // server_err is not relatively live, so Lemma 4.4's product is built.
    let doomed = rlcheck(&[
        "check",
        "examples/systems/server_err.pn",
        "[]<>result",
        "--stats",
    ]);
    assert_eq!(doomed.status.code(), Some(1));
    let rows = stats_rows(&stderr(&doomed));
    assert!(
        rows.iter()
            .any(|(path, _)| path == "check/relative_safety/buchi_intersection"),
        "no relative_safety/buchi_intersection row: {rows:?}"
    );
}

#[test]
fn default_check_decides_lemma_4_3_by_the_lazy_search_alone() {
    // One exact decider per pipeline: a default check opens the lazy
    // inclusion span and no pre-filter span.
    let out = rlcheck(&["check", "examples/systems/abp.ts", "[]<>deliver", "--stats"]);
    assert_eq!(out.status.code(), Some(0));
    let err = stderr(&out);
    let rows = stats_rows(&err);
    assert!(
        rows.iter()
            .any(|(path, _)| path == "check/relative_liveness/lazy_inclusion"),
        "no lazy_inclusion span: {rows:?}"
    );
    assert!(
        !rows.iter().any(|(path, _)| path.contains("prefilter")),
        "a pre-filter span ran: {rows:?}"
    );
    assert!(!err.contains("filter/"), "filter counters recorded: {err}");
}

#[test]
fn retired_flags_are_usage_errors() {
    // The operation cache is gone, and so are its switch and byte budget;
    // the eager pipeline is gone, and so is its switch.
    let no_cache = concat!("--no-op-", "cache");
    let budget = concat!("--cache-", "bytes");
    let no_lazy = concat!("--no-", "lazy");
    let socket = std::env::temp_dir().join("rlcheck-retired-flags.sock");
    let socket = socket.to_str().expect("utf-8 path");
    for extra in [vec![no_cache], vec![budget, "65536"], vec![no_lazy]] {
        let mut commands = vec![
            vec!["check", "examples/systems/abp.ts", "[]<>deliver"],
            vec![
                "batch",
                "examples/systems/abp.ts",
                "--formula",
                "[]<>deliver",
            ],
        ];
        if cfg!(unix) {
            commands.push(vec!["serve", "--socket", socket]);
        }
        for mut args in commands {
            args.extend(&extra);
            let out = rlcheck(&args);
            assert_eq!(out.status.code(), Some(2), "{args:?}");
            assert!(
                stderr(&out).contains(&format!("unexpected argument {:?}", extra[0])),
                "{args:?}: {}",
                stderr(&out)
            );
        }
    }
}

#[test]
fn retired_ladder_flag_is_a_usage_error() {
    // `check` rejects stray arguments, the retired ladder switch included.
    let flag = concat!("--no-", "filters");
    let out = rlcheck(&["check", "examples/systems/abp.ts", "[]<>deliver", flag]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(
        err.contains(&format!("unexpected argument {flag:?}")),
        "{err}"
    );
    assert!(err.contains("usage: rlcheck"), "no usage line: {err}");
}

#[test]
fn metrics_flag_writes_parseable_jsonl_covering_the_pipeline() {
    let dir = std::env::temp_dir().join("rlcheck-cli-metrics");
    std::fs::create_dir_all(&dir).expect("temp dir");
    fn str_field(v: &rl_json::Json, key: &str) -> String {
        match v.get(key) {
            Some(rl_json::Json::Str(s)) => s.clone(),
            other => panic!("field {key} is not a string: {other:?}"),
        }
    }
    // Runs one check with --metrics and returns the file text, its event
    // kinds and its span paths.
    let run = |file: &str, formula: &str, code: i32| {
        let path = dir.join(format!("{file}.jsonl"));
        let out = rlcheck(&[
            "check",
            &format!("examples/systems/{file}"),
            formula,
            "--metrics",
            path.to_str().expect("utf-8 temp path"),
        ]);
        assert_eq!(out.status.code(), Some(code), "{file}");
        let text = std::fs::read_to_string(&path).expect("--metrics wrote the file");
        let mut events = Vec::new();
        let mut paths = Vec::new();
        for line in text.lines() {
            let v = rl_json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
            let event = str_field(&v, "event");
            if event == "span" {
                paths.push(str_field(&v, "path"));
            }
            events.push(event);
        }
        (text, events, paths)
    };
    let (text, events, mut paths) = run("abp.ts", "[]<>deliver", 0);
    // abp settles relative safety by Theorem 4.7; server_err is not
    // relatively live, so its check builds Lemma 4.4's product.
    let (_, _, doomed_paths) = run("server_err.pn", "[]<>result", 1);
    assert!(
        paths.iter().any(|p| p == "check/relative_safety"),
        "{paths:?}"
    );
    assert!(
        doomed_paths
            .iter()
            .any(|p| p == "check/relative_safety/buchi_intersection"),
        "{doomed_paths:?}"
    );
    paths.extend(doomed_paths);
    assert_eq!(events.first().map(String::as_str), Some("meta"));
    assert_eq!(events.last().map(String::as_str), Some("totals"));
    let meta = rl_json::parse(text.lines().next().expect("meta line")).expect("meta parses");
    // Every file carries the one schema; a one-shot check records no
    // percentile histogram and no trace, and its meta line says so.
    assert_eq!(str_field(&meta, "schema"), "rl-obs/v3");
    assert_eq!(meta.get("events"), Some(&rl_json::Json::Int(0)), "{meta:?}");
    assert_eq!(meta.get("hists"), Some(&rl_json::Json::Int(0)), "{meta:?}");
    // Every phase of the (lazy, default) check pipeline shows up as a
    // span path.
    for needle in [
        "check",
        "check/parse",
        "check/behaviors/limit",
        "check/classical/negation",
        "check/relative_liveness/lazy_inclusion",
        "check/relative_safety/buchi_intersection",
    ] {
        assert!(
            paths.iter().any(|p| p == needle),
            "missing span {needle}; got {paths:?}"
        );
    }
    // The lazy counters ride along in the totals record.
    let totals = rl_json::parse(text.lines().last().expect("totals line")).expect("totals parses");
    match totals.get("counters") {
        Some(rl_json::Json::Obj(counters)) => {
            assert!(
                counters
                    .iter()
                    .any(|(k, v)| k == "lazy/expanded"
                        && matches!(v, rl_json::Json::Int(n) if *n > 0)),
                "no positive lazy/expanded in totals: {counters:?}"
            );
        }
        other => panic!("totals has no counters object: {other:?}"),
    }
}

#[test]
fn needle24_decides_within_a_thousand_states() {
    // Classical fails, rel-live holds, so Theorem 4.7 settles relative
    // safety with the classical counterexample: no Lemma 4.4 product is
    // built and the whole check stays under 1000 states.
    let out = rlcheck(&[
        "check",
        "examples/systems/needle24.ts",
        "[]<>a",
        "--max-states",
        "1000",
        "--timeout",
        "10",
        "--stats",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("rel-live   []<>a: HOLDS"));
    let rows = stats_rows(&stderr(&out));
    let total = rows
        .iter()
        .find(|(path, _)| path == "check")
        .map(|&(_, states)| states);
    assert!(
        total.is_some_and(|states| states <= 1000),
        "check charged {total:?} states: {rows:?}"
    );
    // Each property automaton is translated once per check.
    for name in ["negation", "translate"] {
        let count = rows
            .iter()
            .filter(|(path, _)| path.rsplit('/').next() == Some(name))
            .count();
        assert_eq!(count, 1, "{name} spans: {rows:?}");
    }
}

#[test]
fn needle24_is_decided_by_the_lazy_search_within_budget() {
    // Determinizing needle24 needs 2^24 subset states; the fused search
    // decides it under a 19k-state budget, subsumption firing.
    let lazy = rlcheck(&[
        "check",
        "examples/systems/needle24.ts",
        "[]<>a",
        "--max-states",
        "19000",
        "--timeout",
        "10",
        "--stats",
    ]);
    assert_eq!(lazy.status.code(), Some(0), "stderr: {}", stderr(&lazy));
    assert!(stdout(&lazy).contains("rel-live   []<>a: HOLDS"));
    let err = stderr(&lazy);
    for counter in ["lazy/expanded", "lazy/subsumed"] {
        let value = err
            .lines()
            .find_map(|l| l.strip_prefix(counter))
            .and_then(|rest| rest.trim().parse::<u64>().ok());
        assert!(value.is_some_and(|n| n > 0), "{counter}: {err}");
    }
    assert!(
        err.contains("lazy_inclusion"),
        "no lazy_inclusion row: {err}"
    );
}

#[test]
fn budget_report_names_the_exhausted_phase() {
    // The abstraction's simplicity check exhausts a 5k-state cap inside the
    // subset construction of needle24's language.
    let out = rlcheck(&[
        "abstract",
        "examples/systems/needle24.ts",
        "[]<>a",
        "--keep",
        "a",
        "--max-states",
        "5000",
        "--stats",
    ]);
    assert_eq!(out.status.code(), Some(3));
    let err = stderr(&out);
    assert!(
        err.contains("in phase abstract/abstraction_pipeline/simplicity/determinize"),
        "budget report must name the phase: {err}"
    );
    // The profile is still flushed on the exit-3 path.
    assert!(
        err.contains("total"),
        "no totals footer after exhaustion: {err}"
    );
    // `check` sails past that cap (it never determinizes); a much tighter
    // one trips inside the fused inclusion search, and the report names
    // *that* phase.
    let lazy = rlcheck(&[
        "check",
        "examples/systems/needle24.ts",
        "[]<>a",
        "--max-states",
        "175",
        "--stats",
    ]);
    assert_eq!(lazy.status.code(), Some(3));
    let lerr = stderr(&lazy);
    assert!(
        lerr.contains("in phase check/relative_liveness/lazy_inclusion"),
        "budget report must name the lazy phase: {lerr}"
    );
}

#[test]
fn metrics_flag_without_value_exits_2() {
    let out = rlcheck(&[
        "check",
        "examples/systems/abp.ts",
        "[]<>deliver",
        "--metrics",
    ]);
    assert_eq!(out.status.code(), Some(2), "missing value => usage error");
}

#[test]
fn petri_whole_net_errors_name_the_cause() {
    let dir = std::env::temp_dir().join("rlcheck-petri-errors");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, text, cause) in [
        ("empty.pn", "petri\n", "petri net declares no transitions"),
        (
            "unbounded.pn",
            "petri\nplace p 1\ntrans t: p -> p p\n",
            "reachability graph exceeded the bound",
        ),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("net written");
        let out = rlcheck(&["check", path.to_str().expect("utf-8 path"), "[]<>t"]);
        assert_eq!(out.status.code(), Some(2), "{name}");
        let err = stderr(&out);
        assert!(err.contains(cause), "{name}: {err}");
        // Whole-net errors point at no line, and nothing is misreported as
        // a duplicate name.
        assert!(
            !err.contains("line 0") && !err.contains("duplicate"),
            "{name}: {err}"
        );
    }
}

#[test]
fn malformed_budget_flags_exit_2() {
    let out = rlcheck(&[
        "check",
        "examples/systems/abp.ts",
        "[]<>deliver",
        "--timeout",
    ]);
    assert_eq!(out.status.code(), Some(2), "missing value => usage error");
    let out2 = rlcheck(&[
        "check",
        "examples/systems/abp.ts",
        "[]<>deliver",
        "--max-states",
        "many",
    ]);
    assert_eq!(
        out2.status.code(),
        Some(2),
        "non-numeric value => usage error"
    );
}

#[test]
fn jobs_flag_is_rejected_outside_batch_and_serve() {
    // A single check always runs on the calling thread; --jobs only sizes
    // the pool that batch and serve run whole checks on.
    for args in [
        &[
            "check",
            "examples/systems/abp.ts",
            "[]<>deliver",
            "--jobs",
            "2",
        ][..],
        &[
            "abstract",
            "examples/systems/server.pn",
            "[]<>result",
            "--keep",
            "result",
            "--jobs",
            "2",
        ],
        &["dot", "examples/systems/clock.ts", "--jobs", "1"],
    ] {
        let out = rlcheck(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stdout(&out).is_empty(), "{args:?}");
        let err = stderr(&out);
        assert!(
            err.contains("--jobs applies only to batch and serve") && err.contains("usage:"),
            "{args:?}: {err}"
        );
    }
}

/// A one-line manifest for the `--jobs` resolution tests.
fn clock_manifest(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let manifest = dir.join("checks.txt");
    std::fs::write(&manifest, "examples/systems/clock.ts []<>tick\n").expect("manifest written");
    manifest
}

#[test]
fn jobs_zero_autodetects_and_rl_threads_is_overridden_by_flag() {
    let manifest = clock_manifest("rlcheck-jobs-auto");
    let manifest = manifest.to_str().expect("utf-8 path");
    let batch = |jobs: Option<&str>, env: Option<&str>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_rlcheck"));
        cmd.args(["batch", "--manifest", manifest])
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .env_remove("RL_THREADS");
        if let Some(jobs) = jobs {
            cmd.args(["--jobs", jobs]);
        }
        if let Some(value) = env {
            cmd.env("RL_THREADS", value);
        }
        cmd.output().expect("rlcheck binary runs")
    };
    // --jobs 0 resolves to the core count; the batch must still succeed
    // and agree with sequential output.
    let base = batch(None, None);
    let auto = batch(Some("0"), None);
    assert_eq!(auto.status.code(), base.status.code());
    assert_eq!(stdout(&auto), stdout(&base));
    // RL_THREADS picks the count when no flag is given; an explicit flag
    // wins, and a malformed value is never even read.
    let flagged = batch(Some("2"), Some("broken-value-must-be-ignored"));
    assert_eq!(flagged.status.code(), base.status.code());
    assert_eq!(stdout(&flagged), stdout(&base));
    assert!(
        !stderr(&flagged).contains("RL_THREADS"),
        "{}",
        stderr(&flagged)
    );
    // Without the flag a malformed RL_THREADS warns once and runs
    // sequentially.
    let broken = batch(None, Some("four"));
    assert_eq!(broken.status.code(), base.status.code());
    assert_eq!(stdout(&broken), stdout(&base));
    let err = stderr(&broken);
    assert_eq!(
        err.matches("warning: RL_THREADS=\"four\" is not a valid integer; using default 1")
            .count(),
        1,
        "{err}"
    );
}

#[test]
fn jobs_choice_is_recorded_in_metrics_header() {
    let manifest = clock_manifest("rlcheck-jobs-meta");
    let path = manifest.with_file_name("metrics.jsonl");
    let out = rlcheck(&[
        "batch",
        "--manifest",
        manifest.to_str().expect("utf-8 path"),
        "--jobs",
        "4",
        "--metrics",
        path.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let text = std::fs::read_to_string(&path).expect("metrics file written");
    let meta = rl_json::parse(text.lines().next().expect("header line")).expect("valid json");
    assert_eq!(
        meta.get("jobs"),
        Some(&rl_json::Json::Int(4)),
        "worker count lands in the JSONL header"
    );
}

#[test]
fn batch_runs_files_with_shared_formula() {
    let out = rlcheck(&[
        "batch",
        "examples/systems/clock.ts",
        "examples/systems/no-such-system.ts",
        "--formula",
        "[]<>tick",
        "--jobs",
        "4",
    ]);
    let text = stdout(&out);
    // Buffered per-job output prints in submission order.
    let clock = text
        .find("=== examples/systems/clock.ts")
        .expect("clock header");
    let missing = text
        .find("=== examples/systems/no-such-system.ts")
        .expect("missing header");
    assert!(clock < missing, "submission order preserved:\n{text}");
    assert!(text.contains("batch: 1/2 checks relatively live"));
    // clock holds (0), the missing file is an error (2); worst wins.
    assert_eq!(out.status.code(), Some(2), "worst exit code wins");
}

#[test]
fn batch_manifest_mode_and_exit_aggregation() {
    let dir = std::env::temp_dir().join("rlcheck-batch-manifest");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let manifest = dir.join("checks.txt");
    std::fs::write(
        &manifest,
        "# two real checks and one failing one\n\
         examples/systems/clock.ts []<>tick\n\
         \n\
         examples/systems/server_err.pn []<>result\n",
    )
    .expect("manifest written");
    let out = rlcheck(&[
        "batch",
        "--manifest",
        manifest.to_str().expect("utf-8 path"),
        "--jobs",
        "2",
    ]);
    let text = stdout(&out);
    assert!(text.contains("=== examples/systems/clock.ts []<>tick"));
    assert!(text.contains("rel-live   []<>result: fails"));
    assert!(text.contains("batch: 1/2 checks relatively live"));
    assert_eq!(out.status.code(), Some(1), "clock holds, server_err fails");
}

#[test]
fn batch_manifest_runs_at_four_jobs() {
    let dir = std::env::temp_dir().join("rlcheck-batch-jobs4");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let manifest = dir.join("manifest.txt");
    std::fs::write(
        &manifest,
        "examples/systems/clock.ts []<>tick\nexamples/systems/server.pn []<>result\n",
    )
    .expect("manifest written");
    let out = rlcheck(&[
        "batch",
        "--manifest",
        manifest.to_str().expect("utf-8 path"),
        "--jobs",
        "4",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
}

#[test]
fn batch_output_is_identical_across_jobs() {
    let dir = std::env::temp_dir().join("rlcheck-batch-determinism");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let manifest = dir.join("checks.txt");
    std::fs::write(
        &manifest,
        "examples/systems/clock.ts []<>tick\n\
         examples/systems/abp.ts []<>deliver\n\
         examples/systems/server.pn []<>result\n",
    )
    .expect("manifest written");
    let run = |jobs: &str| {
        rlcheck(&[
            "batch",
            "--manifest",
            manifest.to_str().expect("utf-8 path"),
            "--jobs",
            jobs,
        ])
    };
    let (j1, j4) = (run("1"), run("4"));
    assert_eq!(j1.status.code(), j4.status.code());
    assert_eq!(
        stdout(&j1),
        stdout(&j4),
        "batch output independent of --jobs"
    );
}

#[test]
fn batch_timeout_stops_all_jobs_with_exit_3() {
    // One zero deadline governs the whole batch: every nontrivial job trips
    // (exit 3 aggregates) and, with --stats, diagnostics name the phase.
    let out = rlcheck(&[
        "batch",
        "examples/systems/needle24.ts",
        "examples/systems/needle24.ts",
        "--formula",
        "[]<>deliver",
        "--jobs",
        "4",
        "--timeout",
        "0",
        "--stats",
    ]);
    assert_eq!(out.status.code(), Some(3));
    let err = stderr(&out);
    assert!(
        err.matches("resource budget exhausted").count() >= 2,
        "every worker observes the shared deadline:\n{err}"
    );
    assert!(err.contains("in phase check/"), "phase-named diagnostics");
}

#[test]
fn batch_without_checks_exits_2() {
    let out = rlcheck(&["batch", "--jobs", "2"]);
    assert_eq!(out.status.code(), Some(2));
    let out2 = rlcheck(&["batch", "examples/systems/clock.ts"]);
    assert_eq!(
        out2.status.code(),
        Some(2),
        "positional files need --formula"
    );
}

/// Parses a `--trace-out` file and returns its `traceEvents` array.
fn trace_events(path: &Path) -> Vec<rl_json::Json> {
    let text = std::fs::read_to_string(path).expect("--trace-out wrote the file");
    let json = rl_json::parse(&text).expect("trace file is valid JSON");
    match json.get("traceEvents") {
        Some(rl_json::Json::Arr(events)) => events.clone(),
        other => panic!("no traceEvents array: {other:?}"),
    }
}

fn int_field(v: &rl_json::Json, key: &str) -> i64 {
    match v.get(key) {
        Some(rl_json::Json::Int(n)) => *n,
        other => panic!("field {key} is not an int: {other:?}"),
    }
}

fn str_field_of(v: &rl_json::Json, key: &str) -> String {
    match v.get(key) {
        Some(rl_json::Json::Str(s)) => s.clone(),
        other => panic!("field {key} is not a string: {other:?}"),
    }
}

#[test]
fn trace_out_records_balanced_worker_tracks_and_pool_instants() {
    let dir = std::env::temp_dir().join("rlcheck-trace-out");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("trace.json");
    let flame = dir.join("flame.folded");
    let manifest = dir.join("checks.txt");
    // The tableau of a 14-deep nested until runs for minutes, so each job
    // runs until its share of the batch deadline and all four workers stay
    // busy at once.
    let system = sigma_ab_system("rlcheck-trace-out");
    let check = format!("{system} {}\n", rl_bench::nested_until(14));
    std::fs::write(&manifest, check.repeat(8)).expect("manifest written");
    let out = rlcheck(&[
        "batch",
        "--manifest",
        manifest.to_str().expect("utf-8 path"),
        "--jobs",
        "4",
        "--timeout",
        "1",
        "--trace-out",
        path.to_str().expect("utf-8 path"),
        "--flame-out",
        flame.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(
        out.status.code(),
        Some(3),
        "deadline trips; sinks still flush"
    );
    let events = trace_events(&path);
    let mut tids: Vec<i64> = events.iter().map(|e| int_field(e, "tid")).collect();
    tids.sort_unstable();
    tids.dedup();
    let mut worker_tracks_with_tasks = 0;
    for tid in &tids {
        let (mut begins, mut ends) = (0usize, 0usize);
        for e in events.iter().filter(|e| int_field(e, "tid") == *tid) {
            match str_field_of(e, "ph").as_str() {
                "B" => begins += 1,
                "E" => ends += 1,
                _ => {}
            }
        }
        assert_eq!(begins, ends, "track {tid}: B/E events must balance");
        if *tid > 0 && begins > 0 {
            worker_tracks_with_tasks += 1;
        }
    }
    assert!(
        worker_tracks_with_tasks >= 2,
        "expected >=2 worker tracks with task spans, got {worker_tracks_with_tasks}"
    );
    let names: Vec<String> = events
        .iter()
        .filter(|e| str_field_of(e, "ph") == "I")
        .map(|e| str_field_of(e, "name"))
        .collect();
    assert!(
        names.iter().any(|n| n == "spawn"),
        "pool spawn instants recorded: {names:?}"
    );
    assert!(
        names.iter().any(|n| n == "park" || n == "steal"),
        "pool park/steal instants recorded: {names:?}"
    );
    // Every track carries a Chrome thread_name metadata record.
    let meta_names: Vec<String> = events
        .iter()
        .filter(|e| str_field_of(e, "ph") == "M")
        .map(|e| match e.get("args") {
            Some(args) => str_field_of(args, "name"),
            None => panic!("metadata without args"),
        })
        .collect();
    assert!(meta_names.iter().any(|n| n == "main"), "{meta_names:?}");
    assert!(meta_names.iter().any(|n| n == "worker-1"), "{meta_names:?}");
    // The batch's folded stacks are well-formed and nest.
    let text = std::fs::read_to_string(&flame).expect("--flame-out wrote the file");
    assert!(!text.is_empty(), "empty flame output");
    for line in text.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("`stack weight` lines");
        assert!(!stack.is_empty(), "empty stack in {line:?}");
        weight
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("non-numeric weight in {line:?}"));
    }
    assert!(text.contains(';'), "no nested stacks:\n{text}");
}

#[test]
fn flame_out_writes_folded_stacks() {
    let dir = std::env::temp_dir().join("rlcheck-flame-out");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("flame.folded");
    let out = rlcheck(&[
        "check",
        "examples/systems/abp.ts",
        "[]<>deliver",
        "--flame-out",
        path.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let text = std::fs::read_to_string(&path).expect("--flame-out wrote the file");
    for line in text.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("`stack weight` lines");
        assert!(!stack.is_empty(), "empty stack in {line:?}");
        weight
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("non-numeric weight in {line:?}"));
    }
    assert!(
        text.lines().any(|l| l.starts_with("check;")),
        "nested phases fold with semicolons:\n{text}"
    );
}

#[test]
fn report_reproduces_stats_table_byte_for_byte() {
    let dir = std::env::temp_dir().join("rlcheck-report-roundtrip");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("metrics.jsonl");
    let trace = dir.join("trace.json");
    let mut args = vec![
        "check",
        "examples/systems/abp.ts",
        "[]<>deliver",
        "--stats",
        "--metrics",
        path.to_str().expect("utf-8 path"),
    ];
    // Untraced, then traced: the event timeline changes neither table.
    for traced in [false, true] {
        if traced {
            args.extend(["--trace-out", trace.to_str().expect("utf-8 path")]);
        }
        let live = rlcheck(&args);
        assert_eq!(live.status.code(), Some(0));
        let report = rlcheck(&["report", path.to_str().expect("utf-8 path")]);
        assert_eq!(report.status.code(), Some(0));
        // On a clean run the live stderr is exactly the phase table, and
        // the report renders the identical table (same snapshot,
        // microsecond precision end to end) on stdout.
        assert_eq!(
            stdout(&report),
            stderr(&live),
            "offline report must reproduce --stats byte-for-byte (traced: {traced})"
        );
        if traced {
            let digest = stderr(&report);
            assert!(digest.contains("trace:"), "event digest: {digest}");
        }
    }
}

#[test]
fn report_renders_event_digest_for_v2_files() {
    let dir = std::env::temp_dir().join("rlcheck-report-v2");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics = dir.join("metrics.jsonl");
    let trace = dir.join("trace.json");
    let live = rlcheck(&[
        "check",
        "examples/systems/abp.ts",
        "[]<>deliver",
        "--metrics",
        metrics.to_str().expect("utf-8 path"),
        "--trace-out",
        trace.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(live.status.code(), Some(0));
    let text = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(
        text.starts_with("{\"event\":\"meta\",\"schema\":\"rl-obs/v3\""),
        "a traced run writes the one JSONL schema: {}",
        text.lines().next().unwrap_or_default()
    );
    assert!(text.contains("\"event\":\"trace\""), "trace lines written");
    let report = rlcheck(&["report", metrics.to_str().expect("utf-8 path")]);
    assert_eq!(report.status.code(), Some(0));
    let err = stderr(&report);
    assert!(err.contains("trace:"), "event digest on stderr: {err}");
    assert!(err.contains("main"), "per-track rows: {err}");
}

#[test]
fn report_rejects_missing_or_malformed_input() {
    let out = rlcheck(&["report"]);
    assert_eq!(out.status.code(), Some(2), "missing path => usage error");
    let dir = std::env::temp_dir().join("rlcheck-report-bad");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("not-metrics.jsonl");
    std::fs::write(&path, "this is not JSONL\n").expect("file written");
    let out2 = rlcheck(&["report", path.to_str().expect("utf-8 path")]);
    assert_eq!(out2.status.code(), Some(2), "malformed file => input error");
    // A retired schema tag is an input error that names the one schema.
    let retired = dir.join("retired.jsonl");
    let meta = concat!(
        "{\"event\":\"meta\",\"schema\":\"rl-obs/",
        "v1\",\"elapsed_us\":0}\n"
    );
    std::fs::write(&retired, meta).expect("file written");
    let out3 = rlcheck(&["report", retired.to_str().expect("utf-8 path")]);
    assert_eq!(out3.status.code(), Some(2), "retired tag => input error");
    assert!(
        stderr(&out3).contains("expected rl-obs/v3"),
        "{}",
        stderr(&out3)
    );
}

#[test]
fn stats_footer_surfaces_pool_counters() {
    let out = rlcheck(&[
        "batch",
        "examples/systems/abp.ts",
        "--formula",
        "[]<>deliver",
        "--jobs",
        "2",
        "--stats",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let err = stderr(&out);
    for counter in ["pool/spawns", "pool/steals", "pool/parks", "pool/unparks"] {
        assert!(err.contains(counter), "missing {counter} in footer:\n{err}");
    }
    // A single check runs on the calling thread, so no pool counters.
    let seq = rlcheck(&["check", "examples/systems/abp.ts", "[]<>deliver", "--stats"]);
    let seq_err = stderr(&seq);
    assert!(
        !seq_err.contains("pool/spawns"),
        "no pool counters without a pool:\n{seq_err}"
    );
}

#[test]
fn batch_absorbed_metrics_are_deterministic_across_jobs() {
    let dir = std::env::temp_dir().join("rlcheck-batch-metrics-determinism");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let manifest = dir.join("checks.txt");
    std::fs::write(
        &manifest,
        "examples/systems/clock.ts []<>tick\n\
         examples/systems/abp.ts []<>deliver\n\
         examples/systems/server.pn []<>result\n",
    )
    .expect("manifest written");
    // Every job builds its own machines, so the absorbed span metrics are
    // schedule-independent.
    let run = |jobs: &str, path: &Path| {
        rlcheck(&[
            "batch",
            "--manifest",
            manifest.to_str().expect("utf-8 path"),
            "--jobs",
            jobs,
            "--stats",
            "--metrics",
            path.to_str().expect("utf-8 path"),
        ])
    };
    let p1 = dir.join("jobs1.jsonl");
    let p4 = dir.join("jobs4.jsonl");
    let (j1, j4) = (run("1", &p1), run("4", &p4));
    assert_eq!(j1.status.code(), Some(0));
    assert_eq!(j4.status.code(), Some(0));
    // Project each file onto its deterministic content: span identity
    // (absorbed path, name, depth, renumbered seq) and the four metric
    // columns, plus the metric fields of the totals line. Wall-clock
    // fields and the schedule-dependent counters footer are excluded.
    let deterministic_view = |path: &Path| -> Vec<String> {
        let text = std::fs::read_to_string(path).expect("metrics written");
        let mut rows = Vec::new();
        for line in text.lines() {
            let v = rl_json::parse(line).expect("valid JSONL");
            match str_field_of(&v, "event").as_str() {
                "span" => rows.push(format!(
                    "span {} {} {} {} | {} {} {} {}",
                    str_field_of(&v, "path"),
                    str_field_of(&v, "name"),
                    int_field(&v, "depth"),
                    int_field(&v, "seq"),
                    int_field(&v, "states"),
                    int_field(&v, "transitions"),
                    int_field(&v, "cache_hits"),
                    int_field(&v, "guard_charges"),
                )),
                "totals" => rows.push(format!(
                    "totals {} {} {} {}",
                    int_field(&v, "states"),
                    int_field(&v, "transitions"),
                    int_field(&v, "cache_hits"),
                    int_field(&v, "guard_charges"),
                )),
                _ => {}
            }
        }
        rows
    };
    // Both runs record histograms, which must move no counter.
    for path in [&p1, &p4] {
        let text = std::fs::read_to_string(path).expect("metrics written");
        assert!(
            text.lines().any(|l| l.contains("\"event\":\"hist\"")),
            "no histogram family in {}",
            path.display()
        );
    }
    let (v1, v4) = (deterministic_view(&p1), deterministic_view(&p4));
    assert!(
        v1.iter().any(|r| r.contains("job0/check")),
        "absorbed spans are re-rooted under job<i>/: {v1:?}"
    );
    assert!(v1.iter().any(|r| r.contains("job2/check")), "{v1:?}");
    assert_eq!(v1, v4, "absorbed batch metrics must not depend on --jobs");
}

#[test]
fn repeated_batch_checks_charge_identically() {
    // Each job builds its own machines, so two copies of one check in a
    // parallel batch charge exactly the same work, span for span.
    let dir = std::env::temp_dir().join("rlcheck-batch-repeat");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let manifest = dir.join("checks.txt");
    std::fs::write(
        &manifest,
        "examples/systems/server_err.pn []<>result\n\
         examples/systems/server_err.pn []<>result\n",
    )
    .expect("manifest written");
    let metrics = dir.join("metrics.jsonl");
    let out = rlcheck(&[
        "batch",
        "--manifest",
        manifest.to_str().expect("utf-8 path"),
        "--jobs",
        "4",
        "--metrics",
        metrics.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let text = std::fs::read_to_string(&metrics).expect("metrics written");
    let job_rows = |job: &str| -> Vec<String> {
        let prefix = format!("{job}/");
        text.lines()
            .map(|l| rl_json::parse(l).expect("valid JSONL"))
            .filter(|v| str_field_of(v, "event") == "span")
            .filter_map(|v| {
                let path = str_field_of(&v, "path");
                let rest = path.strip_prefix(&prefix)?.to_owned();
                Some(format!(
                    "{rest} {} {} {} {}",
                    int_field(&v, "states"),
                    int_field(&v, "transitions"),
                    int_field(&v, "cache_hits"),
                    int_field(&v, "guard_charges"),
                ))
            })
            .collect()
    };
    let (first, second) = (job_rows("job0"), job_rows("job1"));
    assert!(
        first
            .iter()
            .any(|r| r.starts_with("check/relative_safety ")),
        "{first:?}"
    );
    assert_eq!(first, second, "the same check charged differently");
}

#[test]
fn progress_flag_emits_heartbeats() {
    // The tableau of a 14-deep nested until outlives the deadline.
    let system = sigma_ab_system("rlcheck-progress");
    let out = Command::new(env!("CARGO_BIN_EXE_rlcheck"))
        .args([
            "check",
            &system,
            &rl_bench::nested_until(14).to_string(),
            "--timeout",
            "1",
            "--progress",
        ])
        .env("RL_PROGRESS_MS", "25")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("rlcheck binary runs");
    assert_eq!(out.status.code(), Some(3), "deadline still governs the run");
    let err = stderr(&out);
    let beats: Vec<&str> = err
        .lines()
        .filter(|l| l.starts_with("rlcheck: [progress]"))
        .collect();
    assert!(!beats.is_empty(), "no heartbeats in stderr:\n{err}");
    let beat = beats[beats.len() - 1];
    for fragment in ["elapsed", "states", "frontier", "time "] {
        assert!(
            beat.contains(fragment),
            "heartbeat missing {fragment}: {beat}"
        );
    }
}

#[test]
fn panic_mid_check_still_flushes_parseable_sinks() {
    let dir = std::env::temp_dir().join("rlcheck-panic-flush");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics = dir.join("metrics.jsonl");
    let trace = dir.join("trace.json");
    let out = Command::new(env!("CARGO_BIN_EXE_rlcheck"))
        .args([
            "check",
            "examples/systems/abp.ts",
            "[]<>deliver",
            "--metrics",
            metrics.to_str().expect("utf-8 path"),
            "--trace-out",
            trace.to_str().expect("utf-8 path"),
        ])
        .env("RL_TEST_PANIC", "1")
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("rlcheck binary runs");
    assert_eq!(out.status.code(), Some(101), "injected panic => exit 101");
    assert!(stderr(&out).contains("internal panic"), "panic is reported");
    // The run died between phases, so the file records a *partial*
    // profile — but every line must still parse, and the spans that
    // completed before the panic must be present.
    let text = std::fs::read_to_string(&metrics).expect("metrics flushed on exit 101");
    let mut events = Vec::new();
    let mut paths = Vec::new();
    for line in text.lines() {
        let v = rl_json::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        let event = str_field_of(&v, "event");
        if event == "span" {
            paths.push(str_field_of(&v, "path"));
        }
        events.push(event);
    }
    assert_eq!(events.first().map(String::as_str), Some("meta"));
    assert!(
        paths.iter().any(|p| p == "check/behaviors"),
        "pre-panic spans survive: {paths:?}"
    );
    assert!(
        !paths.iter().any(|p| p.starts_with("check/classical")),
        "post-panic phases never ran: {paths:?}"
    );
    // Unwinding closed the open spans, so the root span is recorded too.
    assert!(paths.iter().any(|p| p == "check"), "{paths:?}");
    // The trace sink flushes on the same path and stays valid JSON.
    let events = trace_events(&trace);
    assert!(!events.is_empty(), "trace events flushed on exit 101");
}

#[test]
#[cfg(unix)]
fn sigint_oneshot_exits_3_and_flushes_partial_metrics() {
    let dir = std::env::temp_dir().join("rlcheck-sigint");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics = dir.join("interrupted.jsonl");
    // A check that would run for minutes: the tableau of a 14-deep nested
    // until, with a deadline far beyond the signal (and short enough that
    // a missed signal cannot grow the process for long).
    let system = sigma_ab_system("rlcheck-sigint");
    let child = Command::new(env!("CARGO_BIN_EXE_rlcheck"))
        .args([
            "check",
            &system,
            &rl_bench::nested_until(14).to_string(),
            "--timeout",
            "10",
            "--metrics",
            metrics.to_str().expect("utf-8 path"),
        ])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("rlcheck spawns");
    // Let it get properly inside the translation, then Ctrl-C it.
    std::thread::sleep(std::time::Duration::from_millis(400));
    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    let out = child.wait_with_output().expect("rlcheck exits");
    // The signal cancels the guard: budget exit, not a hard kill.
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("interrupted by signal; partial diagnostics follow"),
        "{err}"
    );
    // The observability sinks still flushed a well-formed partial profile.
    let text = std::fs::read_to_string(&metrics).expect("metrics flushed after SIGINT");
    let mut events = Vec::new();
    for line in text.lines() {
        let v = rl_json::parse(line).expect("valid JSONL after SIGINT");
        events.push(str_field_of(&v, "event"));
    }
    assert_eq!(events.first().map(String::as_str), Some("meta"));
    assert_eq!(events.last().map(String::as_str), Some("totals"));
}

#[test]
fn serve_without_a_socket_is_a_usage_error() {
    let out = rlcheck(&["serve"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("serve needs --socket"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn progress_flushes_a_final_heartbeat_even_on_short_runs() {
    // The default sampling period (1s) is far longer than this check, so
    // every line below comes from the completion flush — without it the
    // run would end silent.
    let out = rlcheck(&[
        "check",
        "examples/systems/server.pn",
        "[]<>result",
        "--progress",
    ]);
    assert_eq!(out.status.code(), Some(0));
    let err = stderr(&out);
    let beats: Vec<&str> = err
        .lines()
        .filter(|l| l.starts_with("rlcheck: [progress]"))
        .collect();
    assert!(
        !beats.is_empty(),
        "a run shorter than the period must still flush one heartbeat:\n{err}"
    );
    let beat = beats[beats.len() - 1];
    for fragment in ["elapsed", "states", "frontier"] {
        assert!(
            beat.contains(fragment),
            "final heartbeat missing {fragment}: {beat}"
        );
    }
}

#[test]
fn report_counts_unknown_event_kinds_instead_of_failing() {
    let dir = std::env::temp_dir().join("rlcheck-report-unknown");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let clean = dir.join("clean.jsonl");
    let live = rlcheck(&[
        "check",
        "examples/systems/abp.ts",
        "[]<>deliver",
        "--metrics",
        clean.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(live.status.code(), Some(0));

    // Splice two lines of a future event kind into the middle of the file,
    // as a newer writer (or a mixed capture) would.
    let text = std::fs::read_to_string(&clean).expect("metrics written");
    let mut lines: Vec<&str> = text.lines().collect();
    lines.insert(1, "{\"event\":\"frob\",\"x\":1}");
    lines.insert(2, "{\"event\":\"frob\",\"x\":2}");
    let spliced = dir.join("spliced.jsonl");
    std::fs::write(&spliced, lines.join("\n") + "\n").expect("spliced written");

    let base = rlcheck(&["report", clean.to_str().expect("utf-8 path")]);
    let report = rlcheck(&["report", spliced.to_str().expect("utf-8 path")]);
    assert_eq!(report.status.code(), Some(0), "unknown kinds are not fatal");
    assert_eq!(
        stdout(&report),
        stdout(&base),
        "unknown events must not perturb the rendered table"
    );
    let err = stderr(&report);
    assert!(
        err.contains("unknown event kind") && err.contains("frob (2)"),
        "the skip is tallied on stderr: {err}"
    );
}

#[test]
fn report_renders_captured_subscribe_streams() {
    let dir = std::env::temp_dir().join("rlcheck-report-stream");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let capture = dir.join("capture.jsonl");
    // A headerless subscribe capture, as a raw socket client reads it
    // after `{"cmd":"subscribe"}`.
    std::fs::write(
        &capture,
        concat!(
            "{\"event\":\"heartbeat\",\"job\":1,\"elapsed_us\":2000000,",
            "\"states\":100,\"transitions\":10,\"frontier\":5}\n",
            "{\"event\":\"trace\",\"ph\":\"B\",\"track\":0,\"cat\":\"span\",",
            "\"name\":\"check\",\"ts_us\":1,\"job\":1}\n",
            "{\"event\":\"trace\",\"ph\":\"E\",\"track\":0,\"cat\":\"span\",",
            "\"name\":\"check\",\"ts_us\":900,\"job\":1}\n",
            "{\"event\":\"done\",\"job\":1,\"code\":0}\n",
            "{\"event\":\"dropped\",\"count\":3,\"total\":3}\n",
        ),
    )
    .expect("capture written");
    let report = rlcheck(&["report", capture.to_str().expect("utf-8 path")]);
    assert_eq!(report.status.code(), Some(0));
    let out = stdout(&report);
    assert!(
        out.contains("stream: 1 job(s), 1 heartbeat(s), 2 trace event(s), 3 dropped"),
        "{out}"
    );
    assert!(out.contains("done code 0"), "{out}");
}

// ---------------------------------------------------------------------------
// The percentile telemetry plane: --stats/--metrics histograms, the journal
// reader, and the SLO gate's argument handling.

#[test]
fn stats_and_metrics_carry_percentile_histograms() {
    let dir = std::env::temp_dir().join("rlcheck-hist-v3");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("metrics.jsonl");
    let out = rlcheck(&[
        "batch",
        "examples/systems/abp.ts",
        "examples/systems/abp.ts",
        "--formula",
        "[]<>deliver",
        "--stats",
        "--metrics",
        path.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(out.status.code(), Some(0));
    // The --stats footer grows a percentile table below the phase table,
    // with one job wall-time sample per check.
    let err = stderr(&out);
    assert!(err.contains("histogram"), "percentile header: {err}");
    assert!(err.contains("p99"), "{err}");
    let wall = err
        .lines()
        .find(|l| l.trim_start().starts_with("batch/job_wall_us"))
        .unwrap_or_else(|| panic!("no batch/job_wall_us row: {err}"));
    assert_eq!(wall.split_whitespace().nth(1), Some("2"), "{wall}");
    // Recorded histograms land in the one JSONL schema as one `hist` line
    // per recorded family.
    let text = std::fs::read_to_string(&path).expect("metrics written");
    assert!(
        text.starts_with("{\"event\":\"meta\",\"schema\":\"rl-obs/v3\""),
        "the one schema: {}",
        text.lines().next().unwrap_or_default()
    );
    assert!(text.contains("\"event\":\"hist\""), "{text}");
}

#[test]
fn report_tolerates_mid_record_truncation() {
    // A daemon (or a run) dying mid-write leaves a metrics file cut inside
    // a record; the offline reader must degrade, not panic.
    let dir = std::env::temp_dir().join("rlcheck-report-truncated");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics = dir.join("metrics.jsonl");
    let trace = dir.join("trace.json");
    let live = rlcheck(&[
        "check",
        "examples/systems/abp.ts",
        "[]<>deliver",
        "--metrics",
        metrics.to_str().expect("utf-8 path"),
        "--trace-out",
        trace.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(live.status.code(), Some(0));
    let bytes = std::fs::read(&metrics).expect("metrics written");
    assert!(
        bytes.starts_with(b"{\"event\":\"meta\",\"schema\":\"rl-obs/v3\""),
        "rl-obs/v3 file expected"
    );
    // Cut inside the final record (the totals line is last and long).
    let cut = dir.join("cut.jsonl");
    std::fs::write(&cut, &bytes[..bytes.len() - 10]).expect("truncated copy");
    let report = rlcheck(&["report", cut.to_str().expect("utf-8 path")]);
    assert_eq!(report.status.code(), Some(0), "truncation is not fatal");
    assert!(
        stdout(&report).contains("total"),
        "totals reconstructed from spans: {}",
        stdout(&report)
    );
    assert!(
        stderr(&report).contains("truncated"),
        "truncation noted on stderr: {}",
        stderr(&report)
    );
}

#[test]
fn report_dir_tolerates_truncated_and_zero_length_segments() {
    let dir = std::env::temp_dir().join("rlcheck-journal-degraded");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("journal dir");
    // Segment 0: two good samples, then a line cut mid-record.
    let sample = |ts: u64, up: u64, count: u64| {
        format!(
            "{{\"event\":\"sample\",\"ts_ms\":{ts},\"uptime_ms\":{up},\
             \"counters\":{{\"serve/submitted\":1}},\
             \"hists\":{{\"serve/job_wall_us\":{{\"count\":{count},\"sum\":300,\
             \"max\":120,\"buckets\":[[30,{count}]]}}}}}}"
        )
    };
    std::fs::write(
        dir.join("metrics-000000.jsonl"),
        format!(
            "{}\n{}\n{}",
            sample(1_000, 50, 2),
            sample(2_000, 1_050, 3),
            &sample(3_000, 2_050, 4)[..40] // the daemon died mid-write
        ),
    )
    .expect("segment 0");
    // Segment 1: rotated but never written (zero length).
    std::fs::write(dir.join("metrics-000001.jsonl"), "").expect("segment 1");
    // A foreign file in the directory is not a segment and is ignored.
    std::fs::write(dir.join("README.txt"), "not a segment").expect("foreign file");

    let out = rlcheck(&["report", "--dir", dir.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(0), "degraded journal is not fatal");
    let text = stdout(&out);
    assert!(text.contains("2 segments"), "{text}");
    assert!(text.contains("2 samples"), "{text}");
    assert!(text.contains("1 unparsable line(s) skipped"), "{text}");
    assert!(text.contains("serve/job_wall_us"), "{text}");
    assert!(
        stderr(&out).contains("skipped 1 unparsable line(s)"),
        "{}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_and_slo_reject_bad_argument_combinations() {
    // report: a positional file and --dir are mutually exclusive.
    let out = rlcheck(&["report", "x.jsonl", "--dir", "/tmp"]);
    assert_eq!(out.status.code(), Some(2));
    // slo: both the baseline and --dir are required.
    let out = rlcheck(&["slo"]);
    assert_eq!(out.status.code(), Some(2));
    let out = rlcheck(&["slo", "SLO_BASELINE.json"]);
    assert_eq!(out.status.code(), Some(2));
    // slo: a malformed baseline is an input error (2), not a gate failure.
    let dir = std::env::temp_dir().join("rlcheck-slo-bad");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("dir");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"schema\":\"rl-slo/v9\"}").expect("baseline");
    let out = rlcheck(&[
        "slo",
        bad.to_str().expect("utf-8"),
        "--dir",
        dir.to_str().expect("utf-8"),
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    // slo: an empty journal cannot gate anything — input error, not a pass.
    std::fs::write(&bad, "{\"schema\":\"rl-slo/v1\",\"families\":{}}").expect("baseline");
    let out = rlcheck(&[
        "slo",
        bad.to_str().expect("utf-8"),
        "--dir",
        dir.to_str().expect("utf-8"),
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("no histogram samples"),
        "{}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
