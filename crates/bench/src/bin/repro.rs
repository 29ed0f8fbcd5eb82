//! Regenerates the paper's tables and figures, and runs every bench suite.
//!
//! ```text
//! repro <experiment|all> [quick|full]   the paper's tables and figures
//! repro lint | analyze | races          static, causal and race analysis
//! repro serve [--plan SPEC]             the serving suite
//! repro recover [--fault-plan SPEC] [--ckpt-dir DIR] [--ckpt-every N]
//! repro history DIR ingest [FILE] | trend | query SCENARIO METRIC
//! repro gate check | update | improvement [--dir DIR] [--delta-out PATH]
//! ```
//!
//! Every suite mode iterates one scenario table
//! ([`picasso_bench::scenarios`]). `--json PATH` writes the document of
//! whichever mode runs; `repro --help` lists each mode's flags and the exit
//! codes. A flag the chosen subcommand does not read is a usage error
//! (exit 2), as is an unknown flag or a flag without its value.

use picasso_bench::recovery::run_scenario;
use picasso_bench::scenarios::{perf_scenarios, recovery_scenarios, Scenario, ServeScenario};
use picasso_bench::snapshot::{
    compare, latest_snapshot, lint_suite, next_version, worst_pass_wall, BenchSnapshot,
};
use picasso_bench::{analysis, observatory, races, serve as bench_serve};
use picasso_core::exec::{flight_record, lint_flight, lint_recovery};
use picasso_core::exec::{ModelKind, RunArtifacts, WarmupConfig};
use picasso_core::experiments::{
    fig01_util_trend, fig03_id_cdf, fig05_breakdown, fig10_walltime, fig11_sm_cdf, fig12_bandwidth,
    fig13_ips, fig14_groups, fig15_scaling, tab03_auc, tab04_ablation, tab05_opcount, tab06_cache,
    tab07_zoo, tab08_fields, tab09_production, tab10_scale, Scale,
};
use picasso_core::obs::flight::FlightConfig;
use picasso_core::obs::history::HistoryStore;
use picasso_core::sim::{FaultPlan, TrafficPlan};
use picasso_core::{observe, PicassoConfig, Session, TextTable, TrainError};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

type Runner = fn(Scale) -> TextTable;

/// The experiments in the order `all` regenerates them.
const EXPERIMENTS: [(&str, Runner); 17] = [
    ("fig1", fig01_util_trend::run),
    ("fig3", fig03_id_cdf::run),
    ("fig5", fig05_breakdown::run),
    ("tab3", tab03_auc::run),
    ("fig10", fig10_walltime::run),
    ("fig11", fig11_sm_cdf::run),
    ("fig12", fig12_bandwidth::run),
    ("fig13", fig13_ips::run),
    ("tab4", tab04_ablation::run),
    ("tab5", tab05_opcount::run),
    ("fig14", fig14_groups::run),
    ("tab6", tab06_cache::run),
    ("fig15", fig15_scaling::run),
    ("tab7", tab07_zoo::run),
    ("tab8", tab08_fields::run),
    ("tab9", tab09_production::run),
    ("tab10", tab10_scale::run),
];

const USAGE: &str = "\
repro: regenerate the paper's tables and figures and run the bench suites

USAGE:
    repro [<experiment>|all] [quick|full]
          [--json PATH] [--trace-out PATH] [--metrics-out PATH]
          [--flight-out PATH]
    repro lint [--json PATH]
    repro analyze [--json PATH]
    repro races [--json PATH]
    repro serve [--plan SPEC] [--json PATH]
    repro recover [--fault-plan SPEC] [--ckpt-dir DIR] [--ckpt-every N]
          [--json PATH] [--trace-out PATH] [--flight-out PATH]
    repro history DIR ingest [FILE]
    repro history DIR trend
    repro history DIR query SCENARIO METRIC
    repro gate check [--dir DIR] [--delta-out PATH]
    repro gate update [--dir DIR]
    repro gate improvement [--dir DIR]
Every subcommand also takes --quiet (suppress tables and progress lines)
and --help.

EXPERIMENTS (default: all, at quick scale):
    fig1 fig3 fig5 fig10 fig11 fig12 fig13 fig14 fig15
    tab3 tab4 tab5 tab6 tab7 tab8 tab9 tab10
    Any of --json (the picasso.run_report, which embeds every regenerated
    table), --trace-out (Chrome trace), --metrics-out (Prometheus text) or
    --flight-out (picasso.flight_dump) also runs one instrumented PICASSO
    session (DLRM at the selected scale) and exports it.

SUBCOMMANDS:
    lint      Statically analyze every bench-suite scenario (spec, plan,
              stage graph, and the recovery run surface); --json writes
              the picasso.lint_report. Exit 4 on error findings.
    analyze   Causal analysis of every perf scenario's executed DAG:
              critical path, achieved vs planned overlap, idle gaps;
              --json writes the picasso.analysis_suite.
    races     Static MHP race detection over every perf scenario's stage
              graph plus a trace cross-check of declared effects against
              observed overlap; --json writes the picasso.race_suite.
              Exit 4 on a race or an undeclared overlap.
    serve     Drive every srv_* traffic scenario through the forward-only
              replica and print the latency/SLO summary; --plan SPEC
              replaces the suite with one scenario under that traffic plan,
              e.g. \"seed=7;poisson@2500;users=200000;zipf=105;ids=8;reqs=6000\";
              --json writes the picasso.serve_report. Exit 4 on
              error-severity serving diagnostics.
    recover   Train once uninterrupted and once under the fault plan
              (default: the suite's crash_recover scenario) and verify both
              end bit-identical. Checkpointing is on iff --ckpt-dir is
              given; --ckpt-every (needs --ckpt-dir or --fault-plan)
              overrides the interval. --json writes the
              picasso.recovery_report, --trace-out the recovered run's
              Chrome trace, --flight-out the crash post-mortem.
    history   The cross-run observatory over the store in DIR: ingest a
              picasso.bench_snapshot or picasso.run_report (without FILE,
              the perf suite is captured fresh), sweep every gated series
              for sustained change-points (exit 4 on a regressing one), or
              print one series.
    gate      The perf gate over BENCH_<n>.json in --dir (default .):
              check runs the suite against the newest snapshot (exit 1 on
              a regression) and --delta-out writes its delta table; update
              writes the next snapshot; improvement compares the committed
              BENCH_0.json with the newest one without running anything
              (exit 1 unless the worst pass wall time decreased). Exit 2
              when a snapshot is missing or unreadable.

EXIT CODES:
    0  success
    1  an export failed to write, or the perf gate failed
    2  bad arguments or unknown experiment, or no usable perf-gate snapshot
    3  a run failed (invalid pipeline, task graph, planning, an
       unrecoverable or diverging fault run, an unreadable history store)
    4  static analysis found error-severity diagnostics, or the trend
       sweep found a sustained regression
";

/// What the command line asks for.
#[derive(Debug, Clone, Default, PartialEq)]
enum Command {
    #[default]
    Help,
    Experiments {
        which: String,
        scale: Scale,
    },
    Lint,
    Analyze,
    Races,
    Serve {
        plan: Option<String>,
    },
    Recover {
        fault_plan: Option<FaultPlan>,
        ckpt_dir: Option<PathBuf>,
        ckpt_every: Option<u64>,
    },
    History {
        dir: PathBuf,
        action: HistoryAction,
    },
    Gate {
        action: GateAction,
        dir: PathBuf,
        delta_out: Option<String>,
    },
}

#[derive(Debug, Clone, PartialEq)]
enum HistoryAction {
    Ingest(Option<String>),
    Trend,
    Query { scenario: String, metric: String },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum GateAction {
    Check,
    Update,
    Improvement,
}

/// A parsed command line: the command plus the export paths and verbosity
/// every mode shares.
#[derive(Debug, Clone, Default, PartialEq)]
struct Cli {
    command: Command,
    json: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    flight_out: Option<String>,
    quiet: bool,
}

/// Every flag of the CLI and whether it takes a value.
const FLAGS: [(&str, bool); 11] = [
    ("--json", true),
    ("--trace-out", true),
    ("--metrics-out", true),
    ("--flight-out", true),
    ("--plan", true),
    ("--fault-plan", true),
    ("--ckpt-dir", true),
    ("--ckpt-every", true),
    ("--dir", true),
    ("--delta-out", true),
    ("--quiet", false),
];

/// Parses the arguments after the program name. `Err` is a usage error
/// (exit 2) with its message.
fn parse(args: &[String]) -> Result<Cli, String> {
    let mut positionals = Vec::new();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(Cli::default());
        }
        if !arg.starts_with("--") {
            positionals.push(arg.as_str());
            continue;
        }
        let &(flag, takes_value) = FLAGS
            .iter()
            .find(|(f, _)| f == arg)
            .ok_or_else(|| format!("unknown flag '{arg}'"))?;
        let value = if takes_value {
            it.next()
                .ok_or_else(|| format!("{flag} requires a value"))?
        } else {
            ""
        };
        flags.insert(flag, value);
    }
    let flag = |name: &str| flags.get(name).map(|v| v.to_string());
    let no_more = |rest: &[&str]| match rest.first() {
        Some(extra) => Err(format!("unexpected argument '{extra}'")),
        None => Ok(()),
    };

    let (sub, rest) = positionals.split_first().unwrap_or((&"all", &[]));
    // Each arm yields the command and the flags it reads besides
    // --quiet, which every subcommand takes.
    let (command, reads): (Command, &[&str]) = match *sub {
        "lint" | "analyze" | "races" => {
            no_more(rest)?;
            let command = match *sub {
                "lint" => Command::Lint,
                "analyze" => Command::Analyze,
                _ => Command::Races,
            };
            (command, &["--json"])
        }
        "serve" => {
            no_more(rest)?;
            let plan = flag("--plan");
            if let Some(spec) = &plan {
                spec.parse::<TrafficPlan>()
                    .map_err(|err| format!("bad --plan: {err}"))?;
            }
            (Command::Serve { plan }, &["--plan", "--json"])
        }
        "recover" => {
            no_more(rest)?;
            let fault_plan = flag("--fault-plan")
                .map(|spec| {
                    FaultPlan::parse(&spec).map_err(|err| format!("bad --fault-plan: {err}"))
                })
                .transpose()?;
            let ckpt_dir = flag("--ckpt-dir").map(PathBuf::from);
            let ckpt_every = flag("--ckpt-every")
                .map(|raw| {
                    raw.parse::<u64>().map_err(|_| {
                        format!("--ckpt-every expects an iteration count, got '{raw}'")
                    })
                })
                .transpose()?;
            if ckpt_every.is_some() && ckpt_dir.is_none() && fault_plan.is_none() {
                return Err("--ckpt-every needs --ckpt-dir or --fault-plan".into());
            }
            let command = Command::Recover {
                fault_plan,
                ckpt_dir,
                ckpt_every,
            };
            let reads: &[&str] = &[
                "--fault-plan",
                "--ckpt-dir",
                "--ckpt-every",
                "--json",
                "--trace-out",
                "--flight-out",
            ];
            (command, reads)
        }
        "history" => {
            let [dir, action, args @ ..] = rest else {
                return Err("history needs DIR and an action (ingest, trend or query)".into());
            };
            let action = match (*action, args) {
                ("ingest", [] | [_]) => HistoryAction::Ingest(args.first().map(|f| f.to_string())),
                ("trend", []) => HistoryAction::Trend,
                ("query", [scenario, metric]) => HistoryAction::Query {
                    scenario: scenario.to_string(),
                    metric: metric.to_string(),
                },
                ("query", _) => return Err("query needs SCENARIO and METRIC".into()),
                ("ingest" | "trend", [.., extra]) => {
                    return Err(format!("unexpected argument '{extra}'"))
                }
                (other, _) => return Err(format!("unknown history action '{other}'")),
            };
            let dir = PathBuf::from(*dir);
            (Command::History { dir, action }, &[])
        }
        "gate" => {
            let action = match rest {
                ["check"] => GateAction::Check,
                ["update"] => GateAction::Update,
                ["improvement"] => GateAction::Improvement,
                _ => {
                    return Err(
                        "gate takes exactly one action: check, update or improvement".into(),
                    )
                }
            };
            let command = Command::Gate {
                action,
                dir: PathBuf::from(flag("--dir").unwrap_or_else(|| ".".into())),
                delta_out: flag("--delta-out"),
            };
            let reads: &[&str] = if action == GateAction::Check {
                &["--dir", "--delta-out"]
            } else {
                &["--dir"]
            };
            (command, reads)
        }
        which => {
            if which != "all" && !EXPERIMENTS.iter().any(|(name, _)| *name == which) {
                return Err(format!("unknown experiment '{which}'"));
            }
            let scale = match rest {
                [] | ["quick"] => Scale::Quick,
                ["full"] => Scale::Full,
                [other] => return Err(format!("unknown scale '{other}' (quick or full)")),
                [_, extra, ..] => return Err(format!("unexpected argument '{extra}'")),
            };
            let which = which.to_string();
            let reads: &[&str] = &["--json", "--trace-out", "--metrics-out", "--flight-out"];
            (Command::Experiments { which, scale }, reads)
        }
    };
    if let Some(unread) = flags
        .keys()
        .find(|&&f| f != "--quiet" && !reads.contains(&f))
    {
        return Err(format!("'{sub}' does not take {unread}"));
    }
    Ok(Cli {
        command,
        json: flag("--json"),
        trace_out: flag("--trace-out"),
        metrics_out: flag("--metrics-out"),
        flight_out: flag("--flight-out"),
        quiet: flags.contains_key("--quiet"),
    })
}

/// Reports a runtime failure and exits with `code`.
fn fail(code: i32, msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(code);
}

fn write(path: &str, what: &str, contents: &str) {
    match std::fs::write(path, contents) {
        Ok(()) => println!("  [{what} written to {path}]"),
        Err(err) => fail(1, format!("failed to write {what} to {path}: {err}")),
    }
}

/// One representative instrumented run feeding the exported artifacts.
/// A failed run exits 4 when static analysis rejected it, 3 otherwise.
fn observed_run(scale: Scale) -> RunArtifacts {
    let config = match scale {
        Scale::Quick => PicassoConfig {
            iterations: scale.iterations(),
            warmup: WarmupConfig {
                batches: 4,
                batch_size: 256,
                max_vocab: 1000,
                hot_bytes: 1 << 24,
                seed: 1,
            },
            batch_per_executor: Some(1024),
            ..PicassoConfig::default()
        },
        Scale::Full => PicassoConfig::new()
            .machines(scale.eflops_nodes())
            .iterations(scale.iterations()),
    };
    Session::new(ModelKind::Dlrm, config)
        .try_run_picasso()
        .unwrap_or_else(|err| {
            // Lint rejections get their own exit code so CI can tell a
            // broken invariant from a broken engine.
            let code = if matches!(err, TrainError::Lint(_)) {
                4
            } else {
                3
            };
            fail(code, format!("instrumented training run failed: {err}"))
        })
}

/// `<experiment|all> [quick|full]`: regenerate the tables, then export one
/// instrumented run when any export path is given.
fn experiments(cli: &Cli, which: &str, scale: Scale) -> i32 {
    let mut tables = Vec::new();
    for (name, run) in EXPERIMENTS {
        if which != "all" && which != name {
            continue;
        }
        let t0 = Instant::now();
        let table = run(scale);
        if !cli.quiet {
            println!("{table}");
            println!(
                "  [{name} regenerated in {:.1}s]\n",
                t0.elapsed().as_secs_f64()
            );
        }
        tables.push(table);
    }
    let exports = [&cli.trace_out, &cli.metrics_out, &cli.json, &cli.flight_out];
    if exports.iter().all(|path| path.is_none()) {
        return 0;
    }
    let artifacts = observed_run(scale);
    if let Some(path) = &cli.trace_out {
        write(
            path,
            "chrome trace",
            &observe::chrome_trace(&artifacts).to_json(),
        );
    }
    if let Some(path) = &cli.metrics_out {
        write(
            path,
            "prometheus metrics",
            &observe::prometheus_text(&artifacts),
        );
    }
    if let Some(path) = &cli.json {
        let scale_name = match scale {
            Scale::Quick => "quick",
            Scale::Full => "full",
        };
        let report = observe::run_report(which, scale_name, &tables, Some(&artifacts));
        write(path, "run report", &report.to_json());
    }
    if let Some(path) = &cli.flight_out {
        let rec = flight_record(&artifacts.output, &FlightConfig::default());
        for d in lint_flight(&rec.stats()) {
            eprintln!("{d}");
        }
        let dump = rec.dump(rec.occupancy());
        write(path, "flight dump", &(dump.to_json().to_json() + "\n"));
    }
    0
}

/// `lint`: statically analyze every bench-suite scenario; 4 when any
/// error-severity diagnostic exists.
fn lint(cli: &Cli) -> i32 {
    let report = lint_suite().unwrap_or_else(|err| fail(3, format!("lint planning failed: {err}")));
    if !cli.quiet || !report.is_clean() {
        print!("{}", report.render_text("bench suite"));
    }
    if let Some(path) = &cli.json {
        write(path, "lint report", &(report.to_json().to_json() + "\n"));
    }
    if report.is_clean() {
        0
    } else {
        4
    }
}

/// Runs `run` over every perf scenario in suite order, printing one
/// progress line per scenario; a scenario that fails to run exits 3.
fn perf_suite<T>(
    cli: &Cli,
    verb: &str,
    run: fn(&Scenario) -> Result<T, TrainError>,
    name: impl Fn(&T) -> &str,
) -> Vec<T> {
    let mut outcomes = Vec::new();
    for sc in perf_scenarios() {
        let t0 = Instant::now();
        let outcome =
            run(&sc).unwrap_or_else(|err| fail(3, format!("{}: run failed: {err}", sc.name)));
        if !cli.quiet {
            println!(
                "  [{} {verb} in {:.1}s]",
                name(&outcome),
                t0.elapsed().as_secs_f64()
            );
        }
        outcomes.push(outcome);
    }
    outcomes
}

/// `analyze`: the causal analyzer over every perf scenario's executed DAG.
fn analyze(cli: &Cli) -> i32 {
    let outcomes = perf_suite(cli, "analyzed", analysis::run_scenario, |o| {
        o.scenario.as_str()
    });
    println!("{}", analysis::summary_table(&outcomes));
    if let Some(path) = &cli.json {
        write(
            path,
            "analysis suite report",
            &(analysis::suite_report_json(&outcomes).to_json() + "\n"),
        );
    }
    0
}

/// `races`: static MHP races plus the trace cross-check over every perf
/// scenario; 4 when any scenario has a race or an undeclared overlap.
fn races(cli: &Cli) -> i32 {
    let outcomes = perf_suite(cli, "race-checked", races::run_scenario, |o| {
        o.scenario.as_str()
    });
    for d in outcomes.iter().flat_map(|o| &o.diagnostics) {
        eprintln!("{d}");
    }
    println!("{}", races::summary_table(&outcomes));
    if let Some(path) = &cli.json {
        write(
            path,
            "race suite report",
            &(races::suite_report_json(&outcomes).to_json() + "\n"),
        );
    }
    if outcomes.iter().all(races::RaceOutcome::is_clean) {
        0
    } else {
        4
    }
}

/// `serve`: drive the serving suite (or one `--plan` scenario) through the
/// forward-only replica; 3 when planning fails, 4 when the plan's static
/// analysis has error-severity diagnostics.
fn serve(cli: &Cli, plan: Option<&str>) -> i32 {
    let scenarios = match plan {
        Some(spec) => vec![ServeScenario {
            name: "cli".into(),
            traffic: spec.to_string(),
            max_batch: 256,
            max_linger_ns: 1_000_000,
            queue_capacity: Some(4096),
        }],
        None => picasso_bench::scenarios::serve_scenarios(),
    };
    // One plan check up front: every suite scenario shares the serving
    // lowering, so its diagnostics (including the serving lint rules)
    // print once.
    let plan = bench_serve::serving_plan(scenarios[0].queue_capacity)
        .unwrap_or_else(|err| fail(3, format!("serving planning failed: {err}")));
    for d in &plan.diagnostics {
        eprintln!("{d}");
    }
    let mut reports = Vec::new();
    for sc in &scenarios {
        let t0 = Instant::now();
        let report = bench_serve::run_scenario(sc)
            .unwrap_or_else(|err| fail(3, format!("serve scenario failed: {err}")));
        if !cli.quiet {
            println!(
                "  [{} served {} requests in {:.1}s]",
                report.scenario,
                report.served,
                t0.elapsed().as_secs_f64()
            );
        }
        reports.push(report);
    }
    println!("{}", bench_serve::summary_table(&reports));
    if let Some(path) = &cli.json {
        write(
            path,
            "serve report",
            &(bench_serve::suite_report_json(&reports).to_json() + "\n"),
        );
    }
    if bench_serve::has_errors(&plan) {
        4
    } else {
        0
    }
}

/// `recover`: run the crash-and-recover scenario and verify the recovered
/// run matches the uninterrupted one bit for bit; 3 when it does not.
fn recover(
    cli: &Cli,
    fault_plan: Option<&FaultPlan>,
    ckpt_dir: Option<&Path>,
    ckpt_every: Option<u64>,
) -> i32 {
    // Start from the suite's registered scenario so the CLI and the
    // `recovery` CI job exercise the same configuration by default.
    let mut sc = recovery_scenarios()
        .into_iter()
        .next()
        .expect("the suite registers a recovery scenario");
    if let Some(plan) = fault_plan {
        sc.opts.fault_plan = plan.clone();
        sc.opts.seed = plan.seed;
        sc.name = "cli".into();
    }
    if let Some(every) = ckpt_every {
        sc.opts.ckpt_every = every;
    }
    if ckpt_dir.is_none() {
        // Checkpointing is enabled iff a directory is given; the run
        // lint below flags crash plans left without one.
        sc.opts.ckpt_every = 0;
    }
    for d in lint_recovery(&sc.opts) {
        eprintln!("{d}");
    }
    let outcome = run_scenario(&sc, ckpt_dir)
        .unwrap_or_else(|err| fail(3, format!("crash-and-recover run failed: {err}")));
    for d in lint_flight(&outcome.recovered.flight) {
        eprintln!("{d}");
    }
    if !cli.quiet {
        println!("{}", outcome.summary_table());
    }
    if let Some(path) = &cli.flight_out {
        write(
            path,
            "flight post-mortem",
            &(outcome.post_mortem().to_json().to_json() + "\n"),
        );
    }
    if let Some(path) = &cli.json {
        write(
            path,
            "recovery report",
            &(outcome.report_json().to_json() + "\n"),
        );
    }
    if let Some(path) = &cli.trace_out {
        write(
            path,
            "chrome trace",
            &outcome.recovered.chrome_trace().to_json(),
        );
    }
    if !outcome.bit_identical() {
        fail(
            3,
            format!(
                "recovered model state diverged from the uninterrupted run \
                 ({:016x} != {:016x})",
                outcome.recovered.final_digest, outcome.baseline.final_digest
            ),
        );
    }
    println!(
        "recovery OK: {} crash(es), {} lost iteration(s), bit-identical final state",
        outcome.recovered.recoveries.len(),
        outcome.recovered.lost_iterations()
    );
    0
}

/// `history DIR ...`: the cross-run observatory.
fn history(cli: &Cli, dir: &Path, action: &HistoryAction) -> i32 {
    let shown = dir.display();
    let mut store = HistoryStore::open(dir)
        .unwrap_or_else(|err| fail(3, format!("history store {shown}: {err}")));
    let load = |store: &HistoryStore| {
        store
            .load()
            .unwrap_or_else(|err| fail(3, format!("history store {shown}: {err}")))
    };
    match action {
        HistoryAction::Ingest(file) => {
            let seq = match file {
                Some(file) => {
                    let doc = std::fs::read_to_string(file)
                        .map_err(|err| err.to_string())
                        .and_then(|text| {
                            picasso_core::obs::json::parse(&text).map_err(|err| err.to_string())
                        })
                        .unwrap_or_else(|err| fail(3, format!("{file}: {err}")));
                    observatory::ingest_document(&mut store, file, &doc)
                }
                None => {
                    // No document given: capture the perf suite fresh and
                    // ingest its gated metrics directly.
                    if !cli.quiet {
                        println!("  [capturing the perf suite for ingestion]");
                    }
                    let snap = BenchSnapshot::capture(0, 0).unwrap_or_else(|err| fail(3, err));
                    store
                        .ingest("suite", &observatory::snapshot_records(&snap))
                        .map_err(|e| e.to_string())
                }
            }
            .unwrap_or_else(|err| fail(3, format!("ingest failed: {err}")));
            println!(
                "ingested run {seq} into {shown} ({} runs total)",
                store.runs()
            );
            0
        }
        HistoryAction::Trend => {
            let findings = observatory::trend_report(&load(&store));
            for d in observatory::trend_diagnostics(&findings) {
                eprintln!("{d}");
            }
            let regressing = observatory::has_regression(&findings);
            if !cli.quiet || regressing {
                println!("{}", observatory::trend_table(&findings));
            }
            if regressing {
                fail(4, "sustained regression in the run history");
            }
            println!(
                "trend OK: {} change-point(s), none regressing, {} runs on record",
                findings.len(),
                store.runs()
            );
            0
        }
        HistoryAction::Query { scenario, metric } => {
            for (seq, value) in picasso_core::obs::history::series(&load(&store), scenario, metric)
            {
                println!("{seq}\t{value}");
            }
            0
        }
    }
}

fn now_unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// `gate`: the perf gate. `Err` is a missing or unreadable snapshot
/// (exit 2); a suite that fails to run exits 3 directly.
fn gate(cli: &Cli, action: GateAction, dir: &Path, delta_out: Option<&str>) -> Result<i32, String> {
    let capture =
        |version| BenchSnapshot::capture(version, now_unix_ms()).unwrap_or_else(|err| fail(3, err));
    match action {
        GateAction::Improvement => {
            // Both snapshots come from disk, so this is a pure assertion
            // over committed artifacts: re-baselining without an actual
            // planning-time win fails here even though `check`'s loose wall
            // gate would wave it through.
            let seed = BenchSnapshot::load(&dir.join("BENCH_0.json"))?;
            let Some((version, path)) = latest_snapshot(dir) else {
                return Err(format!("no BENCH_<n>.json in {}", dir.display()));
            };
            if version == 0 {
                return Err(
                    "only BENCH_0.json is committed; re-baseline (gate update) after a \
                     planning-time improvement before asserting one"
                        .into(),
                );
            }
            let latest = BenchSnapshot::load(&path)?;
            let (seed_sc, seed_pass, seed_ns) =
                worst_pass_wall(&seed).ok_or("BENCH_0.json has no pass_wall_ns records")?;
            let (cur_sc, cur_pass, cur_ns) = worst_pass_wall(&latest)
                .ok_or_else(|| format!("BENCH_{version}.json has no pass_wall_ns records"))?;
            if !cli.quiet {
                println!("worst pass wall time, BENCH_0 -> BENCH_{version}:");
                println!("  BENCH_0:        {seed_ns} ns ({seed_sc}/{seed_pass})");
                println!("  BENCH_{version}:        {cur_ns} ns ({cur_sc}/{cur_pass})");
            }
            if cur_ns < seed_ns {
                println!(
                    "perf improvement HELD: {:.2}x faster worst pass vs BENCH_0",
                    seed_ns as f64 / cur_ns.max(1) as f64
                );
                Ok(0)
            } else {
                println!(
                    "perf improvement LOST: BENCH_{version} worst pass ({cur_ns} ns) is not below \
                     BENCH_0 ({seed_ns} ns)"
                );
                Ok(1)
            }
        }
        GateAction::Update => {
            let version = next_version(dir);
            if !cli.quiet {
                println!("running suite for BENCH_{version}.json ...");
            }
            let path = capture(version).save(dir)?;
            if !cli.quiet {
                println!("baseline written to {}", path.display());
            }
            Ok(0)
        }
        GateAction::Check => {
            let Some((version, path)) = latest_snapshot(dir) else {
                return Err(format!(
                    "no BENCH_<n>.json baseline in {} (run gate update first)",
                    dir.display()
                ));
            };
            let baseline = BenchSnapshot::load(&path)?;
            if !cli.quiet {
                println!("gating against BENCH_{version}.json ...");
            }
            let cmp = compare(&baseline, &capture(version + 1));
            let table = cmp.delta_table();
            if !cli.quiet {
                println!("{table}");
            }
            if let Some(out) = delta_out {
                std::fs::write(out, table.to_string()).map_err(|e| format!("{out}: {e}"))?;
            }
            if cmp.passed() {
                println!("perf gate PASSED against BENCH_{version}.json");
                return Ok(0);
            }
            let failing = cmp.regressions();
            println!("perf gate FAILED: {} regression(s)", failing.len());
            for row in failing {
                println!(
                    "  {} / {}: {:?} (baseline {:?}, current {:?})",
                    row.scenario, row.metric, row.verdict, row.old, row.new
                );
            }
            Ok(1)
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse(&args).unwrap_or_else(|err| fail(2, format!("{err}\n\n{USAGE}")));
    let code = match &cli.command {
        Command::Help => {
            print!("{USAGE}");
            0
        }
        Command::Experiments { which, scale } => experiments(&cli, which, *scale),
        Command::Lint => lint(&cli),
        Command::Analyze => analyze(&cli),
        Command::Races => races(&cli),
        Command::Serve { plan } => serve(&cli, plan.as_deref()),
        Command::Recover {
            fault_plan,
            ckpt_dir,
            ckpt_every,
        } => recover(&cli, fault_plan.as_ref(), ckpt_dir.as_deref(), *ckpt_every),
        Command::History { dir, action } => history(&cli, dir, action),
        Command::Gate {
            action,
            dir,
            delta_out,
        } => gate(&cli, *action, dir, delta_out.as_deref())
            .unwrap_or_else(|err| fail(2, format!("repro gate: {err}"))),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Cli, String> {
        // Split on spaces, keeping `"..."` groups (fault and traffic
        // plans) whole.
        let args: Vec<String> = line
            .split('"')
            .enumerate()
            .flat_map(|(i, part)| {
                if i % 2 == 1 {
                    vec![part.to_string()]
                } else {
                    part.split_whitespace().map(String::from).collect()
                }
            })
            .collect();
        parse(&args)
    }

    fn command(line: &str) -> Command {
        parse_line(line)
            .unwrap_or_else(|err| panic!("`{line}` must parse: {err}"))
            .command
    }

    #[test]
    fn every_subcommand_parses() {
        let experiments = |which: &str, scale| Command::Experiments {
            which: which.into(),
            scale,
        };
        assert_eq!(command(""), experiments("all", Scale::Quick));
        assert_eq!(command("tab4 full"), experiments("tab4", Scale::Full));
        let cli = parse_line(
            "fig13 quick --json r.json --trace-out t.json --metrics-out m.prom \
             --flight-out f.json --quiet",
        )
        .unwrap();
        assert_eq!(cli.command, experiments("fig13", Scale::Quick));
        assert_eq!(cli.json.as_deref(), Some("r.json"));
        assert_eq!(cli.trace_out.as_deref(), Some("t.json"));
        assert_eq!(cli.metrics_out.as_deref(), Some("m.prom"));
        assert_eq!(cli.flight_out.as_deref(), Some("f.json"));
        assert!(cli.quiet);

        assert_eq!(command("lint --json l.json"), Command::Lint);
        assert_eq!(command("analyze --quiet"), Command::Analyze);
        assert_eq!(command("races --json r.json"), Command::Races);
        assert_eq!(command("serve"), Command::Serve { plan: None });
        let spec = "seed=7;poisson@2500;users=200000;zipf=105;ids=8;reqs=6000";
        assert_eq!(
            command(&format!("serve --plan \"{spec}\" --json s.json")),
            Command::Serve {
                plan: Some(spec.into())
            }
        );
        assert_eq!(
            command("recover"),
            Command::Recover {
                fault_plan: None,
                ckpt_dir: None,
                ckpt_every: None
            }
        );
        assert_eq!(
            command(
                "recover --fault-plan \"seed=41;crash@13\" --ckpt-dir ck --ckpt-every 4 \
                 --json r.json --trace-out t.json --flight-out f.json"
            ),
            Command::Recover {
                fault_plan: Some(FaultPlan::parse("seed=41;crash@13").unwrap()),
                ckpt_dir: Some("ck".into()),
                ckpt_every: Some(4)
            }
        );
        let history = |action| Command::History {
            dir: "h".into(),
            action,
        };
        assert_eq!(
            command("history h ingest"),
            history(HistoryAction::Ingest(None))
        );
        assert_eq!(
            command("history h ingest run.json"),
            history(HistoryAction::Ingest(Some("run.json".into())))
        );
        assert_eq!(
            command("history h trend --quiet"),
            history(HistoryAction::Trend)
        );
        assert_eq!(
            command("history h query wdl_base ips_per_node"),
            history(HistoryAction::Query {
                scenario: "wdl_base".into(),
                metric: "ips_per_node".into()
            })
        );
        assert_eq!(
            command("gate check --dir benchmarks --delta-out d.txt"),
            Command::Gate {
                action: GateAction::Check,
                dir: "benchmarks".into(),
                delta_out: Some("d.txt".into())
            }
        );
        assert_eq!(
            command("gate update"),
            Command::Gate {
                action: GateAction::Update,
                dir: ".".into(),
                delta_out: None
            }
        );
        assert_eq!(
            command("gate improvement --dir b"),
            Command::Gate {
                action: GateAction::Improvement,
                dir: "b".into(),
                delta_out: None
            }
        );
        assert_eq!(command("lint --help"), Command::Help);
    }

    #[test]
    fn usage_errors_are_rejected() {
        for line in [
            // Unknown flags, including every retired mode flag.
            "fig13 --report-json r.json",
            "--lint",
            "--serve-plan x",
            "gate --check",
            // A flag without its value.
            "fig13 --json",
            "recover --ckpt-dir",
            // A flag the subcommand does not read.
            "lint --trace-out t.json",
            "analyze --plan x",
            "serve --fault-plan \"seed=41;crash@13\"",
            "recover --metrics-out m.prom",
            "fig13 --ckpt-dir ck",
            "history h trend --json x.json",
            "gate update --delta-out d.txt",
            "gate improvement --delta-out d.txt",
            "gate check --json x.json",
            // --ckpt-every without --ckpt-dir or --fault-plan.
            "recover --ckpt-every 4",
            // gate without exactly one action.
            "gate",
            "gate check update",
            "gate verify",
            // Bad positionals and values.
            "nosuch",
            "fig13 huge",
            "fig13 quick extra",
            "lint extra",
            "history h",
            "history h rewind",
            "history h query wdl_base",
            "history h trend extra",
            "serve --plan nonsense",
            "recover --fault-plan nonsense",
            "recover --ckpt-dir ck --ckpt-every soon",
        ] {
            assert!(parse_line(line).is_err(), "`{line}` must be a usage error");
        }
    }
}
