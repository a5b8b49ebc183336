//! `eds-e2e`: the benchmark's one command.
//!
//! * `--workload NAME` runs one workload in this process and prints, as
//!   the last line of standard output, one JSON object with `correct`,
//!   `attempted`, `failed` and `metrics` — the end-to-end metrics with
//!   `--trace 0`, the per-layer metrics with `--trace 1`.
//! * Without `--workload` it runs all four workloads, each run in its
//!   own child process, and writes `e2e.json` beside the trace files.
//! * `--check-repeat` runs that set twice and compares the two.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use eds_e2e::json::Json;
use eds_e2e::metrics::spec;
use eds_e2e::runner::{run, Config, Outcome};
use eds_e2e::workloads::Workload;

const USAGE: &str = "usage: eds-e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
[--smoke] [--check-repeat] [--out DIR]
  workloads: adhoc_cold, prepared_hot, analytic_exec, session_mix
  --workload      run one workload in this process; otherwise all four, each in a child process
  --seed N        data, literals, binds and shuffles derive from it (default 1)
  --seconds S     length of the measured run (default: run_seconds of BENCHMARK.json)
  --trace 0|1     0: end-to-end metrics; 1: also the traced passes, per-layer metrics
  --smoke         fixed small round counts; the whole set runs in under 15 s
  --check-repeat  run the whole set twice and compare against the bounds
  --out DIR       where result and trace files go (default: e2e-out beside the build)";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    check_repeat: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec().run_seconds,
        trace: None,
        smoke: false,
        check_repeat: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_owned());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--smoke" => args.smoke = true,
            "--check-repeat" => args.check_repeat = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// `e2e-out` beside the build's profile directory: `e2e/target/e2e-out`
/// by default, under `CARGO_TARGET_DIR` when that is set. Always inside
/// the checkout the program was built in.
fn default_out() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let target = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("the executable has no target directory")?;
    Ok(target.join("e2e-out"))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn host_facts(args: &Args) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj([
        ("nproc", Json::from(nproc)),
        ("rustc", Json::from(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("smoke", Json::from(args.smoke)),
        ("profile", Json::from("release, codegen-units = 1")),
        ("eds_env", Json::from("no EDS_* variable is set")),
    ])
}

fn metrics_json(metrics: &[(String, f64, &'static str)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj([("value", Json::from(*value)), ("unit", Json::from(*unit))]),
                )
            })
            .collect(),
    )
}

fn result_file(out: &Path, workload: Workload, trace: bool) -> PathBuf {
    out.join(format!("{}.trace{}.json", workload.name(), u8::from(trace)))
}

/// One workload in this process.
fn run_one(args: &Args, workload: Workload, out_dir: &Path) -> Result<bool, String> {
    let cfg = Config {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace.unwrap_or(false),
        smoke: args.smoke,
    };
    let outcome: Outcome = run(&cfg)?;
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;

    println!(
        "# {} seed {} — {} samples, {} attempted, {} failed",
        workload.name(),
        cfg.seed,
        outcome.samples,
        outcome.attempted,
        outcome.failed
    );
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<44} {value:>16.4} {unit}");
    }
    if !outcome.budget.is_empty() {
        let total: f64 = outcome.budget.iter().map(|b| b.2).sum();
        println!("# budget of the traced rounds (stage, calls, total us, share)");
        for (stage, calls, us) in &outcome.budget {
            println!("  {stage:<24} {calls:>8} {us:>14.1} {:>7.3}", us / total);
        }
    }
    let phases: Vec<String> = outcome
        .phases
        .iter()
        .map(|(phase, secs)| format!("{phase} {secs:.2} s"))
        .collect();
    println!("# phases: {}", phases.join(", "));
    for problem in &outcome.problems {
        println!("! {problem}");
    }

    let budget = outcome
        .budget
        .iter()
        .map(|(stage, calls, us)| {
            Json::obj([
                ("stage", Json::from(stage.as_str())),
                ("calls", Json::from(*calls)),
                ("total_us", Json::from(*us)),
            ])
        })
        .collect();
    let contract = [
        ("correct", Json::from(outcome.correct)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", metrics_json(&outcome.metrics)),
    ];
    let mut full = Json::obj(contract.clone());
    if let Json::Obj(fields) = &mut full {
        fields.push(("workload".to_owned(), Json::from(workload.name())));
        fields.push(("facts".to_owned(), outcome.facts));
        fields.push(("budget".to_owned(), Json::Arr(budget)));
        let problems = outcome.problems.iter().map(|p| Json::from(p.as_str()));
        fields.push(("problems".to_owned(), Json::Arr(problems.collect())));
    }
    let path = result_file(out_dir, workload, cfg.trace);
    std::fs::write(&path, full.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    if let Some(tr) = &outcome.trace {
        let path = out_dir.join(format!("trace-{}.json", workload.name()));
        let mut trace = tr.to_json();
        if let Json::Obj(fields) = &mut trace {
            fields.insert(0, ("workload".to_owned(), Json::from(workload.name())));
            fields.insert(1, ("seed".to_owned(), Json::from(cfg.seed)));
        }
        std::fs::write(&path, trace.render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    eds_engine::shutdown_pool();
    // The contract's line: the last line of standard output.
    println!("{}", Json::obj(contract).render());
    Ok(outcome.correct)
}

/// All four workloads, each run in a child process of its own: once
/// with tracing off for the end-to-end metrics (so `peak_rss_mib` is the
/// workload's and nothing else's), once with the traced passes.
fn run_set(args: &Args, out_dir: &Path) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        let mut entry = vec![("name".to_owned(), Json::from(workload.name()))];
        for trace in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(out_dir);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let path = result_file(out_dir, workload, trace);
            // A result left by an earlier run must not stand in for this one.
            let _ = std::fs::remove_file(&path);
            // `status` waits for the child; its output goes straight
            // through to ours.
            let status = cmd
                .status()
                .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
            if !path.exists() {
                return Err(format!(
                    "{} --trace {} {status}",
                    workload.name(),
                    u8::from(trace)
                ));
            }
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let result = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            all_correct &=
                status.success() && result.get("correct").and_then(Json::as_bool) == Some(true);
            let key = if trace { "per_layer" } else { "end_to_end" };
            entry.push((key.to_owned(), result));
        }
        workloads.push(Json::Obj(entry));
    }
    let report = Json::obj([
        ("host", host_facts(args)),
        ("workloads", Json::Arr(workloads)),
    ]);
    let path = out_dir.join("e2e.json");
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    std::fs::write(&path, report.render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    Ok((report, all_correct))
}

/// The metrics object of one workload's `end_to_end` or `per_layer` run.
fn metrics_of<'a>(report: &'a Json, workload: Workload, section: &str) -> Option<&'a Json> {
    report
        .get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload.name()))?
        .get(section)?
        .get("metrics")
}

fn value_of(metrics: &Json, metric: &str) -> Option<f64> {
    metrics.get(metric)?.get("value")?.as_f64()
}

/// `(name, value)` of the per-layer metrics whose unit is `count`.
fn count_metrics(report: &Json, workload: Workload) -> Vec<(&str, f64)> {
    metrics_of(report, workload, "per_layer")
        .and_then(Json::as_obj)
        .unwrap_or_default()
        .iter()
        .filter(|(_, m)| m.get("unit").and_then(Json::as_str) == Some("count"))
        .filter_map(|(name, m)| Some((name.as_str(), m.get("value")?.as_f64()?)))
        .collect()
}

/// Compare two sets of runs of the same code: every end-to-end metric
/// against its bound, every count metric exactly.
fn compare_sets(first: &Json, second: &Json) -> bool {
    let mut ok = true;
    println!("# repeat check: workload, metric, first, second, worsening, bound");
    for workload in Workload::ALL {
        for metric in &spec().end_to_end {
            let name = metric.name.as_str();
            let bound = metric.bound.expect("checked when BENCHMARK.json was read");
            let value =
                |set| metrics_of(set, workload, "end_to_end").and_then(|m| value_of(m, name));
            let (a, b) = (value(first), value(second));
            let (Some(a), Some(b)) = (a, b) else {
                println!("{:<14} {name:<16} missing", workload.name());
                ok = false;
                continue;
            };
            let worse = if metric.higher_is_better {
                (a - b) / a
            } else {
                (b - a) / a
            };
            let verdict = if worse.abs() > bound { "EXCEEDS" } else { "ok" };
            ok &= worse.abs() <= bound;
            println!(
                "{:<14} {name:<16} {a:>14.4} {b:>14.4} {:>+8.2}% {:>5.0}% {verdict}",
                workload.name(),
                worse * 100.0,
                bound * 100.0
            );
        }
        let (ca, cb) = (
            count_metrics(first, workload),
            count_metrics(second, workload),
        );
        let differing: Vec<&str> = ca
            .iter()
            .zip(&cb)
            .filter(|(x, y)| x != y)
            .map(|(x, _)| x.0)
            .collect();
        if ca.is_empty() || ca.len() != cb.len() || !differing.is_empty() {
            println!(
                "{:<14} count metrics differ: {differing:?}",
                workload.name()
            );
            ok = false;
        } else {
            println!(
                "{:<14} {} count metrics agree exactly",
                workload.name(),
                ca.len()
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("eds-e2e: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Library defaults only: a knob left in the environment would change
    // what is measured without showing in the results.
    if let Some((name, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("EDS_"))
    {
        eprintln!(
            "eds-e2e: {} is set; unset every EDS_* variable",
            name.to_string_lossy()
        );
        return ExitCode::from(2);
    }
    let out_dir = match args.out.clone().map_or_else(default_out, Ok) {
        Ok(dir) => dir,
        Err(msg) => {
            eprintln!("eds-e2e: {msg}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Some(workload) => run_one(&args, workload, &out_dir),
        None if args.check_repeat => run_set(&args, &out_dir.join("first")).and_then(|first| {
            let second = run_set(&args, &out_dir.join("second"))?;
            Ok(compare_sets(&first.0, &second.0) && first.1 && second.1)
        }),
        None => run_set(&args, &out_dir).map(|set| set.1),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("eds-e2e: a result was wrong, a run was invalid or a bound was exceeded");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("eds-e2e: {msg}");
            ExitCode::FAILURE
        }
    }
}
