//! Runs the benchmark in `--smoke` mode and checks what it wrote against
//! `BENCHMARK.json`: every workload and metric named there is present,
//! finite and carries its unit; nothing failed; the traces are well
//! formed.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

use eds_e2e::json::Json;

fn read_json(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn names(list: &Json) -> Vec<(String, String)> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn bench_command() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_eds-e2e"));
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("EDS_") {
            cmd.env_remove(key);
        }
    }
    cmd
}

#[test]
fn smoke_run_reports_everything_benchmark_json_names() {
    let out: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let _ = std::fs::remove_dir_all(&out);
    let status = bench_command()
        .args(["--smoke", "--seed", "7", "--out"])
        .arg(&out)
        .status()
        .expect("the benchmark starts");
    assert!(status.success(), "smoke run exited with {status}");

    let bench = read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"));
    let report = read_json(&out.join("e2e.json"));
    for fact in ["nproc", "rustc", "git_commit", "seed", "seconds"] {
        assert!(
            report.get("host").and_then(|h| h.get(fact)).is_some(),
            "host fact {fact}"
        );
    }
    let workloads = report
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");

    for (workload, _) in names(bench.get("workloads").expect("workloads")) {
        assert!(well_formed(&workload), "workload name {workload}");
        let entry = workloads
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(&workload))
            .unwrap_or_else(|| panic!("workload {workload} missing from e2e.json"));
        for section in ["end_to_end", "per_layer"] {
            let run = entry
                .get(section)
                .unwrap_or_else(|| panic!("{workload}: no {section}"));
            assert_eq!(
                run.get("correct").and_then(Json::as_bool),
                Some(true),
                "{workload} {section}"
            );
            assert_eq!(
                run.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{workload} {section}"
            );
            assert!(run.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
            let metrics = run.get("metrics").expect("metrics");
            let expected = names(bench.get(section).expect("metric list"));
            assert_eq!(
                metrics.as_obj().expect("metrics object").len(),
                expected.len(),
                "{workload} {section}: exactly the listed metrics"
            );
            for (name, unit) in expected {
                assert!(well_formed(&name), "metric name {name}");
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload}: metric {name} missing"));
                let value = m.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload} {name} = {value:?}"
                );
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                if section == "end_to_end" {
                    assert!(
                        value.unwrap_or(0.0) > 0.0,
                        "{workload} {name} must never be 0"
                    );
                }
            }
        }
        for fact in ["eval_options", "plan_cache_cap", "rows_per_table"] {
            let facts = entry.get("end_to_end").and_then(|r| r.get("facts"));
            assert!(
                facts.and_then(|f| f.get(fact)).is_some(),
                "{workload}: fact {fact}"
            );
        }

        // Spans nest, close after they open, and share their root's op id.
        let trace = read_json(&out.join(format!("trace-{workload}.json")));
        let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
        assert!(!spans.is_empty(), "{workload}: empty trace");
        let num = |s: &Json, k: &str| s.get(k).and_then(Json::as_f64).expect("span field") as u64;
        let by_id: BTreeMap<u64, &Json> = spans.iter().map(|s| (num(s, "id"), s)).collect();
        assert_eq!(by_id.len(), spans.len(), "{workload}: span ids are unique");
        let mut ops = BTreeSet::new();
        for s in spans {
            assert!(num(s, "start_ns") <= num(s, "end_ns"));
            assert!(well_formed(
                s.get("name").and_then(Json::as_str).expect("name")
            ));
            match num(s, "parent") {
                0 => assert!(ops.insert(num(s, "op")), "{workload}: one root span per op"),
                parent => {
                    let p = by_id[&parent];
                    assert_eq!(
                        num(p, "op"),
                        num(s, "op"),
                        "{workload}: spans of an op share its id"
                    );
                    assert!(num(p, "start_ns") <= num(s, "start_ns"));
                    assert!(num(s, "end_ns") <= num(p, "end_ns"));
                }
            }
        }
        for counts in trace.get("counts").and_then(Json::as_arr).expect("counts") {
            assert!(
                ops.contains(&num(counts, "op")),
                "{workload}: counts name a traced op"
            );
        }
    }
}

#[test]
fn refuses_to_start_with_an_eds_knob_set() {
    let output = bench_command()
        .env("EDS_PARALLELISM", "2")
        .args(["--smoke", "--workload", "prepared_hot"])
        .output()
        .expect("the benchmark starts");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("EDS_PARALLELISM"));
    assert!(output.stdout.is_empty(), "no result may be printed");
}
