//! Smoke guard over the committed benchmark report: `BENCH_exec.json`
//! must stay parseable, every entry's `speedup` must be a finite
//! number, so a botched bench regeneration fails CI loudly instead of
//! shipping NaN/Infinity into the report, and every executor workload
//! must have an entry, so one added without regenerating the report
//! fails too.
//!
//! Hand-rolled mini JSON validation — the workspace deliberately has no
//! serde dependency.

use std::path::PathBuf;

use eds_bench::{exec_queries_1m, exec_workloads};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

/// Extract every `"key": <number>` pair from a JSON text (the exec
/// report holds a flat entry list with per-parallelism columns; a
/// generic scan needs no schema). Non-numeric values parse to NaN so
/// they fail the finiteness assertions downstream.
fn numeric_pairs(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let bytes = json.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'"' {
            i += 1;
            continue;
        }
        let start = i + 1;
        let mut j = start;
        while j < bytes.len() && bytes[j] != b'"' {
            if bytes[j] == b'\\' {
                j += 1;
            }
            j += 1;
        }
        if j >= bytes.len() {
            break;
        }
        let key = &json[start..j];
        let mut k = j + 1;
        while k < bytes.len() && bytes[k].is_ascii_whitespace() {
            k += 1;
        }
        if k < bytes.len() && bytes[k] == b':' {
            k += 1;
            while k < bytes.len() && bytes[k].is_ascii_whitespace() {
                k += 1;
            }
            if k < bytes.len() && bytes[k] != b'"' && bytes[k] != b'{' && bytes[k] != b'[' {
                let end = json[k..]
                    .find(|c: char| ",}]\n ".contains(c))
                    .map_or(json.len(), |e| k + e);
                let token = json[k..end].trim();
                if !token.is_empty() && !matches!(token, "true" | "false" | "null") {
                    out.push((key.to_owned(), token.parse::<f64>().unwrap_or(f64::NAN)));
                }
                i = end;
                continue;
            }
        }
        i = j + 1;
    }
    out
}

/// Cheap structural sanity: balanced braces/brackets outside strings.
fn balanced(json: &str) -> bool {
    let (mut brace, mut bracket) = (0i64, 0i64);
    let mut in_str = false;
    let mut escape = false;
    for c in json.chars() {
        if escape {
            escape = false;
            continue;
        }
        match c {
            '\\' if in_str => escape = true,
            '"' => in_str = !in_str,
            '{' if !in_str => brace += 1,
            '}' if !in_str => brace -= 1,
            '[' if !in_str => bracket += 1,
            ']' if !in_str => bracket -= 1,
            _ => {}
        }
        if brace < 0 || bracket < 0 {
            return false;
        }
    }
    brace == 0 && bracket == 0 && !in_str
}

fn check_report(name: &str) {
    let path = repo_root().join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} unreadable: {e}", path.display()));
    assert!(balanced(&text), "{name}: unbalanced JSON structure");
    assert!(
        text.contains("\"unit\"") && text.contains("\"entries\""),
        "{name}: expected report shape (unit + entries)"
    );

    let pairs = numeric_pairs(&text);
    let speedups: Vec<&(String, f64)> = pairs
        .iter()
        .filter(|(k, _)| k.contains("speedup"))
        .collect();
    assert!(!speedups.is_empty(), "{name}: no speedup entries");
    for (key, v) in &speedups {
        assert!(
            v.is_finite() && *v > 0.0,
            "{name}: {key} is not a positive finite number: {v}"
        );
    }

    // The ns columns the speedups are derived from must be sane too.
    let ns_cols: Vec<&(String, f64)> = pairs.iter().filter(|(k, _)| k.ends_with("_ns")).collect();
    assert!(!ns_cols.is_empty(), "{name}: no *_ns columns");
    for (key, v) in &ns_cols {
        assert!(
            v.is_finite() && *v > 0.0,
            "{name}: {key} is not a positive finite number: {v}"
        );
    }
}

#[test]
fn bench_exec_report_is_sane() {
    check_report("BENCH_exec.json");
}

/// Every `"id": "<workload>"` of a report, in order.
fn entry_ids(json: &str) -> Vec<&str> {
    json.split("\"id\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect()
}

#[test]
fn every_exec_workload_has_a_report_entry() {
    let path = repo_root().join("BENCH_exec.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{} unreadable: {e}", path.display()));
    let ids = entry_ids(&text);
    let workloads = exec_workloads().into_iter().map(|(id, ..)| id);
    for id in workloads.chain(exec_queries_1m().into_iter().map(|(id, _)| id)) {
        assert!(
            ids.contains(&id),
            "BENCH_exec.json has no entry for exec workload {id}: regenerate it \
             (cargo bench -p eds-bench --bench exec && cargo run -p eds-bench --bin bench_report_exec)"
        );
    }
}

/// `bench_report_exec --check-prepared-floor` in a workspace of its own
/// (a `Cargo.lock`, both committed baselines, and the TSV of an
/// `EDS_EXEC_ONLY=em` run): the gate prints its verdict and writes no
/// `BENCH_exec.json`, whether the floors hold or not; the plain run is
/// the one that writes the report.
#[test]
fn the_floor_gate_writes_no_report() {
    let dir = std::env::temp_dir().join(format!("eds-floor-gate-{}", std::process::id()));
    let baselines = dir.join("crates/bench/baselines");
    std::fs::create_dir_all(baselines.join("before")).unwrap();
    std::fs::create_dir_all(dir.join("target/bench-tsv")).unwrap();
    std::fs::write(dir.join("Cargo.lock"), "").unwrap();
    let committed = repo_root().join("crates/bench/baselines");
    for file in ["before/exec.tsv", "prepared_floors.tsv"] {
        std::fs::copy(committed.join(file), baselines.join(file)).unwrap();
    }
    let floors = std::fs::read_to_string(committed.join("prepared_floors.tsv")).unwrap();
    // Each `em_*` workload at twice its floor, or one at half of it.
    let em_run = |missed: Option<&str>| {
        let mut tsv = String::new();
        for line in floors.lines() {
            let (id, floor) = line.split_once('\t').unwrap();
            let floor: f64 = floor.trim().parse().unwrap();
            let speedup = if Some(id) == missed {
                floor / 2.0
            } else {
                floor * 2.0
            };
            tsv.push_str(&format!(
                "{id}/seq\t{:.1}\n{id}/p1\t1000.0\n",
                1000.0 * speedup
            ));
        }
        std::fs::write(dir.join("target/bench-tsv/exec.tsv"), tsv).unwrap();
    };
    let run = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_bench_report_exec"))
            .args(args)
            .current_dir(&dir)
            .output()
            .unwrap()
    };
    let report = dir.join("BENCH_exec.json");

    em_run(None);
    let held = run(&["--check-prepared-floor"]);
    let stdout = String::from_utf8_lossy(&held.stdout);
    assert!(held.status.success(), "{stdout}");
    assert!(
        stdout.contains("every prepared-statement floor holds"),
        "{stdout}"
    );
    assert!(
        stdout.contains("em_stack_point: speedup 10.00x, floor 5.0x"),
        "{stdout}"
    );
    assert!(!report.exists(), "the gate wrote {}", report.display());

    em_run(Some("em_wide_pred"));
    let missed = run(&["--check-prepared-floor"]);
    let stderr = String::from_utf8_lossy(&missed.stderr);
    assert_eq!(missed.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("em_wide_pred: speedup 1.75x below floor 3.5x"),
        "{stderr}"
    );
    assert!(
        !report.exists(),
        "the failed gate wrote {}",
        report.display()
    );

    assert!(run(&[]).status.success());
    let text = std::fs::read_to_string(&report).unwrap();
    assert_eq!(entry_ids(&text).len(), floors.lines().count());
    std::fs::remove_dir_all(&dir).unwrap();
}
