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
