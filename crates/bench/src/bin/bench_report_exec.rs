//! Assemble `BENCH_exec.json` from the executor bench's TSV dumps.
//!
//! Inputs:
//! * `crates/bench/baselines/before/exec.tsv` — medians recorded with the
//!   seed tree-walking executor (ids `<workload>/seq`; committed,
//!   regenerated only when a PR intentionally re-baselines). The
//!   `scan_*` workloads arrived with the columnar layer, so their
//!   baseline is the row-at-a-time path (`EDS_COLUMNAR=0`) instead;
//! * `target/bench-tsv/exec.tsv` — medians from the current tree, written
//!   by `cargo bench -p eds-bench --bench exec` (ids `<workload>/p1`,
//!   `EvalOptions::parallelism` 1).
//!
//! Output: `BENCH_exec.json` at the workspace root with per-workload
//! before/after medians and speedups, plus the median speedup over the
//! exec entries. The `repeat_rewrite` workload measures the
//! rewrite-output plan cache (kind `rewrite`) and is excluded from the
//! exec median.
//!
//! Usage: `cargo bench -p eds-bench --bench exec && cargo run -p eds-bench
//! --bin bench_report_exec`.
//!
//! The `em_*` workloads measure prepared-statement amortization
//! (kind `execute_many`): `<id>/seq` is the unprepared per-query path
//! (full parse + rewrite + bridge per execution, plan cache warm) and
//! `<id>/p1` is `PreparedStmt::execute` cycling the same binds. They
//! are excluded from the exec medians and summarized separately under
//! `median_speedup_execute_many`. With `--check-prepared-floor` the
//! run fails (exit 1) when any workload listed in
//! `crates/bench/baselines/prepared_floors.tsv` falls below its
//! committed minimum speedup, or when fewer than two `execute_many`
//! workloads are present at all. When the current run's TSV carries a
//! fresh `em_*/seq` median (an `EDS_EXEC_BASELINE=1` run), it takes
//! precedence over the committed one so that gate compares two
//! medians from the same host.
//!
//! The `ol_*` workloads measure cost-guided plan choice (kind
//! `opt_level`): `<id>/seq` is the `OptLevel::Simple` plan (pure
//! saturation) and `<id>/p1` the `OptLevel::Full` plan the
//! cost-guided exploration picked, both on the same engine
//! configuration. They are excluded from the exec medians and
//! summarized under `median_speedup_opt_level` — about 1x since the
//! default executor hashes (the same-host check that `Full` is never the
//! slower pick is `opt_level_gate`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir;
        }
        if !dir.pop() {
            panic!("no workspace root (Cargo.lock) above the current directory");
        }
    }
}

fn read_tsv(path: &Path) -> BTreeMap<String, f64> {
    let text =
        fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let mut cols = line.split('\t');
        let (Some(id), Some(ns)) = (cols.next(), cols.next()) else {
            continue;
        };
        let ns: f64 = ns
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("bad median in {} for {id}: {e}", path.display()));
        out.insert(id.to_owned(), ns);
    }
    out
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of empty set");
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn main() {
    let check_prepared_floor = std::env::args().any(|a| a == "--check-prepared-floor");
    let root = workspace_root();
    let before = read_tsv(&root.join("crates/bench/baselines/before/exec.tsv"));
    let after = read_tsv(&root.join("target/bench-tsv/exec.tsv"));
    let mut prepared_speedups: BTreeMap<String, f64> = BTreeMap::new();
    let mut opt_level_speedups: BTreeMap<String, f64> = BTreeMap::new();

    // Workloads in baseline order: `<workload>/seq` in the before file.
    let workloads: Vec<String> = before
        .keys()
        .filter_map(|id| id.strip_suffix("/seq").map(str::to_owned))
        .collect();

    let mut entries = String::new();
    let mut speedups_p1: Vec<f64> = Vec::new();
    let mut first = true;
    for w in &workloads {
        // For the em_* workloads an `EDS_EXEC_BASELINE=1` run records a
        // fresh `<id>/seq` alongside `<id>/p1`; prefer it over the
        // committed number so the floor gate compares two medians from
        // the *same host* (CI runners are not the baseline machine).
        let before_ns = if w.starts_with("em_") || w.starts_with("ol_") {
            *after
                .get(&format!("{w}/seq"))
                .unwrap_or(&before[&format!("{w}/seq")])
        } else {
            before[&format!("{w}/seq")]
        };
        let Some(&p1) = after.get(&format!("{w}/p1")) else {
            eprintln!("warning: {w}/p1 missing from current run, skipping");
            continue;
        };
        let kind = if w == "repeat_rewrite" {
            "rewrite"
        } else if w.starts_with("em_") {
            "execute_many"
        } else if w.starts_with("ol_") {
            "opt_level"
        } else {
            "exec"
        };
        let s1 = before_ns / p1;
        if kind == "execute_many" {
            prepared_speedups.insert(w.clone(), s1);
        }
        if kind == "opt_level" {
            opt_level_speedups.insert(w.clone(), s1);
        }
        if !first {
            entries.push_str(",\n");
        }
        first = false;
        if kind == "exec" {
            speedups_p1.push(s1);
        }
        let _ = write!(
            entries,
            "    {{\"id\": \"{w}\", \"kind\": \"{kind}\", \"before_ns\": {before_ns:.1}, \
             \"after_p1_ns\": {p1:.1}, \"speedup_p1\": {s1:.2}}}"
        );
    }

    let mut json = String::from("{\n");
    json.push_str("  \"unit\": \"ns/iter (median)\",\n");
    json.push_str(
        "  \"note\": \"before = seed tree-walking executor (committed baseline, sequential), \
         except the scan_* workloads, introduced with the columnar layer, whose baseline is the \
         row-at-a-time executor (EDS_COLUMNAR=0) on the same tree; after = overhauled executor \
         at EvalOptions.parallelism 1, under the same options on both sides: the executor \
         selects join inputs first and hashes on linking equalities (film_join against the \
         seed's hash enumeration). Every configuration is asserted byte-identical to the \
         reference executor before timing. repeat_rewrite measures the rewrite-output plan \
         cache and the em_* workloads measure prepared-statement amortization (before = \
         unprepared per-query path on the same tree, after = PreparedStmt::execute cycling the \
         same binds); the ol_* workloads measure cost-guided plan choice (before = the \
         OptLevel::Simple plan, after = the OptLevel::Full plan on the same engine \
         configuration); all three kinds are excluded from the exec medians.\",\n",
    );
    let _ = write!(json, "  \"entries\": [\n{entries}\n  ]");
    // An `EDS_EXEC_ONLY=em` run measures only the execute_many suite, so
    // the exec medians may have nothing to summarize.
    if !speedups_p1.is_empty() {
        let _ = write!(
            json,
            ",\n  \"median_speedup_exec_p1\": {:.2}",
            median(speedups_p1)
        );
    }
    if !prepared_speedups.is_empty() {
        let _ = write!(
            json,
            ",\n  \"median_speedup_execute_many\": {:.2}",
            median(prepared_speedups.values().copied().collect())
        );
    }
    if !opt_level_speedups.is_empty() {
        let _ = write!(
            json,
            ",\n  \"median_speedup_opt_level\": {:.2}",
            median(opt_level_speedups.values().copied().collect())
        );
    }
    json.push_str("\n}\n");

    let out = root.join("BENCH_exec.json");
    fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
    println!("wrote {}", out.display());
    print!("{json}");

    if check_prepared_floor {
        let mut floor_violations: Vec<String> = Vec::new();
        if prepared_speedups.len() < 2 {
            floor_violations.push(format!(
                "only {} execute_many workload(s) measured, need at least 2",
                prepared_speedups.len()
            ));
        }
        let floors = read_tsv(&root.join("crates/bench/baselines/prepared_floors.tsv"));
        for (id, floor) in &floors {
            match prepared_speedups.get(id) {
                None => floor_violations.push(format!("{id}: not measured (floor {floor:.1}x)")),
                Some(&s) if s < *floor => {
                    floor_violations.push(format!("{id}: speedup {s:.2}x below floor {floor:.1}x"));
                }
                Some(_) => {}
            }
        }
        if !floor_violations.is_empty() {
            eprintln!("prepared-statement amortization below its committed floor:");
            for v in &floor_violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
    }
}
