//! Assemble `BENCH_exec.json` from the executor bench's TSV dumps.
//!
//! Inputs:
//! * `crates/bench/baselines/before/exec.tsv` — medians recorded with the
//!   seed tree-walking executor (ids `<workload>/seq`; committed,
//!   regenerated only when a PR intentionally re-baselines). The
//!   `scan_*` workloads arrived with the columnar layer, so their
//!   baseline is the row-at-a-time path (columnar off, recorded by an
//!   `EDS_EXEC_BASELINE=1` run) instead;
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
//! run writes no report: it prints each workload listed in
//! `crates/bench/baselines/prepared_floors.tsv` beside its committed
//! minimum speedup and fails (exit 1) when one falls below it, or when
//! fewer than two `execute_many` workloads are present at all — so
//! gating an `EDS_EXEC_ONLY=em` run cannot shrink the committed report
//! to its five entries. When the current run's TSV carries a
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

/// One workload's before/after medians.
struct Entry {
    id: String,
    kind: &'static str,
    before_ns: f64,
    p1: f64,
}

impl Entry {
    fn speedup(&self) -> f64 {
        self.before_ns / self.p1
    }
}

/// Every workload of the baseline that the current run measured, in
/// baseline order.
fn entries(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) -> Vec<Entry> {
    // Workloads in baseline order: `<workload>/seq` in the before file.
    let workloads = before.keys().filter_map(|id| id.strip_suffix("/seq"));
    let mut out = Vec::new();
    for w in workloads {
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
        out.push(Entry {
            id: w.to_owned(),
            kind,
            before_ns,
            p1,
        });
    }
    out
}

/// The median speedup over the entries of one kind, `None` when the run
/// measured none of them.
fn median_speedup(entries: &[Entry], kind: &str) -> Option<f64> {
    let speedups: Vec<f64> = entries
        .iter()
        .filter(|e| e.kind == kind)
        .map(Entry::speedup)
        .collect();
    (!speedups.is_empty()).then(|| median(speedups))
}

fn report(entries: &[Entry]) -> String {
    let rows: Vec<String> = entries
        .iter()
        .map(|e| {
            format!(
                "    {{\"id\": \"{}\", \"kind\": \"{}\", \"before_ns\": {:.1}, \
                 \"after_p1_ns\": {:.1}, \"speedup_p1\": {:.2}}}",
                e.id,
                e.kind,
                e.before_ns,
                e.p1,
                e.speedup()
            )
        })
        .collect();
    let mut json = String::from("{\n");
    json.push_str("  \"unit\": \"ns/iter (median)\",\n");
    json.push_str(
        "  \"note\": \"before = seed tree-walking executor (committed baseline, sequential), \
         except the scan_* workloads, introduced with the columnar layer, whose baseline is the \
         row-at-a-time executor (columnar off, recorded with EDS_EXEC_BASELINE=1) on the same tree; after = overhauled executor \
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
    let _ = write!(json, "  \"entries\": [\n{}\n  ]", rows.join(",\n"));
    // A run that measured only some kinds has nothing to summarize for
    // the others.
    for (kind, key) in [
        ("exec", "median_speedup_exec_p1"),
        ("execute_many", "median_speedup_execute_many"),
        ("opt_level", "median_speedup_opt_level"),
    ] {
        if let Some(m) = median_speedup(entries, kind) {
            let _ = write!(json, ",\n  \"{key}\": {m:.2}");
        }
    }
    json.push_str("\n}\n");
    json
}

/// Print each committed floor beside the measured speedup; `false` when
/// one is missed or fewer than two `execute_many` workloads were
/// measured.
fn floors_hold(root: &Path, entries: &[Entry]) -> bool {
    let prepared: BTreeMap<&str, f64> = entries
        .iter()
        .filter(|e| e.kind == "execute_many")
        .map(|e| (e.id.as_str(), e.speedup()))
        .collect();
    let mut violations: Vec<String> = Vec::new();
    if prepared.len() < 2 {
        violations.push(format!(
            "only {} execute_many workload(s) measured, need at least 2",
            prepared.len()
        ));
    }
    let floors = read_tsv(&root.join("crates/bench/baselines/prepared_floors.tsv"));
    for (id, floor) in &floors {
        match prepared.get(id.as_str()) {
            None => violations.push(format!("{id}: not measured (floor {floor:.1}x)")),
            Some(&s) if s < *floor => {
                violations.push(format!("{id}: speedup {s:.2}x below floor {floor:.1}x"));
            }
            Some(&s) => println!("{id}: speedup {s:.2}x, floor {floor:.1}x"),
        }
    }
    if violations.is_empty() {
        println!("every prepared-statement floor holds");
        return true;
    }
    eprintln!("prepared-statement amortization below its committed floor:");
    for v in &violations {
        eprintln!("  {v}");
    }
    false
}

fn main() {
    let check_prepared_floor = std::env::args().any(|a| a == "--check-prepared-floor");
    let root = workspace_root();
    let before = read_tsv(&root.join("crates/bench/baselines/before/exec.tsv"));
    let after = read_tsv(&root.join("target/bench-tsv/exec.tsv"));
    let entries = entries(&before, &after);
    if check_prepared_floor {
        // A gate reads the run; the report is the plain run's to write.
        if !floors_hold(&root, &entries) {
            std::process::exit(1);
        }
        return;
    }
    let json = report(&entries);
    let out = root.join("BENCH_exec.json");
    fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
    println!("wrote {}", out.display());
    print!("{json}");
}
