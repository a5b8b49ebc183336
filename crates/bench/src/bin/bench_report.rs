//! Assemble `BENCH_rewrite.json` from the bench harness's TSV dumps.
//!
//! Inputs:
//! * `crates/bench/baselines/before/<group>.tsv` — medians recorded with
//!   the pre-overhaul kernel (committed, regenerated only when a PR
//!   intentionally re-baselines);
//! * `target/bench-tsv/<group>.tsv` — medians from the current tree,
//!   written by `cargo bench -p eds-bench --bench <group>`.
//!
//! Output: `BENCH_rewrite.json` at the workspace root with per-entry
//! before/after medians and speedups, plus per-group medians. Entries are
//! classified as `rewrite` (matcher / rewrite-phase measurements, the
//! kernel's hot path) or `exec` (plan execution, expected to be flat:
//! rewriting produces byte-identical plans).
//!
//! Usage: `cargo run -p eds-bench --bin bench_report` after running the
//! four groups below with `cargo bench`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

const GROUPS: &[&str] = &["matching", "merging", "pushdown", "simplify"];

/// An entry measures the rewrite kernel itself (rather than executing the
/// rewritten plan) when the whole group is matcher work or the id names a
/// rewrite phase.
fn is_rewrite_entry(group: &str, id: &str) -> bool {
    group == "matching" || id.contains("rewrite")
}

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
    let root = workspace_root();
    let before_dir = root.join("crates/bench/baselines/before");
    let after_dir = root.join("target/bench-tsv");

    let mut json = String::from("{\n");
    json.push_str("  \"unit\": \"ns/iter (median)\",\n");
    json.push_str(
        "  \"note\": \"before = pre-overhaul kernel baseline (committed TSVs, recorded when PR 1 \
         landed); after = current tree, on the host of this run. The two sides were not measured \
         on one host, so a speedup compares kernels across hosts: read its size, not its \
         decimals. rewrite entries exercise the rewrite kernel; exec entries run the rewritten \
         plan (identical plans, so they show the executor's own changes since).\",\n",
    );
    json.push_str("  \"groups\": {\n");

    let mut all_rewrite_speedups: Vec<f64> = Vec::new();
    for (gi, group) in GROUPS.iter().enumerate() {
        let before = read_tsv(&before_dir.join(format!("{group}.tsv")));
        let after = read_tsv(&after_dir.join(format!("{group}.tsv")));

        let mut entries = String::new();
        let mut rewrite_speedups = Vec::new();
        let mut all_speedups = Vec::new();
        for (i, (id, after_ns)) in after.iter().enumerate() {
            let Some(before_ns) = before.get(id) else {
                eprintln!("warning: {group}/{id} has no 'before' baseline, skipping");
                continue;
            };
            let speedup = before_ns / after_ns;
            let kind = if is_rewrite_entry(group, id) {
                rewrite_speedups.push(speedup);
                "rewrite"
            } else {
                "exec"
            };
            all_speedups.push(speedup);
            let _ = write!(
                entries,
                "{}        {{\"id\": \"{id}\", \"kind\": \"{kind}\", \"before_ns\": {before_ns:.1}, \
                 \"after_ns\": {after_ns:.1}, \"speedup\": {speedup:.2}}}",
                if i == 0 { "" } else { ",\n" },
            );
        }
        all_rewrite_speedups.extend(rewrite_speedups.iter().copied());

        let _ = write!(
            json,
            "    \"{group}\": {{\n      \"entries\": [\n{entries}\n      ],\n      \
             \"median_speedup_rewrite\": {:.2},\n      \"median_speedup_all\": {:.2}\n    }}{}\n",
            median(rewrite_speedups),
            median(all_speedups),
            if gi + 1 == GROUPS.len() { "" } else { "," },
        );
    }

    let _ = write!(
        json,
        "  }},\n  \"median_speedup_rewrite_overall\": {:.2}\n}}\n",
        median(all_rewrite_speedups)
    );

    let out = root.join("BENCH_rewrite.json");
    fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
    println!("wrote {}", out.display());
    print!("{json}");
}
