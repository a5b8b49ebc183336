//! A criterion-compatible micro-benchmark harness.
//!
//! Implements the slice of the `criterion` API the workspace benches
//! use — groups, `sample_size`, `bench_function`, `bench_with_input`,
//! `BenchmarkId`, and the `criterion_group!`/`criterion_main!` macros —
//! on top of `std::time::Instant`, with no external dependencies.
//!
//! Policy per benchmark:
//! * **quick mode** (`--test`, `--quick`, or `EDS_BENCH_QUICK=1`): run
//!   the closure once and record that single wall time — the CI smoke
//!   path ("one iteration per bench, no statistics");
//! * **measure mode**: warm up ~100 ms, pick an iteration count so one
//!   sample costs ~25 ms, time `sample_size` samples, and report the
//!   **median ns/iter** (medians are robust to scheduler noise, which
//!   is all the statistics the rewrite-trajectory tooling needs).
//!
//! Results are printed as a table and appended to
//! `target/bench-tsv/<group>.tsv` (`id<TAB>median_ns`); `eds-bench`'s
//! `bench_report_exec` binary assembles the `exec` group's into
//! `BENCH_exec.json`.

use std::fmt::Write as _;
use std::fs;
use std::hint;
use std::path::PathBuf;
use std::time::Instant;

/// Re-export of [`std::hint::black_box`] under criterion's name.
pub fn black_box<T>(x: T) -> T {
    hint::black_box(x)
}

/// A `group/parameter` benchmark identifier.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `BenchmarkId::new("segments", 64)` displays as `segments/64`.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function.into(), parameter),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label)
    }
}

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Group name (one TSV file per group).
    pub group: String,
    /// Benchmark id within the group.
    pub id: String,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
}

/// Top-level harness state; collects results across groups.
#[derive(Debug, Default)]
pub struct Criterion {
    quick: bool,
    results: Vec<BenchResult>,
}

impl Criterion {
    /// Build from the process arguments (`--test`/`--quick` select quick
    /// mode; other flags cargo passes are ignored).
    pub fn from_args() -> Self {
        let quick = std::env::args().any(|a| a == "--test" || a == "--quick")
            || std::env::var_os("EDS_BENCH_QUICK").is_some_and(|v| v != "0");
        Criterion {
            quick,
            results: Vec::new(),
        }
    }

    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        eprintln!(
            "group {name} ({})",
            if self.quick { "quick" } else { "measure" }
        );
        BenchmarkGroup {
            criterion: self,
            name,
            sample_size: 20,
        }
    }

    /// Write the TSV dumps and the human summary. Called by
    /// `criterion_main!` after all groups ran.
    pub fn final_summary(&self) {
        if self.results.is_empty() {
            return;
        }
        let dir = tsv_dir();
        let _ = fs::create_dir_all(&dir);
        let mut groups: Vec<&str> = self.results.iter().map(|r| r.group.as_str()).collect();
        groups.dedup();
        for group in groups {
            let mut out = String::new();
            for r in self.results.iter().filter(|r| r.group == group) {
                let _ = writeln!(out, "{}\t{:.1}", r.id, r.median_ns);
            }
            let path = dir.join(format!("{group}.tsv"));
            if let Err(e) = fs::write(&path, out) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                eprintln!("wrote {}", path.display());
            }
        }
    }

    fn record(&mut self, group: &str, id: String, median_ns: f64) {
        eprintln!("  {group}/{id:<32} {median_ns:>14.1} ns/iter");
        self.results.push(BenchResult {
            group: group.to_owned(),
            id,
            median_ns,
        });
    }
}

/// Locate `<workspace>/target/bench-tsv` by walking up to the directory
/// holding `Cargo.lock`; overridable with `EDS_BENCH_TSV_DIR`.
fn tsv_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("EDS_BENCH_TSV_DIR") {
        return PathBuf::from(dir);
    }
    let mut cur = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if cur.join("Cargo.lock").exists() {
            return cur.join("target").join("bench-tsv");
        }
        if !cur.pop() {
            return PathBuf::from("target/bench-tsv");
        }
    }
}

/// A named group of benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark (measure mode).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(3);
        self
    }

    /// Benchmark a closure under a plain string id.
    pub fn bench_function(
        &mut self,
        id: impl std::fmt::Display,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        self.run(id.to_string(), &mut f);
        self
    }

    /// Benchmark a closure given a borrowed input (criterion's
    /// `bench_with_input`).
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        self.run(id.to_string(), &mut |b: &mut Bencher| f(b, input));
        self
    }

    /// Re-record the median already measured under `from` as a second
    /// row named `to`, without running anything. For configurations that
    /// are *provably identical* on the current host (e.g. a parallelism
    /// knob clamped to one worker by the core count): measuring both
    /// would report the same computation twice, so the harness records
    /// the one honest median under both ids. Returns `false` when `from`
    /// has not been measured in this group.
    pub fn copy_result(&mut self, from: &BenchmarkId, to: BenchmarkId) -> bool {
        let from = from.to_string();
        let found = self
            .criterion
            .results
            .iter()
            .find(|r| r.group == self.name && r.id == from)
            .map(|r| r.median_ns);
        match found {
            Some(median_ns) => {
                self.criterion.record(&self.name, to.to_string(), median_ns);
                true
            }
            None => false,
        }
    }

    /// End the group (kept for criterion compatibility).
    pub fn finish(&mut self) {}

    fn run(&mut self, id: String, f: &mut dyn FnMut(&mut Bencher)) {
        let mut bencher = Bencher {
            quick: self.criterion.quick,
            sample_size: self.sample_size,
            median_ns: 0.0,
        };
        f(&mut bencher);
        self.criterion.record(&self.name, id, bencher.median_ns);
    }
}

/// Passed to the benchmark closure; call [`Bencher::iter`] with the hot
/// code.
pub struct Bencher {
    quick: bool,
    sample_size: usize,
    median_ns: f64,
}

impl Bencher {
    /// Measure a closure. See the module docs for the sampling policy.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        if self.quick {
            let t0 = Instant::now();
            black_box(f());
            self.median_ns = t0.elapsed().as_nanos() as f64;
            return;
        }

        // Warm-up: run for ~100 ms (at least 5 iterations) to touch
        // caches and estimate the per-iteration cost.
        let warmup = Instant::now();
        let mut warm_iters: u64 = 0;
        while warmup.elapsed().as_millis() < 100 || warm_iters < 5 {
            black_box(f());
            warm_iters += 1;
            if warm_iters >= 1_000_000 {
                break;
            }
        }
        let est_ns = (warmup.elapsed().as_nanos() as f64 / warm_iters as f64).max(1.0);

        // One sample ~25 ms; cap so huge closures still sample quickly.
        let iters_per_sample = ((25_000_000.0 / est_ns) as u64).clamp(1, 1_000_000);
        let mut samples: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            samples.push(t0.elapsed().as_nanos() as f64 / iters_per_sample as f64);
        }
        samples.sort_by(f64::total_cmp);
        self.median_ns = samples[samples.len() / 2];
    }
}

/// Criterion-compatible group macro: defines a function running each
/// bench function in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(c: &mut $crate::bench::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Criterion-compatible main macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            let mut c = $crate::bench::Criterion::from_args();
            $( $group(&mut c); )+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_runs_once() {
        let mut c = Criterion {
            quick: true,
            results: Vec::new(),
        };
        let mut count = 0;
        {
            let mut g = c.benchmark_group("t");
            g.bench_with_input(BenchmarkId::new("inc", 1), &1, |b, _| {
                b.iter(|| {
                    count += 1;
                });
            });
            g.finish();
        }
        assert_eq!(count, 1);
        assert_eq!(c.results.len(), 1);
        assert_eq!(c.results[0].id, "inc/1");
    }

    #[test]
    fn copy_result_duplicates_without_rerunning() {
        let mut c = Criterion {
            quick: true,
            results: Vec::new(),
        };
        let mut count = 0;
        {
            let mut g = c.benchmark_group("t");
            g.bench_with_input(BenchmarkId::new("w", "p1"), &1, |b, _| {
                b.iter(|| {
                    count += 1;
                });
            });
            assert!(g.copy_result(&BenchmarkId::new("w", "p1"), BenchmarkId::new("w", "p4")));
            assert!(!g.copy_result(&BenchmarkId::new("nope", "p1"), BenchmarkId::new("w", "p8")));
            g.finish();
        }
        assert_eq!(count, 1, "the copy must not re-run the closure");
        assert_eq!(c.results.len(), 2);
        assert_eq!(c.results[0].median_ns, c.results[1].median_ns);
        assert_eq!(c.results[1].id, "w/p4");
    }

    #[test]
    fn ids_format_like_criterion() {
        assert_eq!(BenchmarkId::new("segments", 64).to_string(), "segments/64");
    }
}
