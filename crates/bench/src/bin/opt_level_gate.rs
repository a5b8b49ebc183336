//! Same-host smoke gate for cost-guided rewriting — the CI leg behind
//! the `EDS_OPT_LEVEL` matrix. Everything here compares two
//! measurements taken back to back on the *same* machine, so the gate
//! is meaningful on any runner (committed nanoseconds from another host
//! are never consulted; those live in `BENCH_exec.json`).
//!
//! Two checks, any failure exits 1:
//!
//! 1. **Full never picks a slower plan** — on every `opt_level` and
//!    every `exec_workloads` entry, under the default executor, either
//!    Full emits the plan Simple does, or its pick must not run
//!    measurably slower (>25% tolerance for timing noise); and the
//!    exploration must have stayed within its budget
//!    (`budget_exhausted` unset). No speed-up floor is committed: the
//!    estimator prices the executor that runs, under which a flattened
//!    3-way `search` no longer costs `|R|·|S|·|T|`, and pricing the
//!    baseline as well would take a second formula. `EXPERIMENTS.md`
//!    keeps the 27x / 416x margins as the record of the cross-product
//!    executor.
//! 2. **None cuts prepare time on trivial statements** — rewriting a
//!    point scan at `OptLevel::None` must be faster than at `Simple`,
//!    since it skips the rule kernel entirely.

use std::time::Instant;

use eds_bench::{exec_workloads, opt_level_workloads, simple_table};
use eds_core::{Dbms, OptLevel, Prepared};

/// Median wall-clock nanoseconds of `iters` runs of `f`.
fn median_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    samples[samples.len() / 2]
}

fn plans_at_levels(
    dbms: &mut Dbms,
    prepared: &Prepared,
) -> (eds_core::RewriteOutcome, eds_core::RewriteOutcome) {
    dbms.set_opt_level(OptLevel::Simple);
    let simple = dbms.rewrite_uncached(prepared).unwrap();
    dbms.set_opt_level(OptLevel::Full);
    let full = dbms.rewrite_uncached(prepared).unwrap();
    (simple, full)
}

fn main() {
    let mut failures: Vec<String> = Vec::new();

    // 1. Full never picks a measurably slower plan than Simple.
    for (id, mut dbms, sql) in opt_level_workloads().into_iter().chain(exec_workloads()) {
        let prepared = dbms.prepare(&sql).unwrap();
        let (simple, full) = plans_at_levels(&mut dbms, &prepared);
        if full.budget_exhausted {
            failures.push(format!("{id}: exploration exhausted a block budget"));
        }
        if simple.expr == full.expr {
            continue;
        }
        let ex = full.exploration.expect("Full reports exploration");
        let simple_ns = median_ns(7, || {
            dbms.run_expr(&simple.expr).unwrap();
        });
        let full_ns = median_ns(7, || {
            dbms.run_expr(&full.expr).unwrap();
        });
        println!(
            "{id}: Full chose a different plan — simple {simple_ns:.0} ns, full {full_ns:.0} ns \
             (considered {} candidates, est. {:.0} vs runner-up {:.0})",
            ex.considered,
            ex.chosen_cost,
            ex.runner_up_cost.unwrap_or(f64::NAN),
        );
        if full_ns > simple_ns * 1.25 {
            failures.push(format!(
                "{id}: Full's plan is {:.2}x slower than Simple's",
                full_ns / simple_ns
            ));
        }
    }

    // 2. None skips the rule kernel on trivial statements.
    {
        let mut dbms = simple_table(100);
        let prepared = dbms.prepare("SELECT Y FROM T WHERE X = 42 ;").unwrap();
        dbms.set_opt_level(OptLevel::Simple);
        let simple_ns = median_ns(25, || {
            dbms.rewrite_uncached(&prepared).unwrap();
        });
        dbms.set_opt_level(OptLevel::None);
        let none = dbms.rewrite_uncached(&prepared).unwrap();
        if none.stats.condition_checks != 0 {
            failures.push(format!(
                "trivial scan still rewrote at OptLevel::None ({} checks)",
                none.stats.condition_checks
            ));
        }
        let none_ns = median_ns(25, || {
            dbms.rewrite_uncached(&prepared).unwrap();
        });
        println!(
            "trivial prepare: simple {simple_ns:.0} ns, none {none_ns:.0} ns ({:.1}x faster)",
            simple_ns / none_ns
        );
        if none_ns >= simple_ns {
            failures.push(format!(
                "OptLevel::None did not cut trivial-statement prepare time \
                 (none {none_ns:.0} ns >= simple {simple_ns:.0} ns)"
            ));
        }
    }

    if failures.is_empty() {
        println!("opt_level gate: all checks passed");
    } else {
        eprintln!("opt_level gate failures:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
