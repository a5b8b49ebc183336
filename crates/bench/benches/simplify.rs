//! Experiment F12 — predicate simplification: constant-folding width
//! sweep (how rewrite time scales with qualification size) and the
//! execution payoff of folded qualifications.
//!
//! The width table runs `wide_conjunction_sql(n)` up to n = 200 (400
//! conjuncts) and prints, beside the deterministic checks and
//! applications, the best of three `rewrite_uncached` times and that
//! time per condition check. The counts grow linearly in the width; a
//! per-check column that grows with it means a check stopped costing a
//! bounded amount.

use std::time::{Duration, Instant};

use eds_bench::{simple_table, wide_conjunction_sql};
use eds_core::{Dbms, Prepared};
use eds_testkit::bench::{BenchmarkId, Criterion};
use eds_testkit::{criterion_group, criterion_main};

/// Best of three `rewrite_uncached` runs.
fn best_rewrite(dbms: &Dbms, prepared: &Prepared) -> Duration {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            dbms.rewrite_uncached(prepared).unwrap();
            start.elapsed()
        })
        .min()
        .unwrap()
}

fn series() {
    println!("\n# F12 predicate simplification: conjunct-width sweep (500 rows)");
    println!(
        "{:<6} {:>10} {:>11} {:>10} {:>8} {:>12} {:>11} {:>12}",
        "n",
        "conjuncts",
        "conj_before",
        "conj_after",
        "checks",
        "applications",
        "rewrite_ms",
        "us_per_check"
    );
    let dbms = simple_table(500);
    for n in [1usize, 4, 8, 11, 16, 22, 50, 100, 200] {
        let sql = wide_conjunction_sql(n);
        let prepared = dbms.prepare(&sql).unwrap();
        let rewritten = dbms.rewrite(&prepared).unwrap();
        let count = |e: &eds_lera::Expr| match e {
            eds_lera::Expr::Search { pred, .. } => pred.conjuncts().len(),
            _ => 0,
        };
        let checks = rewritten.stats.condition_checks;
        let best = best_rewrite(&dbms, &prepared);
        println!(
            "{:<6} {:>10} {:>11} {:>10} {:>8} {:>12} {:>11.2} {:>12.2}",
            n,
            2 * n,
            count(&prepared.expr),
            count(&rewritten.expr),
            checks,
            rewritten.stats.applications,
            best.as_secs_f64() * 1e3,
            best.as_secs_f64() * 1e6 / checks.max(1) as f64,
        );
    }
    println!();
}

fn bench(c: &mut Criterion) {
    series();
    let mut group = c.benchmark_group("simplify");
    group.sample_size(20);
    let dbms = simple_table(500);
    for n in [4usize, 16] {
        let sql = wide_conjunction_sql(n);
        let prepared = dbms.prepare(&sql).unwrap();
        group.bench_with_input(BenchmarkId::new("rewrite", n), &prepared, |b, p| {
            b.iter(|| dbms.rewrite_uncached(p).unwrap());
        });
        let rewritten = dbms.rewrite(&prepared).unwrap();
        group.bench_with_input(
            BenchmarkId::new("exec_unfolded", n),
            &prepared.expr,
            |b, e| b.iter(|| dbms.run_expr(e).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("exec_folded", n),
            &rewritten.expr,
            |b, e| b.iter(|| dbms.run_expr(e).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
