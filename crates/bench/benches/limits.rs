//! Experiment E13 — the block-limit trade-off of the paper's conclusion:
//! "if the application limit is too high [rules] may lead to long
//! processing. If one stops too early (low limit), then the logical
//! optimization can actually complicate the query."
//!
//! Sweeps a uniform limit over all blocks for a simple (key lookup) and
//! a complex (view + recursion + semantic) query, reporting rewrite
//! effort and resulting execution work (the plan's cross product,
//! `EvalStats::cross_product`).

use eds_bench::{graph_dbms, product_dbms};
use eds_rewrite::Limit;
use eds_testkit::bench::{BenchmarkId, Criterion};
use eds_testkit::{criterion_group, criterion_main};

fn sweep(label: &str, mut dbms: eds_core::Dbms, sql: &str) {
    println!("\n# E13 limit sweep — {label}: {sql}");
    println!(
        "{:<8} {:>14} {:>14} {:>14} {:>6}",
        "limit", "checks", "applications", "exec_combos", "rows"
    );
    for limit in [0u64, 2, 5, 10, 25, 100, u64::MAX] {
        let l = if limit == u64::MAX {
            Limit::Infinite
        } else {
            Limit::Finite(limit)
        };
        dbms.rewriter.set_all_limits(l);
        let prepared = dbms.prepare(sql).unwrap();
        let rewritten = dbms.rewrite(&prepared).unwrap();
        let (rel, stats) = dbms.run_expr_with_stats(&rewritten.expr).unwrap();
        let shown = if limit == u64::MAX {
            "INF".to_owned()
        } else {
            limit.to_string()
        };
        println!(
            "{:<8} {:>14} {:>14} {:>14} {:>6}",
            shown,
            rewritten.stats.condition_checks,
            rewritten.stats.applications,
            stats.cross_product,
            rel.len()
        );
    }
}

fn series() {
    sweep(
        "simple query",
        product_dbms(2_000),
        "SELECT Id FROM PRODUCT WHERE Id = 7 ;",
    );
    sweep(
        "complex query",
        graph_dbms(40, 10, 3),
        "SELECT Dst FROM TC WHERE Src = 30 ;",
    );
    println!();
}

fn bench(c: &mut Criterion) {
    series();
    let mut group = c.benchmark_group("limits");
    group.sample_size(15);
    let mut dbms = graph_dbms(30, 8, 3);
    let sql = "SELECT Dst FROM TC WHERE Src = 20 ;";
    for limit in [0u64, 10, 1000] {
        dbms.rewriter.set_all_limits(Limit::Finite(limit));
        let prepared = dbms.prepare(sql).unwrap();
        let d = &dbms;
        group.bench_with_input(BenchmarkId::new("rewrite", limit), &prepared, |b, p| {
            b.iter(|| d.rewrite_uncached(p).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
