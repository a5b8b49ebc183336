//! Experiment F10/F11 — semantic rewriting: integrity-constraint
//! addition, equality substitution, and the inconsistency-detection
//! payoff ("the potential time saving that can be realized with proper
//! use of inference rules"). Logical work is the plan's cross product
//! (`EvalStats::cross_product`).

use eds_bench::product_dbms;
use eds_testkit::bench::{BenchmarkId, Criterion};
use eds_testkit::{criterion_group, criterion_main};

fn series() {
    println!("\n# F10/F11 semantic optimization: inconsistent vs consistent queries");
    println!(
        "{:<10} {:<24} {:>14} {:>14} {:>6}",
        "rows", "query", "combos_before", "combos_after", "rows"
    );
    for rows in [1_000i64, 10_000] {
        let dbms = product_dbms(rows);
        let cases = [
            ("bad grade", "SELECT Id FROM PRODUCT WHERE Grade = 'D' ;"),
            (
                "range clash",
                "SELECT Id FROM PRODUCT WHERE Price = Weight AND Price > 100 AND Weight < 7 ;",
            ),
            ("consistent", "SELECT Id FROM PRODUCT WHERE Grade = 'A' ;"),
        ];
        for (label, sql) in cases {
            let prepared = dbms.prepare(sql).unwrap();
            let rewritten = dbms.rewrite(&prepared).unwrap();
            let (r1, before) = dbms.run_expr_with_stats(&prepared.expr).unwrap();
            let (r2, after) = dbms.run_expr_with_stats(&rewritten.expr).unwrap();
            assert!(r1.set_eq(&r2));
            println!(
                "{:<10} {:<24} {:>14} {:>14} {:>6}",
                rows,
                label,
                before.cross_product,
                after.cross_product,
                r2.len()
            );
        }
    }
    println!();
}

fn bench(c: &mut Criterion) {
    series();
    let mut group = c.benchmark_group("semantic");
    group.sample_size(15);
    let dbms = product_dbms(10_000);

    for (label, sql) in [
        ("inconsistent", "SELECT Id FROM PRODUCT WHERE Grade = 'D' ;"),
        ("consistent", "SELECT Id FROM PRODUCT WHERE Grade = 'A' ;"),
    ] {
        let prepared = dbms.prepare(sql).unwrap();
        let rewritten = dbms.rewrite(&prepared).unwrap();
        group.bench_with_input(BenchmarkId::new("rewrite", label), &prepared, |b, p| {
            b.iter(|| dbms.rewrite_uncached(p).unwrap());
        });
        group.bench_with_input(
            BenchmarkId::new("exec_unoptimized", label),
            &prepared.expr,
            |b, e| b.iter(|| dbms.run_expr(e).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("exec_optimized", label),
            &rewritten.expr,
            |b, e| b.iter(|| dbms.run_expr(e).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
