//! Experiment F9 — fixpoint reduction: the Alexander invocation rule
//! (Figure 9), crossed with naive vs semi-naive fixpoint evaluation.
//! Graph-size sweep for the bound query `TC(Src = c)`, counted in
//! logical work (`EvalStats::cross_product`). The executor runs the
//! semi-naive columns; the naive ones are the definition of `fix`,
//! written out by [`eds_bench::naive_fix`].

use eds_bench::{graph_dbms, naive_fix};
use eds_testkit::bench::{BenchmarkId, Criterion};
use eds_testkit::{criterion_group, criterion_main};

fn series() {
    println!("\n# F9 fixpoint reduction: cross product, TC(Src = n-10)");
    println!(
        "{:<7} {:>14} {:>14} {:>14} {:>14}",
        "nodes", "naive", "seminaive", "naive+alex", "semi+alex"
    );
    for nodes in [20i64, 40, 60] {
        let dbms = graph_dbms(nodes, nodes / 4, 7);
        let sql = format!("SELECT Dst FROM TC WHERE Src = {} ;", nodes - 10);
        let prepared = dbms.prepare(&sql).unwrap();
        let rewritten = dbms.rewrite(&prepared).unwrap();

        let naive = |expr: &eds_lera::Expr| {
            let (rel, cross_product) = naive_fix(expr, &dbms.db).unwrap();
            (rel.deduped().len(), cross_product)
        };
        let semi = |expr: &eds_lera::Expr| {
            let (rel, stats) = dbms.run_expr_with_stats(expr).unwrap();
            (rel.deduped().len(), stats.cross_product)
        };
        let (n1, a) = naive(&prepared.expr);
        let (n2, b) = semi(&prepared.expr);
        let (n3, c) = naive(&rewritten.expr);
        let (n4, d) = semi(&rewritten.expr);
        assert!(n1 == n2 && n2 == n3 && n3 == n4, "all strategies agree");
        assert!(b < a && d < c, "semi-naive does less logical work");
        println!("{nodes:<7} {a:>14} {b:>14} {c:>14} {d:>14}");
    }
    println!();
}

fn bench(c: &mut Criterion) {
    series();
    let mut group = c.benchmark_group("recursion");
    group.sample_size(10);

    let nodes = 40i64;
    let dbms = graph_dbms(nodes, 10, 7);
    let sql = format!("SELECT Dst FROM TC WHERE Src = {} ;", nodes - 10);
    let prepared = dbms.prepare(&sql).unwrap();
    let rewritten = dbms.rewrite(&prepared).unwrap();

    for (label, expr) in [
        ("seminaive_base", prepared.expr.clone()),
        ("seminaive_alexander", (*rewritten.expr).clone()),
    ] {
        let d = &dbms;
        group.bench_with_input(BenchmarkId::new("exec", label), &expr, |b, e| {
            b.iter(|| d.run_expr(e).unwrap());
        });
    }

    group.bench_function("rewrite_time", |b| {
        b.iter(|| dbms.rewrite_uncached(&prepared).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
