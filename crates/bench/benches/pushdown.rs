//! Experiment F8 — permutation rules: search through union and search
//! through nest (Figure 8). Measures engine work with and without the
//! pushing rules across workload scale. Logical work is the plan's
//! cross product (`EvalStats::cross_product`).

use eds_bench::{nested_view, union_view};
use eds_testkit::bench::{BenchmarkId, Criterion};
use eds_testkit::{criterion_group, criterion_main};

fn series() {
    println!("\n# F8a search-through-union: branches sweep (200 rows/branch)");
    println!(
        "{:<9} {:>14} {:>14} {:>8}",
        "branches", "combos_before", "combos_after", "ratio"
    );
    for branches in [2usize, 4, 8] {
        let dbms = union_view(branches, 200);
        let sql = "SELECT K FROM ALLPARTS WHERE K = 7 ;";
        let prepared = dbms.prepare(sql).unwrap();
        let rewritten = dbms.rewrite(&prepared).unwrap();
        let (r1, before) = dbms.run_expr_with_stats(&prepared.expr).unwrap();
        let (r2, after) = dbms.run_expr_with_stats(&rewritten.expr).unwrap();
        assert!(r1.set_eq(&r2));
        println!(
            "{:<9} {:>14} {:>14} {:>8.2}",
            branches,
            before.cross_product,
            after.cross_product,
            before.cross_product as f64 / after.cross_product.max(1) as f64
        );
    }

    println!("\n# F8b search-through-nest: group-count sweep (20 items/group)");
    println!(
        "{:<8} {:>14} {:>14} {:>12} {:>12}",
        "groups", "rows_before", "rows_after", "nest_before", "nest_after"
    );
    for groups in [50i64, 200, 800] {
        let dbms = nested_view(groups, 20);
        let sql = "SELECT G FROM GROUPED WHERE G = 3 ;";
        let prepared = dbms.prepare(sql).unwrap();
        let rewritten = dbms.rewrite(&prepared).unwrap();
        let (r1, before) = dbms.run_expr_with_stats(&prepared.expr).unwrap();
        let (r2, after) = dbms.run_expr_with_stats(&rewritten.expr).unwrap();
        assert!(r1.set_eq(&r2));
        println!(
            "{:<8} {:>14} {:>14} {:>12} {:>12}",
            groups,
            before.rows_emitted,
            after.rows_emitted,
            before.cross_product,
            after.cross_product,
        );
    }
    println!("\n# F8c physical ablation: rewrite benefit in logical and in executed work");
    println!(
        "{:<18} {:>18} {:>16}",
        "counter", "combos_unrewritten", "combos_rewritten"
    );
    {
        // Two-view equi-join with a selective predicate (300×300 rows),
        // one run per plan: the merging rewrite shrinks both the cross
        // product and what the executor examines, and selecting first
        // and hashing shrinks the work of both plans — orthogonal wins.
        let mut dbms = eds_core::Dbms::new().unwrap();
        dbms.execute_ddl(
            "TABLE R (K : INT, V : INT);
             TABLE S (K : INT, W : INT);
             CREATE VIEW RV (K, V) AS SELECT K, V FROM R WHERE V >= 0 ;
             CREATE VIEW SV (K, W) AS SELECT K, W FROM S WHERE W >= 0 ;",
        )
        .unwrap();
        for i in 0..300i64 {
            dbms.insert("R", vec![i.into(), (i % 90).into()]).unwrap();
            dbms.insert("S", vec![(i % 120).into(), (i % 45).into()])
                .unwrap();
        }
        let sql = "SELECT RV.V FROM RV, SV WHERE RV.K = SV.K AND SV.W = 7 ;";
        let prepared = dbms.prepare(sql).unwrap();
        let rewritten = dbms.rewrite(&prepared).unwrap();
        let (r1, s1) = dbms.run_expr_with_stats(&prepared.expr).unwrap();
        let (r2, s2) = dbms.run_expr_with_stats(&rewritten.expr).unwrap();
        assert!(r1.set_eq(&r2));
        for (label, before, after) in [
            ("cross_product", s1.cross_product, s2.cross_product),
            (
                "combinations_tried",
                s1.combinations_tried,
                s2.combinations_tried,
            ),
        ] {
            println!("{label:<18} {before:>18} {after:>16}");
        }
    }
    println!();
}

fn bench(c: &mut Criterion) {
    series();
    let mut group = c.benchmark_group("pushdown");
    group.sample_size(15);

    let dbms = union_view(4, 200);
    let prepared = dbms
        .prepare("SELECT K FROM ALLPARTS WHERE K = 7 ;")
        .unwrap();
    let rewritten = dbms.rewrite(&prepared).unwrap();
    group.bench_function("union/exec_unpushed", |b| {
        b.iter(|| dbms.run_expr(&prepared.expr).unwrap());
    });
    group.bench_function("union/exec_pushed", |b| {
        b.iter(|| dbms.run_expr(&rewritten.expr).unwrap());
    });

    let dbms = nested_view(200, 20);
    let prepared = dbms.prepare("SELECT G FROM GROUPED WHERE G = 3 ;").unwrap();
    let rewritten = dbms.rewrite(&prepared).unwrap();
    group.bench_function("nest/exec_unpushed", |b| {
        b.iter(|| dbms.run_expr(&prepared.expr).unwrap());
    });
    group.bench_function("nest/exec_pushed", |b| {
        b.iter(|| dbms.run_expr(&rewritten.expr).unwrap());
    });

    for branches in [2usize, 8] {
        let dbms = union_view(branches, 10);
        let prepared = dbms
            .prepare("SELECT K FROM ALLPARTS WHERE K = 7 ;")
            .unwrap();
        group.bench_with_input(
            BenchmarkId::new("rewrite_time", branches),
            &branches,
            |b, _| b.iter(|| dbms.rewrite_uncached(&prepared).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
