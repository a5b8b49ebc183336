//! Executor benchmark suite — the `BENCH_exec.json` workloads.
//!
//! Measures execution of *rewritten* plans (the post-optimizer hot
//! path): object-dereferencing filters, n-ary joins, merged view
//! stacks, union pushdown output, recursive fixpoints, and duplicate
//! elimination — plus million-row columnar scans exercising the morsel
//! scheduler end to end. Every workload
//! runs at `parallelism` 1 (`<id>/p1`); the committed
//! `crates/bench/baselines/before/exec.tsv` holds the same plans
//! measured on the seed tree-walking executor (`<id>/seq`; the scan
//! workloads baseline against the sequential row-at-a-time path
//! instead — re-record with `EDS_EXEC_BASELINE=1`). Parallel speed-up
//! is not measured here: the bench host's core count clamps the worker
//! policy, so `e2e/`'s `engine.p2_speedup` is the one reading.
//!
//! Before timing, each configuration asserts that the overhauled
//! executor returns *byte-identical* rows — values and order — to the
//! reference executor (the seed interpreter preserved in
//! `eds_engine::reference`).

use eds_bench::{
    assert_matches_oracle, exec_workloads, exec_workloads_1m, execute_many_workloads, literal_sql,
    opt_level_workloads,
};
use eds_core::{Dbms, OptLevel};
use eds_engine::EvalOptions;
use eds_lera::Expr;
use eds_testkit::bench::{BenchmarkGroup, BenchmarkId, Criterion};
use eds_testkit::{criterion_group, criterion_main};

fn bench_plan(
    group: &mut BenchmarkGroup<'_>,
    id: &str,
    dbms: &Dbms,
    expr: &Expr,
    opts: EvalOptions,
) {
    assert_eq!(opts.parallelism, 1, "{id}/p1 is the sequential reading");
    assert_matches_oracle(id, &dbms.db, expr, &[opts]);
    group.bench_with_input(BenchmarkId::new(id, "p1"), expr, |b, e| {
        b.iter(|| eds_engine::eval_with(e, &dbms.db, opts).unwrap());
    });
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("exec");
    group.sample_size(15);

    // `EDS_EXEC_ONLY=em` restricts the run to the prepared-statement
    // amortization workloads — they are microseconds-scale, so CI can
    // afford to *measure* them (rather than smoke them) and gate on the
    // committed floors with `bench_report_exec --check-prepared-floor`.
    let only_em = std::env::var("EDS_EXEC_ONLY").is_ok_and(|v| v == "em");

    if !only_em {
        exec_suite(&mut group);
        opt_level_suite(&mut group);
    }
    execute_many_suite(&mut group);
    if !only_em {
        repeat_rewrite_suite(&mut group);
    }
    group.finish();
}

/// With `EDS_EXEC_BASELINE=1` the run also records each columnar scan
/// under `<id>/seq` on the sequential row-at-a-time path (columnar off,
/// parallelism 1): the committed `before` baseline of the `scan_*` and
/// `scan1m_*` workloads.
fn bench_row_baseline(group: &mut BenchmarkGroup<'_>, id: &str, dbms: &Dbms, expr: &Expr) {
    if !std::env::var("EDS_EXEC_BASELINE").is_ok_and(|v| v != "0") {
        return;
    }
    let opts = EvalOptions {
        parallelism: 1,
        columnar: false,
        ..Default::default()
    };
    assert_matches_oracle(id, &dbms.db, expr, &[opts]);
    group.bench_with_input(BenchmarkId::new(id, "seq"), expr, |b, e| {
        b.iter(|| eds_engine::eval_with(e, &dbms.db, opts).unwrap());
    });
}

fn exec_suite(group: &mut BenchmarkGroup<'_>) {
    for (id, dbms, sql) in exec_workloads() {
        let prepared = dbms.prepare(&sql).unwrap();
        let rewritten = dbms.rewrite(&prepared).unwrap();
        if id.starts_with("scan_") {
            bench_row_baseline(group, id, &dbms, &rewritten.expr);
        }
        bench_plan(group, id, &dbms, &rewritten.expr, EvalOptions::default());
    }

    // Million-row scans — the morsel scheduler's target workloads (489
    // morsels per scan; the 16 k scans above span only 8). One shared
    // table, several queries; fewer samples since each iteration walks
    // a million rows.
    {
        let (dbms, queries) = exec_workloads_1m();
        group.sample_size(10);
        for (id, sql) in queries {
            let prepared = dbms.prepare(&sql).unwrap();
            let rewritten = dbms.rewrite(&prepared).unwrap();
            bench_row_baseline(group, id, &dbms, &rewritten.expr);
            bench_plan(group, id, &dbms, &rewritten.expr, EvalOptions::default());
        }
        group.sample_size(15);
    }
}

/// Cost-guided plan choice: each workload's canonical plan has a shape
/// saturation flattens or merges, and `OptLevel::Full`'s
/// cost-guided exploration may keep another one. The committed
/// `<id>/seq` baseline is the **Simple** plan on the default engine
/// configuration (re-record with `EDS_EXEC_BASELINE=1`); `<id>/p1`
/// measures the **Full** plan — the before/after pair the `opt_level`
/// kind reports. Both plans are asserted row-equivalent before timing.
fn opt_level_suite(group: &mut BenchmarkGroup<'_>) {
    let record_baseline = std::env::var("EDS_EXEC_BASELINE").is_ok_and(|v| v != "0");
    for (id, mut dbms, sql) in opt_level_workloads() {
        let prepared = dbms.prepare(&sql).unwrap();
        dbms.set_opt_level(OptLevel::Simple);
        let simple = dbms.rewrite(&prepared).unwrap();
        dbms.set_opt_level(OptLevel::Full);
        let full = dbms.rewrite(&prepared).unwrap();
        let opts = EvalOptions::default();
        let mut simple_rows = eds_engine::eval_with(&simple.expr, &dbms.db, opts)
            .unwrap()
            .0
            .sorted_rows();
        let mut full_rows = eds_engine::eval_with(&full.expr, &dbms.db, opts)
            .unwrap()
            .0
            .sorted_rows();
        simple_rows.sort();
        full_rows.sort();
        assert_eq!(
            simple_rows, full_rows,
            "{id}: Full's chosen plan changes the result"
        );
        if record_baseline {
            assert_matches_oracle(id, &dbms.db, &simple.expr, &[opts]);
            group.bench_with_input(BenchmarkId::new(id, "seq"), &simple.expr, |b, e| {
                b.iter(|| eds_engine::eval_with(e, &dbms.db, opts).unwrap());
            });
        }
        bench_plan(group, id, &dbms, &full.expr, opts);
    }
}

/// Prepared-statement amortization: prepare once, execute many with
/// varying binds. The committed `<id>/seq` baseline is the unprepared
/// path on the same tree — a full `query()` (parse, view expansion,
/// rewrite with a warm plan cache, term bridging, evaluation) per
/// execution with the binds substituted as literals; re-record with
/// `EDS_EXEC_BASELINE=1`. The `<id>/p1` measurement cycles
/// `PreparedStmt::execute` over the same bind arrays. Both sides are
/// asserted byte-identical before timing.
fn execute_many_suite(group: &mut BenchmarkGroup<'_>) {
    let record_baseline = std::env::var("EDS_EXEC_BASELINE").is_ok_and(|v| v != "0");
    for (id, dbms, sql, binds) in execute_many_workloads() {
        let stmt = dbms.prepare_stmt(&sql).unwrap();
        let literals: Vec<String> = binds.iter().map(|b| literal_sql(&sql, b)).collect();
        for (b, lit) in binds.iter().zip(&literals) {
            assert_eq!(
                stmt.execute(&dbms, b).unwrap().rows,
                dbms.query(lit).unwrap().rows,
                "{id}: prepared execution diverges from the literal query for {b:?}"
            );
        }
        if record_baseline {
            group.bench_with_input(BenchmarkId::new(id, "seq"), &literals, |bch, ls| {
                let mut i = 0usize;
                bch.iter(|| {
                    let rel = dbms.query(&ls[i % ls.len()]).unwrap();
                    i += 1;
                    rel
                });
            });
        }
        group.bench_with_input(BenchmarkId::new(id, "p1"), &binds, |bch, bs| {
            let mut i = 0usize;
            bch.iter(|| {
                let rel = stmt.execute(&dbms, &bs[i % bs.len()]).unwrap();
                i += 1;
                rel
            });
        });
    }
}

/// Repeated rewrite of one identical prepared query — the plan-cache
/// workload (on the seed, every iteration pays the full rewrite
/// kernel; now the first iteration fills the cache and the rest are
/// a hash lookup).
fn repeat_rewrite_suite(group: &mut BenchmarkGroup<'_>) {
    {
        let (_, dbms, sql) = exec_workloads().swap_remove(1);
        let prepared = dbms.prepare(&sql).unwrap();
        // The cached outcome must be the same plan the kernel produces.
        let cold = dbms.rewrite_uncached(&prepared).unwrap();
        let warm = dbms.rewrite(&prepared).unwrap();
        assert_eq!(cold.term, warm.term, "plan cache returned a different plan");
        let d = &dbms;
        group.bench_with_input(
            BenchmarkId::new("repeat_rewrite", "p1"),
            &prepared,
            |b, p| b.iter(|| d.rewrite(p).unwrap()),
        );
        let stats = dbms.rewriter.plan_cache_stats();
        assert!(
            stats.hits >= 1 && stats.misses >= 1,
            "repeat_rewrite must exercise the plan cache: {stats:?}"
        );
        eprintln!(
            "plan cache (cap {}): {} hits / {} misses / {} evictions",
            dbms.rewriter.plan_cache_cap(),
            stats.hits,
            stats.misses,
            stats.evictions
        );
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
