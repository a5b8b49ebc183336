//! Differential suite for optimization levels: whatever plan
//! `OptLevel::Full`'s cost-guided exploration emits must be
//! row-identical (as a multiset) to `OptLevel::Simple`'s saturation
//! output, to `OptLevel::None`'s, and to the reference interpreter —
//! across the bench workloads and both columnar configurations. The estimator may pick *worse* plans without
//! breaking anything; it must never pick *wrong* ones. Two cases pin
//! what `Full` decides on the opt-level workloads, so a change to the
//! estimator that moves a pick fails here rather than only in the
//! release-mode `opt_level_gate`.

use eds_bench::{exec_workloads, opt_level_workloads};
use eds_core::{Dbms, OptLevel, RewriteOutcome};
use eds_engine::{eval_reference, EvalOptions};
use eds_lera::Expr;
use eds_rewrite::Exploration;

fn configs() -> Vec<EvalOptions> {
    [false, true]
        .map(|columnar| EvalOptions {
            columnar,
            ..Default::default()
        })
        .to_vec()
}

/// Rows of `expr` under `opts`, sorted so plans that legitimately
/// reorder output can still be compared as multisets.
fn rows_of(dbms: &Dbms, expr: &Expr, opts: EvalOptions) -> Vec<eds_engine::Row> {
    eds_engine::eval_with(expr, &dbms.db, opts)
        .unwrap()
        .0
        .sorted_rows()
}

fn assert_levels_agree(id: &str, dbms: &mut Dbms, sql: &str) {
    let prepared = dbms.prepare(sql).unwrap();
    dbms.set_opt_level(OptLevel::None);
    let none = dbms.rewrite_uncached(&prepared).unwrap();
    dbms.set_opt_level(OptLevel::Simple);
    let simple = dbms.rewrite_uncached(&prepared).unwrap();
    dbms.set_opt_level(OptLevel::Full);
    let full = dbms.rewrite_uncached(&prepared).unwrap();

    let reference = eval_reference(&full.expr, &dbms.db, EvalOptions::default())
        .unwrap_or_else(|e| panic!("{id}: reference fails on the Full plan: {e}"))
        .sorted_rows();
    for opts in configs() {
        let simple_rows = rows_of(dbms, &simple.expr, opts);
        let full_rows = rows_of(dbms, &full.expr, opts);
        assert_eq!(
            full_rows, simple_rows,
            "{id}: Full diverges from Simple under {opts:?}"
        );
        let none_rows = rows_of(dbms, &none.expr, opts);
        assert_eq!(
            none_rows, simple_rows,
            "{id}: None diverges from Simple under {opts:?}"
        );
        assert_eq!(
            full_rows, reference,
            "{id}: overhauled executor diverges from the reference on the Full plan under {opts:?}"
        );
    }
}

/// The opt-level workloads — where Full actually picks different plans.
#[test]
fn opt_level_workloads_agree_across_levels() {
    for (id, mut dbms, sql) in opt_level_workloads() {
        assert_levels_agree(id, &mut dbms, &sql);
    }
}

/// The executor workloads — where Full usually agrees with Simple, but
/// must stay row-identical even when exploration finds something.
#[test]
fn exec_workloads_agree_across_levels() {
    for (id, mut dbms, sql) in exec_workloads() {
        assert_levels_agree(id, &mut dbms, &sql);
    }
}

/// `Simple`'s and `Full`'s rewrites of the named opt-level workload,
/// checked to return the same rows.
fn simple_and_full(wanted: &str) -> (RewriteOutcome, RewriteOutcome) {
    let (_, mut dbms, sql) = opt_level_workloads()
        .into_iter()
        .find(|(id, ..)| *id == wanted)
        .unwrap_or_else(|| panic!("no opt-level workload {wanted}"));
    let prepared = dbms.prepare(&sql).unwrap();
    dbms.set_opt_level(OptLevel::Simple);
    let simple = dbms.rewrite_uncached(&prepared).unwrap();
    dbms.set_opt_level(OptLevel::Full);
    let full = dbms.rewrite_uncached(&prepared).unwrap();
    let opts = EvalOptions::default();
    assert_eq!(
        rows_of(&dbms, &full.expr, opts),
        rows_of(&dbms, &simple.expr, opts),
        "{wanted}: Full's rows differ from Simple's"
    );
    (simple, full)
}

/// On `ol_pushdown` exploration finds a plan cheaper than saturation's:
/// the selective filter stays below the join.
#[test]
fn full_improves_on_simple_for_ol_pushdown() {
    let (simple, full) = simple_and_full("ol_pushdown");
    assert!(
        matches!(full.exploration, Some(Exploration { improved: true, .. })),
        "ol_pushdown: Full reports {:?}",
        full.exploration
    );
    assert_ne!(
        full.expr, simple.expr,
        "ol_pushdown: Full emits Simple's plan"
    );
}

/// On `ol_join3` no candidate beats saturation, so `Full` emits
/// `Simple`'s plan.
#[test]
fn full_keeps_simple_plan_for_ol_join3() {
    let (simple, full) = simple_and_full("ol_join3");
    assert!(
        matches!(
            full.exploration,
            Some(Exploration {
                improved: false,
                ..
            })
        ),
        "ol_join3: Full reports {:?}",
        full.exploration
    );
    assert_eq!(
        full.expr, simple.expr,
        "ol_join3: Full's plan differs from Simple's"
    );
}
