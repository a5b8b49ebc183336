//! Optimization levels: `None` skips rewriting for trivial statements,
//! `Simple` is the default saturation, `Full` adds cost-guided candidate
//! exploration — and every level returns the same rows.

use eds_adt::Value;
use eds_core::{Dbms, OptLevel};

fn setup() -> Dbms {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TABLE R (K : INT, A : INT);\n\
         TABLE S (K : INT, J : INT);",
    )
    .unwrap();
    for i in 0..40i64 {
        dbms.insert("R", vec![Value::Int(i % 8), Value::Int(i)])
            .unwrap();
        dbms.insert("S", vec![Value::Int(i % 8), Value::Int(i % 5)])
            .unwrap();
    }
    dbms
}

const JOIN_SQL: &str = "SELECT R.A FROM R, S WHERE R.K = S.K AND S.J = 2;";

#[test]
fn none_skips_rewriting_trivial_scans_only() {
    let mut dbms = setup();
    dbms.set_opt_level(OptLevel::None);

    // A point scan is handed to the executor as translated.
    let scan = dbms.prepare("SELECT A FROM R WHERE K = 3;").unwrap();
    let out = dbms.rewrite(&scan).unwrap();
    assert_eq!(out.stats.applications, 0);
    assert_eq!(out.stats.condition_checks, 0);
    assert_eq!(*out.expr, scan.expr);

    // Anything structural falls back to Simple rewriting.
    let join = dbms.prepare(JOIN_SQL).unwrap();
    let out = dbms.rewrite(&join).unwrap();
    assert!(out.stats.condition_checks > 0);

    // And the rows are identical to the Simple level's either way.
    let none_rows = dbms.query(JOIN_SQL).unwrap().sorted_rows();
    dbms.set_opt_level(OptLevel::Simple);
    let simple_rows = dbms.query(JOIN_SQL).unwrap().sorted_rows();
    assert_eq!(none_rows, simple_rows);
}

#[test]
fn full_reports_exploration_and_matches_simple_rows() {
    let mut dbms = setup();
    dbms.set_opt_level(OptLevel::Simple);
    let simple_rows = dbms.query(JOIN_SQL).unwrap().sorted_rows();

    dbms.set_opt_level(OptLevel::Full);
    let full_rows = dbms.query(JOIN_SQL).unwrap().sorted_rows();
    assert_eq!(full_rows, simple_rows);

    let out = dbms.rewrite(&dbms.prepare(JOIN_SQL).unwrap()).unwrap();
    let ex = out
        .exploration
        .expect("Full reports an exploration summary");
    assert!(ex.considered >= 1);
    assert!(ex.chosen_cost.is_finite());
    let cumulative = dbms.rewriter.explore_stats();
    assert!(cumulative.candidates >= ex.considered);
}

#[test]
fn plan_cache_is_level_keyed() {
    let mut dbms = setup();
    let prepared = dbms.prepare(JOIN_SQL).unwrap();

    dbms.set_opt_level(OptLevel::Simple);
    dbms.rewrite(&prepared).unwrap();
    let after_simple = dbms.rewriter.plan_cache_stats();

    // Full must not be answered from the Simple entry.
    dbms.set_opt_level(OptLevel::Full);
    dbms.rewrite(&prepared).unwrap();
    let after_full = dbms.rewriter.plan_cache_stats();
    assert_eq!(after_full.misses, after_simple.misses + 1);
    assert_eq!(after_full.hits, after_simple.hits);

    // Repeating each level hits its own entry.
    dbms.rewrite(&prepared).unwrap();
    dbms.set_opt_level(OptLevel::Simple);
    dbms.rewrite(&prepared).unwrap();
    let warm = dbms.rewriter.plan_cache_stats();
    assert_eq!(warm.misses, after_full.misses);
    assert_eq!(warm.hits, after_simple.hits + 2);
}

#[test]
fn prepared_statements_record_their_level() {
    let mut dbms = setup();
    dbms.set_opt_level(OptLevel::Full);
    let stmt = dbms.prepare_stmt("SELECT A FROM R WHERE K = ?;").unwrap();
    assert_eq!(stmt.opt_level(), OptLevel::Full);

    // The statement keeps its level even after the DBMS switches.
    dbms.set_opt_level(OptLevel::Simple);
    let rows = stmt.execute(&dbms, &[Value::Int(3)]).unwrap();
    assert_eq!(stmt.opt_level(), OptLevel::Full);
    assert!(!rows.is_empty());
}

#[test]
fn explain_shows_level_and_exploration() {
    let mut dbms = setup();
    dbms.set_opt_level(OptLevel::Full);
    let text = dbms.explain(JOIN_SQL).unwrap();
    assert!(text.contains("opt level: full"), "missing level: {text}");
    assert!(
        text.contains("considered") && text.contains("candidates"),
        "missing exploration summary: {text}"
    );

    dbms.set_opt_level(OptLevel::Simple);
    let text = dbms.explain(JOIN_SQL).unwrap();
    assert!(text.contains("opt level: simple"));
    assert!(!text.contains("considered"));
}

#[test]
fn opt_level_parses_env_spellings() {
    assert_eq!(OptLevel::parse("none"), Some(OptLevel::None));
    assert_eq!(OptLevel::parse("0"), Some(OptLevel::None));
    assert_eq!(OptLevel::parse("Simple"), Some(OptLevel::Simple));
    assert_eq!(OptLevel::parse("1"), Some(OptLevel::Simple));
    assert_eq!(OptLevel::parse("FULL"), Some(OptLevel::Full));
    assert_eq!(OptLevel::parse("2"), Some(OptLevel::Full));
    assert_eq!(OptLevel::parse("max"), None);
}
