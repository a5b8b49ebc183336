//! The EXPLAIN surface: before/after plans plus the rule-application
//! trace — the observability the paper's "trace of what fired" story
//! needs.

use eds_core::Dbms;
use eds_lera::expr_to_term;

fn dbms() -> Dbms {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TABLE T (X : INT, Y : INT);
         CREATE VIEW V (X, Y) AS SELECT X, Y FROM T WHERE X > 0 ;
         INSERT INTO T VALUES (1, 2), (3, 4);",
    )
    .unwrap();
    dbms
}

#[test]
fn explain_shows_both_plans_and_the_trace() {
    let dbms = dbms();
    let out = dbms
        .explain("SELECT Y FROM V WHERE X = 1 AND 2 + 2 = 4 ;")
        .unwrap();
    assert!(out.contains("-- canonical plan --"));
    assert!(out.contains("-- rewritten plan --"));
    // The view must appear unmerged before and be gone after.
    let (before, after) = out.split_once("-- rewritten plan --").unwrap();
    assert!(before.matches("search").count() >= 2, "{before}");
    assert!(after.contains("T"), "{after}");
    // The trace names the rules that fired, with their blocks.
    assert!(out.contains("[merging] SearchMerge"), "{out}");
    assert!(out.contains("rule applications"), "{out}");
}

#[test]
fn trace_records_every_application_in_order() {
    let dbms = dbms();
    let prepared = dbms.prepare("SELECT Y FROM V WHERE X = 1 ;").unwrap();
    let outcome = dbms
        .rewriter
        .run(
            expr_to_term(&prepared.expr),
            &dbms.db,
            &dbms.constraints,
            dbms.opt_level(),
            true,
        )
        .unwrap();
    let events = outcome.trace.events();
    assert_eq!(events.len() as u64, outcome.stats.applications);
    assert!(outcome.trace.count_rule("SearchMerge") >= 1);
    // Events carry positions and size deltas.
    for e in events {
        assert!(!e.rule.is_empty() && !e.block.is_empty());
        assert!(e.before_size > 0 && e.after_size > 0);
    }
}

#[test]
fn tracing_off_by_default_keeps_outcome_lean() {
    let dbms = dbms();
    let prepared = dbms.prepare("SELECT Y FROM V WHERE X = 1 ;").unwrap();
    let outcome = dbms.rewrite(&prepared).unwrap();
    assert!(outcome.trace.events().is_empty());
    assert!(outcome.stats.applications > 0);
}
