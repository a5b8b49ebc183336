//! Failure injection: malformed inputs, looping rules, divergent
//! fixpoints — every error path must fail cleanly with a diagnosable
//! error, never panic or loop.

use eds_adt::AdtError;
use eds_adt::Value;
use eds_core::{CoreError, Dbms};
use eds_engine::{eval_reference, EngineError, EvalOptions};
use eds_esql::EsqlError;
use eds_rewrite::{Limit, RewriteError};

#[test]
fn malformed_rule_sources_rejected_with_position() {
    let mut dbms = Dbms::new().unwrap();
    for bad in [
        "NoColon F(x) --> x / ;",
        "NoArrow : F(x) / TRUE ;",
        "Unterminated : F(x) / --> x / ",
        "BadString : F('oops) / --> x / ;",
        "StrayStar : F(*) / --> x / ;",
        "block(missing_brace, SearchMerge}, INF) ;",
        "seq(no_parens, 2) ;",
    ] {
        let err = dbms.add_rule_source(bad).unwrap_err();
        assert!(
            matches!(err, CoreError::Rewrite(RewriteError::Parse { .. })),
            "{bad:?} gave {err:?}"
        );
    }
}

#[test]
fn malformed_esql_rejected() {
    let dbms = Dbms::new().unwrap();
    for bad in [
        "SELECT FROM T ;",
        "SELECT X T ;",
        "SELECT X FROM ;",
        "TABLE (X INT);",
        "SELECT X FROM T WHERE ;",
    ] {
        assert!(dbms.prepare(bad).is_err(), "{bad:?} should be rejected");
    }
}

#[test]
fn unknown_names_reported() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl("TABLE T (X : INT);").unwrap();
    let err = dbms.prepare("SELECT X FROM MISSING ;").unwrap_err();
    assert!(matches!(
        err,
        CoreError::Lera(eds_lera::LeraError::UnknownRelation(_))
    ));
    let err = dbms.prepare("SELECT NOPE FROM T ;").unwrap_err();
    assert!(matches!(
        err,
        CoreError::Lera(eds_lera::LeraError::Esql(EsqlError::UnknownColumn { .. }))
    ));
}

#[test]
fn looping_user_rule_is_stopped_by_block_limit() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl("TABLE T (X : INT);").unwrap();
    // A strictly growing rule: would run forever under saturation.
    dbms.add_rule_source(
        "Loop : SEARCH(l, f, a) / --> SEARCH(l, f AND TRUE, a) / ;\n\
         block(looping, {Loop}, 50) ;\n\
         seq((looping), 1) ;",
    )
    .unwrap();
    let prepared = dbms.prepare("SELECT X FROM T WHERE X = 1 ;").unwrap();
    let rewritten = dbms.rewrite(&prepared).unwrap();
    assert!(rewritten.budget_exhausted, "limit must trip");
    assert!(rewritten.stats.condition_checks <= 50);
}

#[test]
fn divergent_fixpoint_hits_iteration_bound() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TABLE SEEDS (X : INT);
         CREATE VIEW NATS (X) AS
         ( SELECT X FROM SEEDS UNION SELECT X + 1 FROM NATS ) ;",
    )
    .unwrap();
    dbms.insert("SEEDS", vec![0.into()]).unwrap();
    dbms.eval_options = EvalOptions {
        max_iterations: 25,
        ..Default::default()
    };
    let prepared = dbms.prepare("SELECT X FROM NATS ;").unwrap();
    let err = dbms.run_expr(&prepared.expr).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Engine(EngineError::FixpointDiverged { limit: 25, .. })
        ),
        "{err:?}"
    );
}

#[test]
fn arity_and_unknown_function_errors() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl("TABLE T (X : INT);").unwrap();
    dbms.insert("T", vec![1.into()]).unwrap();
    // Unknown function reaches the engine and fails cleanly.
    let err = dbms
        .query("SELECT X FROM T WHERE NOSUCHFN(X) = 1 ;")
        .unwrap_err();
    assert!(matches!(
        err,
        CoreError::Engine(EngineError::Adt(AdtError::UnknownFunction(_)))
    ));
    // Wrong arity on a builtin.
    let err = dbms.query("SELECT X FROM T WHERE MEMBER(X) ;").unwrap_err();
    assert!(matches!(
        err,
        CoreError::Engine(EngineError::Adt(AdtError::Arity { .. }))
    ));
}

#[test]
fn bad_constraint_shapes_rejected() {
    let mut dbms = Dbms::new().unwrap();
    for bad in [
        "C : G(x) / ISA(x, INT) --> G(x) AND x > 0 / ;", // lhs not F(x)
        "C : F(x) / --> F(x) AND x > 0 / ;",             // no ISA
        "C : F(x) / ISA(x, INT) --> x > 0 / ;",          // rhs not F(x) AND p
        "C : F(x) / ISA(x, INT) --> F(x) AND y > 0 / ;", // foreign var
        "block(b, {C}, INF) ;",                          // meta item
    ] {
        let err = dbms.add_constraint_source(bad).unwrap_err();
        assert!(
            matches!(err, CoreError::BadConstraintRule { .. }),
            "{bad:?} gave {err:?}"
        );
    }
}

#[test]
fn rule_with_unbindable_rhs_fails_at_application_not_load() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl("TABLE T (X : INT);").unwrap();
    dbms.add_rule_source(
        "Broken : SEARCH(l, f, a) / --> SEARCH(l, ghost, a) / ;\n\
         block(broken, {Broken}, INF) ;\n\
         seq((broken), 1) ;",
    )
    .unwrap();
    let prepared = dbms.prepare("SELECT X FROM T ;").unwrap();
    let err = dbms.rewrite(&prepared).unwrap_err();
    assert!(
        matches!(
            err,
            CoreError::Rewrite(RewriteError::UnboundInRhs { ref rule, .. }) if rule == "Broken"
        ),
        "{err:?}"
    );
}

#[test]
fn dangling_object_reference_fails_at_eval() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TYPE P OBJECT TUPLE (N : CHAR);
         TABLE T (R : P);",
    )
    .unwrap();
    let obj = dbms.create_object("P", Value::Tuple(vec![Value::str("x")]));
    dbms.insert("T", vec![obj.clone()]).unwrap();
    let Value::Object(oid) = obj else {
        unreachable!()
    };
    dbms.db.objects.delete(oid).unwrap();
    let err = dbms.query("SELECT N(R) FROM T ;").unwrap_err();
    assert!(matches!(
        err,
        CoreError::Engine(EngineError::Adt(AdtError::DanglingOid(_)))
    ));
}

#[test]
fn zero_pass_sequence_is_identity() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl("TABLE T (X : INT);").unwrap();
    dbms.add_rule_source("seq((merging), 0) ;").unwrap();
    let prepared = dbms.prepare("SELECT X FROM T WHERE 1 = 1 ;").unwrap();
    let rewritten = dbms.rewrite(&prepared).unwrap();
    assert_eq!(*rewritten.expr, prepared.expr);
}

#[test]
fn limit_zero_versus_saturation_equivalence_of_results() {
    // Whatever the limit, rewriting must never change answers — even
    // when a budget trips mid-way through a rewrite cascade.
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TABLE T (X : INT, Y : INT);
         CREATE VIEW V1 (X, Y) AS SELECT X, Y FROM T WHERE X > 0 ;
         CREATE VIEW V2 (X, Y) AS SELECT X, Y FROM V1 WHERE Y > 0 ;",
    )
    .unwrap();
    for i in -3i64..10 {
        dbms.insert("T", vec![i.into(), (i * 2 - 5).into()])
            .unwrap();
    }
    let sql = "SELECT X FROM V2 WHERE X < 8 AND X = X ;";
    let reference = dbms.query_unoptimized(sql).unwrap();
    for limit in [0u64, 1, 2, 3, 5, 8, 13, 100] {
        dbms.rewriter.set_all_limits(Limit::Finite(limit));
        let got = dbms.query(sql).unwrap();
        assert!(
            got.set_eq(&reference),
            "limit {limit} changed results: {:?} vs {:?}",
            got.sorted_rows(),
            reference.sorted_rows()
        );
    }
}

/// `GETFIELD` and `VALUE` written by hand with the wrong number of
/// arguments, or a field index of 0, are typed errors — the registry's
/// arity error and `IndexOutOfBounds` — on every path, the same one from
/// the executor and the oracle; nothing panics and nothing is stored.
#[test]
fn malformed_getfield_and_value_are_typed_errors() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TYPE Pair TUPLE (A : INT, B : INT);
         TABLE T (X : INT);
         TABLE U (P : Pair);",
    )
    .unwrap();
    dbms.insert("T", vec![1.into()]).unwrap();
    dbms.insert("U", vec![Value::Tuple(vec![1.into(), 2.into()])])
        .unwrap();
    let arity = |function: &str, expected, found| {
        CoreError::Engine(EngineError::Adt(AdtError::Arity {
            function: function.into(),
            expected,
            found,
        }))
    };
    let queries = [
        ("SELECT GETFIELD(X) FROM T ;", arity("GETFIELD", 2, 1)),
        ("SELECT GETFIELD() FROM T ;", arity("GETFIELD", 2, 0)),
        ("SELECT VALUE() FROM T ;", arity("VALUE", 1, 0)),
        (
            "SELECT X FROM T WHERE GETFIELD(X) = 1 ;",
            arity("GETFIELD", 2, 1),
        ),
        (
            "SELECT GETFIELD(P, 0) FROM U ;",
            CoreError::Engine(EngineError::Adt(AdtError::IndexOutOfBounds {
                index: 0,
                len: 2,
            })),
        ),
    ];
    for (sql, want) in &queries {
        let canonical = dbms.prepare(sql).unwrap().expr;
        let stmt = dbms.prepare_stmt(sql).unwrap();
        let got = [
            dbms.query(sql).unwrap_err(),
            dbms.query_unoptimized(sql).unwrap_err(),
            stmt.execute(&dbms, &[]).unwrap_err(),
            eval_reference(&canonical, &dbms.db, EvalOptions::default())
                .unwrap_err()
                .into(),
        ];
        for (path, err) in ["query", "unoptimized", "prepared", "oracle"]
            .iter()
            .zip(got)
        {
            assert_eq!(&err, want, "{sql} via {path}");
        }
    }
    for (sql, want) in [
        (
            "INSERT INTO T VALUES (GETFIELD(1)) ;",
            arity("GETFIELD", 2, 1),
        ),
        ("INSERT INTO T VALUES (VALUE()) ;", arity("VALUE", 1, 0)),
    ] {
        assert_eq!(dbms.execute(sql).unwrap_err(), want, "{sql}");
    }
    assert_eq!(dbms.query("SELECT X FROM T ;").unwrap().len(), 1);
    assert_eq!(dbms.query("SELECT P FROM U ;").unwrap().len(), 1);
}
