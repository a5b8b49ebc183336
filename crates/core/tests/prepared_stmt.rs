//! Parameterized prepared statements: prepare once, rewrite once,
//! execute many. Covers bind arity, NULL binds, Int/Real widening, the
//! shape-tier cache counters, epoch invalidation, parameter-independence
//! of value-dependent rewrites, and a differential suite asserting
//! `stmt.execute(&binds)` is byte-identical to running the
//! literal-substituted SQL through the reference interpreter across
//! parallelism {1,4} x columnar {off,on}.

use eds_adt::Value;
use eds_core::{engine::eval_reference, CoreError, Dbms};

fn emp_dbms() -> Dbms {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TABLE EMP ( Id : INT, Name : CHAR, Salary : INT, Rate : REAL ) ;
         TABLE DEPT ( Id : INT, Head : INT ) ;
         CREATE VIEW WELL_PAID (Id, Name, Salary) AS
           SELECT Id, Name, Salary FROM EMP WHERE Salary > 1000 ;",
    )
    .unwrap();
    dbms.insert_all(
        "EMP",
        vec![
            vec![1.into(), Value::str("Ada"), 2000.into(), Value::real(0.5)],
            vec![2.into(), Value::str("Bo"), 900.into(), Value::real(1.5)],
            vec![3.into(), Value::str("Cy"), 1500.into(), Value::real(2.5)],
            vec![4.into(), Value::str("Di"), 1500.into(), Value::Null],
            vec![
                5.into(),
                Value::str("O'Ryan"),
                400.into(),
                Value::real(0.25),
            ],
        ],
    )
    .unwrap();
    dbms.insert_all(
        "DEPT",
        vec![vec![10.into(), 1.into()], vec![20.into(), 3.into()]],
    )
    .unwrap();
    dbms
}

/// ESQL literal spelling of a bind value, for the differential oracle.
fn lit(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.into(),
        Value::Int(i) => i.to_string(),
        Value::Real(r) => format!("{:?}", r.0),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        other => panic!("no literal spelling for {other:?}"),
    }
}

/// Replace each `?` (left to right) with the literal spelling of the
/// matching bind value. Test SQL never quotes a `?`.
fn substitute(sql: &str, binds: &[Value]) -> String {
    let mut next = binds.iter();
    sql.chars()
        .map(|c| {
            if c == '?' {
                lit(next.next().expect("more ? than binds"))
            } else {
                c.to_string()
            }
        })
        .collect()
}

#[test]
fn execute_matches_the_literal_query() {
    let dbms = emp_dbms();
    let stmt = dbms
        .prepare_stmt("SELECT Name FROM EMP WHERE Salary > ? ;")
        .unwrap();
    assert_eq!(stmt.param_count(), 1);
    assert_eq!(stmt.schema().fields[0].name, "Name");

    for threshold in [0_i64, 1000, 1500, 9999] {
        let got = stmt.execute(&dbms, &[Value::Int(threshold)]).unwrap();
        let want = dbms
            .query(&format!(
                "SELECT Name FROM EMP WHERE Salary > {threshold} ;"
            ))
            .unwrap();
        assert_eq!(got.rows, want.rows, "threshold {threshold}");
    }
}

#[test]
fn wrong_bind_arity_is_rejected() {
    let dbms = emp_dbms();
    let stmt = dbms
        .prepare_stmt("SELECT Name FROM EMP WHERE Salary > ? AND Rate < ? ;")
        .unwrap();
    assert_eq!(stmt.param_count(), 2);

    for bad in [0usize, 1, 3] {
        let binds = vec![Value::Int(1); bad];
        match stmt.execute(&dbms, &binds) {
            Err(CoreError::BindMismatch { expected: 2, got }) => assert_eq!(got, bad),
            other => panic!("arity {bad}: expected BindMismatch, got {other:?}"),
        }
    }

    // A statement without parameters takes the empty bind array.
    let plain = dbms.prepare_stmt("SELECT Name FROM EMP ;").unwrap();
    assert_eq!(plain.param_count(), 0);
    assert_eq!(plain.execute(&dbms, &[]).unwrap().rows.len(), 5);
}

#[test]
fn null_binds_behave_like_null_literals() {
    let dbms = emp_dbms();
    let stmt = dbms
        .prepare_stmt("SELECT Name FROM EMP WHERE Salary > ? ;")
        .unwrap();
    let got = stmt.execute(&dbms, &[Value::Null]).unwrap();
    let want = dbms
        .query("SELECT Name FROM EMP WHERE Salary > NULL ;")
        .unwrap();
    assert_eq!(got.rows, want.rows);
    assert!(got.rows.is_empty(), "NULL comparisons select nothing");

    // A NULL bind against a nullable REAL column, same story.
    let rate = dbms
        .prepare_stmt("SELECT Name FROM EMP WHERE Rate = ? ;")
        .unwrap();
    assert!(rate.execute(&dbms, &[Value::Null]).unwrap().rows.is_empty());
}

#[test]
fn int_and_real_binds_widen_like_literals() {
    let dbms = emp_dbms();

    // Real bind against the INT column: 1500.0 matches Salary = 1500.
    let by_salary = dbms
        .prepare_stmt("SELECT Name FROM EMP WHERE Salary = ? ;")
        .unwrap();
    let got = by_salary.execute(&dbms, &[Value::real(1500.0)]).unwrap();
    let want = dbms
        .query("SELECT Name FROM EMP WHERE Salary = 1500.0 ;")
        .unwrap();
    assert_eq!(got.rows, want.rows);
    assert_eq!(got.rows.len(), 2, "both 1500-salary rows match");

    // Int bind against the REAL column.
    let by_rate = dbms
        .prepare_stmt("SELECT Name FROM EMP WHERE Rate < ? ;")
        .unwrap();
    let got = by_rate.execute(&dbms, &[Value::Int(2)]).unwrap();
    let want = dbms.query("SELECT Name FROM EMP WHERE Rate < 2 ;").unwrap();
    assert_eq!(got.rows, want.rows);
    assert_eq!(got.rows.len(), 3);
}

#[test]
fn shape_tier_counts_hits_and_shares_across_binds() {
    let dbms = emp_dbms();
    let before = dbms.rewriter.plan_cache_stats();
    assert_eq!((before.shape_hits, before.shape_misses), (0, 0));

    let sql = "SELECT Name FROM EMP WHERE Salary > ? ;";
    let stmt = dbms.prepare_stmt(sql).unwrap();
    let cold = dbms.rewriter.plan_cache_stats();
    assert_eq!(cold.shape_misses, 1, "first prepare misses the shape tier");
    assert_eq!(cold.shape_hits, 0);
    assert_eq!(dbms.rewriter.shape_cache_len(), 1);

    // Re-preparing the same text hits the shape tier: the rewrite and
    // the lowering are both skipped.
    let again = dbms.prepare_stmt(sql).unwrap();
    let warm = dbms.rewriter.plan_cache_stats();
    assert_eq!((warm.shape_hits, warm.shape_misses), (1, 1));

    // Executions with different binds share the single cached shape:
    // no new entries, no further shape traffic.
    for i in 0..10 {
        stmt.execute(&dbms, &[Value::Int(i)]).unwrap();
        again.execute(&dbms, &[Value::Int(i * 100)]).unwrap();
    }
    let after = dbms.rewriter.plan_cache_stats();
    assert_eq!((after.shape_hits, after.shape_misses), (1, 1));
    assert_eq!(dbms.rewriter.shape_cache_len(), 1);

    // Clones start cold, like the term tier.
    assert_eq!(dbms.rewriter.clone().shape_cache_len(), 0);
}

#[test]
fn epoch_invalidation_re_rewrites_transparently() {
    let mut dbms = emp_dbms();
    let stmt = dbms
        .prepare_stmt("SELECT Name FROM EMP WHERE Salary > ? ;")
        .unwrap();
    let baseline = stmt.execute(&dbms, &[Value::Int(1000)]).unwrap();
    assert_eq!(baseline.rows.len(), 3);
    let misses_before = dbms.rewriter.plan_cache_stats().shape_misses;

    // A rule-base mutation advances the epoch and clears both tiers.
    dbms.add_rule_source("StmtNoop : f AND TRUE / --> f / ;")
        .unwrap();
    assert_eq!(dbms.rewriter.shape_cache_len(), 0, "mutation clears tier");

    // The next execute notices the stale epoch, re-rewrites through the
    // shape tier, and still answers correctly.
    let refreshed = stmt.execute(&dbms, &[Value::Int(1000)]).unwrap();
    assert_eq!(refreshed.rows, baseline.rows);
    let stats = dbms.rewriter.plan_cache_stats();
    assert_eq!(stats.shape_misses, misses_before + 1);
    assert_eq!(dbms.rewriter.shape_cache_len(), 1);

    // Once refreshed, further executes stay off the rewriter entirely.
    stmt.execute(&dbms, &[Value::Int(0)]).unwrap();
    assert_eq!(
        dbms.rewriter.plan_cache_stats().shape_misses,
        stats.shape_misses
    );
}

#[test]
fn value_dependent_folding_defers_to_bind_time() {
    let dbms = emp_dbms();
    // `? > 1` looks like a constant conjunct, but its value is unknown
    // at prepare time: the rewriter must NOT fold it to TRUE or FALSE.
    // One shared plan has to produce both outcomes.
    let stmt = dbms
        .prepare_stmt("SELECT Name FROM EMP WHERE ? > 1 ;")
        .unwrap();
    let none = stmt.execute(&dbms, &[Value::Int(0)]).unwrap();
    assert!(none.rows.is_empty(), "0 > 1 selects nothing");
    let all = stmt.execute(&dbms, &[Value::Int(5)]).unwrap();
    assert_eq!(all.rows.len(), 5, "5 > 1 selects every row");
}

/// Every (query, binds) pair must be byte-identical to the reference
/// interpreter running the literal-substituted SQL, for parallelism
/// {1,4} x columnar {off,on}.
#[test]
fn differential_binds_vs_literal_substitution() {
    let cases: &[(&str, &[&[Value]])] = &[
        (
            "SELECT Name FROM EMP WHERE Salary > ? ;",
            &[
                &[Value::Int(0)],
                &[Value::Int(1500)],
                &[Value::Int(9999)],
                &[Value::Null],
            ],
        ),
        (
            "SELECT Name, Salary FROM EMP WHERE Salary > ? AND Rate < ? ;",
            &[
                &[Value::Int(500), Value::real(2.0)],
                &[Value::real(899.5), Value::Int(3)],
                &[Value::Int(0), Value::Null],
            ],
        ),
        (
            "SELECT Salary FROM EMP WHERE Name = ? ;",
            &[
                &[Value::str("Ada")],
                &[Value::str("O'Ryan")],
                &[Value::str("nobody")],
            ],
        ),
        (
            "SELECT Name FROM WELL_PAID WHERE Salary < ? ;",
            &[&[Value::Int(1600)], &[Value::Int(0)]],
        ),
        (
            "SELECT Name FROM EMP, DEPT WHERE EMP.Id = DEPT.Head AND DEPT.Id = ? ;",
            &[&[Value::Int(10)], &[Value::Int(20)], &[Value::Int(99)]],
        ),
    ];

    let mut dbms = emp_dbms();
    for &parallelism in &[1usize, 4] {
        for &columnar in &[false, true] {
            dbms.eval_options.parallelism = parallelism;
            dbms.eval_options.columnar = columnar;
            for (sql, bind_sets) in cases {
                let stmt = dbms.prepare_stmt(sql).unwrap();
                for binds in *bind_sets {
                    let got = stmt.execute(&dbms, binds).unwrap();
                    let literal_sql = substitute(sql, binds);
                    let rewritten = dbms.rewrite(&dbms.prepare(&literal_sql).unwrap()).unwrap();
                    let want =
                        eval_reference(&rewritten.expr, &dbms.db, dbms.eval_options).unwrap();
                    assert_eq!(
                        got.rows, want.rows,
                        "p={parallelism} columnar={columnar} sql={sql} binds={binds:?}"
                    );
                }
            }
        }
    }
}
