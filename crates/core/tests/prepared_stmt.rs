//! Parameterized prepared statements: prepare once, rewrite once,
//! execute many. Covers bind arity, NULL binds, Int/Real widening, the
//! prepared-side plan-cache counters, epoch invalidation, parameter-independence
//! of value-dependent rewrites, and a differential suite asserting
//! `stmt.execute(&binds)` is byte-identical to running the
//! literal-substituted SQL through the reference interpreter with
//! columnar off and on; and Figure-9 seeding of a
//! recursive view under `?`, pinned against the literal text.

use eds_adt::Value;
use eds_core::{engine::eval_reference, CoreError, Dbms};
use eds_lera::{pretty, Expr};

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
    assert_eq!(cold.shape_misses, 1, "first prepare misses");
    assert_eq!(cold.shape_hits, 0);
    assert_eq!(dbms.rewriter.plan_cache_len(), 1);

    // Re-preparing the same text is a shape hit: the rewrite and
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
    assert_eq!(dbms.rewriter.plan_cache_len(), 1);

    // Clones start cold.
    assert_eq!(dbms.rewriter.clone().plan_cache_len(), 0);
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

    // A rule-base mutation advances the epoch and clears the cache.
    dbms.add_rule_source("StmtNoop : f AND TRUE / --> f / ;")
        .unwrap();
    assert_eq!(dbms.rewriter.plan_cache_len(), 0, "mutation clears");

    // The next execute notices the stale epoch, re-rewrites through the
    // plan cache, and still answers correctly.
    let refreshed = stmt.execute(&dbms, &[Value::Int(1000)]).unwrap();
    assert_eq!(refreshed.rows, baseline.rows);
    let stats = dbms.rewriter.plan_cache_stats();
    assert_eq!(stats.shape_misses, misses_before + 1);
    assert_eq!(dbms.rewriter.plan_cache_len(), 1);

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
/// interpreter running the literal-substituted SQL, with columnar off
/// and on.
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
    for &columnar in &[false, true] {
        dbms.eval_options.columnar = columnar;
        for (sql, bind_sets) in cases {
            let stmt = dbms.prepare_stmt(sql).unwrap();
            for binds in *bind_sets {
                let got = stmt.execute(&dbms, binds).unwrap();
                let literal_sql = substitute(sql, binds);
                let rewritten = dbms.rewrite(&dbms.prepare(&literal_sql).unwrap()).unwrap();
                let want = eval_reference(&rewritten.expr, &dbms.db, dbms.eval_options).unwrap();
                assert_eq!(
                    got.rows, want.rows,
                    "columnar={columnar} sql={sql} binds={binds:?}"
                );
            }
        }
    }
}

/// A graph with a cycle (1 → 2 → 3 → 1), two sinks (5, 7) and the
/// transitive closure as a nonlinear (`TC`) and a left-linear (`LTC`)
/// recursive view. `LTC` carries `Src` through the recursion and not
/// `Dst`; the nonlinear idiom linearizes either way.
fn graph_dbms() -> Dbms {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TABLE EDGE (Src : INT, Dst : INT);
         CREATE VIEW TC (Src, Dst) AS
         ( SELECT Src, Dst FROM EDGE
           UNION SELECT T1.Src, T2.Dst FROM TC T1, TC T2 WHERE T1.Dst = T2.Src ) ;
         CREATE VIEW LTC (Src, Dst) AS
         ( SELECT Src, Dst FROM EDGE
           UNION SELECT T.Src, E.Dst FROM LTC T, EDGE E WHERE T.Dst = E.Src ) ;",
    )
    .unwrap();
    for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 1), (2, 7), (4, 5), (0, 4)] {
        dbms.insert("EDGE", vec![a.into(), b.into()]).unwrap();
    }
    dbms
}

/// Qualification of the `search` sitting on the plan's `fix`, and the
/// qualification of the fixpoint's first seed branch — where Figure 9
/// moves a binding from and to.
fn outer_and_seed(plan: &Expr) -> (String, String) {
    let Expr::Search { inputs, pred, .. } = plan else {
        panic!("expected a search over the fixpoint:\n{}", pretty(plan));
    };
    let [Expr::Fix { body, .. }] = &inputs[..] else {
        panic!("expected one fix input:\n{}", pretty(plan));
    };
    let Expr::Union(items) = body.as_ref() else {
        panic!("expected a union body:\n{}", pretty(plan));
    };
    let seed = match &items[0] {
        Expr::Search { pred, .. } | Expr::Filter { pred, .. } => pred.to_string(),
        other => panic!("unexpected seed branch {}", other.op_name()),
    };
    (pred.to_string(), seed)
}

/// Seeding under `?` is pinned, not assumed: for every view × shape the
/// `?` plan reduces exactly where the literal text reduces (and is
/// refused where it is refused), is the literal's plan modulo the
/// relocated leaves, and every bind — present node, sink, stranger,
/// NULL, wrong type — answers like the literal-substituted text.
#[test]
fn recursive_view_seeds_under_a_parameter_like_under_a_literal() {
    // (view, qualification, reduced?) — the expectation is the literal
    // text's own behaviour, asserted below, not a second opinion.
    let shapes: &[(&str, &str)] = &[
        ("TC", "Src = ?"),
        ("TC", "? = Src"),
        ("TC", "Dst = ?"),
        ("TC", "Src = ? AND Dst = ?"),
        ("TC", "Src = ? AND Dst = 7"),
        ("LTC", "Src = ?"),
        ("LTC", "? = Src"),
        ("LTC", "Dst = ?"),
        ("LTC", "Src = ? AND Dst = ?"),
        ("LTC", "Src = ? AND Dst = 7"),
    ];
    let binds = [
        Value::Int(1),   // on the cycle
        Value::Int(5),   // a sink: no out-edge
        Value::Int(99),  // not in the graph
        Value::Null,     // selects nothing, in the seed as outside
        Value::str("x"), // CHAR into an INT column: never equal
    ];

    let mut dbms = graph_dbms();
    let mut reduced = Vec::new();
    for &(view, qual) in shapes {
        let sql = format!("SELECT Dst FROM {view} WHERE {qual} ;");
        let arity = sql.matches('?').count();
        let stmt = dbms.prepare_stmt(&sql).unwrap();
        assert_eq!(stmt.param_count(), arity);
        let (param_plan, _, _) = dbms
            .rewriter
            .rewrite_shape_leveled(
                &dbms.prepare(&sql).unwrap().expr,
                &dbms.db,
                &dbms.constraints,
                dbms.opt_level(),
            )
            .unwrap();
        let (outer, seed) = outer_and_seed(&param_plan);

        for bind in &binds {
            // Second parameter, when there is one: a fixed present node.
            let array: Vec<Value> = std::iter::once(bind.clone())
                .chain(std::iter::repeat(Value::Int(3)))
                .take(arity)
                .collect();
            let literal_sql = substitute(&sql, &array);
            let canonical = dbms.prepare(&literal_sql).unwrap();
            let literal_plan = dbms.rewrite(&canonical).unwrap().expr;

            // The literal's plan is the `?` plan with the leaves put
            // back — whenever the literal is an INT distinct from the
            // statement's other constants, which all of these are, so
            // the semantic block derives nothing from it (`= NULL` may
            // legitimately simplify, `7 = 7` would chain).
            let mut param_text = pretty(&param_plan);
            for (i, v) in array.iter().enumerate() {
                param_text = param_text.replace(&format!("?{i}"), &lit(v));
            }
            let same_plan = param_text == pretty(&literal_plan);
            if matches!(bind, Value::Int(_)) {
                assert!(
                    same_plan,
                    "{sql} {array:?}: plans differ beyond the leaves\n{param_text}\n{}",
                    pretty(&literal_plan)
                );
                // Reduced where the literal reduces, refused where it
                // is refused.
                let (lit_outer, lit_seed) = outer_and_seed(&literal_plan);
                assert_eq!(seed == "TRUE", lit_seed == "TRUE", "{sql}");
                assert_eq!(outer == "TRUE", lit_outer == "TRUE", "{sql}");
            }

            for &columnar in &[false, true] {
                dbms.eval_options.columnar = columnar;
                let tag = format!("{sql} {array:?} columnar={columnar}");
                let (got, got_stats) = stmt.execute_with_stats(&dbms, &array).unwrap();
                let want = eval_reference(&canonical.expr, &dbms.db, dbms.eval_options).unwrap();
                assert!(got.bag_eq(&want), "{tag}: differs from the reference");
                if same_plan {
                    let (lit_rel, lit_stats) = dbms.run_expr_with_stats(&literal_plan).unwrap();
                    assert_eq!(got.rows, lit_rel.rows, "{tag}: rows or order");
                    assert_eq!(got_stats, lit_stats, "{tag}: work counters");
                    assert_eq!(got.rows, dbms.query(&literal_sql).unwrap().rows, "{tag}");
                }
            }
        }

        if seed != "TRUE" {
            // The seed filter carries the relocated parameter and the
            // outer qualification lost the pushed conjunct.
            assert!(seed.contains("= ?0"), "{sql}: seed [{seed}]");
            assert!(!outer.contains("?0"), "{sql}: outer [{outer}]");
            reduced.push((view, qual));
        } else {
            assert!(outer.contains("?0"), "{sql}: outer [{outer}]");
        }
    }
    // Both views reduce on `Src`; only the nonlinear idiom can also
    // linearize towards `Dst`; no view reduces with both attributes
    // bound (neither linear form preserves both), parameter or literal.
    assert_eq!(
        reduced,
        vec![
            ("TC", "Src = ?"),
            ("TC", "? = Src"),
            ("TC", "Dst = ?"),
            ("LTC", "Src = ?"),
            ("LTC", "? = Src"),
        ]
    );
}

/// The reduction pays what Figure 9 promises under a parameter too: the
/// seeded fixpoint touches a fraction of what the full closure does.
#[test]
fn seeded_parameter_does_less_work_than_the_full_closure() {
    let dbms = graph_dbms();
    let stmt = dbms
        .prepare_stmt("SELECT Dst FROM TC WHERE Src = ? ;")
        .unwrap();
    let (rows, seeded) = stmt.execute_with_stats(&dbms, &[Value::Int(4)]).unwrap();
    assert_eq!(rows.sorted_rows(), vec![vec![Value::Int(5)]]);
    let closure = dbms
        .prepare("SELECT Dst FROM TC WHERE Src = 4 ;")
        .unwrap()
        .expr;
    let (_, full) = dbms.run_expr_with_stats(&closure).unwrap();
    // Logical work: the plans' cross products.
    assert!(
        seeded.cross_product * 4 < full.cross_product,
        "seeded {seeded:?} vs full closure {full:?}"
    );
}

/// A prepared statement reports the SQL names in scope: a view's declared
/// column list and `AS` aliases, whatever the base columns are called.
#[test]
fn prepared_schemas_use_sql_names() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TABLE R ( K : INT, A : REAL ) ;
         CREATE VIEW V (Key, Amount) AS SELECT K, A FROM R ;
         CREATE VIEW W (X) AS SELECT K AS Kay FROM R ;
         CREATE VIEW U AS SELECT K AS Kay, A FROM R WHERE A > 0.5 ;
         CREATE VIEW UV AS SELECT Key FROM V ;",
    )
    .unwrap();
    let cases: [(&str, &[&str]); 5] = [
        // A declared column list.
        ("SELECT Key, Amount FROM V ;", &["Key", "Amount"]),
        // A declared column list over an alias inside the view.
        ("SELECT X FROM W ;", &["X"]),
        // No column list: the view's own aliases name its columns.
        ("SELECT Kay, A FROM U ;", &["Kay", "A"]),
        // No column list over a view with one.
        ("SELECT Key FROM UV ;", &["Key"]),
        // An alias in the query itself.
        ("SELECT Amount AS Z FROM V WHERE Key = ? ;", &["Z"]),
    ];
    for (sql, names) in cases {
        assert_eq!(dbms.prepare(sql).unwrap().schema.names(), names, "{sql}");
        let stmt = dbms.prepare_stmt(sql).unwrap();
        assert_eq!(stmt.schema().names(), names, "{sql}");
    }
    // The base table's name does not leak through a view.
    assert!(dbms.prepare("SELECT K FROM UV ;").is_err());
    let schema = dbms.prepare("SELECT Key, Amount FROM V ;").unwrap().schema;
    let types: Vec<_> = schema.fields.iter().map(|f| f.ty.to_string()).collect();
    assert_eq!(types, ["INT", "REAL"]);
}

/// Two names for one column: the prepared schema carries the SQL names
/// (`Z`, a view's `Key`), while a result `Relation`'s columns are
/// positional — column `i` is select-list item `i`, typed as the prepared
/// schema's field `i` — and its names are the ones the engine infers from
/// the rewritten plan (here the base table's `K` and `A`), whichever of
/// `query`, `execute` or `execute_with_stats` produced it.
#[test]
fn result_columns_are_positional_and_the_prepared_schema_names_them() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TABLE R ( K : INT, A : REAL ) ;
         CREATE VIEW V (Key, Amount) AS SELECT K, A FROM R ;
         INSERT INTO R VALUES (1, 0.25) ;
         INSERT INTO R VALUES (2, 0.75) ;",
    )
    .unwrap();
    let sql = "SELECT Amount AS Z, Key FROM V WHERE Key = ? ;";
    let stmt = dbms.prepare_stmt(sql).unwrap();
    assert_eq!(stmt.schema().names(), ["Z", "Key"]);
    assert_eq!(dbms.prepare(sql).unwrap().schema.names(), ["Z", "Key"]);
    let got = stmt.execute(&dbms, &[Value::Int(2)]).unwrap();
    assert_eq!(got.schema.names(), ["A", "K"]);
    let types = |fields: &[eds_adt::Field]| -> Vec<String> {
        fields.iter().map(|f| f.ty.to_string()).collect()
    };
    assert_eq!(types(&got.schema.fields), types(&stmt.schema().fields));
    assert_eq!(got.rows.len(), 1);
    assert_eq!(got.rows[0].to_vec(), [Value::real(0.75), Value::Int(2)]);
    let (with_stats, _) = stmt.execute_with_stats(&dbms, &[Value::Int(2)]).unwrap();
    assert_eq!(with_stats.schema.names(), ["A", "K"]);
    let queried = dbms
        .query("SELECT Amount AS Z, Key FROM V WHERE Key = 2 ;")
        .unwrap();
    assert_eq!(queried.schema.names(), ["A", "K"]);
    assert_eq!(queried.rows, got.rows);
}
