//! Differential suite: the overhauled executor must return *byte-identical*
//! results — same rows, same order — as the reference executor (the seed
//! tree-walking interpreter preserved in `eds_engine::reference`, which
//! has one strategy and is asked once per plan) in every physical
//! configuration of the executor: columnar off and on.

use eds_bench::{assert_matches_oracle, exec_workloads, naive_fix};
use eds_core::{Dbms, LintPolicy};
use eds_engine::{eval_reference, EngineError, EvalOptions, EvalStats};
use eds_lera::{expr_to_term, infer_schema, Expr, Scalar, SchemaCtx};

/// The executor's physical configurations: columnar {off, on}.
fn all_configs() -> Vec<EvalOptions> {
    [false, true]
        .map(|columnar| EvalOptions {
            columnar,
            ..Default::default()
        })
        .to_vec()
}

/// A recursion limit too small for `expr`'s fixpoint is a divergence —
/// from the oracle, which reads that one field of its options, as from
/// the executor in every configuration.
fn assert_diverges_alike(id: &str, dbms: &Dbms, expr: &Expr) {
    let one_round = |opts: EvalOptions| EvalOptions {
        max_iterations: 1,
        ..opts
    };
    let diverged = |got: Result<_, EngineError>, who: &str| {
        assert!(
            matches!(got, Err(EngineError::FixpointDiverged { limit: 1, .. })),
            "{id}: one round is not enough, yet the {who} returned {got:?}"
        );
    };
    diverged(
        eval_reference(expr, &dbms.db, one_round(EvalOptions::default())),
        "oracle",
    );
    for opts in all_configs() {
        let got = eds_engine::eval_with(expr, &dbms.db, one_round(opts));
        diverged(got.map(|r| r.0), &format!("executor under {opts:?}"));
    }
}

fn has_fix(expr: &Expr) -> bool {
    matches!(expr, Expr::Fix { .. }) || expr.children().into_iter().any(has_fix)
}

/// Every benchmark workload, pre- and post-rewrite, across all configs:
/// the oracle's schema, rows and order under columnar {off, on} — the
/// oracle itself has one strategy and is asked once per plan. The
/// recursive workloads also hit the recursion limit alike.
#[test]
fn workloads_match_reference_in_every_configuration() {
    let configs = all_configs();
    let mut recursive = 0;
    for (id, dbms, sql) in exec_workloads() {
        let prepared = dbms.prepare(&sql).unwrap();
        let rewritten = dbms.rewrite(&prepared).unwrap();
        for (form, plan) in [("raw", &prepared.expr), ("rewritten", &rewritten.expr)] {
            let id = format!("{id}/{form}");
            assert_matches_oracle(&id, &dbms.db, plan, &configs);
            if has_fix(plan) {
                assert_diverges_alike(&id, &dbms, plan);
                recursive += 1;
            }
        }
    }
    assert!(recursive >= 2, "a recursive workload, raw and rewritten");
}

/// The three fixpoint strategies return the same set for the bound
/// closure of 48 random graphs, canonical and rewritten: the executor's
/// semi-naive evaluation, the oracle's (semi-naive too, with its own
/// delta variants) and the naive iteration written out by
/// [`naive_fix`] — the definition of `fix`, so it stays one side.
#[test]
fn fixpoint_strategies_agree() {
    let mut rng = eds_testkit::StdRng::seed_from_u64(0xE0_0003);
    for _ in 0..48 {
        let n_edges = rng.gen_range(1usize..20);
        let edges: Vec<(i64, i64)> = (0..n_edges)
            .map(|_| (rng.gen_range(0i64..12), rng.gen_range(0i64..12)))
            .collect();
        let src = rng.gen_range(0i64..12);
        let mut dbms = Dbms::new().unwrap();
        dbms.execute_ddl(
            "TABLE EDGE (S : INT, D : INT);
             CREATE VIEW TC (S, D) AS
             ( SELECT S, D FROM EDGE
               UNION SELECT A.S, B.D FROM TC A, TC B WHERE A.D = B.S ) ;",
        )
        .unwrap();
        for (s, d) in &edges {
            dbms.insert("EDGE", vec![(*s).into(), (*d).into()]).unwrap();
        }
        let sql = format!("SELECT D FROM TC WHERE S = {src} ;");
        let prepared = dbms.prepare(&sql).unwrap();
        let rewritten = dbms.rewrite(&prepared).unwrap();

        let want = dbms.run_expr(&prepared.expr).unwrap().sorted_rows();
        for (form, plan) in [("raw", &prepared.expr), ("rewritten", &rewritten.expr)] {
            let id = format!("{sql} {edges:?} {form}");
            let executor = dbms.run_expr(plan).unwrap().sorted_rows();
            let oracle = eval_reference(plan, &dbms.db, EvalOptions::default()).unwrap();
            let (naive, _) = naive_fix(plan, &dbms.db).unwrap();
            assert_eq!(executor, want, "{id}: executor");
            assert_eq!(oracle.sorted_rows(), want, "{id}: oracle");
            assert_eq!(naive.sorted_rows(), want, "{id}: naive iteration");
        }
    }
}

/// The rewritten plan must produce the same rows as the raw plan — the
/// rewriter is only allowed to change *how*, never *what*.
#[test]
fn rewritten_plans_preserve_results() {
    for (id, dbms, sql) in exec_workloads() {
        let prepared = dbms.prepare(&sql).unwrap();
        let rewritten = dbms.rewrite(&prepared).unwrap();
        let opts = EvalOptions::default();
        let raw = eds_engine::eval_with(&prepared.expr, &dbms.db, opts)
            .unwrap()
            .0;
        let opt = eds_engine::eval_with(&rewritten.expr, &dbms.db, opts)
            .unwrap()
            .0;
        let mut raw_rows = raw.sorted_rows();
        let mut opt_rows = opt.sorted_rows();
        raw_rows.sort();
        opt_rows.sort();
        assert_eq!(raw_rows, opt_rows, "{id}: rewrite changed the result set");
    }
}

/// `expr` with every one- and two-input `SEARCH` spelled in the Codd
/// primitives the `normalize` block rewrites *into* it: `Project` over
/// `Filter`, or `Project` over `Join` (the target list re-addressed to
/// the join's concatenated scheme). Wider searches stay as they are.
fn codd_primitives(expr: &Expr, sc: &SchemaCtx<'_>) -> Expr {
    let go = |e: &Expr| Box::new(codd_primitives(e, sc));
    match expr {
        Expr::Search { inputs, pred, proj } => match &inputs[..] {
            [one] => Expr::Project {
                input: Box::new(Expr::Filter {
                    input: go(one),
                    pred: pred.clone(),
                }),
                exprs: proj.clone(),
            },
            [left, right] => {
                let shift = infer_schema(left, sc).unwrap().arity();
                let readdress = |rel: usize, attr: usize| Scalar::attr(1, attr + shift * (rel - 1));
                Expr::Project {
                    input: Box::new(Expr::Join {
                        left: go(left),
                        right: go(right),
                        pred: pred.clone(),
                    }),
                    exprs: proj.iter().map(|e| e.map_attrs(&readdress)).collect(),
                }
            }
            _ => Expr::Search {
                inputs: inputs.iter().map(|i| *go(i)).collect(),
                pred: pred.clone(),
                proj: proj.clone(),
            },
        },
        Expr::Fix { name, body } => {
            let inner = sc.with_local(name, infer_schema(expr, sc).unwrap());
            Expr::Fix {
                name: name.clone(),
                body: Box::new(codd_primitives(body, &inner)),
            }
        }
        Expr::Union(items) => Expr::Union(items.iter().map(|i| *go(i)).collect()),
        Expr::Difference(a, b) => Expr::Difference(go(a), go(b)),
        Expr::Intersect(a, b) => Expr::Intersect(go(a), go(b)),
        Expr::Dedup(input) => Expr::Dedup(go(input)),
        Expr::Nest {
            input,
            group,
            nested,
            kind,
        } => Expr::Nest {
            input: go(input),
            group: group.clone(),
            nested: nested.clone(),
            kind: *kind,
        },
        Expr::Unnest { input, attr } => Expr::Unnest {
            input: go(input),
            attr: *attr,
        },
        other => other.clone(),
    }
}

fn primitive_ops(expr: &Expr) -> usize {
    let own = matches!(
        expr,
        Expr::Filter { .. } | Expr::Project { .. } | Expr::Join { .. }
    );
    usize::from(own)
        + expr
            .children()
            .into_iter()
            .map(primitive_ops)
            .sum::<usize>()
}

/// `filter`, `project` and `join` evaluate through the compound
/// `search` they normalize into: every workload spelled in the Codd
/// primitives returns the same rows in the same order as the `SEARCH`
/// form the `normalize` block (alone) rewrites that spelling to, and
/// both agree with the reference interpreter.
#[test]
fn codd_primitives_match_the_search_they_normalize_into() {
    for (id, dbms, sql) in exec_workloads() {
        let canonical = dbms.prepare(&sql).unwrap().expr;
        let primitive = codd_primitives(&canonical, &SchemaCtx::new(&dbms.db.catalog));
        assert!(primitive_ops(&primitive) > 0, "{id}: nothing to spell out");
        let mut normalizer = dbms.rewriter.clone();
        normalizer
            .add_source_checked("seq((normalize), 1) ;", LintPolicy::Off, None)
            .unwrap();
        let level = dbms.opt_level();
        let normalized = normalizer
            .run(
                expr_to_term(&primitive),
                &dbms.db,
                &dbms.constraints,
                level,
                false,
            )
            .unwrap()
            .expr;
        assert_eq!(
            primitive_ops(&normalized),
            0,
            "{id}: normalize left {normalized:?}"
        );
        let oracle = |e: &Expr| eval_reference(e, &dbms.db, EvalOptions::default()).unwrap();
        let (primitive_oracle, search_oracle) = (oracle(&primitive), oracle(&normalized));
        for columnar in [false, true] {
            let opts = EvalOptions {
                columnar,
                ..Default::default()
            };
            let run = |e: &Expr| eds_engine::eval_with(e, &dbms.db, opts).unwrap().0;
            let (as_primitives, as_search) = (run(&primitive), run(&normalized));
            assert_eq!(
                as_primitives.rows, as_search.rows,
                "{id}: primitive and SEARCH forms diverge under {opts:?}"
            );
            for (form, got, reference) in [
                ("primitive", &as_primitives, &primitive_oracle),
                ("SEARCH", &as_search, &search_oracle),
            ] {
                assert!(
                    got.bag_eq(reference),
                    "{id}: {form} form diverges from the reference under {opts:?}"
                );
            }
        }
    }
}

/// Assert that `expr` and every sub-plan of it that can be evaluated on
/// its own (i.e. does not mention an enclosing recursion variable)
/// produce exactly the schema `infer_schema` gives for that sub-plan.
fn assert_inferred_schemas(id: &str, dbms: &Dbms, expr: &Expr, sc: &SchemaCtx<'_>, bound: &[&str]) {
    if !bound.iter().any(|name| expr.references(name)) {
        let got = eds_engine::eval_with(expr, &dbms.db, EvalOptions::default())
            .unwrap_or_else(|e| panic!("{id}: {} failed: {e}", expr.op_name()))
            .0;
        assert_eq!(
            *got.schema,
            infer_schema(expr, sc).unwrap(),
            "{id}: output schema of {} is not the inferred one",
            expr.op_name()
        );
    }
    if let Expr::Fix { name, body } = expr {
        let inner = sc.with_local(name, infer_schema(expr, sc).unwrap());
        let mut bound = bound.to_vec();
        bound.push(name);
        assert_inferred_schemas(id, dbms, body, &inner, &bound);
    } else {
        for child in expr.children() {
            assert_inferred_schemas(id, dbms, child, sc, bound);
        }
    }
}

/// `search` derives its output schema from the schemas of its evaluated
/// inputs instead of re-inferring the sub-plan from the catalog: for
/// every operator of every workload — canonical, rewritten and spelled
/// in the Codd primitives — attribute names and types are what
/// `infer_schema` says.
#[test]
fn every_operator_emits_the_inferred_schema() {
    for (id, dbms, sql) in exec_workloads() {
        let sc = SchemaCtx::new(&dbms.db.catalog);
        let prepared = dbms.prepare(&sql).unwrap();
        let rewritten = dbms.rewrite(&prepared).unwrap().expr;
        let primitive = codd_primitives(&prepared.expr, &sc);
        for (form, plan) in [
            ("raw", &prepared.expr),
            ("rewritten", &rewritten),
            ("primitive", &primitive),
        ] {
            assert_inferred_schemas(&format!("{id}/{form}"), &dbms, plan, &sc, &[]);
        }
        assert_eq!(
            prepared.schema,
            infer_schema(&prepared.expr, &sc).unwrap(),
            "{id}"
        );
    }
}

/// Work counters are part of the contract: a `filter` or a `project`
/// emits rows but counts no combinations, tried or logical; the `search`
/// they normalize into counts one of each per input row — in every
/// physical configuration, and exactly as before `filter` and `project`
/// became adapters onto `search`.
#[test]
fn filter_and_search_work_counters_are_pinned() {
    let workloads = exec_workloads();
    let (_, dbms, sql) = workloads
        .iter()
        .find(|(id, ..)| *id == "scan_int_filter")
        .unwrap();
    let search = dbms.prepare(sql).unwrap().expr;
    let Expr::Search { inputs, pred, .. } = &search else {
        panic!("canonical scan is a SEARCH: {search:?}")
    };
    let filter = Expr::Filter {
        input: Box::new(inputs[0].clone()),
        pred: pred.clone(),
    };
    let project = Expr::Project {
        input: Box::new(inputs[0].clone()),
        exprs: vec![Scalar::attr(1, 1)],
    };
    let emitted = |rows_emitted| EvalStats {
        rows_emitted,
        ..Default::default()
    };
    for opts in all_configs() {
        let stats = |e: &Expr| eds_engine::eval_with(e, &dbms.db, opts).unwrap().1;
        assert_eq!(stats(&filter), emitted(905), "filter under {opts:?}");
        assert_eq!(stats(&project), emitted(16_000), "project under {opts:?}");
        let search_stats = EvalStats {
            combinations_tried: 16_000,
            cross_product: 16_000,
            ..emitted(905)
        };
        assert_eq!(stats(&search), search_stats, "search under {opts:?}");
    }
}

/// The default executor — select first, then stream — on the joining
/// statements of the end-to-end benchmark (`dim_join`, `film_join`,
/// `tc_unbound`, `ol_join3`, `ol_pushdown`), canonical and rewritten at
/// both levels: the rows *and their order* are the reference
/// interpreter's, under columnar {off, on} — and
/// the work counters do not depend on which path pre-selection took.
#[test]
fn default_joins_return_the_oracles_rows_in_its_order() {
    use eds_bench::{film_dbms, filter_pushdown_dbms, graph_dbms, join3_dbms, scan_dbms};
    use eds_core::OptLevel;

    // More than one block of SCAN survives `A > 300`.
    let mut dim = scan_dbms(5_000, 7);
    dim.execute_ddl("TABLE DIM (G : INT, Label : CHAR);")
        .unwrap();
    for g in 0..16i64 {
        dim.insert("DIM", vec![g.into(), format!("group{g}").into()])
            .unwrap();
    }
    let statements: Vec<(&str, Dbms, &str)> = vec![
        (
            "dim_join",
            dim,
            "SELECT K, Label FROM SCAN, DIM WHERE SCAN.G = DIM.G AND A > 300 ;",
        ),
        (
            "film_join",
            film_dbms(150, 80, 7),
            "SELECT Title FROM FILM, APPEARS_IN \
             WHERE Salary(Refactor) > 20000 AND FILM.Numf = APPEARS_IN.Numf ;",
        ),
        (
            "tc_unbound",
            graph_dbms(40, 10, 7),
            "SELECT Src, Dst FROM TC WHERE Dst - Src > 1 ;",
        ),
        (
            "ol_join3",
            join3_dbms(60, 12, 10),
            "SELECT B FROM RS, T WHERE RS.J = T.J AND B >= 3 ;",
        ),
        (
            "ol_pushdown",
            filter_pushdown_dbms(10, 3_000),
            "SELECT ALLU.K FROM ALLU, FSEL WHERE ALLU.K = FSEL.K ;",
        ),
    ];
    for (id, mut dbms, sql) in statements {
        let prepared = dbms.prepare(sql).unwrap();
        let mut plans = vec![("raw", prepared.expr.clone())];
        for (name, level) in [("simple", OptLevel::Simple), ("full", OptLevel::Full)] {
            dbms.set_opt_level(level);
            let plan = dbms.rewrite_uncached(&prepared).unwrap().expr;
            plans.push((name, std::sync::Arc::unwrap_or_clone(plan)));
        }
        let configs = all_configs();
        for (form, plan) in &plans {
            let id = format!("{id}/{form}");
            let stats = assert_matches_oracle(&id, &dbms.db, plan, &configs);
            assert!(
                stats.iter().all(|s| *s == stats[0]),
                "{id}: work moved across {configs:?}: {stats:?}"
            );
        }
    }
}

/// Every layout a set sink keys on, more than two blocks deep: `T`
/// has an INT and a CHAR column with NULLs (and `''`) and a spill
/// column of REAL `0.0` / `-0.0` / NaN, BOOL and INT beside REAL; `P`
/// repeats whole rows; `DIM` repeats labels; `TC` is a recursive view.
fn distinct_dbms() -> Dbms {
    use eds_adt::Value;
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TABLE T (K : INT, I : INT, S : CHAR, X : REAL, G : INT);
         TABLE P (I : INT, S : CHAR);
         TABLE DIM (G : INT, Label : CHAR);
         TABLE EDGE (Src : INT, Dst : INT);
         CREATE VIEW TC (Src, Dst) AS
         ( SELECT Src, Dst FROM EDGE
           UNION
           SELECT T1.Src, T2.Dst FROM TC T1, TC T2 WHERE T1.Dst = T2.Src ) ;",
    )
    .unwrap();
    let spill = [
        Value::real(0.0),
        Value::real(-0.0),
        Value::real(f64::NAN),
        Value::Bool(true),
        Value::Int(1),
        Value::real(1.0),
        Value::Int(0),
        Value::Null,
    ];
    let tags = ["", "hot", "cold", "warm", "hot ", "HOT"];
    let int = |i: i64, m: i64| {
        if i % 7 == 3 {
            Value::Null
        } else {
            Value::Int(i % m)
        }
    };
    let tag = |i: i64| {
        if i % 5 == 2 {
            Value::Null
        } else {
            Value::str(tags[(i % 6) as usize])
        }
    };
    for i in 0..5_000i64 {
        let x = spill[(i % 8) as usize].clone();
        dbms.insert("T", vec![i.into(), int(i, 11), tag(i), x, (i % 16).into()])
            .unwrap();
    }
    for i in 0..3_000i64 {
        dbms.insert("P", vec![int(i, 9), tag(i / 3)]).unwrap();
    }
    for g in 0..16i64 {
        dbms.insert("DIM", vec![g.into(), format!("label{}", g % 4).into()])
            .unwrap();
    }
    for i in 0..30i64 {
        dbms.insert("EDGE", vec![i.into(), (i + 1).into()]).unwrap();
        if i % 5 == 0 {
            dbms.insert("EDGE", vec![i.into(), (i + 3).into()]).unwrap();
        }
    }
    dbms
}

/// Set semantics at the sink return the oracle's rows in its order, in
/// every configuration of the executor: `DISTINCT` over an INT and a
/// CHAR column with NULLs, over a spill column, over several columns,
/// over `*`, over a computed target, over a linked join and a cross
/// product; an `IN` subquery, whose `dedup` is a `search` input; a
/// recursive view (the semi-naive delta); a prepared `?` bind; and
/// hand-built `difference` / `intersect`, one with a left operand that
/// is not a search.
#[test]
fn set_sinks_match_the_reference() {
    use eds_adt::Value;
    use eds_bench::literal_sql;

    let dbms = distinct_dbms();
    let configs = all_configs();
    let statements = [
        ("distinct_int", "SELECT DISTINCT I FROM T WHERE K >= 40 ;"),
        ("distinct_int_rows", "SELECT DISTINCT I FROM T ;"),
        ("distinct_char", "SELECT DISTINCT S FROM T WHERE K >= 100 ;"),
        ("distinct_spill", "SELECT DISTINCT X FROM T WHERE G < 12 ;"),
        (
            "distinct_multi",
            "SELECT DISTINCT I, S FROM T WHERE G <> 3 ;",
        ),
        ("distinct_star", "SELECT DISTINCT * FROM P WHERE I >= 0 ;"),
        ("distinct_star_rows", "SELECT DISTINCT * FROM P ;"),
        (
            "distinct_computed",
            "SELECT DISTINCT I + 1 FROM T WHERE K > 5 ;",
        ),
        (
            "distinct_linked_join",
            "SELECT DISTINCT Label, I FROM T, DIM WHERE T.G = DIM.G AND K > 10 ;",
        ),
        (
            "distinct_cross",
            "SELECT DISTINCT Label, S FROM P, DIM WHERE DIM.G < 3 ;",
        ),
        (
            "in_subquery",
            "SELECT K FROM T WHERE I IN (SELECT G FROM DIM WHERE G < 4) ;",
        ),
        ("recursive", "SELECT Src, Dst FROM TC WHERE Dst - Src > 1 ;"),
        (
            "recursive_distinct",
            "SELECT DISTINCT Dst FROM TC WHERE Src < 10 ;",
        ),
    ];
    for (id, sql) in statements {
        let prepared = dbms.prepare(sql).unwrap();
        let rewritten = dbms.rewrite(&prepared).unwrap();
        assert_matches_oracle(&format!("{id}/raw"), &dbms.db, &prepared.expr, &configs);
        assert_matches_oracle(
            &format!("{id}/rewritten"),
            &dbms.db,
            &rewritten.expr,
            &configs,
        );
    }

    let plan = |sql: &str| Box::new(dbms.prepare(sql).unwrap().expr);
    let (left, right) = (
        plan("SELECT I FROM T WHERE K < 3000 ;"),
        plan("SELECT I FROM P WHERE S = 'hot' ;"),
    );
    let not_a_search = Box::new(Expr::base("P"));
    let some_of_p = plan("SELECT I, S FROM P WHERE I > 4 ;");
    for (id, expr) in [
        ("difference", Expr::Difference(left.clone(), right.clone())),
        ("intersect", Expr::Intersect(left, right)),
        (
            "difference_of_a_base",
            Expr::Difference(not_a_search.clone(), some_of_p.clone()),
        ),
        (
            "intersect_of_a_base",
            Expr::Intersect(not_a_search, some_of_p),
        ),
    ] {
        assert_matches_oracle(id, &dbms.db, &expr, &configs);
    }

    let sql = "SELECT DISTINCT S FROM T WHERE K >= ? ;";
    let stmt = dbms.prepare(sql).unwrap().expr;
    for binds in [[Value::Int(4_000)], [Value::Int(0)], [Value::Int(5_001)]] {
        let literal = dbms.prepare(&literal_sql(sql, &binds)).unwrap().expr;
        let oracle = eval_reference(&literal, &dbms.db, EvalOptions::default()).unwrap();
        for &opts in &configs {
            let got = eds_engine::eval_with_params(&stmt, &dbms.db, opts, &binds)
                .unwrap()
                .0;
            assert_eq!(got.rows, oracle.rows, "prepared {binds:?} under {opts:?}");
        }
    }
}

/// A set-mode sink drops a duplicate before it becomes a row but still
/// counts it: `SELECT DISTINCT B …` reports the work counters of
/// `SELECT B …`, in every configuration.
#[test]
fn distinct_counts_the_rows_of_its_search() {
    let dbms = eds_bench::scan_dbms(16_000, 7);
    let plan = |sql: &str| dbms.prepare(sql).unwrap().expr;
    let bag = plan("SELECT B FROM SCAN WHERE K >= 8000 ;");
    let set = plan("SELECT DISTINCT B FROM SCAN WHERE K >= 8000 ;");
    let pinned = EvalStats {
        rows_emitted: 8_000,
        combinations_tried: 16_000,
        cross_product: 16_000,
        fix_iterations: 0,
    };
    for opts in all_configs() {
        let run = |e: &Expr| eds_engine::eval_with(e, &dbms.db, opts).unwrap();
        let ((bag_rows, bag_stats), (set_rows, set_stats)) = (run(&bag), run(&set));
        assert_eq!(bag_stats, pinned, "bag under {opts:?}");
        assert_eq!(set_stats, pinned, "DISTINCT under {opts:?}");
        assert_eq!(bag_rows.len(), 8_000);
        assert_eq!(set_rows.len(), 1_000, "DISTINCT under {opts:?}");
    }
}
