//! End-to-end rewriter tests: every paper figure's optimization, driven
//! through the full parse → translate → rewrite → execute pipeline.

use eds_adt::Value;
use eds_core::{figure10_constraints, Dbms};
use eds_lera::{expr_to_term, Expr};
use eds_rewrite::Limit;

/// The paper's Figure-2 film schema plus a small population.
fn film_dbms() -> Dbms {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TYPE Category ENUMERATION OF ('Comedy', 'Adventure', 'Science Fiction', 'Western') ;
         TYPE Point TUPLE (ABS : REAL, ORD : REAL) ;
         TYPE Person OBJECT TUPLE ( Name : CHAR, Firstname : SET OF CHAR) ;
         TYPE Actor SUBTYPE OF Person OBJECT TUPLE (Salary : NUMERIC) ;
         TYPE SetCategory SET OF Category ;
         TABLE FILM ( Numf : NUMERIC, Title : CHAR, Categories : SetCategory) ;
         TABLE APPEARS_IN ( Numf : NUMERIC, Refactor : Actor) ;
         TABLE DOMINATE ( Numf : NUMERIC, Refactor1 : Actor, Refactor2 : Actor) ;",
    )
    .unwrap();

    let actor = |dbms: &mut Dbms, name: &str, salary: i64| {
        dbms.create_object(
            "Actor",
            Value::Tuple(vec![
                Value::str(name),
                Value::set(vec![]),
                Value::Int(salary),
            ]),
        )
    };
    let quinn = actor(&mut dbms, "Quinn", 12_000);
    let marla = actor(&mut dbms, "Marla", 20_000);
    let pedro = actor(&mut dbms, "Pedro", 8_000);

    dbms.insert_all(
        "FILM",
        vec![
            vec![
                Value::Int(1),
                Value::str("Desert Run"),
                Value::set(vec![Value::str("Adventure"), Value::str("Western")]),
            ],
            vec![
                Value::Int(2),
                Value::str("Laugh Lines"),
                Value::set(vec![Value::str("Comedy")]),
            ],
            vec![
                Value::Int(3),
                Value::str("Star Cargo"),
                Value::set(vec![Value::str("Science Fiction"), Value::str("Adventure")]),
            ],
        ],
    )
    .unwrap();
    dbms.insert_all(
        "APPEARS_IN",
        vec![
            vec![Value::Int(1), quinn.clone()],
            vec![Value::Int(1), marla.clone()],
            vec![Value::Int(2), quinn.clone()],
            vec![Value::Int(3), marla.clone()],
            vec![Value::Int(3), pedro.clone()],
        ],
    )
    .unwrap();
    dbms.insert_all(
        "DOMINATE",
        vec![
            vec![Value::Int(1), marla.clone(), quinn.clone()],
            vec![Value::Int(1), quinn.clone(), pedro.clone()],
        ],
    )
    .unwrap();
    dbms
}

/// Rewriting must never change query results.
fn assert_equivalent(dbms: &Dbms, sql: &str) {
    let baseline = dbms.query_unoptimized(sql).unwrap();
    let optimized = dbms.query(sql).unwrap();
    assert!(
        baseline.set_eq(&optimized),
        "rewrite changed results of {sql}\nbaseline: {:?}\noptimized: {:?}",
        baseline.sorted_rows(),
        optimized.sorted_rows()
    );
}

#[test]
fn figure7_view_composition_merges_to_single_search() {
    let mut dbms = film_dbms();
    dbms.execute_ddl(
        "CREATE VIEW Adventure (Numf, Title) AS \
         SELECT Numf, Title FROM FILM WHERE MEMBER('Adventure', Categories) ;",
    )
    .unwrap();
    let sql = "SELECT Title FROM Adventure WHERE Numf = 3 ;";
    let prepared = dbms.prepare(sql).unwrap();
    // Canonical plan: search over search (the inlined view).
    let Expr::Search { inputs, .. } = &prepared.expr else {
        panic!("expected search")
    };
    assert!(matches!(&inputs[0], Expr::Search { .. }));

    let rewritten = dbms.rewrite(&prepared).unwrap();
    // After merging: a single search over the base table with the two
    // qualifications ANDed.
    let Expr::Search { inputs, pred, .. } = &*rewritten.expr else {
        panic!("expected search, got {}", rewritten.expr.op_name())
    };
    assert_eq!(inputs.len(), 1);
    assert!(matches!(&inputs[0], Expr::Base(n) if n == "FILM"));
    let rendered = pred.to_string();
    assert!(rendered.contains("MEMBER"), "{rendered}");
    assert!(rendered.contains("1.1 = 3"), "{rendered}");

    assert_equivalent(&dbms, sql);
    assert_eq!(
        dbms.query(sql).unwrap().sorted_rows(),
        vec![vec![Value::str("Star Cargo")]]
    );
}

#[test]
fn figure7_deep_view_stack_fully_merges() {
    let mut dbms = film_dbms();
    dbms.execute_ddl(
        "CREATE VIEW V1 (Numf, Title, Categories) AS \
           SELECT Numf, Title, Categories FROM FILM WHERE Numf > 0 ;\n\
         CREATE VIEW V2 (Numf, Title) AS \
           SELECT Numf, Title FROM V1 WHERE MEMBER('Adventure', Categories) ;\n\
         CREATE VIEW V3 (Title) AS SELECT Title FROM V2 WHERE Numf < 10 ;",
    )
    .unwrap();
    let sql = "SELECT Title FROM V3 ;";
    let prepared = dbms.prepare(sql).unwrap();
    assert!(prepared.expr.node_count() >= 4);
    let rewritten = dbms.rewrite(&prepared).unwrap();
    let Expr::Search { inputs, .. } = &*rewritten.expr else {
        panic!("expected search")
    };
    assert_eq!(inputs.len(), 1);
    assert!(matches!(&inputs[0], Expr::Base(n) if n == "FILM"));
    assert_equivalent(&dbms, sql);
}

#[test]
fn figure8_union_pushdown_distributes_search() {
    let mut dbms = film_dbms();
    dbms.execute_ddl(
        "CREATE VIEW AllPairs (Numf, Refactor) AS \
         ( SELECT Numf, Refactor FROM APPEARS_IN \
           UNION SELECT Numf, Refactor1 FROM DOMINATE \
           UNION SELECT Numf, Refactor2 FROM DOMINATE ) ;",
    )
    .unwrap();
    let sql = "SELECT Numf FROM AllPairs WHERE Numf = 1 ;";
    let rewritten = dbms.rewrite(&dbms.prepare(sql).unwrap()).unwrap();
    // The search is distributed over the union branches and merged into
    // each: the top operator becomes a union of searches on base tables.
    let Expr::Union(items) = &*rewritten.expr else {
        panic!("expected union on top, got {}", rewritten.expr.op_name())
    };
    assert_eq!(items.len(), 3);
    for item in items {
        let Expr::Search { inputs, .. } = item else {
            panic!("expected search branch, got {}", item.op_name())
        };
        assert!(matches!(&inputs[0], Expr::Base(_)));
    }
    assert_equivalent(&dbms, sql);
}

#[test]
fn figure8_nest_pushdown_moves_group_predicate_below_nest() {
    let mut dbms = film_dbms();
    dbms.execute_ddl(
        "CREATE VIEW FilmActors (Title, Categories, Actors) AS \
         SELECT Title, Categories, MakeSet(Refactor) \
         FROM FILM, APPEARS_IN WHERE FILM.Numf = APPEARS_IN.Numf \
         GROUP BY Title, Categories ;",
    )
    .unwrap();
    let sql = "SELECT Title FROM FilmActors WHERE Title = 'Desert Run' ;";
    let prepared = dbms.prepare(sql).unwrap();
    let rewritten = dbms.rewrite(&prepared).unwrap();
    // The Title predicate must sit below the nest after rewriting.
    fn nest_input_has_filter(e: &Expr) -> bool {
        match e {
            Expr::Nest { input, .. } => {
                let rendered = format!("{input}");
                rendered.contains("'Desert Run'")
            }
            _ => e.children().iter().any(|c| nest_input_has_filter(c)),
        }
    }
    assert!(
        nest_input_has_filter(&rewritten.expr),
        "predicate not pushed below nest: {}",
        rewritten.expr
    );
    // And the outer search must no longer carry it.
    let Expr::Search { pred, .. } = &*rewritten.expr else {
        panic!("expected search")
    };
    assert!(!pred.to_string().contains("Desert Run"));
    assert_equivalent(&dbms, sql);
    assert_eq!(dbms.query(sql).unwrap().len(), 1);
}

/// The F8 ablation of `EXPERIMENTS.md`: merging two selective views
/// into the join shrinks both its logical work (the cross product) and
/// what the executor examines, and one default run per plan reads both.
#[test]
fn figure8_ablation_counts_come_from_one_run_per_plan() {
    let mut dbms = Dbms::new().unwrap();
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
    let prepared = dbms
        .prepare("SELECT RV.V FROM RV, SV WHERE RV.K = SV.K AND SV.W = 7 ;")
        .unwrap();
    let rewritten = dbms.rewrite(&prepared).unwrap();
    let (raw, before) = dbms.run_expr_with_stats(&prepared.expr).unwrap();
    let (merged, after) = dbms.run_expr_with_stats(&rewritten.expr).unwrap();
    assert!(raw.set_eq(&merged));
    let counts = |s: eds_engine::EvalStats| (s.cross_product, s.combinations_tried);
    assert_eq!(counts(before), (90_600, 907));
    assert_eq!(counts(after), (90_000, 307));
}

#[test]
fn figure9_alexander_reduces_recursion_and_work() {
    let mut dbms = film_dbms();
    dbms.execute_ddl(
        "CREATE VIEW BETTER_THAN (Refactor1, Refactor2) AS \
         ( SELECT Refactor1, Refactor2 FROM DOMINATE \
           UNION \
           SELECT B1.Refactor1, B2.Refactor2 \
           FROM BETTER_THAN B1, BETTER_THAN B2 \
           WHERE B1.Refactor2 = B2.Refactor1 ) ;",
    )
    .unwrap();
    let sql = "SELECT Name(Refactor1) FROM BETTER_THAN WHERE Name(Refactor2) = 'Quinn' ;";
    // NOTE: the binding here is Name(Refactor2) = 'Quinn' — a *function*
    // of the attribute, which the adornment cannot use. Use a direct
    // object binding instead for the reduction test below; this query
    // still must stay correct.
    assert_equivalent(&dbms, sql);

    // Direct binding on a fixpoint attribute: build a graph table.
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TABLE EDGE (Src : INT, Dst : INT);\n\
         CREATE VIEW TC (Src, Dst) AS \
         ( SELECT Src, Dst FROM EDGE \
           UNION SELECT T1.Src, T2.Dst FROM TC T1, TC T2 WHERE T1.Dst = T2.Src ) ;",
    )
    .unwrap();
    for i in 0..30i64 {
        dbms.insert("EDGE", vec![i.into(), (i + 1).into()]).unwrap();
    }
    let sql = "SELECT Dst FROM TC WHERE Src = 28 ;";
    let prepared = dbms.prepare(sql).unwrap();
    let rewritten = dbms.rewrite(&prepared).unwrap();

    // The rewritten plan's fixpoint seed must carry the binding (the
    // seed restriction merges into the seed search itself).
    let rendered = format!("{}", rewritten.expr);
    assert!(
        rendered.contains("search((EDGE), [1.1 = 28]"),
        "seed not restricted in {rendered}"
    );

    // The reduction is one of logical work: the plans' cross products.
    let (base_rel, base_stats) = dbms.run_expr_with_stats(&prepared.expr).unwrap();
    let (opt_rel, opt_stats) = dbms.run_expr_with_stats(&rewritten.expr).unwrap();
    assert!(base_rel.set_eq(&opt_rel));
    assert_eq!(opt_rel.sorted_rows().len(), 2); // 29, 30
    assert!(
        opt_stats.cross_product * 10 < base_stats.cross_product,
        "expected >=10x reduction: optimized {} vs unrewritten {}",
        opt_stats.cross_product,
        base_stats.cross_product
    );
}

#[test]
fn figure10_inconsistent_member_detected() {
    // MEMBER('Cartoon', Categories) with the Category domain constraint:
    // the added domain knowledge folds to FALSE and the query returns
    // empty without scanning.
    let mut dbms = film_dbms();
    dbms.add_constraint_source(figure10_constraints()).unwrap();

    let sql =
        "SELECT Title FROM FILM WHERE Categories = Categories AND MEMBER('Cartoon', Categories) ;";
    // Constant-level inconsistency: MEMBER('Cartoon', {'Comedy',...}).
    let direct =
        "SELECT Title FROM FILM WHERE MEMBER('Cartoon', MAKESET('Comedy', 'Adventure', 'Science Fiction', 'Western')) ;";
    let rewritten = dbms.rewrite(&dbms.prepare(direct).unwrap()).unwrap();
    let Expr::Search { pred, .. } = &*rewritten.expr else {
        panic!("expected search")
    };
    assert!(pred.is_false(), "expected FALSE qualification, got {pred}");
    assert!(dbms.query(direct).unwrap().is_empty());
    assert_equivalent(&dbms, sql);
}

#[test]
fn figure11_equality_substitution_enables_folding() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl("TABLE T (X : INT, Y : INT);").unwrap();
    dbms.insert_all(
        "T",
        (0..20i64)
            .map(|i| vec![Value::Int(i), Value::Int(i * 2)])
            .collect::<Vec<_>>(),
    )
    .unwrap();
    // X = 5 AND X > 9 is inconsistent: EQSUBST derives 5 > 9, folding
    // collapses the qualification to FALSE.
    let sql = "SELECT Y FROM T WHERE X = 5 AND X > 9 ;";
    let rewritten = dbms.rewrite(&dbms.prepare(sql).unwrap()).unwrap();
    let Expr::Search { pred, .. } = &*rewritten.expr else {
        panic!("expected search")
    };
    assert!(pred.is_false(), "expected FALSE, got {pred}");
    assert!(dbms.query(sql).unwrap().is_empty());
}

#[test]
fn figure11_transitivity_derives_join_predicates() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl("TABLE A (X : INT); TABLE B (X : INT); TABLE C (X : INT);")
        .unwrap();
    for i in 0..5i64 {
        dbms.insert("A", vec![i.into()]).unwrap();
        dbms.insert("B", vec![i.into()]).unwrap();
        dbms.insert("C", vec![i.into()]).unwrap();
    }
    let sql = "SELECT A.X FROM A, B, C WHERE A.X = B.X AND B.X = C.X ;";
    let rewritten = dbms.rewrite(&dbms.prepare(sql).unwrap()).unwrap();
    let Expr::Search { pred, .. } = &*rewritten.expr else {
        panic!("expected search")
    };
    // 1.1 = 3.1 derived by transitivity.
    assert!(
        pred.to_string().contains("1.1 = 3.1"),
        "transitivity missing in {pred}"
    );
    assert_equivalent(&dbms, sql);
}

#[test]
fn figure12_constant_folding_in_qualifications() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl("TABLE T (X : INT);").unwrap();
    dbms.insert_all(
        "T",
        (0..10i64).map(|i| vec![Value::Int(i)]).collect::<Vec<_>>(),
    )
    .unwrap();
    // 2 + 3 folds to 5; X < 5 remains.
    let sql = "SELECT X FROM T WHERE X < 2 + 3 ;";
    let rewritten = dbms.rewrite(&dbms.prepare(sql).unwrap()).unwrap();
    let Expr::Search { pred, .. } = &*rewritten.expr else {
        panic!()
    };
    assert_eq!(pred.to_string(), "1.1 < 5");
    assert_eq!(dbms.query(sql).unwrap().sorted_rows().len(), 5);
}

#[test]
fn figure12_contradictory_comparisons_collapse() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl("TABLE T (X : INT, Y : INT);").unwrap();
    dbms.insert("T", vec![1.into(), 2.into()]).unwrap();
    let sql = "SELECT X FROM T WHERE X > Y AND X <= Y ;";
    let rewritten = dbms.rewrite(&dbms.prepare(sql).unwrap()).unwrap();
    let Expr::Search { pred, .. } = &*rewritten.expr else {
        panic!()
    };
    assert!(pred.is_false(), "expected FALSE, got {pred}");
}

#[test]
fn rewriter_is_extensible_with_user_rules() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl("TABLE T (X : INT);").unwrap();
    dbms.insert("T", vec![1.into()]).unwrap();
    // A user rule folding a made-up predicate: ALWAYSTRUE() --> TRUE,
    // placed in its own block appended to the sequence.
    dbms.add_rule_source(
        "UserAlwaysTrue : ALWAYSTRUE(x) / --> TRUE / ;\n\
         block(user, {UserAlwaysTrue}, INF) ;\n\
         seq((normalize, merging, user, simplify), 1) ;",
    )
    .unwrap();
    // Build a plan with the predicate via the term layer.
    let prepared = dbms.prepare("SELECT X FROM T WHERE X = X ;").unwrap();
    let Expr::Search { inputs, proj, .. } = &prepared.expr else {
        panic!()
    };
    let custom = Expr::Search {
        inputs: inputs.clone(),
        pred: eds_lera::Scalar::call("ALWAYSTRUE", vec![eds_lera::Scalar::attr(1, 1)]),
        proj: proj.clone(),
    };
    let rewritten = dbms
        .rewriter
        .rewrite_term_leveled(
            expr_to_term(&custom),
            &dbms.db,
            &dbms.constraints,
            dbms.opt_level(),
        )
        .unwrap();
    let Expr::Search { pred, .. } = &*rewritten.expr else {
        panic!()
    };
    assert!(pred.is_true(), "user rule did not fire: {pred}");
}

#[test]
fn zero_limits_disable_all_rewriting() {
    let mut dbms = film_dbms();
    dbms.execute_ddl(
        "CREATE VIEW Adventure (Numf, Title) AS \
         SELECT Numf, Title FROM FILM WHERE MEMBER('Adventure', Categories) ;",
    )
    .unwrap();
    dbms.rewriter.set_all_limits(Limit::Finite(0));
    let prepared = dbms
        .prepare("SELECT Title FROM Adventure WHERE Numf = 3 ;")
        .unwrap();
    let rewritten = dbms.rewrite(&prepared).unwrap();
    assert_eq!(*rewritten.expr, prepared.expr);
    assert_eq!(rewritten.stats.applications, 0);
}

#[test]
fn rewrite_preserves_results_across_query_corpus() {
    let mut dbms = film_dbms();
    dbms.execute_ddl(
        "CREATE VIEW FilmActors (Title, Categories, Actors) AS \
           SELECT Title, Categories, MakeSet(Refactor) \
           FROM FILM, APPEARS_IN WHERE FILM.Numf = APPEARS_IN.Numf \
           GROUP BY Title, Categories ;\n\
         CREATE VIEW Adventure (Numf, Title) AS \
           SELECT Numf, Title FROM FILM WHERE MEMBER('Adventure', Categories) ;\n\
         CREATE VIEW BETTER_THAN (Refactor1, Refactor2) AS \
         ( SELECT Refactor1, Refactor2 FROM DOMINATE \
           UNION \
           SELECT B1.Refactor1, B2.Refactor2 \
           FROM BETTER_THAN B1, BETTER_THAN B2 \
           WHERE B1.Refactor2 = B2.Refactor1 ) ;",
    )
    .unwrap();
    dbms.add_constraint_source(figure10_constraints()).unwrap();
    let corpus = [
        "SELECT Title FROM FILM ;",
        "SELECT Title, Categories, Salary(Refactor) FROM FILM, APPEARS_IN \
         WHERE FILM.Numf = APPEARS_IN.Numf AND Name(Refactor) = 'Quinn' \
         AND MEMBER('Adventure', Categories) ;",
        "SELECT Title FROM FilmActors \
         WHERE MEMBER('Adventure', Categories) AND ALL (Salary(Actors) > 10_000) ;",
        "SELECT Title FROM Adventure WHERE Numf = 1 ;",
        "SELECT Name(Refactor1) FROM BETTER_THAN WHERE Name(Refactor2) = 'Quinn' ;",
        "SELECT Name(Refactor2) FROM BETTER_THAN WHERE Name(Refactor1) = 'Marla' ;",
        "SELECT DISTINCT Numf FROM APPEARS_IN WHERE Numf > 1 ;",
        "SELECT Numf FROM FILM UNION SELECT Numf FROM APPEARS_IN ;",
        "SELECT X.Title FROM Adventure X, Adventure Y WHERE X.Numf = Y.Numf ;",
        "SELECT Title FROM FILM WHERE Numf IN (SELECT Numf FROM APPEARS_IN) ;",
        "SELECT Numf FROM APPEARS_IN WHERE Numf IN (SELECT Numf FROM Adventure) AND Numf > 0 ;",
    ];
    for sql in corpus {
        assert_equivalent(&dbms, sql);
    }
}

#[test]
fn alexander_seed_filter_merges_into_seed_search() {
    // After the Figure-9 reduction, the seed restriction produced as a
    // FILTER must be merged back into the seed search by
    // FilterSearchMerge (second merging pass of the default sequence).
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TABLE EDGE (Src : INT, Dst : INT);\n\
         CREATE VIEW TC (Src, Dst) AS \
         ( SELECT Src, Dst FROM EDGE \
           UNION SELECT T1.Src, T2.Dst FROM TC T1, TC T2 WHERE T1.Dst = T2.Src ) ;",
    )
    .unwrap();
    for i in 0..10i64 {
        dbms.insert("EDGE", vec![i.into(), (i + 1).into()]).unwrap();
    }
    let prepared = dbms.prepare("SELECT Dst FROM TC WHERE Src = 4 ;").unwrap();
    let rewritten = dbms.rewrite(&prepared).unwrap();
    fn has_filter(e: &Expr) -> bool {
        matches!(e, Expr::Filter { .. }) || e.children().iter().any(|c| has_filter(c))
    }
    assert!(
        !has_filter(&rewritten.expr),
        "seed filter not merged: {}",
        rewritten.expr
    );
    assert_equivalent(&dbms, "SELECT Dst FROM TC WHERE Src = 4 ;");
}

#[test]
fn filter_fusion_and_having() {
    let mut dbms = film_dbms();
    dbms.execute_ddl(
        "CREATE VIEW FilmActors (Title, Categories, Actors) AS \
         SELECT Title, Categories, MakeSet(Refactor) \
         FROM FILM, APPEARS_IN WHERE FILM.Numf = APPEARS_IN.Numf \
         GROUP BY Title, Categories ;",
    )
    .unwrap();
    // HAVING over the nested view exercises Filter-over-Nest plans.
    let sql = "SELECT Title, MakeSet(Refactor) FROM FILM, APPEARS_IN \
               WHERE FILM.Numf = APPEARS_IN.Numf \
               GROUP BY Title HAVING Title <> 'Laugh Lines' ;";
    assert_equivalent(&dbms, sql);
    let rows = dbms.query(sql).unwrap();
    assert_eq!(rows.len(), 2);
}

#[test]
fn adaptive_limits_scale_with_query_complexity() {
    // Paper conclusion: dynamic limit allocation by query complexity.
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TABLE T (X : INT);\n\
         CREATE VIEW V1 (X) AS SELECT X FROM T WHERE X > 0 ;\n\
         CREATE VIEW V2 (X) AS SELECT X FROM V1 WHERE X < 100 ;",
    )
    .unwrap();
    dbms.insert("T", vec![5.into()]).unwrap();

    // Trivial plan: a bare table scan gets limit 0 — untouched.
    let trivial = dbms.prepare("SELECT X FROM T ;").unwrap();
    dbms.rewriter.set_adaptive_limits(&trivial.expr, 4);
    let out = dbms.rewrite(&trivial).unwrap();
    assert_eq!(out.stats.condition_checks, 0);

    // Complex plan: enough budget to fully merge the view stack.
    let complex = dbms.prepare("SELECT X FROM V2 WHERE X = 5 ;").unwrap();
    dbms.rewriter.set_adaptive_limits(&complex.expr, 20);
    let out = dbms.rewrite(&complex).unwrap();
    let Expr::Search { inputs, .. } = &*out.expr else {
        panic!("expected search")
    };
    assert!(
        matches!(&inputs[0], Expr::Base(n) if n == "T"),
        "{}",
        out.expr
    );
    assert_equivalent(&dbms, "SELECT X FROM V2 WHERE X = 5 ;");
}

#[test]
fn codd_primitives_normalize_into_search() {
    use eds_lera::Scalar;
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl("TABLE R (X : INT, Y : INT); TABLE S (X : INT);")
        .unwrap();
    dbms.insert_all(
        "R",
        vec![vec![1.into(), 2.into()], vec![3.into(), 4.into()]],
    )
    .unwrap();
    dbms.insert("S", vec![1.into()]).unwrap();
    // A hand-built Codd-primitive plan: project(filter(join(R, S))).
    let plan = Expr::Project {
        input: Box::new(Expr::Filter {
            input: Box::new(Expr::Join {
                left: Box::new(Expr::base("R")),
                right: Box::new(Expr::base("S")),
                pred: Scalar::eq(Scalar::attr(1, 1), Scalar::attr(2, 1)),
            }),
            pred: Scalar::cmp(eds_lera::CmpOp::Lt, Scalar::attr(1, 2), Scalar::lit(10)),
        }),
        exprs: vec![Scalar::attr(1, 2)],
    };
    let rewritten = dbms
        .rewriter
        .rewrite_term_leveled(
            expr_to_term(&plan),
            &dbms.db,
            &dbms.constraints,
            dbms.opt_level(),
        )
        .unwrap();
    // Everything collapses into one compound search over the bases.
    let Expr::Search { inputs, .. } = &*rewritten.expr else {
        panic!("expected search, got {}", rewritten.expr)
    };
    assert_eq!(inputs.len(), 2);
    assert!(inputs.iter().all(|i| matches!(i, Expr::Base(_))));
    let base = dbms.run_expr(&plan).unwrap();
    let opt = dbms.run_expr(&rewritten.expr).unwrap();
    assert!(base.set_eq(&opt));
    assert_eq!(opt.sorted_rows(), vec![vec![Value::Int(2)]]);
}

#[test]
fn aggregates_survive_rewriting() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TABLE SALES (Region : CHAR, Amount : INT);
         INSERT INTO SALES VALUES
           ('north', 10), ('north', 30), ('south', 5), ('south', 7);
         CREATE VIEW Totals (Region, Total) AS
           SELECT Region, SUM(MakeBag(Amount)) FROM SALES GROUP BY Region ;",
    )
    .unwrap();
    let sql = "SELECT Total FROM Totals WHERE Region = 'north' ;";
    assert_equivalent(&dbms, sql);
    assert_eq!(
        dbms.query(sql).unwrap().sorted_rows(),
        vec![vec![Value::Int(40)]]
    );
    // The region predicate should reach below the nest via the
    // normalize (ProjectToSearch) + permutation (SearchNestPush) chain.
    let rewritten = dbms.rewrite(&dbms.prepare(sql).unwrap()).unwrap();
    fn nest_sees_region(e: &Expr) -> bool {
        match e {
            Expr::Nest { input, .. } => format!("{input}").contains("'north'"),
            _ => e.children().iter().any(|c| nest_sees_region(c)),
        }
    }
    assert!(
        nest_sees_region(&rewritten.expr),
        "predicate not pushed below nest: {}",
        rewritten.expr
    );
}

#[test]
fn merging_respects_duplicate_elimination_boundaries() {
    // SearchMerge must not merge across DEDUP: the distinct view's
    // duplicate elimination is semantically load-bearing.
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TABLE T (X : INT);
         CREATE VIEW D (X) AS SELECT DISTINCT X FROM T ;",
    )
    .unwrap();
    dbms.insert_all("T", vec![vec![1.into()], vec![1.into()], vec![2.into()]])
        .unwrap();
    let sql = "SELECT X FROM D WHERE X > 0 ;";
    let prepared = dbms.prepare(sql).unwrap();
    let rewritten = dbms.rewrite(&prepared).unwrap();
    // Bag-level equivalence: the duplicate 1 must stay eliminated.
    let baseline = dbms.run_expr(&prepared.expr).unwrap();
    let optimized = dbms.run_expr(&rewritten.expr).unwrap();
    assert!(baseline.bag_eq(&optimized), "duplicates differ");
    assert_eq!(optimized.canonical().rows.len(), 2);
    // The DEDUP operator survives somewhere in the plan.
    fn has_dedup(e: &Expr) -> bool {
        matches!(e, Expr::Dedup(_)) || e.children().iter().any(|c| has_dedup(c))
    }
    assert!(has_dedup(&rewritten.expr), "{}", rewritten.expr);
}

#[test]
fn rewriting_is_bag_preserving_on_duplicate_heavy_data() {
    // Stronger than set equivalence: multiplicities must survive the
    // whole default pipeline (ESQL blocks produce bags by default).
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TABLE T (X : INT, Y : INT);
         CREATE VIEW V (X, Y) AS SELECT X, Y FROM T WHERE X >= 0 ;",
    )
    .unwrap();
    for _ in 0..3 {
        dbms.insert("T", vec![1.into(), 2.into()]).unwrap();
    }
    dbms.insert("T", vec![2.into(), 2.into()]).unwrap();
    for sql in [
        "SELECT Y FROM V WHERE Y = 2 ;",
        "SELECT A.X FROM V A, V B WHERE A.X = B.X ;",
        "SELECT X FROM V UNION SELECT X FROM T ;",
    ] {
        let prepared = dbms.prepare(sql).unwrap();
        let rewritten = dbms.rewrite(&prepared).unwrap();
        let baseline = dbms.run_expr(&prepared.expr).unwrap();
        let optimized = dbms.run_expr(&rewritten.expr).unwrap();
        assert!(
            baseline.bag_eq(&optimized),
            "multiplicities changed for {sql}: {:?} vs {:?}",
            baseline.canonical().rows,
            optimized.canonical().rows
        );
    }
}

#[test]
fn negation_normalization_exposes_contradictions() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl("TABLE T (X : INT);").unwrap();
    dbms.insert_all(
        "T",
        (0..20i64).map(|i| vec![Value::Int(i)]).collect::<Vec<_>>(),
    )
    .unwrap();
    // NOT(X > 5) AND X > 9  ⇒  X <= 5 AND X > 9  ⇒  FALSE.
    let sql = "SELECT X FROM T WHERE NOT (X > 5) AND X > 9 ;";
    let rewritten = dbms.rewrite(&dbms.prepare(sql).unwrap()).unwrap();
    let Expr::Search { pred, .. } = &*rewritten.expr else {
        panic!()
    };
    assert!(pred.is_false(), "expected FALSE, got {pred}");
    assert_equivalent(&dbms, sql);
    // De Morgan + folding: NOT(X > 5 OR X < 2) ⇒ X <= 5 AND X >= 2.
    let sql = "SELECT X FROM T WHERE NOT (X > 5 OR X < 2) ;";
    assert_equivalent(&dbms, sql);
    assert_eq!(dbms.query(sql).unwrap().len(), 4); // 2, 3, 4, 5
}
