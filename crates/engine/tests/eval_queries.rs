//! End-to-end engine tests: parse ESQL, translate to LERA, evaluate.

use eds_adt::Value;
use eds_engine::{eval, eval_reference, eval_with, Database, EvalOptions};
use eds_esql::parse_query;
use eds_lera::{translate_query, SchemaCtx};

/// The paper's Figure-2 film database with a small population.
fn film_db() -> Database {
    let mut db = Database::new();
    db.execute_ddl(
        "TYPE Category ENUMERATION OF ('Comedy', 'Adventure', 'Science Fiction', 'Western') ;
         TYPE Person OBJECT TUPLE ( Name : CHAR, Firstname : SET OF CHAR) ;
         TYPE Actor SUBTYPE OF Person OBJECT TUPLE (Salary : NUMERIC) ;
         TYPE Text LIST OF CHAR ;
         TYPE SetCategory SET OF Category ;
         TABLE FILM ( Numf : NUMERIC, Title : CHAR, Categories : SetCategory) ;
         TABLE APPEARS_IN ( Numf : NUMERIC, Refactor : Actor) ;
         TABLE DOMINATE ( Numf : NUMERIC, Refactor1 : Actor, Refactor2 : Actor) ;",
    )
    .unwrap();

    let actor = |db: &mut Database, name: &str, salary: i64| {
        db.create_object(
            "Actor",
            Value::Tuple(vec![
                Value::str(name),
                Value::set(vec![]),
                Value::Int(salary),
            ]),
        )
    };
    let quinn = actor(&mut db, "Quinn", 12_000);
    let marla = actor(&mut db, "Marla", 20_000);
    let pedro = actor(&mut db, "Pedro", 8_000);

    db.insert_all(
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
    db.insert_all(
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
    // Tennis results: Marla beats Quinn, Quinn beats Pedro.
    db.insert_all(
        "DOMINATE",
        vec![
            vec![Value::Int(1), marla.clone(), quinn.clone()],
            vec![Value::Int(1), quinn.clone(), pedro.clone()],
        ],
    )
    .unwrap();
    db
}

fn run(db: &Database, sql: &str) -> Vec<Vec<Value>> {
    let q = parse_query(sql).unwrap();
    let ctx = SchemaCtx::new(&db.catalog);
    let (expr, _) = translate_query(&q, &ctx).unwrap();
    eval(&expr, db).unwrap().sorted_rows()
}

#[test]
fn figure3_query_results() {
    let db = film_db();
    let rows = run(
        &db,
        "SELECT Title, Categories, Salary(Refactor) \
         FROM FILM, APPEARS_IN \
         WHERE FILM.Numf = APPEARS_IN.Numf \
         AND Name(Refactor) = 'Quinn' \
         AND MEMBER('Adventure', Categories) ;",
    );
    // Quinn appears in films 1 and 2; only film 1 is Adventure.
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], Value::str("Desert Run"));
    assert_eq!(rows[0][2], Value::Int(12_000));
}

#[test]
fn figure4_nested_view_and_all_quantifier() {
    let mut db = film_db();
    db.execute_ddl(
        "CREATE VIEW FilmActors (Title, Categories, Actors) AS \
         SELECT Title, Categories, MakeSet(Refactor) \
         FROM FILM, APPEARS_IN \
         WHERE FILM.Numf = APPEARS_IN.Numf \
         GROUP BY Title, Categories ;",
    )
    .unwrap();
    let rows = run(
        &db,
        "SELECT Title FROM FilmActors \
         WHERE MEMBER('Adventure', Categories) AND ALL (Salary(Actors) > 10_000) ;",
    );
    // Desert Run (Quinn 12k, Marla 20k) qualifies; Star Cargo has Pedro
    // at 8k; Laugh Lines is not Adventure.
    assert_eq!(rows, vec![vec![Value::str("Desert Run")]]);
}

#[test]
fn figure5_recursive_view_transitive_closure() {
    let mut db = film_db();
    db.execute_ddl(
        "CREATE VIEW BETTER_THAN (Refactor1, Refactor2) AS \
         ( SELECT Refactor1, Refactor2 FROM DOMINATE \
           UNION \
           SELECT B1.Refactor1, B2.Refactor2 \
           FROM BETTER_THAN B1, BETTER_THAN B2 \
           WHERE B1.Refactor2 = B2.Refactor1 ) ;",
    )
    .unwrap();
    // Who dominates Quinn? Directly: Marla. (Marla > Quinn > Pedro.)
    let rows = run(
        &db,
        "SELECT Name(Refactor1) FROM BETTER_THAN WHERE Name(Refactor2) = 'Quinn' ;",
    );
    assert_eq!(rows, vec![vec![Value::str("Marla")]]);
    // Who does Marla dominate? Quinn directly, Pedro transitively.
    let rows = run(
        &db,
        "SELECT Name(Refactor2) FROM BETTER_THAN WHERE Name(Refactor1) = 'Marla' ;",
    );
    assert_eq!(
        rows,
        vec![vec![Value::str("Pedro")], vec![Value::str("Quinn")]]
    );
}

#[test]
fn seminaive_fixpoint_matches_the_oracle() {
    let mut db = Database::new();
    db.execute_ddl(
        "TABLE EDGE (Src : INT, Dst : INT);\n\
         CREATE VIEW TC (Src, Dst) AS \
         ( SELECT Src, Dst FROM EDGE \
           UNION \
           SELECT T1.Src, T2.Dst FROM TC T1, TC T2 WHERE T1.Dst = T2.Src ) ;",
    )
    .unwrap();
    // A chain 0 -> 1 -> ... -> 8 plus a branch.
    for i in 0..8i64 {
        db.insert("EDGE", vec![i.into(), (i + 1).into()]).unwrap();
    }
    db.insert("EDGE", vec![2.into(), 7.into()]).unwrap();

    let q = parse_query("SELECT Src, Dst FROM TC ;").unwrap();
    let ctx = SchemaCtx::new(&db.catalog);
    let (expr, _) = translate_query(&q, &ctx).unwrap();

    let (got, _) = eval_with(&expr, &db, EvalOptions::default()).unwrap();
    let oracle = eval_reference(&expr, &db, EvalOptions::default()).unwrap();
    assert_eq!(got.rows, oracle.rows, "the oracle's rows, in its order");
    // The chain's 8*9/2 = 36 pairs; the 2->7 edge adds none.
    assert_eq!(got.deduped().len(), 36);
}

#[test]
fn union_difference_intersection() {
    let mut db = Database::new();
    db.execute_ddl("TABLE A (X : INT); TABLE B (X : INT);")
        .unwrap();
    db.insert_all("A", vec![vec![1.into()], vec![2.into()], vec![2.into()]])
        .unwrap();
    db.insert_all("B", vec![vec![2.into()], vec![3.into()]])
        .unwrap();

    let rows = run(&db, "SELECT X FROM A UNION SELECT X FROM B ;");
    assert_eq!(rows.len(), 3); // sorted_rows dedups: 1, 2, 3

    use eds_lera::Expr;
    let diff = Expr::Difference(Box::new(Expr::base("A")), Box::new(Expr::base("B")));
    assert_eq!(
        eval(&diff, &db).unwrap().sorted_rows(),
        vec![vec![Value::Int(1)]]
    );
    let inter = Expr::Intersect(Box::new(Expr::base("A")), Box::new(Expr::base("B")));
    assert_eq!(
        eval(&inter, &db).unwrap().sorted_rows(),
        vec![vec![Value::Int(2)]]
    );
}

/// `difference` and `intersect` of relations of different arity are the
/// typed error `union` gives, from the executor and the oracle alike —
/// not an answer — and `infer_schema` rejects all three.
#[test]
fn set_operations_reject_mismatched_arities() {
    use eds_engine::{eval_reference, EngineError};
    use eds_lera::{infer_schema, Expr, LeraError};

    let mut db = Database::new();
    db.execute_ddl("TABLE A (X : INT); TABLE B (X : INT, Y : INT);")
        .unwrap();
    db.insert_all("A", vec![vec![1.into()], vec![2.into()]])
        .unwrap();
    db.insert_all("B", vec![vec![2.into(), 3.into()]]).unwrap();

    let (a, b) = (Box::new(Expr::base("A")), Box::new(Expr::base("B")));
    for (expr, op) in [
        (Expr::Union(vec![*a.clone(), *b.clone()]), "union"),
        (Expr::Difference(a.clone(), b.clone()), "difference"),
        (Expr::Intersect(a.clone(), b.clone()), "intersect"),
    ] {
        let want = format!("{op} arity mismatch");
        for (who, got) in [
            ("executor", eval(&expr, &db)),
            ("oracle", eval_reference(&expr, &db, EvalOptions::default())),
        ] {
            assert!(
                matches!(&got, Err(EngineError::Lera(LeraError::Type(m))) if *m == want),
                "{op}: the {who} returned {got:?}"
            );
        }
        assert!(
            infer_schema(&expr, &SchemaCtx::new(&db.catalog)).is_err(),
            "{op}: infer_schema accepts it"
        );
    }
}

#[test]
fn three_valued_logic_filters_nulls() {
    let mut db = Database::new();
    db.execute_ddl("TABLE T (X : INT);").unwrap();
    db.insert_all("T", vec![vec![1.into()], vec![Value::Null], vec![5.into()]])
        .unwrap();
    // NULL > 2 is unknown -> filtered out.
    let rows = run(&db, "SELECT X FROM T WHERE X > 2 ;");
    assert_eq!(rows, vec![vec![Value::Int(5)]]);
    // NOT (NULL > 2) is also unknown.
    let rows = run(&db, "SELECT X FROM T WHERE NOT (X > 2) ;");
    assert_eq!(rows, vec![vec![Value::Int(1)]]);
}

#[test]
fn distinct_dedups() {
    let mut db = Database::new();
    db.execute_ddl("TABLE T (X : INT);").unwrap();
    db.insert_all("T", vec![vec![1.into()], vec![1.into()], vec![2.into()]])
        .unwrap();
    let q = parse_query("SELECT DISTINCT X FROM T ;").unwrap();
    let ctx = SchemaCtx::new(&db.catalog);
    let (expr, _) = translate_query(&q, &ctx).unwrap();
    let rel = eval(&expr, &db).unwrap();
    assert_eq!(rel.len(), 2); // physically deduplicated, not just sorted view
}

#[test]
fn in_list_membership() {
    let mut db = Database::new();
    db.execute_ddl("TABLE T (X : INT);").unwrap();
    db.insert_all(
        "T",
        (0..10i64).map(|i| vec![Value::Int(i)]).collect::<Vec<_>>(),
    )
    .unwrap();
    let rows = run(&db, "SELECT X FROM T WHERE X IN (2, 4, 6) ;");
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(2)],
            vec![Value::Int(4)],
            vec![Value::Int(6)]
        ]
    );
}

#[test]
fn arithmetic_in_projection() {
    let mut db = Database::new();
    db.execute_ddl("TABLE T (X : INT, Y : INT);").unwrap();
    db.insert("T", vec![3.into(), 4.into()]).unwrap();
    let rows = run(&db, "SELECT X + Y * 2 FROM T ;");
    assert_eq!(rows, vec![vec![Value::Int(11)]]);
}

#[test]
fn empty_input_shortcuts() {
    let mut db = Database::new();
    db.execute_ddl("TABLE T (X : INT); TABLE U (Y : INT);")
        .unwrap();
    db.insert("T", vec![1.into()]).unwrap();
    // U is empty: the cross product is empty.
    let rows = run(&db, "SELECT X FROM T, U ;");
    assert!(rows.is_empty());
}

#[test]
fn aggregates_over_group_by_collections() {
    let mut db = Database::new();
    db.execute_ddl(
        "TABLE SALES (Region : CHAR, Amount : INT);
         INSERT INTO SALES VALUES
           ('north', 10), ('north', 30), ('south', 5), ('south', 7), ('south', 9);",
    )
    .unwrap();
    // Aggregation = function over a constructed collection.
    let rows = run(
        &db,
        "SELECT Region, COUNT(MakeBag(Amount)), SUM(MakeBag(Amount)), \
                MAX(MakeBag(Amount)) \
         FROM SALES GROUP BY Region ;",
    );
    assert_eq!(
        rows,
        vec![
            vec![
                Value::str("north"),
                Value::Int(2),
                Value::Int(40),
                Value::Int(30)
            ],
            vec![
                Value::str("south"),
                Value::Int(3),
                Value::Int(21),
                Value::Int(9)
            ],
        ]
    );
}

#[test]
fn aggregate_having_and_reordered_projection() {
    let mut db = Database::new();
    db.execute_ddl(
        "TABLE SALES (Region : CHAR, Amount : INT);
         INSERT INTO SALES VALUES ('a', 1), ('a', 2), ('b', 10);",
    )
    .unwrap();
    // Collection first, group expression second: needs the reordering
    // projection above the nest.
    let rows = run(
        &db,
        "SELECT SUM(MakeBag(Amount)), Region FROM SALES GROUP BY Region ;",
    );
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(3), Value::str("a")],
            vec![Value::Int(10), Value::str("b")],
        ]
    );
    // HAVING over the aggregate output schema.
    let rows = run(
        &db,
        "SELECT Region, SUM(MakeBag(Amount)) AS Total FROM SALES \
         GROUP BY Region HAVING Total > 5 ;",
    );
    assert_eq!(rows, vec![vec![Value::str("b"), Value::Int(10)]]);
}

#[test]
fn unnest_operator_flattens_collections() {
    use eds_lera::Expr;
    let mut db = Database::new();
    db.execute_ddl(
        "TYPE Tags SET OF CHAR;
         TABLE DOC (Id : INT, Tags : Tags);
         INSERT INTO DOC VALUES (1, MakeSet('x', 'y')), (2, MakeSet('y'));",
    )
    .unwrap();
    let unnest = Expr::Unnest {
        input: Box::new(Expr::base("DOC")),
        attr: 2,
    };
    let rows = eval(&unnest, &db).unwrap().sorted_rows();
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(1), Value::str("x")],
            vec![Value::Int(1), Value::str("y")],
            vec![Value::Int(2), Value::str("y")],
        ]
    );
}

#[test]
fn in_subquery_membership() {
    let mut db = Database::new();
    db.execute_ddl(
        "TABLE EMP (Id : INT, Dept : CHAR);
         TABLE BIG (Dept : CHAR, Size : INT);
         INSERT INTO EMP VALUES (1, 'r'), (2, 's'), (3, 'r'), (3, 'r');
         INSERT INTO BIG VALUES ('r', 10), ('r', 20), ('t', 5);",
    )
    .unwrap();
    // Duplicates in the subquery must not multiply outer rows; EMP's own
    // duplicate row survives (bag semantics on the outer side).
    let q = parse_query("SELECT Id FROM EMP WHERE Dept IN (SELECT Dept FROM BIG) ;").unwrap();
    let ctx = SchemaCtx::new(&db.catalog);
    let (expr, _) = translate_query(&q, &ctx).unwrap();
    let rel = eval(&expr, &db).unwrap();
    let mut ids: Vec<i64> = rel.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    ids.sort();
    assert_eq!(ids, vec![1, 3, 3]);
}

#[test]
fn in_subquery_combines_with_other_predicates() {
    let mut db = Database::new();
    db.execute_ddl(
        "TABLE EMP (Id : INT, Dept : CHAR);
         TABLE BIG (Dept : CHAR);
         INSERT INTO EMP VALUES (1, 'r'), (2, 'r'), (3, 's');
         INSERT INTO BIG VALUES ('r'), ('s');",
    )
    .unwrap();
    let rows = run(
        &db,
        "SELECT Id FROM EMP WHERE Id > 1 AND Dept IN (SELECT Dept FROM BIG) AND Id < 3 ;",
    );
    assert_eq!(rows, vec![vec![Value::Int(2)]]);
}

#[test]
fn in_subquery_arity_and_position_checks() {
    let mut db = Database::new();
    db.execute_ddl("TABLE T (X : INT, Y : INT);").unwrap();
    let ctx = SchemaCtx::new(&db.catalog);
    // Two-column subquery rejected.
    let q = parse_query("SELECT X FROM T WHERE X IN (SELECT X, Y FROM T) ;").unwrap();
    assert!(translate_query(&q, &ctx).is_err());
    // Subquery under OR rejected with a clear error.
    let q = parse_query("SELECT X FROM T WHERE X = 1 OR X IN (SELECT Y FROM T) ;").unwrap();
    assert!(translate_query(&q, &ctx).is_err());
}

/// R, S and T of 30 rows each, joined by two links.
fn rst_db() -> Database {
    let mut db = Database::new();
    db.execute_ddl(
        "TABLE R (A : INT, B : INT);
         TABLE S (B : INT, C : INT);
         TABLE T (C : INT);",
    )
    .unwrap();
    for i in 0..30i64 {
        db.insert("R", vec![i.into(), (i % 7).into()]).unwrap();
        db.insert("S", vec![(i % 7).into(), (i % 5).into()])
            .unwrap();
        db.insert("T", vec![(i % 5).into()]).unwrap();
    }
    db
}

fn rst_join(db: &Database, extra: &str) -> eds_lera::Expr {
    let q = parse_query(&format!(
        "SELECT R.A FROM R, S, T WHERE R.B = S.B AND S.C = T.C AND {extra} ;"
    ))
    .unwrap();
    translate_query(&q, &SchemaCtx::new(&db.catalog)).unwrap().0
}

/// One run reports both: the cross product a nested loop would try, and
/// the fewer combinations the executor examined — with the reference
/// interpreter's rows in its order.
#[test]
fn a_join_reports_its_cross_product_beside_its_own_work() {
    let db = rst_db();
    let expr = rst_join(&db, "R.A > 3");
    let (rel, stats) = eval_with(&expr, &db, EvalOptions::default()).unwrap();
    let oracle = eval_reference(&expr, &db, EvalOptions::default()).unwrap();
    assert_eq!(rel.rows, oracle.rows);
    assert_eq!(stats.cross_product, 27_000);
    assert!(
        stats.combinations_tried < stats.cross_product,
        "examined {} of {}",
        stats.combinations_tried,
        stats.cross_product
    );
}

/// A local conjunct that rejects every row of one input: nothing is
/// examined, yet the plan's logical work is the full product.
#[test]
fn an_emptied_input_examines_nothing_but_keeps_its_cross_product() {
    let db = rst_db();
    let (rel, stats) = eval_with(&rst_join(&db, "T.C > 100"), &db, EvalOptions::default()).unwrap();
    assert!(rel.is_empty());
    assert_eq!(stats.combinations_tried, 0);
    assert_eq!(stats.cross_product, 27_000);
}

/// A FALSE qualification or an empty input short-circuits before either
/// join counter moves.
#[test]
fn a_false_qualification_or_an_empty_input_counts_nothing() {
    use eds_lera::{Expr, Scalar};
    let mut db = rst_db();
    db.execute_ddl("TABLE E (C : INT);").unwrap();
    let search = |inputs: &[&str], pred: Scalar| {
        Expr::search(
            inputs.iter().map(|&name| Expr::base(name)).collect(),
            pred,
            vec![Scalar::attr(1, 1)],
        )
    };
    let linked = Scalar::eq(Scalar::attr(1, 2), Scalar::attr(2, 1));
    for expr in [
        search(&["R", "S"], Scalar::false_()),
        search(&["R"], Scalar::false_()),
        search(&["R", "E"], linked),
        search(&["E"], Scalar::true_()),
    ] {
        let (rel, stats) = eval_with(&expr, &db, EvalOptions::default()).unwrap();
        assert!(rel.is_empty(), "{expr}");
        assert_eq!(stats.combinations_tried, 0, "{expr}");
        assert_eq!(stats.cross_product, 0, "{expr}");
    }
}

#[test]
fn hash_join_cross_product_fallback() {
    let mut db = Database::new();
    db.execute_ddl(
        "TABLE A (X : INT); TABLE B (Y : INT);
         INSERT INTO A VALUES (1), (2);
         INSERT INTO B VALUES (10), (20);",
    )
    .unwrap();
    let q = parse_query("SELECT X, Y FROM A, B WHERE X + Y > 11 ;").unwrap();
    let ctx = SchemaCtx::new(&db.catalog);
    let (expr, _) = translate_query(&q, &ctx).unwrap();
    let (rel, stats) = eval_with(&expr, &db, EvalOptions::default()).unwrap();
    let oracle = eval_reference(&expr, &db, EvalOptions::default()).unwrap();
    assert_eq!(rel.rows, oracle.rows);
    // (1, 20), (2, 10) and (2, 20) pass; (1, 10) does not.
    assert_eq!(rel.len(), 3);
    // No equality links B: a cross step examines every pair.
    assert_eq!((stats.combinations_tried, stats.cross_product), (2 + 4, 4));
}

/// A target list of plain attributes copies slots straight from each
/// combination; a slot a row does not have falls back to the general
/// program, which reports the typed error the oracle does — on the join
/// path and on the one-input row path, under columnar {off, on}, without
/// a panic. `T` holds one row shorter than its schema.
#[test]
fn a_slot_past_a_rows_arity_is_a_typed_error() {
    use eds_engine::EngineError;
    use eds_lera::{Expr, LeraError, Scalar};

    let mut db = Database::new();
    db.execute_ddl("TABLE T (A : INT, B : INT); TABLE U (A : INT, C : INT);")
        .unwrap();
    for i in 0..4i64 {
        db.insert("T", vec![Value::Int(i), Value::Int(10 * i)])
            .unwrap();
        db.insert("U", vec![Value::Int(i), Value::Int(-i)]).unwrap();
    }
    db.relation_mut("T").unwrap().push(vec![Value::Int(2)]);
    let join = Expr::search(
        vec![Expr::base("T"), Expr::base("U")],
        Scalar::eq(Scalar::attr(1, 1), Scalar::attr(2, 1)),
        vec![Scalar::attr(2, 2), Scalar::attr(1, 2)],
    );
    let rows = Expr::search(
        vec![Expr::base("T")],
        Scalar::cmp(eds_lera::CmpOp::Ge, Scalar::attr(1, 1), Scalar::lit(0)),
        vec![Scalar::attr(1, 1), Scalar::attr(1, 2)],
    );
    let bad = |got: Result<_, EngineError>| {
        matches!(got, Err(EngineError::Lera(LeraError::BadAttrRef { .. })))
    };
    for plan in [join, rows] {
        assert!(
            bad(eval_reference(&plan, &db, EvalOptions::default()).map(|_| ())),
            "oracle: {plan}"
        );
        for columnar in [false, true] {
            let opts = EvalOptions {
                columnar,
                ..EvalOptions::default()
            };
            let got = eval_with(&plan, &db, opts);
            assert!(bad(got.map(|_| ())), "{plan} columnar={columnar}");
        }
    }
}
