//! Fixpoint corner cases: cycles, self-loops, mutual reachability,
//! multiple recursive branches, and nested recursion scopes.

use eds_adt::{CollKind, Value};
use eds_engine::{eval, eval_reference, eval_with, Database, EngineError, EvalOptions};
use eds_esql::parse_query;
use eds_lera::{infer_schema, translate_query, Expr, LeraError, Scalar, SchemaCtx};

fn tc_db(edges: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.execute_ddl(
        "TABLE EDGE (S : INT, D : INT);
         CREATE VIEW TC (S, D) AS
         ( SELECT S, D FROM EDGE
           UNION SELECT A.S, B.D FROM TC A, TC B WHERE A.D = B.S ) ;",
    )
    .unwrap();
    for &(s, d) in edges {
        db.insert("EDGE", vec![s.into(), d.into()]).unwrap();
    }
    db
}

/// `TC`'s closure from the executor, which must return the oracle's
/// rows in its order.
fn closure(db: &Database) -> Vec<Vec<Value>> {
    let q = parse_query("SELECT S, D FROM TC ;").unwrap();
    let ctx = SchemaCtx::new(&db.catalog);
    let (expr, _) = translate_query(&q, &ctx).unwrap();
    let got = eval(&expr, db).unwrap();
    let oracle = eval_reference(&expr, db, EvalOptions::default()).unwrap();
    assert_eq!(got.rows, oracle.rows, "{expr}");
    got.sorted_rows()
}

#[test]
fn self_loop_terminates() {
    let db = tc_db(&[(1, 1)]);
    assert_eq!(closure(&db), vec![vec![Value::Int(1), Value::Int(1)]]);
}

#[test]
fn two_cycle_reaches_everything_within_it() {
    let db = tc_db(&[(1, 2), (2, 1)]);
    let expected: Vec<Vec<Value>> = vec![
        vec![1.into(), 1.into()],
        vec![1.into(), 2.into()],
        vec![2.into(), 1.into()],
        vec![2.into(), 2.into()],
    ];
    assert_eq!(closure(&db), expected);
}

#[test]
fn disconnected_components_stay_disconnected() {
    let db = tc_db(&[(1, 2), (10, 11), (11, 12)]);
    let rows = closure(&db);
    assert!(rows.contains(&vec![10.into(), 12.into()]));
    assert!(!rows
        .iter()
        .any(|r| r[0] == Value::Int(1) && r[1] == Value::Int(10)));
    assert!(!rows
        .iter()
        .any(|r| r[0] == Value::Int(1) && r[1] == Value::Int(12)));
}

#[test]
fn multiple_recursive_branches() {
    // Reachability over two edge relations, both recursive branches.
    let mut db = Database::new();
    db.execute_ddl(
        "TABLE ROAD (S : INT, D : INT);
         TABLE RAIL (S : INT, D : INT);
         INSERT INTO ROAD VALUES (1, 2);
         INSERT INTO RAIL VALUES (2, 3);
         CREATE VIEW GO (S, D) AS
         ( SELECT S, D FROM ROAD
           UNION SELECT S, D FROM RAIL
           UNION SELECT G.S, R.D FROM GO G, ROAD R WHERE G.D = R.S
           UNION SELECT G.S, R.D FROM GO G, RAIL R WHERE G.D = R.S ) ;",
    )
    .unwrap();
    let q = parse_query("SELECT D FROM GO WHERE S = 1 ;").unwrap();
    let ctx = SchemaCtx::new(&db.catalog);
    let (expr, _) = translate_query(&q, &ctx).unwrap();
    let rows = eval(&expr, &db).unwrap().sorted_rows();
    assert_eq!(rows, vec![vec![Value::Int(2)], vec![Value::Int(3)]]);
}

#[test]
fn view_over_recursive_view() {
    let mut db = tc_db(&[(1, 2), (2, 3), (3, 4)]);
    db.execute_ddl("CREATE VIEW FAR (S, D) AS SELECT S, D FROM TC WHERE D - S >= 2 ;")
        .unwrap();
    let q = parse_query("SELECT S, D FROM FAR WHERE S = 1 ;").unwrap();
    let ctx = SchemaCtx::new(&db.catalog);
    let (expr, _) = translate_query(&q, &ctx).unwrap();
    let rows = eval(&expr, &db).unwrap().sorted_rows();
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(1), Value::Int(3)],
            vec![Value::Int(1), Value::Int(4)],
        ]
    );
}

/// `fix(R, EDGE ∪ R ⋈ EDGE)`: the transitive closure of `EDGE`.
fn tc_fix() -> Expr {
    let step = Expr::search(
        vec![Expr::base("R"), Expr::base("EDGE")],
        Scalar::eq(Scalar::attr(1, 2), Scalar::attr(2, 1)),
        vec![Scalar::attr(1, 1), Scalar::attr(2, 2)],
    );
    Expr::Fix {
        name: "R".into(),
        body: Box::new(Expr::Union(vec![Expr::base("EDGE"), step])),
    }
}

/// A fixpoint's locals are shared with the operators that read them and
/// grow in place between rounds; neither may leak across fixpoints. Two
/// plans pin it against the oracle: the view queried inside a `union`
/// with the view itself, and a closure whose recursive branch first
/// evaluates an inner `fix` that rebinds `R` — the outer `R` read right
/// after it must be the outer one again.
#[test]
fn locals_are_restored_around_a_shadowing_fix() {
    let db = tc_db(&[(1, 2), (2, 3), (3, 4), (4, 2), (7, 8)]);
    let q = parse_query("SELECT S, D FROM TC UNION SELECT S, D FROM TC WHERE S = 2 ;").unwrap();
    let (union, _) = translate_query(&q, &SchemaCtx::new(&db.catalog)).unwrap();
    // `fix(R, EDGE ∪ π(fix(R, …) ⋈ R))`: paths through any closure pair.
    let shadowed = Expr::Fix {
        name: "R".into(),
        body: Box::new(Expr::Union(vec![
            Expr::base("EDGE"),
            Expr::search(
                vec![tc_fix(), Expr::base("R")],
                Scalar::eq(Scalar::attr(1, 2), Scalar::attr(2, 1)),
                vec![Scalar::attr(1, 1), Scalar::attr(2, 2)],
            ),
        ])),
    };
    let closure_rows = closure(&db);
    for expr in [&union, &shadowed] {
        let got = eval(expr, &db).unwrap();
        let oracle = eval_reference(expr, &db, EvalOptions::default()).unwrap();
        assert_eq!(got.rows, oracle.rows, "{expr}");
    }
    let got = eval(&shadowed, &db).unwrap();
    assert_eq!(got.sorted_rows(), closure_rows);
}

#[test]
fn empty_seed_yields_empty_fixpoint() {
    let db = tc_db(&[]);
    assert!(closure(&db).is_empty());
}

/// `nest` and `unnest` type their output from the relation they just
/// evaluated, not by re-inferring the plan below them: over a derived
/// input (a projection that reorders `EDGE`), grouped from the columns
/// of a stored table and on the row path, and inside a recursive body —
/// both branches of a `fix` — the schema is `infer_schema`'s and the
/// rows are the oracle's.
#[test]
fn nest_and_unnest_type_from_their_evaluated_input() {
    let db = tc_db(&[(1, 2), (1, 3), (2, 3), (3, 1), (4, 4)]);
    let sc = SchemaCtx::new(&db.catalog);
    let swapped = |from: Expr| {
        Expr::search(
            vec![from],
            Scalar::true_(),
            vec![Scalar::attr(1, 2), Scalar::attr(1, 1)],
        )
    };
    let nest = |input: Expr| Expr::Nest {
        input: Box::new(input),
        group: vec![1],
        nested: vec![2],
        kind: CollKind::Set,
    };
    let unnest = |input: Expr| Expr::Unnest {
        input: Box::new(input),
        attr: 2,
    };
    let step = Expr::search(
        vec![Expr::base("R"), Expr::base("EDGE")],
        Scalar::eq(Scalar::attr(1, 2), Scalar::attr(2, 1)),
        vec![Scalar::attr(1, 1), Scalar::attr(2, 2)],
    );
    let recursive = Expr::Fix {
        name: "R".into(),
        body: Box::new(Expr::Union(vec![
            unnest(nest(swapped(Expr::base("EDGE")))),
            unnest(nest(swapped(step))),
        ])),
    };
    let plans = [
        nest(swapped(Expr::base("EDGE"))),
        unnest(nest(swapped(Expr::base("EDGE")))),
        recursive.clone(),
        nest(recursive),
    ];
    for expr in &plans {
        let want = infer_schema(expr, &sc).unwrap();
        let oracle = eval_reference(expr, &db, EvalOptions::default()).unwrap();
        for columnar in [true, false] {
            let opts = EvalOptions {
                columnar,
                ..EvalOptions::default()
            };
            let got = eval_with(expr, &db, opts).unwrap().0;
            assert_eq!(*got.schema, want, "{expr} (columnar {columnar})");
            assert_eq!(got.rows, oracle.rows, "{expr} (columnar {columnar})");
        }
    }
}

/// A `fix` whose every branch is recursive is the empty relation, typed
/// as what its name already denotes: an enclosing `fix`'s local or a
/// catalog table. A name that denotes nothing is the typed error
/// `infer_schema` gives, from the executor and the oracle alike.
#[test]
fn a_seedless_fix_is_typed_by_its_name_or_refused() {
    let db = tc_db(&[(1, 2), (2, 3)]);
    let sc = SchemaCtx::new(&db.catalog);
    let seedless = |name: &str| Expr::Fix {
        name: name.into(),
        body: Box::new(Expr::search(
            vec![Expr::base(name)],
            Scalar::true_(),
            vec![Scalar::attr(1, 2), Scalar::attr(1, 1)],
        )),
    };
    // `fix(R, EDGE ∪ π(fix(R, π R) ⋈ R))`: the inner `R` is the outer one.
    let inner = Expr::Fix {
        name: "R".into(),
        body: Box::new(Expr::Union(vec![
            Expr::base("EDGE"),
            Expr::search(
                vec![seedless("R"), Expr::base("R")],
                Scalar::eq(Scalar::attr(1, 2), Scalar::attr(2, 1)),
                vec![Scalar::attr(1, 1), Scalar::attr(2, 2)],
            ),
        ])),
    };
    for expr in [seedless("EDGE"), inner] {
        let got = eval(&expr, &db).unwrap();
        let oracle = eval_reference(&expr, &db, EvalOptions::default()).unwrap();
        assert_eq!(*got.schema, infer_schema(&expr, &sc).unwrap(), "{expr}");
        assert_eq!(got.rows, oracle.rows, "{expr}");
    }
    assert!(eval(&seedless("EDGE"), &db).unwrap().is_empty());

    let unknown = seedless("NOWHERE");
    let want = "cannot infer schema of fix(NOWHERE, ...): every branch is recursive";
    for (who, got) in [
        ("executor", eval(&unknown, &db)),
        (
            "oracle",
            eval_reference(&unknown, &db, EvalOptions::default()),
        ),
    ] {
        assert!(
            matches!(&got, Err(EngineError::Lera(LeraError::Type(m))) if m == want),
            "the {who} returned {got:?}"
        );
    }
    assert!(matches!(
        infer_schema(&unknown, &sc),
        Err(LeraError::Type(m)) if m == want
    ));
}
