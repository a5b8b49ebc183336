//! Hash-join key edge cases: NULL join keys, mixed-type keys, and
//! qualifications the key extractor cannot hash (non-equality conjuncts).
//! Every query must return exactly the reference executor's rows — values
//! and order.

use eds_adt::Value;
use eds_engine::{eval_reference, eval_with, Database, EngineError, EvalOptions, BLOCK_ROWS};
use eds_lera::{CmpOp, Expr, Scalar};

/// Two tables whose keys exercise the awkward cases: NULLs on both sides,
/// and keys of mixed runtime type (integers, strings, bools).
fn edge_db() -> Database {
    let mut db = Database::new();
    db.execute_ddl(
        "TABLE L ( K : NUMERIC, A : NUMERIC ) ;
         TABLE R ( K : NUMERIC, B : NUMERIC ) ;",
    )
    .unwrap();
    db.insert_all(
        "L",
        vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(20)],
            vec![Value::Null, Value::Int(30)],
            vec![Value::str("2"), Value::Int(40)], // string "2", not int 2
            vec![Value::Bool(true), Value::Int(50)],
            vec![Value::Int(2), Value::Int(60)], // duplicate key
        ],
    )
    .unwrap();
    db.insert_all(
        "R",
        vec![
            vec![Value::Int(2), Value::Int(200)],
            vec![Value::Null, Value::Int(300)],
            vec![Value::str("2"), Value::Int(400)],
            vec![Value::Bool(true), Value::Int(500)],
            vec![Value::Int(9), Value::Int(900)],
        ],
    )
    .unwrap();
    db
}

/// Evaluate; assert the run returns the reference interpreter's rows in
/// its order, then return them sorted.
fn agrees_with_the_reference(db: &Database, expr: &Expr) -> Vec<Vec<Value>> {
    let reference = eval_reference(expr, db, EvalOptions::default()).expect("reference evaluates");
    let rel = eval_with(expr, db, EvalOptions::default())
        .expect("evaluates")
        .0;
    assert_eq!(rel.rows, reference.rows, "diverges from reference");
    reference.sorted_rows()
}

fn equi_join(extra: Option<Scalar>) -> Expr {
    // SEARCH(L, R | L.K = R.K [AND extra] | L.A, R.B)
    let key_eq = Scalar::eq(Scalar::attr(1, 1), Scalar::attr(2, 1));
    let pred = match extra {
        Some(e) => Scalar::and(key_eq, e),
        None => key_eq,
    };
    Expr::search(
        vec![Expr::base("L"), Expr::base("R")],
        pred,
        vec![Scalar::attr(1, 2), Scalar::attr(2, 2)],
    )
}

#[test]
fn null_keys_never_match() {
    let db = edge_db();
    let rows = agrees_with_the_reference(&db, &equi_join(None));
    // NULL = NULL is NULL under 3-valued logic: the Null-keyed rows on
    // both sides must not pair with anything — including each other.
    for row in &rows {
        assert_ne!(row[0], Value::Int(30), "L's Null-keyed row leaked");
        assert_ne!(row[1], Value::Int(300), "R's Null-keyed row leaked");
    }
    // Int 2 matches both duplicate L rows; "2" and true match their own
    // kind only — no cross-type coercion.
    let mut expected = vec![
        vec![Value::Int(20), Value::Int(200)],
        vec![Value::Int(60), Value::Int(200)],
        vec![Value::Int(40), Value::Int(400)],
        vec![Value::Int(50), Value::Int(500)],
    ];
    expected.sort();
    assert_eq!(rows, expected);
}

#[test]
fn mixed_type_keys_do_not_coerce() {
    let db = edge_db();
    // Join on L.K = R.K restricted by a payload filter (A >= 40): the
    // surviving matches are "2"="2", true=true, and the high-A int row —
    // each key pairs with its own runtime type only, no coercion.
    let extra = Scalar::cmp(CmpOp::Ge, Scalar::attr(1, 2), Scalar::lit(Value::Int(40)));
    let rows = agrees_with_the_reference(&db, &equi_join(Some(extra)));
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(40), Value::Int(400)],
            vec![Value::Int(50), Value::Int(500)],
            vec![Value::Int(60), Value::Int(200)],
        ]
    );
}

#[test]
fn non_equality_conjuncts_fall_back_and_agree() {
    let db = edge_db();
    // No hashable equi-conjunct at all: pure theta-join (L.A < R.B). The
    // hash path must fall back to cross-product + recheck and still
    // reject NULL comparisons (Null < x is Null, not TRUE).
    let theta = Expr::search(
        vec![Expr::base("L"), Expr::base("R")],
        Scalar::cmp(CmpOp::Lt, Scalar::attr(1, 2), Scalar::attr(2, 2)),
        vec![Scalar::attr(1, 2), Scalar::attr(2, 2)],
    );
    let rows = agrees_with_the_reference(&db, &theta);
    // Every L.A in {10..60} pairs with every strictly greater R.B.
    let l_vals = [10i64, 20, 30, 40, 50, 60];
    let r_vals = [200i64, 300, 400, 500, 900];
    let mut expected: Vec<Vec<Value>> = l_vals
        .iter()
        .flat_map(|&a| {
            r_vals
                .iter()
                .filter(move |&&b| a < b)
                .map(move |&b| vec![Value::Int(a), Value::Int(b)])
        })
        .collect();
    expected.sort();
    assert_eq!(rows, expected);

    // Equality on one pair of attrs plus an arithmetic inequality: the
    // equality is hashed, the inequality is rechecked.
    let extra = Scalar::cmp(CmpOp::Lt, Scalar::attr(1, 2), Scalar::attr(2, 2));
    let rows = agrees_with_the_reference(&db, &equi_join(Some(extra)));
    let mut expected = vec![
        vec![Value::Int(20), Value::Int(200)],
        vec![Value::Int(60), Value::Int(200)],
        vec![Value::Int(40), Value::Int(400)],
        vec![Value::Int(50), Value::Int(500)],
    ];
    expected.retain(|r| r[0] < r[1]);
    expected.sort();
    assert_eq!(rows, expected);
}

#[test]
fn three_way_join_with_partial_keys() {
    let mut db = edge_db();
    db.execute_ddl("TABLE M ( K : NUMERIC ) ;").unwrap();
    db.insert_all(
        "M",
        vec![vec![Value::Int(2)], vec![Value::Null], vec![Value::Int(9)]],
    )
    .unwrap();
    // L joins R on K, M is linked to R only (M.K = R.K): the hash path
    // builds keys per step; the middle step's key set differs from the
    // last step's.
    let pred = Scalar::and(
        Scalar::eq(Scalar::attr(1, 1), Scalar::attr(2, 1)),
        Scalar::eq(Scalar::attr(3, 1), Scalar::attr(2, 1)),
    );
    let expr = Expr::search(
        vec![Expr::base("L"), Expr::base("R"), Expr::base("M")],
        pred,
        vec![Scalar::attr(1, 2), Scalar::attr(2, 2), Scalar::attr(3, 1)],
    );
    let rows = agrees_with_the_reference(&db, &expr);
    let mut expected = vec![
        vec![Value::Int(20), Value::Int(200), Value::Int(2)],
        vec![Value::Int(60), Value::Int(200), Value::Int(2)],
    ];
    expected.sort();
    assert_eq!(rows, expected);
}

#[test]
fn an_int_meets_its_real_twin_and_null_meets_nothing() {
    let mut db = Database::new();
    db.execute_ddl(
        "TABLE L ( K : NUMERIC, A : NUMERIC ) ;
         TABLE R ( K : NUMERIC, B : NUMERIC ) ;",
    )
    .unwrap();
    db.insert_all(
        "L",
        vec![
            vec![Value::Int(2), Value::Int(10)],
            vec![Value::Null, Value::Int(20)],
        ],
    )
    .unwrap();
    db.insert_all(
        "R",
        vec![
            vec![Value::real(2.0), Value::Int(100)],
            vec![Value::Null, Value::Int(200)],
        ],
    )
    .unwrap();
    // `2 = 2.0` holds under `sql_cmp` though the two values differ
    // structurally; `NULL = NULL` does not though they are identical. An
    // oracle that keyed a table on the values would say 0 rows, or 1 for
    // the wrong pair.
    let rows = agrees_with_the_reference(&db, &equi_join(None));
    assert_eq!(rows, vec![vec![Value::Int(10), Value::Int(100)]]);
}

// ---------------------------------------------------------------------
// Select first, then stream: the executor's paths against each other and
// against the oracle (`eval_reference`).
// ---------------------------------------------------------------------

/// The executor under columnar {off, on}: rows *and order* are the
/// oracle's (asked when there are no binds: it takes
/// none), and neither they nor the work counters depend on the path
/// pre-selection took. Returns the rows and `combinations_tried`.
fn streams_like_the_oracle(db: &Database, expr: &Expr, params: &[Value]) -> (Vec<Vec<Value>>, u64) {
    let oracle = params
        .is_empty()
        .then(|| eval_reference(expr, db, EvalOptions::default()).expect("oracle evaluates"));
    let mut first = None;
    for columnar in [false, true] {
        let opts = EvalOptions {
            columnar,
            ..Default::default()
        };
        let (rel, stats) = eds_engine::eval_with_params(expr, db, opts, params).expect("evaluates");
        if let Some(oracle) = &oracle {
            assert_eq!(rel.rows, oracle.rows, "rows or order differ under {opts:?}");
        }
        let (rows, work) = first.get_or_insert((rel.rows.clone(), stats));
        assert_eq!(rel.rows, *rows, "rows or order moved under {opts:?}");
        assert_eq!(stats, *work, "work moved under {opts:?}");
    }
    let (rows, stats) = first.expect("two configurations ran");
    let rows = rows.iter().map(|r| r.to_vec()).collect();
    (rows, stats.combinations_tried)
}

fn ints(rows: &[&[i64]]) -> Vec<Vec<Value>> {
    let row = |r: &&[i64]| r.iter().map(|v| Value::Int(*v)).collect();
    rows.iter().map(row).collect()
}

/// `A(K, V)`, `B(K, V)`, `C(K, V)`: 40, 30 and 20 rows, keys modulo 10 —
/// INT columns throughout, so every table has a columnar mirror.
fn abc_db() -> Database {
    let mut db = Database::new();
    db.execute_ddl(
        "TABLE A ( K : INT, V : INT ) ;
         TABLE B ( K : INT, V : INT ) ;
         TABLE C ( K : INT, V : INT ) ;",
    )
    .unwrap();
    for (table, n) in [("A", 40i64), ("B", 30), ("C", 20)] {
        db.insert_all(
            table,
            (0..n).map(|i| vec![Value::Int(i % 10), Value::Int(i)]),
        )
        .unwrap();
    }
    db
}

fn attr_eq(r1: usize, a1: usize, r2: usize, a2: usize) -> Scalar {
    Scalar::eq(Scalar::attr(r1, a1), Scalar::attr(r2, a2))
}

fn abc_search(pred: Scalar) -> Expr {
    Expr::search(
        vec![Expr::base("A"), Expr::base("B"), Expr::base("C")],
        pred,
        vec![Scalar::attr(1, 2), Scalar::attr(2, 2), Scalar::attr(3, 2)],
    )
}

#[test]
fn local_conjuncts_on_later_inputs_preselect() {
    let db = abc_db();
    // B.V < 12 reads the second input alone, C.V >= 15 the third.
    let pred = Scalar::conjoin(vec![
        attr_eq(1, 1, 2, 1),
        attr_eq(2, 1, 3, 1),
        Scalar::cmp(CmpOp::Lt, Scalar::attr(2, 2), Scalar::lit(12)),
        Scalar::cmp(CmpOp::Ge, Scalar::attr(3, 2), Scalar::lit(15)),
    ]);
    let (rows, tried) = streams_like_the_oracle(&db, &abc_search(pred), &[]);
    // C's survivors carry keys 5..=9; B's rows with those keys and
    // V < 12 are V = 5..=9; each key has four rows in A.
    assert_eq!(rows.len(), 5 * 4);
    // 40 first-input rows, then only candidates: far from 40·30·20.
    assert!(tried < 40 + 40 * 2 + 40 * 2, "enumerated {tried}");
}

#[test]
fn a_parameter_preselects_once_bound_and_errors_unbound() {
    let db = abc_db();
    let search = |comparand: Scalar| {
        Expr::search(
            vec![Expr::base("A"), Expr::base("B")],
            Scalar::and(
                attr_eq(1, 1, 2, 1),
                Scalar::cmp(CmpOp::Lt, Scalar::attr(2, 2), comparand),
            ),
            vec![Scalar::attr(1, 2), Scalar::attr(2, 2)],
        )
    };
    let (bound, tried) = streams_like_the_oracle(&db, &search(Scalar::param(0)), &[5.into()]);
    let (literal, _) = streams_like_the_oracle(&db, &search(Scalar::lit(5)), &[]);
    assert_eq!(bound, literal);
    assert_eq!(bound.len(), 5 * 4);
    assert_eq!(tried, 40 + 20, "five survivors of B, one per key");
    // Unbound: no kernel, the fast form cannot decide, every row is
    // kept — and the first complete combination reports the error.
    for columnar in [false, true] {
        let opts = EvalOptions {
            columnar,
            ..Default::default()
        };
        let unbound = eval_with(&search(Scalar::param(0)), &db, opts);
        assert!(
            matches!(unbound, Err(EngineError::UnboundParam(0))),
            "columnar {columnar}: {unbound:?}"
        );
    }
}

/// A conjunct that reads no input (`?0 = 3`) is decided once per
/// execution: bound TRUE it leaves the check and a join enumerates as it
/// would without it; bound FALSE or NULL a join examines no combination,
/// while one input still counts its rows.
#[test]
fn a_constant_conjunct_is_decided_once() {
    let db = abc_db();
    let constant = Scalar::eq(Scalar::param(0), Scalar::lit(3));
    let join = |extra: Option<Scalar>| {
        let mut conjuncts = vec![attr_eq(1, 1, 2, 1)];
        conjuncts.extend(extra);
        Expr::search(
            vec![Expr::base("A"), Expr::base("B")],
            Scalar::conjoin(conjuncts),
            vec![Scalar::attr(1, 2), Scalar::attr(2, 2)],
        )
    };
    let scan = Expr::search(
        vec![Expr::base("A")],
        Scalar::and(
            constant.clone(),
            Scalar::cmp(CmpOp::Lt, Scalar::attr(1, 2), Scalar::lit(5)),
        ),
        vec![Scalar::attr(1, 2)],
    );
    let (plain, plain_tried) = streams_like_the_oracle(&db, &join(None), &[]);
    let with_constant = join(Some(constant));
    let (held, tried) = streams_like_the_oracle(&db, &with_constant, &[3.into()]);
    assert_eq!((held, tried), (plain, plain_tried));
    let (rows, tried) = streams_like_the_oracle(&db, &scan, &[3.into()]);
    assert_eq!((rows, tried), (ints(&[&[0], &[1], &[2], &[3], &[4]]), 40));
    for rejected in [Value::Int(4), Value::Null] {
        let binds = std::slice::from_ref(&rejected);
        let (rows, tried) = streams_like_the_oracle(&db, &with_constant, binds);
        assert_eq!((rows.len(), tried), (0, 0), "join, ?0 = {rejected:?}");
        let (rows, tried) = streams_like_the_oracle(&db, &scan, binds);
        assert_eq!((rows.len(), tried), (0, 40), "one input, ?0 = {rejected:?}");
    }
}

/// `FILM(Numf, Score REAL, Seen BOOL, Note)` beside `CAST(Numf, Who)`
/// with `Who` an object reference: no local conjunct below has a kernel
/// (REAL and BOOL attributes spill, `Note` holds mixed kinds, a field of
/// a dereferenced object is not a column), so each pre-selects row by
/// row — with the same survivors as a kernel would leave.
fn film_db() -> Database {
    let mut db = Database::new();
    db.execute_ddl(
        "TYPE Person OBJECT TUPLE ( Name : CHAR, Salary : NUMERIC ) ;
         TABLE FILM ( Numf : INT, Score : REAL, Seen : BOOLEAN, Note : NUMERIC ) ;
         TABLE CAST ( Numf : INT, Who : Person ) ;",
    )
    .unwrap();
    for i in 0..12i64 {
        let note = match i % 3 {
            0 => Value::Int(i),
            1 => Value::str("n/a"),
            _ => Value::Null,
        };
        db.insert(
            "FILM",
            vec![
                Value::Int(i),
                Value::real(i as f64 / 2.0),
                Value::Bool(i % 2 == 0),
                note,
            ],
        )
        .unwrap();
    }
    for i in 0..24i64 {
        let who = db.create_object(
            "Person",
            Value::Tuple(vec![
                Value::str(format!("P{i}")),
                Value::Int(1_000 * (i % 6)),
            ]),
        );
        db.insert("CAST", vec![Value::Int(i % 12), who]).unwrap();
    }
    db
}

#[test]
fn local_conjuncts_without_a_kernel_take_the_row_path() {
    let db = film_db();
    let film_cast = |local: Scalar| {
        Expr::search(
            vec![Expr::base("FILM"), Expr::base("CAST")],
            Scalar::and(attr_eq(1, 1, 2, 1), local),
            vec![Scalar::attr(1, 1), Scalar::attr(2, 1)],
        )
    };
    let real = Scalar::cmp(CmpOp::Gt, Scalar::attr(1, 2), Scalar::lit(Value::real(3.9)));
    let (rows, tried) = streams_like_the_oracle(&db, &film_cast(real), &[]);
    assert_eq!(rows.len(), 4 * 2, "films 8..=11, two appearances each");
    assert_eq!(tried, 4 + 8);
    let boolean = Scalar::eq(Scalar::attr(1, 3), Scalar::lit(Value::Bool(true)));
    let (rows, _) = streams_like_the_oracle(&db, &film_cast(boolean), &[]);
    assert_eq!(rows.len(), 6 * 2);
    // A spill column of mixed kinds: NULL compares to nothing, a string
    // orders above every number (kinds compare structurally).
    let spill = Scalar::cmp(CmpOp::Ge, Scalar::attr(1, 4), Scalar::lit(6));
    let (rows, _) = streams_like_the_oracle(&db, &film_cast(spill), &[]);
    assert_eq!(rows.len(), (2 + 4) * 2, "films 6 and 9, and the four 'n/a'");
    // `Salary(Who) > 3000`: a dereferenced field on the second input.
    let deref = Scalar::cmp(
        CmpOp::Gt,
        Scalar::field(Scalar::attr(2, 2), "Salary"),
        Scalar::lit(3_000),
    );
    let (rows, tried) = streams_like_the_oracle(&db, &film_cast(deref), &[]);
    assert_eq!(rows.len(), 8, "salaries 4000 and 5000: i % 6 in {{4, 5}}");
    assert_eq!(tried, 12 + 8, "pre-selected before the join");
}

#[test]
fn null_and_mixed_numeric_link_keys_stay_honest() {
    let mut db = Database::new();
    db.execute_ddl(
        "TABLE L ( K : NUMERIC, A : INT ) ;
         TABLE R ( K : NUMERIC, B : INT ) ;",
    )
    .unwrap();
    let l = [
        Value::Int(2),
        Value::real(2.0),
        Value::real(2.5),
        Value::Null,
        Value::Int(1 << 53),
        Value::str("2"),
    ];
    let r = [
        Value::real(2.0),
        Value::Int(2),
        Value::Null,
        Value::Int((1 << 53) + 1),
        Value::real(-0.0),
        Value::Int(0),
    ];
    for (table, keys) in [("L", &l), ("R", &r)] {
        for (i, k) in keys.iter().enumerate() {
            // Repeated, so that the step is large enough for a table.
            for copy in 0..4 {
                let payload = Value::Int(10 * i as i64 + copy);
                db.insert(table, vec![k.clone(), payload]).unwrap();
            }
        }
    }
    let (rows, tried) = streams_like_the_oracle(&db, &equi_join(None), &[]);
    // INT 2 and REAL 2.0 meet both spellings on the other side (2 × 2
    // key pairs × 4 × 4 copies); nothing else meets anything: NULL never
    // equals, 2^53 and 2^53 + 1 hash alike but differ, the string "2" is
    // not a number, and REAL -0.0 orders below INT 0.
    assert_eq!(rows.len(), 4 * 16);
    assert!(rows.iter().all(|row| {
        let (Value::Int(a), Value::Int(b)) = (&row[0], &row[1]) else {
            panic!("payloads are integers")
        };
        a / 10 <= 1 && b / 10 <= 1
    }));
    // A table was built: 24 outer rows, 64 matches and the 16 pairs of
    // the 2^53 neighbours that only the re-check tells apart.
    assert_eq!(tried, 24 + 64 + 16);
}

#[test]
fn two_links_into_one_input() {
    let db = abc_db();
    // C is linked to A by key and to B by value.
    let pred = Scalar::conjoin(vec![
        attr_eq(1, 1, 2, 1),
        attr_eq(3, 1, 1, 1),
        attr_eq(2, 2, 3, 2),
    ]);
    let (rows, _) = streams_like_the_oracle(&db, &abc_search(pred), &[]);
    // B.V = C.V leaves C's 20 rows with B's first 20; keys then agree.
    assert_eq!(rows.len(), 20 * 4);
}

#[test]
fn a_cross_step_between_two_linked_steps() {
    let db = abc_db();
    // B joins nothing; C is linked to A. The cross step multiplies what
    // reaches the third input, and the table over C is still probed.
    let pred = Scalar::conjoin(vec![
        attr_eq(1, 1, 3, 1),
        Scalar::cmp(CmpOp::Lt, Scalar::attr(2, 2), Scalar::lit(3)),
        Scalar::cmp(CmpOp::Lt, Scalar::attr(1, 2), Scalar::lit(10)),
    ]);
    let (rows, tried) = streams_like_the_oracle(&db, &abc_search(pred), &[]);
    assert_eq!(rows.len(), 10 * 3 * 2);
    assert_eq!(tried, 10 + 10 * 3 + 10 * 3 * 2);
}

#[test]
fn empty_survivor_lists_enumerate_nothing() {
    let db = abc_db();
    let nothing = |rel: usize| Scalar::cmp(CmpOp::Lt, Scalar::attr(rel, 2), Scalar::lit(0));
    for emptied in [vec![1], vec![2], vec![3], vec![1, 2, 3]] {
        let mut conjuncts = vec![attr_eq(1, 1, 2, 1), attr_eq(2, 1, 3, 1)];
        conjuncts.extend(emptied.iter().map(|&rel| nothing(rel)));
        let expr = abc_search(Scalar::conjoin(conjuncts));
        let (rows, tried) = streams_like_the_oracle(&db, &expr, &[]);
        assert!(rows.is_empty());
        assert_eq!(tried, 0, "inputs {emptied:?} emptied");
    }
}

#[test]
fn fixpoint_locals_build_and_probe() {
    let mut db = Database::new();
    db.execute_ddl("TABLE EDGE ( Src : INT, Dst : INT ) ;")
        .unwrap();
    // Two chains of 30 nodes and a few shortcuts.
    for i in 0..29i64 {
        db.insert("EDGE", vec![i.into(), (i + 1).into()]).unwrap();
        db.insert("EDGE", vec![(100 + i).into(), (101 + i).into()])
            .unwrap();
    }
    for (a, b) in [(3i64, 17i64), (5, 25), (110, 120)] {
        db.insert("EDGE", vec![a.into(), b.into()]).unwrap();
    }
    let step = |left: &str, right: &str| {
        Expr::search(
            vec![Expr::base(left), Expr::base(right)],
            attr_eq(1, 2, 2, 1),
            vec![Scalar::attr(1, 1), Scalar::attr(2, 2)],
        )
    };
    // Right-linear: the recursion variable (and its delta) is the probe
    // side; left-linear: the build side; non-linear: both.
    for (left, right) in [("TC", "EDGE"), ("EDGE", "TC"), ("TC", "TC")] {
        let fix = Expr::Fix {
            name: "TC".into(),
            body: Box::new(Expr::Union(vec![Expr::base("EDGE"), step(left, right)])),
        };
        let (rows, _) = streams_like_the_oracle(&db, &fix, &[]);
        // The closure of two 30-node chains; shortcuts add no pair.
        assert_eq!(rows.len(), 2 * (30 * 29 / 2), "{left} ⋈ {right}");
    }
}

#[test]
fn an_error_on_a_dropped_row_disappears_and_none_appears() {
    let mut db = Database::new();
    db.execute_ddl(
        "TABLE T ( K : INT, Items : NUMERIC ) ;
         TABLE U ( K : INT ) ;",
    )
    .unwrap();
    // `CHOICE(Items)` fails on the empty list of row 0 — which `K > 0`
    // drops before any combination is formed.
    db.insert("T", vec![0.into(), Value::list(vec![])]).unwrap();
    db.insert("T", vec![1.into(), Value::list(vec![7.into()])])
        .unwrap();
    db.insert("T", vec![2.into(), Value::list(vec![9.into()])])
        .unwrap();
    db.insert_all("U", (0..3i64).map(|i| vec![Value::Int(i)]))
        .unwrap();
    let search = |local: Option<Scalar>| {
        let first_item = Scalar::call("CHOICE", vec![Scalar::attr(1, 2)]);
        let mut conjuncts = vec![
            Scalar::cmp(CmpOp::Gt, first_item, Scalar::lit(5)),
            attr_eq(1, 1, 2, 1),
        ];
        conjuncts.extend(local);
        Expr::search(
            vec![Expr::base("T"), Expr::base("U")],
            Scalar::conjoin(conjuncts),
            vec![Scalar::attr(2, 1)],
        )
    };
    let expr = search(Some(Scalar::cmp(
        CmpOp::Gt,
        Scalar::attr(1, 1),
        Scalar::lit(0),
    )));
    assert!(
        eval_reference(&expr, &db, EvalOptions::default()).is_err(),
        "the oracle combines the failing row"
    );
    let streamed = eval_with(&expr, &db, EvalOptions::default())
        .expect("the failing row was never combined")
        .0;
    assert_eq!(streamed.sorted_rows(), ints(&[&[1], &[2]]));
    // Without the local conjunct the row is combined, and both report.
    let kept = search(None);
    assert!(eval_reference(&kept, &db, EvalOptions::default()).is_err());
    assert!(eval_with(&kept, &db, EvalOptions::default()).is_err());
}

/// The same contract over one input, with the mirror off and on: the
/// local `K > 0` drops the empty-list row before `CHOICE(Items)` is
/// evaluated on it, though written after it.
#[test]
fn an_error_on_a_dropped_row_disappears_over_one_input() {
    let mut db = Database::new();
    db.execute_ddl("TABLE T ( K : INT, Items : NUMERIC ) ;")
        .unwrap();
    db.insert("T", vec![0.into(), Value::list(vec![])]).unwrap();
    db.insert("T", vec![1.into(), Value::list(vec![7.into()])])
        .unwrap();
    db.insert("T", vec![2.into(), Value::list(vec![9.into()])])
        .unwrap();
    let search = |local: Option<Scalar>| {
        let first_item = Scalar::call("CHOICE", vec![Scalar::attr(1, 2)]);
        let mut conjuncts = vec![Scalar::cmp(CmpOp::Gt, first_item, Scalar::lit(5))];
        conjuncts.extend(local);
        Expr::search(
            vec![Expr::base("T")],
            Scalar::conjoin(conjuncts),
            vec![Scalar::attr(1, 1)],
        )
    };
    let expr = search(Some(Scalar::cmp(
        CmpOp::Gt,
        Scalar::attr(1, 1),
        Scalar::lit(0),
    )));
    let kept = search(None);
    assert!(eval_reference(&expr, &db, EvalOptions::default()).is_err());
    assert!(eval_reference(&kept, &db, EvalOptions::default()).is_err());
    for columnar in [false, true] {
        let opts = EvalOptions {
            columnar,
            ..EvalOptions::default()
        };
        let rows = eval_with(&expr, &db, opts)
            .expect("the failing row was dropped first")
            .0;
        assert_eq!(
            rows.sorted_rows(),
            ints(&[&[1], &[2]]),
            "columnar={columnar}"
        );
        assert!(eval_with(&kept, &db, opts).is_err(), "columnar={columnar}");
    }
}

/// `P(K, Who, N)` over two blocks and a bit, `Who` a `Person` whose
/// value is a `(Name, Salary)` tuple on most rows but NULL on every 50th
/// and a list of two such tuples on every 50th after that — values the
/// fast form of `Salary(Who)` declines — beside `Q(K, V)` on every
/// 40th key. Both are INT-keyed, so both have a mirror.
fn person_db() -> Database {
    let mut db = Database::new();
    db.execute_ddl(
        "TYPE Person OBJECT TUPLE ( Name : CHAR, Salary : NUMERIC ) ;
         TABLE P ( K : INT, Who : Person, N : INT ) ;
         TABLE Q ( K : INT, V : INT ) ;",
    )
    .unwrap();
    let person = |i: i64| {
        Value::Tuple(vec![
            Value::str(format!("P{i}")),
            Value::Int(1_000 * (i % 6)),
        ])
    };
    for i in 0..(2 * BLOCK_ROWS + 5) as i64 {
        let who = match i % 50 {
            7 => Value::Null,
            13 => db.create_object("Person", Value::list(vec![person(i), person(i + 4)])),
            _ => db.create_object("Person", person(i)),
        };
        db.insert("P", vec![i.into(), who, (i % 7).into()]).unwrap();
        if i % 40 == 0 {
            db.insert("Q", vec![i.into(), (i % 11).into()]).unwrap();
        }
    }
    db
}

/// Evaluate the plan `with` builds over `?0 … ?k` against `binds` under
/// columnar {off, on}, and the oracle over the same
/// plan with each bound `?i` written as its literal (a `?` past the end
/// of `binds` stays one, unbound for the oracle too). The answer — rows
/// and their order, or the error — is the oracle's under every
/// configuration, and so are the work counters of every run that
/// answered. Returns the oracle's rows.
fn declines_like_the_oracle(
    db: &Database,
    params: u16,
    with: impl Fn(&[Scalar]) -> Expr,
    binds: &[Value],
) -> Result<Vec<Vec<Value>>, EngineError> {
    let slots = |literal: bool| -> Vec<Scalar> {
        (0..params)
            .map(|i| match binds.get(i as usize) {
                Some(v) if literal => Scalar::lit(v.clone()),
                _ => Scalar::param(i),
            })
            .collect()
    };
    let oracle = eval_reference(&with(&slots(true)), db, EvalOptions::default());
    let plan = with(&slots(false));
    let mut work = None;
    for columnar in [false, true] {
        let opts = EvalOptions {
            columnar,
            ..Default::default()
        };
        let got = eds_engine::eval_with_params(&plan, db, opts, binds);
        match (&got, &oracle) {
            (Ok((rel, stats)), Ok(want)) => {
                assert_eq!(rel.rows, want.rows, "{plan} under {opts:?}");
                assert_eq!(stats, work.get_or_insert(*stats), "{plan} under {opts:?}");
            }
            (Err(e), Err(want)) => assert_eq!(e, want, "{plan} under {opts:?}"),
            _ => panic!("{plan} under {opts:?}: {got:?}, the oracle {oracle:?}"),
        }
    }
    oracle.map(|rel| rel.rows.iter().map(|r| r.to_vec()).collect())
}

/// A conjunct's general program is built on the first row its fast form
/// declines — or at once, when it has none: an unbound `?`, a `Salary(Who)`
/// whose object is NULL or a list rather than a tuple, a `GETFIELD`
/// index past the tuple, and `OR` / function-call conjuncts, each over
/// one input and as a join, give the oracle's answer.
#[test]
fn the_general_program_is_built_where_a_fast_form_declines() {
    let db = person_db();
    let n = (2 * BLOCK_ROWS + 5) as i64;
    let one = |pred: Scalar| Expr::search(vec![Expr::base("P")], pred, vec![Scalar::attr(1, 1)]);
    let join = |pred: Scalar| {
        Expr::search(
            vec![Expr::base("P"), Expr::base("Q")],
            Scalar::and(attr_eq(1, 1, 2, 1), pred),
            vec![Scalar::attr(1, 1), Scalar::attr(2, 2)],
        )
    };
    let from = |k: &Scalar| Scalar::cmp(CmpOp::Ge, Scalar::attr(1, 1), k.clone());
    // An unbound `?1`: nothing reaches it while `K >= ?0` is FALSE on
    // every row, the first row that passes reports it.
    for shape in [one, join] {
        let unbound = |p: &[Scalar]| {
            shape(Scalar::and(
                from(&p[0]),
                Scalar::cmp(CmpOp::Lt, Scalar::attr(1, 3), p[1].clone()),
            ))
        };
        assert_eq!(
            declines_like_the_oracle(&db, 2, unbound, &[n.into()]),
            Ok(vec![])
        );
        assert_eq!(
            declines_like_the_oracle(&db, 2, unbound, &[(n - 40).into()]),
            Err(EngineError::UnboundParam(1))
        );
    }
    // `Salary(Who) > 3000` on a NULL or a list of tuples: no error.
    let salary = Scalar::cmp(
        CmpOp::Gt,
        Scalar::field(Scalar::attr(1, 2), "Salary"),
        Scalar::lit(3_000),
    );
    let rows = declines_like_the_oracle(&db, 0, |_| one(salary.clone()), &[]).unwrap();
    let lists = (0..n).filter(|i| i % 50 == 13).count();
    let tuples = (0..n)
        .filter(|i| !matches!(i % 50, 7 | 13) && i % 6 >= 4)
        .count();
    assert!(rows.len() >= tuples && rows.len() <= tuples + lists);
    let joined = declines_like_the_oracle(&db, 0, |_| join(salary.clone()), &[]).unwrap();
    assert!(!joined.is_empty() && joined.len() < rows.len());
    // `GETFIELD(VALUE(Who), 3)` is past every tuple: the first row the
    // qualification reaches it on reports the index.
    for shape in [one, join] {
        let third = |p: &[Scalar]| {
            let field = Scalar::call(
                "GETFIELD",
                vec![
                    Scalar::call("VALUE", vec![Scalar::attr(1, 2)]),
                    Scalar::lit(3),
                ],
            );
            shape(Scalar::and(
                from(&p[0]),
                Scalar::cmp(CmpOp::Gt, field, Scalar::lit(0)),
            ))
        };
        assert_eq!(
            declines_like_the_oracle(&db, 1, third, &[n.into()]),
            Ok(vec![])
        );
        assert!(matches!(
            declines_like_the_oracle(&db, 1, third, &[(n - 40).into()]),
            Err(EngineError::Adt(eds_adt::AdtError::IndexOutOfBounds {
                index: 3,
                len: 2
            }))
        ));
    }
    // No fast form at all: a disjunction and a comparison of a call.
    for shape in [one, join] {
        let general = |p: &[Scalar]| {
            let or = Scalar::Or(
                Box::new(Scalar::eq(Scalar::attr(1, 3), Scalar::lit(3))),
                Box::new(Scalar::cmp(CmpOp::Lt, Scalar::attr(1, 1), Scalar::lit(10))),
            );
            let plus = Scalar::call("+", vec![Scalar::attr(1, 1), Scalar::lit(1)]);
            shape(Scalar::and(or, Scalar::cmp(CmpOp::Gt, plus, p[0].clone())))
        };
        let rows = declines_like_the_oracle(&db, 1, general, &[100.into()]).unwrap();
        assert!(!rows.is_empty());
    }
}

// ---------------------------------------------------------------------
// Where each conjunct is decided: a step linked by one INT key probes a
// slot array over the key's span, a hashed step compares the keys of
// each candidate, and a complete combination re-checks only what
// neither pre-selection nor a probe settled.
// ---------------------------------------------------------------------

/// `L(K, A)` probing `R(K, B)` on `L.K = R.K`, with the keys given and
/// each row's position as its payload.
fn keyed_db(l: &[Value], r: &[Value]) -> Database {
    let mut db = Database::new();
    db.execute_ddl(
        "TABLE L ( K : NUMERIC, A : INT ) ;
         TABLE R ( K : NUMERIC, B : INT ) ;",
    )
    .unwrap();
    for (table, keys) in [("L", l), ("R", r)] {
        let rows = keys.iter().zip(0i64..);
        db.insert_all(table, rows.map(|(k, i)| vec![k.clone(), Value::Int(i)]))
            .unwrap();
    }
    db
}

/// The `(A, B)` pairs whose keys are equal under `sql_cmp`, in the cross
/// product's row-major order: the answer counted without the executor.
fn equal_pairs(l: &[Value], r: &[Value]) -> Vec<Vec<Value>> {
    let mut pairs = Vec::new();
    for (a, lk) in (0i64..).zip(l) {
        for (b, rk) in (0i64..).zip(r) {
            if lk.sql_eq(rk) == Some(true) {
                pairs.push(vec![Value::Int(a), Value::Int(b)]);
            }
        }
    }
    pairs
}

#[test]
fn a_real_probe_meets_int_keys_through_the_slot_array() {
    // Each key 0..8 twice, so that a slot holds two candidates, and a
    // NULL: every key an INT inside ±2⁵³ over a span of 9 slots.
    let mut r: Vec<Value> = (0..9).chain(0..9).map(Value::Int).collect();
    r.insert(4, Value::Null);
    let edge = (1i64 << 53) as f64;
    let l = [
        Value::real(2.0),
        Value::real(2.5),
        Value::real(-0.0),
        Value::real(0.0),
        Value::real(f64::NAN),
        Value::real(edge),
        Value::real(-edge),
        Value::real(1e300),
        Value::Int(3),
        Value::Null,
        Value::str("2"),
        Value::real(8.0),
    ];
    let db = keyed_db(&l, &r);
    let (rows, tried) = streams_like_the_oracle(&db, &equi_join(None), &[]);
    let expected = equal_pairs(&l, &r);
    // 2.0, +0.0, 3 and 8.0 meet their INT twice each; -0.0 orders below
    // 0, and nothing else is an integral number inside the span.
    assert_eq!(expected.len(), 4 * 2);
    assert_eq!(rows, expected);
    assert_eq!(tried, l.len() as u64 + 8);
}

#[test]
fn null_keys_on_either_side_of_a_slot_array_meet_nothing() {
    let key = |i: i64| {
        if i % 3 == 0 {
            Value::Null
        } else {
            Value::Int(i % 7)
        }
    };
    let l: Vec<Value> = (0..40).map(key).collect();
    let r: Vec<Value> = (0..25).map(|i| key(i + 1)).collect();
    let db = keyed_db(&l, &r);
    let (rows, tried) = streams_like_the_oracle(&db, &equi_join(None), &[]);
    let expected = equal_pairs(&l, &r);
    assert!(!expected.is_empty());
    assert_eq!(rows, expected);
    assert_eq!(tried, l.len() as u64 + expected.len() as u64);
    // All NULL on the build side: a table with no key at all.
    let nulls = vec![Value::Null; 5];
    let db = keyed_db(&l, &nulls);
    let (rows, tried) = streams_like_the_oracle(&db, &equi_join(None), &[]);
    assert!(rows.is_empty());
    assert_eq!(tried, l.len() as u64);
}

#[test]
fn far_or_wide_keys_fall_back_to_the_hashed_table() {
    let edge = 1i64 << 53;
    // At ±2⁵³ the neighbours hash as one `f64`: the hashed table offers
    // both as candidates (the count says which table ran) and the probe
    // tells them apart.
    for sign in [1, -1] {
        let keys = [Value::Int(sign * edge), Value::Int(sign * (edge + 1))];
        let db = keyed_db(&keys, &keys);
        let (rows, tried) = streams_like_the_oracle(&db, &equi_join(None), &[]);
        assert_eq!(rows, ints(&[&[0, 0], &[1, 1]]));
        assert_eq!(tried, 2 + 2 * 2, "both neighbours are candidates");
    }
    // `i64::MIN` to `i64::MAX` overflows a span's width.
    let keys: Vec<Value> = [i64::MIN, 0, i64::MAX, 0].map(Value::Int).to_vec();
    let db = keyed_db(&keys, &keys);
    let (rows, tried) = streams_like_the_oracle(&db, &equi_join(None), &[]);
    assert_eq!(rows, equal_pairs(&keys, &keys));
    assert_eq!(tried, 4 + 6);
    // Four survivors over 65 slots: one more than 16 a survivor.
    let r: Vec<Value> = [0, 64, 1, 64].map(Value::Int).to_vec();
    let l: Vec<Value> = [64, 1, 2, 0, 64].map(Value::Int).to_vec();
    let db = keyed_db(&l, &r);
    let (rows, tried) = streams_like_the_oracle(&db, &equi_join(None), &[]);
    assert_eq!(rows, equal_pairs(&l, &r));
    assert_eq!(rows.len(), 6);
    assert_eq!(tried, 5 + 6);
}

#[test]
fn a_fixpoint_local_is_keyed_through_the_slot_array() {
    // One chain of 30 nodes and two shortcuts, with node `i` numbered
    // `at(i)`: small numbers put every round's keys in a slot array,
    // even numbers from 2⁵³ up (each an `f64` exactly, no two hashing
    // alike) put them all in the hashed table. The closure and the
    // combinations tried are the same either way.
    let closure = |at: &dyn Fn(i64) -> i64| {
        let mut db = Database::new();
        db.execute_ddl("TABLE EDGE ( Src : INT, Dst : INT ) ;")
            .unwrap();
        let edges = (0..29i64).map(|i| (i, i + 1)).chain([(3, 17), (5, 25)]);
        for (a, b) in edges {
            db.insert("EDGE", vec![at(a).into(), at(b).into()]).unwrap();
        }
        let step = Expr::search(
            vec![Expr::base("EDGE"), Expr::base("TC")],
            attr_eq(1, 2, 2, 1),
            vec![Scalar::attr(1, 1), Scalar::attr(2, 2)],
        );
        let fix = Expr::Fix {
            name: "TC".into(),
            body: Box::new(Expr::Union(vec![Expr::base("EDGE"), step])),
        };
        streams_like_the_oracle(&db, &fix, &[])
    };
    let (dense, dense_tried) = closure(&|i| i);
    let far = |i: i64| (1i64 << 53) + 2 * i;
    let (hashed, hashed_tried) = closure(&far);
    assert_eq!(dense.len(), 30 * 29 / 2);
    let renumbered: Vec<Vec<Value>> = dense
        .iter()
        .map(|row| {
            row.iter()
                .map(|v| match v {
                    Value::Int(i) => Value::Int(far(*i)),
                    other => other.clone(),
                })
                .collect()
        })
        .collect();
    assert_eq!(hashed, renumbered);
    assert_eq!(dense_tried, hashed_tried);
}

#[test]
fn the_hashed_path_compares_keys_exactly() {
    let mut db = Database::new();
    db.execute_ddl(
        "TABLE L ( K1 : INT, K2 : INT, A : INT ) ;
         TABLE R ( K1 : INT, K2 : INT, B : INT ) ;",
    )
    .unwrap();
    // 2⁵³ and 2⁵³ + 1 hash alike (both as one `f64`) but are not equal.
    let edge = 1i64 << 53;
    for (table, k) in [("L", edge), ("L", edge + 1), ("R", edge), ("R", edge + 1)] {
        let payload = Value::Int(k - edge);
        db.insert(table, vec![k.into(), 7.into(), payload]).unwrap();
    }
    // Two links into R: a hashed table whatever the keys.
    let expr = Expr::search(
        vec![Expr::base("L"), Expr::base("R")],
        Scalar::and(attr_eq(1, 1, 2, 1), attr_eq(2, 2, 1, 2)),
        vec![Scalar::attr(1, 3), Scalar::attr(2, 3)],
    );
    let (rows, tried) = streams_like_the_oracle(&db, &expr, &[]);
    assert_eq!(rows, ints(&[&[0, 0], &[1, 1]]));
    assert_eq!(tried, 2 + 2 * 2, "each L row meets both R rows' hash");
}

#[test]
fn a_local_conjunct_a_fast_form_declines_stays_in_the_check() {
    // `P(K, Who)` beside `Q(K)`: `Who` is a `Person` tuple on most rows,
    // a list of two on one (no tuple to read `Salary` from) and a
    // dangling reference on another when `dangling` — each a row the
    // fast form of `Salary(Who) > 3000` declines at pre-selection.
    let db = |dangling: bool| {
        let mut db = Database::new();
        db.execute_ddl(
            "TYPE Person OBJECT TUPLE ( Name : CHAR, Salary : NUMERIC ) ;
             TABLE P ( K : INT, Who : Person ) ;
             TABLE Q ( K : INT ) ;",
        )
        .unwrap();
        let person =
            |i: i64| Value::Tuple(vec![Value::str(format!("P{i}")), Value::Int(i * 1_000)]);
        for i in 0..8i64 {
            let who = match i {
                2 => db.create_object("Person", Value::list(vec![person(5), person(6)])),
                5 if dangling => Value::Object(eds_adt::Oid(9_999)),
                _ => db.create_object("Person", person(i)),
            };
            db.insert("P", vec![i.into(), who]).unwrap();
        }
        db.insert_all("Q", (0..8i64).map(|i| vec![Value::Int(i)]))
            .unwrap();
        db
    };
    let salary = |rel: usize| {
        Scalar::cmp(
            CmpOp::Gt,
            Scalar::field(Scalar::attr(rel, 2), "Salary"),
            Scalar::lit(3_000),
        )
    };
    // P probing Q, and Q probing P: the local conjunct on either side.
    let p_first = Expr::search(
        vec![Expr::base("P"), Expr::base("Q")],
        Scalar::and(attr_eq(1, 1, 2, 1), salary(1)),
        vec![Scalar::attr(1, 1)],
    );
    let p_second = Expr::search(
        vec![Expr::base("Q"), Expr::base("P")],
        Scalar::and(salary(2), attr_eq(1, 1, 2, 1)),
        vec![Scalar::attr(2, 1)],
    );
    for expr in [&p_first, &p_second] {
        // The list's salaries compare to a list of truths, not TRUE.
        let rows = declines_like_the_oracle(&db(false), 0, |_| expr.clone(), &[]).unwrap();
        assert_eq!(rows, ints(&[&[4], &[5], &[6], &[7]]), "{expr}");
        // The dangling reference joins Q's row 5 and reports.
        let dangling = declines_like_the_oracle(&db(true), 0, |_| expr.clone(), &[]);
        assert!(dangling.is_err(), "{expr}: {dangling:?}");
    }
}
