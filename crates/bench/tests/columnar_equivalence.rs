//! Columnar differential suite: with `EvalOptions.columnar` on, every
//! workload must return *byte-identical* results — same rows, same
//! order — as both the row-at-a-time path (`columnar: false`) and the
//! seed reference interpreter (`eds_engine::reference`), with the same
//! work counters on both executor paths. The fixtures are chosen to hit every kernel
//! and every fallback: typed INT/CHAR columns, NULL bitmaps, REAL/BOOL,
//! mid-column type spills and enum/ADT/collection spill columns,
//! kind-mismatch and NULL-constant predicates, deref predicates (row
//! fallback), and NULL join keys in the typed i64 hash path.

use eds_adt::Value;
use eds_bench::{assert_matches_oracle, film_dbms, scan_dbms};
use eds_core::Dbms;
use eds_engine::{ColumnarRelation, EvalOptions};
use eds_lera::Expr;

/// Columnar on must equal columnar off must equal the reference
/// interpreter — rows and order, byte for byte — and the two executor
/// paths must report the same work counters.
fn assert_equivalent(id: &str, dbms: &Dbms, expr: &Expr) {
    let side_by_side = [false, true].map(|columnar| EvalOptions {
        columnar,
        ..Default::default()
    });
    let stats = assert_matches_oracle(id, &dbms.db, expr, &side_by_side);
    assert_eq!(
        stats[0], stats[1],
        "{id}: work counters differ between the row and columnar paths"
    );
}

fn check(dbms: &Dbms, sql: &str) {
    let prepared = dbms.prepare(sql).unwrap();
    assert_equivalent(&format!("{sql} [raw]"), dbms, &prepared.expr);
    let rewritten = dbms.rewrite(&prepared).unwrap();
    assert_equivalent(&format!("{sql} [rewritten]"), dbms, &rewritten.expr);
}

/// A table whose columns cover every layout the builder knows: typed
/// INT (with NULLs) and CHAR, plus spill columns (REAL, BOOL, mixed
/// INT/REAL, mid-column INT→CHAR conflict, and collections).
fn mixed_dbms() -> Dbms {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TABLE MIXED (K : INT, N : INT, R : REAL, Flag : BOOL,
                      Tag : CHAR, Blend : NUMERIC, Drift : CHAR, Bag : INT);",
    )
    .unwrap();
    let tags = ["red", "green", "blue"];
    for i in 0..60i64 {
        let n = if i % 7 == 3 {
            Value::Null
        } else {
            Value::Int(i % 10)
        };
        // Blend mixes Int and Real mid-column: must spill, not promote.
        let blend = if i % 2 == 0 {
            Value::Int(i)
        } else {
            Value::real(i as f64 + 0.5)
        };
        // Drift switches kind mid-column: CHAR until row 40, then INT.
        let drift = if i < 40 {
            Value::str(tags[(i % 3) as usize])
        } else {
            Value::Int(i)
        };
        dbms.insert(
            "MIXED",
            vec![
                Value::Int(i),
                n,
                Value::real((i % 5) as f64 * 1.25),
                Value::Bool(i % 3 == 0),
                Value::str(tags[(i % 3) as usize]),
                blend,
                drift,
                Value::set(vec![Value::Int(i % 4)]),
            ],
        )
        .unwrap();
    }
    dbms
}

#[test]
fn typed_column_predicates_match_row_path_and_reference() {
    let dbms = mixed_dbms();
    for sql in [
        // Int column vs const, both comparison directions, with NULLs.
        "SELECT K FROM MIXED WHERE N > 4 ;",
        "SELECT K FROM MIXED WHERE 4 > N ;",
        "SELECT K FROM MIXED WHERE N = 7 ;",
        "SELECT K FROM MIXED WHERE N <> 7 ;",
        // Real column vs int const (`sql_cmp` widens the constant).
        "SELECT K FROM MIXED WHERE R > 2 ;",
        // String equality and ordering on the interned column.
        "SELECT K FROM MIXED WHERE Tag = 'green' ;",
        "SELECT K FROM MIXED WHERE Tag > 'blue' ;",
        // Bool column.
        "SELECT K FROM MIXED WHERE Flag = TRUE ;",
        // Column-vs-column, same kind and cross-kind (Int vs Real).
        "SELECT K FROM MIXED WHERE K > N ;",
        "SELECT K FROM MIXED WHERE K > R ;",
        "SELECT K FROM MIXED WHERE R < N ;",
        // Conjunctions refine one selection vector.
        "SELECT K FROM MIXED WHERE N > 2 AND K < 50 AND Tag <> 'red' ;",
        // Kind mismatch: Int column vs string const (discriminant order).
        "SELECT K FROM MIXED WHERE N < 'zzz' ;",
        "SELECT K FROM MIXED WHERE N = 'zzz' ;",
        // Spill columns force the row fallback.
        "SELECT K FROM MIXED WHERE Blend > 10 ;",
        "SELECT K FROM MIXED WHERE Drift = 'red' ;",
        // Projection of every layout, including spills.
        "SELECT K, N, R, Flag, Tag, Blend, Drift, Bag FROM MIXED ;",
        "SELECT Tag, R FROM MIXED WHERE K > 30 ;",
    ] {
        check(&dbms, sql);
    }
}

/// Every predicate shape whose kernel the traffic count retired: with
/// columnar on, the predicate now runs on the row path over a mirrored
/// table, and rows, order and `EvalStats` must match the columnar-off
/// run and the reference interpreter (`check`).
#[test]
fn shapes_without_a_kernel_fall_back_to_the_row_path() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TABLE LOST (K : INT, N : INT, R : REAL, R2 : REAL, F : BOOL, F2 : BOOL,
                     S : CHAR, S2 : CHAR);",
    )
    .unwrap();
    let words = ["ash", "birch", "cedar"];
    // 2 500 rows: more than one block, more than one strip.
    for i in 0..2_500i64 {
        // One NULL per row at most, rotating through the nullable columns.
        let hole = |col: i64, v: Value| if i % 11 == col { Value::Null } else { v };
        dbms.insert(
            "LOST",
            vec![
                Value::Int(i),
                hole(1, Value::Int(i % 10)),
                hole(2, Value::real((i % 7) as f64 * 1.5)),
                hole(3, Value::real((i % 5) as f64 * 2.0)),
                hole(4, Value::Bool(i % 3 == 0)),
                hole(5, Value::Bool(i % 2 == 0)),
                hole(6, Value::str(words[(i % 3) as usize])),
                hole(7, Value::str(words[(i % 2) as usize])),
            ],
        )
        .unwrap();
    }
    // (shape, predicate, whether any row qualifies)
    for (shape, pred, selects) in [
        ("Real column vs Real constant", "R > 4.5", true),
        ("Real column vs Int constant", "R >= 3", true),
        ("Bool column vs constant", "F = TRUE", true),
        ("Int column vs Real constant", "N < 4.5", true),
        ("Int column vs Real column", "N > R", true),
        ("Real column vs Int column", "R >= N", true),
        ("Real column pair", "R < R2", true),
        ("Bool column pair", "F <> F2", true),
        ("Str column pair", "S = S2", true),
        ("Int column vs Str constant", "N < 'zzz'", true),
        ("Str column vs Int constant", "S = 7", false),
        ("Int column vs Str column", "N < S", true),
        // A NULL comparand has a kernel of its own, but beside a shape
        // without one the whole predicate still takes the row path.
        (
            "Real column AND NULL constant",
            "R > 1.5 AND N = NULL",
            false,
        ),
        // A conjunct without a kernel beside two with one.
        (
            "Int, Str, Bool columns vs constants",
            "N > 2 AND S = 'ash' AND F2 = FALSE",
            true,
        ),
    ] {
        let sql = format!("SELECT K FROM LOST WHERE {pred} ;");
        let rows = dbms.query(&sql).unwrap_or_else(|e| panic!("{shape}: {e}"));
        assert_eq!(!rows.is_empty(), selects, "{shape}: {sql}");
        check(&dbms, &sql);
    }
}

/// The NULL pass walks the bitmap a word at a time and survivors are
/// extracted eight flags per compare: a table whose filtered columns
/// are NULL every 13th row *and* in whole-word runs (two all-NULL
/// words, then all-valid words with only the 1-in-13), 2 500 rows long
/// so the last selection strip ends mid-word and mid-group.
#[test]
fn sparse_and_whole_word_nulls_match_on_every_path() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl("TABLE GAPS (K : INT, A : INT, B : INT, Tag : CHAR);")
        .unwrap();
    let tags = ["hot", "cold", "warm"];
    dbms.insert_all(
        "GAPS",
        (0..2_500i64).map(|i| {
            let gap = i % 13 == 0 || (128..256).contains(&i) || i >= 2_440;
            let a = if gap {
                Value::Null
            } else {
                Value::Int(i * 7 % 1000)
            };
            let b = if (1_024..1_088).contains(&i) {
                Value::Null
            } else {
                Value::Int(i % 500)
            };
            let tag = if i % 13 == 5 || (640..704).contains(&i) {
                Value::Null
            } else {
                Value::str(tags[(i % 3) as usize])
            };
            vec![Value::Int(i), a, b, tag]
        }),
    )
    .unwrap();
    let cols = ColumnarRelation::build(dbms.db.relation("GAPS").unwrap()).unwrap();
    assert!((0..4).all(|j| cols.column_is_typed(j)));
    for sql in [
        // One kernel, dense extraction of most of the table.
        "SELECT K FROM GAPS WHERE A >= 0 ;",
        // Range pair: the first kernel prunes, the second may pivot.
        "SELECT K FROM GAPS WHERE A > 800 AND A < 950 ;",
        "SELECT K FROM GAPS WHERE A > 990 AND B < 300 ;",
        // Two nullable columns against each other.
        "SELECT K FROM GAPS WHERE A < B ;",
        // Interned strings with their own NULL runs, alone and behind
        // an integer kernel.
        "SELECT K FROM GAPS WHERE Tag = 'hot' ;",
        "SELECT K, Tag FROM GAPS WHERE A <> 7 AND Tag > 'cold' ;",
        // Nothing survives; everything but the NULLs survives.
        "SELECT K FROM GAPS WHERE A > 5000 ;",
        "SELECT K FROM GAPS WHERE B >= 0 AND K >= 0 ;",
    ] {
        check(&dbms, sql);
    }
}

#[test]
fn null_constants_and_empty_matches_stay_empty() {
    let mut dbms = mixed_dbms();
    // A comparison against NULL selects nothing on every path.
    check(&dbms, "SELECT K FROM MIXED WHERE N > K + NULL ;");
    // A tag no row carries: the string kernel's truth table is all-false.
    check(&dbms, "SELECT K FROM MIXED WHERE Tag = 'magenta' ;");
    // An all-NULL typed column spills to row-major and still matches.
    dbms.execute_ddl("TABLE HOLES (K : INT, V : INT);").unwrap();
    for i in 0..10i64 {
        dbms.insert("HOLES", vec![Value::Int(i), Value::Null])
            .unwrap();
    }
    check(&dbms, "SELECT K FROM HOLES WHERE V = 1 ;");
    check(&dbms, "SELECT K FROM HOLES WHERE V = NULL ;");
}

#[test]
fn object_deref_predicates_fall_back_and_match() {
    // Salary(Refactor) dereferences the object store per row — no
    // columnar kernel exists for it, so the whole predicate must fall
    // back without diverging.
    let dbms = film_dbms(120, 40, 11);
    check(
        &dbms,
        "SELECT Numf FROM APPEARS_IN WHERE Salary(Refactor) > 20000 ;",
    );
    check(
        &dbms,
        "SELECT Title FROM FILM, APPEARS_IN \
         WHERE Salary(Refactor) > 20000 AND FILM.Numf = APPEARS_IN.Numf ;",
    );
    // Enum-set column (Categories) spills; MEMBER still matches.
    check(
        &dbms,
        "SELECT Title FROM FILM WHERE MEMBER('Western', Categories) ;",
    );
}

#[test]
fn joins_with_null_keys_match_on_every_path() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl("TABLE L (K : INT, A : INT); TABLE R (K : INT, B : INT);")
        .unwrap();
    for i in 0..30i64 {
        let lk = if i % 9 == 4 {
            Value::Null
        } else {
            Value::Int(i % 8)
        };
        dbms.insert("L", vec![lk, Value::Int(i)]).unwrap();
        let rk = if i % 11 == 6 {
            Value::Null
        } else {
            Value::Int(i % 6)
        };
        dbms.insert("R", vec![rk, Value::Int(i * 2)]).unwrap();
    }
    // The typed i64 hash path must agree with the generic path and the
    // oracle on NULL keys (structural [NULL]==[NULL] candidates are
    // produced, then rejected by the predicate re-check).
    check(&dbms, "SELECT A, B FROM L, R WHERE L.K = R.K ;");
    check(&dbms, "SELECT A, B FROM L, R WHERE L.K = R.K AND B > 10 ;");
}

#[test]
fn recursive_fixpoints_never_columnarize_their_deltas() {
    // TC's locals (and NAME#DELTA) shadow base names; the columnar path
    // must ignore them and still agree everywhere.
    let dbms = eds_bench::graph_dbms(40, 10, 11);
    check(&dbms, "SELECT Dst FROM TC WHERE Src = 30 ;");
    check(&dbms, "SELECT Src FROM TC WHERE Dst > 35 ;");
}

#[test]
fn scan_workloads_match_under_aggregation() {
    let dbms = scan_dbms(2_000, 11);
    check(&dbms, "SELECT K FROM SCAN WHERE A > 500 AND B < 400 ;");
    check(&dbms, "SELECT K FROM SCAN WHERE Tag = 'hot' ;");
    check(
        &dbms,
        "SELECT G, MakeSet(K) FROM SCAN WHERE A > 250 GROUP BY G ;",
    );
    check(&dbms, "SELECT DISTINCT Tag FROM SCAN WHERE A < 100 ;");
}

#[test]
fn mirror_row_view_reproduces_rows_exactly_and_flags_spills() {
    let dbms = mixed_dbms();
    let rel = dbms.db.relation("MIXED").unwrap();
    let cols = ColumnarRelation::build(rel).expect("MIXED has typed columns");
    assert_eq!(cols.len(), rel.len());
    assert_eq!(cols.arity(), rel.schema.arity());
    for (i, row) in rel.rows.iter().enumerate() {
        assert_eq!(
            &cols.row(i)[..],
            &row[..],
            "row view diverges from the authoritative row store at {i}"
        );
    }
    // K, N, Tag are typed (Int, Int, Str — the layouts a kernel reads);
    // R, Flag (Real, Bool) and Blend, Drift, Bag spill.
    for (j, typed) in [true, true, false, false, true, false, false, false]
        .into_iter()
        .enumerate()
    {
        assert_eq!(cols.column_is_typed(j), typed, "column {j}");
    }
}

#[test]
fn database_mirrors_are_invalidated_by_every_mutation() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl("TABLE M (K : INT);").unwrap();
    for i in 0..5i64 {
        dbms.insert("M", vec![Value::Int(i)]).unwrap();
    }
    let q = "SELECT K FROM M WHERE K >= 3 ;";
    assert_eq!(dbms.query(q).unwrap().len(), 2);

    // Insert after the mirror was built: the next scan must see the row.
    dbms.insert("M", vec![Value::Int(7)]).unwrap();
    assert_eq!(dbms.query(q).unwrap().len(), 3);

    // A mid-column kind change flips the relation back to row-major
    // ('eight' >= 3 holds under the cross-kind discriminant order, so
    // the row also joins the result).
    dbms.insert("M", vec![Value::str("eight")]).unwrap();
    assert_eq!(dbms.query(q).unwrap().len(), 4);
    assert!(ColumnarRelation::build(dbms.db.relation("M").unwrap()).is_none());

    // Truncation empties the table; the stale mirror must not leak.
    dbms.db.truncate("M").unwrap();
    assert_eq!(dbms.query(q).unwrap().len(), 0);

    // Refilling through `relation_mut` (the raw escape hatch) also
    // drops the mirror before handing out the `&mut`.
    dbms.db.relation_mut("M").unwrap().push(vec![Value::Int(9)]);
    assert_eq!(dbms.query(q).unwrap().len(), 1);
}

/// Rows per zone of an `Int` column's zone map (the engine's private
/// `ZONE_ROWS`, one selection strip).
const ZONE: usize = 1_024;

/// Zone-map edges. `ZONED` grows to 3 zones and 17 rows: `K` is a
/// sorted key (whole zones skipped or taken), `S` is sorted with NULLs
/// on the zone boundaries (a zone every value passes still holds a
/// NULL), `R` holds random values with the same NULLs, and `X` is
/// random except for zone 1, which holds `i64::MIN` and `i64::MAX` (its
/// width overflows, so the order comparisons fall back to a compare).
/// The mirror is built before the last rows arrive, and the `INSERT`s
/// that follow cross from zone 2 into zone 3. Every operator is checked
/// against each zone's `min − 1`, `min`, `min + 1`, `max − 1`, `max`,
/// `max + 1` (a NULL's `0` included) and both extremes, as a literal and
/// as a `?` bind: columnar on and off, against the reference
/// interpreter.
#[test]
fn zone_edges_match_on_every_path() {
    use eds_lera::{CmpOp, Scalar};
    use eds_testkit::rng::StdRng;

    let n = 3 * ZONE + 17;
    let mut rng = StdRng::seed_from_u64(0x20E5);
    let boundary = |i: usize| i.is_multiple_of(ZONE) || i % ZONE == ZONE - 1;
    let rows: Vec<Vec<Value>> = (0..n)
        .map(|i| {
            let null_or = |v: i64| {
                if boundary(i) {
                    Value::Null
                } else {
                    Value::Int(v)
                }
            };
            let x = match i {
                1_100 => i64::MIN,
                1_900 => i64::MAX,
                _ => rng.gen_range(-40..40i64),
            };
            vec![
                Value::Int(i as i64),
                null_or(2 * i as i64 - 3_000),
                null_or(rng.gen_range(-50..50i64)),
                Value::Int(x),
            ]
        })
        .collect();
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl("TABLE ZONED (K : INT, S : INT, R : INT, X : INT);")
        .unwrap();
    let first_touch = 3 * ZONE - 5;
    dbms.insert_all("ZONED", rows[..first_touch].iter().cloned())
        .unwrap();
    let touch = Expr::search(
        vec![Expr::base("ZONED")],
        Scalar::cmp(CmpOp::Ge, Scalar::attr(1, 1), Scalar::lit(0)),
        vec![Scalar::attr(1, 1)],
    );
    assert_equivalent("first touch", &dbms, &touch);
    dbms.insert_all("ZONED", rows[first_touch..].iter().cloned())
        .unwrap();
    let mirror = dbms.db.columnar("ZONED").expect("mirror maintained");
    assert_eq!(mirror.len(), n);
    assert_eq!(
        *mirror,
        ColumnarRelation::build(dbms.db.relation("ZONED").unwrap()).unwrap(),
        "the grown mirror, zones included, equals a rebuilt one"
    );

    let search =
        |pred: Scalar| Expr::search(vec![Expr::base("ZONED")], pred, vec![Scalar::attr(1, 1)]);
    let col_off = EvalOptions {
        columnar: false,
        ..EvalOptions::default()
    };
    let col_on = EvalOptions {
        columnar: true,
        ..EvalOptions::default()
    };
    for j in 0..4 {
        let payload = |row: &Vec<Value>| match row[j] {
            Value::Int(v) => v,
            _ => 0,
        };
        let mut ks = vec![i64::MIN, i64::MAX];
        for zone in rows.chunks(ZONE) {
            let min = zone.iter().map(payload).min().unwrap();
            let max = zone.iter().map(payload).max().unwrap();
            for bound in [min, max] {
                ks.extend(
                    [bound.checked_sub(1), Some(bound), bound.checked_add(1)]
                        .into_iter()
                        .flatten(),
                );
            }
        }
        ks.sort_unstable();
        ks.dedup();
        for op in CmpOp::ALL {
            let bound = search(Scalar::cmp(op, Scalar::attr(1, j + 1), Scalar::param(0)));
            for &k in &ks {
                let literal = search(Scalar::cmp(op, Scalar::attr(1, j + 1), Scalar::lit(k)));
                let id = format!("column {j} {} {k}", op.symbol());
                assert_equivalent(&id, &dbms, &literal);
                let oracle = eds_engine::eval_reference(&literal, &dbms.db, col_off).unwrap();
                for opts in [col_off, col_on] {
                    let (got, _) =
                        eds_engine::eval_with_params(&bound, &dbms.db, opts, &[Value::Int(k)])
                            .unwrap();
                    assert_eq!(got.rows, oracle.rows, "{id} as a bind under {opts:?}");
                }
            }
        }
    }

    // Conjunctions mixing verdicts: a zone one kernel skips, takes or
    // tests beside another kernel's.
    for sql in [
        "SELECT K FROM ZONED WHERE K >= 1024 AND X > 0 ;",
        "SELECT K FROM ZONED WHERE K < 2048 AND S > -3000 ;",
        "SELECT K FROM ZONED WHERE K >= 2000 AND K < 3080 AND R <> 3 ;",
        "SELECT K FROM ZONED WHERE S >= -3000 AND X <= 39 ;",
        "SELECT K FROM ZONED WHERE K > 3071 AND R < 50 ;",
    ] {
        check(&dbms, sql);
    }
}

/// Slots per selected row up to which a one-`Int`-column DISTINCT, and a
/// GROUP BY on one `Int` column grouped from the columns, address the
/// zone span directly (the engine's private `DENSE_DISTINCT` and
/// `DENSE_GROUP`).
const DENSE_DISTINCT: usize = 64;
const DENSE_GROUP: usize = 8;

/// `DK` holds two blocks and a bit: `N` is small and signed, NULL on both
/// edges of every selection strip and every 37th row; `M` is negative
/// throughout; `W` is small except for `i64::MIN` at row 10 and
/// `i64::MAX` at row 4 000, so its span overflows over the whole table,
/// is too wide over a selection holding row 4 000 alone, and is dense
/// past it. Members are listed in row order (`MakeList`).
fn dense_key_dbms() -> Dbms {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl("TABLE DK (K : INT, N : INT, M : INT, W : INT);")
        .unwrap();
    let n = 2 * eds_engine::BLOCK_ROWS + 900;
    dbms.insert_all(
        "DK",
        (0..n).map(|i| {
            let edge = i % ZONE == 0 || i % ZONE == ZONE - 1 || i % 37 == 3;
            let i = i as i64;
            let w = match i {
                10 => i64::MIN,
                4_000 => i64::MAX,
                _ => i % 5,
            };
            vec![
                Value::Int(i),
                if edge {
                    Value::Null
                } else {
                    Value::Int((i * 13 % 41) - 20)
                },
                Value::Int(-1_000 - i * 7 % 300),
                Value::Int(w),
            ]
        }),
    )
    .unwrap();
    dbms
}

/// DISTINCT and GROUP BY over one `Int` key, on the dense path and off
/// it: NULLs (a NULL flag, a NULL group), negative payloads, a span
/// from `i64::MIN` to `i64::MAX` that must fall back, selections that
/// start and end inside a strip, and empty selections — rows, order and
/// `EvalStats` equal with columnar on and off and to the reference.
#[test]
fn dense_int_keys_match_on_every_path() {
    let dbms = dense_key_dbms();
    for sql in [
        "SELECT DISTINCT N FROM DK WHERE K >= 0 ;",
        "SELECT DISTINCT N FROM DK WHERE K >= 1500 AND K < 3100 ;",
        "SELECT DISTINCT M FROM DK WHERE K >= 0 ;",
        "SELECT DISTINCT W FROM DK WHERE K >= 0 ;",
        "SELECT DISTINCT W FROM DK WHERE K >= 2048 ;",
        "SELECT DISTINCT N FROM DK WHERE K < 0 ;",
        "SELECT DISTINCT N FROM DK WHERE N > 100 ;",
        "SELECT N, MakeList(K) FROM DK WHERE K >= 0 GROUP BY N ;",
        "SELECT N, MakeList(M) FROM DK WHERE K >= 1500 AND K < 3100 GROUP BY N ;",
        "SELECT M, MakeSet(K) FROM DK WHERE K >= 100 GROUP BY M ;",
        "SELECT N, MakeBag(W) FROM DK WHERE M > -1100 GROUP BY N ;",
        "SELECT W, MakeList(K) FROM DK WHERE K >= 0 GROUP BY W ;",
        "SELECT W, MakeList(N) FROM DK WHERE K >= 4096 GROUP BY W ;",
        "SELECT N, MakeList(K) FROM DK WHERE K < 0 GROUP BY N ;",
    ] {
        check(&dbms, sql);
    }
}

/// The left operand of `difference` / `intersect` is a set-mode gather
/// too: a one-`Int`-column search over `DK`, with NULLs, less (or
/// intersected with) another.
#[test]
fn set_operations_over_a_dense_int_key_match() {
    use eds_lera::{CmpOp, Scalar};
    let dbms = dense_key_dbms();
    let n_where = |op: CmpOp, k: i64| {
        Expr::search(
            vec![Expr::base("DK")],
            Scalar::cmp(op, Scalar::attr(1, 1), Scalar::lit(k)),
            vec![Scalar::attr(1, 2)],
        )
    };
    for (lo, hi) in [(7, 1_000), (0, 0), (3_000, 4_500)] {
        let (a, b) = (
            Box::new(n_where(CmpOp::Ge, lo)),
            Box::new(n_where(CmpOp::Lt, hi)),
        );
        let except = Expr::Difference(a.clone(), b.clone());
        assert_equivalent(&format!("{except}"), &dbms, &except);
        let intersect = Expr::Intersect(a, b);
        assert_equivalent(&format!("{intersect}"), &dbms, &intersect);
    }
}

/// Spans of one slot below, at and one above each density bound, over a
/// 300-row selection whose key holds a NULL and runs from −100: the
/// paths on either side of a bound agree with the row path and the
/// reference.
#[test]
fn spans_around_the_density_bounds_match() {
    let n = 300usize;
    for (per_row, sql) in [
        (DENSE_DISTINCT, "SELECT DISTINCT X FROM EDGE WHERE K >= 0 ;"),
        (
            DENSE_GROUP,
            "SELECT X, MakeList(K) FROM EDGE WHERE K >= 0 GROUP BY X ;",
        ),
    ] {
        for slots in [per_row * n - 1, per_row * n, per_row * n + 1] {
            let max = -100 + slots as i64 - 1;
            let mut dbms = Dbms::new().unwrap();
            dbms.execute_ddl("TABLE EDGE (K : INT, X : INT);").unwrap();
            dbms.insert_all(
                "EDGE",
                (0..n as i64).map(|i| {
                    let x = match i {
                        0 => Value::Int(-100),
                        1 => Value::Int(max),
                        5 => Value::Null,
                        _ => Value::Int(-100 + i * 7_919 % (max + 101)),
                    };
                    vec![Value::Int(i), x]
                }),
            )
            .unwrap();
            check(&dbms, sql);
        }
    }
}

/// One-column targets over each kind of column: INT, REAL, BOOL, a
/// column of NULLs, STRING and OBJECT, each but the NULL one holding
/// NULLs too. A one-value row of a plain value (NULL, BOOL, INT, REAL,
/// OBJECT) is held inline and a `STRING` row is cut from a block, so a
/// `STRING` column with NULLs interleaves the two in one result. Each is
/// read as a bag, as a set and inside a `fix`, over the mirror and row by
/// row: rows and order are the reference's.
#[test]
fn one_column_targets_match_on_every_path() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TYPE Person OBJECT TUPLE (Name : CHAR) ;
         TABLE ONE (K : INT, Nxt : INT, I : INT, R : REAL, B : BOOL,
                    Z : INT, S : CHAR, O : Person) ;",
    )
    .unwrap();
    let people: Vec<Value> = (0..4)
        .map(|p| dbms.create_object("Person", Value::Tuple(vec![Value::str(format!("P{p}"))])))
        .collect();
    let n = 40i64;
    dbms.insert_all(
        "ONE",
        (0..n).map(|k| {
            let or_null = |v: Value| if k % 4 == 1 { Value::Null } else { v };
            vec![
                Value::Int(k),
                Value::Int((k * 7 + 3) % n),
                or_null(Value::Int(k % 6)),
                or_null(Value::real((k % 5) as f64 * 0.5)),
                or_null(Value::Bool(k % 3 == 0)),
                Value::Null,
                or_null(Value::str(format!("s{}", k % 6))),
                or_null(people[(k % 4) as usize].clone()),
            ]
        }),
    )
    .unwrap();
    for c in ["I", "R", "B", "Z", "S", "O"] {
        dbms.execute_ddl(&format!(
            "CREATE VIEW FIX_{c} (X) AS
             ( SELECT {c} FROM ONE WHERE K < 6
               UNION
               SELECT T2.{c} FROM FIX_{c}, ONE T1, ONE T2
               WHERE FIX_{c}.X = T1.{c} AND T1.Nxt = T2.K ) ;"
        ))
        .unwrap();
        check(&dbms, &format!("SELECT {c} FROM ONE WHERE K >= 3 ;"));
        check(&dbms, &format!("SELECT {c} FROM ONE ;"));
        check(
            &dbms,
            &format!("SELECT DISTINCT {c} FROM ONE WHERE K >= 3 ;"),
        );
        check(&dbms, &format!("SELECT X FROM FIX_{c} ;"));
    }
}
