//! Large-input differential suite: with the columnar path on and off
//! the executor must return *byte-identical* results — same rows, same
//! order — as the seed reference interpreter, over inputs of several
//! [`BLOCK_ROWS`] blocks: skewed datasets whose matches are concentrated
//! in the first block and the last row, inputs around one block (empty,
//! one row, exactly `BLOCK_ROWS` and one more), all-NULL filter columns
//! (a spilled mirror and empty selections), `GROUP BY` with an
//! order-preserving `MakeList` collection, where the fused scan+nest
//! path must collect items in row order, a nonlinear fixpoint whose
//! delta derives one row many times over, and DISTINCT / GROUP BY over
//! one `Int` key whose span is dense or, for one column, too wide to
//! address.

use eds_adt::Value;
use eds_bench::assert_matches_oracle;
use eds_core::Dbms;
use eds_engine::{EvalOptions, BLOCK_ROWS};

/// The columnar path toggled both ways.
fn morsel_configs() -> Vec<EvalOptions> {
    [false, true]
        .map(|columnar| EvalOptions {
            columnar,
            ..Default::default()
        })
        .to_vec()
}

fn check(dbms: &Dbms, sql: &str) {
    let configs = morsel_configs();
    let prepared = dbms.prepare(sql).unwrap();
    assert_matches_oracle(&format!("{sql} [raw]"), &dbms.db, &prepared.expr, &configs);
    let rewritten = dbms.rewrite(&prepared).unwrap();
    assert_matches_oracle(
        &format!("{sql} [rewritten]"),
        &dbms.db,
        &rewritten.expr,
        &configs,
    );
}

/// Five-and-a-bit blocks whose matches are pathologically placed: the
/// `A = 1` rows all sit in the first block plus one straggler in the
/// final partial block.
fn skewed_dbms() -> Dbms {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl("TABLE SKEW (K : INT, G : INT, A : INT, Tag : CHAR);")
        .unwrap();
    let n = (5 * BLOCK_ROWS + 7) as i64;
    dbms.insert_all(
        "SKEW",
        (0..n).map(|i| {
            let a = if i < BLOCK_ROWS as i64 || i == n - 1 {
                1
            } else {
                1_000 + i
            };
            vec![
                Value::Int(i),
                Value::Int(i % 3),
                Value::Int(a),
                Value::str(if i % 5 == 0 { "hot" } else { "cold" }),
            ]
        }),
    )
    .unwrap();
    dbms
}

#[test]
fn skewed_filters_merge_in_row_order() {
    let dbms = skewed_dbms();
    for sql in [
        // All matches in the first block plus one in the last.
        "SELECT K FROM SKEW WHERE A = 1 ;",
        // Matches only outside the first block.
        "SELECT K FROM SKEW WHERE A > 1000 AND K < 6000 ;",
        // Interned-string kernel across all blocks.
        "SELECT K FROM SKEW WHERE Tag = 'hot' ;",
        // Dedup above a large scan.
        "SELECT DISTINCT Tag FROM SKEW WHERE A = 1 ;",
        // Predicate selecting nothing.
        "SELECT K FROM SKEW WHERE A = -5 ;",
    ] {
        check(&dbms, sql);
    }
}

#[test]
fn fused_group_by_collects_in_global_row_order() {
    let dbms = skewed_dbms();
    // LIST keeps insertion order, so the fused scan+nest path must
    // append group members in row order. Every group spans every block
    // (G = K % 3).
    check(
        &dbms,
        "SELECT G, MakeList(K) FROM SKEW WHERE A >= 1 GROUP BY G ;",
    );
    // Skewed variant: list contents come from the first block and the
    // tail.
    check(
        &dbms,
        "SELECT G, MakeList(K) FROM SKEW WHERE A = 1 GROUP BY G ;",
    );
    // Set/bag collections sort their members — order-insensitive, but
    // the membership must still be exact.
    check(
        &dbms,
        "SELECT G, MakeSet(Tag) FROM SKEW WHERE K < 5000 GROUP BY G ;",
    );
}

#[test]
fn boundary_cardinalities_match_everywhere() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TABLE EMPTY (K : INT, V : INT);\n\
         TABLE ONE (K : INT, V : INT);\n\
         TABLE EXACT (K : INT, V : INT);",
    )
    .unwrap();
    dbms.insert("ONE", vec![Value::Int(1), Value::Int(10)])
        .unwrap();
    // Exactly one block, and one row past it.
    dbms.insert_all(
        "EXACT",
        (0..=BLOCK_ROWS as i64).map(|i| vec![Value::Int(i), Value::Int(i % 7)]),
    )
    .unwrap();
    for sql in [
        "SELECT K FROM EMPTY WHERE V > 0 ;",
        "SELECT K, V FROM EMPTY ;",
        "SELECT K FROM ONE WHERE V = 10 ;",
        "SELECT K FROM ONE WHERE V = 11 ;",
        "SELECT K FROM EXACT WHERE V = 3 ;",
        "SELECT V, MakeList(K) FROM EXACT WHERE K >= 0 GROUP BY V ;",
    ] {
        check(&dbms, sql);
    }
}

#[test]
fn all_null_columns_match_under_every_worker_count() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl("TABLE HOLES (K : INT, V : INT);").unwrap();
    // Two-and-a-half blocks of NULLs in the filter column: the mirror
    // spills V, and the selections are empty.
    dbms.insert_all(
        "HOLES",
        (0..(2 * BLOCK_ROWS + BLOCK_ROWS / 2) as i64).map(|i| vec![Value::Int(i), Value::Null]),
    )
    .unwrap();
    check(&dbms, "SELECT K FROM HOLES WHERE V = 1 ;");
    check(&dbms, "SELECT K FROM HOLES WHERE V = NULL ;");
    check(&dbms, "SELECT K FROM HOLES WHERE K > 3000 ;");
}

#[test]
fn joins_over_morsel_sized_inputs_match() {
    let mut dbms = skewed_dbms();
    dbms.execute_ddl("TABLE DIM (G : INT, Name : CHAR);")
        .unwrap();
    for (g, name) in [(0, "zero"), (1, "one"), (2, "two")] {
        dbms.insert("DIM", vec![Value::Int(g), Value::str(name)])
            .unwrap();
    }
    check(
        &dbms,
        "SELECT K, Name FROM SKEW, DIM \
         WHERE SKEW.G = DIM.G AND A = 1 AND K < 100 ;",
    );
}

/// A nonlinear closure whose first delta spans two blocks: `EDGE` runs
/// from 2 sources through 525 middles to 2 sinks, so each
/// source-to-sink path is derived once per middle and by both variants
/// of `TC T1, TC T2` (the delta joined to itself is read through either
/// occurrence). The semi-naive fixpoint must drop every such repeat, and
/// count the same work with the columnar path on as off.
#[test]
fn nonlinear_fixpoint_drops_repeats_across_morsels_and_variants() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TABLE EDGE (Src : INT, Dst : INT);
         CREATE VIEW TC (Src, Dst) AS
         ( SELECT Src, Dst FROM EDGE
           UNION
           SELECT T1.Src, T2.Dst FROM TC T1, TC T2 WHERE T1.Dst = T2.Src ) ;",
    )
    .unwrap();
    let (sources, sinks, middles) = ([0i64, 1], [2i64, 3], 10..535i64);
    dbms.insert_all(
        "EDGE",
        middles.flat_map(|m| {
            let into = sources.map(|s| vec![Value::Int(s), Value::Int(m)]);
            let out = sinks.map(|t| vec![Value::Int(m), Value::Int(t)]);
            into.into_iter().chain(out)
        }),
    )
    .unwrap();
    assert!(dbms.db.relation("EDGE").unwrap().len() > BLOCK_ROWS);

    // The rewriter leaves an unbound closure as it is: one plan.
    let plan = dbms.prepare("SELECT Src, Dst FROM TC ;").unwrap().expr;
    let stats = assert_matches_oracle("tc", &dbms.db, &plan, &morsel_configs());
    assert_eq!(stats[0], stats[1]);
    assert!(stats[0].fix_iterations >= 2, "{:?}", stats[0]);
}

/// Five-and-a-bit blocks keyed by `D`, whose values shift by block
/// (`10 · block + i % 7 − 30`, negative in the first three) and which is
/// NULL on every block boundary and every 101st row; `E` is `i % 3`
/// except for one row of block 2 holding `2^61`, so `E`'s span is too
/// wide to address and `D`'s is not. A DISTINCT gathers `D`'s keys into
/// a bitmap and `E`'s into a code set; a GROUP BY lists members in row
/// order. Rows, order and every work counter agree, columnar on and
/// off.
#[test]
fn dense_int_keys_match_under_every_worker_count() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl("TABLE LANES (K : INT, D : INT, E : INT);")
        .unwrap();
    let n = 5 * BLOCK_ROWS + 7;
    let wide = 2 * BLOCK_ROWS + 5;
    dbms.insert_all(
        "LANES",
        (0..n).map(|i| {
            let d = if i % BLOCK_ROWS == 0 || i % 101 == 50 {
                Value::Null
            } else {
                Value::Int(10 * (i / BLOCK_ROWS) as i64 + (i % 7) as i64 - 30)
            };
            let e = if i == wide { 1 << 61 } else { (i % 3) as i64 };
            vec![Value::Int(i as i64), d, Value::Int(e)]
        }),
    )
    .unwrap();
    let configs = morsel_configs();
    for sql in [
        "SELECT DISTINCT D FROM LANES WHERE K >= 0 ;",
        "SELECT DISTINCT D FROM LANES WHERE K >= 1000 AND K < 9000 ;",
        "SELECT DISTINCT E FROM LANES WHERE K >= 0 ;",
        "SELECT D, MakeList(K) FROM LANES WHERE K >= 0 GROUP BY D ;",
        "SELECT D, MakeList(E) FROM LANES WHERE K >= 3000 GROUP BY D ;",
        "SELECT E, MakeList(K) FROM LANES WHERE K >= 4000 GROUP BY E ;",
    ] {
        let prepared = dbms.prepare(sql).unwrap();
        let rewritten = dbms.rewrite(&prepared).unwrap();
        for (plan, expr) in [("raw", &prepared.expr), ("rewritten", &rewritten.expr)] {
            let id = format!("{sql} [{plan}]");
            let stats = assert_matches_oracle(&id, &dbms.db, expr, &configs);
            for (s, opts) in stats.iter().zip(&configs) {
                assert_eq!(*s, stats[0], "{id}: work counters under {opts:?}");
            }
        }
    }
}
