//! Morsel-scheduler differential suite: under every worker count the
//! morsel executor must return *byte-identical* results — same rows,
//! same order — as the seed reference interpreter. The fixtures target
//! the scheduler's failure modes specifically: skewed datasets whose
//! matches are concentrated in one morsel (an out-of-order merge would
//! reorder the output), inputs around the one-morsel boundary (empty,
//! one row, exactly `MORSEL_ROWS`), all-NULL filter columns (spilled
//! mirror + empty selections in most morsels), and `GROUP BY` with an
//! order-preserving `MakeList` collection, where the fused scan+nest
//! path must collect items in global row order even though morsels
//! complete out of order, a nonlinear fixpoint whose delta spans
//! morsels, so one row is derived in several of them, and DISTINCT /
//! GROUP BY over one `Int` key whose morsels address their own spans.

use eds_adt::Value;
use eds_bench::assert_matches_oracle;
use eds_core::Dbms;
use eds_engine::{EvalOptions, MORSEL_ROWS};

/// Worker requests from sequential (1) to past the host's core count
/// (8), with the columnar path toggled both ways.
fn morsel_configs() -> Vec<EvalOptions> {
    let mut out = Vec::new();
    for parallelism in [1usize, 3, 4, 8] {
        for columnar in [false, true] {
            out.push(EvalOptions {
                parallelism,
                columnar,
                ..Default::default()
            });
        }
    }
    out
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

/// Five-and-a-bit morsels whose matches are pathologically placed: the
/// `A = 1` rows all sit in morsel 0 plus one straggler in the final
/// partial morsel, so a scheduler that merged results in completion
/// order instead of morsel order would almost surely misplace the tail.
fn skewed_dbms() -> Dbms {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl("TABLE SKEW (K : INT, G : INT, A : INT, Tag : CHAR);")
        .unwrap();
    let n = (5 * MORSEL_ROWS + 7) as i64;
    dbms.insert_all(
        "SKEW",
        (0..n).map(|i| {
            let a = if i < MORSEL_ROWS as i64 || i == n - 1 {
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
        // All matches in morsel 0 plus one in the last partial morsel.
        "SELECT K FROM SKEW WHERE A = 1 ;",
        // Matches only outside morsel 0.
        "SELECT K FROM SKEW WHERE A > 1000 AND K < 6000 ;",
        // Interned-string kernel across all morsels.
        "SELECT K FROM SKEW WHERE Tag = 'hot' ;",
        // Dedup above a parallel scan.
        "SELECT DISTINCT Tag FROM SKEW WHERE A = 1 ;",
        // Predicate selecting nothing: every morsel's slot is empty.
        "SELECT K FROM SKEW WHERE A = -5 ;",
    ] {
        check(&dbms, sql);
    }
}

#[test]
fn fused_group_by_collects_in_global_row_order() {
    let dbms = skewed_dbms();
    // LIST keeps insertion order, so the fused scan+nest path must
    // append group members in global row order even though the morsels
    // that found them finish in any order. Every group spans every
    // morsel (G = K % 3).
    check(
        &dbms,
        "SELECT G, MakeList(K) FROM SKEW WHERE A >= 1 GROUP BY G ;",
    );
    // Skewed variant: list contents come from morsel 0 and the tail.
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
    // Exactly one morsel, and one row past it: the sequential fast path
    // on one side of the boundary, a two-morsel parallel run just above.
    dbms.insert_all(
        "EXACT",
        (0..=MORSEL_ROWS as i64).map(|i| vec![Value::Int(i), Value::Int(i % 7)]),
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
    // Two-and-a-half morsels of NULLs in the filter column: the mirror
    // spills V, and most morsels produce empty selections.
    dbms.insert_all(
        "HOLES",
        (0..(2 * MORSEL_ROWS + MORSEL_ROWS / 2) as i64).map(|i| vec![Value::Int(i), Value::Null]),
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

/// A nonlinear closure whose first delta spans two morsels: `EDGE` runs
/// from 2 sources through 525 middles to 2 sinks, so each
/// source-to-sink path is derived once per middle, from every morsel,
/// and by both variants of `TC T1, TC T2` (the delta joined to itself
/// is read through either occurrence). The semi-naive fixpoint must drop
/// every such repeat, under every worker count, and count the same work
/// at one worker as at four.
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
    assert!(dbms.db.relation("EDGE").unwrap().len() > MORSEL_ROWS);

    // The rewriter leaves an unbound closure as it is: one plan.
    let plan = dbms.prepare("SELECT Src, Dst FROM TC ;").unwrap().expr;
    let configs = [1, 4].map(|parallelism| EvalOptions {
        parallelism,
        ..Default::default()
    });
    let stats = assert_matches_oracle("tc", &dbms.db, &plan, &configs);
    assert_eq!(stats[0], stats[1]);
    assert!(stats[0].fix_iterations >= 2, "{:?}", stats[0]);
}

/// Five-and-a-bit morsels keyed by `D`, whose values shift by morsel
/// (`10 · morsel + i % 7 − 30`, negative in the first three) and which
/// is NULL on every morsel boundary and every 101st row; `E` is `i % 3`
/// except for one row of morsel 2 holding `2^61`, so that morsel's span
/// is too wide to address and the others' are not. A DISTINCT gathers
/// each morsel's keys into its own bitmap (or, for morsel 2, its code
/// set) and the sort above merges them; a GROUP BY lists members in
/// global row order. Rows, order and every work counter agree under
/// every worker count, columnar on and off.
#[test]
fn dense_int_keys_match_under_every_worker_count() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl("TABLE LANES (K : INT, D : INT, E : INT);")
        .unwrap();
    let n = 5 * MORSEL_ROWS + 7;
    let wide = 2 * MORSEL_ROWS + 5;
    dbms.insert_all(
        "LANES",
        (0..n).map(|i| {
            let d = if i % MORSEL_ROWS == 0 || i % 101 == 50 {
                Value::Null
            } else {
                Value::Int(10 * (i / MORSEL_ROWS) as i64 + (i % 7) as i64 - 30)
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
