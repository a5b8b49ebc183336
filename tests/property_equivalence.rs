//! Randomized tests of the system's core invariants:
//!
//! 1. **Rewriting preserves results** — for randomly generated databases
//!    and queries, the rewritten plan returns the same relation as the
//!    canonical plan (the rewriter's fundamental contract).
//! 2. **Term bridge round-trips** — random LERA plans survive
//!    `expr → term → expr` unchanged.
//! 3. **Matcher soundness** — every match reported for a random
//!    segment pattern reconstructs the subject when substituted back.
//!
//! (That the fixpoint strategies agree on random recursive queries is
//! checked in `crates/bench/tests/exec_equivalence.rs`, beside the naive
//! iteration it compares against.)
//!
//! Each property runs a fixed number of seeded random cases.

use eds_core::Dbms;
use eds_engine::EvalOptions;
use eds_lera::{expr_from_term, expr_to_term, CmpOp, Expr, Scalar};
use eds_rewrite::{all_matches, Term};
use eds_testkit::StdRng;

// ------------------------------------------------------------ workloads

fn small_db(rows_a: &[(i64, i64)], rows_b: &[(i64, i64)]) -> Dbms {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TABLE RA (X : INT, Y : INT); TABLE RB (X : INT, Y : INT);
         CREATE VIEW VA (X, Y) AS SELECT X, Y FROM RA WHERE X >= 0 ;
         CREATE VIEW VU (X, Y) AS
           ( SELECT X, Y FROM RA UNION SELECT X, Y FROM RB ) ;",
    )
    .unwrap();
    for &(x, y) in rows_a {
        dbms.insert("RA", vec![x.into(), y.into()]).unwrap();
    }
    for &(x, y) in rows_b {
        dbms.insert("RB", vec![x.into(), y.into()]).unwrap();
    }
    dbms
}

fn random_rows(rng: &mut StdRng) -> Vec<(i64, i64)> {
    let n = rng.gen_range(0usize..25);
    (0..n)
        .map(|_| (rng.gen_range(0i64..20), rng.gen_range(-5i64..15)))
        .collect()
}

/// A small pool of query shapes parameterized by constants.
fn random_query(rng: &mut StdRng) -> String {
    let c1 = rng.gen_range(0i64..20);
    let c2 = rng.gen_range(-5i64..15);
    match rng.gen_range(0usize..9) {
        0 => format!("SELECT X FROM RA WHERE X = {c1} ;"),
        1 => format!("SELECT X, Y FROM VA WHERE Y < {c2} AND X <> {c1} ;"),
        2 => format!("SELECT RA.X FROM RA, RB WHERE RA.X = RB.X AND RB.Y > {c2} ;"),
        3 => format!("SELECT X FROM VU WHERE X = {c1} ;"),
        4 => format!("SELECT X FROM VA WHERE X = {c1} AND X = {} ;", c1 + 1),
        5 => format!("SELECT A.X FROM VA A, VU B WHERE A.X = B.X AND A.Y = {c2} ;"),
        6 => format!("SELECT DISTINCT Y FROM VU WHERE Y >= {c2} ;"),
        7 => format!("SELECT X, SUM(MakeBag(Y)) FROM RA WHERE Y > {c2} GROUP BY X ;"),
        _ => format!("SELECT X FROM RA WHERE X IN (SELECT X FROM RB) AND Y <> {c2} ;"),
    }
}

#[test]
fn executor_agrees_with_the_reference() {
    let mut rng = StdRng::seed_from_u64(0xE0_0001);
    for _ in 0..48 {
        let rows_a = random_rows(&mut rng);
        let rows_b = random_rows(&mut rng);
        let sql = random_query(&mut rng);
        let dbms = small_db(&rows_a, &rows_b);
        let prepared = dbms.prepare(&sql).unwrap();
        let got = eds_engine::eval_with(&prepared.expr, &dbms.db, EvalOptions::default())
            .unwrap()
            .0;
        let oracle =
            eds_engine::eval_reference(&prepared.expr, &dbms.db, EvalOptions::default()).unwrap();
        assert_eq!(got.rows, oracle.rows, "executor diverges on {sql}");
    }
}

#[test]
fn rewriting_preserves_results() {
    let mut rng = StdRng::seed_from_u64(0xE0_0002);
    for _ in 0..48 {
        let rows_a = random_rows(&mut rng);
        let rows_b = random_rows(&mut rng);
        let sql = random_query(&mut rng);
        let dbms = small_db(&rows_a, &rows_b);
        let baseline = dbms.query_unoptimized(&sql).unwrap();
        let optimized = dbms.query(&sql).unwrap();
        assert!(
            baseline.set_eq(&optimized),
            "rewrite changed results of {sql}: {:?} vs {:?}",
            baseline.sorted_rows(),
            optimized.sorted_rows()
        );
    }
}

// --------------------------- semantic-rule soundness on random filters

/// Random conjunctions of comparisons between two columns and constants:
/// the EQSUBST / TRANSITIVITY / SIMPLIFYQ chain must never change which
/// rows qualify — even when it proves the qualification inconsistent.
fn random_conjunction(rng: &mut StdRng) -> String {
    const COLS: &[&str] = &["X", "Y"];
    const OPS: &[&str] = &["=", "<>", "<", ">", "<=", ">="];
    let n = rng.gen_range(1usize..6);
    (0..n)
        .map(|_| {
            let l = *rng.choose(COLS).unwrap();
            let op = *rng.choose(OPS).unwrap();
            let r = match rng.gen_range(0u32..3) {
                0 => rng.gen_range(-4i64..8).to_string(),
                1 => "X".to_owned(),
                _ => "Y".to_owned(),
            };
            format!("{l} {op} {r}")
        })
        .collect::<Vec<_>>()
        .join(" AND ")
}

#[test]
fn semantic_rules_preserve_filter_semantics() {
    let mut rng = StdRng::seed_from_u64(0xE0_0004);
    for _ in 0..64 {
        let n_rows = rng.gen_range(0usize..15);
        let rows: Vec<(i64, i64)> = (0..n_rows)
            .map(|_| (rng.gen_range(-4i64..8), rng.gen_range(-4i64..8)))
            .collect();
        let cond = random_conjunction(&mut rng);
        let mut dbms = Dbms::new().unwrap();
        dbms.execute_ddl("TABLE T (X : INT, Y : INT);").unwrap();
        for (x, y) in &rows {
            dbms.insert("T", vec![(*x).into(), (*y).into()]).unwrap();
        }
        let sql = format!("SELECT X, Y FROM T WHERE {cond} ;");
        let baseline = dbms.query_unoptimized(&sql).unwrap();
        let optimized = dbms.query(&sql).unwrap();
        assert!(
            baseline.set_eq(&optimized),
            "semantic rules changed {sql}: {:?} vs {:?}",
            baseline.sorted_rows(),
            optimized.sorted_rows()
        );
    }
}

/// `{select} WHERE {cond}` as written (each `?` of `cond` spelled as its
/// literal) through `query_unoptimized` and `query`, and prepared with
/// the `?`s kept and `literals` bound: every path must return the bag
/// the reference executor returns on the canonical plan, `kept` rows.
fn every_path_agrees_with_the_reference(
    dbms: &Dbms,
    select: &str,
    cond: &str,
    literals: &[eds_adt::Value],
    kept: usize,
) {
    use eds_adt::Value;
    let level = dbms.opt_level();
    let mut spelled = literals.iter().map(|v| match v {
        Value::Real(r) => format!("{:?}", r.0),
        other => other.to_string(),
    });
    let literal_cond: String = cond
        .chars()
        .map(|c| match c {
            '?' => spelled.next().unwrap(),
            other => other.to_string(),
        })
        .collect();
    let sql = format!("{select} WHERE {literal_cond} ;");
    let canonical = dbms.prepare(&sql).unwrap().expr;
    let reference =
        eds_engine::eval_reference(&canonical, &dbms.db, EvalOptions::default()).unwrap();
    assert_eq!(reference.rows.len(), kept, "the reference on {sql}");
    let bound = dbms
        .prepare_stmt(&format!("{select} WHERE {cond} ;"))
        .and_then(|stmt| stmt.execute(dbms, literals));
    for (path, got) in [
        ("query_unoptimized", dbms.query_unoptimized(&sql)),
        ("query", dbms.query(&sql)),
        ("prepared execute", bound),
    ] {
        let got = got.unwrap_or_else(|e| panic!("{path} failed on {sql} at {level:?}: {e}"));
        assert!(
            got.bag_eq(&reference),
            "{path} disagrees with the reference on {sql} at {level:?}: {:?} vs {:?}",
            got.sorted_rows(),
            reference.sorted_rows()
        );
    }
}

/// Comparison shapes on which the rewriter's private copies of the
/// comparison once answered differently from the executor (lossy `f64`
/// witnesses above 2^53, structural `Int`/`Real` equality, a fold
/// without the collection broadcast), beside the clashes that must keep
/// collapsing. Each runs as written and prepared with `?` for every
/// literal (a `PARAM` leaf is not a constant, so nothing folds and the
/// clash is left to bind time); every path must return what the
/// reference executor returns on the canonical plan.
#[test]
fn comparison_rewrites_agree_with_the_executor() {
    use eds_adt::Value;
    use eds_engine::OptLevel;
    const BIG: i64 = (1 << 53) + 1;
    let int = Value::Int;
    // (qualification with `?` for each literal, the literals, rows kept)
    let cases: [(&str, Vec<Value>, usize); 9] = [
        ("X > ? AND X < ?", vec![int(BIG - 1), int(BIG + 1)], 1),
        ("X = ? AND X <> ?", vec![int(BIG), int(BIG - 1)], 1),
        ("X = ? AND X = ?", vec![int(5), Value::real(5.0)], 1),
        ("ALL(MAKESET(?, ?) < ?)", vec![int(1), int(2), int(3)], 2),
        ("EXIST(MAKESET(?, ?) > ?)", vec![int(1), int(5), int(3)], 2),
        ("X <= Y AND X >= Y AND X <> Y", vec![], 0),
        ("? < X AND X < ?", vec![int(3), int(2)], 0),
        ("X < X", vec![], 0),
        ("X >= ? AND X >= ?", vec![int(5), int(4)], 2),
    ];
    for level in [OptLevel::Simple, OptLevel::Full] {
        let mut dbms = Dbms::new().unwrap();
        dbms.execute_ddl("TABLE T (X : INT, Y : INT);").unwrap();
        dbms.insert("T", vec![BIG.into(), 1.into()]).unwrap();
        dbms.insert("T", vec![5.into(), 2.into()]).unwrap();
        dbms.set_opt_level(level);
        for (cond, literals, kept) in &cases {
            every_path_agrees_with_the_reference(
                &dbms,
                "SELECT X, Y FROM T",
                cond,
                literals,
                *kept,
            );
        }
    }
}

/// Equalities that link two inputs — what the default executor hashes
/// on — over keys an oracle sharing that design answers wrongly: an INT
/// that meets its REAL twin (`2 = 2.0` holds, the two hash apart
/// structurally), a NULL on each side (identical, never equal), an INT
/// above 2^53 beside the REAL it rounds onto (`sql_cmp` widens the INT,
/// so the two meet) and a stranger. Same paths as above, against the
/// reference on the canonical plan.
#[test]
fn mixed_kind_links_agree_with_the_reference() {
    use eds_adt::Value;
    use eds_engine::OptLevel;
    const BIG: i64 = (1 << 53) + 1;
    let int = Value::Int;
    // (qualification with `?` for each literal, the literals, rows kept)
    let cases: [(&str, Vec<Value>, usize); 4] = [
        ("T.X = U.R", vec![], 3),
        ("U.R = T.X AND T.Y < ?", vec![int(5)], 2),
        // Two links into one input.
        ("T.X = U.R AND T.Y = U.S", vec![], 2),
        // INT against INT: the control.
        ("T.X = U.S", vec![], 2),
    ];
    for level in [OptLevel::Simple, OptLevel::Full] {
        let mut dbms = Dbms::new().unwrap();
        dbms.execute_ddl("TABLE T (X : INT, Y : INT); TABLE U (R : REAL, S : INT);")
            .unwrap();
        for (x, y) in [
            (int(2), 1),
            (int(2), 6),
            (Value::Null, 2),
            (int(BIG), 3),
            (int(7), 4),
        ] {
            dbms.insert("T", vec![x, y.into()]).unwrap();
        }
        for (r, s) in [
            (Value::real(2.0), 1),
            (Value::Null, 2),
            (Value::real((BIG - 1) as f64), 3),
            (Value::real(8.5), 9),
        ] {
            dbms.insert("U", vec![r, s.into()]).unwrap();
        }
        dbms.set_opt_level(level);
        for (cond, literals, kept) in &cases {
            every_path_agrees_with_the_reference(
                &dbms,
                "SELECT X, Y, R, S FROM T, U",
                cond,
                literals,
                *kept,
            );
        }
    }
}

// --------------------------------------------- term bridge round-trips

fn random_scalar(rng: &mut StdRng, depth: u32) -> Scalar {
    if depth == 0 || rng.gen_bool(0.35) {
        return match rng.gen_range(0u32..3) {
            0 => Scalar::attr(rng.gen_range(1usize..3), rng.gen_range(1usize..4)),
            1 => Scalar::lit(rng.gen_range(-50i64..50)),
            _ => Scalar::lit(*rng.choose(&["a", "b", "Quinn"]).unwrap()),
        };
    }
    match rng.gen_range(0u32..6) {
        0 => {
            let op = *rng.choose(&[CmpOp::Eq, CmpOp::Lt, CmpOp::Ge]).unwrap();
            Scalar::cmp(
                op,
                random_scalar(rng, depth - 1),
                random_scalar(rng, depth - 1),
            )
        }
        1 => Scalar::and(random_scalar(rng, depth - 1), random_scalar(rng, depth - 1)),
        2 => Scalar::Or(
            Box::new(random_scalar(rng, depth - 1)),
            Box::new(random_scalar(rng, depth - 1)),
        ),
        3 => Scalar::Not(Box::new(random_scalar(rng, depth - 1))),
        4 => {
            let n = rng.gen_range(0usize..3);
            Scalar::call(
                "MEMBER2",
                (0..n).map(|_| random_scalar(rng, depth - 1)).collect(),
            )
        }
        _ => Scalar::field(random_scalar(rng, depth - 1), "Salary"),
    }
}

fn random_expr(rng: &mut StdRng, depth: u32) -> Expr {
    if depth == 0 || rng.gen_bool(0.3) {
        return Expr::base(*rng.choose(&["R", "S", "T"]).unwrap());
    }
    match rng.gen_range(0u32..7) {
        0 => {
            let n_in = rng.gen_range(1usize..3);
            let n_proj = rng.gen_range(1usize..3);
            Expr::Search {
                inputs: (0..n_in).map(|_| random_expr(rng, depth - 1)).collect(),
                pred: random_scalar(rng, 3),
                proj: (0..n_proj).map(|_| random_scalar(rng, 3)).collect(),
            }
        }
        1 => Expr::Filter {
            input: Box::new(random_expr(rng, depth - 1)),
            pred: random_scalar(rng, 3),
        },
        2 => {
            let n = rng.gen_range(1usize..4);
            Expr::Union((0..n).map(|_| random_expr(rng, depth - 1)).collect())
        }
        3 => Expr::Difference(
            Box::new(random_expr(rng, depth - 1)),
            Box::new(random_expr(rng, depth - 1)),
        ),
        4 => Expr::Fix {
            name: "V".into(),
            body: Box::new(random_expr(rng, depth - 1)),
        },
        5 => Expr::Nest {
            input: Box::new(random_expr(rng, depth - 1)),
            group: vec![1],
            nested: vec![2],
            kind: eds_adt::CollKind::Set,
        },
        _ => Expr::Dedup(Box::new(random_expr(rng, depth - 1))),
    }
}

#[test]
fn term_bridge_roundtrips() {
    let mut rng = StdRng::seed_from_u64(0xE0_0005);
    for _ in 0..128 {
        let expr = random_expr(&mut rng, 3);
        let term = expr_to_term(&expr);
        let back = expr_from_term(&term).unwrap();
        // Round-trip is exact up to functor-name canonicalization, which
        // a second trip makes stable.
        assert_eq!(expr_to_term(&back), term);
    }
}

#[test]
fn matcher_matches_reconstruct_subject() {
    let mut rng = StdRng::seed_from_u64(0xE0_0006);
    for _ in 0..128 {
        let n = rng.gen_range(0usize..7);
        let subject = Term::list(
            (0..n)
                .map(|_| Term::atom(*rng.choose(&["A", "B", "C"]).unwrap()))
                .collect(),
        );
        let pattern = Term::list(vec![Term::seq("x"), Term::var("v"), Term::seq("y")]);
        for binding in all_matches(&pattern, &subject) {
            let rebuilt = binding.apply(&pattern);
            assert_eq!(&rebuilt, &subject);
        }
    }
}

#[test]
fn set_matcher_finds_all_elements() {
    let mut rng = StdRng::seed_from_u64(0xE0_0007);
    for _ in 0..128 {
        let n = rng.gen_range(1usize..8);
        let atoms: Vec<i64> = (0..n).map(|_| rng.gen_range(0i64..100)).collect();
        let subject = Term::set(atoms.iter().map(|i| Term::int(*i)).collect());
        let pattern = Term::set(vec![Term::seq("x"), Term::var("v")]);
        let matches = all_matches(&pattern, &subject);
        // One match per element choice.
        assert_eq!(matches.len(), atoms.len());
    }
}
