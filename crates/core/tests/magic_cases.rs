//! Additional Alexander/magic coverage: multi-attribute bindings,
//! multiple seed branches, and end-to-end correctness on denser graphs.

use eds_core::{magic, Dbms};
use eds_lera::{Expr, Scalar};

fn tc_body() -> Expr {
    Expr::Union(vec![
        Expr::base("E"),
        Expr::search(
            vec![Expr::base("T"), Expr::base("T")],
            Scalar::eq(Scalar::attr(1, 2), Scalar::attr(2, 1)),
            vec![Scalar::attr(1, 1), Scalar::attr(2, 2)],
        ),
    ])
}

#[test]
fn multiple_bound_attributes_on_linear_fix() {
    // Linear body preserving both attributes from the recursive
    // occurrence is reducible with a two-attribute binding.
    let body = Expr::Union(vec![
        Expr::base("E"),
        Expr::search(
            vec![Expr::base("X"), Expr::base("T")],
            Scalar::eq(Scalar::attr(1, 1), Scalar::attr(2, 1)),
            vec![Scalar::attr(2, 1), Scalar::attr(2, 2)],
        ),
    ]);
    let bound = vec![(1usize, Scalar::lit(3)), (2usize, Scalar::lit(4))];
    let reduced = magic::alexander("T", &body, &bound).expect("reducible");
    let Expr::Fix { body, .. } = reduced else {
        panic!()
    };
    let Expr::Union(items) = *body else { panic!() };
    let Expr::Filter { pred, .. } = &items[0] else {
        panic!("expected filtered seed")
    };
    let rendered = pred.to_string();
    assert!(
        rendered.contains("1.1 = 3") && rendered.contains("1.2 = 4"),
        "{rendered}"
    );
}

#[test]
fn multiple_seed_branches_all_filtered() {
    let body = Expr::Union(vec![
        Expr::base("E1"),
        Expr::base("E2"),
        Expr::search(
            vec![Expr::base("E1"), Expr::base("T")],
            Scalar::eq(Scalar::attr(1, 2), Scalar::attr(2, 1)),
            vec![Scalar::attr(1, 1), Scalar::attr(2, 2)],
        ),
    ]);
    let reduced = magic::alexander("T", &body, &[(2, Scalar::lit(1))]).expect("reducible");
    let Expr::Fix { body, .. } = reduced else {
        panic!()
    };
    let Expr::Union(items) = *body else { panic!() };
    let filtered = items
        .iter()
        .filter(|i| matches!(i, Expr::Filter { .. }))
        .count();
    assert_eq!(filtered, 2, "both seeds restricted");
}

#[test]
fn tc_shape_requires_strict_composition() {
    // Extra conjunct in the recursive branch: refuse (conservative).
    let body = Expr::Union(vec![
        Expr::base("E"),
        Expr::search(
            vec![Expr::base("T"), Expr::base("T")],
            Scalar::and(
                Scalar::eq(Scalar::attr(1, 2), Scalar::attr(2, 1)),
                Scalar::cmp(eds_lera::CmpOp::Lt, Scalar::attr(1, 1), Scalar::lit(5)),
            ),
            vec![Scalar::attr(1, 1), Scalar::attr(2, 2)],
        ),
    ]);
    assert!(magic::alexander("T", &body, &[(2, Scalar::lit(1))]).is_none());
    // The plain TC shape still reduces.
    assert!(magic::alexander("T", &tc_body(), &[(2, Scalar::lit(1))]).is_some());
}

#[test]
fn a_parameter_is_relocated_into_the_seed_like_a_constant() {
    // The transformation never reads the comparand: `?0` lands in the
    // seed filter where the literal would, next to a constant.
    let bound = vec![(2usize, Scalar::param(0))];
    let reduced = magic::alexander("T", &tc_body(), &bound).expect("reducible");
    let Expr::Fix { body, .. } = reduced else {
        panic!()
    };
    let Expr::Union(items) = *body else { panic!() };
    let Expr::Filter { pred, .. } = &items[0] else {
        panic!("expected filtered seed")
    };
    assert_eq!(pred.to_string(), "1.2 = ?0");

    let linear = Expr::Union(vec![
        Expr::base("E"),
        Expr::search(
            vec![Expr::base("X"), Expr::base("T")],
            Scalar::eq(Scalar::attr(1, 1), Scalar::attr(2, 1)),
            vec![Scalar::attr(2, 1), Scalar::attr(2, 2)],
        ),
    ]);
    let bound = vec![(1usize, Scalar::param(1)), (2usize, Scalar::lit(4))];
    let reduced = magic::alexander("T", &linear, &bound).expect("reducible");
    let Expr::Fix { body, .. } = reduced else {
        panic!()
    };
    let Expr::Union(items) = *body else { panic!() };
    let Expr::Filter { pred, .. } = &items[0] else {
        panic!("expected filtered seed")
    };
    assert_eq!(pred.to_string(), "1.1 = ?1 ∧ 1.2 = 4");
    // Refusals do not depend on the comparand's kind either.
    assert!(magic::alexander("T", &tc_body(), &[]).is_none());
}

#[test]
fn reduced_fixpoint_correct_on_dense_random_graph() {
    use eds_testkit::StdRng;

    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TABLE EDGE (S : INT, D : INT);
         CREATE VIEW TC (S, D) AS
         ( SELECT S, D FROM EDGE
           UNION SELECT A.S, B.D FROM TC A, TC B WHERE A.D = B.S ) ;",
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..60 {
        let a = rng.gen_range(0..15i64);
        let b = rng.gen_range(0..15i64);
        dbms.insert("EDGE", vec![a.into(), b.into()]).unwrap();
    }
    // Dense graphs include cycles — the reduction must stay correct.
    for src in 0..15i64 {
        let sql = format!("SELECT D FROM TC WHERE S = {src} ;");
        let baseline = dbms.query_unoptimized(&sql).unwrap();
        let optimized = dbms.query(&sql).unwrap();
        assert!(
            baseline.set_eq(&optimized),
            "magic broke source {src}: {:?} vs {:?}",
            baseline.sorted_rows(),
            optimized.sorted_rows()
        );
    }
    // The same through one prepared statement seeded at bind time, in
    // both directions (16 is not a node).
    for sql in [
        "SELECT D FROM TC WHERE S = ? ;",
        "SELECT S FROM TC WHERE ? = D ;",
    ] {
        let stmt = dbms.prepare_stmt(sql).unwrap();
        for node in 0..=16i64 {
            let baseline = dbms
                .query_unoptimized(&sql.replace('?', &node.to_string()))
                .unwrap();
            let seeded = stmt.execute(&dbms, &[node.into()]).unwrap();
            assert!(
                baseline.set_eq(&seeded),
                "{sql} with {node}: {:?} vs {:?}",
                baseline.sorted_rows(),
                seeded.sorted_rows()
            );
        }
    }
}
