//! Property-style tests for the comparison-constraint algebra behind
//! EDS019/EDS021 and the EDS011 subsumption check: `entails` must be a
//! preorder (reflexive, transitive), `contradicts` must not depend on
//! conjunct order, and both must treat an `Int` bound and the equal
//! `Real` bound identically (the algebra widens both to a shared
//! rational view). NULL never participates in numeric reasoning.
//!
//! The second half checks the algebra against the comparison the
//! executor runs ([`CmpOp::eval`]), not against itself: a claimed
//! contradiction must have no satisfying assignment on a value grid
//! that includes the awkward operands (REAL twins of INTs, INTs around
//! 2^53 where widening rounds, a string), and a claimed entailment no
//! grid point where the premises hold and the conclusion does not.
//!
//! Random cases come from a fixed-seed [`StdRng`] so failures replay.

use eds_adt::{CmpOp, OrderedF64, Value};
use eds_rewrite::algebra::{contradicts, entails, tautology};
use eds_rewrite::Term;
use eds_testkit::StdRng;

const OPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];

fn real(r: f64) -> Term {
    Term::Const(Value::Real(OrderedF64(r)))
}

/// Mixed pool of Int and Real bounds sharing several rational values,
/// so widening equalities (2 == 2.0) actually come up.
fn bounds() -> Vec<Term> {
    let mut out: Vec<Term> = (-2..=3).map(Term::int).collect();
    for r in [-2.0, -0.5, 0.0, 0.5, 2.0, 2.5, 3.0] {
        out.push(real(r));
    }
    out
}

fn cmp(op: &str, rhs: Term) -> Term {
    Term::app(op, vec![Term::var("x"), rhs])
}

fn random_cmp(rng: &mut StdRng, pool: &[Term]) -> Term {
    let op = OPS[rng.gen_range(0..OPS.len())];
    let k = pool[rng.gen_range(0..pool.len())].clone();
    cmp(op, k)
}

#[test]
fn entailment_is_reflexive() {
    let pool = bounds();
    for op in OPS {
        for k in &pool {
            let c = cmp(op, k.clone());
            assert!(entails(&[&c], &c), "{c} should entail itself");
        }
    }
}

#[test]
fn entailment_is_transitive() {
    let pool = bounds();
    let mut rng = StdRng::seed_from_u64(0xA1);
    let mut chained = 0;
    for _ in 0..20_000 {
        let a = random_cmp(&mut rng, &pool);
        let b = random_cmp(&mut rng, &pool);
        let c = random_cmp(&mut rng, &pool);
        if entails(&[&a], &b) && entails(&[&b], &c) {
            chained += 1;
            assert!(
                entails(&[&a], &c),
                "entailment broke transitivity: {a} => {b} => {c} but not {a} => {c}"
            );
        }
    }
    // The property must not pass vacuously.
    assert!(chained > 100, "only {chained} transitive chains generated");
}

#[test]
fn entailment_weakening_is_sound_for_contradiction() {
    // If a entails b, then a AND b is exactly as satisfiable as a; since
    // every generated single-variable comparison is satisfiable on its
    // own, the pair must never be flagged contradictory.
    let pool = bounds();
    let mut rng = StdRng::seed_from_u64(0xA2);
    for _ in 0..20_000 {
        let a = random_cmp(&mut rng, &pool);
        let b = random_cmp(&mut rng, &pool);
        if entails(&[&a], &b) {
            assert!(
                !contradicts(&[&a, &b]),
                "{a} entails {b} yet the pair is called contradictory"
            );
        }
    }
}

#[test]
fn contradiction_is_symmetric_and_permutation_invariant() {
    let pool = bounds();
    let mut rng = StdRng::seed_from_u64(0xA3);
    let mut hits = 0;
    for _ in 0..20_000 {
        let a = random_cmp(&mut rng, &pool);
        let b = random_cmp(&mut rng, &pool);
        let c = random_cmp(&mut rng, &pool);
        let fwd = contradicts(&[&a, &b, &c]);
        assert_eq!(
            fwd,
            contradicts(&[&c, &b, &a]),
            "order changed verdict for {a}, {b}, {c}"
        );
        assert_eq!(
            fwd,
            contradicts(&[&b, &c, &a]),
            "rotation changed verdict for {a}, {b}, {c}"
        );
        if fwd {
            hits += 1;
        }
    }
    assert!(hits > 100, "only {hits} contradictory triples generated");
}

#[test]
fn int_and_real_spellings_of_the_same_bound_agree() {
    // 2 and 2.0 are the same rational; every judgment must treat
    // `x op 2` and `x op 2.0` interchangeably, on either side.
    let pool = bounds();
    let mut rng = StdRng::seed_from_u64(0xA4);
    for _ in 0..20_000 {
        let k = rng.gen_range(-2i64..4);
        let op = OPS[rng.gen_range(0..OPS.len())];
        let as_int = cmp(op, Term::int(k));
        let as_real = cmp(op, real(k as f64));
        let other = random_cmp(&mut rng, &pool);
        assert_eq!(
            entails(&[&as_int], &other),
            entails(&[&as_real], &other),
            "premise widening: {as_int} vs {as_real} against {other}"
        );
        assert_eq!(
            entails(&[&other], &as_int),
            entails(&[&other], &as_real),
            "conclusion widening: {as_int} vs {as_real} under {other}"
        );
        assert_eq!(
            contradicts(&[&as_int, &other]),
            contradicts(&[&as_real, &other]),
            "contradiction widening: {as_int} vs {as_real} with {other}"
        );
    }
}

#[test]
fn fractional_bounds_pin_the_rational_not_integer_semantics() {
    // Over the integers x > 2 would imply x >= 2.5-ish bounds; the
    // algebra reasons over rationals, so it must NOT claim that.
    let gt2 = cmp(">", Term::int(2));
    let ge25 = cmp(">=", real(2.5));
    assert!(!entails(&[&gt2], &ge25), "x > 2 must not entail x >= 2.5");
    // The converse containment is real: [2.5, inf) is inside (2, inf).
    assert!(entails(&[&ge25], &gt2), "x >= 2.5 must entail x > 2");
    // Mixed-spelling interval emptiness at a fractional crossover.
    let lt25 = cmp("<", real(2.5));
    let ge3 = cmp(">=", Term::int(3));
    assert!(contradicts(&[&lt25, &ge3]));
    // Closed/closed at the same point keeps the single solution x = 2...
    assert!(!contradicts(&[
        &cmp("<=", Term::int(2)),
        &cmp(">=", real(2.0))
    ]));
    // ...and either strict end empties it.
    assert!(contradicts(&[
        &cmp("<", real(2.0)),
        &cmp(">=", Term::int(2))
    ]));
    assert!(contradicts(&[
        &cmp("<=", Term::int(2)),
        &cmp(">", Term::int(2))
    ]));
}

#[test]
fn null_bounds_stay_outside_interval_reasoning() {
    // Rule-language constraints evaluate 2-valued over structural value
    // equality (not SQL 3VL), so two equalities binding x to different
    // constants — one of them NULL — are a genuine contradiction:
    let null = Term::Const(Value::Null);
    let eq_null = cmp("=", null.clone());
    let ne_null = cmp("<>", null.clone());
    assert!(contradicts(&[&eq_null, &cmp("=", Term::int(-2))]));
    assert!(contradicts(&[&eq_null, &ne_null]));
    // ...but NULL is not a number: it never enters interval reasoning,
    // so ordering/inequality bounds can neither conflict with nor
    // follow from a NULL bound.
    for op in ["<", "<=", ">", ">=", "<>"] {
        for k in bounds() {
            let numeric = cmp(op, k);
            assert!(
                !contradicts(&[&eq_null, &numeric]),
                "x = NULL called contradictory with {numeric}"
            );
            assert!(
                !entails(&[&eq_null], &numeric),
                "x = NULL entailed {numeric}"
            );
            assert!(
                !entails(&[&numeric], &cmp(op, null.clone())),
                "{numeric} entailed a NULL bound"
            );
        }
    }
    // Reflexivity still holds syntactically.
    assert!(entails(&[&eq_null], &eq_null));
    // x = x folds to TRUE, and so does NULL = NULL: rule-language
    // constraints compare values structurally (2-valued), unlike the
    // verify tier's 3VL evaluation where NULL = NULL is UNKNOWN. The
    // algebra must agree with the evaluator it describes, not with SQL.
    let x_eq_x = Term::app("=", vec![Term::var("x"), Term::var("x")]);
    assert!(tautology(&x_eq_x));
    let null_eq_null = Term::app(
        "=",
        vec![Term::Const(Value::Null), Term::Const(Value::Null)],
    );
    assert!(tautology(&null_eq_null));
    assert!(!contradicts(&[&null_eq_null]));
}

// ------------------------------------------- against the executor's eval

/// Values a column can hold and a literal can spell: small INTs,
/// half-integers, the INTs around 2^53 (the last two widen lossily),
/// the REAL 2^53 they round to, and a string.
fn awkward_values() -> Vec<Value> {
    const EXACT: i64 = 1 << 53;
    let mut out: Vec<Value> = (-1..=3).map(Value::Int).collect();
    out.extend([-0.5, 0.5, 2.0, 2.5, EXACT as f64].map(Value::real));
    out.extend((EXACT - 1..=EXACT + 2).map(Value::Int));
    out.push(Value::str("a"));
    out
}

/// `l op r` with each operand one of the variables `x`, `y` or a
/// constant (constants on either side, both variables possible).
fn random_conjunct(rng: &mut StdRng, consts: &[Value]) -> Term {
    let operand = |rng: &mut StdRng| match rng.gen_range(0..4u32) {
        0 => Term::var("x"),
        1 => Term::var("y"),
        _ => Term::Const(consts[rng.gen_range(0..consts.len())].clone()),
    };
    let op = OPS[rng.gen_range(0..OPS.len())];
    Term::app(op, vec![operand(rng), operand(rng)])
}

/// Is the comparison conjunct `Bool(true)` under the executor's
/// comparison with `x`, `y` bound to the given values?
fn holds_at(c: &Term, x: &Value, y: &Value) -> bool {
    let (op, [l, r]) = c.as_app().unwrap() else {
        panic!("not a comparison: {c}");
    };
    let value = |t: &Term| match t {
        Term::Var(v) if v.as_str() == "x" => x.clone(),
        Term::Var(_) => y.clone(),
        other => other.as_const().unwrap().clone(),
    };
    CmpOp::from_symbol(op).unwrap().eval(&value(l), &value(r)) == Value::Bool(true)
}

#[test]
fn a_claimed_contradiction_has_no_satisfying_assignment() {
    let values = awkward_values();
    let mut rng = StdRng::seed_from_u64(0xA5);
    let mut claimed = 0;
    for _ in 0..30_000 {
        let n = rng.gen_range(1..5usize);
        let set: Vec<Term> = (0..n).map(|_| random_conjunct(&mut rng, &values)).collect();
        if !contradicts(&set.iter().collect::<Vec<_>>()) {
            continue;
        }
        claimed += 1;
        for x in &values {
            for y in &values {
                assert!(
                    !set.iter().all(|c| holds_at(c, x, y)),
                    "{set:?} called contradictory, yet x = {x}, y = {y} satisfies it"
                );
            }
        }
    }
    assert!(claimed > 1_000, "only {claimed} contradictions claimed");
}

#[test]
fn a_claimed_entailment_holds_wherever_the_premises_do() {
    let values = awkward_values();
    let mut rng = StdRng::seed_from_u64(0xA6);
    let mut claimed = 0;
    for _ in 0..60_000 {
        let n = rng.gen_range(1..3usize);
        let premises: Vec<Term> = (0..n).map(|_| random_conjunct(&mut rng, &values)).collect();
        let conclusion = random_conjunct(&mut rng, &values);
        let by_ref: Vec<&Term> = premises.iter().collect();
        if by_ref.contains(&&conclusion) || !entails(&by_ref, &conclusion) {
            continue;
        }
        claimed += 1;
        for x in &values {
            for y in &values {
                if premises.iter().all(|p| holds_at(p, x, y)) {
                    assert!(
                        holds_at(&conclusion, x, y),
                        "{premises:?} said to entail {conclusion}, yet x = {x}, y = {y} \
                         satisfies the premises only"
                    );
                }
            }
        }
    }
    assert!(claimed > 500, "only {claimed} entailments claimed");
}

#[test]
fn same_pair_accumulation_and_constant_orientation_are_decided() {
    let (x, y) = (Term::var("x"), Term::var("y"));
    let c = |op: &str, l: &Term, r: &Term| Term::app(op, vec![l.clone(), r.clone()]);
    // No two of the three clash; the orderings of (x, y) they leave open
    // intersect to nothing. The pair may be written either way round.
    let three = [c("<=", &x, &y), c("<=", &y, &x), c("<>", &x, &y)];
    for (i, skipped) in three.iter().enumerate() {
        let pair: Vec<&Term> = three.iter().filter(|t| *t != skipped).collect();
        assert!(!contradicts(&pair), "pair without conjunct {i} clashes");
    }
    assert!(contradicts(&three.iter().collect::<Vec<_>>()));
    // A constant orients to the right whatever its kind.
    let k = |v: Value| Term::Const(v);
    for (lo, hi) in [
        (k(5.into()), k(6.into())),
        (k("a".into()), k("b".into())),
        (k(5.into()), k("a".into())),
    ] {
        assert!(contradicts(&[&c("=", &lo, &x), &c("=", &x, &hi)]));
        assert!(contradicts(&[&c("=", &x, &lo), &c("=", &hi, &x)]));
    }
    assert!(contradicts(&[
        &c("<", &k(3.into()), &x),
        &c("<", &x, &k(2.into()))
    ]));
    assert!(entails(
        &[&c("<", &k(3.into()), &x)],
        &c(">=", &x, &k(Value::real(2.5)))
    ));
    // Irreflexivity, and what must NOT be claimed: the INT/REAL twin and
    // the window where widening rounds.
    const EXACT: i64 = 1 << 53;
    assert!(contradicts(&[&c("<", &x, &x)]));
    assert!(!contradicts(&[
        &c("=", &x, &k(5.into())),
        &c("=", &x, &k(Value::real(5.0)))
    ]));
    assert!(!contradicts(&[
        &c(">", &x, &k(EXACT.into())),
        &c("<", &x, &k((EXACT + 2).into()))
    ]));
    assert!(!contradicts(&[
        &c("=", &x, &k((EXACT + 1).into())),
        &c("<>", &x, &k(EXACT.into()))
    ]));
}
