//! The comparison-constraint algebra: what a set of comparison conjuncts
//! entails and when it cannot be satisfied.
//!
//! Two clients ask the same questions of it. The linter asks them of a
//! rule's constraints (`EDS019` contradictory set, `EDS021` redundant
//! constraint, `EDS011` subsumption modulo constraints); `SIMPLIFYQ`
//! (`eds-core`) asks [`contradicts`] of a `search` qualification, where
//! a clash collapses the qualification to `FALSE` (UNKNOWN and FALSE
//! both reject the row, so "no binding makes every conjunct TRUE" is
//! exactly the licence the collapse needs).
//!
//! Every judgment is read off [`CmpOp::holds`] — the truth table the
//! executor's comparison runs — and is *sound but incomplete*: `true`
//! means proved for every binding of the non-constant operands, `false`
//! means not decided. Numeric constants are reasoned about only inside
//! the window where `INT` ↔ `REAL` widening is exact (`as_num` below);
//! outside it the runtime comparison rounds and nothing is concluded.

use std::cmp::Ordering;

use eds_adt::{CmpOp, Value};

use crate::term::Term;

/// Flatten top-level `AND`s into conjuncts.
pub fn conjuncts(t: &Term) -> Vec<&Term> {
    match t.as_app() {
        Some(("AND", [a, b])) => {
            let mut v = conjuncts(a);
            v.extend(conjuncts(b));
            v
        }
        _ => vec![t],
    }
}

/// Widen a numeric constant — `Int` or `Real` — to an exact `f64`, or
/// refuse. The runtime compares `Int` with `Real` by widening the `Int`,
/// which rounds beyond ±2^53; inside the window admitted here (`Int` up
/// to ±2^53, `Real` strictly inside it) every runtime comparison of a
/// column value with the constant agrees with the ordering of the exact
/// numbers, whatever the column holds. All comparisons on the widened
/// values go through `total_cmp`, as the runtime's do.
pub(crate) fn as_num(t: &Term) -> Option<f64> {
    const EXACT: i64 = 1 << 53;
    match t.as_const()? {
        Value::Int(n) if (-EXACT..=EXACT).contains(n) => Some(*n as f64),
        Value::Real(r) if r.0.abs() < EXACT as f64 => Some(r.0),
        _ => None,
    }
}

/// A numeric constant outside the exact window: its runtime comparisons
/// round, so structural reasoning about it would be wrong too.
fn rounds(t: &Term) -> bool {
    matches!(t.as_const(), Some(Value::Int(_) | Value::Real(_))) && as_num(t).is_none()
}

/// A comparison conjunct as `l op r`, oriented so that a constant
/// operand sits on the right.
fn oriented(t: &Term) -> Option<(CmpOp, &Term, &Term)> {
    let (h, [l, r]) = t.as_app()? else {
        return None;
    };
    let op = CmpOp::from_symbol(h)?;
    Some(if l.as_const().is_some() && r.as_const().is_none() {
        (op.flipped(), r, l)
    } else {
        (op, l, r)
    })
}

/// Evaluate a comparison between ground constants, where decidable.
/// Numeric constants compare after Int↔Real widening, so `3 = 3.0` is
/// decided `true` exactly as the runtime comparison decides it; other
/// constants compare structurally (rule-language constraints are
/// 2-valued: `NULL = NULL` holds), and only for `=` / `<>`.
fn eval_ground(op: CmpOp, l: &Term, r: &Term) -> Option<bool> {
    if let (Some(a), Some(b)) = (as_num(l), as_num(r)) {
        return Some(op.holds(a.total_cmp(&b)));
    }
    let (lc, rc) = (l.as_const()?, r.as_const()?);
    if rounds(l) || rounds(r) {
        return None;
    }
    match op {
        CmpOp::Eq => Some(lc == rc),
        CmpOp::Ne => Some(lc != rc),
        _ => None,
    }
}

/// The truth value a condition has under every binding, if it has one:
/// a boolean literal, a decidable ground comparison, or a comparison of
/// a term with itself (`x <= x` holds, `x < x` cannot).
fn constant_truth(c: &Term) -> Option<bool> {
    if let Some(Value::Bool(b)) = c.as_const() {
        return Some(*b);
    }
    let (op, l, r) = oriented(c)?;
    eval_ground(op, l, r).or_else(|| (l == r).then(|| op.holds(Ordering::Equal)))
}

/// Is the condition true under every binding?
pub fn tautology(c: &Term) -> bool {
    constant_truth(c) == Some(true)
}

/// Where a number `x` can sit relative to two constants, as the pair
/// (`x` against `k1`, `x` against `k2`): below both, on `k1`, between
/// them, on `k2`, above both. The domain is dense — the operand may be
/// `Real`-valued, so `x > 3 AND x < 4` is satisfiable at 3.5 and there
/// is always a "between" region when the constants differ (when they
/// are equal it repeats the "on" region).
fn regions(k1: f64, k2: f64) -> [(Ordering, Ordering); 5] {
    use Ordering::{Equal, Greater, Less};
    let c = k1.total_cmp(&k2);
    [
        (Less, Less),
        (Equal, c),
        (c.reverse(), c),
        (c.reverse(), Equal),
        (Greater, Greater),
    ]
}

/// Can no `x` satisfy both `x op1 c1` and `x op2 c2`, for two different
/// constant comparands?
fn comparands_clash(op1: CmpOp, c1: &Term, op2: CmpOp, c2: &Term) -> bool {
    if let (Some(k1), Some(k2)) = (as_num(c1), as_num(c2)) {
        return !regions(k1, k2)
            .iter()
            .any(|&(o1, o2)| op1.holds(o1) && op2.holds(o2));
    }
    // Two equalities binding x to structurally different constants.
    match (c1.as_const(), c2.as_const()) {
        (Some(v1), Some(v2)) => {
            op1 == CmpOp::Eq && op2 == CmpOp::Eq && v1 != v2 && !rounds(c1) && !rounds(c2)
        }
        _ => false,
    }
}

/// Is the whole conjunct set unsatisfiable (by the decidable fragment:
/// literals, ground comparisons, irreflexivity, the orderings every
/// comparison of one operand pair leaves open, and pairwise conflicts
/// between constant bounds on one operand)?
pub fn contradicts(conjunct_set: &[&Term]) -> bool {
    if conjunct_set
        .iter()
        .any(|c| constant_truth(c) == Some(false))
    {
        return true;
    }
    let cmps: Vec<_> = conjunct_set.iter().filter_map(|c| oriented(c)).collect();
    cmps.iter().enumerate().any(|(i, &(op, l, r))| {
        // Orderings of `l` against `r` that this comparison and every
        // later one over the same pair admit: `x <= y AND x >= y AND
        // x <> y` clashes though no two of the three do.
        let mut open = op.outcomes();
        cmps[i + 1..].iter().any(|&(op2, l2, r2)| {
            if l2 == l && r2 == r {
                open &= op2.outcomes();
            } else if l2 == r && r2 == l {
                open &= op2.flipped().outcomes();
            } else if l2 == l {
                return comparands_clash(op, r, op2, r2);
            }
            open == 0
        })
    })
}

/// Do the premises provably entail the conclusion? Sound but incomplete:
/// syntactic equality, tautologies, and single-premise comparison
/// weakening over ground numeric bounds (Int and Real widened to a
/// shared rational view): `x opp kp` implies `x opc kc` when the
/// conclusion holds wherever the premise does.
pub fn entails(premises: &[&Term], conclusion: &Term) -> bool {
    if tautology(conclusion) || premises.contains(&conclusion) {
        return true;
    }
    let Some((opc, lc, rc)) = oriented(conclusion) else {
        return false;
    };
    let Some(kc) = as_num(rc) else {
        return false;
    };
    premises.iter().any(|p| {
        oriented(p).is_some_and(|(opp, lp, rp)| {
            lp == lc
                && as_num(rp).is_some_and(|kp| {
                    regions(kp, kc)
                        .iter()
                        .all(|&(op, oc)| !opp.holds(op) || opc.holds(oc))
                })
        })
    })
}
