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
//!
//! [`contradicts`] decides a set of n conjuncts in one pass, O(n)
//! expected, because `SIMPLIFYQ` asks it of the whole qualification each
//! time its rule is offered. Each comparison is folded into two
//! summaries: the meet of the outcome masks of its operand pair, and,
//! for its left operand, the tightest numeric bounds, the `total_cmp`
//! keys of its numeric `=` / `<>` comparands and its non-numeric `=`
//! comparands. On a dense line a family of convex constraints is empty
//! iff two of its members are disjoint (Helly, d = 1), so the summaries
//! decide exactly what a scan of every pair of conjuncts decides. The
//! test module keeps that scan as the oracle and checks the two agree on
//! seeded random conjunct lists.

use std::cmp::Ordering;

use eds_adt::{CmpOp, Value};

use crate::term::{Term, TermMap};

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
    comparison_truth(op, l, r)
}

/// [`constant_truth`] of the oriented comparison `l op r`.
fn comparison_truth(op: CmpOp, l: &Term, r: &Term) -> Option<bool> {
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

/// The one-pass summary of the comparisons over one left operand that
/// [`contradicts`] keeps: the tightest numeric bounds and what its `=`
/// conjuncts bind the operand to.
#[derive(Default)]
struct LeftSummary<'a> {
    /// Greatest lower bound of the numeric `=`, `>`, `>=` comparands,
    /// with its strictness; at a tie in `total_cmp` order, strict wins.
    lo: Option<(f64, bool)>,
    /// Least upper bound of the numeric `=`, `<`, `<=` comparands.
    hi: Option<(f64, bool)>,
    /// The first non-rounding constant of an `=` conjunct.
    eq: Option<&'a Term>,
    /// An `=` conjunct binds a non-rounding constant other than `eq`.
    eq_distinct: bool,
    /// One of those constants is not numeric.
    eq_nonnum: bool,
}

impl<'a> LeftSummary<'a> {
    /// Fold in `l op k` for a numeric constant `k`; answers whether the
    /// bounds now leave no point open.
    fn bound(&mut self, op: CmpOp, k: f64) -> bool {
        let (lower, upper) = match op {
            CmpOp::Eq => (Some(false), Some(false)),
            CmpOp::Gt => (Some(true), None),
            CmpOp::Ge => (Some(false), None),
            CmpOp::Lt => (None, Some(true)),
            CmpOp::Le => (None, Some(false)),
            CmpOp::Ne => (None, None),
        };
        if let Some(strict) = lower {
            let tighter = self.lo.is_none_or(|(b, s)| match k.total_cmp(&b) {
                Ordering::Greater => true,
                Ordering::Equal => strict && !s,
                Ordering::Less => false,
            });
            if tighter {
                self.lo = Some((k, strict));
            }
        }
        if let Some(strict) = upper {
            let tighter = self.hi.is_none_or(|(b, s)| match k.total_cmp(&b) {
                Ordering::Less => true,
                Ordering::Equal => strict && !s,
                Ordering::Greater => false,
            });
            if tighter {
                self.hi = Some((k, strict));
            }
        }
        match (self.lo, self.hi) {
            (Some((lo, ls)), Some((hi, hs))) => match lo.total_cmp(&hi) {
                Ordering::Greater => true,
                Ordering::Equal => ls || hs,
                Ordering::Less => false,
            },
            _ => false,
        }
    }

    /// Fold in `l = c` for a non-rounding constant `c`; answers whether
    /// two structurally different such constants, one of them not
    /// numeric, are now both required.
    fn equals(&mut self, c: &'a Term) -> bool {
        match self.eq {
            None => self.eq = Some(c),
            Some(first) => self.eq_distinct |= first != c,
        }
        self.eq_nonnum |= as_num(c).is_none();
        self.eq_distinct && self.eq_nonnum
    }
}

/// Is the whole conjunct set unsatisfiable (by the decidable fragment:
/// literals, ground comparisons, irreflexivity, the orderings every
/// comparison of one operand pair leaves open, and conflicts between
/// constant comparands of one operand)?
///
/// One pass, O(n) expected. Each oriented comparison `l op r` is folded
/// into two summaries, and the set clashes when one of them leaves
/// nothing open:
///
/// * per unordered operand pair `{l, r}`, the meet of the outcome masks
///   (a mirrored conjunct contributes its flipped operator): `x <= y AND
///   x >= y AND x <> y` clashes though no two of the three do;
/// * per left operand `l`, over comparands `r` that are constants:
///   the tightest lower and upper bound of the numeric ones (`as_num`);
///   on a dense line a family of such convex constraints is disjoint iff
///   two of its members are (Helly, d = 1), so the bounds decide every
///   pair at once; the `total_cmp` keys of the numeric `=` and `<>`
///   comparands, where a `<>` clashes only with an `=` of the same key
///   (`2` and `2.0` share one); and whether two structurally different
///   non-rounding `=` comparands, one of them not numeric, bind `l`.
///
/// The summaries decide exactly what a scan of every pair of conjuncts
/// decides, no more: a clash across three structurally different
/// comparands (`x >= 2 AND x <= 2.0 AND x <> 2`) is not found, and a
/// comparand that rounds takes part in the mask meet only. The test
/// module keeps that scan and checks the two agree.
pub fn contradicts(conjunct_set: &[&Term]) -> bool {
    let mut pairs: TermMap<(&Term, &Term), u8> = TermMap::default();
    pairs.reserve(conjunct_set.len());
    let mut lefts: TermMap<&Term, LeftSummary> = TermMap::default();
    // Per (l, total_cmp key of k): bit 0 for a numeric `l = k`, bit 1
    // for `l <> k`.
    let mut points: TermMap<(&Term, u64), u8> = TermMap::default();
    for c in conjunct_set {
        if c.as_const() == Some(&Value::Bool(false)) {
            return true;
        }
        let Some((op, l, r)) = oriented(c) else {
            continue;
        };
        if comparison_truth(op, l, r) == Some(false) {
            return true;
        }
        // One orientation of the pair for both orders of its operands: a
        // lone constant is on the right already; otherwise by hash, and
        // structurally on a tie.
        let lone_const = r.as_const().is_some() != l.as_const().is_some();
        let (pair, outcomes) = if lone_const || (l.hash64(), l) <= (r.hash64(), r) {
            ((l, r), op.outcomes())
        } else {
            ((r, l), op.flipped().outcomes())
        };
        let open = pairs.entry(pair).or_insert(outcomes);
        *open &= outcomes;
        if *open == 0 {
            return true;
        }
        if r.as_const().is_none() {
            continue;
        }
        let summary = lefts.entry(l).or_default();
        if let Some(k) = as_num(r) {
            if summary.bound(op, k) {
                return true;
            }
            if matches!(op, CmpOp::Eq | CmpOp::Ne) {
                let seen = points.entry((l, k.to_bits())).or_default();
                *seen |= if op == CmpOp::Eq { 1 } else { 2 };
                if *seen == 3 {
                    return true;
                }
            }
        }
        if op == CmpOp::Eq && !rounds(r) && summary.equals(r) {
            return true;
        }
    }
    false
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

#[cfg(test)]
mod tests {
    use super::*;
    use eds_adt::OrderedF64;
    use eds_testkit::StdRng;

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

    /// The oracle: [`contradicts`] as a scan of every pair of oriented
    /// comparisons, which is what the one-pass summaries must reproduce.
    fn contradicts_pairwise(conjunct_set: &[&Term]) -> bool {
        if conjunct_set
            .iter()
            .any(|c| constant_truth(c) == Some(false))
        {
            return true;
        }
        let cmps: Vec<_> = conjunct_set.iter().filter_map(|c| oriented(c)).collect();
        cmps.iter().enumerate().any(|(i, &(op, l, r))| {
            // Orderings of `l` against `r` that this comparison and every
            // later one over the same pair admit.
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

    fn real(r: f64) -> Term {
        Term::Const(Value::Real(OrderedF64(r)))
    }

    /// Constants that make the summaries' hazards come up: INT / REAL
    /// twins (`2` and `2.0`), `-0.0` beside `0.0`, INTs and REALs
    /// outside the exact window, NaN, NULL, strings and booleans.
    fn constants() -> Vec<Term> {
        const EXACT: i64 = 1 << 53;
        let mut out: Vec<Term> = (-2..=3).map(Term::int).collect();
        for r in [-2.0, -0.0, 0.0, 0.5, 2.0, 3.0] {
            out.push(real(r));
        }
        for n in [EXACT, EXACT + 1, -EXACT - 1, i64::MAX] {
            out.push(Term::int(n));
        }
        out.push(real(EXACT as f64));
        out.push(real(f64::NAN));
        out.push(Term::Const(Value::Null));
        out.push(Term::str("a"));
        out.push(Term::str("b"));
        out.push(Term::bool(true));
        out
    }

    fn random_conjunct(rng: &mut StdRng, consts: &[Term]) -> Term {
        let columns = [Term::attr(1, 1), Term::attr(1, 2), Term::attr(2, 1)];
        let operand = |rng: &mut StdRng, constant: bool| {
            if constant {
                consts[rng.gen_range(0..consts.len())].clone()
            } else {
                columns[rng.gen_range(0..columns.len())].clone()
            }
        };
        let op = CmpOp::ALL[rng.gen_range(0..CmpOp::ALL.len())].symbol();
        match rng.gen_range(0..20) {
            0 => Term::bool(rng.gen_bool(0.8)),
            1 => Term::app("MEMBER", vec![operand(rng, false), operand(rng, false)]),
            2 => {
                let (l, r) = (operand(rng, true), operand(rng, true));
                Term::app(op, vec![l, r])
            }
            3..=5 => {
                let (l, r) = (operand(rng, false), operand(rng, false));
                Term::app(op, vec![l, r])
            }
            6..=9 => {
                let (l, r) = (operand(rng, true), operand(rng, false));
                Term::app(op, vec![l, r])
            }
            _ => {
                let (l, r) = (operand(rng, false), operand(rng, true));
                Term::app(op, vec![l, r])
            }
        }
    }

    #[test]
    fn one_pass_agrees_with_the_pairwise_scan() {
        let consts = constants();
        let mut rng = StdRng::seed_from_u64(0x0051_51F0);
        let (mut clashes, mut consistent) = (0, 0);
        for case in 0..40_000 {
            let len = rng.gen_range(1..9);
            let set: Vec<Term> = (0..len)
                .map(|_| random_conjunct(&mut rng, &consts))
                .collect();
            let refs: Vec<&Term> = set.iter().collect();
            let want = contradicts_pairwise(&refs);
            assert_eq!(
                contradicts(&refs),
                want,
                "case {case}: {}",
                refs.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(" AND ")
            );
            if want && !refs.iter().any(|c| constant_truth(c) == Some(false)) {
                clashes += 1;
            } else if !want {
                consistent += 1;
            }
        }
        // Both verdicts come up often, and most clashes are between
        // conjuncts rather than one constant-false conjunct.
        assert!(
            clashes > 4_000 && consistent > 4_000,
            "{clashes} / {consistent}"
        );
    }

    #[test]
    fn summaries_keep_the_pairwise_scans_blind_spots() {
        let x = Term::attr(1, 1);
        let c = |op: &str, k: Term| Term::app(op, vec![x.clone(), k]);
        let case = |set: &[Term]| {
            let refs: Vec<&Term> = set.iter().collect();
            let got = contradicts(&refs);
            assert_eq!(got, contradicts_pairwise(&refs), "{set:?}");
            got
        };
        // A clash across three structurally different comparands.
        assert!(!case(&[
            c(">=", Term::int(2)),
            c("<=", real(2.0)),
            c("<>", Term::int(2))
        ]));
        // `<>` against a numerically equal `=` of another type.
        assert!(case(&[c("<>", Term::int(2)), c("=", real(2.0))]));
        // -0.0 sits below 0.0 under total_cmp.
        assert!(case(&[c(">=", Term::int(0)), c("<=", real(-0.0))]));
        assert!(!case(&[c("<>", real(-0.0)), c("=", real(0.0))]));
        // A comparand that rounds only meets masks.
        let big = Term::int((1 << 53) + 1);
        assert!(!case(&[c("=", big.clone()), c("=", Term::str("a"))]));
        assert!(case(&[c(">", big.clone()), c("<=", big)]));
        // Both-constant comparisons stay unoriented.
        let nan = real(f64::NAN);
        assert!(case(&[
            Term::app("<", vec![nan.clone(), Term::int(1)]),
            Term::app(">", vec![nan.clone(), Term::int(3)]),
        ]));
        assert!(case(&[
            Term::app("<", vec![nan.clone(), Term::int(1)]),
            Term::app("<", vec![Term::int(1), nan]),
        ]));
    }
}
