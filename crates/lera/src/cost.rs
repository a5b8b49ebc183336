//! A logical cost model for LERA plans.
//!
//! The paper's rewriter is a *logical* optimizer: "permutation rules are
//! heuristic and do not guarantee a better processing plan". To quantify
//! the heuristics — and, since the cost-guided tier, to *arbitrate*
//! between candidate rewrites — we estimate, for each plan, the number
//! of tuples every operator touches on the engine's executor. A `search`
//! over one input touches that input; a wider one joins left-deep in the
//! order written, and a step whose input an equality `i.a = j.b` links
//! to an earlier one is charged both sides plus its estimated matches
//! (build, probe, emit), an unlinked step the product of what reaches it
//! — `CostModel::search_work`. The estimator prices the executor that
//! runs, with one exception: a `fix` is priced as `fix_rounds` rounds
//! of its whole body — the naive iteration, which the engine does not
//! run (only F9's written-out loop in `eds-bench` does) — while the
//! engine's fixpoint is semi-naive, which re-evaluates each recursive
//! branch over the last round's delta only. The model therefore
//! over-prices every recursion.
//!
//! The model is catalog-backed: the engine feeds it per-relation
//! [`RelationStats`] (row counts plus per-column distinct-count/min-max
//! sketches, see `eds-engine`'s `stats` module), and selectivities are
//! derived from them where the predicate shape allows:
//!
//! * `attr = const` → `(1 − null_frac) / distinct`;
//! * `attr₁ = attr₂` across inputs (join) → `1 / max(d₁, d₂)`;
//! * `attr <> const` → `(1 − null_frac) · (1 − 1/distinct)`;
//! * range conjuncts on one attribute are combined into an interval and
//!   interpolated against `[min, max]` — so `x BETWEEN a AND b`
//!   (translated as `x >= a AND x <= b`) estimates `(b − a)/(max − min)`
//!   rather than the product of two one-sided guesses;
//! * `x IN (c₁..cₖ)` (translated as `MEMBER(x, MAKESET(..))`) →
//!   `min(k/distinct, 1)`.
//!
//! Attribute references only resolve to sketches when the operator input
//! is a stored base relation; everywhere else the original constant
//! heuristics apply unchanged, so plans over derived inputs degrade
//! gracefully instead of erroring.

use std::collections::HashMap;

use crate::expr::Expr;
use crate::scalar::{CmpOp, Scalar};

/// Per-column statistics (the engine's `TableStats::relation_stats`
/// fills them from its sketches; `lera` cannot depend on `eds-engine`).
#[derive(Debug, Clone, Default)]
pub struct ColumnStats {
    /// Estimated distinct non-NULL values (0 = unknown).
    pub distinct: f64,
    /// Smallest numeric value, when the column holds numbers.
    pub min: Option<f64>,
    /// Largest numeric value.
    pub max: Option<f64>,
    /// Fraction of NULLs.
    pub null_frac: f64,
}

/// Per-relation statistics: cardinality plus column sketches.
#[derive(Debug, Clone, Default)]
pub struct RelationStats {
    /// Row count.
    pub card: f64,
    /// Column sketches in schema order; may be empty (cardinality-only).
    pub columns: Vec<ColumnStats>,
}

impl RelationStats {
    /// Column stats at a 1-based attribute position.
    pub fn column(&self, attr1: usize) -> Option<&ColumnStats> {
        self.columns.get(attr1.checked_sub(1)?)
    }
}

/// Cardinality estimates for base relations plus selectivity formulas.
#[derive(Debug, Clone)]
pub struct CostModel {
    stats: HashMap<String, RelationStats>,
    /// Cardinality assumed for relations without an estimate.
    pub default_card: f64,
    /// Assumed number of iterations of a fixpoint.
    pub fix_rounds: f64,
    /// Assumed growth of a fixpoint relative to its seed.
    pub fix_growth: f64,
    /// Per-tuple surcharge for each operator node of a qualification
    /// (comparisons, connectives, arithmetic). The classic formulas
    /// charge a flat unit per tuple regardless of predicate complexity;
    /// a positive weight makes structurally cheaper qualifications win,
    /// which the rule-discovery cost oracle relies on to rank candidate
    /// rewrites. The default `0.0` keeps every classic estimate
    /// unchanged.
    pub pred_op_weight: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            stats: HashMap::new(),
            default_card: 1000.0,
            fix_rounds: 4.0,
            fix_growth: 3.0,
            pred_op_weight: 0.0,
        }
    }
}

/// A cost estimate: total work and final output cardinality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Total tuples touched across all operators.
    pub cost: f64,
    /// Estimated output cardinality.
    pub card: f64,
}

/// Attribute-resolution context for a predicate: one entry per input of
/// the enclosing operator (1-based `rel` indexes into it), `None` when
/// the input is not a stored relation with sketches.
type StatsCtx<'a> = [Option<&'a RelationStats>];

/// Accumulated constraints on one attribute within a conjunct list.
#[derive(Debug, Clone, Copy, Default)]
struct AttrInterval {
    lo: Option<f64>,
    hi: Option<f64>,
    eq: Option<f64>,
}

impl CostModel {
    /// Empty model with defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the cardinality of a base relation (keeps any column
    /// sketches already registered for it).
    pub fn set_card(&mut self, relation: &str, card: f64) {
        self.stats
            .entry(relation.to_ascii_uppercase())
            .or_default()
            .card = card;
    }

    /// Register full statistics for a base relation.
    pub fn set_stats(&mut self, relation: &str, stats: RelationStats) {
        self.stats.insert(relation.to_ascii_uppercase(), stats);
    }

    /// Registered statistics for a relation, if any.
    pub fn stats(&self, relation: &str) -> Option<&RelationStats> {
        self.stats.get(&relation.to_ascii_uppercase())
    }

    fn resolve<'a>(&'a self, e: &Expr, locals: &HashMap<String, f64>) -> Option<&'a RelationStats> {
        match e {
            // A local (fixpoint recursion variable) shadows any stored
            // relation of the same name.
            Expr::Base(name) if !locals.contains_key(&name.to_ascii_uppercase()) => {
                self.stats(name).filter(|s| !s.columns.is_empty())
            }
            _ => None,
        }
    }

    /// Estimated selectivity of a qualification without attribute
    /// context (constant heuristics only).
    pub fn selectivity(&self, pred: &Scalar) -> f64 {
        self.selectivity_with(pred, &[])
    }

    /// Estimated selectivity of a qualification against the enclosing
    /// operator's inputs. Range conjuncts on the same sketched attribute
    /// are combined into an interval before interpolation; everything
    /// else multiplies independently.
    pub fn selectivity_with(&self, pred: &Scalar, ctx: &StatsCtx) -> f64 {
        let mut intervals: HashMap<(usize, usize), AttrInterval> = HashMap::new();
        let mut sel = 1.0;
        for c in pred.conjuncts() {
            match range_constraint(c) {
                Some((rel, attr, op, v)) if self.sketch(ctx, rel, attr).is_some() => {
                    let iv = intervals.entry((rel, attr)).or_default();
                    match op {
                        CmpOp::Eq => iv.eq = Some(v),
                        CmpOp::Lt | CmpOp::Le => {
                            iv.hi = Some(iv.hi.map_or(v, |h| h.min(v)));
                        }
                        CmpOp::Gt | CmpOp::Ge => {
                            iv.lo = Some(iv.lo.map_or(v, |l| l.max(v)));
                        }
                        CmpOp::Ne => unreachable!("filtered by range_constraint"),
                    }
                }
                _ => sel *= self.conjunct_selectivity(c, ctx),
            }
        }
        for ((rel, attr), iv) in intervals {
            let col = self.sketch(ctx, rel, attr).expect("inserted above");
            sel *= interval_selectivity(col, iv);
        }
        sel.clamp(0.0, 1.0)
    }

    /// Column sketch behind `rel.attr`, when that input is a stored
    /// relation with statistics.
    fn sketch<'a>(&self, ctx: &'a StatsCtx, rel: usize, attr: usize) -> Option<&'a ColumnStats> {
        ctx.get(rel.checked_sub(1)?)?.and_then(|s| s.column(attr))
    }

    fn conjunct_selectivity(&self, c: &Scalar, ctx: &StatsCtx) -> f64 {
        match c {
            Scalar::Const(eds_adt::Value::Bool(true)) => 1.0,
            Scalar::Const(eds_adt::Value::Bool(false)) => 0.0,
            Scalar::Cmp { op, left, right } => {
                let attrs = (as_attr(left), as_attr(right));
                match (op, attrs) {
                    // Join predicate: 1/max(d₁, d₂) under the usual
                    // containment assumption, constant fallback.
                    (CmpOp::Eq, (Some((r1, a1)), Some((r2, a2)))) => {
                        match (self.sketch(ctx, r1, a1), self.sketch(ctx, r2, a2)) {
                            (Some(c1), Some(c2)) if c1.distinct > 0.0 && c2.distinct > 0.0 => {
                                (1.0 / c1.distinct.max(c2.distinct)).min(1.0)
                            }
                            _ => 0.05,
                        }
                    }
                    // Constant (or parameter) selection on a sketched
                    // attribute: uniform 1/distinct over non-NULLs.
                    (CmpOp::Eq, (Some((r, a)), None)) | (CmpOp::Eq, (None, Some((r, a)))) => {
                        match self.sketch(ctx, r, a) {
                            Some(col) if col.distinct > 0.0 => {
                                ((1.0 - col.null_frac) / col.distinct).min(1.0)
                            }
                            _ => 0.10,
                        }
                    }
                    (CmpOp::Eq, _) => 0.10,
                    (CmpOp::Ne, (Some((r, a)), None)) | (CmpOp::Ne, (None, Some((r, a)))) => {
                        match self.sketch(ctx, r, a) {
                            Some(col) if col.distinct > 0.0 => {
                                ((1.0 - col.null_frac) * (1.0 - 1.0 / col.distinct)).clamp(0.0, 1.0)
                            }
                            _ => 0.90,
                        }
                    }
                    (CmpOp::Ne, _) => 0.90,
                    _ => 0.33,
                }
            }
            // `x IN (c₁..cₖ)` translates to MEMBER(x, MAKESET(c₁..cₖ)):
            // k/distinct when x is a sketched attribute and the list is
            // enumerable, the old constant otherwise.
            Scalar::Call { func, args } if func == "MEMBER" => {
                let sketched = args
                    .first()
                    .and_then(as_attr)
                    .and_then(|(r, a)| self.sketch(ctx, r, a));
                match (sketched, args.get(1).and_then(in_list_len)) {
                    (Some(col), Some(k)) if col.distinct > 0.0 => {
                        ((1.0 - col.null_frac) * k as f64 / col.distinct).min(1.0)
                    }
                    _ => 0.25,
                }
            }
            Scalar::Or(a, b) => {
                let sa = self.conjunct_selectivity(a, ctx);
                let sb = self.conjunct_selectivity(b, ctx);
                (sa + sb - sa * sb).min(1.0)
            }
            Scalar::Not(a) => 1.0 - self.conjunct_selectivity(a, ctx),
            _ => 0.50,
        }
    }

    /// Estimate a plan. Fixpoint recursion variables are tracked in
    /// `locals` while descending.
    pub fn estimate(&self, e: &Expr) -> Estimate {
        self.estimate_with(e, &HashMap::new())
    }

    /// Per-tuple predicate surcharge: `pred_op_weight` units per
    /// operator node of the qualification. Zero-cost when the weight is
    /// zero (the default), so the classic formulas are untouched.
    fn pred_weight(&self, pred: &Scalar) -> f64 {
        if self.pred_op_weight == 0.0 {
            return 0.0;
        }
        self.pred_op_weight * op_count(pred) as f64
    }

    /// Tuples a `search` over inputs of the given cardinalities touches,
    /// joined left-deep in the order written — what the engine's default
    /// executor does. One input is a scan. A step whose input an
    /// equality `i.a = j.b` links to an earlier one reads both sides
    /// once (build and probe) and writes its matches; an unlinked step
    /// enumerates the product. Cardinality estimates are not this
    /// function's business: it only prices reaching them.
    fn search_work(&self, cards: &[f64], pred: &Scalar, ctx: &StatsCtx) -> f64 {
        let Some((first, rest)) = cards.split_first() else {
            return 1.0; // a malformed plan: the empty product, as ever
        };
        if rest.is_empty() {
            return *first;
        }
        let conjuncts = pred.conjuncts();
        let mut outer = *first;
        let mut work = 0.0;
        for (inner, rel) in rest.iter().zip(2..) {
            let linked = conjuncts
                .iter()
                .filter(|c| link_into(c) == Some(rel))
                .map(|c| self.conjunct_selectivity(c, ctx))
                .reduce(|a, b| a * b);
            let product = outer * inner;
            outer = match linked {
                Some(selectivity) => {
                    let matches = product * selectivity;
                    work += outer + inner + matches;
                    matches
                }
                None => {
                    work += product;
                    product
                }
            };
        }
        work
    }

    fn estimate_with(&self, e: &Expr, locals: &HashMap<String, f64>) -> Estimate {
        match e {
            Expr::Base(name) => {
                let key = name.to_ascii_uppercase();
                let card = locals
                    .get(&key)
                    .copied()
                    .or_else(|| self.stats.get(&key).map(|s| s.card))
                    .unwrap_or(self.default_card);
                Estimate { cost: card, card }
            }
            Expr::Filter { input, pred } => {
                let i = self.estimate_with(input, locals);
                let ctx = [self.resolve(input, locals)];
                Estimate {
                    cost: i.cost + i.card + i.card * self.pred_weight(pred),
                    card: i.card * self.selectivity_with(pred, &ctx),
                }
            }
            Expr::Project { input, .. } | Expr::Dedup(input) => {
                let i = self.estimate_with(input, locals);
                Estimate {
                    cost: i.cost + i.card,
                    card: i.card,
                }
            }
            Expr::Join { left, right, pred } => {
                let l = self.estimate_with(left, locals);
                let r = self.estimate_with(right, locals);
                let ctx = [self.resolve(left, locals), self.resolve(right, locals)];
                let work = self.search_work(&[l.card, r.card], pred, &ctx);
                Estimate {
                    cost: l.cost + r.cost + work + work * self.pred_weight(pred),
                    card: l.card * r.card * self.selectivity_with(pred, &ctx),
                }
            }
            Expr::Union(items) => {
                let mut cost = 0.0;
                let mut card = 0.0;
                for item in items {
                    let e = self.estimate_with(item, locals);
                    cost += e.cost;
                    card += e.card;
                }
                Estimate { cost, card }
            }
            Expr::Difference(a, b) => {
                let ea = self.estimate_with(a, locals);
                let eb = self.estimate_with(b, locals);
                // Half of the smaller side is assumed to overlap.
                let overlap = 0.5 * ea.card.min(eb.card);
                Estimate {
                    cost: ea.cost + eb.cost + ea.card + eb.card,
                    card: (ea.card - overlap).max(0.0),
                }
            }
            Expr::Intersect(a, b) => {
                let ea = self.estimate_with(a, locals);
                let eb = self.estimate_with(b, locals);
                Estimate {
                    cost: ea.cost + eb.cost + ea.card + eb.card,
                    card: 0.5 * ea.card.min(eb.card),
                }
            }
            Expr::Search { inputs, pred, .. } => {
                let ests: Vec<Estimate> = inputs
                    .iter()
                    .map(|i| self.estimate_with(i, locals))
                    .collect();
                let children: f64 = ests.iter().map(|e| e.cost).sum();
                // The engine short-circuits a FALSE qualification before
                // touching the cross product; mirror that.
                if pred.is_false() {
                    return Estimate {
                        cost: children,
                        card: 0.0,
                    };
                }
                let ctx: Vec<Option<&RelationStats>> =
                    inputs.iter().map(|i| self.resolve(i, locals)).collect();
                let cards: Vec<f64> = ests.iter().map(|e| e.card.max(1.0)).collect();
                let work = self.search_work(&cards, pred, &ctx);
                Estimate {
                    cost: children + work + work * self.pred_weight(pred),
                    card: cards.iter().product::<f64>() * self.selectivity_with(pred, &ctx),
                }
            }
            Expr::Fix { name, body } => {
                // Seed estimate: body with the variable empty-ish.
                let mut locals2 = locals.clone();
                locals2.insert(name.to_ascii_uppercase(), 1.0);
                let seed = self.estimate_with(body, &locals2);
                // Steady-state round: variable at its grown size.
                let grown = seed.card * self.fix_growth;
                locals2.insert(name.to_ascii_uppercase(), grown.max(1.0));
                let round = self.estimate_with(body, &locals2);
                Estimate {
                    cost: seed.cost + self.fix_rounds * round.cost,
                    card: grown,
                }
            }
            Expr::Nest { input, group, .. } => {
                let i = self.estimate_with(input, locals);
                // One output tuple per distinct grouping combination:
                // bounded by the product of the group columns' distinct
                // counts when the input is sketched.
                let groups = self
                    .resolve(input, locals)
                    .map_or(i.card * 0.5, |s| {
                        group
                            .iter()
                            .map(|&a| s.column(a).map_or(i.card.max(1.0), |c| c.distinct.max(1.0)))
                            .product::<f64>()
                    })
                    .min(i.card);
                Estimate {
                    cost: i.cost + i.card,
                    card: groups.max(1.0),
                }
            }
            Expr::Unnest { input, .. } => {
                let i = self.estimate_with(input, locals);
                Estimate {
                    cost: i.cost + i.card,
                    card: i.card * 4.0,
                }
            }
        }
    }
}

/// `Some((rel, attr))` when the scalar is a plain attribute reference.
fn as_attr(s: &Scalar) -> Option<(usize, usize)> {
    match s {
        Scalar::Attr { rel, attr } => Some((*rel, *attr)),
        _ => None,
    }
}

/// The later input (1-based) of an equality between plain attributes of
/// two different inputs: the join step that equality links.
fn link_into(c: &Scalar) -> Option<usize> {
    let Scalar::Cmp {
        op: CmpOp::Eq,
        left,
        right,
    } = c
    else {
        return None;
    };
    let ((r1, _), (r2, _)) = (as_attr(left)?, as_attr(right)?);
    (r1 != r2).then_some(r1.max(r2))
}

/// Decompose `attr ⋈ const` (either orientation, numeric constant) into
/// `(rel, attr, op-with-attr-on-the-left, value)` for interval
/// accumulation. `Ne` and non-numeric constants are left to the
/// per-conjunct path.
fn range_constraint(c: &Scalar) -> Option<(usize, usize, CmpOp, f64)> {
    let Scalar::Cmp { op, left, right } = c else {
        return None;
    };
    if *op == CmpOp::Ne {
        return None;
    }
    let (rel, attr, v, op) = match (as_attr(left), as_attr(right)) {
        (Some((r, a)), None) => (r, a, numeric_const(right)?, *op),
        (None, Some((r, a))) => (r, a, numeric_const(left)?, op.flipped()),
        _ => return None,
    };
    Some((rel, attr, op, v))
}

/// Operator nodes of a qualification: connectives, comparisons, field
/// accesses and calls count one each; attribute references, literals and
/// parameters are free.
fn op_count(s: &Scalar) -> usize {
    match s {
        Scalar::Attr { .. } | Scalar::Const(_) | Scalar::Param(_) => 0,
        Scalar::Field { input, .. } => 1 + op_count(input),
        Scalar::Call { args, .. } => 1 + args.iter().map(op_count).sum::<usize>(),
        Scalar::Cmp { left, right, .. } => 1 + op_count(left) + op_count(right),
        Scalar::And(a, b) | Scalar::Or(a, b) => 1 + op_count(a) + op_count(b),
        Scalar::Not(a) => 1 + op_count(a),
    }
}

fn numeric_const(s: &Scalar) -> Option<f64> {
    match s {
        Scalar::Const(eds_adt::Value::Int(i)) => Some(*i as f64),
        Scalar::Const(eds_adt::Value::Real(r)) => Some(r.0),
        _ => None,
    }
}

/// Element count of an enumerable IN-list (`MAKESET(c₁..cₖ)` call or a
/// set/list literal).
fn in_list_len(s: &Scalar) -> Option<usize> {
    match s {
        Scalar::Call { func, args } if func == "MAKESET" || func == "MAKELIST" => Some(args.len()),
        Scalar::Const(eds_adt::Value::Coll(_, items)) => Some(items.len()),
        _ => None,
    }
}

/// Selectivity of the combined constraints on one sketched attribute.
fn interval_selectivity(col: &ColumnStats, iv: AttrInterval) -> f64 {
    let non_null = 1.0 - col.null_frac;
    if let Some(v) = iv.eq {
        // Equality dominates; a contradictory range empties the result.
        let in_range = iv.lo.is_none_or(|l| v >= l) && iv.hi.is_none_or(|h| v <= h);
        if !in_range {
            return 0.0;
        }
        return if col.distinct > 0.0 {
            (non_null / col.distinct).min(1.0)
        } else {
            0.10
        };
    }
    let (Some(min), Some(max)) = (col.min, col.max) else {
        // Non-numeric column: one constant guess per bound present.
        let bounds = usize::from(iv.lo.is_some()) + usize::from(iv.hi.is_some());
        return 0.33f64.powi(bounds as i32);
    };
    let width = (max - min).max(f64::EPSILON);
    let lo = iv.lo.map_or(min, |l| l.clamp(min, max));
    let hi = iv.hi.map_or(max, |h| h.clamp(min, max));
    (non_null * ((hi - lo) / width)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        let mut m = CostModel::new();
        m.set_card("R", 1000.0);
        m.set_card("S", 100.0);
        m
    }

    fn col(distinct: f64, min: f64, max: f64) -> ColumnStats {
        ColumnStats {
            distinct,
            min: Some(min),
            max: Some(max),
            null_frac: 0.0,
        }
    }

    /// R(K, V): 1000 rows, K unique in [0, 999], V 20-valued in [0, 19].
    fn sketched() -> CostModel {
        let mut m = CostModel::new();
        m.set_stats(
            "R",
            RelationStats {
                card: 1000.0,
                columns: vec![col(1000.0, 0.0, 999.0), col(20.0, 0.0, 19.0)],
            },
        );
        m.set_stats(
            "S",
            RelationStats {
                card: 100.0,
                columns: vec![col(100.0, 0.0, 99.0)],
            },
        );
        m
    }

    fn filter(pred: Scalar) -> Expr {
        Expr::Filter {
            input: Box::new(Expr::base("R")),
            pred,
        }
    }

    #[test]
    fn pred_op_weight_charges_per_operator_node() {
        let eq = || Scalar::eq(Scalar::attr(1, 1), Scalar::lit(0));
        let simple = filter(eq());
        let wrapped = filter(Scalar::Not(Box::new(Scalar::Not(Box::new(eq())))));
        // Default weight: predicate complexity is invisible (classic
        // formulas, every pinned estimate in this file unchanged).
        let m = model();
        assert_eq!(m.estimate(&simple).cost, m.estimate(&wrapped).cost);
        // Positive weight: one unit per operator node per tuple, so the
        // double negation costs two extra ops x 1000 tuples.
        let mut w = model();
        w.pred_op_weight = 1.0;
        let s = w.estimate(&simple);
        let x = w.estimate(&wrapped);
        assert_eq!(s.cost, 3000.0);
        assert_eq!(x.cost, 5000.0);
        // Cardinality estimates are selectivity-only and stay put
        // (modulo the NOT-complement float rounding).
        assert!((s.card - x.card).abs() < 1e-9, "{} vs {}", s.card, x.card);
    }

    #[test]
    fn filter_pushdown_is_cheaper() {
        let m = model();
        // search((R, S), [R.1 = S.1 AND S.2 = c], ...) vs pushing the
        // selection onto S first.
        let join_pred = Scalar::eq(Scalar::attr(1, 1), Scalar::attr(2, 1));
        let sel_pred = Scalar::eq(Scalar::attr(2, 2), Scalar::lit(5));
        let unpushed = Expr::search(
            vec![Expr::base("R"), Expr::base("S")],
            Scalar::and(join_pred.clone(), sel_pred.clone()),
            vec![Scalar::attr(1, 1)],
        );
        let pushed = Expr::search(
            vec![
                Expr::base("R"),
                Expr::search(
                    vec![Expr::base("S")],
                    sel_pred.map_attrs(&|_, a| Scalar::attr(1, a)),
                    vec![Scalar::attr(1, 1), Scalar::attr(1, 2)],
                ),
            ],
            join_pred,
            vec![Scalar::attr(1, 1)],
        );
        let u = m.estimate(&unpushed);
        let p = m.estimate(&pushed);
        assert!(p.cost < u.cost, "pushed {} !< unpushed {}", p.cost, u.cost);
        // Both produce (roughly) the same cardinality.
        assert!((u.card - p.card).abs() / u.card < 0.01);
    }

    #[test]
    fn false_qualification_zeroes_cardinality() {
        let m = model();
        let e = Expr::search(
            vec![Expr::base("R")],
            Scalar::false_(),
            vec![Scalar::attr(1, 1)],
        );
        assert_eq!(m.estimate(&e).card, 0.0);
    }

    #[test]
    fn fix_costs_scale_with_rounds() {
        let m = model();
        let body = Expr::Union(vec![
            Expr::base("S"),
            Expr::search(
                vec![Expr::base("T"), Expr::base("S")],
                Scalar::eq(Scalar::attr(1, 2), Scalar::attr(2, 1)),
                vec![Scalar::attr(1, 1), Scalar::attr(2, 2)],
            ),
        ]);
        let fix = Expr::Fix {
            name: "T".into(),
            body: Box::new(body),
        };
        let est = m.estimate(&fix);
        assert!(est.cost > 0.0);
        assert!(est.card > 100.0); // grows beyond the seed
    }

    #[test]
    fn selectivity_heuristics_ordered() {
        let m = model();
        let join = Scalar::eq(Scalar::attr(1, 1), Scalar::attr(2, 1));
        let eq_const = Scalar::eq(Scalar::attr(1, 1), Scalar::lit(1));
        let range = Scalar::cmp(CmpOp::Lt, Scalar::attr(1, 1), Scalar::lit(1));
        assert!(m.selectivity(&join) < m.selectivity(&eq_const));
        assert!(m.selectivity(&eq_const) < m.selectivity(&range));
        assert_eq!(m.selectivity(&Scalar::true_()), 1.0);
    }

    #[test]
    fn eq_const_uses_distinct_count() {
        let m = sketched();
        // V has 20 distinct values → 1/20 of the rows.
        let e = filter(Scalar::eq(Scalar::attr(1, 2), Scalar::lit(3)));
        assert!((m.estimate(&e).card - 50.0).abs() < 1e-9);
        // K is unique → a point lookup.
        let k = filter(Scalar::eq(Scalar::attr(1, 1), Scalar::lit(3)));
        assert!((m.estimate(&k).card - 1.0).abs() < 1e-9);
    }

    #[test]
    fn join_selectivity_is_one_over_max_distinct() {
        let m = sketched();
        let join = Expr::search(
            vec![Expr::base("R"), Expr::base("S")],
            Scalar::eq(Scalar::attr(1, 1), Scalar::attr(2, 1)),
            vec![Scalar::attr(1, 1)],
        );
        // 1000 × 100 combinations × 1/max(1000, 100) = 100.
        assert!((m.estimate(&join).card - 100.0).abs() < 1e-9);
    }

    #[test]
    fn a_linked_step_costs_both_sides_plus_its_matches() {
        let m = sketched();
        let join = |pred: Scalar| {
            let inputs = vec![Expr::base("R"), Expr::base("S")];
            m.estimate(&Expr::search(inputs, pred, vec![Scalar::attr(1, 1)]))
        };
        // Scans 1000 + 100; the step reads both sides and writes its
        // 1000·100/max(1000, 100) = 100 matches.
        let linked = join(Scalar::eq(Scalar::attr(1, 1), Scalar::attr(2, 1)));
        assert_eq!(linked.cost, 1100.0 + (1000.0 + 100.0 + 100.0));
        // No equality between the inputs: the product, as before.
        let local = Scalar::eq(Scalar::attr(2, 1), Scalar::lit(3));
        assert_eq!(join(local).cost, 1100.0 + 1000.0 * 100.0);
        // Left-deep in the order written: S links to R, then T (unknown,
        // 1000 rows) to S on the default join selectivity; the second
        // step's outer side is the first step's matches.
        let three = Expr::search(
            vec![Expr::base("R"), Expr::base("S"), Expr::base("T")],
            Scalar::and(
                Scalar::eq(Scalar::attr(3, 1), Scalar::attr(2, 1)),
                Scalar::eq(Scalar::attr(1, 1), Scalar::attr(2, 1)),
            ),
            vec![Scalar::attr(3, 1)],
        );
        let matches = 100.0 * 1000.0 * 0.05;
        assert_eq!(
            m.estimate(&three).cost,
            2100.0 + (1000.0 + 100.0 + 100.0) + (100.0 + 1000.0 + matches)
        );
        // Cardinalities are the old ones: every input times every
        // selectivity.
        let card = 1000.0 * 100.0 * 1000.0 * (1.0 / 1000.0) * 0.05;
        assert!((m.estimate(&three).card - card).abs() < 1e-6);
    }

    #[test]
    fn between_combines_bounds_into_one_interval() {
        let m = sketched();
        // K BETWEEN 100 AND 299 over [0, 999] → exactly 20% of the
        // domain, not 0.33².
        let pred = Scalar::and(
            Scalar::cmp(CmpOp::Ge, Scalar::attr(1, 1), Scalar::lit(100)),
            Scalar::cmp(CmpOp::Le, Scalar::attr(1, 1), Scalar::lit(299)),
        );
        let sel = m.estimate(&filter(pred)).card / 1000.0;
        assert!((sel - 0.1992).abs() < 0.01, "interval sel {sel}");
        // One-sided range interpolates against the matching extremum.
        let upper = Scalar::cmp(CmpOp::Lt, Scalar::attr(1, 1), Scalar::lit(500));
        let sel = m.estimate(&filter(upper)).card / 1000.0;
        assert!((sel - 0.5).abs() < 0.01, "one-sided sel {sel}");
        // Contradictory bounds empty the interval.
        let empty = Scalar::and(
            Scalar::cmp(CmpOp::Ge, Scalar::attr(1, 1), Scalar::lit(800)),
            Scalar::cmp(CmpOp::Le, Scalar::attr(1, 1), Scalar::lit(100)),
        );
        assert_eq!(m.estimate(&filter(empty)).card, 0.0);
    }

    #[test]
    fn in_list_uses_list_length_over_distinct() {
        let m = sketched();
        // V IN (1, 2, 3, 4) over 20 distinct values → 4/20.
        let pred = Scalar::call(
            "MEMBER",
            vec![
                Scalar::attr(1, 2),
                Scalar::call(
                    "MAKESET",
                    vec![
                        Scalar::lit(1),
                        Scalar::lit(2),
                        Scalar::lit(3),
                        Scalar::lit(4),
                    ],
                ),
            ],
        );
        let sel = m.estimate(&filter(pred.clone())).card / 1000.0;
        assert!((sel - 0.2).abs() < 1e-9, "IN-list sel {sel}");
        // Without sketches the old constant survives.
        assert_eq!(model().selectivity(&pred), 0.25);
    }

    #[test]
    fn ne_and_nulls_shrink_selectivity() {
        let mut m = sketched();
        // 25% NULLs in V: both Eq and Ne scale by the non-NULL fraction.
        m.set_stats(
            "N",
            RelationStats {
                card: 400.0,
                columns: vec![ColumnStats {
                    distinct: 10.0,
                    min: Some(0.0),
                    max: Some(9.0),
                    null_frac: 0.25,
                }],
            },
        );
        let base = Expr::base("N");
        let eq = Expr::Filter {
            input: Box::new(base.clone()),
            pred: Scalar::eq(Scalar::attr(1, 1), Scalar::lit(3)),
        };
        assert!((m.estimate(&eq).card - 400.0 * 0.075).abs() < 1e-9);
        let ne = Expr::Filter {
            input: Box::new(base),
            pred: Scalar::cmp(CmpOp::Ne, Scalar::attr(1, 1), Scalar::lit(3)),
        };
        assert!((m.estimate(&ne).card - 400.0 * 0.675).abs() < 1e-9);
    }

    #[test]
    fn nest_groups_bounded_by_distinct_product() {
        let m = sketched();
        let nest = Expr::Nest {
            input: Box::new(Expr::base("R")),
            group: vec![2],
            nested: vec![1],
            kind: eds_adt::CollKind::Set,
        };
        // V has 20 distinct values → 20 groups, not card/2.
        assert!((m.estimate(&nest).card - 20.0).abs() < 1e-9);
    }
}
