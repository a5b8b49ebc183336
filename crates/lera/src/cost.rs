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
//! runs, with one exception: a `fix` is priced as `FIX_ROUNDS` rounds
//! of its whole body — the naive iteration, which the engine does not
//! run (only F9's written-out loop in `eds-bench` does) — while the
//! engine's fixpoint is semi-naive, which re-evaluates each recursive
//! branch over the last round's delta only. The model therefore
//! over-prices every recursion.
//!
//! The model reads exact base-relation cardinalities and nothing else:
//! the engine registers each stored table's row count, and every
//! selectivity is a constant per predicate shape — `attr₁ = attr₂` 0.05,
//! `x = c` 0.10, `x <> c` 0.90, an ordered comparison 0.33, `x IN (..)`
//! 0.25, anything else 0.50, with `OR` and `NOT` combined from their
//! operands and conjuncts multiplied independently. The executor, not
//! the estimator, measures what a plan really costs.

use std::collections::HashMap;

use crate::expr::Expr;
use crate::scalar::{CmpOp, Scalar};

/// Cardinality assumed for relations without an estimate.
const DEFAULT_CARD: f64 = 1000.0;

/// Assumed number of iterations of a fixpoint.
const FIX_ROUNDS: f64 = 4.0;

/// Assumed growth of a fixpoint relative to its seed.
const FIX_GROWTH: f64 = 3.0;

/// Cardinality estimates for base relations plus selectivity formulas.
#[derive(Debug, Clone)]
pub struct CostModel {
    cards: HashMap<String, f64>,
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
            cards: HashMap::new(),
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

impl CostModel {
    /// Empty model with defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the cardinality of a base relation.
    pub fn set_card(&mut self, relation: &str, card: f64) {
        self.cards.insert(relation.to_ascii_uppercase(), card);
    }

    /// Estimated selectivity of a qualification: the product of its
    /// conjuncts' constants.
    pub fn selectivity(&self, pred: &Scalar) -> f64 {
        pred.conjuncts()
            .into_iter()
            .map(|c| self.conjunct_selectivity(c))
            .product::<f64>()
            .clamp(0.0, 1.0)
    }

    fn conjunct_selectivity(&self, c: &Scalar) -> f64 {
        match c {
            Scalar::Const(eds_adt::Value::Bool(true)) => 1.0,
            Scalar::Const(eds_adt::Value::Bool(false)) => 0.0,
            Scalar::Cmp { op, left, right } => match (op, as_attr(left), as_attr(right)) {
                // Join predicate.
                (CmpOp::Eq, Some(_), Some(_)) => 0.05,
                (CmpOp::Eq, ..) => 0.10,
                (CmpOp::Ne, ..) => 0.90,
                _ => 0.33,
            },
            // `x IN (c₁..cₖ)` translates to MEMBER(x, MAKESET(c₁..cₖ)).
            Scalar::Call { func, .. } if func == "MEMBER" => 0.25,
            Scalar::Or(a, b) => {
                let sa = self.conjunct_selectivity(a);
                let sb = self.conjunct_selectivity(b);
                (sa + sb - sa * sb).min(1.0)
            }
            Scalar::Not(a) => 1.0 - self.conjunct_selectivity(a),
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
    fn search_work(&self, cards: &[f64], pred: &Scalar) -> f64 {
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
                .map(|c| self.conjunct_selectivity(c))
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
                    .or_else(|| self.cards.get(&key).copied())
                    .unwrap_or(DEFAULT_CARD);
                Estimate { cost: card, card }
            }
            Expr::Filter { input, pred } => {
                let i = self.estimate_with(input, locals);
                Estimate {
                    cost: i.cost + i.card + i.card * self.pred_weight(pred),
                    card: i.card * self.selectivity(pred),
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
                let work = self.search_work(&[l.card, r.card], pred);
                Estimate {
                    cost: l.cost + r.cost + work + work * self.pred_weight(pred),
                    card: l.card * r.card * self.selectivity(pred),
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
                let cards: Vec<f64> = ests.iter().map(|e| e.card.max(1.0)).collect();
                let work = self.search_work(&cards, pred);
                Estimate {
                    cost: children + work + work * self.pred_weight(pred),
                    card: cards.iter().product::<f64>() * self.selectivity(pred),
                }
            }
            Expr::Fix { name, body } => {
                // Seed estimate: body with the variable empty-ish.
                let mut locals2 = locals.clone();
                locals2.insert(name.to_ascii_uppercase(), 1.0);
                let seed = self.estimate_with(body, &locals2);
                // Steady-state round: variable at its grown size.
                let grown = seed.card * FIX_GROWTH;
                locals2.insert(name.to_ascii_uppercase(), grown.max(1.0));
                let round = self.estimate_with(body, &locals2);
                Estimate {
                    cost: seed.cost + FIX_ROUNDS * round.cost,
                    card: grown,
                }
            }
            Expr::Nest { input, .. } => {
                let i = self.estimate_with(input, locals);
                // Half the input is assumed to start a new group.
                Estimate {
                    cost: i.cost + i.card,
                    card: (i.card * 0.5).max(1.0),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        let mut m = CostModel::new();
        m.set_card("R", 1000.0);
        m.set_card("S", 100.0);
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
    fn each_predicate_shape_keeps_its_constant() {
        let m = model();
        let x = || Scalar::attr(1, 1);
        let c = || Scalar::lit(3);
        let shapes = [
            (Scalar::eq(x(), Scalar::attr(2, 1)), 0.05),
            (Scalar::eq(x(), c()), 0.10),
            (Scalar::cmp(CmpOp::Ne, c(), x()), 0.90),
            (Scalar::cmp(CmpOp::Ge, x(), c()), 0.33),
            (
                Scalar::call("MEMBER", vec![x(), Scalar::call("MAKESET", vec![c()])]),
                0.25,
            ),
            (Scalar::call("ISA", vec![x()]), 0.50),
        ];
        for (pred, sel) in shapes {
            assert_eq!(m.selectivity(&pred), sel, "{pred:?}");
        }
        // Conjuncts multiply, whatever attribute they constrain.
        let between = Scalar::and(
            Scalar::cmp(CmpOp::Ge, x(), c()),
            Scalar::cmp(CmpOp::Le, x(), Scalar::lit(9)),
        );
        assert_eq!(m.selectivity(&between), 0.33 * 0.33);
        // A nest is assumed to halve its input.
        let nest = Expr::Nest {
            input: Box::new(Expr::base("R")),
            group: vec![2],
            nested: vec![1],
            kind: eds_adt::CollKind::Set,
        };
        assert_eq!(m.estimate(&nest).card, 500.0);
    }

    #[test]
    fn a_linked_step_costs_both_sides_plus_its_matches() {
        let m = model();
        let join = |pred: Scalar| {
            let inputs = vec![Expr::base("R"), Expr::base("S")];
            m.estimate(&Expr::search(inputs, pred, vec![Scalar::attr(1, 1)]))
        };
        // Scans 1000 + 100; the step reads both sides and writes its
        // 1000·100·0.05 = 5000 matches.
        let linked = join(Scalar::eq(Scalar::attr(1, 1), Scalar::attr(2, 1)));
        assert_eq!(linked.cost, 1100.0 + (1000.0 + 100.0 + 5000.0));
        // No equality between the inputs: the product, as before.
        let local = Scalar::eq(Scalar::attr(2, 1), Scalar::lit(3));
        assert_eq!(join(local).cost, 1100.0 + 1000.0 * 100.0);
        // Left-deep in the order written: S links to R, then T (unknown,
        // 1000 rows) to S; the second step's outer side is the first
        // step's matches.
        let three = Expr::search(
            vec![Expr::base("R"), Expr::base("S"), Expr::base("T")],
            Scalar::and(
                Scalar::eq(Scalar::attr(3, 1), Scalar::attr(2, 1)),
                Scalar::eq(Scalar::attr(1, 1), Scalar::attr(2, 1)),
            ),
            vec![Scalar::attr(3, 1)],
        );
        let matches = 5000.0 * 1000.0 * 0.05;
        assert_eq!(
            m.estimate(&three).cost,
            2100.0 + (1000.0 + 100.0 + 5000.0) + (5000.0 + 1000.0 + matches)
        );
        // Cardinalities are the old ones: every input times every
        // selectivity.
        let card = 1000.0 * 100.0 * 1000.0 * 0.05 * 0.05;
        assert!((m.estimate(&three).card - card).abs() < 1e-6);
    }
}
