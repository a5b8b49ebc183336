//! Rule discovery wired to the system's real oracles.
//!
//! The discovery pipeline in [`eds_rewrite::discover`] is oracle-
//! agnostic; this module supplies the two production implementations:
//!
//! * [`LeraCostOracle`] — scores a candidate qualification with the
//!   LERA cost model: the term's variables are grounded to attribute
//!   references of a synthetic base relation, the term is bridged to a
//!   [`Scalar`](eds_lera::Scalar) predicate, and the cost of `FILTER(R, pred)` is
//!   estimated with a positive [`CostModel::pred_op_weight`] so
//!   structurally cheaper predicates win;
//! * [`HarnessOracle`] — cross-examines a candidate with the seeded
//!   differential fuzz harness ([`crate::verify::verify_rules`]): a
//!   rule the bounded prover certified on its small domain can still be
//!   wrong on real worlds (wider value pools, collection semantics),
//!   and executing before/after worlds catches that class.

use std::collections::BTreeMap;

use eds_lera::{scalar_from_term, CostModel, Expr};
use eds_rewrite::discover::{CostOracle, DifferentialOracle};
use eds_rewrite::{MethodRegistry, Rule, Term};

use crate::verify::{verify_rules, VerifyOptions};

use eds_rewrite::verify::EDS030;

/// Cost oracle backed by the LERA cost model. See the module docs.
pub struct LeraCostOracle {
    model: CostModel,
}

impl LeraCostOracle {
    /// Wrap a cost model, forcing a positive predicate-operator weight
    /// (a zero weight cannot rank candidates whose selectivity the
    /// constants do not separate).
    pub fn new(mut model: CostModel) -> Self {
        if model.pred_op_weight <= 0.0 {
            model.pred_op_weight = 1.0;
        }
        LeraCostOracle { model }
    }
}

/// Ground a candidate qualification's variables: scalar variables
/// become attribute references of the synthetic input relation, boolean
/// variables become `attr = 0` comparisons. Consistent per variable, so
/// both sides of a rule see the same grounding.
fn ground(t: &Term, attrs: &mut BTreeMap<String, usize>, bool_ctx: bool) -> Term {
    match t {
        Term::Var(v) => {
            let next = attrs.len() + 1;
            let idx = *attrs.entry(v.as_str().to_owned()).or_insert(next);
            let attr = Term::attr(1, idx as i64);
            if bool_ctx {
                Term::app("=", vec![attr, Term::int(0)])
            } else {
                attr
            }
        }
        Term::App(h, args) => {
            let scalar_args = matches!(
                (h.as_str(), args.len()),
                ("=" | "<>" | "<" | "<=" | ">" | ">=", 2) | ("+" | "-" | "*", 2) | ("-", 1)
            );
            let child_bool = if scalar_args { false } else { bool_ctx };
            let grounded: Vec<Term> = args.iter().map(|a| ground(a, attrs, child_bool)).collect();
            Term::App(*h, grounded.into())
        }
        _ => t.clone(),
    }
}

impl CostOracle for LeraCostOracle {
    fn qual_cost(&self, t: &Term) -> Option<f64> {
        let mut attrs = BTreeMap::new();
        let grounded = ground(t, &mut attrs, true);
        let pred = scalar_from_term(&grounded).ok()?;
        let plan = Expr::Filter {
            input: Box::new(Expr::base("R")),
            pred,
        };
        Some(self.model.estimate(&plan).cost)
    }
}

/// Differential oracle backed by the verification harness' fuzzer.
pub struct HarnessOracle<'a> {
    methods: &'a MethodRegistry,
    opts: VerifyOptions,
}

impl<'a> HarnessOracle<'a> {
    /// Fuzz candidates with `cases` seeded worlds each.
    pub fn new(methods: &'a MethodRegistry, seed: u64, cases: usize) -> Self {
        HarnessOracle {
            methods,
            opts: VerifyOptions {
                seed,
                cases_per_rule: cases,
                fuzz: true,
                // The discovery pipeline already ran the prover; only
                // the differential instrument is wanted here.
                prove: false,
            },
        }
    }
}

impl DifferentialOracle for HarnessOracle<'_> {
    fn refute(&self, rule: &Rule) -> Option<String> {
        let report = verify_rules([rule], self.methods, &self.opts);
        report
            .diagnostics
            .iter()
            .find(|d| d.code == EDS030)
            .map(|d| d.message.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lera_cost_ranks_simpler_predicates_cheaper() {
        let oracle = LeraCostOracle::new(CostModel::default());
        let x = Term::var("x");
        let simple = Term::app("=", vec![x.clone(), Term::int(0)]);
        let wrapped = Term::app("NOT", vec![Term::app("NOT", vec![simple.clone()])]);
        let (a, b) = (
            oracle.qual_cost(&simple).unwrap(),
            oracle.qual_cost(&wrapped).unwrap(),
        );
        assert!(a < b, "{a} !< {b}");
    }

    #[test]
    fn boolean_variables_ground_consistently_on_both_sides() {
        let oracle = LeraCostOracle::new(CostModel::default());
        // NOT(NOT(f)) --> f: both sides must be scoreable and the
        // wrapped side strictly dearer.
        let f = Term::var("f");
        let lhs = Term::app("NOT", vec![Term::app("NOT", vec![f.clone()])]);
        let (a, b) = (
            oracle.qual_cost(&f).unwrap(),
            oracle.qual_cost(&lhs).unwrap(),
        );
        assert!(a < b, "{a} !< {b}");
    }

    #[test]
    fn the_harness_oracle_refutes_a_bad_rule_and_clears_a_good_one() {
        let mut methods = MethodRegistry::with_builtins();
        crate::methods::register_core_methods(&mut methods);
        let parse = |src: &str| match eds_rewrite::parse_source(src).unwrap().remove(0) {
            eds_rewrite::SourceItem::Rule(r) => r,
            _ => unreachable!(),
        };
        let oracle = HarnessOracle::new(&methods, 0xED5, 32);
        let bad = parse("Bad : NOT(f AND g) / --> NOT(f) OR g / ;");
        assert!(oracle.refute(&bad).is_some());
        let good = parse("Good : NOT(f AND g) / --> NOT(f) OR NOT(g) / ;");
        assert!(oracle.refute(&good).is_none());
    }
}
