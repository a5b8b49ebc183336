//! Single-rule application: match, check constraints, run methods, build
//! the right term.
//!
//! The scanner is a recursive pre-order walk (outermost-leftmost, the
//! paper's application order) with one O(1) acceleration built on the
//! term representation, the **left-hand-side gate** ([`lhs_gate`]). A
//! structural match meets every functor and every Boolean constant of
//! its pattern inside the subterm it matches, so a term — and, inside
//! the walk, any subtree — whose cached fingerprint lacks one of the
//! LHS's bits holds no match and is skipped without being visited:
//! `f AND TRUE` is tried only where an `AND` and a `TRUE` both occur.
//! The gate is tested at the root and on every descent, so every node
//! offered to the matcher (an application of the LHS's head) passed it.
//! A node the gate turns away cannot raise
//! [`RewriteError::MatchTooWide`]; no match was possible there anyway.
//!
//! A failed match allocates no bindings: one scan threads one pair of
//! [`Bindings`] through every node it tries — the matcher's working set,
//! which the unwind contract leaves empty after every failed node, and
//! the copy each candidate is checked on, refilled in place with
//! [`Clone::clone_from`].

use crate::error::{RewriteError, RwResult};
use crate::matching::{match_term, Control};
use crate::methods::{eval_constraint, normalize_builtins, MethodRegistry, TermEnv};
use crate::rule::Rule;
use crate::term::{Bindings, Term};

/// Counters accumulated while rewriting; `condition_checks` implements the
/// paper's block-limit unit ("each time a rule condition is checked, the
/// limit of the block is decreased by one").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Number of (rule, query) match attempts — the paper's "condition
    /// checks".
    pub condition_checks: u64,
    /// Number of successful rule applications.
    pub applications: u64,
    /// Number of candidate matches rejected by constraints or methods.
    pub rejected: u64,
    /// Candidate rewrites scored by cost-guided exploration (including
    /// the mainline saturation result). Zero outside `Full` runs.
    pub explore_candidates: u64,
    /// Condition checks spent normalizing exploration candidates — extra
    /// work beyond the mainline, *not* included in `condition_checks`,
    /// so the mainline counter stays comparable across levels.
    pub explore_checks: u64,
    /// Times exploration stopped early because the estimated win could
    /// not repay the exploration cost (the generalized cost budget).
    pub explore_budget_stops: u64,
    /// Explorations where a candidate beat the mainline plan.
    pub explore_wins: u64,
}

impl RewriteStats {
    /// Merge another stats record into this one.
    pub fn absorb(&mut self, other: RewriteStats) {
        self.condition_checks += other.condition_checks;
        self.applications += other.applications;
        self.rejected += other.rejected;
        self.explore_candidates += other.explore_candidates;
        self.explore_checks += other.explore_checks;
        self.explore_budget_stops += other.explore_budget_stops;
        self.explore_wins += other.explore_wins;
    }
}

/// Where a rule fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Application {
    /// Position (path) of the rewritten subterm.
    pub path: Vec<usize>,
}

/// The left-hand-side gate: can a rule whose LHS has fingerprint `mask`
/// (`rule.lhs.fingerprint()`) match at or below `node`? `false` is
/// definite — some functor or Boolean constant of the LHS occurs nowhere
/// in `node` — and `true` may be a Bloom false positive.
pub fn lhs_gate(node: &Term, mask: u64) -> bool {
    node.fingerprint() & mask == mask
}

/// The two substitutions one scan reuses at every node it tries.
#[derive(Default)]
struct Scratch {
    /// The matcher's working set; the unwind contract leaves it empty
    /// after every failed node.
    binds: Bindings,
    /// The copy constraints and methods work on, refilled per candidate.
    candidate: Bindings,
}

/// Try `rule` at exactly one position: enumerate matches, filter through
/// constraints and methods, build the replacement. `Ok(None)` when no
/// accepted match exists at this node.
fn match_at(
    rule: &Rule,
    sub: &Term,
    methods: &MethodRegistry,
    env: &dyn TermEnv,
    rejected: &mut u64,
    scratch: &mut Scratch,
) -> RwResult<Option<Term>> {
    let mut rewritten: Option<Term> = None;
    let mut failure: Option<RewriteError> = None;

    let Scratch { binds, candidate } = scratch;
    debug_assert!(binds.is_empty(), "a failed node left bindings behind");
    let mut sink = |b: &mut Bindings| {
        // Constraints and methods are extension code holding `&mut
        // Bindings`: they work on a copy, so the matcher's working set
        // is as it was when a rejected candidate makes it move on.
        candidate.clone_from(b);
        // 1. Constraints.
        for c in &rule.constraints {
            match eval_constraint(c, candidate, methods, env) {
                Ok(true) => {}
                Ok(false) => {
                    *rejected += 1;
                    return Control::Continue;
                }
                Err(e) => {
                    failure = Some(e);
                    return Control::Stop;
                }
            }
        }
        // 2. Methods (may bind output variables).
        for m in &rule.methods {
            match methods.call(&m.name, &m.args, candidate, env) {
                Ok(true) => {}
                Ok(false) => {
                    *rejected += 1;
                    return Control::Continue;
                }
                Err(e) => {
                    failure = Some(e);
                    return Control::Stop;
                }
            }
        }
        // 3. Build the right term.
        let built = normalize_builtins(&candidate.apply(&rule.rhs));
        if let Some(v) = built
            .variables()
            .into_iter()
            .find(|v| !candidate.contains(*v))
        {
            failure = Some(RewriteError::UnboundInRhs {
                rule: rule.name.clone(),
                variable: v.to_owned(),
            });
            return Control::Stop;
        }
        if &built == sub {
            // No-op application; try another match.
            *rejected += 1;
            return Control::Continue;
        }
        rewritten = Some(built);
        Control::Stop
    };
    if let Control::TooWide(elements) = match_term(&rule.lhs, sub, binds, &mut sink) {
        return Err(RewriteError::MatchTooWide {
            rule: rule.name.clone(),
            elements,
        });
    }

    if let Some(e) = failure {
        return Err(e);
    }
    Ok(rewritten)
}

/// Pre-order walk of the whole subtree at `node`, which passed the gate,
/// descending only into children that pass it too. Returns the
/// replacement and the (root-relative) path of the first accepted match.
fn walk(
    rule: &Rule,
    node: &Term,
    path: &mut Vec<usize>,
    methods: &MethodRegistry,
    env: &dyn TermEnv,
    rejected: &mut u64,
    scratch: &mut Scratch,
) -> RwResult<Option<(Term, Vec<usize>)>> {
    let try_here = match rule.lhs.head() {
        Some(h) => node.head() == Some(h),
        None => true,
    };
    if try_here {
        if let Some(new_sub) = match_at(rule, node, methods, env, rejected, scratch)? {
            return Ok(Some((new_sub, path.clone())));
        }
    }
    if let Term::App(_, args) = node {
        for (i, a) in args.iter().enumerate() {
            if !lhs_gate(a, rule.lhs.fingerprint()) {
                continue;
            }
            path.push(i);
            let found = walk(rule, a, path, methods, env, rejected, scratch)?;
            path.pop();
            if found.is_some() {
                return Ok(found);
            }
        }
    }
    Ok(None)
}

/// Attempt to apply `rule` once, at the outermost-leftmost position where
/// its pattern matches with satisfied constraints and methods. Returns the
/// rewritten whole term.
///
/// A match whose replacement equals the matched subterm is skipped — this
/// keeps idempotent rules from looping without consuming the block budget
/// on no-ops.
pub fn apply_rule_once(
    rule: &Rule,
    term: &Term,
    methods: &MethodRegistry,
    env: &dyn TermEnv,
    stats: &mut RewriteStats,
) -> RwResult<Option<(Term, Application)>> {
    stats.condition_checks += 1;
    if !lhs_gate(term, rule.lhs.fingerprint()) {
        return Ok(None);
    }
    let mut rejected = 0;
    let found = walk(
        rule,
        term,
        &mut Vec::new(),
        methods,
        env,
        &mut rejected,
        &mut Scratch::default(),
    )?;
    stats.rejected += rejected;
    Ok(found.map(|(new_sub, path)| {
        stats.applications += 1;
        (term.replace_at(&path, new_sub), Application { path })
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::BasicEnv;
    use crate::rule::MethodCall;

    fn apply(rule: &Rule, term: &Term) -> Option<Term> {
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        let mut stats = RewriteStats::default();
        apply_rule_once(rule, term, &methods, &env, &mut stats)
            .unwrap()
            .map(|(t, _)| t)
    }

    #[test]
    fn applies_at_nested_position() {
        // F(G(x)) --> x, applied inside H(...).
        let rule = Rule::simple(
            "collapse",
            Term::app("F", vec![Term::app("G", vec![Term::var("x")])]),
            Term::var("x"),
        );
        let term = Term::app(
            "H",
            vec![Term::app("F", vec![Term::app("G", vec![Term::int(7)])])],
        );
        assert_eq!(
            apply(&rule, &term),
            Some(Term::app("H", vec![Term::int(7)]))
        );
    }

    #[test]
    fn constraint_vetoes_match() {
        // F(x) / x > 5 --> G(x)
        let rule = Rule {
            name: "gate".into(),
            lhs: Term::app("F", vec![Term::var("x")]),
            constraints: vec![Term::app(">", vec![Term::var("x"), Term::int(5)])],
            rhs: Term::app("G", vec![Term::var("x")]),
            methods: vec![],
        };
        assert_eq!(apply(&rule, &Term::app("F", vec![Term::int(3)])), None);
        assert_eq!(
            apply(&rule, &Term::app("F", vec![Term::int(9)])),
            Some(Term::app("G", vec![Term::int(9)]))
        );
    }

    #[test]
    fn paper_example_rule_fires() {
        // F(SET(x*, G(y, f))) / MEMBER(y, x*), f = TRUE --> F(x*)
        // (the syntactically-correct example rule of Section 4.1).
        let rule = Rule {
            name: "example".into(),
            lhs: Term::app(
                "F",
                vec![Term::set(vec![
                    Term::seq("x"),
                    Term::app("G", vec![Term::var("y"), Term::var("f")]),
                ])],
            ),
            constraints: vec![
                Term::app("MEMBER", vec![Term::var("y"), Term::seq("x")]),
                Term::app("=", vec![Term::var("f"), Term::atom("TRUE")]),
            ],
            rhs: Term::app("F", vec![Term::seq("x")]),
            methods: vec![],
        };
        let term = Term::app(
            "F",
            vec![Term::set(vec![
                Term::atom("A"),
                Term::atom("B"),
                Term::app("G", vec![Term::atom("B"), Term::bool(true)]),
            ])],
        );
        let out = apply(&rule, &term).expect("rule should fire");
        assert_eq!(out, Term::app("F", vec![Term::atom("A"), Term::atom("B")]));
        // y not in x* -> no application.
        let term2 = Term::app(
            "F",
            vec![Term::set(vec![
                Term::atom("A"),
                Term::app("G", vec![Term::atom("B"), Term::bool(true)]),
            ])],
        );
        assert_eq!(apply(&rule, &term2), None);
    }

    #[test]
    fn method_output_used_in_rhs() {
        // F(x, y) / ISA(x, constant), ISA(y, constant) --> a / EVALUATE(F(x,y), a)
        // — the constant-folding simplification rule of Figure 12, with
        // F instantiated as "+".
        let rule = Rule {
            name: "fold".into(),
            lhs: Term::app("+", vec![Term::var("x"), Term::var("y")]),
            constraints: vec![
                Term::app("ISA", vec![Term::var("x"), Term::atom("constant")]),
                Term::app("ISA", vec![Term::var("y"), Term::atom("constant")]),
            ],
            rhs: Term::var("a"),
            methods: vec![MethodCall {
                name: "EVALUATE".into(),
                args: vec![
                    Term::app("+", vec![Term::var("x"), Term::var("y")]),
                    Term::var("a"),
                ],
            }],
        };
        let term = Term::app("+", vec![Term::int(40), Term::int(2)]);
        assert_eq!(apply(&rule, &term), Some(Term::int(42)));
        // Non-constant argument: no fold.
        let term2 = Term::app("+", vec![Term::attr(1, 1), Term::int(2)]);
        assert_eq!(apply(&rule, &term2), None);
    }

    #[test]
    fn noop_matches_are_skipped() {
        // x --> x never "applies".
        let rule = Rule::simple("identity", Term::var("x"), Term::var("x"));
        assert_eq!(apply(&rule, &Term::int(1)), None);
    }

    #[test]
    fn unbound_rhs_variable_is_an_error() {
        let rule = Rule::simple(
            "broken",
            Term::app("F", vec![Term::var("x")]),
            Term::app("G", vec![Term::var("zz")]),
        );
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        let mut stats = RewriteStats::default();
        let err = apply_rule_once(
            &rule,
            &Term::app("F", vec![Term::int(1)]),
            &methods,
            &env,
            &mut stats,
        )
        .unwrap_err();
        assert!(matches!(err, RewriteError::UnboundInRhs { .. }));
    }

    #[test]
    fn bound_subterms_keep_their_allocation() {
        // F(x) --> G(x): the application allocates G's argument list and
        // the spine above it; what x matched is carried over, not copied.
        let rule = Rule::simple(
            "rename",
            Term::app("F", vec![Term::var("x")]),
            Term::app("G", vec![Term::var("x")]),
        );
        let big = Term::app(
            "BIG",
            vec![Term::attr(1, 1), Term::list(vec![Term::int(2)])],
        );
        let sibling = Term::app("S", vec![Term::int(3)]);
        let term = Term::app(
            "H",
            vec![Term::app("F", vec![big.clone()]), sibling.clone()],
        );
        let out = apply(&rule, &term).expect("rule fires");
        assert_eq!(out.to_string(), "H(G(BIG(1.1, LIST(2))), S(3))");
        assert!(out.at(&[0, 0]).unwrap().ptr_eq(&big));
        assert!(out.at(&[1]).unwrap().ptr_eq(&sibling));
    }

    #[test]
    fn too_wide_a_distribution_is_a_typed_error() {
        // Two collection variables in one SET: every subset is tried.
        let rule = Rule::simple(
            "Halve",
            Term::app(
                "UNION",
                vec![Term::set(vec![Term::seq("x"), Term::seq("y")])],
            ),
            Term::app("PAIR", vec![Term::set(vec![Term::seq("x")])]),
        );
        let union_of = |n: usize| {
            let branches = (0..n).map(|i| Term::atom(format!("R{i}"))).collect();
            Term::app("WRAP", vec![Term::app("UNION", vec![Term::set(branches)])])
        };
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        let mut stats = RewriteStats::default();
        let err = apply_rule_once(&rule, &union_of(21), &methods, &env, &mut stats).unwrap_err();
        assert_eq!(
            err,
            RewriteError::MatchTooWide {
                rule: "Halve".into(),
                elements: 21
            }
        );
        assert!(err.to_string().contains("Halve") && err.to_string().contains("21"));
        // The gate admitted the node that raised it.
        assert!(lhs_gate(
            union_of(21).at(&[0]).unwrap(),
            rule.lhs.fingerprint()
        ));
        // Within the cap the rule applies as before.
        let out = apply(&rule, &union_of(20)).expect("rule fires");
        assert_eq!(out.to_string(), "WRAP(PAIR(SET))");

        // A node the gate turns away is not matched, so it cannot raise
        // the error: here no `G` occurs, and no match was possible.
        let tagged = Rule::simple(
            "HalveTagged",
            Term::app(
                "UNION",
                vec![
                    Term::set(vec![Term::seq("x"), Term::seq("y")]),
                    Term::app("G", vec![Term::var("z")]),
                ],
            ),
            Term::var("z"),
        );
        let branches: Vec<Term> = (0..21).map(|i| Term::atom(format!("R{i}"))).collect();
        let subject = Term::app("UNION", vec![Term::set(branches), Term::atom("H")]);
        let mut sink = |_: &mut Bindings| Control::Stop;
        let unguarded = match_term(&tagged.lhs, &subject, &mut Bindings::new(), &mut sink);
        assert_eq!(unguarded, Control::TooWide(21));
        assert!(!lhs_gate(&subject, tagged.lhs.fingerprint()));
        assert_eq!(apply(&tagged, &subject), None);
    }

    #[test]
    fn the_gate_needs_every_functor_and_boolean_constant_of_the_lhs() {
        // AndTrue: f AND TRUE --> f. A conjunction with no TRUE below is
        // turned away at the root, for one condition check and no scan.
        let rule = Rule::simple(
            "AndTrue",
            Term::app("AND", vec![Term::var("f"), Term::bool(true)]),
            Term::var("f"),
        );
        let mask = rule.lhs.fingerprint();
        let eq = |j: i64| Term::app("=", vec![Term::attr(1, j), Term::int(j)]);
        let plain = Term::app("AND", vec![eq(1), Term::app("AND", vec![eq(2), eq(3)])]);
        assert!(!lhs_gate(&plain, mask));
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        let mut stats = RewriteStats::default();
        let out = apply_rule_once(&rule, &plain, &methods, &env, &mut stats).unwrap();
        assert_eq!((out, stats.condition_checks), (None, 1));
        // The same conjunction with a TRUE conjunct deep inside: the gate
        // admits the root and the path down to it, and the rule fires there.
        let with_true = plain.replace_at(&[1, 1], Term::app("AND", vec![eq(3), Term::bool(true)]));
        assert!(lhs_gate(&with_true, mask) && !lhs_gate(with_true.at(&[0]).unwrap(), mask));
        let (rewritten, app) = apply_rule_once(&rule, &with_true, &methods, &env, &mut stats)
            .unwrap()
            .expect("AndTrue fires");
        assert_eq!(app.path, vec![1, 1]);
        assert_eq!(rewritten, plain);
    }

    #[test]
    fn stats_count_checks_and_applications() {
        let rule = Rule::simple(
            "collapse",
            Term::app("F", vec![Term::var("x")]),
            Term::var("x"),
        );
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        let mut stats = RewriteStats::default();
        let term = Term::app("F", vec![Term::int(1)]);
        apply_rule_once(&rule, &term, &methods, &env, &mut stats).unwrap();
        assert_eq!(stats.condition_checks, 1);
        assert_eq!(stats.applications, 1);
    }
}
