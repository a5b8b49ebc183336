//! Static analysis of rule sets and strategies (`eds-lint`).
//!
//! The paper's rule language pushes correctness and termination onto the
//! rule author: a malformed rule surfaces as a runtime rewrite failure
//! (`UnboundInRhs`, `UnknownMethod`) or as silent non-termination bounded
//! only by block limits. This module checks a [`RuleSet`] + [`Strategy`] +
//! [`MethodRegistry`] ahead of time and reports structured
//! [`Diagnostic`]s with stable codes:
//!
//! | Code | Severity | Check |
//! |---|---|---|
//! | `EDS001` | error | right-hand-side variable never bound by the LHS or a method output |
//! | `EDS002` | error | constraint / method-input variable never bound at its evaluation point |
//! | `EDS003` | error | method name does not resolve in the registry |
//! | `EDS004` | error | method call arity differs from the declared signature |
//! | `EDS005` | error | method output position holds a non-variable, non-ground term |
//! | `EDS006` | warning | ambiguous collection variables (`x* y*` adjacent in `LIST`, two in `SET`/`BAG`) |
//! | `EDS007` | error | segment variable under a non-collection functor in the LHS (never matches) |
//! | `EDS008` | error | duplicate rule registration (same name silently replaces) |
//! | `EDS009` | warning | block references an unknown rule / sequence references an unknown block |
//! | `EDS010` | warning | size-increasing rule inside a block with an unbounded limit |
//! | `EDS011` | warning | rule LHS subsumed by an earlier unconditional rule in the same block |
//! | `EDS012` | warning | rule pair in an unbounded block whose RHS roots re-feed each other's LHS roots |
//! | `EDS013` | error | LERA operator functor applied with the wrong arity |
//! | `EDS014` | warning | relation atom in an operator input position not found in the catalog |
//! | `EDS015` | warning | attribute reference out of range for the (fully known) search inputs |
//! | `EDS016` | warning | rewrite cycle over root functors spanning several unbounded blocks of the sequence |
//! | `EDS017` | warning | unbounded block introduces functors no later rule in the sequence consumes |
//! | `EDS018` | warning | overlapping rules in an unbounded block diverge with no rejoin (order-dependent results) |
//! | `EDS019` | error | contradictory constraint set: the rule can never fire |
//! | `EDS021` | warning | constraint is tautological or implied by the earlier constraints |
//! | `EDS030` | error | semantic verification refuted the rule: LHS ≢ RHS, counterexample attached |
//! | `EDS031` | info | rule shape outside the provable fragment; differential fuzzing is the only coverage |
//! | `EDS032` | warning | equivalence holds only under a side condition the rule cannot express |
//!
//! (`EDS020` — rule not a member of any block — sits between the two.
//! `EDS030`–`EDS032` are produced by the semantic verification tier in
//! [`crate::verify`], not by [`analyze`]; they share the diagnostic
//! plumbing so `eds-lint --verify` renders them uniformly.)
//!
//! Severity policy: *errors* are defects that make a rule dead or make it
//! fail at application time; *warnings* flag termination hazards and
//! heuristic findings that legitimate rules (the built-in DeMorgan and
//! push-down rules among them) trip by design.
//!
//! Diagnostics come out of [`analyze`] deterministically ordered (by
//! code, then rule, part, path, message, block) and deduplicated, and may
//! carry machine-applicable [`Fix`] suggestions applied by
//! [`apply_fixes`](crate::fixes::apply_fixes) (`eds-lint --fix`).

use std::collections::HashSet;
use std::fmt;

use crate::algebra::{conjuncts, contradicts, entails, tautology};
use crate::fixes::{Fix, FixTarget};
use crate::flow;
use crate::matching::find_match;
use crate::methods::MethodRegistry;
use crate::overlap;
use crate::rule::{MethodCall, Rule};
use crate::strategy::{Block, Limit, RuleSet, Strategy};
use crate::term::Term;

/// How bad a finding is. `deny`-policy registration rejects on errors
/// only; warnings are always advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note; nothing to act on.
    Info,
    /// Heuristic or termination-related finding; the rule may be fine.
    Warning,
    /// The rule is dead or will fail at application time.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => f.write_str("info"),
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// One analyzer finding: a stable code, a severity, the rule/block it
/// belongs to, a span (rule part plus term path), and rendered text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`EDS001`..), never reused across releases.
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Owning rule name, when the finding is about a rule.
    pub rule: Option<String>,
    /// Owning block name, when the finding is about block membership.
    pub block: Option<String>,
    /// Which part of the rule: `lhs`, `rhs`, `constraint N`, `method N`,
    /// `block`, `seq`.
    pub part: String,
    /// Term path (child indices) within the part, when one is meaningful.
    pub path: Vec<usize>,
    /// Human-readable description.
    pub message: String,
    /// Machine-applicable fixes; empty when no safe rewrite is known.
    pub suggestions: Vec<Fix>,
}

impl Diagnostic {
    pub(crate) fn new(
        code: &'static str,
        severity: Severity,
        part: impl Into<String>,
        message: String,
    ) -> Self {
        Diagnostic {
            code,
            severity,
            rule: None,
            block: None,
            part: part.into(),
            path: Vec::new(),
            message,
            suggestions: Vec::new(),
        }
    }

    pub(crate) fn for_rule(mut self, rule: &str) -> Self {
        self.rule = Some(rule.to_owned());
        self
    }

    pub(crate) fn in_block(mut self, block: &str) -> Self {
        self.block = Some(block.to_owned());
        self
    }

    fn at(mut self, path: &[usize]) -> Self {
        self.path = path.to_vec();
        self
    }

    pub(crate) fn suggest(mut self, fix: Fix) -> Self {
        self.suggestions.push(fix);
        self
    }

    /// Is this an error-severity finding?
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.severity)?;
        f.write_str(" [")?;
        let mut first = true;
        if let Some(r) = &self.rule {
            write!(f, "rule {r}")?;
            first = false;
        }
        if let Some(b) = &self.block {
            if !first {
                f.write_str(", ")?;
            }
            write!(f, "block {b}")?;
            first = false;
        }
        if !first {
            f.write_str(", ")?;
        }
        f.write_str(&self.part)?;
        for i in &self.path {
            write!(f, ".{i}")?;
        }
        write!(f, "]: {}", self.message)
    }
}

/// Catalog knowledge the schema-aware checks (`EDS014`/`EDS015`) consult.
/// The algebra/catalog layers sit above this crate, so they supply it as
/// a trait object; passing `None` to [`analyze`] skips those checks.
pub trait SchemaProvider {
    /// Attribute count of a stored relation, or `None` when unknown.
    fn relation_arity(&self, name: &str) -> Option<usize>;
}

/// LERA operator functors and their arities, as produced by the algebra
/// bridge (`expr_to_term`). A rule pattern using one of these heads with a
/// different argument count can never match a translated query — the rule
/// is dead. Kept in sync with `eds-lera`'s term bridge by the core
/// crate's lint-clean test over the built-in library.
const LERA_OPERATORS: [(&str, usize); 11] = [
    ("FILTER", 2),
    ("PROJECTION", 2),
    ("JOIN", 3),
    ("UNION", 1),
    ("DIFFERENCE", 2),
    ("INTERSECT", 2),
    ("SEARCH", 3),
    ("FIX", 2),
    ("NEST", 4),
    ("UNNEST", 2),
    ("DEDUP", 1),
];

fn lera_arity(head: &str) -> Option<usize> {
    LERA_OPERATORS
        .iter()
        .find(|(h, _)| *h == head)
        .map(|&(_, n)| n)
}

/// Analyze a whole knowledge base: every rule plus the strategy layer,
/// plus the whole-sequence abstract interpretation (functor flow,
/// critical pairs). Diagnostics come out deterministically ordered (by
/// code, then rule, part, path, message, block) and deduplicated on
/// everything but the block attribution.
pub fn analyze(
    rules: &RuleSet,
    strategy: &Strategy,
    methods: &MethodRegistry,
    schema: Option<&dyn SchemaProvider>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for rule in rules.iter() {
        out.extend(analyze_rule(rule, methods, schema));
    }
    out.extend(analyze_strategy(rules, strategy));
    flow::check_flow(rules, strategy, &mut out);
    overlap::check_overlaps(rules, strategy, methods, &mut out);
    finalize(out)
}

/// Deterministic output: a stable total order plus deduplication of
/// findings reached through more than one path.
///
/// Separate passes (per-rule analysis, strategy checks, functor flow,
/// critical pairs) can report the same finding once per block a rule
/// belongs to — same code, rule, span (part plus term path) and message,
/// differing only in the `block` attribution. One report is enough, so
/// the dedup key deliberately excludes `block` (and the fix list); the
/// sort places `block` last so such duplicates are adjacent, and the
/// first block in sort order carries the finding.
fn finalize(mut out: Vec<Diagnostic>) -> Vec<Diagnostic> {
    out.sort_by(|a, b| {
        (a.code, &a.rule, &a.part, &a.path, &a.message, &a.block)
            .cmp(&(b.code, &b.rule, &b.part, &b.path, &b.message, &b.block))
    });
    out.dedup_by(|a, b| {
        a.code == b.code
            && a.rule == b.rule
            && a.part == b.part
            && a.path == b.path
            && a.message == b.message
    });
    out
}

/// The duplicate-registration diagnostic (`EDS008`). Emitted by the
/// registration path, not by [`analyze`]: an assembled [`RuleSet`] can no
/// longer show the collision.
pub fn duplicate_rule(name: &str) -> Diagnostic {
    Diagnostic::new(
        "EDS008",
        Severity::Error,
        "rule",
        format!("rule {name} is already registered; re-registering replaces it"),
    )
    .for_rule(name)
}

// --------------------------------------------------------------- rules

/// Run every per-rule check: variable safety, method-call validity,
/// collection-variable lints, operator arities, schema references.
pub fn analyze_rule(
    rule: &Rule,
    methods: &MethodRegistry,
    schema: Option<&dyn SchemaProvider>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_collection_vars(rule, &mut out);
    check_operator_arities(rule, &mut out);
    check_variable_flow(rule, methods, &mut out);
    check_constraint_sanity(rule, &mut out);
    if let Some(schema) = schema {
        check_schema_refs(rule, schema, &mut out);
    }
    for d in &mut out {
        d.rule = Some(rule.name.clone());
    }
    out
}

/// Every part of a rule, with its span label and whether it is matched
/// (LHS) rather than instantiated or evaluated.
fn parts(rule: &Rule) -> Vec<(String, &Term, bool)> {
    let mut parts = vec![("lhs".to_owned(), &rule.lhs, true)];
    for (i, c) in rule.constraints.iter().enumerate() {
        parts.push((format!("constraint {}", i + 1), c, false));
    }
    parts.push(("rhs".to_owned(), &rule.rhs, false));
    for (i, m) in rule.methods.iter().enumerate() {
        for a in &m.args {
            parts.push((format!("method {}", i + 1), a, false));
        }
    }
    parts
}

/// EDS006 / EDS007: collection-variable placement.
fn check_collection_vars(rule: &Rule, out: &mut Vec<Diagnostic>) {
    fn walk(t: &Term, in_lhs: bool, part: &str, path: &mut Vec<usize>, out: &mut Vec<Diagnostic>) {
        let Term::App(head, args) = t else {
            return;
        };
        let head = head.as_str();
        if Term::is_collection_ctor(head) {
            if head == "LIST" {
                for (i, w) in args.windows(2).enumerate() {
                    if let [Term::SeqVar(a), Term::SeqVar(b)] = w {
                        path.push(i);
                        out.push(
                            Diagnostic::new(
                                "EDS006",
                                Severity::Warning,
                                part,
                                format!(
                                    "adjacent segment variables {a}* {b}* split ambiguously; \
                                     the matcher commits to the shortest first segment"
                                ),
                            )
                            .at(path),
                        );
                        path.pop();
                    }
                }
            } else {
                let seqs: Vec<&Term> = args
                    .iter()
                    .filter(|a| matches!(a, Term::SeqVar(_)))
                    .collect();
                if seqs.len() > 1 {
                    out.push(
                        Diagnostic::new(
                            "EDS006",
                            Severity::Warning,
                            part,
                            format!(
                                "{} segment variables in one {head} pattern partition the \
                                 multiset ambiguously (the matcher enumerates every split)",
                                seqs.len()
                            ),
                        )
                        .at(path),
                    );
                }
            }
        } else if in_lhs {
            for (i, a) in args.iter().enumerate() {
                if let Term::SeqVar(v) = a {
                    path.push(i);
                    out.push(
                        Diagnostic::new(
                            "EDS007",
                            Severity::Error,
                            part,
                            format!(
                                "segment variable {v}* under non-collection functor {head} \
                                 never matches; the rule is dead"
                            ),
                        )
                        .at(path),
                    );
                    path.pop();
                }
            }
        }
        for (i, a) in args.iter().enumerate() {
            path.push(i);
            walk(a, in_lhs, part, path, out);
            path.pop();
        }
    }

    for (part, term, is_lhs) in parts(rule) {
        if is_lhs {
            if let Term::SeqVar(v) = term {
                out.push(Diagnostic::new(
                    "EDS007",
                    Severity::Error,
                    part.as_str(),
                    format!("segment variable {v}* cannot be a whole pattern; it never matches"),
                ));
                continue;
            }
        }
        walk(term, is_lhs, &part, &mut Vec::new(), out);
    }
}

/// EDS013: known operator functors applied at the wrong arity. Skipped
/// when a direct argument is a segment variable (splicing changes the
/// count at instantiation time).
fn check_operator_arities(rule: &Rule, out: &mut Vec<Diagnostic>) {
    fn walk(t: &Term, part: &str, path: &mut Vec<usize>, out: &mut Vec<Diagnostic>) {
        let Term::App(head, args) = t else {
            return;
        };
        if let Some(expected) = lera_arity(head.as_str()) {
            let spliced = args.iter().any(|a| matches!(a, Term::SeqVar(_)));
            if !spliced && args.len() != expected {
                out.push(
                    Diagnostic::new(
                        "EDS013",
                        Severity::Error,
                        part,
                        format!(
                            "operator {head} takes {expected} argument(s), found {}; \
                             the pattern can never match a translated query",
                            args.len()
                        ),
                    )
                    .at(path),
                );
            }
        }
        for (i, a) in args.iter().enumerate() {
            path.push(i);
            walk(a, part, path, out);
            path.pop();
        }
    }
    for (part, term, _) in parts(rule) {
        walk(term, &part, &mut Vec::new(), out);
    }
}

/// EDS001 / EDS002 / EDS003 / EDS004 / EDS005: dataflow over the rule's
/// evaluation order — LHS binds, then constraints run in order (method
/// constraints may bind their outputs), then methods run in order, then
/// the RHS is instantiated.
fn check_variable_flow(rule: &Rule, methods: &MethodRegistry, out: &mut Vec<Diagnostic>) {
    let mut bound: HashSet<&str> = rule.lhs.variables().into_iter().collect();

    for (i, c) in rule.constraints.iter().enumerate() {
        let part = format!("constraint {}", i + 1);
        check_condition(c, &part, &mut bound, methods, out);
    }
    for (i, m) in rule.methods.iter().enumerate() {
        let part = format!("method {}", i + 1);
        check_method_call(&m.name, &m.args, &part, &mut bound, methods, out);
    }
    for v in rule.rhs.variables() {
        if !bound.contains(v) {
            let mut d = Diagnostic::new(
                "EDS001",
                Severity::Error,
                "rhs",
                format!(
                    "right-hand side uses variable {v} which neither the LHS nor any \
                     method output binds; application would fail with UnboundInRhs"
                ),
            );
            if let Some(fix) = bind_via_method_fix(rule, v, methods) {
                d = d.suggest(fix);
            }
            out.push(d);
        }
    }
}

/// The EDS001 remediation: append a binding method call for the unbound
/// variable. Prefers the paper's `SCHEMA(input, output)` when its
/// standard signature is registered, falling back to the built-in
/// `EVALUATE(expr, out)`.
fn bind_via_method_fix(rule: &Rule, var: &str, methods: &MethodRegistry) -> Option<Fix> {
    let name = ["SCHEMA", "EVALUATE"].into_iter().find(|n| {
        methods
            .signature(n)
            .is_some_and(|s| s.arity == 2 && s.outputs == [1])
    })?;
    let input = rule
        .lhs
        .variables()
        .first()
        .map_or_else(|| Term::int(0), |v| Term::var(*v));
    let mut fixed = rule.clone();
    fixed.methods.push(MethodCall {
        name: name.to_owned(),
        args: vec![input.clone(), Term::var(var)],
    });
    Some(Fix {
        description: format!("bind {var} via {name}({input}, {var})"),
        target: FixTarget::Rule(rule.name.clone()),
        replacement: format!("{fixed} ;"),
    })
}

/// Check one constraint recursively, mirroring `eval_constraint`'s
/// structure: connectives recurse, `ISA`'s specification position may be
/// a deliberately unbound name (Figure 12's `ISA(x, constant)`), and
/// registered methods act as predicates that may bind outputs.
fn check_condition<'r>(
    c: &'r Term,
    part: &str,
    bound: &mut HashSet<&'r str>,
    methods: &MethodRegistry,
    out: &mut Vec<Diagnostic>,
) {
    if let Term::App(head, args) = c {
        match (head.as_str(), args.len()) {
            ("AND" | "OR", 2) => {
                check_condition(&args[0], part, bound, methods, out);
                check_condition(&args[1], part, bound, methods, out);
                return;
            }
            ("NOT", 1) => {
                check_condition(&args[0], part, bound, methods, out);
                return;
            }
            ("ISA", 2) => {
                // The spec position reads an unbound variable as a type
                // name (`constant`, `INT`, ...): exempt it.
                require_bound(&args[0], part, bound, out);
                return;
            }
            (name, _) if methods.contains(name) => {
                check_method_call(name, args, part, bound, methods, out);
                return;
            }
            _ => {}
        }
    }
    require_bound(c, part, bound, out);
}

/// EDS002 for every variable of `t` not in `bound`.
fn require_bound(t: &Term, part: &str, bound: &HashSet<&str>, out: &mut Vec<Diagnostic>) {
    for v in t.variables() {
        if !bound.contains(v) {
            out.push(Diagnostic::new(
                "EDS002",
                Severity::Error,
                part,
                format!(
                    "variable {v} is not bound at this point (not in the LHS and \
                     not an earlier method output); the condition can never hold"
                ),
            ));
        }
    }
}

/// EDS003/EDS004/EDS005 plus input-boundness for one method call, in
/// constraint or conclusion position. Extends `bound` with whatever the
/// call can bind.
fn check_method_call<'r>(
    name: &str,
    args: &'r [Term],
    part: &str,
    bound: &mut HashSet<&'r str>,
    methods: &MethodRegistry,
    out: &mut Vec<Diagnostic>,
) {
    if !methods.contains(name) {
        out.push(Diagnostic::new(
            "EDS003",
            Severity::Error,
            part,
            format!(
                "unknown method {name}; application would fail with UnknownMethod \
                 at the first match"
            ),
        ));
        // Can't reason about the call; assume it binds its arguments so
        // one defect doesn't cascade into spurious EDS001s.
        bind_all(args, bound);
        return;
    }
    let Some(sig) = methods.signature(name) else {
        // Registered without a signature (user closure): existence is all
        // we can check. Match the engine's historical leniency: any
        // argument variable counts as bindable.
        bind_all(args, bound);
        return;
    };
    if args.len() != sig.arity {
        out.push(Diagnostic::new(
            "EDS004",
            Severity::Error,
            part,
            format!(
                "method {name} takes {} argument(s), found {}; the call would fail",
                sig.arity,
                args.len()
            ),
        ));
        bind_all(args, bound);
        return;
    }
    for (idx, arg) in args.iter().enumerate() {
        if sig.is_output(idx) {
            match arg {
                Term::Var(_) => {}
                t if t.is_ground() => {} // a ground output makes the method a check
                other => out.push(
                    Diagnostic::new(
                        "EDS005",
                        Severity::Error,
                        part,
                        format!(
                            "output argument {} of {name} must be a variable (or a \
                             ground term used as a check), found {other}",
                            idx + 1
                        ),
                    )
                    .at(&[idx]),
                ),
            }
        } else {
            for v in arg.variables() {
                if !bound.contains(v) {
                    out.push(
                        Diagnostic::new(
                            "EDS002",
                            Severity::Error,
                            part,
                            format!(
                                "input argument {} of {name} references variable {v} \
                                 which is not bound at this point",
                                idx + 1
                            ),
                        )
                        .at(&[idx]),
                    );
                }
            }
        }
    }
    for &idx in sig.outputs {
        if let Some(arg) = args.get(idx) {
            bind_all(std::slice::from_ref(arg), bound);
        }
    }
}

fn bind_all<'r>(args: &'r [Term], bound: &mut HashSet<&'r str>) {
    for a in args {
        for v in a.variables() {
            bound.insert(v);
        }
    }
}

/// EDS014 / EDS015: catalog-aware reference checks.
fn check_schema_refs(rule: &Rule, schema: &dyn SchemaProvider, out: &mut Vec<Diagnostic>) {
    fn relation_inputs<'t>(head: &str, args: &'t [Term]) -> Vec<&'t Term> {
        match head {
            "FILTER" | "PROJECTION" | "UNNEST" | "DEDUP" | "NEST" => {
                args.first().into_iter().collect()
            }
            "JOIN" | "DIFFERENCE" | "INTERSECT" => args.iter().take(2).collect(),
            // FIX's first argument names the recursion, not a stored
            // relation; its body is an expression.
            "SEARCH" => match args.first().and_then(Term::as_app) {
                Some(("LIST", elems)) => elems.iter().collect(),
                _ => Vec::new(),
            },
            "UNION" => match args.first().and_then(Term::as_app) {
                Some(("SET", elems)) => elems.iter().collect(),
                _ => Vec::new(),
            },
            _ => Vec::new(),
        }
    }

    fn walk(t: &Term, part: &str, schema: &dyn SchemaProvider, out: &mut Vec<Diagnostic>) {
        let Some((head, args)) = t.as_app() else {
            return;
        };
        if lera_arity(head).is_some() {
            for input in relation_inputs(head, args) {
                if let Some((name, [])) = input.as_app() {
                    if !matches!(name, "TRUE" | "FALSE" | "NULL")
                        && schema.relation_arity(name).is_none()
                    {
                        out.push(Diagnostic::new(
                            "EDS014",
                            Severity::Warning,
                            part,
                            format!("relation {name} is not in the catalog"),
                        ));
                    }
                }
            }
            // Attribute-range check: only when every input of a SEARCH is
            // a known stored relation (rare in rules, common in seeded
            // plans and fixtures).
            if head == "SEARCH" {
                if let Some(("LIST", inputs)) = args.first().and_then(Term::as_app) {
                    let arities: Option<Vec<usize>> = inputs
                        .iter()
                        .map(|i| match i.as_app() {
                            Some((name, [])) => schema.relation_arity(name),
                            _ => None,
                        })
                        .collect();
                    if let Some(arities) = arities {
                        for scalar in args.iter().skip(1) {
                            check_attr_refs(scalar, &arities, part, out);
                        }
                    }
                }
            }
        }
        for a in args {
            walk(a, part, schema, out);
        }
    }

    fn check_attr_refs(t: &Term, arities: &[usize], part: &str, out: &mut Vec<Diagnostic>) {
        if let Some((idx, col)) = t.as_attr() {
            if idx < 1 || idx as usize > arities.len() {
                out.push(Diagnostic::new(
                    "EDS015",
                    Severity::Warning,
                    part,
                    format!(
                        "attribute reference {idx}.{col} addresses input {idx} but the \
                         search has {} input(s)",
                        arities.len()
                    ),
                ));
            } else if col < 1 || col as usize > arities[idx as usize - 1] {
                out.push(Diagnostic::new(
                    "EDS015",
                    Severity::Warning,
                    part,
                    format!(
                        "attribute reference {idx}.{col} is out of range: input {idx} \
                         has {} attribute(s)",
                        arities[idx as usize - 1]
                    ),
                ));
            }
            return;
        }
        if let Some((_, args)) = t.as_app() {
            for a in args {
                check_attr_refs(a, arities, part, out);
            }
        }
    }

    for (part, term, _) in parts(rule) {
        walk(term, &part, schema, out);
    }
}

/// A fix that deletes the whole rule.
fn delete_rule_fix(rule: &Rule, description: String) -> Fix {
    Fix {
        description,
        target: FixTarget::Rule(rule.name.clone()),
        replacement: String::new(),
    }
}

/// EDS019 / EDS021: contradiction and redundancy over a rule's constraint
/// set.
fn check_constraint_sanity(rule: &Rule, out: &mut Vec<Diagnostic>) {
    if rule.constraints.is_empty() {
        return;
    }
    let all: Vec<&Term> = rule.constraints.iter().flat_map(conjuncts).collect();
    if contradicts(&all) {
        out.push(
            Diagnostic::new(
                "EDS019",
                Severity::Error,
                "constraint",
                format!(
                    "the constraint set {{{}}} is contradictory: no binding can satisfy \
                     it, so the rule can never fire",
                    rule.constraints
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            )
            .suggest(delete_rule_fix(
                rule,
                format!("delete the unmatchable rule {}", rule.name),
            )),
        );
        return;
    }
    for (i, c) in rule.constraints.iter().enumerate() {
        let parts: Vec<&Term> = conjuncts(c);
        let earlier: Vec<&Term> = rule.constraints[..i].iter().flat_map(conjuncts).collect();
        let reason = if parts.iter().all(|p| tautology(p)) {
            Some("is always true")
        } else if !earlier.is_empty() && parts.iter().all(|p| entails(&earlier, p)) {
            Some("is implied by the constraints before it")
        } else {
            None
        };
        if let Some(reason) = reason {
            let mut slimmed = rule.clone();
            slimmed.constraints.remove(i);
            out.push(
                Diagnostic::new(
                    "EDS021",
                    Severity::Warning,
                    format!("constraint {}", i + 1),
                    format!("constraint {c} {reason}; it only costs evaluation time"),
                )
                .suggest(Fix {
                    description: format!("remove the redundant constraint {c}"),
                    target: FixTarget::Rule(rule.name.clone()),
                    replacement: format!("{slimmed} ;"),
                }),
            );
        }
    }
}

// ------------------------------------------------------------ strategy

/// EDS009 / EDS010 / EDS011 / EDS012: block-level and sequence-level
/// checks over the assembled strategy.
pub fn analyze_strategy(rules: &RuleSet, strategy: &Strategy) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    for block in strategy.blocks() {
        let mut seen: HashSet<&str> = HashSet::new();
        for name in &block.rules {
            if rules.get(name).is_none() {
                out.push(
                    Diagnostic::new(
                        "EDS009",
                        Severity::Warning,
                        "block",
                        format!(
                            "block {} references rule {name} which is not registered; \
                             the member is skipped at run time",
                            block.name
                        ),
                    )
                    .in_block(&block.name),
                );
            }
            if !seen.insert(name.as_str()) {
                let mut kept: Vec<String> = Vec::new();
                for member in &block.rules {
                    if !kept.contains(member) {
                        kept.push(member.clone());
                    }
                }
                let deduped = Block {
                    name: block.name.clone(),
                    rules: kept,
                    limit: block.limit,
                };
                out.push(
                    Diagnostic::new(
                        "EDS011",
                        Severity::Warning,
                        "block",
                        format!("rule {name} is listed twice in block {}", block.name),
                    )
                    .for_rule(name)
                    .in_block(&block.name)
                    .suggest(Fix {
                        description: format!("drop the repeated members of block {}", block.name),
                        target: FixTarget::Block(block.name.clone()),
                        replacement: format!("{deduped} ;"),
                    }),
                );
            }
        }

        let members: Vec<&Rule> = block.rules.iter().filter_map(|n| rules.get(n)).collect();

        if block.limit == Limit::Infinite {
            for rule in &members {
                if rule.rhs.size() > rule.lhs.size() {
                    out.push(
                        Diagnostic::new(
                            "EDS010",
                            Severity::Warning,
                            "rule",
                            format!(
                                "rule grows the term (|lhs| = {}, |rhs| = {}) inside block {} \
                                 whose limit is unbounded; termination relies on structure the \
                                 Section-4.2 decreasing heuristic cannot see",
                                rule.lhs.size(),
                                rule.rhs.size(),
                                block.name
                            ),
                        )
                        .for_rule(&rule.name)
                        .in_block(&block.name)
                        .suggest(flow::finite_limit_fix(block)),
                    );
                }
            }
            for (i, a) in members.iter().enumerate() {
                for b in members.iter().skip(i + 1) {
                    if self_feeding_pair(a, b) {
                        out.push(
                            Diagnostic::new(
                                "EDS012",
                                Severity::Warning,
                                "block",
                                format!(
                                    "rules {} and {} re-feed each other's LHS root functors \
                                     ({} <-> {}) in block {} with an unbounded limit: a \
                                     potential rewrite cycle",
                                    a.name,
                                    b.name,
                                    a.lhs.head().map_or_else(String::new, |h| h.to_string()),
                                    b.lhs.head().map_or_else(String::new, |h| h.to_string()),
                                    block.name
                                ),
                            )
                            .for_rule(&a.name)
                            .in_block(&block.name),
                        );
                    }
                }
            }
        }

        // Subsumption modulo constraints: an earlier method-free rule
        // whose LHS matches a later rule's LHS — and whose constraints,
        // instantiated through that match, are provably entailed by the
        // later rule's own constraints — fires first wherever the later
        // rule would.
        for (i, general) in members.iter().enumerate() {
            if !general.methods.is_empty() {
                continue;
            }
            for specific in members.iter().skip(i + 1) {
                if general.name == specific.name {
                    continue;
                }
                let Some(binds) = find_match(&general.lhs, &freeze(&specific.lhs)) else {
                    continue;
                };
                let premises_owned: Vec<Term> = specific.constraints.iter().map(freeze).collect();
                let premises: Vec<&Term> = premises_owned.iter().flat_map(conjuncts).collect();
                let weaker = general.constraints.iter().all(|c| {
                    let inst = binds.apply(c);
                    conjuncts(&inst).iter().all(|p| entails(&premises, p))
                });
                if !weaker {
                    continue;
                }
                let trimmed = Block {
                    name: block.name.clone(),
                    rules: block
                        .rules
                        .iter()
                        .filter(|n| *n != &specific.name)
                        .cloned()
                        .collect(),
                    limit: block.limit,
                };
                let condition = if general.constraints.is_empty() {
                    "unconditional".to_owned()
                } else {
                    "conditional (its constraints are provably no stronger)".to_owned()
                };
                out.push(
                    Diagnostic::new(
                        "EDS011",
                        Severity::Warning,
                        "block",
                        format!(
                            "LHS is subsumed by the earlier {condition} rule {} in \
                             block {}; this rule can never fire there",
                            general.name, block.name
                        ),
                    )
                    .for_rule(&specific.name)
                    .in_block(&block.name)
                    .suggest(Fix {
                        description: format!(
                            "remove the shadowed rule {} from block {}",
                            specific.name, block.name
                        ),
                        target: FixTarget::Block(block.name.clone()),
                        replacement: format!("{trimmed} ;"),
                    }),
                );
            }
        }
    }

    // EDS020: a registered rule no block ever lists is dead weight — the
    // strategy can never apply it.
    if strategy.blocks().next().is_some() {
        for rule in rules.iter() {
            let listed = strategy
                .blocks()
                .any(|b| b.rules.iter().any(|n| n == &rule.name));
            if !listed {
                out.push(
                    Diagnostic::new(
                        "EDS020",
                        Severity::Warning,
                        "rule",
                        format!(
                            "rule {} is not a member of any block; the strategy can \
                             never apply it",
                            rule.name
                        ),
                    )
                    .for_rule(&rule.name),
                );
            }
        }
    }

    if let Some(seq) = &strategy.sequence {
        for name in &seq.blocks {
            if strategy.block(name).is_none() {
                out.push(Diagnostic::new(
                    "EDS009",
                    Severity::Warning,
                    "seq",
                    format!(
                        "sequence references block {name} which is not defined; \
                         it is skipped at run time"
                    ),
                ));
            }
        }
    }

    out
}

/// Two distinct-rooted rules whose RHS roots feed each other's LHS roots,
/// with no size argument that the cycle shrinks.
fn self_feeding_pair(a: &Rule, b: &Rule) -> bool {
    let (Some(la), Some(ra), Some(lb), Some(rb)) =
        (a.lhs.head(), a.rhs.head(), b.lhs.head(), b.rhs.head())
    else {
        return false;
    };
    la != ra && ra == lb && rb == la && !(a.is_decreasing() && b.is_decreasing())
}

/// Freeze a pattern's variables to fresh atoms (segment variables freeze
/// to a single fresh element), so that matching another pattern against
/// the frozen term decides subsumption: the matcher succeeds iff the
/// general pattern covers every instance of the frozen one. Sound for the
/// Warning it backs; segment freezing makes it approximate in both
/// directions, which DESIGN.md documents.
fn freeze(t: &Term) -> Term {
    match t {
        Term::Var(v) => Term::atom(format!("\u{1}v{v}")),
        Term::SeqVar(v) => Term::atom(format!("\u{1}s{v}")),
        Term::Const(_) => t.clone(),
        Term::App(h, args) => {
            let frozen: Vec<Term> = args.iter().map(freeze).collect();
            Term::App(*h, frozen.into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::parse_source;
    use crate::strategy::{Block, Sequence};
    use crate::SourceItem;

    fn load(src: &str) -> (RuleSet, Strategy) {
        let mut rules = RuleSet::new();
        let mut strategy = Strategy::new();
        for item in parse_source(src).unwrap() {
            match item {
                SourceItem::Rule(r) => {
                    rules.add(r);
                }
                SourceItem::Block(b) => strategy.add_block(b),
                SourceItem::Seq(s) => strategy.set_sequence(s),
            }
        }
        (rules, strategy)
    }

    #[test]
    fn clean_rule_has_no_diagnostics() {
        let (rules, strategy) = load(
            "Unwrap : F(G(x)) / --> x / ;\n\
             block(b, {Unwrap}, INF) ;\n\
             seq((b), 1) ;",
        );
        let methods = MethodRegistry::with_builtins();
        assert!(analyze(&rules, &strategy, &methods, None).is_empty());
    }

    #[test]
    fn subsumption_respects_segment_cardinality() {
        // SET(u, v) does not subsume SET(u, v, w*): the frozen w* stands
        // for at least one element.
        let (rules, strategy) = load(
            "Two   : F(SET(u, v)) / --> u / ;\n\
             Three : F(SET(u, v, w*)) / --> u / ;\n\
             block(b, {Two, Three}, 10) ;",
        );
        let methods = MethodRegistry::with_builtins();
        let diags = analyze(&rules, &strategy, &methods, None);
        assert!(!diags.iter().any(|d| d.code == "EDS011"), "{diags:?}");
    }

    #[test]
    fn identical_lhs_is_subsumed() {
        let (rules, strategy) = load(
            "First  : F(x) / --> A / ;\n\
             Second : F(y) / --> B / ;\n\
             block(b, {First, Second}, 10) ;",
        );
        let methods = MethodRegistry::with_builtins();
        let diags = analyze(&rules, &strategy, &methods, None);
        let hit = diags
            .iter()
            .find(|d| d.code == "EDS011")
            .expect("subsumption must be reported");
        assert_eq!(hit.rule.as_deref(), Some("Second"));
        assert_eq!(hit.severity, Severity::Warning);
    }

    #[test]
    fn display_renders_code_locus_and_path() {
        let d = Diagnostic::new("EDS001", Severity::Error, "rhs", "boom".into())
            .for_rule("R")
            .at(&[0, 1]);
        assert_eq!(d.to_string(), "EDS001 error [rule R, rhs.0.1]: boom");
    }

    #[test]
    fn strategy_reference_checks() {
        let mut rules = RuleSet::new();
        rules.add(Rule::simple(
            "Known",
            Term::app("F", vec![Term::var("x")]),
            Term::var("x"),
        ));
        let mut strategy = Strategy::new();
        strategy.add_block(Block {
            name: "b".into(),
            rules: vec!["Known".into(), "Missing".into()],
            limit: Limit::Finite(5),
        });
        strategy.set_sequence(Sequence {
            blocks: vec!["b".into(), "ghost".into()],
            passes: 1,
        });
        let diags = analyze_strategy(&rules, &strategy);
        assert_eq!(diags.iter().filter(|d| d.code == "EDS009").count(), 2);
    }
}
