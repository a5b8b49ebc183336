//! Deterministic differential-fuzz case generation.
//!
//! For a rule, [`generate_case`] manufactures a small random world that
//! the rule's LHS pattern is guaranteed to match structurally: fresh base
//! tables with random small arities, a handful of rows drawn from a tiny
//! integer pool, and a subject term obtained by *instantiating* the LHS —
//! every pattern variable is replaced by a concrete relation, predicate,
//! or scalar of the right kind. Literals in comparison position are
//! drawn wider than the rows: the pool, a REAL twin of a pool value, two
//! adjacent INTs beyond 2^53 and constant sets — the operands on which a
//! rule's private idea of a comparison and the executor's part ways.
//! The harness (in `eds-core`) then rewrites
//! the subject with only that rule enabled and compares reference-executor
//! results row for row; [`shrink_candidates`] proposes strictly smaller
//! variants of a failing case for the harness to re-check.
//!
//! Everything here is pure and seeded — the same `(rule, seed)` pair
//! always yields the same case, which is what makes CI counterexamples
//! replayable locally. This module deliberately knows nothing about the
//! engine: it emits table specs, rows and terms; executing them is the
//! harness's job.

use std::collections::{BTreeMap, BTreeSet};

use eds_adt::{CmpOp, Value};

use crate::rule::Rule;
use crate::term::Term;

/// Minimal splitmix64 — the crate has no RNG dependency, and statistical
/// quality far beyond "spreads the seed" is not needed here.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish value in `0..n` (`n` must be nonzero; the modulo bias
    /// is irrelevant at these tiny ranges).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Mix a rule name into a base seed so every rule fuzzes a distinct but
/// reproducible stream. FNV-1a in shape only: the multiplier is one hex
/// digit longer than the FNV prime `symbol::fnv1a` uses, and the seeds
/// of `verify/seeds.txt` replay the same cases only while it stands.
pub fn rule_seed(base: u64, rule_name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in rule_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    base ^ h
}

/// A generated base table.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Table name (`T1`, `T2`, ...), unique within the case.
    pub name: String,
    /// Number of INT columns.
    pub arity: usize,
}

/// One replayable differential test case.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// The seed that produced it (after [`rule_seed`] mixing).
    pub seed: u64,
    /// Base tables the subject references.
    pub tables: Vec<TableSpec>,
    /// `rows[i]` holds the rows of `tables[i]`.
    pub rows: Vec<Vec<Vec<i64>>>,
    /// A relation-valued operator term the rule's LHS matches.
    pub subject: Term,
}

impl std::fmt::Display for FuzzCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (t, rows) in self.tables.iter().zip(&self.rows) {
            write!(f, "{}/{} = {rows:?}; ", t.name, t.arity)?;
        }
        write!(f, "subject = {}", self.subject)
    }
}

/// What [`generate_case`] produced.
#[derive(Debug, Clone)]
pub enum GenOutcome {
    /// A runnable case.
    Case(Box<FuzzCase>),
    /// The LHS shape is outside the generator's vocabulary (reason given);
    /// the rule has no differential coverage.
    Unsupported(String),
}

/// Values inserted into generated rows and used for scalar literals. The
/// pool is deliberately tiny so that joins and equalities actually hit.
const INT_POOL: [i64; 5] = [-1, 0, 1, 2, 3];
/// Two adjacent INTs beyond 2^53 that widen to the *same* `f64`: a rule
/// that decides a comparison through a lossy REAL view confuses them,
/// the executor's INT-with-INT comparison does not. Rows carry the
/// first when the subject mentions either, so a qualification that
/// tells them apart keeps a row. They are the negative pair so that a
/// rule stating an upper bound as domain knowledge (`x <= 200 --> TRUE`
/// in examples/custom_rules.rules) is fuzzed inside its domain, as it
/// was by the small pool alone.
const BIG_INTS: [i64; 2] = [-(1 << 53) - 3, -(1 << 53) - 4];
const MAX_ROWS: u64 = 5; // 0..=4 rows per table

/// Argument kinds of the LERA operator functors, mirroring the
/// `term_bridge` signatures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArgKind {
    Rel,
    Pred,
    ScalarList,
    RelList,
    RelColl,
    AttrList,
    Kind,
    FixName,
}

fn rel_sig(head: &str) -> Option<&'static [ArgKind]> {
    use ArgKind::{AttrList, FixName, Kind, Pred, Rel, RelColl, RelList, ScalarList};
    Some(match head {
        "FILTER" => &[Rel, Pred],
        "PROJECTION" => &[Rel, ScalarList],
        "JOIN" => &[Rel, Rel, Pred],
        "UNION" => &[RelColl],
        "DIFFERENCE" | "INTERSECT" => &[Rel, Rel],
        "SEARCH" => &[RelList, Pred, ScalarList],
        "DEDUP" => &[Rel],
        "NEST" => &[Rel, AttrList, AttrList, Kind],
        "FIX" => &[FixName, Rel],
        _ => return None,
    })
}

fn is_pred_head(head: &str, arity: usize) -> bool {
    matches!(
        (head, arity),
        ("AND" | "OR", 2) | ("NOT", 1) | ("TRUE" | "FALSE", 0) | ("MEMBER", 2)
    ) || (arity == 2 && CmpOp::from_symbol(head).is_some())
}

fn is_scalar_head(head: &str, arity: usize) -> bool {
    matches!((head, arity), ("+" | "-" | "*", 2) | ("-", 1))
}

/// Pattern variables that a rule's `ISA(v, constant)` side conditions
/// require to be constants. Instantiating them as anything else
/// guarantees the rule never fires (zero differential coverage), so the
/// generator honors the constraint up front.
fn constant_vars(rule: &Rule) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for c in &rule.constraints {
        if let Some(("ISA", [Term::Var(v), spec])) = c.as_app() {
            let constant =
                matches!(spec, Term::Var(s) if s.as_str() == "constant") || spec.is_app("constant");
            if constant {
                out.insert(v.as_str().to_owned());
            }
        }
    }
    out
}

/// AND-fold a non-empty conjunct list.
fn conjoin(mut conjuncts: Vec<Term>) -> Term {
    let mut t = conjuncts.remove(0);
    for c in conjuncts {
        t = Term::app("AND", vec![t, c]);
    }
    t
}

struct Gen {
    rng: Rng,
    tables: Vec<TableSpec>,
    /// Pattern variable → the concrete term it was instantiated to (and
    /// for relation variables, the arity).
    binds: BTreeMap<String, (Term, Option<usize>)>,
    seq_binds: BTreeMap<String, Vec<Term>>,
    /// Variables `ISA(v, constant)` side conditions pin to literals.
    const_vars: BTreeSet<String>,
    /// Fixpoint relations generated so far (names `F1`, `F2`, ...).
    fix_count: usize,
}

impl Gen {
    fn fresh_table(&mut self, required: Option<usize>) -> (Term, usize) {
        let arity = required.unwrap_or_else(|| 1 + self.rng.below(3) as usize);
        let name = format!("T{}", self.tables.len() + 1);
        let term = Term::atom(name.clone());
        self.tables.push(TableSpec { name, arity });
        (term, arity)
    }

    fn inst_rel(&mut self, t: &Term, required: Option<usize>) -> Result<(Term, usize), String> {
        match t {
            Term::Var(v) => {
                if let Some((term, arity)) = self.binds.get(v.as_str()).cloned() {
                    let arity = arity
                        .ok_or_else(|| "relation variable reused as non-relation".to_owned())?;
                    if required.is_some_and(|r| r != arity) {
                        return Err(format!("conflicting arity requirements on '{v}'"));
                    }
                    return Ok((term, arity));
                }
                let (term, arity) = self.fresh_table(required);
                self.binds
                    .insert(v.as_str().to_owned(), (term.clone(), Some(arity)));
                Ok((term, arity))
            }
            Term::App(head, args) => {
                let (head, args) = (head.as_str(), args.as_slice());
                let Some(sig) = rel_sig(head) else {
                    return Err(format!(
                        "operator {head}/{} in relation position",
                        args.len()
                    ));
                };
                if sig.len() != args.len() {
                    return Err(format!(
                        "{head} arity {} (expected {})",
                        args.len(),
                        sig.len()
                    ));
                }
                match head {
                    "FILTER" => {
                        let (rel, arity) = self.inst_rel(&args[0], required)?;
                        let pred = self.inst_pred(&args[1], &[arity])?;
                        Ok((Term::app("FILTER", vec![rel, pred]), arity))
                    }
                    "PROJECTION" => {
                        let (rel, arity) = self.inst_rel(&args[0], None)?;
                        let proj = self.inst_scalar_list(&args[1], &[arity], required)?;
                        let out = proj.len();
                        Ok((Term::app("PROJECTION", vec![rel, Term::list(proj)]), out))
                    }
                    "JOIN" => {
                        let (need_l, need_r) = match required {
                            Some(r) if r < 2 => {
                                return Err("JOIN cannot produce arity < 2".to_owned())
                            }
                            Some(r) => {
                                let l = 1 + self.rng.below(r as u64 - 1) as usize;
                                (Some(l), Some(r - l))
                            }
                            None => (None, None),
                        };
                        let (l, al) = self.inst_rel(&args[0], need_l)?;
                        let (r, ar) = self.inst_rel(&args[1], need_r)?;
                        let pred = self.inst_pred(&args[2], &[al, ar])?;
                        Ok((Term::app("JOIN", vec![l, r, pred]), al + ar))
                    }
                    "UNION" => {
                        let arity = required.unwrap_or_else(|| 1 + self.rng.below(3) as usize);
                        let (kind, members) = self.inst_rel_members(&args[0], arity)?;
                        Ok((Term::app("UNION", vec![Term::app(kind, members)]), arity))
                    }
                    "DIFFERENCE" | "INTERSECT" => {
                        let arity = required.unwrap_or_else(|| 1 + self.rng.below(3) as usize);
                        let (l, _) = self.inst_rel(&args[0], Some(arity))?;
                        let (r, _) = self.inst_rel(&args[1], Some(arity))?;
                        Ok((Term::app(head, vec![l, r]), arity))
                    }
                    "SEARCH" => {
                        let (inputs, arities, focus) = self.inst_search_inputs(&args[0])?;
                        // When the input list carries a NEST or FIX, a free
                        // predicate variable is bound to the focus conjuncts
                        // instead of a random predicate: a qualification of
                        // exactly the shape the push-down methods (SPLITNEST,
                        // ADORNMENT) can act on, so those rules actually fire.
                        let pred = match &args[1] {
                            Term::Var(v)
                                if !focus.is_empty() && !self.binds.contains_key(v.as_str()) =>
                            {
                                let p = conjoin(focus);
                                self.binds.insert(v.as_str().to_owned(), (p.clone(), None));
                                p
                            }
                            _ => self.inst_pred(&args[1], &arities)?,
                        };
                        let proj = self.inst_scalar_list(&args[2], &arities, required)?;
                        let out = proj.len();
                        Ok((
                            Term::app("SEARCH", vec![inputs, pred, Term::list(proj)]),
                            out,
                        ))
                    }
                    "NEST" => {
                        let (nested_p, group_p, in_arity) =
                            self.nest_partition(&args[1], &args[2], required)?;
                        let (rel, _) = self.inst_rel(&args[0], Some(in_arity))?;
                        let kind = self.inst_kind(&args[3])?;
                        let out = group_p.len() + 1;
                        Ok((
                            Term::app(
                                "NEST",
                                vec![
                                    rel,
                                    Term::list(nested_p.iter().map(|&i| Term::int(i)).collect()),
                                    Term::list(group_p.iter().map(|&i| Term::int(i)).collect()),
                                    kind,
                                ],
                            ),
                            out,
                        ))
                    }
                    "FIX" => {
                        if required.is_some_and(|r| r != 2) {
                            return Err("generated fixpoints have arity 2".to_owned());
                        }
                        let (Term::Var(rv), Term::Var(ev)) = (&args[0], &args[1]) else {
                            return Err("FIX pattern with a non-variable name or body".to_owned());
                        };
                        let (name, body) = match (
                            self.binds.get(rv.as_str()).cloned(),
                            self.binds.get(ev.as_str()).cloned(),
                        ) {
                            (Some((n, _)), Some((b, _))) => (n, b),
                            (None, None) => {
                                let (n, b) = self.gen_fix_body();
                                self.binds.insert(rv.as_str().to_owned(), (n.clone(), None));
                                self.binds
                                    .insert(ev.as_str().to_owned(), (b.clone(), Some(2)));
                                (n, b)
                            }
                            _ => return Err("half-bound FIX pattern".to_owned()),
                        };
                        Ok((Term::app("FIX", vec![name, body]), 2))
                    }
                    // DEDUP
                    _ => {
                        let (rel, arity) = self.inst_rel(&args[0], required)?;
                        Ok((Term::app("DEDUP", vec![rel]), arity))
                    }
                }
            }
            Term::SeqVar(v) => Err(format!("collection variable '{v}*' in relation position")),
            Term::Const(_) => Err("literal in relation position".to_owned()),
        }
    }

    /// Instantiate the member collection of a `UNION` pattern: a
    /// `SET`/`BAG`/`LIST` whose items are relations of `arity`, with
    /// collection variables expanding to 0–2 fresh members.
    fn inst_rel_members(
        &mut self,
        t: &Term,
        arity: usize,
    ) -> Result<(&'static str, Vec<Term>), String> {
        // A bare variable stands for the whole member collection: bind it
        // to a SET of fresh tables (UnionMerge's inner `UNION(z)`).
        if let Term::Var(v) = t {
            if let Some((term, _)) = self.binds.get(v.as_str()).cloned() {
                return match term.as_app() {
                    Some(("SET", items)) => Ok(("SET", items.to_vec())),
                    _ => Err(format!("'{v}' reused outside a member collection")),
                };
            }
            let n = 1 + self.rng.below(2);
            let members: Vec<Term> = (0..n).map(|_| self.fresh_table(Some(arity)).0).collect();
            self.binds
                .insert(v.as_str().to_owned(), (Term::set(members.clone()), None));
            return Ok(("SET", members));
        }
        let Term::App(head, items) = t else {
            return Err("UNION pattern without a collection constructor".to_owned());
        };
        let kind = match head.as_str() {
            "SET" => "SET",
            "BAG" => "BAG",
            "LIST" => "LIST",
            other => return Err(format!("UNION over {other}")),
        };
        let mut members = Vec::new();
        for item in items.as_slice() {
            if let Term::SeqVar(v) = item {
                let extra = self.expand_seq_rels(v.as_str(), arity)?;
                members.extend(extra);
            } else {
                members.push(self.inst_rel(item, Some(arity))?.0);
            }
        }
        if members.is_empty() {
            members.push(self.fresh_table(Some(arity)).0);
        }
        Ok((kind, members))
    }

    fn expand_seq_rels(&mut self, name: &str, arity: usize) -> Result<Vec<Term>, String> {
        if let Some(terms) = self.seq_binds.get(name) {
            return Ok(terms.clone());
        }
        let n = self.rng.below(3);
        let terms: Vec<Term> = (0..n).map(|_| self.fresh_table(Some(arity)).0).collect();
        self.seq_binds.insert(name.to_owned(), terms.clone());
        Ok(terms)
    }

    /// Instantiate a `SEARCH` input list. The third component is the
    /// *focus* conjuncts: for every NEST or FIX input, one equality of
    /// the shape the push-down methods require — `ATTR(pos, g) = const`
    /// over a group attribute (NEST) or the binding-preserved first
    /// attribute (FIX). The caller uses them as the predicate when the
    /// pattern leaves it free.
    fn inst_search_inputs(&mut self, t: &Term) -> Result<(Term, Vec<usize>, Vec<Term>), String> {
        match t {
            Term::Var(v) => {
                if let Some((term, _)) = self.binds.get(v.as_str()).cloned() {
                    let arities = search_input_arities(&term, &self.tables)?;
                    return Ok((term, arities, Vec::new()));
                }
                let n = 1 + self.rng.below(2);
                let mut items = Vec::new();
                let mut arities = Vec::new();
                for _ in 0..n {
                    let (item, a) = self.fresh_table(None);
                    items.push(item);
                    arities.push(a);
                }
                let term = Term::list(items);
                self.binds
                    .insert(v.as_str().to_owned(), (term.clone(), None));
                Ok((term, arities, Vec::new()))
            }
            Term::App(head, items) if head.as_str() == "LIST" => {
                let mut out = Vec::new();
                let mut arities = Vec::new();
                let mut focus = Vec::new();
                for item in items.as_slice() {
                    if let Term::SeqVar(v) = item {
                        // Search inputs need not share arity; fresh
                        // ones get their own random widths.
                        let arity = 1 + self.rng.below(3) as usize;
                        for extra in self.expand_seq_rels(v.as_str(), arity)? {
                            arities.push(search_input_arities(&extra, &self.tables)?[0]);
                            out.push(extra);
                        }
                    } else {
                        let (rel, a) = self.inst_rel(item, None)?;
                        let pos = (arities.len() + 1) as i64;
                        let item_head = match item {
                            Term::App(h, _) => h.as_str(),
                            _ => "",
                        };
                        match item_head {
                            "FIX" => {
                                // The generated fixpoint preserves bindings
                                // on attribute 1 only.
                                focus.push(Term::app(
                                    "=",
                                    vec![Term::attr(pos, 1), self.pool_const()],
                                ));
                            }
                            "NEST" if a >= 2 => {
                                // Any group attribute (outputs 1..arity-1;
                                // the collection is last).
                                let g = 1 + self.rng.below(a as u64 - 1) as i64;
                                focus.push(Term::app(
                                    "=",
                                    vec![Term::attr(pos, g), self.pool_const()],
                                ));
                            }
                            _ => {}
                        }
                        out.push(rel);
                        arities.push(a);
                    }
                }
                if out.is_empty() {
                    let (rel, a) = self.fresh_table(None);
                    out.push(rel);
                    arities.push(a);
                }
                Ok((Term::list(out), arities, focus))
            }
            _ => Err("SEARCH inputs neither a variable nor a LIST".to_owned()),
        }
    }

    fn pool_const(&mut self) -> Term {
        Term::int(INT_POOL[self.rng.below(INT_POOL.len() as u64) as usize])
    }

    /// A literal for a qualification or an `ISA(v, constant)` variable:
    /// the INT pool, the REAL twin of one of its values, or one of
    /// [`BIG_INTS`] — the operands on which INT/REAL widening and
    /// structural equality part ways.
    fn literal(&mut self) -> Term {
        match self.rng.below(INT_POOL.len() as u64 + 3) as usize {
            i if i < INT_POOL.len() => Term::int(INT_POOL[i]),
            i if i == INT_POOL.len() => Term::Const(Value::real(2.0)),
            i => Term::int(BIG_INTS[i - INT_POOL.len() - 1]),
        }
    }

    /// A constant set: as one operand of an ordered comparison it makes
    /// the comparison broadcast over the elements.
    fn const_set(&mut self) -> Term {
        Term::app("MAKESET", vec![self.pool_const(), self.pool_const()])
    }

    /// Choose (or read off) the nested/group attribute partition of a
    /// `NEST` pattern. Variable patterns get a generated partition — the
    /// last input attribute nested, the rest grouping — sized to the
    /// required output arity when the context imposes one.
    fn nest_partition(
        &mut self,
        nested: &Term,
        group: &Term,
        required_out: Option<usize>,
    ) -> Result<(Vec<i64>, Vec<i64>, usize), String> {
        fn attr_ints(t: &Term) -> Option<Vec<i64>> {
            match t.as_app() {
                Some(("LIST", items)) => items
                    .iter()
                    .map(|i| match i.as_const() {
                        Some(Value::Int(n)) => Some(*n),
                        _ => None,
                    })
                    .collect(),
                _ => None,
            }
        }
        match (nested, group) {
            (Term::Var(nv), Term::Var(gv)) => {
                if self.binds.contains_key(nv.as_str()) || self.binds.contains_key(gv.as_str()) {
                    return Err("NEST attribute lists reused across patterns".to_owned());
                }
                // Output = group attributes then the collection, so the
                // input arity is out - 1 grouping columns + 1 nested one.
                let in_arity = match required_out {
                    Some(r) if r >= 2 => r,
                    Some(_) => return Err("NEST cannot produce arity < 2".to_owned()),
                    None => 2 + self.rng.below(2) as usize,
                };
                let nested_p = vec![in_arity as i64];
                let group_p: Vec<i64> = (1..in_arity as i64).collect();
                let as_list =
                    |ints: &[i64]| Term::list(ints.iter().map(|&i| Term::int(i)).collect());
                self.binds
                    .insert(nv.as_str().to_owned(), (as_list(&nested_p), None));
                self.binds
                    .insert(gv.as_str().to_owned(), (as_list(&group_p), None));
                Ok((nested_p, group_p, in_arity))
            }
            _ => {
                let (Some(nested_p), Some(group_p)) = (attr_ints(nested), attr_ints(group)) else {
                    return Err("NEST attribute lists neither variables nor INT lists".to_owned());
                };
                if nested_p.is_empty() || nested_p.iter().chain(&group_p).any(|&i| i < 1) {
                    return Err("malformed NEST attribute lists".to_owned());
                }
                if required_out.is_some_and(|r| r != group_p.len() + 1) {
                    return Err("NEST output arity conflicts with the context".to_owned());
                }
                let in_arity = nested_p.iter().chain(&group_p).copied().max().unwrap() as usize;
                Ok((nested_p, group_p, in_arity))
            }
        }
    }

    fn inst_kind(&mut self, t: &Term) -> Result<Term, String> {
        match t {
            Term::Var(v) => {
                if let Some((term, _)) = self.binds.get(v.as_str()) {
                    return Ok(term.clone());
                }
                let kind = Term::atom("SET");
                self.binds
                    .insert(v.as_str().to_owned(), (kind.clone(), None));
                Ok(kind)
            }
            Term::App(h, args)
                if args.is_empty() && matches!(h.as_str(), "SET" | "BAG" | "LIST" | "ARRAY") =>
            {
                Ok(t.clone())
            }
            other => Err(format!("NEST collection kind {other}")),
        }
    }

    /// A transitive-closure-shaped fixpoint over two fresh arity-2
    /// tables: `UNION(SET(seed, SEARCH((F, delta), 1.2 = 2.1, (1.1,
    /// 2.2))))`. Linear recursion with attribute 1 projected verbatim
    /// from the recursive occurrence — exactly the class the
    /// ADORNMENT/ALEXANDER methods can reduce when the outer
    /// qualification binds attribute 1.
    fn gen_fix_body(&mut self) -> (Term, Term) {
        self.fix_count += 1;
        let name = Term::atom(format!("F{}", self.fix_count));
        let (seed, _) = self.fresh_table(Some(2));
        let (delta, _) = self.fresh_table(Some(2));
        let rec = Term::app(
            "SEARCH",
            vec![
                Term::list(vec![name.clone(), delta]),
                Term::app("=", vec![Term::attr(1, 2), Term::attr(2, 1)]),
                Term::list(vec![Term::attr(1, 1), Term::attr(2, 2)]),
            ],
        );
        let body = Term::app("UNION", vec![Term::set(vec![seed, rec])]);
        (name, body)
    }

    fn inst_pred(&mut self, t: &Term, env: &[usize]) -> Result<Term, String> {
        match t {
            Term::Var(v) => {
                if let Some((term, _)) = self.binds.get(v.as_str()) {
                    return Ok(term.clone());
                }
                let pred = self.gen_pred(env, 2);
                self.binds
                    .insert(v.as_str().to_owned(), (pred.clone(), None));
                Ok(pred)
            }
            Term::App(head, args) => {
                let (head, args) = (head.as_str(), args.as_slice());
                match (head, args.len()) {
                    ("AND" | "OR", 2) => Ok(Term::app(
                        head,
                        vec![
                            self.inst_pred(&args[0], env)?,
                            self.inst_pred(&args[1], env)?,
                        ],
                    )),
                    ("NOT", 1) => Ok(Term::app("NOT", vec![self.inst_pred(&args[0], env)?])),
                    ("TRUE" | "FALSE", 0) => Ok(t.clone()),
                    ("MEMBER", 2) => Ok(Term::app(
                        "MEMBER",
                        vec![
                            self.inst_scalar(&args[0], env)?,
                            self.inst_set(&args[1], env)?,
                        ],
                    )),
                    (op, 2) if CmpOp::from_symbol(op).is_some() => {
                        let l = self.inst_cmp_operand(&args[0], env)?;
                        let r = self.inst_cmp_operand(&args[1], env)?;
                        Ok(self.comparison(op, l, r))
                    }
                    _ => Err(format!("predicate operator {head}/{}", args.len())),
                }
            }
            Term::SeqVar(v) => Err(format!("collection variable '{v}*' in predicate position")),
            Term::Const(Value::Bool(_)) => Ok(t.clone()),
            Term::Const(_) => Err("non-boolean literal in predicate position".to_owned()),
        }
    }

    /// Instantiate a set-valued pattern position (`MEMBER`'s second
    /// argument): a variable becomes a small literal `SET`, a concrete
    /// collection constructor has its items instantiated as scalars.
    fn inst_set(&mut self, t: &Term, env: &[usize]) -> Result<Term, String> {
        match t {
            Term::Var(v) => {
                if let Some((term, _)) = self.binds.get(v.as_str()) {
                    return Ok(term.clone());
                }
                let n = 1 + self.rng.below(3);
                let items: Vec<Term> = (0..n).map(|_| self.pool_const()).collect();
                let set = Term::set(items);
                self.binds
                    .insert(v.as_str().to_owned(), (set.clone(), None));
                Ok(set)
            }
            Term::App(h, items) if matches!(h.as_str(), "SET" | "MAKESET" | "BAG" | "LIST") => {
                let inst: Result<Vec<Term>, String> = items
                    .iter()
                    .map(|item| self.inst_scalar(item, env))
                    .collect();
                Ok(Term::app(h.as_str(), inst?))
            }
            other => Err(format!("set-valued position {other}")),
        }
    }

    /// A comparison operand: [`Gen::inst_scalar`], except that a fresh
    /// `ISA(v, constant)` variable becomes a constant set one time in
    /// four.
    fn inst_cmp_operand(&mut self, t: &Term, env: &[usize]) -> Result<Term, String> {
        if let Term::Var(v) = t {
            let fresh_const =
                self.const_vars.contains(v.as_str()) && !self.binds.contains_key(v.as_str());
            if fresh_const && self.rng.below(4) == 0 {
                let set = self.const_set();
                self.binds
                    .insert(v.as_str().to_owned(), (set.clone(), None));
                return Ok(set);
            }
        }
        self.inst_scalar(t, env)
    }

    fn inst_scalar(&mut self, t: &Term, env: &[usize]) -> Result<Term, String> {
        match t {
            Term::Var(v) => {
                if let Some((term, _)) = self.binds.get(v.as_str()) {
                    return Ok(term.clone());
                }
                let s = if self.const_vars.contains(v.as_str()) {
                    self.literal()
                } else {
                    self.gen_scalar(env, 1)
                };
                self.binds.insert(v.as_str().to_owned(), (s.clone(), None));
                Ok(s)
            }
            Term::Const(_) => Ok(t.clone()),
            Term::App(head, args) => {
                let (head, args) = (head.as_str(), args.as_slice());
                if t.as_attr().is_some() {
                    return Ok(t.clone());
                }
                match (head, args.len()) {
                    ("+" | "-" | "*", 2) => Ok(Term::app(
                        head,
                        vec![
                            self.inst_scalar(&args[0], env)?,
                            self.inst_scalar(&args[1], env)?,
                        ],
                    )),
                    ("-", 1) => Ok(Term::app("-", vec![self.inst_scalar(&args[0], env)?])),
                    _ => Err(format!("scalar operator {head}/{}", args.len())),
                }
            }
            Term::SeqVar(v) => Err(format!("collection variable '{v}*' in scalar position")),
        }
    }

    fn inst_scalar_list(
        &mut self,
        t: &Term,
        env: &[usize],
        required: Option<usize>,
    ) -> Result<Vec<Term>, String> {
        match t {
            Term::Var(v) => {
                if let Some((term, _)) = self.binds.get(v.as_str()) {
                    if let Some(("LIST", items)) = term.as_app() {
                        if required.is_some_and(|r| r != items.len()) {
                            return Err(format!("conflicting projection widths on '{v}'"));
                        }
                        return Ok(items.to_vec());
                    }
                    return Err(format!("'{v}' reused outside a projection list"));
                }
                let n = required.unwrap_or_else(|| 1 + self.rng.below(2) as usize);
                let items: Vec<Term> = (0..n).map(|_| self.gen_scalar(env, 1)).collect();
                self.binds
                    .insert(v.as_str().to_owned(), (Term::list(items.clone()), None));
                Ok(items)
            }
            Term::App(head, items) if head.as_str() == "LIST" => {
                let mut out = Vec::new();
                for item in items.as_slice() {
                    if let Term::SeqVar(v) = item {
                        if let Some(terms) = self.seq_binds.get(v.as_str()) {
                            out.extend(terms.clone());
                        } else {
                            let n = self.rng.below(3);
                            let terms: Vec<Term> =
                                (0..n).map(|_| self.gen_scalar(env, 1)).collect();
                            self.seq_binds.insert(v.as_str().to_owned(), terms.clone());
                            out.extend(terms);
                        }
                    } else {
                        out.push(self.inst_scalar(item, env)?);
                    }
                }
                if out.is_empty() {
                    out.push(self.gen_scalar(env, 1));
                }
                if required.is_some_and(|r| r != out.len()) {
                    return Err("projection list width conflicts with the context".to_owned());
                }
                Ok(out)
            }
            _ => Err("projection list neither a variable nor a LIST".to_owned()),
        }
    }

    /// A random predicate over inputs with the given arities.
    fn gen_pred(&mut self, env: &[usize], depth: u32) -> Term {
        let roll = self.rng.below(100);
        if depth > 0 && roll < 40 {
            return match roll % 4 {
                0 => Term::app(
                    "AND",
                    vec![self.gen_pred(env, depth - 1), self.gen_pred(env, depth - 1)],
                ),
                1 => Term::app(
                    "OR",
                    vec![self.gen_pred(env, depth - 1), self.gen_pred(env, depth - 1)],
                ),
                2 => Term::app("NOT", vec![self.gen_pred(env, depth - 1)]),
                _ => self.gen_cmp(env),
            };
        }
        if roll < 70 {
            self.gen_cmp(env)
        } else if roll < 85 {
            self.gen_window(env)
        } else if roll < 93 {
            Term::atom("TRUE")
        } else {
            Term::atom("FALSE")
        }
    }

    /// `l op r` as a boolean: an ordered comparison with a constant set
    /// on exactly one side broadcasts to a collection, so it is
    /// quantified (`ALL`/`EXIST`) to stay a well-typed qualification.
    fn comparison(&mut self, op: &str, l: Term, r: Term) -> Term {
        let broadcasts = !matches!(op, "=" | "<>") && l.is_app("MAKESET") != r.is_app("MAKESET");
        let cmp = Term::app(op, vec![l, r]);
        if broadcasts {
            Term::app(["ALL", "EXIST"][self.rng.below(2) as usize], vec![cmp])
        } else {
            cmp
        }
    }

    /// A random comparison over inputs with the given arities; one in
    /// eight has a constant set for its right operand.
    fn gen_cmp(&mut self, env: &[usize]) -> Term {
        let op = CmpOp::ALL[self.rng.below(CmpOp::ALL.len() as u64) as usize];
        let left = self.gen_scalar(env, 1);
        let right = if self.rng.below(8) == 0 {
            self.const_set()
        } else {
            self.gen_scalar(env, 1)
        };
        self.comparison(op.symbol(), left, right)
    }

    /// Three comparisons of one attribute that a value rows can carry
    /// satisfies, each against that value or its twin — `a = 2 AND
    /// a >= 2.0`, `a <= k AND a > k - 1` beyond 2^53: the near-clash
    /// shapes on which contradiction detection must not over-claim (and
    /// the repeats it must drop). Operators are read off the shared
    /// table, so the conjunction is TRUE at the witness by construction.
    fn gen_window(&mut self, env: &[usize]) -> Term {
        let rel = 1 + self.rng.below(env.len() as u64);
        let attr = 1 + self.rng.below(env[rel as usize - 1] as u64);
        let [witness, twin] = if self.rng.below(2) == 0 {
            [Value::Int(2), Value::real(2.0)]
        } else {
            BIG_INTS.map(Value::Int)
        };
        let bounds = (0..3)
            .map(|_| {
                let k = [&witness, &twin][self.rng.below(2) as usize];
                let ord = witness.sql_cmp(k).expect("neither side is NULL");
                let op = CmpOp::ALL
                    .into_iter()
                    .filter(|op| op.holds(ord))
                    .nth(self.rng.below(3) as usize)
                    .expect("three operators hold under any ordering");
                Term::app(
                    op.symbol(),
                    vec![Term::attr(rel as i64, attr as i64), Term::Const(k.clone())],
                )
            })
            .collect();
        conjoin(bounds)
    }

    /// A random scalar over inputs with the given arities.
    fn gen_scalar(&mut self, env: &[usize], depth: u32) -> Term {
        let roll = self.rng.below(100);
        if !env.is_empty() && roll < 55 {
            let rel = 1 + self.rng.below(env.len() as u64);
            let attr = 1 + self.rng.below(env[rel as usize - 1] as u64);
            return Term::attr(rel as i64, attr as i64);
        }
        if depth > 0 && roll >= 80 {
            let op = ["+", "-", "*"][self.rng.below(3) as usize];
            return Term::app(
                op,
                vec![
                    self.gen_scalar(env, depth - 1),
                    self.gen_scalar(env, depth - 1),
                ],
            );
        }
        // A literal in operand position is drawn wide; under arithmetic
        // it stays in the INT pool, whose sums and products stay small.
        if depth > 0 {
            self.literal()
        } else {
            self.pool_const()
        }
    }
}

/// Arities of the already-instantiated relations inside a `LIST` binding
/// (used when a whole-inputs variable is reused).
fn search_input_arities(t: &Term, tables: &[TableSpec]) -> Result<Vec<usize>, String> {
    let lookup = |name: &str| {
        tables
            .iter()
            .find(|spec| spec.name == name)
            .map(|spec| spec.arity)
            .ok_or_else(|| format!("unknown generated table {name}"))
    };
    match t.as_app() {
        Some(("LIST", items)) => items
            .iter()
            .map(|i| match i.as_app() {
                Some((name, [])) => lookup(name),
                _ => Err("non-atomic reused search input".to_owned()),
            })
            .collect(),
        Some((name, [])) => Ok(vec![lookup(name)?]),
        _ => Err("non-atomic reused search input".to_owned()),
    }
}

/// Generate one case for `rule` from `seed`, or explain why the LHS
/// shape is outside the generator's vocabulary.
pub fn generate_case(rule: &Rule, seed: u64) -> GenOutcome {
    let mut gen = Gen {
        rng: Rng::new(seed),
        tables: Vec::new(),
        binds: BTreeMap::new(),
        seq_binds: BTreeMap::new(),
        const_vars: constant_vars(rule),
        fix_count: 0,
    };
    let subject = match &rule.lhs {
        Term::App(head, _) if rel_sig(head.as_str()).is_some() => {
            match gen.inst_rel(&rule.lhs, None) {
                Ok((subject, _)) => subject,
                Err(reason) => return GenOutcome::Unsupported(reason),
            }
        }
        Term::App(head, args) if is_pred_head(head.as_str(), args.len()) => {
            // A pure qualification rule: embed the instantiated predicate
            // in a FILTER over one fresh table so it executes.
            let (rel, arity) = gen.fresh_table(None);
            match gen.inst_pred(&rule.lhs, &[arity]) {
                Ok(pred) => Term::app("FILTER", vec![rel, pred]),
                Err(reason) => return GenOutcome::Unsupported(reason),
            }
        }
        Term::App(head, args) if is_scalar_head(head.as_str(), args.len()) => {
            // A scalar-rooted rule (the arithmetic folds): embed the
            // instantiated scalar as the projection of one fresh table.
            // The rewriter matches at every subterm position, so the
            // rule fires inside the projection list.
            let (rel, arity) = gen.fresh_table(None);
            match gen.inst_scalar(&rule.lhs, &[arity]) {
                Ok(scalar) => Term::app("PROJECTION", vec![rel, Term::list(vec![scalar])]),
                Err(reason) => return GenOutcome::Unsupported(reason),
            }
        }
        other => {
            return GenOutcome::Unsupported(format!(
                "LHS root {other} is neither a relational operator nor a qualification"
            ))
        }
    };
    // Rows carry the large INT only when the subject compares against
    // one: elsewhere it could only miss every literal, and a rule that
    // states domain knowledge over the small pool (`x <= 200 --> TRUE`
    // in examples/custom_rules.rules) stays fuzzed inside its domain.
    let big = subject
        .positions()
        .iter()
        .any(|p| matches!(subject.at(p), Some(Term::Const(Value::Int(n))) if BIG_INTS.contains(n)));
    let row_pool = INT_POOL.len() as u64 + u64::from(big);
    let mut rows = Vec::with_capacity(gen.tables.len());
    for spec in &gen.tables {
        let n = gen.rng.below(MAX_ROWS);
        let mut table_rows = Vec::with_capacity(n as usize);
        for _ in 0..n {
            table_rows.push(
                (0..spec.arity)
                    .map(|_| {
                        let i = gen.rng.below(row_pool) as usize;
                        INT_POOL.get(i).copied().unwrap_or(BIG_INTS[0])
                    })
                    .collect(),
            );
        }
        rows.push(table_rows);
    }
    GenOutcome::Case(Box::new(FuzzCase {
        seed,
        tables: gen.tables,
        rows,
        subject,
    }))
}

/// Strictly smaller variants of a failing case, in preference order. The
/// harness re-checks each candidate (rule still applies, results still
/// differ) and keeps the first that does, looping to a fixpoint.
pub fn shrink_candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    // Fewer rows first: data shrinks are the cheapest to re-check and
    // give the most readable counterexamples.
    for (ti, rows) in case.rows.iter().enumerate() {
        for ri in 0..rows.len() {
            let mut c = case.clone();
            c.rows[ti].remove(ri);
            out.push(c);
        }
    }
    // Structural shrinks on the subject: hoist a boolean child over its
    // connective, collapse a comparison to a literal, zero a constant.
    for pos in case.subject.positions() {
        if pos.is_empty() {
            continue;
        }
        let Some(sub) = case.subject.at(&pos) else {
            continue;
        };
        if let Some((head, args)) = sub.as_app() {
            match (head, args.len()) {
                ("AND" | "OR", 2) => {
                    for child in args {
                        out.push(replaced(case, &pos, child.clone()));
                    }
                }
                ("NOT", 1) => out.push(replaced(case, &pos, args[0].clone())),
                (op, 2) if CmpOp::from_symbol(op).is_some() => {
                    out.push(replaced(case, &pos, Term::atom("TRUE")));
                    out.push(replaced(case, &pos, Term::atom("FALSE")));
                }
                _ => {}
            }
        }
        if let Some(Value::Int(n)) = sub.as_const() {
            if *n != 0 {
                out.push(replaced(case, &pos, Term::int(0)));
            }
        }
    }
    out
}

fn replaced(case: &FuzzCase, pos: &[usize], with: Term) -> FuzzCase {
    let mut c = case.clone();
    c.subject = case.subject.replace_at(pos, with);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::parse_source;
    use crate::SourceItem;

    fn rule(src: &str) -> Rule {
        match parse_source(src).unwrap().remove(0) {
            SourceItem::Rule(r) => r,
            other => panic!("expected a rule, got {other:?}"),
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let r = rule("Merge : FILTER(FILTER(r, p), q) / --> FILTER(r, AND(p, q)) / ;");
        let (GenOutcome::Case(a), GenOutcome::Case(b)) =
            (generate_case(&r, 42), generate_case(&r, 42))
        else {
            panic!("expected cases");
        };
        assert_eq!(a.subject, b.subject);
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn filter_pattern_instantiates_to_a_matching_subject() {
        let r = rule("Merge : FILTER(FILTER(r, p), q) / --> FILTER(r, AND(p, q)) / ;");
        let GenOutcome::Case(case) = generate_case(&r, 7) else {
            panic!("expected a case");
        };
        // The subject is FILTER(FILTER(T1, ...), ...): the pattern
        // matches at the root by construction.
        let (head, args) = case.subject.as_app().unwrap();
        assert_eq!(head, "FILTER");
        assert!(args[0].is_app("FILTER"));
        assert_eq!(case.tables.len(), 1);
    }

    #[test]
    fn qualification_rules_embed_in_a_filter() {
        let r = rule("DM : NOT(AND(f, g)) / --> OR(NOT(f), NOT(g)) / ;");
        let GenOutcome::Case(case) = generate_case(&r, 3) else {
            panic!("expected a case");
        };
        let (head, args) = case.subject.as_app().unwrap();
        assert_eq!(head, "FILTER");
        assert!(args[1].is_app("NOT"));
    }

    #[test]
    fn nest_rules_instantiate_with_concrete_attribute_lists() {
        let r = rule("N : NEST(r, LIST(2), LIST(1), SET) / --> NEST(r, LIST(2), LIST(1), SET) / ;");
        let GenOutcome::Case(case) = generate_case(&r, 1) else {
            panic!("expected a case");
        };
        let (head, args) = case.subject.as_app().unwrap();
        assert_eq!(head, "NEST");
        // Input arity covers the largest referenced attribute.
        assert_eq!(case.tables[0].arity, 2);
        assert!(args[3].is_app("SET"));
    }

    #[test]
    fn nest_in_search_inputs_gets_a_group_attribute_focus_predicate() {
        let r = rule(
            "P : SEARCH(LIST(x*, NEST(z, a, b, k), y*), f, exp) / --> \
             SEARCH(LIST(x*, NEST(z, a, b, k), y*), f, exp) / ;",
        );
        let mut supported = 0;
        for seed in 0..16u64 {
            let GenOutcome::Case(case) = generate_case(&r, seed) else {
                continue;
            };
            supported += 1;
            // The predicate is the focus conjunct: an equality over a
            // group attribute of the NEST input, which is what SPLITNEST
            // needs to push the qualification below the nest.
            let (_, args) = case.subject.as_app().unwrap();
            let (op, cmp) = args[1].as_app().unwrap();
            assert_eq!(op, "=", "pred = {}", args[1]);
            assert!(cmp[0].as_attr().is_some(), "pred = {}", args[1]);
        }
        assert!(supported >= 8, "only {supported}/16 seeds produced cases");
    }

    #[test]
    fn fix_in_search_inputs_generates_a_reducible_recursion() {
        let r = rule(
            "F : SEARCH(LIST(x*, FIX(r, e), y*), f, a) / --> \
             SEARCH(LIST(x*, FIX(r, e), y*), f, a) / ;",
        );
        let GenOutcome::Case(case) = generate_case(&r, 5) else {
            panic!("expected a case");
        };
        // Somewhere in the subject there is FIX(F1, UNION(SET(seed,
        // recursive-search))) — the linear class ALEXANDER reduces.
        let fix = case
            .subject
            .positions()
            .into_iter()
            .filter_map(|p| case.subject.at(&p).cloned())
            .find(|t| t.is_app("FIX"))
            .expect("a FIX subterm");
        let (_, fix_args) = fix.as_app().unwrap();
        assert_eq!(fix_args[0], Term::atom("F1"));
        assert!(fix_args[1].is_app("UNION"));
    }

    #[test]
    fn union_collection_variables_expand_to_member_sets() {
        let r = rule("U : UNION(SET(x*, UNION(z))) / --> UNION(SET_UNION(x*, z)) / ;");
        let GenOutcome::Case(case) = generate_case(&r, 11) else {
            panic!("expected a case");
        };
        let (head, args) = case.subject.as_app().unwrap();
        assert_eq!(head, "UNION");
        // The inner UNION(z) instantiated with z bound to a concrete SET.
        let inner = args[0]
            .as_app()
            .unwrap()
            .1
            .iter()
            .find(|t| t.is_app("UNION"))
            .expect("nested UNION");
        assert!(inner.as_app().unwrap().1[0].is_app("SET"));
    }

    #[test]
    fn isa_constant_variables_instantiate_as_literals() {
        let r =
            rule("PF : x + y / ISA(x, constant), ISA(y, constant) --> a / EVALUATE(x + y, a) ;");
        for seed in 0..8u64 {
            let GenOutcome::Case(case) = generate_case(&r, seed) else {
                panic!("expected a case");
            };
            // PROJECTION(T1, LIST(c1 + c2)) with both operands literal,
            // so the EVALUATE side condition always succeeds.
            let (head, args) = case.subject.as_app().unwrap();
            assert_eq!(head, "PROJECTION");
            let sum = &args[1].as_app().unwrap().1[0];
            let (_, operands) = sum.as_app().unwrap();
            assert!(operands.iter().all(|t| t.as_const().is_some()), "{sum}");
        }
    }

    #[test]
    fn comparison_literals_reach_beyond_the_int_pool() {
        let free = rule("Q : FILTER(r, f) / --> FILTER(r, f) / ;");
        let fold =
            rule("LF : x < y / ISA(x, constant), ISA(y, constant) --> a / EVALUATE(x < y, a) ;");
        let (mut real, mut big, mut quantified) = (false, [false; 2], false);
        for seed in 0..256u64 {
            for r in [&free, &fold] {
                let GenOutcome::Case(case) = generate_case(r, seed) else {
                    panic!("expected a case");
                };
                let mut mentions_big = false;
                for pos in case.subject.positions() {
                    match case.subject.at(&pos).unwrap() {
                        Term::Const(Value::Real(_)) => real = true,
                        Term::Const(Value::Int(n)) => {
                            if let Some(i) = BIG_INTS.iter().position(|b| b == n) {
                                big[i] = true;
                                mentions_big = true;
                            }
                        }
                        // A comparison that broadcasts over a constant
                        // set is quantified back to a boolean.
                        t @ Term::App(..) if t.is_app("ALL") || t.is_app("EXIST") => {
                            let cmp = &t.as_app().unwrap().1[0];
                            let (_, operands) = cmp.as_app().unwrap();
                            assert_eq!(
                                operands.iter().filter(|o| o.is_app("MAKESET")).count(),
                                1,
                                "{cmp}"
                            );
                            quantified = true;
                        }
                        _ => {}
                    }
                }
                // Rows leave the INT pool only for a subject that
                // compares against a large INT.
                let big_rows = case
                    .rows
                    .iter()
                    .flatten()
                    .flatten()
                    .any(|v| *v == BIG_INTS[0]);
                assert!(mentions_big || !big_rows, "{case}");
                assert!(case
                    .rows
                    .iter()
                    .flatten()
                    .flatten()
                    .all(|v| INT_POOL.contains(v) || *v == BIG_INTS[0]));
            }
        }
        assert!(real && big == [true; 2] && quantified);
    }

    #[test]
    fn member_predicates_instantiate_over_literal_sets() {
        let r = rule("MF : MEMBER(x, s) / ISA(x, constant), ISA(s, constant) --> a / EVALUATE(MEMBER(x, s), a) ;");
        let GenOutcome::Case(case) = generate_case(&r, 2) else {
            panic!("expected a case");
        };
        let (_, args) = case.subject.as_app().unwrap();
        let (mh, margs) = args[1].as_app().unwrap();
        assert_eq!(mh, "MEMBER");
        assert!(margs[0].as_const().is_some());
        assert!(margs[1].is_app("SET"));
    }

    #[test]
    fn shrinks_never_grow() {
        let r = rule("Merge : FILTER(FILTER(r, p), q) / --> FILTER(r, AND(p, q)) / ;");
        let GenOutcome::Case(case) = generate_case(&r, 99) else {
            panic!("expected a case");
        };
        for cand in shrink_candidates(&case) {
            let fewer_rows = cand.rows.iter().map(Vec::len).sum::<usize>()
                < case.rows.iter().map(Vec::len).sum::<usize>();
            // Zeroing a constant keeps the size; every other candidate
            // shrinks the subject or the data.
            let no_larger_subject = cand.subject.size() <= case.subject.size();
            assert!(fewer_rows || no_larger_subject, "{cand}");
            assert!(cand.subject.size() <= case.subject.size(), "{cand}");
        }
    }
}
