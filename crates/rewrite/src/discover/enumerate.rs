//! Standardized bounded enumeration of candidate terms.
//!
//! Discovery searches the same fragment the bounded prover decides
//! ([`crate::verify::equiv`]): `AND`/`OR`/`NOT` over boolean variables
//! and `TRUE`/`FALSE`, comparisons over scalar variables, and optionally
//! small integer literals with `+`/`-`/`*`. Enumeration is *standardized*
//! so two sessions (or two machines in CI) produce byte-identical
//! candidate streams:
//!
//! * terms are generated size class by size class, smallest first, in a
//!   fixed grammar order;
//! * commutative operators (`AND`, `OR`, `=`, `<>`, `+`, `*`) only admit
//!   argument pairs in canonical `term_key` order — the mirrored form
//!   is counted as symmetry-pruned, never generated;
//! * the mirror comparisons `>`/`>=` are never generated; a candidate
//!   that would need them appears as the `<`/`<=` form with swapped
//!   operands (again counted as pruned);
//! * candidate *pairs* are deduplicated by a canonical key that renames
//!   variables by first occurrence across the (LHS, RHS) pair jointly,
//!   so `NOT(NOT(g)) --> g` and `NOT(NOT(f)) --> f` are one candidate.
//!
//! The canonicalization is deliberately not full AC normalization —
//! nested associations of `AND` are kept distinct — because the rewrite
//! engine itself is syntactic; what matters is that the *same* function
//! keys both the enumerated candidates and any externally supplied rule
//! ([`canonical_rule_key`]), so "re-discovered up to renaming" is a
//! string comparison.

use std::collections::BTreeMap;

use crate::rule::Rule;
use crate::term::Term;
use crate::verify::equiv::{
    eval_bool, nth_valuation, Kind, Tri, Valuation, BOOL_DOMAIN, SCALAR_DOMAIN,
};

/// The generation vocabulary, fixed per [`crate::discover::Fragment`].
#[derive(Debug, Clone)]
pub(crate) struct Vocab {
    pub(crate) bool_vars: Vec<&'static str>,
    pub(crate) scalar_vars: Vec<&'static str>,
    /// Generate comparison atoms over the scalar variables.
    pub(crate) cmp: bool,
    /// Generate integer literals and `+`/`-`/`*` scalar composites.
    pub(crate) arith: bool,
}

impl Vocab {
    /// The fixed variable→kind map the valuation grid enumerates.
    pub(crate) fn kinds(&self) -> BTreeMap<String, Kind> {
        let mut kinds = BTreeMap::new();
        for v in &self.bool_vars {
            kinds.insert((*v).to_owned(), Kind::Bool);
        }
        for v in &self.scalar_vars {
            kinds.insert((*v).to_owned(), Kind::Scalar);
        }
        kinds
    }
}

/// Deterministic total order on terms used for commutative-argument
/// canonicalization: by node count, then display form.
pub(crate) fn term_key(t: &Term) -> (usize, String) {
    (t.size(), t.to_string())
}

/// Result of one enumeration sweep.
#[derive(Debug, Default)]
pub(crate) struct Enumerated {
    /// Boolean-rooted terms, ordered by size class then grammar order.
    pub(crate) terms: Vec<Term>,
    /// Symmetric forms skipped (commutative mirrors, `>`/`>=` mirrors).
    pub(crate) symmetry_pruned: usize,
    /// The `max_terms` cap fired and a size class was cut short.
    pub(crate) truncated: bool,
}

/// Enumerate every boolean-rooted term of the vocabulary up to
/// `max_size` nodes. With `prune` set, symmetric duplicates are skipped
/// (and counted); with it clear the full unpruned stream is produced —
/// the property tests diff the two to show pruning loses nothing.
pub(crate) fn enumerate_terms(
    vocab: &Vocab,
    max_size: usize,
    prune: bool,
    max_terms: usize,
) -> Enumerated {
    let mut out = Enumerated::default();

    // Scalar layer: only ever appears under a comparison (1 node) next
    // to a sibling operand (>= 1 node), so its budget is max_size - 2.
    let max_scalar = max_size.saturating_sub(2);
    let mut scalars: Vec<Vec<Term>> = vec![Vec::new(); max_scalar + 1];
    if vocab.cmp && max_scalar >= 1 {
        for v in &vocab.scalar_vars {
            scalars[1].push(Term::var(*v));
        }
        if vocab.arith {
            scalars[1].push(Term::int(0));
            scalars[1].push(Term::int(1));
        }
        // Only the operators the rule DSL can spell infix participate:
        // binary `+` (commutative, key-ordered under pruning) and
        // binary `-`. `*` is reserved by the lexer for the
        // collection-variable suffix and unary minus only applies to
        // integer literals, so terms built from either could never
        // round-trip through an emitted `.rules` file.
        if vocab.arith {
            for s in 2..=max_scalar {
                for la in 1..s.saturating_sub(1) {
                    let lb = s - 1 - la;
                    for i in 0..scalars[la].len() {
                        for j in 0..scalars[lb].len() {
                            let (a, b) = (scalars[la][i].clone(), scalars[lb][j].clone());
                            if prune && term_key(&a) > term_key(&b) {
                                out.symmetry_pruned += 1;
                            } else {
                                scalars[s].push(Term::app("+", vec![a.clone(), b.clone()]));
                            }
                            scalars[s].push(Term::app("-", vec![a, b]));
                        }
                    }
                }
            }
        }
    }

    // Boolean layer.
    let mut bools: Vec<Vec<Term>> = vec![Vec::new(); max_size + 1];
    if max_size >= 1 {
        // `Term::bool`, not `Term::atom`: the parser lexes TRUE/FALSE
        // to `Const` values, and the joinability oracle matches
        // enumerated candidates against *parsed* knowledge-base rules —
        // an atom spelling would never unify with a constant literal.
        bools[1].push(Term::bool(true));
        bools[1].push(Term::bool(false));
        for v in &vocab.bool_vars {
            bools[1].push(Term::var(*v));
        }
    }
    // `=`/`<>` commute; `<`/`<=` cover `>`/`>=` by operand swap.
    let sym_cmp = ["=", "<>"];
    let asym_cmp = ["<", "<="];
    let mirror_cmp = [">", ">="];
    'sizes: for s in 2..=max_size {
        for i in 0..bools[s - 1].len() {
            let t = bools[s - 1][i].clone();
            bools[s].push(Term::app("NOT", vec![t]));
        }
        if vocab.cmp && s >= 3 {
            for la in 1..=(s - 2).min(max_scalar) {
                let lb = s - 1 - la;
                if lb < 1 || lb > max_scalar {
                    continue;
                }
                for i in 0..scalars[la].len() {
                    for j in 0..scalars[lb].len() {
                        let (a, b) = (scalars[la][i].clone(), scalars[lb][j].clone());
                        for op in sym_cmp {
                            if prune && term_key(&a) > term_key(&b) {
                                out.symmetry_pruned += 1;
                                continue;
                            }
                            bools[s].push(Term::app(op, vec![a.clone(), b.clone()]));
                        }
                        for op in asym_cmp {
                            if prune {
                                // The mirrored `>`/`>=` form is covered
                                // by this term with swapped operands.
                                out.symmetry_pruned += 1;
                            }
                            bools[s].push(Term::app(op, vec![a.clone(), b.clone()]));
                        }
                        if !prune {
                            for op in mirror_cmp {
                                bools[s].push(Term::app(op, vec![a.clone(), b.clone()]));
                            }
                        }
                    }
                }
            }
        }
        for la in 1..s.saturating_sub(1) {
            let lb = s - 1 - la;
            for i in 0..bools[la].len() {
                for j in 0..bools[lb].len() {
                    let (a, b) = (bools[la][i].clone(), bools[lb][j].clone());
                    for op in ["AND", "OR"] {
                        if prune && term_key(&a) > term_key(&b) {
                            out.symmetry_pruned += 1;
                            continue;
                        }
                        bools[s].push(Term::app(op, vec![a.clone(), b.clone()]));
                    }
                }
            }
        }
        let total: usize = bools.iter().map(Vec::len).sum();
        if total > max_terms {
            let keep = bools[s].len().saturating_sub(total - max_terms);
            bools[s].truncate(keep);
            out.truncated = true;
            break 'sizes;
        }
    }

    out.terms = bools.into_iter().flatten().collect();
    out
}

/// The full valuation grid over the vocabulary's fixed variable kinds.
pub(crate) fn grid_for(vocab: &Vocab) -> Vec<Valuation> {
    let kinds = vocab.kinds();
    let total: usize = kinds
        .values()
        .map(|k| match k {
            Kind::Bool => BOOL_DOMAIN.len(),
            Kind::Scalar => SCALAR_DOMAIN.len(),
        })
        .product();
    (0..total).map(|i| nth_valuation(&kinds, i)).collect()
}

/// Truth vector of a term over the grid, as bytes (FALSE=0, UNKNOWN=1,
/// TRUE=2). `None` if the term leaves the boolean fragment (cannot
/// happen for enumerated terms; defensive for external callers).
pub(crate) fn signature(t: &Term, grid: &[Valuation]) -> Option<Vec<u8>> {
    grid.iter()
        .map(|v| {
            eval_bool(t, v).map(|tri| match tri {
                Tri::False => 0,
                Tri::Unknown => 1,
                Tri::True => 2,
            })
        })
        .collect()
}

/// Grid positions where every *scalar* variable is non-NULL (boolean
/// variables may still be UNKNOWN). Two terms agreeing exactly on these
/// positions are equivalent under `NOTNULL` guards on the scalars.
pub(crate) fn scalar_nonnull_positions(grid: &[Valuation]) -> Vec<usize> {
    grid.iter()
        .enumerate()
        .filter(|(_, v)| v.scalars.values().all(Option::is_some))
        .map(|(i, _)| i)
        .collect()
}

/// Mirror-normalize comparisons and sort commutative arguments, bottom
/// up. Not full AC canonicalization (see module docs).
pub(crate) fn structure_normalize(t: &Term) -> Term {
    match t {
        Term::App(h, args) => {
            let mut na: Vec<Term> = args.iter().map(structure_normalize).collect();
            match (h.as_str(), na.len()) {
                (">", 2) => {
                    na.swap(0, 1);
                    Term::app("<", na)
                }
                (">=", 2) => {
                    na.swap(0, 1);
                    Term::app("<=", na)
                }
                ("AND" | "OR" | "=" | "<>" | "+", 2) => {
                    if term_key(&na[0]) > term_key(&na[1]) {
                        na.swap(0, 1);
                    }
                    Term::App(*h, na.into())
                }
                _ => Term::App(*h, na.into()),
            }
        }
        _ => t.clone(),
    }
}

fn var_order(t: &Term, order: &mut Vec<String>) {
    match t {
        Term::Var(v) if !order.iter().any(|o| o == v.as_str()) => {
            order.push(v.as_str().to_owned());
        }
        Term::App(_, args) => {
            for a in args {
                var_order(a, order);
            }
        }
        _ => {}
    }
}

/// Simultaneous variable substitution (no chained renames, so mapping
/// `x -> y` while `y` exists is safe).
fn rename_term(t: &Term, map: &BTreeMap<String, String>) -> Term {
    match t {
        Term::Var(v) => match map.get(v.as_str()) {
            Some(n) => Term::var(n.as_str()),
            None => t.clone(),
        },
        Term::App(h, args) => {
            let renamed: Vec<Term> = args.iter().map(|a| rename_term(a, map)).collect();
            Term::App(*h, renamed.into())
        }
        _ => t.clone(),
    }
}

/// Canonical key of a candidate (LHS, RHS, guards) triple: iterate
/// structure normalization and joint first-occurrence renaming to a
/// fixpoint (bounded), then print. Two rules equal up to variable
/// renaming, commutative argument order, and `>`/`>=` mirroring get the
/// same key.
pub(crate) fn canonical_key(lhs: &Term, rhs: &Term, guards: &[Term]) -> String {
    let mut l = lhs.clone();
    let mut r = rhs.clone();
    let mut g: Vec<Term> = guards.to_vec();
    for _ in 0..4 {
        let ln = structure_normalize(&l);
        let rn = structure_normalize(&r);
        let mut order = Vec::new();
        var_order(&ln, &mut order);
        var_order(&rn, &mut order);
        for gt in &g {
            var_order(gt, &mut order);
        }
        let map: BTreeMap<String, String> = order
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), format!("v{}", i + 1)))
            .collect();
        let l2 = rename_term(&ln, &map);
        let r2 = rename_term(&rn, &map);
        let mut g2: Vec<Term> = g.iter().map(|t| rename_term(t, &map)).collect();
        g2.sort_by_key(ToString::to_string);
        if l2 == l && r2 == r && g2 == g {
            break;
        }
        l = l2;
        r = r2;
        g = g2;
    }
    let guards_s = g
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    format!("{l} / {guards_s} --> {r}")
}

/// Canonical key of an existing rule — the comparison side of the
/// re-discovery ("up to renaming") check.
pub fn canonical_rule_key(rule: &Rule) -> String {
    canonical_key(&rule.lhs, &rule.rhs, &rule.constraints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::{parse_source, SourceItem};

    fn rule(src: &str) -> Rule {
        match parse_source(src).unwrap().remove(0) {
            SourceItem::Rule(r) => r,
            other => panic!("expected rule, got {other:?}"),
        }
    }

    fn bool_vocab() -> Vocab {
        Vocab {
            bool_vars: vec!["f", "g"],
            scalar_vars: vec![],
            cmp: false,
            arith: false,
        }
    }

    #[test]
    fn enumeration_is_deterministic_and_size_ordered() {
        let a = enumerate_terms(&bool_vocab(), 4, true, usize::MAX);
        let b = enumerate_terms(&bool_vocab(), 4, true, usize::MAX);
        assert_eq!(a.terms, b.terms);
        let sizes: Vec<usize> = a.terms.iter().map(Term::size).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sizes, sorted, "terms not emitted in size order");
        assert!(!a.truncated);
    }

    #[test]
    fn commutative_mirrors_are_pruned_and_counted() {
        let pruned = enumerate_terms(&bool_vocab(), 3, true, usize::MAX);
        let full = enumerate_terms(&bool_vocab(), 3, false, usize::MAX);
        assert!(pruned.terms.len() < full.terms.len());
        assert_eq!(
            pruned.terms.len() + pruned.symmetry_pruned,
            full.terms.len(),
            "every pruned term must be accounted"
        );
        // AND(f, TRUE) is pruned (TRUE sorts before f); AND(TRUE, f) kept.
        let has = |t: &Term| pruned.terms.contains(t);
        let kept = Term::app("AND", vec![Term::bool(true), Term::var("f")]);
        let dropped = Term::app("AND", vec![Term::var("f"), Term::bool(true)]);
        assert!(has(&kept));
        assert!(!has(&dropped));
    }

    #[test]
    fn mirror_comparisons_normalize_to_the_same_key() {
        let not_gt = rule("NotGt : NOT(x > y) / --> x <= y / ;");
        let not_lt_swapped = rule("N : NOT(b < a) / --> b >= a / ;");
        assert_eq!(
            canonical_rule_key(&not_gt),
            canonical_rule_key(&not_lt_swapped)
        );
    }

    #[test]
    fn renaming_and_argument_order_share_a_key() {
        let a = rule("A : g AND TRUE / --> g / ;");
        let b = rule("B : TRUE AND f / --> f / ;");
        assert_eq!(canonical_rule_key(&a), canonical_rule_key(&b));
        let c = rule("C : FALSE OR f / --> f / ;");
        assert_ne!(canonical_rule_key(&a), canonical_rule_key(&c));
    }

    #[test]
    fn signatures_separate_inequivalent_terms_and_merge_equivalents() {
        let vocab = bool_vocab();
        let grid = grid_for(&vocab);
        assert_eq!(grid.len(), 9);
        let f = Term::var("f");
        let nnf = Term::app("NOT", vec![Term::app("NOT", vec![Term::var("f")])]);
        let g = Term::var("g");
        assert_eq!(signature(&f, &grid), signature(&nnf, &grid));
        assert_ne!(signature(&f, &grid), signature(&g, &grid));
    }

    #[test]
    fn scalar_nonnull_projection_admits_unknown_booleans() {
        let vocab = Vocab {
            bool_vars: vec!["f"],
            scalar_vars: vec!["x"],
            cmp: true,
            arith: false,
        };
        let grid = grid_for(&vocab);
        assert_eq!(grid.len(), 15);
        let pos = scalar_nonnull_positions(&grid);
        // 3 bool values x 4 non-null scalars.
        assert_eq!(pos.len(), 12);
        assert!(pos
            .iter()
            .all(|&i| !grid[i].scalars.values().any(Option::is_none)));
    }
}
