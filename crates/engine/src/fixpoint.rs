//! Fixpoint evaluation: `fix(R, E(R))` computes the relation `R = E(R)`
//! (Section 3.2).
//!
//! Evaluation is semi-naive — the standard optimization the
//! Alexander/magic-sets transformation composes with. (The naive
//! iteration, which re-evaluates the whole body each round, is the
//! definition of `fix`; F9's `eds_bench::naive_fix` writes it out.) A
//! recursive branch with `n` occurrences of the recursion variable `R`
//! is re-evaluated as `n` variants: variant `i` binds occurrence `i` to
//! the delta of the previous round (`R#DELTA`), the occurrences before
//! it to the rows known before that round (`R#OLD`), and those after it
//! to every row known (`R`). A derivation that uses a delta row is
//! produced by the variant of its first delta occurrence and by no
//! other, so Δ ⋈ Δ is joined once a round; a linear branch has one
//! variant, which reads the delta alone.
//!
//! The delta is built as a set: every variant is evaluated into the
//! fixpoint's one set of known rows (`eval::eval_set`), so a derivation the
//! fixpoint already has — or one a variant of this round already
//! produced — is dropped before it becomes a row, and a new one enters
//! the set as it arrives; the rows the variants return are the next
//! delta. The known relation grows in place, in arrival order, and is
//! sorted once when the fixpoint ends. The three locals are
//! reference-counted: a variant reads each by one refcount, and between
//! rounds `known` and `R#OLD` have one owner, so each grows in place by
//! one refcount per row of the delta — `R#OLD` only when a branch is
//! nonlinear, since no other variant reads it.

use std::cmp::Ordering;
use std::sync::Arc;

use eds_lera::{Expr, LeraError, SchemaCtx};

use crate::error::{EngineError, EngineResult};
use crate::eval::{eval_expr, eval_set, Ctx};
use crate::hash::FoldSet;
use crate::relation::{Relation, SharedRow};

/// Evaluate `fix(name, body)`.
pub(crate) fn eval_fix(name: &str, body: &Expr, ctx: &mut Ctx<'_>) -> EngineResult<Relation> {
    let key = name.to_ascii_uppercase();
    let delta_key = format!("{key}#DELTA");
    let old_key = format!("{key}#OLD");

    // Split the body into branches (a union, or a single expression).
    let branches: Vec<&Expr> = match body {
        Expr::Union(items) => items.iter().collect(),
        other => vec![other],
    };
    let seed_branches: Vec<&Expr> = branches
        .iter()
        .copied()
        .filter(|b| !b.references(name))
        .collect();
    let rec_branches: Vec<&Expr> = branches
        .iter()
        .copied()
        .filter(|b| b.references(name))
        .collect();
    let mut seeds = seed_branches.into_iter();
    let Some(first_seed) = seeds.next() else {
        // Least fixpoint from the empty relation: no seed means empty,
        // typed as the relation the name already denotes — a bound
        // local, or a catalog table or view.
        if let Some(rel) = ctx.local(name) {
            return Ok(Relation::empty(Arc::clone(&rel.schema)));
        }
        let schema = SchemaCtx::new(&ctx.db.catalog)
            .relation_schema(name)
            .map_err(|_| {
                LeraError::Type(format!(
                    "cannot infer schema of fix({name}, ...): every branch is recursive"
                ))
            })?;
        return Ok(Relation::empty(schema));
    };

    // Seed: the non-recursive branches, evaluated as a bag (a branch
    // over a stored table gathers from its mirror, which inserts into
    // no set) and inserted into `known_set`, the set the fixpoint
    // computes.
    let mut known_set: FoldSet<SharedRow> = FoldSet::default();
    let mut known = eval_expr(first_seed, ctx)?;
    for b in seeds {
        known.rows.extend(eval_expr(b, ctx)?.rows);
    }
    known.rows.retain(|r| known_set.insert(r.clone()));
    // The first delta is the seed itself, shared with `known`.
    let schema = Arc::clone(&known.schema);
    let known = Arc::new(known);
    let delta = Arc::clone(&known);

    // Pre-compute, per recursive branch, one variant per occurrence of
    // the recursion variable (see the module documentation).
    let mut nonlinear = false;
    let variants: Vec<Expr> = rec_branches
        .iter()
        .flat_map(|b| {
            let occurrences = count_occurrences(b, name);
            nonlinear |= occurrences > 1;
            (0..occurrences).map(|i| delta_variant(b, name, i, &old_key, &delta_key))
        })
        .collect();

    let saved_known = ctx.locals.insert(key.clone(), known);
    let saved_delta = ctx.locals.insert(delta_key.clone(), delta);
    // Nothing was known before the seed. Only a nonlinear branch reads
    // `R#OLD`, so a linear fixpoint binds no such local.
    let saved_old = nonlinear.then(|| {
        let old = Arc::new(Relation::empty(Arc::clone(&schema)));
        ctx.locals.insert(old_key.clone(), old)
    });

    let result = (|| {
        for _round in 0..ctx.opts.max_iterations {
            ctx.stats.fix_iterations += 1;
            let mut fresh: Vec<SharedRow> = Vec::new();
            for variant in &variants {
                fresh.extend(eval_set(variant, &mut known_set, ctx)?.rows);
            }
            let unbound = || EngineError::UnknownRelation(key.clone());
            // The old delta goes first: it may be the seed, which `known`
            // shares, and `known` is then its one owner again — it grows
            // (or leaves) in place, never copied.
            let stale = ctx.locals.remove(&delta_key).ok_or_else(unbound)?;
            if fresh.is_empty() {
                drop(stale);
                // Sorted once, at exit: the canonical order.
                let known = ctx.locals.remove(&key).ok_or_else(unbound)?;
                let mut known = Arc::unwrap_or_clone(known);
                known.rows.sort_unstable();
                return Ok(known);
            }
            // `R#OLD`, which only a nonlinear branch reads, grows by
            // the old delta.
            if nonlinear {
                let old = ctx.locals.get_mut(&old_key).ok_or_else(unbound)?;
                Arc::make_mut(old).rows.extend(stale.rows.iter().cloned());
            }
            drop(stale);
            let delta = Arc::new(Relation::from_shared(Arc::clone(&schema), fresh));
            let known = ctx.locals.get_mut(&key).ok_or_else(unbound)?;
            Arc::make_mut(known).rows.extend(delta.rows.iter().cloned());
            ctx.locals.insert(delta_key.clone(), delta);
        }
        Err(EngineError::FixpointDiverged {
            name: name.to_owned(),
            limit: ctx.opts.max_iterations,
        })
    })();

    restore_local(ctx, &key, saved_known);
    restore_local(ctx, &delta_key, saved_delta);
    if let Some(saved) = saved_old {
        restore_local(ctx, &old_key, saved);
    }
    result
}

fn restore_local(ctx: &mut Ctx<'_>, key: &str, saved: Option<Arc<Relation>>) {
    match saved {
        Some(rel) => {
            ctx.locals.insert(key.to_owned(), rel);
        }
        None => {
            ctx.locals.remove(key);
        }
    }
}

/// Number of `Base(name)` occurrences in an expression (not descending
/// into shadowing inner `fix` operators with the same variable).
pub(crate) fn count_occurrences(e: &Expr, name: &str) -> usize {
    match e {
        Expr::Base(n) => usize::from(n.eq_ignore_ascii_case(name)),
        Expr::Fix { name: inner, .. } if inner.eq_ignore_ascii_case(name) => 0,
        other => other
            .children()
            .iter()
            .map(|c| count_occurrences(c, name))
            .sum(),
    }
}

/// Semi-naive variant `i` of a recursive branch: the occurrences of
/// `Base(name)` (0-based, pre-order) before the `i`-th become
/// `Base(old)`, the `i`-th becomes `Base(delta)`, and those after it
/// stay.
pub(crate) fn delta_variant(e: &Expr, name: &str, i: usize, old: &str, delta: &str) -> Expr {
    struct Variant<'a> {
        name: &'a str,
        i: usize,
        old: &'a str,
        delta: &'a str,
        seen: usize,
    }
    impl Variant<'_> {
        fn walk(&mut self, e: &Expr) -> Expr {
            match e {
                Expr::Base(b) if b.eq_ignore_ascii_case(self.name) => {
                    let k = self.seen;
                    self.seen += 1;
                    match k.cmp(&self.i) {
                        Ordering::Less => Expr::Base(self.old.to_owned()),
                        Ordering::Equal => Expr::Base(self.delta.to_owned()),
                        Ordering::Greater => e.clone(),
                    }
                }
                Expr::Fix { name: inner, .. } if inner.eq_ignore_ascii_case(self.name) => e.clone(),
                Expr::Base(_) => e.clone(),
                Expr::Filter { input, pred } => Expr::Filter {
                    input: Box::new(self.walk(input)),
                    pred: pred.clone(),
                },
                Expr::Project { input, exprs } => Expr::Project {
                    input: Box::new(self.walk(input)),
                    exprs: exprs.clone(),
                },
                Expr::Join { left, right, pred } => Expr::Join {
                    left: Box::new(self.walk(left)),
                    right: Box::new(self.walk(right)),
                    pred: pred.clone(),
                },
                Expr::Union(items) => Expr::Union(items.iter().map(|i| self.walk(i)).collect()),
                Expr::Difference(a, b) => {
                    Expr::Difference(Box::new(self.walk(a)), Box::new(self.walk(b)))
                }
                Expr::Intersect(a, b) => {
                    Expr::Intersect(Box::new(self.walk(a)), Box::new(self.walk(b)))
                }
                Expr::Search { inputs, pred, proj } => Expr::Search {
                    inputs: inputs.iter().map(|i| self.walk(i)).collect(),
                    pred: pred.clone(),
                    proj: proj.clone(),
                },
                Expr::Fix { name: inner, body } => Expr::Fix {
                    name: inner.clone(),
                    body: Box::new(self.walk(body)),
                },
                Expr::Nest {
                    input,
                    group,
                    nested,
                    kind,
                } => Expr::Nest {
                    input: Box::new(self.walk(input)),
                    group: group.clone(),
                    nested: nested.clone(),
                    kind: *kind,
                },
                Expr::Unnest { input, attr } => Expr::Unnest {
                    input: Box::new(self.walk(input)),
                    attr: *attr,
                },
                Expr::Dedup(input) => Expr::Dedup(Box::new(self.walk(input))),
            }
        }
    }
    let mut variant = Variant {
        name,
        i,
        old,
        delta,
        seen: 0,
    };
    variant.walk(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eds_lera::Scalar;

    #[test]
    fn occurrence_counting_and_replacement() {
        let e = Expr::search(
            vec![Expr::base("R"), Expr::base("S"), Expr::base("R")],
            Scalar::true_(),
            vec![Scalar::attr(1, 1)],
        );
        assert_eq!(count_occurrences(&e, "R"), 2);
        assert_eq!(count_occurrences(&e, "S"), 1);
        let first = delta_variant(&e, "R", 0, "OLD", "DELTA");
        assert_eq!(first.base_relations(), vec!["DELTA", "S", "R"]);
        let second = delta_variant(&e, "R", 1, "OLD", "DELTA");
        assert_eq!(second.base_relations(), vec!["OLD", "S", "DELTA"]);
    }

    #[test]
    fn shadowed_fix_not_descended() {
        let inner_fix = Expr::Fix {
            name: "R".into(),
            body: Box::new(Expr::base("R")),
        };
        assert_eq!(count_occurrences(&inner_fix, "R"), 0);
    }
}
