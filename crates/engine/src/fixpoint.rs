//! Fixpoint evaluation: `fix(R, E(R))` computes the relation `R = E(R)`
//! (Section 3.2).
//!
//! Evaluation is semi-naive: each recursive branch is re-evaluated once
//! per occurrence of the recursion variable, with that occurrence bound
//! to the delta of the previous round — the standard optimization the
//! Alexander/magic-sets transformation composes with. (The naive
//! iteration, which re-evaluates the whole body each round, is the
//! definition of `fix`; F9's `eds_bench::naive_fix` writes it out.)
//! The delta is built as a set: each variant is evaluated against the
//! rows already known, so a derivation the fixpoint already has — or
//! one the variant already produced — is dropped before it becomes a row.
//! What survives is inserted into that same set as it arrives; a failed
//! insert is a repeat across variants, and the rows that get
//! in are the next delta. The known relation grows in place, in arrival
//! order, and is sorted once when the fixpoint ends. Both locals are
//! reference-counted: a variant reads `known` or the delta by one
//! refcount, and between rounds `known` has one owner, so growing it
//! copies nothing.

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

    // Seed: the non-recursive branches. `known_set` is the set the
    // fixpoint computes: a row joins `known` (and the next delta) when
    // its insert succeeds, so a repeat — within the seed or across
    // variants — is dropped there.
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
    // the recursion variable with that occurrence renamed to the delta.
    let variants: Vec<Expr> = rec_branches
        .iter()
        .flat_map(|b| {
            let occurrences = count_occurrences(b, name);
            (0..occurrences).map(|i| replace_nth_base(b, name, i, &delta_key))
        })
        .collect();

    let saved_known = ctx.locals.insert(key.clone(), known);
    let saved_delta = ctx.locals.insert(delta_key.clone(), delta);

    let result = (|| {
        for _round in 0..ctx.opts.max_iterations {
            ctx.stats.fix_iterations += 1;
            let mut fresh: Vec<SharedRow> = Vec::new();
            for variant in &variants {
                let rows = eval_set(variant, &known_set, ctx)?.rows;
                fresh.extend(rows.into_iter().filter(|r| known_set.insert(r.clone())));
            }
            let unbound = || EngineError::UnknownRelation(key.clone());
            // The old delta goes first: it may be the seed, which `known`
            // shares, and `known` is then its one owner again — it grows
            // (or leaves) in place, never copied.
            ctx.locals.remove(&delta_key);
            if fresh.is_empty() {
                // Sorted once, at exit: the canonical order.
                let known = ctx.locals.remove(&key).ok_or_else(unbound)?;
                let mut known = Arc::unwrap_or_clone(known);
                known.rows.sort_unstable();
                return Ok(known);
            }
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

/// Replace the `n`-th occurrence (0-based, pre-order) of `Base(name)`
/// with `Base(replacement)`.
pub(crate) fn replace_nth_base(e: &Expr, name: &str, n: usize, replacement: &str) -> Expr {
    fn walk(e: &Expr, name: &str, counter: &mut usize, n: usize, replacement: &str) -> Expr {
        match e {
            Expr::Base(b) if b.eq_ignore_ascii_case(name) => {
                let hit = *counter == n;
                *counter += 1;
                if hit {
                    Expr::Base(replacement.to_owned())
                } else {
                    e.clone()
                }
            }
            Expr::Fix { name: inner, .. } if inner.eq_ignore_ascii_case(name) => e.clone(),
            Expr::Base(_) => e.clone(),
            Expr::Filter { input, pred } => Expr::Filter {
                input: Box::new(walk(input, name, counter, n, replacement)),
                pred: pred.clone(),
            },
            Expr::Project { input, exprs } => Expr::Project {
                input: Box::new(walk(input, name, counter, n, replacement)),
                exprs: exprs.clone(),
            },
            Expr::Join { left, right, pred } => Expr::Join {
                left: Box::new(walk(left, name, counter, n, replacement)),
                right: Box::new(walk(right, name, counter, n, replacement)),
                pred: pred.clone(),
            },
            Expr::Union(items) => Expr::Union(
                items
                    .iter()
                    .map(|i| walk(i, name, counter, n, replacement))
                    .collect(),
            ),
            Expr::Difference(a, b) => Expr::Difference(
                Box::new(walk(a, name, counter, n, replacement)),
                Box::new(walk(b, name, counter, n, replacement)),
            ),
            Expr::Intersect(a, b) => Expr::Intersect(
                Box::new(walk(a, name, counter, n, replacement)),
                Box::new(walk(b, name, counter, n, replacement)),
            ),
            Expr::Search { inputs, pred, proj } => Expr::Search {
                inputs: inputs
                    .iter()
                    .map(|i| walk(i, name, counter, n, replacement))
                    .collect(),
                pred: pred.clone(),
                proj: proj.clone(),
            },
            Expr::Fix { name: inner, body } => Expr::Fix {
                name: inner.clone(),
                body: Box::new(walk(body, name, counter, n, replacement)),
            },
            Expr::Nest {
                input,
                group,
                nested,
                kind,
            } => Expr::Nest {
                input: Box::new(walk(input, name, counter, n, replacement)),
                group: group.clone(),
                nested: nested.clone(),
                kind: *kind,
            },
            Expr::Unnest { input, attr } => Expr::Unnest {
                input: Box::new(walk(input, name, counter, n, replacement)),
                attr: *attr,
            },
            Expr::Dedup(input) => Expr::Dedup(Box::new(walk(input, name, counter, n, replacement))),
        }
    }
    let mut counter = 0;
    walk(e, name, &mut counter, n, replacement)
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
        let replaced = replace_nth_base(&e, "R", 1, "DELTA");
        assert_eq!(replaced.base_relations(), vec!["R", "S", "DELTA"]);
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
