//! The reference executor: the original per-tuple tree-walking
//! interpreter, kept as the oracle every differential suite compares
//! the production executor ([`crate::eval::eval_with`]) against.
//!
//! [`eval_reference`] has one strategy per operator and no modes:
//! interpreted `eval_scalar` per row, quadratic set operations, every
//! `search` the cross product of its inputs with the qualification
//! checked on each combination, every `fix` the semi-naive iteration on
//! sorted vectors. It ignores the executor's columnar
//! setting on purpose, and shares no code with `fixpoint.rs`: an
//! oracle that splits equi-conjuncts or keys a table the way the
//! executor does, or builds its delta variants with the executor's
//! helpers, is wrong where the executor is wrong.
//! (The naive iteration would be dumber still, but it materialises the
//! body's whole bag every round — 17 296 rows for the 1 128 pairs of a
//! 48-node chain's closure — and that alone moved the end-to-end
//! benchmark's peak memory past its bound.) Its row order — inputs
//! enumerated left to right, last input fastest — is the order the
//! executor promises under every configuration, so suites compare rows
//! *and* order, and ask for the answer once per plan. It keeps its own
//! context (its locals, owned, and its iteration cap); of the executor
//! it uses only `bind_fields`, which resolves named field accesses
//! against the catalog.
//!
//! Keep this module dumb: any "optimization" added here erodes its value
//! as an independent oracle (CI greps it for the executor's strategy
//! types and helpers).

use std::collections::BTreeMap;

use eds_adt::{AdtError, EvalContext, Value};
use eds_lera::{infer_schema, Expr, LeraError, Scalar, Schema, SchemaCtx};

use crate::database::Database;
use crate::error::{EngineError, EngineResult};
use crate::eval::{bind_fields, EvalOptions};
use crate::relation::{Relation, Row, SharedRow};

/// Evaluate a plan with the reference strategies. Of `opts` only
/// `max_iterations` is read — a resource limit, past which a
/// recursion is [`EngineError::FixpointDiverged`] — so the answer does
/// not depend on how the executor is configured.
pub fn eval_reference(expr: &Expr, db: &Database, opts: EvalOptions) -> EngineResult<Relation> {
    let mut oracle = Oracle {
        db,
        locals: BTreeMap::new(),
        max_iterations: opts.max_iterations,
    };
    ref_expr(expr, &mut oracle)
}

/// The oracle's own evaluation context — none of the executor's: the
/// database, the relations bound to recursion variables right now (by
/// upper-case name), and the fixpoint iteration cap.
struct Oracle<'a> {
    db: &'a Database,
    locals: BTreeMap<String, Relation>,
    max_iterations: usize,
}

impl Oracle<'_> {
    /// Schema context over the catalog plus the locals bound right now.
    fn schema_ctx(&self) -> SchemaCtx<'_> {
        let mut sc = SchemaCtx::new(&self.db.catalog);
        for (name, rel) in &self.locals {
            sc = sc.with_local(name, (*rel.schema).clone());
        }
        sc
    }
}

fn is_true(v: &Value) -> bool {
    matches!(v, Value::Bool(true))
}

fn ref_expr(expr: &Expr, ctx: &mut Oracle<'_>) -> EngineResult<Relation> {
    match expr {
        Expr::Base(name) => {
            let key = name.to_ascii_uppercase();
            if let Some(rel) = ctx.locals.get(&key) {
                return Ok(rel.clone());
            }
            if let Some(rel) = ctx.db.relation(name) {
                return Ok(rel.clone());
            }
            Err(EngineError::UnknownRelation(name.to_owned()))
        }
        Expr::Filter { input, pred } => {
            let rel = ref_expr(input, ctx)?;
            let pred = bind_fields(pred, std::slice::from_ref(&*rel.schema), &ctx.db.catalog)?;
            let mut out = Relation::empty(rel.schema.clone());
            for row in &rel.rows {
                if is_true(&eval_scalar(&pred, &[row], ctx.db)?) {
                    out.push_shared(row.clone());
                }
            }
            Ok(out)
        }
        Expr::Project { input, exprs } => {
            let rel = ref_expr(input, ctx)?;
            let schema = infer_schema(expr, &ctx.schema_ctx())?;
            let exprs = exprs
                .iter()
                .map(|e| bind_fields(e, std::slice::from_ref(&*rel.schema), &ctx.db.catalog))
                .collect::<EngineResult<Vec<_>>>()?;
            let mut out = Relation::empty(schema);
            for row in &rel.rows {
                let new_row = exprs
                    .iter()
                    .map(|e| eval_scalar(e, &[row], ctx.db))
                    .collect::<EngineResult<Row>>()?;
                out.push(new_row);
            }
            Ok(out)
        }
        Expr::Join { left, right, pred } => {
            let l_arity = infer_schema(left, &ctx.schema_ctx())?.arity();
            let r_arity = infer_schema(right, &ctx.schema_ctx())?.arity();
            let mut proj = Vec::new();
            for a in 1..=l_arity {
                proj.push(Scalar::attr(1, a));
            }
            for a in 1..=r_arity {
                proj.push(Scalar::attr(2, a));
            }
            let as_search = Expr::Search {
                inputs: vec![(**left).clone(), (**right).clone()],
                pred: pred.clone(),
                proj,
            };
            ref_expr(&as_search, ctx)
        }
        Expr::Union(items) => {
            let mut out: Option<Relation> = None;
            for item in items {
                let rel = ref_expr(item, ctx)?;
                match &mut out {
                    None => out = Some(rel),
                    Some(acc) => {
                        if acc.schema.arity() != rel.schema.arity() {
                            return Err(EngineError::Lera(LeraError::Type(
                                "union arity mismatch".into(),
                            )));
                        }
                        acc.rows.extend(rel.rows);
                    }
                }
            }
            out.ok_or_else(|| EngineError::Lera(LeraError::Type("empty union".into())))
        }
        Expr::Difference(a, b) => {
            let ra = ref_expr(a, ctx)?.deduped();
            let rb = ref_expr(b, ctx)?;
            if ra.schema.arity() != rb.schema.arity() {
                return Err(EngineError::Lera(LeraError::Type(
                    "difference arity mismatch".into(),
                )));
            }
            let forbidden: Vec<&SharedRow> = rb.rows.iter().collect();
            let rows: Vec<SharedRow> = ra
                .rows
                .into_iter()
                .filter(|r| !forbidden.contains(&r))
                .collect();
            Ok(Relation::from_shared(ra.schema, rows))
        }
        Expr::Intersect(a, b) => {
            let ra = ref_expr(a, ctx)?.deduped();
            let rb = ref_expr(b, ctx)?;
            if ra.schema.arity() != rb.schema.arity() {
                return Err(EngineError::Lera(LeraError::Type(
                    "intersect arity mismatch".into(),
                )));
            }
            let allowed: Vec<&SharedRow> = rb.rows.iter().collect();
            let rows: Vec<SharedRow> = ra
                .rows
                .into_iter()
                .filter(|r| allowed.contains(&r))
                .collect();
            Ok(Relation::from_shared(ra.schema, rows))
        }
        Expr::Search { inputs, pred, proj } => {
            let rels = inputs
                .iter()
                .map(|i| ref_expr(i, ctx))
                .collect::<EngineResult<Vec<_>>>()?;
            let schemas: Vec<Schema> = rels.iter().map(|r| (*r.schema).clone()).collect();
            let pred = bind_fields(pred, &schemas, &ctx.db.catalog)?;
            let proj = proj
                .iter()
                .map(|e| bind_fields(e, &schemas, &ctx.db.catalog))
                .collect::<EngineResult<Vec<_>>>()?;
            let out_schema = infer_schema(expr, &ctx.schema_ctx())?;
            let mut out = Relation::empty(out_schema);

            if pred.is_false() || rels.iter().any(Relation::is_empty) {
                return Ok(out);
            }
            let mut idx = vec![0usize; rels.len()];
            'outer: loop {
                let tuple_refs: Vec<&[Value]> =
                    rels.iter().zip(&idx).map(|(r, &i)| &*r.rows[i]).collect();
                if is_true(&eval_scalar(&pred, &tuple_refs, ctx.db)?) {
                    let row = proj
                        .iter()
                        .map(|e| eval_scalar(e, &tuple_refs, ctx.db))
                        .collect::<EngineResult<Row>>()?;
                    out.push(row);
                }
                for k in (0..idx.len()).rev() {
                    idx[k] += 1;
                    if idx[k] < rels[k].len() {
                        continue 'outer;
                    }
                    idx[k] = 0;
                    if k == 0 {
                        break 'outer;
                    }
                }
            }
            Ok(out)
        }
        Expr::Fix { name, body } => {
            let schema = infer_schema(expr, &ctx.schema_ctx())?;
            ref_fix(name, body, schema, ctx)
        }
        Expr::Nest {
            input,
            group,
            nested,
            kind,
        } => {
            let rel = ref_expr(input, ctx)?;
            let out_schema = infer_schema(expr, &ctx.schema_ctx())?;
            let mut groups: BTreeMap<Row, Vec<Value>> = BTreeMap::new();
            for row in &rel.rows {
                let key: Row = group.iter().map(|&g| row[g - 1].clone()).collect();
                let item = if nested.len() == 1 {
                    row[nested[0] - 1].clone()
                } else {
                    Value::Tuple(nested.iter().map(|&n| row[n - 1].clone()).collect())
                };
                groups.entry(key).or_default().push(item);
            }
            let mut out = Relation::empty(out_schema);
            for (key, items) in groups {
                let mut row = key;
                row.push(Value::coll(*kind, items));
                out.push(row);
            }
            Ok(out)
        }
        Expr::Unnest { input, attr } => {
            let rel = ref_expr(input, ctx)?;
            let out_schema = infer_schema(expr, &ctx.schema_ctx())?;
            let mut out = Relation::empty(out_schema);
            for row in &rel.rows {
                let (_, elems) = row[attr - 1].as_coll().map_err(EngineError::Adt)?;
                for elem in elems {
                    let mut new_row = row.to_vec();
                    new_row[attr - 1] = elem.clone();
                    out.push(new_row);
                }
            }
            Ok(out)
        }
        Expr::Dedup(input) => Ok(ref_expr(input, ctx)?.deduped()),
    }
}

fn sorted_dedup(mut rows: Vec<SharedRow>) -> Vec<SharedRow> {
    rows.sort();
    rows.dedup();
    rows
}

/// The semi-naive fixpoint on sorted vectors: the branches of the body
/// that do not mention `name` seed `known`; each round evaluates every
/// recursive branch once per occurrence of `name` in it, that
/// occurrence reading only what the previous round added, until a round
/// adds nothing.
fn ref_fix(
    name: &str,
    body: &Expr,
    schema: Schema,
    ctx: &mut Oracle<'_>,
) -> EngineResult<Relation> {
    let key = name.to_ascii_uppercase();
    let delta_key = format!("{key}#DELTA");
    let branches: Vec<&Expr> = match body {
        Expr::Union(items) => items.iter().collect(),
        other => vec![other],
    };
    let (recursive, seeds): (Vec<&Expr>, Vec<&Expr>) =
        branches.into_iter().partition(|b| b.references(name));
    let Some((first, rest)) = seeds.split_first() else {
        return Ok(Relation::empty(schema));
    };
    let mut known = ref_expr(first, ctx)?;
    for seed in rest {
        known.rows.extend(ref_expr(seed, ctx)?.rows);
    }
    known.rows = sorted_dedup(std::mem::take(&mut known.rows));
    let mut delta = known.clone();
    let variants: Vec<Expr> = recursive
        .iter()
        .flat_map(|b| delta_variants(b, name, &delta_key))
        .collect();

    let saved = [ctx.locals.remove(&key), ctx.locals.remove(&delta_key)];
    let result = (|| {
        for _round in 0..ctx.max_iterations {
            ctx.locals.insert(key.clone(), known.clone());
            ctx.locals.insert(delta_key.clone(), delta.clone());
            let mut fresh = Vec::new();
            for variant in &variants {
                fresh.extend(ref_expr(variant, ctx)?.rows);
            }
            let mut fresh = sorted_dedup(fresh);
            fresh.retain(|r| known.rows.binary_search(r).is_err());
            if fresh.is_empty() {
                return Ok(known);
            }
            let merged = sorted_dedup(known.rows.iter().chain(&fresh).cloned().collect());
            known = Relation::from_shared(known.schema.clone(), merged);
            delta = Relation::from_shared(known.schema.clone(), fresh);
        }
        Err(EngineError::FixpointDiverged {
            name: name.to_owned(),
            limit: ctx.max_iterations,
        })
    })();

    for (local, rel) in [key, delta_key].into_iter().zip(saved) {
        match rel {
            Some(rel) => ctx.locals.insert(local, rel),
            None => ctx.locals.remove(&local),
        };
    }
    result
}

/// `branch` once per occurrence of `Base(name)` in it, with that
/// occurrence reading `delta` instead.
fn delta_variants(branch: &Expr, name: &str, delta: &str) -> Vec<Expr> {
    let mut out = Vec::new();
    loop {
        let (mut variant, mut skip) = (branch.clone(), out.len());
        if !rename_base(&mut variant, name, &mut skip, delta) {
            return out;
        }
        out.push(variant);
    }
}

/// Rename the `skip`-th `Base(name)` under `e` (pre-order, not entering
/// a `fix` that rebinds `name`); `false` when there are no more.
fn rename_base(e: &mut Expr, name: &str, skip: &mut usize, to: &str) -> bool {
    let children: Vec<&mut Expr> = match e {
        Expr::Base(b) => {
            let hit = b.eq_ignore_ascii_case(name) && *skip == 0;
            if hit {
                *b = to.to_owned();
            } else if b.eq_ignore_ascii_case(name) {
                *skip -= 1;
            }
            return hit;
        }
        Expr::Fix { name: inner, .. } if inner.eq_ignore_ascii_case(name) => return false,
        Expr::Filter { input, .. }
        | Expr::Project { input, .. }
        | Expr::Nest { input, .. }
        | Expr::Unnest { input, .. }
        | Expr::Dedup(input)
        | Expr::Fix { body: input, .. } => vec![input],
        Expr::Join { left, right, .. } => vec![left, right],
        Expr::Difference(a, b) | Expr::Intersect(a, b) => vec![a, b],
        Expr::Union(items) | Expr::Search { inputs: items, .. } => items.iter_mut().collect(),
    };
    children
        .into_iter()
        .any(|child| rename_base(child, name, skip, to))
}

/// Evaluate a bound scalar against one tuple per input relation — the
/// interpreted (per-row tree-walking) evaluator. Operators and `INSERT
/// ... VALUES` run compiled programs ([`crate::compile`]); this one
/// shares no code with them, which is what makes the oracle independent.
fn eval_scalar(s: &Scalar, tuples: &[&[Value]], db: &Database) -> EngineResult<Value> {
    match s {
        Scalar::Attr { rel, attr } => {
            let row = tuples.get(rel - 1).ok_or_else(|| {
                EngineError::Lera(LeraError::BadAttrRef {
                    rel: *rel,
                    attr: *attr,
                    context: format!("{} input tuples", tuples.len()),
                })
            })?;
            row.get(attr - 1).cloned().ok_or_else(|| {
                EngineError::Lera(LeraError::BadAttrRef {
                    rel: *rel,
                    attr: *attr,
                    context: format!("tuple of arity {}", row.len()),
                })
            })
        }
        Scalar::Const(v) => Ok(v.clone()),
        // The oracle evaluates no bind array.
        Scalar::Param(i) => Err(EngineError::UnboundParam(*i)),
        Scalar::Field { name, .. } => Err(EngineError::Lera(LeraError::UnknownAttribute {
            name: name.clone(),
            receiver: "unbound field access at runtime".into(),
        })),
        Scalar::Call { func, args } => {
            let vals = args
                .iter()
                .map(|a| eval_scalar(a, tuples, db))
                .collect::<EngineResult<Vec<Value>>>()?;
            match (func.as_str(), &vals[..]) {
                ("GETFIELD", [receiver, idx]) => {
                    let idx = idx.as_int().map_err(EngineError::Adt)? as usize;
                    getfield(receiver, idx, db)
                }
                ("VALUE", [v]) => deref_value(v, db),
                ("GETFIELD" | "VALUE", _) => Err(EngineError::Adt(AdtError::Arity {
                    function: func.clone(),
                    expected: if func == "GETFIELD" { 2 } else { 1 },
                    found: vals.len(),
                })),
                _ => {
                    let ec = EvalContext {
                        objects: &db.objects,
                        types: &db.catalog.types,
                    };
                    db.functions
                        .call(func, &vals, &ec)
                        .map_err(EngineError::Adt)
                }
            }
        }
        Scalar::Cmp { op, left, right } => {
            let l = eval_scalar(left, tuples, db)?;
            let r = eval_scalar(right, tuples, db)?;
            Ok(op.eval(&l, &r))
        }
        Scalar::And(a, b) => {
            let va = eval_scalar(a, tuples, db)?;
            // Short-circuit FALSE without evaluating the right side.
            if matches!(va, Value::Bool(false)) {
                return Ok(Value::Bool(false));
            }
            let vb = eval_scalar(b, tuples, db)?;
            Ok(match (va, vb) {
                (_, Value::Bool(false)) => Value::Bool(false),
                (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
                _ => Value::Null,
            })
        }
        Scalar::Or(a, b) => {
            let va = eval_scalar(a, tuples, db)?;
            if matches!(va, Value::Bool(true)) {
                return Ok(Value::Bool(true));
            }
            let vb = eval_scalar(b, tuples, db)?;
            Ok(match (va, vb) {
                (_, Value::Bool(true)) => Value::Bool(true),
                (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
                _ => Value::Null,
            })
        }
        Scalar::Not(a) => Ok(match eval_scalar(a, tuples, db)? {
            Value::Bool(b) => Value::Bool(!b),
            Value::Null => Value::Null,
            other => {
                return Err(EngineError::NonBooleanPredicate(other.to_string()));
            }
        }),
    }
}

/// Field access with automatic mapping: tuples index directly, object
/// references dereference first, collections map the access over their
/// elements ("the system will automatically apply the appropriate type
/// conversion", Section 2.1).
fn getfield(v: &Value, idx1: usize, db: &Database) -> EngineResult<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Tuple(items) => idx1
            .checked_sub(1)
            .and_then(|i| items.get(i))
            .cloned()
            .ok_or({
                EngineError::Adt(AdtError::IndexOutOfBounds {
                    index: idx1 as i64,
                    len: items.len(),
                })
            }),
        Value::Object(oid) => {
            let inner = db.objects.value(*oid).map_err(EngineError::Adt)?.clone();
            getfield(&inner, idx1, db)
        }
        Value::Coll(kind, items) => {
            let mapped = items
                .iter()
                .map(|e| getfield(e, idx1, db))
                .collect::<EngineResult<Vec<_>>>()?;
            Ok(Value::coll(*kind, mapped))
        }
        other => Err(EngineError::Adt(AdtError::TypeMismatch {
            function: "GETFIELD".into(),
            expected: "TUPLE, OBJECT or collection".into(),
            found: other.kind_name().into(),
        })),
    }
}

/// `VALUE` with collection mapping.
fn deref_value(v: &Value, db: &Database) -> EngineResult<Value> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Object(oid) => db.objects.value(*oid).cloned().map_err(EngineError::Adt),
        Value::Coll(kind, items) => {
            let mapped = items
                .iter()
                .map(|e| deref_value(e, db))
                .collect::<EngineResult<Vec<_>>>()?;
            Ok(Value::coll(*kind, mapped))
        }
        other => Ok(other.clone()),
    }
}
