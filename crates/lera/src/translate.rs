//! ESQL → LERA translation.
//!
//! This is the "straightforward translation of an ESQL query into a LERA
//! functional expression" performed after parsing (Section 5), together
//! with the *type-checking function rules* activity: attribute names
//! applied as functions become the generic `PROJECT`, object receivers
//! get `VALUE` dereferences inserted, and every column reference is
//! resolved to a positional `i.j`.
//!
//! Views are inlined naively — a view reference becomes the view's own
//! LERA expression as a sub-relation — which deliberately leaves the
//! merging rules (Figure 7) something to normalize. Recursive views
//! translate to `fix` (Section 3.2).
//!
//! Schemas are derived bottom-up, once: a query block's output schema is
//! typed ([`search_schema`], [`nest_schema`]) against the schemas its
//! inputs' translation already returned, never re-inferred from the
//! expression just built, so a stack of `n` views costs `n` block
//! translations rather than `n (n + 1) / 2`. Output columns carry the
//! SQL names in scope: a view's declared column list and `AS` aliases.

use eds_adt::CollKind;
use eds_esql::ast::{BinOp, Expr as Ast, Query, SelectCore, SelectItem, TableRef, ViewDecl};

use crate::error::{LeraError, LeraResult};
use crate::expr::Expr;
use crate::scalar::{CmpOp, Scalar};
use crate::schema::{infer_scalar_type, nest_schema, search_schema, Schema, SchemaCtx};

/// The relations visible in a query block's scope, in `FROM` order: the
/// name each is referenced by (alias or relation name) and its schema.
struct Scope<'s> {
    bindings: Vec<&'s str>,
    schemas: &'s [Schema],
}

impl Scope<'_> {
    /// Resolve `[qualifier.]name` to a 1-based `(rel, attr)` pair.
    fn resolve_column(&self, qualifier: Option<&str>, name: &str) -> LeraResult<(usize, usize)> {
        let mut hit = None;
        for (rel_idx, (binding, schema)) in self.bindings.iter().zip(self.schemas).enumerate() {
            if qualifier.is_some_and(|q| !binding.eq_ignore_ascii_case(q)) {
                continue;
            }
            let found = schema
                .fields
                .iter()
                .position(|f| f.name.eq_ignore_ascii_case(name));
            if let Some(attr_idx) = found {
                if hit.is_some() {
                    return Err(LeraError::Esql(eds_esql::EsqlError::AmbiguousColumn(
                        name.to_owned(),
                    )));
                }
                hit = Some((rel_idx + 1, attr_idx + 1));
            }
        }
        hit.ok_or_else(|| {
            LeraError::Esql(eds_esql::EsqlError::UnknownColumn {
                qualifier: qualifier.map(str::to_owned),
                name: name.to_owned(),
            })
        })
    }
}

/// Translate a query to a LERA expression and its schema.
pub fn translate_query(q: &Query, ctx: &SchemaCtx<'_>) -> LeraResult<(Expr, Schema)> {
    match q {
        Query::Select(core) => translate_select(core, ctx),
        Query::Union(a, b) => {
            let (ea, sa) = translate_query(a, ctx)?;
            let (eb, sb) = translate_query(b, ctx)?;
            if sa.arity() != sb.arity() {
                return Err(LeraError::Type(format!(
                    "union arity mismatch: {} vs {}",
                    sa.arity(),
                    sb.arity()
                )));
            }
            // Flatten nested unions into the n-ary union*.
            let mut items = Vec::new();
            for e in [ea, eb] {
                match e {
                    Expr::Union(inner) => items.extend(inner),
                    other => items.push(other),
                }
            }
            Ok((Expr::Union(items), sa))
        }
    }
}

/// Translate a view declaration. Recursive views produce `fix`; declared
/// column names override inferred names in the resulting schema.
pub fn translate_view(decl: &ViewDecl, ctx: &SchemaCtx<'_>) -> LeraResult<(Expr, Schema)> {
    let (expr, schema) = if decl.is_recursive() {
        translate_recursive_view(decl, ctx)?
    } else {
        translate_query(&decl.query, ctx)?
    };
    let schema = apply_view_columns(schema, &decl.columns)?;
    Ok((expr, schema))
}

fn apply_view_columns(mut schema: Schema, columns: &[String]) -> LeraResult<Schema> {
    if columns.is_empty() {
        return Ok(schema);
    }
    if columns.len() != schema.arity() {
        return Err(LeraError::Type(format!(
            "view declares {} columns but its query produces {}",
            columns.len(),
            schema.arity()
        )));
    }
    for (f, name) in schema.fields.iter_mut().zip(columns) {
        f.name = name.clone();
    }
    Ok(schema)
}

fn translate_recursive_view(decl: &ViewDecl, ctx: &SchemaCtx<'_>) -> LeraResult<(Expr, Schema)> {
    // Collect the union branches of the defining query.
    fn branches<'q>(q: &'q Query, out: &mut Vec<&'q SelectCore>) {
        match q {
            Query::Select(c) => out.push(c),
            Query::Union(a, b) => {
                branches(a, out);
                branches(b, out);
            }
        }
    }
    let mut all = Vec::new();
    branches(&decl.query, &mut all);

    let is_recursive_branch = |c: &SelectCore| {
        c.from
            .iter()
            .any(|t| t.name.eq_ignore_ascii_case(&decl.name))
    };

    // 1. The schema comes from the first seed (non-recursive) branch. It
    //    names no recursion variable, so its translation is final.
    let seed_at = all
        .iter()
        .position(|c| !is_recursive_branch(c))
        .ok_or_else(|| {
            LeraError::Type(format!(
                "recursive view {} has no non-recursive branch",
                decl.name
            ))
        })?;
    let (seed, seed_schema) = translate_select(all[seed_at], ctx)?;
    let local_schema = apply_view_columns(seed_schema, &decl.columns)?;

    // 2. Translate the other branches with the recursion variable in scope.
    let rec_ctx = ctx.with_local(&decl.name, local_schema.clone());
    let mut items = Vec::with_capacity(all.len());
    for (i, branch) in all.into_iter().enumerate() {
        if i == seed_at {
            continue;
        }
        let (e, s) = translate_select(branch, &rec_ctx)?;
        if s.arity() != local_schema.arity() {
            return Err(LeraError::Type(format!(
                "recursive view {}: branch arity {} differs from seed arity {}",
                decl.name,
                s.arity(),
                local_schema.arity()
            )));
        }
        items.push(e);
    }
    items.insert(seed_at, seed);

    let body = if items.len() == 1 {
        items.remove(0)
    } else {
        Expr::Union(items)
    };
    Ok((
        Expr::Fix {
            name: decl.name.clone(),
            body: Box::new(body),
        },
        local_schema,
    ))
}

/// Resolve one `FROM` item to a LERA input expression and its schema.
fn translate_from_item(name: &str, ctx: &SchemaCtx<'_>) -> LeraResult<(Expr, Schema)> {
    // A recursion variable of an enclosing fix (or the view currently
    // being defined) shadows catalog relations of the same name.
    if let Some(schema) = ctx.local_schema(name) {
        return Ok((Expr::base(name), schema));
    }
    if let Some(table) = ctx.catalog.table(name) {
        return Ok((Expr::base(name), Schema::new(table.columns.clone())));
    }
    if let Some(view) = ctx.catalog.view(name) {
        return translate_view(view, ctx);
    }
    Err(LeraError::UnknownRelation(name.to_owned()))
}

/// The top-level conjuncts of `e`, left to right.
fn split_ands<'e>(e: &'e Ast, out: &mut Vec<&'e Ast>) {
    match e {
        Ast::Binary {
            op: BinOp::And,
            left,
            right,
        } => {
            split_ands(left, out);
            split_ands(right, out);
        }
        other => out.push(other),
    }
}

fn translate_select(core: &SelectCore, ctx: &SchemaCtx<'_>) -> LeraResult<(Expr, Schema)> {
    // FROM clause: inputs and scope.
    let mut inputs = Vec::with_capacity(core.from.len());
    let mut schemas = Vec::with_capacity(core.from.len());
    for t in &core.from {
        let (e, s) = translate_from_item(&t.name, ctx)?;
        inputs.push(e);
        schemas.push(s);
    }
    let scope = Scope {
        bindings: core.from.iter().map(TableRef::binding_name).collect(),
        schemas: &schemas,
    };

    // `e IN (SELECT ...)` at a top-level conjunct position becomes a join
    // against the (deduplicated) subquery — "sub-query elimination": the
    // merging rules then collapse the subquery like any other view.
    let mut where_conjuncts = Vec::new();
    if let Some(w) = &core.where_clause {
        split_ands(w, &mut where_conjuncts);
    }
    let mut extra_eqs: Vec<Scalar> = Vec::new();
    let mut sub_schemas = Vec::new();
    let mut kept_conjuncts = Vec::new();
    for c in where_conjuncts {
        if let Ast::InQuery { expr, query } = c {
            let (sub_expr, sub_schema) = translate_query(query, ctx)?;
            if sub_schema.arity() != 1 {
                return Err(LeraError::Type(format!(
                    "IN subquery must produce exactly one column, got {}",
                    sub_schema.arity()
                )));
            }
            // The tested expression resolves in the FROM scope only; the
            // subquery input is invisible to name resolution (so
            // unqualified columns stay unambiguous).
            let tested = resolve_expr(expr, &scope, ctx)?;
            inputs.push(Expr::Dedup(Box::new(sub_expr)));
            sub_schemas.push(sub_schema);
            extra_eqs.push(Scalar::eq(tested, Scalar::attr(inputs.len(), 1)));
        } else {
            kept_conjuncts.push(c);
        }
    }

    // WHERE clause.
    let mut pred_parts: Vec<Scalar> = kept_conjuncts
        .into_iter()
        .map(|c| resolve_expr(c, &scope, ctx))
        .collect::<LeraResult<Vec<_>>>()?;
    pred_parts.extend(extra_eqs);
    let pred = Scalar::conjoin(pred_parts);

    // Projections.
    let mut proj = Vec::with_capacity(core.projections.len());
    let mut aliases = Vec::with_capacity(core.projections.len());
    for item in &core.projections {
        match item {
            SelectItem::Wildcard => {
                for (rel, schema) in schemas.iter().enumerate() {
                    for attr in 1..=schema.arity() {
                        proj.push(Scalar::attr(rel + 1, attr));
                        aliases.push(None);
                    }
                }
            }
            SelectItem::Expr { expr, alias } => {
                proj.push(resolve_expr(expr, &scope, ctx)?);
                aliases.push(alias.as_deref());
            }
        }
    }
    let group_exprs = core
        .group_by
        .iter()
        .map(|g| resolve_expr(g, &scope, ctx))
        .collect::<LeraResult<Vec<_>>>()?;

    // The output schema is typed against the inputs' schemas as their
    // translation returned them: nothing below this block is inferred
    // again. Both shapes yield one output column per projection item.
    schemas.extend(sub_schemas);
    let (expr, mut schema) = if group_exprs.is_empty() {
        let schema = search_schema(Some(&proj), &schemas, ctx)?;
        (Expr::search(inputs, pred, proj), schema)
    } else {
        translate_group_by(inputs, &schemas, pred, proj, group_exprs, ctx)?
    };
    for (f, alias) in schema.fields.iter_mut().zip(aliases) {
        if let Some(a) = alias {
            a.clone_into(&mut f.name);
        }
    }

    // HAVING applies after grouping.
    let expr = match &core.having {
        Some(h) => {
            let having_scope = Scope {
                bindings: vec![""],
                schemas: std::slice::from_ref(&schema),
            };
            let pred = resolve_expr(h, &having_scope, ctx)?;
            Expr::Filter {
                input: Box::new(expr),
                pred,
            }
        }
        None => expr,
    };

    if core.distinct {
        Ok((Expr::Dedup(Box::new(expr)), schema))
    } else {
        Ok((expr, schema))
    }
}

/// How one `GROUP BY` projection item maps onto the nest output.
enum GroupItem {
    /// A grouping expression (position in the group list, 0-based).
    Group(usize),
    /// The collection itself (`MakeSet(x)`).
    Collection,
    /// A function of the collection (`COUNT(MakeSet(x))`,
    /// `SUM(MakeBag(x))`, ...) — evaluated by a projection above the nest.
    Aggregated(String),
}

/// `GROUP BY` becomes `nest`: the select block's collection-constructor
/// projections (`MakeSet`, `MakeBag`, `MakeList`) supply the collected
/// attribute (Figure 4's `FilmActors` view). Projections may also apply
/// ADT functions to the constructed collection (`COUNT(MakeSet(x))`),
/// which become a `project` above the nest — in the ESQL model,
/// aggregation is just collection-function application.
fn translate_group_by(
    inputs: Vec<Expr>,
    input_schemas: &[Schema],
    pred: Scalar,
    proj: Vec<Scalar>,
    group_exprs: Vec<Scalar>,
    ctx: &SchemaCtx<'_>,
) -> LeraResult<(Expr, Schema)> {
    // Classify projection items; all constructors must collect the same
    // detail expression with the same kind.
    let mut detail: Option<(Scalar, CollKind)> = None;
    let mut groups_used: Vec<Scalar> = Vec::new();
    let mut items: Vec<GroupItem> = Vec::with_capacity(proj.len());

    fn note_detail(
        detail: &mut Option<(Scalar, CollKind)>,
        e: &Scalar,
        kind: CollKind,
    ) -> LeraResult<()> {
        match detail {
            None => {
                *detail = Some((e.clone(), kind));
                Ok(())
            }
            Some((prev, prev_kind)) if prev == e && *prev_kind == kind => Ok(()),
            Some(_) => Err(LeraError::Type(
                "all collection constructors in a GROUP BY block must collect the same expression"
                    .into(),
            )),
        }
    }

    for e in proj {
        let item = if let Some((arg, kind)) = coll_ctor(&e) {
            note_detail(&mut detail, arg, kind)?;
            GroupItem::Collection
        } else if let Some((func, (arg, kind))) = aggregate_of(&e) {
            note_detail(&mut detail, arg, kind)?;
            GroupItem::Aggregated(func.to_owned())
        } else if group_exprs.contains(&e) {
            match groups_used.iter().position(|g| g == &e) {
                Some(p) => GroupItem::Group(p),
                None => {
                    groups_used.push(e);
                    GroupItem::Group(groups_used.len() - 1)
                }
            }
        } else {
            return Err(LeraError::Type(format!(
                "projection '{e}' is neither a GROUP BY expression nor a collection constructor"
            )));
        };
        items.push(item);
    }
    let (nested_expr, kind) = detail.ok_or_else(|| {
        LeraError::Type(
            "GROUP BY without a collection constructor (MakeSet/MakeBag/MakeList)".into(),
        )
    })?;

    // Unprojected GROUP BY expressions still determine the partition.
    for gexpr in group_exprs {
        if !groups_used.contains(&gexpr) {
            groups_used.push(gexpr);
        }
    }

    // Inner search computes group attributes then the detail attribute.
    let g = groups_used.len();
    let mut search_proj = groups_used;
    search_proj.push(nested_expr);
    let group: Vec<usize> = (1..=g).collect();
    let nested = vec![g + 1];
    let searched = search_schema(Some(&search_proj), input_schemas, ctx)?;
    let nest_out = nest_schema(&searched, &group, &nested, kind)?;
    let nest = Expr::Nest {
        input: Box::new(Expr::search(inputs, pred, search_proj)),
        group,
        nested,
        kind,
    };

    // A projection above the nest reorders outputs and applies aggregate
    // functions; omitted when the nest output already matches.
    let matches_nest_layout = items.len() == g + 1
        && items.iter().enumerate().all(|(i, item)| match item {
            GroupItem::Group(p) => *p == i,
            GroupItem::Collection => i == g,
            GroupItem::Aggregated(_) => false,
        });
    if matches_nest_layout {
        return Ok((nest, nest_out));
    }
    let exprs: Vec<Scalar> = items
        .into_iter()
        .map(|item| match item {
            GroupItem::Group(i) => Scalar::attr(1, i + 1),
            GroupItem::Collection => Scalar::attr(1, g + 1),
            GroupItem::Aggregated(f) => Scalar::call(&f, vec![Scalar::attr(1, g + 1)]),
        })
        .collect();
    let schema = search_schema(Some(&exprs), std::slice::from_ref(&nest_out), ctx)?;
    Ok((
        Expr::Project {
            input: Box::new(nest),
            exprs,
        },
        schema,
    ))
}

/// `MakeSet(x)`, `MakeBag(x)` or `MakeList(x)`: the collected expression
/// and the collection kind.
fn coll_ctor(e: &Scalar) -> Option<(&Scalar, CollKind)> {
    let Scalar::Call { func, args } = e else {
        return None;
    };
    let [arg] = args.as_slice() else {
        return None;
    };
    let kind = [
        ("MAKESET", CollKind::Set),
        ("MAKEBAG", CollKind::Bag),
        ("MAKELIST", CollKind::List),
    ]
    .into_iter()
    .find_map(|(ctor, kind)| func.eq_ignore_ascii_case(ctor).then_some(kind))?;
    Some((arg, kind))
}

/// `F(MakeSet(x))`: a function of a collection constructor, its name and
/// what the constructor collects.
fn aggregate_of(e: &Scalar) -> Option<(&str, (&Scalar, CollKind))> {
    let Scalar::Call { func, args } = e else {
        return None;
    };
    let [arg] = args.as_slice() else {
        return None;
    };
    Some((func, coll_ctor(arg)?))
}

/// Translate a constant ESQL expression (no column references) — the
/// value expressions of `INSERT ... VALUES`.
pub fn translate_const_expr(e: &Ast, ctx: &SchemaCtx<'_>) -> LeraResult<Scalar> {
    let scope = Scope {
        bindings: Vec::new(),
        schemas: &[],
    };
    resolve_expr(e, &scope, ctx)
}

/// Resolve an ESQL expression to a LERA scalar, inserting `VALUE` and
/// `PROJECT` conversions ("one role of the LERA rewriter is to correctly
/// infer types and add the necessary conversion functions", Section 3.3).
fn resolve_expr(e: &Ast, scope: &Scope<'_>, ctx: &SchemaCtx<'_>) -> LeraResult<Scalar> {
    match e {
        Ast::Column { qualifier, name } => {
            let (rel, attr) = scope.resolve_column(qualifier.as_deref(), name)?;
            Ok(Scalar::attr(rel, attr))
        }
        Ast::Int(i) => Ok(Scalar::lit(*i)),
        Ast::Real(r) => Ok(Scalar::lit(*r)),
        Ast::Str(s) => Ok(Scalar::lit(s.as_str())),
        Ast::Bool(b) => Ok(Scalar::lit(*b)),
        Ast::Null => Ok(Scalar::Const(eds_adt::Value::Null)),
        Ast::Param(i) => Ok(Scalar::Param(*i)),
        Ast::Not(inner) => Ok(Scalar::Not(Box::new(resolve_expr(inner, scope, ctx)?))),
        Ast::All(inner) => Ok(Scalar::call("ALL", vec![resolve_expr(inner, scope, ctx)?])),
        Ast::Exist(inner) => Ok(Scalar::call(
            "EXIST",
            vec![resolve_expr(inner, scope, ctx)?],
        )),
        Ast::InQuery { .. } => Err(LeraError::Type(
            "IN (SELECT ...) is only supported as a top-level WHERE conjunct".into(),
        )),
        Ast::InList { expr, list } => {
            let e = resolve_expr(expr, scope, ctx)?;
            let items = list
                .iter()
                .map(|i| resolve_expr(i, scope, ctx))
                .collect::<LeraResult<Vec<_>>>()?;
            Ok(Scalar::call(
                "MEMBER",
                vec![e, Scalar::call("MAKESET", items)],
            ))
        }
        Ast::Binary { op, left, right } => {
            let l = resolve_expr(left, scope, ctx)?;
            let r = resolve_expr(right, scope, ctx)?;
            Ok(match op {
                BinOp::And => Scalar::And(Box::new(l), Box::new(r)),
                BinOp::Or => Scalar::Or(Box::new(l), Box::new(r)),
                BinOp::Eq => Scalar::cmp(CmpOp::Eq, l, r),
                BinOp::Ne => Scalar::cmp(CmpOp::Ne, l, r),
                BinOp::Lt => Scalar::cmp(CmpOp::Lt, l, r),
                BinOp::Gt => Scalar::cmp(CmpOp::Gt, l, r),
                BinOp::Le => Scalar::cmp(CmpOp::Le, l, r),
                BinOp::Ge => Scalar::cmp(CmpOp::Ge, l, r),
                BinOp::Add => Scalar::call("+", vec![l, r]),
                BinOp::Sub => Scalar::call("-", vec![l, r]),
                BinOp::Mul => Scalar::call("*", vec![l, r]),
                BinOp::Div => Scalar::call("/", vec![l, r]),
            })
        }
        Ast::Call { name, args } => {
            let resolved = args
                .iter()
                .map(|a| resolve_expr(a, scope, ctx))
                .collect::<LeraResult<Vec<_>>>()?;
            // Attribute applied as a function: Salary(Refactor).
            if resolved.len() == 1 {
                if let Ok(arg_ty) = infer_scalar_type(&resolved[0], scope.schemas, ctx) {
                    if let Some((needs_deref, _, _)) = ctx.catalog.attribute_of(&arg_ty, name) {
                        let receiver = if needs_deref {
                            Scalar::call("VALUE", vec![resolved[0].clone()])
                        } else {
                            resolved[0].clone()
                        };
                        return Ok(Scalar::field(receiver, name));
                    }
                }
            }
            Ok(Scalar::call(name, resolved))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eds_adt::Type;
    use eds_esql::{install_source, parse_query, parse_statement, Catalog, Stmt};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        install_source(
            &mut c,
            "TYPE Category ENUMERATION OF ('Comedy', 'Adventure', 'Science Fiction', 'Western') ;\n\
             TYPE Person OBJECT TUPLE ( Name : CHAR, Firstname : SET OF CHAR) ;\n\
             TYPE Actor SUBTYPE OF Person OBJECT TUPLE (Salary : NUMERIC) ;\n\
             TYPE Text LIST OF CHAR ;\n\
             TYPE SetCategory SET OF Category ;\n\
             TABLE FILM ( Numf : NUMERIC, Title : Text, Categories : SetCategory) ;\n\
             TABLE APPEARS_IN ( Numf : NUMERIC, Refactor : Actor) ;\n\
             TABLE DOMINATE ( Numf : NUMERIC, Refactor1 : Actor, Refactor2 : Actor) ;",
        )
        .unwrap();
        c
    }

    #[test]
    fn figure3_translates_to_single_search() {
        let c = catalog();
        let ctx = SchemaCtx::new(&c);
        let q = parse_query(
            "SELECT Title, Categories, Salary(Refactor) \
             FROM FILM, APPEARS_IN \
             WHERE FILM.Numf = APPEARS_IN.Numf \
             AND Name(Refactor) = 'Quinn' \
             AND MEMBER('Adventure', Categories) ;",
        )
        .unwrap();
        let (e, s) = translate_query(&q, &ctx).unwrap();
        let Expr::Search { inputs, pred, proj } = &e else {
            panic!("expected search, got {}", e.op_name())
        };
        assert_eq!(inputs.len(), 2);
        assert_eq!(proj.len(), 3);
        // Salary(Refactor) resolved through VALUE: PROJECT(VALUE(2.2), Salary).
        assert_eq!(proj[2].to_string(), "PROJECT(VALUE(2.2), Salary)");
        // Qualification is a conjunction of three predicates.
        assert_eq!(pred.conjuncts().len(), 3);
        assert_eq!(s.names(), vec!["Title", "Categories", "Salary"]);
    }

    #[test]
    fn figure4_group_by_becomes_nest() {
        let c = catalog();
        let ctx = SchemaCtx::new(&c);
        let Stmt::ViewDecl(view) = parse_statement(
            "CREATE VIEW FilmActors (Title, Categories, Actors) AS \
             SELECT Title, Categories, MakeSet(Refactor) \
             FROM FILM, APPEARS_IN \
             WHERE FILM.Numf = APPEARS_IN.Numf \
             GROUP BY Title, Categories ;",
        )
        .unwrap() else {
            panic!("expected view")
        };
        let (e, s) = translate_view(&view, &ctx).unwrap();
        let Expr::Nest {
            input,
            group,
            nested,
            kind,
        } = &e
        else {
            panic!("expected nest, got {}", e.op_name())
        };
        assert_eq!(group, &[1, 2]);
        assert_eq!(nested, &[3]);
        assert_eq!(*kind, CollKind::Set);
        assert!(matches!(input.as_ref(), Expr::Search { .. }));
        assert_eq!(s.names(), vec!["Title", "Categories", "Actors"]);
        assert_eq!(s.fields[2].ty, Type::set_of(Type::Named("Actor".into())));
    }

    #[test]
    fn figure5_recursive_view_becomes_fix() {
        let mut c = catalog();
        install_source(
            &mut c,
            "CREATE VIEW BETTER_THAN (Refactor1, Refactor2) AS \
             ( SELECT Refactor1, Refactor2 FROM DOMINATE \
               UNION \
               SELECT B1.Refactor1, B2.Refactor2 \
               FROM BETTER_THAN B1, BETTER_THAN B2 \
               WHERE B1.Refactor2 = B2.Refactor1 ) ;",
        )
        .unwrap();
        let ctx = SchemaCtx::new(&c);
        let q = parse_query(
            "SELECT Name(Refactor1) FROM BETTER_THAN WHERE Name(Refactor2) = 'Quinn' ;",
        )
        .unwrap();
        let (e, s) = translate_query(&q, &ctx).unwrap();
        let Expr::Search { inputs, .. } = &e else {
            panic!("expected search")
        };
        let Expr::Fix { name, body } = &inputs[0] else {
            panic!("expected fix input, got {}", inputs[0].op_name())
        };
        assert_eq!(name, "BETTER_THAN");
        let Expr::Union(branches) = body.as_ref() else {
            panic!("expected union body")
        };
        assert_eq!(branches.len(), 2);
        // The recursive branch references the recursion variable.
        assert!(branches[1].references("BETTER_THAN"));
        assert_eq!(s.names(), vec!["Name"]);
    }

    #[test]
    fn view_inlining_produces_nested_search() {
        let mut c = catalog();
        install_source(
            &mut c,
            "CREATE VIEW Adventure (Numf, Title) AS \
             SELECT Numf, Title FROM FILM WHERE MEMBER('Adventure', Categories) ;",
        )
        .unwrap();
        let ctx = SchemaCtx::new(&c);
        let q = parse_query("SELECT Title FROM Adventure WHERE Numf = 3 ;").unwrap();
        let (e, _) = translate_query(&q, &ctx).unwrap();
        let Expr::Search { inputs, .. } = &e else {
            panic!("expected search")
        };
        // Naive composition: the view sits unmerged inside the outer
        // search; the Figure-7 merging rule collapses it later.
        assert!(matches!(&inputs[0], Expr::Search { .. }));
    }

    #[test]
    fn wildcard_expands_in_order() {
        let c = catalog();
        let ctx = SchemaCtx::new(&c);
        let q = parse_query("SELECT * FROM FILM, APPEARS_IN ;").unwrap();
        let (e, s) = translate_query(&q, &ctx).unwrap();
        let Expr::Search { proj, .. } = &e else {
            panic!()
        };
        assert_eq!(proj.len(), 5);
        assert_eq!(
            s.names(),
            vec!["Numf", "Title", "Categories", "Numf", "Refactor"]
        );
    }

    #[test]
    fn ambiguous_column_rejected() {
        let c = catalog();
        let ctx = SchemaCtx::new(&c);
        let q = parse_query("SELECT Numf FROM FILM, APPEARS_IN ;").unwrap();
        assert!(matches!(
            translate_query(&q, &ctx),
            Err(LeraError::Esql(eds_esql::EsqlError::AmbiguousColumn(_)))
        ));
    }

    #[test]
    fn in_list_becomes_member_of_makeset() {
        let c = catalog();
        let ctx = SchemaCtx::new(&c);
        let q = parse_query("SELECT Title FROM FILM WHERE Numf IN (1, 2, 3) ;").unwrap();
        let (e, _) = translate_query(&q, &ctx).unwrap();
        let Expr::Search { pred, .. } = &e else {
            panic!()
        };
        assert_eq!(pred.to_string(), "MEMBER(1.1, MAKESET(1, 2, 3))");
    }

    #[test]
    fn distinct_becomes_dedup() {
        let c = catalog();
        let ctx = SchemaCtx::new(&c);
        let q = parse_query("SELECT DISTINCT Title FROM FILM ;").unwrap();
        let (e, _) = translate_query(&q, &ctx).unwrap();
        assert!(matches!(e, Expr::Dedup(_)));
    }

    #[test]
    fn union_flattens_to_nary() {
        let c = catalog();
        let ctx = SchemaCtx::new(&c);
        let q = parse_query(
            "SELECT Numf FROM FILM UNION SELECT Numf FROM APPEARS_IN UNION SELECT Numf FROM DOMINATE ;",
        )
        .unwrap();
        let (e, _) = translate_query(&q, &ctx).unwrap();
        let Expr::Union(items) = &e else { panic!() };
        assert_eq!(items.len(), 3);
    }

    #[test]
    fn quantifier_over_nested_set() {
        let mut c = catalog();
        install_source(
            &mut c,
            "CREATE VIEW FilmActors (Title, Categories, Actors) AS \
             SELECT Title, Categories, MakeSet(Refactor) \
             FROM FILM, APPEARS_IN WHERE FILM.Numf = APPEARS_IN.Numf \
             GROUP BY Title, Categories ;",
        )
        .unwrap();
        let ctx = SchemaCtx::new(&c);
        let q = parse_query(
            "SELECT Title FROM FilmActors \
             WHERE MEMBER('Adventure', Categories) AND ALL (Salary(Actors) > 10_000) ;",
        )
        .unwrap();
        let (e, _) = translate_query(&q, &ctx).unwrap();
        let Expr::Search { pred, .. } = &e else {
            panic!()
        };
        let rendered = pred.to_string();
        assert!(
            rendered.contains("ALL(PROJECT(VALUE(1.3), Salary) > 10000)"),
            "{rendered}"
        );
    }
}
