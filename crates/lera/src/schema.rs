//! Schema and type inference for LERA expressions.
//!
//! "Contrary to ESQL where certain syntactic abbreviations are permitted,
//! all function arguments must be correctly typed in LERA" (Section 3.3):
//! inference here is what lets the typing phase insert `VALUE` and
//! `PROJECT` conversions, and what the engine uses to resolve named field
//! accesses to positions.

use std::borrow::Borrow;
use std::collections::HashMap;

use eds_adt::{CollKind, Field, Type, Value};
use eds_esql::catalog::lookup_key;
use eds_esql::Catalog;

use crate::error::{LeraError, LeraResult};
use crate::expr::Expr;
use crate::scalar::Scalar;

/// An inferred relation schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    /// Fields in order.
    pub fields: Vec<Field>,
}

impl Schema {
    /// Build from fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Field at a 1-based position.
    pub fn field(&self, attr1: usize) -> LeraResult<&Field> {
        self.fields
            .get(attr1.checked_sub(1).unwrap_or(usize::MAX))
            .ok_or(LeraError::BadAttrRef {
                rel: 1,
                attr: attr1,
                context: format!("schema has {} attributes", self.fields.len()),
            })
    }

    /// Attribute names.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }
}

/// Inference context: the catalog plus locally-bound relation schemas
/// (recursion variables of enclosing `fix` operators).
pub struct SchemaCtx<'a> {
    /// The installed catalog.
    pub catalog: &'a Catalog,
    locals: HashMap<String, Schema>,
}

impl<'a> SchemaCtx<'a> {
    /// Context over a catalog with no local bindings.
    pub fn new(catalog: &'a Catalog) -> Self {
        SchemaCtx {
            catalog,
            locals: HashMap::new(),
        }
    }

    /// Extend with a local binding (used when descending into `fix`).
    pub fn with_local(&self, name: &str, schema: Schema) -> SchemaCtx<'a> {
        let mut locals = self.locals.clone();
        locals.insert(name.to_ascii_uppercase(), schema);
        SchemaCtx {
            catalog: self.catalog,
            locals,
        }
    }

    /// Schema of a locally-bound name (a recursion variable), if any.
    pub fn local_schema(&self, name: &str) -> Option<Schema> {
        self.local(name).cloned()
    }

    fn local(&self, name: &str) -> Option<&Schema> {
        if self.locals.is_empty() {
            return None;
        }
        self.locals.get(lookup_key(name).as_ref())
    }

    /// Schema of a named relation: local binding, base table, or view
    /// with a registered schema.
    pub fn relation_schema(&self, name: &str) -> LeraResult<Schema> {
        if let Some(s) = self.local(name) {
            return Ok(s.clone());
        }
        self.catalog
            .relation(name)
            .map(|t| Schema::new(t.columns.clone()))
            .ok_or_else(|| LeraError::UnknownRelation(name.to_owned()))
    }
}

/// Infer the output schema of a LERA expression.
pub fn infer_schema(expr: &Expr, ctx: &SchemaCtx<'_>) -> LeraResult<Schema> {
    match expr {
        Expr::Base(name) => ctx.relation_schema(name),
        Expr::Filter { input, .. } | Expr::Dedup(input) => infer_schema(input, ctx),
        Expr::Project { input, exprs } => {
            search_schema(Some(exprs), &[infer_schema(input, ctx)?], ctx)
        }
        Expr::Join { left, right, .. } => {
            let inputs = [infer_schema(left, ctx)?, infer_schema(right, ctx)?];
            search_schema(None, &inputs, ctx)
        }
        Expr::Union(items) => {
            let first = infer_schema(
                items
                    .first()
                    .ok_or_else(|| LeraError::Type("union of zero relations".into()))?,
                ctx,
            )?;
            for item in &items[1..] {
                let s = infer_schema(item, ctx)?;
                if s.arity() != first.arity() {
                    return Err(LeraError::Type(format!(
                        "union arity mismatch: {} vs {}",
                        first.arity(),
                        s.arity()
                    )));
                }
            }
            Ok(first)
        }
        Expr::Difference(a, b) | Expr::Intersect(a, b) => {
            let sa = infer_schema(a, ctx)?;
            let sb = infer_schema(b, ctx)?;
            if sa.arity() != sb.arity() {
                return Err(LeraError::Type(format!(
                    "{} arity mismatch: {} vs {}",
                    expr.op_name(),
                    sa.arity(),
                    sb.arity()
                )));
            }
            Ok(sa)
        }
        Expr::Search { inputs, proj, .. } => {
            let schemas = inputs
                .iter()
                .map(|i| infer_schema(i, ctx))
                .collect::<LeraResult<Vec<_>>>()?;
            search_schema(Some(proj), &schemas, ctx)
        }
        Expr::Fix { name, body } => {
            // The fixpoint's schema comes from a body branch that does not
            // mention the recursion variable (the initialization branch).
            let seed = match body.as_ref() {
                Expr::Union(items) => items.iter().find(|i| !i.references(name)),
                other if !other.references(name) => Some(other),
                _ => None,
            };
            match seed {
                Some(seed) => infer_schema(seed, ctx),
                None => ctx.relation_schema(name).map_err(|_| {
                    LeraError::Type(format!(
                        "cannot infer schema of fix({name}, ...): every branch is recursive"
                    ))
                }),
            }
        }
        Expr::Nest {
            input,
            group,
            nested,
            kind,
        } => nest_schema(&infer_schema(input, ctx)?, group, nested, *kind),
        Expr::Unnest { input, attr } => unnest_schema(&infer_schema(input, ctx)?, *attr, ctx),
    }
}

/// Output schema of a `search` over inputs whose schemas are already
/// known: the target list `proj` typed against them, or — `None`, the
/// `filter` / `join` shape — every attribute of every input in input
/// order. [`infer_schema`] is this applied bottom-up; an executor that
/// holds its evaluated inputs calls it directly, with their schemas
/// borrowed, and infers nothing below the operator twice.
pub fn search_schema(
    proj: Option<&[Scalar]>,
    inputs: &[impl Borrow<Schema>],
    ctx: &SchemaCtx<'_>,
) -> LeraResult<Schema> {
    let Some(exprs) = proj else {
        let fields = inputs
            .iter()
            .flat_map(|s| s.borrow().fields.iter().cloned());
        return Ok(Schema::new(fields.collect()));
    };
    let mut fields = Vec::with_capacity(exprs.len());
    for (i, e) in exprs.iter().enumerate() {
        let ty = infer_scalar_type(e, inputs, ctx)?;
        let name = synth_name(e, inputs).unwrap_or_else(|| format!("expr{}", i + 1));
        fields.push(Field::new(name, ty));
    }
    Ok(Schema::new(fields))
}

/// Output schema of a `nest` over an input whose schema is known: the
/// `group` attributes, then one collection of the `nested` ones (a
/// single nested attribute keeps its name and type as the element).
pub fn nest_schema(
    input: &Schema,
    group: &[usize],
    nested: &[usize],
    kind: CollKind,
) -> LeraResult<Schema> {
    let mut fields = Vec::with_capacity(group.len() + 1);
    for &g in group {
        fields.push(input.field(g)?.clone());
    }
    let (name, elem_ty) = if let [n] = nested {
        let f = input.field(*n)?;
        (f.name.clone(), f.ty.clone())
    } else {
        let elems = nested.iter().map(|&n| input.field(n).cloned());
        let elems = elems.collect::<LeraResult<Vec<_>>>()?;
        ("Nested".to_owned(), Type::Tuple(elems))
    };
    fields.push(Field::new(name, Type::Coll(kind, Box::new(elem_ty))));
    Ok(Schema::new(fields))
}

/// Output schema of an `unnest` over an input whose schema is known:
/// the input's attributes, with the collection at `attr` replaced by
/// its element type.
pub fn unnest_schema(input: &Schema, attr: usize, ctx: &SchemaCtx<'_>) -> LeraResult<Schema> {
    let coll_field = input.field(attr)?;
    let elem_ty = match ctx.catalog.types.resolve(&coll_field.ty)? {
        Type::Coll(_, elem) | Type::AnyColl(elem) => *elem,
        other => {
            return Err(LeraError::Type(format!(
                "unnest on non-collection attribute of type {other}"
            )))
        }
    };
    let mut fields = input.fields.clone();
    fields[attr - 1] = Field::new(coll_field.name.clone(), elem_ty);
    Ok(Schema::new(fields))
}

fn synth_name(e: &Scalar, inputs: &[impl Borrow<Schema>]) -> Option<String> {
    match e {
        Scalar::Attr { rel, attr } => inputs
            .get(rel - 1)
            .and_then(|s| s.borrow().fields.get(attr - 1))
            .map(|f| f.name.clone()),
        Scalar::Field { name, .. } => Some(name.clone()),
        Scalar::Call { func, args } => {
            // MAKESET(x) keeps the source attribute name when obvious.
            if args.len() == 1 {
                synth_name(&args[0], inputs).or_else(|| Some(func.clone()))
            } else {
                Some(func.clone())
            }
        }
        _ => None,
    }
}

/// The static type of a value.
pub fn type_of_value(v: &Value) -> Type {
    match v {
        Value::Null => Type::Any,
        Value::Bool(_) => Type::Bool,
        Value::Int(_) => Type::Int,
        Value::Real(_) => Type::Real,
        Value::Str(_) => Type::Char,
        Value::Enum(e) => Type::Named(e.0.clone()),
        Value::Tuple(items) => Type::Tuple(
            items
                .iter()
                .enumerate()
                .map(|(i, v)| Field::new(format!("f{}", i + 1), type_of_value(v)))
                .collect(),
        ),
        Value::Coll(k, items) => {
            let elem = items.first().map_or(Type::Any, type_of_value);
            Type::Coll(*k, Box::new(elem))
        }
        Value::Object(_) => Type::Any,
    }
}

/// Infer the type of a scalar expression against the schemas of the
/// enclosing operator's inputs (owned or borrowed).
pub fn infer_scalar_type(
    e: &Scalar,
    inputs: &[impl Borrow<Schema>],
    ctx: &SchemaCtx<'_>,
) -> LeraResult<Type> {
    match e {
        Scalar::Attr { rel, attr } => {
            let schema = inputs.get(rel - 1).ok_or(LeraError::BadAttrRef {
                rel: *rel,
                attr: *attr,
                context: format!("{} input relations", inputs.len()),
            })?;
            Ok(schema.borrow().field(*attr)?.ty.clone())
        }
        Scalar::Const(v) => Ok(type_of_value(v)),
        // A parameter's type is unknown until bind time.
        Scalar::Param(_) => Ok(Type::Any),
        Scalar::Field { input, name } => {
            let input_ty = infer_scalar_type(input, inputs, ctx)?;
            if input_ty == Type::Any {
                return Ok(Type::Any);
            }
            ctx.catalog
                .attribute_of(&input_ty, name)
                .map(|(_, _, ty)| ty)
                .ok_or_else(|| LeraError::UnknownAttribute {
                    name: name.clone(),
                    receiver: input_ty.to_string(),
                })
        }
        Scalar::Cmp { .. } | Scalar::And(..) | Scalar::Or(..) | Scalar::Not(_) => Ok(Type::Bool),
        Scalar::Call { func, args } => {
            let arg_tys = args
                .iter()
                .map(|a| infer_scalar_type(a, inputs, ctx))
                .collect::<LeraResult<Vec<_>>>()?;
            infer_call_type(func, &arg_tys, ctx)
        }
    }
}

fn elem_of(ty: &Type) -> Type {
    match ty {
        Type::Coll(_, e) | Type::AnyColl(e) => (**e).clone(),
        _ => Type::Any,
    }
}

fn infer_call_type(func: &str, args: &[Type], ctx: &SchemaCtx<'_>) -> LeraResult<Type> {
    let first = args.first().cloned().unwrap_or(Type::Any);
    Ok(match func {
        "VALUE" => deref_type(&first, ctx)?,
        "ALL" | "EXIST" | "MEMBER" | "ISEMPTY" | "INCLUDE" | "EQUAL" => Type::Bool,
        "COUNT" => Type::Int,
        "SUM" => match ctx
            .catalog
            .types
            .resolve(&elem_of(&ctx.catalog.types.resolve(&first)?))?
        {
            Type::Int => Type::Int,
            t if t.is_numeric() => Type::Real,
            _ => Type::Numeric,
        },
        "MIN" | "MAX" => elem_of(&ctx.catalog.types.resolve(&first)?),
        "AVG" => Type::Real,
        "MAKESET" => Type::set_of(first),
        "MAKEBAG" => Type::bag_of(first),
        "MAKELIST" => Type::list_of(first),
        "UNION" | "INTERSECTION" | "DIFFERENCE" | "INSERT" | "REMOVE" | "APPEND" | "CONVERT" => {
            first
        }
        "CHOICE" => elem_of(&ctx.catalog.types.resolve(&first)?),
        "NTH" => elem_of(&ctx.catalog.types.resolve(&first)?),
        "+" | "-" | "*" | "/" => {
            let widened = args.iter().try_fold(Type::Int, |acc, t| {
                let t = ctx.catalog.types.resolve(t)?;
                Ok::<Type, LeraError>(match (acc, t) {
                    (Type::Int, Type::Int) => Type::Int,
                    (a, b) if a.is_numeric() && b.is_numeric() => Type::Real,
                    (_, Type::Any) | (Type::Any, _) => Type::Any,
                    (a, b) => {
                        return Err(LeraError::Type(format!(
                            "arithmetic on non-numeric types {a} and {b}"
                        )))
                    }
                })
            })?;
            widened
        }
        "ABSVAL" => first,
        "CONCAT" => Type::Char,
        _ => Type::Any,
    })
}

/// Type of `VALUE(x)`: dereference an object type to its tuple structure;
/// maps over collections.
fn deref_type(ty: &Type, ctx: &SchemaCtx<'_>) -> LeraResult<Type> {
    match ty {
        Type::Named(n) => {
            let def = ctx.catalog.types.get(n)?;
            if def.is_object {
                Ok(Type::Tuple(ctx.catalog.types.fields_of(n)?))
            } else {
                Ok(ty.clone())
            }
        }
        Type::Coll(k, e) => Ok(Type::Coll(*k, Box::new(deref_type(e, ctx)?))),
        other => Ok(other.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eds_esql::install_source;

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
    fn base_and_search_schema() {
        let c = catalog();
        let ctx = SchemaCtx::new(&c);
        let e = Expr::search(
            vec![Expr::base("APPEARS_IN"), Expr::base("FILM")],
            Scalar::eq(Scalar::attr(1, 1), Scalar::attr(2, 1)),
            vec![
                Scalar::attr(2, 2),
                Scalar::attr(2, 3),
                Scalar::field(Scalar::call("VALUE", vec![Scalar::attr(1, 2)]), "Salary"),
            ],
        );
        let s = infer_schema(&e, &ctx).unwrap();
        assert_eq!(s.names(), vec!["Title", "Categories", "Salary"]);
        assert_eq!(s.fields[2].ty, Type::Numeric);
    }

    #[test]
    fn value_dereferences_object_type() {
        let c = catalog();
        let ctx = SchemaCtx::new(&c);
        let inputs = [Schema::new(vec![Field::new(
            "Refactor",
            Type::Named("Actor".into()),
        )])];
        let ty = infer_scalar_type(
            &Scalar::call("VALUE", vec![Scalar::attr(1, 1)]),
            &inputs,
            &ctx,
        )
        .unwrap();
        let Type::Tuple(fields) = ty else {
            panic!("expected tuple, got {ty}")
        };
        let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["Name", "Firstname", "Salary"]);
    }

    #[test]
    fn fix_schema_from_seed_branch() {
        let c = catalog();
        let ctx = SchemaCtx::new(&c);
        let body = Expr::Union(vec![
            Expr::search(
                vec![Expr::base("DOMINATE")],
                Scalar::true_(),
                vec![Scalar::attr(1, 2), Scalar::attr(1, 3)],
            ),
            Expr::search(
                vec![Expr::base("BT"), Expr::base("BT")],
                Scalar::eq(Scalar::attr(1, 2), Scalar::attr(2, 1)),
                vec![Scalar::attr(1, 1), Scalar::attr(2, 2)],
            ),
        ]);
        let fix = Expr::Fix {
            name: "BT".into(),
            body: Box::new(body),
        };
        let s = infer_schema(&fix, &ctx).unwrap();
        assert_eq!(s.arity(), 2);
        assert_eq!(s.fields[0].ty, Type::Named("Actor".into()));
    }

    #[test]
    fn nest_schema() {
        let c = catalog();
        let ctx = SchemaCtx::new(&c);
        let e = Expr::Nest {
            input: Box::new(Expr::base("APPEARS_IN")),
            group: vec![1],
            nested: vec![2],
            kind: CollKind::Set,
        };
        let s = infer_schema(&e, &ctx).unwrap();
        assert_eq!(s.names(), vec!["Numf", "Refactor"]);
        assert_eq!(s.fields[1].ty, Type::set_of(Type::Named("Actor".into())));
    }

    #[test]
    fn unnest_schema() {
        let c = catalog();
        let ctx = SchemaCtx::new(&c);
        let e = Expr::Unnest {
            input: Box::new(Expr::base("FILM")),
            attr: 3,
        };
        let s = infer_schema(&e, &ctx).unwrap();
        assert_eq!(s.fields[2].ty, Type::Named("Category".into()));
    }

    #[test]
    fn union_arity_mismatch_rejected() {
        let c = catalog();
        let ctx = SchemaCtx::new(&c);
        let e = Expr::Union(vec![Expr::base("FILM"), Expr::base("APPEARS_IN")]);
        assert!(matches!(infer_schema(&e, &ctx), Err(LeraError::Type(_))));
    }

    #[test]
    fn bad_attr_ref_reported() {
        let c = catalog();
        let ctx = SchemaCtx::new(&c);
        let e = Expr::search(
            vec![Expr::base("FILM")],
            Scalar::true_(),
            vec![Scalar::attr(1, 9)],
        );
        assert!(matches!(
            infer_schema(&e, &ctx),
            Err(LeraError::BadAttrRef { .. })
        ));
    }

    #[test]
    fn quantifier_and_membership_types() {
        let c = catalog();
        let ctx = SchemaCtx::new(&c);
        let film = ctx.relation_schema("FILM").unwrap();
        let member = Scalar::call("MEMBER", vec![Scalar::lit("Adventure"), Scalar::attr(1, 3)]);
        assert_eq!(
            infer_scalar_type(&member, std::slice::from_ref(&film), &ctx).unwrap(),
            Type::Bool
        );
    }

    #[test]
    fn field_maps_over_collection_of_objects() {
        let c = catalog();
        let ctx = SchemaCtx::new(&c);
        let inputs = [Schema::new(vec![Field::new(
            "Actors",
            Type::set_of(Type::Named("Actor".into())),
        )])];
        // Salary(Actors): set of actors -> set of salaries.
        let ty =
            infer_scalar_type(&Scalar::field(Scalar::attr(1, 1), "Salary"), &inputs, &ctx).unwrap();
        assert_eq!(ty, Type::set_of(Type::Numeric));
    }
}
