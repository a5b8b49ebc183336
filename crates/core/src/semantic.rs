//! Explicit semantic knowledge: integrity constraints (Section 6.1).
//!
//! "The language we propose for defining constraints is the rules language
//! for defining optimization rules": a constraint is declared as a rule of
//! the Figure-10 shape
//!
//! ```text
//! PointAbs : F(x) / ISA(x, Point) --> F(x) AND PROJECT(x, ABS) > 0 / ;
//! ```
//!
//! The loader recognizes this shape and stores `(declared type, predicate
//! template over x)`. The `ADDCONSTRAINTS` method then instantiates
//! templates for the attribute references a query actually mentions.
//! Because applicability is checked with `ISA`, a constraint declared on a
//! supertype also fires for its subtypes — the subclass-substitution rule
//! of Figure 11 falls out for free.

use eds_adt::{Type, TypeRegistry};
use eds_rewrite::methods::parse_type_spec;
use eds_rewrite::{parse_source, SourceItem, Term};

use crate::error::{CoreError, CoreResult};

/// One declared integrity constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegrityConstraint {
    /// Rule name as declared.
    pub name: String,
    /// Type the constrained variable must conform to.
    pub ty: Type,
    /// Predicate template containing the variable `x`.
    pub template: Term,
}

/// The store of declared integrity constraints.
#[derive(Debug, Clone, Default)]
pub struct ConstraintStore {
    constraints: Vec<IntegrityConstraint>,
}

impl ConstraintStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of declared constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// True when no constraints are declared.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// All declared constraints.
    pub fn iter(&self) -> impl Iterator<Item = &IntegrityConstraint> {
        self.constraints.iter()
    }

    /// Parse constraint declarations written in the rule language and add
    /// them to the store.
    pub fn load_source(&mut self, src: &str) -> CoreResult<usize> {
        let items = parse_source(src)?;
        let mut added = 0;
        for item in items {
            match item {
                SourceItem::Rule(rule) => {
                    let c =
                        constraint_from_rule(&rule.name, &rule.lhs, &rule.constraints, &rule.rhs)
                            .map_err(|message| CoreError::BadConstraintRule {
                            rule: rule.name.clone(),
                            message,
                        })?;
                    self.constraints.push(c);
                    added += 1;
                }
                other => {
                    return Err(CoreError::BadConstraintRule {
                        rule: "<meta>".into(),
                        message: format!("expected constraint rules only, found {other:?}"),
                    })
                }
            }
        }
        Ok(added)
    }

    /// Add a constraint directly.
    pub fn add(&mut self, constraint: IntegrityConstraint) {
        self.constraints.push(constraint);
    }

    /// Templates applicable to a value of type `ty` (via `ISA`, so
    /// supertype constraints apply to subtypes).
    pub fn templates_for(&self, ty: &Type, types: &TypeRegistry) -> Vec<Term> {
        self.constraints
            .iter()
            .filter(|c| types.isa(ty, &c.ty))
            .map(|c| c.template.clone())
            .collect()
    }
}

/// Recognize the Figure-10 shape:
/// `F(x) / ISA(x, T) --> F(x) AND pred /` with no methods.
fn constraint_from_rule(
    name: &str,
    lhs: &Term,
    constraints: &[Term],
    rhs: &Term,
) -> Result<IntegrityConstraint, String> {
    // lhs must be F(x).
    let var = match lhs.as_app() {
        Some(("F", [Term::Var(v)])) => *v,
        _ => return Err("left-hand side must be F(x)".into()),
    };
    // Exactly one ISA(x, T) constraint.
    let ty = match constraints {
        [c] => match c.as_app() {
            Some(("ISA", [Term::Var(v), spec])) if *v == var => match spec.as_app() {
                Some((tname, [])) => parse_type_spec(tname, &TypeRegistry::new()),
                _ => return Err("ISA type specification must be a type name".into()),
            },
            _ => return Err("constraint must be ISA(x, TypeName)".into()),
        },
        _ => return Err("exactly one ISA constraint expected".into()),
    };
    // rhs must be AND(F(x), pred).
    let template = match rhs.as_app() {
        Some(("AND", [f, pred])) if f == lhs => pred.clone(),
        _ => return Err("right-hand side must be F(x) AND <predicate>".into()),
    };
    // The template may only use the constrained variable.
    if template.variables().iter().any(|v| *v != var) {
        return Err("predicate may only reference the constrained variable".into());
    }
    // Canonicalize the variable name to `x`.
    let template = rename_var(&template, var.as_str(), "x");
    Ok(IntegrityConstraint {
        name: name.to_owned(),
        ty,
        template,
    })
}

fn rename_var(t: &Term, from: &str, to: &str) -> Term {
    match t {
        Term::Var(v) if v == from => Term::var(to),
        Term::App(h, args) => Term::App(*h, args.iter().map(|a| rename_var(a, from, to)).collect()),
        other => other.clone(),
    }
}

/// The paper's Figure-10 constraints for the film database, ready to load.
pub fn figure10_constraints() -> &'static str {
    "PointAbsPositive : F(x) / ISA(x, Point) --> F(x) AND PROJECT(x, ABS) > 0 / ;\n\
     PointOrdPositive : F(x) / ISA(x, Point) --> F(x) AND PROJECT(x, ORD) > 0 / ;\n\
     CategoryDomain : F(x) / ISA(x, Category) --> \
       F(x) AND MEMBER(x, {'Comedy', 'Adventure', 'Science Fiction', 'Western'}) / ;"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_figure10_constraints() {
        let mut store = ConstraintStore::new();
        let n = store.load_source(figure10_constraints()).unwrap();
        assert_eq!(n, 3);
        let point = Type::Named("Point".into());
        let types = TypeRegistry::new();
        let templates = store.templates_for(&point, &types);
        assert_eq!(templates.len(), 2);
        assert_eq!(templates[0].to_string(), "(PROJECT(x, ABS) > 0)");
    }

    #[test]
    fn category_template_has_enum_domain() {
        let mut store = ConstraintStore::new();
        store.load_source(figure10_constraints()).unwrap();
        let cat = Type::Named("Category".into());
        let types = TypeRegistry::new();
        let templates = store.templates_for(&cat, &types);
        assert_eq!(templates.len(), 1);
        let rendered = templates[0].to_string();
        assert!(
            rendered.contains("MEMBER(x, SET('Comedy', 'Adventure'"),
            "{rendered}"
        );
    }

    #[test]
    fn subtype_constraints_apply() {
        // A constraint on Person applies to Actor (declared subtype).
        let mut types = TypeRegistry::new();
        types
            .define(eds_adt::TypeDef {
                name: "Person".into(),
                body: eds_adt::TypeBody::Structure(Type::Tuple(vec![])),
                is_object: true,
                supertype: None,
                methods: vec![],
            })
            .unwrap();
        types
            .define(eds_adt::TypeDef {
                name: "Actor".into(),
                body: eds_adt::TypeBody::Structure(Type::Tuple(vec![])),
                is_object: true,
                supertype: Some("Person".into()),
                methods: vec![],
            })
            .unwrap();
        let mut store = ConstraintStore::new();
        store
            .load_source("PersonNamed : F(x) / ISA(x, Person) --> F(x) AND NOT(ISEMPTY(PROJECT(x, NAME))) / ;")
            .unwrap();
        assert_eq!(
            store
                .templates_for(&Type::Named("Actor".into()), &types)
                .len(),
            1
        );
        assert_eq!(
            store
                .templates_for(&Type::Named("Person".into()), &types)
                .len(),
            1
        );
        assert!(store.templates_for(&Type::Int, &types).is_empty());
    }

    #[test]
    fn malformed_constraints_rejected() {
        let mut store = ConstraintStore::new();
        // Wrong lhs shape.
        assert!(store
            .load_source("Bad : G(x, y) / ISA(x, Point) --> G(x, y) AND x > 0 / ;")
            .is_err());
        // Missing ISA.
        assert!(store
            .load_source("Bad : F(x) / --> F(x) AND x > 0 / ;")
            .is_err());
        // Foreign variable in the predicate.
        assert!(store
            .load_source("Bad : F(x) / ISA(x, Point) --> F(x) AND y > 0 / ;")
            .is_err());
        assert!(store.is_empty());
    }

    #[test]
    fn variable_canonicalized_to_x() {
        let mut store = ConstraintStore::new();
        store
            .load_source("C : F(v) / ISA(v, INT) --> F(v) AND v >= 0 / ;")
            .unwrap();
        let t = &store.iter().next().unwrap().template;
        assert_eq!(t.to_string(), "(x >= 0)");
    }
}
