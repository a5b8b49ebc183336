//! Static types and the user-extensible type registry.
//!
//! ESQL generalizes relational domains with a library of *generic ADTs*
//! (tuple, set, bag, list, array) organized along an inheritance hierarchy
//! whose root is `collection` (Figure 1). Users extend the fixed set of
//! system types with `TYPE` declarations, optionally as objects and
//! optionally as subtypes of existing types. The registry resolves names,
//! answers the `ISA` subtype predicate used by rule constraints, and tracks
//! methods declared on types.

use std::collections::HashMap;

use crate::error::{AdtError, AdtResult};
use crate::value::{CollKind, Value};

/// A named attribute of a tuple type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Attribute name (applied as a function performs projection).
    pub name: String,
    /// Attribute type.
    pub ty: Type,
}

impl Field {
    /// Build a field.
    pub fn new(name: impl Into<String>, ty: Type) -> Self {
        Field {
            name: name.into(),
            ty,
        }
    }
}

/// A static type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Type {
    /// Boolean.
    Bool,
    /// Integer (`INT`).
    Int,
    /// Floating point (`REAL`).
    Real,
    /// Exact numeric; modeled as 64-bit integer/real hybrid (`NUMERIC`).
    Numeric,
    /// Character string (`CHAR`).
    Char,
    /// Tuple with named attributes.
    Tuple(Vec<Field>),
    /// Generic collection applied to an element type.
    Coll(CollKind, Box<Type>),
    /// Abstract `collection` supertype with an element type; only appears
    /// in `ISA` checks and rule constraints, never as a concrete value type.
    AnyColl(Box<Type>),
    /// A reference to a user-declared named type (resolved via the
    /// registry). Object types always appear this way.
    Named(String),
    /// Unknown / polymorphic (used by the rewriter before typing rules run).
    Any,
}

impl Type {
    /// Collection helper.
    pub fn set_of(t: Type) -> Type {
        Type::Coll(CollKind::Set, Box::new(t))
    }
    /// Collection helper.
    pub fn bag_of(t: Type) -> Type {
        Type::Coll(CollKind::Bag, Box::new(t))
    }
    /// Collection helper.
    pub fn list_of(t: Type) -> Type {
        Type::Coll(CollKind::List, Box::new(t))
    }
    /// Collection helper.
    pub fn array_of(t: Type) -> Type {
        Type::Coll(CollKind::Array, Box::new(t))
    }

    /// Is this a numeric type?
    pub fn is_numeric(&self) -> bool {
        matches!(self, Type::Int | Type::Real | Type::Numeric)
    }
}

impl std::fmt::Display for Type {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Type::Bool => f.write_str("BOOL"),
            Type::Int => f.write_str("INT"),
            Type::Real => f.write_str("REAL"),
            Type::Numeric => f.write_str("NUMERIC"),
            Type::Char => f.write_str("CHAR"),
            Type::Tuple(fields) => {
                f.write_str("TUPLE (")?;
                for (i, fld) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{} : {}", fld.name, fld.ty)?;
                }
                f.write_str(")")
            }
            Type::Coll(k, t) => write!(f, "{} OF {}", k.name(), t),
            Type::AnyColl(t) => write!(f, "COLLECTION OF {t}"),
            Type::Named(n) => f.write_str(n),
            Type::Any => f.write_str("ANY"),
        }
    }
}

/// Body of a user `TYPE` declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeBody {
    /// `ENUMERATION OF ('a', 'b', ...)`.
    Enumeration(Vec<String>),
    /// Alias for / structure of another type (covers `TUPLE(...)`,
    /// `LIST OF CHAR`, etc.).
    Structure(Type),
}

/// A method declared with a `FUNCTION` clause on a type definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodSig {
    /// Method name.
    pub name: String,
    /// Parameter types (the receiver is the first parameter, `This`).
    pub params: Vec<Type>,
    /// Result type; `None` for procedures.
    pub result: Option<Type>,
}

/// A registered user type.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeDef {
    /// Type name.
    pub name: String,
    /// Definition body.
    pub body: TypeBody,
    /// Whether instances carry object identity (`TYPE ... OBJECT ...`).
    pub is_object: bool,
    /// Declared supertype (`SUBTYPE OF`).
    pub supertype: Option<String>,
    /// Declared methods.
    pub methods: Vec<MethodSig>,
}

/// The registry of user-declared named types.
///
/// System generic ADTs are structural (`Type::Coll`), so they do not live
/// here; the registry handles user names, enumeration domains, the object
/// flag and the declared subtype lattice.
#[derive(Debug, Default, Clone)]
pub struct TypeRegistry {
    defs: HashMap<String, TypeDef>,
}

impl TypeRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a type definition. Fails on duplicates or on an unknown
    /// supertype. Names are case-insensitive (SQL identifier semantics);
    /// the declared spelling is preserved for display.
    pub fn define(&mut self, def: TypeDef) -> AdtResult<()> {
        let key = def.name.to_ascii_uppercase();
        if self.defs.contains_key(&key) {
            return Err(AdtError::DuplicateType(def.name));
        }
        if let Some(sup) = &def.supertype {
            if !self.contains(sup) {
                return Err(AdtError::UnknownType(sup.clone()));
            }
        }
        self.defs.insert(key, def);
        Ok(())
    }

    /// Look up a definition (case-insensitive).
    pub fn get(&self, name: &str) -> AdtResult<&TypeDef> {
        self.defs
            .get(&name.to_ascii_uppercase())
            .ok_or_else(|| AdtError::UnknownType(name.to_owned()))
    }

    /// Whether `name` is registered (case-insensitive).
    pub fn contains(&self, name: &str) -> bool {
        self.defs.contains_key(&name.to_ascii_uppercase())
    }

    /// The enumeration literals of an enumeration type.
    pub fn enum_values(&self, name: &str) -> AdtResult<&[String]> {
        match &self.get(name)?.body {
            TypeBody::Enumeration(vals) => Ok(vals),
            _ => Err(AdtError::TypeMismatch {
                function: "enum_values".into(),
                expected: "enumeration type".into(),
                found: name.to_owned(),
            }),
        }
    }

    /// Structural expansion of a named type, one level (`Named` chains are
    /// followed).
    pub fn resolve(&self, ty: &Type) -> AdtResult<Type> {
        match ty {
            Type::Named(n) => {
                let def = self.get(n)?;
                match &def.body {
                    TypeBody::Enumeration(_) => Ok(Type::Char),
                    TypeBody::Structure(inner) => self.resolve(inner),
                }
            }
            other => Ok(other.clone()),
        }
    }

    /// The tuple fields of a named (possibly object) type, following the
    /// supertype chain so inherited attributes are visible.
    pub fn fields_of(&self, name: &str) -> AdtResult<Vec<Field>> {
        let def = self.get(name)?;
        let mut fields = match &def.supertype {
            Some(sup) => self.fields_of(sup)?,
            None => Vec::new(),
        };
        if let TypeBody::Structure(Type::Tuple(own)) = &def.body {
            fields.extend(own.iter().cloned());
        }
        Ok(fields)
    }

    /// The `ISA` subtype predicate on *named* types (case-insensitive):
    /// true when `sub` equals `sup` or is declared (transitively) as its
    /// subtype.
    pub fn isa_named(&self, sub: &str, sup: &str) -> bool {
        if sub.eq_ignore_ascii_case(sup) {
            return true;
        }
        let mut cur = sub.to_ascii_uppercase();
        while let Some(def) = self.defs.get(&cur) {
            match &def.supertype {
                Some(s) if s.eq_ignore_ascii_case(sup) => return true,
                Some(s) => cur = s.to_ascii_uppercase(),
                None => break,
            }
        }
        false
    }

    /// The full `ISA` predicate over structural types, covering the
    /// generic-ADT hierarchy of Figure 1: every `SET/BAG/LIST/ARRAY OF t`
    /// ISA `COLLECTION OF t`, element types are checked covariantly, and
    /// named types use the declared lattice.
    pub fn isa(&self, sub: &Type, sup: &Type) -> bool {
        match (sub, sup) {
            (_, Type::Any) => true,
            (Type::Named(a), Type::Named(b)) => self.isa_named(a, b),
            (Type::Named(a), _) => {
                // An enumeration ISA CHAR; a structural alias ISA its body.
                match self.resolve(&Type::Named(a.clone())) {
                    Ok(resolved) if &resolved != sub => self.isa(&resolved, sup),
                    _ => false,
                }
            }
            (Type::Coll(k1, e1), Type::Coll(k2, e2)) => k1 == k2 && self.isa(e1, e2),
            (Type::Coll(_, e1), Type::AnyColl(e2)) => self.isa(e1, e2),
            (Type::AnyColl(e1), Type::AnyColl(e2)) => self.isa(e1, e2),
            (Type::Int, Type::Numeric) | (Type::Real, Type::Numeric) => true,
            (Type::Tuple(f1), Type::Tuple(f2)) => {
                // Width-and-depth subtyping on tuples: every attribute of the
                // supertype must be present with a subtype-compatible type.
                f2.iter().all(|sf| {
                    f1.iter()
                        .any(|af| af.name == sf.name && self.isa(&af.ty, &sf.ty))
                })
            }
            (a, b) => a == b,
        }
    }

    /// Runtime `ISA`: does the dynamic shape of `v` conform to `ty`?
    /// Object references check the object's dynamic type name via `type_of`.
    pub fn value_isa(
        &self,
        v: &Value,
        ty: &Type,
        object_type_of: &dyn Fn(u64) -> Option<String>,
    ) -> bool {
        match (v, ty) {
            (_, Type::Any) => true,
            (Value::Null, _) => true,
            (Value::Bool(_), Type::Bool) => true,
            (Value::Int(_), Type::Int | Type::Numeric) => true,
            (Value::Real(_), Type::Real | Type::Numeric) => true,
            (Value::Str(_), Type::Char) => true,
            (Value::Tuple(vals), Type::Tuple(fields)) => {
                vals.len() == fields.len()
                    && vals
                        .iter()
                        .zip(fields)
                        .all(|(v, f)| self.value_isa(v, &f.ty, object_type_of))
            }
            (Value::Coll(k, elems), Type::Coll(tk, et)) => {
                k == tk && elems.iter().all(|e| self.value_isa(e, et, object_type_of))
            }
            (Value::Coll(_, elems), Type::AnyColl(et)) => {
                elems.iter().all(|e| self.value_isa(e, et, object_type_of))
            }
            (Value::Object(oid), Type::Named(tn)) => match object_type_of(oid.0) {
                Some(dyn_ty) => self.isa_named(&dyn_ty, tn),
                None => false,
            },
            (v, Type::Named(tn)) => match self.get(tn) {
                Ok(def) => match &def.body {
                    TypeBody::Enumeration(vals) => {
                        matches!(v, Value::Str(s) if vals.contains(s))
                    }
                    TypeBody::Structure(inner) => self.value_isa(v, inner, object_type_of),
                },
                Err(_) => false,
            },
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_with_paper_types() -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        reg.define(TypeDef {
            name: "Category".into(),
            body: TypeBody::Enumeration(vec![
                "Comedy".into(),
                "Adventure".into(),
                "Science Fiction".into(),
                "Western".into(),
            ]),
            is_object: false,
            supertype: None,
            methods: vec![],
        })
        .unwrap();
        reg.define(TypeDef {
            name: "Person".into(),
            body: TypeBody::Structure(Type::Tuple(vec![
                Field::new("Name", Type::Char),
                Field::new("Firstname", Type::set_of(Type::Char)),
            ])),
            is_object: true,
            supertype: None,
            methods: vec![],
        })
        .unwrap();
        reg.define(TypeDef {
            name: "Actor".into(),
            body: TypeBody::Structure(Type::Tuple(vec![Field::new("Salary", Type::Numeric)])),
            is_object: true,
            supertype: Some("Person".into()),
            methods: vec![MethodSig {
                name: "IncreaseSalary".into(),
                params: vec![Type::Named("Actor".into()), Type::Numeric],
                result: None,
            }],
        })
        .unwrap();
        reg
    }

    #[test]
    fn declared_subtype_chain() {
        let reg = registry_with_paper_types();
        assert!(reg.isa_named("Actor", "Person"));
        assert!(reg.isa_named("Actor", "Actor"));
        assert!(!reg.isa_named("Person", "Actor"));
    }

    #[test]
    fn collections_isa_collection() {
        let reg = TypeRegistry::new();
        let set_int = Type::set_of(Type::Int);
        let coll_int = Type::AnyColl(Box::new(Type::Int));
        assert!(reg.isa(&set_int, &coll_int));
        assert!(reg.isa(&Type::list_of(Type::Int), &coll_int));
        assert!(!reg.isa(&set_int, &Type::bag_of(Type::Int)));
    }

    #[test]
    fn inherited_fields_visible() {
        let reg = registry_with_paper_types();
        let fields = reg.fields_of("Actor").unwrap();
        let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["Name", "Firstname", "Salary"]);
    }

    #[test]
    fn enum_values_and_membership() {
        let reg = registry_with_paper_types();
        assert!(reg
            .enum_values("Category")
            .unwrap()
            .contains(&"Western".to_owned()));
        assert!(reg.value_isa(
            &Value::str("Comedy"),
            &Type::Named("Category".into()),
            &|_| None
        ));
        assert!(!reg.value_isa(
            &Value::str("Cartoon"),
            &Type::Named("Category".into()),
            &|_| None
        ));
    }

    #[test]
    fn duplicate_definition_rejected() {
        let mut reg = registry_with_paper_types();
        let err = reg
            .define(TypeDef {
                name: "Category".into(),
                body: TypeBody::Enumeration(vec![]),
                is_object: false,
                supertype: None,
                methods: vec![],
            })
            .unwrap_err();
        assert_eq!(err, AdtError::DuplicateType("Category".into()));
    }

    #[test]
    fn unknown_supertype_rejected() {
        let mut reg = TypeRegistry::new();
        let err = reg
            .define(TypeDef {
                name: "X".into(),
                body: TypeBody::Structure(Type::Int),
                is_object: false,
                supertype: Some("Missing".into()),
                methods: vec![],
            })
            .unwrap_err();
        assert_eq!(err, AdtError::UnknownType("Missing".into()));
    }

    #[test]
    fn numeric_widening_isa() {
        let reg = TypeRegistry::new();
        assert!(reg.isa(&Type::Int, &Type::Numeric));
        assert!(reg.isa(&Type::Real, &Type::Numeric));
        assert!(!reg.isa(&Type::Numeric, &Type::Int));
    }

    #[test]
    fn value_isa_object_uses_dynamic_type() {
        let reg = registry_with_paper_types();
        let v = Value::Object(crate::object::Oid(7));
        let actor_ty = Type::Named("Person".into());
        assert!(reg.value_isa(&v, &actor_ty, &|oid| {
            assert_eq!(oid, 7);
            Some("Actor".into())
        }));
        assert!(!reg.value_isa(&v, &Type::Named("Actor".into()), &|_| Some("Person".into())));
    }
}
