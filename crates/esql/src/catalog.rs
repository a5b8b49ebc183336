//! The catalog: declared types, tables and views.
//!
//! DDL statements are *installed* into the catalog, converting syntactic
//! [`TypeRef`]s into semantic [`eds_adt::Type`]s. The catalog answers the
//! schema questions the translator and rewriter ask: column lookup by
//! name, view expansion, recursion detection, and attribute-as-function
//! resolution on object and tuple types.

use std::borrow::Cow;
use std::collections::HashMap;

use eds_adt::{Field, MethodSig, Type, TypeBody, TypeDef, TypeRegistry};

use crate::ast::{Stmt, TableDecl, TypeDecl, TypeDeclBody, TypeRef, ViewDecl};
use crate::error::{EsqlError, EsqlResult};

/// A relation schema: named, typed columns.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSchema {
    /// Relation name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<Field>,
}

impl TableSchema {
    /// Index and type of a column by (case-insensitive) name.
    pub fn column(&self, name: &str) -> Option<(usize, &Field)> {
        self.columns
            .iter()
            .enumerate()
            .find(|(_, f)| f.name.eq_ignore_ascii_case(name))
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }
}

/// The key relation names are stored under (ASCII upper case),
/// borrowed when `name` already has that form, so a lookup by a
/// canonical name allocates nothing.
pub fn lookup_key(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_lowercase()) {
        Cow::Owned(name.to_ascii_uppercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// The database catalog.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    /// User type registry.
    pub types: TypeRegistry,
    tables: HashMap<String, TableSchema>,
    views: HashMap<String, ViewDecl>,
    view_schemas: HashMap<String, TableSchema>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a DDL statement. Queries are rejected.
    pub fn install(&mut self, stmt: &Stmt) -> EsqlResult<()> {
        match stmt {
            Stmt::TypeDecl(t) => self.install_type(t),
            Stmt::TableDecl(t) => self.install_table(t),
            Stmt::ViewDecl(v) => self.install_view(v),
            Stmt::Query(_) | Stmt::Insert(_) => Err(EsqlError::TypeError(
                "queries and inserts cannot be installed into the catalog".into(),
            )),
        }
    }

    /// Convert a syntactic type reference into a semantic type.
    pub fn lower_typeref(&self, r: &TypeRef) -> EsqlResult<Type> {
        self.lower_typeref_with_self(r, None)
    }

    /// Like [`Catalog::lower_typeref`] but permitting a reference to the
    /// type currently being defined (method signatures mention the
    /// receiver type, e.g. `FUNCTION IncreaseSalary(This Actor, ...)`).
    fn lower_typeref_with_self(&self, r: &TypeRef, self_name: Option<&str>) -> EsqlResult<Type> {
        Ok(match r {
            TypeRef::Bool => Type::Bool,
            TypeRef::Int => Type::Int,
            TypeRef::Real => Type::Real,
            TypeRef::Numeric => Type::Numeric,
            TypeRef::Char => Type::Char,
            TypeRef::Named(n) => {
                if !self.types.contains(n) && self_name != Some(n.as_str()) {
                    return Err(EsqlError::Adt(eds_adt::AdtError::UnknownType(n.clone())));
                }
                Type::Named(n.clone())
            }
            TypeRef::Tuple(fields) => Type::Tuple(
                fields
                    .iter()
                    .map(|(n, t)| {
                        Ok(Field::new(
                            n.clone(),
                            self.lower_typeref_with_self(t, self_name)?,
                        ))
                    })
                    .collect::<EsqlResult<Vec<_>>>()?,
            ),
            TypeRef::Coll(kind, elem) => Type::Coll(
                *kind,
                Box::new(self.lower_typeref_with_self(elem, self_name)?),
            ),
        })
    }

    fn install_type(&mut self, decl: &TypeDecl) -> EsqlResult<()> {
        let body = match &decl.body {
            TypeDeclBody::Enumeration(vals) => TypeBody::Enumeration(vals.clone()),
            TypeDeclBody::Structure(r) => TypeBody::Structure(self.lower_typeref(r)?),
        };
        let methods = decl
            .functions
            .iter()
            .map(|f| {
                Ok(MethodSig {
                    name: f.name.clone(),
                    params: f
                        .params
                        .iter()
                        .map(|(_, t)| self.lower_typeref_with_self(t, Some(&decl.name)))
                        .collect::<EsqlResult<Vec<_>>>()?,
                    result: f
                        .result
                        .as_ref()
                        .map(|t| self.lower_typeref_with_self(t, Some(&decl.name)))
                        .transpose()?,
                })
            })
            .collect::<EsqlResult<Vec<_>>>()?;
        self.types.define(TypeDef {
            name: decl.name.clone(),
            body,
            is_object: decl.is_object,
            supertype: decl.supertype.clone(),
            methods,
        })?;
        Ok(())
    }

    fn install_table(&mut self, decl: &TableDecl) -> EsqlResult<()> {
        let key = decl.name.to_ascii_uppercase();
        if self.tables.contains_key(&key) || self.views.contains_key(&key) {
            return Err(EsqlError::DuplicateRelation(decl.name.clone()));
        }
        let columns = decl
            .columns
            .iter()
            .map(|(n, t)| Ok(Field::new(n.clone(), self.lower_typeref(t)?)))
            .collect::<EsqlResult<Vec<_>>>()?;
        self.tables.insert(
            key,
            TableSchema {
                name: decl.name.clone(),
                columns,
            },
        );
        Ok(())
    }

    fn install_view(&mut self, decl: &ViewDecl) -> EsqlResult<()> {
        let key = decl.name.to_ascii_uppercase();
        if self.tables.contains_key(&key) || self.views.contains_key(&key) {
            return Err(EsqlError::DuplicateRelation(decl.name.clone()));
        }
        self.views.insert(key, decl.clone());
        Ok(())
    }

    /// Record the inferred schema of a view (computed by the translator,
    /// which knows expression types).
    pub fn set_view_schema(&mut self, name: &str, schema: TableSchema) {
        self.view_schemas.insert(name.to_ascii_uppercase(), schema);
    }

    /// Schema of a base table.
    pub fn table(&self, name: &str) -> Option<&TableSchema> {
        self.tables.get(lookup_key(name).as_ref())
    }

    /// Declaration of a view.
    pub fn view(&self, name: &str) -> Option<&ViewDecl> {
        self.views.get(lookup_key(name).as_ref())
    }

    /// Schema of any relation: base table, or a view whose schema has been
    /// inferred.
    pub fn relation(&self, name: &str) -> Option<&TableSchema> {
        let key = lookup_key(name);
        self.tables
            .get(key.as_ref())
            .or_else(|| self.view_schemas.get(key.as_ref()))
    }

    /// Whether `name` refers to any relation.
    pub fn is_relation(&self, name: &str) -> bool {
        let key = lookup_key(name);
        self.tables.contains_key(key.as_ref()) || self.views.contains_key(key.as_ref())
    }

    /// Names of all base tables (sorted).
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.values().map(|t| t.name.as_str()).collect();
        names.sort_unstable();
        names
    }

    /// Names of all views (sorted).
    pub fn view_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.views.values().map(|v| v.name.as_str()).collect();
        names.sort_unstable();
        names
    }

    /// Resolve an *attribute applied as a function* (Section 2.1): find
    /// the field `attr` in the given type, looking through object
    /// references (which require a `VALUE` dereference first) and named
    /// tuple types (following the supertype chain).
    ///
    /// Returns `(needs_value_deref, field_index, field_type)`.
    pub fn attribute_of(&self, ty: &Type, attr: &str) -> Option<(bool, usize, Type)> {
        match ty {
            Type::Tuple(fields) => fields
                .iter()
                .enumerate()
                .find(|(_, f)| f.name.eq_ignore_ascii_case(attr))
                .map(|(i, f)| (false, i, f.ty.clone())),
            Type::Named(n) => {
                let def = self.types.get(n).ok()?;
                let fields = self.types.fields_of(n).ok()?;
                let hit = fields
                    .iter()
                    .enumerate()
                    .find(|(_, f)| f.name.eq_ignore_ascii_case(attr))?;
                Some((def.is_object, hit.0, hit.1.ty.clone()))
            }
            // Function mapping over collections: Salary(Actors) where
            // Actors : SET OF Actor projects each element.
            Type::Coll(kind, elem) => {
                let (deref, idx, t) = self.attribute_of(elem, attr)?;
                Some((deref, idx, Type::Coll(*kind, Box::new(t))))
            }
            _ => None,
        }
    }
}

/// Install every DDL statement from a source text into the catalog; query
/// statements are returned for separate processing.
pub fn install_source(catalog: &mut Catalog, src: &str) -> EsqlResult<Vec<Stmt>> {
    let stmts = crate::parser::parse_statements(src)?;
    let mut queries = Vec::new();
    for stmt in stmts {
        match stmt {
            Stmt::Query(_) | Stmt::Insert(_) => queries.push(stmt),
            ddl => catalog.install(&ddl)?,
        }
    }
    Ok(queries)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure-2 schema of the paper.
    pub fn film_schema() -> &'static str {
        "TYPE Category ENUMERATION OF ('Comedy', 'Adventure', 'Science Fiction', 'Western') ;\n\
         TYPE Point TUPLE (ABS : REAL, ORD : REAL) ;\n\
         TYPE Person OBJECT TUPLE ( Name : CHAR, Firstname : SET OF CHAR, Caricature : LIST OF Point) ;\n\
         TYPE Actor SUBTYPE OF Person OBJECT TUPLE (Salary : NUMERIC) \
           FUNCTION IncreaseSalary(This Actor, Val NUMERIC) ;\n\
         TYPE Text LIST OF CHAR ;\n\
         TYPE SetCategory SET OF Category ;\n\
         TYPE Pairs LIST OF TUPLE (Pros : INT, Cons : INT) ;\n\
         TABLE FILM ( Numf : NUMERIC, Title : Text, Categories : SetCategory) ;\n\
         TABLE APPEARS_IN ( Numf : NUMERIC, Refactor : Actor) ;\n\
         TABLE DOMINATE ( Numf : NUMERIC, Refactor1 : Actor, Refactor2 : Actor, Score : Pairs) ;"
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        install_source(&mut c, film_schema()).unwrap();
        c
    }

    #[test]
    fn installs_figure2_schema() {
        let c = catalog();
        assert_eq!(c.table_names(), vec!["APPEARS_IN", "DOMINATE", "FILM"]);
        let film = c.table("film").unwrap();
        assert_eq!(film.arity(), 3);
        let (idx, f) = film.column("categories").unwrap();
        assert_eq!(idx, 2);
        assert_eq!(f.ty, Type::Named("SetCategory".into()));
    }

    #[test]
    fn attribute_through_object_needs_value() {
        let c = catalog();
        // Salary on an Actor object: dereference + index 2 (Name,
        // Firstname, Caricature inherited from Person, then Salary).
        let (deref, idx, ty) = c
            .attribute_of(&Type::Named("Actor".into()), "Salary")
            .unwrap();
        assert!(deref);
        assert_eq!(idx, 3);
        assert_eq!(ty, Type::Numeric);
        // Name is inherited from Person.
        let (_, idx, ty) = c
            .attribute_of(&Type::Named("Actor".into()), "Name")
            .unwrap();
        assert_eq!(idx, 0);
        assert_eq!(ty, Type::Char);
    }

    #[test]
    fn attribute_maps_over_collections() {
        let c = catalog();
        let set_of_actor = Type::set_of(Type::Named("Actor".into()));
        let (deref, _, ty) = c.attribute_of(&set_of_actor, "Salary").unwrap();
        assert!(deref);
        assert_eq!(ty, Type::set_of(Type::Numeric));
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut c = catalog();
        let err = install_source(&mut c, "TABLE FILM (X : INT);").unwrap_err();
        assert_eq!(err, EsqlError::DuplicateRelation("FILM".into()));
    }

    #[test]
    fn unknown_type_in_table_rejected() {
        let mut c = Catalog::new();
        let err = install_source(&mut c, "TABLE T (X : Missing);").unwrap_err();
        assert!(matches!(err, EsqlError::Adt(_)));
    }

    #[test]
    fn views_tracked_separately() {
        let mut c = catalog();
        install_source(
            &mut c,
            "CREATE VIEW AdventureFilms (Title) AS \
             SELECT Title FROM FILM WHERE MEMBER('Adventure', Categories);",
        )
        .unwrap();
        assert!(c.view("adventurefilms").is_some());
        assert!(c.is_relation("AdventureFilms"));
        assert!(c.relation("AdventureFilms").is_none()); // schema not yet inferred
        c.set_view_schema(
            "AdventureFilms",
            TableSchema {
                name: "AdventureFilms".into(),
                columns: vec![Field::new("Title", Type::Named("Text".into()))],
            },
        );
        assert_eq!(c.relation("AdventureFilms").unwrap().arity(), 1);
    }

    #[test]
    fn queries_returned_not_installed() {
        let mut c = Catalog::new();
        let queries = install_source(&mut c, "TABLE T (X : INT); SELECT X FROM T;").unwrap();
        assert_eq!(queries.len(), 1);
    }
}
