//! The rewriting environment: adapts a [`Database`] (catalog, objects,
//! functions) plus the declared integrity constraints to the
//! [`TermEnv`] interface the rule engine consumes.

use eds_adt::{FunctionRegistry, ObjectStore, Type, TypeRegistry};
use eds_engine::Database;
use eds_lera::{expr_from_term, infer_schema, SchemaCtx};
use eds_rewrite::{Term, TermEnv};

use crate::semantic::ConstraintStore;

/// Environment for one rewrite session.
pub struct CoreEnv<'a> {
    /// The database providing schemas, objects and functions.
    pub db: &'a Database,
    /// The declared integrity constraints.
    pub constraints: &'a ConstraintStore,
}

impl TermEnv for CoreEnv<'_> {
    fn functions(&self) -> &FunctionRegistry {
        &self.db.functions
    }

    fn objects(&self) -> &ObjectStore {
        &self.db.objects
    }

    fn types(&self) -> &TypeRegistry {
        &self.db.catalog.types
    }

    /// A relation name's column types are read from the catalog
    /// entry; any other term is converted to a plan and its schema
    /// inferred.
    fn rel_schema(&self, term: &Term) -> Option<Vec<Type>> {
        if let Some((name, [])) = term.as_app() {
            let columns = &self.db.catalog.relation(name)?.columns;
            return Some(columns.iter().map(|f| f.ty.clone()).collect());
        }
        let expr = expr_from_term(term).ok()?;
        let ctx = SchemaCtx::new(&self.db.catalog);
        let schema = infer_schema(&expr, &ctx).ok()?;
        Some(schema.fields.into_iter().map(|f| f.ty).collect())
    }

    fn constraints_for(&self, ty: &Type) -> Vec<Term> {
        self.constraints.templates_for(ty, &self.db.catalog.types)
    }
}
