//! The database: catalog + object store + stored relations + functions.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use eds_adt::{FunctionRegistry, ObjectStore, Oid, Value};
use eds_esql::catalog::lookup_key;
use eds_esql::{Catalog, Stmt, TableSchema};
use eds_lera::{Schema, SchemaCtx};

use crate::columnar::ColumnarRelation;
use crate::error::{EngineError, EngineResult};
use crate::relation::{shared_row, Relation, Row};

/// An in-memory database instance.
#[derive(Debug)]
pub struct Database {
    /// Installed schema.
    pub catalog: Catalog,
    /// Object store (identity-bearing data).
    pub objects: ObjectStore,
    /// ADT function registry (extensible by the database implementor).
    pub functions: FunctionRegistry,
    relations: HashMap<String, Relation>,
    /// Columnar mirrors of stored relations, built lazily on first
    /// scan. Every mutation path goes through methods of this struct
    /// (`relations` is private): row [`Database::insert`] maintains an
    /// existing mirror incrementally, while bulk/unstructured mutations
    /// ([`Database::relation_mut`], [`Database::truncate`]) invalidate
    /// the touched table's entry — and only that entry, so mirrors of
    /// unrelated tables survive. `None` records "not column-friendly"
    /// so an all-spill table is not re-scanned on every query. This is
    /// the only per-table cache derived from the rows: the cost model
    /// reads nothing but [`Database::cardinality`], which is exact.
    ///
    /// Entries are inserted whole, after the build: a thread that panics
    /// holding the lock leaves the map as it found it, so readers recover
    /// a poisoned lock ([`PoisonError::into_inner`]) instead of failing
    /// every later join.
    columnar: Mutex<HashMap<String, Option<Arc<ColumnarRelation>>>>,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// Empty database with built-in functions.
    pub fn new() -> Self {
        Database {
            catalog: Catalog::new(),
            objects: ObjectStore::new(),
            functions: FunctionRegistry::with_builtins(),
            relations: HashMap::new(),
            columnar: Mutex::new(HashMap::new()),
        }
    }

    /// Drop the cached columnar mirror of `key` (already uppercased),
    /// called from every path that can change the stored rows.
    fn invalidate_columnar(&mut self, key: &str) {
        let columnar = self.columnar.get_mut();
        columnar.unwrap_or_else(PoisonError::into_inner).remove(key);
    }

    /// Columnar mirror of a stored base table, built on first use and
    /// cached until the table is mutated. `None` when the table does not
    /// exist or is not column-friendly (empty, or every attribute
    /// spills) — negative results are cached too.
    pub fn columnar(&self, name: &str) -> Option<Arc<ColumnarRelation>> {
        let key = lookup_key(name);
        let cache = self.columnar.lock();
        let mut cache = cache.unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = cache.get(key.as_ref()) {
            return entry.clone();
        }
        let built = self
            .relations
            .get(key.as_ref())
            .and_then(|rel| ColumnarRelation::build(rel).map(Arc::new));
        cache.insert(key.into_owned(), built.clone());
        built
    }

    /// Parse and install DDL from `src`; storage is allocated for tables,
    /// view schemas are inferred and registered, and `INSERT` statements
    /// are executed. Any query statements found are returned unexecuted.
    pub fn execute_ddl(&mut self, src: &str) -> EngineResult<Vec<Stmt>> {
        let stmts = eds_esql::parse_statements(src)?;
        let mut queries = Vec::new();
        for stmt in stmts {
            match stmt {
                Stmt::Query(_) => queries.push(stmt),
                Stmt::Insert(ins) => {
                    self.execute_insert(&ins)?;
                }
                ddl => self.install_stmt(&ddl)?,
            }
        }
        Ok(queries)
    }

    /// Install one DDL statement: catalog registration plus storage
    /// allocation (tables) or schema inference (views).
    pub fn install_stmt(&mut self, stmt: &Stmt) -> EngineResult<()> {
        self.catalog.install(stmt)?;
        match stmt {
            Stmt::TableDecl(t) => {
                let schema = self
                    .catalog
                    .table(&t.name)
                    .map(|s| Schema::new(s.columns.clone()))
                    .ok_or_else(|| EngineError::UnknownRelation(t.name.clone()))?;
                let key = t.name.to_ascii_uppercase();
                self.relations.insert(key.clone(), Relation::empty(schema));
                self.invalidate_columnar(&key);
            }
            Stmt::ViewDecl(v) => {
                // Infer and register the view's schema so later queries
                // (and the rewriter) can resolve it.
                let ctx = SchemaCtx::new(&self.catalog);
                let (_, schema) = eds_lera::translate_view(v, &ctx)?;
                self.catalog.set_view_schema(
                    &v.name,
                    TableSchema {
                        name: v.name.clone(),
                        columns: schema.fields,
                    },
                );
            }
            _ => {}
        }
        Ok(())
    }

    /// Execute an `INSERT INTO ... VALUES` statement: value expressions
    /// are evaluated as constants (literals and constant constructor
    /// calls such as `MakeSet('a','b')`).
    pub fn execute_insert(&mut self, stmt: &eds_esql::InsertStmt) -> EngineResult<usize> {
        let ctx = SchemaCtx::new(&self.catalog);
        let mut rows = Vec::with_capacity(stmt.rows.len());
        for value_row in &stmt.rows {
            let mut row = Vec::with_capacity(value_row.len());
            for e in value_row {
                let scalar = eds_lera::translate_const_expr(e, &ctx)?;
                row.push(crate::eval::eval_const_scalar(&scalar, self)?);
            }
            rows.push(row);
        }
        let n = rows.len();
        for row in rows {
            self.insert(&stmt.table, row)?;
        }
        Ok(n)
    }

    /// Insert a row into a base table. A cached columnar mirror of the
    /// table is maintained incrementally — the new row's values are
    /// appended to the typed columns in place — instead of being thrown
    /// away. Only when a value does not fit its column's layout (or the
    /// cached entry is stale or negative) is the entry dropped so the
    /// next scan rebuilds from the rows.
    pub fn insert(&mut self, table: &str, mut row: Row) -> EngineResult<()> {
        let key = table.to_ascii_uppercase();
        let rel = self
            .relations
            .get_mut(&key)
            .ok_or_else(|| EngineError::UnknownRelation(table.to_owned()))?;
        if row.len() != rel.schema.arity() {
            return Err(EngineError::ArityMismatch {
                table: table.to_owned(),
                expected: rel.schema.arity(),
                found: row.len(),
            });
        }
        let prev_len = rel.len();
        let appended = shared_row(&mut row);
        rel.push_shared(appended.clone());
        let cache = self.columnar.get_mut();
        let cache = cache.unwrap_or_else(PoisonError::into_inner);
        if let Some(entry) = cache.get_mut(&key) {
            // A negative entry ("not column-friendly") is removed rather
            // than kept: the new row may make the table mirror-worthy.
            let maintained = match entry.as_mut() {
                Some(mirror) if mirror.len() == prev_len => {
                    Arc::make_mut(mirror).push_row(&appended)
                }
                _ => false,
            };
            if !maintained {
                cache.remove(&key);
            }
        }
        Ok(())
    }

    /// Insert many rows.
    pub fn insert_all(
        &mut self,
        table: &str,
        rows: impl IntoIterator<Item = Row>,
    ) -> EngineResult<()> {
        for row in rows {
            self.insert(table, row)?;
        }
        Ok(())
    }

    /// Create an object of the given type and return a reference value.
    pub fn create_object(&mut self, type_name: &str, value: Value) -> Value {
        Value::Object(self.new_oid(type_name, value))
    }

    /// Create an object, returning the raw OID.
    pub fn new_oid(&mut self, type_name: &str, value: Value) -> Oid {
        self.objects.create(type_name, value)
    }

    /// Stored relation by name.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(lookup_key(name).as_ref())
    }

    /// Mutable stored relation (for bulk loading in benchmarks). The
    /// columnar mirror is invalidated eagerly — the caller holds a
    /// mutable borrow and may change the rows.
    pub fn relation_mut(&mut self, name: &str) -> Option<&mut Relation> {
        let key = name.to_ascii_uppercase();
        self.invalidate_columnar(&key);
        self.relations.get_mut(&key)
    }

    /// Cardinality of a stored relation.
    pub fn cardinality(&self, name: &str) -> Option<usize> {
        self.relation(name).map(Relation::len)
    }

    /// Remove all rows from a table (schema preserved).
    pub fn truncate(&mut self, name: &str) -> EngineResult<()> {
        let key = name.to_ascii_uppercase();
        self.invalidate_columnar(&key);
        self.relations
            .get_mut(&key)
            .map(|r| r.rows.clear())
            .ok_or_else(|| EngineError::UnknownRelation(name.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddl_allocates_storage_and_view_schemas() {
        let mut db = Database::new();
        db.execute_ddl(
            "TABLE EDGE (Src : INT, Dst : INT);\n\
             CREATE VIEW LOOPS (Src) AS SELECT Src FROM EDGE WHERE Src = Dst;",
        )
        .unwrap();
        assert_eq!(db.cardinality("EDGE"), Some(0));
        let view_schema = db.catalog.relation("LOOPS").unwrap();
        assert_eq!(view_schema.columns.len(), 1);
        assert_eq!(view_schema.columns[0].name, "Src");
    }

    #[test]
    fn insert_checks_arity() {
        let mut db = Database::new();
        db.execute_ddl("TABLE EDGE (Src : INT, Dst : INT);")
            .unwrap();
        db.insert("EDGE", vec![1.into(), 2.into()]).unwrap();
        let err = db.insert("edge", vec![1.into()]).unwrap_err();
        assert!(matches!(err, EngineError::ArityMismatch { .. }));
        assert_eq!(db.cardinality("Edge"), Some(1));
    }

    #[test]
    fn insert_values_are_evaluated_as_constants() {
        let mut db = Database::new();
        db.execute_ddl(
            "TYPE Tags SET OF CHAR; TYPE Ls LIST OF INT;
             TABLE T (A : INT, B : Tags, C : Ls);
             INSERT INTO T VALUES (1 + 2, MakeSet('a', 'b'), MakeList());",
        )
        .unwrap();
        let stored = db.relation("T").unwrap().sorted_rows();
        let tags = Value::set(vec!["a".into(), "b".into()]);
        assert_eq!(stored, vec![vec![3.into(), tags, Value::list(vec![])]]);
        // No input tuple exists while a VALUES expression is evaluated:
        // what cannot be a constant is a typed error, never an index panic.
        for (values, expected) in [
            ("(?, MakeSet(), MakeList())", "UnboundParam(0)"),
            (
                "(NoSuchFn(1), MakeSet(), MakeList())",
                "Adt(UnknownFunction(\"NOSUCHFN\"))",
            ),
            ("(A, MakeSet(), MakeList())", "Lera("),
        ] {
            let err = db
                .execute_ddl(&format!("INSERT INTO T VALUES {values};"))
                .unwrap_err();
            assert!(
                format!("{err:?}").starts_with(expected),
                "{values}: {err:?}"
            );
        }
        assert_eq!(
            db.cardinality("T"),
            Some(1),
            "a failed INSERT stores nothing"
        );
    }

    #[test]
    fn unknown_table_insert_fails() {
        let mut db = Database::new();
        assert!(matches!(
            db.insert("NOPE", vec![]),
            Err(EngineError::UnknownRelation(_))
        ));
    }

    #[test]
    fn unrelated_tables_mirror_survives_insert() {
        let mut db = Database::new();
        db.execute_ddl("TABLE A (X : INT);\nTABLE B (Y : INT);")
            .unwrap();
        db.insert("A", vec![1.into()]).unwrap();
        db.insert("B", vec![10.into()]).unwrap();
        let a_before = db.columnar("A").expect("A is column-friendly");
        db.insert("B", vec![20.into()]).unwrap();
        // Mutating B must not disturb A's cached mirror: same Arc, not a
        // rebuild and not a clone.
        let a_after = db.columnar("A").expect("A still mirrored");
        assert!(Arc::ptr_eq(&a_before, &a_after));
    }

    #[test]
    fn truncate_invalidates_only_its_own_mirror() {
        let mut db = Database::new();
        db.execute_ddl("TABLE A (X : INT);\nTABLE B (Y : INT);")
            .unwrap();
        db.insert("A", vec![1.into()]).unwrap();
        db.insert("B", vec![10.into()]).unwrap();
        let a_before = db.columnar("A").expect("A is column-friendly");
        let b_before = db.columnar("B").expect("B is column-friendly");
        db.truncate("B").unwrap();
        // Truncation must drop exactly the truncated table's mirror:
        // B rebuilds (empty), A keeps the very same Arc.
        let a_after = db.columnar("A").expect("A still mirrored");
        assert!(Arc::ptr_eq(&a_before, &a_after));
        // B's stale mirror is gone: whatever comes back now (possibly
        // nothing — empty tables may not qualify) is a fresh, empty one.
        if let Some(b_after) = db.columnar("B") {
            assert!(!Arc::ptr_eq(&b_before, &b_after));
            assert_eq!(b_after.len(), 0);
        }
    }

    #[test]
    fn insert_maintains_mirror_incrementally() {
        let mut db = Database::new();
        db.execute_ddl("TABLE C (X : INT, Y : INT);").unwrap();
        db.insert("C", vec![1.into(), Value::Null]).unwrap();
        // Column Y is all-NULL at build time, so it spills. An insert
        // that triggered a rebuild would re-type it as Int; incremental
        // maintenance keeps the existing layout — observable proof the
        // mirror was appended to, not rebuilt.
        let before = db.columnar("C").expect("X is typed");
        assert!(!before.column_is_typed(1));
        db.insert("C", vec![2.into(), 5.into()]).unwrap();
        let after = db.columnar("C").expect("mirror maintained");
        assert_eq!(after.len(), 2);
        assert!(!after.column_is_typed(1), "rebuild happened");
        assert_eq!(after.row(1), vec![Value::Int(2), Value::Int(5)]);
        // NULL appends extend the bitmap of a typed column.
        db.insert("C", vec![Value::Null, 7.into()]).unwrap();
        let third = db.columnar("C").expect("mirror maintained");
        assert_eq!(third.row(2), vec![Value::Null, Value::Int(7)]);
    }

    #[test]
    fn kind_mismatch_insert_drops_mirror() {
        let mut db = Database::new();
        db.execute_ddl("TABLE D (X : INT);").unwrap();
        db.insert("D", vec![1.into()]).unwrap();
        assert!(db.columnar("D").is_some());
        // The engine does not type-check row values against the schema,
        // so a Str can land in an INT column; the mirror must refuse the
        // append and fall back to a rebuild (which spills -> no mirror).
        db.insert("D", vec![Value::str("oops")]).unwrap();
        assert!(db.columnar("D").is_none());
        assert_eq!(db.cardinality("D"), Some(2));
    }

    #[test]
    fn insert_clears_negative_mirror_entry() {
        let mut db = Database::new();
        db.execute_ddl("TABLE E (X : INT);").unwrap();
        // Empty table: negative entry cached.
        assert!(db.columnar("E").is_none());
        db.insert("E", vec![3.into()]).unwrap();
        // The insert removed the negative entry, so the mirror can now
        // be built.
        let mirror = db.columnar("E").expect("rebuilt after negative entry");
        assert_eq!(mirror.row(0), vec![Value::Int(3)]);
    }

    #[test]
    fn caches_recover_from_a_poisoned_lock() {
        let mut db = Database::new();
        db.execute_ddl("TABLE P (X : INT);").unwrap();
        db.insert("P", vec![1.into()]).unwrap();
        let before = db.columnar("P").expect("P is column-friendly");
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _mirrors = db.columnar.lock().unwrap();
                panic!("poisoning the mirror cache lock (expected by this test)");
            })
            .join()
        });
        assert!(poisoner.is_err());
        assert!(db.columnar.is_poisoned());
        // Reads are served, from the very entry cached before.
        let after = db.columnar("P").expect("mirror still served");
        assert!(Arc::ptr_eq(&before, &after));
        // So are the write paths that maintain or drop entries.
        db.insert("P", vec![2.into()]).unwrap();
        assert_eq!(db.columnar("P").expect("maintained").len(), 2);
        db.truncate("P").unwrap();
        assert!(db.columnar("P").is_none(), "an empty table has no mirror");
    }

    #[test]
    fn objects_shared_by_reference() {
        let mut db = Database::new();
        db.execute_ddl(
            "TYPE Person OBJECT TUPLE (Name : CHAR);\n\
             TABLE T (P : Person);",
        )
        .unwrap();
        let quinn = db.create_object("Person", Value::Tuple(vec![Value::str("Quinn")]));
        db.insert("T", vec![quinn.clone()]).unwrap();
        db.insert("T", vec![quinn.clone()]).unwrap();
        // Both rows reference the same object.
        let rel = db.relation("T").unwrap();
        assert_eq!(rel.rows[0], rel.rows[1]);
    }
}
