//! # eds-core — the rule-based query rewriter of the EDS server
//!
//! This crate assembles the full system of Finance & Gardarin, *"A
//! Rule-Based Query Rewriter in an Extensible DBMS"* (ICDE 1991):
//! the ESQL front-end ([`eds_esql`]), the LERA algebra ([`eds_lera`]),
//! the term-rewriting engine with the Figure-6 rule language
//! ([`eds_rewrite`]), the execution substrate ([`eds_engine`]), and —
//! here — the optimizer itself: the built-in syntactic and semantic
//! knowledge base, the Alexander/magic fixpoint reduction, the block/seq
//! pipeline, and the [`Dbms`] facade.
//!
//! ```
//! use eds_core::Dbms;
//!
//! let mut dbms = Dbms::new().unwrap();
//! dbms.execute_ddl("TABLE EDGE (Src : INT, Dst : INT);").unwrap();
//! dbms.insert("EDGE", vec![1.into(), 2.into()]).unwrap();
//! dbms.insert("EDGE", vec![2.into(), 3.into()]).unwrap();
//! let result = dbms.query("SELECT Dst FROM EDGE WHERE Src = 1;").unwrap();
//! assert_eq!(result.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod discover;
pub mod env;
pub mod error;
pub mod magic;
pub mod methods;
pub mod pipeline;
pub mod semantic;
pub mod verify;

use std::sync::PoisonError;

use eds_engine::{eval_with, Database, EvalOptions, EvalStats, Relation, Row};
pub use eds_engine::{parallel_stats, OptLevel, ParallelStats};
use eds_esql::{parse_query, Stmt};
use eds_lera::{expr_to_term, translate_query, Expr, Schema, SchemaCtx};

pub use discover::{HarnessOracle, LeraCostOracle};
pub use eds_rewrite::discover::{DiscoverOptions, Discovery, Fragment, Funnel};
pub use env::CoreEnv;
pub use error::{CoreError, CoreResult};
pub use pipeline::{
    stats_cost_model, ExploreStats, LintPolicy, PlanCacheStats, QueryRewriter, RewriteOutcome,
    BUILTIN_RULE_SOURCES,
};
pub use semantic::{figure10_constraints, ConstraintStore, IntegrityConstraint};
pub use verify::{verify_rules, Coverage, VerifyOptions, VerifyReport};

// Re-export the layer crates so downstream users need a single dependency.
pub use eds_adt as adt;
pub use eds_engine as engine;
pub use eds_esql as esql;
pub use eds_lera as lera;
pub use eds_rewrite as rewrite;

/// Adapter exposing the ESQL catalog to the rewrite-layer analyzer
/// (which cannot depend on the catalog crate directly).
struct CatalogSchemaProvider<'a>(&'a eds_esql::Catalog);

impl eds_rewrite::SchemaProvider for CatalogSchemaProvider<'_> {
    fn relation_arity(&self, name: &str) -> Option<usize> {
        self.0.relation(name).map(eds_esql::TableSchema::arity)
    }
}

/// A prepared (translated but not yet rewritten) query.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The canonical LERA plan straight out of translation.
    pub expr: Expr,
    /// Its output schema, named by the SQL names in scope: a view's
    /// declared column list, an `AS` alias. The result a query returns
    /// is positional (see [`PreparedStmt::execute`]); these are its
    /// columns' names.
    pub schema: Schema,
    /// Original source text.
    pub sql: String,
}

/// A parameterized prepared statement: parse, translate, rewrite and
/// lower happened **once** at [`Dbms::prepare_stmt`] time; each
/// [`PreparedStmt::execute`] only checks the bind arity, verifies the
/// rewriter's invalidation epoch, and evaluates the cached plan with the
/// bind array — repeat executions go straight to the engine.
///
/// The plan is the rewriter's plan-cache entry for the statement's
/// parameterized canonical term, shared (`Arc`), and the epoch snapshot
/// ties it to the knowledge base: any rule/DDL/constraint change
/// advances the rewriter's invalidation counter, and the next `execute`
/// transparently re-reads the plan cache before running.
#[derive(Debug)]
pub struct PreparedStmt {
    /// Original source text.
    sql: String,
    /// Output schema of the (parameterized) plan.
    schema: Schema,
    /// Number of `?` parameters the statement declares.
    param_count: usize,
    /// The canonical (pre-rewrite) parameterized plan, kept for epoch
    /// refreshes.
    canonical: Expr,
    /// Optimization level the statement was prepared at — part of the
    /// plan-cache key, and reused on epoch refreshes so a level
    /// change on the DBMS never silently re-plans an existing statement.
    level: OptLevel,
    /// Rewritten + lowered plan and the invalidation epoch it was
    /// produced under.
    plan: std::sync::Mutex<StmtPlan>,
}

#[derive(Debug)]
struct StmtPlan {
    expr: std::sync::Arc<Expr>,
    epoch: u64,
}

impl PreparedStmt {
    /// The statement's source text.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// Output schema, named by the SQL names in scope (see
    /// [`Prepared::schema`]): the names of the positional result
    /// [`PreparedStmt::execute`] returns.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of `?` parameters a bind array must supply.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// The optimization level the statement was prepared at.
    pub fn opt_level(&self) -> OptLevel {
        self.level
    }

    /// Execute with a bind array: `params[i]` is the value of `?i`
    /// (numbered left to right in source order). The array length must
    /// equal [`PreparedStmt::param_count`] exactly —
    /// [`CoreError::BindMismatch`] otherwise.
    ///
    /// The result's columns are positional: column `i` is select-list
    /// item `i`, typed as field `i` of [`PreparedStmt::schema`]. The
    /// names on the returned [`Relation`] are the engine's, inferred
    /// from the rewritten plan — `SELECT Key AS Z FROM V` over a view
    /// `V (Key) AS SELECT K FROM R` returns a column named `K` — so read
    /// names from [`PreparedStmt::schema`], which says `Z`. The same
    /// holds for [`Dbms::query`] and [`Dbms::prepare`].
    pub fn execute(&self, dbms: &Dbms, params: &[eds_adt::Value]) -> CoreResult<Relation> {
        self.execute_with_stats(dbms, params).map(|(rel, _)| rel)
    }

    /// [`PreparedStmt::execute`], also returning the engine's work
    /// counters.
    pub fn execute_with_stats(
        &self,
        dbms: &Dbms,
        params: &[eds_adt::Value],
    ) -> CoreResult<(Relation, EvalStats)> {
        if params.len() != self.param_count {
            return Err(CoreError::BindMismatch {
                expected: self.param_count,
                got: params.len(),
            });
        }
        let plan = self.current_plan(dbms)?;
        Ok(eds_engine::eval_with_params(
            &plan,
            &dbms.db,
            dbms.eval_options,
            params,
        )?)
    }

    /// The rewritten plan, re-read from the plan cache when the
    /// rewriter's invalidation epoch has moved since it was cached.
    fn current_plan(&self, dbms: &Dbms) -> CoreResult<std::sync::Arc<Expr>> {
        // A poisoned lock is recovered, not propagated: the guarded value
        // is an `(Arc<Expr>, u64)` pair written only by the two plain
        // stores below, which a panicking peer cannot leave torn.
        let epoch = dbms.rewriter.invalidation_epoch();
        {
            let plan = self.plan.lock().unwrap_or_else(PoisonError::into_inner);
            if plan.epoch == epoch {
                return Ok(std::sync::Arc::clone(&plan.expr));
            }
        }
        // Stale: the knowledge base, catalog or constraints changed.
        // Re-rewrite outside the lock (the plan cache may already hold
        // the fresh plan if a sibling statement refreshed first).
        let (expr, _, _) = dbms.rewriter.rewrite_shape_leveled(
            &self.canonical,
            &dbms.db,
            &dbms.constraints,
            self.level,
        )?;
        let mut plan = self.plan.lock().unwrap_or_else(PoisonError::into_inner);
        plan.expr = std::sync::Arc::clone(&expr);
        plan.epoch = epoch;
        Ok(expr)
    }
}

/// Outcome of executing one statement through [`Dbms::execute`].
#[derive(Debug, Clone)]
pub enum Executed {
    /// A DDL statement was installed.
    Ddl,
    /// An `INSERT` added this many rows.
    Inserted(usize),
    /// A query produced this relation (after rewriting).
    Rows(Relation),
}

/// The session configuration the process environment asks for, over
/// the library defaults. Every `EDS_*` knob is read here and nowhere
/// else.
fn config_from_env() -> CoreResult<(EvalOptions, LintPolicy)> {
    fn knob<T>(
        var: &'static str,
        expected: &'static str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> CoreResult<Option<T>> {
        let value = match std::env::var(var) {
            Ok(value) => value,
            Err(std::env::VarError::NotPresent) => return Ok(None),
            Err(std::env::VarError::NotUnicode(raw)) => raw.to_string_lossy().into_owned(),
        };
        match parse(value.trim()) {
            Some(parsed) => Ok(Some(parsed)),
            None => Err(CoreError::BadEnvValue {
                var,
                value,
                expected,
            }),
        }
    }
    let defaults = EvalOptions::default();
    let opts = EvalOptions {
        parallelism: knob("EDS_PARALLELISM", "a positive integer", |v| {
            v.parse().ok().filter(|&p| p >= 1)
        })?
        .unwrap_or(defaults.parallelism),
        opt_level: knob("EDS_OPT_LEVEL", "none, simple or full", OptLevel::parse)?
            .unwrap_or(defaults.opt_level),
        columnar: knob("EDS_COLUMNAR", "0 or 1", |v| match v {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        })?
        .unwrap_or(defaults.columnar),
        ..defaults
    };
    let lint = knob("EDS_LINT", "deny, warn or off", |v| {
        match v.to_ascii_lowercase().as_str() {
            "deny" => Some(LintPolicy::Deny),
            "warn" => Some(LintPolicy::Warn),
            "off" => Some(LintPolicy::Off),
            _ => None,
        }
    })?;
    Ok((opts, lint.unwrap_or_default()))
}

/// The integrated DBMS facade: database + extensible rewriter.
#[derive(Debug)]
pub struct Dbms {
    /// Storage, catalog, objects, ADT functions.
    pub db: Database,
    /// The rule-based rewriter.
    pub rewriter: QueryRewriter,
    /// Declared integrity constraints.
    pub constraints: ConstraintStore,
    /// Session options: the engine's physical knobs (fixpoint round
    /// cap, parallelism, columnar) plus the rewriter's optimization
    /// level.
    pub eval_options: EvalOptions,
}

impl Dbms {
    /// A DBMS with the built-in optimization knowledge base. The one
    /// place the process environment is read: `EDS_PARALLELISM`,
    /// `EDS_OPT_LEVEL` and `EDS_COLUMNAR` override the
    /// [`EvalOptions`] defaults, `EDS_LINT` the rewriter's
    /// [`QueryRewriter::lint_policy`]; a value that does not parse is a
    /// [`CoreError::BadEnvValue`], never a silent default.
    pub fn new() -> CoreResult<Self> {
        let (eval_options, lint_policy) = config_from_env()?;
        let mut rewriter = QueryRewriter::with_default_rules()?;
        rewriter.lint_policy = lint_policy;
        Ok(Dbms {
            db: Database::new(),
            rewriter,
            constraints: ConstraintStore::new(),
            eval_options,
        })
    }

    /// Install DDL (types, tables, views). Invalidates cached rewrites:
    /// view expansion and typing consult the catalog.
    pub fn execute_ddl(&mut self, src: &str) -> CoreResult<Vec<Stmt>> {
        self.rewriter.invalidate_plan_cache();
        Ok(self.db.execute_ddl(src)?)
    }

    /// Execute arbitrary ESQL: DDL installs, `INSERT` loads, queries run
    /// through the rewriter. One [`Executed`] per statement.
    pub fn execute(&mut self, src: &str) -> CoreResult<Vec<Executed>> {
        let stmts = eds_esql::parse_statements(src)?;
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            match stmt {
                Stmt::Query(q) => out.push(Executed::Rows(self.run_query(&q)?)),
                Stmt::Insert(ins) => {
                    out.push(Executed::Inserted(self.db.execute_insert(&ins)?));
                }
                ddl => {
                    self.rewriter.invalidate_plan_cache();
                    self.db.install_stmt(&ddl)?;
                    out.push(Executed::Ddl);
                }
            }
        }
        Ok(out)
    }

    /// Insert a row into a base table.
    pub fn insert(&mut self, table: &str, row: Row) -> CoreResult<()> {
        Ok(self.db.insert(table, row)?)
    }

    /// Insert many rows.
    pub fn insert_all(
        &mut self,
        table: &str,
        rows: impl IntoIterator<Item = Row>,
    ) -> CoreResult<()> {
        Ok(self.db.insert_all(table, rows)?)
    }

    /// Create an object and return a reference value. Invalidates cached
    /// rewrites (object creation can install new dynamic types).
    pub fn create_object(&mut self, type_name: &str, value: eds_adt::Value) -> eds_adt::Value {
        self.rewriter.invalidate_plan_cache();
        self.db.create_object(type_name, value)
    }

    /// Add optimization rules / blocks / sequence written in the rule
    /// language — the extensibility entry point. Every batch is linted
    /// first (schema-aware: the analyzer sees the catalog) under the
    /// rewriter's [`QueryRewriter::lint_policy`]; `deny` rejects
    /// error-carrying DDL with [`CoreError::LintRejected`], `warn`
    /// (default) reports and accepts.
    pub fn add_rule_source(&mut self, src: &str) -> CoreResult<usize> {
        self.add_rule_source_checked(src, self.rewriter.lint_policy)
    }

    /// [`Dbms::add_rule_source`] with an explicit lint policy.
    pub fn add_rule_source_checked(&mut self, src: &str, policy: LintPolicy) -> CoreResult<usize> {
        let schema = CatalogSchemaProvider(&self.db.catalog);
        self.rewriter.add_source_checked(src, policy, Some(&schema))
    }

    /// Statically analyze the rewriter's whole knowledge base against
    /// the current catalog and return every finding.
    pub fn lint(&self) -> Vec<eds_rewrite::Diagnostic> {
        let schema = CatalogSchemaProvider(&self.db.catalog);
        self.rewriter.lint(Some(&schema))
    }

    /// Semantically verify the rewriter's knowledge base: bounded
    /// equivalence proofs where possible, seeded differential fuzzing
    /// through the reference executor everywhere else. See
    /// [`verify::verify_rules`].
    pub fn verify(&self) -> VerifyReport {
        self.rewriter.verify()
    }

    /// [`Dbms::verify`] with explicit options.
    pub fn verify_with(&self, opts: &VerifyOptions) -> VerifyReport {
        self.rewriter.verify_with(opts)
    }

    /// Discover new prover-certified, cost-decreasing rewrite rules
    /// against the current knowledge base, cost-ranked with the stored
    /// tables' cardinalities (see [`eds_rewrite::discover`]). The result
    /// renders to a `.rules` source loadable with
    /// [`Dbms::add_rule_source_checked`].
    pub fn discover(&self, opts: &DiscoverOptions) -> Discovery {
        self.rewriter.discover(opts, stats_cost_model(&self.db))
    }

    /// Declare integrity constraints written in the rule language
    /// (Figure-10 shape). Invalidates cached rewrites: the semantic
    /// block matches against the constraint store.
    pub fn add_constraint_source(&mut self, src: &str) -> CoreResult<usize> {
        self.rewriter.invalidate_plan_cache();
        self.constraints.load_source(src)
    }

    /// Parse and translate a query to its canonical LERA form.
    pub fn prepare(&self, sql: &str) -> CoreResult<Prepared> {
        let query = parse_query(sql)?;
        let ctx = SchemaCtx::new(&self.db.catalog);
        let (expr, schema) = translate_query(&query, &ctx)?;
        Ok(Prepared {
            expr,
            schema,
            sql: sql.to_owned(),
        })
    }

    /// Prepare a parameterized statement: parse and translate `sql`
    /// (with `?` placeholders numbered left to right), and rewrite and
    /// lower the parameterized plan **once**, through the plan cache. A
    /// rule whose condition would *evaluate* a parameter sees a
    /// non-constant `PARAM(i)` leaf and defers to bind time; a rule that
    /// only *relocates* one fires as it does for a literal — `TC WHERE
    /// Src = ?` is reduced here to the fixpoint seeded by `Src = ?`,
    /// never the full closure. The returned statement executes
    /// repeatedly against different bind arrays without re-parsing or
    /// re-rewriting.
    pub fn prepare_stmt(&self, sql: &str) -> CoreResult<PreparedStmt> {
        let epoch = self.rewriter.invalidation_epoch();
        let level = self.eval_options.opt_level;
        let prepared = self.prepare(sql)?;
        let param_count = prepared.expr.max_param().map_or(0, |m| m as usize + 1);
        let (expr, _, _) = self.rewriter.rewrite_shape_leveled(
            &prepared.expr,
            &self.db,
            &self.constraints,
            level,
        )?;
        Ok(PreparedStmt {
            sql: prepared.sql,
            schema: prepared.schema,
            param_count,
            canonical: prepared.expr,
            level,
            plan: std::sync::Mutex::new(StmtPlan { expr, epoch }),
        })
    }

    /// Run the rewriter over a prepared plan (through the plan cache:
    /// repeated rewrites of the same canonical plan return the cached
    /// outcome, lowered plan included) at the DBMS's current
    /// optimization level ([`EvalOptions::opt_level`], the
    /// `EDS_OPT_LEVEL` knob).
    pub fn rewrite(&self, prepared: &Prepared) -> CoreResult<RewriteOutcome> {
        self.rewrite_expr(&prepared.expr)
    }

    /// Run the rewriter over a prepared plan, bypassing the plan cache —
    /// for benchmarking the rewriter itself. Honors the current
    /// optimization level.
    pub fn rewrite_uncached(&self, prepared: &Prepared) -> CoreResult<RewriteOutcome> {
        let term = expr_to_term(&prepared.expr);
        let level = self.eval_options.opt_level;
        self.rewriter
            .run(term, &self.db, &self.constraints, level, false)
    }

    /// Rewrite a plan at the current optimization level through the
    /// plan cache.
    fn rewrite_expr(&self, expr: &Expr) -> CoreResult<RewriteOutcome> {
        let level = self.eval_options.opt_level;
        self.rewriter
            .rewrite_term_leveled(expr_to_term(expr), &self.db, &self.constraints, level)
    }

    /// Translate → rewrite → run one parsed query: everything
    /// [`Dbms::query`] and [`Dbms::execute`] do after parsing. The plan
    /// evaluated is the cache's, lowered when the strategy ran.
    fn run_query(&self, query: &eds_esql::Query) -> CoreResult<Relation> {
        let (expr, _) = translate_query(query, &SchemaCtx::new(&self.db.catalog))?;
        self.run_expr(&self.rewrite_expr(&expr)?.expr)
    }

    /// Evaluate a plan.
    pub fn run_expr(&self, expr: &Expr) -> CoreResult<Relation> {
        Ok(eval_with(expr, &self.db, self.eval_options)?.0)
    }

    /// Evaluate a plan, returning work counters.
    pub fn run_expr_with_stats(&self, expr: &Expr) -> CoreResult<(Relation, EvalStats)> {
        Ok(eval_with(expr, &self.db, self.eval_options)?)
    }

    /// Full pipeline: parse → translate → rewrite → execute. The
    /// result's columns are positional; [`Dbms::prepare`] names them
    /// (see [`PreparedStmt::execute`]).
    pub fn query(&self, sql: &str) -> CoreResult<Relation> {
        self.run_query(&parse_query(sql)?)
    }

    /// Execute the canonical (unrewritten) plan — the baseline.
    pub fn query_unoptimized(&self, sql: &str) -> CoreResult<Relation> {
        let prepared = self.prepare(sql)?;
        self.run_expr(&prepared.expr)
    }

    /// The DBMS's current optimization level.
    pub fn opt_level(&self) -> OptLevel {
        self.eval_options.opt_level
    }

    /// Change the optimization level for subsequent queries and
    /// prepares. Already-prepared statements keep the level they were
    /// prepared at.
    pub fn set_opt_level(&mut self, level: OptLevel) {
        self.eval_options.opt_level = level;
    }

    /// Human-readable before/after explanation of a query's rewrite at
    /// the DBMS's current optimization level, including the
    /// rule-application trace and — under [`OptLevel::Full`] — the
    /// candidate-exploration summary.
    pub fn explain(&self, sql: &str) -> CoreResult<String> {
        let level = self.eval_options.opt_level;
        let prepared = self.prepare(sql)?;
        let term = expr_to_term(&prepared.expr);
        let rewritten = self
            .rewriter
            .run(term, &self.db, &self.constraints, level, true)?;
        let mut out = String::new();
        out.push_str(&format!("-- opt level: {level} --\n"));
        out.push_str("-- canonical plan --\n");
        out.push_str(&eds_lera::pretty(&prepared.expr));
        out.push_str("-- rewritten plan --\n");
        out.push_str(&eds_lera::pretty(&rewritten.expr));
        out.push_str(&format!(
            "-- {} rule applications, {} condition checks --\n",
            rewritten.stats.applications, rewritten.stats.condition_checks
        ));
        if let Some(ex) = rewritten.exploration {
            match ex.runner_up_cost {
                Some(runner_up) => out.push_str(&format!(
                    "-- considered {} candidates, chose plan with est. cost {:.0} (runner-up {:.0}) --\n",
                    ex.considered, ex.chosen_cost, runner_up
                )),
                None => out.push_str(&format!(
                    "-- considered {} candidates, chose plan with est. cost {:.0} --\n",
                    ex.considered, ex.chosen_cost
                )),
            }
        }
        for event in rewritten.trace.events() {
            out.push_str(&format!("{event}\n"));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A peer that panics while holding a statement's plan lock poisons
    /// it; `execute` recovers the (never torn) plan instead of
    /// panicking in turn — on the hot path and on the refresh path.
    #[test]
    fn execute_recovers_a_poisoned_plan_lock() {
        let mut dbms = Dbms::new().unwrap();
        dbms.execute_ddl("TABLE T (X : INT);").unwrap();
        dbms.insert_all("T", (0..4i64).map(|i| vec![i.into()]))
            .unwrap();
        let stmt = dbms.prepare_stmt("SELECT X FROM T WHERE X < ? ;").unwrap();
        let peer = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = stmt.plan.lock().unwrap();
                panic!("peer panics holding the plan lock");
            })
            .join()
        });
        assert!(peer.is_err() && stmt.plan.is_poisoned());
        assert_eq!(stmt.execute(&dbms, &[2.into()]).unwrap().len(), 2);
        // Stale epoch: the re-rewrite stores through the same lock.
        dbms.add_rule_source("StmtNoop : f AND TRUE / --> f / ;")
            .unwrap();
        assert_eq!(stmt.execute(&dbms, &[3.into()]).unwrap().len(), 3);
        assert_eq!(
            stmt.plan
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .epoch,
            dbms.rewriter.invalidation_epoch()
        );
    }
}
