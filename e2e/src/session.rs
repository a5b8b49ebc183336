//! One client's session and the three ways an operation runs on it:
//!
//! * [`Session::facade`] — the call a user makes (`Dbms::query`,
//!   `PreparedStmt::execute`, …). End-to-end metrics time only this.
//! * [`Session::staged`] — the same work as a chain of the layers'
//!   public functions, one span per call. Per-layer metrics come from
//!   here, and its rows must equal the facade's.
//! * [`Session::reference`] — queries answered by the seed interpreter
//!   on the **unrewritten** plan: the correctness oracle, which shares
//!   no rewriting or compiled execution with the path under test.

use std::sync::Arc;
use std::time::{Duration, Instant};

use eds_adt::Value;
use eds_core::{ConstraintStore, CoreResult, Dbms, PreparedStmt, QueryRewriter};
use eds_engine::{
    eval_reference, eval_with, eval_with_params, Database, EvalOptions, EvalStats, OptLevel,
    Relation, Row,
};
use eds_esql::{parse_query, parse_statements, Stmt};
use eds_lera::{expr_from_term, expr_to_term, translate_query, CostModel, Expr, SchemaCtx};
use eds_rewrite::RewriteStats;

use crate::gen::literal_sql;
use crate::trace::{c, Counts, Tracer};

/// What an operation does. Texts and values are generated inputs; the
/// program under test sees nothing else of the benchmark.
#[derive(Debug, Clone)]
pub enum Action {
    /// An ad-hoc query text through the whole pipeline.
    Query(String),
    /// Execute prepared statement `stmt` with a bind array.
    Exec { stmt: usize, binds: Vec<Value> },
    /// Replace the session's DBMS with a fresh one (built-in rules).
    Open,
    /// Install DDL (types, tables, views).
    Ddl(String),
    /// Bulk-load rows into a table.
    Load { table: &'static str, rows: Vec<Row> },
    /// Prepare a `?`-parameterized statement; it becomes the session's
    /// next statement index.
    Prepare(String),
    /// A single-row `INSERT` statement text.
    Insert(String),
    /// A batch of user rules through the lint gate.
    AddRule(String),
    /// Declare an integrity constraint.
    AddConstraint(String),
}

#[derive(Debug, Clone)]
pub struct Op {
    /// Statement kind: the name latency is reported under.
    pub kind: &'static str,
    pub action: Action,
    /// Slot in the runner's table of verified row counts, for operations
    /// drawn from a finite pool.
    pub check: Option<usize>,
}

/// The staged path's stand-in for a [`PreparedStmt`]: the plan and the
/// invalidation epoch it was rewritten under.
#[derive(Debug)]
struct StagedStmt {
    canonical: Expr,
    plan: Arc<Expr>,
    epoch: u64,
    level: OptLevel,
}

#[derive(Debug)]
pub struct Session {
    pub dbms: Dbms,
    /// Statement texts by index, as prepared.
    sqls: Vec<String>,
    prepared: Vec<Option<PreparedStmt>>,
    staged: Vec<Option<StagedStmt>>,
}

/// A DBMS with the built-in knowledge base and library-default options
/// — what `Dbms::new()` builds when no `EDS_*` variable is set — with
/// the knowledge-base load as its own span.
pub fn open_dbms(tr: &mut Tracer) -> CoreResult<Dbms> {
    let s = tr.enter("rewrite.kb_load");
    let rewriter = QueryRewriter::with_default_rules();
    tr.exit(s);
    Ok(Dbms {
        db: Database::new(),
        rewriter: rewriter?,
        constraints: ConstraintStore::new(),
        eval_options: EvalOptions::default(),
    })
}

/// A cardinality-only cost model. The harness does not ask the engine
/// for its sketches: that would build statistics the program had not
/// built by itself and change what later inserts must maintain.
fn card_model(db: &Database) -> CostModel {
    let mut model = CostModel::new();
    for name in db.catalog.table_names() {
        if let Some(card) = db.cardinality(name) {
            model.set_card(name, card as f64);
        }
    }
    model
}

/// `parse_statements` as a span, with the text's size counted.
fn staged_parse(src: &str, tr: &mut Tracer, counts: &mut Counts) -> CoreResult<Vec<Stmt>> {
    let s = tr.enter("esql.parse");
    let stmts = parse_statements(src);
    tr.exit(s);
    counts.0[c::STMT_BYTES] += src.len() as u64;
    counts.0[c::PARSES] += 1;
    Ok(stmts?)
}

fn add_eval(counts: &mut Counts, stats: EvalStats, rel: &Relation) {
    counts.0[c::EVALS] += 1;
    counts.0[c::ROWS_EMITTED] += stats.rows_emitted;
    counts.0[c::COMBINATIONS] += stats.combinations_tried;
    counts.0[c::FIX_ITERATIONS] += stats.fix_iterations;
    counts.0[c::RESULT_ROWS] += rel.len() as u64;
}

impl Session {
    pub fn new(dbms: Dbms) -> Session {
        Session {
            dbms,
            sqls: Vec::new(),
            prepared: Vec::new(),
            staged: Vec::new(),
        }
    }

    fn push_stmt(&mut self, sql: &str, p: Option<PreparedStmt>, s: Option<StagedStmt>) {
        self.sqls.push(sql.to_owned());
        self.prepared.push(p);
        self.staged.push(s);
    }

    /// Run `op` the way a user would; returns the query result, if the
    /// operation is a query, and the time the call took.
    pub fn facade(&mut self, op: &Op) -> (CoreResult<Option<Relation>>, Duration) {
        // Inputs an operation consumes are copied before the clock starts.
        let rows = match &op.action {
            Action::Load { rows, .. } => rows.clone(),
            _ => Vec::new(),
        };
        let t = Instant::now();
        let out = self.facade_untimed(op, rows);
        (out, t.elapsed())
    }

    fn facade_untimed(&mut self, op: &Op, rows: Vec<Row>) -> CoreResult<Option<Relation>> {
        match &op.action {
            Action::Query(sql) => self.dbms.query(sql).map(Some),
            Action::Exec { stmt, binds } => {
                let p = self.prepared[*stmt]
                    .as_ref()
                    .expect("statement was prepared through the facade");
                p.execute(&self.dbms, binds).map(Some)
            }
            Action::Open => {
                *self = Session::new(Dbms::new()?);
                Ok(None)
            }
            Action::Ddl(src) => self.dbms.execute_ddl(src).map(|_| None),
            Action::Load { table, .. } => self.dbms.insert_all(table, rows).map(|()| None),
            Action::Prepare(sql) => {
                let p = self.dbms.prepare_stmt(sql)?;
                self.push_stmt(sql, Some(p), None);
                Ok(None)
            }
            Action::Insert(sql) => self.dbms.execute(sql).map(|_| None),
            Action::AddRule(src) => self.dbms.add_rule_source(src).map(|_| None),
            Action::AddConstraint(src) => self.dbms.add_constraint_source(src).map(|_| None),
        }
    }

    /// Run `op` with queries answered by the reference interpreter on
    /// the canonical plan; everything else as the facade does it, so the
    /// stored data follows the script.
    pub fn reference(&mut self, op: &Op) -> CoreResult<Option<Relation>> {
        let sql = match &op.action {
            Action::Query(sql) => sql.clone(),
            Action::Exec { stmt, binds } => literal_sql(&self.sqls[*stmt], binds),
            Action::Prepare(sql) => {
                self.push_stmt(sql, None, None);
                return Ok(None);
            }
            _ => return self.facade(op).0,
        };
        let canonical = self.dbms.prepare(&sql)?;
        let opts = self.dbms.eval_options;
        Ok(Some(eval_reference(&canonical.expr, &self.dbms.db, opts)?))
    }

    /// parse → translate: two spans, and the statement's size.
    fn staged_front(&self, sql: &str, tr: &mut Tracer, counts: &mut Counts) -> CoreResult<Expr> {
        let s = tr.enter("esql.parse");
        let query = parse_query(sql);
        tr.exit(s);
        counts.0[c::STMT_BYTES] += sql.len() as u64;
        counts.0[c::PARSES] += 1;
        let query = query?;
        let s = tr.enter("lera.translate");
        let translated = translate_query(&query, &SchemaCtx::new(&self.dbms.db.catalog));
        tr.exit(s);
        Ok(translated?.0)
    }

    /// Record one run of the rule kernel: what went in, what came out
    /// (term sizes, estimated cost) and the work it reports.
    fn note_kernel(
        &self,
        counts: &mut Counts,
        canonical: &Expr,
        plan: &Expr,
        (size_in, size_out): (usize, usize),
        stats: RewriteStats,
    ) {
        let model = card_model(&self.dbms.db);
        counts.0[c::KERNEL_RUNS] += 1;
        counts.0[c::TERM_SIZE_IN] += size_in as u64;
        counts.0[c::TERM_SIZE_OUT] += size_out as u64;
        counts.0[c::EST_COST_IN] += model.estimate(canonical).cost.round() as u64;
        counts.0[c::EST_COST_OUT] += model.estimate(plan).cost.round() as u64;
        counts.0[c::CHECKS] += stats.condition_checks;
        counts.0[c::APPLICATIONS] += stats.applications;
        counts.0[c::REJECTED] += stats.rejected;
    }

    /// Rewrite through the shape tier as `Dbms::prepare_stmt` and a
    /// stale `PreparedStmt` do: one span, since the tiers underneath
    /// cannot be entered separately from outside.
    fn staged_shape(
        &self,
        canonical: &Expr,
        level: OptLevel,
        name: &'static str,
        tr: &mut Tracer,
        counts: &mut Counts,
    ) -> CoreResult<Arc<Expr>> {
        let misses = self.dbms.rewriter.plan_cache_stats().misses;
        let s = tr.enter(name);
        let out = self.dbms.rewriter.rewrite_shape_leveled(
            canonical,
            &self.dbms.db,
            &self.dbms.constraints,
            level,
        );
        tr.exit(s);
        let (plan, stats, _) = out?;
        if self.dbms.rewriter.plan_cache_stats().misses > misses {
            let sizes = (expr_to_term(canonical).size(), expr_to_term(&plan).size());
            self.note_kernel(counts, canonical, &plan, sizes, stats);
        }
        Ok(plan)
    }

    /// Run `op` as a chain of public layer calls under one root span,
    /// with the program's own counters read before and after.
    pub fn staged(&mut self, op: &Op, tr: &mut Tracer) -> CoreResult<Option<Relation>> {
        let rows = match &op.action {
            Action::Load { rows, .. } => rows.clone(),
            _ => Vec::new(),
        };
        let mut counts = Counts::default();
        // `Open` replaces the rewriter, so its counters restart at zero.
        let before = match op.action {
            Action::Open => Default::default(),
            _ => self.dbms.rewriter.plan_cache_stats(),
        };
        let root = tr.begin_op(op.kind);
        let out = self.staged_untimed(op, rows, tr, &mut counts);
        let after = self.dbms.rewriter.plan_cache_stats();
        counts.0[c::TERM_HITS] += after.hits - before.hits;
        counts.0[c::TERM_MISSES] += after.misses - before.misses;
        counts.0[c::SHAPE_HITS] += after.shape_hits - before.shape_hits;
        counts.0[c::SHAPE_MISSES] += after.shape_misses - before.shape_misses;
        counts.0[c::EVICTIONS] += after.evictions - before.evictions;
        counts.0[c::INVALIDATIONS] += after.invalidations - before.invalidations;
        tr.end_op(root, counts);
        out
    }

    fn staged_untimed(
        &mut self,
        op: &Op,
        rows: Vec<Row>,
        tr: &mut Tracer,
        counts: &mut Counts,
    ) -> CoreResult<Option<Relation>> {
        match &op.action {
            Action::Query(sql) => {
                let canonical = self.staged_front(sql, tr, counts)?;
                let level = self.dbms.eval_options.opt_level;
                let s = tr.enter("lera.to_term");
                let term = expr_to_term(&canonical);
                tr.exit(s);
                let size_in = term.size();
                let misses = self.dbms.rewriter.plan_cache_stats().misses;
                let s = tr.enter("rewrite.kernel");
                let rewritten = self.dbms.rewriter.rewrite_term_leveled(
                    term,
                    &self.dbms.db,
                    &self.dbms.constraints,
                    level,
                );
                let missed = self.dbms.rewriter.plan_cache_stats().misses > misses;
                tr.exit_as(
                    s,
                    if missed {
                        "rewrite.kernel"
                    } else {
                        "core.cache_hit"
                    },
                );
                let rewritten = rewritten?;
                let s = tr.enter("lera.from_term");
                let plan = expr_from_term(&rewritten.term);
                tr.exit(s);
                let plan = plan?;
                let s = tr.enter("engine.eval");
                let out = eval_with(&plan, &self.dbms.db, self.dbms.eval_options);
                tr.exit(s);
                let (rel, stats) = out?;
                add_eval(counts, stats, &rel);
                if missed {
                    let sizes = (size_in, rewritten.term.size());
                    self.note_kernel(counts, &canonical, &plan, sizes, rewritten.stats);
                }
                Ok(Some(rel))
            }
            Action::Exec { stmt, binds } => {
                if self.staged[*stmt].is_none() {
                    // Prepared through the facade during set-up: take the
                    // shared plan out of the shape tier, outside any span.
                    let canonical = self.dbms.prepare(&self.sqls[*stmt])?.expr;
                    let level = self.prepared[*stmt]
                        .as_ref()
                        .map_or(self.dbms.eval_options.opt_level, PreparedStmt::opt_level);
                    let epoch = self.dbms.rewriter.invalidation_epoch();
                    let (plan, _, _) = self.dbms.rewriter.rewrite_shape_leveled(
                        &canonical,
                        &self.dbms.db,
                        &self.dbms.constraints,
                        level,
                    )?;
                    self.staged[*stmt] = Some(StagedStmt {
                        canonical,
                        plan,
                        epoch,
                        level,
                    });
                }
                let epoch = self.dbms.rewriter.invalidation_epoch();
                let st = self.staged[*stmt].as_ref().expect("just filled");
                if st.epoch != epoch {
                    let plan =
                        self.staged_shape(&st.canonical, st.level, "core.refresh", tr, counts)?;
                    let st = self.staged[*stmt].as_mut().expect("just filled");
                    st.plan = plan;
                    st.epoch = epoch;
                }
                let st = self.staged[*stmt].as_ref().expect("just filled");
                let s = tr.enter("engine.eval");
                let out = eval_with_params(&st.plan, &self.dbms.db, self.dbms.eval_options, binds);
                tr.exit(s);
                let (rel, stats) = out?;
                add_eval(counts, stats, &rel);
                Ok(Some(rel))
            }
            Action::Open => {
                // Opening a session closes the previous one; freeing its
                // tables and caches is part of what the facade's call pays.
                let previous = std::mem::replace(self, Session::new(open_dbms(tr)?));
                let s = tr.enter("engine.close");
                drop(previous);
                tr.exit(s);
                Ok(None)
            }
            Action::Ddl(src) => {
                let stmts = staged_parse(src, tr, counts)?;
                let s = tr.enter("core.invalidate");
                self.dbms.rewriter.invalidate_plan_cache();
                tr.exit(s);
                let s = tr.enter("engine.ddl");
                let out = stmts
                    .iter()
                    .try_for_each(|st| self.dbms.db.install_stmt(st));
                tr.exit_units(s, stmts.len() as u64);
                out?;
                Ok(None)
            }
            Action::Load { table, .. } => {
                let n = rows.len() as u64;
                let s = tr.enter("engine.load");
                let out = self.dbms.db.insert_all(table, rows);
                tr.exit_units(s, n);
                out?;
                Ok(None)
            }
            Action::Prepare(sql) => {
                let canonical = self.staged_front(sql, tr, counts)?;
                let epoch = self.dbms.rewriter.invalidation_epoch();
                let level = self.dbms.eval_options.opt_level;
                let plan =
                    self.staged_shape(&canonical, level, "core.prepare_shape", tr, counts)?;
                let st = StagedStmt {
                    canonical,
                    plan,
                    epoch,
                    level,
                };
                self.push_stmt(sql, None, Some(st));
                Ok(None)
            }
            Action::Insert(sql) => {
                let stmts = staged_parse(sql, tr, counts)?;
                let s = tr.enter("engine.insert");
                let out = stmts.iter().try_for_each(|st| match st {
                    Stmt::Insert(ins) => self.dbms.db.execute_insert(ins).map(|_| ()),
                    other => panic!("the insert generator produced {other:?}"),
                });
                tr.exit(s);
                out?;
                Ok(None)
            }
            Action::AddRule(src) => {
                let s = tr.enter("rewrite.add_rules");
                let out = self.dbms.add_rule_source(src);
                tr.exit(s);
                out.map(|_| None)
            }
            Action::AddConstraint(src) => {
                let s = tr.enter("core.add_constraint");
                let out = self.dbms.add_constraint_source(src);
                tr.exit(s);
                out.map(|_| None)
            }
        }
    }
}
