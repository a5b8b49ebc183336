//! Evaluation of LERA plans.
//!
//! The compound `search` — select, project and join in one operator,
//! what the merging rules exist to produce — is evaluated for what its
//! qualification allows: each input is pre-selected by the conjuncts
//! that read it alone, inputs join left-deep in the order written
//! through a slot array over one `INT` key's span or a table of key
//! hashes wherever equalities link the next one, and combinations
//! stream depth-first into the target list without being materialised;
//! each conjunct is decided once, at pre-selection, at the probe or on
//! the complete combination. Join *order* and everything above the
//! operator stay the rewriter's business. The paper's baseline — the
//! cross product with a post-filter, under which the work counters read
//! the logical quality of a plan directly — is not executed: its work is
//! the product of the input sizes, which every run reports beside its
//! own ([`EvalStats::cross_product`]). Around the operator:
//!
//! * qualifications and projection targets are lowered once per operator
//!   into [`CompiledScalar`] programs that borrow from input rows and the
//!   object store instead of re-walking the `Scalar` AST and cloning per
//!   tuple;
//! * rows are shared ([`SharedRow`], a view into a reference-counted
//!   block, or one plain value held inline), so row-preserving operators
//!   pass rows along instead of deep-copying values, and the rows an
//!   operator builds are cut from one block per
//!   [`BLOCK_ROWS`](crate::relation::BLOCK_ROWS) rows (`RowBlocks`) —
//!   one allocation per block, not per row; a fixpoint's locals are read
//!   by refcount, not copied;
//! * set semantics are kept at the sink: `dedup`, the left operand of
//!   `difference` / `intersect` and the semi-naive delta evaluate a
//!   `search` whose sink drops a row the caller already has, or one it
//!   already produced, *before* allocating it — over a columnar mirror
//!   by the projected columns' codes, without building a `Value`, or for
//!   one `Int` column whose zone span is dense in the selection by a
//!   bitmap over the span — and count it as emitted all the same. The
//!   rows come out in no promised order: every caller sorts them;
//! * every operator runs on the calling thread, one pass over its input
//!   into one sink (DESIGN §4, "One lane").
//!
//! The original per-tuple tree-walking interpreter is preserved verbatim
//! in [`crate::reference`] for differential testing.

use std::borrow::{Borrow, Cow};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::Arc;

use eds_adt::{CollKind, Value};
use eds_esql::Catalog;
use eds_lera::{
    infer_scalar_type, nest_schema, search_schema, unnest_schema, Expr, LeraError, Scalar, Schema,
    SchemaCtx,
};

use crate::columnar::{CodedRow, Column, ColumnarRelation, DenseKey};
use crate::compile::{
    CompiledPred, CompiledProj, CompiledScalar, EvalEnv, LocalPred, Preselected, Residual,
};
use crate::database::Database;
use crate::error::{EngineError, EngineResult};
use crate::fixpoint::eval_fix;
use crate::hash::{Fold, FoldMap, FoldSet};
use crate::relation::{shared_row, Relation, Row, RowBlocks, SharedRow};

/// How hard the rewriter works before a statement reaches the executor.
///
/// The engine itself does not consult this — it evaluates whatever plan
/// it is handed — but the option rides in [`EvalOptions`] because that
/// is the session's option bag: the `Dbms` facade in `eds-core` reads it
/// to decide between skipping rewrite (`None`, trivial statements only),
/// the paper's syntactic saturation (`Simple`), and cost-guided
/// candidate exploration (`Full`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// Skip rewriting for trivial statements (single stored-table scans
    /// with no derived relations); everything else falls back to
    /// `Simple` — correctness must not depend on the level.
    None,
    /// Syntactic saturation: run every rule block to its fixpoint and
    /// keep whatever falls out (the paper's behavior, today's default).
    #[default]
    Simple,
    /// `Simple` plus cost-guided exploration: keep candidate rewrites at
    /// choice-point blocks, score them with the cardinality-backed cost
    /// model, emit the cheapest.
    Full,
}

impl OptLevel {
    /// Parse `none`/`simple`/`full` (case-insensitive).
    pub fn parse(s: &str) -> Option<OptLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "none" | "0" => Some(OptLevel::None),
            "simple" | "1" => Some(OptLevel::Simple),
            "full" | "2" => Some(OptLevel::Full),
            _ => None,
        }
    }

    /// Level name as accepted by [`OptLevel::parse`].
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::None => "none",
            OptLevel::Simple => "simple",
            OptLevel::Full => "full",
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Evaluation options.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Safety bound on fixpoint rounds: a `fix` that is still growing
    /// after this many is [`EngineError::FixpointDiverged`]. Defaults to
    /// 100 000.
    pub max_iterations: usize,
    /// Read by nothing; kept for `e2e`'s side pass until ROADMAP item
    /// 9(a) deletes it.
    pub parallelism: usize,
    /// Use columnar mirrors of stored base tables where the operator
    /// and predicate shapes allow it: a one-input `search` qualification
    /// whose conjuncts all lower to typed kernels runs over contiguous
    /// columns and gathers surviving rows from the shared row store, and
    /// so does the pre-selection of a join input by its local conjuncts.
    /// Results, result order, work counters and errors are identical to
    /// the row path (differential-tested); defaults to on.
    pub columnar: bool,
    /// Rewriter effort for statements evaluated through this option bag
    /// (see [`OptLevel`]); read by the `Dbms` facade, not the executor.
    pub opt_level: OptLevel,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            max_iterations: 100_000,
            parallelism: 1,
            columnar: true,
            opt_level: OptLevel::default(),
        }
    }
}

/// Work counters, for the benchmark harness. Only `search` and `join`
/// count combinations: a `filter` or `project` counts 0 in both join
/// counters, and so does a `search` whose qualification is FALSE or one
/// of whose inputs is empty.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Rows produced by all operators (intermediate + final).
    pub rows_emitted: u64,
    /// Combinations the executor examined. One input: its rows. Two or
    /// more: the first input's survivors of its local conjuncts plus
    /// every candidate a later step enumerated (a slot array's key
    /// matches, a hashed table's hash matches, a cross step's survivors)
    /// — a property of the executor as much as of the plan.
    pub combinations_tried: u64,
    /// The same operators' *logical* work: the product of their input
    /// sizes (saturating), the combinations the paper's baseline — a
    /// cross product with a post-filter — would examine. It reads the
    /// plan, not the executor, so it is what a comparison of two plans
    /// reads (the F7–F12 tables of `EXPERIMENTS.md`).
    pub cross_product: u64,
    /// Fixpoint iterations executed.
    pub fix_iterations: u64,
}

impl EvalStats {
    fn add_search(&mut self, work: Work) {
        self.combinations_tried += work.tried;
        self.cross_product = self.cross_product.saturating_add(work.cross_product);
    }
}

/// What one `search` counts: the combinations its executor examined and
/// the size of its inputs' cross product.
#[derive(Default)]
struct Work {
    tried: u64,
    cross_product: u64,
}

/// Read by nothing; kept for `e2e`'s side pass until ROADMAP item 9(a)
/// deletes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Always 0.
    pub morsels_dispatched: u64,
    /// Always 0.
    pub parallel_runs: u64,
}

/// Read by nothing; kept for `e2e`'s side pass until ROADMAP item 9(a)
/// deletes it. Returns [`ParallelStats::default`].
pub fn parallel_stats() -> ParallelStats {
    ParallelStats::default()
}

/// Does nothing. Read by nothing; kept for `e2e`'s side pass until
/// ROADMAP item 9(a) deletes it.
pub fn shutdown_pool() {}

/// Evaluate a plan against a database.
pub fn eval(expr: &Expr, db: &Database) -> EngineResult<Relation> {
    eval_with(expr, db, EvalOptions::default()).map(|(r, _)| r)
}

/// Evaluate with options, returning work counters.
pub fn eval_with(
    expr: &Expr,
    db: &Database,
    opts: EvalOptions,
) -> EngineResult<(Relation, EvalStats)> {
    eval_with_params(expr, db, opts, &[])
}

/// Evaluate a plan containing `?` statement parameters against a bind
/// array: `Scalar::Param(i)` resolves to `params[i]`. The plan itself is
/// bind-independent — prepared statements evaluate the same cached plan
/// with a different array each execution.
pub fn eval_with_params(
    expr: &Expr,
    db: &Database,
    opts: EvalOptions,
    params: &[Value],
) -> EngineResult<(Relation, EvalStats)> {
    let mut ctx = Ctx::new(db, opts);
    ctx.params = params;
    let rel = eval_expr(expr, &mut ctx)?;
    Ok((rel, ctx.stats))
}

/// Evaluate a constant scalar (no attribute references) against a
/// database — used for `INSERT ... VALUES` expressions. The program runs
/// over no input tuples, so a stray attribute reference or `?` is a
/// typed error.
pub fn eval_const_scalar(s: &Scalar, db: &Database) -> EngineResult<Value> {
    let bound = bind_fields(s, &[] as &[Schema], &db.catalog)?;
    let env = EvalEnv::of(db);
    CompiledScalar::compile(&bound, &env).eval_owned(&[], &env)
}

/// Evaluation context: database, options, fixpoint locals, counters.
pub(crate) struct Ctx<'a> {
    /// The database.
    pub(crate) db: &'a Database,
    /// Options.
    pub(crate) opts: EvalOptions,
    /// Relations bound to recursion variables, shared with the operator
    /// inputs that read them.
    pub(crate) locals: HashMap<String, Arc<Relation>>,
    /// Work counters.
    pub(crate) stats: EvalStats,
    /// Bind array for `?` statement parameters (empty for ad-hoc
    /// queries).
    pub(crate) params: &'a [Value],
}

impl Ctx<'_> {
    /// A context over a database with no locals bound.
    pub(crate) fn new(db: &Database, opts: EvalOptions) -> Ctx<'_> {
        Ctx {
            db,
            opts,
            locals: HashMap::new(),
            stats: EvalStats::default(),
            params: &[],
        }
    }

    /// The relation bound to recursion variable `name`, if any. Locals
    /// are keyed by the upper-case name, folded once where the fixpoint
    /// binds them; a name already in that form is one probe, any other
    /// is compared case-blind against the few names bound — neither
    /// allocates.
    pub(crate) fn local(&self, name: &str) -> Option<&Arc<Relation>> {
        if self.locals.is_empty() {
            return None;
        }
        self.locals.get(name).or_else(|| {
            self.locals
                .iter()
                .find_map(|(k, rel)| k.eq_ignore_ascii_case(name).then_some(rel))
        })
    }
}

/// Columnar mirror backing `input` — the one mirror source: the
/// database-cached mirror of a stored base table. `None` when the
/// option is off, the input is anything but a stored table scan
/// (fixpoint locals shadow stored tables and never columnarize — their
/// rows change every iteration), the table is not column-friendly, or
/// the mirror's row count does not match the relation the caller just
/// evaluated (defense in depth: a stale mirror must never be consulted).
fn base_columnar(input: &Expr, ctx: &Ctx<'_>, expect_len: usize) -> Option<Arc<ColumnarRelation>> {
    if !ctx.opts.columnar {
        return None;
    }
    let Expr::Base(name) = input else { return None };
    if ctx.local(name).is_some() {
        return None;
    }
    let cols = ctx.db.columnar(name)?;
    (cols.len() == expect_len).then_some(cols)
}

/// An operator input, read without copying its row vector where it
/// already exists: a stored table is borrowed from the database, a
/// fixpoint local is shared by refcount (its binding changes between
/// rounds, so it cannot be borrowed across them), and anything else is
/// evaluated for the operator.
enum Input<'db> {
    Stored(&'db Relation),
    Local(Arc<Relation>),
    Evaluated(Relation),
}

impl std::ops::Deref for Input<'_> {
    type Target = Relation;

    fn deref(&self) -> &Relation {
        match self {
            Input::Stored(rel) => rel,
            Input::Local(rel) => rel,
            Input::Evaluated(rel) => rel,
        }
    }
}

/// Evaluate an operator input. A scan over a stored table or a fixpoint
/// local would otherwise pay one refcount round trip per row before
/// reading anything; every other shape evaluates through [`eval_expr`]
/// as usual.
fn eval_input<'db>(input: &Expr, ctx: &mut Ctx<'db>) -> EngineResult<Input<'db>> {
    if let Expr::Base(name) = input {
        if let Some(rel) = ctx.local(name) {
            return Ok(Input::Local(Arc::clone(rel)));
        }
        if let Some(rel) = ctx.db.relation(name) {
            return Ok(Input::Stored(rel));
        }
    }
    eval_expr(input, ctx).map(Input::Evaluated)
}

/// Evaluate an expression in a context.
pub(crate) fn eval_expr(expr: &Expr, ctx: &mut Ctx<'_>) -> EngineResult<Relation> {
    match expr {
        Expr::Base(name) => {
            if let Some(rel) = ctx.local(name) {
                return Ok(Relation::clone(rel));
            }
            if let Some(rel) = ctx.db.relation(name) {
                return Ok(rel.clone());
            }
            Err(EngineError::UnknownRelation(name.to_owned()))
        }
        Expr::Filter { .. } | Expr::Project { .. } | Expr::Join { .. } | Expr::Search { .. } => {
            eval_into(expr, ctx, Bag::default())
        }
        Expr::Union(items) => {
            let mut out: Option<Relation> = None;
            for item in items {
                let rel = eval_expr(item, ctx)?;
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
        Expr::Difference(a, b) | Expr::Intersect(a, b) => {
            let mut ra = eval_set(a, &FoldSet::default(), ctx)?;
            let rb = eval_input(b, ctx)?;
            if ra.schema.arity() != rb.schema.arity() {
                return Err(EngineError::Lera(LeraError::Type(format!(
                    "{} arity mismatch",
                    expr.op_name()
                ))));
            }
            let other: FoldSet<&[Value]> = rb.rows.iter().map(|r| &**r).collect();
            let intersect = matches!(expr, Expr::Intersect(..));
            ra.rows.retain(|r| other.contains(&**r) == intersect);
            ra.rows.sort_unstable();
            Ok(ra)
        }
        Expr::Fix { name, body } => eval_fix(name, body, ctx),
        Expr::Nest {
            input,
            group,
            nested,
            kind,
        } => {
            if let Some(out) = fused_scan_nest(expr, ctx)? {
                return Ok(out);
            }
            let rel = eval_input(input, ctx)?;
            let mut out = Relation::empty(nest_schema(&rel.schema, group, nested, *kind)?);
            let item_of = |row: &SharedRow| {
                if nested.len() == 1 {
                    row[nested[0] - 1].clone()
                } else {
                    Value::Tuple(nested.iter().map(|&n| row[n - 1].clone()).collect())
                }
            };
            // Keys are *borrowed* from the input rows (no per-row key
            // allocation or deep clone); the dominant single-attribute
            // GROUP BY hashes the bare value.
            if let [g] = group[..] {
                let pairs = rel.rows.iter().map(|row| (&row[g - 1], item_of(row)));
                emit_groups(pairs, |k| vec![k.clone()], *kind, &mut out, &mut ctx.stats);
            } else {
                let pairs = rel.rows.iter().map(|row| {
                    let key: Vec<&Value> = group.iter().map(|&g| &row[g - 1]).collect();
                    (key, item_of(row))
                });
                let key_row = |k: Vec<&Value>| k.into_iter().cloned().collect();
                emit_groups(pairs, key_row, *kind, &mut out, &mut ctx.stats);
            }
            Ok(out)
        }
        Expr::Unnest { input, attr } => {
            let rel = eval_input(input, ctx)?;
            let out_schema = unnest_schema(&rel.schema, *attr, &SchemaCtx::new(&ctx.db.catalog))?;
            let mut out = Relation::empty(out_schema);
            for row in &rel.rows {
                let (_, elems) = row[attr - 1].as_coll().map_err(EngineError::Adt)?;
                for elem in elems {
                    let mut new_row = row.to_vec();
                    new_row[attr - 1] = elem.clone();
                    out.push(new_row);
                    ctx.stats.rows_emitted += 1;
                }
            }
            Ok(out)
        }
        // The sink hands back no repeats; the sort gives the canonical
        // order.
        Expr::Dedup(input) => {
            let mut rel = eval_set(input, &FoldSet::default(), ctx)?;
            rel.rows.sort_unstable();
            Ok(rel)
        }
    }
}

/// Evaluate `expr` as a set less the rows of `known`: no row of the
/// result is in `known`, and none repeats. Their order is not promised —
/// key order where a gather addressed a dense `Int` span, first
/// occurrence elsewhere — so the caller sorts. A `filter` / `project` /
/// `join` / `search` fills a set-mode sink, so a dropped row is never
/// allocated; any other operator is evaluated as a bag and then filtered
/// the same way. Work counters read as under [`eval_expr`]: a dropped
/// row still counts as emitted.
pub(crate) fn eval_set(
    expr: &Expr,
    known: &FoldSet<SharedRow>,
    ctx: &mut Ctx<'_>,
) -> EngineResult<Relation> {
    eval_into(expr, ctx, Distinct::new(known))
}

/// The result rows of a search operator, into `sink`.
/// `filter`, `project` and `join` are `search` restricted to an identity
/// target list, a TRUE qualification, or two inputs — the `normalize`
/// block rewrites all three into it — so they evaluate through it. Only
/// `search` (and `join`, which is one) reports its [`Work`]. Any other
/// operator is evaluated as a bag and its rows pass through one sink
/// ([`Sink::settle`]).
fn eval_into<S: Sink>(expr: &Expr, ctx: &mut Ctx<'_>, sink: S) -> EngineResult<Relation> {
    let (rel, work) = match expr {
        Expr::Filter { input, pred } => (
            eval_search(&[input], pred, None, ctx, sink)?.0,
            Work::default(),
        ),
        Expr::Project { input, exprs } => {
            let (rel, _) = eval_search(&[input], &Scalar::true_(), Some(exprs), ctx, sink)?;
            (rel, Work::default())
        }
        Expr::Join { left, right, pred } => eval_search(&[left, right], pred, None, ctx, sink)?,
        Expr::Search { inputs, pred, proj } => {
            let inputs: Vec<&Expr> = inputs.iter().collect();
            eval_search(&inputs, pred, Some(proj), ctx, sink)?
        }
        other => {
            let mut rel = eval_expr(other, ctx)?;
            rel.rows = sink.settle(rel.rows);
            return Ok(rel);
        }
    };
    ctx.stats.add_search(work);
    Ok(rel)
}

/// Where a `search` puts its qualifying rows. Every kernel is generic
/// over it, so each mode compiles to its own loop and bag mode ([`Bag`])
/// is a plain push, with no per-row test of the mode.
trait Sink {
    /// Take the row whose values `scratch` holds, leaving it empty.
    fn keep(&mut self, scratch: &mut Row);
    /// Take an input row whole (an identity target list).
    fn forward(&mut self, row: &SharedRow);
    /// Take the selected rows `idxs` of a stored table through its
    /// mirror. A search offers through this alone, once, or through
    /// [`Sink::keep`] / [`Sink::forward`] alone.
    fn gather(&mut self, from: &Gather<'_>, idxs: &[u32]);
    /// The rows kept, and how many qualifying rows were offered —
    /// duplicates included: what `rows_emitted` counts.
    fn finish(self) -> (Vec<SharedRow>, u64);
    /// The rows of an operator that is not a search, evaluated as a
    /// bag, as this mode keeps them (nothing is counted).
    fn settle(self, rows: Vec<SharedRow>) -> Vec<SharedRow>;
}

/// Bag mode: every qualifying row, in order, the built ones cut from
/// shared blocks.
type Bag = RowBlocks;

impl Sink for Bag {
    #[inline]
    fn keep(&mut self, scratch: &mut Row) {
        self.push_values(scratch);
    }

    #[inline]
    fn forward(&mut self, row: &SharedRow) {
        self.push(row.clone());
    }

    fn gather(&mut self, from: &Gather<'_>, idxs: &[u32]) {
        self.reserve(idxs.len());
        if from.forward {
            for &i in idxs {
                self.push(from.rows[i as usize].clone());
            }
            return;
        }
        // An `Int` column holds only plain values: every row is inline.
        if let [column @ Column::Int { .. }] = from.columns[..] {
            for &i in idxs {
                self.push_inline(column.value(i as usize));
            }
            return;
        }
        let mut scratch: Row = Vec::with_capacity(from.columns.len());
        for &i in idxs {
            from.fill(i as usize, &mut scratch);
            self.push_values(&mut scratch);
        }
    }

    fn finish(self) -> (Vec<SharedRow>, u64) {
        let rows = self.into_rows();
        let offered = rows.len() as u64;
        (rows, offered)
    }

    fn settle(self, rows: Vec<SharedRow>) -> Vec<SharedRow> {
        rows
    }
}

/// Slots per selected row up to which a one-`Int`-column set-mode gather
/// marks a bitmap over the zone span rather than inserting codes into a
/// hash set (DESIGN §4, "Set semantics at the sink").
const DENSE_DISTINCT: usize = 64;

/// Slots per selected row up to which a fused `GROUP BY` on one `Int`
/// column finds a row's group through an array indexed by its slot in
/// the zone span rather than through a hash map (DESIGN §4, "Columnar
/// storage").
const DENSE_GROUP: usize = 8;

/// Set mode: a qualifying row the caller already has (`known`), or one
/// this sink already kept, is dropped before it is allocated — probed
/// as `&[Value]` (`SharedRow: Borrow<[Value]>`) straight from the
/// scratch buffer or the input row. A row offered one at a time is a
/// block of its own (or inline), because it enters `seen` as it arrives;
/// the rows of a gather share blocks.
struct Distinct<'k> {
    known: &'k FoldSet<SharedRow>,
    seen: FoldSet<SharedRow>,
    rows: RowBlocks,
    offered: u64,
}

impl<'k> Distinct<'k> {
    fn new(known: &'k FoldSet<SharedRow>) -> Distinct<'k> {
        Distinct {
            known,
            seen: FoldSet::default(),
            rows: RowBlocks::default(),
            offered: 0,
        }
    }

    fn is_new(&self, row: &[Value]) -> bool {
        !self.known.contains(row) && !self.seen.contains(row)
    }

    /// The one-`Int`-column gather over a dense span: each selected row
    /// sets the bit of its slot (or the NULL flag), and one row per set
    /// bit is built inline — NULL first, then the keys ascending — and
    /// checked against `known`.
    fn gather_dense(&mut self, key: &DenseKey<'_>, idxs: &[u32]) {
        let mut marks = vec![0u64; key.slots.div_ceil(64)];
        let mut null = false;
        for &i in idxs {
            match key.slot(i as usize) {
                Some(s) => marks[s / 64] |= 1 << (s % 64),
                None => null = true,
            }
        }
        let kept = marks.iter().map(|w| w.count_ones() as usize).sum::<usize>() + null as usize;
        self.rows.reserve(kept);
        let mut keep = |v: Value| {
            if !self.known.contains(std::slice::from_ref(&v)) {
                self.rows.push_inline(v);
            }
        };
        if null {
            keep(Value::Null);
        }
        for (w, &word) in marks.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                keep(Value::Int(key.key(w * 64 + bits.trailing_zeros() as usize)));
                bits &= bits - 1;
            }
        }
    }
}

impl Sink for Distinct<'_> {
    fn keep(&mut self, scratch: &mut Row) {
        self.offered += 1;
        if !self.is_new(scratch) {
            scratch.clear();
            return;
        }
        let row = shared_row(scratch);
        self.seen.insert(row.clone());
        self.rows.push(row);
    }

    fn forward(&mut self, row: &SharedRow) {
        self.offered += 1;
        if self.is_new(row) {
            self.seen.insert(row.clone());
            self.rows.push(row.clone());
        }
    }

    /// Keyed on the target columns' codes: equal codes are equal values
    /// ([`Column::eq_at`]), so a repeat is found without building a
    /// `Value`, and only a first occurrence is built — or forwarded —
    /// and checked against `known`. The code set is this gather's
    /// `seen`, so a built row goes straight into a shared block. One
    /// `Int` target, built rather than forwarded, whose zone span holds
    /// at most [`DENSE_DISTINCT`] slots per selected row is marked in a
    /// bitmap instead ([`Distinct::gather_dense`]).
    fn gather(&mut self, from: &Gather<'_>, idxs: &[u32]) {
        self.offered += idxs.len() as u64;
        let dense = match (&from.columns[..], from.forward) {
            ([column], false) => column.dense_key(idxs, DENSE_DISTINCT),
            _ => None,
        };
        if let Some(key) = dense {
            self.gather_dense(&key, idxs);
            return;
        }
        let mut codes: FoldSet<CodedRow<'_>> = FoldSet::default();
        let mut scratch: Row = Vec::with_capacity(from.columns.len());
        for &i in idxs {
            let i = i as usize;
            if !codes.insert(CodedRow::new(&from.columns, i)) {
                continue;
            }
            if from.forward {
                let row = &from.rows[i];
                if !self.known.contains(&**row) {
                    self.rows.push(row.clone());
                }
            } else {
                from.fill(i, &mut scratch);
                if self.known.contains(&scratch[..]) {
                    scratch.clear();
                } else {
                    self.rows.push_values(&mut scratch);
                }
            }
        }
    }

    fn finish(self) -> (Vec<SharedRow>, u64) {
        (self.rows.into_rows(), self.offered)
    }

    fn settle(self, rows: Vec<SharedRow>) -> Vec<SharedRow> {
        let mut seen: FoldSet<&[Value]> =
            FoldSet::with_capacity_and_hasher(rows.len(), Fold::default());
        rows.iter()
            .filter(|r| !self.known.contains(&***r) && seen.insert(&***r))
            .cloned()
            .collect()
    }
}

/// The selected rows of a stored table, read through its mirror:
/// `columns` are the ones the target list copies, in target order. When
/// `forward`, they are the whole stored row, which is then passed along
/// by refcount rather than rebuilt.
struct Gather<'a> {
    rows: &'a [SharedRow],
    columns: Vec<&'a Column>,
    forward: bool,
}

impl Gather<'_> {
    /// Row `i`'s target values, into `scratch`.
    #[inline]
    fn fill(&self, i: usize, scratch: &mut Row) {
        scratch.extend(self.columns.iter().map(|c| c.value(i)));
    }
}

/// The compound `search` operator — the one select/project/join
/// implementation. `proj: None` emits every attribute of every input in
/// input order (`filter`, `join`). The qualifying rows go to `sink`.
/// Returns the result together with the work done; `rows_emitted` is
/// counted here, whether the work is counted is the calling operator's
/// decision.
fn eval_search<S: Sink>(
    inputs: &[&Expr],
    pred: &Scalar,
    proj: Option<&[Scalar]>,
    ctx: &mut Ctx<'_>,
    sink: S,
) -> EngineResult<(Relation, Work)> {
    let rels = inputs
        .iter()
        .map(|i| eval_input(i, ctx))
        .collect::<EngineResult<Vec<_>>>()?;
    let schemas: Vec<&Schema> = rels.iter().map(|r| &*r.schema).collect();
    let bound_pred = bind_fields(pred, &schemas, &ctx.db.catalog)?;
    let env = EvalEnv::with_params(ctx.db, ctx.params);
    let cpred = CompiledPred::compile(&bound_pred);
    let every_attr: Vec<Scalar>;
    let targets = match proj {
        Some(proj) => proj,
        None => {
            every_attr = (schemas.iter().zip(1..))
                .flat_map(|(s, rel)| (1..=s.arity()).map(move |attr| Scalar::attr(rel, attr)))
                .collect();
            &every_attr
        }
    };
    let cproj = targets
        .iter()
        .map(|e| bind_fields(e, &schemas, &ctx.db.catalog).map(|b| CompiledProj::compile(&b, &env)))
        .collect::<EngineResult<Vec<_>>>()?;
    // The output schema follows from the evaluated inputs' schemas —
    // nothing below this operator is inferred a second time. A `filter`
    // shares its input's.
    let out_schema = match (proj, &rels[..]) {
        (None, [rel]) => Arc::clone(&rel.schema),
        _ => Arc::new(search_schema(
            proj,
            &schemas,
            &SchemaCtx::new(&ctx.db.catalog),
        )?),
    };
    let mut out = Relation::empty(out_schema);

    // Short-circuit: a FALSE qualification or an empty input produces
    // no tuples without touching the cross product.
    if bound_pred.is_false() || rels.iter().any(|r| r.is_empty()) {
        return Ok((out, Work::default()));
    }
    let cross_product = rels
        .iter()
        .fold(1u64, |n, r| n.saturating_mul(r.len() as u64));
    let (sink, tried) = if let [rel] = &rels[..] {
        let sink = select_project(inputs[0], rel, &cpred, &cproj, &env, ctx, sink)?;
        (sink, rel.len() as u64)
    } else {
        streamed_join(inputs, &rels, &cpred, &cproj, &env, ctx, sink)?
    };
    let (rows, offered) = sink.finish();
    ctx.stats.rows_emitted += offered;
    out.rows = rows;
    Ok((
        out,
        Work {
            tried,
            cross_product,
        },
    ))
}

/// Evaluate the target list over one qualifying combination, into
/// `scratch`.
#[inline]
fn project_into(
    cproj: &[CompiledProj],
    tuple: &[&[Value]],
    env: &EvalEnv<'_>,
    scratch: &mut Row,
) -> EngineResult<()> {
    for p in cproj {
        scratch.push(p.eval_owned(tuple, env)?);
    }
    Ok(())
}

/// The one-input select-project kernel — every `filter`, `project` and
/// single-input `search` (what filter pushdown + projection merging
/// produce) runs here. Returns `sink` with the qualifying rows.
///
/// Columnar path: over a stored table whose qualification lowers fully
/// to typed kernels, the kernels compute a selection vector over the
/// columns and projection runs only over the selected rows. Otherwise
/// the compiled qualification runs row by row.
fn select_project<S: Sink>(
    input: &Expr,
    rel: &Relation,
    cpred: &CompiledPred<'_>,
    cproj: &[CompiledProj],
    env: &EvalEnv<'_>,
    ctx: &Ctx<'_>,
    mut sink: S,
) -> EngineResult<S> {
    let rows = &rel.rows;
    // Identity target list: every target copies the input row's
    // attributes in order, so the output rows *are* the qualifying
    // input rows — forward the shared allocations by refcount. (The
    // per-row arity check is a fat-pointer read and guarantees slot
    // copies cannot have fallen back to the general program.)
    let arity = rel.schema.arity();
    let identity = cproj.len() == arity
        && cproj.iter().enumerate().all(|(i, p)| p.slot0() == Some(i))
        && rows.iter().all(|r| r.len() == arity);
    let project = |row: &SharedRow, sink: &mut S, scratch: &mut Row| -> EngineResult<()> {
        if identity {
            sink.forward(row);
        } else {
            project_into(cproj, &[&row[..]], env, scratch)?;
            sink.keep(scratch);
        }
        Ok(())
    };
    let mirror = base_columnar(input, ctx, rows.len());
    let lowered = mirror
        .as_deref()
        .and_then(|cols| Some((cols, cpred.columnar(cols, ctx.params)?)));
    let Some((cols, colpred)) = lowered else {
        let mut scratch: Row = Vec::with_capacity(cproj.len());
        for row in rows {
            if cpred.eval_bool(&[&row[..]], env)? {
                project(row, &mut sink, &mut scratch)?;
            }
        }
        return Ok(sink);
    };
    let sel = colpred.select_range(0, cols.len());
    // Slot-only targets gather straight from the columns (contiguous
    // reads, no per-row compiled-program dispatch); anything fancier
    // evaluates the compiled projection over the selected rows.
    let columns: Option<Vec<&Column>> = cproj
        .iter()
        .map(|p| p.slot0().and_then(|a| cols.column(a)))
        .collect();
    let Some(columns) = columns else {
        let mut scratch: Row = Vec::with_capacity(cproj.len());
        for &i in &sel {
            project(&rows[i as usize], &mut sink, &mut scratch)?;
        }
        return Ok(sink);
    };
    let from = Gather {
        rows,
        columns,
        forward: identity,
    };
    sink.gather(&from, &sel);
    Ok(sink)
}

/// Group `(key, item)` pairs in one hash pass, sort the groups once —
/// `OrderedF64`'s Eq/Hash agree with its total order, so this emits the
/// exact lexicographic key order a `BTreeMap` would — and append one
/// `key attributes ++ [collection of items]` row per group.
fn emit_groups<K: Ord + Hash>(
    pairs: impl Iterator<Item = (K, Value)>,
    key_row: impl Fn(K) -> Row,
    kind: CollKind,
    out: &mut Relation,
    stats: &mut EvalStats,
) {
    let mut groups: FoldMap<K, Vec<Value>> = FoldMap::default();
    for (key, item) in pairs {
        groups.entry(key).or_default().push(item);
    }
    let mut entries: Vec<(K, Vec<Value>)> = groups.into_iter().collect();
    entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    let groups = entries
        .into_iter()
        .map(|(key, items)| (key_row(key), items));
    emit_sorted_groups(groups, kind, out, stats);
}

/// Append one `key attributes ++ [collection of items]` row per group,
/// in the order given.
fn emit_sorted_groups(
    groups: impl Iterator<Item = (Row, Vec<Value>)>,
    kind: CollKind,
    out: &mut Relation,
    stats: &mut EvalStats,
) {
    for (mut row, items) in groups {
        row.push(Value::coll(kind, items));
        out.push(row);
        stats.rows_emitted += 1;
    }
}

/// Group the selected rows `sel` (ascending) by one `Int` column whose
/// zone span over them is dense: each item goes to its key's slot (or
/// the NULL group) in selection order, and the non-empty groups come out
/// NULL first, then by ascending key — the order [`emit_groups`]' key
/// sort gives, since `Value::Null` sorts before every `Value::Int`.
fn emit_dense_groups(
    key: &DenseKey<'_>,
    sel: &[u32],
    item_of: impl Fn(usize) -> Value,
    kind: CollKind,
    out: &mut Relation,
    stats: &mut EvalStats,
) {
    // Two passes over the selection: the first counts each slot's rows
    // into `group_of`, which then holds the index of the slot's group in
    // `groups` (four bytes a slot, `NONE` for an empty one), each group
    // allocated once at its size and in key order; the second fills them.
    const NONE: u32 = u32::MAX;
    let mut group_of = vec![0u32; key.slots];
    let mut null_rows = 0;
    for &i in sel {
        match key.slot(i as usize) {
            Some(s) => group_of[s] += 1,
            None => null_rows += 1,
        }
    }
    let mut groups: Vec<(Value, Vec<Value>)> = Vec::new();
    for (s, g) in group_of.iter_mut().enumerate() {
        if *g == 0 {
            *g = NONE;
        } else {
            groups.push((Value::Int(key.key(s)), Vec::with_capacity(*g as usize)));
            *g = groups.len() as u32 - 1;
        }
    }
    let mut nulls = Vec::with_capacity(null_rows);
    for &i in sel {
        let i = i as usize;
        match key.slot(i) {
            Some(s) => groups[group_of[s] as usize].1.push(item_of(i)),
            None => nulls.push(item_of(i)),
        }
    }
    let groups = std::iter::once((Value::Null, nulls))
        .filter(|(_, items)| !items.is_empty())
        .chain(groups)
        .map(|(k, items)| (vec![k], items));
    emit_sorted_groups(groups, kind, out, stats);
}

/// Fused scan+nest: when `Nest` consumes a single-base select-project
/// (`Search` with one `Base` input) whose qualification lowers fully to
/// columnar kernels and whose projected columns are plain slot
/// references, group straight from the columns over the selection
/// vector — the intermediate filtered/projected rows are never
/// materialized. Results, result order and work counters are identical
/// to the unfused pipeline: the skipped `Search` still counts its
/// `rows_emitted` and both join counters, groups sort by key exactly
/// as the row-path `Nest` sorts them, and any shape the fusion does not
/// cover returns `None` to fall back untouched — re-evaluating the
/// inner `Base` on fallback is a borrow, so a failed attempt costs
/// nothing and cannot double-count work.
fn fused_scan_nest(expr: &Expr, ctx: &mut Ctx<'_>) -> EngineResult<Option<Relation>> {
    let Expr::Nest {
        input,
        group,
        nested,
        kind,
    } = expr
    else {
        return Ok(None);
    };
    if !ctx.opts.columnar {
        return Ok(None);
    }
    let (base, pred, proj) = match &**input {
        Expr::Search { inputs, pred, proj } if matches!(inputs[..], [Expr::Base(_)]) => {
            (&inputs[0], pred, proj)
        }
        _ => return Ok(None),
    };
    let rel = eval_input(base, ctx)?;
    let searched = search_schema(
        Some(proj),
        &[&*rel.schema],
        &SchemaCtx::new(&ctx.db.catalog),
    )?;
    let mut out = Relation::empty(nest_schema(&searched, group, nested, *kind)?);
    let bound = bind_fields(pred, std::slice::from_ref(&*rel.schema), &ctx.db.catalog)?;
    // `Search` short-circuits FALSE/empty before counting any work.
    if rel.is_empty() || bound.is_false() {
        return Ok(Some(out));
    }
    let env = EvalEnv::with_params(ctx.db, ctx.params);
    let cpred = CompiledPred::compile(&bound);
    let Some(cols) = base_columnar(base, ctx, rel.len()) else {
        return Ok(None);
    };
    let Some(colpred) = cpred.columnar(&cols, ctx.params) else {
        return Ok(None);
    };
    // Map `Nest` attributes (1-based into the intermediate schema) to
    // base columns through the projection: every target must be an
    // infallible in-bounds slot copy.
    let mut col_of = Vec::with_capacity(proj.len());
    for e in proj {
        let b = bind_fields(e, std::slice::from_ref(&*rel.schema), &ctx.db.catalog)?;
        match CompiledProj::compile(&b, &env)
            .slot0()
            .filter(|&a| a < cols.arity())
        {
            Some(a) => col_of.push(a),
            None => return Ok(None),
        }
    }
    let width = col_of.len();
    if group.iter().chain(nested).any(|&a| a == 0 || a > width) {
        return Ok(None);
    }

    let sel = colpred.select_range(0, cols.len());
    ctx.stats.add_search(Work {
        tried: rel.len() as u64,
        cross_product: rel.len() as u64,
    });
    // The intermediate select-project rows are never built, but the
    // unfused pipeline would have emitted them.
    ctx.stats.rows_emitted += sel.len() as u64;

    let item_cols: Vec<usize> = nested.iter().map(|&n| col_of[n - 1]).collect();
    let item_of = |i: usize| {
        if let [c] = item_cols[..] {
            cols.value_at(i, c)
        } else {
            Value::Tuple(item_cols.iter().map(|&c| cols.value_at(i, c)).collect())
        }
    };
    let selected = sel.iter().map(|&i| i as usize);
    if let [g] = group[..] {
        let gcol = col_of[g - 1];
        if let Some(key) = cols
            .column(gcol)
            .and_then(|c| c.dense_key(&sel, DENSE_GROUP))
        {
            emit_dense_groups(&key, &sel, item_of, *kind, &mut out, &mut ctx.stats);
            return Ok(Some(out));
        }
        let pairs = selected.map(|i| (cols.value_at(i, gcol), item_of(i)));
        emit_groups(pairs, |k| vec![k], *kind, &mut out, &mut ctx.stats);
    } else {
        let pairs = selected.map(|i| {
            let key: Row = group
                .iter()
                .map(|&g| cols.value_at(i, col_of[g - 1]))
                .collect();
            (key, item_of(i))
        });
        emit_groups(pairs, |k| k, *kind, &mut out, &mut ctx.stats);
    }
    Ok(Some(out))
}

/// The rows of one join input its local conjuncts left, ascending by
/// row index. `All(n)` when nothing constrains the input alone: no index
/// vector is built for it.
enum Survivors {
    All(usize),
    Picked(Vec<u32>),
}

impl Survivors {
    fn len(&self) -> usize {
        match self {
            Survivors::All(n) => *n,
            Survivors::Picked(sel) => sel.len(),
        }
    }

    /// Row index of the `j`-th survivor.
    #[inline]
    fn row(&self, j: usize) -> usize {
        match self {
            Survivors::All(_) => j,
            Survivors::Picked(sel) => sel[j] as usize,
        }
    }
}

/// Pre-select one input of an n-ary `search` by the conjuncts that read
/// it alone: the columnar kernels over the mirror when the input is a
/// stored table and every such conjunct has one, their fast forms row by
/// row otherwise. Both decide the same rows, so the survivors — and the
/// work counters downstream — do not depend on the path. The flag says
/// whether the conjuncts were decided TRUE on every survivor: always over
/// the kernels, on the row path unless a fast form declined a row.
fn preselect(
    input: &Expr,
    rel: &Relation,
    local: &LocalPred<'_>,
    env: &EvalEnv<'_>,
    ctx: &Ctx<'_>,
) -> (Survivors, bool) {
    if local.is_empty() {
        return (Survivors::All(rel.len()), true);
    }
    if let Some(cols) = base_columnar(input, ctx, rel.len()) {
        if let Some(kernels) = local.columnar(&cols, ctx.params) {
            return (Survivors::Picked(kernels.select_range(0, cols.len())), true);
        }
    }
    // Only the input's own slot is read.
    let mut tuple: Vec<&[Value]> = vec![&[]; local.input() + 1];
    let mut kept: Vec<u32> = Vec::new();
    let mut settled = true;
    for (i, row) in rel.rows.iter().enumerate() {
        tuple[local.input()] = row;
        match local.keeps(&tuple, env) {
            Preselected::Dropped => continue,
            Preselected::Settled => {}
            Preselected::Open => settled = false,
        }
        kept.push(i as u32);
    }
    (Survivors::Picked(kept), settled)
}

/// Hash of a link key, `None` when it can equal nothing: a NULL (`=` is
/// never TRUE on it) or an attribute the row does not have. INT and REAL
/// compare numerically ([`Value::sql_cmp`]), so both hash as the `f64`
/// the comparison reads; every other kind compares — and hashes —
/// structurally. Equal keys always collide; the converse is left to the
/// probe's key comparison.
fn key_hash<'v>(hasher: &Fold, key: impl Iterator<Item = Option<&'v Value>>) -> Option<u64> {
    let mut h = hasher.build_hasher();
    for v in key {
        match v? {
            Value::Null => return None,
            Value::Int(i) => (*i as f64).to_bits().hash(&mut h),
            Value::Real(r) => r.0.to_bits().hash(&mut h),
            other => other.hash(&mut h),
        }
    }
    Some(h.finish())
}

/// Slots per survivor up to which a step linked by one equality whose
/// survivors' keys are all `INT` (or NULL) addresses its candidates
/// through a slot array over the keys' span rather than a hash table
/// (DESIGN §4, "Select first, then stream").
const DENSE_LINK: usize = 16;

/// Keys a slot array holds lie strictly inside ±2⁵³, where every `INT`
/// is an `f64` exactly: a REAL equals at most one of them.
const EXACT_F64: i64 = 1 << 53;

/// A step's survivors by key: a slot array over one `INT` key's span, or
/// the survivors sorted by the hash of their keys.
enum LinkTable {
    Slots(SlotArray),
    /// `(key hash, survivor)`, sorted: the survivors of one hash are one
    /// run, in ascending order. An equal hash makes a *candidate*, whose
    /// keys the probe compares.
    Hashed(Vec<(u64, u32)>),
}

/// Survivors in ascending key order, then ascending survivor order (a
/// counting sort is stable): slot `s` — key `min + s` — owns
/// `order[starts[s]..starts[s + 1]]`. NULL keys have no slot.
struct SlotArray {
    min: i64,
    starts: Vec<u32>,
    order: Vec<u32>,
}

impl SlotArray {
    /// The survivors whose key equals `key` under [`Value::sql_cmp`], in
    /// ascending order.
    #[inline]
    fn candidates(&self, key: &Value) -> &[u32] {
        let run = slot_of(key, self.min).and_then(|s| {
            let (lo, hi) = (*self.starts.get(s)?, *self.starts.get(s + 1)?);
            self.order.get(lo as usize..hi as usize)
        });
        run.unwrap_or_default()
    }
}

impl LinkTable {
    fn build(
        rows: &[SharedRow],
        survivors: &Survivors,
        links: &[Link],
        hasher: &Fold,
    ) -> LinkTable {
        if let [link] = links {
            if let Some(slots) = SlotArray::build(rows, survivors, link.inner) {
                return LinkTable::Slots(slots);
            }
        }
        let mut table: Vec<(u64, u32)> = (0..survivors.len())
            .filter_map(|j| {
                let row = &rows[survivors.row(j)];
                let h = key_hash(hasher, links.iter().map(|l| row.get(l.inner)))?;
                Some((h, j as u32))
            })
            .collect();
        table.sort_unstable();
        LinkTable::Hashed(table)
    }
}

impl SlotArray {
    /// The slot array over attribute `inner` of the survivors, `None`
    /// unless every key is an `INT` strictly inside ±2⁵³ or NULL (or
    /// absent) and their span holds at most [`DENSE_LINK`] slots per
    /// survivor.
    fn build(rows: &[SharedRow], survivors: &Survivors, inner: usize) -> Option<SlotArray> {
        // `i64::MIN` lies outside ±2⁵³: it marks a survivor with no key.
        const NO_KEY: i64 = i64::MIN;
        let keys = (0..survivors.len()).map(|j| match rows[survivors.row(j)].get(inner) {
            Some(Value::Int(k)) if k.unsigned_abs() < EXACT_F64.unsigned_abs() => Some(*k),
            None | Some(Value::Null) => Some(NO_KEY),
            Some(_) => None,
        });
        let keys: Vec<i64> = keys.collect::<Option<_>>()?;
        let keyed = keys.iter().filter(|&&k| k != NO_KEY);
        let (min, max) = keyed.fold((i64::MAX, i64::MIN), |(lo, hi), &k| (lo.min(k), hi.max(k)));
        // Both ends lie inside ±2⁵³, so `max − min + 1` does not
        // overflow; no key at all is an empty span.
        let span = if min <= max {
            (max - min + 1) as usize
        } else {
            0
        };
        if span > DENSE_LINK.saturating_mul(keys.len()) {
            return None;
        }
        // Count each slot's keys at `starts[s + 2]`, sum them so that
        // `starts[s + 1]` is where slot `s` begins, then place the
        // survivors with it as the cursor: afterwards `starts[s]` is
        // where slot `s` begins and `starts[s + 1]` where it ends.
        let slot = |k: i64| (k != NO_KEY).then(|| (k - min) as usize);
        let mut starts = vec![0u32; span + 2];
        for s in keys.iter().filter_map(|&k| slot(k)) {
            starts[s + 2] += 1;
        }
        for s in 2..starts.len() {
            starts[s] += starts[s - 1];
        }
        let mut order = vec![0u32; starts[span + 1] as usize];
        for (j, s) in keys
            .iter()
            .enumerate()
            .filter_map(|(j, &k)| Some((j, slot(k)?)))
        {
            order[starts[s + 1] as usize] = j as u32;
            starts[s + 1] += 1;
        }
        starts.truncate(span + 1);
        Some(SlotArray { min, starts, order })
    }
}

/// The slot of a probe key in a slot array whose first slot is key
/// `min`, `None` when the key equals none of its keys under
/// [`Value::sql_cmp`]: not a number, or a REAL that is fractional, NaN,
/// `-0.0` (which orders below `0`) or outside ±2⁵³.
#[inline]
fn slot_of(key: &Value, min: i64) -> Option<usize> {
    let k = match key {
        Value::Int(k) => *k,
        Value::Real(r) => {
            let r = r.0;
            let integral = r.fract() == 0.0 && r.abs() < EXACT_F64 as f64;
            if !integral || (r == 0.0 && r.is_sign_negative()) {
                return None;
            }
            r as i64
        }
        _ => return None,
    };
    usize::try_from(k.checked_sub(min)?).ok()
}

/// One equality between an attribute of an input already in the tuple
/// (`outer`: 0-based input, attribute) and attribute `inner` of the
/// step's own input.
struct Link {
    outer: (usize, usize),
    inner: usize,
}

/// One left-deep step of a streamed `search`: the next input's rows and
/// survivors, the equalities linking it to the inputs before it, and —
/// when there are any — the table over the survivors keyed on them.
struct Step<'r> {
    rows: &'r [SharedRow],
    survivors: Survivors,
    links: Vec<Link>,
    table: Option<LinkTable>,
}

/// Depth-first enumeration state of a streamed `search`: one tuple
/// buffer, extended and overwritten in place.
struct Enumeration<'a, 'r, S> {
    steps: &'a [Step<'r>],
    residual: &'a Residual<'a>,
    cproj: &'a [CompiledProj],
    env: &'a EvalEnv<'a>,
    hasher: &'a Fold,
    tuple: Vec<&'r [Value]>,
    sink: S,
    scratch: Row,
    tried: u64,
}

impl<S: Sink> Enumeration<'_, '_, S> {
    /// Extend `tuple[..depth]` by every candidate of the remaining
    /// steps whose link keys equal the tuple's; a complete tuple is
    /// checked against the conjuncts nothing has settled yet — neither
    /// pre-selection nor a probe — and projected in place.
    fn descend(&mut self, depth: usize) -> EngineResult<()> {
        let steps = self.steps;
        let Some(step) = steps.get(depth - 1) else {
            if self.residual.eval_bool(&self.tuple, self.env)? {
                project_into(self.cproj, &self.tuple, self.env, &mut self.scratch)?;
                self.sink.keep(&mut self.scratch);
            }
            return Ok(());
        };
        match &step.table {
            Some(LinkTable::Slots(slots)) => {
                // One link: the key's slot holds exactly its equals.
                let key = step
                    .links
                    .first()
                    .and_then(|l| self.tuple[l.outer.0].get(l.outer.1));
                for &j in key.map_or(&[][..], |k| slots.candidates(k)) {
                    self.tried += 1;
                    self.tuple[depth] = &step.rows[step.survivors.row(j as usize)];
                    self.descend(depth + 1)?;
                }
            }
            Some(LinkTable::Hashed(table)) => {
                let key = step
                    .links
                    .iter()
                    .map(|l| self.tuple[l.outer.0].get(l.outer.1));
                let Some(h) = key_hash(self.hasher, key) else {
                    return Ok(());
                };
                let run = &table[table.partition_point(|&(hash, _)| hash < h)..];
                for &(_, j) in run.iter().take_while(|&&(hash, _)| hash == h) {
                    self.tried += 1;
                    let row = &step.rows[step.survivors.row(j as usize)];
                    // Hashes collide (INT keys past 2⁵³ hash as one
                    // `f64`): a candidate joins only when its keys equal
                    // the tuple's.
                    let equal = step.links.iter().all(|l| {
                        let outer = self.tuple[l.outer.0].get(l.outer.1);
                        let eq = outer.zip(row.get(l.inner)).and_then(|(a, b)| a.sql_eq(b));
                        eq == Some(true)
                    });
                    if equal {
                        self.tuple[depth] = row;
                        self.descend(depth + 1)?;
                    }
                }
            }
            None => {
                // No equality links this input: a cross step.
                for j in 0..step.survivors.len() {
                    self.tried += 1;
                    self.tuple[depth] = &step.rows[step.survivors.row(j)];
                    self.descend(depth + 1)?;
                }
            }
        }
        Ok(())
    }
}

/// The `search` over two or more inputs — select first, then stream.
/// Each input is pre-selected by its local conjuncts
/// ([`preselect`]); inputs join left-deep in the order written, a step
/// probing a [`LinkTable`] over the next input's survivors where an
/// equality links it, looping over them otherwise; combinations are
/// enumerated depth-first over one tuple buffer, in the cross product's
/// row-major order. Each conjunct is decided in one place: a local one at
/// pre-selection when it decided every survivor, a link at the probe, the
/// rest on each complete combination. Returns `sink` with the qualifying
/// rows and the combinations examined: first-input survivors plus
/// candidates enumerated.
///
/// Relative to the cross product with a post-filter an error can only
/// disappear (a combination that would have raised it is never formed),
/// never appear.
fn streamed_join<S: Sink>(
    inputs: &[&Expr],
    rels: &[Input<'_>],
    cpred: &CompiledPred<'_>,
    cproj: &[CompiledProj],
    env: &EvalEnv<'_>,
    ctx: &Ctx<'_>,
    sink: S,
) -> EngineResult<(S, u64)> {
    let mut selected = Vec::with_capacity(rels.len());
    let mut settled = Vec::with_capacity(rels.len());
    for (k, (input, rel)) in inputs.iter().zip(rels).enumerate() {
        let (survivors, decided) = preselect(input, rel, &cpred.local(k), env, ctx);
        if survivors.len() == 0 {
            return Ok((sink, 0));
        }
        selected.push(survivors);
        settled.push(decided);
    }
    let mut later = selected.into_iter();
    let Some(first) = later.next() else {
        return Ok((sink, 0));
    };

    let hasher = Fold::default();
    let mut linked = Vec::new();
    let steps: Vec<Step<'_>> = later
        .zip(&rels[1..])
        .zip(1..)
        .map(|((survivors, rel), k)| {
            let links: Vec<Link> = cpred
                .links()
                .filter_map(|(at, [a, b])| {
                    let link = match (a.0 == k, b.0 == k) {
                        (false, true) if a.0 < k => Link {
                            outer: a,
                            inner: b.1,
                        },
                        (true, false) if b.0 < k => Link {
                            outer: b,
                            inner: a.1,
                        },
                        _ => return None,
                    };
                    linked.push(at);
                    Some(link)
                })
                .collect();
            let table = (!links.is_empty())
                .then(|| LinkTable::build(&rel.rows, &survivors, &links, &hasher));
            Step {
                rows: &rel.rows,
                survivors,
                links,
                table,
            }
        })
        .collect();
    let residual = cpred.residual(&linked, &settled);

    let mut e = Enumeration {
        steps: &steps,
        residual: &residual,
        cproj,
        env,
        hasher: &hasher,
        tuple: vec![&[]; rels.len()],
        sink,
        scratch: Vec::with_capacity(cproj.len()),
        tried: first.len() as u64,
    };
    for j in 0..first.len() {
        e.tuple[0] = &rels[0].rows[first.row(j)];
        e.descend(1)?;
    }
    Ok((e.sink, e.tried))
}

/// Resolve named field accesses (`PROJECT(e, Name)`) to positional
/// `GETFIELD(e, idx)` using static types — done once per operator, not
/// per row. A scalar without a `Field` node has nothing to resolve and
/// is returned borrowed: one allocation-free walk instead of a rebuilt
/// tree.
pub(crate) fn bind_fields<'s>(
    s: &'s Scalar,
    inputs: &[impl Borrow<Schema>],
    catalog: &Catalog,
) -> EngineResult<Cow<'s, Scalar>> {
    let mut has_field = false;
    s.visit(&mut |n| has_field |= matches!(n, Scalar::Field { .. }));
    if !has_field {
        return Ok(Cow::Borrowed(s));
    }
    let sc = SchemaCtx::new(catalog);
    bind_fields_inner(s, inputs, &sc)
        .map(Cow::Owned)
        .map_err(EngineError::Lera)
}

fn bind_fields_inner(
    s: &Scalar,
    inputs: &[impl Borrow<Schema>],
    sc: &SchemaCtx<'_>,
) -> Result<Scalar, LeraError> {
    Ok(match s {
        Scalar::Field { input, name } => {
            let bound_input = bind_fields_inner(input, inputs, sc)?;
            let input_ty = infer_scalar_type(&bound_input, inputs, sc)?;
            let (needs_deref, idx, _) =
                sc.catalog.attribute_of(&input_ty, name).ok_or_else(|| {
                    LeraError::UnknownAttribute {
                        name: name.clone(),
                        receiver: input_ty.to_string(),
                    }
                })?;
            let receiver = if needs_deref {
                Scalar::call("VALUE", vec![bound_input])
            } else {
                bound_input
            };
            Scalar::call("GETFIELD", vec![receiver, Scalar::lit((idx + 1) as i64)])
        }
        Scalar::Call { func, args } => Scalar::Call {
            func: func.clone(),
            args: args
                .iter()
                .map(|a| bind_fields_inner(a, inputs, sc))
                .collect::<Result<_, _>>()?,
        },
        Scalar::Cmp { op, left, right } => Scalar::Cmp {
            op: *op,
            left: Box::new(bind_fields_inner(left, inputs, sc)?),
            right: Box::new(bind_fields_inner(right, inputs, sc)?),
        },
        Scalar::And(a, b) => Scalar::And(
            Box::new(bind_fields_inner(a, inputs, sc)?),
            Box::new(bind_fields_inner(b, inputs, sc)?),
        ),
        Scalar::Or(a, b) => Scalar::Or(
            Box::new(bind_fields_inner(a, inputs, sc)?),
            Box::new(bind_fields_inner(b, inputs, sc)?),
        ),
        Scalar::Not(a) => Scalar::Not(Box::new(bind_fields_inner(a, inputs, sc)?)),
        Scalar::Attr { .. } | Scalar::Const(_) | Scalar::Param(_) => s.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn film_db() -> Database {
        let mut db = Database::new();
        db.execute_ddl(
            "TYPE Person OBJECT TUPLE ( Name : CHAR ) ;
             TYPE Actor SUBTYPE OF Person OBJECT TUPLE ( Salary : NUMERIC ) ;
             TABLE APPEARS_IN ( Numf : NUMERIC, Refactor : Actor ) ;",
        )
        .unwrap();
        db
    }

    /// Nothing to bind, nothing copied: a `Field`-free scalar comes back
    /// borrowed, whatever else it holds.
    #[test]
    fn bind_fields_borrows_a_field_free_scalar() {
        let db = film_db();
        let schemas = [(*db.relation("APPEARS_IN").unwrap().schema).clone()];
        let pred = Scalar::and(
            Scalar::eq(Scalar::attr(1, 1), Scalar::param(0)),
            Scalar::Not(Box::new(Scalar::call(
                "ISEMPTY",
                vec![Scalar::call("MAKESET", vec![Scalar::lit(3)])],
            ))),
        );
        let bound = bind_fields(&pred, &schemas, &db.catalog).unwrap();
        assert!(matches!(bound, Cow::Borrowed(b) if std::ptr::eq(b, &pred)));
    }

    /// `Salary(Refactor)` resolves as it always did: dereference the
    /// object, then a positional `GETFIELD` (Salary is the second field
    /// of `Actor`, after the inherited `Name`).
    #[test]
    fn bind_fields_resolves_a_field_access() {
        let db = film_db();
        let schemas = [(*db.relation("APPEARS_IN").unwrap().schema).clone()];
        let pred = Scalar::cmp(
            eds_lera::CmpOp::Gt,
            Scalar::field(Scalar::attr(1, 2), "Salary"),
            Scalar::lit(1000),
        );
        let bound = bind_fields(&pred, &schemas, &db.catalog).unwrap();
        assert!(matches!(bound, Cow::Owned(_)));
        assert_eq!(bound.to_string(), "GETFIELD(VALUE(1.2), 2) > 1000");
        let unknown = Scalar::field(Scalar::attr(1, 2), "Wage");
        assert!(matches!(
            bind_fields(&unknown, &schemas, &db.catalog),
            Err(EngineError::Lera(LeraError::UnknownAttribute { .. }))
        ));
    }

    /// `T (A, B)` holding `(i, 10 i)` and `U (A, C)` holding `(i, −i)`,
    /// `i` in `0..n`.
    fn int_db(n: i64) -> Database {
        let mut db = Database::new();
        db.execute_ddl("TABLE T (A : INT, B : INT); TABLE U (A : INT, C : INT);")
            .unwrap();
        for i in 0..n {
            db.insert("T", vec![i.into(), (10 * i).into()]).unwrap();
            db.insert("U", vec![i.into(), (-i).into()]).unwrap();
        }
        db
    }

    /// `SELECT B, A FROM T WHERE A >= 1` (slot copies over one input: a
    /// gather from the mirror) and `SELECT T.B, U.C FROM T, U WHERE T.A =
    /// U.A AND T.A >= 1` (a two-input join): `n − 1` rows each.
    fn gather_and_join() -> [Expr; 2] {
        let positive = Scalar::cmp(eds_lera::CmpOp::Ge, Scalar::attr(1, 1), Scalar::lit(1));
        let gather = Expr::search(
            vec![Expr::base("T")],
            positive.clone(),
            vec![Scalar::attr(1, 2), Scalar::attr(1, 1)],
        );
        let join = Expr::search(
            vec![Expr::base("T"), Expr::base("U")],
            Scalar::and(Scalar::eq(Scalar::attr(1, 1), Scalar::attr(2, 1)), positive),
            vec![Scalar::attr(1, 2), Scalar::attr(2, 2)],
        );
        [gather, join]
    }

    /// Where one block ends and the next begins: the indices `i` whose
    /// first value does not sit one `Value` past row `i − 1`'s last.
    fn block_starts(rows: &[SharedRow]) -> Vec<usize> {
        (1..rows.len())
            .filter(|&i| {
                let before = &rows[i - 1];
                !std::ptr::eq(before.as_ptr().wrapping_add(before.len()), rows[i].as_ptr())
            })
            .collect()
    }

    /// The rows a search builds share one block: row 1's first value sits
    /// one `Value` past row 0's last, over the mirror and row by row.
    #[test]
    fn built_rows_are_contiguous() {
        let db = int_db(6);
        for columnar in [true, false] {
            let opts = EvalOptions {
                columnar,
                ..EvalOptions::default()
            };
            for expr in gather_and_join() {
                let rows = eval_with(&expr, &db, opts).unwrap().0.rows;
                assert!(rows.len() >= 5, "{expr}");
                assert!(std::ptr::eq(
                    &rows[1][0],
                    (&rows[0][1] as *const Value).wrapping_add(1)
                ));
                assert!(block_starts(&rows).is_empty(), "{expr} columnar={columnar}");
            }
        }
    }

    /// One row past the cap starts a second block; the rows and their
    /// order are the oracle's.
    #[test]
    fn a_block_holds_at_most_a_morsel_of_rows() {
        let cap = crate::relation::BLOCK_ROWS;
        let db = int_db(cap as i64 + 2);
        for columnar in [true, false] {
            let opts = EvalOptions {
                columnar,
                ..EvalOptions::default()
            };
            for expr in gather_and_join() {
                let rows = eval_with(&expr, &db, opts).unwrap().0.rows;
                let oracle = crate::reference::eval_reference(&expr, &db, opts).unwrap();
                assert_eq!(rows.len(), cap + 1);
                assert_eq!(rows, oracle.rows, "{expr} columnar={columnar}");
                assert_eq!(block_starts(&rows), vec![cap]);
            }
        }
    }

    /// The layout a one-link step takes over `keys`: the slot array's
    /// `(min, starts, order)`, or `None` for the hashed table.
    fn slot_layout(keys: &[Value]) -> Option<(i64, Vec<u32>, Vec<u32>)> {
        let rows: Vec<SharedRow> = keys
            .iter()
            .map(|k| SharedRow::from(vec![k.clone()]))
            .collect();
        let link = Link {
            outer: (0, 0),
            inner: 0,
        };
        let survivors = Survivors::All(rows.len());
        match LinkTable::build(&rows, &survivors, &[link], &Fold::default()) {
            LinkTable::Slots(SlotArray { min, starts, order }) => Some((min, starts, order)),
            LinkTable::Hashed(_) => None,
        }
    }

    /// The slot array holds INT keys strictly inside ±2⁵³ over at most
    /// `DENSE_LINK` slots a survivor, in key order and then survivor
    /// order, NULLs left out; every other key set is hashed.
    #[test]
    fn a_slot_array_takes_dense_int_keys_only() {
        let ints = |ks: &[i64]| ks.iter().map(|&k| Value::Int(k)).collect::<Vec<_>>();
        let (min, starts, order) =
            slot_layout(&[Value::Int(7), Value::Null, Value::Int(5), Value::Int(7)]).unwrap();
        assert_eq!((min, starts, order), (5, vec![0, 1, 1, 3], vec![2, 0, 3]));
        let (_, starts, order) = slot_layout(&[Value::Null, Value::Null]).unwrap();
        assert_eq!((starts, order), (vec![0], vec![]));
        // Two survivors span at most `2 · DENSE_LINK` slots.
        let widest = 2 * DENSE_LINK as i64 - 1;
        assert!(slot_layout(&ints(&[0, widest])).is_some());
        assert!(slot_layout(&ints(&[0, widest + 1])).is_none());
        let edge = (1i64 << 53) - 1;
        assert!(slot_layout(&ints(&[edge, edge - 1])).is_some());
        assert!(slot_layout(&ints(&[-edge, -edge + 1])).is_some());
        for far in [edge + 1, -edge - 1, i64::MIN, i64::MAX] {
            assert!(slot_layout(&ints(&[far, 0])).is_none(), "{far}");
            assert!(slot_layout(&ints(&[far])).is_none(), "{far}");
        }
        for other in [Value::real(1.0), Value::str("1"), Value::Bool(true)] {
            assert!(
                slot_layout(&[Value::Int(1), other.clone()]).is_none(),
                "{other:?}"
            );
        }
    }

    /// A probe key reaches the one slot whose INT it equals under
    /// `sql_cmp`, and no slot when it equals none.
    #[test]
    fn a_probe_key_finds_the_slot_it_equals() {
        let edge = (1i64 << 53) as f64;
        assert_eq!(slot_of(&Value::Int(7), 5), Some(2));
        assert_eq!(slot_of(&Value::real(7.0), 5), Some(2));
        assert_eq!(slot_of(&Value::real(0.0), 0), Some(0));
        assert_eq!(slot_of(&Value::Int(4), 5), None);
        assert_eq!(slot_of(&Value::Int(i64::MIN), 5), None);
        for miss in [7.5, -0.0, f64::NAN, f64::INFINITY, edge, -edge, 1e300] {
            assert_eq!(slot_of(&Value::real(miss), 0), None, "{miss}");
            let equal = (-100..100).any(|k| Value::real(miss).sql_eq(&Value::Int(k)) == Some(true));
            assert!(!equal, "{miss}");
        }
        for other in [Value::Null, Value::str("7"), Value::Bool(true)] {
            assert_eq!(slot_of(&other, 5), None, "{other:?}");
        }
    }
}
