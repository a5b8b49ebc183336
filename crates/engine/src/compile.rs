//! Compiled scalar programs.
//!
//! [`bind_fields`](mod@crate::eval) resolves named field accesses once per
//! operator; this module goes one step further and lowers the bound
//! [`Scalar`] tree into a [`CompiledScalar`] — a pre-dispatched program
//! whose per-row evaluation
//!
//! * never re-walks `Scalar` enum structure (GETFIELD/VALUE calls are
//!   lowered to dedicated nodes, function symbols are resolved in the
//!   [`FunctionRegistry`] at compile time, not per row);
//! * borrows instead of clones: attribute references, tuple-field
//!   accesses and object dereferences yield [`Cow::Borrowed`] values
//!   pointing into the input rows or the object store, so a comparison
//!   such as `Salary(Refactor) > 20000` copies nothing.
//!
//! A qualification ([`CompiledPred`]) is not lowered whole. Each
//! conjunct's fast form — a comparison between attribute slots,
//! literals, `?` parameters and object-attribute fetches — is read off
//! the bound `Scalar`, and the conjunct's general program is built on
//! first need: when the conjunct has no fast form, or when a row falls
//! outside it (an unbound `?`, a dangling OID, a bad `GETFIELD` index).
//! A predicate every row decides on its fast forms, as a prepared point
//! lookup or range scan does, builds no program at all.
//!
//! Semantics (three-valued logic, broadcast comparisons, collection
//! mapping, and every error message) are identical to the interpreted
//! `eval_scalar` of [`crate::reference`], which nothing on the query or
//! `INSERT` path runs: it is the reference executor's evaluator
//! ([`eval_reference`](crate::reference::eval_reference) calls it per
//! row), and `crates/bench/tests/exec_equivalence.rs` compares the two
//! executors — and so the two evaluators — on the full workload suite.

use std::borrow::Cow;
use std::cell::OnceCell;
use std::cmp::Ordering;
use std::sync::Arc;

use eds_adt::{
    AdtError, EvalContext, FunctionRegistry, NativeFn, ObjectStore, TypeRegistry, Value,
};
use eds_lera::{CmpOp, LeraError, Scalar};

use crate::columnar::{Column, ColumnarRelation, NullBitmap, Zones, ZONE_ROWS};
use crate::database::Database;
use crate::error::{EngineError, EngineResult};

/// The immutable evaluation environment a compiled program runs against:
/// the slices of a [`Database`] that scalar evaluation can touch.
#[derive(Clone, Copy)]
pub struct EvalEnv<'a> {
    /// Object store for `VALUE`/field dereferences.
    pub objects: &'a ObjectStore,
    /// Type registry (for `ISA` and friends).
    pub types: &'a TypeRegistry,
    /// ADT function registry.
    pub functions: &'a FunctionRegistry,
    /// Bind array for positional statement parameters: `?i` resolves to
    /// `params[i]`. Empty for ad-hoc queries; a `?` evaluated against an
    /// empty (or too-short) array is an [`EngineError::UnboundParam`].
    pub params: &'a [Value],
}

impl<'a> EvalEnv<'a> {
    /// Environment view of a database (no statement parameters bound).
    pub fn of(db: &'a Database) -> Self {
        Self::with_params(db, &[])
    }

    /// Environment view of a database with a bind array for `?`
    /// parameters.
    pub fn with_params(db: &'a Database, params: &'a [Value]) -> Self {
        EvalEnv {
            objects: &db.objects,
            types: &db.catalog.types,
            functions: &db.functions,
            params,
        }
    }

    fn adt_ctx(&self) -> EvalContext<'a> {
        EvalContext {
            objects: self.objects,
            types: self.types,
        }
    }
}

/// A compiled scalar program. Build once per operator with
/// [`CompiledScalar::compile`], evaluate per row with
/// [`CompiledScalar::eval`].
pub enum CompiledScalar {
    /// Positional attribute reference (1-based, like `Scalar::Attr`).
    Attr {
        /// 1-based input relation index.
        rel: usize,
        /// 1-based attribute index.
        attr: usize,
    },
    /// Literal.
    Const(Value),
    /// Positional statement parameter: a slot into the bind array the
    /// evaluation environment carries. The program itself stays
    /// bind-independent — the same compiled plan serves every execution
    /// of a prepared statement; only the array changes.
    Param(u16),
    /// `GETFIELD(input, idx)` with a constant index — the shape
    /// `bind_fields` always produces.
    GetField {
        /// Receiver program.
        input: Box<CompiledScalar>,
        /// 1-based field index.
        idx1: usize,
    },
    /// `GETFIELD` with a computed index (kept for rule-generated plans)
    /// or the wrong number of arguments (an arity error once they are
    /// evaluated, like the interpreter's).
    DynGetField(Vec<CompiledScalar>),
    /// `VALUE(input)`: object dereference with collection mapping.
    ValueOf(Box<CompiledScalar>),
    /// `VALUE` with the wrong number of arguments: evaluates them, then
    /// fails with the registry's arity error, like the interpreter.
    DynValue(Vec<CompiledScalar>),
    /// Resolved function call: the registry lookup happened at compile
    /// time.
    Call {
        /// Canonical function name (for arity-check errors).
        name: String,
        /// Resolved implementation.
        func: NativeFn,
        /// Declared arity.
        arity: eds_adt::Arity,
        /// Argument programs.
        args: Vec<CompiledScalar>,
    },
    /// Unresolved function call — evaluation produces the registry's
    /// `UnknownFunction` error, exactly like the interpreter (and only
    /// when a row is actually evaluated).
    UnknownCall {
        /// Function name as written.
        name: String,
        /// Argument programs.
        args: Vec<CompiledScalar>,
    },
    /// Comparison with broadcast semantics.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        left: Box<CompiledScalar>,
        /// Right operand.
        right: Box<CompiledScalar>,
    },
    /// Flattened three-valued conjunction: nested `AND` chains compile
    /// to one operand list, evaluated left to right with the same
    /// short-circuit on FALSE (3VL `AND` is associative, so flattening
    /// preserves both results and the evaluation/error order).
    Conj(Vec<CompiledScalar>),
    /// Flattened three-valued disjunction (short-circuits on TRUE).
    Disj(Vec<CompiledScalar>),
    /// Three-valued negation.
    Not(Box<CompiledScalar>),
    /// A `Scalar::Field` that survived binding — evaluation errors like
    /// the interpreter does.
    UnboundField {
        /// Attribute name, for the error message.
        name: String,
    },
}

impl CompiledScalar {
    /// Lower a bound scalar into a compiled program, resolving function
    /// symbols against `env`.
    pub fn compile(s: &Scalar, env: &EvalEnv<'_>) -> CompiledScalar {
        match s {
            Scalar::Attr { rel, attr } => CompiledScalar::Attr {
                rel: *rel,
                attr: *attr,
            },
            Scalar::Const(v) => CompiledScalar::Const(v.clone()),
            Scalar::Param(i) => CompiledScalar::Param(*i),
            Scalar::Field { name, .. } => CompiledScalar::UnboundField { name: name.clone() },
            Scalar::Call { func, args } => {
                let mut compiled: Vec<CompiledScalar> =
                    args.iter().map(|a| Self::compile(a, env)).collect();
                match (func.as_str(), &args[..]) {
                    // Constant index: the canonical bind_fields shape.
                    ("GETFIELD", [_, Scalar::Const(Value::Int(i))]) => CompiledScalar::GetField {
                        input: Box::new(compiled.swap_remove(0)),
                        idx1: *i as usize,
                    },
                    ("GETFIELD", _) => CompiledScalar::DynGetField(compiled),
                    ("VALUE", [_]) => CompiledScalar::ValueOf(Box::new(compiled.swap_remove(0))),
                    ("VALUE", _) => CompiledScalar::DynValue(compiled),
                    _ => match env.functions.get(func) {
                        Some(def) => CompiledScalar::Call {
                            name: def.name.clone(),
                            func: Arc::clone(&def.func),
                            arity: def.arity,
                            args: compiled,
                        },
                        None => CompiledScalar::UnknownCall {
                            name: func.clone(),
                            args: compiled,
                        },
                    },
                }
            }
            Scalar::Cmp { op, left, right } => CompiledScalar::Cmp {
                op: *op,
                left: Box::new(Self::compile(left, env)),
                right: Box::new(Self::compile(right, env)),
            },
            Scalar::And(_, _) | Scalar::Or(_, _) => {
                let and = matches!(s, Scalar::And(..));
                let mut operands = Vec::new();
                flatten(s, and, &mut operands);
                let operands = operands.into_iter().map(|o| Self::compile(o, env));
                if and {
                    CompiledScalar::Conj(operands.collect())
                } else {
                    CompiledScalar::Disj(operands.collect())
                }
            }
            Scalar::Not(a) => CompiledScalar::Not(Box::new(Self::compile(a, env))),
        }
    }

    /// Evaluate against one tuple per input relation. Borrowed results
    /// point into `tuples`, the object store, or the program's own
    /// constants.
    pub fn eval<'v>(
        &'v self,
        tuples: &[&'v [Value]],
        env: &EvalEnv<'v>,
    ) -> EngineResult<Cow<'v, Value>> {
        match self {
            CompiledScalar::Attr { rel, attr } => {
                let row = tuples.get(rel - 1).ok_or_else(|| {
                    EngineError::Lera(LeraError::BadAttrRef {
                        rel: *rel,
                        attr: *attr,
                        context: format!("{} input tuples", tuples.len()),
                    })
                })?;
                row.get(attr - 1).map(Cow::Borrowed).ok_or_else(|| {
                    EngineError::Lera(LeraError::BadAttrRef {
                        rel: *rel,
                        attr: *attr,
                        context: format!("tuple of arity {}", row.len()),
                    })
                })
            }
            CompiledScalar::Const(v) => Ok(Cow::Borrowed(v)),
            CompiledScalar::Param(i) => env
                .params
                .get(*i as usize)
                .map(Cow::Borrowed)
                .ok_or(EngineError::UnboundParam(*i)),
            CompiledScalar::GetField { input, idx1 } => {
                let v = input.eval(tuples, env)?;
                getfield_cow(v, *idx1, env)
            }
            CompiledScalar::DynGetField(args) => {
                let vals = args
                    .iter()
                    .map(|a| a.eval(tuples, env).map(Cow::into_owned))
                    .collect::<EngineResult<Vec<Value>>>()?;
                let [receiver, idx] = <[Value; 2]>::try_from(vals)
                    .map_err(|vals| arity_error("GETFIELD", 2, vals.len()))?;
                let idx = idx.as_int().map_err(EngineError::Adt)? as usize;
                getfield_cow(Cow::Owned(receiver), idx, env)
            }
            CompiledScalar::ValueOf(input) => {
                let v = input.eval(tuples, env)?;
                deref_cow(v, env)
            }
            CompiledScalar::DynValue(args) => {
                for a in args {
                    a.eval(tuples, env)?;
                }
                Err(arity_error("VALUE", 1, args.len()))
            }
            CompiledScalar::Call {
                name,
                func,
                arity,
                args,
            } => {
                let vals = args
                    .iter()
                    .map(|a| a.eval(tuples, env).map(Cow::into_owned))
                    .collect::<EngineResult<Vec<Value>>>()?;
                arity.check(name, vals.len()).map_err(EngineError::Adt)?;
                func(&vals, &env.adt_ctx())
                    .map(Cow::Owned)
                    .map_err(EngineError::Adt)
            }
            CompiledScalar::UnknownCall { name, args } => {
                // Evaluate arguments first (interpreter order), then fail
                // with the registry's own error.
                for a in args {
                    a.eval(tuples, env)?;
                }
                Err(EngineError::Adt(AdtError::UnknownFunction(name.clone())))
            }
            CompiledScalar::Cmp { op, left, right } => {
                let l = left.eval(tuples, env)?;
                let r = right.eval(tuples, env)?;
                Ok(Cow::Owned(op.eval(&l, &r)))
            }
            CompiledScalar::Conj(operands) => {
                // Left-to-right with FALSE short-circuit; any non-TRUE
                // survivor (NULL or a non-boolean) makes the result NULL,
                // exactly like folding the interpreter's binary AND.
                let mut all_true = true;
                for o in operands {
                    let v = o.eval(tuples, env)?;
                    match v.as_ref() {
                        Value::Bool(false) => return Ok(Cow::Owned(Value::Bool(false))),
                        Value::Bool(true) => {}
                        _ => all_true = false,
                    }
                }
                Ok(Cow::Owned(if all_true {
                    Value::Bool(true)
                } else {
                    Value::Null
                }))
            }
            CompiledScalar::Disj(operands) => {
                let mut all_false = true;
                for o in operands {
                    let v = o.eval(tuples, env)?;
                    match v.as_ref() {
                        Value::Bool(true) => return Ok(Cow::Owned(Value::Bool(true))),
                        Value::Bool(false) => {}
                        _ => all_false = false,
                    }
                }
                Ok(Cow::Owned(if all_false {
                    Value::Bool(false)
                } else {
                    Value::Null
                }))
            }
            CompiledScalar::Not(a) => Ok(Cow::Owned(match a.eval(tuples, env)?.as_ref() {
                Value::Bool(b) => Value::Bool(!b),
                Value::Null => Value::Null,
                other => {
                    return Err(EngineError::NonBooleanPredicate(other.to_string()));
                }
            })),
            CompiledScalar::UnboundField { name } => {
                Err(EngineError::Lera(LeraError::UnknownAttribute {
                    name: name.clone(),
                    receiver: "unbound field access at runtime".into(),
                }))
            }
        }
    }

    /// Evaluate and convert to an owned value (projection targets).
    pub fn eval_owned(&self, tuples: &[&[Value]], env: &EvalEnv<'_>) -> EngineResult<Value> {
        self.eval(tuples, env).map(Cow::into_owned)
    }

    /// Evaluate as a qualification: `true` only for `TRUE` (three-valued
    /// logic maps NULL and FALSE to "not selected").
    pub fn eval_bool(&self, tuples: &[&[Value]], env: &EvalEnv<'_>) -> EngineResult<bool> {
        Ok(matches!(
            self.eval(tuples, env)?.as_ref(),
            Value::Bool(true)
        ))
    }
}

/// Three-valued truth classification of a qualification conjunct.
enum Truth {
    True,
    False,
    Other,
}

impl Truth {
    fn of(v: &Value) -> Truth {
        match v {
            Value::Bool(true) => Truth::True,
            Value::Bool(false) => Truth::False,
            _ => Truth::Other,
        }
    }
}

/// A fast operand reference: an access path the hot loop can resolve to a
/// borrowed [`Value`] with no recursion and no [`Cow`] bookkeeping. `None`
/// from [`FastRef::get`] means "shape not covered" (bad index, dangling
/// OID, collection receiver, …) and the caller runs the general
/// program, which reproduces the exact interpreter result or error.
enum FastRef<'s> {
    /// `tuples[rel0][attr0]` (0-based).
    Slot { rel0: usize, attr0: usize },
    /// `GETFIELD(VALUE(tuples[rel0][attr0]), idx0 + 1)` where the slot
    /// holds an object reference whose value is a tuple — the shape every
    /// object-attribute access lowers to.
    DerefField {
        rel0: usize,
        attr0: usize,
        idx0: usize,
    },
    /// A literal, borrowed from the bound qualification.
    Konst(&'s Value),
    /// A statement parameter — resolved from the environment's bind
    /// array per evaluation, so the fast path serves every execution of
    /// a prepared statement without re-classification.
    Param(u16),
}

impl<'s> FastRef<'s> {
    /// The fast form of a bound operand, read off the `Scalar` itself:
    /// the shapes [`CompiledScalar::compile`] lowers to `Attr`, `Const`,
    /// `Param` and `GetField { ValueOf(Attr) }`.
    fn of(s: &'s Scalar) -> Option<FastRef<'s>> {
        let slot = |s: &Scalar| match s {
            Scalar::Attr { rel, attr } if *rel >= 1 && *attr >= 1 => Some((rel - 1, attr - 1)),
            _ => None,
        };
        match s {
            Scalar::Const(v) => Some(FastRef::Konst(v)),
            Scalar::Param(i) => Some(FastRef::Param(*i)),
            Scalar::Call { func, args } if func == "GETFIELD" => match &args[..] {
                [Scalar::Call { func, args }, Scalar::Const(Value::Int(i))] if func == "VALUE" => {
                    let ([inner], Some(idx0)) = (&args[..], (*i as usize).checked_sub(1)) else {
                        return None;
                    };
                    let (rel0, attr0) = slot(inner)?;
                    Some(FastRef::DerefField { rel0, attr0, idx0 })
                }
                _ => None,
            },
            _ => slot(s).map(|(rel0, attr0)| FastRef::Slot { rel0, attr0 }),
        }
    }

    /// The input (0-based) whose row this reference reads; `None` for a
    /// literal or a parameter.
    fn input(&self) -> Option<usize> {
        match self {
            FastRef::Slot { rel0, .. } | FastRef::DerefField { rel0, .. } => Some(*rel0),
            FastRef::Konst(_) | FastRef::Param(_) => None,
        }
    }

    #[inline]
    fn get<'v>(&'v self, tuples: &[&'v [Value]], env: &EvalEnv<'v>) -> Option<&'v Value> {
        match self {
            FastRef::Slot { rel0, attr0 } => tuples.get(*rel0)?.get(*attr0),
            FastRef::Konst(v) => Some(*v),
            // An unbound parameter returns None: the general program
            // runs and reports the UnboundParam error.
            FastRef::Param(i) => env.params.get(*i as usize),
            FastRef::DerefField { rel0, attr0, idx0 } => match tuples.get(*rel0)?.get(*attr0)? {
                Value::Object(oid) => match env.objects.value(*oid) {
                    Ok(Value::Tuple(items)) => items.get(*idx0),
                    _ => None,
                },
                _ => None,
            },
        }
    }
}

/// Pre-classified fast form of one conjunct.
enum FastQual<'s> {
    /// Literal `TRUE` — no per-row work at all.
    True,
    /// A comparison between two fast references.
    Cmp {
        op: CmpOp,
        left: FastRef<'s>,
        right: FastRef<'s>,
    },
}

/// One conjunct of a qualification: the bound `Scalar`, its fast form
/// when the shape has one, and the general program — the semantic
/// authority — built from the `Scalar` on first need: for a conjunct
/// with no fast form, or the first row its fast form declines.
struct Conjunct<'s> {
    bound: &'s Scalar,
    fast: Option<FastQual<'s>>,
    general: OnceCell<CompiledScalar>,
}

impl<'s> Conjunct<'s> {
    fn new(bound: &'s Scalar) -> Conjunct<'s> {
        let fast = match bound {
            Scalar::Const(Value::Bool(true)) => Some(FastQual::True),
            Scalar::Cmp { op, left, right } => match (FastRef::of(left), FastRef::of(right)) {
                (Some(l), Some(r)) => Some(FastQual::Cmp {
                    op: *op,
                    left: l,
                    right: r,
                }),
                _ => None,
            },
            _ => None,
        };
        Conjunct {
            bound,
            fast,
            general: OnceCell::new(),
        }
    }

    /// What the fast form alone decides: `None` when the conjunct has
    /// none, or when an access falls outside the shapes it covers (bad
    /// index, dangling OID, collection receiver, unbound `?`, …). Never
    /// errors.
    #[inline]
    fn fast_truth(&self, tuples: &[&[Value]], env: &EvalEnv<'_>) -> Option<Truth> {
        match self.fast.as_ref()? {
            FastQual::True => Some(Truth::True),
            FastQual::Cmp { op, left, right } => {
                let (l, r) = (left.get(tuples, env)?, right.get(tuples, env)?);
                Some(Truth::of(&op.eval(l, r)))
            }
        }
    }

    #[inline]
    fn truth(&self, tuples: &[&[Value]], env: &EvalEnv<'_>) -> EngineResult<Truth> {
        if let Some(decided) = self.fast_truth(tuples, env) {
            return Ok(decided);
        }
        // No fast form, or an access shape it does not cover: the
        // general program (pure re-evaluation; reproduces the
        // interpreter's result or error exactly).
        let general = self
            .general
            .get_or_init(|| CompiledScalar::compile(self.bound, env));
        Ok(Truth::of(general.eval(tuples, env)?.as_ref()))
    }

    /// The one input (0-based) this comparison reads when every
    /// attribute reference reads it and at least one does: such a
    /// conjunct can be decided from that input's row alone, before any
    /// join.
    fn only_input(&self) -> Option<usize> {
        let Some(FastQual::Cmp { left, right, .. }) = &self.fast else {
            return None;
        };
        let mut inputs = [left.input(), right.input()].into_iter().flatten();
        let first = inputs.next()?;
        inputs.all(|i| i == first).then_some(first)
    }

    /// `i.a = j.b` between plain attributes of two different inputs, as
    /// 0-based `(input, attribute)` pairs.
    fn link(&self) -> Option<[(usize, usize); 2]> {
        match &self.fast {
            Some(FastQual::Cmp {
                op: CmpOp::Eq,
                left: FastRef::Slot { rel0: i, attr0: a },
                right: FastRef::Slot { rel0: j, attr0: b },
            }) if i != j => Some([(*i, *a), (*j, *b)]),
            _ => None,
        }
    }
}

/// Fold conjuncts as the interpreter's binary `AND` does: `true` only
/// when every one is `TRUE`; FALSE short-circuits, NULL and non-boolean
/// results poison the result without skipping later conjuncts.
#[inline]
fn all_true<'c, 's: 'c>(
    conjuncts: impl Iterator<Item = &'c Conjunct<'s>>,
    tuples: &[&[Value]],
    env: &EvalEnv<'_>,
) -> EngineResult<bool> {
    let mut all_true = true;
    for c in conjuncts {
        match c.truth(tuples, env)? {
            Truth::True => {}
            Truth::False => return Ok(false),
            Truth::Other => all_true = false,
        }
    }
    Ok(all_true)
}

/// A compiled qualification: the conjunct list of the bound predicate,
/// each with its fast form classified from the `Scalar` and its general
/// program built on first need — for a conjunct with no fast form, or on
/// the first row its fast form declines. A qualification every row
/// decides on its fast forms, as the prepared point lookups and range
/// scans are, builds no program.
/// Evaluation order, short-circuiting and errors match folding the
/// interpreter's binary `AND` (FALSE short-circuits; NULL and
/// non-boolean survivors poison the result to NULL, which a
/// qualification treats as "not selected").
pub struct CompiledPred<'s> {
    conjuncts: Vec<Conjunct<'s>>,
}

impl<'s> CompiledPred<'s> {
    /// Classify a bound predicate's conjuncts. Nothing is lowered yet: a
    /// general program is compiled, against the environment of the
    /// evaluation that first needs it, only where a fast form is absent
    /// or declines a row.
    pub fn compile(s: &'s Scalar) -> CompiledPred<'s> {
        let mut conjuncts = Vec::new();
        flatten(s, true, &mut conjuncts);
        CompiledPred {
            conjuncts: conjuncts.into_iter().map(Conjunct::new).collect(),
        }
    }

    /// Evaluate as a qualification: `true` only when every conjunct is
    /// `TRUE`.
    #[inline]
    pub fn eval_bool(&self, tuples: &[&[Value]], env: &EvalEnv<'_>) -> EngineResult<bool> {
        all_true(self.conjuncts.iter(), tuples, env)
    }
}

/// A compiled projection target: plain attribute references clone the
/// slot value directly; everything else runs the general program.
pub struct CompiledProj {
    slot: Option<(usize, usize)>,
    general: CompiledScalar,
}

impl CompiledProj {
    /// Lower a bound projection expression.
    pub fn compile(s: &Scalar, env: &EvalEnv<'_>) -> CompiledProj {
        let general = CompiledScalar::compile(s, env);
        let slot = match &general {
            CompiledScalar::Attr { rel, attr } if *rel >= 1 && *attr >= 1 => {
                Some((rel - 1, attr - 1))
            }
            _ => None,
        };
        CompiledProj { slot, general }
    }

    /// Evaluate to an owned value.
    #[inline]
    pub fn eval_owned(&self, tuples: &[&[Value]], env: &EvalEnv<'_>) -> EngineResult<Value> {
        if let Some((rel0, attr0)) = self.slot {
            if let Some(v) = tuples.get(rel0).and_then(|t| t.get(attr0)) {
                return Ok(v.clone());
            }
        }
        self.general.eval_owned(tuples, env)
    }
}

/// A qualification lowered onto a columnar mirror: one typed `Kern`
/// per conjunct, run over a *selection vector* of candidate row indices.
/// Lowering succeeds only when **every** conjunct maps to a kernel, so
/// evaluation can never error and never disagree with the row path —
/// any conjunct the typed layout does not cover sends the whole
/// predicate back to [`CompiledPred::eval_bool`].
///
/// Selection semantics match the row path exactly: a row is selected
/// iff every conjunct evaluates to `TRUE` (NULL and FALSE both drop the
/// row), so kernels only ever *remove* indices and their order of
/// application cannot change the result — nor can a zone map's verdict,
/// which only ever skips rows no kernel would keep or keeps rows every
/// kernel would (see [`ColumnarPred::select_range`]).
pub struct ColumnarPred<'c> {
    kernels: Vec<Kern<'c>>,
}

/// One conjunct's typed kernel over column storage. Constants are
/// decoded at lowering time; per-row work is a slice read, a null-bit
/// test and a primitive comparison.
enum Kern<'c> {
    /// Conjunct is TRUE for every row (literal `TRUE`, or a
    /// constant-constant comparison that evaluated to TRUE).
    AllTrue,
    /// Conjunct is never TRUE (NULL/FALSE constant result): selects
    /// nothing.
    NeverTrue,
    /// `Int` column vs integer constant; the column's zone map gives
    /// each strip a [`Verdict`] before a row is read.
    IntConst {
        values: &'c [i64],
        nulls: &'c NullBitmap,
        zones: &'c Zones,
        op: CmpOp,
        k: i64,
    },
    /// Interned string column vs string constant: the comparison ran
    /// once per *distinct* pool entry at lowering time, so the per-row
    /// kernel is a null test plus a table lookup.
    StrPool {
        ids: &'c [u32],
        nulls: &'c NullBitmap,
        truth: Vec<bool>,
    },
    /// `Int` column vs `Int` column.
    IntInt {
        a: &'c [i64],
        b: &'c [i64],
        an: &'c NullBitmap,
        bn: &'c NullBitmap,
        op: CmpOp,
    },
}

/// What one kernel can tell about a strip before reading a row of it.
enum Verdict {
    /// No row of the strip can pass: the strip selects nothing.
    Skip,
    /// Every row passes — no NULL, every payload on the right side of
    /// the constant: the kernel need not run on this strip.
    Take,
    /// Rows must be tested. `sign`: an order comparison whose constant
    /// lies inside the strip's zone, and the zone's width `max − min`
    /// fits an `i64`, so every `k − v` and `v − k` does too and the test
    /// may read the sign of a difference (see [`ColumnarPred::apply`]).
    Test { sign: bool },
}

/// The verdict of `v op k` over a strip whose payloads all lie in
/// `[min, max]` and which holds a NULL iff `nulls`. A NULL fails every
/// comparison, so it can only demote `Take` to `Test`.
fn int_verdict(op: CmpOp, k: i64, (min, max): (i64, i64), nulls: bool) -> Verdict {
    let (none, all) = match op {
        CmpOp::Eq => (k < min || k > max, min == k && max == k),
        CmpOp::Ne => (min == k && max == k, k < min || k > max),
        CmpOp::Lt => (min >= k, max < k),
        CmpOp::Le => (min > k, max <= k),
        CmpOp::Gt => (max <= k, min > k),
        CmpOp::Ge => (max < k, min >= k),
    };
    match (none, all) {
        (true, _) => Verdict::Skip,
        (false, true) if !nulls => Verdict::Take,
        _ => Verdict::Test {
            sign: !all && max.checked_sub(min).is_some(),
        },
    }
}

/// Lanes per unrolled strip of the flag kernels. 16 `u8` flags is one
/// SSE register / half a NEON quad-pair; LLVM turns the fixed-trip
/// inner loops below into packed compares without any intrinsics.
const FLAG_LANES: usize = 16;

/// AND `test(vals[j])` into `flags[j]` for every lane, branchlessly:
/// the comparison result is converted to `0`/`1` and combined with
/// `&=`, so there is no data-dependent branch for the vectorizer to
/// trip on. `chunks_exact` gives the compiler a fixed-trip inner loop;
/// the remainder is handled scalar.
#[inline]
fn and_map<T: Copy>(flags: &mut [u8], vals: &[T], test: impl Fn(T) -> bool) {
    debug_assert_eq!(flags.len(), vals.len());
    let mut fc = flags.chunks_exact_mut(FLAG_LANES);
    let mut vc = vals.chunks_exact(FLAG_LANES);
    for (fs, vs) in (&mut fc).zip(&mut vc) {
        for j in 0..FLAG_LANES {
            fs[j] &= u8::from(test(vs[j]));
        }
    }
    for (f, v) in fc.into_remainder().iter_mut().zip(vc.remainder()) {
        *f &= u8::from(test(*v));
    }
}

/// Two-column variant of [`and_map`].
#[inline]
fn and_map2<A: Copy, B: Copy>(flags: &mut [u8], a: &[A], b: &[B], test: impl Fn(A, B) -> bool) {
    debug_assert_eq!(flags.len(), a.len());
    debug_assert_eq!(flags.len(), b.len());
    let mut fc = flags.chunks_exact_mut(FLAG_LANES);
    let mut ac = a.chunks_exact(FLAG_LANES);
    let mut bc = b.chunks_exact(FLAG_LANES);
    for ((fs, xs), ys) in (&mut fc).zip(&mut ac).zip(&mut bc) {
        for j in 0..FLAG_LANES {
            fs[j] &= u8::from(test(xs[j], ys[j]));
        }
    }
    for ((f, x), y) in fc
        .into_remainder()
        .iter_mut()
        .zip(ac.remainder())
        .zip(bc.remainder())
    {
        *f &= u8::from(test(*x, *y));
    }
}

/// Dispatch the comparison operator **outside** the hot loop: each arm
/// instantiates [`and_map`] with a monomorphic branch-free test, so the
/// loop body contains exactly one compare + one AND per lane.
#[inline]
fn and_cmp<T: Copy>(flags: &mut [u8], vals: &[T], op: CmpOp, ord: impl Fn(T) -> Ordering + Copy) {
    match op {
        CmpOp::Eq => and_map(flags, vals, move |v| ord(v).is_eq()),
        CmpOp::Ne => and_map(flags, vals, move |v| ord(v).is_ne()),
        CmpOp::Lt => and_map(flags, vals, move |v| ord(v).is_lt()),
        CmpOp::Gt => and_map(flags, vals, move |v| ord(v).is_gt()),
        CmpOp::Le => and_map(flags, vals, move |v| ord(v).is_le()),
        CmpOp::Ge => and_map(flags, vals, move |v| ord(v).is_ge()),
    }
}

/// Two-column variant of [`and_cmp`].
#[inline]
fn and_cmp2<A: Copy, B: Copy>(
    flags: &mut [u8],
    a: &[A],
    b: &[B],
    op: CmpOp,
    ord: impl Fn(A, B) -> Ordering + Copy,
) {
    match op {
        CmpOp::Eq => and_map2(flags, a, b, move |x, y| ord(x, y).is_eq()),
        CmpOp::Ne => and_map2(flags, a, b, move |x, y| ord(x, y).is_ne()),
        CmpOp::Lt => and_map2(flags, a, b, move |x, y| ord(x, y).is_lt()),
        CmpOp::Gt => and_map2(flags, a, b, move |x, y| ord(x, y).is_gt()),
        CmpOp::Le => and_map2(flags, a, b, move |x, y| ord(x, y).is_le()),
        CmpOp::Ge => and_map2(flags, a, b, move |x, y| ord(x, y).is_ge()),
    }
}

/// Clear the flags of NULL rows, walking the bitmap a word at a time.
/// Skipped outright for all-valid columns (the common case), so fully
/// dense data pays nothing for nullability.
#[inline]
fn and_not_null(flags: &mut [u8], nulls: &NullBitmap, lo: usize) {
    nulls.for_each_null(lo, lo + flags.len(), |i| flags[i - lo] = 0);
}

/// Keep the indices `i` of `sel` whose `ord(i)` — `None` for a NULL
/// operand — satisfies `op`. As in [`and_cmp`], the operator is matched
/// once, outside the loop: each arm is a monomorphic `retain`.
#[inline]
fn retain_cmp(sel: &mut Vec<u32>, op: CmpOp, ord: impl Fn(usize) -> Option<Ordering> + Copy) {
    let holds = |i: &u32, test: fn(Ordering) -> bool| ord(*i as usize).is_some_and(test);
    match op {
        CmpOp::Eq => sel.retain(|i| holds(i, Ordering::is_eq)),
        CmpOp::Ne => sel.retain(|i| holds(i, Ordering::is_ne)),
        CmpOp::Lt => sel.retain(|i| holds(i, Ordering::is_lt)),
        CmpOp::Gt => sel.retain(|i| holds(i, Ordering::is_gt)),
        CmpOp::Le => sel.retain(|i| holds(i, Ordering::is_le)),
        CmpOp::Ge => sel.retain(|i| holds(i, Ordering::is_ge)),
    }
}

/// How many of `flags` are set. Flags are exactly `0` or `1`, so eight
/// of them read as one `u64` whose byte sum (at most 8, no carry) one
/// multiply by `0x0101…01` gathers into the top byte.
#[inline]
fn count_survivors(flags: &[u8]) -> usize {
    let (groups, rest) = flags.as_chunks::<8>();
    let bytes = |g: &[u8; 8]| u64::from_ne_bytes(*g).wrapping_mul(0x0101_0101_0101_0101) >> 56;
    let dense: u64 = groups.iter().map(bytes).sum();
    dense as usize + rest.iter().map(|&f| usize::from(f)).sum::<usize>()
}

/// Append `base + j` for every set flag `j`, ascending. Eight flags
/// read as one `u64` that is zero when the whole group was rejected
/// (one compare skips it) and whose lowest set bit is otherwise the
/// next survivor.
#[inline]
fn push_survivors(flags: &[u8], base: usize, out: &mut Vec<u32>) {
    let (groups, rest) = flags.as_chunks::<8>();
    let mut at = base;
    for group in groups {
        let mut word = u64::from_le_bytes(*group);
        while word != 0 {
            out.push((at + word.trailing_zeros() as usize / 8) as u32);
            word &= word - 1;
        }
        at += 8;
    }
    for (j, flag) in rest.iter().enumerate() {
        if *flag != 0 {
            out.push((at + j) as u32);
        }
    }
}

/// Rows per selection strip. The flag buffer for one strip is a 1 KiB
/// stack array that stays in L1 across every kernel pass and the final
/// extraction, so adding a conjunct never adds a full-width pass over
/// a heap flag vector — only over the (typed, contiguous) column data
/// it actually reads. One strip is one zone of an `Int` column, so a
/// strip's [`Verdict`] reads one zone.
const SELECT_STRIP: usize = ZONE_ROWS;

/// A dense strip pivots to a sparse survivor list once at most
/// `1 / SPARSE_PIVOT` of it survives. Each later kernel then costs a
/// `retain` step per survivor instead of a branch-free pass per row.
/// Measured on the 2-core bench host (DESIGN §4 has the table): a dense
/// `IntConst` pass with its survivor count is ≈ 0.65 ns/row; a `retain`
/// is ≈ 5 ns per survivor when it keeps nearly all of them — the
/// near-vacuous tail the sparse list exists for — and ≈ 13 ns when it
/// keeps half, a branch it mispredicts. The pivot is the first
/// break-even, 0.65 / 5 ≈ 1/8.
const SPARSE_PIVOT: usize = 8;

impl ColumnarPred<'_> {
    /// What `kern`'s zone map says about the strip `[lo, hi)`. Only an
    /// `Int`-vs-constant kernel has one; the others are `Take` when they
    /// hold for every row, `Skip` when for none, and `Test` otherwise.
    fn verdict(kern: &Kern<'_>, lo: usize, hi: usize) -> Verdict {
        match kern {
            Kern::AllTrue => Verdict::Take,
            Kern::NeverTrue => Verdict::Skip,
            Kern::IntConst {
                nulls,
                zones,
                op,
                k,
                ..
            } => int_verdict(*op, *k, zones.span(lo, hi), nulls.any_in(lo, hi)),
            Kern::StrPool { .. } | Kern::IntInt { .. } => Verdict::Test { sign: false },
        }
    }

    /// Apply one kernel to the strip `[lo, hi)`, AND-ing its verdict
    /// into `flags` (one byte per row of the strip). With `sign` (see
    /// [`Verdict::Test`]) an `Int` order comparison tests the sign of
    /// `k − v` or `v − k` — `k ± 1` for the non-strict forms — which
    /// SSE2's packed 64-bit subtract serves where it has no packed
    /// 64-bit signed compare.
    fn apply(kern: &Kern<'_>, sign: bool, flags: &mut [u8], lo: usize, hi: usize) {
        match kern {
            Kern::AllTrue | Kern::NeverTrue => {}
            Kern::IntConst {
                values,
                nulls,
                op,
                k,
                ..
            } => {
                let (vals, k) = (&values[lo..hi], *k);
                // With `sign`, `k` lies inside the zone: `k − 1` (`Ge`)
                // and `k + 1` (`Le`) stay inside it, and no difference
                // of two of its values overflows.
                match (op, sign) {
                    (CmpOp::Gt, true) => and_map(flags, vals, move |v| k.wrapping_sub(v) < 0),
                    (CmpOp::Ge, true) => {
                        let c = k - 1;
                        and_map(flags, vals, move |v| c.wrapping_sub(v) < 0);
                    }
                    (CmpOp::Lt, true) => and_map(flags, vals, move |v| v.wrapping_sub(k) < 0),
                    (CmpOp::Le, true) => {
                        let c = k + 1;
                        and_map(flags, vals, move |v| v.wrapping_sub(c) < 0);
                    }
                    _ => and_cmp(flags, vals, *op, move |v: i64| v.cmp(&k)),
                }
                and_not_null(flags, nulls, lo);
            }
            Kern::StrPool { ids, nulls, truth } => {
                // Pool-id truth lookup is a gather, not a vector lane:
                // probe only rows still selected (the flag branch is
                // all-true — perfectly predicted — when this kernel
                // runs first).
                for (j, f) in flags.iter_mut().enumerate() {
                    if *f != 0 {
                        *f = u8::from(truth[ids[lo + j] as usize]);
                    }
                }
                and_not_null(flags, nulls, lo);
            }
            Kern::IntInt { a, b, an, bn, op } => {
                and_cmp2(flags, &a[lo..hi], &b[lo..hi], *op, |x: i64, y: i64| {
                    x.cmp(&y)
                });
                and_not_null(flags, an, lo);
                and_not_null(flags, bn, lo);
            }
        }
    }

    /// Apply one kernel to a sparse (absolute-index) survivor list,
    /// dropping rows it rejects. Operator dispatch is hoisted out of
    /// the per-row loop exactly as in [`Self::apply`]: each comparison
    /// arm is a monomorphic `retain` ([`retain_cmp`]) over the (already
    /// small) index list.
    fn retain_sparse(kern: &Kern<'_>, sel: &mut Vec<u32>) {
        match kern {
            Kern::AllTrue | Kern::NeverTrue => {}
            Kern::IntConst {
                values,
                nulls,
                op,
                k,
                ..
            } => retain_cmp(sel, *op, |i| (!nulls.is_null(i)).then(|| values[i].cmp(k))),
            Kern::StrPool { ids, nulls, truth } => sel.retain(|&i| {
                let i = i as usize;
                !nulls.is_null(i) && truth[ids[i] as usize]
            }),
            Kern::IntInt { a, b, an, bn, op } => retain_cmp(sel, *op, |i| {
                (!an.is_null(i) && !bn.is_null(i)).then(|| a[i].cmp(&b[i]))
            }),
        }
    }

    /// Indices in `[lo, hi)` (ascending) whose rows satisfy every
    /// conjunct. Infallible by construction: only conjuncts that cannot
    /// error lower to kernels.
    ///
    /// Evaluation is strip-at-a-time and **adaptive**. Each
    /// `SELECT_STRIP`-row strip first asks every kernel for its
    /// `Verdict`, read off the zone map without touching a row: one
    /// `Skip` drops the strip, and a strip every kernel `Take`s is
    /// selected whole. The kernels left to `Test` start on a
    /// byte-per-row selection *flag* buffer: they make contiguous
    /// branchless passes AND-ing their verdict into the flags
    /// (`and_map`/`and_map2`), so column data streams through typed
    /// slices in strict ascending order — the layout the compiler
    /// auto-vectorizes — while the flag buffer lives on the stack and
    /// never leaves L1. After each dense pass the strip's survivor count
    /// decides whether to stay dense or pivot: once at most
    /// `1 / SPARSE_PIVOT` of the strip survives, the survivors are
    /// extracted into a sparse index list and the remaining kernels run
    /// as per-index gathers (`retain_sparse`), so a highly selective
    /// leading conjunct — `B = 3` in front of a tail of near-vacuous
    /// range checks, say — spares the tail its full-width passes.
    pub fn select_range(&self, lo: usize, hi: usize) -> Vec<u32> {
        let mut out = Vec::new();
        let mut flags = [1u8; SELECT_STRIP];
        let mut sparse: Vec<u32> = Vec::new();
        let mut tests: Vec<(&Kern<'_>, bool)> = Vec::with_capacity(self.kernels.len());
        let mut strip_hi = lo;
        'strips: while strip_hi < hi {
            let strip_lo = strip_hi;
            strip_hi = (strip_lo + SELECT_STRIP).min(hi);
            tests.clear();
            for kern in &self.kernels {
                match Self::verdict(kern, strip_lo, strip_hi) {
                    Verdict::Skip => continue 'strips,
                    Verdict::Take => {}
                    Verdict::Test { sign } => tests.push((kern, sign)),
                }
            }
            if tests.is_empty() {
                out.extend(strip_lo as u32..strip_hi as u32);
                continue;
            }
            let n = strip_hi - strip_lo;
            let f = &mut flags[..n];
            f.fill(1);
            let mut dense = true;
            let mut dead = false;
            let mut kerns = tests.iter();
            while let Some(&(kern, sign)) = kerns.next() {
                if dense {
                    Self::apply(kern, sign, f, strip_lo, strip_hi);
                    if kerns.len() == 0 {
                        break;
                    }
                    let survivors = count_survivors(f);
                    if survivors == 0 {
                        dead = true;
                        break;
                    }
                    if survivors * SPARSE_PIVOT <= n {
                        sparse.clear();
                        push_survivors(f, strip_lo, &mut sparse);
                        dense = false;
                    }
                } else {
                    Self::retain_sparse(kern, &mut sparse);
                    if sparse.is_empty() {
                        dead = true;
                        break;
                    }
                }
            }
            if !dead {
                if dense {
                    push_survivors(f, strip_lo, &mut out);
                } else {
                    out.extend_from_slice(&sparse);
                }
            }
        }
        out
    }
}

impl CompiledPred<'_> {
    /// Lower this predicate onto a columnar mirror, or `None` when any
    /// conjunct falls outside the typed kernel set (deref chains,
    /// function calls, disjunctions, spill columns, …) — the caller
    /// then uses the row path for the whole predicate, preserving
    /// evaluation order, errors and results exactly.
    /// `params` is the statement's bind array: a `?` operand is resolved
    /// to its bound value *at lowering time* — per execution — so the
    /// kernel it selects is the same typed constant kernel a literal
    /// would get, while the compiled predicate itself stays
    /// bind-independent.
    pub fn columnar<'c>(
        &self,
        cols: &'c ColumnarRelation,
        params: &[Value],
    ) -> Option<ColumnarPred<'c>> {
        lower_all(self.conjuncts.iter(), 0, cols, params)
    }

    /// The equality conjuncts `i.a = j.b` between plain attributes of two
    /// different inputs, each with its position in the conjunct list, as
    /// 0-based `(input, attribute)` pairs in the order written — what a
    /// join step can key a table on.
    pub fn links(&self) -> impl Iterator<Item = (usize, [(usize, usize); 2])> + '_ {
        (self.conjuncts.iter().enumerate()).filter_map(|(at, c)| Some((at, c.link()?)))
    }

    /// The conjuncts input `rel0` (0-based) can be pre-selected by: the
    /// comparisons whose attribute references all read that input.
    pub fn local(&self, rel0: usize) -> LocalPred<'_> {
        let conjuncts = self.conjuncts.iter();
        LocalPred {
            rel0,
            conjuncts: conjuncts.filter(|c| c.only_input() == Some(rel0)).collect(),
        }
    }

    /// What a streamed join still checks on a complete combination: every
    /// conjunct, in the order written, except the links its steps
    /// compared at the probe (`linked`, positions from
    /// [`links`](CompiledPred::links)) and the local conjuncts of each
    /// input `k` whose pre-selection decided them TRUE on every survivor
    /// (`settled[k]`). Only conjuncts known to be TRUE are left out, so
    /// the fold's result and errors are the whole qualification's.
    pub fn residual(&self, linked: &[usize], settled: &[bool]) -> Residual<'_> {
        let conjuncts = self.conjuncts.iter().enumerate();
        let open = conjuncts.filter(|(at, c)| {
            let local = c.only_input().and_then(|k| settled.get(k).copied());
            !linked.contains(at) && local != Some(true)
        });
        Residual {
            conjuncts: open.map(|(_, c)| c).collect(),
        }
    }
}

/// What pre-selection's fast forms tell of one row of a join input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preselected {
    /// A conjunct is FALSE or NULL on it: the row joins nothing.
    Dropped,
    /// Every conjunct is TRUE on it.
    Settled,
    /// Kept, but a fast form declined it (unbound `?`, dangling OID, a
    /// non-tuple object): the conjuncts stay in the join's check.
    Open,
}

/// The part of an n-ary `search` qualification that one input's rows
/// decide alone. A conjunction needs every conjunct TRUE, so a row one of
/// these rejects (FALSE *or* NULL) joins nothing and can be dropped
/// before the join. When every survivor was decided TRUE — always over
/// the columnar kernels, on the row path unless a fast form declined a
/// row — the conjuncts leave the join's per-combination check
/// ([`CompiledPred::residual`]); otherwise they stay in it, the
/// authority on results and errors.
pub struct LocalPred<'p> {
    rel0: usize,
    conjuncts: Vec<&'p Conjunct<'p>>,
}

impl LocalPred<'_> {
    /// No conjunct constrains the input alone.
    pub fn is_empty(&self) -> bool {
        self.conjuncts.is_empty()
    }

    /// The input (0-based) these conjuncts read.
    pub fn input(&self) -> usize {
        self.rel0
    }

    /// Lower onto the input's columnar mirror: `None` unless every
    /// conjunct has a kernel (see [`CompiledPred::columnar`]).
    pub fn columnar<'c>(
        &self,
        cols: &'c ColumnarRelation,
        params: &[Value],
    ) -> Option<ColumnarPred<'c>> {
        lower_all(self.conjuncts.iter().copied(), self.rel0, cols, params)
    }

    /// What the fast forms decide of the row in `tuples[self.input()]`:
    /// dropped as soon as one is FALSE or NULL, settled when all are
    /// TRUE, open when none dropped it but one declined. No other slot of
    /// `tuples` is read.
    #[inline]
    pub fn keeps(&self, tuples: &[&[Value]], env: &EvalEnv<'_>) -> Preselected {
        let mut kept = Preselected::Settled;
        for c in &self.conjuncts {
            match c.fast_truth(tuples, env) {
                Some(Truth::True) => {}
                Some(Truth::False | Truth::Other) => return Preselected::Dropped,
                None => kept = Preselected::Open,
            }
        }
        kept
    }
}

/// The conjuncts a streamed join checks on each complete combination
/// ([`CompiledPred::residual`]).
pub struct Residual<'p> {
    conjuncts: Vec<&'p Conjunct<'p>>,
}

impl Residual<'_> {
    /// Evaluate as a qualification, as [`CompiledPred::eval_bool`] does:
    /// `true` at once when nothing is left.
    #[inline]
    pub fn eval_bool(&self, tuples: &[&[Value]], env: &EvalEnv<'_>) -> EngineResult<bool> {
        all_true(self.conjuncts.iter().copied(), tuples, env)
    }
}

/// A comparison operand after bind-time resolution: a column of the
/// input being scanned, or a concrete value (a literal, or a `?` looked
/// up in the bind array).
enum Opnd<'v> {
    Col(usize),
    Val(&'v Value),
}

/// Resolve a fast reference against the bind array. `None` for shapes
/// the columnar lowering cannot serve (slots of another input than
/// `rel0`, deref chains) and for unbound parameters — the row path then
/// reports the error.
fn operand<'v>(r: &'v FastRef<'_>, rel0: usize, params: &'v [Value]) -> Option<Opnd<'v>> {
    match r {
        FastRef::Slot { rel0: r0, attr0 } if *r0 == rel0 => Some(Opnd::Col(*attr0)),
        FastRef::Konst(k) => Some(Opnd::Val(k)),
        FastRef::Param(i) => params.get(*i as usize).map(Opnd::Val),
        _ => None,
    }
}

/// One kernel per conjunct over `cols`, the mirror of input `rel0`, or
/// `None` as soon as a conjunct has none.
fn lower_all<'p, 'c>(
    conjuncts: impl Iterator<Item = &'p Conjunct<'p>>,
    rel0: usize,
    cols: &'c ColumnarRelation,
    params: &[Value],
) -> Option<ColumnarPred<'c>> {
    let kernels = conjuncts.map(|c| lower_conjunct(c, rel0, cols, params));
    Some(ColumnarPred {
        kernels: kernels.collect::<Option<_>>()?,
    })
}

fn lower_conjunct<'c>(
    c: &Conjunct<'_>,
    rel0: usize,
    cols: &'c ColumnarRelation,
    params: &[Value],
) -> Option<Kern<'c>> {
    match c.fast.as_ref()? {
        FastQual::True => Some(Kern::AllTrue),
        FastQual::Cmp { op, left, right } => {
            match (operand(left, rel0, params)?, operand(right, rel0, params)?) {
                (Opnd::Col(a), Opnd::Val(k)) => lower_col_const(*op, cols.column(a)?, k),
                (Opnd::Val(k), Opnd::Col(a)) => lower_col_const(op.flipped(), cols.column(a)?, k),
                (Opnd::Col(a), Opnd::Col(b)) => {
                    lower_col_col(*op, cols.column(a)?, cols.column(b)?)
                }
                (Opnd::Val(k1), Opnd::Val(k2)) => Some(match op.eval(k1, k2) {
                    Value::Bool(true) => Kern::AllTrue,
                    // FALSE, NULL, or a broadcast collection: never TRUE.
                    _ => Kern::NeverTrue,
                }),
            }
        }
    }
}

/// Lower `col op k` (constant already mirrored to the right). A
/// comparand of any other kind than the column's (Int column vs Real or
/// Str constant, any constant against a spill column, …) has no kernel:
/// the whole predicate takes the row path.
fn lower_col_const<'c>(op: CmpOp, col: &'c Column, k: &Value) -> Option<Kern<'c>> {
    match (col, k) {
        // NULL comparand: the comparison is NULL for every row, which a
        // qualification treats as "not selected".
        (_, Value::Null) => Some(Kern::NeverTrue),
        (
            Column::Int {
                values,
                nulls,
                zones,
            },
            Value::Int(i),
        ) => Some(Kern::IntConst {
            values,
            nulls,
            zones,
            op,
            k: *i,
        }),
        (
            Column::Str {
                ids, pool, nulls, ..
            },
            Value::Str(s),
        ) => {
            let truth: Vec<bool> = pool
                .iter()
                .map(|p| op.holds(p.as_ref().cmp(s.as_str())))
                .collect();
            Some(Kern::StrPool { ids, nulls, truth })
        }
        _ => None,
    }
}

/// Lower `col_a op col_b` (both in the same single-input relation):
/// `Int × Int` is the one column pair with a kernel.
fn lower_col_col<'c>(op: CmpOp, ca: &'c Column, cb: &'c Column) -> Option<Kern<'c>> {
    match (ca, cb) {
        (
            Column::Int {
                values: a,
                nulls: an,
                ..
            },
            Column::Int {
                values: b,
                nulls: bn,
                ..
            },
        ) => Some(Kern::IntInt { a, b, an, bn, op }),
        _ => None,
    }
}

impl CompiledProj {
    /// The 0-based attribute of input 0 this projection copies, when it
    /// is a plain first-input slot reference (the shape the columnar
    /// gather path and the identity-projection short-circuit need).
    pub fn slot0(&self) -> Option<usize> {
        match self.slot {
            Some((0, attr0)) => Some(attr0),
            _ => None,
        }
    }
}

/// The operands of a nested `AND` (`and`) or `OR` chain, left to right.
fn flatten<'s>(s: &'s Scalar, and: bool, out: &mut Vec<&'s Scalar>) {
    match (s, and) {
        (Scalar::And(a, b), true) | (Scalar::Or(a, b), false) => {
            flatten(a, and, out);
            flatten(b, and, out);
        }
        (other, _) => out.push(other),
    }
}

/// The registry's error for a call with the wrong number of arguments.
fn arity_error(function: &str, expected: usize, found: usize) -> EngineError {
    EngineError::Adt(AdtError::Arity {
        function: function.into(),
        expected,
        found,
    })
}

/// Field access with automatic mapping (tuples index directly, object
/// references dereference first, collections map elementwise), borrowing
/// wherever the receiver is borrowed.
fn getfield_cow<'v>(
    v: Cow<'v, Value>,
    idx1: usize,
    env: &EvalEnv<'v>,
) -> EngineResult<Cow<'v, Value>> {
    match v {
        Cow::Borrowed(b) => getfield_ref(b, idx1, env),
        Cow::Owned(o) => getfield_owned(o, idx1, env),
    }
}

fn getfield_ref<'v>(v: &'v Value, idx1: usize, env: &EvalEnv<'v>) -> EngineResult<Cow<'v, Value>> {
    match v {
        Value::Null => Ok(Cow::Owned(Value::Null)),
        Value::Tuple(items) => idx1
            .checked_sub(1)
            .and_then(|i| items.get(i))
            .map(Cow::Borrowed)
            .ok_or({
                EngineError::Adt(AdtError::IndexOutOfBounds {
                    index: idx1 as i64,
                    len: items.len(),
                })
            }),
        Value::Object(oid) => {
            let inner = env.objects.value(*oid).map_err(EngineError::Adt)?;
            getfield_ref(inner, idx1, env)
        }
        Value::Coll(kind, items) => {
            let mapped = items
                .iter()
                .map(|e| getfield_ref(e, idx1, env).map(Cow::into_owned))
                .collect::<EngineResult<Vec<_>>>()?;
            Ok(Cow::Owned(Value::coll(*kind, mapped)))
        }
        other => Err(EngineError::Adt(AdtError::TypeMismatch {
            function: "GETFIELD".into(),
            expected: "TUPLE, OBJECT or collection".into(),
            found: other.kind_name().into(),
        })),
    }
}

fn getfield_owned<'v>(v: Value, idx1: usize, env: &EvalEnv<'v>) -> EngineResult<Cow<'v, Value>> {
    match v {
        Value::Null => Ok(Cow::Owned(Value::Null)),
        Value::Tuple(mut items) => {
            if idx1 >= 1 && idx1 <= items.len() {
                Ok(Cow::Owned(items.swap_remove(idx1 - 1)))
            } else {
                Err(EngineError::Adt(AdtError::IndexOutOfBounds {
                    index: idx1 as i64,
                    len: items.len(),
                }))
            }
        }
        Value::Object(oid) => {
            let inner = env.objects.value(oid).map_err(EngineError::Adt)?;
            getfield_ref(inner, idx1, env)
        }
        Value::Coll(kind, items) => {
            let mapped = items
                .into_iter()
                .map(|e| getfield_owned(e, idx1, env).map(Cow::into_owned))
                .collect::<EngineResult<Vec<_>>>()?;
            Ok(Cow::Owned(Value::coll(kind, mapped)))
        }
        other => Err(EngineError::Adt(AdtError::TypeMismatch {
            function: "GETFIELD".into(),
            expected: "TUPLE, OBJECT or collection".into(),
            found: other.kind_name().into(),
        })),
    }
}

/// `VALUE` with collection mapping, borrowing from the object store.
fn deref_cow<'v>(v: Cow<'v, Value>, env: &EvalEnv<'v>) -> EngineResult<Cow<'v, Value>> {
    match v {
        Cow::Borrowed(Value::Null) | Cow::Owned(Value::Null) => Ok(Cow::Owned(Value::Null)),
        Cow::Borrowed(Value::Object(oid)) => env
            .objects
            .value(*oid)
            .map(Cow::Borrowed)
            .map_err(EngineError::Adt),
        Cow::Owned(Value::Object(oid)) => env
            .objects
            .value(oid)
            .map(Cow::Borrowed)
            .map_err(EngineError::Adt),
        Cow::Borrowed(Value::Coll(kind, items)) => {
            let mapped = items
                .iter()
                .map(|e| deref_cow(Cow::Borrowed(e), env).map(Cow::into_owned))
                .collect::<EngineResult<Vec<_>>>()?;
            Ok(Cow::Owned(Value::coll(*kind, mapped)))
        }
        Cow::Owned(Value::Coll(kind, items)) => {
            let mapped = items
                .into_iter()
                .map(|e| deref_cow(Cow::Owned(e), env).map(Cow::into_owned))
                .collect::<EngineResult<Vec<_>>>()?;
            Ok(Cow::Owned(Value::coll(kind, mapped)))
        }
        other => Ok(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{Relation, Row};
    use eds_adt::{Field, Type};
    use eds_lera::Schema;
    use eds_testkit::rng::StdRng;

    /// Over aligned and unaligned ranges of a mirror of three zones and
    /// 17 rows — a sorted key, a clustered column with NULLs, random
    /// values with NULLs, and small values beside `i64::MIN` /
    /// `i64::MAX` — `select_range(lo, hi)` selects exactly the rows the
    /// row path keeps, one conjunction of one or two comparisons at a
    /// time. Then both sides of the dense → sparse pivot: over one strip
    /// the first kernel leaves exactly one row fewer than, as many as
    /// and one more than `1 / SPARSE_PIVOT` of it (and the old quarter),
    /// and an `IntConst`, a `StrPool` and an `IntInt` kernel follow.
    #[test]
    fn unaligned_select_range_equals_a_row_by_row_filter() {
        let mut rng = StdRng::seed_from_u64(0x5E1E);
        let n = 3 * ZONE_ROWS + 17;
        let rows: Vec<Row> = (0..n as i64)
            .map(|i| {
                let gap = |v: i64, null: bool| if null { Value::Null } else { Value::Int(v) };
                let c = rng.gen_range(-20..20i64);
                let d = match i % 500 {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    _ => rng.gen_range(-3..3i64),
                };
                vec![
                    Value::Int(i),
                    gap(i / 300, i % 97 == 5),
                    gap(c, rng.gen_bool(0.05)),
                    Value::Int(d),
                ]
            })
            .collect();
        let fields = ["a", "b", "c", "d"].map(|f| Field::new(f, Type::Any));
        let rel = Relation::new(Schema::new(fields.to_vec()), rows.clone());
        let cols = ColumnarRelation::build(&rel).expect("typed");
        let db = Database::new();
        let env = EvalEnv::of(&db);
        let mut ranges = vec![
            (0, n),
            (ZONE_ROWS, 2 * ZONE_ROWS),
            (1_000, 1_050),
            (n - 1, n),
        ];
        for _ in 0..300 {
            let lo = rng.gen_range(0..n);
            ranges.push((lo, rng.gen_range(lo..n + 1)));
        }
        for (case, (lo, hi)) in ranges.into_iter().enumerate() {
            let mut conjunct = || {
                let k = match rng.gen_range(0..4u8) {
                    0 => rng.gen_range(-25..25i64),
                    1 => rng.gen_range(0..n as i64 + 2),
                    2 => i64::MIN,
                    _ => i64::MAX,
                };
                let op = CmpOp::ALL[rng.gen_range(0..6usize)];
                Scalar::cmp(
                    op,
                    Scalar::attr(1, rng.gen_range(1..5usize)),
                    Scalar::lit(k),
                )
            };
            let mut pred = conjunct();
            if case % 2 == 1 {
                pred = Scalar::and(pred, conjunct());
            }
            let compiled = CompiledPred::compile(&pred);
            let lowered = compiled
                .columnar(&cols, &[])
                .expect("every conjunct has a kernel");
            let want: Vec<u32> = (lo..hi)
                .filter(|&i| compiled.eval_bool(&[&rows[i]], &env).unwrap())
                .map(|i| i as u32)
                .collect();
            assert_eq!(
                lowered.select_range(lo, hi),
                want,
                "case {case}: {pred:?} over [{lo}, {hi})"
            );
        }

        let n = SELECT_STRIP;
        let rows: Vec<Row> = (0..n as i64)
            .map(|i| {
                let c = rng.gen_range(-3..3i64);
                let c = if rng.gen_bool(0.05) {
                    Value::Null
                } else {
                    Value::Int(c)
                };
                let tag = ["x", "y", "z"][rng.gen_range(0..3usize)];
                vec![
                    Value::Int(i),
                    c,
                    Value::str(tag),
                    Value::Int(rng.gen_range(-3..3i64)),
                ]
            })
            .collect();
        let fields = ["a", "c", "tag", "d"].map(|f| Field::new(f, Type::Any));
        let rel = Relation::new(Schema::new(fields.to_vec()), rows.clone());
        let cols = ColumnarRelation::build(&rel).expect("typed");
        let tail = [
            Scalar::cmp(CmpOp::Ge, Scalar::attr(1, 2), Scalar::lit(-2)),
            Scalar::cmp(CmpOp::Ne, Scalar::attr(1, 3), Scalar::lit(Value::str("x"))),
            Scalar::cmp(CmpOp::Le, Scalar::attr(1, 2), Scalar::attr(1, 4)),
        ];
        for pivot in [n / SPARSE_PIVOT, n / 4] {
            for survivors in [pivot - 1, pivot, pivot + 1] {
                let first =
                    Scalar::cmp(CmpOp::Lt, Scalar::attr(1, 1), Scalar::lit(survivors as i64));
                let pred = tail.iter().cloned().fold(first, Scalar::and);
                let compiled = CompiledPred::compile(&pred);
                let lowered = compiled.columnar(&cols, &[]).expect("four kernels");
                let want: Vec<u32> = (0..n)
                    .filter(|&i| compiled.eval_bool(&[&rows[i]], &env).unwrap())
                    .map(|i| i as u32)
                    .collect();
                assert!(!want.is_empty() && want.len() < survivors);
                assert_eq!(lowered.select_range(0, n), want, "{survivors} survivors");
            }
        }
    }
}
