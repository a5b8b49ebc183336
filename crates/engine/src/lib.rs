//! # eds-engine — executable substrate for LERA plans
//!
//! The original EDS parallel database server is unavailable; this crate
//! is the faithful single-node substitute (see DESIGN.md). It evaluates
//! every LERA operator with one physical strategy per operator, leaving
//! join order and everything above the operator to the rewriter:
//!
//! * [`database::Database`] — catalog + object store + stored relations;
//! * [`mod@eval`] — `search` that selects each input first, probes a
//!   slot array or a hash table wherever equalities link two inputs and
//!   re-checks on a combination only what neither settled, reporting
//!   beside its own work the paper's cross product
//!   ([`EvalStats::cross_product`], a plan's logical work),
//!   `nest`/`unnest`, three-valued qualifications, collection
//!   broadcasting of field access and ordered comparisons;
//! * [`fixpoint`] — semi-naive `fix` evaluation;
//! * [`mod@reference`] — the per-tuple interpreter every differential suite
//!   compares the executor against.

//! ```
//! use eds_engine::{eval, Database};
//! use eds_esql::parse_query;
//! use eds_lera::{translate_query, SchemaCtx};
//!
//! let mut db = Database::new();
//! db.execute_ddl(
//!     "TABLE T (X : INT);
//!      INSERT INTO T VALUES (1), (2), (3);",
//! ).unwrap();
//! let q = parse_query("SELECT X FROM T WHERE X > 1 ;").unwrap();
//! let (plan, _) = translate_query(&q, &SchemaCtx::new(&db.catalog)).unwrap();
//! assert_eq!(eval(&plan, &db).unwrap().len(), 2);
//! ```

#![warn(missing_docs)]

pub mod columnar;
pub mod compile;
pub mod database;
pub mod error;
pub mod eval;
pub mod fixpoint;
mod hash;
pub mod parallel;
pub mod reference;
pub mod relation;

pub use columnar::ColumnarRelation;
pub use compile::{CompiledScalar, EvalEnv};
pub use database::Database;
pub use error::{EngineError, EngineResult};
pub use eval::{
    eval, eval_const_scalar, eval_with, eval_with_params, EvalOptions, EvalStats, OptLevel,
};
pub use parallel::{parallel_stats, shutdown_pool, ParallelStats, MORSEL_ROWS};
pub use reference::eval_reference;
pub use relation::{Relation, Row, SharedRow};
