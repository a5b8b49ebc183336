//! # eds-lera — the extended relational algebra (LERA)
//!
//! Reproduces Section 3 of Finance & Gardarin, *"A Rule-Based Query
//! Rewriter in an Extensible DBMS"* (ICDE 1991): the target language of
//! the extensible rewriter.
//!
//! * [`expr::Expr`] — `filter`/`project`/`join`, set operations, the
//!   compound `search`, `fix`point, `nest`/`unnest`;
//! * [`scalar::Scalar`] — complex conditions and projection expressions
//!   with ADT function calls, positional `i.j` attribute references, and
//!   the generic `PROJECT`/`VALUE` conversions;
//! * [`translate`] — ESQL → LERA with view inlining and recursion;
//! * [`schema`] — schema/type inference;
//! * [`term_bridge`] — lossless conversion to/from rewrite terms;
//! * [`cost`] — the logical cost model used by the benchmark harness.

//! ```
//! use eds_esql::{install_source, parse_query, Catalog};
//! use eds_lera::{translate_query, SchemaCtx};
//!
//! let mut catalog = Catalog::new();
//! install_source(&mut catalog, "TABLE T (X : INT, Y : INT);").unwrap();
//! let q = parse_query("SELECT Y FROM T WHERE X = 7 ;").unwrap();
//! let (expr, schema) = translate_query(&q, &SchemaCtx::new(&catalog)).unwrap();
//! assert_eq!(expr.to_string(), "search((T), [1.1 = 7], (1.2))");
//! assert_eq!(schema.names(), vec!["Y"]);
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod display;
pub mod error;
pub mod expr;
pub mod scalar;
pub mod schema;
pub mod term_bridge;
pub mod translate;

pub use cost::{CostModel, Estimate};
pub use display::pretty;
pub use error::{LeraError, LeraResult};
pub use expr::Expr;
pub use scalar::{CmpOp, Scalar};
pub use schema::{
    infer_scalar_type, infer_schema, nest_schema, search_schema, type_of_value, Schema, SchemaCtx,
};
pub use term_bridge::{
    expr_from_term, expr_to_term, is_operator_term, scalar_from_term, scalar_to_term,
};
pub use translate::{translate_const_expr, translate_query, translate_view};
