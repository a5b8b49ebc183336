//! # eds-adt — the generic ADT value system of the EDS rewriter
//!
//! Substrate crate reproducing Section 2.1 of Finance & Gardarin,
//! *"A Rule-Based Query Rewriter in an Extensible DBMS"* (ICDE 1991):
//!
//! * [`value::Value`] — the runtime data model: scalars, tuples and the
//!   generic collection ADTs (set, bag, list, array) combinable at multiple
//!   levels, plus object references — and [`value::CmpOp`], the six
//!   comparison operators over it, whose one definition the executor,
//!   the rewriter and the linter share;
//! * [`object::ObjectStore`] — identity-bearing objects with `VALUE`
//!   dereference and referential sharing;
//! * [`types::TypeRegistry`] — user `TYPE` declarations, enumeration
//!   domains, object types, the declared subtype lattice and the `ISA`
//!   predicate over the Figure-1 generic-ADT hierarchy;
//! * [`collection`] — the built-in collection function library of Figure 1;
//! * [`registry::FunctionRegistry`] — the extensible name → native-function
//!   map through which both queries and rewrite-rule constraints call ADT
//!   methods.

//! ```
//! use eds_adt::{Arity, EvalContext, FunctionRegistry, ObjectStore, TypeRegistry, Value};
//!
//! let mut functions = FunctionRegistry::with_builtins();
//! functions.register("DOUBLE", Arity::Exact(1), |args, _| {
//!     Ok(Value::Int(args[0].as_int()? * 2))
//! });
//! let (objects, types) = (ObjectStore::new(), TypeRegistry::new());
//! let ctx = EvalContext { objects: &objects, types: &types };
//! let tags = Value::set(vec!["a".into(), "b".into()]);
//! assert_eq!(
//!     functions.call("MEMBER", &["a".into(), tags], &ctx).unwrap(),
//!     Value::Bool(true)
//! );
//! assert_eq!(functions.call("double", &[21.into()], &ctx).unwrap(), Value::Int(42));
//! ```

#![warn(missing_docs)]

pub mod collection;
pub mod error;
pub mod object;
pub mod registry;
pub mod types;
pub mod value;

pub use error::{AdtError, AdtResult};
pub use object::{ObjectStore, Oid};
pub use registry::{Arity, EvalContext, FunctionDef, FunctionRegistry, NativeFn};
pub use types::{Field, MethodSig, Type, TypeBody, TypeDef, TypeRegistry};
pub use value::{CmpOp, CollKind, OrderedF64, Value};
