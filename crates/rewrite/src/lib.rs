//! # eds-rewrite — term rewriting under constraints
//!
//! Reproduces Section 4 of Finance & Gardarin, *"A Rule-Based Query
//! Rewriter in an Extensible DBMS"* (ICDE 1991):
//!
//! * [`term::Term`] — first-order terms with ordinary variables and
//!   *collection variables* (`x*`) matching argument segments;
//! * [`matching`] — backtracking matcher with ordered segment matching for
//!   `LIST` and commutative matching for `SET`/`BAG`;
//! * [`rule::Rule`] — `lhs / constraints --> rhs / methods`;
//! * [`methods`] — constraint evaluation over the ADT function library and
//!   the extensible method registry (`EVALUATE`, `SUBSTITUTE`, ...);
//! * [`dsl`] — parser for the Figure-6 rule language, including the
//!   `block`/`seq` meta-rules;
//! * [`strategy`] — bounded-saturation block execution and sequencing.
//!
//! ```
//! use eds_rewrite::{parse_source, parse_term, apply_block, BasicEnv,
//!                   MethodRegistry, RuleSet, SourceItem};
//!
//! // The paper's Section-4.1 example rule, written in the rule language.
//! let items = parse_source(
//!     "Example : F(SET(x*, G(y, f))) / MEMBER(y, x*), f = TRUE --> F(SET(x*)) / ;\n\
//!      block(b, {Example}, INF) ;",
//! ).unwrap();
//! let mut rules = RuleSet::new();
//! let mut block = None;
//! for item in items {
//!     match item {
//!         SourceItem::Rule(r) => {
//!             rules.add(r);
//!         }
//!         SourceItem::Block(b) => block = Some(b),
//!         _ => {}
//!     }
//! }
//!
//! let subject = parse_term("F(SET(A, B, G(B, TRUE)))").unwrap();
//! let out = apply_block(
//!     &rules, &block.unwrap(), &MethodRegistry::with_builtins(),
//!     &BasicEnv::new(), subject, false,
//! ).unwrap();
//! assert_eq!(out.term, parse_term("F(SET(A, B))").unwrap());
//! ```

#![warn(missing_docs)]

pub mod algebra;
pub mod analyze;
pub mod discover;
pub mod dsl;
pub mod engine;
pub mod error;
pub mod fixes;
mod flow;
pub mod matching;
pub mod methods;
mod overlap;
pub mod rule;
pub mod strategy;
pub mod symbol;
pub mod term;
pub mod trace;
pub mod verify;

pub use analyze::{analyze, analyze_rule, analyze_strategy, Diagnostic, SchemaProvider, Severity};
pub use discover::{
    canonical_rule_key, discover_rules, CostOracle, DifferentialOracle, DiscoverOptions,
    Discovered, Discovery, Fragment, Funnel, NoDifferential, NodeCountCost,
};
pub use dsl::{parse_source, parse_source_spanned, parse_term, SourceItem, Span, SpannedItem};
pub use engine::{apply_rule_once, lhs_gate, Application, RewriteStats};
pub use error::{RewriteError, RwResult};
pub use fixes::{apply_fixes, Fix, FixOutcome, FixTarget};
pub use matching::{all_matches, find_match, match_term, Control};
pub use methods::{
    eval_constraint, eval_value, is_constant_term, normalize_builtins, resolve, BasicEnv,
    MethodRegistry, TermEnv,
};
pub use rule::{MethodCall, Rule};
pub use strategy::{
    apply_block, run_strategy, run_strategy_explore, Block, Exploration, ExploreOptions, Limit,
    RuleSet, RunOutcome, Sequence, Strategy,
};
pub use symbol::{Symbol, ToSymbol};
pub use term::{Args, Bindings, Term, TermHasher, TermMap, TermSet};
pub use trace::{Trace, TraceEvent};
pub use verify::{
    equiv::{check_rule, Outcome as EquivOutcome},
    fuzz::{generate_case, rule_seed, shrink_candidates, FuzzCase, GenOutcome, TableSpec},
};
