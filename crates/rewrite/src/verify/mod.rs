//! Semantic verification of rewrite rules (`eds-verify`).
//!
//! The analyzer ([`mod@crate::analyze`]) gates the knowledge base
//! *structurally*; this module gates it *semantically*, with two
//! complementary instruments:
//!
//! * [`equiv`] — a bounded 3-valued equivalence prover for pure
//!   boolean/comparison rules: exhaustive small-domain valuation with
//!   Kleene NULL semantics, honoring the rule's side conditions;
//! * [`fuzz`] — a deterministic differential-fuzz case generator: per
//!   rule, a seeded random world (tables, rows, a subject term the LHS
//!   matches) that a harness executes before and after rewriting to
//!   compare results row for row. The generator is engine-agnostic; the
//!   executing harness lives in `eds-core` (`verify_rules`), which owns
//!   the reference executor.
//!
//! Findings reuse the analyzer's [`Diagnostic`] plumbing under three new
//! codes:
//!
//! | Code | Severity | Meaning |
//! |---|---|---|
//! | `EDS030` | error | the rule was **refuted** — prover witness or shrunk fuzz counterexample attached |
//! | `EDS031` | info | outside the provable fragment — differential fuzzing is the only coverage |
//! | `EDS032` | warning | equivalence needs a NOT-NULL side condition (add `NOTNULL(...)` guards) |

pub mod equiv;
pub mod fuzz;

use crate::analyze::{Diagnostic, Severity};

/// Stable code for a refuted rule.
pub const EDS030: &str = "EDS030";
/// Stable code for fuzz-only coverage.
pub const EDS031: &str = "EDS031";
/// Stable code for an inexpressible side condition.
pub const EDS032: &str = "EDS032";

/// An `EDS030` error: the rule was refuted; `detail` carries the
/// counterexample (prover valuation or shrunk fuzz case with its seed).
pub fn refuted(rule: &str, detail: &str) -> Diagnostic {
    Diagnostic::new(
        EDS030,
        Severity::Error,
        "rule",
        format!("semantic verification refuted '{rule}': {detail}"),
    )
    .for_rule(rule)
}

/// An `EDS031` info note: the rule is outside the provable fragment and
/// only differential fuzzing (if the generator supports its shape)
/// covers it.
pub fn unsupported(rule: &str, detail: &str) -> Diagnostic {
    Diagnostic::new(
        EDS031,
        Severity::Info,
        "rule",
        format!("'{rule}' is outside the provable fragment ({detail}); differential fuzzing is the only semantic coverage"),
    )
    .for_rule(rule)
}

/// An `EDS032` warning: the rule is equivalence-preserving only under a
/// side condition it cannot express (or whose side conditions the prover
/// cannot discharge).
pub fn side_condition(rule: &str, detail: &str) -> Diagnostic {
    Diagnostic::new(EDS032, Severity::Warning, "rule", detail.to_owned()).for_rule(rule)
}
