//! Errors of the term-rewriting layer.

use std::fmt;

use eds_adt::AdtError;

/// Errors raised while parsing rule sources, evaluating constraints, or
/// running the rewrite engine.
#[derive(Debug, Clone, PartialEq)]
pub enum RewriteError {
    /// Syntax error in the rule DSL.
    Parse {
        /// 1-based line.
        line: usize,
        /// 1-based column.
        column: usize,
        /// What went wrong.
        message: String,
    },
    /// A constraint or method referenced a variable with no binding.
    UnboundVariable(String),
    /// A sequence variable was used outside a collection constructor.
    SeqVarOutsideCollection(String),
    /// A constraint evaluated to a non-boolean.
    NonBooleanConstraint(String),
    /// The named method is not registered.
    UnknownMethod(String),
    /// The named rule is not in the knowledge base.
    UnknownRule(String),
    /// The named block is not defined.
    UnknownBlock(String),
    /// A method failed irrecoverably (as opposed to merely not applying).
    MethodFailed {
        /// Method name.
        method: String,
        /// Failure description.
        message: String,
    },
    /// Error bubbled up from the ADT layer during constraint evaluation.
    Adt(AdtError),
    /// A rule's right-hand side used a variable the left-hand side and
    /// methods never bound.
    UnboundInRhs {
        /// Rule name.
        rule: String,
        /// Offending variable.
        variable: String,
    },
    /// A `SET`/`BAG` pattern with several collection variables met more
    /// leftover elements than the matcher will distribute over them
    /// ([`crate::matching::MAX_DISTRIBUTED`]; the enumeration is
    /// exponential in that count).
    MatchTooWide {
        /// Rule name.
        rule: String,
        /// Elements left to distribute.
        elements: usize,
    },
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::Parse {
                line,
                column,
                message,
            } => write!(f, "rule syntax error at {line}:{column}: {message}"),
            RewriteError::UnboundVariable(v) => write!(f, "unbound variable '{v}'"),
            RewriteError::SeqVarOutsideCollection(v) => {
                write!(f, "collection variable '{v}*' used outside LIST/SET/BAG")
            }
            RewriteError::NonBooleanConstraint(c) => {
                write!(f, "constraint did not evaluate to a boolean: {c}")
            }
            RewriteError::UnknownMethod(m) => write!(f, "unknown method '{m}'"),
            RewriteError::UnknownRule(r) => write!(f, "unknown rule '{r}'"),
            RewriteError::UnknownBlock(b) => write!(f, "unknown block '{b}'"),
            RewriteError::MethodFailed { method, message } => {
                write!(f, "method {method} failed: {message}")
            }
            RewriteError::Adt(e) => write!(f, "{e}"),
            RewriteError::UnboundInRhs { rule, variable } => {
                write!(
                    f,
                    "rule {rule}: right-hand side uses unbound variable '{variable}'"
                )
            }
            RewriteError::MatchTooWide { rule, elements } => {
                write!(
                    f,
                    "rule {rule}: cannot distribute {elements} SET/BAG elements over several \
                     collection variables (at most {})",
                    crate::matching::MAX_DISTRIBUTED
                )
            }
        }
    }
}

impl std::error::Error for RewriteError {}

impl From<AdtError> for RewriteError {
    fn from(e: AdtError) -> Self {
        RewriteError::Adt(e)
    }
}

/// Result alias for the rewriting layer.
pub type RwResult<T> = Result<T, RewriteError>;
