//! Errors of the rewriter facade.

use std::fmt;

use eds_adt::AdtError;
use eds_engine::EngineError;
use eds_esql::EsqlError;
use eds_lera::LeraError;
use eds_rewrite::{Diagnostic, RewriteError};

/// Top-level error of the query rewriter.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Front-end failure.
    Esql(EsqlError),
    /// Algebra failure.
    Lera(LeraError),
    /// Rule-engine failure.
    Rewrite(RewriteError),
    /// Execution failure.
    Engine(EngineError),
    /// ADT failure.
    Adt(AdtError),
    /// A rule source declared as an integrity constraint does not have
    /// the expected `F(x) / ISA(x, T) --> F(x) AND pred /` shape.
    BadConstraintRule {
        /// The offending rule name.
        rule: String,
        /// Why it was rejected.
        message: String,
    },
    /// Rule DDL rejected by the static analyzer under the `deny` lint
    /// policy. Carries every diagnostic of the rejected batch (warnings
    /// included), so callers can render the full report.
    LintRejected {
        /// Analyzer findings for the rejected source.
        diagnostics: Vec<Diagnostic>,
    },
    /// A prepared statement was executed with the wrong number of bind
    /// values.
    BindMismatch {
        /// `?` parameters the statement declares.
        expected: usize,
        /// Values the bind array supplied.
        got: usize,
    },
    /// An `EDS_*` environment variable is set to a value that does not
    /// parse; [`Dbms::new`](crate::Dbms::new) refuses to start rather
    /// than fall back to a default the user did not ask for.
    BadEnvValue {
        /// The variable's name.
        var: &'static str,
        /// Its value as found.
        value: String,
        /// The spellings that would have been accepted.
        expected: &'static str,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Esql(e) => write!(f, "{e}"),
            CoreError::Lera(e) => write!(f, "{e}"),
            CoreError::Rewrite(e) => write!(f, "{e}"),
            CoreError::Engine(e) => write!(f, "{e}"),
            CoreError::Adt(e) => write!(f, "{e}"),
            CoreError::BadConstraintRule { rule, message } => {
                write!(f, "integrity constraint rule '{rule}': {message}")
            }
            CoreError::LintRejected { diagnostics } => {
                let errors = diagnostics.iter().filter(|d| d.is_error()).count();
                write!(f, "rule source rejected by eds-lint ({errors} error(s))")?;
                for d in diagnostics {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            CoreError::BindMismatch { expected, got } => {
                write!(
                    f,
                    "statement takes {expected} bind value(s), {got} supplied"
                )
            }
            CoreError::BadEnvValue {
                var,
                value,
                expected,
            } => write!(f, "{var}={value:?} is not valid (expected {expected})"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<EsqlError> for CoreError {
    fn from(e: EsqlError) -> Self {
        CoreError::Esql(e)
    }
}
impl From<LeraError> for CoreError {
    fn from(e: LeraError) -> Self {
        CoreError::Lera(e)
    }
}
impl From<RewriteError> for CoreError {
    fn from(e: RewriteError) -> Self {
        CoreError::Rewrite(e)
    }
}
impl From<EngineError> for CoreError {
    fn from(e: EngineError) -> Self {
        CoreError::Engine(e)
    }
}
impl From<AdtError> for CoreError {
    fn from(e: AdtError) -> Self {
        CoreError::Adt(e)
    }
}

/// Result alias for the rewriter facade.
pub type CoreResult<T> = Result<T, CoreError>;
