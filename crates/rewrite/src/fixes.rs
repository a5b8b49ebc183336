//! Machine-applicable fixes for analyzer diagnostics.
//!
//! A [`Fix`] names a top-level source item (rule or block) and carries
//! replacement text for the *whole* item — or the empty string to delete
//! it. The analyzer works on assembled [`Rule`](crate::Rule)s and
//! [`Block`](crate::Block)s, not source text, so a fix stores the target
//! *name* and [`apply_fixes`] resolves it to a byte span at apply time via
//! [`parse_source_spanned`]. Replacement
//! text is regenerated from the item's `Display` form (which reparses, see
//! `rule_display_reparses`), so applied fixes always stay syntactically
//! valid.
//!
//! Applying fixes once handles each target at most once; drivers such as
//! `eds-lint --fix` re-lint and re-apply until a pass changes nothing,
//! which also gives the `--fix --check` idempotence guarantee.

use crate::analyze::Diagnostic;
use crate::dsl::{parse_source_spanned, SourceItem, Span};
use crate::error::RwResult;

/// What a fix rewrites: one named top-level item of a rules source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FixTarget {
    /// The rewriting rule with this name.
    Rule(String),
    /// The `block(...)` definition with this name.
    Block(String),
}

impl FixTarget {
    /// Does this target name the given source item? Drivers use this to
    /// resolve a fix back to the item's byte span (via
    /// [`parse_source_spanned`]) when rendering machine formats.
    pub fn matches(&self, item: &SourceItem) -> bool {
        match (self, item) {
            (FixTarget::Rule(n), SourceItem::Rule(r)) => r.name == *n,
            (FixTarget::Block(n), SourceItem::Block(b)) => b.name == *n,
            _ => false,
        }
    }
}

/// A machine-applicable suggestion attached to a [`Diagnostic`]:
/// replace the target item's whole source text (empty = delete the item).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fix {
    /// Human-readable summary, e.g. `bind y via SCHEMA(x, y)`.
    pub description: String,
    /// Which source item the replacement substitutes.
    pub target: FixTarget,
    /// New text for the whole item, including the terminating `;`;
    /// an empty string deletes the item.
    pub replacement: String,
}

/// Result of one [`apply_fixes`] pass over a source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixOutcome {
    /// The rewritten source.
    pub text: String,
    /// How many fixes were spliced in.
    pub applied: usize,
}

/// Apply one round of the fixes carried by `diagnostics` to `src`.
///
/// Each target is fixed at most once per pass (the first suggestion for a
/// name wins); targets not present in this source are skipped, so a mixed
/// diagnostic list (builtins + user file) applies cleanly to the user
/// file alone. Returns the rewritten text and the number of applied
/// fixes. Errors only when `src` itself does not parse.
pub fn apply_fixes(src: &str, diagnostics: &[Diagnostic]) -> RwResult<FixOutcome> {
    let items = parse_source_spanned(src)?;
    let mut taken: Vec<&FixTarget> = Vec::new();
    let mut edits: Vec<(Span, &str)> = Vec::new();
    for d in diagnostics {
        for fix in &d.suggestions {
            if taken.contains(&&fix.target) {
                continue;
            }
            let Some(spanned) = items.iter().find(|si| fix.target.matches(&si.item)) else {
                continue;
            };
            taken.push(&fix.target);
            edits.push((spanned.span, fix.replacement.as_str()));
        }
    }
    edits.sort_by_key(|(s, _)| s.start);
    let applied = edits.len();
    let mut text = String::with_capacity(src.len());
    let mut cursor = 0;
    for (span, repl) in edits {
        text.push_str(&src[cursor..span.start]);
        text.push_str(repl);
        cursor = span.end;
        if repl.is_empty() {
            // Deleting an item also consumes trailing blanks and one
            // newline so no empty line is left behind.
            let rest = &src[cursor..];
            let skip = rest.len() - rest.trim_start_matches([' ', '\t']).len();
            cursor += skip;
            if src[cursor..].starts_with('\n') {
                cursor += 1;
            }
        }
    }
    text.push_str(&src[cursor..]);
    Ok(FixOutcome { text, applied })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{Diagnostic, Severity};

    fn diag_with_fix(fix: Fix) -> Diagnostic {
        Diagnostic::new("EDS010", Severity::Warning, "rule", "test".into()).suggest(fix)
    }

    #[test]
    fn replaces_one_item_in_place() {
        let src = "A : F(x) / --> x / ;\nblock(b, {A}, INF) ;\n";
        let out = apply_fixes(
            src,
            &[diag_with_fix(Fix {
                description: "limit".into(),
                target: FixTarget::Block("b".into()),
                replacement: "block(b, {A}, 100) ;".into(),
            })],
        )
        .unwrap();
        assert_eq!(out.applied, 1);
        assert_eq!(out.text, "A : F(x) / --> x / ;\nblock(b, {A}, 100) ;\n");
    }

    #[test]
    fn deletion_consumes_the_line() {
        let src = "A : F(x) / --> x / ;\nB : G(x) / --> x / ;\n";
        let out = apply_fixes(
            src,
            &[diag_with_fix(Fix {
                description: "delete".into(),
                target: FixTarget::Rule(String::from("A")),
                replacement: String::new(),
            })],
        )
        .unwrap();
        assert_eq!(out.text, "B : G(x) / --> x / ;\n");
    }

    #[test]
    fn absent_targets_and_duplicate_fixes_are_skipped() {
        let src = "A : F(x) / --> x / ;\n";
        let fix = Fix {
            description: "noop".into(),
            target: FixTarget::Rule("Ghost".into()),
            replacement: "Ghost : F(x) / --> x / ;".into(),
        };
        let twice = Fix {
            description: "twice".into(),
            target: FixTarget::Rule("A".into()),
            replacement: "A : F(y) / --> y / ;".into(),
        };
        let out = apply_fixes(
            src,
            &[
                diag_with_fix(fix),
                diag_with_fix(twice.clone()),
                diag_with_fix(twice),
            ],
        )
        .unwrap();
        assert_eq!(out.applied, 1);
        assert_eq!(out.text, "A : F(y) / --> y / ;\n");
    }
}
