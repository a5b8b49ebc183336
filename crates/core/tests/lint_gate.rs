//! Registration-time lint gate: the built-in knowledge base is pinned
//! lint-clean at `deny`, defects that used to surface only at rewrite
//! time are rejected at registration, and duplicate registration is no
//! longer silent.

use eds_core::{CoreError, Dbms, LintPolicy, QueryRewriter};
use eds_rewrite::{RewriteError, Severity};

/// The whole built-in library plus the example strategy re-registers
/// cleanly under `deny`: zero error-severity diagnostics.
#[test]
fn builtin_library_and_examples_lint_clean_at_deny() {
    let mut dbms = Dbms::new().unwrap();
    let errors: Vec<_> = dbms
        .lint()
        .into_iter()
        .filter(eds_rewrite::Diagnostic::is_error)
        .collect();
    assert!(
        errors.is_empty(),
        "built-in KB has lint errors: {errors:#?}"
    );

    // The shipped example rule file registers under deny (its one
    // size-increase finding is a warning, not an error).
    dbms.execute_ddl("TABLE METRICS (Sensor : CHAR, Reading : INT);")
        .unwrap();
    dbms.add_rule_source_checked(
        include_str!("../../../examples/custom_rules.rules"),
        LintPolicy::Deny,
    )
    .expect("example rules must lint clean at deny");
}

/// The built-in warnings are exactly the known size-increasing rules,
/// plus the one genuinely non-confluent critical pair: AndAssoc vs
/// DeMorganAnd (the KB carries no OR-associativity rule that could join
/// their reducts).
#[test]
fn builtin_warnings_are_the_expected_size_increases() {
    let rw = QueryRewriter::with_default_rules().unwrap();
    let diags = rw.lint(None);
    assert!(diags.iter().all(|d| d.severity == Severity::Warning));
    let mut shape: Vec<(&str, &str)> = diags
        .iter()
        .map(|d| (d.code, d.rule.as_deref().unwrap_or("")))
        .collect();
    shape.sort_unstable();
    assert_eq!(
        shape,
        [
            ("EDS010", "DeMorganAnd"),
            ("EDS010", "DeMorganOr"),
            ("EDS010", "FilterToSearch"),
            ("EDS010", "JoinToSearch"),
            ("EDS010", "ProjectToSearch"),
            ("EDS010", "SearchNestPush"),
            ("EDS010", "SearchUnionPush"),
            ("EDS010", "SearchUnionSplit"),
            ("EDS018", "AndAssoc"),
        ]
    );
}

/// Pre-PR behavior: a rule with an unbound RHS variable registered fine
/// and failed only when it matched during a rewrite. Under `deny` the
/// same source is rejected at registration, before anything commits.
#[test]
fn unbound_rhs_variable_rejected_at_registration_under_deny() {
    let mut dbms = Dbms::new().unwrap();
    let src = "Broken : SEARCH(l, f, a) / --> SEARCH(l, ghost, a) / ;\n\
               block(broken, {Broken}, 10) ;";

    // The runtime path still exists (Off bypasses the gate): the defect
    // only fires at application time, as before this PR.
    let mut unchecked = Dbms::new().unwrap();
    unchecked
        .rewriter
        .add_source_checked(src, LintPolicy::Off, None)
        .expect("Off policy must not reject");
    unchecked.rewriter.set_sequence(eds_rewrite::Sequence {
        blocks: vec!["broken".into()],
        passes: 1,
    });
    unchecked.execute_ddl("TABLE T (A : INT);").unwrap();
    let prepared = unchecked.prepare("SELECT A FROM T ;").unwrap();
    let err = unchecked.rewrite(&prepared).unwrap_err();
    assert!(
        matches!(err, CoreError::Rewrite(RewriteError::UnboundInRhs { .. })),
        "expected the historical runtime failure, got {err}"
    );

    // The gate front-loads it.
    let err = dbms
        .add_rule_source_checked(src, LintPolicy::Deny)
        .unwrap_err();
    let CoreError::LintRejected { diagnostics } = err else {
        panic!("expected LintRejected, got {err}");
    };
    assert!(diagnostics.iter().any(|d| d.code == "EDS001"));
    // Nothing was committed: the rule is absent, the block undefined.
    assert!(dbms.rewriter.rules().get("Broken").is_none());
    assert!(dbms.rewriter.strategy().block("broken").is_none());
}

/// Pre-PR behavior: an unknown method name registered fine and failed
/// at the first application. Under `deny` it is rejected up front.
#[test]
fn unknown_method_rejected_at_registration_under_deny() {
    let src = "BadCall : SEARCH(l, f, p) / --> SEARCH(l, g, p) / CONJURE(f, g) ;\n\
               block(badcall, {BadCall}, 10) ;";

    // Historical path: registration succeeds, the rewrite fails with
    // UnknownMethod once the rule matches.
    let mut unchecked = Dbms::new().unwrap();
    unchecked
        .rewriter
        .add_source_checked(src, LintPolicy::Off, None)
        .unwrap();
    unchecked.rewriter.set_sequence(eds_rewrite::Sequence {
        blocks: vec!["badcall".into()],
        passes: 1,
    });
    unchecked.execute_ddl("TABLE T (A : INT);").unwrap();
    let prepared = unchecked.prepare("SELECT A FROM T WHERE A > 0 ;").unwrap();
    let err = unchecked.rewrite(&prepared).unwrap_err();
    assert!(
        matches!(err, CoreError::Rewrite(RewriteError::UnknownMethod(_))),
        "expected the historical runtime failure, got {err}"
    );

    // Gated path: rejected before commit with EDS003.
    let mut dbms = Dbms::new().unwrap();
    let err = dbms
        .add_rule_source_checked(src, LintPolicy::Deny)
        .unwrap_err();
    let CoreError::LintRejected { diagnostics } = err else {
        panic!("expected LintRejected, got {err}");
    };
    assert!(diagnostics.iter().any(|d| d.code == "EDS003"));
}

/// Regression (satellite 1): re-registering an existing rule name used
/// to silently replace it. The analyzer reports EDS008; `deny` rejects
/// and leaves the original rule in place.
#[test]
fn duplicate_rule_registration_is_surfaced() {
    let mut dbms = Dbms::new().unwrap();
    dbms.add_rule_source_checked("Mine : F(x) / --> G(x) / ;", LintPolicy::Deny)
        .unwrap();

    let err = dbms
        .add_rule_source_checked("Mine : F(x) / --> H(x) / ;", LintPolicy::Deny)
        .unwrap_err();
    let CoreError::LintRejected { diagnostics } = err else {
        panic!("expected LintRejected, got {err}");
    };
    assert!(diagnostics.iter().any(|d| d.code == "EDS008"));
    // The original registration survived.
    assert!(dbms.rewriter.rules().get("Mine").unwrap().rhs.is_app("G"));

    // Under Warn the duplicate still replaces (documented semantics for
    // interactive redefinition), it just reports.
    dbms.add_rule_source_checked("Mine : F(x) / --> H(x) / ;", LintPolicy::Warn)
        .unwrap();
    assert!(dbms.rewriter.rules().get("Mine").unwrap().rhs.is_app("H"));
}

/// Batch atomicity: one bad rule in a multi-item source rejects the
/// whole batch; none of its good items commit either.
#[test]
fn deny_rejects_the_whole_batch_atomically() {
    let mut dbms = Dbms::new().unwrap();
    let err = dbms
        .add_rule_source_checked(
            "Good : F(x) / --> x / ;\n\
             Bad : G(x) / --> G(ghost) / ;\n\
             block(mixed, {Good, Bad}, 5) ;",
            LintPolicy::Deny,
        )
        .unwrap_err();
    assert!(matches!(err, CoreError::LintRejected { .. }));
    assert!(dbms.rewriter.rules().get("Good").is_none());
    assert!(dbms.rewriter.strategy().block("mixed").is_none());
}

/// Attribution: re-registering over a dirty knowledge base reports only
/// the new batch's findings, not pre-existing ones.
#[test]
fn diagnostics_attribute_to_the_new_batch_only() {
    let rw = QueryRewriter::with_default_rules().unwrap();
    // A clean user rule in a finite block: no findings at all, despite
    // the built-in EDS010 warnings existing in the staged state.
    let diags = rw
        .lint_source(
            "Mine : F(F(x)) / --> F(x) / ;\nblock(mine, {Mine}, 8) ;",
            None,
        )
        .unwrap();
    assert!(diags.is_empty(), "leaked pre-existing findings: {diags:#?}");
}

/// The analyzer over the full built-in KB *with a populated catalog*
/// (the paper's film database): the schema-aware checks stay silent on
/// the builtins, and a user rule referencing a ghost relation adds
/// exactly its own catalog + membership findings. Pins the complete
/// (code, rule) multiset so any analyzer change here is a conscious one.
#[test]
fn film_catalog_lint_is_pinned_exactly() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TABLE FILM ( Numf : NUMERIC, Title : CHAR, Categories : CHAR) ;
         TABLE APPEARS_IN ( Numf : NUMERIC, Refactor : CHAR) ;
         TABLE DOMINATE ( Numf : NUMERIC, Refactor1 : CHAR, Refactor2 : CHAR, Score : INT) ;",
    )
    .unwrap();

    let builtin_expected = [
        ("EDS010", "DeMorganAnd"),
        ("EDS010", "DeMorganOr"),
        ("EDS010", "FilterToSearch"),
        ("EDS010", "JoinToSearch"),
        ("EDS010", "ProjectToSearch"),
        ("EDS010", "SearchNestPush"),
        ("EDS010", "SearchUnionPush"),
        ("EDS010", "SearchUnionSplit"),
        ("EDS018", "AndAssoc"),
    ];
    let shape = |diags: &[eds_rewrite::Diagnostic]| -> Vec<(&'static str, String)> {
        let mut v: Vec<(&'static str, String)> = diags
            .iter()
            .map(|d| (d.code, d.rule.clone().unwrap_or_default()))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(
        shape(&dbms.lint()),
        builtin_expected
            .iter()
            .map(|(c, r)| (*c, (*r).to_owned()))
            .collect::<Vec<_>>(),
        "catalog-backed lint of the builtins must stay exactly pinned"
    );

    // One user rule: a ghost relation on the LHS (EDS014) and no block
    // membership (EDS020). The known FILM reference adds nothing.
    dbms.add_rule_source_checked(
        "Ghost : FILTER(NOSUCH, f) / --> FILTER(FILM, f) / ;",
        LintPolicy::Warn,
    )
    .unwrap();
    let mut expected: Vec<(&str, String)> = builtin_expected
        .iter()
        .map(|(c, r)| (*c, (*r).to_owned()))
        .collect();
    expected.push(("EDS014", "Ghost".to_owned()));
    expected.push(("EDS020", "Ghost".to_owned()));
    expected.sort_unstable();
    assert_eq!(shape(&dbms.lint()), expected);
}

/// Schema-aware path: `Dbms::add_rule_source_checked` consults the
/// catalog, so unknown relation references warn (and known ones don't).
#[test]
fn catalog_backed_relation_check() {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl("TABLE EMP (Name : CHAR, Dept : INT);")
        .unwrap();
    let schema_hit = dbms
        .rewriter
        .lint_source("R : FILTER(NOPE, f) / --> TRUE / ;", None)
        .unwrap();
    assert!(
        schema_hit.iter().all(|d| d.code != "EDS014"),
        "no catalog supplied, EDS014 must not fire"
    );
    // Through the Dbms (catalog supplied): the unknown relation warns.
    dbms.add_rule_source_checked("R : FILTER(NOPE, f) / --> TRUE / ;", LintPolicy::Warn)
        .unwrap();
    let diags = dbms.lint();
    assert!(diags.iter().any(|d| d.code == "EDS014"));
    // A rule over the declared table raises no *catalog* finding under
    // the same catalog. (EDS020 still notes it belongs to no block —
    // that is the whole-strategy layer, not the schema check.)
    dbms.add_rule_source_checked("S : FILTER(EMP, f) / --> TRUE / ;", LintPolicy::Deny)
        .unwrap();
    assert!(dbms
        .lint()
        .iter()
        .all(|d| d.rule.as_deref() != Some("S") || d.code == "EDS020"));
}

/// A lint *warning* must not be able to abort the process. Two
/// collection variables in one `SET` is EDS006, a warning the default
/// policy accepts; matching such a pattern tries every subset of the
/// collection, and the matcher used to `assert!` the collection small.
/// Past the cap the statement now fails with a typed error naming the
/// rule; within it the rule rewrites as it always did.
#[test]
fn a_warned_pattern_over_a_wide_union_is_an_error_not_a_panic() {
    let union_dbms = |branches: usize| {
        let mut dbms = Dbms::new().unwrap();
        let selects: Vec<String> = (0..branches)
            .map(|b| {
                dbms.execute_ddl(&format!("TABLE PART{b} (K : INT);"))
                    .unwrap();
                dbms.insert(&format!("PART{b}"), vec![(b as i64).into()])
                    .unwrap();
                format!("SELECT K FROM PART{b}")
            })
            .collect();
        let view = selects.join(" UNION ");
        dbms.execute_ddl(&format!("CREATE VIEW ALLPARTS (K) AS ( {view} ) ;"))
            .unwrap();
        let src = "Rebracket : UNION(SET(x*, y*)) / NOT(ISEMPTY(x*)), NOT(ISEMPTY(y*)) \
                   --> UNION(SET(UNION(SET(x*)), UNION(SET(y*)))) / ;\n\
                   block(rebracket, {Rebracket}, 1) ;\n\
                   seq((rebracket, normalize, merging, simplify), 1) ;";
        let diags = dbms.rewriter.lint_source(src, None).unwrap();
        assert!(diags.iter().any(|d| d.code == "EDS006"));
        assert!(diags.iter().all(|d| d.severity == Severity::Warning));
        dbms.add_rule_source(src)
            .expect("a warning registers under the default policy");
        dbms
    };

    let err = union_dbms(21)
        .query("SELECT K FROM ALLPARTS ;")
        .unwrap_err();
    let CoreError::Rewrite(RewriteError::MatchTooWide { rule, elements }) = &err else {
        panic!("expected MatchTooWide, got {err}");
    };
    assert_eq!((rule.as_str(), *elements), ("Rebracket", 21));

    // Twenty branches are within the cap: the rule fires (the first
    // split with both halves non-empty) and the answer is every row.
    let dbms = union_dbms(20);
    assert_eq!(dbms.query("SELECT K FROM ALLPARTS ;").unwrap().len(), 20);
    let prepared = dbms.prepare("SELECT K FROM ALLPARTS ;").unwrap();
    assert!(dbms.rewrite_uncached(&prepared).unwrap().stats.applications > 0);
}
