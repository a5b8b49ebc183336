//! The `eds-verify` gate: the builtin knowledge base must verify clean
//! at deny (no EDS030 refutation), and an injected unsound rule must be
//! caught by BOTH instruments — the bounded equivalence prover (with a
//! counterexample valuation) and the differential fuzzer (with a shrunk,
//! seed-replayable counterexample).

use eds_core::rewrite::{parse_source, MethodRegistry, Rule, SourceItem};
use eds_core::{verify_rules, Coverage, Dbms, VerifyOptions};

fn parse_rule(src: &str) -> Rule {
    match parse_source(src).unwrap().remove(0) {
        SourceItem::Rule(r) => r,
        other => panic!("expected a rule, got {other:?}"),
    }
}

fn core_registry() -> MethodRegistry {
    let mut methods = MethodRegistry::with_builtins();
    eds_core::methods::register_core_methods(&mut methods);
    methods
}

#[test]
fn builtin_kb_verifies_clean_at_deny() {
    let dbms = Dbms::new().unwrap();
    let report = dbms.verify();
    let errors: Vec<_> = report.diagnostics.iter().filter(|d| d.is_error()).collect();
    assert!(errors.is_empty(), "builtin KB refuted: {errors:#?}");
    // The boolean core of the KB is outright proved, not just fuzzed.
    // This includes the contradiction-collapse rules: their NOTNULL
    // guards exclude the NULL valuations that used to make them
    // 2-valued-sound only, so the prover certifies them instead of
    // reporting an inexpressible side condition.
    let proved: Vec<&str> = report.proved().collect();
    for name in [
        "DeMorganAnd",
        "DeMorganOr",
        "NotNot",
        "AndTrue",
        "TrueAnd",
        "OrFalse",
        "NotGt",
        "DiffZeroIsEq",
        "GtLeContradiction",
        "LtGeContradiction",
    ] {
        assert!(
            proved.contains(&name),
            "expected {name} proved; proved = {proved:?}"
        );
    }
    // With the guards in place no builtin rule needs a side condition
    // the prover cannot discharge.
    let eds032: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == "EDS032")
        .collect();
    assert!(eds032.is_empty(), "unexpected EDS032: {eds032:#?}");
}

#[test]
fn relational_builtins_get_differential_coverage() {
    let dbms = Dbms::new().unwrap();
    let report = dbms.verify();
    // Rules outside the provable fragment must actually fire under
    // fuzzing — coverage, not just absence of findings. This includes
    // the shapes the generator learned late: variable UNION collections
    // (UnionMerge), NEST inputs with a pushable group qualification
    // (SearchNestPush), linear recursion reducible by ADORNMENT/
    // ALEXANDER (FixpointPush), scalar-rooted arithmetic folds, and
    // MEMBER over literal sets.
    for name in [
        "FilterFilterMerge",
        "DedupDedup",
        "UnionMerge",
        "SearchNestPush",
        "FixpointPush",
        "PlusFold",
        "MinusFold",
        "NeFold",
        "GeFold",
        "MemberFold",
    ] {
        let cov = report
            .coverage
            .iter()
            .find(|(r, _)| r == name)
            .map(|(_, c)| *c);
        assert!(
            matches!(cov, Some(Coverage::Fuzzed(n)) if n > 0),
            "expected fuzz coverage for {name}, got {cov:?}"
        );
    }
}

#[test]
fn coverage_gap_is_pinned_to_the_constraint_store_rules() {
    let dbms = Dbms::new().unwrap();
    let report = dbms.verify();
    // The only builtin rules with zero semantic coverage: the two
    // ADDCONSTRAINTS rules fire only against a constraint store the
    // differential harness does not model, and Transitivity only on an
    // equality chain (`x = y AND y = z`) the generator does not aim at.
    // SimplifyQual and EqSubst never needed a store: the generator's
    // near-clash windows reach both. Anything new showing up here means
    // a generator regression.
    let mut uncovered: Vec<&str> = report
        .coverage
        .iter()
        .filter(|(_, c)| matches!(c, Coverage::None | Coverage::Fuzzed(0)))
        .map(|(r, _)| r.as_str())
        .collect();
    uncovered.sort_unstable();
    assert_eq!(
        uncovered,
        vec!["AddConstraints", "AddConstraintsF", "Transitivity"],
        "uncovered set drifted"
    );
}

#[test]
fn injected_unsound_rule_is_refuted_by_the_prover() {
    // DeMorgan with a dropped negation: NOT(f AND g) --> NOT(f) OR g.
    let bad = parse_rule("BadDeMorgan : NOT(f AND g) / --> NOT(f) OR g / ;");
    let methods = core_registry();
    let report = verify_rules(
        [&bad],
        &methods,
        &VerifyOptions {
            fuzz: false,
            ..VerifyOptions::default()
        },
    );
    assert!(report.has_errors());
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == "EDS030")
        .expect("EDS030 refutation");
    assert_eq!(d.rule.as_deref(), Some("BadDeMorgan"));
    // The counterexample valuation is attached and NULL-free.
    assert!(d.message.contains("f = TRUE"), "{}", d.message);
    assert!(d.message.contains("g = TRUE"), "{}", d.message);
    assert!(!d.message.contains("UNKNOWN"), "{}", d.message);
}

#[test]
fn injected_unsound_rule_is_caught_by_the_fuzzer_and_shrunk() {
    let bad = parse_rule("BadDeMorgan : NOT(f AND g) / --> NOT(f) OR g / ;");
    let methods = core_registry();
    let opts = VerifyOptions {
        prove: false,
        ..VerifyOptions::default()
    };
    let report = verify_rules([&bad], &methods, &opts);
    assert!(report.has_errors(), "{:#?}", report.diagnostics);
    let (rule, minimal) = &report.counterexamples[0];
    assert_eq!(rule, "BadDeMorgan");
    // The diagnostic names the seed for one-command local replay.
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == "EDS030")
        .expect("EDS030");
    assert!(
        d.message.contains(&format!("seed {}", minimal.seed)),
        "{}",
        d.message
    );
    // Shrinking reached a genuinely small world.
    let total_rows: usize = minimal.rows.iter().map(Vec::len).sum();
    assert!(total_rows <= 2, "not shrunk: {minimal}");
    // Replay: the same options reproduce the identical minimal case.
    let replay = verify_rules([&bad], &methods, &opts);
    let (_, again) = &replay.counterexamples[0];
    assert_eq!(again.subject, minimal.subject);
    assert_eq!(again.rows, minimal.rows);
    assert_eq!(again.seed, minimal.seed);
}

#[test]
fn example_custom_rules_verify_without_refutation() {
    let src = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/custom_rules.rules"),
    )
    .expect("examples/custom_rules.rules");
    let methods = core_registry();
    let rules: Vec<Rule> = parse_source(&src)
        .unwrap()
        .into_iter()
        .filter_map(|item| match item {
            SourceItem::Rule(r) => Some(r),
            _ => None,
        })
        .collect();
    let report = verify_rules(rules.iter(), &methods, &VerifyOptions::default());
    assert!(
        !report.has_errors(),
        "example rules refuted: {:#?}",
        report.diagnostics
    );
}
