//! `EDS_LINT` environment-policy enforcement, isolated in its own test
//! binary: these are the only tests in the workspace that mutate the
//! process environment, so they cannot race with tests that register
//! rules under the default policy.
//!
//! Everything runs in ONE #[test] because `std::env::set_var` is
//! process-global and the harness runs tests in threads.

use eds_core::{CoreError, Dbms};

#[test]
fn env_policy_drives_the_registration_gate() {
    let broken = "Broken : SEARCH(l, f, a) / --> SEARCH(l, ghost, a) / ;";

    // deny: registration fails with the diagnostics, nothing commits.
    std::env::set_var("EDS_LINT", "deny");
    let mut dbms = Dbms::new().unwrap();
    let err = dbms.add_rule_source(broken).unwrap_err();
    match err {
        CoreError::LintRejected { diagnostics } => {
            assert!(diagnostics.iter().any(|d| d.code == "EDS001"));
        }
        other => panic!("expected LintRejected under EDS_LINT=deny, got {other}"),
    }
    assert!(dbms.rewriter.rules().get("Broken").is_none());

    // warn (default): reports to stderr but accepts — the pre-PR
    // behavior for well-meaning-but-wrong rules is preserved.
    std::env::set_var("EDS_LINT", "warn");
    let mut dbms = Dbms::new().unwrap();
    dbms.add_rule_source(broken).expect("warn must accept");
    assert!(dbms.rewriter.rules().get("Broken").is_some());

    // off: no analysis at all.
    std::env::set_var("EDS_LINT", "off");
    let mut dbms = Dbms::new().unwrap();
    dbms.add_rule_source(broken).expect("off must accept");

    // The policy is read once, at construction: flipping the variable
    // afterwards does not reach a live session.
    std::env::set_var("EDS_LINT", "deny");
    dbms.add_rule_source(broken).expect("still off");

    // Unknown values are an error naming the variable, not a silent warn.
    std::env::set_var("EDS_LINT", "bogus");
    match Dbms::new().unwrap_err() {
        CoreError::BadEnvValue { var, value, .. } => {
            assert_eq!((var, value.as_str()), ("EDS_LINT", "bogus"));
        }
        other => panic!("expected BadEnvValue, got {other}"),
    }

    std::env::remove_var("EDS_LINT");
}
