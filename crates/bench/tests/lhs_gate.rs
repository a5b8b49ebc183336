//! The rule kernel's left-hand-side gate never hides a match.
//!
//! `apply_rule_once` skips every subterm whose fingerprint lacks a bit of
//! the rule's left-hand side ([`lhs_gate`]). That is sound only if a
//! structural match needs every functor and every Boolean constant of its
//! pattern inside the subterm it matches. Here, for every builtin rule and
//! every subterm of a corpus, a subterm the gate turns away must have no
//! match at all (`all_matches` is empty). The corpus:
//!
//! * the canonical terms of the statements `kernel_pin.rs` pins;
//! * every intermediate term of their derivations, replayed rule by rule
//!   from the rewrite trace;
//! * seeded random qualifications with `TRUE` / `FALSE` / NULL / INT
//!   leaves under `AND` / `OR` / `NOT` and comparisons.

use eds_bench::{
    exec_workloads, film_dbms, opt_level_workloads, product_dbms, simple_table,
    wide_conjunction_sql,
};
use eds_core::adt::Value;
use eds_core::lera::expr_to_term;
use eds_core::rewrite::{all_matches, apply_rule_once, lhs_gate, RewriteStats, Rule, Term};
use eds_core::{CoreEnv, Dbms, OptLevel};
use eds_testkit::StdRng;

/// The statements of `kernel_pin.rs`, in its order.
fn statements() -> Vec<(&'static str, Dbms, String)> {
    let mut out = exec_workloads();
    out.extend(opt_level_workloads());
    out.push((
        "wide_conjunction",
        simple_table(50),
        wide_conjunction_sql(22),
    ));
    out.push((
        "semantic_clash",
        product_dbms(30),
        "SELECT Id FROM PRODUCT WHERE Grade = 'D' AND Price > 10 ;".to_owned(),
    ));
    out.push((
        "film_deref",
        film_dbms(20, 10, 7),
        "SELECT Title, Name(Refactor) FROM FILM, APPEARS_IN \
         WHERE FILM.Numf = APPEARS_IN.Numf AND Salary(Refactor) > 10000 + 5000 ;"
            .to_owned(),
    ));
    out
}

#[derive(Default)]
struct Tally {
    /// (rule, subterm) pairs the gate admitted.
    admitted: u64,
    /// Pairs it turned away.
    refused: u64,
    /// Refused pairs whose subterm has the LHS's head: a head-only test
    /// would have run the matcher there.
    refused_at_head: u64,
}

/// Offer every subterm of `term` to every rule's gate; a refused subterm
/// the rule matches is a hidden match.
fn check(rules: &[&Rule], term: &Term, what: &str, tally: &mut Tally) {
    for path in term.positions() {
        let sub = term.at(&path).expect("a position of the term");
        for rule in rules {
            if lhs_gate(sub, rule.lhs.fingerprint()) {
                tally.admitted += 1;
                continue;
            }
            tally.refused += 1;
            if sub.head().is_some() && sub.head() == rule.lhs.head() {
                tally.refused_at_head += 1;
            }
            let hidden = all_matches(&rule.lhs, sub);
            assert!(
                hidden.is_empty(),
                "{what}: the gate hides {} match(es) of {} ({}) at {path:?}: {sub}",
                hidden.len(),
                rule.name,
                rule.lhs
            );
        }
    }
}

#[test]
fn the_gate_never_hides_a_match_in_a_pinned_derivation() {
    let mut tally = Tally::default();
    let mut steps = 0;
    for (id, dbms, sql) in statements() {
        let rules: Vec<&Rule> = dbms.rewriter.rules().iter().collect();
        let canonical = expr_to_term(&dbms.prepare(&sql).unwrap().expr);
        let outcome = dbms
            .rewriter
            .run(
                canonical.clone(),
                &dbms.db,
                &dbms.constraints,
                OptLevel::Simple,
                true,
            )
            .unwrap();
        let env = CoreEnv {
            db: &dbms.db,
            constraints: &dbms.constraints,
        };
        let mut term = canonical;
        check(&rules, &term, id, &mut tally);
        for event in outcome.trace.events() {
            let rule = dbms.rewriter.rules().get(&event.rule).unwrap();
            let mut stats = RewriteStats::default();
            let (next, app) =
                apply_rule_once(rule, &term, dbms.rewriter.methods(), &env, &mut stats)
                    .unwrap()
                    .unwrap_or_else(|| panic!("{id}: {} no longer fires", event.rule));
            assert_eq!(app.path, event.path, "{id}: {} fired elsewhere", event.rule);
            term = next;
            check(&rules, &term, id, &mut tally);
            steps += 1;
        }
        assert_eq!(term, outcome.term, "{id}: the replay ends elsewhere");
    }
    assert!(steps > 100, "only {steps} derivation steps replayed");
    assert!(tally.admitted > 0 && tally.refused_at_head > 0);
}

/// A random qualification of at most `depth` levels.
fn qualification(rng: &mut StdRng, depth: u32) -> Term {
    const COMPARISONS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];
    if depth == 0 || rng.gen_bool(0.25) {
        return match rng.gen_range(0..5) {
            0 => Term::bool(true),
            1 => Term::bool(false),
            2 => Term::Const(Value::Null),
            3 => Term::int(rng.gen_range(0..4)),
            _ => Term::attr(1, rng.gen_range(1..4)),
        };
    }
    let head = match rng.gen_range(0..4) {
        0 => "AND",
        1 => "OR",
        2 => return Term::app("NOT", vec![qualification(rng, depth - 1)]),
        _ => *rng.choose(&COMPARISONS).unwrap(),
    };
    let left = qualification(rng, depth - 1);
    Term::app(head, vec![left, qualification(rng, depth - 1)])
}

#[test]
fn the_gate_never_hides_a_match_in_a_random_qualification() {
    let dbms = Dbms::new().unwrap();
    let rules: Vec<&Rule> = dbms.rewriter.rules().iter().collect();
    let mut rng = StdRng::seed_from_u64(0x1a7e);
    let mut tally = Tally::default();
    for case in 0..300 {
        let q = qualification(&mut rng, 5);
        let search = Term::app(
            "SEARCH",
            vec![
                Term::list(vec![Term::atom("R")]),
                q,
                Term::list(vec![Term::attr(1, 1)]),
            ],
        );
        check(&rules, &search, &format!("case {case}"), &mut tally);
    }
    assert!(tally.admitted > 0 && tally.refused > 0);
    assert!(
        tally.refused_at_head > 0,
        "no head-matching subterm was refused"
    );
}
