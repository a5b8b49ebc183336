//! The rule kernel's observable behaviour, pinned: for a fixed set of
//! statements, `Dbms::rewrite_uncached` at `Simple` and at `Full` must
//! report exactly these `RewriteStats { condition_checks, applications,
//! rejected }` and emit exactly this term.
//!
//! `condition_checks` and `applications` say the same rules fired at the
//! same positions in the same order; `rejected` counts the candidate
//! matches that constraints and methods turned down on the way. Every
//! scan is a full pre-order scan of the term — a rule that failed is
//! offered the whole term again once anything fires, so a candidate it
//! turned down before is turned down and counted again — which is why
//! the wide statements read high (`wide_conjunction`: 1085 rejections
//! for 64 applications). It is still the same matches in the same
//! order: one more or one fewer enumerated match moves it. A kernel
//! change that is only a speed-up leaves every line of [`PINS`] alone. A
//! change that moves one on purpose (a new rule, a different limit)
//! re-pins: the failure message prints the whole table as observed,
//! ready to paste.

use eds_bench::{
    exec_workloads, film_dbms, opt_level_workloads, product_dbms, simple_table,
    wide_conjunction_sql,
};
use eds_core::{Dbms, OptLevel};

/// `(statement id, level, condition_checks, applications, rejected,
/// rewritten term)`.
type Pin = (&'static str, &'static str, u64, u64, u64, &'static str);

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

#[test]
fn rewrite_counts_and_plans_are_pinned() {
    let mut observed: Vec<(&str, &str, u64, u64, u64, String)> = Vec::new();
    for (id, mut dbms, sql) in statements() {
        let prepared = dbms.prepare(&sql).unwrap();
        for (level, name) in [(OptLevel::Simple, "simple"), (OptLevel::Full, "full")] {
            dbms.set_opt_level(level);
            let out = dbms.rewrite_uncached(&prepared).unwrap();
            observed.push((
                id,
                name,
                out.stats.condition_checks,
                out.stats.applications,
                out.stats.rejected,
                out.term.to_string(),
            ));
        }
    }
    let moved = observed
        .iter()
        .zip(PINS)
        .find(|(o, p)| (o.0, o.1, o.2, o.3, o.4, o.5.as_str()) != **p);
    if moved.is_some() || observed.len() != PINS.len() {
        let first = moved.map_or("the statement list".to_owned(), |(o, _)| {
            format!("{} at {}", o.0, o.1)
        });
        let table: String = observed
            .iter()
            .map(|(id, level, c, a, r, term)| {
                format!("    ({id:?}, {level:?}, {c}, {a}, {r},\n     {term:?}),\n")
            })
            .collect();
        panic!("kernel behaviour moved, first in {first}; the table as observed:\n{table}");
    }
}

#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("film_salary_filter", "simple", 79, 0, 5,
     "SEARCH(LIST(APPEARS_IN), (PROJECT(VALUE(1.2), SALARY) > 20000), LIST(1.1))"),
    ("film_salary_filter", "full", 79, 0, 5,
     "SEARCH(LIST(APPEARS_IN), (PROJECT(VALUE(1.2), SALARY) > 20000), LIST(1.1))"),
    ("film_join", "simple", 79, 0, 6,
     "SEARCH(LIST(FILM, APPEARS_IN), ((PROJECT(VALUE(2.2), SALARY) > 20000) AND (1.1 = 2.1)), LIST(1.2))"),
    ("film_join", "full", 79, 0, 6,
     "SEARCH(LIST(FILM, APPEARS_IN), ((PROJECT(VALUE(2.2), SALARY) > 20000) AND (1.1 = 2.1)), LIST(1.2))"),
    ("dominate_names", "simple", 79, 0, 5,
     "SEARCH(LIST(DOMINATE), (PROJECT(VALUE(1.2), NAME) = PROJECT(VALUE(1.3), NAME)), LIST(1.1))"),
    ("dominate_names", "full", 79, 0, 5,
     "SEARCH(LIST(DOMINATE), (PROJECT(VALUE(1.2), NAME) = PROJECT(VALUE(1.3), NAME)), LIST(1.1))"),
    ("stack_filter", "simple", 317, 15, 26,
     "SEARCH(LIST(BASE), ((1.3 = 3) AND ((1.2 >= 8) AND ((1.2 >= 7) AND ((1.2 >= 6) AND ((1.2 >= 5) AND ((1.2 >= 4) AND ((1.2 >= 3) AND ((1.2 >= 2) AND (1.2 >= 1))))))))), LIST(1.1))"),
    ("stack_filter", "full", 317, 15, 26,
     "SEARCH(LIST(BASE), ((1.3 = 3) AND ((1.2 >= 8) AND ((1.2 >= 7) AND ((1.2 >= 6) AND ((1.2 >= 5) AND ((1.2 >= 4) AND ((1.2 >= 3) AND ((1.2 >= 2) AND (1.2 >= 1))))))))), LIST(1.1))"),
    ("union_filter", "simple", 310, 35, 130,
     "UNION(SET(SEARCH(LIST(PART0), (1.2 = 3), LIST(1.1)), SEARCH(LIST(PART1), (1.2 = 3), LIST(1.1)), SEARCH(LIST(PART2), (1.2 = 3), LIST(1.1)), SEARCH(LIST(PART3), (1.2 = 3), LIST(1.1)), SEARCH(LIST(PART4), (1.2 = 3), LIST(1.1)), SEARCH(LIST(PART5), (1.2 = 3), LIST(1.1)), SEARCH(LIST(PART6), (1.2 = 3), LIST(1.1)), SEARCH(LIST(PART7), (1.2 = 3), LIST(1.1))))"),
    ("union_filter", "full", 310, 35, 130,
     "UNION(SET(SEARCH(LIST(PART0), (1.2 = 3), LIST(1.1)), SEARCH(LIST(PART1), (1.2 = 3), LIST(1.1)), SEARCH(LIST(PART2), (1.2 = 3), LIST(1.1)), SEARCH(LIST(PART3), (1.2 = 3), LIST(1.1)), SEARCH(LIST(PART4), (1.2 = 3), LIST(1.1)), SEARCH(LIST(PART5), (1.2 = 3), LIST(1.1)), SEARCH(LIST(PART6), (1.2 = 3), LIST(1.1)), SEARCH(LIST(PART7), (1.2 = 3), LIST(1.1))))"),
    ("tc_bound", "simple", 186, 5, 32,
     "SEARCH(LIST(FIX(TC, UNION(SET(SEARCH(LIST(EDGE), (1.1 = 50), LIST(1.1, 1.2)), SEARCH(LIST(TC, EDGE), (1.2 = 2.1), LIST(1.1, 2.2)))))), TRUE, LIST(1.2))"),
    ("tc_bound", "full", 186, 5, 32,
     "SEARCH(LIST(FIX(TC, UNION(SET(SEARCH(LIST(EDGE), (1.1 = 50), LIST(1.1, 1.2)), SEARCH(LIST(TC, EDGE), (1.2 = 2.1), LIST(1.1, 2.2)))))), TRUE, LIST(1.2))"),
    ("distinct_parts", "simple", 234, 15, 36,
     "DEDUP(UNION(SET(SEARCH(LIST(PART0), TRUE, LIST(1.2)), SEARCH(LIST(PART1), TRUE, LIST(1.2)), SEARCH(LIST(PART2), TRUE, LIST(1.2)), SEARCH(LIST(PART3), TRUE, LIST(1.2)))))"),
    ("distinct_parts", "full", 234, 15, 36,
     "DEDUP(UNION(SET(SEARCH(LIST(PART0), TRUE, LIST(1.2)), SEARCH(LIST(PART1), TRUE, LIST(1.2)), SEARCH(LIST(PART2), TRUE, LIST(1.2)), SEARCH(LIST(PART3), TRUE, LIST(1.2)))))"),
    ("scan_int_filter", "simple", 79, 0, 6,
     "SEARCH(LIST(SCAN), ((1.2 > 800) AND (1.3 < 300)), LIST(1.1))"),
    ("scan_int_filter", "full", 79, 0, 6,
     "SEARCH(LIST(SCAN), ((1.2 > 800) AND (1.3 < 300)), LIST(1.1))"),
    ("scan_str_filter", "simple", 79, 0, 5,
     "SEARCH(LIST(SCAN), (1.4 = 'hot'), LIST(1.1))"),
    ("scan_str_filter", "full", 79, 0, 5,
     "SEARCH(LIST(SCAN), (1.4 = 'hot'), LIST(1.1))"),
    ("scan_group_agg", "simple", 79, 0, 5,
     "NEST(SEARCH(LIST(SCAN), (1.2 > 900), LIST(1.5, 1.1)), LIST(2), LIST(1), SET)"),
    ("scan_group_agg", "full", 79, 0, 5,
     "NEST(SEARCH(LIST(SCAN), (1.2 > 900), LIST(1.5, 1.1)), LIST(2), LIST(1), SET)"),
    ("scan_distinct", "simple", 79, 0, 5,
     "DEDUP(SEARCH(LIST(SCAN), (1.1 >= 50), LIST(1.3)))"),
    ("scan_distinct", "full", 79, 0, 5,
     "DEDUP(SEARCH(LIST(SCAN), (1.1 >= 50), LIST(1.3)))"),
    ("ol_join3", "simple", 163, 1, 12,
     "SEARCH(LIST(R, S, T), ((2.2 = 3.1) AND (1.1 = 2.1)), LIST(3.2))"),
    ("ol_join3", "full", 163, 1, 12,
     "SEARCH(LIST(R, S, T), ((2.2 = 3.1) AND (1.1 = 2.1)), LIST(3.2))"),
    ("ol_pushdown", "simple", 198, 6, 29,
     "UNION(SET(SEARCH(LIST(U0, BIGF), ((1.1 = 2.1) AND (2.2 = 7)), LIST(1.1)), SEARCH(LIST(U1, BIGF), ((1.1 = 2.1) AND (2.2 = 7)), LIST(1.1))))"),
    ("ol_pushdown", "full", 198, 6, 29,
     "SEARCH(LIST(UNION(SET(SEARCH(LIST(U0), TRUE, LIST(1.1)), SEARCH(LIST(U1), TRUE, LIST(1.1)))), SEARCH(LIST(BIGF), (1.2 = 7), LIST(1.1))), (1.1 = 2.1), LIST(1.1))"),
    ("wide_conjunction", "simple", 1356, 64, 1085,
     "SEARCH(LIST(T), ((1.1 < 5) AND ((1.2 <> 0) AND ((1.1 < 7) AND ((1.2 <> 1) AND ((1.1 < 9) AND ((1.2 <> 2) AND ((1.1 < 11) AND ((1.2 <> 3) AND ((1.1 < 13) AND ((1.2 <> 4) AND ((1.1 < 15) AND ((1.2 <> 5) AND ((1.1 < 17) AND ((1.2 <> 6) AND ((1.1 < 19) AND ((1.2 <> 7) AND ((1.1 < 21) AND ((1.2 <> 8) AND ((1.1 < 23) AND ((1.2 <> 9) AND ((1.1 < 25) AND ((1.2 <> 10) AND ((1.1 < 27) AND ((1.2 <> 11) AND ((1.1 < 29) AND ((1.2 <> 12) AND ((1.1 < 31) AND ((1.2 <> 13) AND ((1.1 < 33) AND ((1.2 <> 14) AND ((1.1 < 35) AND ((1.2 <> 15) AND ((1.1 < 37) AND ((1.2 <> 16) AND ((1.1 < 39) AND ((1.2 <> 17) AND ((1.1 < 41) AND ((1.2 <> 18) AND ((1.1 < 43) AND ((1.2 <> 19) AND ((1.1 < 45) AND ((1.2 <> 20) AND ((1.1 < 47) AND (1.2 <> 21)))))))))))))))))))))))))))))))))))))))))))), LIST(1.1))"),
    ("wide_conjunction", "full", 1356, 64, 1085,
     "SEARCH(LIST(T), ((1.1 < 5) AND ((1.2 <> 0) AND ((1.1 < 7) AND ((1.2 <> 1) AND ((1.1 < 9) AND ((1.2 <> 2) AND ((1.1 < 11) AND ((1.2 <> 3) AND ((1.1 < 13) AND ((1.2 <> 4) AND ((1.1 < 15) AND ((1.2 <> 5) AND ((1.1 < 17) AND ((1.2 <> 6) AND ((1.1 < 19) AND ((1.2 <> 7) AND ((1.1 < 21) AND ((1.2 <> 8) AND ((1.1 < 23) AND ((1.2 <> 9) AND ((1.1 < 25) AND ((1.2 <> 10) AND ((1.1 < 27) AND ((1.2 <> 11) AND ((1.1 < 29) AND ((1.2 <> 12) AND ((1.1 < 31) AND ((1.2 <> 13) AND ((1.1 < 33) AND ((1.2 <> 14) AND ((1.1 < 35) AND ((1.2 <> 15) AND ((1.1 < 37) AND ((1.2 <> 16) AND ((1.1 < 39) AND ((1.2 <> 17) AND ((1.1 < 41) AND ((1.2 <> 18) AND ((1.1 < 43) AND ((1.2 <> 19) AND ((1.1 < 45) AND ((1.2 <> 20) AND ((1.1 < 47) AND (1.2 <> 21)))))))))))))))))))))))))))))))))))))))))))), LIST(1.1))"),
    ("semantic_clash", "simple", 184, 4, 12,
     "SEARCH(LIST(PRODUCT), FALSE, LIST(1.1))"),
    ("semantic_clash", "full", 184, 4, 12,
     "SEARCH(LIST(PRODUCT), FALSE, LIST(1.1))"),
    ("film_deref", "simple", 180, 1, 14,
     "SEARCH(LIST(FILM, APPEARS_IN), ((1.1 = 2.1) AND (PROJECT(VALUE(2.2), SALARY) > 15000)), LIST(1.2, PROJECT(VALUE(2.2), NAME)))"),
    ("film_deref", "full", 180, 1, 14,
     "SEARCH(LIST(FILM, APPEARS_IN), ((1.1 = 2.1) AND (PROJECT(VALUE(2.2), SALARY) > 15000)), LIST(1.2, PROJECT(VALUE(2.2), NAME)))"),
];
