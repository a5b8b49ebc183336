//! The rewriting effort of a wide qualification, pinned at 100
//! conjuncts (`wide_conjunction_sql(50)`, the F12 width sweep's shape:
//! 50 foldable comparisons beside 50 kept ones).
//!
//! `condition_checks` and `applications` grow linearly in the width;
//! the `simplify` bench prints them beside the rewrite time up to 400
//! conjuncts. This pin says the counts did not move, so that a change
//! to the time per check there is read against the same work. A rule,
//! strategy or limit change that moves them on purpose re-pins here and
//! in `kernel_pin.rs` together.

use eds_bench::{simple_table, wide_conjunction_sql};
use eds_core::OptLevel;

#[test]
fn hundred_conjuncts_rewrite_with_pinned_counts() {
    let mut dbms = simple_table(50);
    dbms.set_opt_level(OptLevel::Simple);
    let prepared = dbms.prepare(&wide_conjunction_sql(50)).unwrap();
    let out = dbms.rewrite_uncached(&prepared).unwrap();
    assert_eq!(
        (out.stats.condition_checks, out.stats.applications),
        (2924, 148),
        "checks and applications at 100 conjuncts"
    );
}
