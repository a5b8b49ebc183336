//! Rewrite-output plan cache: hits return the identical plan, every
//! knowledge-base / catalog / constraint mutation invalidates, tracing
//! bypasses, ad-hoc and prepared rewrites share one map, and the cache
//! stays bounded.

use std::sync::Arc;

use eds_adt::Value;
use eds_core::Dbms;
use eds_lera::expr_to_term;

fn film_dbms() -> Dbms {
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(
        "TYPE Category ENUMERATION OF ('Comedy', 'Adventure', 'Science Fiction', 'Western') ;
         TYPE Person OBJECT TUPLE ( Name : CHAR, Firstname : SET OF CHAR) ;
         TYPE Actor SUBTYPE OF Person OBJECT TUPLE (Salary : NUMERIC) ;
         TYPE SetCategory SET OF Category ;
         TABLE FILM ( Numf : NUMERIC, Title : CHAR, Categories : SetCategory) ;
         TABLE APPEARS_IN ( Numf : NUMERIC, Refactor : Actor) ;",
    )
    .unwrap();
    let quinn = dbms.create_object(
        "Actor",
        Value::Tuple(vec![
            Value::str("Quinn"),
            Value::set(vec![]),
            Value::Int(12_000),
        ]),
    );
    dbms.insert_all(
        "FILM",
        vec![vec![
            Value::Int(1),
            Value::str("Desert Run"),
            Value::set(vec![Value::str("Adventure")]),
        ]],
    )
    .unwrap();
    dbms.insert_all("APPEARS_IN", vec![vec![Value::Int(1), quinn]])
        .unwrap();
    dbms
}

const QUERY: &str = "SELECT Title FROM FILM, APPEARS_IN \
                     WHERE Salary(Refactor) > 10000 AND FILM.Numf = APPEARS_IN.Numf ;";

#[test]
fn hit_returns_the_identical_plan() {
    let dbms = film_dbms();
    let prepared = dbms.prepare(QUERY).unwrap();
    assert_eq!(dbms.rewriter.plan_cache_len(), 0);

    let cold = dbms.rewrite(&prepared).unwrap();
    assert_eq!(dbms.rewriter.plan_cache_len(), 1);
    let warm = dbms.rewrite(&prepared).unwrap();
    assert_eq!(dbms.rewriter.plan_cache_len(), 1, "hit must not re-insert");

    assert_eq!(cold.term, warm.term);
    assert_eq!(cold.expr, warm.expr);
    assert_eq!(cold.stats, warm.stats);
    assert_eq!(cold.budget_exhausted, warm.budget_exhausted);

    // And both equal what the kernel produces without any cache.
    let uncached = dbms.rewrite_uncached(&prepared).unwrap();
    assert_eq!(uncached.term, warm.term);
    assert_eq!(dbms.rewriter.plan_cache_len(), 1, "uncached must not fill");
}

#[test]
fn every_mutation_class_invalidates() {
    let mut dbms = film_dbms();
    let prepared = dbms.prepare(QUERY).unwrap();

    let fill = |dbms: &Dbms| {
        dbms.rewrite(&prepared).unwrap();
        assert_eq!(dbms.rewriter.plan_cache_len(), 1);
    };

    // Rule addition.
    fill(&dbms);
    dbms.add_rule_source("ExtraNoop : f AND TRUE / --> f / ;")
        .unwrap();
    assert_eq!(dbms.rewriter.plan_cache_len(), 0, "add_rule_source");

    // Rule removal.
    fill(&dbms);
    assert!(dbms.rewriter.remove_rule("ExtraNoop"));
    assert_eq!(dbms.rewriter.plan_cache_len(), 0, "remove_rule");

    // Removing a rule that is not there removes nothing: every plan
    // stays, the epoch stands, and the next rewrite is a hit.
    fill(&dbms);
    let epoch = dbms.rewriter.invalidation_epoch();
    let before = dbms.rewriter.plan_cache_stats();
    assert!(!dbms.rewriter.remove_rule("NoSuchRule"));
    assert_eq!(dbms.rewriter.plan_cache_len(), 1, "no-op remove_rule");
    assert_eq!(dbms.rewriter.invalidation_epoch(), epoch);
    dbms.rewrite(&prepared).unwrap();
    let after = dbms.rewriter.plan_cache_stats();
    assert_eq!(after.hits, before.hits + 1);
    assert_eq!(
        (after.misses, after.shape_misses, after.invalidations),
        (before.misses, before.shape_misses, before.invalidations)
    );

    // DDL: rewrites consult the catalog (schemas, types).
    fill(&dbms);
    dbms.execute_ddl("TABLE SCRATCH ( X : NUMERIC ) ;").unwrap();
    assert_eq!(dbms.rewriter.plan_cache_len(), 0, "execute_ddl");

    // Semantic constraints: rewrites consult the constraint store.
    fill(&dbms);
    dbms.add_constraint_source(
        "SalaryPositive : F(x) / ISA(x, Actor) --> F(x) AND PROJECT(x, Salary) > 0 / ;",
    )
    .unwrap();
    assert_eq!(dbms.rewriter.plan_cache_len(), 0, "add_constraint_source");

    // Strategy changes (block limits).
    fill(&dbms);
    dbms.rewriter.set_all_limits(eds_rewrite::Limit::Infinite);
    assert_eq!(dbms.rewriter.plan_cache_len(), 0, "set_all_limits");

    // Row inserts do NOT invalidate: rewrites never read row data.
    fill(&dbms);
    dbms.insert(
        "FILM",
        vec![Value::Int(2), Value::str("Laugh Lines"), Value::set(vec![])],
    )
    .unwrap();
    assert_eq!(dbms.rewriter.plan_cache_len(), 1, "insert must not drop");
}

#[test]
fn tracing_bypasses_the_cache() {
    let dbms = film_dbms();
    // The tautological conjunct makes the simplify block fire, so the
    // traced rewrite has applications to record.
    let prepared = dbms
        .prepare("SELECT Title FROM FILM WHERE Numf > 0 AND 1 = 1 ;")
        .unwrap();
    dbms.rewrite(&prepared).unwrap();
    assert_eq!(dbms.rewriter.plan_cache_len(), 1);

    let before = dbms.rewriter.plan_cache_stats();
    let traced = dbms
        .rewriter
        .run(
            expr_to_term(&prepared.expr),
            &dbms.db,
            &dbms.constraints,
            dbms.opt_level(),
            true,
        )
        .unwrap();
    assert!(
        !traced.trace.events().is_empty(),
        "a traced rewrite of this query must record applications"
    );
    assert_eq!(
        dbms.rewriter.plan_cache_len(),
        1,
        "tracing must neither hit nor fill the cache"
    );
    assert_eq!(dbms.rewriter.plan_cache_stats(), before);
    // The cached outcome carries no trace.
    assert!(dbms.rewrite(&prepared).unwrap().trace.events().is_empty());
}

#[test]
fn prepared_rewrites_read_the_ad_hoc_entry() {
    let dbms = film_dbms();
    let prepared = dbms.prepare(QUERY).unwrap();
    let ad_hoc = dbms.rewrite(&prepared).unwrap();
    let before = dbms.rewriter.plan_cache_stats();

    let (plan, stats, exhausted) = dbms
        .rewriter
        .rewrite_shape_leveled(
            &prepared.expr,
            &dbms.db,
            &dbms.constraints,
            dbms.opt_level(),
        )
        .unwrap();
    let after = dbms.rewriter.plan_cache_stats();
    assert_eq!(after.shape_hits, before.shape_hits + 1, "one shape hit");
    assert_eq!(
        (after.misses, after.shape_misses, after.hits),
        (before.misses, before.shape_misses, before.hits),
        "no strategy run, no ad-hoc hit"
    );
    // The very plan the ad-hoc rewrite lowered, not a second lowering.
    assert!(Arc::ptr_eq(&plan, &ad_hoc.expr));
    assert_eq!((stats, exhausted), (ad_hoc.stats, ad_hoc.budget_exhausted));
    assert_eq!(dbms.rewriter.plan_cache_len(), 1, "one entry serves both");
}

#[test]
fn cache_stays_bounded_and_clones_start_cold() {
    let dbms = film_dbms();
    // More distinct shapes than the cap (256): vary a literal.
    for i in 0..300 {
        let q = format!("SELECT Title FROM FILM WHERE Numf = {i} ;");
        let p = dbms.prepare(&q).unwrap();
        dbms.rewrite(&p).unwrap();
        assert!(
            dbms.rewriter.plan_cache_len() <= 256,
            "cache exceeded its cap at query {i}"
        );
    }
    assert!(dbms.rewriter.plan_cache_len() > 0);

    let cloned = dbms.rewriter.clone();
    assert_eq!(cloned.plan_cache_len(), 0, "clones must start cold");
}

#[test]
fn counters_track_hits_misses_and_invalidations() {
    let mut dbms = film_dbms();
    let stats0 = dbms.rewriter.plan_cache_stats();
    assert_eq!((stats0.hits, stats0.misses), (0, 0));

    let prepared = dbms.prepare(QUERY).unwrap();
    let cold = dbms.rewrite(&prepared).unwrap();
    let warm = dbms.rewrite(&prepared).unwrap();
    dbms.rewrite(&prepared).unwrap();
    let stats = dbms.rewriter.plan_cache_stats();
    assert_eq!(stats.misses, 1, "one cold rewrite");
    assert_eq!(stats.hits, 2, "two warm rewrites");
    assert_eq!(stats.evictions, 0);
    // A hit hands out the plan lowered when the strategy ran.
    assert!(Arc::ptr_eq(&cold.expr, &warm.expr));

    // Ad-hoc queries read the same map: the text above is a hit.
    dbms.query(QUERY).unwrap();
    let stats = dbms.rewriter.plan_cache_stats();
    assert_eq!((stats.hits, stats.misses), (3, 1), "query hits");

    // Prepared statements count their own hits and misses; a miss is
    // a strategy run, so it counts in `misses` too.
    let shape_sql = "SELECT Title FROM FILM WHERE Numf = ? ;";
    dbms.prepare_stmt(shape_sql).unwrap();
    dbms.prepare_stmt(shape_sql).unwrap();
    dbms.prepare_stmt(QUERY).unwrap();
    let stats = dbms.rewriter.plan_cache_stats();
    assert_eq!(
        (stats.shape_hits, stats.shape_misses),
        (2, 1),
        "a re-prepare and the ad-hoc text hit"
    );
    assert_eq!((stats.hits, stats.misses), (3, 2));

    // Uncached rewrites touch no counter.
    dbms.rewrite_uncached(&prepared).unwrap();
    assert_eq!(dbms.rewriter.plan_cache_stats(), stats);

    // Invalidation events are counted (and the next rewrite misses).
    let invalidations_before = stats.invalidations;
    dbms.add_rule_source("CounterNoop : f AND TRUE / --> f / ;")
        .unwrap();
    let stats = dbms.rewriter.plan_cache_stats();
    assert_eq!(stats.invalidations, invalidations_before + 1, "the epoch");
    dbms.rewrite(&prepared).unwrap();
    assert_eq!(dbms.rewriter.plan_cache_stats().misses, 3);

    // Clones start with fresh counters.
    assert_eq!(
        dbms.rewriter.clone().plan_cache_stats(),
        eds_core::PlanCacheStats::default()
    );
}

/// The capacity is a constant: 257 distinct shapes never hit, the cache
/// never holds more than 256 entries, and the 257th miss clears all 256
/// (each counted as an eviction) before it caches its own plan.
#[test]
fn capacity_is_configurable_and_evictions_are_counted() {
    let dbms = film_dbms();
    assert_eq!(dbms.rewriter.plan_cache_cap(), 256);
    for i in 0..257 {
        let p = dbms
            .prepare(&format!("SELECT Title FROM FILM WHERE Numf = {i} ;"))
            .unwrap();
        dbms.rewrite(&p).unwrap();
        assert!(dbms.rewriter.plan_cache_len() <= 256, "cap violated at {i}");
        let evictions = dbms.rewriter.plan_cache_stats().evictions;
        assert_eq!(evictions, if i < 256 { 0 } else { 256 }, "at {i}");
    }
    let stats = dbms.rewriter.plan_cache_stats();
    assert_eq!(stats.misses, 257, "distinct shapes never hit");
    assert_eq!(dbms.rewriter.plan_cache_len(), 1);
}
