//! Recursive query processing: the fix operator, semi-naive evaluation,
//! and the Alexander/magic-sets reduction (Figure 9).
//!
//! Builds a random graph, defines its transitive closure as a recursive
//! ESQL view, and measures the engine work for a bound query
//! `TC(src = c)` with and without the rewrite. The naive iteration, the
//! definition of `fix`, is written out for experiment F9
//! (`cargo bench -p eds-bench --bench recursion -- --test`).
//!
//! ```sh
//! cargo run --release --example recursive_queries
//! ```

use eds_core::Dbms;
use eds_testkit::StdRng;

fn build(nodes: i64, edges_per_node: usize, seed: u64) -> Result<Dbms, Box<dyn std::error::Error>> {
    let mut dbms = Dbms::new()?;
    dbms.execute_ddl(
        "TABLE EDGE (Src : INT, Dst : INT);
         CREATE VIEW TC (Src, Dst) AS
         ( SELECT Src, Dst FROM EDGE
           UNION
           SELECT T1.Src, T2.Dst FROM TC T1, TC T2 WHERE T1.Dst = T2.Src ) ;",
    )?;
    let mut rng = StdRng::seed_from_u64(seed);
    for src in 0..nodes {
        for _ in 0..edges_per_node {
            // Mostly-forward edges keep the closure size manageable.
            let dst = (src + 1 + rng.gen_range(0..4)).min(nodes - 1);
            if dst != src {
                dbms.insert("EDGE", vec![src.into(), dst.into()])?;
            }
        }
    }
    Ok(dbms)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nodes = 60;
    let dbms = build(nodes, 2, 42)?;
    let sql = format!("SELECT Dst FROM TC WHERE Src = {} ;", nodes - 10);

    let prepared = dbms.prepare(&sql)?;
    let rewritten = dbms.rewrite(&prepared)?;
    println!("canonical: {}", prepared.expr);
    println!("rewritten: {}", rewritten.expr);
    println!();

    let report = |label: &str, expr: &eds_lera::Expr| {
        let start = std::time::Instant::now();
        let (rel, stats) = dbms.run_expr_with_stats(expr).unwrap();
        // `combos` compares logical work across plans: the cross product.
        println!(
            "{label:<34} rows={:<4} combos={:<10} fix_iters={:<3} wall={:?}",
            rel.deduped().len(),
            stats.cross_product,
            stats.fix_iterations,
            start.elapsed()
        );
        rel.deduped().len()
    };

    println!("plan comparison for: {sql}");
    let base = report("semi-naive, no rewriting", &prepared.expr);
    let reduced = report("semi-naive + Alexander", &rewritten.expr);
    assert_eq!(base, reduced, "plans must agree on results");

    println!("\nboth plans return identical answers; the work counters");
    println!("show the Alexander fixpoint reduction. Experiment F9 adds");
    println!("the naive iteration's columns.");
    Ok(())
}
