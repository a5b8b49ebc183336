//! Semantic query optimization (Section 6): integrity constraints,
//! implicit knowledge, inconsistency detection — and the block-limit
//! trade-off the paper's conclusion discusses.
//!
//! ```sh
//! cargo run --example semantic_optimization
//! ```

use eds_core::Dbms;
use eds_rewrite::Limit;

fn build() -> Result<Dbms, Box<dyn std::error::Error>> {
    let mut dbms = Dbms::new()?;
    dbms.execute_ddl(
        "TYPE Grade ENUMERATION OF ('A', 'B', 'C') ;
         TABLE PRODUCT (Id : INT, Grade : Grade, Price : INT, Weight : INT);",
    )?;
    // Integrity constraints, declared in the rule language (Figure 10):
    // the Grade domain, and two attribute-level axioms.
    dbms.add_constraint_source(
        "GradeDomain : F(x) / ISA(x, Grade) --> F(x) AND MEMBER(x, {'A', 'B', 'C'}) / ;",
    )?;
    for i in 0..50i64 {
        let grade = ["A", "B", "C"][(i % 3) as usize];
        dbms.insert(
            "PRODUCT",
            vec![i.into(), grade.into(), (i * 10).into(), (i % 7).into()],
        )?;
    }
    Ok(dbms)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Work is read as logical work: the plan's cross product.
    let mut dbms = build()?;

    // 1. Domain-constraint inconsistency: grade 'D' does not exist. The
    //    constraint is added to the qualification, equality substitution
    //    turns MEMBER(x, {...}) into MEMBER('D', {...}), folding makes it
    //    FALSE — the query never touches the data.
    let sql = "SELECT Id FROM PRODUCT WHERE Grade = 'D' ;";
    let prepared = dbms.prepare(sql)?;
    let rewritten = dbms.rewrite(&prepared)?;
    println!("Grade = 'D' rewrites to: {}", rewritten.expr);
    let (rows, stats) = dbms.run_expr_with_stats(&rewritten.expr)?;
    println!(
        "rows={} cross_product={} (0 = inconsistency detected statically)\n",
        rows.len(),
        stats.cross_product
    );

    // 2. Implicit knowledge: transitivity + equality substitution expose
    //    a contradiction spread across conjuncts.
    let sql = "SELECT Id FROM PRODUCT WHERE Price = Weight AND Price > 100 AND Weight < 7 ;";
    let rewritten = dbms.rewrite(&dbms.prepare(sql)?)?;
    println!("contradictory join query rewrites to: {}", rewritten.expr);
    println!();

    // 3. The limit trade-off (paper conclusion): "If one stops too early
    //    (low limit), then the logical optimization can actually
    //    complicate the query." Sweep the semantic block limit.
    let sql = "SELECT Id FROM PRODUCT WHERE Grade = 'D' AND Price > 10 ;";
    for limit in [0u64, 1, 2, 5, 50] {
        dbms.rewriter
            .strategy_mut()
            .set_limit("semantic", Limit::Finite(limit))?;
        let prepared = dbms.prepare(sql)?;
        let rewritten = dbms.rewrite(&prepared)?;
        let (rows, stats) = dbms.run_expr_with_stats(&rewritten.expr)?;
        println!(
            "semantic limit {limit:>3}: rewrite_checks={:<5} exec_combos={:<5} rows={}",
            rewritten.stats.condition_checks,
            stats.cross_product,
            rows.len()
        );
    }
    println!("\nwith limit 0 the semantic block is disabled and the engine");
    println!("scans; with a sufficient limit the contradiction is found");
    println!("and execution is free.");

    Ok(())
}
