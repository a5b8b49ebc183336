//! Front-end throughput: ESQL parsing and ESQL → LERA translation of the
//! paper's Figure-3/4/5 queries (the canonical-form production the
//! rewriter consumes), and of a point query over stacks of views, where
//! translation must stay linear in the depth.

use std::time::Instant;

use eds_bench::film_dbms;
use eds_core::Dbms;
use eds_esql::parse_statements;
use eds_testkit::bench::{black_box, Criterion};
use eds_testkit::{criterion_group, criterion_main};

const FIG3: &str = "SELECT Title, Categories, Salary(Refactor) \
                    FROM FILM, APPEARS_IN \
                    WHERE FILM.Numf = APPEARS_IN.Numf \
                    AND Name(Refactor) = 'Quinn' \
                    AND MEMBER('Adventure', Categories) ;";

/// Depths of the view stacks measured.
const STACK_DEPTHS: [usize; 4] = [4, 8, 16, 32];

/// A table `BASE (K, A, B)` under views `V1 … V{depth}`, each selecting
/// all three columns from the one below with its own filter.
fn stack_dbms(depth: usize) -> Dbms {
    let mut ddl = String::from("TABLE BASE (K : INT, A : INT, B : INT);\n");
    let mut prev = "BASE".to_owned();
    for d in 1..=depth {
        ddl.push_str(&format!(
            "CREATE VIEW V{d} (K, A, B) AS SELECT K, A, B FROM {prev} WHERE A >= {d} ;\n"
        ));
        prev = format!("V{d}");
    }
    let mut dbms = Dbms::new().unwrap();
    dbms.execute_ddl(&ddl).unwrap();
    dbms
}

fn stack_point(depth: usize) -> String {
    format!("SELECT K FROM V{depth} WHERE K = 7 AND B < 5 ;")
}

fn series() {
    let dbms = film_dbms(50, 20, 3);
    let prepared = dbms.prepare(FIG3).unwrap();
    println!("\n# F3 canonical translation (compare paper Section 3.1):");
    println!("{}", prepared.expr);

    // Parse + translate of a point query over each stack, best of five
    // rounds. Linear translation keeps the per-level column flat; a
    // quadratic one makes it grow with the depth.
    let dbms = stack_dbms(STACK_DEPTHS[STACK_DEPTHS.len() - 1]);
    println!("\n# prepare over a view stack (best of 5 x 200):");
    println!("{:>6} {:>12} {:>12}", "depth", "us/prepare", "us/level");
    for depth in STACK_DEPTHS {
        let sql = stack_point(depth);
        let best = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..200 {
                    black_box(dbms.prepare(&sql).unwrap());
                }
                t0.elapsed().as_secs_f64() * 1e6 / 200.0
            })
            .fold(f64::INFINITY, f64::min);
        println!("{depth:>6} {best:>12.2} {:>12.3}", best / depth as f64);
    }
    println!();
}

fn bench(c: &mut Criterion) {
    series();
    let mut dbms = film_dbms(50, 20, 3);
    dbms.execute_ddl(
        "CREATE VIEW FilmActors (Title, Categories, Actors) AS
           SELECT Title, Categories, MakeSet(Refactor)
           FROM FILM, APPEARS_IN WHERE FILM.Numf = APPEARS_IN.Numf
           GROUP BY Title, Categories ;
         CREATE VIEW BETTER_THAN (Refactor1, Refactor2) AS
           ( SELECT Refactor1, Refactor2 FROM DOMINATE
             UNION
             SELECT B1.Refactor1, B2.Refactor2
             FROM BETTER_THAN B1, BETTER_THAN B2
             WHERE B1.Refactor2 = B2.Refactor1 ) ;",
    )
    .unwrap();

    let fig4 = "SELECT Title FROM FilmActors \
                WHERE MEMBER('Adventure', Categories) AND ALL (Salary(Actors) > 10_000) ;";
    let fig5 = "SELECT Name(Refactor1) FROM BETTER_THAN WHERE Name(Refactor2) = 'Quinn' ;";

    let mut group = c.benchmark_group("translate");
    group.sample_size(50);
    group.bench_function("parse_fig3", |b| b.iter(|| parse_statements(FIG3).unwrap()));
    for (label, sql) in [("fig3", FIG3), ("fig4", fig4), ("fig5", fig5)] {
        group.bench_function(format!("prepare_{label}"), |b| {
            b.iter(|| dbms.prepare(sql).unwrap());
        });
        let prepared = dbms.prepare(sql).unwrap();
        group.bench_function(format!("rewrite_{label}"), |b| {
            b.iter(|| dbms.rewrite_uncached(&prepared).unwrap());
        });
    }
    let stacks = stack_dbms(16);
    for depth in [4, 8, 16] {
        let sql = stack_point(depth);
        group.bench_function(format!("prepare_stack{depth}"), |b| {
            b.iter(|| stacks.prepare(&sql).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
