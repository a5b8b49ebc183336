//! Workload generators shared by the benchmark harness.
//!
//! Each generator builds a [`Dbms`] populated with synthetic data sized
//! by a scale parameter, plus the queries the corresponding experiment
//! sweeps. See `EXPERIMENTS.md` at the repository root for the mapping
//! from paper figures to benches.

#![warn(missing_docs)]

use std::collections::HashSet;

use eds_adt::{Field, Value};
use eds_core::Dbms;
use eds_engine::{eval_reference, Database, EngineResult, EvalOptions, EvalStats, Relation};
use eds_lera::{infer_schema, Expr, SchemaCtx};
use eds_testkit::StdRng;

/// The differential check every executor suite makes, with the oracle
/// asked once: `expr` under [`eval_reference`] — whose answer does not
/// depend on how the executor is configured — then under
/// [`eval_with`](eds_engine::eval_with) for each of `configs`, which
/// must return the oracle's schema and its rows in its order (panics,
/// naming `id` and the configuration, otherwise). Returns the executor's
/// work counters, one per configuration in the order given.
pub fn assert_matches_oracle(
    id: &str,
    db: &Database,
    expr: &Expr,
    configs: &[EvalOptions],
) -> Vec<EvalStats> {
    let oracle = eval_reference(expr, db, EvalOptions::default())
        .unwrap_or_else(|e| panic!("{id}: reference interpreter failed: {e}"));
    configs
        .iter()
        .map(|&opts| {
            let (got, stats) = eds_engine::eval_with(expr, db, opts)
                .unwrap_or_else(|e| panic!("{id}: executor failed under {opts:?}: {e}"));
            assert_eq!(
                got.schema, oracle.schema,
                "{id}: schema diverges under {opts:?}"
            );
            assert_eq!(
                got.rows, oracle.rows,
                "{id}: rows diverge from the reference interpreter under {opts:?}"
            );
            stats
        })
        .collect()
}

/// The naive fixpoint iteration — the definition of `fix` — written out
/// over the public executor: F9's naive columns, and one side of the
/// check that semi-naive evaluation computes the same set. `plan` must
/// be shaped `search((fix(R, body)), pred, proj)` and read `db`.
///
/// The stored tables `body` reads are copied, as bags, into a fresh
/// database next to a table named for `R` (a fresh one, because `R` is
/// often named like a catalog view). Each round evaluates `body` over
/// them and inserts the rows `R` does not hold yet; the first round that
/// adds nothing ends the loop, and the outer `search` is evaluated over
/// the final `R`. Returns its answer and the plan's logical work: the
/// [`EvalStats::cross_product`] of every round and of the outer search,
/// summed.
pub fn naive_fix(plan: &Expr, db: &Database) -> EngineResult<(Relation, u64)> {
    let Expr::Search { inputs, pred, proj } = plan else {
        panic!("naive_fix wants search((fix(R, body)), pred, proj), got {plan}");
    };
    let [fix @ Expr::Fix { name, body }] = inputs.as_slice() else {
        panic!("naive_fix wants one fix input, got {plan}");
    };
    let table = |t: &str, fields: &[Field]| {
        let cols: Vec<String> = fields
            .iter()
            .enumerate()
            .map(|(i, f)| format!("C{i} : {}", f.ty))
            .collect();
        format!("TABLE {t} ({});", cols.join(", "))
    };
    let mut ddl = table(
        name,
        &infer_schema(fix, &SchemaCtx::new(&db.catalog))?.fields,
    );
    let mut tables = Vec::new();
    let mut stack = vec![&**body];
    while let Some(e) = stack.pop() {
        match e {
            Expr::Base(t) if !t.eq_ignore_ascii_case(name) && !tables.contains(t) => {
                if let Some(schema) = db.catalog.table(t) {
                    ddl.push_str(&table(t, &schema.columns));
                    tables.push(t.clone());
                }
            }
            other => stack.extend(other.children()),
        }
    }
    let mut scratch = Database::new();
    scratch.execute_ddl(&ddl)?;
    for t in &tables {
        let rows = db.relation(t).map_or(&[][..], |r| &r.rows);
        scratch.insert_all(t, rows.iter().map(|r| r.to_vec()))?;
    }

    let opts = EvalOptions::default();
    let mut cross_product = 0u64;
    let mut known = HashSet::new();
    for _round in 0..opts.max_iterations {
        let (derived, work) = eds_engine::eval_with(body, &scratch, opts)?;
        cross_product = cross_product.saturating_add(work.cross_product);
        let fresh: Vec<_> = derived
            .rows
            .into_iter()
            .filter(|r| known.insert(r.clone()))
            .collect();
        if fresh.is_empty() {
            let outer = Expr::search(vec![Expr::base(name)], pred.clone(), proj.clone());
            let (answer, work) = eds_engine::eval_with(&outer, &scratch, opts)?;
            return Ok((answer, cross_product.saturating_add(work.cross_product)));
        }
        scratch.insert_all(name, fresh.iter().map(|r| r.to_vec()))?;
    }
    Err(eds_engine::EngineError::FixpointDiverged {
        name: name.clone(),
        limit: opts.max_iterations,
    })
}

/// The film database of Figure 2 scaled to `films` films and
/// `actors` actors, with ~3 appearances per film.
pub fn film_dbms(films: i64, actors: i64, seed: u64) -> Dbms {
    let mut dbms = Dbms::new().expect("default rules load");
    dbms.execute_ddl(
        "TYPE Category ENUMERATION OF ('Comedy', 'Adventure', 'Science Fiction', 'Western') ;
         TYPE Person OBJECT TUPLE ( Name : CHAR, Firstname : SET OF CHAR) ;
         TYPE Actor SUBTYPE OF Person OBJECT TUPLE (Salary : NUMERIC) ;
         TYPE SetCategory SET OF Category ;
         TABLE FILM ( Numf : NUMERIC, Title : CHAR, Categories : SetCategory) ;
         TABLE APPEARS_IN ( Numf : NUMERIC, Refactor : Actor) ;
         TABLE DOMINATE ( Numf : NUMERIC, Refactor1 : Actor, Refactor2 : Actor) ;",
    )
    .expect("schema installs");

    let mut rng = StdRng::seed_from_u64(seed);
    let categories = ["Comedy", "Adventure", "Science Fiction", "Western"];

    let actor_refs: Vec<Value> = (0..actors)
        .map(|i| {
            dbms.create_object(
                "Actor",
                Value::Tuple(vec![
                    Value::str(format!("Actor{i}")),
                    Value::set(vec![]),
                    Value::Int(5_000 + (i % 40) * 1_000),
                ]),
            )
        })
        .collect();

    for f in 0..films {
        let mut cats: Vec<Value> = categories
            .iter()
            .filter(|_| rng.gen_bool(0.4))
            .map(|c| Value::str(*c))
            .collect();
        if cats.is_empty() {
            cats.push(Value::str("Comedy"));
        }
        dbms.insert(
            "FILM",
            vec![
                Value::Int(f),
                Value::str(format!("Film{f}")),
                Value::set(cats),
            ],
        )
        .unwrap();
        for _ in 0..3 {
            let a = &actor_refs[rng.gen_range(0..actor_refs.len())];
            dbms.insert("APPEARS_IN", vec![Value::Int(f), a.clone()])
                .unwrap();
        }
    }
    for _ in 0..actors {
        let a = actor_refs[rng.gen_range(0..actor_refs.len())].clone();
        let b = actor_refs[rng.gen_range(0..actor_refs.len())].clone();
        dbms.insert(
            "DOMINATE",
            vec![Value::Int(rng.gen_range(0..films.max(1))), a, b],
        )
        .unwrap();
    }
    dbms
}

/// A stack of `depth` selective views over one base table, ending in a
/// view `V<depth>`; the merging experiment's workload.
pub fn view_stack(depth: usize, rows: i64) -> Dbms {
    let mut dbms = Dbms::new().expect("default rules load");
    dbms.execute_ddl("TABLE BASE (K : INT, A : INT, B : INT);")
        .unwrap();
    for i in 0..rows {
        dbms.insert("BASE", vec![i.into(), (i % 97).into(), (i % 13).into()])
            .unwrap();
    }
    let mut prev = "BASE".to_owned();
    for d in 1..=depth {
        // Each level keeps most rows so deep stacks stay non-trivial.
        dbms.execute_ddl(&format!(
            "CREATE VIEW V{d} (K, A, B) AS SELECT K, A, B FROM {prev} WHERE A >= {d} ;"
        ))
        .unwrap();
        prev = format!("V{d}");
    }
    dbms
}

/// A union view with `branches` branches over per-branch tables; the
/// union-pushdown experiment's workload.
pub fn union_view(branches: usize, rows_per_branch: i64) -> Dbms {
    let mut dbms = Dbms::new().expect("default rules load");
    let mut selects = Vec::new();
    for b in 0..branches {
        dbms.execute_ddl(&format!("TABLE PART{b} (K : INT, P : INT);"))
            .unwrap();
        for i in 0..rows_per_branch {
            dbms.insert(&format!("PART{b}"), vec![i.into(), (b as i64).into()])
                .unwrap();
        }
        selects.push(format!("SELECT K, P FROM PART{b}"));
    }
    dbms.execute_ddl(&format!(
        "CREATE VIEW ALLPARTS (K, P) AS ( {} ) ;",
        selects.join(" UNION ")
    ))
    .unwrap();
    dbms
}

/// A nested (GROUP BY) view over an order/detail pair; the nest-pushdown
/// experiment's workload.
pub fn nested_view(groups: i64, per_group: i64) -> Dbms {
    let mut dbms = Dbms::new().expect("default rules load");
    dbms.execute_ddl(
        "TABLE DETAIL (G : INT, Item : INT);
         CREATE VIEW GROUPED (G, Items) AS
           SELECT G, MakeSet(Item) FROM DETAIL GROUP BY G ;",
    )
    .unwrap();
    for g in 0..groups {
        for i in 0..per_group {
            dbms.insert("DETAIL", vec![g.into(), (g * per_group + i).into()])
                .unwrap();
        }
    }
    dbms
}

/// A graph table `EDGE` plus the recursive `TC` view; the recursion
/// experiment's workload. Mostly-forward random edges.
pub fn graph_dbms(nodes: i64, extra_edges: i64, seed: u64) -> Dbms {
    let mut dbms = Dbms::new().expect("default rules load");
    dbms.execute_ddl(
        "TABLE EDGE (Src : INT, Dst : INT);
         CREATE VIEW TC (Src, Dst) AS
         ( SELECT Src, Dst FROM EDGE
           UNION
           SELECT T1.Src, T2.Dst FROM TC T1, TC T2 WHERE T1.Dst = T2.Src ) ;",
    )
    .unwrap();
    for i in 0..nodes - 1 {
        dbms.insert("EDGE", vec![i.into(), (i + 1).into()]).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..extra_edges {
        let a = rng.gen_range(0..nodes - 1);
        let b = (a + rng.gen_range(1..5)).min(nodes - 1);
        dbms.insert("EDGE", vec![a.into(), b.into()]).unwrap();
    }
    dbms
}

/// A flat product table with an enumeration domain and declared
/// integrity constraints; the semantic experiment's workload.
pub fn product_dbms(rows: i64) -> Dbms {
    let mut dbms = Dbms::new().expect("default rules load");
    dbms.execute_ddl(
        "TYPE Grade ENUMERATION OF ('A', 'B', 'C') ;
         TABLE PRODUCT (Id : INT, Grade : Grade, Price : INT, Weight : INT);",
    )
    .unwrap();
    dbms.add_constraint_source(
        "GradeDomain : F(x) / ISA(x, Grade) --> F(x) AND MEMBER(x, {'A', 'B', 'C'}) / ;",
    )
    .unwrap();
    for i in 0..rows {
        let grade = ["A", "B", "C"][(i % 3) as usize];
        dbms.insert(
            "PRODUCT",
            vec![
                i.into(),
                grade.into(),
                (i * 7 % 1000).into(),
                (i % 50).into(),
            ],
        )
        .unwrap();
    }
    dbms
}

/// A wide flat table whose columns all land in typed columnar layouts —
/// INT keys, an INT column with scattered NULLs (exercises the null
/// bitmap), a CHAR column drawn from a small tag vocabulary (exercises
/// string interning), and a small grouping key; the columnar-scan
/// experiment's workload.
pub fn scan_dbms(rows: i64, seed: u64) -> Dbms {
    let mut dbms = Dbms::new().expect("default rules load");
    dbms.execute_ddl("TABLE SCAN (K : INT, A : INT, B : INT, Tag : CHAR, G : INT);")
        .unwrap();
    let tags = [
        "hot", "cold", "warm", "cool", "tepid", "mild", "arid", "damp",
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..rows {
        let a = if i % 13 == 5 {
            Value::Null
        } else {
            Value::Int(rng.gen_range(0..1000))
        };
        dbms.insert(
            "SCAN",
            vec![
                Value::Int(i),
                a,
                Value::Int(i * 7 % 1000),
                Value::str(tags[rng.gen_range(0..tags.len())]),
                Value::Int(i % 16),
            ],
        )
        .unwrap();
    }
    dbms
}

/// A deep conjunction with `n` foldable and `n` non-foldable conjuncts;
/// the simplification experiment's query generator.
pub fn wide_conjunction_sql(n: usize) -> String {
    let mut parts = Vec::new();
    for i in 0..n {
        parts.push(format!("X < {} + {}", i, i + 5)); // foldable arithmetic
        parts.push(format!("Y <> {i}")); // kept
    }
    format!("SELECT X FROM T WHERE {} ;", parts.join(" AND "))
}

/// Table for [`wide_conjunction_sql`].
pub fn simple_table(rows: i64) -> Dbms {
    let mut dbms = Dbms::new().expect("default rules load");
    dbms.execute_ddl("TABLE T (X : INT, Y : INT);").unwrap();
    for i in 0..rows {
        dbms.insert("T", vec![i.into(), (i * 3 % 101).into()])
            .unwrap();
    }
    dbms
}

/// A 3-way join: `R ⋈ S` (through a view `RS`) joined with a small
/// `T`. The canonical plan nests the view's search inside the outer
/// one; syntactic saturation *flattens* it into one 3-way search. Under
/// the paper's cross-product executor that cost `|R|·|S|·|T|`
/// combinations instead of `|R|·|S| + |R⋈S|·|T|`; the default executor
/// hashes on the linking equalities, the estimator prices the flattened
/// plan below the nested one, and `OptLevel::Full` emits `Simple`'s
/// plan. The opt-level experiment's first workload.
pub fn join3_dbms(rows: i64, keys: i64, small: i64) -> Dbms {
    let mut dbms = Dbms::new().expect("default rules load");
    dbms.execute_ddl(
        "TABLE R (K : INT, A : INT);
         TABLE S (K : INT, J : INT);
         TABLE T (J : INT, B : INT);
         CREATE VIEW RS (K, J) AS SELECT R.K, S.J FROM R, S WHERE R.K = S.K ;",
    )
    .unwrap();
    for i in 0..rows {
        dbms.insert("R", vec![(i % keys).into(), i.into()]).unwrap();
        dbms.insert("S", vec![(i % keys).into(), (i % small).into()])
            .unwrap();
    }
    for j in 0..small {
        dbms.insert("T", vec![j.into(), (j * 3).into()]).unwrap();
    }
    dbms
}

/// A pushdown-vs-no-pushdown case: a small union joined with a *highly
/// selective* filtered view over a big table. Saturation merges the
/// view's filter up into the join qualification, so the executor
/// enumerates `|union|·|big|` combinations; keeping the filtered search
/// nested evaluates the filter first and joins against its few
/// survivors. The opt-level experiment's second workload.
pub fn filter_pushdown_dbms(union_rows: i64, big_rows: i64) -> Dbms {
    let mut dbms = Dbms::new().expect("default rules load");
    dbms.execute_ddl(
        "TABLE U0 (K : INT);
         TABLE U1 (K : INT);
         TABLE BIGF (K : INT, V : INT);
         CREATE VIEW ALLU (K) AS ( SELECT K FROM U0 UNION SELECT K FROM U1 ) ;
         CREATE VIEW FSEL (K) AS SELECT K FROM BIGF WHERE V = 7 ;",
    )
    .unwrap();
    for i in 0..union_rows {
        dbms.insert("U0", vec![i.into()]).unwrap();
        dbms.insert("U1", vec![(i + union_rows).into()]).unwrap();
    }
    for i in 0..big_rows {
        dbms.insert(
            "BIGF",
            vec![(i % (4 * union_rows)).into(), (i % 500).into()],
        )
        .unwrap();
    }
    dbms
}

/// The opt-level workload suite: `(id, dbms, sql)` triples built so
/// that `Simple`'s pure saturation picked the wrong plan for the paper's
/// cross-product executor. On the default executor `Full` emits a
/// different plan on `ol_pushdown` only and `Simple`'s on `ol_join3`
/// (EXPERIMENTS E18). Shared by the `exec` bench (kind `opt_level` in
/// `BENCH_exec.json`), the differential suites and the CI gate.
pub fn opt_level_workloads() -> Vec<(&'static str, Dbms, String)> {
    vec![
        (
            "ol_join3",
            join3_dbms(400, 80, 40),
            "SELECT B FROM RS, T WHERE RS.J = T.J ;".to_owned(),
        ),
        (
            "ol_pushdown",
            filter_pushdown_dbms(50, 20_000),
            "SELECT ALLU.K FROM ALLU, FSEL WHERE ALLU.K = FSEL.K ;".to_owned(),
        ),
    ]
}

/// The executor-bench workload suite: `(id, dbms, sql)` triples shared
/// by the `exec` bench and its committed `before` baseline so the two
/// sides of `BENCH_exec.json` always measure identical data and queries.
///
/// Workloads are chosen to exercise the executor's hot paths: per-row
/// predicate evaluation over object dereferences (`Salary(Refactor)`),
/// n-ary joins, merged filter chains, union pushdown output, recursive
/// fixpoints, and duplicate elimination.
pub fn exec_workloads() -> Vec<(&'static str, Dbms, String)> {
    vec![
        (
            "film_salary_filter",
            film_dbms(1000, 200, 7),
            "SELECT Numf FROM APPEARS_IN WHERE Salary(Refactor) > 20000 ;".to_owned(),
        ),
        (
            "film_join",
            film_dbms(150, 80, 7),
            "SELECT Title FROM FILM, APPEARS_IN \
             WHERE Salary(Refactor) > 20000 AND FILM.Numf = APPEARS_IN.Numf ;"
                .to_owned(),
        ),
        (
            "dominate_names",
            film_dbms(300, 400, 7),
            "SELECT Numf FROM DOMINATE WHERE Name(Refactor1) = Name(Refactor2) ;".to_owned(),
        ),
        (
            "stack_filter",
            view_stack(8, 4000),
            "SELECT K FROM V8 WHERE B = 3 ;".to_owned(),
        ),
        (
            "union_filter",
            union_view(8, 2000),
            "SELECT K FROM ALLPARTS WHERE P = 3 ;".to_owned(),
        ),
        (
            "tc_bound",
            graph_dbms(60, 15, 7),
            "SELECT Dst FROM TC WHERE Src = 50 ;".to_owned(),
        ),
        (
            "distinct_parts",
            union_view(4, 3000),
            "SELECT DISTINCT P FROM ALLPARTS ;".to_owned(),
        ),
        // Columnar-eligible scans over a flat typed table. Keep these at
        // the END: the exec bench addresses earlier workloads by index.
        (
            "scan_int_filter",
            scan_dbms(16_000, 7),
            "SELECT K FROM SCAN WHERE A > 800 AND B < 300 ;".to_owned(),
        ),
        (
            "scan_str_filter",
            scan_dbms(16_000, 7),
            "SELECT K FROM SCAN WHERE Tag = 'hot' ;".to_owned(),
        ),
        (
            "scan_group_agg",
            scan_dbms(16_000, 7),
            "SELECT G, MakeSet(K) FROM SCAN WHERE A > 900 GROUP BY G ;".to_owned(),
        ),
        (
            "scan_distinct",
            scan_dbms(16_000, 7),
            "SELECT DISTINCT B FROM SCAN WHERE K >= 50 ;".to_owned(),
        ),
    ]
}

/// The large-scan workload suite: one million-row `SCAN` table shared by
/// several queries (`(id, sql)` pairs), so the exec bench can measure
/// the executor on inputs hundreds of blocks deep. Kept separate from
/// [`exec_workloads`], whose entries are addressed by index.
pub fn exec_workloads_1m() -> (Dbms, Vec<(&'static str, String)>) {
    (scan_dbms(1_000_000, 7), exec_queries_1m())
}

/// The `(id, sql)` pairs of [`exec_workloads_1m`], without its table.
pub fn exec_queries_1m() -> Vec<(&'static str, String)> {
    vec![
        (
            "scan1m_int_filter",
            "SELECT K FROM SCAN WHERE A > 800 AND B < 300 ;".to_owned(),
        ),
        (
            "scan1m_str_filter",
            "SELECT K FROM SCAN WHERE Tag = 'hot' ;".to_owned(),
        ),
        (
            "scan1m_group_agg",
            "SELECT G, MakeSet(K) FROM SCAN WHERE A > 900 GROUP BY G ;".to_owned(),
        ),
    ]
}

/// ESQL literal spelling of a bind value; used to build the
/// literal-substituted comparator queries of the prepared-statement
/// benchmarks and differential suites.
pub fn value_literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_owned(),
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_owned(),
        Value::Int(i) => i.to_string(),
        Value::Real(r) => format!("{:?}", r.0),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        other => panic!("no literal spelling for {other:?}"),
    }
}

/// Replace each `?` in `sql` (left to right) with the literal spelling
/// of the matching bind value — the unprepared comparator of an
/// `execute_many` workload. The SQL must not quote a `?`.
pub fn literal_sql(sql: &str, binds: &[Value]) -> String {
    let mut next = binds.iter();
    sql.chars()
        .map(|c| {
            if c == '?' {
                value_literal(next.next().expect("more ? than binds"))
            } else {
                c.to_string()
            }
        })
        .collect()
}

/// The prepared-statement amortization suite: `(id, dbms, sql, binds)`
/// where `sql` is `?`-parameterized and `binds` the bind arrays cycled
/// during measurement. Workloads are deliberately **front-end bound** —
/// deep view stacks, wide unions, wide conjunctions — so what a
/// prepared statement amortizes (parse, view expansion, rewrite, term
/// bridging, lowering) dominates what it cannot (the scan itself).
/// Ids carry the `em_` prefix the exec report maps to kind
/// `execute_many`. The last one is bound recursion: Alexander/magic
/// seeding relocates the `?` into the fixpoint's seed at prepare time,
/// so both sides evaluate the same reduced plan and the prepared side
/// saves the front end only.
pub fn execute_many_workloads() -> Vec<(&'static str, Dbms, String, Vec<Vec<Value>>)> {
    vec![
        (
            "em_stack_point",
            view_stack(8, 4000),
            "SELECT K FROM V8 WHERE K = ? ;".to_owned(),
            vec![
                vec![Value::Int(100)],
                vec![Value::Int(2000)],
                vec![Value::Int(3999)],
                vec![Value::Int(7)],
            ],
        ),
        (
            "em_union_point",
            union_view(8, 150),
            "SELECT K FROM ALLPARTS WHERE P = ? AND K < ? ;".to_owned(),
            vec![
                vec![Value::Int(3), Value::Int(40)],
                vec![Value::Int(0), Value::Int(120)],
                vec![Value::Int(7), Value::Int(10)],
            ],
        ),
        (
            "em_stack_deep",
            view_stack(16, 1000),
            "SELECT K FROM V16 WHERE K = ? ;".to_owned(),
            vec![
                vec![Value::Int(500)],
                vec![Value::Int(999)],
                vec![Value::Int(42)],
            ],
        ),
        (
            "em_wide_pred",
            simple_table(1000),
            {
                // Two parameter conjuncts leading a wide, partly foldable
                // qualification: the per-query path re-parses and
                // re-bridges all of it on every execution.
                let mut parts = vec!["X < ?".to_owned(), "Y <> ?".to_owned()];
                for i in 0..10 {
                    parts.push(format!("X < {} + {}", i, i + 5));
                    parts.push(format!("Y <> {i}"));
                }
                format!("SELECT X FROM T WHERE {} ;", parts.join(" AND "))
            },
            vec![
                vec![Value::Int(4), Value::Int(9)],
                vec![Value::Int(5), Value::Int(1)],
                vec![Value::Int(0), Value::Int(50)],
            ],
        ),
        (
            "em_tc_src",
            graph_dbms(60, 15, 7),
            "SELECT Dst FROM TC WHERE Src = ? ;".to_owned(),
            // Node 59 is the sink: no out-edge, an empty seed.
            vec![
                vec![Value::Int(50)],
                vec![Value::Int(30)],
                vec![Value::Int(56)],
                vec![Value::Int(59)],
            ],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_substitution_spells_values() {
        assert_eq!(
            literal_sql(
                "SELECT X FROM T WHERE A = ? AND B = ? AND C = ? ;",
                &[Value::Int(3), Value::real(2.5), Value::str("o'k")]
            ),
            "SELECT X FROM T WHERE A = 3 AND B = 2.5 AND C = 'o''k' ;"
        );
        assert_eq!(
            literal_sql("? ?", &[Value::Null, Value::Bool(true)]),
            "NULL TRUE"
        );
    }

    /// Under columnar {on, off}: `em_stack_point`'s 4 000-row base table
    /// is two blocks.
    #[test]
    fn execute_many_workloads_bind_correctly() {
        for (id, mut dbms, sql, binds) in execute_many_workloads() {
            let stmt = dbms.prepare_stmt(&sql).unwrap();
            for columnar in [true, false] {
                dbms.eval_options.columnar = columnar;
                for b in &binds {
                    let got = stmt.execute(&dbms, b).unwrap();
                    let want = dbms.query(&literal_sql(&sql, b)).unwrap();
                    let tag = format!("columnar={columnar}");
                    assert_eq!(got.rows, want.rows, "{id} binds {b:?} {tag}");
                }
            }
        }
    }

    #[test]
    fn generators_build() {
        assert_eq!(film_dbms(10, 5, 1).db.cardinality("FILM"), Some(10));
        assert!(view_stack(3, 20).prepare("SELECT K FROM V3 ;").is_ok());
        assert!(union_view(3, 5).prepare("SELECT K FROM ALLPARTS ;").is_ok());
        assert!(nested_view(4, 3).prepare("SELECT G FROM GROUPED ;").is_ok());
        assert!(graph_dbms(10, 3, 1)
            .prepare("SELECT Dst FROM TC WHERE Src = 1 ;")
            .is_ok());
        assert_eq!(
            product_dbms(9)
                .query("SELECT Id FROM PRODUCT WHERE Grade = 'A' ;")
                .unwrap()
                .len(),
            3
        );
        let sql = wide_conjunction_sql(2);
        assert!(simple_table(5).prepare(&sql).is_ok());
        assert_eq!(scan_dbms(30, 1).db.cardinality("SCAN"), Some(30));
    }
}
