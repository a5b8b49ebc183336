//! The four workloads: what each sets up and what one round of it does.
//! `README.md` records why each was chosen. Sizes are constants of this
//! file; the seed decides values, literals, binds and orders only, so
//! runs with different seeds do the same amount of work.

use eds_adt::Value;
use eds_core::{CoreResult, OptLevel};

use crate::gen;
use crate::rng::Rng;
use crate::session::{open_dbms, Action, Op, Session};
use crate::trace::Tracer;

/// Every statement kind, in workload order. Latency is reported per
/// kind as `dbms.kind.<kind>.p50_us`.
pub const KINDS: [&str; 33] = [
    // adhoc_cold
    "stack8_point",
    "stack16_point",
    "union_filter",
    "wide_pred",
    "tc_bound",
    "semantic_clash",
    "film_salary",
    // prepared_hot
    "em_stack_point",
    "em_stack_deep",
    "em_union_point",
    "em_wide_pred",
    "prep_scan_range",
    "prep_tc_src",
    // analytic_exec
    "scan_int_filter",
    "scan_str_filter",
    "scan_group_agg",
    "scan_distinct",
    "dim_join",
    "film_join",
    "tc_unbound",
    "ol_join3",
    "ol_pushdown",
    // session_mix
    "open",
    "ddl",
    "load",
    "prepare",
    "pool_query",
    "prepared_exec",
    "insert",
    "fresh_query",
    "create_view",
    "add_rule",
    "add_constraint",
];

/// Kind of the set-up's root span; not a statement kind.
pub const SETUP: &str = "setup";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AdhocCold,
    PreparedHot,
    AnalyticExec,
    SessionMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AdhocCold,
        Workload::PreparedHot,
        Workload::AnalyticExec,
        Workload::SessionMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AdhocCold => "adhoc_cold",
            Workload::PreparedHot => "prepared_hot",
            Workload::AnalyticExec => "analytic_exec",
            Workload::SessionMix => "session_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

// ---- sizes ------------------------------------------------------------

const STACK_ROWS: i64 = 4_000;
const ADHOC_PART_ROWS: i64 = 500;
const HOT_PART_ROWS: i64 = 150;
const WIDE_ROWS: i64 = 1_000;
const ADHOC_NODES: i64 = 48;
const HOT_NODES: i64 = 16;
const ANALYTIC_NODES: i64 = 24;
const PRODUCT_ROWS: i64 = 2_000;
const FILMS: i64 = 150;
const ACTORS: i64 = 80;
const HOT_SCAN_ROWS: i64 = 16_000;
/// 8 morsels of 2 048 rows: with [`ANALYTIC_VISITS`] a round takes
/// ~33 ms, so a 20 s run has ~600 rounds to choose its quiet ones from.
const ANALYTIC_SCAN_ROWS: i64 = 16_384;
/// Bind arrays per prepared statement. Every one is verified against
/// the reference interpreter, which takes ~27 ms on the 16-view stack.
const BIND_ARRAYS: usize = 64;
const ACCT_ROWS: i64 = 2_000;
const ARCH_ROWS: i64 = 200;
const POOL_TEXTS: usize = 32;

/// `adhoc_cold` round: operations per kind, in the order of [`KINDS`].
/// Equal shares but for the slowest kind (`wide_pred`), which is 3 % of
/// operations, so the 99th percentile sits inside its latencies, not at
/// their edge.
const ADHOC_MIX: [usize; 7] = [5, 5, 5, 1, 5, 5, 5];
/// `analytic_exec` round: visits of each pool statement by kind. The four
/// cheap kinds run three times, so that the slowest (`dim_join`, one
/// statement) is 3 % of operations and a round stays near 35 ms.
const ANALYTIC_VISITS: [(&str, usize); 9] = [
    ("scan_int_filter", 3),
    ("scan_str_filter", 3),
    ("scan_group_agg", 3),
    ("scan_distinct", 1),
    ("dim_join", 1),
    ("film_join", 1),
    ("tc_unbound", 1),
    ("ol_join3", 1),
    ("ol_pushdown", 3),
];
/// `prepared_hot` round: statement index → executions per round. The
/// slowest kind (`prep_tc_src`) is 3 % of operations, so the 99th
/// percentile sits inside its latencies, not at their edge.
const HOT_MIX: [usize; 6] = [22, 22, 22, 22, 9, 3];
/// `session_mix` round: operations per kind after the session is open.
/// The slowest kind (`add_rule`) is 0.65 % of operations, so the 99th
/// percentile sits well inside the next cluster, the cache misses
/// (`fresh_query`, `pool_query` after an invalidation), not on the gap
/// between the two.
const MIX: [(&str, usize); 7] = [
    ("pool_query", 135),
    ("prepared_exec", 75),
    ("insert", 60),
    ("fresh_query", 15),
    ("create_view", 9),
    ("add_rule", 2),
    ("add_constraint", 3),
];

/// The prepared statements of `prepared_hot`, by statement index.
const HOT_KINDS: [&str; 6] = [
    "em_stack_point",
    "em_stack_deep",
    "em_union_point",
    "em_wide_pred",
    "prep_scan_range",
    "prep_tc_src",
];

fn hot_sql(kind: &str) -> String {
    match kind {
        "em_stack_point" => "SELECT K FROM V8 WHERE K = ? ;".to_owned(),
        "em_stack_deep" => "SELECT K FROM V16 WHERE K = ? ;".to_owned(),
        "em_union_point" => "SELECT K FROM ALLPARTS WHERE P = ? AND K < ? ;".to_owned(),
        "em_wide_pred" => gen::wide_sql("?", "?"),
        "prep_scan_range" => "SELECT K FROM SCAN WHERE A > ? AND B < ? ;".to_owned(),
        "prep_tc_src" => "SELECT Dst FROM TC WHERE Src = ? ;".to_owned(),
        other => unreachable!("no prepared statement for {other}"),
    }
}

const MIX_PREPARED: [&str; 4] = [
    "SELECT K FROM S4 WHERE K = ? ;",
    "SELECT K FROM ALLACCT WHERE A = ? AND K < ? ;",
    "SELECT K FROM ACCT WHERE A > ? AND B < ? ;",
    "SELECT A FROM S2 WHERE B = ? AND K < ? ;",
];

/// A workload bound to a seed: everything needed to set a session up
/// and to generate any round.
#[derive(Debug)]
pub struct Plan {
    pub workload: Workload,
    seed: u64,
    /// `prepared_hot`: the bind arrays of each statement.
    binds: Vec<Vec<Vec<Value>>>,
    /// `analytic_exec`: the 18-statement pool. `session_mix`: the 32
    /// pool texts.
    pool: Vec<(&'static str, String)>,
    /// `analytic_exec`: the constants of the two filtered views.
    fsel: [i64; 2],
}

fn ints(values: &[i64]) -> Vec<Value> {
    values.iter().map(|v| Value::Int(*v)).collect()
}

fn query(kind: &'static str, sql: String) -> Op {
    Op {
        kind,
        action: Action::Query(sql),
        check: None,
    }
}

impl Plan {
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let mut plan = Plan {
            workload,
            seed,
            binds: Vec::new(),
            pool: Vec::new(),
            fsel: [0; 2],
        };
        match workload {
            Workload::AdhocCold => {}
            Workload::PreparedHot => {
                let mut rng = Rng::new(seed, "hot/binds");
                let mut arrays = |f: &mut dyn FnMut(&mut Rng) -> Vec<Value>| {
                    (0..BIND_ARRAYS).map(|_| f(&mut rng)).collect::<Vec<_>>()
                };
                plan.binds = vec![
                    arrays(&mut |r| ints(&[r.range(0, STACK_ROWS)])),
                    arrays(&mut |r| ints(&[r.range(0, STACK_ROWS)])),
                    arrays(&mut |r| ints(&[r.range(0, 8), r.range(60, 90)])),
                    arrays(&mut |r| ints(&[r.range(0, 10), r.range(0, 101)])),
                    arrays(&mut |r| ints(&[r.range(790, 810), r.range(290, 310)])),
                    arrays(&mut |r| ints(&[r.range(0, HOT_NODES)])),
                ];
            }
            Workload::AnalyticExec => {
                let mut rng = Rng::new(seed, "analytic/pool");
                let v0 = rng.range(0, 500);
                plan.fsel = [v0, (v0 + 1 + rng.range(0, 498)) % 500];
                let t0 = rng.below(8) as usize;
                let tags = [
                    gen::TAGS[t0],
                    gen::TAGS[(t0 + 1 + rng.below(7) as usize) % 8],
                ];
                for (v, tag) in tags.into_iter().enumerate() {
                    let mut add = |kind, sql: String| plan.pool.push((kind, sql));
                    add(
                        "scan_int_filter",
                        format!(
                            "SELECT K FROM SCAN WHERE A > {} AND B < {} ;",
                            rng.range(790, 810),
                            rng.range(290, 310)
                        ),
                    );
                    add(
                        "scan_str_filter",
                        format!("SELECT K FROM SCAN WHERE Tag = '{tag}' ;"),
                    );
                    add(
                        "scan_group_agg",
                        format!(
                            "SELECT G, MakeSet(K) FROM SCAN WHERE A > {} GROUP BY G ;",
                            rng.range(895, 905)
                        ),
                    );
                    add(
                        "scan_distinct",
                        format!(
                            "SELECT DISTINCT B FROM SCAN WHERE K >= {} ;",
                            v as i64 * 50 + rng.range(0, 50)
                        ),
                    );
                    if v == 0 {
                        add(
                            "dim_join",
                            format!(
                                "SELECT K, Label FROM SCAN, DIM WHERE SCAN.G = DIM.G AND A > {} ;",
                                rng.range(947, 953)
                            ),
                        );
                    }
                    add(
                        "film_join",
                        format!(
                            "SELECT Title FROM FILM, APPEARS_IN \
                             WHERE Salary(Refactor) > {} AND FILM.Numf = APPEARS_IN.Numf ;",
                            18_000 + v as i64 * 4_000 + rng.range(0, 4) * 1_000
                        ),
                    );
                    add(
                        "tc_unbound",
                        format!("SELECT Src, Dst FROM TC WHERE Dst - Src > {} ;", v + 1),
                    );
                    add(
                        "ol_join3",
                        format!(
                            "SELECT B FROM RS, TJ WHERE RS.J = TJ.J AND B >= {} ;",
                            v as i64 * 3
                        ),
                    );
                    add(
                        "ol_pushdown",
                        format!("SELECT ALLU.K FROM ALLU, FSEL{v} WHERE ALLU.K = FSEL{v}.K ;"),
                    );
                }
            }
            Workload::SessionMix => {
                let mut rng = Rng::new(seed, "mix/pool");
                for i in 0..POOL_TEXTS {
                    let sql = match i % 4 {
                        0 => format!("SELECT K FROM S4 WHERE K = {} ;", rng.range(0, ACCT_ROWS)),
                        1 => format!(
                            "SELECT K FROM ALLACCT WHERE A = {} AND K < {} ;",
                            rng.range(0, 97),
                            500 + i
                        ),
                        2 => format!(
                            "SELECT K FROM ACCT WHERE Grade = '{}' AND A > {} AND K < {} ;",
                            ["A", "B", "C"][rng.below(3) as usize],
                            rng.range(80, 97),
                            1_000 + i
                        ),
                        _ => format!(
                            "SELECT A FROM S2 WHERE B = {} AND K < {} ;",
                            rng.range(0, 13),
                            200 + i
                        ),
                    };
                    plan.pool.push(("pool_query", sql));
                }
            }
        }
        plan
    }

    /// Build a session: schema, data, prepared statements. Each call
    /// into a layer is a span under one root of kind [`SETUP`]. The
    /// caller adds the warm-up round.
    pub fn setup(&self, tr: &mut Tracer) -> CoreResult<Session> {
        let mut sess = Session::new(open_dbms(tr)?);
        let seed = self.seed;
        match self.workload {
            Workload::AdhocCold => {
                front_end_schemas(&mut sess, tr, seed, ADHOC_PART_ROWS)?;
                ddl(&mut sess, tr, gen::PRODUCT_DDL)?;
                ddl(&mut sess, tr, gen::FILM_DDL)?;
                sess.dbms.add_constraint_source(gen::PRODUCT_CONSTRAINT)?;
                load_graph(&mut sess, tr, seed, ADHOC_NODES, 15)?;
                load(
                    &mut sess,
                    tr,
                    "PRODUCT",
                    gen::product_rows(&mut Rng::new(seed, "PRODUCT"), PRODUCT_ROWS),
                )?;
                load_films(&mut sess, tr, seed)?;
            }
            Workload::PreparedHot => {
                front_end_schemas(&mut sess, tr, seed, HOT_PART_ROWS)?;
                ddl(&mut sess, tr, gen::SCAN_DDL)?;
                load(
                    &mut sess,
                    tr,
                    "SCAN",
                    gen::scan_rows(&mut Rng::new(seed, "SCAN"), HOT_SCAN_ROWS),
                )?;
                load_graph(&mut sess, tr, seed, HOT_NODES, 5)?;
                for kind in HOT_KINDS {
                    prepare(&mut sess, tr, hot_sql(kind))?;
                }
            }
            Workload::AnalyticExec => {
                sess.dbms.set_opt_level(OptLevel::Full);
                ddl(&mut sess, tr, gen::SCAN_DDL)?;
                ddl(&mut sess, tr, gen::DIM_DDL)?;
                ddl(&mut sess, tr, gen::FILM_DDL)?;
                ddl(&mut sess, tr, gen::GRAPH_DDL)?;
                ddl(&mut sess, tr, gen::JOIN3_DDL)?;
                ddl(&mut sess, tr, gen::PUSHDOWN_DDL)?;
                for (v, constant) in self.fsel.iter().enumerate() {
                    let view = format!(
                        "CREATE VIEW FSEL{v} (K) AS SELECT K FROM BIGF WHERE V = {constant} ;"
                    );
                    ddl(&mut sess, tr, &view)?;
                }
                load(
                    &mut sess,
                    tr,
                    "SCAN",
                    gen::scan_rows(&mut Rng::new(seed, "SCAN"), ANALYTIC_SCAN_ROWS),
                )?;
                load(&mut sess, tr, "DIM", gen::dim_rows())?;
                load_films(&mut sess, tr, seed)?;
                load_graph(&mut sess, tr, seed, ANALYTIC_NODES, 8)?;
                let [r, s, t] = gen::join3_rows(&mut Rng::new(seed, "join3"), 400, 80, 40);
                load(&mut sess, tr, "R", r)?;
                load(&mut sess, tr, "S", s)?;
                load(&mut sess, tr, "TJ", t)?;
                let [u0, u1, big] = gen::pushdown_rows(&mut Rng::new(seed, "push"), 50, 20_000);
                load(&mut sess, tr, "U0", u0)?;
                load(&mut sess, tr, "U1", u1)?;
                load(&mut sess, tr, "BIGF", big)?;
            }
            // Each round opens its own session; there is nothing to share.
            Workload::SessionMix => {}
        }
        Ok(sess)
    }

    /// Operations per round (the same every round).
    pub fn ops_per_round(&self) -> usize {
        match self.workload {
            Workload::AdhocCold => ADHOC_MIX.iter().sum(),
            Workload::PreparedHot => HOT_MIX.iter().sum(),
            Workload::AnalyticExec => self.pool.iter().map(|(kind, _)| visits(kind)).sum(),
            Workload::SessionMix => 4 + MIX_PREPARED.len() + MIX.iter().map(|m| m.1).sum::<usize>(),
        }
    }

    /// Number of slots [`Op::check`] can name.
    pub fn check_slots(&self) -> usize {
        match self.workload {
            Workload::PreparedHot => HOT_KINDS.len() * BIND_ARRAYS,
            Workload::AnalyticExec => self.pool.len(),
            _ => 0,
        }
    }

    /// Rounds that visit every checked slot at least once: what the
    /// verification pass must run.
    pub fn rounds_to_cover(&self) -> u64 {
        match self.workload {
            // The rarest statement runs 3 times a round.
            Workload::PreparedHot => {
                (BIND_ARRAYS as u64).div_ceil(*HOT_MIX.iter().min().expect("mix") as u64)
            }
            Workload::AnalyticExec => 1,
            Workload::AdhocCold => 2,
            Workload::SessionMix => 2,
        }
    }

    /// The operations of round `r`: a pure function of the seed and `r`.
    pub fn round(&self, r: u64) -> Vec<Op> {
        let mut rng = Rng::new(self.seed, &format!("{}/round/{r}", self.workload.name()));
        match self.workload {
            Workload::AdhocCold => {
                let mut ops = Vec::with_capacity(self.ops_per_round());
                for (kind, per_round) in KINDS.into_iter().zip(ADHOC_MIX) {
                    for _ in 0..per_round {
                        // Unique in the run: no round repeats an `(r, i)`.
                        let i = ops.len() as u64;
                        let nonce = gen::NONCE_BASE + r * self.ops_per_round() as u64 + i;
                        ops.push(query(kind, adhoc_sql(kind, nonce, &mut rng)));
                    }
                }
                rng.shuffle(&mut ops);
                ops
            }
            Workload::PreparedHot => {
                let mut ops = Vec::with_capacity(self.ops_per_round());
                for (stmt, per_round) in HOT_MIX.into_iter().enumerate() {
                    for j in 0..per_round {
                        let slot = (r as usize * per_round + j) % BIND_ARRAYS;
                        ops.push(Op {
                            kind: HOT_KINDS[stmt],
                            action: Action::Exec {
                                stmt,
                                binds: self.binds[stmt][slot].clone(),
                            },
                            check: Some(stmt * BIND_ARRAYS + slot),
                        });
                    }
                }
                rng.shuffle(&mut ops);
                ops
            }
            Workload::AnalyticExec => {
                let mut ops: Vec<Op> = self
                    .pool
                    .iter()
                    .enumerate()
                    .flat_map(|(i, (kind, sql))| {
                        let op = Op {
                            check: Some(i),
                            ..query(kind, sql.clone())
                        };
                        std::iter::repeat_n(op, visits(kind))
                    })
                    .collect();
                rng.shuffle(&mut ops);
                ops
            }
            Workload::SessionMix => self.session_script(r, &mut rng),
        }
    }

    /// One whole client session: open, schema, load, prepare, then the
    /// seeded mix of reads and writes.
    fn session_script(&self, r: u64, rng: &mut Rng) -> Vec<Op> {
        let op = |kind, action| Op {
            kind,
            action,
            check: None,
        };
        let mut ops = vec![
            op("open", Action::Open),
            op("ddl", Action::Ddl(mix_ddl())),
            op(
                "load",
                Action::Load {
                    table: "ACCT",
                    rows: acct_rows(rng, 0, ACCT_ROWS),
                },
            ),
            op(
                "load",
                Action::Load {
                    table: "ARCH",
                    rows: acct_rows(rng, ACCT_ROWS, ARCH_ROWS),
                },
            ),
        ];
        for sql in MIX_PREPARED {
            ops.push(op("prepare", Action::Prepare(sql.to_owned())));
        }
        let mut body = Vec::new();
        for (kind, n) in MIX {
            for j in 0..n {
                let action = match kind {
                    "pool_query" => Action::Query(self.pool[zipf(rng, POOL_TEXTS)].1.clone()),
                    "prepared_exec" => {
                        let stmt = rng.below(MIX_PREPARED.len() as u64) as usize;
                        let binds = match stmt {
                            0 => ints(&[rng.range(0, ACCT_ROWS)]),
                            1 => ints(&[rng.range(0, 97), rng.range(100, ACCT_ROWS)]),
                            2 => ints(&[rng.range(80, 97), rng.range(2, 13)]),
                            _ => ints(&[rng.range(0, 13), rng.range(100, ACCT_ROWS)]),
                        };
                        Action::Exec { stmt, binds }
                    }
                    "insert" => Action::Insert(format!(
                        "INSERT INTO ACCT VALUES ({}, {}, {}, '{}') ;",
                        ACCT_ROWS + ARCH_ROWS + j as i64,
                        rng.range(0, 97),
                        rng.range(0, 13),
                        ["A", "B", "C"][rng.below(3) as usize]
                    )),
                    // The round number makes the text new to the process
                    // as well as to the session.
                    "fresh_query" => Action::Query(format!(
                        "SELECT K FROM S4 WHERE A = {} AND K < {} ;",
                        rng.range(0, 97),
                        gen::NONCE_BASE + r * 100 + j as u64
                    )),
                    "create_view" => Action::Ddl(format!(
                        "CREATE VIEW X{j} (K, A) AS SELECT K, A FROM S4 WHERE B = {} ;",
                        rng.range(0, 13)
                    )),
                    // Numbered after the shuffle: batch `n` names the
                    // rules of batches `0..n`.
                    "add_rule" => Action::AddRule(String::new()),
                    "add_constraint" => Action::AddConstraint(format!(
                        "GradeDomain{j} : F(x) / ISA(x, Grade) --> \
                         F(x) AND MEMBER(x, {{'A', 'B', 'C'}}) / ;"
                    )),
                    other => unreachable!("no generator for {other}"),
                };
                body.push(op(kind, action));
            }
        }
        rng.shuffle(&mut body);
        let batches = body.iter_mut().filter(|op| op.kind == "add_rule");
        for (n, op) in batches.enumerate() {
            op.action = Action::AddRule(user_rules(n));
        }
        ops.extend(body);
        ops
    }

    /// Queries for the side passes (parallelism 1 against 2, row against
    /// columnar): the workload's scans of more than one morsel.
    pub fn side_queries(&self) -> Vec<String> {
        match self.workload {
            Workload::AdhocCold => vec![
                "SELECT K FROM V8 WHERE B = 3 ;".to_owned(),
                "SELECT K FROM BASE WHERE A > 50 AND B < 7 ;".to_owned(),
            ],
            Workload::PreparedHot => vec![
                "SELECT K FROM SCAN WHERE A > 800 AND B < 300 ;".to_owned(),
                "SELECT K FROM SCAN WHERE Tag = 'hot' ;".to_owned(),
            ],
            Workload::AnalyticExec => self
                .pool
                .iter()
                .filter(|(kind, _)| kind.starts_with("scan_"))
                .map(|(_, sql)| sql.clone())
                .collect(),
            Workload::SessionMix => Vec::new(),
        }
    }
}

/// Visits a round of `analytic_exec` pays each pool statement of `kind`.
fn visits(kind: &str) -> usize {
    ANALYTIC_VISITS
        .iter()
        .find(|v| v.0 == kind)
        .map_or(1, |v| v.1)
}

/// Zipf(1) rank in `0..n`: rank `k` with weight `1/(k+1)`.
fn zipf(rng: &mut Rng, n: usize) -> usize {
    let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
    let mut x = rng.unit() * total;
    for k in 0..n {
        x -= 1.0 / (k + 1) as f64;
        if x < 0.0 {
            return k;
        }
    }
    n - 1
}

/// The text of one `adhoc_cold` statement. `nonce` makes it unique in
/// the run; the other literals are drawn from the data's domain so the
/// statement does typical work.
fn adhoc_sql(kind: &str, nonce: u64, rng: &mut Rng) -> String {
    match kind {
        "stack8_point" => format!(
            "SELECT K FROM V8 WHERE K = {} AND B < {nonce} ;",
            rng.range(0, STACK_ROWS)
        ),
        "stack16_point" => format!(
            "SELECT K FROM V16 WHERE K = {} AND B < {nonce} ;",
            rng.range(0, STACK_ROWS)
        ),
        "union_filter" => format!(
            "SELECT K FROM ALLPARTS WHERE P = {} AND K < {nonce} ;",
            rng.range(0, 8)
        ),
        "wide_pred" => gen::wide_sql(&nonce.to_string(), &rng.range(0, 101).to_string()),
        "tc_bound" => format!(
            "SELECT Dst FROM TC WHERE Src = {} AND Dst < {nonce} ;",
            rng.range(0, ADHOC_NODES)
        ),
        "semantic_clash" => format!(
            "SELECT Id FROM PRODUCT WHERE Price = Weight AND Price > {nonce} AND Weight < {} ;",
            rng.range(3, 10)
        ),
        "film_salary" => format!(
            "SELECT Numf FROM APPEARS_IN WHERE Salary(Refactor) > {} AND Numf < {nonce} ;",
            10_000 + rng.range(0, 30) * 1_000
        ),
        other => unreachable!("no generator for {other}"),
    }
}

fn mix_ddl() -> String {
    let mut ddl = String::from("TYPE Grade ENUMERATION OF ('A', 'B', 'C') ;\n");
    ddl.push_str("TABLE ACCT (K : INT, A : INT, B : INT, Grade : Grade);\n");
    ddl.push_str("TABLE ARCH (K : INT, A : INT, B : INT, Grade : Grade);\n");
    let mut prev = "ACCT".to_owned();
    for d in 1..=4 {
        ddl.push_str(&format!(
            "CREATE VIEW S{d} (K, A, B) AS SELECT K, A, B FROM {prev} WHERE A >= {d} ;\n"
        ));
        prev = format!("S{d}");
    }
    ddl.push_str(
        "CREATE VIEW ALLACCT (K, A, B) AS \
         ( SELECT K, A, B FROM ACCT UNION SELECT K, A, B FROM ARCH ) ;\n",
    );
    ddl
}

fn acct_rows(rng: &mut Rng, first_key: i64, rows: i64) -> Vec<eds_engine::Row> {
    (first_key..first_key + rows)
        .map(|k| {
            vec![
                Value::Int(k),
                Value::Int(rng.range(0, 97)),
                Value::Int(rng.range(0, 13)),
                Value::str(["A", "B", "C"][rng.below(3) as usize]),
            ]
        })
        .collect()
}

/// The `j`-th user batch of a session: one new unfolding rule, the
/// `user` block redefined to hold every rule so far, and the sequence
/// with that block in front.
fn user_rules(j: usize) -> String {
    let names: Vec<String> = (0..=j).map(|i| format!("UnfoldBand{i}")).collect();
    format!(
        "UnfoldBand{j} : INBAND{j}(x) / --> x >= {lo} AND x <= {hi} / ;\n\
         block(user, {{{rules}}}, 64) ;\n\
         seq((user, normalize, merging, fixpoint, merging, permutation,\n\
              merging, semantic, simplify, normalize), 2) ;\n",
        lo = j * 10,
        hi = j * 10 + 50,
        rules = names.join(", ")
    )
}

// ---- set-up helpers: one span per call into a layer -------------------

fn ddl(sess: &mut Session, tr: &mut Tracer, src: &str) -> CoreResult<()> {
    let s = tr.enter("engine.ddl");
    let out = sess.dbms.execute_ddl(src);
    tr.exit(s);
    out.map(|_| ())
}

fn load(
    sess: &mut Session,
    tr: &mut Tracer,
    table: &str,
    rows: Vec<eds_engine::Row>,
) -> CoreResult<()> {
    let n = rows.len() as u64;
    let s = tr.enter("engine.load");
    let out = sess.dbms.insert_all(table, rows);
    tr.exit_units(s, n);
    out
}

fn prepare(sess: &mut Session, tr: &mut Tracer, sql: String) -> CoreResult<()> {
    let op = Op {
        kind: SETUP,
        action: Action::Prepare(sql),
        check: None,
    };
    let s = tr.enter("core.prepare_stmt");
    let out = sess.facade(&op).0;
    tr.exit(s);
    out.map(|_| ())
}

/// What `adhoc_cold` and `prepared_hot` share: the 16-view stack, the
/// 8-branch union view, the wide-predicate table and the graph's schema.
fn front_end_schemas(
    sess: &mut Session,
    tr: &mut Tracer,
    seed: u64,
    part_rows: i64,
) -> CoreResult<()> {
    ddl(sess, tr, &gen::stack_ddl("BASE", "V", 16))?;
    ddl(sess, tr, &gen::union_ddl(8))?;
    ddl(sess, tr, gen::WIDE_DDL)?;
    ddl(sess, tr, gen::GRAPH_DDL)?;
    let base = gen::stack_rows(&mut Rng::new(seed, "BASE"), STACK_ROWS);
    load(sess, tr, "BASE", base)?;
    for b in 0..8 {
        load(sess, tr, &format!("PART{b}"), gen::part_rows(b, part_rows))?;
    }
    let wide = gen::wide_rows(&mut Rng::new(seed, "T"), WIDE_ROWS);
    load(sess, tr, "T", wide)
}

fn load_graph(
    sess: &mut Session,
    tr: &mut Tracer,
    seed: u64,
    nodes: i64,
    extra: i64,
) -> CoreResult<()> {
    let rows = gen::edge_rows(&mut Rng::new(seed, "EDGE"), nodes, extra);
    load(sess, tr, "EDGE", rows)
}

fn load_films(sess: &mut Session, tr: &mut Tracer, seed: u64) -> CoreResult<()> {
    let mut rng = Rng::new(seed, "FILM");
    let values: Vec<Value> = (0..ACTORS).map(|i| gen::actor_value(&mut rng, i)).collect();
    let s = tr.enter("adt.object_create");
    let refs: Vec<Value> = values
        .into_iter()
        .map(|v| sess.dbms.create_object("Actor", v))
        .collect();
    tr.exit_units(s, ACTORS as u64);
    load(sess, tr, "FILM", gen::film_rows(&mut rng, FILMS))?;
    load(
        sess,
        tr,
        "APPEARS_IN",
        gen::appears_rows(&mut rng, FILMS, &refs),
    )
}
