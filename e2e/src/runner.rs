//! The run protocol for one workload in one process: timed set-ups →
//! untimed verification against the reference interpreter → measured run
//! with tracing off → (with `--trace 1`) two traced passes on fresh
//! sessions, the determinism self-check and the side passes.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use eds_core::ExploreStats;
use eds_engine::{eval_with, parallel_stats, EvalOptions, Relation};

use crate::json::Json;
use crate::metrics::{self, kind_metric, median, median_u64, percentile};
use crate::session::{Action, Op, Session};
use crate::trace::{c, Counts, Span, Tracer, COUNT_NAMES};
use crate::workloads::{Plan, Workload, KINDS, SETUP};

/// Set-ups timed for `setup_s`, in each of three batches (before, in the
/// middle of and after the measured run): at least this many ...
const SETUP_REPEATS: usize = 5;
/// ... and more while they are cheap, until this many or this long.
const SETUP_MAX_REPEATS: usize = 25;
const SETUP_MIN_SECONDS: f64 = 1.0;
/// Operations the quiet rounds hold: `lat_p99_us` then has 15 samples
/// beyond it. A measured run with fewer in all is invalid.
const QUIET_MIN_SAMPLES: usize = 1_500;
/// Fewest quiet rounds, however many operations a round has.
const QUIET_MIN_ROUNDS: usize = 5;
/// Rounds in each traced pass, smoke mode included: per-round ratios of
/// staged to facade time scatter on a busy host, and the validity gate on
/// `trace.stage_sum_over_e2e` reads the median of two passes' worth.
const TRACE_ROUNDS: u64 = 10;
/// Repetitions of each side-pass query per setting.
const SIDE_REPS: usize = 7;
/// Round number of the warm-up round: far from every measured round, so
/// its unique literals are never seen again.
const WARMUP_ROUND: u64 = 1 << 40;

/// Stage → (calls, total µs) over the steady traced rounds.
pub type Budget = Vec<(String, u64, f64)>;

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Fixed small round counts instead of a timed run.
    pub smoke: bool,
}

/// What one run reports. `metrics` holds the end-to-end metrics with
/// tracing off and the per-layer metrics with tracing on.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Why `correct` is false, or run-invalidating findings.
    pub problems: Vec<String>,
    /// Per-workload facts for `e2e.json`.
    pub facts: Json,
    /// Stage → (calls, total µs) of the traced passes: the budget table.
    pub budget: Budget,
    pub samples: usize,
    /// `(phase, seconds)` of this run: set-ups, verification, measured
    /// run, traced passes.
    pub phases: Vec<(&'static str, f64)>,
    /// The first traced pass, for the trace file.
    pub trace: Option<Tracer>,
}

struct Built {
    sess: Session,
    setup: Duration,
    warmup: Duration,
}

/// One full set-up, untraced: schema, data, prepared statements and the
/// warm-up round that lets columnar mirrors, statistics and caches come
/// into being. A failure here is a broken benchmark, not a failed
/// operation.
fn build(plan: &Plan) -> Result<Built, String> {
    let t = Instant::now();
    let mut sess = plan
        .setup(&mut Tracer::new(false))
        .map_err(|e| format!("set-up failed: {e}"))?;
    let warm = Instant::now();
    for op in plan.round(WARMUP_ROUND) {
        if let Err(e) = sess.facade(&op).0 {
            return Err(format!("warm-up {} failed: {e}", op.kind));
        }
    }
    Ok(Built {
        sess,
        setup: t.elapsed(),
        warmup: warm.elapsed(),
    })
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 10 {
            self.problems.push(what);
        }
    }
}

fn describe(op: &Op) -> String {
    match &op.action {
        Action::Query(sql) => format!("{} `{sql}`", op.kind),
        Action::Exec { stmt, binds } => format!("{} stmt {stmt} binds {binds:?}", op.kind),
        _ => op.kind.to_owned(),
    }
}

/// Untimed: run the first rounds through the facade and compare every
/// query, as a bag, with the reference interpreter's answer on the
/// unrewritten plan, computed on a twin session that follows the same
/// script. Fills `expected` with the verified row count of each slot.
fn verify(
    plan: &Plan,
    sess: &mut Session,
    rounds: u64,
    expected: &mut [Option<usize>],
    tally: &mut Tally,
) -> Result<(), String> {
    let mut twin = plan
        .setup(&mut Tracer::new(false))
        .map_err(|e| format!("twin set-up failed: {e}"))?;
    for r in 0..rounds {
        for op in plan.round(r) {
            if op.check.is_some_and(|slot| expected[slot].is_some()) {
                continue;
            }
            tally.attempted += 1;
            let got = sess.facade(&op).0;
            let want = twin
                .reference(&op)
                .map_err(|e| format!("reference failed on {}: {e}", describe(&op)))?;
            match (got, want) {
                (Err(e), _) => tally.fail(format!("{}: {e}", describe(&op))),
                (Ok(Some(got)), Some(want)) => {
                    if !got.bag_eq(&want) {
                        tally.fail(format!(
                            "{}: {} rows, the reference has {}",
                            describe(&op),
                            got.len(),
                            want.len()
                        ));
                    } else if let Some(slot) = op.check {
                        expected[slot] = Some(want.len());
                    }
                }
                (Ok(None), None) => {}
                (Ok(_), _) => tally.fail(format!("{}: result kinds differ", describe(&op))),
            }
        }
    }
    Ok(())
}

#[derive(Default)]
struct Measured {
    /// Rounds run.
    rounds: usize,
    /// The latency log: wall time of each logged round, and kind (index
    /// into [`KINDS`]) and latency in ns of its operations, round after
    /// round. With `log_all` every round stays logged. Without — in the
    /// runs that report `peak_rss_mib` — all but the quiet rounds so far
    /// are forgotten as the run goes, so the log is a few KiB at any speed
    /// and the process's peak is the program's, not the harness's.
    log_all: bool,
    round_ns: Vec<u64>,
    kinds: Vec<u8>,
    ns: Vec<u32>,
}

impl Measured {
    /// How many rounds are quiet: the fewest that together hold
    /// [`QUIET_MIN_SAMPLES`] operations, and no fewer than
    /// [`QUIET_MIN_ROUNDS`].
    fn quiet_count(&self) -> usize {
        QUIET_MIN_SAMPLES
            .div_ceil(self.ops_per_round())
            .max(QUIET_MIN_ROUNDS)
    }

    /// The quiet rounds, as indices into the log: the fastest
    /// [`Self::quiet_count`] of the run.
    ///
    /// Every round does the same work, so a slower round is a disturbed
    /// one. The host is a shared 2-core VM whose speed moves between
    /// regimes up to 1.7x apart, some lasting milliseconds and some
    /// minutes (README, "Host noise"): statistics over all rounds follow
    /// whichever regimes a run happens to meet, and the smaller the
    /// share of fastest rounds, the steadier the reading. The end-to-end
    /// timing metrics are taken over these rounds; the same statistics
    /// over all rounds are per-layer metrics.
    fn quiet_rounds(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.round_ns.len()).collect();
        order.sort_by_key(|r| self.round_ns[*r]);
        order.truncate(self.quiet_count());
        order
    }

    /// Close the round whose operations were just logged.
    fn end_round(&mut self, round_ns: u64) {
        self.rounds += 1;
        self.round_ns.push(round_ns);
        if self.log_all || self.round_ns.len() < 2 * self.quiet_count() {
            return;
        }
        let per_round = self.ops_per_round();
        let mut kept = Measured {
            rounds: self.rounds,
            ..Measured::default()
        };
        for r in self.quiet_rounds() {
            let ops = r * per_round..(r + 1) * per_round;
            kept.round_ns.push(self.round_ns[r]);
            kept.kinds.extend_from_slice(&self.kinds[ops.clone()]);
            kept.ns.extend_from_slice(&self.ns[ops]);
        }
        *self = kept;
    }

    fn ops_per_round(&self) -> usize {
        self.ns.len() / self.round_ns.len().max(1)
    }

    /// `(kind, latency ns)` of the operations of `rounds`.
    fn samples(&self, rounds: &[usize]) -> Vec<(&'static str, u64)> {
        let per_round = self.ops_per_round();
        rounds
            .iter()
            .flat_map(|r| r * per_round..(r + 1) * per_round)
            .map(|i| (KINDS[self.kinds[i] as usize], u64::from(self.ns[i])))
            .collect()
    }

    /// Median wall time of the rounds `rounds`.
    fn median_round_ns(&self, rounds: &[usize]) -> f64 {
        median_u64(&rounds.iter().map(|r| self.round_ns[*r]).collect::<Vec<_>>())
    }

    /// `[throughput_qps, lat_p50_us, lat_p99_us]` over `rounds`:
    /// operations per round over the median round time, and percentiles
    /// of the latencies of all their operations.
    fn timing(&self, rounds: &[usize]) -> [f64; 3] {
        let mut ns: Vec<u64> = self.samples(rounds).iter().map(|s| s.1).collect();
        ns.sort_unstable();
        [
            self.ops_per_round() as f64 / (self.median_round_ns(rounds) / 1e9),
            percentile(&ns, 0.50) as f64 / 1e3,
            percentile(&ns, 0.99) as f64 / 1e3,
        ]
    }
}

/// One stretch of the measured run: whole rounds from `first_round` on,
/// tracing off, until `seconds` have passed (three rounds in smoke
/// mode), appended to `m`.
fn measure(
    plan: &Plan,
    sess: &mut Session,
    first_round: u64,
    (seconds, smoke): (f64, bool),
    expected: &[Option<usize>],
    m: &mut Measured,
    tally: &mut Tally,
) {
    let kind_index = |kind: &str| {
        KINDS
            .iter()
            .position(|k| *k == kind)
            .expect("a listed kind") as u8
    };
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut r = first_round;
    loop {
        let ops = plan.round(r);
        let kinds: Vec<u8> = ops.iter().map(|op| kind_index(op.kind)).collect();
        let t = Instant::now();
        for (op, kind) in ops.iter().zip(kinds) {
            let (out, d) = sess.facade(op);
            m.kinds.push(kind);
            // Saturates at 4.29 s; no operation here takes a tenth of that.
            m.ns.push(u32::try_from(d.as_nanos()).unwrap_or(u32::MAX));
            tally.attempted += 1;
            match out {
                Err(e) => tally.fail(format!("{}: {e}", describe(op))),
                Ok(rel) => {
                    let rows = rel.as_ref().map(Relation::len);
                    // A slot the (smoke-shortened) verification pass did
                    // not reach has no verified count to hold against.
                    let verified = op.check.and_then(|slot| expected[slot]);
                    if let (Some(want), Some(rows)) = (verified, rows) {
                        if want != rows {
                            tally.fail(format!("{}: {rows} rows, verified {want}", describe(op)));
                        }
                    }
                    black_box(rel);
                }
            }
        }
        m.end_round(t.elapsed().as_nanos() as u64);
        r += 1;
        let rounds = r - first_round;
        if rounds >= 3 && (smoke || start.elapsed() >= budget) {
            return;
        }
    }
}

struct TracedPass {
    tr: Tracer,
    /// Operations numbered from here up belong to the steady rounds;
    /// lower numbers are the set-up and the warm-up round.
    steady_op: u32,
    /// Per round, in ns: the staged path's stage spans, its root spans,
    /// and the facade's time for the same operations on the twin session.
    round_sums: Vec<[u64; 3]>,
    /// Facade time minus the staged path's stage spans, for every
    /// prepared execution.
    prepared_overhead_ns: Vec<f64>,
    explore: ExploreStats,
    sess: Session,
}

/// One traced pass. A fresh session runs set-up, the warm-up round and
/// the rounds through the staged path; a fresh twin session runs the
/// same script through the facade, untraced, operation by operation. Rows
/// must be identical, and the twin's times are what the staged sum is
/// held against: same operations, same cache history, and — the two
/// run each operation back to back — the same moment of a noisy host.
fn traced_pass(plan: &Plan, rounds: u64, tally: &mut Tally) -> Result<TracedPass, String> {
    let mut tr = Tracer::new(true);
    let root = tr.begin_op(SETUP);
    let mut sess = plan
        .setup(&mut tr)
        .map_err(|e| format!("set-up failed: {e}"))?;
    tr.end_op(root, Counts::default());
    for op in plan.round(WARMUP_ROUND) {
        sess.staged(&op, &mut tr)
            .map_err(|e| format!("staged warm-up {} failed: {e}", op.kind))?;
    }
    let steady_op = tr.ops() + 1;
    let mut twin = build(plan)?.sess;
    let mut round_sums = Vec::new();
    let mut prepared_overhead_ns = Vec::new();

    for r in 0..rounds {
        let (mut stage, mut root, mut facade_ns) = (0u64, 0u64, 0u64);
        for (i, op) in plan.round(r).iter().enumerate() {
            tally.attempted += 1;
            let first_span = tr.spans.len();
            // Whichever of the two runs second finds the processor's
            // caches warmed by the first; they take turns going first.
            let (out, (facade, d)) = if i % 2 == 0 {
                let out = sess.staged(op, &mut tr);
                (out, twin.facade(op))
            } else {
                let facade = twin.facade(op);
                (sess.staged(op, &mut tr), facade)
            };
            let spans = &tr.spans[first_span..];
            let (root_id, root_ns) = spans.first().map_or((0, 0), |s| (s.id, s.dur_ns()));
            let stage_ns: u64 = spans
                .iter()
                .filter(|s| s.parent == root_id)
                .map(Span::dur_ns)
                .sum();
            let d = d.as_nanos() as u64;
            stage += stage_ns;
            root += root_ns;
            facade_ns += d;
            if matches!(op.action, Action::Exec { .. }) {
                prepared_overhead_ns.push(d as f64 - stage_ns as f64);
            }
            match (out, facade) {
                (Ok(Some(a)), Ok(Some(b))) => {
                    if a.rows != b.rows {
                        tally.fail(format!("{}: staged and facade rows differ", describe(op)));
                    }
                }
                (Ok(None), Ok(None)) => {}
                (Err(e), _) | (_, Err(e)) => tally.fail(format!("{}: {e}", describe(op))),
                _ => tally.fail(format!("{}: result kinds differ", describe(op))),
            }
        }
        round_sums.push([stage, root, facade_ns]);
    }
    Ok(TracedPass {
        explore: sess.dbms.rewriter.explore_stats(),
        tr,
        steady_op,
        round_sums,
        prepared_overhead_ns,
        sess,
    })
}

/// The determinism self-check: every count of the two traced passes,
/// over the whole traced session, must agree. Returns the name of the
/// first that does not.
fn first_count_mismatch(a: &TracedPass, b: &TracedPass) -> Option<String> {
    let (ca, cb) = (a.tr.counts_from(0), b.tr.counts_from(0));
    for (i, name) in COUNT_NAMES.iter().enumerate() {
        if ca.0[i] != cb.0[i] {
            return Some(format!("{name}: {} then {}", ca.0[i], cb.0[i]));
        }
    }
    (a.explore != b.explore)
        .then(|| format!("core.explore_*: {:?} then {:?}", a.explore, b.explore))
}

struct Side {
    p2_speedup: f64,
    row_over_columnar: f64,
    morsels: u64,
    parallel_runs: u64,
}

/// Side passes on the rewritten plans of the workload's scans: the same
/// evaluation at parallelism 1 and 2, and with columnar off and on.
/// Settings alternate within each repetition; medians are compared.
fn side_passes(plan: &Plan, sess: &Session, tally: &mut Tally) -> Result<Option<Side>, String> {
    let queries = plan.side_queries();
    if queries.is_empty() {
        return Ok(None);
    }
    let base = sess.dbms.eval_options;
    let settings = [
        base,
        EvalOptions {
            parallelism: 2,
            ..base
        },
        EvalOptions {
            columnar: false,
            ..base
        },
    ];
    let mut totals = [0.0f64; 3];
    let before = parallel_stats();
    for sql in &queries {
        let canonical = sess
            .dbms
            .prepare(sql)
            .map_err(|e| format!("side pass: {e}"))?;
        let plan = sess
            .dbms
            .rewrite(&canonical)
            .map_err(|e| format!("side pass: {e}"))?
            .expr;
        let mut times: [Vec<f64>; 3] = Default::default();
        let mut first: Option<Relation> = None;
        for _ in 0..SIDE_REPS {
            for (i, opts) in settings.iter().enumerate() {
                let t = Instant::now();
                let out = eval_with(&plan, &sess.dbms.db, *opts);
                times[i].push(t.elapsed().as_nanos() as f64);
                tally.attempted += 1;
                match (out, &first) {
                    (Err(e), _) => tally.fail(format!("side pass `{sql}`: {e}")),
                    (Ok((rel, _)), None) => first = Some(rel),
                    (Ok((rel, _)), Some(f)) => {
                        if rel.rows != f.rows {
                            tally.fail(format!("side pass `{sql}`: setting {i} changes the rows"));
                        }
                    }
                }
            }
        }
        for (total, t) in totals.iter_mut().zip(&times) {
            *total += median(t);
        }
    }
    let after = parallel_stats();
    Ok(Some(Side {
        p2_speedup: totals[0] / totals[1],
        row_over_columnar: totals[2] / totals[0],
        morsels: after.morsels_dispatched - before.morsels_dispatched,
        parallel_runs: after.parallel_runs - before.parallel_runs,
    }))
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Mean µs per unit of the spans called `name`, over the operations
/// numbered `from_op` up in each pass.
fn per_unit_us(passes: &[&TracedPass], name: &str, steady_only: bool) -> f64 {
    let (mut ns, mut units) = (0u64, 0u64);
    for pass in passes {
        let from_op = if steady_only { pass.steady_op } else { 0 };
        for s in &pass.tr.spans {
            if s.name == name && s.op >= from_op {
                ns += s.dur_ns();
                units += s.units;
            }
        }
    }
    ratio(ns, units) / 1e3
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metrics from the two traced passes and the measured run.
///
/// Scope: metrics of the rule kernel (`rewrite.*`, the `lera` sizes and
/// costs, `core.explore_*`) and of set-up work cover the whole traced
/// session — on `analytic_exec` the kernel runs in the warm-up round
/// only. Every other metric covers the steady rounds. Times pool both
/// passes; counts are the first pass's (the second's are identical).
fn layer_metrics(
    a: &TracedPass,
    b: &TracedPass,
    m: &Measured,
    warmups: &[f64],
    side: Option<&Side>,
) -> (BTreeMap<String, f64>, Budget) {
    let passes = [a, b];
    let quiet = m.quiet_rounds();
    let session = a.tr.counts_from(0).0;
    let steady = a.tr.counts_from(a.steady_op).0;
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_owned(), v);
    };
    for (metric, span, steady_only) in [
        ("esql.parse_us", "esql.parse", true),
        ("lera.translate_us", "lera.translate", true),
        ("lera.to_term_us", "lera.to_term", true),
        ("lera.from_term_us", "lera.from_term", true),
        ("rewrite.kernel_us", "rewrite.kernel", false),
        ("rewrite.kb_load_us", "rewrite.kb_load", false),
        ("rewrite.add_rules_us", "rewrite.add_rules", true),
        ("core.cache_hit_us", "core.cache_hit", true),
        ("core.refresh_after_ddl_us", "core.refresh", true),
        ("engine.eval_us", "engine.eval", true),
        ("engine.insert_us", "engine.insert", true),
        ("engine.ddl_us", "engine.ddl", false),
        ("adt.object_create_us", "adt.object_create", false),
    ] {
        put(metric, per_unit_us(&passes, span, steady_only));
    }
    let load_us_per_row = per_unit_us(&passes, "engine.load", false);
    put(
        "engine.load_rows_per_s",
        if load_us_per_row > 0.0 {
            1e6 / load_us_per_row
        } else {
            0.0
        },
    );
    // A prepare is one facade call in set-up and a staged root elsewhere.
    let prepares: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.tr.spans)
        .filter(|s| s.name == "core.prepare_stmt" || (s.parent == 0 && s.kind == "prepare"))
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    put(
        "core.prepare_stmt_us",
        if prepares.is_empty() {
            0.0
        } else {
            prepares.iter().sum::<f64>() / prepares.len() as f64
        },
    );
    let overheads: Vec<f64> = a
        .prepared_overhead_ns
        .iter()
        .chain(&b.prepared_overhead_ns)
        .map(|ns| ns / 1e3)
        .collect();
    put(
        "core.prepared_overhead_us",
        if overheads.is_empty() {
            0.0
        } else {
            median(&overheads)
        },
    );

    put(
        "esql.stmt_bytes",
        ratio(steady[c::STMT_BYTES], steady[c::PARSES]),
    );
    let runs = session[c::KERNEL_RUNS];
    put("lera.term_size_in", ratio(session[c::TERM_SIZE_IN], runs));
    put("lera.term_size_out", ratio(session[c::TERM_SIZE_OUT], runs));
    put("lera.est_cost_in", ratio(session[c::EST_COST_IN], runs));
    put("lera.est_cost_out", ratio(session[c::EST_COST_OUT], runs));
    put("rewrite.condition_checks", ratio(session[c::CHECKS], runs));
    put(
        "rewrite.applications",
        ratio(session[c::APPLICATIONS], runs),
    );
    put("rewrite.rejected", ratio(session[c::REJECTED], runs));
    put(
        "rewrite.checks_per_application",
        ratio(session[c::CHECKS], session[c::APPLICATIONS]),
    );
    // Time per check over the operations whose kernel run has a span of
    // its own (ad-hoc queries).
    let (mut kernel_ns, mut kernel_checks) = (0u64, 0u64);
    for pass in passes {
        let checks: BTreeMap<u32, u64> = pass
            .tr
            .counts
            .iter()
            .map(|(op, k)| (*op, k.0[c::CHECKS]))
            .collect();
        for s in pass.tr.spans.iter().filter(|s| s.name == "rewrite.kernel") {
            kernel_ns += s.dur_ns();
            kernel_checks += checks.get(&s.op).copied().unwrap_or(0);
        }
    }
    put("rewrite.ns_per_check", ratio(kernel_ns, kernel_checks));
    put("core.term_hits", steady[c::TERM_HITS] as f64);
    put("core.term_misses", steady[c::TERM_MISSES] as f64);
    put("core.shape_hits", steady[c::SHAPE_HITS] as f64);
    put("core.shape_misses", steady[c::SHAPE_MISSES] as f64);
    put("core.evictions", steady[c::EVICTIONS] as f64);
    put("core.invalidations", steady[c::INVALIDATIONS] as f64);
    put(
        "core.hit_ratio",
        ratio(
            steady[c::TERM_HITS],
            steady[c::TERM_HITS] + steady[c::TERM_MISSES],
        ),
    );
    put("core.explore_candidates", a.explore.candidates as f64);
    put("core.explore_checks", a.explore.checks as f64);
    put("core.explore_wins", a.explore.wins as f64);
    put("core.explore_budget_stops", a.explore.budget_stops as f64);
    let evals = steady[c::EVALS];
    put("engine.rows_emitted", ratio(steady[c::ROWS_EMITTED], evals));
    put(
        "engine.combinations_tried",
        ratio(steady[c::COMBINATIONS], evals),
    );
    put(
        "engine.fix_iterations",
        ratio(steady[c::FIX_ITERATIONS], evals),
    );
    put(
        "engine.combinations_per_result_row",
        ratio(steady[c::COMBINATIONS], steady[c::RESULT_ROWS].max(1)),
    );

    // The budget: where the staged time of the steady rounds went.
    let mut stages: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for pass in passes {
        for s in pass.tr.stages().filter(|s| s.op >= pass.steady_op) {
            let e = stages.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
        }
    }
    let stage_sum: u64 = stages.values().map(|e| e.1).sum();
    put(
        "engine.eval_share",
        ratio(stages.get("engine.eval").map_or(0, |e| e.1), stage_sum),
    );
    let budget = stages
        .iter()
        .map(|(name, (calls, ns))| ((*name).to_owned(), *calls, *ns as f64 / 1e3))
        .collect();

    let over_facade = |part: usize| -> f64 {
        let ratios: Vec<f64> = a
            .round_sums
            .iter()
            .chain(&b.round_sums)
            .map(|sums| sums[part] as f64 / sums[2] as f64)
            .collect();
        median(&ratios)
    };
    put("trace.stage_sum_over_e2e", over_facade(0));
    put("trace.overhead_ratio", over_facade(1));
    put(
        "engine.first_touch_us",
        (quiet_median(warmups) - m.median_round_ns(&quiet)) / 1e3,
    );

    put("engine.p2_speedup", side.map_or(0.0, |s| s.p2_speedup));
    put(
        "engine.row_over_columnar",
        side.map_or(0.0, |s| s.row_over_columnar),
    );
    put(
        "engine.morsels_dispatched",
        side.map_or(0.0, |s| s.morsels as f64),
    );
    put(
        "engine.parallel_runs",
        side.map_or(0.0, |s| s.parallel_runs as f64),
    );

    // What the end-to-end timing metrics would read over every round of
    // the measured run, the disturbed ones included, and how far the
    // typical round is from a quiet one: a cost that lands in some rounds
    // only, or grows over the run, shows here and not in the quiet rounds.
    let all: Vec<usize> = (0..m.rounds).collect();
    let [throughput_qps, lat_p50_us, lat_p99_us] = m.timing(&all);
    put("dbms.all_rounds.throughput_qps", throughput_qps);
    put("dbms.all_rounds.lat_p50_us", lat_p50_us);
    put("dbms.all_rounds.lat_p99_us", lat_p99_us);
    put(
        "dbms.median_round_over_quiet_round",
        m.median_round_ns(&all) / m.median_round_ns(&quiet),
    );
    let samples = m.samples(&quiet);
    for kind in KINDS {
        let mut ns: Vec<u64> = samples
            .iter()
            .filter(|s| s.0 == kind)
            .map(|s| s.1)
            .collect();
        ns.sort_unstable();
        let p50 = if ns.is_empty() {
            0.0
        } else {
            percentile(&ns, 0.5) as f64 / 1e3
        };
        put(&kind_metric(kind), p50);
    }
    (out, budget)
}

fn workload_facts(cfg: &Config, sess: &Session, m: &Measured) -> Json {
    let quiet = m.quiet_rounds().len();
    let db = &sess.dbms.db;
    let rows = db
        .catalog
        .table_names()
        .into_iter()
        .map(|t| (t.to_owned(), Json::from(db.cardinality(t).unwrap_or(0))))
        .collect();
    Json::obj([
        ("seed", Json::from(cfg.seed)),
        ("seconds", Json::from(cfg.seconds)),
        ("smoke", Json::from(cfg.smoke)),
        (
            "eval_options",
            Json::from(format!("{:?}", sess.dbms.eval_options)),
        ),
        (
            "plan_cache_cap",
            Json::from(sess.dbms.rewriter.plan_cache_cap()),
        ),
        ("rows_per_table", Json::Obj(rows)),
        ("rounds", Json::from(m.rounds)),
        ("samples", Json::from(m.rounds * m.ops_per_round())),
        ("quiet_rounds", Json::from(quiet)),
        ("quiet_samples", Json::from(quiet * m.ops_per_round())),
        ("client_threads", Json::from(1u64)),
    ])
}

/// Time set-ups one after another — at least [`SETUP_REPEATS`], cheap
/// ones further, up to [`SETUP_MAX_REPEATS`] or [`SETUP_MIN_SECONDS`] —
/// and return the last session. One session is alive at a time: `prev`
/// and each earlier one is dropped before the next is built.
fn setup_batch(
    plan: &Plan,
    smoke: bool,
    mut prev: Option<Session>,
    setups: &mut Vec<f64>,
    warmups: &mut Vec<f64>,
) -> Result<Session, String> {
    let (mut n, mut total) = (0, 0.0);
    loop {
        drop(prev.take());
        let built = build(plan)?;
        setups.push(built.setup.as_secs_f64());
        warmups.push(built.warmup.as_nanos() as f64);
        prev = Some(built.sess);
        n += 1;
        total += built.setup.as_secs_f64();
        let enough = n >= SETUP_MAX_REPEATS || (n >= SETUP_REPEATS && total >= SETUP_MIN_SECONDS);
        if smoke || enough {
            return Ok(prev.expect("just built"));
        }
    }
}

/// Median of the fastest tenth of `values` (at least three): like the
/// quiet rounds, the set-ups and warm-ups the host disturbed least, yet
/// not the single luckiest one.
fn quiet_median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate((v.len() / 10).max(3));
    median(&v)
}

/// A metric `BENCHMARK.json` lists, with the value computed for it.
fn listed(
    metric: &'static metrics::Metric,
    value: Option<f64>,
) -> Result<(String, f64, &'static str), String> {
    let value = value.ok_or_else(|| {
        format!(
            "BENCHMARK.json lists {}, which the harness does not compute",
            metric.name
        )
    })?;
    Ok((metric.name.clone(), value, metric.unit.as_str()))
}

/// Run one workload by the protocol.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let plan = Plan::new(cfg.workload, cfg.seed);
    let mut tally = Tally::default();
    let mut invalid: Vec<String> = Vec::new();

    let mut phases = Vec::new();
    let mut clock = Instant::now();
    let mut lap = |phase: &'static str| {
        phases.push((phase, clock.elapsed().as_secs_f64()));
        clock = Instant::now();
    };

    let mut setups = Vec::new();
    let mut warmups = Vec::new();
    let mut sess = setup_batch(&plan, cfg.smoke, None, &mut setups, &mut warmups)?;
    lap("setups");

    let verify_rounds = if cfg.smoke { 1 } else { plan.rounds_to_cover() };
    let mut expected = vec![None; plan.check_slots()];
    verify(&plan, &mut sess, verify_rounds, &mut expected, &mut tally)?;
    lap("verify");
    // The measured run, in two halves on two sessions, with a batch of
    // set-ups before, between and after: three samples of the host a
    // dozen seconds apart, so `setup_s` rarely sees only a slow spell.
    let mut m = Measured {
        log_all: cfg.trace,
        ..Measured::default()
    };
    let halves = if cfg.smoke { 1 } else { 2 };
    let stretch = (cfg.seconds / f64::from(halves), cfg.smoke);
    for _ in 0..halves {
        let first_round = verify_rounds + m.rounds as u64;
        measure(
            &plan,
            &mut sess,
            first_round,
            stretch,
            &expected,
            &mut m,
            &mut tally,
        );
        lap("measure");
        if cfg.workload == Workload::AdhocCold {
            let hits = sess.dbms.rewriter.plan_cache_stats().hits;
            if hits != 0 {
                invalid.push(format!(
                    "adhoc_cold saw {hits} term-tier hits; every text must be new"
                ));
            }
        }
        if !cfg.smoke {
            sess = setup_batch(&plan, cfg.smoke, Some(sess), &mut setups, &mut warmups)?;
            lap("setups");
        }
    }
    let samples = m.rounds * m.ops_per_round();
    if !cfg.smoke && samples < QUIET_MIN_SAMPLES {
        invalid.push(format!(
            "the measured run holds {samples} operations; lat_p99_us needs {QUIET_MIN_SAMPLES}: \
             raise --seconds"
        ));
    }
    let facts = workload_facts(cfg, &sess, &m);
    let mut out = Outcome {
        correct: false,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        problems: Vec::new(),
        facts,
        budget: Vec::new(),
        samples,
        phases: Vec::new(),
        trace: None,
    };

    if cfg.trace {
        let a = traced_pass(&plan, TRACE_ROUNDS, &mut tally)?;
        let b = traced_pass(&plan, TRACE_ROUNDS, &mut tally)?;
        if let Some(what) = first_count_mismatch(&a, &b) {
            return Err(format!("determinism self-check failed on {what}"));
        }
        let side = side_passes(&plan, &a.sess, &mut tally)?;
        let (values, budget) = layer_metrics(&a, &b, &m, &warmups, side.as_ref());
        let sum = values["trace.stage_sum_over_e2e"];
        if !(0.90..=1.10).contains(&sum) {
            invalid.push(format!(
                "trace.stage_sum_over_e2e = {sum:.3}: the staged path does not account for the \
                 end-to-end time"
            ));
        }
        for metric in &metrics::spec().per_layer {
            out.metrics
                .push(listed(metric, values.get(&metric.name).copied())?);
        }
        out.budget = budget;
        out.trace = Some(a.tr);
        lap("trace");
    } else {
        let [throughput_qps, lat_p50_us, lat_p99_us] = m.timing(&m.quiet_rounds());
        let values = [
            ("throughput_qps", throughput_qps),
            ("lat_p50_us", lat_p50_us),
            ("lat_p99_us", lat_p99_us),
            ("setup_s", quiet_median(&setups)),
            ("peak_rss_mib", peak_rss_mib()?),
        ];
        for metric in &metrics::spec().end_to_end {
            let value = values.iter().find(|v| v.0 == metric.name).map(|v| v.1);
            out.metrics.push(listed(metric, value)?);
        }
    }
    for (name, value, _) in &out.metrics {
        if !value.is_finite() {
            invalid.push(format!("{name} is not a finite number"));
        }
    }
    out.phases = phases;
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out.problems = tally.problems;
    out.problems.extend(invalid);
    out.correct = out.problems.is_empty() && out.failed == 0;
    Ok(out)
}
