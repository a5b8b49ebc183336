//! Control: blocks of rules and sequences of blocks (Section 4.2).
//!
//! `block({rules}, value)` groups rules and bounds the number of condition
//! checks; `seq((blocks), value)` runs blocks in order, a bounded number
//! of passes. "Any optimizer generated with the rule language is a
//! sequence of blocks of rules which can be applied multiple times."
//!
//! The block loop is the paper's loop: offer the term to each member rule
//! in turn, one condition check per offer, until a whole round applies
//! nothing or the limit runs out. Every offer is one full pre-order scan
//! ([`apply_rule_once`], which prunes by functor fingerprint). The only
//! state beside the term is one bit per rule: a rule that scanned the
//! term and failed is not scanned again until some rule fires — the
//! offer is still counted, so a `Limit` buys what it buys under the
//! naive loop.

use std::collections::{HashMap, HashSet};

use crate::engine::{apply_rule_once, RewriteStats};
use crate::error::{RewriteError, RwResult};
use crate::methods::{MethodRegistry, TermEnv};
use crate::rule::Rule;
use crate::term::Term;
use crate::trace::{Trace, TraceEvent};

/// Block application limit: a finite number of condition checks, or
/// saturation ("an infinite limit means application up to saturation").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limit {
    /// At most this many condition checks.
    Finite(u64),
    /// Run until no rule in the block applies.
    Infinite,
}

impl Limit {
    fn budget(self) -> u64 {
        match self {
            Limit::Finite(n) => n,
            Limit::Infinite => u64::MAX,
        }
    }
}

impl std::fmt::Display for Limit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Limit::Finite(n) => write!(f, "{n}"),
            Limit::Infinite => write!(f, "INF"),
        }
    }
}

/// A named block of rules with its application limit.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Block name, referenced by sequences.
    pub name: String,
    /// Names of member rules (the same rule may appear in several blocks).
    pub rules: Vec<String>,
    /// Condition-check budget.
    pub limit: Limit,
}

impl std::fmt::Display for Block {
    /// Renders in the concrete syntax of Figure 6 minus the trailing `;`,
    /// so `format!("{block} ;")` reparses — the autofix engine relies on
    /// this to regenerate block definitions.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "block({}, {{", self.name)?;
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}, {})", self.limit)
    }
}

/// The meta-rule ordering blocks: run `blocks` in sequence, `passes`
/// times.
#[derive(Debug, Clone, PartialEq)]
pub struct Sequence {
    /// Block names, applied in order.
    pub blocks: Vec<String>,
    /// Maximum number of passes over the whole list.
    pub passes: u64,
}

/// An indexed set of rules (the rewriting knowledge base): the rules in
/// insertion order plus a name → position index.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    rules: Vec<Rule>,
    index: HashMap<String, usize>,
}

impl RuleSet {
    /// Empty rule set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a rule. Returns the previously registered rule with the same
    /// name when the call replaced one (`HashMap::insert` style), so
    /// callers can surface silent shadowing instead of swallowing it.
    pub fn add(&mut self, rule: Rule) -> Option<Rule> {
        if let Some(&i) = self.index.get(&rule.name) {
            Some(std::mem::replace(&mut self.rules[i], rule))
        } else {
            self.index.insert(rule.name.clone(), self.rules.len());
            self.rules.push(rule);
            None
        }
    }

    /// Is a rule with this name registered?
    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// Remove a rule by name; the database implementor "can add or delete
    /// rewriting rules". The tail shifts down and is re-indexed: removal
    /// is rare and a knowledge base holds tens of rules.
    pub fn remove(&mut self, name: &str) -> bool {
        let Some(i) = self.index.remove(name) else {
            return false;
        };
        self.rules.remove(i);
        for pos in self.index.values_mut().filter(|pos| **pos > i) {
            *pos -= 1;
        }
        true
    }

    /// Look up a rule.
    pub fn get(&self, name: &str) -> Option<&Rule> {
        self.index.get(name).map(|&i| &self.rules[i])
    }

    /// All rules, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter()
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no rules are present.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// A complete control strategy: block definitions plus the sequence
/// meta-rule. "Changing block definitions or the list of blocks in the
/// sequence meta-rule may completely change the generated optimizer."
#[derive(Debug, Clone, Default)]
pub struct Strategy {
    blocks: Vec<Block>,
    by_name: HashMap<String, usize>,
    /// The sequence meta-rule; defaults to all blocks, one pass.
    pub sequence: Option<Sequence>,
    /// Names of *choice-point* blocks: blocks whose rules are heuristic
    /// (permutation, merging, semantic transformations) rather than pure
    /// normalization, so intermediate states they pass through are worth
    /// keeping as exploration candidates. Only consulted by
    /// [`run_strategy_explore`]; plain [`run_strategy`] ignores it.
    explore: HashSet<String>,
}

impl Strategy {
    /// Empty strategy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Define (or replace) a block.
    pub fn add_block(&mut self, block: Block) {
        if let Some(&i) = self.by_name.get(&block.name) {
            self.blocks[i] = block;
        } else {
            self.by_name.insert(block.name.clone(), self.blocks.len());
            self.blocks.push(block);
        }
    }

    /// Set the sequence meta-rule.
    pub fn set_sequence(&mut self, seq: Sequence) {
        self.sequence = Some(seq);
    }

    /// Look up a block.
    pub fn block(&self, name: &str) -> Option<&Block> {
        self.by_name.get(name).map(|&i| &self.blocks[i])
    }

    /// Override the limit of an existing block — the dynamic-limit knob
    /// discussed in the paper's conclusion ("limits can even be adjusted
    /// during the query rewriting process").
    pub fn set_limit(&mut self, block: &str, limit: Limit) -> RwResult<()> {
        match self.by_name.get(block) {
            Some(&i) => {
                self.blocks[i].limit = limit;
                Ok(())
            }
            None => Err(RewriteError::UnknownBlock(block.to_owned())),
        }
    }

    /// Blocks in definition order.
    pub fn blocks(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }

    /// Declare which blocks are choice points for cost-guided
    /// exploration (replaces any previous set). Unknown names are
    /// harmless — they simply never match a block.
    pub fn set_explore_blocks<I, S>(&mut self, names: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.explore = names.into_iter().map(Into::into).collect();
    }

    /// Is `name` a declared choice-point block?
    pub fn is_explore_block(&self, name: &str) -> bool {
        self.explore.contains(name)
    }

    /// The effective block execution order.
    pub(crate) fn order(&self) -> (Vec<&Block>, u64) {
        match &self.sequence {
            Some(seq) => (
                seq.blocks.iter().filter_map(|n| self.block(n)).collect(),
                seq.passes,
            ),
            None => (self.blocks.iter().collect(), 1),
        }
    }
}

/// Outcome of a strategy run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The rewritten term.
    pub term: Term,
    /// Aggregate counters.
    pub stats: RewriteStats,
    /// Per-application trace (empty unless tracing was requested). Under
    /// exploration the trace describes the *mainline* saturation run;
    /// when a candidate wins, [`RunOutcome::exploration`] records the
    /// divergence.
    pub trace: Trace,
    /// True when some block stopped because its limit ran out rather than
    /// by saturation.
    pub budget_exhausted: bool,
    /// Cost-guided exploration report ([`run_strategy_explore`] only).
    pub exploration: Option<Exploration>,
}

/// What cost-guided exploration did for one statement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exploration {
    /// Plans scored, including the mainline saturation result.
    pub considered: u64,
    /// Estimated cost of the emitted plan.
    pub chosen_cost: f64,
    /// Estimated cost of the best plan *not* emitted, when more than one
    /// was scored.
    pub runner_up_cost: Option<f64>,
    /// True when the emitted plan is not the mainline result.
    pub improved: bool,
}

/// Knobs and scoring callback for [`run_strategy_explore`].
///
/// The score maps a candidate term to an estimated execution cost
/// (`None` when the term cannot be lowered or estimated — such
/// candidates are discarded). The budget generalizes the paper's
/// fixed block limits: exploration stops as soon as the best plan found
/// so far is already cheaper than the estimated price of normalizing
/// one more candidate (`check_cost` × the running per-candidate check
/// average), or when `max_checks`/`k` run out.
pub struct ExploreOptions<'a> {
    /// Maximum candidates to normalize and score (beyond the mainline).
    pub k: usize,
    /// Hard cap on condition checks spent normalizing candidates.
    pub max_checks: u64,
    /// Estimated-cost units one condition check is worth; the exchange
    /// rate between rewrite-time work and execution-time work.
    pub check_cost: f64,
    /// Plan scoring callback.
    pub score: &'a dyn Fn(&Term) -> Option<f64>,
}

/// Per block run, at most this many trajectory snapshots are retained as
/// exploration candidates: the pre-block state plus the most recent
/// states (late snapshots have absorbed the most normalization, so they
/// are the likeliest to differ from the mainline only at the harmful
/// step).
const SNAPSHOT_CAP: usize = 16;

/// Run one block to saturation or budget exhaustion. Each *condition
/// check* (attempt to match one rule against the query) costs one unit of
/// the block's limit, following Section 4.2 — including attempts resolved
/// by the fingerprint pretest or the rule's clean bit without scanning, so
/// a block's `Limit` means exactly what it means under the naive loop.
pub fn apply_block(
    rules: &RuleSet,
    block: &Block,
    methods: &MethodRegistry,
    env: &dyn TermEnv,
    term: Term,
    collect_trace: bool,
) -> RwResult<RunOutcome> {
    apply_block_capture(rules, block, methods, env, term, collect_trace, None)
}

/// [`apply_block`], optionally snapshotting the term before each
/// successful application into `capture` (bounded by [`SNAPSHOT_CAP`]:
/// the pre-block state plus the most recent states). The saturation
/// loop itself is unchanged — the snapshots are the block's visited
/// trajectory, which cost-guided exploration mines for candidates.
fn apply_block_capture(
    rules: &RuleSet,
    block: &Block,
    methods: &MethodRegistry,
    env: &dyn TermEnv,
    mut term: Term,
    collect_trace: bool,
    mut capture: Option<&mut Vec<Term>>,
) -> RwResult<RunOutcome> {
    let mut budget = block.limit.budget();
    let mut stats = RewriteStats::default();
    let mut trace = Trace::default();
    let mut exhausted = false;

    // Blocks may reference rules the implementor has since deleted
    // ("the database implementor can add or delete rewriting rules");
    // missing members are skipped rather than failing the whole block.
    // Sized up front: every block run resolves its members once, and a
    // collected `filter_map` regrows.
    let mut members: Vec<&Rule> = Vec::with_capacity(block.rules.len());
    members.extend(block.rules.iter().filter_map(|name| rules.get(name)));
    // `clean[i]`: rule `i` scanned the term as it stands and failed.
    let mut clean = vec![false; members.len()];

    'outer: loop {
        let mut progressed = false;
        for (i, rule) in members.iter().enumerate() {
            if budget == 0 {
                exhausted = true;
                break 'outer;
            }
            budget -= 1;
            // Either way the offer costs exactly one condition check.
            let outcome = if clean[i] {
                stats.condition_checks += 1;
                None
            } else {
                apply_rule_once(rule, &term, methods, env, &mut stats)?
            };
            match outcome {
                Some((new_term, app)) => {
                    if let Some(snaps) = capture.as_deref_mut() {
                        if snaps.len() >= SNAPSHOT_CAP {
                            // Keep the pre-block state, evict the oldest
                            // intermediate.
                            snaps.remove(1);
                        }
                        snaps.push(term.clone());
                    }
                    if collect_trace {
                        trace.push(TraceEvent {
                            block: block.name.clone(),
                            rule: rule.name.clone(),
                            path: app.path.clone(),
                            before_size: term.size(),
                            after_size: new_term.size(),
                        });
                    }
                    term = new_term;
                    progressed = true;
                    clean.fill(false);
                }
                None => clean[i] = true,
            }
        }
        if !progressed {
            break;
        }
    }

    Ok(RunOutcome {
        term,
        stats,
        trace,
        budget_exhausted: exhausted,
        exploration: None,
    })
}

/// Run a full strategy: the sequence of blocks, `passes` times, stopping
/// early once a whole pass makes no change.
pub fn run_strategy(
    rules: &RuleSet,
    strategy: &Strategy,
    methods: &MethodRegistry,
    env: &dyn TermEnv,
    term: Term,
    collect_trace: bool,
) -> RwResult<RunOutcome> {
    run_mainline(rules, strategy, methods, env, term, collect_trace, None)
}

/// The saturation run both entry points share. With `snapshots` given,
/// the trajectory of every choice-point block is captured into it as
/// `(pass, block index, term)` — the position locates the remaining
/// blocks an exploration candidate still has to be normalized by.
fn run_mainline(
    rules: &RuleSet,
    strategy: &Strategy,
    methods: &MethodRegistry,
    env: &dyn TermEnv,
    mut term: Term,
    collect_trace: bool,
    mut snapshots: Option<&mut Vec<(u64, usize, Term)>>,
) -> RwResult<RunOutcome> {
    let (order, passes) = strategy.order();
    let mut stats = RewriteStats::default();
    let mut trace = Trace::default();
    let mut exhausted = false;

    for pass in 0..passes {
        let before = term.clone();
        for (bi, block) in order.iter().enumerate() {
            let mut taken: Vec<Term> = Vec::new();
            let capture = (snapshots.is_some() && strategy.is_explore_block(&block.name))
                .then_some(&mut taken);
            let outcome =
                apply_block_capture(rules, block, methods, env, term, collect_trace, capture)?;
            term = outcome.term;
            stats.absorb(outcome.stats);
            trace.extend(outcome.trace);
            exhausted |= outcome.budget_exhausted;
            if let Some(snapshots) = snapshots.as_deref_mut() {
                snapshots.extend(taken.into_iter().map(|t| (pass, bi, t)));
            }
        }
        if term == before {
            break;
        }
    }

    Ok(RunOutcome {
        term,
        stats,
        trace,
        budget_exhausted: exhausted,
        exploration: None,
    })
}

/// [`run_strategy`] plus cost-guided candidate exploration.
///
/// The mainline saturation run proceeds exactly as under
/// [`run_strategy`], but at each declared choice-point block (see
/// [`Strategy::set_explore_blocks`]) the trajectory of intermediate
/// terms is snapshotted. Afterwards, each snapshot — a state the
/// saturation passed *through* and would normally discard — is
/// normalized by the remaining non-choice-point blocks of the sequence
/// and scored; the cheapest plan overall is emitted.
///
/// Skipping the choice-point blocks during candidate normalization is
/// what preserves the candidate's distinguishing shape (re-running the
/// merging block would just re-flatten an intentionally kept nested
/// join); it is sound because every rule in the knowledge base is
/// semantics-preserving, so *any* prefix of applications yields an
/// equivalent plan.
///
/// Exploration work is bounded by the cost budget in `explore` (see
/// [`ExploreOptions`]); the extra condition checks are accounted in
/// `RewriteStats::explore_checks`, leaving `condition_checks` identical
/// to what `Simple` would report for the same statement.
pub fn run_strategy_explore(
    rules: &RuleSet,
    strategy: &Strategy,
    methods: &MethodRegistry,
    env: &dyn TermEnv,
    term: Term,
    collect_trace: bool,
    explore: &ExploreOptions,
) -> RwResult<RunOutcome> {
    let mut snapshots = Vec::new();
    let mainline = run_mainline(
        rules,
        strategy,
        methods,
        env,
        term,
        collect_trace,
        Some(&mut snapshots),
    )?;
    // Score the mainline; an unscorable mainline disables exploration
    // for this statement (nothing to compare against).
    let Some(mainline_cost) = (explore.score)(&mainline.term) else {
        return Ok(mainline);
    };
    let RunOutcome {
        term,
        mut stats,
        trace,
        budget_exhausted: exhausted,
        ..
    } = mainline;
    let (order, passes) = strategy.order();
    stats.explore_candidates += 1;
    let mut best_term = term.clone();
    let mut best_cost = mainline_cost;
    let mut runner_up: Option<f64> = None;
    // Trajectory states already normalized (snapshots repeat when a
    // block is revisited across passes) and plans already scored (many
    // snapshots normalize to the same plan — including the mainline's).
    let mut seen_snaps: HashSet<Term> = HashSet::new();
    let mut seen_plans: HashSet<Term> = HashSet::new();
    seen_plans.insert(term.clone());
    let mut scored = 0usize;
    // The expected price of the next candidate's normalization, seeded
    // with the mainline's own check count and refined as candidates are
    // processed.
    let mut expected_checks = stats.condition_checks.max(1);

    // Most recent snapshots first: they have absorbed the most
    // normalization, so they differ from the mainline by the fewest
    // (and latest) choice-point applications.
    for (pass, bi, snap) in snapshots.into_iter().rev() {
        if scored >= explore.k {
            break;
        }
        if stats.explore_checks >= explore.max_checks
            || best_cost <= explore.check_cost * expected_checks as f64
        {
            // The best plan found is already cheaper to run than one
            // more candidate is to produce: exploring further cannot
            // pay for itself.
            stats.explore_budget_stops += 1;
            break;
        }
        if !seen_snaps.insert(snap.clone()) {
            continue;
        }
        let (normalized, checks) = normalize_candidate(
            rules, strategy, &order, passes, methods, env, pass, bi, snap,
        )?;
        stats.explore_checks += checks;
        expected_checks = checks.max(1);
        if !seen_plans.insert(normalized.clone()) {
            continue;
        }
        scored += 1;
        stats.explore_candidates += 1;
        let Some(cost) = (explore.score)(&normalized) else {
            continue;
        };
        if cost < best_cost {
            runner_up = Some(best_cost);
            best_cost = cost;
            best_term = normalized;
        } else if runner_up.is_none_or(|r| cost < r) {
            runner_up = Some(cost);
        }
    }

    let improved = best_term != term;
    if improved {
        stats.explore_wins += 1;
    }
    Ok(RunOutcome {
        term: best_term,
        stats,
        trace,
        budget_exhausted: exhausted,
        exploration: Some(Exploration {
            considered: stats.explore_candidates,
            chosen_cost: best_cost,
            runner_up_cost: runner_up,
            improved,
        }),
    })
}

/// Normalize an exploration candidate by the remainder of the sequence:
/// the blocks after its capture position in that pass, then the
/// remaining passes — skipping choice-point blocks, whose re-application
/// would erase what makes the candidate different. Returns the
/// normalized term and the condition checks spent.
#[allow(clippy::too_many_arguments)]
fn normalize_candidate(
    rules: &RuleSet,
    strategy: &Strategy,
    order: &[&Block],
    passes: u64,
    methods: &MethodRegistry,
    env: &dyn TermEnv,
    start_pass: u64,
    start_bi: usize,
    mut term: Term,
) -> RwResult<(Term, u64)> {
    let mut checks = 0u64;
    for pass in start_pass..passes {
        let first = if pass == start_pass { start_bi + 1 } else { 0 };
        let before = term.clone();
        for block in order.iter().skip(first) {
            if strategy.is_explore_block(&block.name) {
                continue;
            }
            let outcome = apply_block(rules, block, methods, env, term, false)?;
            term = outcome.term;
            checks += outcome.stats.condition_checks;
        }
        if pass > start_pass && term == before {
            break;
        }
    }
    Ok((term, checks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::BasicEnv;

    fn shrink_rule() -> Rule {
        Rule::simple(
            "unwrap",
            Term::app("F", vec![Term::var("x")]),
            Term::var("x"),
        )
    }

    fn grow_rule() -> Rule {
        Rule::simple(
            "wrap",
            Term::app("G", vec![Term::var("x")]),
            Term::app("G", vec![Term::app("F", vec![Term::var("x")])]),
        )
    }

    fn nested(n: usize) -> Term {
        let mut t = Term::int(0);
        for _ in 0..n {
            t = Term::app("F", vec![t]);
        }
        t
    }

    #[test]
    fn saturation_with_decreasing_rule_terminates() {
        let mut rules = RuleSet::new();
        rules.add(shrink_rule());
        let block = Block {
            name: "b".into(),
            rules: vec!["unwrap".into()],
            limit: Limit::Infinite,
        };
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        let out = apply_block(&rules, &block, &methods, &env, nested(10), false).unwrap();
        assert_eq!(out.term, Term::int(0));
        assert_eq!(out.stats.applications, 10);
        assert!(!out.budget_exhausted);
    }

    #[test]
    fn finite_limit_stops_looping_rule() {
        // "wrap" grows forever; the block budget must stop it.
        let mut rules = RuleSet::new();
        rules.add(grow_rule());
        let block = Block {
            name: "b".into(),
            rules: vec!["wrap".into()],
            limit: Limit::Finite(25),
        };
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        let start = Term::app("G", vec![Term::int(1)]);
        let out = apply_block(&rules, &block, &methods, &env, start, false).unwrap();
        assert!(out.budget_exhausted);
        assert_eq!(out.stats.condition_checks, 25);
        assert_eq!(out.stats.applications, 25);
    }

    #[test]
    fn zero_limit_disables_block() {
        // "Simple queries do not need sophisticated optimization: a 0
        // limit can then be given to all blocks" (Section 7).
        let mut rules = RuleSet::new();
        rules.add(shrink_rule());
        let block = Block {
            name: "b".into(),
            rules: vec!["unwrap".into()],
            limit: Limit::Finite(0),
        };
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        let start = nested(3);
        let out = apply_block(&rules, &block, &methods, &env, start.clone(), false).unwrap();
        assert_eq!(out.term, start);
        assert_eq!(out.stats.applications, 0);
    }

    #[test]
    fn sequence_runs_blocks_in_order() {
        // Block 1 rewrites A -> B, block 2 rewrites B -> C; order matters.
        let mut rules = RuleSet::new();
        rules.add(Rule::simple("ab", Term::atom("A"), Term::atom("B")));
        rules.add(Rule::simple("bc", Term::atom("B"), Term::atom("C")));
        let mut strategy = Strategy::new();
        strategy.add_block(Block {
            name: "first".into(),
            rules: vec!["ab".into()],
            limit: Limit::Infinite,
        });
        strategy.add_block(Block {
            name: "second".into(),
            rules: vec!["bc".into()],
            limit: Limit::Infinite,
        });
        strategy.set_sequence(Sequence {
            blocks: vec!["first".into(), "second".into()],
            passes: 1,
        });
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        let out = run_strategy(&rules, &strategy, &methods, &env, Term::atom("A"), true).unwrap();
        assert_eq!(out.term, Term::atom("C"));
        assert_eq!(out.trace.events().len(), 2);

        // Reversed sequence needs two passes to reach C.
        strategy.set_sequence(Sequence {
            blocks: vec!["second".into(), "first".into()],
            passes: 1,
        });
        let out = run_strategy(&rules, &strategy, &methods, &env, Term::atom("A"), false).unwrap();
        assert_eq!(out.term, Term::atom("B"));
        strategy.set_sequence(Sequence {
            blocks: vec!["second".into(), "first".into()],
            passes: 2,
        });
        let out = run_strategy(&rules, &strategy, &methods, &env, Term::atom("A"), false).unwrap();
        assert_eq!(out.term, Term::atom("C"));
    }

    /// Choice block rewrites A → B → C (two steps); a separate cleanup
    /// block rewrites any `D(x)` wrapper away. Scoring A=3, B=1, C=2
    /// must make exploration emit B — a state the mainline only passed
    /// through.
    fn explore_fixture() -> (RuleSet, Strategy) {
        let mut rules = RuleSet::new();
        rules.add(Rule::simple("ab", Term::atom("A"), Term::atom("B")));
        rules.add(Rule::simple("bc", Term::atom("B"), Term::atom("C")));
        rules.add(Rule::simple(
            "unwrap_d",
            Term::app("D", vec![Term::var("x")]),
            Term::var("x"),
        ));
        let mut strategy = Strategy::new();
        strategy.add_block(Block {
            name: "choice".into(),
            rules: vec!["ab".into(), "bc".into()],
            limit: Limit::Infinite,
        });
        strategy.add_block(Block {
            name: "cleanup".into(),
            rules: vec!["unwrap_d".into()],
            limit: Limit::Infinite,
        });
        strategy.set_sequence(Sequence {
            blocks: vec!["choice".into(), "cleanup".into()],
            passes: 2,
        });
        strategy.set_explore_blocks(["choice"]);
        (rules, strategy)
    }

    fn score_abc(t: &Term) -> Option<f64> {
        match t {
            t if *t == Term::atom("A") => Some(3.0),
            t if *t == Term::atom("B") => Some(1.0),
            t if *t == Term::atom("C") => Some(2.0),
            _ => None,
        }
    }

    #[test]
    fn exploration_recovers_discarded_intermediate() {
        let (rules, strategy) = explore_fixture();
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        let opts = ExploreOptions {
            k: 8,
            max_checks: 10_000,
            check_cost: 0.0,
            score: &score_abc,
        };
        let out = run_strategy_explore(
            &rules,
            &strategy,
            &methods,
            &env,
            Term::atom("A"),
            false,
            &opts,
        )
        .unwrap();
        // Mainline saturates to C; the snapshot trajectory holds A and
        // B, and B scores cheapest.
        assert_eq!(out.term, Term::atom("B"));
        let exp = out.exploration.expect("explored");
        assert!(exp.improved);
        assert_eq!(exp.chosen_cost, 1.0);
        assert_eq!(exp.runner_up_cost, Some(2.0));
        assert!(exp.considered >= 2);
        assert_eq!(out.stats.explore_wins, 1);
        assert!(out.stats.explore_checks > 0);
        // The mainline's own counters match what run_strategy reports.
        let plain =
            run_strategy(&rules, &strategy, &methods, &env, Term::atom("A"), false).unwrap();
        assert_eq!(plain.term, Term::atom("C"));
        assert_eq!(out.stats.condition_checks, plain.stats.condition_checks);
        assert_eq!(out.stats.applications, plain.stats.applications);
    }

    #[test]
    fn exploration_budget_stops_when_win_cannot_pay() {
        let (rules, strategy) = explore_fixture();
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        // Every plan is dirt cheap relative to the price of a check:
        // the budget must refuse to normalize even one candidate.
        let opts = ExploreOptions {
            k: 8,
            max_checks: 10_000,
            check_cost: 1e9,
            score: &score_abc,
        };
        let out = run_strategy_explore(
            &rules,
            &strategy,
            &methods,
            &env,
            Term::atom("A"),
            false,
            &opts,
        )
        .unwrap();
        assert_eq!(out.term, Term::atom("C"), "mainline kept");
        assert_eq!(out.stats.explore_budget_stops, 1);
        assert_eq!(out.stats.explore_checks, 0);
        let exp = out.exploration.expect("report still present");
        assert!(!exp.improved);
        assert_eq!(exp.considered, 1);
    }

    #[test]
    fn unscorable_mainline_disables_exploration() {
        let (rules, strategy) = explore_fixture();
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        let opts = ExploreOptions {
            k: 8,
            max_checks: 10_000,
            check_cost: 0.0,
            score: &|_| None,
        };
        let out = run_strategy_explore(
            &rules,
            &strategy,
            &methods,
            &env,
            Term::atom("A"),
            false,
            &opts,
        )
        .unwrap();
        assert_eq!(out.term, Term::atom("C"));
        assert!(out.exploration.is_none());
        assert_eq!(out.stats.explore_candidates, 0);
    }

    #[test]
    fn candidates_are_normalized_by_remaining_blocks() {
        // The candidate kept from the choice block still goes through
        // the cleanup block: wrap the intermediate in D(...) via the
        // choice rules and check the winner is unwrapped.
        let mut rules = RuleSet::new();
        rules.add(Rule::simple(
            "ab",
            Term::atom("A"),
            Term::app("D", vec![Term::atom("B")]),
        ));
        rules.add(Rule::simple(
            "bc",
            Term::app("D", vec![Term::atom("B")]),
            Term::atom("C"),
        ));
        rules.add(Rule::simple(
            "unwrap_d",
            Term::app("D", vec![Term::var("x")]),
            Term::var("x"),
        ));
        let mut strategy = Strategy::new();
        strategy.add_block(Block {
            name: "choice".into(),
            rules: vec!["ab".into(), "bc".into()],
            limit: Limit::Infinite,
        });
        strategy.add_block(Block {
            name: "cleanup".into(),
            rules: vec!["unwrap_d".into()],
            limit: Limit::Infinite,
        });
        strategy.set_sequence(Sequence {
            blocks: vec!["choice".into(), "cleanup".into()],
            passes: 1,
        });
        strategy.set_explore_blocks(["choice"]);
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        // D(B) is a mid-choice state; normalized through cleanup it
        // becomes B, which the score prefers over the mainline C.
        let opts = ExploreOptions {
            k: 8,
            max_checks: 10_000,
            check_cost: 0.0,
            score: &|t: &Term| {
                if *t == Term::atom("B") {
                    Some(1.0)
                } else if t.is_app("D") {
                    Some(50.0)
                } else {
                    Some(10.0)
                }
            },
        };
        let out = run_strategy_explore(
            &rules,
            &strategy,
            &methods,
            &env,
            Term::atom("A"),
            false,
            &opts,
        )
        .unwrap();
        assert_eq!(out.term, Term::atom("B"), "candidate was normalized");
    }

    #[test]
    fn deleted_rules_are_skipped_by_blocks() {
        let mut rules = RuleSet::new();
        rules.add(shrink_rule());
        let block = Block {
            name: "b".into(),
            rules: vec!["missing".into(), "unwrap".into()],
            limit: Limit::Infinite,
        };
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        let out = apply_block(&rules, &block, &methods, &env, nested(2), false).unwrap();
        assert_eq!(out.term, Term::int(0)); // remaining rule still runs
    }

    #[test]
    fn ruleset_add_replace_remove() {
        let mut rules = RuleSet::new();
        assert!(rules.add(shrink_rule()).is_none());
        assert!(rules.add(grow_rule()).is_none());
        assert_eq!(rules.len(), 2);
        assert!(rules.contains("unwrap"));
        // Same-name add replaces and hands back the shadowed rule.
        let replaced = rules.add(Rule::simple(
            "unwrap",
            Term::app("F", vec![Term::var("x")]),
            Term::app("H", vec![Term::var("x")]),
        ));
        assert_eq!(replaced.unwrap().rhs, Term::var("x"));
        assert_eq!(rules.len(), 2);
        assert!(rules.get("unwrap").unwrap().rhs.is_app("H"));
        assert!(rules.remove("unwrap"));
        assert!(!rules.remove("unwrap"));
        assert!(rules.get("wrap").is_some());
    }

    #[test]
    fn removal_keeps_iteration_order_and_lookups() {
        let mut rules = RuleSet::new();
        for i in 0..40 {
            rules.add(Rule::simple(
                format!("r{i}"),
                Term::app(format!("F{i}"), vec![Term::var("x")]),
                Term::var("x"),
            ));
        }
        // Remove every other rule; enough removals to trigger compaction.
        for i in (0..40).step_by(2) {
            assert!(rules.remove(&format!("r{i}")));
        }
        assert_eq!(rules.len(), 20);
        let names: Vec<&str> = rules.iter().map(|r| r.name.as_str()).collect();
        let expected: Vec<String> = (1..40).step_by(2).map(|i| format!("r{i}")).collect();
        assert_eq!(names, expected);
        // Survivors still resolve after compaction rebuilt the index.
        for i in (1..40).step_by(2) {
            assert!(rules.get(&format!("r{i}")).is_some(), "r{i} lost");
        }
        assert!(rules.get("r0").is_none());
    }

    /// Add, same-name replace, remove and re-add, interleaved: after every
    /// step the set must agree with a straightforward model (name → latest
    /// head, plus the order names were first added in since their last
    /// removal).
    #[test]
    fn mutations_agree_with_a_model_of_the_set() {
        use std::collections::BTreeMap;

        fn check(rules: &RuleSet, model: &BTreeMap<String, String>, order: &[String]) {
            assert_eq!(rules.len(), model.len());
            assert_eq!(rules.is_empty(), model.is_empty());
            let got: Vec<&str> = rules.iter().map(|r| r.name.as_str()).collect();
            assert_eq!(got, order);
            for name in order {
                let head = &model[name];
                assert!(rules.contains(name));
                assert!(
                    rules.get(name).is_some_and(|r| r.lhs.is_app(head)),
                    "{name} must map to head {head}"
                );
            }
        }

        let mut rules = RuleSet::new();
        let mut model: BTreeMap<String, String> = BTreeMap::new();
        let mut order: Vec<String> = Vec::new();
        // (name, Some(head)) adds or replaces; (name, None) removes.
        let mut steps: Vec<(String, Option<String>)> = Vec::new();
        for i in 0..20 {
            steps.push((format!("r{i}"), Some(format!("F{i}"))));
        }
        for i in [0, 19, 7, 8, 3] {
            steps.push((format!("r{i}"), None)); // first, last, middle
            steps.push((format!("r{}", i + 1), Some(format!("G{i}")))); // replace or add
        }
        steps.push(("r3".into(), None)); // already gone: a miss
        for i in [7, 0, 3] {
            steps.push((format!("r{i}"), Some(format!("H{i}")))); // re-add at the end
            steps.push((format!("r{}", i + 2), None));
        }
        for (name, head) in steps {
            match head {
                Some(head) => {
                    let rule = Rule::simple(
                        name.as_str(),
                        Term::app(head.as_str(), vec![Term::var("x")]),
                        Term::var("x"),
                    );
                    let shadowed = rules.add(rule);
                    let old = model.insert(name.clone(), head);
                    assert_eq!(shadowed.is_some(), old.is_some());
                    assert!(shadowed.zip(old).is_none_or(|(r, h)| r.lhs.is_app(&h)));
                    if !order.contains(&name) {
                        order.push(name);
                    }
                }
                None => {
                    assert_eq!(rules.remove(&name), model.remove(&name).is_some());
                    order.retain(|n| *n != name);
                    assert!(rules.get(&name).is_none() && !rules.contains(&name));
                }
            }
            check(&rules, &model, &order);
        }
    }

    #[test]
    fn interacting_rules_reach_the_normal_form_in_pinned_checks() {
        // Two rules that enable each other repeatedly: G(F(x)) -> F(G(x))
        // sinks G below F; F(F(x)) -> F(x) merges. The normal form and
        // the counters are the naive loop's: a rule that failed is
        // offered (and counted) again each round, never silently skipped.
        let mut rules = RuleSet::new();
        rules.add(Rule::simple(
            "sink",
            Term::app("G", vec![Term::app("F", vec![Term::var("x")])]),
            Term::app("F", vec![Term::app("G", vec![Term::var("x")])]),
        ));
        rules.add(Rule::simple(
            "merge",
            Term::app("F", vec![Term::app("F", vec![Term::var("x")])]),
            Term::app("F", vec![Term::var("x")]),
        ));
        let block = Block {
            name: "b".into(),
            rules: vec!["sink".into(), "merge".into()],
            limit: Limit::Infinite,
        };
        // G(G(F(F(G(F(0)))))) — plenty of interaction.
        let term = Term::app(
            "G",
            vec![Term::app(
                "G",
                vec![Term::app(
                    "F",
                    vec![Term::app(
                        "F",
                        vec![Term::app("G", vec![Term::app("F", vec![Term::int(0)])])],
                    )],
                )],
            )],
        );
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        let out = apply_block(&rules, &block, &methods, &env, term, false).unwrap();
        // Normal form: one F on top, Gs below, no F-F pairs: F(G(G(G(0)))).
        assert_eq!(
            out.term,
            Term::app(
                "F",
                vec![Term::app(
                    "G",
                    vec![Term::app("G", vec![Term::app("G", vec![Term::int(0)])])]
                )]
            )
        );
        assert!(!out.budget_exhausted);
        // Seven rounds in which `sink` fires (`merge` after it twice), then
        // the round in which both fail.
        assert_eq!(out.stats.applications, 9);
        assert_eq!(out.stats.condition_checks, 16);
    }

    #[test]
    fn dynamic_limit_adjustment() {
        let mut strategy = Strategy::new();
        strategy.add_block(Block {
            name: "b".into(),
            rules: vec![],
            limit: Limit::Infinite,
        });
        strategy.set_limit("b", Limit::Finite(3)).unwrap();
        assert_eq!(strategy.block("b").unwrap().limit, Limit::Finite(3));
        assert!(strategy.set_limit("nope", Limit::Infinite).is_err());
    }
}
