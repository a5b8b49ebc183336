//! The rewriter pipeline: knowledge base + strategy + methods.
//!
//! "Any optimizer generated with the rule language is a sequence of
//! blocks of rules which can be applied multiple times" — the
//! [`QueryRewriter`] holds the rule set, the block/seq strategy and the
//! method registry, and is extensible at runtime: the database
//! implementor adds or removes rules, redefines blocks, changes limits.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use eds_engine::{Database, OptLevel};
use eds_lera::{expr_from_term, expr_to_term, CostModel, Expr};
use eds_rewrite::{
    analyze, analyze::duplicate_rule, parse_source, run_strategy, run_strategy_explore, Diagnostic,
    Exploration, ExploreOptions, Limit, MethodRegistry, RewriteStats, RuleSet, SchemaProvider,
    Sequence, SourceItem, Strategy, Term, Trace,
};

use crate::env::CoreEnv;
use crate::error::{CoreError, CoreResult};
use crate::methods::register_core_methods;
use crate::semantic::ConstraintStore;

/// What to do with static-analysis findings when rule DDL is registered.
/// [`Dbms::new`](crate::Dbms::new) takes it from `EDS_LINT=deny|warn|off`;
/// the default is `warn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintPolicy {
    /// Reject the source when any *error*-severity diagnostic fires
    /// (warnings are still only printed).
    Deny,
    /// Print every diagnostic to stderr and accept the source.
    #[default]
    Warn,
    /// Skip analysis entirely.
    Off,
}

/// Embedded built-in knowledge base, written in the paper's rule
/// language (see `crates/core/rules/*.rules`).
pub const BUILTIN_RULE_SOURCES: [(&str, &str); 7] = [
    ("normalize", include_str!("../rules/normalize.rules")),
    ("merging", include_str!("../rules/merging.rules")),
    ("permutation", include_str!("../rules/permutation.rules")),
    ("fixpoint", include_str!("../rules/fixpoint.rules")),
    ("semantic", include_str!("../rules/semantic.rules")),
    ("simplify", include_str!("../rules/simplify.rules")),
    ("strategy", include_str!("../rules/strategy.rules")),
];

/// Candidate-exploration defaults for [`OptLevel::Full`]: keep up to
/// this many candidate plans per rewrite ...
pub const EXPLORE_K: usize = 8;
/// ... spend at most this many condition checks normalizing them ...
pub const EXPLORE_MAX_CHECKS: u64 = 20_000;
/// ... and stop early once the best cost seen is below
/// `EXPLORE_CHECK_COST × expected remaining checks` (exploration would
/// cost more than it could still win).
pub const EXPLORE_CHECK_COST: f64 = 32.0;

/// The choice-point blocks of the built-in strategy: where rule order is
/// genuinely a *choice* (operator merging, permutation, and semantic
/// CHOOSE-style transformations), not mere normalization.
pub const EXPLORE_BLOCKS: [&str; 3] = ["merging", "permutation", "semantic"];

/// Outcome of rewriting one query: what the plan cache stores, one per
/// optimization level and canonical input term.
#[derive(Debug, Clone)]
pub struct RewriteOutcome {
    /// The rewritten plan, lowered once per strategy run and shared
    /// (`Arc`) by every cache hit and prepared statement of the same key.
    pub expr: Arc<Expr>,
    /// The rewritten plan as a term (before conversion back).
    pub term: Term,
    /// Rule-application counters.
    pub stats: RewriteStats,
    /// Per-application trace (only from a traced [`QueryRewriter::run`];
    /// cached outcomes carry none).
    pub trace: Trace,
    /// Whether some block hit its limit.
    pub budget_exhausted: bool,
    /// Candidate-exploration summary ([`OptLevel::Full`] only).
    pub exploration: Option<Exploration>,
}

/// The cache key: the optimization level plus the canonical input
/// term. Terms carry their hash from interning, so lookups cost one
/// table probe, not a plan traversal; the level is part of the key
/// because levels produce different plans for the same canonical term.
/// A prepared statement's term is *parameterized* (`?` placeholders
/// are `PARAM(i)` leaves), so statements differing only in bind values
/// share one entry — sound for every bind array: rules may relocate a
/// `PARAM` leaf, none evaluates one.
type PlanKey = (OptLevel, Term);

/// Everything behind the rewriter's cache lock: one map and the
/// counters that describe it.
#[derive(Default)]
struct PlanCache {
    map: HashMap<PlanKey, RewriteOutcome>,
    /// Hits, misses and evictions; `invalidations` is read from the
    /// rewriter's epoch instead.
    stats: PlanCacheStats,
    /// Cumulative candidate-exploration counters.
    explore: ExploreStats,
}

impl PlanCache {
    /// Drop every entry (counted as evictions) when the map holds more
    /// than `limit`.
    fn evict_above(&mut self, limit: usize) {
        if self.map.len() > limit {
            self.stats.evictions += self.map.len() as u64;
            self.map.clear();
        }
    }
}

/// Default plan-cache capacity: cached rewrites above this count evict
/// the whole cache (simple, and a workload with more than this many
/// distinct prepared shapes is already re-preparing, not re-executing).
/// Overridable per rewriter with [`QueryRewriter::set_plan_cache_cap`]
/// (0 disables caching).
const PLAN_CACHE_CAP: usize = 256;

/// Plan-cache effectiveness counters, exposed for tests and the bench
/// report. Ad-hoc rewrites ([`QueryRewriter::rewrite_term_leveled`])
/// and prepared statements ([`QueryRewriter::rewrite_shape_leveled`])
/// read the same map; the `shape_*` counters say when a prepared
/// statement asked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Ad-hoc rewrites answered from the map.
    pub hits: u64,
    /// Strategy runs that filled the map, asked for by either side.
    pub misses: u64,
    /// Prepared-statement rewrites answered from the map.
    pub shape_hits: u64,
    /// Prepared-statement rewrites that ran the strategy (each also
    /// counted in `misses`).
    pub shape_misses: u64,
    /// Entries dropped because the map reached its capacity.
    pub evictions: u64,
    /// Invalidation events (rule/strategy/method/catalog/constraint
    /// changes), each of which also empties the map. Doubles as the
    /// epoch prepared statements check before reusing their plan.
    pub invalidations: u64,
}

/// Cumulative candidate-exploration counters across every
/// [`OptLevel::Full`] rewrite this rewriter ran (cache hits replay a
/// stored result and do not re-count). The per-rewrite values live in
/// [`RewriteStats`]; this is the process-lifetime aggregate `.stats`
/// reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Candidate plans scored (including each rewrite's mainline).
    pub candidates: u64,
    /// Condition checks spent normalizing candidates (not counted in
    /// the mainline `condition_checks`).
    pub checks: u64,
    /// Rewrites that stopped exploring because the budget ran out or
    /// the expected win fell below the exploration cost.
    pub budget_stops: u64,
    /// Rewrites where a candidate beat the mainline plan.
    pub wins: u64,
}

impl ExploreStats {
    fn absorb(&mut self, stats: &RewriteStats) {
        self.candidates += stats.explore_candidates;
        self.checks += stats.explore_checks;
        self.budget_stops += stats.explore_budget_stops;
        self.wins += stats.explore_wins;
    }
}

/// A [`CostModel`] holding the exact cardinality of every stored table.
/// Views and unknown names are left to the model's defaults.
pub fn stats_cost_model(db: &Database) -> CostModel {
    let mut model = CostModel::new();
    for name in db.catalog.table_names() {
        if let Some(card) = db.cardinality(name) {
            model.set_card(name, card as f64);
        }
    }
    model
}

/// The extensible query rewriter.
pub struct QueryRewriter {
    rules: RuleSet,
    strategy: Strategy,
    methods: MethodRegistry,
    /// Lint policy [`QueryRewriter::add_source`] registers rule DDL
    /// under.
    pub lint_policy: LintPolicy,
    /// The plan cache and the cumulative counters, behind one lock.
    /// Interior-mutable so `rewrite*(&self)` can fill it;
    /// invalidated by every knowledge-base mutation and, via
    /// [`QueryRewriter::invalidate_plan_cache`], by catalog/constraint
    /// changes in the embedding DBMS.
    cache: Mutex<PlanCache>,
    /// Capacity of the plan cache (0 disables caching entirely).
    plan_cache_cap: usize,
    /// Invalidation events so far. The one counter outside the lock:
    /// `PreparedStmt::execute` reads it on every call.
    epoch: AtomicU64,
}

impl fmt::Debug for QueryRewriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryRewriter")
            .field("rules", &self.rules)
            .field("strategy", &self.strategy)
            .field("methods", &self.methods)
            .field("lint_policy", &self.lint_policy)
            .field("plan_cache_len", &self.plan_cache_len())
            .field("plan_cache_cap", &self.plan_cache_cap)
            .field("plan_cache_stats", &self.plan_cache_stats())
            .finish()
    }
}

impl Clone for QueryRewriter {
    fn clone(&self) -> Self {
        QueryRewriter {
            rules: self.rules.clone(),
            strategy: self.strategy.clone(),
            methods: self.methods.clone(),
            lint_policy: self.lint_policy,
            // The clone starts cold: cached plans are cheap to recompute
            // and sharing them would couple invalidation across copies.
            // Counters start at zero with it — they describe this
            // instance's cache, not its lineage.
            cache: Mutex::default(),
            plan_cache_cap: self.plan_cache_cap,
            epoch: AtomicU64::new(0),
        }
    }
}

impl QueryRewriter {
    /// A rewriter with no rules (methods still registered).
    pub fn empty() -> Self {
        let mut methods = MethodRegistry::with_builtins();
        register_core_methods(&mut methods);
        QueryRewriter {
            rules: RuleSet::new(),
            strategy: Strategy::new(),
            methods,
            lint_policy: LintPolicy::default(),
            cache: Mutex::default(),
            plan_cache_cap: PLAN_CACHE_CAP,
            epoch: AtomicU64::new(0),
        }
    }

    /// A rewriter loaded with the full built-in knowledge base. Loads
    /// with [`LintPolicy::Off`]: the library is pinned lint-clean by its
    /// own test and the CI `eds-lint` job, and re-analyzing it on every
    /// construction would spam stderr for no new information.
    pub fn with_default_rules() -> CoreResult<Self> {
        let mut rw = Self::empty();
        for (_, src) in BUILTIN_RULE_SOURCES {
            rw.add_source_checked(src, LintPolicy::Off, None)?;
        }
        rw.strategy.set_explore_blocks(EXPLORE_BLOCKS);
        Ok(rw)
    }

    /// Parse rule-language source (rules, blocks, seq) into the
    /// knowledge base — the extensibility entry point for the database
    /// implementor. Lints under [`QueryRewriter::lint_policy`] (default
    /// `warn`) without catalog knowledge; use
    /// [`QueryRewriter::add_source_checked`] (or go through
    /// `Dbms::add_rule_source`) for schema-aware checks or an explicit
    /// policy.
    pub fn add_source(&mut self, src: &str) -> CoreResult<usize> {
        self.add_source_checked(src, self.lint_policy, None)
    }

    /// [`QueryRewriter::add_source`] with an explicit lint policy and
    /// optional catalog knowledge. The source is parsed, staged against
    /// the current knowledge base, and analyzed *before* anything is
    /// committed: under [`LintPolicy::Deny`] an error-severity finding
    /// rejects the whole batch with [`CoreError::LintRejected`] and the
    /// rewriter is left untouched. Diagnostics are attributed to the new
    /// items only — pre-existing rules do not re-report.
    pub fn add_source_checked(
        &mut self,
        src: &str,
        policy: LintPolicy,
        schema: Option<&dyn SchemaProvider>,
    ) -> CoreResult<usize> {
        let items = parse_source(src)?;
        if policy != LintPolicy::Off {
            let diagnostics = self.stage_and_lint(&items, schema);
            if policy == LintPolicy::Deny && diagnostics.iter().any(Diagnostic::is_error) {
                return Err(CoreError::LintRejected { diagnostics });
            }
            for d in &diagnostics {
                eprintln!("eds-lint: {d}");
            }
        }
        let n = items.len();
        for item in items {
            match item {
                SourceItem::Rule(rule) => {
                    self.rules.add(rule);
                }
                SourceItem::Block(block) => self.strategy.add_block(block),
                SourceItem::Seq(seq) => self.strategy.set_sequence(seq),
            }
        }
        self.invalidate_plan_cache();
        Ok(n)
    }

    /// Lint rule-language source against the current knowledge base
    /// without committing anything. Returns the diagnostics attributed
    /// to the source's items (the `eds-lint` binary's per-file mode).
    pub fn lint_source(
        &self,
        src: &str,
        schema: Option<&dyn SchemaProvider>,
    ) -> CoreResult<Vec<Diagnostic>> {
        let items = parse_source(src)?;
        Ok(self.stage_and_lint(&items, schema))
    }

    /// Analyze the knowledge base as it stands (every rule, the whole
    /// strategy) and return all findings.
    pub fn lint(&self, schema: Option<&dyn SchemaProvider>) -> Vec<Diagnostic> {
        analyze(&self.rules, &self.strategy, &self.methods, schema)
    }

    /// Semantically verify the knowledge base with default options: the
    /// bounded equivalence prover plus the differential fuzzer
    /// (`eds-verify`; see [`crate::verify`]).
    pub fn verify(&self) -> crate::verify::VerifyReport {
        self.verify_with(&crate::verify::VerifyOptions::default())
    }

    /// [`QueryRewriter::verify`] with explicit options (seed, case
    /// budget, instrument selection).
    pub fn verify_with(&self, opts: &crate::verify::VerifyOptions) -> crate::verify::VerifyReport {
        crate::verify::verify_rules(self.rules.iter(), &self.methods, opts)
    }

    /// Discover new rewrite rules against this knowledge base: the
    /// survival funnel of [`eds_rewrite::discover`] gated by the bounded
    /// prover, the differential fuzz harness, the supplied cost model
    /// (with a positive predicate-operator weight), and redundancy
    /// against the rules already registered here.
    pub fn discover(
        &self,
        opts: &eds_rewrite::DiscoverOptions,
        model: CostModel,
    ) -> eds_rewrite::Discovery {
        let cost = crate::discover::LeraCostOracle::new(model);
        let fuzz = crate::discover::HarnessOracle::new(&self.methods, opts.seed, 32);
        eds_rewrite::discover_rules(&self.rules, &self.methods, opts, &cost, &fuzz)
    }

    /// Stage `items` on a copy of the knowledge base, run the analyzer
    /// over the staged state, and keep only diagnostics that belong to
    /// the new items (new rule names, new block names, the sequence when
    /// the batch replaces it). Duplicate rule registration (`EDS008`) is
    /// detected here — the assembled `RuleSet` can no longer show it.
    fn stage_and_lint(
        &self,
        items: &[SourceItem],
        schema: Option<&dyn SchemaProvider>,
    ) -> Vec<Diagnostic> {
        let mut diagnostics = Vec::new();
        let mut staged_rules = self.rules.clone();
        let mut staged_strategy = self.strategy.clone();
        let mut new_rules: HashSet<&str> = HashSet::new();
        let mut new_blocks: HashSet<&str> = HashSet::new();
        let mut has_seq = false;
        for item in items {
            match item {
                SourceItem::Rule(rule) => {
                    if staged_rules.contains(&rule.name) {
                        diagnostics.push(duplicate_rule(&rule.name));
                    }
                    staged_rules.add(rule.clone());
                    new_rules.insert(rule.name.as_str());
                }
                SourceItem::Block(block) => {
                    staged_strategy.add_block(block.clone());
                    new_blocks.insert(block.name.as_str());
                }
                SourceItem::Seq(seq) => {
                    staged_strategy.set_sequence(seq.clone());
                    has_seq = true;
                }
            }
        }
        let all = analyze(&staged_rules, &staged_strategy, &self.methods, schema);
        diagnostics.extend(all.into_iter().filter(|d| {
            d.rule.as_deref().is_some_and(|r| new_rules.contains(r))
                || d.block.as_deref().is_some_and(|b| new_blocks.contains(b))
                || (d.rule.is_none() && d.block.is_none() && has_seq && d.part == "seq")
                // A new sequence re-wires the whole flow graph, so the
                // cross-block findings are this batch's even when the
                // rules and blocks on the cycle pre-date it.
                || (has_seq && matches!(d.code, "EDS016" | "EDS017"))
        }));
        diagnostics
    }

    /// Remove a rule by name. Drops every cached plan when (and only
    /// when) a rule was removed.
    pub fn remove_rule(&mut self, name: &str) -> bool {
        let removed = self.rules.remove(name);
        if removed {
            self.invalidate_plan_cache();
        }
        removed
    }

    /// The rule set.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The strategy (blocks and sequence).
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// Mutable strategy access (block limits, sequence changes). Drops
    /// every cached plan: the caller may change rewrite behavior.
    pub fn strategy_mut(&mut self) -> &mut Strategy {
        self.invalidate_plan_cache();
        &mut self.strategy
    }

    /// The method registry (read-only; the analyzer consults it).
    pub fn methods(&self) -> &MethodRegistry {
        &self.methods
    }

    /// The method registry (for registering user methods). Drops every
    /// cached plan: the caller may change rewrite behavior.
    pub fn methods_mut(&mut self) -> &mut MethodRegistry {
        self.invalidate_plan_cache();
        &mut self.methods
    }

    /// Set every block's limit — the conclusion's dynamic-limit knob
    /// ("simple queries do not need sophisticated optimization: a 0
    /// limit can then be given to all blocks").
    pub fn set_all_limits(&mut self, limit: Limit) {
        let names: Vec<String> = self.strategy.blocks().map(|b| b.name.clone()).collect();
        for name in names {
            let _ = self.strategy.set_limit(&name, limit);
        }
        self.invalidate_plan_cache();
    }

    /// Replace the sequence meta-rule.
    pub fn set_sequence(&mut self, seq: Sequence) {
        self.strategy.set_sequence(seq);
        self.invalidate_plan_cache();
    }

    /// Allocate block limits dynamically from the query's complexity —
    /// the paper's conclusion: "the limit given to a block of rules could
    /// also be allocated dynamically, according to the complexity of the
    /// query. Simple queries (e.g., search on a key) do not need
    /// sophisticated optimization." Each block gets
    /// `per_node × node_count` condition checks; trivial one-operator
    /// plans get 0 (rewriting disabled).
    pub fn set_adaptive_limits(&mut self, query: &Expr, per_node: u64) {
        let nodes = query.node_count() as u64;
        let limit = if nodes <= 2 {
            Limit::Finite(0)
        } else {
            Limit::Finite(nodes.saturating_mul(per_node))
        };
        self.set_all_limits(limit);
    }

    /// Every cache operation leaves the map whole, so a thread that
    /// panicked holding the lock poisoned nothing worth refusing later
    /// rewrites over: recover the guard.
    fn cache(&self) -> MutexGuard<'_, PlanCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Drop every cached rewrite. Called automatically on knowledge-base
    /// mutations; the embedding DBMS calls it when the catalog or the
    /// constraint store changes (rewrites consult both).
    pub fn invalidate_plan_cache(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
        self.cache().map.clear();
    }

    /// Number of cached rewrites.
    pub fn plan_cache_len(&self) -> usize {
        self.cache().map.len()
    }

    /// Monotonic invalidation epoch: the count of invalidation events so
    /// far. A prepared statement snapshots this when it caches its plan
    /// and re-rewrites when the counter has moved — the same hooks that
    /// clear the cache (rule/DDL/constraint changes) advance it.
    pub fn invalidation_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// The plan cache's capacity (entries; 0 = caching disabled).
    pub fn plan_cache_cap(&self) -> usize {
        self.plan_cache_cap
    }

    /// Change the plan cache's capacity. Shrinking below the current
    /// size clears the cache (counted as evictions), matching what the
    /// next insert would do.
    pub fn set_plan_cache_cap(&mut self, cap: usize) {
        self.plan_cache_cap = cap;
        self.cache().evict_above(cap);
    }

    /// Snapshot of the hit/miss/eviction/invalidation counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            invalidations: self.invalidation_epoch(),
            ..self.cache().stats
        }
    }

    /// Cumulative candidate-exploration counters.
    pub fn explore_stats(&self) -> ExploreStats {
        self.cache().explore
    }

    /// Rewrite a canonical term at an optimization level through the
    /// plan cache — the ad-hoc side: a hit counts in
    /// [`PlanCacheStats::hits`].
    pub fn rewrite_term_leveled(
        &self,
        term: Term,
        db: &Database,
        constraints: &ConstraintStore,
        level: OptLevel,
    ) -> CoreResult<RewriteOutcome> {
        self.cached(term, db, constraints, level, false)
    }

    /// Rewrite a parameterized canonical plan through the plan cache —
    /// the prepared-statement side: a hit counts in
    /// [`PlanCacheStats::shape_hits`]. `?` placeholders are `PARAM(i)`
    /// leaves, so every statement with the same shape *prepared at the
    /// same level* shares one entry regardless of eventual bind values —
    /// a condition that would *evaluate* a leaf defers, one that
    /// *relocates* it, like Figure-9 seeding, fires as for a literal.
    /// Returns the lowered plan, its counters, and whether some block
    /// hit its limit.
    pub fn rewrite_shape_leveled(
        &self,
        expr: &Expr,
        db: &Database,
        constraints: &ConstraintStore,
        level: OptLevel,
    ) -> CoreResult<(Arc<Expr>, RewriteStats, bool)> {
        let out = self.cached(expr_to_term(expr), db, constraints, level, true)?;
        Ok((out.expr, out.stats, out.budget_exhausted))
    }

    /// The plan cache's one way in: the cached outcome for `(level,
    /// term)`, or a strategy run that fills it. `prepared` says which
    /// side asks, for the counters.
    fn cached(
        &self,
        term: Term,
        db: &Database,
        constraints: &ConstraintStore,
        level: OptLevel,
        prepared: bool,
    ) -> CoreResult<RewriteOutcome> {
        if self.plan_cache_cap == 0 {
            return self.run(term, db, constraints, level, false);
        }
        let key = (level, term);
        let mut cache = self.cache();
        if let Some(hit) = cache.map.get(&key).cloned() {
            if prepared {
                cache.stats.shape_hits += 1;
            } else {
                cache.stats.hits += 1;
            }
            return Ok(hit);
        }
        cache.stats.misses += 1;
        cache.stats.shape_misses += u64::from(prepared);
        drop(cache);
        let out = self.run(key.1.clone(), db, constraints, level, false)?;
        let mut cache = self.cache();
        cache.evict_above(self.plan_cache_cap - 1);
        cache.map.insert(key, out.clone());
        Ok(out)
    }

    /// The one uncached rewrite path: run the strategy over a canonical
    /// term at an optimization level and lower the result, touching no
    /// cache entry and no [`PlanCacheStats`] counter (a `Full` run still
    /// adds to [`QueryRewriter::explore_stats`]). `trace` records every
    /// rule application (what `explain` prints); the cache never holds a
    /// trace.
    ///
    /// * [`OptLevel::None`] — a *trivial statement* (a point scan over
    ///   one stored relation, [`Expr::is_trivial_scan`]) skips rewriting
    ///   entirely and runs as translated; anything structural falls back
    ///   to `Simple` (skipping rewrites that restructure joins or
    ///   recursion would be a correctness-neutral but large performance
    ///   trap).
    /// * [`OptLevel::Simple`] — bounded syntactic saturation.
    /// * [`OptLevel::Full`] — `Simple` plus candidate exploration at the
    ///   declared choice-point blocks, scored with a cost model holding
    ///   the stored tables' exact cardinalities.
    pub fn run(
        &self,
        term: Term,
        db: &Database,
        constraints: &ConstraintStore,
        level: OptLevel,
        trace: bool,
    ) -> CoreResult<RewriteOutcome> {
        if level == OptLevel::None {
            if let Ok(plan) = expr_from_term(&term) {
                if plan.is_trivial_scan() {
                    return Ok(RewriteOutcome {
                        expr: Arc::new(plan),
                        term,
                        stats: RewriteStats::default(),
                        trace: Trace::default(),
                        budget_exhausted: false,
                        exploration: None,
                    });
                }
            }
        }
        let env = CoreEnv { db, constraints };
        let (rules, strategy, methods) = (&self.rules, &self.strategy, &self.methods);
        let out = if level == OptLevel::Full {
            let model = stats_cost_model(db);
            let score = |t: &Term| expr_from_term(t).ok().map(|e| model.estimate(&e).cost);
            let opts = ExploreOptions {
                k: EXPLORE_K,
                max_checks: EXPLORE_MAX_CHECKS,
                check_cost: EXPLORE_CHECK_COST,
                score: &score,
            };
            let out = run_strategy_explore(rules, strategy, methods, &env, term, trace, &opts)?;
            self.cache().explore.absorb(&out.stats);
            out
        } else {
            run_strategy(rules, strategy, methods, &env, term, trace)?
        };
        Ok(RewriteOutcome {
            expr: Arc::new(expr_from_term(&out.term)?),
            term: out.term,
            stats: out.stats,
            trace: out.trace,
            budget_exhausted: out.budget_exhausted,
            exploration: out.exploration,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_cache_recovers_from_a_poisoned_lock() {
        let mut db = Database::new();
        db.execute_ddl("TABLE P (X : INT);").unwrap();
        let constraints = ConstraintStore::default();
        let rewriter = QueryRewriter::with_default_rules().unwrap();
        let plan = Expr::base("P");
        let rewrite = || {
            rewriter
                .rewrite_term_leveled(expr_to_term(&plan), &db, &constraints, OptLevel::Simple)
                .map(|out| out.expr)
        };
        let before = rewrite().unwrap();
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _cache = rewriter.cache.lock().unwrap();
                panic!("poisoning the plan cache lock (expected by this test)");
            })
            .join()
        });
        assert!(poisoner.is_err());
        assert!(rewriter.cache.is_poisoned());
        // The entry cached before is still served, and counted.
        let hits = rewriter.plan_cache_stats().hits;
        assert_eq!(rewrite().unwrap(), before);
        assert_eq!(rewriter.plan_cache_stats().hits, hits + 1);
        // So is the path that drops entries.
        rewriter.invalidate_plan_cache();
        assert_eq!(rewrite().unwrap(), before);
        assert_eq!(rewriter.plan_cache_stats().hits, hits + 1);
    }
}
