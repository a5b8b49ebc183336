//! Verified rule discovery: standardized enumeration of candidate
//! rewrite rules, prover-gated and cost-ranked.
//!
//! The paper's extensibility story has the database implementor *write*
//! rewrite rules; this module closes the loop and lets the system
//! propose them. The pipeline is a survival funnel:
//!
//! 1. **Enumerate** every boolean-rooted term of the bounded fragment
//!    ([`enumerate`]), with symmetry pruning (commutative argument
//!    order, `>`/`>=` mirroring) and explicit size/budget caps;
//! 2. **Bucket** terms by their truth vector over the full 3-valued
//!    valuation grid — two terms in one bucket are equivalent on the
//!    bounded domain, so (larger → smallest member) is a candidate rule.
//!    A second, NULL-lenient bucketing over the scalar-non-NULL grid
//!    positions yields *guarded* candidates whose equivalence needs
//!    `NOTNULL(...)` side conditions;
//! 3. **Gate** each candidate through the authoritative bounded prover
//!    ([`crate::verify::equiv::check_rule`]) — bucketing is a fast
//!    pre-filter, the prover verdict is the one that counts;
//! 4. **Rank** by a pluggable [`CostOracle`], keeping only strictly
//!    cost-decreasing rules;
//! 5. **Dedup** against the existing knowledge base with the bounded
//!    joinability oracle the overlap checker uses — a candidate both of
//!    whose sides already normalize to the same form teaches the system
//!    nothing;
//! 6. **Cross-examine** survivors with a pluggable
//!    [`DifferentialOracle`] (in `eds-core`, the differential fuzz
//!    harness), then emit a `.rules` source ([`Discovery::render`]).
//!
//! The oracles are traits because `eds-lera` (cost model) and `eds-core`
//! (reference executor) sit *above* this crate in the dependency order;
//! they inject the real implementations.

pub mod enumerate;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::methods::{BasicEnv, MethodRegistry};
use crate::overlap::JoinOracle;
use crate::rule::Rule;
use crate::strategy::RuleSet;
use crate::symbol::fnv1a;
use crate::term::Term;
use crate::verify::equiv::{check_rule, classify, Kind, Outcome};

pub use enumerate::canonical_rule_key;
use enumerate::{
    canonical_key, enumerate_terms, grid_for, scalar_nonnull_positions, signature, term_key, Vocab,
};

/// Hard ceiling on enumerated terms regardless of options; protects
/// against a size/fragment combination that explodes.
const MAX_TERMS: usize = 200_000;

/// The candidate fragment to search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fragment {
    /// `AND`/`OR`/`NOT` over two boolean variables and `TRUE`/`FALSE`.
    Bool,
    /// [`Fragment::Bool`] plus comparisons over two scalar variables.
    Cmp,
    /// [`Fragment::Cmp`] plus integer literals `0`/`1` and `+`/`-`/`*`.
    #[default]
    Full,
}

impl Fragment {
    fn vocab(self) -> Vocab {
        match self {
            Fragment::Bool => Vocab {
                bool_vars: vec!["f", "g"],
                scalar_vars: vec![],
                cmp: false,
                arith: false,
            },
            Fragment::Cmp => Vocab {
                bool_vars: vec!["f", "g"],
                scalar_vars: vec!["x", "y"],
                cmp: true,
                arith: false,
            },
            Fragment::Full => Vocab {
                bool_vars: vec!["f", "g"],
                scalar_vars: vec!["x", "y"],
                cmp: true,
                arith: true,
            },
        }
    }

    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<Fragment> {
        match s {
            "bool" => Some(Fragment::Bool),
            "cmp" => Some(Fragment::Cmp),
            "full" => Some(Fragment::Full),
            _ => None,
        }
    }
}

impl fmt::Display for Fragment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Fragment::Bool => "bool",
            Fragment::Cmp => "cmp",
            Fragment::Full => "full",
        })
    }
}

/// Tuning knobs for one discovery run. The defaults are the pinned CI
/// configuration; the withholding experiment in `eds-core` depends on
/// them re-discovering the held-out boolean/comparison rules.
#[derive(Debug, Clone)]
pub struct DiscoverOptions {
    /// Seed for the candidate exploration order (not for soundness —
    /// every emitted rule is prover-gated regardless).
    pub seed: u64,
    /// Maximum LHS size in term nodes.
    pub max_term_size: usize,
    /// Maximum candidate pairs admitted to the gate loop.
    pub budget: usize,
    /// Stop after this many accepted rules.
    pub max_rules: usize,
    /// Fragment to search.
    pub fragment: Fragment,
    /// Prefix for emitted rule names (`D001`, `D002`, ...).
    pub name_prefix: String,
}

impl Default for DiscoverOptions {
    fn default() -> Self {
        Self {
            seed: 0xED5,
            max_term_size: 5,
            budget: 4096,
            max_rules: 24,
            fragment: Fragment::Full,
            name_prefix: "D".to_owned(),
        }
    }
}

/// Pluggable cost judge: the estimated evaluation cost of a
/// qualification term, lower is better. `None` means "cannot score" and
/// rejects the candidate (discovery only emits rules it can defend).
pub trait CostOracle {
    /// Cost of evaluating `t` as a filter qualification.
    fn qual_cost(&self, t: &Term) -> Option<f64>;
}

/// Default oracle: term node count. Deterministic, dependency-free, and
/// monotone with the engine's own [`Rule::is_decreasing`] notion.
#[derive(Debug, Default, Clone, Copy)]
pub struct NodeCountCost;

impl CostOracle for NodeCountCost {
    fn qual_cost(&self, t: &Term) -> Option<f64> {
        Some(t.size() as f64)
    }
}

/// Pluggable differential cross-examiner: return a refutation detail if
/// executing worlds before/after the rewrite ever disagrees.
pub trait DifferentialOracle {
    /// `Some(detail)` refutes the rule; `None` clears it.
    fn refute(&self, rule: &Rule) -> Option<String>;
}

/// Default oracle: no differential harness available (the bounded prover
/// remains the gate).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoDifferential;

impl DifferentialOracle for NoDifferential {
    fn refute(&self, _rule: &Rule) -> Option<String> {
        None
    }
}

/// Survival-funnel accounting for one discovery run. Every enumerated
/// shape is attributed to exactly one fate; nothing is silently dropped.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Funnel {
    /// Boolean-rooted terms enumerated (after symmetry pruning).
    pub terms_enumerated: usize,
    /// Symmetric duplicates skipped during enumeration.
    pub symmetry_pruned: usize,
    /// Term enumeration hit the hard cap.
    pub terms_truncated: bool,
    /// Distinct truth-vector buckets.
    pub buckets: usize,
    /// Candidate (LHS, RHS) pairs formed from the buckets.
    pub candidates: usize,
    /// Candidates dropped because the pair budget was exhausted.
    pub budget_truncated: usize,
    /// Candidates collapsing onto an already-seen canonical form.
    pub renaming_pruned: usize,
    /// Candidates the bounded prover certified outright.
    pub proved: usize,
    /// ... of which needed `NOTNULL` guards.
    pub guarded: usize,
    /// Candidates the prover refuted (bucketing false positives).
    pub refuted: usize,
    /// Prover verdict conditional — side condition not dischargeable.
    pub conditional: usize,
    /// Prover declined — outside its fragment.
    pub unsupported: usize,
    /// Proved but not strictly cost-decreasing under the oracle.
    pub cost_rejected: usize,
    /// Proved and cheaper, but already joinable in the knowledge base.
    pub redundant: usize,
    /// Rejected by the differential oracle.
    pub fuzz_rejected: usize,
    /// Rules emitted.
    pub emitted: usize,
}

impl fmt::Display for Funnel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} terms (+{} symmetry-pruned) -> {} buckets -> {} candidates \
             (-{} budget, -{} renaming) -> {} proved ({} guarded, {} refuted, \
             {} conditional, {} unsupported) -> {} cost-wins (-{} cost) -> \
             {} novel (-{} redundant) -> {} emitted (-{} fuzz)",
            self.terms_enumerated,
            self.symmetry_pruned,
            self.buckets,
            self.candidates,
            self.budget_truncated,
            self.renaming_pruned,
            self.proved,
            self.guarded,
            self.refuted,
            self.conditional,
            self.unsupported,
            self.proved - self.cost_rejected,
            self.cost_rejected,
            self.proved - self.cost_rejected - self.redundant,
            self.redundant,
            self.emitted,
            self.fuzz_rejected,
        )
    }
}

/// One emitted rule with its provenance.
#[derive(Debug, Clone)]
pub struct Discovered {
    /// The rule, named `<prefix><NNN>` in rank order.
    pub rule: Rule,
    /// Canonical form key (the re-discovery comparison handle).
    pub key: String,
    /// Valuations the prover admitted when certifying it.
    pub valuations: usize,
    /// Cost of the LHS under the oracle.
    pub lhs_cost: f64,
    /// Cost of the RHS under the oracle.
    pub rhs_cost: f64,
    /// The rule needed `NOTNULL` guards.
    pub guarded: bool,
}

/// Result of one discovery run.
#[derive(Debug, Clone)]
pub struct Discovery {
    /// Accepted rules, ranked by descending cost win.
    pub rules: Vec<Discovered>,
    /// Survival-funnel accounting.
    pub funnel: Funnel,
    /// Options echo (for rendering and replay).
    pub seed: u64,
    /// Fragment searched.
    pub fragment: Fragment,
    /// Candidate-pair budget used.
    pub budget: usize,
}

impl Discovery {
    /// Render the run as a loadable `.rules` source: one rule per
    /// survivor plus a finite-limit block so the analyzer sees every
    /// rule reachable and bounded.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "// Discovered rewrite rules (eds-discover).");
        let _ = writeln!(
            out,
            "// seed: {:#x}; fragment: {}; budget: {} candidate pairs",
            self.seed, self.fragment, self.budget
        );
        let _ = writeln!(out, "// funnel: {}", self.funnel);
        for d in &self.rules {
            let _ = writeln!(
                out,
                "// cost {:.1} -> {:.1}{}",
                d.lhs_cost,
                d.rhs_cost,
                if d.guarded {
                    " (sound under the NOTNULL guards)"
                } else {
                    ""
                }
            );
            let _ = writeln!(out, "{} ;", d.rule);
        }
        if !self.rules.is_empty() {
            let names: Vec<&str> = self.rules.iter().map(|d| d.rule.name.as_str()).collect();
            let _ = writeln!(out, "block(discovered, {{{}}}, 100) ;", names.join(", "));
        }
        out
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A candidate before gating.
struct Candidate {
    lhs: usize,
    rhs: usize,
    guarded: bool,
}

/// Variables of `t` in first-occurrence order.
fn vars_of(t: &Term) -> Vec<String> {
    let mut seen = Vec::new();
    fn walk(t: &Term, seen: &mut Vec<String>) {
        match t {
            Term::Var(v) if !seen.iter().any(|s| s == v.as_str()) => {
                seen.push(v.as_str().to_owned());
            }
            Term::App(_, args) => {
                for a in args {
                    walk(a, seen);
                }
            }
            _ => {}
        }
    }
    walk(t, &mut seen);
    seen
}

/// Rename a candidate's variables to the conventional alphabet by kind
/// (`f, g, ...` boolean; `x, y, ...` scalar), first occurrence first.
fn pretty_rename(lhs: &Term, rhs: &Term, guards: &[Term]) -> Option<(Term, Term, Vec<Term>)> {
    let mut kinds = BTreeMap::new();
    classify(lhs, Kind::Bool, &mut kinds).ok()?;
    classify(rhs, Kind::Bool, &mut kinds).ok()?;
    let mut order = vars_of(lhs);
    for v in vars_of(rhs) {
        if !order.contains(&v) {
            order.push(v);
        }
    }
    let bool_pool = ["f", "g", "h", "i"];
    let scalar_pool = ["x", "y", "z", "w"];
    let (mut nb, mut ns) = (0usize, 0usize);
    let mut map = BTreeMap::new();
    for v in order {
        let name = match kinds.get(&v)? {
            Kind::Bool => {
                nb += 1;
                bool_pool.get(nb - 1)?
            }
            Kind::Scalar => {
                ns += 1;
                scalar_pool.get(ns - 1)?
            }
        };
        map.insert(v, (*name).to_owned());
    }
    fn apply(t: &Term, map: &BTreeMap<String, String>) -> Term {
        match t {
            Term::Var(v) => match map.get(v.as_str()) {
                Some(n) => Term::var(n.as_str()),
                None => t.clone(),
            },
            Term::App(h, args) => {
                let a: Vec<Term> = args.iter().map(|x| apply(x, map)).collect();
                Term::App(*h, a.into())
            }
            _ => t.clone(),
        }
    }
    let mut g: Vec<Term> = guards.iter().map(|t| apply(t, &map)).collect();
    g.sort_by_key(ToString::to_string);
    Some((apply(lhs, &map), apply(rhs, &map), g))
}

/// `NOTNULL` guards over every scalar variable of the pair.
fn notnull_guards(lhs: &Term, rhs: &Term) -> Option<Vec<Term>> {
    let mut kinds = BTreeMap::new();
    classify(lhs, Kind::Bool, &mut kinds).ok()?;
    classify(rhs, Kind::Bool, &mut kinds).ok()?;
    let scalars: Vec<&String> = kinds
        .iter()
        .filter(|(_, k)| **k == Kind::Scalar)
        .map(|(v, _)| v)
        .collect();
    if scalars.is_empty() {
        return None;
    }
    Some(
        scalars
            .into_iter()
            .map(|v| Term::app("NOTNULL", vec![Term::var(v.as_str())]))
            .collect(),
    )
}

/// Run the discovery pipeline against an existing knowledge base. See
/// the module docs for the funnel; `existing` both seeds the redundancy
/// oracle and keeps growing as candidates are accepted, so later
/// candidates subsumed by earlier discoveries are rejected too.
pub fn discover_rules(
    existing: &RuleSet,
    methods: &MethodRegistry,
    opts: &DiscoverOptions,
    cost: &dyn CostOracle,
    differential: &dyn DifferentialOracle,
) -> Discovery {
    let vocab = opts.fragment.vocab();
    let mut funnel = Funnel::default();

    // 1. Enumerate.
    let enumerated = enumerate_terms(&vocab, opts.max_term_size, true, MAX_TERMS);
    funnel.terms_enumerated = enumerated.terms.len();
    funnel.symmetry_pruned = enumerated.symmetry_pruned;
    funnel.terms_truncated = enumerated.truncated;

    // 2. Bucket by truth vector (full grid, then scalar-non-NULL
    //    projection for guarded candidates).
    let grid = grid_for(&vocab);
    let nonnull = scalar_nonnull_positions(&grid);
    let mut sigs: Vec<Vec<u8>> = Vec::with_capacity(enumerated.terms.len());
    let mut full_buckets: BTreeMap<Vec<u8>, Vec<usize>> = BTreeMap::new();
    let mut lenient_buckets: BTreeMap<Vec<u8>, Vec<usize>> = BTreeMap::new();
    for (i, t) in enumerated.terms.iter().enumerate() {
        let Some(sig) = signature(t, &grid) else {
            // Cannot happen for enumerated shapes; skip defensively.
            sigs.push(Vec::new());
            continue;
        };
        let projected: Vec<u8> = nonnull.iter().map(|&p| sig[p]).collect();
        full_buckets.entry(sig.clone()).or_default().push(i);
        lenient_buckets.entry(projected).or_default().push(i);
        sigs.push(sig);
    }
    funnel.buckets = full_buckets.len();

    // 3. Form candidate pairs: (larger term -> smallest equivalent).
    let terms = &enumerated.terms;
    let mut candidates: Vec<(usize, u64, Candidate)> = Vec::new();
    let push_pairs = |bucket: &[usize], guarded: bool, out: &mut Vec<(usize, u64, Candidate)>| {
        let mut members = bucket.to_vec();
        members.sort_by_key(|&i| term_key(&terms[i]));
        for (mi, &lhs) in members.iter().enumerate() {
            let lhs_vars: BTreeSet<String> = vars_of(&terms[lhs]).into_iter().collect();
            // Smallest strictly-smaller member whose variables the LHS
            // binds; earlier members are smaller by the sort.
            let rhs = members[..mi].iter().copied().find(|&r| {
                terms[r].size() < terms[lhs].size()
                    && vars_of(&terms[r]).iter().all(|v| lhs_vars.contains(v))
            });
            let Some(rhs) = rhs else { continue };
            if guarded {
                // Only propose a guard when the full grid actually
                // disagrees (else the unguarded pair covers it) and the
                // disagreement is attributable to scalar NULLs.
                if sigs[lhs] == sigs[rhs] {
                    continue;
                }
                if notnull_guards(&terms[lhs], &terms[rhs]).is_none() {
                    continue;
                }
            }
            let order_key = splitmix64(
                splitmix64(opts.seed)
                    ^ fnv1a(&format!("{} --> {}", terms[lhs], terms[rhs]))
                    ^ u64::from(guarded),
            );
            out.push((
                terms[lhs].size(),
                order_key,
                Candidate { lhs, rhs, guarded },
            ));
        }
    };
    for bucket in full_buckets.values() {
        push_pairs(bucket, false, &mut candidates);
    }
    for bucket in lenient_buckets.values() {
        push_pairs(bucket, true, &mut candidates);
    }
    // Seed-deterministic exploration order: smallest LHS first, then a
    // seeded shuffle within each size class.
    candidates.sort_by_key(|a| (a.0, a.1));
    funnel.candidates = candidates.len();
    if candidates.len() > opts.budget {
        funnel.budget_truncated = candidates.len() - opts.budget;
        candidates.truncate(opts.budget);
    }

    // 4. Gate loop: canonical dedup -> prover -> cost -> redundancy ->
    //    differential.
    let env = BasicEnv::new();
    let mut working = existing.clone();
    // Canonical forms already in the knowledge base. The joinability
    // oracle below catches candidates the existing rules *rewrite*
    // away; this set additionally catches mirror images of existing
    // rules (e.g. `NOT(a < b) --> b <= a` when `NOT(x < y) --> x >= y`
    // is registered), which no rule chain joins because nothing relates
    // the mirrored comparators.
    let existing_keys: BTreeSet<String> = existing.iter().map(canonical_rule_key).collect();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut accepted: Vec<Discovered> = Vec::new();
    for (_, _, cand) in candidates {
        if accepted.len() >= opts.max_rules {
            break;
        }
        let (raw_lhs, raw_rhs) = (&terms[cand.lhs], &terms[cand.rhs]);
        let raw_guards = if cand.guarded {
            match notnull_guards(raw_lhs, raw_rhs) {
                Some(g) => g,
                None => continue,
            }
        } else {
            Vec::new()
        };
        let key = canonical_key(raw_lhs, raw_rhs, &raw_guards);
        if !seen.insert(key.clone()) {
            funnel.renaming_pruned += 1;
            continue;
        }
        let Some((lhs, rhs, guards)) = pretty_rename(raw_lhs, raw_rhs, &raw_guards) else {
            funnel.unsupported += 1;
            continue;
        };
        let rule = Rule {
            name: format!("{}cand{}", opts.name_prefix, accepted.len() + 1),
            lhs,
            constraints: guards,
            rhs,
            methods: Vec::new(),
        };
        // Authoritative gate: the bucketing above is a pre-filter, the
        // prover verdict decides.
        let valuations = match check_rule(&rule, methods, &env) {
            Outcome::Proved { valuations } => valuations,
            Outcome::Refuted(_) => {
                funnel.refuted += 1;
                continue;
            }
            Outcome::Conditional(_) => {
                funnel.conditional += 1;
                continue;
            }
            Outcome::Unsupported(_) => {
                funnel.unsupported += 1;
                continue;
            }
        };
        funnel.proved += 1;
        if cand.guarded {
            funnel.guarded += 1;
        }
        let (Some(lc), Some(rc)) = (cost.qual_cost(&rule.lhs), cost.qual_cost(&rule.rhs)) else {
            funnel.cost_rejected += 1;
            continue;
        };
        if rc >= lc {
            funnel.cost_rejected += 1;
            continue;
        }
        // Redundancy: a canonical form the KB already has, or joinable
        // sides, teach the engine nothing new. The working set includes
        // rules accepted earlier in this run.
        if existing_keys.contains(&key)
            || JoinOracle::new(&working, methods).joinable(&rule.lhs, &rule.rhs)
        {
            funnel.redundant += 1;
            continue;
        }
        if differential.refute(&rule).is_some() {
            funnel.fuzz_rejected += 1;
            continue;
        }
        working.add(rule.clone());
        accepted.push(Discovered {
            rule,
            key,
            valuations,
            lhs_cost: lc,
            rhs_cost: rc,
            guarded: cand.guarded,
        });
    }

    // 5. Rank by descending cost win, then inter-reduce: the gate
    //    loop's working set only grew forward, so a rule accepted early
    //    can still be an instance of a more general rule accepted
    //    later. Re-check each survivor, biggest win first, against the
    //    existing KB plus the survivors kept so far — the kept set is
    //    mutually irreducible, so the emitted block carries no shadowed
    //    rules.
    accepted.sort_by(|a, b| {
        let (wa, wb) = (a.lhs_cost - a.rhs_cost, b.lhs_cost - b.rhs_cost);
        wb.partial_cmp(&wa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.key.cmp(&b.key))
    });
    let mut kept = existing.clone();
    accepted.retain(|d| {
        if JoinOracle::new(&kept, methods).joinable(&d.rule.lhs, &d.rule.rhs) {
            funnel.redundant += 1;
            return false;
        }
        kept.add(d.rule.clone());
        true
    });
    for (i, d) in accepted.iter_mut().enumerate() {
        d.rule.name = format!("{}{:03}", opts.name_prefix, i + 1);
    }
    funnel.emitted = accepted.len();

    Discovery {
        rules: accepted,
        funnel,
        seed: opts.seed,
        fragment: opts.fragment,
        budget: opts.budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::{parse_source, SourceItem};

    fn registry() -> MethodRegistry {
        MethodRegistry::with_builtins()
    }

    fn run(opts: &DiscoverOptions, existing: &RuleSet) -> Discovery {
        discover_rules(existing, &registry(), opts, &NodeCountCost, &NoDifferential)
    }

    fn bool_opts() -> DiscoverOptions {
        DiscoverOptions {
            fragment: Fragment::Bool,
            max_term_size: 4,
            ..DiscoverOptions::default()
        }
    }

    #[test]
    fn discovery_on_an_empty_kb_finds_the_boolean_simplifications() {
        let d = run(&bool_opts(), &RuleSet::new());
        assert!(d.funnel.emitted > 0, "{}", d.funnel);
        let keys: Vec<&str> = d.rules.iter().map(|r| r.key.as_str()).collect();
        for src in [
            "W : NOT(NOT(f)) / --> f / ;",
            "W : f AND TRUE / --> f / ;",
            "W : f OR FALSE / --> f / ;",
            "W : NOT(TRUE) / --> FALSE / ;",
        ] {
            let want = match parse_source(src).unwrap().remove(0) {
                SourceItem::Rule(r) => canonical_rule_key(&r),
                _ => unreachable!(),
            };
            assert!(
                keys.contains(&want.as_str()),
                "missing {src} (key {want}); got {keys:#?}"
            );
        }
    }

    #[test]
    fn emitted_canonical_keys_are_unique() {
        let d = run(&DiscoverOptions::default(), &RuleSet::new());
        let mut keys: Vec<&String> = d.rules.iter().map(|r| &r.key).collect();
        let n = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(n, keys.len(), "duplicate canonical forms emitted");
    }

    #[test]
    fn fixed_seed_is_deterministic_end_to_end() {
        let opts = DiscoverOptions::default();
        let a = run(&opts, &RuleSet::new());
        let b = run(&opts, &RuleSet::new());
        assert_eq!(a.funnel, b.funnel);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn every_emitted_rule_is_strictly_decreasing_and_named_in_rank_order() {
        let d = run(&DiscoverOptions::default(), &RuleSet::new());
        let mut last_win = f64::INFINITY;
        for (i, r) in d.rules.iter().enumerate() {
            assert!(r.rhs_cost < r.lhs_cost, "{} not a cost win", r.rule);
            assert!(r.rule.is_decreasing(), "{} not decreasing", r.rule);
            let win = r.lhs_cost - r.rhs_cost;
            assert!(win <= last_win, "ranking not monotone at {}", r.rule);
            last_win = win;
            assert_eq!(r.rule.name, format!("D{:03}", i + 1));
        }
    }

    #[test]
    fn known_rules_are_redundant_and_not_re_emitted() {
        // Seed the KB with the double-negation collapse: discovery must
        // not re-propose it (nor anything its normalizer now joins).
        let mut kb = RuleSet::new();
        let r = match parse_source("NotNot : NOT(NOT(f)) / --> f / ;")
            .unwrap()
            .remove(0)
        {
            SourceItem::Rule(r) => r,
            _ => unreachable!(),
        };
        let key = canonical_rule_key(&r);
        kb.add(r);
        let d = run(&bool_opts(), &kb);
        assert!(d.funnel.redundant > 0, "{}", d.funnel);
        assert!(
            d.rules.iter().all(|x| x.key != key),
            "re-emitted a known rule"
        );
    }

    #[test]
    fn guarded_discoveries_carry_notnull_side_conditions_and_prove() {
        // x = x is TRUE only for non-NULL x: the lenient bucketing must
        // surface it with a NOTNULL(x) guard the prover certifies.
        let opts = DiscoverOptions {
            fragment: Fragment::Cmp,
            ..DiscoverOptions::default()
        };
        let d = run(&opts, &RuleSet::new());
        let guarded: Vec<&Discovered> = d.rules.iter().filter(|r| r.guarded).collect();
        assert!(!guarded.is_empty(), "{}", d.funnel);
        for g in &guarded {
            assert!(
                g.rule.constraints.iter().all(|c| c.is_app("NOTNULL")),
                "{}",
                g.rule
            );
        }
        let want = match parse_source("W : x = x / NOTNULL(x) --> TRUE / ;")
            .unwrap()
            .remove(0)
        {
            SourceItem::Rule(r) => canonical_rule_key(&r),
            _ => unreachable!(),
        };
        assert!(
            d.rules.iter().any(|r| r.key == want),
            "missing x = x / NOTNULL(x) --> TRUE; got {:#?}",
            d.rules.iter().map(|r| r.key.as_str()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn rendered_source_parses_back_and_reverifies() {
        let d = run(&bool_opts(), &RuleSet::new());
        let src = d.render();
        let items = parse_source(&src).expect("rendered source must parse");
        let rules: Vec<Rule> = items
            .into_iter()
            .filter_map(|i| match i {
                SourceItem::Rule(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(rules.len(), d.rules.len());
        let env = BasicEnv::new();
        for r in &rules {
            assert!(
                matches!(check_rule(r, &registry(), &env), Outcome::Proved { .. }),
                "re-parsed {r} no longer proves"
            );
        }
    }

    #[test]
    fn symmetry_pruning_loses_no_provable_candidate() {
        // Brute force: enumerate WITHOUT symmetry pruning, form every
        // prover-certified (larger, smaller) pair, and check its
        // canonical form is reachable from the pruned stream too.
        let vocab = Fragment::Bool.vocab();
        let pruned = enumerate_terms(&vocab, 4, true, usize::MAX);
        let full = enumerate_terms(&vocab, 4, false, usize::MAX);
        let grid = grid_for(&vocab);
        let pruned_keys: BTreeSet<String> = {
            let mut keys = BTreeSet::new();
            let mut buckets: BTreeMap<Vec<u8>, Vec<usize>> = BTreeMap::new();
            for (i, t) in pruned.terms.iter().enumerate() {
                buckets
                    .entry(signature(t, &grid).unwrap())
                    .or_default()
                    .push(i);
            }
            for bucket in buckets.values() {
                for &l in bucket {
                    for &r in bucket {
                        if pruned.terms[r].size() < pruned.terms[l].size() {
                            keys.insert(canonical_key(&pruned.terms[l], &pruned.terms[r], &[]));
                        }
                    }
                }
            }
            keys
        };
        let mut buckets: BTreeMap<Vec<u8>, Vec<usize>> = BTreeMap::new();
        for (i, t) in full.terms.iter().enumerate() {
            buckets
                .entry(signature(t, &grid).unwrap())
                .or_default()
                .push(i);
        }
        let (mut pairs, mut missing) = (0usize, Vec::new());
        for bucket in buckets.values() {
            for &l in bucket {
                for &r in bucket {
                    if full.terms[r].size() >= full.terms[l].size() {
                        continue;
                    }
                    pairs += 1;
                    let key = canonical_key(&full.terms[l], &full.terms[r], &[]);
                    if !pruned_keys.contains(&key) {
                        missing.push(key);
                    }
                }
            }
        }
        assert!(pairs > 0);
        missing.sort();
        missing.dedup();
        assert!(
            missing.is_empty(),
            "symmetry pruning dropped {} provable candidates: {missing:#?}",
            missing.len()
        );
    }
}
