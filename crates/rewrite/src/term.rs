//! First-order terms with variables and collection variables.
//!
//! Terms are the uniform representation the paper rewrites: LERA operators
//! are interpreted as functions (`SEARCH`, `UNION`, `FIX`, ...), argument
//! collections are the `LIST`/`SET`/`BAG` constructors, qualifications are
//! boolean sub-terms (`AND`, `OR`, comparison functors), and attribute
//! references are `ATTR(i, j)` terms displayed as `i.j`.
//!
//! *Collection variables* (`x*`) stand for argument segments of a
//! collection constructor, "allowing the specification of strategies
//! involving long lists of arguments" (Section 4.1).
//!
//! # Representation
//!
//! The kernel is built for cheap traversal and rebuilding:
//!
//! * names are interned [`Symbol`]s — comparison and hashing never touch
//!   string bytes;
//! * `App` argument vectors are shared [`Args`] nodes (`Arc<[Term]>`), so
//!   cloning a term is one reference-count bump and [`Term::replace_at`]
//!   rebuilds only the spine from the root to the replaced position;
//! * every `App` node caches its subtree size, a structural hash, a
//!   64-bit Bloom fingerprint of the functors and Boolean constants
//!   below it, and a groundness flag. Equality short-circuits on the
//!   hash, [`Term::size`] and [`Term::is_ground`] are O(1), and the
//!   engine prunes whole subtrees that cannot hold a rule's left-hand
//!   side via the fingerprint (`engine::lhs_gate`);
//! * [`Bindings`] are two small vectors whose `clone_from` refills the
//!   target in place, so the engine checks every candidate match on one
//!   reused copy.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use eds_adt::Value;

use crate::symbol::{well_known, Symbol, ToSymbol};

/// Functor names reserved for collection constructors; they get segment
/// (and for `SET`/`BAG` commutative) matching semantics.
pub const COLLECTION_FUNCTORS: [&str; 3] = ["LIST", "SET", "BAG"];

/// The fingerprint bits of the Boolean constants: those of the symbols
/// their literals are written as.
const TRUE_BIT: u64 = Symbol::fp_bit_of("TRUE");
const FALSE_BIT: u64 = Symbol::fp_bit_of("FALSE");

/// A term.
#[derive(Debug, Clone)]
pub enum Term {
    /// An ordinary variable (`x`, `f`, `quali`, `exp'`). Matches exactly
    /// one term.
    Var(Symbol),
    /// A collection (sequence) variable (`x*`). Only legal as a direct
    /// argument of `LIST`/`SET`/`BAG`; matches a segment of arguments.
    SeqVar(Symbol),
    /// A literal constant.
    Const(Value),
    /// A function application `F(t1, ..., tn)`; nullary applications act
    /// as symbolic atoms (relation names, type names).
    App(Symbol, Args),
}

/// Shared, metadata-carrying argument list of an `App` node.
///
/// The arguments live behind an `Arc`, so cloning is O(1) and siblings
/// are structurally shared between a term and its rewritten versions.
/// Construction precomputes the aggregate data equality, sizing, and the
/// engine's fingerprint pruning rely on.
#[derive(Clone)]
pub struct Args {
    items: Arc<[Term]>,
    /// Total node count of the children.
    size: usize,
    /// Order-sensitive combination of the children's structural hashes.
    hash: u64,
    /// OR of the children's fingerprints.
    fp: u64,
    /// True when no child contains a variable of either kind.
    ground: bool,
}

fn mix(a: u64, b: u64) -> u64 {
    // xorshift-multiply combiner; collisions only cost a slice compare.
    let mut h = a.rotate_left(23) ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 29;
    h.wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

impl Args {
    /// Build from a child vector, computing the cached aggregates.
    pub fn from_vec(items: Vec<Term>) -> Args {
        let mut size = 0usize;
        let mut hash = 0x517C_C1B7_2722_0A95_u64;
        let mut fp = 0u64;
        let mut ground = true;
        for t in &items {
            size += t.size();
            hash = mix(hash, t.hash64());
            fp |= t.fingerprint();
            ground &= t.is_ground();
        }
        Args {
            items: items.into(),
            size,
            hash,
            fp,
            ground,
        }
    }

    /// The children as a slice.
    pub fn as_slice(&self) -> &[Term] {
        &self.items
    }
}

impl std::ops::Deref for Args {
    type Target = [Term];

    fn deref(&self) -> &[Term] {
        &self.items
    }
}

impl From<Vec<Term>> for Args {
    fn from(items: Vec<Term>) -> Args {
        Args::from_vec(items)
    }
}

impl FromIterator<Term> for Args {
    fn from_iter<I: IntoIterator<Item = Term>>(iter: I) -> Args {
        Args::from_vec(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Args {
    type Item = &'a Term;
    type IntoIter = std::slice::Iter<'a, Term>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl fmt::Debug for Args {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.items.iter()).finish()
    }
}

impl PartialEq for Args {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.items, &other.items)
            || (self.hash == other.hash
                && self.size == other.size
                && self.items[..] == other.items[..])
    }
}

impl Eq for Args {}

impl Term {
    /// Symbolic atom (nullary application).
    pub fn atom(name: impl Into<Symbol>) -> Term {
        Term::App(name.into(), Args::from_vec(Vec::new()))
    }

    /// Application helper.
    pub fn app(name: impl Into<Symbol>, args: Vec<Term>) -> Term {
        Term::App(name.into(), Args::from_vec(args))
    }

    /// Variable helper.
    pub fn var(name: impl Into<Symbol>) -> Term {
        Term::Var(name.into())
    }

    /// Sequence-variable helper.
    pub fn seq(name: impl Into<Symbol>) -> Term {
        Term::SeqVar(name.into())
    }

    /// Integer literal helper.
    pub fn int(i: i64) -> Term {
        Term::Const(Value::Int(i))
    }

    /// String literal helper.
    pub fn str(s: impl Into<String>) -> Term {
        Term::Const(Value::Str(s.into()))
    }

    /// Boolean literal helper.
    pub fn bool(b: bool) -> Term {
        Term::Const(Value::Bool(b))
    }

    /// `LIST(...)` constructor.
    pub fn list(items: Vec<Term>) -> Term {
        Term::App(well_known::list(), Args::from_vec(items))
    }

    /// `SET(...)` constructor.
    pub fn set(items: Vec<Term>) -> Term {
        Term::App(well_known::set(), Args::from_vec(items))
    }

    /// An `ATTR(i, j)` positional attribute reference (displayed `i.j`).
    pub fn attr(rel: i64, attr: i64) -> Term {
        Term::App(
            well_known::attr(),
            Args::from_vec(vec![Term::int(rel), Term::int(attr)]),
        )
    }

    /// Is this term an application of `head`?
    pub fn is_app(&self, head: &str) -> bool {
        matches!(self, Term::App(h, _) if *h == head)
    }

    /// Application view.
    pub fn as_app(&self) -> Option<(&str, &[Term])> {
        match self {
            Term::App(h, args) => Some((h.as_str(), args.as_slice())),
            _ => None,
        }
    }

    /// The head symbol, when the term is an application.
    pub fn head(&self) -> Option<Symbol> {
        match self {
            Term::App(h, _) => Some(*h),
            _ => None,
        }
    }

    /// Constant view.
    pub fn as_const(&self) -> Option<&Value> {
        match self {
            Term::Const(v) => Some(v),
            _ => None,
        }
    }

    /// `ATTR(i, j)` view.
    pub fn as_attr(&self) -> Option<(i64, i64)> {
        match self.as_app() {
            Some(("ATTR", [Term::Const(Value::Int(i)), Term::Const(Value::Int(j))])) => {
                Some((*i, *j))
            }
            _ => None,
        }
    }

    /// Is the head a collection constructor (segment-matching semantics)?
    pub fn is_collection_ctor(head: &str) -> bool {
        COLLECTION_FUNCTORS.contains(&head)
    }

    /// True when the term contains no variables of either kind. O(1): the
    /// flag is cached per `App` node.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) | Term::SeqVar(_) => false,
            Term::Const(_) => true,
            Term::App(_, args) => args.ground,
        }
    }

    /// Collect the names of ordinary and sequence variables (in order of
    /// first occurrence, deduplicated).
    pub fn variables(&self) -> Vec<&str> {
        fn walk<'a>(t: &'a Term, out: &mut Vec<&'a str>) {
            match t {
                Term::Var(v) | Term::SeqVar(v) => {
                    if !out.contains(&v.as_str()) {
                        out.push(v.as_str());
                    }
                }
                Term::Const(_) => {}
                Term::App(_, args) => {
                    if !args.ground {
                        args.iter().for_each(|a| walk(a, out));
                    }
                }
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Number of nodes in the term (size metric used by termination
    /// arguments: "subsets of rewriting rules can be isolated that either
    /// increase or decrease the number of terms in a query"). O(1): sizes
    /// are cached per `App` node.
    pub fn size(&self) -> usize {
        match self {
            Term::App(_, args) => 1 + args.size,
            _ => 1,
        }
    }

    /// Structural hash of the term; equal terms always hash equal. O(1)
    /// for `App` nodes thanks to the cached child combination.
    pub fn hash64(&self) -> u64 {
        match self {
            Term::Var(v) => mix(0x11, v.hash64()),
            Term::SeqVar(v) => mix(0x22, v.hash64()),
            Term::Const(v) => {
                let mut h = std::collections::hash_map::DefaultHasher::new();
                v.hash(&mut h);
                mix(0x33, h.finish())
            }
            Term::App(head, args) => mix(mix(0x44, head.hash64()), args.hash),
        }
    }

    /// Bloom fingerprint of the functors and Boolean constants anywhere
    /// in this term: bit `fp_bit(F)` is set iff some `App` node below (or
    /// at) this term has head `F`, and a `TRUE` / `FALSE` constant sets
    /// the bit of the symbol `TRUE` / `FALSE`. No false negatives — a
    /// clear bit proves absence.
    pub fn fingerprint(&self) -> u64 {
        match self {
            Term::App(head, args) => head.fp_bit() | args.fp,
            Term::Const(Value::Bool(true)) => TRUE_BIT,
            Term::Const(Value::Bool(false)) => FALSE_BIT,
            _ => 0,
        }
    }

    /// Is one application a reference-count clone of the other — same
    /// head, same argument allocation? Never true of variables and
    /// constants. Equal terms need not share; sharing is what a rewrite
    /// keeps of the subterms it does not rebuild, and this observes it.
    pub fn ptr_eq(&self, other: &Term) -> bool {
        match (self, other) {
            (Term::App(h1, a1), Term::App(h2, a2)) => h1 == h2 && Arc::ptr_eq(&a1.items, &a2.items),
            _ => false,
        }
    }

    /// Iterate over all positions (paths) in the term, pre-order. The root
    /// path is empty.
    pub fn positions(&self) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        fn walk(t: &Term, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            out.push(path.clone());
            if let Term::App(_, args) = t {
                for (i, a) in args.iter().enumerate() {
                    path.push(i);
                    walk(a, path, out);
                    path.pop();
                }
            }
        }
        walk(self, &mut Vec::new(), &mut out);
        out
    }

    /// The subterm at a position; `None` if the path is invalid.
    pub fn at(&self, path: &[usize]) -> Option<&Term> {
        let mut cur = self;
        for &i in path {
            match cur {
                Term::App(_, args) => cur = args.get(i)?,
                _ => return None,
            }
        }
        Some(cur)
    }

    /// Replace the subterm at a position, returning the new term. Only
    /// the spine from the root to `path` is rebuilt; all sibling subtrees
    /// are shared with `self`.
    pub fn replace_at(&self, path: &[usize], replacement: Term) -> Term {
        if path.is_empty() {
            return replacement;
        }
        match self {
            Term::App(h, args) => {
                let mut new_args: Vec<Term> = args.as_slice().to_vec();
                if let Some(slot) = new_args.get_mut(path[0]) {
                    *slot = slot.replace_at(&path[1..], replacement);
                }
                Term::App(*h, Args::from_vec(new_args))
            }
            other => other.clone(),
        }
    }
}

impl PartialEq for Term {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Term::Var(a), Term::Var(b)) | (Term::SeqVar(a), Term::SeqVar(b)) => a == b,
            (Term::Const(a), Term::Const(b)) => a == b,
            (Term::App(h1, a1), Term::App(h2, a2)) => h1 == h2 && a1 == a2,
            _ => false,
        }
    }
}

impl Eq for Term {}

impl Hash for Term {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash64());
    }
}

/// A hasher for keys built of terms: a term writes its cached structural
/// hash as one word, so one widening multiply per word is all the mixing
/// a set needs (std's keyed SipHash would hash each hash again). Equal
/// keys hash alike; nothing here resists a chosen collision.
#[derive(Debug, Clone, Copy, Default)]
pub struct TermHasher(u64);

impl Hasher for TermHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        let p = u128::from(self.0 ^ i) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A set keyed through [`TermHasher`].
pub type TermSet<T> = HashSet<T, BuildHasherDefault<TermHasher>>;
/// A map keyed through [`TermHasher`].
pub type TermMap<K, V> = HashMap<K, V, BuildHasherDefault<TermHasher>>;

impl PartialOrd for Term {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Term {
    /// Structural order identical to the pre-interning derived order
    /// (variant rank, then fields; names compare as strings) — the
    /// matcher's canonical `SET` segment order depends on it being
    /// deterministic across processes.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        fn rank(t: &Term) -> u8 {
            match t {
                Term::Var(_) => 0,
                Term::SeqVar(_) => 1,
                Term::Const(_) => 2,
                Term::App(..) => 3,
            }
        }
        match (self, other) {
            (Term::Var(a), Term::Var(b)) | (Term::SeqVar(a), Term::SeqVar(b)) => a.cmp(b),
            (Term::Const(a), Term::Const(b)) => a.cmp(b),
            (Term::App(h1, a1), Term::App(h2, a2)) => h1
                .cmp(h2)
                .then_with(|| a1.items.iter().cmp(a2.items.iter())),
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

/// A substitution: ordinary variables map to terms, sequence variables to
/// term segments.
///
/// Two small insertion-ordered vectors probed linearly by [`Symbol`]
/// (a pointer comparison): the widest builtin rule binds ten names, so a
/// probe is a handful of compares with no hashing, a copy is two
/// allocations (none when [`Clone::clone_from`] refills a copy that
/// already had the room), and the matcher backtracks by removing the
/// entry it pushed last. Equality ignores insertion order.
#[derive(Debug, Default)]
pub struct Bindings {
    vars: Vec<(Symbol, Term)>,
    seqs: Vec<(Symbol, Vec<Term>)>,
}

fn slot<T>(entries: &[(Symbol, T)], name: Symbol) -> Option<usize> {
    entries.iter().position(|(n, _)| *n == name)
}

fn put<T>(entries: &mut Vec<(Symbol, T)>, name: Symbol, value: T) {
    match slot(entries, name) {
        Some(i) => entries[i].1 = value,
        None => entries.push((name, value)),
    }
}

impl Clone for Bindings {
    fn clone(&self) -> Self {
        Bindings {
            vars: self.vars.clone(),
            seqs: self.seqs.clone(),
        }
    }

    /// Refill `self` in place: both vectors, and each segment vector
    /// `self` already holds, keep their allocation.
    fn clone_from(&mut self, source: &Self) {
        self.vars.clone_from(&source.vars);
        self.seqs.truncate(source.seqs.len());
        let kept = self.seqs.len();
        for ((name, seg), (src_name, src_seg)) in self.seqs.iter_mut().zip(&source.seqs) {
            *name = *src_name;
            seg.clone_from(src_seg);
        }
        self.seqs.extend_from_slice(&source.seqs[kept..]);
    }
}

impl Bindings {
    /// Empty substitution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binding of an ordinary variable.
    pub fn get(&self, name: impl ToSymbol) -> Option<&Term> {
        slot(&self.vars, name.to_symbol()).map(|i| &self.vars[i].1)
    }

    /// Binding of a sequence variable.
    pub fn get_seq(&self, name: impl ToSymbol) -> Option<&[Term]> {
        slot(&self.seqs, name.to_symbol()).map(|i| self.seqs[i].1.as_slice())
    }

    /// Bind an ordinary variable (overwrites).
    pub fn bind(&mut self, name: impl ToSymbol, term: Term) {
        put(&mut self.vars, name.to_symbol(), term);
    }

    /// Bind a sequence variable (overwrites).
    pub fn bind_seq(&mut self, name: impl ToSymbol, terms: Vec<Term>) {
        put(&mut self.seqs, name.to_symbol(), terms);
    }

    /// Remove any binding for `name` (used by the matcher to backtrack).
    /// The remaining names keep their insertion order.
    pub fn remove(&mut self, name: impl ToSymbol) {
        let sym = name.to_symbol();
        if let Some(i) = slot(&self.vars, sym) {
            self.vars.remove(i);
        }
        if let Some(i) = slot(&self.seqs, sym) {
            self.seqs.remove(i);
        }
    }

    /// Whether a name has any binding.
    pub fn contains(&self, name: impl ToSymbol) -> bool {
        let sym = name.to_symbol();
        slot(&self.vars, sym).is_some() || slot(&self.seqs, sym).is_some()
    }

    /// Number of bound names.
    pub fn len(&self) -> usize {
        self.vars.len() + self.seqs.len()
    }

    /// True when nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty() && self.seqs.is_empty()
    }

    /// Apply the substitution to a term. Sequence variables are spliced
    /// into their enclosing argument list. Unbound variables are left in
    /// place (the engine checks rhs groundness separately). Ground
    /// subtrees and bound terms are returned as O(1) shared clones: the
    /// result allocates the non-ground skeleton of `term` and nothing
    /// else.
    pub fn apply(&self, term: &Term) -> Term {
        match term {
            Term::Var(v) => self.get(v).unwrap_or(term).clone(),
            Term::SeqVar(_) => term.clone(), // splicing happens in App args
            Term::Const(_) => term.clone(),
            Term::App(h, args) => {
                if args.ground {
                    return term.clone();
                }
                let mut new_args = Vec::with_capacity(args.len());
                for a in args {
                    match a {
                        Term::SeqVar(v) => match self.get_seq(v) {
                            Some(segment) => new_args.extend_from_slice(segment),
                            None => new_args.push(a.clone()),
                        },
                        other => new_args.push(self.apply(other)),
                    }
                }
                Term::App(*h, Args::from_vec(new_args))
            }
        }
    }

    /// Names of all bound variables: ordinary variables, then sequence
    /// variables, each in the order they were first bound.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        let vars = self.vars.iter().map(|(n, _)| n.as_str());
        vars.chain(self.seqs.iter().map(|(n, _)| n.as_str()))
    }
}

impl PartialEq for Bindings {
    /// Same names bound to the same values, in any insertion order.
    fn eq(&self, other: &Self) -> bool {
        self.vars.len() == other.vars.len()
            && self.seqs.len() == other.seqs.len()
            && self.vars.iter().all(|(n, t)| other.get(n) == Some(t))
            && (self.seqs.iter()).all(|(n, s)| other.get_seq(n) == Some(s.as_slice()))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => f.write_str(v.as_str()),
            Term::SeqVar(v) => write!(f, "{v}*"),
            Term::Const(v) => write!(f, "{v}"),
            Term::App(h, args) => {
                if let Some((i, j)) = self.as_attr() {
                    return write!(f, "{i}.{j}");
                }
                match (h.as_str(), args.len()) {
                    ("AND", 2) => write!(f, "({} AND {})", args[0], args[1]),
                    ("OR", 2) => write!(f, "({} OR {})", args[0], args[1]),
                    ("NOT", 1) => write!(f, "NOT({})", args[0]),
                    ("=" | "<" | ">" | "<=" | ">=" | "<>" | "+" | "-" | "*" | "/", 2) => {
                        write!(f, "({} {} {})", args[0], h, args[1])
                    }
                    (_, 0) => f.write_str(h.as_str()),
                    _ => {
                        write!(f, "{h}(")?;
                        for (i, a) in args.iter().enumerate() {
                            if i > 0 {
                                f.write_str(", ")?;
                            }
                            write!(f, "{a}")?;
                        }
                        f.write_str(")")
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let t = Term::app(
            "SEARCH",
            vec![
                Term::list(vec![Term::atom("FILM")]),
                Term::app("=", vec![Term::attr(1, 1), Term::int(5)]),
                Term::list(vec![Term::attr(1, 2)]),
            ],
        );
        assert_eq!(t.to_string(), "SEARCH(LIST(FILM), (1.1 = 5), LIST(1.2))");
    }

    #[test]
    fn seqvar_display() {
        let t = Term::list(vec![Term::seq("x"), Term::var("u"), Term::seq("y")]);
        assert_eq!(t.to_string(), "LIST(x*, u, y*)");
    }

    #[test]
    fn apply_splices_sequences() {
        let mut b = Bindings::new();
        b.bind_seq("x", vec![Term::atom("A"), Term::atom("B")]);
        b.bind("u", Term::atom("C"));
        let t = Term::list(vec![Term::seq("x"), Term::var("u")]);
        assert_eq!(
            b.apply(&t),
            Term::list(vec![Term::atom("A"), Term::atom("B"), Term::atom("C")])
        );
    }

    #[test]
    fn apply_empty_segment_vanishes() {
        let mut b = Bindings::new();
        b.bind_seq("x", vec![]);
        let t = Term::list(vec![Term::seq("x"), Term::atom("A")]);
        assert_eq!(b.apply(&t), Term::list(vec![Term::atom("A")]));
    }

    #[test]
    fn positions_and_replace() {
        let t = Term::app("F", vec![Term::app("G", vec![Term::int(1)]), Term::int(2)]);
        let positions = t.positions();
        assert_eq!(positions.len(), 4); // F, G, 1, 2
        assert_eq!(t.at(&[0, 0]), Some(&Term::int(1)));
        let replaced = t.replace_at(&[0, 0], Term::int(9));
        assert_eq!(replaced.at(&[0, 0]), Some(&Term::int(9)));
        assert_eq!(replaced.at(&[1]), Some(&Term::int(2)));
    }

    #[test]
    fn variables_in_order() {
        let t = Term::app(
            "F",
            vec![
                Term::var("y"),
                Term::seq("x"),
                Term::var("y"),
                Term::var("z"),
            ],
        );
        assert_eq!(t.variables(), vec!["y", "x", "z"]);
    }

    #[test]
    fn size_counts_nodes() {
        let t = Term::app("F", vec![Term::app("G", vec![Term::int(1)]), Term::int(2)]);
        assert_eq!(t.size(), 4);
    }

    #[test]
    fn attr_roundtrip() {
        let t = Term::attr(2, 3);
        assert_eq!(t.as_attr(), Some((2, 3)));
        assert_eq!(t.to_string(), "2.3");
    }

    #[test]
    fn groundness() {
        assert!(Term::app("F", vec![Term::int(1)]).is_ground());
        assert!(!Term::app("F", vec![Term::var("x")]).is_ground());
        assert!(!Term::list(vec![Term::seq("x")]).is_ground());
    }

    #[test]
    fn replace_at_shares_siblings() {
        let big = Term::app("G", vec![Term::int(1), Term::int(2)]);
        let t = Term::app("F", vec![big.clone(), Term::int(3)]);
        let replaced = t.replace_at(&[1], Term::int(9));
        let (_, args) = replaced.as_app().unwrap();
        // The untouched first child is the same allocation, not a copy.
        match (&args[0], &big) {
            (Term::App(_, a), Term::App(_, b)) => {
                assert!(Arc::ptr_eq(&a.items, &b.items));
            }
            _ => panic!("expected App"),
        }
    }

    #[test]
    fn apply_shares_bound_terms_and_segments() {
        let big = Term::app("G", vec![Term::int(1), Term::int(2)]);
        let other = Term::app("H", vec![Term::int(3)]);
        let mut b = Bindings::new();
        b.bind("u", big.clone());
        b.bind_seq("x", vec![other.clone()]);
        let built = b.apply(&Term::app(
            "F",
            vec![Term::var("u"), Term::list(vec![Term::seq("x")])],
        ));
        let (_, args) = built.as_app().unwrap();
        assert!(args[0].ptr_eq(&big));
        assert!(args[1].as_app().unwrap().1[0].ptr_eq(&other));
        // An equal term built separately is equal, not shared.
        let twin = Term::app("G", vec![Term::int(1), Term::int(2)]);
        assert!(twin == big && !twin.ptr_eq(&big));
    }

    #[test]
    fn bindings_equality_ignores_insertion_order() {
        let mut ab = Bindings::new();
        ab.bind("a", Term::int(1));
        ab.bind("b", Term::int(2));
        ab.bind_seq("s", vec![Term::int(3)]);
        ab.bind_seq("t", vec![]);
        let mut ba = Bindings::new();
        ba.bind_seq("t", vec![]);
        ba.bind_seq("s", vec![Term::int(3)]);
        ba.bind("b", Term::int(2));
        ba.bind("a", Term::int(1));
        assert_eq!(ab, ba);
        // Same names, one different value; then one name fewer.
        ba.bind("a", Term::int(9));
        assert_ne!(ab, ba);
        ba.remove("a");
        assert_ne!(ab, ba);
        assert_ne!(ba, ab);
    }

    #[test]
    fn names_follow_insertion_order() {
        let mut b = Bindings::new();
        for n in ["q", "a", "m"] {
            b.bind(n, Term::int(0));
        }
        b.bind_seq("z", vec![]);
        b.bind_seq("c", vec![]);
        assert_eq!(b.names().collect::<Vec<_>>(), ["q", "a", "m", "z", "c"]);
        // Rebinding keeps a name's place; removing closes the gap.
        b.bind("a", Term::int(1));
        b.remove("q");
        b.remove("z");
        assert_eq!(b.names().collect::<Vec<_>>(), ["a", "m", "c"]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.get("a"), Some(&Term::int(1)));
        assert!(!b.contains("q") && b.contains("c"));
    }

    #[test]
    fn equal_terms_hash_equal() {
        let a = Term::app("F", vec![Term::attr(1, 2), Term::str("x")]);
        let b = Term::app("F", vec![Term::attr(1, 2), Term::str("x")]);
        assert_eq!(a, b);
        assert_eq!(a.hash64(), b.hash64());
        assert_ne!(
            a.hash64(),
            Term::app("F", vec![Term::attr(1, 2), Term::str("y")]).hash64()
        );
    }

    #[test]
    fn fingerprint_proves_absence() {
        let t = Term::app("SEARCH", vec![Term::list(vec![Term::atom("FILM")])]);
        let bit = |name: &str| Symbol::intern(name).fp_bit();
        // Exactly the bits of the three functors: every other bit is
        // clear, and a clear bit proves absence.
        assert_eq!(t.fingerprint(), bit("SEARCH") | bit("LIST") | bit("FILM"));
    }

    #[test]
    fn boolean_constants_reach_every_ancestor() {
        // SEARCH(LIST(R), NOT((1.1 = 2) AND TRUE), LIST(1.1)): TRUE's bit
        // is set on each node from the constant up to the root, and on
        // no node beside that path.
        let eq = Term::app("=", vec![Term::attr(1, 1), Term::int(2)]);
        let and = Term::app("AND", vec![eq.clone(), Term::bool(true)]);
        let not = Term::app("NOT", vec![and.clone()]);
        let root = Term::app(
            "SEARCH",
            vec![
                Term::list(vec![Term::atom("R")]),
                not.clone(),
                Term::list(vec![Term::attr(1, 1)]),
            ],
        );
        assert_eq!(TRUE_BIT, Symbol::intern("TRUE").fp_bit());
        assert_eq!(FALSE_BIT, Symbol::intern("FALSE").fp_bit());
        assert_eq!(Term::bool(true).fingerprint(), TRUE_BIT);
        assert_eq!(Term::bool(false).fingerprint(), FALSE_BIT);
        for ancestor in [&and, &not, &root] {
            assert_ne!(ancestor.fingerprint() & TRUE_BIT, 0, "{ancestor}");
        }
        assert_eq!(eq.fingerprint() & TRUE_BIT, 0);
        assert_eq!(root.at(&[0]).unwrap().fingerprint() & TRUE_BIT, 0);
        // Other constants set no bit.
        for leaf in [Term::int(1), Term::str("TRUE"), Term::Const(Value::Null)] {
            assert_eq!(leaf.fingerprint(), 0, "{leaf}");
        }
        let falsified = root.replace_at(&[1, 0, 1], Term::bool(false));
        assert_ne!(falsified.fingerprint() & FALSE_BIT, 0);
    }

    #[test]
    fn bindings_clone_from_equals_clone_and_keeps_capacity() {
        let mut wide = Bindings::new();
        for (i, n) in ["a", "b", "c", "d"].into_iter().enumerate() {
            wide.bind(n, Term::int(i as i64));
        }
        wide.bind_seq("x", vec![Term::int(1), Term::int(2), Term::int(3)]);
        wide.bind_seq("y", vec![Term::atom("R")]);
        let mut narrow = Bindings::new();
        narrow.bind("q", Term::atom("Q"));
        narrow.bind_seq("x", vec![Term::int(9)]);

        let mut copy = wide.clone();
        assert_eq!(copy, wide);
        let room = (copy.vars.capacity(), copy.seqs.capacity());
        let (vars_at, seqs_at) = (copy.vars.as_ptr(), copy.seqs.as_ptr());
        // A segment refilled in place keeps its own buffer too.
        let seg_at = copy.seqs[0].1.as_ptr();
        copy.clone_from(&narrow);
        assert_eq!(copy.seqs[0].1.as_ptr(), seg_at);
        for source in [&narrow, &wide, &Bindings::new(), &narrow] {
            copy.clone_from(source);
            assert_eq!(copy, source.clone());
            assert_eq!(
                copy.names().collect::<Vec<_>>(),
                source.names().collect::<Vec<_>>()
            );
            assert_eq!((copy.vars.capacity(), copy.seqs.capacity()), room);
            assert_eq!((copy.vars.as_ptr(), copy.seqs.as_ptr()), (vars_at, seqs_at));
        }
    }

    #[test]
    fn ordering_matches_structural_order() {
        // Var < SeqVar < Const < App; Apps by head then args.
        let mut v = vec![
            Term::app("B", vec![]),
            Term::int(1),
            Term::seq("s"),
            Term::var("a"),
            Term::app("A", vec![Term::int(2)]),
            Term::app("A", vec![Term::int(1)]),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                Term::var("a"),
                Term::seq("s"),
                Term::int(1),
                Term::app("A", vec![Term::int(1)]),
                Term::app("A", vec![Term::int(2)]),
                Term::app("B", vec![]),
            ]
        );
    }
}
