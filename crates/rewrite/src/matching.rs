//! Pattern matching with collection variables.
//!
//! Matching is *one-way* (pattern against a ground-ish subject), supports
//! segment matching for `LIST` arguments and commutative (multiset)
//! matching for `SET`/`BAG` arguments — "using sets as arguments eliminates
//! the use of permutation rules, as sets are unordered" (Section 4.1).
//! Because a pattern like `LIST(x*, t, y*)` can match in several ways, the
//! matcher enumerates alternatives through a callback and backtracks; the
//! engine's callback checks rule constraints and accepts the first
//! satisfying match.
//!
//! Backtracking is an unwind, not a copy: one [`Bindings`] is threaded
//! through the whole enumeration, and whoever binds a name removes it
//! again before reporting [`Control::Continue`].

use crate::symbol::well_known;
use crate::term::{Bindings, Term};

/// Continue enumeration or stop?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep enumerating alternative matches.
    Continue,
    /// Stop: the caller accepted this match.
    Stop,
    /// Stop: a `SET`/`BAG` pattern with several collection variables met
    /// this many leftover elements, more than [`MAX_DISTRIBUTED`]. The
    /// enumeration is abandoned, not finished.
    TooWide(usize),
}

/// Most leftover elements a `SET`/`BAG` pattern may distribute over two
/// or more collection variables: the distribution tries every subset, so
/// this many elements already cost 2^20 attempts.
pub const MAX_DISTRIBUTED: usize = 20;

/// Callback invoked once per successful match with the extended bindings.
///
/// The bindings are lent, not given: they are the matcher's own working
/// set. A sink that returns [`Control::Continue`] must leave them as it
/// found them (copy them first to bind more); after any other answer the
/// matcher does not read them again.
pub type MatchSink<'a> = dyn FnMut(&mut Bindings) -> Control + 'a;

/// Enumerate matches of `pattern` against `subject` starting from `binds`.
/// Returns as soon as the sink answers anything but `Control::Continue`,
/// with that answer; when the enumeration ends in `Control::Continue`,
/// `binds` is what it was on entry.
pub fn match_term(
    pattern: &Term,
    subject: &Term,
    binds: &mut Bindings,
    sink: &mut MatchSink<'_>,
) -> Control {
    match pattern {
        Term::Var(v) => {
            if let Some(bound) = binds.get(v) {
                if bound == subject {
                    sink(binds)
                } else {
                    Control::Continue
                }
            } else {
                binds.bind(*v, subject.clone());
                let ctl = sink(binds);
                if ctl == Control::Continue {
                    binds.remove(v);
                }
                ctl
            }
        }
        // A sequence variable is only meaningful inside a collection
        // constructor's argument list; elsewhere it matches nothing.
        Term::SeqVar(_) => Control::Continue,
        Term::Const(p) => match subject {
            Term::Const(s) if p == s => sink(binds),
            _ => Control::Continue,
        },
        Term::App(ph, pargs) => match subject {
            Term::App(sh, sargs) if ph == sh => {
                if *ph == well_known::list() {
                    match_segments(pargs, sargs, binds, sink)
                } else if *ph == well_known::set() {
                    match_multiset(pargs, sargs, binds, sink, true)
                } else if *ph == well_known::bag() {
                    match_multiset(pargs, sargs, binds, sink, false)
                } else if pargs.len() == sargs.len() {
                    match_pairwise(pargs, sargs, binds, sink)
                } else {
                    Control::Continue
                }
            }
            _ => Control::Continue,
        },
    }
}

/// Fixed-arity argument matching.
fn match_pairwise(
    pats: &[Term],
    subs: &[Term],
    binds: &mut Bindings,
    sink: &mut MatchSink<'_>,
) -> Control {
    match (pats.split_first(), subs.split_first()) {
        (None, None) => sink(binds),
        (Some((p0, prest)), Some((s0, srest))) => match_term(p0, s0, binds, &mut |b| {
            match_pairwise(prest, srest, b, sink)
        }),
        _ => Control::Continue,
    }
}

/// Ordered segment matching for `LIST` arguments: sequence variables match
/// contiguous segments; shorter segments are tried first.
fn match_segments(
    pats: &[Term],
    subs: &[Term],
    binds: &mut Bindings,
    sink: &mut MatchSink<'_>,
) -> Control {
    match pats.split_first() {
        None => {
            if subs.is_empty() {
                sink(binds)
            } else {
                Control::Continue
            }
        }
        Some((Term::SeqVar(v), prest)) => {
            if let Some(bound) = binds.get_seq(v) {
                return match subs.strip_prefix(bound) {
                    Some(srest) => match_segments(prest, srest, binds, sink),
                    None => Control::Continue,
                };
            }
            // Minimum subjects the remaining patterns require.
            let min_rest = prest
                .iter()
                .filter(|p| !matches!(p, Term::SeqVar(_)))
                .count();
            let max_take = subs.len().saturating_sub(min_rest);
            // With no sequence variable left in the tail, every later
            // pattern consumes exactly one subject, so this segment's
            // length is forced — trying shorter prefixes would always
            // fail at the end of the list.
            let any_seq_left = prest.iter().any(|p| matches!(p, Term::SeqVar(_)));
            let min_take = if any_seq_left { 0 } else { max_take };
            for take in min_take..=max_take {
                binds.bind_seq(*v, subs[..take].to_vec());
                let ctl = match_segments(prest, &subs[take..], binds, sink);
                if ctl != Control::Continue {
                    return ctl;
                }
                binds.remove(v);
            }
            Control::Continue
        }
        Some((p0, prest)) => match subs.split_first() {
            Some((s0, srest)) => match_term(p0, s0, binds, &mut |b| {
                match_segments(prest, srest, b, sink)
            }),
            None => Control::Continue,
        },
    }
}

/// Commutative (multiset) matching for `SET`/`BAG` arguments. Element
/// patterns may match any remaining subject element; remaining elements
/// are distributed over the sequence variables. With `canonical_order`
/// (sets), collected segments are sorted so bindings are deterministic.
/// Both kinds of pattern are read off `pats` in place: a match that
/// fails on an element pattern allocates nothing.
fn match_multiset(
    pats: &[Term],
    subs: &[Term],
    binds: &mut Bindings,
    sink: &mut MatchSink<'_>,
    canonical_order: bool,
) -> Control {
    let seq_vars = pats.iter().filter(|p| matches!(p, Term::SeqVar(_))).count();
    let elem_pats = pats.len() - seq_vars;
    // Without sequence variables the counts must agree exactly.
    if seq_vars == 0 && elem_pats != subs.len() {
        return Control::Continue;
    }
    if elem_pats > subs.len() {
        return Control::Continue;
    }

    match_elems(pats, pats, subs, binds, sink, canonical_order)
}

/// Match the element patterns of `todo` (its `SeqVar` entries are
/// stepped over) against `remaining`, then distribute what is left over
/// the sequence variables of the whole pattern list `pats`.
fn match_elems(
    todo: &[Term],
    pats: &[Term],
    remaining: &[Term],
    binds: &mut Bindings,
    sink: &mut MatchSink<'_>,
    canonical_order: bool,
) -> Control {
    let next = todo.iter().position(|p| !matches!(p, Term::SeqVar(_)));
    let Some(at) = next else {
        return distribute_rest(remaining, pats, binds, sink, canonical_order);
    };
    let (p0, prest) = (&todo[at], &todo[at + 1..]);
    for (i, candidate) in remaining.iter().enumerate() {
        let mut inner = |b: &mut Bindings| {
            let mut rest: Vec<Term> = remaining.to_vec();
            rest.remove(i);
            match_elems(prest, pats, &rest, b, sink, canonical_order)
        };
        let ctl = match_term(p0, candidate, binds, &mut inner);
        if ctl != Control::Continue {
            return ctl;
        }
    }
    Control::Continue
}

/// Is `bound` the multiset `elems`?
fn same_multiset(bound: &[Term], elems: &[Term]) -> bool {
    if bound.len() != elems.len() {
        return false;
    }
    let (mut bound, mut elems) = (bound.to_vec(), elems.to_vec());
    bound.sort();
    elems.sort();
    bound == elems
}

/// Distribute the leftover multiset elements over the sequence variables
/// of `pats` (its other entries are stepped over), in pattern order.
fn distribute_rest(
    remaining: &[Term],
    pats: &[Term],
    binds: &mut Bindings,
    sink: &mut MatchSink<'_>,
    canonical_order: bool,
) -> Control {
    let mut seq_vars = pats.iter().enumerate().filter_map(|(i, p)| match p {
        Term::SeqVar(v) => Some((i, v)),
        _ => None,
    });
    match (seq_vars.next(), seq_vars.next().is_some()) {
        (None, _) => {
            if remaining.is_empty() {
                sink(binds)
            } else {
                Control::Continue
            }
        }
        (Some((_, v)), false) => {
            // Single (last) sequence variable takes everything left.
            if let Some(bound) = binds.get_seq(v) {
                return if same_multiset(bound, remaining) {
                    sink(binds)
                } else {
                    Control::Continue
                };
            }
            let mut seg = remaining.to_vec();
            if canonical_order {
                seg.sort();
            }
            binds.bind_seq(*v, seg);
            let ctl = sink(binds);
            if ctl == Control::Continue {
                binds.remove(v);
            }
            ctl
        }
        (Some((at, v)), true) => {
            let vrest = &pats[at + 1..];
            // Enumerate subsets for `v` (by index mask); small collections
            // only in practice — rules use at most two collection variables.
            let n = remaining.len();
            if n > MAX_DISTRIBUTED {
                return Control::TooWide(n);
            }
            for mask in 0u64..(1u64 << n) {
                let mut mine = Vec::new();
                let mut rest = Vec::new();
                for (i, t) in remaining.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        mine.push(t.clone());
                    } else {
                        rest.push(t.clone());
                    }
                }
                let ctl = if let Some(bound) = binds.get_seq(v) {
                    if !same_multiset(bound, &mine) {
                        continue;
                    }
                    distribute_rest(&rest, vrest, binds, sink, canonical_order)
                } else {
                    if canonical_order {
                        mine.sort();
                    }
                    binds.bind_seq(*v, mine);
                    let ctl = distribute_rest(&rest, vrest, binds, sink, canonical_order);
                    if ctl == Control::Continue {
                        binds.remove(v);
                    }
                    ctl
                };
                if ctl != Control::Continue {
                    return ctl;
                }
            }
            Control::Continue
        }
    }
}

/// Convenience: the first match of `pattern` against `subject`, if any
/// (none either when the enumeration was abandoned as
/// [`Control::TooWide`]).
pub fn find_match(pattern: &Term, subject: &Term) -> Option<Bindings> {
    let mut result = None;
    let mut binds = Bindings::new();
    let mut sink = |b: &mut Bindings| {
        result = Some(b.clone());
        Control::Stop
    };
    match_term(pattern, subject, &mut binds, &mut sink);
    result
}

/// Convenience: all matches of `pattern` against `subject` (those found
/// so far when the enumeration was abandoned as [`Control::TooWide`]).
pub fn all_matches(pattern: &Term, subject: &Term) -> Vec<Bindings> {
    let mut out = Vec::new();
    let mut binds = Bindings::new();
    let mut sink = |b: &mut Bindings| {
        out.push(b.clone());
        Control::Continue
    };
    match_term(pattern, subject, &mut binds, &mut sink);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: &str) -> Term {
        Term::atom(n)
    }

    #[test]
    fn var_binds_subject() {
        let b = find_match(&Term::var("x"), &a("FILM")).unwrap();
        assert_eq!(b.get("x"), Some(&a("FILM")));
    }

    #[test]
    fn repeated_var_must_agree() {
        let pat = Term::app("F", vec![Term::var("x"), Term::var("x")]);
        assert!(find_match(&pat, &Term::app("F", vec![a("A"), a("A")])).is_some());
        assert!(find_match(&pat, &Term::app("F", vec![a("A"), a("B")])).is_none());
    }

    #[test]
    fn head_and_arity_must_agree() {
        let pat = Term::app("F", vec![Term::var("x")]);
        assert!(find_match(&pat, &Term::app("G", vec![a("A")])).is_none());
        assert!(find_match(&pat, &Term::app("F", vec![a("A"), a("B")])).is_none());
    }

    #[test]
    fn list_segments_enumerate_splits() {
        // LIST(x*, v, y*) against LIST(A, B, C): v can be A, B or C.
        let pat = Term::list(vec![Term::seq("x"), Term::var("v"), Term::seq("y")]);
        let sub = Term::list(vec![a("A"), a("B"), a("C")]);
        let matches = all_matches(&pat, &sub);
        assert_eq!(matches.len(), 3);
        let vs: Vec<&Term> = matches.iter().map(|b| b.get("v").unwrap()).collect();
        assert_eq!(vs, vec![&a("A"), &a("B"), &a("C")]);
        // Segments reconstruct the original list.
        let m = &matches[1];
        assert_eq!(m.get_seq("x").unwrap(), &[a("A")]);
        assert_eq!(m.get_seq("y").unwrap(), &[a("C")]);
    }

    #[test]
    fn list_segment_matching_is_ordered() {
        let pat = Term::list(vec![a("B"), Term::seq("x")]);
        assert!(find_match(&pat, &Term::list(vec![a("A"), a("B")])).is_none());
        assert!(find_match(&pat, &Term::list(vec![a("B"), a("A")])).is_some());
    }

    #[test]
    fn set_matching_is_commutative() {
        // SET(x*, UNION(z)) from the union-merging rule of Figure 7:
        // the nested UNION may sit anywhere in the set.
        let pat = Term::set(vec![
            Term::seq("x"),
            Term::app("UNION", vec![Term::var("z")]),
        ]);
        let sub = Term::set(vec![a("R"), Term::app("UNION", vec![a("S")]), a("T")]);
        let b = find_match(&pat, &sub).unwrap();
        assert_eq!(b.get("z"), Some(&a("S")));
        let mut rest = b.get_seq("x").unwrap().to_vec();
        rest.sort();
        assert_eq!(rest, vec![a("R"), a("T")]);
    }

    #[test]
    fn set_exact_element_count_without_seqvars() {
        let pat = Term::set(vec![Term::var("u"), Term::var("v")]);
        assert!(find_match(&pat, &Term::set(vec![a("A"), a("B")])).is_some());
        assert!(find_match(&pat, &Term::set(vec![a("A")])).is_none());
        assert!(find_match(&pat, &Term::set(vec![a("A"), a("B"), a("C")])).is_none());
    }

    #[test]
    fn two_seqvars_in_list() {
        let pat = Term::list(vec![Term::seq("x"), Term::seq("y")]);
        let sub = Term::list(vec![a("A"), a("B")]);
        let matches = all_matches(&pat, &sub);
        // splits: (0,2) (1,1) (2,0)
        assert_eq!(matches.len(), 3);
    }

    #[test]
    fn two_seqvars_in_set_partition() {
        let pat = Term::set(vec![Term::seq("x"), Term::seq("y")]);
        let sub = Term::set(vec![a("A"), a("B")]);
        let matches = all_matches(&pat, &sub);
        // each of the 2 elements goes to x or y: 4 assignments
        assert_eq!(matches.len(), 4);
    }

    #[test]
    fn bound_seqvar_must_agree() {
        let pat = Term::app(
            "F",
            vec![
                Term::list(vec![Term::seq("x")]),
                Term::list(vec![Term::seq("x")]),
            ],
        );
        let good = Term::app(
            "F",
            vec![
                Term::list(vec![a("A"), a("B")]),
                Term::list(vec![a("A"), a("B")]),
            ],
        );
        let bad = Term::app(
            "F",
            vec![Term::list(vec![a("A")]), Term::list(vec![a("B")])],
        );
        assert!(find_match(&pat, &good).is_some());
        assert!(find_match(&pat, &bad).is_none());
    }

    #[test]
    fn nested_structure_match() {
        // The search-merging pattern skeleton of Figure 7.
        let pat = Term::app(
            "SEARCH",
            vec![
                Term::list(vec![
                    Term::seq("x"),
                    Term::app(
                        "SEARCH",
                        vec![Term::var("z"), Term::var("g"), Term::var("b")],
                    ),
                    Term::seq("v"),
                ]),
                Term::var("f"),
                Term::var("a"),
            ],
        );
        let inner = Term::app(
            "SEARCH",
            vec![
                Term::list(vec![a("FILM")]),
                Term::bool(true),
                Term::list(vec![Term::attr(1, 1)]),
            ],
        );
        let sub = Term::app(
            "SEARCH",
            vec![
                Term::list(vec![a("APPEARS_IN"), inner.clone()]),
                Term::bool(true),
                Term::list(vec![Term::attr(2, 1)]),
            ],
        );
        let b = find_match(&pat, &sub).unwrap();
        assert_eq!(b.get("z"), Some(&Term::list(vec![a("FILM")])));
        assert_eq!(b.get_seq("x").unwrap(), &[a("APPEARS_IN")]);
        assert_eq!(b.get_seq("v").unwrap(), &[] as &[Term]);
    }

    #[test]
    fn seqvar_outside_collection_never_matches() {
        let pat = Term::app("F", vec![Term::seq("x")]);
        assert!(find_match(&pat, &Term::app("F", vec![a("A")])).is_none());
    }

    #[test]
    fn const_matching() {
        assert!(find_match(&Term::int(5), &Term::int(5)).is_some());
        assert!(find_match(&Term::int(5), &Term::int(6)).is_none());
        assert!(find_match(&Term::str("a"), &Term::str("a")).is_some());
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::term::Term;

    fn a(n: &str) -> Term {
        Term::atom(n)
    }

    #[test]
    fn set_with_duplicate_subject_elements() {
        // BAG semantics: SET(u, v) against SET with two equal elements —
        // the matcher sees the term's argument list as given.
        let pat = Term::app("F", vec![Term::set(vec![Term::var("u"), Term::var("v")])]);
        let sub = Term::app("F", vec![Term::set(vec![a("A"), a("A")])]);
        let matches = all_matches(&pat, &sub);
        assert_eq!(matches.len(), 2); // both assignments of the two A's
        for m in matches {
            assert_eq!(m.get("u"), Some(&a("A")));
            assert_eq!(m.get("v"), Some(&a("A")));
        }
    }

    #[test]
    fn bound_var_constrains_set_choice() {
        // F(u, SET(u, x*)): the first argument pins which set element u is.
        let pat = Term::app(
            "F",
            vec![
                Term::var("u"),
                Term::set(vec![Term::var("u"), Term::seq("x")]),
            ],
        );
        let sub = Term::app("F", vec![a("B"), Term::set(vec![a("A"), a("B"), a("C")])]);
        let b = find_match(&pat, &sub).expect("must match");
        assert_eq!(b.get("u"), Some(&a("B")));
        let mut rest = b.get_seq("x").unwrap().to_vec();
        rest.sort();
        assert_eq!(rest, vec![a("A"), a("C")]);
    }

    #[test]
    fn empty_list_pattern_matches_only_empty() {
        let pat = Term::list(vec![]);
        assert!(find_match(&pat, &Term::list(vec![])).is_some());
        assert!(find_match(&pat, &Term::list(vec![a("A")])).is_none());
    }

    #[test]
    fn seqvar_in_pattern_matches_empty_segment_subject() {
        let pat = Term::list(vec![Term::seq("x")]);
        let b = find_match(&pat, &Term::list(vec![])).unwrap();
        assert_eq!(b.get_seq("x").unwrap(), &[] as &[Term]);
    }

    #[test]
    fn list_does_not_match_set() {
        assert!(find_match(&Term::list(vec![Term::seq("x")]), &Term::set(vec![a("A")])).is_none());
    }

    #[test]
    fn deep_nesting_matches() {
        // Pattern and subject nested 10 levels deep.
        let mut pat = Term::var("x");
        let mut sub = Term::int(1);
        for _ in 0..10 {
            pat = Term::app("F", vec![pat]);
            sub = Term::app("F", vec![sub]);
        }
        let b = find_match(&pat, &sub).unwrap();
        assert_eq!(b.get("x"), Some(&Term::int(1)));
    }
}

/// The enumeration itself is behaviour: `rejected` counts and which
/// match a rule takes first both follow from the order matches are
/// offered in.
#[cfg(test)]
mod order_tests {
    use super::*;
    use crate::dsl::parse_term;

    /// One match as text, bindings sorted by name.
    fn render(b: &Bindings) -> String {
        let mut names: Vec<&str> = b.names().collect();
        names.sort_unstable();
        let parts: Vec<String> = names
            .iter()
            .map(|n| match (b.get(*n), b.get_seq(*n)) {
                (Some(t), _) => format!("{n}={t}"),
                (None, Some(seg)) => {
                    let items: Vec<String> = seg.iter().map(ToString::to_string).collect();
                    format!("{n}*=[{}]", items.join(" "))
                }
                (None, None) => unreachable!("{n} is a bound name"),
            })
            .collect();
        parts.join("; ")
    }

    #[test]
    fn matches_come_in_the_recorded_order_and_unwind() {
        for (pat, sub, expected) in CORPUS {
            let (pattern, subject) = (parse_term(pat).unwrap(), parse_term(sub).unwrap());
            let rendered: Vec<String> =
                all_matches(&pattern, &subject).iter().map(render).collect();
            assert_eq!(rendered, *expected, "{pat} against {sub}");

            // The same enumeration through the lending interface: the
            // sink sees each match once, and an enumeration that ends in
            // `Continue` hands the bindings back as it got them.
            let mut binds = Bindings::new();
            let mut seen = 0;
            let ctl = match_term(&pattern, &subject, &mut binds, &mut |b| {
                assert_eq!(render(b), expected[seen], "{pat} against {sub}");
                seen += 1;
                Control::Continue
            });
            assert_eq!((ctl, seen), (Control::Continue, expected.len()), "{pat}");
            assert!(binds.is_empty(), "{pat} against {sub} left {binds:?}");
        }
    }

    #[test]
    fn pre_bound_names_survive_the_unwind() {
        let mut binds = Bindings::new();
        binds.bind("u", Term::atom("B"));
        let before = binds.clone();
        let (pattern, subject) = (
            parse_term("G(LIST(x*, u, y*), SET(u, z*))").unwrap(),
            parse_term("G(LIST(A, B, C, B), SET(C, B))").unwrap(),
        );
        let mut seen = 0;
        match_term(&pattern, &subject, &mut binds, &mut |_| {
            seen += 1;
            Control::Continue
        });
        assert_eq!(seen, 2);
        assert_eq!(binds, before);
    }

    fn union_of(n: usize) -> Term {
        let branches = (0..n).map(|i| Term::atom(format!("R{i}"))).collect();
        Term::app("UNION", vec![Term::set(branches)])
    }

    #[test]
    fn wide_distribution_is_refused_not_asserted() {
        let pattern = parse_term("UNION(SET(x*, y*))").unwrap();
        let mut sink = |_: &mut Bindings| Control::Stop;
        let over = union_of(MAX_DISTRIBUTED + 1);
        let ctl = match_term(&pattern, &over, &mut Bindings::new(), &mut sink);
        assert_eq!(ctl, Control::TooWide(MAX_DISTRIBUTED + 1));
        assert_eq!(find_match(&pattern, &over), None);
        // At the cap the enumeration runs as it always did: the first
        // distribution gives `x*` nothing and `y*` everything.
        let first = find_match(&pattern, &union_of(MAX_DISTRIBUTED)).unwrap();
        assert_eq!(first.get_seq("x"), Some(&[][..]));
        assert_eq!(first.get_seq("y").map(<[Term]>::len), Some(MAX_DISTRIBUTED));
        assert_eq!(all_matches(&pattern, &union_of(10)).len(), 1 << 10);
        // One collection variable takes any width.
        assert!(find_match(&parse_term("UNION(SET(x*, R3))").unwrap(), &over).is_some());
    }

    /// `(pattern, subject, matches in order)`: the edge cases of
    /// `tests/collection_matching.rs`, shared and repeated collection
    /// variables, and the enumeration they produced before bindings
    /// were unwound instead of copied.
    #[rustfmt::skip]
    const CORPUS: &[(&str, &str, &[&str])] = &[
        ("F(LIST(x*))", "F(LIST())", &["x*=[]"]),
        ("F(SET(x*))", "F(SET())", &["x*=[]"]),
        ("F(BAG(x*))", "F(BAG())", &["x*=[]"]),
        ("F(LIST(x*, A, z*))", "F(LIST(A))", &["x*=[]; z*=[]"]),
        ("F(LIST(A, y*, B))", "F(LIST(A, B))", &["y*=[]"]),
        ("F(LIST(A, y*, B))", "F(LIST(A, C, D, B))", &["y*=[C D]"]),
        ("F(SET(x*, G(A)))", "F(SET(G(A)))", &["x*=[]"]),
        ("F(LIST(x*, y*))", "F(LIST(A, B, C))", &["x*=[]; y*=[A B C]", "x*=[A]; y*=[B C]", "x*=[A B]; y*=[C]", "x*=[A B C]; y*=[]"]),
        ("F(LIST(x*, B, y*))", "F(LIST(B, A, B))", &["x*=[]; y*=[A B]", "x*=[B A]; y*=[]"]),
        ("F(LIST(x*, x*))", "F(LIST(A, B, A, B))", &["x*=[A B]"]),
        ("F(LIST(x*, x*))", "F(LIST(A, B, B, A))", &[]),
        ("F(LIST(x*, x*))", "F(LIST(A, B, A))", &[]),
        ("F(LIST(x*, x*))", "F(LIST(A, A))", &["x*=[A]"]),
        ("PAIR(LIST(x*), LIST(x*))", "PAIR(LIST(A, B), LIST(A, B))", &["x*=[A B]"]),
        ("PAIR(LIST(x*), LIST(x*))", "PAIR(LIST(A, B), LIST(B, A))", &[]),
        ("F(SET(x*, G(y, f)))", "F(SET(G(B, TRUE), A, C))", &["f=TRUE; x*=[A C]; y=B"]),
        ("F(SET(x*, G(y, f)))", "F(SET(A, G(B, TRUE), C))", &["f=TRUE; x*=[A C]; y=B"]),
        ("F(SET(x*, G(y, f)))", "F(SET(A, C, G(B, TRUE)))", &["f=TRUE; x*=[A C]; y=B"]),
        ("F(SET(x*, G(y, f)))", "F(SET(G(B, TRUE), A, G(C, FALSE)))", &["f=TRUE; x*=[A G(C, FALSE)]; y=B", "f=FALSE; x*=[A G(B, TRUE)]; y=C"]),
        ("F(BAG(x*, G(y)))", "F(BAG(A, G(B), A))", &["x*=[A A]; y=B"]),
        ("F(SET(G(a), G(b)))", "F(SET(G(A)))", &[]),
        ("F(SET(G(a), G(b)))", "F(SET(G(A), G(B)))", &["a=A; b=B", "a=B; b=A"]),
        ("F(SET(x*, y*))", "F(SET(A, B, C))", &["x*=[]; y*=[A B C]", "x*=[A]; y*=[B C]", "x*=[B]; y*=[A C]", "x*=[A B]; y*=[C]", "x*=[C]; y*=[A B]", "x*=[A C]; y*=[B]", "x*=[B C]; y*=[A]", "x*=[A B C]; y*=[]"]),
        ("F(BAG(x*, y*))", "F(BAG(B, A))", &["x*=[]; y*=[B A]", "x*=[B]; y*=[A]", "x*=[A]; y*=[B]", "x*=[B A]; y*=[]"]),
        ("F(SET(x*, PIVOT))", "F(SET(C, A, PIVOT, B))", &["x*=[A B C]"]),
        ("F(SET(x*, PIVOT))", "F(SET(B, PIVOT, C, A))", &["x*=[A B C]"]),
        ("F(LIST(A, B))", "F(LIST(B, A))", &[]),
        ("F(SET(A, B))", "F(SET(B, A))", &[""]),
        ("PAIR(LIST(x*, y*), LIST(y*, x*))", "PAIR(LIST(A, B, C), LIST(C, A, B))", &["x*=[A B]; y*=[C]"]),
        ("PAIR(LIST(x*, y*), LIST(y*, x*))", "PAIR(LIST(A, A), LIST(A, A))", &["x*=[]; y*=[A A]", "x*=[A]; y*=[A]", "x*=[A A]; y*=[]"]),
        ("F(SET(x*, x*))", "F(SET(A, A, B, B))", &["x*=[A B]", "x*=[A B]", "x*=[A B]", "x*=[A B]"]),
        ("F(SET(x*, x*))", "F(SET(A, B))", &[]),
        ("PAIR(SET(x*, u), SET(x*, v))", "PAIR(SET(A, B, C), SET(C, B, D))", &["u=A; v=D; x*=[B C]"]),
        ("G(u, LIST(x*, u, y*), SET(u, z*))", "G(B, LIST(A, B, C, B), SET(C, B))", &["u=B; x*=[A]; y*=[C B]; z*=[C]", "u=B; x*=[A B C]; y*=[]; z*=[C]"]),
    ];
}
