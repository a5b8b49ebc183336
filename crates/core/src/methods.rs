//! The optimizer's built-in method library.
//!
//! Methods are the external functions rule conclusions call to compute
//! derived bindings (Section 4.1: "these methods can be defined by the
//! database implementor as methods of specific ADTs"; here they are Rust
//! closures registered in the [`MethodRegistry`]).
//!
//! | Method | Role | Used by |
//! |---|---|---|
//! | `SUBSTITUTE(t, x*, z, b, t')` | remap outer attribute refs across a merged search | search merging (Fig 7) |
//! | `SHIFT(t, x*, t')` | shift relation indices of an inlined qualification | search merging (Fig 7) |
//! | `SCHEMA(z, e')` | identity projection list for a relation term | nest pushing (Fig 8) |
//! | `SPLITNEST(f, x*, a, b, fi, fo)` | split a qualification at a nest boundary | nest pushing (Fig 8) |
//! | `ADORNMENT(x*, r, f, s)` | compute the binding signature of a fixpoint | Alexander (Fig 9) |
//! | `ALEXANDER(r, e, x*, f, s, u, f')` | push selection into the fixpoint | Alexander (Fig 9) |
//! | `ADDCONSTRAINTS(l, f, f')` | conjoin applicable integrity constraints | semantic rules (Fig 10/11) |
//! | `TRANSITIVITY(f, f')` | transitivity of `=` and `INCLUDE` | implicit knowledge (Fig 11) |
//! | `EQSUBST(f, f')` | equality substitution of constants | implicit knowledge (Fig 11) |
//! | `SIMPLIFYQ(f, f')` | conjunct-level simplification and inconsistency detection | simplification (Fig 12) |

use std::borrow::Cow;

use eds_adt::Value;
use eds_lera::Scalar;
use eds_rewrite::methods::{bind_output, resolve, MethodSig};
use eds_rewrite::{
    algebra, Bindings, MethodRegistry, RewriteError, RwResult, Term, TermEnv, TermSet,
};

use crate::magic;

#[cfg(test)]
mod oracle;

/// Visit the conjuncts of a qualification in place, left to right: the
/// leaves of its `AND` spine. Every method that reads a qualification
/// walks it through here and copies a conjunct only to bind an output.
fn for_each_conjunct<'a>(f: &'a Term, visit: &mut impl FnMut(&'a Term)) {
    match f.as_app() {
        Some(("AND", [a, b])) => {
            for_each_conjunct(a, visit);
            for_each_conjunct(b, visit);
        }
        _ => visit(f),
    }
}

/// The conjuncts of a qualification, in order, read in place.
fn conjuncts_of(f: &Term) -> Vec<&Term> {
    let mut out = Vec::new();
    for_each_conjunct(f, &mut |c| out.push(c));
    out
}

/// Split a qualification term into its conjuncts.
pub fn flatten_and(t: &Term) -> Vec<Term> {
    conjuncts_of(t).into_iter().cloned().collect()
}

/// Rebuild a conjunction (TRUE for no conjuncts).
pub fn build_and(mut conjuncts: Vec<Term>) -> Term {
    match conjuncts.len() {
        0 => Term::bool(true),
        1 => conjuncts.remove(0),
        _ => {
            let first = conjuncts.remove(0);
            conjuncts
                .into_iter()
                .fold(first, |acc, c| Term::app("AND", vec![acc, c]))
        }
    }
}

/// `t` with each child mapped through `f`: `t` itself, shared and not
/// rebuilt, when every child comes back equal.
fn map_children(t: &Term, f: impl Fn(&Term) -> Term) -> Term {
    let Term::App(h, args) = t else {
        return t.clone();
    };
    let mut rebuilt: Option<Vec<Term>> = None;
    for (i, a) in args.iter().enumerate() {
        let mapped = f(a);
        match &mut rebuilt {
            Some(out) => out.push(mapped),
            None if mapped != *a => {
                let mut out = Vec::with_capacity(args.len());
                out.extend_from_slice(&args[..i]);
                out.push(mapped);
                rebuilt = Some(out);
            }
            None => {}
        }
    }
    match rebuilt {
        Some(out) => Term::App(*h, out.into()),
        None => t.clone(),
    }
}

/// Map every `ATTR(rel, attr)` node through `f`, which answers `None`
/// to keep a reference as it is. Returns `t` itself when nothing changed.
pub fn map_attr_refs(t: &Term, f: &impl Fn(i64, i64) -> Option<Term>) -> Term {
    match t.as_attr() {
        Some((rel, attr)) => f(rel, attr).unwrap_or_else(|| t.clone()),
        None => map_children(t, |a| map_attr_refs(a, f)),
    }
}

/// Does some `(rel, attr)` reference of `t`, visited in order, satisfy
/// `p`? Stops at the first that does; `p` may also just observe.
fn any_attr_ref(t: &Term, p: &mut impl FnMut(i64, i64) -> bool) -> bool {
    match (t.as_attr(), t) {
        (Some((rel, attr)), _) => p(rel, attr),
        (None, Term::App(_, args)) => args.iter().any(|a| any_attr_ref(a, p)),
        (None, _) => false,
    }
}

/// Shift all relation indices by `delta` (`t` itself for a zero shift).
pub fn shift_rels(t: &Term, delta: i64) -> Term {
    if delta == 0 {
        return t.clone();
    }
    map_attr_refs(t, &|rel, attr| Some(Term::attr(rel + delta, attr)))
}

/// An argument under the bindings, read in place where it can be: a
/// variable's binding, a constant or a ground term is borrowed, and only
/// a term with variables inside is resolved into a new one.
fn arg<'a>(t: &'a Term, binds: &'a Bindings) -> Cow<'a, Term> {
    match t {
        Term::Var(v) => Cow::Borrowed(binds.get(v).unwrap_or(t)),
        _ if t.is_ground() => Cow::Borrowed(t),
        _ => Cow::Owned(resolve(t, binds)),
    }
}

/// The items of an argument that should denote a list — a bound
/// collection variable's segment or a `LIST` term — read in place where
/// [`arg`] can.
fn list_arg<'a>(t: &'a Term, binds: &'a Bindings) -> Option<Cow<'a, [Term]>> {
    fn items(t: &Term) -> Option<&[Term]> {
        match t.as_app() {
            Some(("LIST", items)) => Some(items),
            _ => None,
        }
    }
    if let Term::SeqVar(v) = t {
        return binds.get_seq(v).map(Cow::Borrowed);
    }
    match arg(t, binds) {
        Cow::Borrowed(r) => items(r).map(Cow::Borrowed),
        Cow::Owned(r) => items(&r).map(|items| Cow::Owned(items.to_vec())),
    }
}

fn method_err(method: &str, message: impl Into<String>) -> RewriteError {
    RewriteError::MethodFailed {
        method: method.to_owned(),
        message: message.into(),
    }
}

/// Register every optimizer method into a registry, with its declared
/// signature (argument count and 0-based output positions) so rule
/// registration can statically check every call site.
pub fn register_core_methods(reg: &mut MethodRegistry) {
    let sig = |arity, outputs| MethodSig { arity, outputs };
    reg.register_with_sig("SUBSTITUTE", sig(5, &[4]), substitute);
    reg.register_with_sig("SHIFT", sig(3, &[2]), shift);
    reg.register_with_sig("SCHEMA", sig(2, &[1]), schema);
    reg.register_with_sig("SPLITNEST", sig(6, &[4, 5]), splitnest);
    reg.register_with_sig("ADORNMENT", sig(4, &[3]), adornment);
    reg.register_with_sig("ALEXANDER", sig(7, &[5, 6]), alexander);
    reg.register_with_sig("ADDCONSTRAINTS", sig(3, &[2]), addconstraints);
    reg.register_with_sig("TRANSITIVITY", sig(2, &[1]), transitivity);
    reg.register_with_sig("EQSUBST", sig(2, &[1]), eqsubst);
    reg.register_with_sig("SIMPLIFYQ", sig(2, &[1]), simplifyq);
    reg.register_with_sig("REFER", MethodSig::predicate(2), refer);
}

// ------------------------------------------------------- search merging

/// `SUBSTITUTE(t, x*, z, b, t')`: `t` is a qualification or projection
/// list of the *outer* search whose input list was `(x*, SEARCH(z, g, b),
/// v*)`; after merging, the inner inputs `z` are spliced in place of the
/// inner search. References `rel <= k` (into `x*`) are unchanged;
/// `rel == k+1` (the inner search's output) inline the inner projection
/// expression shifted by `k`; `rel > k+1` shift by `|z| - 1`.
///
/// Only the lengths of `x*` and `z` matter and `b` is indexed where it
/// is bound, so the method copies no list.
fn substitute(args: &[Term], binds: &mut Bindings, _env: &dyn TermEnv) -> RwResult<bool> {
    if args.len() != 5 {
        return Err(method_err("SUBSTITUTE", "expected 5 arguments"));
    }
    let t = arg(&args[0], binds);
    let k = list_arg(&args[1], binds)
        .ok_or_else(|| method_err("SUBSTITUTE", "x* must resolve to a list"))?
        .len() as i64;
    let m = list_arg(&args[2], binds)
        .ok_or_else(|| method_err("SUBSTITUTE", "z must resolve to a list"))?
        .len() as i64;
    let b = list_arg(&args[3], binds)
        .ok_or_else(|| method_err("SUBSTITUTE", "b must resolve to a list"))?;

    // Reject out-of-range references into the inner projection.
    if any_attr_ref(&t, &mut |rel, attr| {
        rel == k + 1 && (attr < 1 || attr as usize > b.len())
    }) {
        return Ok(false);
    }
    let new = map_attr_refs(&t, &|rel, attr| {
        if rel <= k {
            None
        } else if rel == k + 1 {
            Some(shift_rels(&b[(attr - 1) as usize], k))
        } else {
            Some(Term::attr(rel + m - 1, attr))
        }
    });
    bind_output(&args[4], new, binds, "SUBSTITUTE")
}

/// `SHIFT(t, x*, t')`: shift every relation index in `t` by the length
/// of the segment `x*` (used to renumber the inner qualification when it
/// is spliced behind `x*`).
fn shift(args: &[Term], binds: &mut Bindings, _env: &dyn TermEnv) -> RwResult<bool> {
    if args.len() != 3 {
        return Err(method_err("SHIFT", "expected 3 arguments"));
    }
    let t = arg(&args[0], binds);
    let k = list_arg(&args[1], binds)
        .ok_or_else(|| method_err("SHIFT", "x* must resolve to a list"))?
        .len() as i64;
    let shifted = shift_rels(&t, k);
    bind_output(&args[2], shifted, binds, "SHIFT")
}

/// `SCHEMA(z, e')`: identity projection list for the relation term (or
/// list of relation terms) `z` — `LIST(1.1, ..., 1.n)`.
fn schema(args: &[Term], binds: &mut Bindings, env: &dyn TermEnv) -> RwResult<bool> {
    if args.len() != 2 {
        return Err(method_err("SCHEMA", "expected 2 arguments"));
    }
    let z = arg(&args[0], binds);
    let inputs: &[Term] = match z.as_app() {
        Some(("LIST", items)) => items,
        _ => std::slice::from_ref(&*z),
    };
    let mut proj = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        let Some(arity) = env.rel_arity(input) else {
            return Ok(false);
        };
        for a in 1..=arity {
            proj.push(Term::attr((i + 1) as i64, a as i64));
        }
    }
    bind_output(&args[1], Term::list(proj), binds, "SCHEMA")
}

/// `REFER(a, f)`: Figure 8's boolean external function — true when some
/// attribute reference of `f` falls in the index list `a`. (The built-in
/// nest-pushing rule uses the richer `SPLITNEST`; `REFER` is provided for
/// user rules written exactly as in the paper.)
fn refer(args: &[Term], binds: &mut Bindings, _env: &dyn TermEnv) -> RwResult<bool> {
    if args.len() != 2 {
        return Err(method_err("REFER", "expected 2 arguments"));
    }
    let attrs = list_arg(&args[0], binds)
        .ok_or_else(|| method_err("REFER", "first argument must be an index list"))?;
    let indices: Vec<i64> = attrs
        .iter()
        .filter_map(|t| t.as_const().and_then(|v| v.as_int().ok()))
        .collect();
    let f = arg(&args[1], binds);
    Ok(any_attr_ref(&f, &mut |_, attr| indices.contains(&attr)))
}

// --------------------------------------------------------- nest pushing

/// `SPLITNEST(f, x*, a, b, fi, fo)`: the nest operator sits at input
/// position `k = |x*| + 1`; its output exposes the group attributes
/// (`b`, 1-based positions into the nest input) first and the collection
/// last. A conjunct is *pushable* when all its references are
/// `ATTR(k, i)` with `i` a group position. `fi` receives the pushed
/// conjuncts remapped below the nest (`ATTR(1, b[i])`), `fo` the rest.
/// Fails (returns false) when nothing is pushable.
fn splitnest(args: &[Term], binds: &mut Bindings, _env: &dyn TermEnv) -> RwResult<bool> {
    if args.len() != 6 {
        return Err(method_err("SPLITNEST", "expected 6 arguments"));
    }
    let f = arg(&args[0], binds);
    let k = list_arg(&args[1], binds)
        .ok_or_else(|| method_err("SPLITNEST", "x* must resolve to a list"))?
        .len() as i64
        + 1;
    let group: Vec<i64> = list_arg(&args[3], binds)
        .ok_or_else(|| method_err("SPLITNEST", "group positions must be a list"))?
        .iter()
        .filter_map(|t| t.as_const().and_then(|v| v.as_int().ok()))
        .collect();
    let gl = group.len() as i64;

    let mut pushed = Vec::new();
    let mut rest = Vec::new();
    for_each_conjunct(&f, &mut |c| {
        let mut refs = 0;
        let stray = any_attr_ref(c, &mut |rel, attr| {
            refs += 1;
            !(rel == k && attr >= 1 && attr <= gl)
        });
        if refs > 0 && !stray {
            pushed.push(map_attr_refs(c, &|_, attr| {
                Some(Term::attr(1, group[(attr - 1) as usize]))
            }));
        } else {
            rest.push(c.clone());
        }
    });
    if pushed.is_empty() {
        return Ok(false);
    }
    Ok(
        bind_output(&args[4], build_and(pushed), binds, "SPLITNEST")?
            && bind_output(&args[5], build_and(rest), binds, "SPLITNEST")?,
    )
}

// ------------------------------------------------- fixpoint reduction

/// The comparand of a bound conjunct, when it does not depend on the
/// fixpoint's tuples: a constant or a statement parameter (`PARAM(i)`
/// leaf). The reduction only *relocates* the comparand into the seed
/// and never reads its value, so a `?` seeds exactly as a literal does.
fn seed_comparand(t: &Term) -> Option<Scalar> {
    match t.as_app() {
        None => t.as_const().cloned().map(Scalar::Const),
        Some(("PARAM", [_])) => eds_lera::scalar_from_term(t).ok(),
        Some(_) => None,
    }
}

/// Bound conjuncts of `f` for the relation at position `k`: conjuncts of
/// the form `ATTR(k, j) = c` (either orientation) with `c` a constant or
/// a statement parameter. Returns `(j, c, conjunct)` triples.
fn bound_conjuncts(f: &Term, k: i64) -> Vec<(usize, Scalar, &Term)> {
    let mut out = Vec::new();
    for_each_conjunct(f, &mut |c| {
        if let Some(("=", [l, r])) = c.as_app() {
            let pair = match (l.as_attr(), r.as_attr()) {
                (Some((rel, j)), _) if rel == k => seed_comparand(r).map(|v| (j, v)),
                (_, Some((rel, j))) if rel == k => seed_comparand(l).map(|v| (j, v)),
                _ => None,
            };
            if let Some((j, v)) = pair {
                out.push((j as usize, v, c));
            }
        }
    });
    out
}

/// `ADORNMENT(x*, r, f, s)`: compute the binding signature of the
/// fixpoint `r` sitting at input position `|x*| + 1` under qualification
/// `f` — e.g. `"fb"` when the second attribute is bound by a constant or
/// a statement parameter.
/// Fails when no attribute is bound (nothing to push).
fn adornment(args: &[Term], binds: &mut Bindings, env: &dyn TermEnv) -> RwResult<bool> {
    if args.len() != 4 {
        return Err(method_err("ADORNMENT", "expected 4 arguments"));
    }
    let k = list_arg(&args[0], binds)
        .ok_or_else(|| method_err("ADORNMENT", "x* must resolve to a list"))?
        .len() as i64
        + 1;
    let r = arg(&args[1], binds);
    let f = arg(&args[2], binds);
    let bound = bound_conjuncts(&f, k);
    if bound.is_empty() {
        return Ok(false);
    }
    let arity = env
        .rel_arity(&r)
        .unwrap_or_else(|| bound.iter().map(|(j, _, _)| *j).max().unwrap_or(1));
    let sig: String = (1..=arity)
        .map(|j| {
            if bound.iter().any(|(bj, _, _)| *bj == j) {
                'b'
            } else {
                'f'
            }
        })
        .collect();
    bind_output(&args[3], Term::str(sig), binds, "ADORNMENT")
}

/// `ALEXANDER(r, e, x*, f, s, u, f')`: apply the Alexander/magic-sets
/// transformation to the fixpoint `fix(r, e)` given the signature `s`:
/// `u` is bound to the reduced fixpoint (selection pushed into the seed,
/// recursion restricted to relevant facts) and `f'` to the outer
/// qualification with the pushed conjuncts removed. Fails when the
/// fixpoint's shape is outside the supported class (see
/// [`crate::magic`]); the query then stays as-is, which is always safe.
fn alexander(args: &[Term], binds: &mut Bindings, _env: &dyn TermEnv) -> RwResult<bool> {
    if args.len() != 7 {
        return Err(method_err("ALEXANDER", "expected 7 arguments"));
    }
    let r = arg(&args[0], binds);
    let e = arg(&args[1], binds);
    let k = list_arg(&args[2], binds)
        .ok_or_else(|| method_err("ALEXANDER", "x* must resolve to a list"))?
        .len() as i64
        + 1;
    let f = arg(&args[3], binds);
    let name = match r.as_app() {
        Some((n, [])) => n.to_owned(),
        _ => return Ok(false),
    };
    let bound = bound_conjuncts(&f, k);
    if bound.is_empty() {
        return Ok(false);
    }
    let Ok(body) = eds_lera::expr_from_term(&e) else {
        return Ok(false);
    };
    let bindings: Vec<(usize, Scalar)> = bound.iter().map(|(j, v, _)| (*j, v.clone())).collect();
    let Some(reduced) = magic::alexander(&name, &body, &bindings) else {
        return Ok(false);
    };
    let u = eds_lera::expr_to_term(&reduced);
    let removed: Vec<&Term> = bound.iter().map(|(_, _, c)| *c).collect();
    let remaining: Vec<Term> = conjuncts_of(&f)
        .into_iter()
        .filter(|c| !removed.contains(c))
        .cloned()
        .collect();
    Ok(bind_output(&args[5], u, binds, "ALEXANDER")?
        && bind_output(&args[6], build_and(remaining), binds, "ALEXANDER")?)
}

// ------------------------------------------------------ semantic rules
//
// The three methods below are offered every qualification of every
// search and usually derive nothing. Each reads `f` in place and decides
// whether anything new would be derived before it builds a term: the
// conjuncts already present go into a `TermSet` only once a candidate
// exists, and `f` is copied into `f'` only when the method binds it.

/// `ADDCONSTRAINTS(l, f, f')`: for every attribute reference in `f`,
/// instantiate the integrity constraints applicable to its type (via
/// `ISA`, so supertype constraints reach subtypes) and conjoin the ones
/// not already present. Fails when nothing new is added. Asks the
/// environment for an input's schema once, and only when `f` refers to
/// that input.
fn addconstraints(args: &[Term], binds: &mut Bindings, env: &dyn TermEnv) -> RwResult<bool> {
    if args.len() != 3 {
        return Err(method_err("ADDCONSTRAINTS", "expected 3 arguments"));
    }
    let inputs = list_arg(&args[0], binds)
        .ok_or_else(|| method_err("ADDCONSTRAINTS", "l must resolve to a list"))?;
    let f = arg(&args[1], binds);
    let mut schemas: Vec<Option<Option<Vec<eds_adt::Type>>>> = Vec::new();
    let mut instantiated: Vec<(i64, i64)> = Vec::new();
    let mut present: Option<TermSet<Cow<Term>>> = None;
    let mut added: Vec<Term> = Vec::new();
    any_attr_ref(&f, &mut |rel, attr| {
        let Some(input) = usize::try_from(rel - 1).ok().filter(|&i| i < inputs.len()) else {
            return false;
        };
        if schemas.is_empty() {
            schemas.resize(inputs.len(), None);
        }
        let schema = schemas[input].get_or_insert_with(|| env.rel_schema(&inputs[input]));
        let Some(ty) = schema.as_ref().and_then(|s| s.get((attr - 1) as usize)) else {
            return false;
        };
        let templates = env.constraints_for(ty);
        // A reference met again instantiates what its first meeting did.
        if templates.is_empty() || instantiated.contains(&(rel, attr)) {
            return false;
        }
        instantiated.push((rel, attr));
        let present = present
            .get_or_insert_with(|| conjuncts_of(&f).into_iter().map(Cow::Borrowed).collect());
        for template in templates {
            let inst = subst_var(&template, "x", &Term::attr(rel, attr));
            if present.insert(Cow::Owned(inst.clone())) {
                added.push(inst);
            }
        }
        false
    });
    if added.is_empty() {
        return Ok(false);
    }
    let mut conjuncts = flatten_and(&f);
    conjuncts.append(&mut added);
    bind_output(&args[2], build_and(conjuncts), binds, "ADDCONSTRAINTS")
}

fn subst_var(t: &Term, var: &str, replacement: &Term) -> Term {
    match t {
        Term::Var(v) if v == var => replacement.clone(),
        _ => map_children(t, |a| subst_var(a, var, replacement)),
    }
}

/// `TRANSITIVITY(f, f')`: one step of the Figure-11 transitivity rules —
/// `x = y ∧ y = z` adds `x = z`; `INCLUDE(x,y) ∧ INCLUDE(y,z)` adds
/// `INCLUDE(x,z)`. Fails when nothing new can be derived, at once when
/// `f` holds fewer than two of either kind of conjunct.
fn transitivity(args: &[Term], binds: &mut Bindings, _env: &dyn TermEnv) -> RwResult<bool> {
    if args.len() != 2 {
        return Err(method_err("TRANSITIVITY", "expected 2 arguments"));
    }
    let f = arg(&args[0], binds);
    let (mut n_eq, mut n_inc) = (0, 0);
    for_each_conjunct(&f, &mut |c| match c.as_app() {
        Some(("=", [_, _])) => n_eq += 1,
        Some(("INCLUDE", [_, _])) => n_inc += 1,
        _ => {}
    });
    if n_eq < 2 && n_inc < 2 {
        return Ok(false);
    }
    // Equalities in both orientations, inclusions as written.
    let mut eqs: Vec<(&Term, &Term)> = Vec::with_capacity(2 * n_eq);
    let mut includes: Vec<(&Term, &Term)> = Vec::with_capacity(n_inc);
    for_each_conjunct(&f, &mut |c| match c.as_app() {
        Some(("=", [l, r])) => eqs.extend([(l, r), (r, l)]),
        Some(("INCLUDE", [l, r])) => includes.push((l, r)),
        _ => {}
    });

    let mut derived = Vec::new();
    // Every equality present, original or derived, in both orientations.
    let mut eq_present: Option<TermSet<(&Term, &Term)>> = None;
    for &(a, b) in &eqs {
        for &(c, d) in &eqs {
            // Trivial const = const chains are not derived.
            if b != c || a == d || (a.as_const().is_some() && d.as_const().is_some()) {
                continue;
            }
            let present = eq_present.get_or_insert_with(|| eqs.iter().copied().collect());
            if present.insert((a, d)) {
                present.insert((d, a));
                derived.push(Term::app("=", vec![a.clone(), d.clone()]));
            }
        }
    }
    let mut inc_present: Option<TermSet<(&Term, &Term)>> = None;
    for &(a, b) in &includes {
        for &(c, d) in &includes {
            if b != c || a == d {
                continue;
            }
            let present = inc_present.get_or_insert_with(|| includes.iter().copied().collect());
            if present.insert((a, d)) {
                derived.push(Term::app("INCLUDE", vec![a.clone(), d.clone()]));
            }
        }
    }
    if derived.is_empty() {
        return Ok(false);
    }
    let mut conjuncts = flatten_and(&f);
    conjuncts.append(&mut derived);
    bind_output(&args[1], build_and(conjuncts), binds, "TRANSITIVITY")
}

/// `EQSUBST(f, f')`: the Figure-11 equality-substitution rule —
/// `(X = Y) ∧ p(X)` adds `p(Y)`. Constants substitute for terms, and
/// term-for-term substitution is applied in both directions (so
/// `1.3 = 1.4 ∧ 1.3 > 100` derives `1.4 > 100`, exposing cross-conjunct
/// contradictions to the simplifier). Fails when nothing new is derived,
/// at once when `f` holds no equality to substitute by.
fn eqsubst(args: &[Term], binds: &mut Bindings, _env: &dyn TermEnv) -> RwResult<bool> {
    if args.len() != 2 {
        return Err(method_err("EQSUBST", "expected 2 arguments"));
    }
    let f = arg(&args[0], binds);

    // (from, to) substitution pairs from equality conjuncts.
    let mut substitutions: Vec<(&Term, &Term)> = Vec::new();
    for_each_conjunct(&f, &mut |c| {
        if let Some(("=", [l, r])) = c.as_app() {
            match (l.as_const(), r.as_const()) {
                (None, Some(_)) => substitutions.push((l, r)),
                (Some(_), None) => substitutions.push((r, l)),
                // Term-for-term: both directions.
                (None, None) => substitutions.extend([(l, r), (r, l)]),
                (Some(_), Some(_)) => {}
            }
        }
    });
    if substitutions.is_empty() {
        return Ok(false);
    }
    let conjuncts = conjuncts_of(&f);
    let mut present: Option<TermSet<Cow<Term>>> = None;
    let mut derived = Vec::new();
    for &(from, to) in &substitutions {
        for &c in &conjuncts {
            // Skip the defining equality itself.
            if let Some(("=", [l, r])) = c.as_app() {
                if (l == from && r == to) || (r == from && l == to) {
                    continue;
                }
            }
            if !occurs(from, c) {
                continue;
            }
            let d = subst_term(c, from, to);
            let present = present
                .get_or_insert_with(|| conjuncts.iter().map(|&c| Cow::Borrowed(c)).collect());
            if present.insert(Cow::Owned(d.clone())) {
                derived.push(d);
            }
        }
    }
    if derived.is_empty() {
        return Ok(false);
    }
    let mut out: Vec<Term> = conjuncts.into_iter().cloned().collect();
    out.append(&mut derived);
    bind_output(&args[1], build_and(out), binds, "EQSUBST")
}

/// Does `from` occur in `t` (is some subterm of `t` equal to it)?
fn occurs(from: &Term, t: &Term) -> bool {
    t == from
        || matches!(t, Term::App(_, args) if t.size() > from.size()
            && args.iter().any(|a| occurs(from, a)))
}

fn subst_term(t: &Term, from: &Term, to: &Term) -> Term {
    if t == from {
        return to.clone();
    }
    map_children(t, |a| subst_term(a, from, to))
}

/// `SIMPLIFYQ(f, f')`: conjunct-level simplification — drop `TRUE` and
/// duplicate conjuncts, and collapse to `FALSE` when
/// [`algebra::contradicts`] proves that no binding makes every conjunct
/// TRUE (a `FALSE` conjunct, `x > y ∧ x <= y`, `x > 100 ∧ x < 7`,
/// `x = 'a' ∧ x = 'b'`, `x < x`) — the same call the linter makes of
/// rule constraints. `f` is a qualification, which rejects a row on
/// UNKNOWN as on FALSE, so that is all the collapse needs. Fails when `f`
/// is already simplified: nothing dropped and nothing clashing, a clash
/// on `f` = `FALSE` itself, or `f` = `TRUE` alone.
///
/// One walk of the `AND` spine, a dedup through a hash set (a term's
/// hash is cached and its equality short-circuits on it) and one pass
/// of `contradicts`: O(n) expected in the number of conjuncts, so every
/// offer of the rule costs what the qualification's width costs, once.
fn simplifyq(args: &[Term], binds: &mut Bindings, _env: &dyn TermEnv) -> RwResult<bool> {
    if args.len() != 2 {
        return Err(method_err("SIMPLIFYQ", "expected 2 arguments"));
    }
    let f = arg(&args[0], binds);
    let mut seen = TermSet::default();
    let mut kept: Vec<&Term> = Vec::new();
    let mut dropped = false;
    for_each_conjunct(&f, &mut |t| {
        if t.as_const() == Some(&Value::Bool(true)) || !seen.insert(t) {
            dropped = true;
        } else {
            kept.push(t);
        }
    });
    let simplified = if algebra::contradicts(&kept) {
        if f.as_const() == Some(&Value::Bool(false)) {
            return Ok(false);
        }
        Term::bool(false)
    } else if !dropped || f.as_const() == Some(&Value::Bool(true)) {
        return Ok(false);
    } else {
        build_and(kept.into_iter().cloned().collect())
    };
    bind_output(&args[1], simplified, binds, "SIMPLIFYQ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use eds_rewrite::BasicEnv;
    use eds_testkit::rng::StdRng;

    fn call(name: &str, args: Vec<Term>, binds: &mut Bindings) -> RwResult<bool> {
        let mut reg = MethodRegistry::with_builtins();
        register_core_methods(&mut reg);
        let env = BasicEnv::new();
        reg.call(name, &args, binds, &env)
    }

    #[test]
    fn flatten_and_build_roundtrip() {
        let f = Term::app(
            "AND",
            vec![
                Term::app("AND", vec![Term::atom("A"), Term::atom("B")]),
                Term::atom("C"),
            ],
        );
        let cs = flatten_and(&f);
        assert_eq!(cs.len(), 3);
        assert_eq!(flatten_and(&build_and(cs.clone())), cs);
        assert_eq!(build_and(vec![]), Term::bool(true));
    }

    #[test]
    fn substitute_remaps_through_merge() {
        // Outer inputs were (X, SEARCH(z=[R, S], g, b), Y): k=1, m=2.
        // b = (2.1, 1.3): inner output attr 1 is 2.1 (rel shifts +1 -> 3.1).
        let mut binds = Bindings::new();
        binds.bind_seq("xs", vec![Term::atom("X")]);
        binds.bind("z", Term::list(vec![Term::atom("R"), Term::atom("S")]));
        binds.bind("b", Term::list(vec![Term::attr(2, 1), Term::attr(1, 3)]));
        let t = Term::app(
            "AND",
            vec![
                Term::app("=", vec![Term::attr(1, 1), Term::attr(2, 1)]),
                Term::app(">", vec![Term::attr(3, 2), Term::int(5)]),
            ],
        );
        binds.bind("t", t);
        let ok = call(
            "SUBSTITUTE",
            vec![
                Term::var("t"),
                Term::seq("xs"),
                Term::var("z"),
                Term::var("b"),
                Term::var("out"),
            ],
            &mut binds,
        )
        .unwrap();
        assert!(ok);
        // 1.1 unchanged; 2.1 (inner output attr 1) -> b[0]=2.1 shifted +1 = 3.1;
        // 3.2 (after the search) -> rel 3 + (2-1) = 4.2
        assert_eq!(
            binds.get("out").unwrap().to_string(),
            "((1.1 = 3.1) AND (4.2 > 5))"
        );
    }

    #[test]
    fn search_merge_carries_every_input_relation_over() {
        // SearchMerge on a two-level stack: the merged input list is
        // APPEND(x*, z, v*) normalized — a new LIST whose elements are the
        // subject's own relation terms, by reference count.
        let rel = |name: &str| {
            let scan = Term::app(
                "SEARCH",
                vec![
                    Term::list(vec![Term::atom(name)]),
                    Term::app(">", vec![Term::attr(1, 1), Term::int(0)]),
                    Term::list(vec![Term::attr(1, 1)]),
                ],
            );
            Term::app("DEDUP", vec![scan])
        };
        let inputs = [rel("X"), rel("R"), rel("S"), rel("Y")];
        let inner = Term::app(
            "SEARCH",
            vec![
                Term::list(inputs[1..3].to_vec()),
                Term::app("=", vec![Term::attr(1, 1), Term::attr(2, 1)]),
                Term::list(vec![Term::attr(1, 1)]),
            ],
        );
        let outer = Term::app(
            "SEARCH",
            vec![
                Term::list(vec![inputs[0].clone(), inner, inputs[3].clone()]),
                Term::app("=", vec![Term::attr(2, 1), Term::attr(3, 1)]),
                Term::list(vec![Term::attr(1, 1)]),
            ],
        );
        let rw = crate::QueryRewriter::with_default_rules().unwrap();
        let rule = rw.rules().get("SearchMerge").unwrap();
        let mut stats = eds_rewrite::RewriteStats::default();
        let env = BasicEnv::new();
        let (merged, _) =
            eds_rewrite::apply_rule_once(rule, &outer, rw.methods(), &env, &mut stats)
                .unwrap()
                .expect("SearchMerge fires");
        let (_, args) = merged.as_app().unwrap();
        let (_, merged_inputs) = args[0].as_app().unwrap();
        assert_eq!(merged_inputs, &inputs[..]);
        for (got, subject) in merged_inputs.iter().zip(&inputs) {
            assert!(got.ptr_eq(subject), "{got} was rebuilt");
        }
        assert_eq!(args[1].to_string(), "((2.1 = 4.1) AND (2.1 = 3.1))");
    }

    #[test]
    fn unchanged_subterms_are_returned_not_rebuilt() {
        // (1.1 = 5) AND (2.2 > 1.3): a zero shift is the identity on the
        // allocation, and a remap keeps every subterm it does not change.
        let left = Term::app("=", vec![Term::attr(1, 1), Term::int(5)]);
        let right = Term::app(">", vec![Term::attr(2, 2), Term::attr(1, 3)]);
        let q = Term::app("AND", vec![left.clone(), right.clone()]);
        assert!(shift_rels(&q, 0).ptr_eq(&q));
        assert_eq!(shift_rels(&q, 1).to_string(), "((2.1 = 5) AND (3.2 > 2.3))");
        assert!(map_attr_refs(&q, &|_, _| None).ptr_eq(&q));
        let moved = map_attr_refs(&q, &|rel, attr| (rel == 2).then(|| Term::attr(4, attr)));
        assert_eq!(moved.to_string(), "((1.1 = 5) AND (4.2 > 1.3))");
        assert!(moved.at(&[0]).unwrap().ptr_eq(&left));
        assert!(moved.at(&[1, 1]).unwrap().ptr_eq(right.at(&[1]).unwrap()));

        assert!(subst_var(&q, "x", &Term::attr(1, 1)).ptr_eq(&q));
        assert!(subst_term(&q, &Term::attr(9, 9), &Term::int(0)).ptr_eq(&q));
        let folded = subst_term(&q, &Term::attr(2, 2), &Term::int(7));
        assert_eq!(folded.to_string(), "((1.1 = 5) AND (7 > 1.3))");
        assert!(folded.at(&[0]).unwrap().ptr_eq(&left));

        // SearchMerge over a one-input list (a view-stack level): SHIFT by
        // |x*| = 0 hands the inner qualification on as it is.
        let inner_q = Term::app(">", vec![Term::attr(1, 2), Term::int(0)]);
        let inner = Term::app(
            "SEARCH",
            vec![
                Term::list(vec![Term::atom("R")]),
                inner_q.clone(),
                Term::list(vec![Term::attr(1, 1), Term::attr(1, 2)]),
            ],
        );
        let outer = Term::app(
            "SEARCH",
            vec![
                Term::list(vec![inner]),
                Term::app("=", vec![Term::attr(1, 1), Term::int(3)]),
                Term::list(vec![Term::attr(1, 2)]),
            ],
        );
        let rw = crate::QueryRewriter::with_default_rules().unwrap();
        let rule = rw.rules().get("SearchMerge").unwrap();
        let mut stats = eds_rewrite::RewriteStats::default();
        let env = BasicEnv::new();
        let (merged, _) =
            eds_rewrite::apply_rule_once(rule, &outer, rw.methods(), &env, &mut stats)
                .unwrap()
                .expect("SearchMerge fires");
        assert_eq!(
            merged.to_string(),
            "SEARCH(LIST(R), ((1.1 = 3) AND (1.2 > 0)), LIST(1.2))"
        );
        assert!(merged.at(&[1, 1]).unwrap().ptr_eq(&inner_q));
    }

    #[test]
    fn substitute_rejects_out_of_range_projection() {
        let mut binds = Bindings::new();
        binds.bind_seq("xs", vec![]);
        binds.bind("z", Term::list(vec![Term::atom("R")]));
        binds.bind("b", Term::list(vec![Term::attr(1, 1)]));
        binds.bind("t", Term::app("=", vec![Term::attr(1, 9), Term::int(0)]));
        let ok = call(
            "SUBSTITUTE",
            vec![
                Term::var("t"),
                Term::seq("xs"),
                Term::var("z"),
                Term::var("b"),
                Term::var("out"),
            ],
            &mut binds,
        )
        .unwrap();
        assert!(!ok);
    }

    #[test]
    fn shift_renumbers() {
        let mut binds = Bindings::new();
        binds.bind_seq("xs", vec![Term::atom("A"), Term::atom("B")]);
        binds.bind(
            "g",
            Term::app("=", vec![Term::attr(1, 2), Term::attr(2, 1)]),
        );
        let ok = call(
            "SHIFT",
            vec![Term::var("g"), Term::seq("xs"), Term::var("out")],
            &mut binds,
        )
        .unwrap();
        assert!(ok);
        assert_eq!(binds.get("out").unwrap().to_string(), "(3.2 = 4.1)");
    }

    #[test]
    fn splitnest_partitions_conjuncts() {
        // Nest at position 2 (x* = [A]); group positions (1, 2) of the
        // nest input; conjunct on 2.1 pushable, on 2.3 (collection) not,
        // on 1.1 (other relation) not.
        let mut binds = Bindings::new();
        binds.bind_seq("xs", vec![Term::atom("A")]);
        binds.bind("a", Term::list(vec![Term::int(3)]));
        binds.bind("b", Term::list(vec![Term::int(1), Term::int(2)]));
        let f = build_and(vec![
            Term::app("=", vec![Term::attr(2, 1), Term::int(7)]),
            Term::app("MEMBER", vec![Term::int(1), Term::attr(2, 3)]),
            Term::app("=", vec![Term::attr(1, 1), Term::attr(2, 2)]),
        ]);
        binds.bind("f", f);
        let ok = call(
            "SPLITNEST",
            vec![
                Term::var("f"),
                Term::seq("xs"),
                Term::var("a"),
                Term::var("b"),
                Term::var("fi"),
                Term::var("fo"),
            ],
            &mut binds,
        )
        .unwrap();
        assert!(ok);
        // Pushed: 2.1 = 7 with group[0] = 1 -> 1.1 = 7.
        assert_eq!(binds.get("fi").unwrap().to_string(), "(1.1 = 7)");
        let fo = binds.get("fo").unwrap().to_string();
        assert!(fo.contains("MEMBER") && fo.contains("(1.1 = 2.2)"), "{fo}");
    }

    #[test]
    fn splitnest_fails_without_pushable_conjunct() {
        let mut binds = Bindings::new();
        binds.bind_seq("xs", vec![]);
        binds.bind("a", Term::list(vec![Term::int(2)]));
        binds.bind("b", Term::list(vec![Term::int(1)]));
        binds.bind(
            "f",
            Term::app("MEMBER", vec![Term::int(1), Term::attr(1, 2)]),
        );
        let ok = call(
            "SPLITNEST",
            vec![
                Term::var("f"),
                Term::seq("xs"),
                Term::var("a"),
                Term::var("b"),
                Term::var("fi"),
                Term::var("fo"),
            ],
            &mut binds,
        )
        .unwrap();
        assert!(!ok);
    }

    #[test]
    fn transitivity_derives_equality() {
        let mut binds = Bindings::new();
        let f = build_and(vec![
            Term::app("=", vec![Term::attr(1, 1), Term::attr(2, 1)]),
            Term::app("=", vec![Term::attr(2, 1), Term::attr(3, 1)]),
        ]);
        binds.bind("f", f);
        let ok = call(
            "TRANSITIVITY",
            vec![Term::var("f"), Term::var("out")],
            &mut binds,
        )
        .unwrap();
        assert!(ok);
        let out = binds.get("out").unwrap().to_string();
        assert!(out.contains("(1.1 = 3.1)"), "{out}");
        // Re-running on the closure derives nothing new.
        let mut binds2 = Bindings::new();
        binds2.bind("f", binds.get("out").unwrap().clone());
        let again = call(
            "TRANSITIVITY",
            vec![Term::var("f"), Term::var("out")],
            &mut binds2,
        )
        .unwrap();
        assert!(!again);
    }

    #[test]
    fn eqsubst_propagates_constants() {
        let mut binds = Bindings::new();
        let f = build_and(vec![
            Term::app("=", vec![Term::attr(1, 1), Term::int(5)]),
            Term::app(">", vec![Term::attr(1, 1), Term::attr(2, 2)]),
        ]);
        binds.bind("f", f);
        let ok = call(
            "EQSUBST",
            vec![Term::var("f"), Term::var("out")],
            &mut binds,
        )
        .unwrap();
        assert!(ok);
        let out = binds.get("out").unwrap().to_string();
        assert!(out.contains("(5 > 2.2)"), "{out}");
    }

    #[test]
    fn simplifyq_detects_contradiction() {
        let mut binds = Bindings::new();
        // x > y AND x <= y (Figure 12).
        let f = build_and(vec![
            Term::app(">", vec![Term::attr(1, 1), Term::attr(1, 2)]),
            Term::app("<=", vec![Term::attr(1, 1), Term::attr(1, 2)]),
        ]);
        binds.bind("f", f);
        let ok = call(
            "SIMPLIFYQ",
            vec![Term::var("f"), Term::var("out")],
            &mut binds,
        )
        .unwrap();
        assert!(ok);
        assert_eq!(binds.get("out").unwrap(), &Term::bool(false));
    }

    #[test]
    fn simplifyq_mirrored_contradiction() {
        // x > y AND y >= x, written with swapped operands.
        let mut binds = Bindings::new();
        let f = build_and(vec![
            Term::app(">", vec![Term::attr(1, 1), Term::attr(1, 2)]),
            Term::app(">=", vec![Term::attr(1, 2), Term::attr(1, 1)]),
        ]);
        binds.bind("f", f);
        let ok = call(
            "SIMPLIFYQ",
            vec![Term::var("f"), Term::var("out")],
            &mut binds,
        )
        .unwrap();
        assert!(ok);
        assert_eq!(binds.get("out").unwrap(), &Term::bool(false));
    }

    #[test]
    fn simplifyq_conflicting_constant_equalities() {
        let mut binds = Bindings::new();
        let f = build_and(vec![
            Term::app("=", vec![Term::attr(1, 1), Term::str("a")]),
            Term::app("=", vec![Term::attr(1, 1), Term::str("b")]),
        ]);
        binds.bind("f", f);
        let ok = call(
            "SIMPLIFYQ",
            vec![Term::var("f"), Term::var("out")],
            &mut binds,
        )
        .unwrap();
        assert!(ok);
        assert_eq!(binds.get("out").unwrap(), &Term::bool(false));
    }

    #[test]
    fn simplifyq_drops_true_and_duplicates() {
        let mut binds = Bindings::new();
        let c = Term::app("=", vec![Term::attr(1, 1), Term::int(1)]);
        let f = build_and(vec![Term::bool(true), c.clone(), c.clone()]);
        binds.bind("f", f);
        let ok = call(
            "SIMPLIFYQ",
            vec![Term::var("f"), Term::var("out")],
            &mut binds,
        )
        .unwrap();
        assert!(ok);
        assert_eq!(binds.get("out").unwrap(), &c);
    }

    #[test]
    fn simplifyq_noop_on_clean_input() {
        let mut binds = Bindings::new();
        binds.bind("f", Term::app("=", vec![Term::attr(1, 1), Term::int(1)]));
        let ok = call(
            "SIMPLIFYQ",
            vec![Term::var("f"), Term::var("out")],
            &mut binds,
        )
        .unwrap();
        assert!(!ok);
    }

    /// `SIMPLIFYQ` on `f`: the bound `f'`, or `None` when it declines.
    fn simplify(f: Term) -> Option<Term> {
        let mut binds = Bindings::new();
        binds.bind("f", f);
        let args = vec![Term::var("f"), Term::var("out")];
        call("SIMPLIFYQ", args, &mut binds)
            .unwrap()
            .then(|| binds.get("out").unwrap().clone())
    }

    #[test]
    fn simplifyq_early_exit_keeps_the_no_ops() {
        let x_gt = Term::app(">", vec![Term::attr(1, 1), Term::int(3)]);
        let x_lt = Term::app("<", vec![Term::attr(1, 1), Term::int(2)]);
        let y_ne = Term::app("<>", vec![Term::attr(1, 2), Term::int(0)]);
        // `TRUE` and `FALSE` alone are already simple.
        assert_eq!(simplify(Term::bool(true)), None);
        assert_eq!(simplify(Term::bool(false)), None);
        // `TRUE AND TRUE` drops both and rebuilds the empty conjunction.
        let tt = build_and(vec![Term::bool(true), Term::bool(true)]);
        assert_eq!(simplify(tt), Some(Term::bool(true)));
        // Duplicates only: first occurrences kept, in order.
        let dup = build_and(vec![x_gt.clone(), y_ne.clone(), x_gt.clone()]);
        assert_eq!(
            simplify(dup),
            Some(build_and(vec![x_gt.clone(), y_ne.clone()]))
        );
        // A clash collapses whatever the spine's shape, and `FALSE AND
        // FALSE` is not `FALSE`.
        let right_deep = Term::app(
            "AND",
            vec![y_ne.clone(), Term::app("AND", vec![x_gt.clone(), x_lt])],
        );
        assert_eq!(simplify(right_deep), Some(Term::bool(false)));
        let ff = build_and(vec![Term::bool(false), Term::bool(false)]);
        assert_eq!(simplify(ff), Some(Term::bool(false)));
        // Nothing dropped and nothing clashing, in any shape: declined.
        let clean = Term::app("AND", vec![x_gt, y_ne]);
        assert_eq!(simplify(clean), None);
    }

    #[test]
    fn refer_checks_attribute_usage() {
        let mut binds = Bindings::new();
        binds.bind("a", Term::list(vec![Term::int(2), Term::int(3)]));
        binds.bind("f", Term::app("=", vec![Term::attr(1, 2), Term::int(0)]));
        assert!(call("REFER", vec![Term::var("a"), Term::var("f")], &mut binds).unwrap());
        binds.bind("f", Term::app("=", vec![Term::attr(1, 5), Term::int(0)]));
        assert!(!call("REFER", vec![Term::var("a"), Term::var("f")], &mut binds).unwrap());
    }

    #[test]
    fn adornment_computes_signature() {
        let mut binds = Bindings::new();
        binds.bind_seq("xs", vec![]);
        binds.bind("r", Term::atom("BT"));
        binds.bind(
            "f",
            Term::app("=", vec![Term::attr(1, 2), Term::str("Quinn")]),
        );
        let ok = call(
            "ADORNMENT",
            vec![
                Term::seq("xs"),
                Term::var("r"),
                Term::var("f"),
                Term::var("s"),
            ],
            &mut binds,
        )
        .unwrap();
        assert!(ok);
        // BasicEnv knows no arity; signature extends to the max bound attr.
        assert_eq!(binds.get("s").unwrap(), &Term::str("fb"));
    }

    #[test]
    fn adornment_fails_without_bound_attribute() {
        let mut binds = Bindings::new();
        binds.bind_seq("xs", vec![]);
        binds.bind("r", Term::atom("BT"));
        binds.bind(
            "f",
            Term::app("=", vec![Term::attr(1, 2), Term::attr(2, 1)]),
        );
        let ok = call(
            "ADORNMENT",
            vec![
                Term::seq("xs"),
                Term::var("r"),
                Term::var("f"),
                Term::var("s"),
            ],
            &mut binds,
        )
        .unwrap();
        assert!(!ok);
    }

    /// A [`BasicEnv`] that knows two relations' schemas — `R(INT, CHAR)`
    /// and `S(CHAR)` — and holds one integrity constraint, `x > 0` for an
    /// `INT`.
    struct OneConstraintEnv(BasicEnv);

    impl TermEnv for OneConstraintEnv {
        fn functions(&self) -> &eds_adt::FunctionRegistry {
            self.0.functions()
        }
        fn objects(&self) -> &eds_adt::ObjectStore {
            self.0.objects()
        }
        fn types(&self) -> &eds_adt::TypeRegistry {
            self.0.types()
        }
        fn rel_schema(&self, term: &Term) -> Option<Vec<eds_adt::Type>> {
            use eds_adt::Type;
            match term.as_app() {
                Some(("R", [])) => Some(vec![Type::Int, Type::Char]),
                Some(("S", [])) => Some(vec![Type::Char]),
                _ => None,
            }
        }
        fn constraints_for(&self, ty: &eds_adt::Type) -> Vec<Term> {
            match ty {
                eds_adt::Type::Int => vec![Term::app(">", vec![Term::var("x"), Term::int(0)])],
                _ => Vec::new(),
            }
        }
    }

    /// Operands where repeats, orientation and constant equality matter:
    /// four attributes, and INT, REAL (`-0.0`, `0.0`, NaN), STRING and
    /// NULL constants.
    fn random_operand(rng: &mut StdRng) -> Term {
        match rng.gen_range(0..11) {
            0..=5 => Term::attr(rng.gen_range(1..3), rng.gen_range(1..3)),
            6 => Term::int(rng.gen_range(0..2)),
            7 => Term::Const(Value::real([-0.0, 0.0, f64::NAN][rng.gen_range(0..3)])),
            8 => Term::str("a"),
            9 => Term::Const(Value::Null),
            _ => Term::app("+", vec![Term::attr(1, 1), Term::int(1)]),
        }
    }

    /// A random qualification over `=`, `<>`, `<` and `INCLUDE`, with
    /// duplicate conjuncts, constant = constant, `TRUE` and `x > 0` (what
    /// [`OneConstraintEnv`] instantiates), on a random `AND` spine shape.
    fn random_qualification(rng: &mut StdRng) -> Term {
        let mut conjuncts: Vec<Term> = Vec::new();
        for _ in 0..rng.gen_range(1..8) {
            let c = match rng.gen_range(0..12) {
                0 if !conjuncts.is_empty() => conjuncts[rng.gen_range(0..conjuncts.len())].clone(),
                1 => Term::bool(true),
                2 => Term::app("=", vec![Term::int(1), Term::int(rng.gen_range(1..3))]),
                3..=6 => Term::app("=", vec![random_operand(rng), random_operand(rng)]),
                7 => Term::app("<>", vec![random_operand(rng), random_operand(rng)]),
                8 => Term::app("<", vec![random_operand(rng), random_operand(rng)]),
                // The constraint's instance on an attribute, present already.
                9 => Term::app(">", vec![random_operand(rng), Term::int(0)]),
                _ => Term::app("INCLUDE", vec![random_operand(rng), random_operand(rng)]),
            };
            conjuncts.push(c);
        }
        fn spine(rng: &mut StdRng, cs: &[Term]) -> Term {
            if cs.len() == 1 {
                return cs[0].clone();
            }
            let cut = rng.gen_range(1..cs.len());
            let (l, r) = cs.split_at(cut);
            Term::app("AND", vec![spine(rng, l), spine(rng, r)])
        }
        spine(rng, &conjuncts)
    }

    #[test]
    fn in_place_methods_agree_with_the_oracles() {
        type Method = fn(&[Term], &mut Bindings, &dyn TermEnv) -> RwResult<bool>;
        let pairs: [(&str, Method, Method); 4] = [
            ("ADDCONSTRAINTS", addconstraints, oracle::addconstraints),
            ("TRANSITIVITY", transitivity, oracle::transitivity),
            ("EQSUBST", eqsubst, oracle::eqsubst),
            ("SUBSTITUTE", substitute, oracle::substitute),
        ];
        let env = OneConstraintEnv(BasicEnv::new());
        let inputs = [Term::atom("R"), Term::atom("S"), Term::atom("T")];
        let mut rng = StdRng::seed_from_u64(0x0047_0E05);
        let mut outcomes = std::collections::BTreeMap::new();
        for case in 0..20_000 {
            let (name, method, oracle_method) = pairs[case % pairs.len()];
            let mut binds = Bindings::new();
            let f = random_qualification(&mut rng);
            binds.bind("f", f.clone());
            let list = |rng: &mut StdRng, len: usize| -> Vec<Term> {
                (0..len)
                    .map(|_| inputs[rng.gen_range(0..inputs.len())].clone())
                    .collect()
            };
            // A list argument: a bound segment, a bound `LIST`, a `LIST`
            // written in the call, or (rarely) no list at all.
            let list_arg = |rng: &mut StdRng, binds: &mut Bindings, name: &str| {
                let len = rng.gen_range(0..3);
                let items = list(rng, len);
                match rng.gen_range(0..16) {
                    0 => {
                        binds.bind(name, Term::int(0));
                        Term::var(name)
                    }
                    1..=5 => {
                        binds.bind_seq(name, items);
                        Term::seq(name)
                    }
                    6..=10 => {
                        binds.bind(name, Term::list(items));
                        Term::var(name)
                    }
                    _ => Term::list(items),
                }
            };
            // Now and then the output position holds a constant.
            let out = if rng.gen_range(0..30) == 0 {
                Term::bool(true)
            } else {
                Term::var("out")
            };
            let args = match name {
                "ADDCONSTRAINTS" => vec![list_arg(&mut rng, &mut binds, "l"), Term::var("f"), out],
                "SUBSTITUTE" => {
                    let xs = list_arg(&mut rng, &mut binds, "xs");
                    let z = list_arg(&mut rng, &mut binds, "z");
                    let b: Vec<Term> = (0..rng.gen_range(0..3))
                        .map(|_| random_operand(&mut rng))
                        .collect();
                    if rng.gen_range(0..16) == 0 {
                        binds.bind("b", Term::atom("R"));
                    } else {
                        binds.bind("b", Term::list(b));
                    }
                    vec![Term::var("f"), xs, z, Term::var("b"), out]
                }
                _ => vec![Term::var("f"), out],
            };
            // Now and then the output is already bound, making the call a
            // check; or the argument count is wrong.
            match rng.gen_range(0..20) {
                0 => binds.bind("out", f.clone()),
                1 => binds.bind("out", random_qualification(&mut rng)),
                _ => {}
            }
            let args = if rng.gen_range(0..50) == 0 {
                args[1..].to_vec()
            } else {
                args
            };
            let mut want_binds = binds.clone();
            let want = oracle_method(&args, &mut want_binds, &env);
            let got = method(&args, &mut binds, &env);
            assert_eq!(got, want, "case {case}: {name} on {f}");
            let (got_out, want_out) = (binds.get("out"), want_binds.get("out"));
            assert!(
                got_out == want_out,
                "case {case}: {name} on {f} bound {} where the oracle bound {}",
                got_out.map_or("nothing".into(), ToString::to_string),
                want_out.map_or("nothing".into(), ToString::to_string),
            );
            let outcome = match want {
                Ok(true) => "binds",
                Ok(false) => "declines",
                Err(_) => "fails",
            };
            *outcomes.entry((name, outcome)).or_insert(0) += 1;
        }
        // Every method binds, declines and fails often enough to count.
        for (name, _, _) in pairs {
            for outcome in ["binds", "declines", "fails"] {
                let n = outcomes.get(&(name, outcome)).copied().unwrap_or(0);
                assert!(n > 100, "{name} {outcome} {n} times: {outcomes:?}");
            }
        }
    }
}
