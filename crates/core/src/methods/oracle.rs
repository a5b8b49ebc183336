//! The oracles: `ADDCONSTRAINTS`, `TRANSITIVITY`, `EQSUBST` and
//! `SUBSTITUTE` as they were written before they read their arguments in
//! place — each copies the qualification into a conjunct list, and each
//! list argument into a vector, before it decides anything. The methods
//! must bind exactly what these bind, in the same conjunct order, and
//! fail with the same errors; `tests::in_place_methods_agree_with_the_oracles`
//! holds them to it.

use eds_rewrite::methods::{bind_output, resolve};
use eds_rewrite::{Bindings, RwResult, Term, TermEnv};

use super::{build_and, flatten_and, map_attr_refs, method_err, shift_rels, subst_term, subst_var};

fn resolve_list(arg: &Term, binds: &Bindings) -> Option<Vec<Term>> {
    let r = resolve(arg, binds);
    match r.as_app() {
        Some(("LIST", items)) => Some(items.to_vec()),
        _ => None,
    }
}

fn collect_attr_refs(t: &Term) -> Vec<(i64, i64)> {
    let mut out = Vec::new();
    fn walk(t: &Term, out: &mut Vec<(i64, i64)>) {
        if let Some(ra) = t.as_attr() {
            out.push(ra);
            return;
        }
        if let Term::App(_, args) = t {
            args.iter().for_each(|a| walk(a, out));
        }
    }
    walk(t, &mut out);
    out
}

pub(super) fn substitute(
    args: &[Term],
    binds: &mut Bindings,
    _env: &dyn TermEnv,
) -> RwResult<bool> {
    if args.len() != 5 {
        return Err(method_err("SUBSTITUTE", "expected 5 arguments"));
    }
    let t = resolve(&args[0], binds);
    let xs = resolve_list(&args[1], binds)
        .ok_or_else(|| method_err("SUBSTITUTE", "x* must resolve to a list"))?;
    let z = resolve_list(&args[2], binds)
        .ok_or_else(|| method_err("SUBSTITUTE", "z must resolve to a list"))?;
    let b = resolve_list(&args[3], binds)
        .ok_or_else(|| method_err("SUBSTITUTE", "b must resolve to a list"))?;
    let k = xs.len() as i64;
    let m = z.len() as i64;

    if collect_attr_refs(&t)
        .iter()
        .any(|&(rel, attr)| rel == k + 1 && (attr < 1 || attr as usize > b.len()))
    {
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

pub(super) fn addconstraints(
    args: &[Term],
    binds: &mut Bindings,
    env: &dyn TermEnv,
) -> RwResult<bool> {
    if args.len() != 3 {
        return Err(method_err("ADDCONSTRAINTS", "expected 3 arguments"));
    }
    let inputs = resolve_list(&args[0], binds)
        .ok_or_else(|| method_err("ADDCONSTRAINTS", "l must resolve to a list"))?;
    let f = resolve(&args[1], binds);
    let schemas: Vec<Option<Vec<eds_adt::Type>>> =
        inputs.iter().map(|i| env.rel_schema(i)).collect();

    let mut conjuncts = flatten_and(&f);
    let existing = conjuncts.clone();
    let mut added = false;

    let mut seen_refs: Vec<(i64, i64)> = Vec::new();
    for (rel, attr) in collect_attr_refs(&f) {
        if seen_refs.contains(&(rel, attr)) {
            continue;
        }
        seen_refs.push((rel, attr));
        let Some(Some(schema)) = schemas.get((rel - 1) as usize) else {
            continue;
        };
        let Some(ty) = schema.get((attr - 1) as usize) else {
            continue;
        };
        for template in env.constraints_for(ty) {
            let inst = subst_var(&template, "x", &Term::attr(rel, attr));
            if !existing.contains(&inst) && !conjuncts.contains(&inst) {
                conjuncts.push(inst);
                added = true;
            }
        }
    }
    if !added {
        return Ok(false);
    }
    bind_output(&args[2], build_and(conjuncts), binds, "ADDCONSTRAINTS")
}

pub(super) fn transitivity(
    args: &[Term],
    binds: &mut Bindings,
    _env: &dyn TermEnv,
) -> RwResult<bool> {
    if args.len() != 2 {
        return Err(method_err("TRANSITIVITY", "expected 2 arguments"));
    }
    let f = resolve(&args[0], binds);
    let mut conjuncts = flatten_and(&f);

    let mut eqs: Vec<(Term, Term)> = Vec::new();
    let mut includes: Vec<(Term, Term)> = Vec::new();
    for c in &conjuncts {
        match c.as_app() {
            Some(("=", [l, r])) => {
                eqs.push((l.clone(), r.clone()));
                eqs.push((r.clone(), l.clone()));
            }
            Some(("INCLUDE", [l, r])) => includes.push((l.clone(), r.clone())),
            _ => {}
        }
    }

    let has_eq = |cs: &[Term], a: &Term, b: &Term| {
        cs.iter().any(|c| match c.as_app() {
            Some(("=", [l, r])) => (l == a && r == b) || (l == b && r == a),
            _ => false,
        })
    };
    let mut added = false;
    let snapshot = eqs.clone();
    for (a, b) in &snapshot {
        for (c, d) in &snapshot {
            if b == c && a != d && !has_eq(&conjuncts, a, d) {
                if a.as_const().is_some() && d.as_const().is_some() {
                    continue;
                }
                conjuncts.push(Term::app("=", vec![a.clone(), d.clone()]));
                added = true;
            }
        }
    }
    let inc_snapshot = includes.clone();
    for (a, b) in &inc_snapshot {
        for (c, d) in &inc_snapshot {
            if b == c && a != d {
                let derived = Term::app("INCLUDE", vec![a.clone(), d.clone()]);
                if !conjuncts.contains(&derived) {
                    conjuncts.push(derived);
                    added = true;
                }
            }
        }
    }
    if !added {
        return Ok(false);
    }
    bind_output(&args[1], build_and(conjuncts), binds, "TRANSITIVITY")
}

pub(super) fn eqsubst(args: &[Term], binds: &mut Bindings, _env: &dyn TermEnv) -> RwResult<bool> {
    if args.len() != 2 {
        return Err(method_err("EQSUBST", "expected 2 arguments"));
    }
    let f = resolve(&args[0], binds);
    let mut conjuncts = flatten_and(&f);

    let mut substitutions: Vec<(Term, Term)> = Vec::new();
    for c in &conjuncts {
        if let Some(("=", [l, r])) = c.as_app() {
            match (l.as_const(), r.as_const()) {
                (None, Some(_)) => substitutions.push((l.clone(), r.clone())),
                (Some(_), None) => substitutions.push((r.clone(), l.clone())),
                (None, None) => {
                    substitutions.push((l.clone(), r.clone()));
                    substitutions.push((r.clone(), l.clone()));
                }
                (Some(_), Some(_)) => {}
            }
        }
    }
    let mut added = false;
    let snapshot = conjuncts.clone();
    for (from, to) in &substitutions {
        for c in &snapshot {
            if let Some(("=", [l, r])) = c.as_app() {
                if (l == from && r == to) || (r == from && l == to) {
                    continue;
                }
            }
            let derived = subst_term(c, from, to);
            if derived != *c && !conjuncts.contains(&derived) {
                conjuncts.push(derived);
                added = true;
            }
        }
    }
    if !added {
        return Ok(false);
    }
    bind_output(&args[1], build_and(conjuncts), binds, "EQSUBST")
}
