//! The Alexander / magic-sets fixpoint reduction (Section 5.3).
//!
//! Given `fix(R, E(R))` queried with some attributes bound to constants
//! or statement parameters, the transformation produces an equivalent
//! fixpoint that "focuses on relevant facts": the binding is pushed into
//! the seed branches, and the recursion only ever extends tuples that
//! already carry the binding. Nothing here reads a comparand's *value* —
//! it is relocated, not evaluated — so a `?` is reduced at rewrite time
//! exactly as a literal is, and every bind array (NULL and wrong-typed
//! binds included) selects in the seed what it selected outside.
//! "This avoids unnecessary translation from algebra to logic, and from
//! logic to algebra" — the transformation is implemented directly on the
//! LERA expression.
//!
//! ## Supported class
//!
//! The body must be a union of *seed* branches (not referencing `R`) and
//! *recursive* branches where each recursive branch is a `search` whose
//! inputs mention `R` either
//!
//! 1. **once** (linear recursion), with every bound attribute projected
//!    unchanged from that occurrence — the binding then provably flows
//!    through the recursion; or
//! 2. **twice in the composition shape** `search((R, R), [1.a = 2.b],
//!    (prefix of 1, suffix of 2))` — the nonlinear transitive-closure
//!    idiom of the paper's `BETTER_THAN` view (Figure 5). Composition is
//!    associative, so the nonlinear fixpoint equals its seed-linear
//!    form `search((seed, R), ...)`, which case 1 then reduces.
//!
//! Anything else returns `None` and the query is left untouched (always
//! safe: the transformation is an optimization, not a requirement).

use eds_lera::{CmpOp, Expr, Scalar};

/// Apply the transformation. `bound` lists `(attribute index (1-based),
/// comparand)` pairs the outer query fixes on the fixpoint's output; a
/// comparand is a `Scalar::Const` or a `Scalar::Param`.
pub fn alexander(name: &str, body: &Expr, bound: &[(usize, Scalar)]) -> Option<Expr> {
    if bound.is_empty() {
        return None;
    }
    let branches: Vec<&Expr> = match body {
        Expr::Union(items) => items.iter().collect(),
        other => vec![other],
    };
    let seeds: Vec<&Expr> = branches
        .iter()
        .copied()
        .filter(|b| !b.references(name))
        .collect();
    let recs: Vec<&Expr> = branches
        .iter()
        .copied()
        .filter(|b| b.references(name))
        .collect();
    if seeds.is_empty() || recs.is_empty() {
        return None;
    }

    // The full (unrestricted) seed, used by the TC linearization.
    let full_seed = union_of(seeds.iter().map(|e| (*e).clone()).collect());

    // Transform every recursive branch into a linear branch that
    // provably preserves the bound attributes (trying both the left- and
    // right-linear forms for the composition idiom).
    let mut new_branches: Vec<Expr> = Vec::new();
    for rec in &recs {
        let linear = linearize(rec, name, &full_seed)?
            .into_iter()
            .find(|cand| check_binding_preserved(cand, name, bound).is_some())?;
        new_branches.push(linear);
    }

    // Restrict the seeds by the pushed selection.
    let pred = Scalar::conjoin(
        bound
            .iter()
            .map(|(j, v)| Scalar::cmp(CmpOp::Eq, Scalar::attr(1, *j), v.clone()))
            .collect(),
    );
    let mut body_items: Vec<Expr> = seeds
        .iter()
        .map(|s| Expr::Filter {
            input: Box::new((*s).clone()),
            pred: pred.clone(),
        })
        .collect();
    body_items.extend(new_branches);

    Some(Expr::Fix {
        name: name.to_owned(),
        body: Box::new(union_of(body_items)),
    })
}

fn union_of(mut items: Vec<Expr>) -> Expr {
    if items.len() == 1 {
        items.remove(0)
    } else {
        Expr::Union(items)
    }
}

/// Positions (1-based) of `Base(name)` among a search's inputs; `None`
/// when the variable occurs anywhere deeper than a direct input.
fn occurrence_positions(inputs: &[Expr], name: &str) -> Option<Vec<usize>> {
    let mut positions = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        match input {
            Expr::Base(n) if n.eq_ignore_ascii_case(name) => positions.push(i + 1),
            other if other.references(name) => return None,
            _ => {}
        }
    }
    Some(positions)
}

/// Produce the candidate *linear* versions of a recursive branch: the
/// branch itself when already linear, or — for the two-occurrence
/// composition idiom — both the seed-left and seed-right linearizations
/// (composition is associative, so both are sound).
fn linearize(branch: &Expr, name: &str, full_seed: &Expr) -> Option<Vec<Expr>> {
    let Expr::Search { inputs, pred, proj } = branch else {
        return None;
    };
    let occurrences = occurrence_positions(inputs, name)?;
    match occurrences.len() {
        1 => Some(vec![branch.clone()]),
        2 => {
            let (p1, p2) = (occurrences[0], occurrences[1]);
            // Strict composition shape: exactly the two occurrences as
            // inputs, one equality conjunct joining them, projection
            // drawing each output attribute from one of the two.
            if inputs.len() != 2 {
                return None;
            }
            let conjuncts = pred.conjuncts();
            if conjuncts.len() != 1 {
                return None;
            }
            let Scalar::Cmp {
                op: CmpOp::Eq,
                left,
                right,
            } = conjuncts[0]
            else {
                return None;
            };
            let (Scalar::Attr { rel: rl, .. }, Scalar::Attr { rel: rr, .. }) =
                (left.as_ref(), right.as_ref())
            else {
                return None;
            };
            if !((*rl == p1 && *rr == p2) || (*rl == p2 && *rr == p1)) {
                return None;
            }
            for p in proj {
                let Scalar::Attr { .. } = p else { return None };
            }
            // Either occurrence may become the seed; the binding check
            // in the caller picks the form that preserves the binding.
            let candidates = [p1, p2]
                .into_iter()
                .map(|replaced| {
                    let mut new_inputs = inputs.clone();
                    new_inputs[replaced - 1] = full_seed.clone();
                    Expr::Search {
                        inputs: new_inputs,
                        pred: pred.clone(),
                        proj: proj.clone(),
                    }
                })
                .collect();
            Some(candidates)
        }
        _ => None,
    }
}

/// A bound attribute `j` is preserved when the branch projects it
/// verbatim from the recursive occurrence: `proj[j-1] == Attr(pos, j)`.
fn check_binding_preserved(branch: &Expr, name: &str, bound: &[(usize, Scalar)]) -> Option<()> {
    let Expr::Search { inputs, proj, .. } = branch else {
        return None;
    };
    let occurrences = occurrence_positions(inputs, name)?;
    let [pos] = occurrences.as_slice() else {
        return None;
    };
    for (j, _) in bound {
        match proj.get(j - 1) {
            Some(Scalar::Attr { rel, attr }) if rel == pos && attr == j => {}
            _ => return None,
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The BETTER_THAN fixpoint of Figure 5:
    /// fix(BT, union({ π(DOMINATE), search((BT, BT), [1.2 = 2.1], (1.1, 2.2)) })).
    fn better_than() -> Expr {
        Expr::Fix {
            name: "BT".into(),
            body: Box::new(Expr::Union(vec![
                seed(),
                Expr::search(
                    vec![Expr::base("BT"), Expr::base("BT")],
                    Scalar::eq(Scalar::attr(1, 2), Scalar::attr(2, 1)),
                    vec![Scalar::attr(1, 1), Scalar::attr(2, 2)],
                ),
            ])),
        }
    }

    fn seed() -> Expr {
        Expr::search(
            vec![Expr::base("DOMINATE")],
            Scalar::true_(),
            vec![Scalar::attr(1, 2), Scalar::attr(1, 3)],
        )
    }

    #[test]
    fn nonlinear_tc_reduced_on_second_attribute() {
        let Expr::Fix { body, .. } = better_than() else {
            unreachable!()
        };
        let bound = vec![(2usize, Scalar::lit("Quinn"))];
        let reduced = alexander("BT", &body, &bound).expect("TC shape should reduce");
        let Expr::Fix { name, body } = &reduced else {
            panic!("expected fix")
        };
        assert_eq!(name, "BT");
        let Expr::Union(items) = body.as_ref() else {
            panic!("expected union body")
        };
        assert_eq!(items.len(), 2);
        // Seed is filtered by the binding.
        let Expr::Filter { pred, .. } = &items[0] else {
            panic!("expected filtered seed, got {}", items[0].op_name())
        };
        assert_eq!(pred.to_string(), "1.2 = 'Quinn'");
        // Recursive branch linearized: (seed, BT).
        let Expr::Search { inputs, .. } = &items[1] else {
            panic!("expected search branch")
        };
        assert!(matches!(&inputs[0], Expr::Search { .. })); // the seed expression
        assert!(matches!(&inputs[1], Expr::Base(n) if n == "BT"));
    }

    #[test]
    fn binding_on_first_attribute_uses_left_linearization() {
        // Binding 1 flows from occurrence 1; the transformation keeps
        // occurrence 1 recursive and replaces occurrence 2 by the seed.
        let Expr::Fix { body, .. } = better_than() else {
            unreachable!()
        };
        let bound = vec![(1usize, Scalar::lit("Quinn"))];
        let reduced = alexander("BT", &body, &bound).expect("left-linear form applies");
        let Expr::Fix { body, .. } = &reduced else {
            panic!()
        };
        let Expr::Union(items) = body.as_ref() else {
            panic!()
        };
        let Expr::Search { inputs, .. } = &items[1] else {
            panic!("expected search branch")
        };
        assert!(matches!(&inputs[0], Expr::Base(n) if n == "BT"));
        assert!(matches!(&inputs[1], Expr::Search { .. }));
    }

    #[test]
    fn linear_recursion_reduced_directly() {
        // fix(T, union({E', search((E, T), [1.2 = 2.1], (1.1, 2.2))}))
        // bound on attribute 2: preserved from T (position 2).
        let body = Expr::Union(vec![
            Expr::base("E"),
            Expr::search(
                vec![Expr::base("E"), Expr::base("T")],
                Scalar::eq(Scalar::attr(1, 2), Scalar::attr(2, 1)),
                vec![Scalar::attr(1, 1), Scalar::attr(2, 2)],
            ),
        ]);
        let reduced = alexander("T", &body, &[(2, Scalar::lit(9))]).unwrap();
        let Expr::Fix { body, .. } = &reduced else {
            panic!()
        };
        let Expr::Union(items) = body.as_ref() else {
            panic!()
        };
        assert!(matches!(&items[0], Expr::Filter { .. }));
        // Recursive branch untouched.
        assert!(matches!(&items[1], Expr::Search { .. }));
    }

    #[test]
    fn linear_recursion_with_unpreserved_binding_refused() {
        // Binding on attribute 1, which the branch takes from E, not T.
        let body = Expr::Union(vec![
            Expr::base("E"),
            Expr::search(
                vec![Expr::base("E"), Expr::base("T")],
                Scalar::eq(Scalar::attr(1, 2), Scalar::attr(2, 1)),
                vec![Scalar::attr(1, 1), Scalar::attr(2, 2)],
            ),
        ]);
        assert!(alexander("T", &body, &[(1, Scalar::lit(9))]).is_none());
    }

    #[test]
    fn all_recursive_body_refused() {
        let body = Expr::search(
            vec![Expr::base("T"), Expr::base("T")],
            Scalar::eq(Scalar::attr(1, 2), Scalar::attr(2, 1)),
            vec![Scalar::attr(1, 1), Scalar::attr(2, 2)],
        );
        assert!(alexander("T", &body, &[(2, Scalar::lit(1))]).is_none());
    }

    #[test]
    fn deep_occurrence_refused() {
        // The variable hides below a union inside an input: unsupported.
        let body = Expr::Union(vec![
            Expr::base("E"),
            Expr::search(
                vec![Expr::Union(vec![Expr::base("T"), Expr::base("E")])],
                Scalar::true_(),
                vec![Scalar::attr(1, 1), Scalar::attr(1, 2)],
            ),
        ]);
        assert!(alexander("T", &body, &[(2, Scalar::lit(1))]).is_none());
    }

    #[test]
    fn empty_binding_refused() {
        let Expr::Fix { body, .. } = better_than() else {
            unreachable!()
        };
        assert!(alexander("BT", &body, &[]).is_none());
    }
}
