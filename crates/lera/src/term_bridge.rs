//! Lossless conversion between LERA expressions and rewrite terms.
//!
//! The rewriter operates on the uniform term representation ("LERA
//! operators interpreted as functions", Section 4.1); the typed IR is for
//! translation, schema inference and execution. Operators map to functors:
//!
//! ```text
//! search(...)    SEARCH(LIST(inputs), qual, LIST(proj))
//! union*         UNION(SET(items))
//! fix(R, E)      FIX(R, E)
//! nest           NEST(input, LIST(nested), LIST(group), KIND)
//! unnest         UNNEST(input, attr)
//! filter/project FILTER(input, qual) / PROJECTION(input, LIST(exprs))
//! join           JOIN(left, right, qual)
//! attribute ref  ATTR(i, j)      (displayed i.j)
//! field access   PROJECT(receiver, Name)
//! ```

use eds_adt::CollKind;
use eds_rewrite::Term;

use crate::error::{LeraError, LeraResult};
use crate::expr::Expr;
use crate::scalar::{CmpOp, Scalar};

/// Convert a LERA expression to a term.
pub fn expr_to_term(e: &Expr) -> Term {
    match e {
        Expr::Base(name) => Term::atom(name.to_ascii_uppercase()),
        Expr::Filter { input, pred } => {
            Term::app("FILTER", vec![expr_to_term(input), scalar_to_term(pred)])
        }
        Expr::Project { input, exprs } => Term::app(
            "PROJECTION",
            vec![
                expr_to_term(input),
                Term::list(exprs.iter().map(scalar_to_term).collect()),
            ],
        ),
        Expr::Join { left, right, pred } => Term::app(
            "JOIN",
            vec![
                expr_to_term(left),
                expr_to_term(right),
                scalar_to_term(pred),
            ],
        ),
        Expr::Union(items) => Term::app(
            "UNION",
            vec![Term::set(items.iter().map(expr_to_term).collect())],
        ),
        Expr::Difference(a, b) => Term::app("DIFFERENCE", vec![expr_to_term(a), expr_to_term(b)]),
        Expr::Intersect(a, b) => Term::app("INTERSECT", vec![expr_to_term(a), expr_to_term(b)]),
        Expr::Search { inputs, pred, proj } => Term::app(
            "SEARCH",
            vec![
                Term::list(inputs.iter().map(expr_to_term).collect()),
                scalar_to_term(pred),
                Term::list(proj.iter().map(scalar_to_term).collect()),
            ],
        ),
        Expr::Fix { name, body } => Term::app(
            "FIX",
            vec![Term::atom(name.to_ascii_uppercase()), expr_to_term(body)],
        ),
        Expr::Nest {
            input,
            group,
            nested,
            kind,
        } => Term::app(
            "NEST",
            vec![
                expr_to_term(input),
                Term::list(nested.iter().map(|&i| Term::int(i as i64)).collect()),
                Term::list(group.iter().map(|&i| Term::int(i as i64)).collect()),
                Term::atom(kind.name()),
            ],
        ),
        Expr::Unnest { input, attr } => {
            Term::app("UNNEST", vec![expr_to_term(input), Term::int(*attr as i64)])
        }
        Expr::Dedup(input) => Term::app("DEDUP", vec![expr_to_term(input)]),
    }
}

/// Convert a scalar to a term.
pub fn scalar_to_term(s: &Scalar) -> Term {
    match s {
        Scalar::Attr { rel, attr } => Term::attr(*rel as i64, *attr as i64),
        Scalar::Const(v) => Term::Const(v.clone()),
        Scalar::Param(i) => Term::app("PARAM", vec![Term::int(*i as i64)]),
        Scalar::Field { input, name } => Term::app(
            "PROJECT",
            vec![scalar_to_term(input), Term::atom(name.to_ascii_uppercase())],
        ),
        Scalar::Call { func, args } => {
            Term::app(func.clone(), args.iter().map(scalar_to_term).collect())
        }
        Scalar::Cmp { op, left, right } => Term::app(
            op.symbol(),
            vec![scalar_to_term(left), scalar_to_term(right)],
        ),
        Scalar::And(a, b) => Term::app("AND", vec![scalar_to_term(a), scalar_to_term(b)]),
        Scalar::Or(a, b) => Term::app("OR", vec![scalar_to_term(a), scalar_to_term(b)]),
        Scalar::Not(a) => Term::app("NOT", vec![scalar_to_term(a)]),
    }
}

const OPERATOR_HEADS: [&str; 11] = [
    "FILTER",
    "PROJECTION",
    "JOIN",
    "UNION",
    "DIFFERENCE",
    "INTERSECT",
    "SEARCH",
    "FIX",
    "NEST",
    "UNNEST",
    "DEDUP",
];

/// Is this term a relation-valued (operator) term?
pub fn is_operator_term(t: &Term) -> bool {
    match t.as_app() {
        Some((h, args)) => {
            (args.is_empty() && !matches!(h, "TRUE" | "FALSE" | "NULL"))
                || OPERATOR_HEADS.contains(&h)
        }
        None => false,
    }
}

fn bad(msg: impl Into<String>) -> LeraError {
    LeraError::BadTerm(msg.into())
}

fn list_args<'a>(t: &'a Term, what: &str) -> LeraResult<&'a [Term]> {
    match t.as_app() {
        Some(("LIST", args)) => Ok(args),
        _ => Err(bad(format!("expected LIST for {what}, found {t}"))),
    }
}

fn usize_arg(t: &Term, what: &str) -> LeraResult<usize> {
    match t.as_const() {
        Some(eds_adt::Value::Int(i)) if *i >= 1 => Ok(*i as usize),
        _ => Err(bad(format!(
            "expected positive integer for {what}, found {t}"
        ))),
    }
}

/// Convert a term back into a LERA expression.
pub fn expr_from_term(t: &Term) -> LeraResult<Expr> {
    let (head, args) = t
        .as_app()
        .ok_or_else(|| bad(format!("not a relation term: {t}")))?;
    match (head, args) {
        (_, []) => Ok(Expr::base(head)),
        ("FILTER", [input, pred]) => Ok(Expr::Filter {
            input: Box::new(expr_from_term(input)?),
            pred: scalar_from_term(pred)?,
        }),
        ("PROJECTION", [input, exprs]) => Ok(Expr::Project {
            input: Box::new(expr_from_term(input)?),
            exprs: list_args(exprs, "projection list")?
                .iter()
                .map(scalar_from_term)
                .collect::<LeraResult<_>>()?,
        }),
        ("JOIN", [l, r, pred]) => Ok(Expr::Join {
            left: Box::new(expr_from_term(l)?),
            right: Box::new(expr_from_term(r)?),
            pred: scalar_from_term(pred)?,
        }),
        ("UNION", [set]) => match set.as_app() {
            Some(("SET" | "BAG" | "LIST", items)) => Ok(Expr::Union(
                items
                    .iter()
                    .map(expr_from_term)
                    .collect::<LeraResult<_>>()?,
            )),
            _ => Err(bad(format!("UNION expects a collection of relations: {t}"))),
        },
        ("DIFFERENCE", [a, b]) => Ok(Expr::Difference(
            Box::new(expr_from_term(a)?),
            Box::new(expr_from_term(b)?),
        )),
        ("INTERSECT", [a, b]) => Ok(Expr::Intersect(
            Box::new(expr_from_term(a)?),
            Box::new(expr_from_term(b)?),
        )),
        ("SEARCH", [inputs, pred, proj]) => Ok(Expr::Search {
            inputs: list_args(inputs, "search inputs")?
                .iter()
                .map(expr_from_term)
                .collect::<LeraResult<_>>()?,
            pred: scalar_from_term(pred)?,
            proj: list_args(proj, "search projection")?
                .iter()
                .map(scalar_from_term)
                .collect::<LeraResult<_>>()?,
        }),
        ("FIX", [name, body]) => {
            let name = match name.as_app() {
                Some((n, [])) => n.to_owned(),
                _ => return Err(bad(format!("FIX expects a relation name: {t}"))),
            };
            Ok(Expr::Fix {
                name,
                body: Box::new(expr_from_term(body)?),
            })
        }
        ("NEST", [input, nested, group, kind]) => {
            let kind = match kind.as_app() {
                Some(("SET", [])) => CollKind::Set,
                Some(("BAG", [])) => CollKind::Bag,
                Some(("LIST", [])) => CollKind::List,
                Some(("ARRAY", [])) => CollKind::Array,
                _ => return Err(bad(format!("NEST expects a collection kind: {t}"))),
            };
            Ok(Expr::Nest {
                input: Box::new(expr_from_term(input)?),
                nested: list_args(nested, "nested attributes")?
                    .iter()
                    .map(|a| usize_arg(a, "nested attribute"))
                    .collect::<LeraResult<_>>()?,
                group: list_args(group, "group attributes")?
                    .iter()
                    .map(|a| usize_arg(a, "group attribute"))
                    .collect::<LeraResult<_>>()?,
                kind,
            })
        }
        ("UNNEST", [input, attr]) => Ok(Expr::Unnest {
            input: Box::new(expr_from_term(input)?),
            attr: usize_arg(attr, "unnest attribute")?,
        }),
        ("DEDUP", [input]) => Ok(Expr::Dedup(Box::new(expr_from_term(input)?))),
        _ => Err(bad(format!("unknown operator term: {t}"))),
    }
}

/// Convert a term back into a scalar expression.
pub fn scalar_from_term(t: &Term) -> LeraResult<Scalar> {
    if let Some((rel, attr)) = t.as_attr() {
        if rel >= 1 && attr >= 1 {
            return Ok(Scalar::attr(rel as usize, attr as usize));
        }
        return Err(bad(format!("non-positive attribute reference {t}")));
    }
    match t {
        Term::Const(v) => Ok(Scalar::Const(v.clone())),
        Term::Var(v) => Err(bad(format!("free variable '{v}' in scalar term"))),
        Term::SeqVar(v) => Err(bad(format!(
            "free collection variable '{v}*' in scalar term"
        ))),
        Term::App(head, args) => match (head.as_str(), args.as_slice()) {
            ("TRUE", []) => Ok(Scalar::true_()),
            ("FALSE", []) => Ok(Scalar::false_()),
            ("NULL", []) => Ok(Scalar::Const(eds_adt::Value::Null)),
            ("AND", [a, b]) => Ok(Scalar::And(
                Box::new(scalar_from_term(a)?),
                Box::new(scalar_from_term(b)?),
            )),
            ("OR", [a, b]) => Ok(Scalar::Or(
                Box::new(scalar_from_term(a)?),
                Box::new(scalar_from_term(b)?),
            )),
            ("NOT", [a]) => Ok(Scalar::Not(Box::new(scalar_from_term(a)?))),
            // Positional statement parameter — must be matched before the
            // generic-call fallback, or it would round-trip as a call.
            ("PARAM", [idx]) => match idx.as_const() {
                Some(eds_adt::Value::Int(i)) if (0..=i64::from(u16::MAX)).contains(i) => {
                    Ok(Scalar::Param(*i as u16))
                }
                _ => Err(bad(format!("PARAM expects a small integer index: {t}"))),
            },
            ("PROJECT", [input, name]) => {
                let name = match name.as_app() {
                    Some((n, [])) => n.to_owned(),
                    _ => return Err(bad(format!("PROJECT expects an attribute name: {t}"))),
                };
                Ok(Scalar::Field {
                    input: Box::new(scalar_from_term(input)?),
                    name,
                })
            }
            // Collection literals in qualifications ({'a','b'}) become
            // MAKESET-style constructor calls.
            ("SET", elems) => Ok(Scalar::call(
                "MAKESET",
                elems
                    .iter()
                    .map(scalar_from_term)
                    .collect::<LeraResult<_>>()?,
            )),
            ("BAG", elems) => Ok(Scalar::call(
                "MAKEBAG",
                elems
                    .iter()
                    .map(scalar_from_term)
                    .collect::<LeraResult<_>>()?,
            )),
            (func, args) => match (CmpOp::from_symbol(func), args) {
                (Some(op), [a, b]) => Ok(Scalar::Cmp {
                    op,
                    left: Box::new(scalar_from_term(a)?),
                    right: Box::new(scalar_from_term(b)?),
                }),
                _ => Ok(Scalar::Call {
                    func: func.to_owned(),
                    args: args
                        .iter()
                        .map(scalar_from_term)
                        .collect::<LeraResult<_>>()?,
                }),
            },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig3_like() -> Expr {
        Expr::search(
            vec![Expr::base("APPEARS_IN"), Expr::base("FILM")],
            Scalar::conjoin(vec![
                Scalar::eq(Scalar::attr(1, 1), Scalar::attr(2, 1)),
                Scalar::eq(
                    Scalar::field(Scalar::call("VALUE", vec![Scalar::attr(1, 2)]), "Name"),
                    Scalar::lit("Quinn"),
                ),
                Scalar::call("MEMBER", vec![Scalar::lit("Adventure"), Scalar::attr(2, 3)]),
            ]),
            vec![
                Scalar::attr(2, 2),
                Scalar::attr(2, 3),
                Scalar::field(Scalar::call("VALUE", vec![Scalar::attr(1, 2)]), "Salary"),
            ],
        )
    }

    #[test]
    fn search_roundtrip() {
        let e = fig3_like();
        let t = expr_to_term(&e);
        assert!(t.to_string().starts_with("SEARCH(LIST(APPEARS_IN, FILM),"));
        let back = expr_from_term(&t).unwrap();
        // Field names canonicalize to upper-case through the bridge.
        let renamed = expr_to_term(&back);
        assert_eq!(t, renamed);
    }

    #[test]
    fn fix_roundtrip() {
        let e = Expr::Fix {
            name: "BETTER_THAN".into(),
            body: Box::new(Expr::Union(vec![
                Expr::base("DOMINATE"),
                Expr::search(
                    vec![Expr::base("BETTER_THAN"), Expr::base("BETTER_THAN")],
                    Scalar::eq(Scalar::attr(1, 2), Scalar::attr(2, 1)),
                    vec![Scalar::attr(1, 1), Scalar::attr(2, 2)],
                ),
            ])),
        };
        let t = expr_to_term(&e);
        let back = expr_from_term(&t).unwrap();
        assert_eq!(expr_to_term(&back), t);
        // Fixpoint union goes through the SET constructor.
        assert!(t.to_string().contains("UNION(SET("));
    }

    #[test]
    fn nest_roundtrip() {
        let e = Expr::Nest {
            input: Box::new(Expr::base("R")),
            group: vec![1, 2],
            nested: vec![3],
            kind: CollKind::Set,
        };
        let t = expr_to_term(&e);
        assert_eq!(t.to_string(), "NEST(R, LIST(3), LIST(1, 2), SET)");
        assert_eq!(expr_from_term(&t).unwrap(), e);
    }

    #[test]
    fn scalar_operators_roundtrip() {
        let s = Scalar::Or(
            Box::new(Scalar::Not(Box::new(Scalar::cmp(
                CmpOp::Le,
                Scalar::attr(1, 1),
                Scalar::lit(5),
            )))),
            Box::new(Scalar::call("ISEMPTY", vec![Scalar::attr(1, 2)])),
        );
        let t = scalar_to_term(&s);
        assert_eq!(scalar_from_term(&t).unwrap(), s);
    }

    #[test]
    fn malformed_terms_rejected() {
        assert!(expr_from_term(&Term::app("SEARCH", vec![Term::atom("R")])).is_err());
        assert!(expr_from_term(&Term::app(
            "UNION",
            vec![Term::atom("R")] // not a SET
        ))
        .is_err());
        assert!(scalar_from_term(&Term::var("x")).is_err());
        assert!(expr_from_term(&Term::app(
            "NEST",
            vec![
                Term::atom("R"),
                Term::list(vec![Term::int(0)]), // attr < 1
                Term::list(vec![]),
                Term::atom("SET"),
            ]
        ))
        .is_err());
    }

    #[test]
    fn operator_term_classifier() {
        assert!(is_operator_term(&Term::atom("FILM")));
        assert!(is_operator_term(&expr_to_term(&fig3_like())));
        assert!(!is_operator_term(&Term::attr(1, 1)));
        assert!(!is_operator_term(&Term::atom("TRUE")));
    }

    #[test]
    fn param_roundtrips_through_terms() {
        let s = Scalar::eq(Scalar::attr(1, 1), Scalar::param(3));
        let t = scalar_to_term(&s);
        assert_eq!(t.to_string(), "(1.1 = PARAM(3))");
        assert_eq!(scalar_from_term(&t).unwrap(), s);
    }

    #[test]
    fn set_literal_in_qualification_becomes_makeset() {
        let t = Term::app(
            "MEMBER",
            vec![
                Term::str("Cartoon"),
                Term::set(vec![Term::str("Comedy"), Term::str("Western")]),
            ],
        );
        let s = scalar_from_term(&t).unwrap();
        assert_eq!(
            s.to_string(),
            "MEMBER('Cartoon', MAKESET('Comedy', 'Western'))"
        );
    }
}
