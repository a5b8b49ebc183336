//! Scalar (qualification and projection) expressions of LERA.
//!
//! Built-in and user-defined function symbols may appear in conditions and
//! attribute lists (Section 3.3); attribute references are positional
//! (`1.2` = second attribute of the first input relation), and tuple-field
//! access is the generic `PROJECT` function the typing phase inserts
//! (e.g. `PROJECT(VALUE(Refactor), Salary)`).

use std::fmt;

/// The comparison operators, defined beside [`Value::sql_cmp`] in
/// `eds-adt` and re-exported so `eds_lera::CmpOp` keeps resolving.
pub use eds_adt::CmpOp;
use eds_adt::Value;

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// Positional attribute reference: `rel.attr`, both 1-based, `rel`
    /// indexing the enclosing operator's input list.
    Attr {
        /// 1-based input relation index.
        rel: usize,
        /// 1-based attribute index.
        attr: usize,
    },
    /// Literal.
    Const(Value),
    /// Named field access on a tuple-valued (or object/collection-valued)
    /// expression — the generic `PROJECT` function of Section 3.3. The
    /// engine resolves the name to a position using inferred types;
    /// object inputs are `VALUE`-dereferenced by the typing phase, and
    /// collection inputs map the projection over their elements.
    Field {
        /// Receiver expression.
        input: Box<Scalar>,
        /// Attribute name.
        name: String,
    },
    /// Function application (ADT library or user function): `MEMBER`,
    /// `VALUE`, `MAKESET`, arithmetic, quantifiers `ALL`/`EXIST`, ...
    Call {
        /// Function name (canonical upper-case).
        func: String,
        /// Arguments.
        args: Vec<Scalar>,
    },
    /// Positional statement parameter (`?` in ESQL), 0-based. Bound to a
    /// concrete [`Value`] at execute time from the statement's bind
    /// array; rewrite rules whose conditions would inspect the value see
    /// a non-constant leaf and defer to bind time, rules that only move
    /// the leaf treat it like a literal.
    Param(u16),
    /// Comparison.
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        left: Box<Scalar>,
        /// Right operand.
        right: Box<Scalar>,
    },
    /// Conjunction.
    And(Box<Scalar>, Box<Scalar>),
    /// Disjunction.
    Or(Box<Scalar>, Box<Scalar>),
    /// Negation.
    Not(Box<Scalar>),
}

impl Scalar {
    /// Attribute-reference helper (1-based).
    pub fn attr(rel: usize, attr: usize) -> Scalar {
        Scalar::Attr { rel, attr }
    }

    /// Literal helper.
    pub fn lit(v: impl Into<Value>) -> Scalar {
        Scalar::Const(v.into())
    }

    /// Call helper (name canonicalized to upper-case).
    pub fn call(func: &str, args: Vec<Scalar>) -> Scalar {
        Scalar::Call {
            func: func.to_ascii_uppercase(),
            args,
        }
    }

    /// Comparison helper.
    pub fn cmp(op: CmpOp, left: Scalar, right: Scalar) -> Scalar {
        Scalar::Cmp {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Equality helper.
    pub fn eq(left: Scalar, right: Scalar) -> Scalar {
        Scalar::cmp(CmpOp::Eq, left, right)
    }

    /// Conjunction helper.
    pub fn and(left: Scalar, right: Scalar) -> Scalar {
        Scalar::And(Box::new(left), Box::new(right))
    }

    /// Positional-parameter helper (0-based).
    pub fn param(idx: u16) -> Scalar {
        Scalar::Param(idx)
    }

    /// Field-access helper.
    pub fn field(input: Scalar, name: &str) -> Scalar {
        Scalar::Field {
            input: Box::new(input),
            name: name.to_owned(),
        }
    }

    /// The `TRUE` constant.
    pub fn true_() -> Scalar {
        Scalar::Const(Value::Bool(true))
    }

    /// The `FALSE` constant.
    pub fn false_() -> Scalar {
        Scalar::Const(Value::Bool(false))
    }

    /// Is this the literal TRUE?
    pub fn is_true(&self) -> bool {
        matches!(self, Scalar::Const(Value::Bool(true)))
    }

    /// Is this the literal FALSE?
    pub fn is_false(&self) -> bool {
        matches!(self, Scalar::Const(Value::Bool(false)))
    }

    /// Split a conjunction into its conjuncts.
    pub fn conjuncts(&self) -> Vec<&Scalar> {
        match self {
            Scalar::And(a, b) => {
                let mut out = a.conjuncts();
                out.extend(b.conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// Rebuild a conjunction from conjuncts (`TRUE` for none).
    pub fn conjoin(mut parts: Vec<Scalar>) -> Scalar {
        match parts.len() {
            0 => Scalar::true_(),
            1 => parts.remove(0),
            _ => {
                let first = parts.remove(0);
                parts.into_iter().fold(first, Scalar::and)
            }
        }
    }

    /// All attribute references appearing in the expression.
    pub fn attr_refs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        self.visit(&mut |s| {
            if let Scalar::Attr { rel, attr } = s {
                out.push((*rel, *attr));
            }
        });
        out
    }

    /// Visit all nodes pre-order.
    pub fn visit(&self, f: &mut impl FnMut(&Scalar)) {
        f(self);
        match self {
            Scalar::Field { input, .. } => input.visit(f),
            Scalar::Call { args, .. } => args.iter().for_each(|a| a.visit(f)),
            Scalar::Cmp { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Scalar::And(a, b) | Scalar::Or(a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Scalar::Not(a) => a.visit(f),
            Scalar::Attr { .. } | Scalar::Const(_) | Scalar::Param(_) => {}
        }
    }

    /// Highest parameter index appearing in the expression, if any.
    pub fn max_param(&self) -> Option<u16> {
        let mut max = None;
        self.visit(&mut |s| {
            if let Scalar::Param(i) = s {
                max = Some(max.map_or(*i, |m: u16| m.max(*i)));
            }
        });
        max
    }

    /// Structurally transform attribute references.
    pub fn map_attrs(&self, f: &impl Fn(usize, usize) -> Scalar) -> Scalar {
        match self {
            Scalar::Attr { rel, attr } => f(*rel, *attr),
            Scalar::Const(_) | Scalar::Param(_) => self.clone(),
            Scalar::Field { input, name } => Scalar::Field {
                input: Box::new(input.map_attrs(f)),
                name: name.clone(),
            },
            Scalar::Call { func, args } => Scalar::Call {
                func: func.clone(),
                args: args.iter().map(|a| a.map_attrs(f)).collect(),
            },
            Scalar::Cmp { op, left, right } => Scalar::Cmp {
                op: *op,
                left: Box::new(left.map_attrs(f)),
                right: Box::new(right.map_attrs(f)),
            },
            Scalar::And(a, b) => Scalar::And(Box::new(a.map_attrs(f)), Box::new(b.map_attrs(f))),
            Scalar::Or(a, b) => Scalar::Or(Box::new(a.map_attrs(f)), Box::new(b.map_attrs(f))),
            Scalar::Not(a) => Scalar::Not(Box::new(a.map_attrs(f))),
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Attr { rel, attr } => write!(f, "{rel}.{attr}"),
            Scalar::Const(v) => write!(f, "{v}"),
            Scalar::Param(i) => write!(f, "?{i}"),
            Scalar::Field { input, name } => write!(f, "PROJECT({input}, {name})"),
            Scalar::Call { func, args } => {
                write!(f, "{func}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
            Scalar::Cmp { op, left, right } => write!(f, "{left} {} {right}", op.symbol()),
            Scalar::And(a, b) => write!(f, "{a} ∧ {b}"),
            Scalar::Or(a, b) => write!(f, "({a} ∨ {b})"),
            Scalar::Not(a) => write!(f, "¬({a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_roundtrip() {
        let c = Scalar::conjoin(vec![
            Scalar::eq(Scalar::attr(1, 1), Scalar::attr(2, 1)),
            Scalar::cmp(CmpOp::Gt, Scalar::attr(1, 2), Scalar::lit(5)),
            Scalar::call("MEMBER", vec![Scalar::lit("x"), Scalar::attr(2, 3)]),
        ]);
        assert_eq!(c.conjuncts().len(), 3);
        assert!(Scalar::conjoin(vec![]).is_true());
    }

    #[test]
    fn display_matches_paper_style() {
        let s = Scalar::and(
            Scalar::eq(Scalar::attr(1, 1), Scalar::attr(2, 1)),
            Scalar::eq(
                Scalar::field(Scalar::call("VALUE", vec![Scalar::attr(1, 2)]), "Salary"),
                Scalar::lit(1000),
            ),
        );
        assert_eq!(
            s.to_string(),
            "1.1 = 2.1 ∧ PROJECT(VALUE(1.2), Salary) = 1000"
        );
    }

    #[test]
    fn attr_refs_collected() {
        let s = Scalar::and(
            Scalar::eq(Scalar::attr(1, 1), Scalar::attr(2, 1)),
            Scalar::cmp(CmpOp::Lt, Scalar::attr(2, 2), Scalar::lit(3)),
        );
        assert_eq!(s.attr_refs(), vec![(1, 1), (2, 1), (2, 2)]);
    }

    #[test]
    fn map_attrs_renumbers() {
        let s = Scalar::eq(Scalar::attr(2, 1), Scalar::lit(1));
        let shifted = s.map_attrs(&|rel, attr| Scalar::attr(rel + 10, attr));
        assert_eq!(shifted.attr_refs(), vec![(12, 1)]);
    }

    #[test]
    fn cmp_flip() {
        assert_eq!(CmpOp::Lt.flipped(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.flipped(), CmpOp::Eq);
        assert_eq!(CmpOp::from_symbol("<="), Some(CmpOp::Le));
    }
}
