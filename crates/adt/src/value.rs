//! Runtime values: the ESQL data model.
//!
//! ESQL data is partitioned into *values* (instances of ADTs, compared
//! structurally) and *objects* (a unique identifier bound to a value, stored
//! in an [`crate::object::ObjectStore`]). Complex values are built by
//! combining the generic ADTs `tuple`, `set`, `bag`, `list` and `array` at
//! multiple levels, exactly as in Section 2.1 of the paper.

use std::cmp::Ordering;
use std::fmt;

use crate::error::{AdtError, AdtResult};
use crate::object::Oid;

/// The collection kinds of the generic ADT hierarchy (Figure 1 of the
/// paper). `Collection` is their common abstract supertype; it never appears
/// as the kind of a concrete runtime value but participates in `ISA` checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CollKind {
    /// Unordered, duplicate-free.
    Set,
    /// Unordered, duplicates allowed. The default result kind of an ESQL
    /// query block.
    Bag,
    /// Ordered, duplicates allowed.
    List,
    /// Ordered, fixed conceptual indexing; behaves as a list at runtime.
    Array,
}

impl CollKind {
    /// Name used by `ISA` and by the rule language (`SET`, `BAG`, ...).
    pub fn name(self) -> &'static str {
        match self {
            CollKind::Set => "SET",
            CollKind::Bag => "BAG",
            CollKind::List => "LIST",
            CollKind::Array => "ARRAY",
        }
    }

    /// Whether element order is observable.
    pub fn ordered(self) -> bool {
        matches!(self, CollKind::List | CollKind::Array)
    }
}

impl fmt::Display for CollKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A runtime value.
///
/// Unordered collections are kept in a canonical (sorted, and for sets
/// deduplicated) representation so that structural equality of `Value` is
/// exactly ESQL value equality.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// SQL NULL / absent.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer (covers INT and NUMERIC without fraction).
    Int(i64),
    /// Floating point (REAL).
    Real(OrderedF64),
    /// Character string (CHAR, and the `Text` example type).
    Str(String),
    /// Value of an enumeration type: the type name plus the chosen literal.
    /// Boxed, so the two strings do not widen every other value.
    Enum(Box<(String, String)>),
    /// Tuple of positionally-stored attribute values; attribute names live
    /// in the schema/type, not in the value.
    Tuple(Vec<Value>),
    /// A collection. Invariant: `Set` elements sorted + deduplicated,
    /// `Bag` elements sorted; `List`/`Array` keep insertion order.
    Coll(CollKind, Vec<Value>),
    /// Reference to an object in the object store.
    Object(Oid),
}

// Every stored row and every result row pays this width once per value.
const _: () = assert!(size_of::<Value>() == 32);

/// `f64` wrapper with total ordering (via `f64::total_cmp`) so `Value` can
/// be `Ord` and participate in canonical set representations.
#[derive(Debug, Clone, Copy)]
pub struct OrderedF64(pub f64);

impl PartialEq for OrderedF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == Ordering::Equal
    }
}
impl Eq for OrderedF64 {}
impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl std::hash::Hash for OrderedF64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl Value {
    /// Build a real value.
    pub fn real(x: f64) -> Value {
        Value::Real(OrderedF64(x))
    }

    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Build a set, canonicalizing (sort + dedup).
    pub fn set(mut elems: Vec<Value>) -> Value {
        elems.sort();
        elems.dedup();
        Value::Coll(CollKind::Set, elems)
    }

    /// Build a bag, canonicalizing (sort).
    pub fn bag(mut elems: Vec<Value>) -> Value {
        elems.sort();
        Value::Coll(CollKind::Bag, elems)
    }

    /// Build a list (order preserved).
    pub fn list(elems: Vec<Value>) -> Value {
        Value::Coll(CollKind::List, elems)
    }

    /// Build an array (order preserved).
    pub fn array(elems: Vec<Value>) -> Value {
        Value::Coll(CollKind::Array, elems)
    }

    /// Build a collection of the given kind, canonicalizing as required.
    pub fn coll(kind: CollKind, elems: Vec<Value>) -> Value {
        match kind {
            CollKind::Set => Value::set(elems),
            CollKind::Bag => Value::bag(elems),
            CollKind::List | CollKind::Array => Value::Coll(kind, elems),
        }
    }

    /// Short tag naming the value's shape; used in error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::Bool(_) => "BOOL",
            Value::Int(_) => "INT",
            Value::Real(_) => "REAL",
            Value::Str(_) => "CHAR",
            Value::Enum(..) => "ENUM",
            Value::Tuple(_) => "TUPLE",
            Value::Coll(k, _) => k.name(),
            Value::Object(_) => "OBJECT",
        }
    }

    /// True for the three-valued-logic "unknown" carrier.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interpret as a boolean if possible.
    pub fn as_bool(&self) -> AdtResult<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(AdtError::TypeMismatch {
                function: "as_bool".into(),
                expected: "BOOL".into(),
                found: other.kind_name().into(),
            }),
        }
    }

    /// Interpret as an integer if possible.
    pub fn as_int(&self) -> AdtResult<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(AdtError::TypeMismatch {
                function: "as_int".into(),
                expected: "INT".into(),
                found: other.kind_name().into(),
            }),
        }
    }

    /// Numeric view: INT and REAL both convert; used by arithmetic and
    /// comparisons.
    pub fn as_f64(&self) -> AdtResult<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Real(r) => Ok(r.0),
            other => Err(AdtError::TypeMismatch {
                function: "as_f64".into(),
                expected: "numeric".into(),
                found: other.kind_name().into(),
            }),
        }
    }

    /// Interpret as a string if possible (enum literals coerce).
    pub fn as_str(&self) -> AdtResult<&str> {
        match self {
            Value::Str(s) => Ok(s),
            Value::Enum(e) => Ok(&e.1),
            other => Err(AdtError::TypeMismatch {
                function: "as_str".into(),
                expected: "CHAR".into(),
                found: other.kind_name().into(),
            }),
        }
    }

    /// Collection view.
    pub fn as_coll(&self) -> AdtResult<(CollKind, &[Value])> {
        match self {
            Value::Coll(k, v) => Ok((*k, v)),
            other => Err(AdtError::TypeMismatch {
                function: "as_coll".into(),
                expected: "collection".into(),
                found: other.kind_name().into(),
            }),
        }
    }

    /// Tuple view.
    pub fn as_tuple(&self) -> AdtResult<&[Value]> {
        match self {
            Value::Tuple(t) => Ok(t),
            other => Err(AdtError::TypeMismatch {
                function: "as_tuple".into(),
                expected: "TUPLE".into(),
                found: other.kind_name().into(),
            }),
        }
    }

    /// Object-reference view.
    pub fn as_object(&self) -> AdtResult<Oid> {
        match self {
            Value::Object(oid) => Ok(*oid),
            other => Err(AdtError::TypeMismatch {
                function: "as_object".into(),
                expected: "OBJECT".into(),
                found: other.kind_name().into(),
            }),
        }
    }

    /// Is this a collection value?
    pub fn is_coll(&self) -> bool {
        matches!(self, Value::Coll(..))
    }

    /// Numeric comparison that treats INT/REAL uniformly and everything
    /// else structurally; returns `None` when either side is NULL
    /// (three-valued logic).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        match (self, other) {
            (Value::Int(a), Value::Real(b)) => Some((*a as f64).total_cmp(&b.0)),
            (Value::Real(a), Value::Int(b)) => Some(a.0.total_cmp(&(*b as f64))),
            (a, b) => Some(a.cmp(b)),
        }
    }

    /// SQL equality under three-valued logic: `None` if either side is NULL.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }
}

/// The six comparison operators and what they mean. The executor's
/// kernels, the rewriter's `EVALUATE` folding, the cost model and the
/// constraint algebra behind `SIMPLIFYQ` and the linter all read the
/// meaning from here ([`holds`](CmpOp::holds) over [`Value::sql_cmp`]),
/// so they cannot disagree about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Every operator, in the order `= <> < <= > >=`. The rule fuzzer
    /// draws operators by index into this list, so the committed seeds
    /// of `verify/seeds.txt` replay the same cases only while the order
    /// stands.
    pub const ALL: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// Symbol used in terms and display.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Gt => ">",
            CmpOp::Le => "<=",
            CmpOp::Ge => ">=",
        }
    }

    /// Parse a symbol.
    pub fn from_symbol(s: &str) -> Option<CmpOp> {
        CmpOp::ALL.into_iter().find(|op| op.symbol() == s)
    }

    /// Is `l op r` TRUE when `l` orders as `ord` against `r`? This match
    /// is the one truth table of the six operators; everything else here
    /// is read off it.
    #[inline]
    pub const fn holds(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Ge => ord.is_ge(),
        }
    }

    /// The truth table as a set: the orderings under which the
    /// comparison is TRUE, bit 0 for `<`, bit 1 for `=`, bit 2 for `>`.
    /// Two comparisons of the same operand pair can both be TRUE iff
    /// `a.outcomes() & b.outcomes() != 0`.
    #[inline]
    pub const fn outcomes(self) -> u8 {
        self.holds(Ordering::Less) as u8
            | (self.holds(Ordering::Equal) as u8) << 1
            | (self.holds(Ordering::Greater) as u8) << 2
    }

    /// The mirrored operator (`a op b` ⇔ `b op.flipped() a`): the one
    /// whose outcome set has `<` and `>` exchanged.
    #[inline]
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Evaluate `l op r` to a [`Value`]: NULL when a side is NULL
    /// (three-valued logic); an ordered comparison with exactly one
    /// collection side maps over its elements (supporting
    /// `ALL(Salary(Actors) > 10000)`); equality stays structural.
    #[inline]
    pub fn eval(self, l: &Value, r: &Value) -> Value {
        if !matches!(self, CmpOp::Eq | CmpOp::Ne) {
            match (l, r) {
                (Value::Coll(kind, items), scalar) if !scalar.is_coll() => {
                    let mapped = items.iter().map(|e| self.eval(e, scalar)).collect();
                    return Value::coll(*kind, mapped);
                }
                (scalar, Value::Coll(kind, items)) if !scalar.is_coll() => {
                    let mapped = items.iter().map(|e| self.eval(scalar, e)).collect();
                    return Value::coll(*kind, mapped);
                }
                _ => {}
            }
        }
        match l.sql_cmp(r) {
            None => Value::Null,
            Some(ord) => Value::Bool(self.holds(ord)),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::real(x)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn join(f: &mut fmt::Formatter<'_>, items: &[Value]) -> fmt::Result {
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{v}")?;
            }
            Ok(())
        }
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{}", r.0),
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Value::Enum(e) => write!(f, "'{}'", e.1.replace('\'', "''")),
            Value::Tuple(t) => {
                f.write_str("<")?;
                join(f, t)?;
                f.write_str(">")
            }
            Value::Coll(k, items) => {
                write!(f, "{}{{", k.name())?;
                join(f, items)?;
                f.write_str("}")
            }
            Value::Object(oid) => write!(f, "#{}", oid.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_canonicalizes() {
        let a = Value::set(vec![3.into(), 1.into(), 2.into(), 1.into()]);
        let b = Value::set(vec![1.into(), 2.into(), 3.into()]);
        assert_eq!(a, b);
    }

    #[test]
    fn bag_keeps_duplicates_but_not_order() {
        let a = Value::bag(vec![2.into(), 1.into(), 2.into()]);
        let b = Value::bag(vec![2.into(), 2.into(), 1.into()]);
        let c = Value::bag(vec![1.into(), 2.into()]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn list_keeps_order() {
        let a = Value::list(vec![1.into(), 2.into()]);
        let b = Value::list(vec![2.into(), 1.into()]);
        assert_ne!(a, b);
    }

    #[test]
    fn numeric_cross_type_compare() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::real(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::real(2.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn null_compares_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
    }

    /// The 6 × 3 truth table, spelled out once, against `holds`,
    /// `outcomes` and `flipped`.
    #[test]
    fn cmp_op_table_views_agree() {
        use Ordering::{Equal, Greater, Less};
        let table = [
            (CmpOp::Eq, "=", [false, true, false]),
            (CmpOp::Ne, "<>", [true, false, true]),
            (CmpOp::Lt, "<", [true, false, false]),
            (CmpOp::Le, "<=", [true, true, false]),
            (CmpOp::Gt, ">", [false, false, true]),
            (CmpOp::Ge, ">=", [false, true, true]),
        ];
        assert_eq!(CmpOp::ALL, table.map(|(op, ..)| op));
        for (op, symbol, row) in table {
            assert_eq!(op.symbol(), symbol);
            assert_eq!(CmpOp::from_symbol(symbol), Some(op));
            assert_eq!(op.flipped().flipped(), op);
            for (bit, ord) in [Less, Equal, Greater].into_iter().enumerate() {
                assert_eq!(op.holds(ord), row[bit], "{symbol} under {ord:?}");
                assert_eq!(op.outcomes() >> bit & 1 == 1, row[bit]);
                assert_eq!(op.holds(ord), op.flipped().holds(ord.reverse()));
            }
        }
        assert_eq!(CmpOp::from_symbol("=="), None);
    }

    #[test]
    fn cmp_op_eval_is_three_valued_and_broadcasts_ordered_comparisons() {
        assert_eq!(CmpOp::Lt.eval(&Value::Null, &Value::Int(1)), Value::Null);
        assert_eq!(
            CmpOp::Eq.eval(&Value::Int(5), &Value::real(5.0)),
            Value::Bool(true)
        );
        let set = Value::set(vec![1.into(), 5.into()]);
        // One collection side: the comparison maps over the elements,
        // on either side, and the result is re-canonicalized as a set.
        assert_eq!(
            CmpOp::Gt.eval(&set, &Value::Int(3)),
            Value::set(vec![false.into(), true.into()])
        );
        assert_eq!(
            CmpOp::Gt.eval(&Value::Int(3), &set),
            CmpOp::Lt.eval(&set, &Value::Int(3))
        );
        // Equality never broadcasts; two collections compare whole.
        assert_eq!(CmpOp::Eq.eval(&set, &Value::Int(1)), Value::Bool(false));
        assert_eq!(CmpOp::Le.eval(&set, &set), Value::Bool(true));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::set(vec![1.into()]).to_string(), "SET{1}");
        assert_eq!(
            Value::Tuple(vec![1.into(), Value::str("a")]).to_string(),
            "<1, 'a'>"
        );
    }

    #[test]
    fn accessor_errors_name_kinds() {
        let err = Value::Int(1).as_coll().unwrap_err();
        match err {
            AdtError::TypeMismatch { found, .. } => assert_eq!(found, "INT"),
            other => panic!("unexpected error {other:?}"),
        }
    }
}
