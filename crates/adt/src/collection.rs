//! The built-in collection function library (Figure 1 of the paper).
//!
//! General functions are supplied at the `collection` level: conversion
//! between collection kinds, emptiness, equality, insertion and removal.
//! Each concrete kind adds its own functions (`union`, `intersection`,
//! `difference`, `include`, `choice`, `member`/`exist`, `append`, `nth`,
//! `make_set`/`make_bag`/`make_list`, and the `all`/`exist` quantifiers).
//!
//! All functions are pure `Value -> Value` transformers; the
//! [`crate::registry::FunctionRegistry`] exposes them by name to the query
//! engine and the rewriter's constraint evaluator.

use crate::error::{AdtError, AdtResult};
use crate::value::{CollKind, Value};

fn expect_coll<'a>(function: &str, v: &'a Value) -> AdtResult<(CollKind, &'a [Value])> {
    v.as_coll().map_err(|_| AdtError::TypeMismatch {
        function: function.into(),
        expected: "collection".into(),
        found: v.kind_name().into(),
    })
}

/// `CONVERT`: re-interpret a collection as another kind. Converting a bag
/// to a set removes duplicates; converting an unordered collection to a
/// list yields its canonical (sorted) order.
pub fn convert(v: &Value, target: CollKind) -> AdtResult<Value> {
    let (_, elems) = expect_coll("CONVERT", v)?;
    Ok(Value::coll(target, elems.to_vec()))
}

/// `ISEMPTY`: true when the collection holds no element.
pub fn is_empty(v: &Value) -> AdtResult<Value> {
    let (_, elems) = expect_coll("ISEMPTY", v)?;
    Ok(Value::Bool(elems.is_empty()))
}

/// `COUNT`: number of elements (duplicates counted in bags/lists).
pub fn count(v: &Value) -> AdtResult<Value> {
    let (_, elems) = expect_coll("COUNT", v)?;
    Ok(Value::Int(elems.len() as i64))
}

/// Collection equality: both operands must be collections of the same
/// kind; canonical representation makes this structural equality.
pub fn coll_equal(a: &Value, b: &Value) -> AdtResult<Value> {
    let (ka, _) = expect_coll("EQUAL", a)?;
    let (kb, _) = expect_coll("EQUAL", b)?;
    if ka != kb {
        return Err(AdtError::TypeMismatch {
            function: "EQUAL".into(),
            expected: format!("two {ka} collections"),
            found: format!("{ka} and {kb}"),
        });
    }
    Ok(Value::Bool(a == b))
}

/// `INSERT`: add an element. Sets ignore duplicates; ordered kinds append.
pub fn insert(coll: &Value, elem: &Value) -> AdtResult<Value> {
    let (k, elems) = expect_coll("INSERT", coll)?;
    let mut out = elems.to_vec();
    out.push(elem.clone());
    Ok(Value::coll(k, out))
}

/// `REMOVE`: remove one occurrence of an element (all occurrences for a
/// set, where there is at most one).
pub fn remove(coll: &Value, elem: &Value) -> AdtResult<Value> {
    let (k, elems) = expect_coll("REMOVE", coll)?;
    let mut out = elems.to_vec();
    if let Some(pos) = out.iter().position(|e| e == elem) {
        out.remove(pos);
    }
    Ok(Value::coll(k, out))
}

/// `MEMBER`: membership test, defined on every collection kind.
pub fn member(elem: &Value, coll: &Value) -> AdtResult<Value> {
    let (_, elems) = expect_coll("MEMBER", coll)?;
    Ok(Value::Bool(elems.contains(elem)))
}

/// `UNION` on sets/bags (bag union is additive) and concatenation for
/// ordered kinds.
pub fn union(a: &Value, b: &Value) -> AdtResult<Value> {
    let (ka, ea) = expect_coll("UNION", a)?;
    let (_, eb) = expect_coll("UNION", b)?;
    let mut out = ea.to_vec();
    out.extend(eb.iter().cloned());
    Ok(Value::coll(ka, out))
}

/// `INTERSECTION`: set intersection; bag intersection takes minimum
/// multiplicities.
pub fn intersection(a: &Value, b: &Value) -> AdtResult<Value> {
    let (ka, ea) = expect_coll("INTERSECTION", a)?;
    let (_, eb) = expect_coll("INTERSECTION", b)?;
    let mut remaining = eb.to_vec();
    let mut out = Vec::new();
    for e in ea {
        if let Some(pos) = remaining.iter().position(|x| x == e) {
            remaining.remove(pos);
            out.push(e.clone());
        }
    }
    Ok(Value::coll(ka, out))
}

/// `DIFFERENCE`: set difference; bag difference subtracts multiplicities.
pub fn difference(a: &Value, b: &Value) -> AdtResult<Value> {
    let (ka, ea) = expect_coll("DIFFERENCE", a)?;
    let (_, eb) = expect_coll("DIFFERENCE", b)?;
    let mut to_remove = eb.to_vec();
    let mut out = Vec::new();
    for e in ea {
        if let Some(pos) = to_remove.iter().position(|x| x == e) {
            to_remove.remove(pos);
        } else {
            out.push(e.clone());
        }
    }
    Ok(Value::coll(ka, out))
}

/// `INCLUDE`: containment (`a ⊆ b`), multiplicity-aware for bags.
pub fn include(a: &Value, b: &Value) -> AdtResult<Value> {
    let diff = difference(a, b)?;
    let (_, rest) = expect_coll("INCLUDE", &diff)?;
    Ok(Value::Bool(rest.is_empty()))
}

/// `CHOICE`: select an arbitrary element of a non-empty collection
/// (deterministically the canonical first, per Manna & Waldinger's
/// `choice`).
pub fn choice(v: &Value) -> AdtResult<Value> {
    let (_, elems) = expect_coll("CHOICE", v)?;
    elems
        .first()
        .cloned()
        .ok_or_else(|| AdtError::EmptyCollection("CHOICE".into()))
}

/// `APPEND`: list/array concatenation.
pub fn append(a: &Value, b: &Value) -> AdtResult<Value> {
    let (ka, ea) = expect_coll("APPEND", a)?;
    let (_, eb) = expect_coll("APPEND", b)?;
    if !ka.ordered() {
        return Err(AdtError::TypeMismatch {
            function: "APPEND".into(),
            expected: "LIST or ARRAY".into(),
            found: ka.name().into(),
        });
    }
    let mut out = ea.to_vec();
    out.extend(eb.iter().cloned());
    Ok(Value::Coll(ka, out))
}

/// `NTH`: 1-based positional access on ordered collections.
pub fn nth(coll: &Value, index: &Value) -> AdtResult<Value> {
    let (k, elems) = expect_coll("NTH", coll)?;
    if !k.ordered() {
        return Err(AdtError::TypeMismatch {
            function: "NTH".into(),
            expected: "LIST or ARRAY".into(),
            found: k.name().into(),
        });
    }
    let i = index.as_int()?;
    if i < 1 || i as usize > elems.len() {
        return Err(AdtError::IndexOutOfBounds {
            index: i,
            len: elems.len(),
        });
    }
    Ok(elems[(i - 1) as usize].clone())
}

/// `MAKESET`: create a set from an enumeration of elements.
pub fn make_set(elems: &[Value]) -> Value {
    Value::set(elems.to_vec())
}

/// `MAKEBAG`: create a bag from an enumeration of elements.
pub fn make_bag(elems: &[Value]) -> Value {
    Value::bag(elems.to_vec())
}

/// `MAKELIST`: create a list from an enumeration of elements.
pub fn make_list(elems: &[Value]) -> Value {
    Value::list(elems.to_vec())
}

/// The `ALL` quantifier: applied to a collection of booleans, true when
/// every element is true (vacuously true on the empty collection).
/// NULL elements make the result NULL unless some element is false.
pub fn quant_all(v: &Value) -> AdtResult<Value> {
    let (_, elems) = expect_coll("ALL", v)?;
    let mut saw_null = false;
    for e in elems {
        match e {
            Value::Bool(false) => return Ok(Value::Bool(false)),
            Value::Bool(true) => {}
            Value::Null => saw_null = true,
            other => {
                return Err(AdtError::TypeMismatch {
                    function: "ALL".into(),
                    expected: "collection of BOOL".into(),
                    found: other.kind_name().into(),
                })
            }
        }
    }
    Ok(if saw_null {
        Value::Null
    } else {
        Value::Bool(true)
    })
}

/// The `EXIST` quantifier: true when some element is true (false on the
/// empty collection). NULL elements make a non-true result NULL.
pub fn quant_exist(v: &Value) -> AdtResult<Value> {
    let (_, elems) = expect_coll("EXIST", v)?;
    let mut saw_null = false;
    for e in elems {
        match e {
            Value::Bool(true) => return Ok(Value::Bool(true)),
            Value::Bool(false) => {}
            Value::Null => saw_null = true,
            other => {
                return Err(AdtError::TypeMismatch {
                    function: "EXIST".into(),
                    expected: "collection of BOOL".into(),
                    found: other.kind_name().into(),
                })
            }
        }
    }
    Ok(if saw_null {
        Value::Null
    } else {
        Value::Bool(false)
    })
}

/// `SUM`: numeric sum of a collection's elements (0 for empty; NULL
/// elements are ignored, SQL-style).
pub fn sum(v: &Value) -> AdtResult<Value> {
    let (_, elems) = expect_coll("SUM", v)?;
    let mut int_sum: i64 = 0;
    let mut real_sum: f64 = 0.0;
    let mut any_real = false;
    for e in elems {
        match e {
            Value::Null => {}
            Value::Int(i) => int_sum = int_sum.wrapping_add(*i),
            other => {
                real_sum += other.as_f64().map_err(|_| AdtError::TypeMismatch {
                    function: "SUM".into(),
                    expected: "collection of numerics".into(),
                    found: other.kind_name().into(),
                })?;
                any_real = true;
            }
        }
    }
    if any_real {
        Ok(Value::real(real_sum + int_sum as f64))
    } else {
        Ok(Value::Int(int_sum))
    }
}

/// `MIN`: least element under SQL ordering (NULL on empty input, NULLs
/// ignored).
pub fn min(v: &Value) -> AdtResult<Value> {
    fold_extreme("MIN", v, std::cmp::Ordering::Less)
}

/// `MAX`: greatest element (NULL on empty input, NULLs ignored).
pub fn max(v: &Value) -> AdtResult<Value> {
    fold_extreme("MAX", v, std::cmp::Ordering::Greater)
}

fn fold_extreme(name: &str, v: &Value, keep: std::cmp::Ordering) -> AdtResult<Value> {
    let (_, elems) = expect_coll(name, v)?;
    let mut best: Option<&Value> = None;
    for e in elems {
        if e.is_null() {
            continue;
        }
        match best {
            None => best = Some(e),
            Some(b) => {
                if e.sql_cmp(b) == Some(keep) {
                    best = Some(e);
                }
            }
        }
    }
    Ok(best.cloned().unwrap_or(Value::Null))
}

/// `AVG`: numeric mean (NULL on empty input; NULL elements ignored).
pub fn avg(v: &Value) -> AdtResult<Value> {
    let (_, elems) = expect_coll("AVG", v)?;
    let usable: Vec<&Value> = elems.iter().filter(|e| !e.is_null()).collect();
    if usable.is_empty() {
        return Ok(Value::Null);
    }
    let total = sum(v)?;
    Ok(Value::real(total.as_f64()? / usable.len() as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: Vec<i64>) -> Value {
        Value::set(v.into_iter().map(Value::Int).collect())
    }
    fn b(v: Vec<i64>) -> Value {
        Value::bag(v.into_iter().map(Value::Int).collect())
    }
    fn l(v: Vec<i64>) -> Value {
        Value::list(v.into_iter().map(Value::Int).collect())
    }

    #[test]
    fn convert_bag_to_set_removes_duplicates() {
        let bag = b(vec![1, 1, 2]);
        assert_eq!(convert(&bag, CollKind::Set).unwrap(), s(vec![1, 2]));
    }

    #[test]
    fn set_union_dedups_bag_union_adds() {
        assert_eq!(
            union(&s(vec![1, 2]), &s(vec![2, 3])).unwrap(),
            s(vec![1, 2, 3])
        );
        assert_eq!(
            union(&b(vec![1, 2]), &b(vec![2, 3])).unwrap(),
            b(vec![1, 2, 2, 3])
        );
    }

    #[test]
    fn bag_intersection_uses_min_multiplicity() {
        assert_eq!(
            intersection(&b(vec![1, 1, 2]), &b(vec![1, 2, 2])).unwrap(),
            b(vec![1, 2])
        );
    }

    #[test]
    fn bag_difference_subtracts_multiplicity() {
        assert_eq!(
            difference(&b(vec![1, 1, 2]), &b(vec![1])).unwrap(),
            b(vec![1, 2])
        );
    }

    #[test]
    fn include_is_multiplicity_aware() {
        assert_eq!(
            include(&b(vec![1, 1]), &b(vec![1])).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            include(&b(vec![1]), &b(vec![1, 1])).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            include(&s(vec![1, 2]), &s(vec![1, 2, 3])).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn insert_into_set_is_idempotent() {
        let v = insert(&s(vec![1]), &Value::Int(1)).unwrap();
        assert_eq!(v, s(vec![1]));
        let v = insert(&l(vec![1]), &Value::Int(1)).unwrap();
        assert_eq!(v, l(vec![1, 1]));
    }

    #[test]
    fn remove_takes_one_occurrence() {
        assert_eq!(remove(&b(vec![1, 1]), &Value::Int(1)).unwrap(), b(vec![1]));
        assert_eq!(remove(&s(vec![1]), &Value::Int(2)).unwrap(), s(vec![1]));
    }

    #[test]
    fn member_works_on_all_kinds() {
        assert_eq!(
            member(&Value::Int(2), &l(vec![1, 2])).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            member(&Value::Int(5), &s(vec![1, 2])).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn choice_on_empty_fails() {
        assert_eq!(
            choice(&s(vec![])).unwrap_err(),
            AdtError::EmptyCollection("CHOICE".into())
        );
        assert_eq!(choice(&s(vec![3, 1])).unwrap(), Value::Int(1));
    }

    #[test]
    fn append_rejects_sets() {
        assert!(append(&s(vec![1]), &s(vec![2])).is_err());
        assert_eq!(append(&l(vec![1]), &l(vec![2])).unwrap(), l(vec![1, 2]));
    }

    #[test]
    fn nth_is_one_based() {
        assert_eq!(
            nth(&l(vec![10, 20]), &Value::Int(1)).unwrap(),
            Value::Int(10)
        );
        assert!(nth(&l(vec![10]), &Value::Int(0)).is_err());
        assert!(nth(&l(vec![10]), &Value::Int(2)).is_err());
    }

    #[test]
    fn quantifiers() {
        let all_true = Value::list(vec![true.into(), true.into()]);
        let mixed = Value::list(vec![true.into(), false.into()]);
        let empty = Value::list(vec![]);
        assert_eq!(quant_all(&all_true).unwrap(), Value::Bool(true));
        assert_eq!(quant_all(&mixed).unwrap(), Value::Bool(false));
        assert_eq!(quant_all(&empty).unwrap(), Value::Bool(true));
        assert_eq!(quant_exist(&mixed).unwrap(), Value::Bool(true));
        assert_eq!(quant_exist(&empty).unwrap(), Value::Bool(false));
    }

    #[test]
    fn quantifiers_three_valued() {
        let with_null = Value::list(vec![true.into(), Value::Null]);
        assert_eq!(quant_all(&with_null).unwrap(), Value::Null);
        // EXIST short-circuits on a true element even with NULLs present.
        assert_eq!(quant_exist(&with_null).unwrap(), Value::Bool(true));
        let null_and_false = Value::list(vec![Value::Null, false.into()]);
        assert_eq!(quant_all(&null_and_false).unwrap(), Value::Bool(false));
        assert_eq!(quant_exist(&null_and_false).unwrap(), Value::Null);
    }

    #[test]
    fn aggregates() {
        let b = Value::bag(vec![3.into(), 1.into(), 2.into(), Value::Null]);
        assert_eq!(sum(&b).unwrap(), Value::Int(6));
        assert_eq!(min(&b).unwrap(), Value::Int(1));
        assert_eq!(max(&b).unwrap(), Value::Int(3));
        assert_eq!(avg(&b).unwrap(), Value::real(2.0));
        let empty = Value::set(vec![]);
        assert_eq!(sum(&empty).unwrap(), Value::Int(0));
        assert_eq!(min(&empty).unwrap(), Value::Null);
        assert_eq!(avg(&empty).unwrap(), Value::Null);
        let mixed = Value::list(vec![1.into(), Value::real(0.5)]);
        assert_eq!(sum(&mixed).unwrap(), Value::real(1.5));
    }

    #[test]
    fn equal_requires_same_kind() {
        assert!(coll_equal(&s(vec![1]), &b(vec![1])).is_err());
        assert_eq!(
            coll_equal(&s(vec![1, 2]), &s(vec![2, 1])).unwrap(),
            Value::Bool(true)
        );
    }
}
