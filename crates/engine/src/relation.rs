//! In-memory relations with shared (reference-counted) rows.
//!
//! Rows are stored behind [`Arc`] so that row-preserving operators
//! (filter, join combination, union, fixpoint accumulation) share tuples
//! instead of deep-cloning every `Value`. The schema is shared the same
//! way: cloning a [`Relation`] is two pointer-vector copies, never a
//! traversal of string or collection values.

use std::sync::Arc;

use eds_adt::Value;
use eds_lera::Schema;

use crate::hash::{Fold, FoldSet};

/// A row: one value per attribute.
pub type Row = Vec<Value>;

/// A reference-counted row, shared between relations. Stored as a slice
/// (`Arc<[Value]>`), not `Arc<Vec<Value>>`: one allocation per row
/// instead of two, and one less indirection on every access.
pub type SharedRow = Arc<[Value]>;

/// Drain a scratch buffer into a shared row. `vec::Drain` is a
/// `TrustedLen` iterator, so the `Arc<[Value]>` is allocated exactly
/// once — half the allocator traffic of `Arc::new(vec)` per
/// materialized row, which dominates projection-heavy operators.
#[inline]
pub fn shared_row(scratch: &mut Vec<Value>) -> SharedRow {
    scratch.drain(..).collect()
}

/// An in-memory relation with bag semantics (ESQL query blocks produce
/// bags by default; set operations deduplicate explicitly).
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    /// The relation's schema (shared; cloning is a refcount bump).
    pub schema: Arc<Schema>,
    /// Rows, duplicates allowed. Shared: operators that keep a row pass
    /// the same allocation along.
    pub rows: Vec<SharedRow>,
}

impl Relation {
    /// Empty relation with the given schema.
    pub fn empty(schema: impl Into<Arc<Schema>>) -> Self {
        Relation {
            schema: schema.into(),
            rows: Vec::new(),
        }
    }

    /// Relation with owned rows (each is wrapped for sharing).
    pub fn new(schema: impl Into<Arc<Schema>>, rows: Vec<Row>) -> Self {
        Relation {
            schema: schema.into(),
            rows: rows.into_iter().map(SharedRow::from).collect(),
        }
    }

    /// Relation from already-shared rows.
    pub fn from_shared(schema: impl Into<Arc<Schema>>, rows: Vec<SharedRow>) -> Self {
        Relation {
            schema: schema.into(),
            rows,
        }
    }

    /// Number of rows (with duplicates).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows are present.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append an owned row. Goes through [`shared_row`] so the
    /// `Arc<[Value]>` is allocated in a single `TrustedLen` collect
    /// instead of the `From<Vec>` round trip.
    pub fn push(&mut self, mut row: Row) {
        self.rows.push(shared_row(&mut row));
    }

    /// Append a shared row (no deep copy).
    pub fn push_shared(&mut self, row: SharedRow) {
        self.rows.push(row);
    }

    /// Deduplicated copy (set semantics), rows in canonical order.
    /// Duplicates are dropped by hash membership first, so only the
    /// unique rows pay the O(u log u) sort — a large saving for
    /// low-cardinality inputs (e.g. `SELECT DISTINCT` over a category
    /// column).
    pub fn deduped(&self) -> Relation {
        let mut seen: FoldSet<&[Value]> =
            FoldSet::with_capacity_and_hasher(self.rows.len(), Fold::default());
        let mut rows: Vec<SharedRow> = Vec::new();
        for r in &self.rows {
            if seen.insert(&**r) {
                rows.push(r.clone());
            }
        }
        rows.sort_unstable();
        Relation {
            schema: self.schema.clone(),
            rows,
        }
    }

    /// Canonicalized copy: sorted rows with duplicates retained. Two
    /// relations with equal canonical forms are bag-equal. (Unstable
    /// sort: equal rows are indistinguishable by value.)
    pub fn canonical(&self) -> Relation {
        let mut rows = self.rows.clone();
        rows.sort_unstable();
        Relation {
            schema: self.schema.clone(),
            rows,
        }
    }

    /// Set-equality against another relation (ignores duplicates/order).
    pub fn set_eq(&self, other: &Relation) -> bool {
        self.deduped().rows == other.deduped().rows
    }

    /// Bag-equality against another relation (ignores order only).
    pub fn bag_eq(&self, other: &Relation) -> bool {
        self.canonical().rows == other.canonical().rows
    }

    /// The rows as a sorted, deduplicated vector of owned rows (for
    /// assertions).
    pub fn sorted_rows(&self) -> Vec<Row> {
        self.deduped()
            .rows
            .into_iter()
            .map(|r| r.to_vec())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eds_adt::{Field, Type};

    fn schema2() -> Schema {
        Schema::new(vec![Field::new("a", Type::Int), Field::new("b", Type::Int)])
    }

    fn r(rows: Vec<(i64, i64)>) -> Relation {
        Relation::new(
            schema2(),
            rows.into_iter()
                .map(|(a, b)| vec![Value::Int(a), Value::Int(b)])
                .collect(),
        )
    }

    #[test]
    fn set_and_bag_equality() {
        let a = r(vec![(1, 2), (3, 4), (1, 2)]);
        let b = r(vec![(3, 4), (1, 2)]);
        assert!(a.set_eq(&b));
        assert!(!a.bag_eq(&b));
        let c = r(vec![(1, 2), (1, 2), (3, 4)]);
        assert!(a.bag_eq(&c));
    }

    #[test]
    fn dedup_is_canonical() {
        let a = r(vec![(3, 4), (1, 2), (3, 4)]);
        assert_eq!(a.deduped().rows.len(), 2);
        assert_eq!(*a.deduped().rows[0], vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn shared_rows_are_not_deep_copied() {
        let a = r(vec![(1, 2)]);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.rows[0], &b.rows[0]));
        assert!(Arc::ptr_eq(&a.schema, &b.schema));
    }
}
