//! Per-table statistics for the cost-guided rewriter.
//!
//! The paper's rewriter picks plans structurally; the cost-guided tier
//! needs numbers. [`TableStats`] summarizes a stored relation with the
//! three inputs the selectivity formulas in `lera::cost` consume:
//!
//! * the exact row count (`card`) and per-column NULL counts;
//! * per-column numeric `min`/`max` for range interpolation;
//! * a per-column distinct-count estimate from a KMV (k-minimum-values)
//!   sketch — the k smallest 64-bit value hashes. Below `k` distinct
//!   values the sketch is exact; above, the classic `(k-1)/R_k`
//!   estimator applies. `k = 256` keeps the sketch a few KiB per column
//!   while staying within ~10% relative error.
//!
//! Sketches are cached per table by [`crate::Database`] exactly like the
//! columnar mirrors: built lazily on first request, maintained
//! incrementally on [`crate::Database::insert`] (every column sketch
//! observes the appended row), and dropped by bulk/unstructured
//! mutations (`relation_mut`, `truncate`, re-`CREATE`) so the next
//! request rebuilds from the rows.

use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use eds_adt::Value;
use eds_lera::{ColumnStats, RelationStats};

use crate::relation::Relation;

/// Sketch capacity: distinct counts are exact up to this many values.
pub const KMV_K: usize = 256;

/// A k-minimum-values distinct-count sketch over 64-bit value hashes.
#[derive(Debug, Clone, Default)]
struct Kmv {
    /// The `KMV_K` smallest hashes seen, deduplicated.
    smallest: BTreeSet<u64>,
    /// Whether any hash has been evicted (sketch is estimating).
    saturated: bool,
}

impl Kmv {
    fn observe(&mut self, h: u64) {
        if self.smallest.len() < KMV_K {
            self.smallest.insert(h);
            return;
        }
        let max = *self.smallest.iter().next_back().expect("non-empty");
        if h < max && self.smallest.insert(h) {
            self.smallest.pop_last();
            self.saturated = true;
        } else if h > max {
            self.saturated = true;
        }
    }

    fn estimate(&self) -> f64 {
        if !self.saturated {
            return self.smallest.len() as f64;
        }
        // (k-1)/R_k with hashes normalized into (0, 1].
        let kth = *self.smallest.iter().next_back().expect("saturated") as f64;
        let r = (kth + 1.0) / (u64::MAX as f64 + 1.0);
        (self.smallest.len() as f64 - 1.0) / r
    }
}

/// Deterministic value hash for the sketch (`DefaultHasher` uses fixed
/// keys, so estimates are reproducible across runs and hosts).
fn value_hash(v: &Value) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Statistics for one column of a stored relation.
#[derive(Debug, Clone, Default)]
pub struct ColumnSketch {
    /// NULLs seen in this column.
    pub nulls: u64,
    /// Smallest numeric value (Int widened to f64), if any numeric seen.
    pub min: Option<f64>,
    /// Largest numeric value.
    pub max: Option<f64>,
    kmv: Kmv,
}

impl ColumnSketch {
    /// Estimated number of distinct non-NULL values.
    pub fn distinct(&self) -> f64 {
        self.kmv.estimate()
    }

    fn observe(&mut self, v: &Value) {
        if matches!(v, Value::Null) {
            self.nulls += 1;
            return;
        }
        if let Some(x) = numeric(v) {
            self.min = Some(self.min.map_or(x, |m| m.min(x)));
            self.max = Some(self.max.map_or(x, |m| m.max(x)));
        }
        self.kmv.observe(value_hash(v));
    }
}

fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Real(r) => Some(r.0),
        _ => None,
    }
}

/// Statistics for one stored relation.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    /// Exact row count at build time (maintained on insert).
    pub card: u64,
    /// Per-column sketches, in schema order.
    pub columns: Vec<ColumnSketch>,
}

impl TableStats {
    /// Build from the stored rows.
    pub fn build(rel: &Relation) -> TableStats {
        let mut stats = TableStats {
            card: 0,
            columns: vec![ColumnSketch::default(); rel.schema.arity()],
        };
        for row in &rel.rows {
            stats.observe_row(row);
        }
        stats
    }

    /// Fold one appended row into the sketches.
    pub fn observe_row(&mut self, row: &[Value]) {
        self.card += 1;
        for (col, v) in self.columns.iter_mut().zip(row.iter()) {
            col.observe(v);
        }
    }

    /// The estimator's view of these statistics — what the cost model
    /// in `lera::cost` consumes.
    pub fn relation_stats(&self) -> RelationStats {
        let columns = self.columns.iter().enumerate().map(|(i, c)| ColumnStats {
            distinct: c.distinct(),
            min: c.min,
            max: c.max,
            null_frac: self.null_frac(i),
        });
        RelationStats {
            card: self.card as f64,
            columns: columns.collect(),
        }
    }

    /// Fraction of NULLs in column `i` (0-based), 0.0 when empty.
    pub fn null_frac(&self, i: usize) -> f64 {
        if self.card == 0 {
            return 0.0;
        }
        self.columns
            .get(i)
            .map_or(0.0, |c| c.nulls as f64 / self.card as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eds_adt::{Field, Type};
    use eds_lera::Schema;

    fn relation(values: Vec<Vec<Value>>) -> Relation {
        let arity = values.first().map_or(1, Vec::len);
        let fields = (0..arity)
            .map(|i| Field::new(format!("C{i}"), Type::Int))
            .collect();
        let mut rel = Relation::empty(Schema::new(fields));
        for row in values {
            rel.push(row);
        }
        rel
    }

    #[test]
    fn small_tables_count_exactly() {
        let rel = relation((0..100).map(|i| vec![Value::Int(i % 10)]).collect());
        let s = TableStats::build(&rel);
        assert_eq!(s.card, 100);
        assert_eq!(s.columns[0].distinct(), 10.0);
        assert_eq!(s.columns[0].min, Some(0.0));
        assert_eq!(s.columns[0].max, Some(9.0));
        assert_eq!(s.null_frac(0), 0.0);
    }

    #[test]
    fn kmv_estimates_large_domains_within_tolerance() {
        // 20_000 distinct values is far past the sketch capacity; the
        // estimator must land within ~10%.
        let rel = relation((0..20_000).map(|i| vec![Value::Int(i)]).collect());
        let s = TableStats::build(&rel);
        let d = s.columns[0].distinct();
        let err = (d - 20_000.0).abs() / 20_000.0;
        assert!(err < 0.10, "distinct estimate {d} off by {err:.3}");
    }

    #[test]
    fn nulls_tracked_separately_from_distincts() {
        let rows = (0..40)
            .map(|i| {
                vec![if i % 4 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 5)
                }]
            })
            .collect();
        let s = TableStats::build(&relation(rows));
        assert_eq!(s.columns[0].nulls, 10);
        assert_eq!(s.null_frac(0), 0.25);
        // NULL contributes to neither distinct count nor min/max.
        assert!(s.columns[0].distinct() <= 5.0);
    }

    #[test]
    fn incremental_observe_matches_rebuild() {
        let rows: Vec<Vec<Value>> = (0..500).map(|i| vec![Value::Int(i * 3 % 97)]).collect();
        let rel = relation(rows.clone());
        let built = TableStats::build(&rel);
        let mut inc = TableStats {
            card: 0,
            columns: vec![ColumnSketch::default()],
        };
        for row in &rows {
            inc.observe_row(row);
        }
        assert_eq!(inc.card, built.card);
        assert_eq!(inc.columns[0].distinct(), built.columns[0].distinct());
        assert_eq!(inc.columns[0].min, built.columns[0].min);
        assert_eq!(inc.columns[0].max, built.columns[0].max);
    }

    #[test]
    fn strings_count_distinct_without_minmax() {
        let rel = relation(
            (0..30)
                .map(|i| vec![Value::str(format!("tag{}", i % 7))])
                .collect(),
        );
        let s = TableStats::build(&rel);
        assert_eq!(s.columns[0].distinct(), 7.0);
        assert_eq!(s.columns[0].min, None);
        assert_eq!(s.columns[0].max, None);
    }
}
