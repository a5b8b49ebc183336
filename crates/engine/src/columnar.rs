//! Columnar mirrors of stored relations.
//!
//! A [`ColumnarRelation`] stores one typed vector per attribute — `i64`
//! or interned strings, the two layouts a kernel reads, each with a null
//! bitmap — plus a [`Value`] *spill* column for everything else: reals,
//! booleans, ADTs, enums, collections, objects, or a mix of runtime
//! kinds. The mirror is a pure acceleration structure: the row-major
//! [`Relation`] stays the single source of truth (operators keep passing
//! [`SharedRow`]s along by refcount), and compiled predicates run their
//! typed kernels over the contiguous columns to produce a *selection
//! vector* of row indices, which the operator then gathers from the row
//! store. Results are therefore byte-identical to the row path by
//! construction.
//!
//! Mirrors are built lazily per stored base table (see
//! [`Database::columnar`](crate::database::Database::columnar)) and
//! invalidated by every mutation path. A relation whose columns all
//! spill (or which is empty) stays row-major: [`ColumnarRelation::build`]
//! returns `None` and the engine never asks again until the table
//! changes.
//!
//! Each `Int` column also keeps a zone map — the min and max payload of
//! every `ZONE_ROWS` rows — which lets a comparison against a constant
//! skip or take a whole selection strip without reading its rows, and
//! lets a DISTINCT or GROUP BY on the column address a key by
//! `payload − min` when the selection's span is dense (`DenseKey`).
//!
//! [`SharedRow`]: crate::relation::SharedRow

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use eds_adt::Value;

use crate::relation::{Relation, Row};

/// A null bitmap: bit set = NULL at that row. The `any` flag lets the
/// hot `is_null` check skip the word load entirely for columns without
/// nulls (the common case).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct NullBitmap {
    words: Vec<u64>,
    any: bool,
}

impl NullBitmap {
    fn with_capacity(n: usize) -> NullBitmap {
        NullBitmap {
            words: Vec::with_capacity(n.div_ceil(64)),
            any: false,
        }
    }

    /// Is row `i` NULL?
    #[inline]
    pub(crate) fn is_null(&self, i: usize) -> bool {
        self.any && (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Call `f(i)` for every NULL row `i` in `[lo, hi)`, ascending, a
    /// word at a time: an all-valid word costs one load, and the set
    /// bits of any other are peeled off with `trailing_zeros` — a sparse
    /// NULL pattern pays per NULL, not per row.
    pub(crate) fn for_each_null(&self, lo: usize, hi: usize, mut f: impl FnMut(usize)) {
        for (w, mut bits) in self.words_in(lo, hi) {
            while bits != 0 {
                f(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Is any row in `[lo, hi)` NULL? One load per word, none at all
    /// for a column without NULLs.
    pub(crate) fn any_in(&self, lo: usize, hi: usize) -> bool {
        self.words_in(lo, hi).any(|(_, bits)| bits != 0)
    }

    /// The words covering `[lo, hi)` with their index, masked to the
    /// range's bits; nothing when the column has no NULL.
    fn words_in(&self, lo: usize, hi: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        let (first, last) = (lo / 64, hi.saturating_sub(1) / 64);
        let words = if self.any && lo < hi {
            first..last + 1
        } else {
            0..0
        };
        words.map(move |w| {
            let mut bits = self.words[w];
            if w == first {
                bits &= u64::MAX << (lo % 64);
            }
            if w == last {
                bits &= u64::MAX >> (63 - (hi - 1) % 64);
            }
            (w, bits)
        })
    }

    /// Record row `i` as appended, growing the word vector as needed so
    /// `is_null` never indexes out of bounds once `any` flips on.
    fn push(&mut self, i: usize, null: bool) {
        let w = i / 64;
        if self.words.len() <= w {
            self.words.resize(w + 1, 0);
        }
        if null {
            self.words[w] |= 1 << (i % 64);
            self.any = true;
        }
    }
}

/// Rows per zone of an `Int` column. Equal to the selection strip of
/// [`ColumnarPred::select_range`](crate::compile::ColumnarPred::select_range),
/// so a scan from row 0 reads each strip's verdict off one zone.
pub(crate) const ZONE_ROWS: usize = 1024;

/// A zone map (Moerkotte's *small materialized aggregates*): the
/// minimum and maximum payload of every [`ZONE_ROWS`] rows of an `Int`
/// column, the last zone covering what rows there are. A NULL row's
/// `0` payload counts, so a zone's bounds hold every payload in it —
/// conservative, never wrong: a comparison no value in the zone can
/// pass rejects the zone whole, NULLs included.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Zones(Vec<(i64, i64)>);

impl Zones {
    fn with_capacity(n: usize) -> Zones {
        Zones(Vec::with_capacity(n.div_ceil(ZONE_ROWS)))
    }

    /// Record payload `x` appended as row `i`.
    fn push(&mut self, i: usize, x: i64) {
        match self.0.last_mut() {
            Some((min, max)) if !i.is_multiple_of(ZONE_ROWS) => {
                *min = (*min).min(x);
                *max = (*max).max(x);
            }
            _ => self.0.push((x, x)),
        }
    }

    /// The `(min, max)` over every zone `[lo, hi)` overlaps: one zone for
    /// an aligned strip, their fold for one that straddles a boundary.
    /// `lo < hi <= len` of the column.
    pub(crate) fn span(&self, lo: usize, hi: usize) -> (i64, i64) {
        self.0[lo / ZONE_ROWS..hi.div_ceil(ZONE_ROWS)]
            .iter()
            .fold((i64::MAX, i64::MIN), |(min, max), &(zmin, zmax)| {
                (min.min(zmin), max.max(zmax))
            })
    }
}

/// Selected rows of an `Int` column addressed by payload: every payload
/// from the first selected row to the last lies in `[min, min + slots)`,
/// so `payload − min` indexes a bitmap or an array of `slots` entries
/// directly, and the entries read in ascending index order are the keys
/// in ascending order. NULL rows have no slot.
pub(crate) struct DenseKey<'c> {
    values: &'c [i64],
    nulls: &'c NullBitmap,
    min: i64,
    /// Entries the key needs: `max − min + 1`.
    pub(crate) slots: usize,
}

impl DenseKey<'_> {
    /// Row `i`'s slot, `None` when it is NULL. `i` is one of the rows
    /// the key was made for.
    #[inline]
    pub(crate) fn slot(&self, i: usize) -> Option<usize> {
        // In range by the zone map: `0 <= payload − min < slots`.
        (!self.nulls.is_null(i)).then(|| self.values[i].wrapping_sub(self.min) as usize)
    }

    /// The key of slot `s` (`s < slots`, so `min + s <= max`).
    #[inline]
    pub(crate) fn key(&self, s: usize) -> i64 {
        self.min.wrapping_add(s as i64)
    }
}

/// One attribute of a columnar mirror. Typed variants hold the decoded
/// payloads contiguously (null rows hold a default payload and set their
/// bitmap bit); `Spill` keeps the original [`Value`]s for shapes the
/// typed layout does not cover.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Column {
    /// `Value::Int` column (NUMERIC/INT attributes with integer values).
    Int {
        /// Decoded payloads.
        values: Vec<i64>,
        /// Null positions.
        nulls: NullBitmap,
        /// Min and max payload per [`ZONE_ROWS`] rows.
        zones: Zones,
    },
    /// `Value::Str` column, interned: `ids[i]` indexes `pool`, which
    /// holds each distinct string once. Comparisons against a constant
    /// evaluate once per *distinct* string, not once per row.
    Str {
        /// Per-row interned ids.
        ids: Vec<u32>,
        /// Distinct strings in first-appearance order.
        pool: Vec<Arc<str>>,
        /// Reverse index for constant lookups.
        lookup: HashMap<Arc<str>, u32>,
        /// Null positions.
        nulls: NullBitmap,
    },
    /// Everything else: reals, booleans, enums, tuples, collections,
    /// object references, and columns whose rows mix runtime kinds
    /// (mid-column type spill).
    Spill(Vec<Value>),
}

impl Column {
    /// Rebuild the row-major value at row `i` (byte-identical to the
    /// value the mirror was built from).
    pub(crate) fn value(&self, i: usize) -> Value {
        match self {
            Column::Int { values, nulls, .. } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Int(values[i])
                }
            }
            Column::Str {
                ids, pool, nulls, ..
            } => {
                if nulls.is_null(i) {
                    Value::Null
                } else {
                    Value::Str(pool[ids[i] as usize].to_string())
                }
            }
            Column::Spill(values) => values[i].clone(),
        }
    }

    /// Feed row `i`'s *code* to `h`: the null bit and the payload of an
    /// `Int`, the null bit and the interned id of a `Str`, the value
    /// itself of a `Spill`. Two rows' codes are equal exactly when their
    /// values are ([`Column::eq_at`]): a NULL row sets its bit and holds
    /// the default payload, so it equals every NULL and no `0`, and
    /// interning gives each distinct string one id, so ids are equal
    /// exactly when strings are. A set keyed on codes therefore finds a
    /// repeated row without building a `Value`.
    pub(crate) fn hash_at<H: Hasher>(&self, i: usize, h: &mut H) {
        match self {
            Column::Int { values, nulls, .. } => (nulls.is_null(i), values[i]).hash(h),
            Column::Str { ids, nulls, .. } => (nulls.is_null(i), ids[i]).hash(h),
            Column::Spill(values) => values[i].hash(h),
        }
    }

    /// Direct addressing for the selected rows `sel` (a selection
    /// vector, ascending) of an `Int` column, when the zone span over
    /// them holds at most `per_row` payloads per selected row; `None` for
    /// any other layout, an empty selection, or a wider or overflowing
    /// span.
    pub(crate) fn dense_key(&self, sel: &[u32], per_row: usize) -> Option<DenseKey<'_>> {
        let Column::Int {
            values,
            nulls,
            zones,
        } = self
        else {
            return None;
        };
        let (&first, &last) = (sel.first()?, sel.last()?);
        // `max − min` overflows for a span from `i64::MIN` to `i64::MAX`.
        let (min, max) = zones.span(first as usize, last as usize + 1);
        let slots = usize::try_from(max.checked_sub(min)?)
            .ok()?
            .checked_add(1)?;
        if slots > per_row.saturating_mul(sel.len()) {
            return None;
        }
        Some(DenseKey {
            values,
            nulls,
            min,
            slots,
        })
    }

    /// Do rows `a` and `b` hold equal values? Decided on the codes
    /// [`Column::hash_at`] hashes, which is `Value` equality.
    pub(crate) fn eq_at(&self, a: usize, b: usize) -> bool {
        match self {
            Column::Int { values, nulls, .. } => {
                (nulls.is_null(a), values[a]) == (nulls.is_null(b), values[b])
            }
            Column::Str { ids, nulls, .. } => {
                (nulls.is_null(a), ids[a]) == (nulls.is_null(b), ids[b])
            }
            Column::Spill(values) => values[a] == values[b],
        }
    }

    /// Would `v` fit this column's layout without changing it? NULL fits
    /// every typed column; spill columns accept anything. Appending a
    /// typed value to a spill column keeps it spilled (a fresh rebuild
    /// might have chosen a typed layout for an all-NULL column, but the
    /// mirror stays byte-identical to the row store either way — spill
    /// is only a missed acceleration, never a correctness difference).
    fn accepts(&self, v: &Value) -> bool {
        matches!(
            (self, v),
            (Column::Spill(_), _)
                | (Column::Int { .. }, Value::Int(_) | Value::Null)
                | (Column::Str { .. }, Value::Str(_) | Value::Null)
        )
    }

    /// Append `v` as row `i` — the one decode path, shared by
    /// [`build_column`] and [`ColumnarRelation::push_row`], and the one
    /// place an `Int` column's zones grow. Callers must have established
    /// [`Column::accepts`] first (the kind scan, or the per-row check),
    /// so a mismatch never leaves a column half-appended: a typed column
    /// then meets only its own kind or NULL, and decodes anything else
    /// as NULL.
    fn push(&mut self, v: &Value, i: usize) {
        debug_assert!(self.accepts(v));
        match self {
            Column::Int {
                values,
                nulls,
                zones,
            } => {
                let (x, null) = match v {
                    Value::Int(x) => (*x, false),
                    _ => (0, true),
                };
                values.push(x);
                nulls.push(i, null);
                zones.push(i, x);
            }
            Column::Str {
                ids,
                pool,
                lookup,
                nulls,
            } => {
                let Value::Str(s) = v else {
                    ids.push(0);
                    nulls.push(i, true);
                    return;
                };
                let id = match lookup.get(s.as_str()) {
                    Some(&id) => id,
                    None => {
                        let id = pool.len() as u32;
                        let interned: Arc<str> = Arc::from(s.as_str());
                        pool.push(interned.clone());
                        lookup.insert(interned, id);
                        id
                    }
                };
                ids.push(id);
                nulls.push(i, false);
            }
            Column::Spill(values) => values.push(v.clone()),
        }
    }
}

/// Row `row` of a mirror seen through some of its `columns`, as a set
/// entry: hashed and compared by code ([`Column::hash_at`],
/// [`Column::eq_at`]). Entries of one set share their `columns`.
#[derive(Clone, Copy)]
pub(crate) struct CodedRow<'c> {
    columns: &'c [&'c Column],
    row: usize,
}

impl<'c> CodedRow<'c> {
    pub(crate) fn new(columns: &'c [&'c Column], row: usize) -> CodedRow<'c> {
        CodedRow { columns, row }
    }
}

impl Hash for CodedRow<'_> {
    fn hash<H: Hasher>(&self, h: &mut H) {
        for c in self.columns {
            c.hash_at(self.row, h);
        }
    }
}

impl PartialEq for CodedRow<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.columns.iter().all(|c| c.eq_at(self.row, other.row))
    }
}

impl Eq for CodedRow<'_> {}

/// A columnar mirror of a relation: one `Column` per attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarRelation {
    len: usize,
    columns: Vec<Column>,
}

impl ColumnarRelation {
    /// Build a mirror of `rel`. Returns `None` when the relation is not
    /// column-friendly: empty, zero-arity, rows of inconsistent arity,
    /// or no attribute that decodes to a typed column (all spill).
    pub fn build(rel: &Relation) -> Option<ColumnarRelation> {
        let n = rel.rows.len();
        let arity = rel.schema.arity();
        if n == 0 || arity == 0 || rel.rows.iter().any(|r| r.len() != arity) {
            return None;
        }
        let mut columns = Vec::with_capacity(arity);
        let mut typed = 0usize;
        for j in 0..arity {
            let col = build_column(&rel.rows, j, n);
            if !matches!(col, Column::Spill(_)) {
                typed += 1;
            }
            columns.push(col);
        }
        if typed == 0 {
            return None;
        }
        Some(ColumnarRelation { len: n, columns })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the mirror has no rows (never happens for built
    /// mirrors; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Column by 0-based index (crate-internal; kernels borrow from it).
    pub(crate) fn column(&self, j: usize) -> Option<&Column> {
        self.columns.get(j)
    }

    /// Whether attribute `j` (0-based) decoded to a typed column rather
    /// than the `Value` spill representation.
    pub fn column_is_typed(&self, j: usize) -> bool {
        !matches!(self.columns.get(j), Some(Column::Spill(_)) | None)
    }

    /// Row-view: rebuild the value at (`row`, `col`), both 0-based.
    /// Byte-identical to the row store the mirror was built from.
    pub fn value_at(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// Row-view: rebuild the full row at `i` (0-based).
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// Incrementally append one row to the mirror. Returns `false` —
    /// leaving the mirror untouched — when the row's arity differs or
    /// any value does not fit its column's typed layout, in which case
    /// the caller must drop the mirror and let the next scan rebuild.
    /// Every column is checked before any column is touched.
    pub(crate) fn push_row(&mut self, row: &[Value]) -> bool {
        if row.len() != self.columns.len() {
            return false;
        }
        if !self.columns.iter().zip(row).all(|(c, v)| c.accepts(v)) {
            return false;
        }
        let i = self.len;
        for (c, v) in self.columns.iter_mut().zip(row) {
            c.push(v, i);
        }
        self.len += 1;
        true
    }
}

/// Decide the layout of column `j`, then decode it through
/// [`Column::push`] — the same path [`ColumnarRelation::push_row`]
/// grows a mirror by, so a rebuilt mirror and an incrementally grown
/// one are equal by construction. The first non-NULL value proposes the
/// layout and [`Column::accepts`] checks every row against it before
/// anything is decoded, so a mid-column kind conflict spills without
/// decoding half a typed vector.
fn build_column(rows: &[crate::relation::SharedRow], j: usize, n: usize) -> Column {
    let mut col = match rows.iter().map(|r| &r[j]).find(|v| !v.is_null()) {
        Some(Value::Int(_)) => Column::Int {
            values: Vec::with_capacity(n),
            nulls: NullBitmap::with_capacity(n),
            zones: Zones::with_capacity(n),
        },
        Some(Value::Str(_)) => Column::Str {
            ids: Vec::with_capacity(n),
            pool: Vec::new(),
            lookup: HashMap::new(),
            nulls: NullBitmap::with_capacity(n),
        },
        // No kernel reads any other kind, and none can touch an
        // all-NULL column: spill keeps the exact values trivially.
        _ => Column::Spill(Vec::with_capacity(n)),
    };
    if !rows.iter().all(|r| col.accepts(&r[j])) {
        col = Column::Spill(Vec::with_capacity(n));
    }
    for (i, row) in rows.iter().enumerate() {
        col.push(&row[j], i);
    }
    col
}

#[cfg(test)]
mod tests {
    use super::*;
    use eds_adt::{Field, Type};
    use eds_lera::Schema;

    fn schema(names: &[&str]) -> Schema {
        Schema::new(names.iter().map(|n| Field::new(*n, Type::Any)).collect())
    }

    #[test]
    fn typed_columns_roundtrip_exactly() {
        let rel = Relation::new(
            schema(&["i", "r", "s", "b"]),
            vec![
                vec![
                    Value::Int(1),
                    Value::real(1.5),
                    Value::str("a"),
                    Value::Bool(true),
                ],
                vec![Value::Null, Value::Null, Value::Null, Value::Null],
                vec![
                    Value::Int(-3),
                    Value::real(f64::NAN),
                    Value::str("a"),
                    Value::Bool(false),
                ],
            ],
        );
        let cols = ColumnarRelation::build(&rel).expect("column-friendly");
        assert_eq!(cols.len(), 3);
        assert_eq!(cols.arity(), 4);
        // Int and Str are the layouts a kernel reads; Real and Bool
        // spill, and round-trip exactly all the same.
        for (j, typed) in [true, false, true, false].into_iter().enumerate() {
            assert_eq!(cols.column_is_typed(j), typed, "column {j}");
        }
        for (i, row) in rel.rows.iter().enumerate() {
            assert_eq!(cols.row(i), row.to_vec(), "row {i} diverges");
        }
        // Interning: "a" appears twice but is pooled once.
        match cols.column(2).unwrap() {
            Column::Str { pool, ids, .. } => {
                assert_eq!(pool.len(), 1);
                assert_eq!(ids[0], ids[2]);
            }
            other => panic!("expected Str column, got {other:?}"),
        }
    }

    /// One decode path: a mirror rebuilt from all rows equals the mirror
    /// of the first row grown by `push_row`, over Int / Str / spill
    /// columns with NULLs mixed in. (The first row is NULL-free so both
    /// builds see every column's kind; an all-NULL prefix legitimately
    /// spills where a rebuild would type — see `accepts`.)
    #[test]
    fn rebuild_equals_first_row_plus_push_row() {
        use eds_testkit::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(0xC01);
        for case in 0..200 {
            // Column 0 is always Int so the relation keeps a mirror.
            let kinds: Vec<u8> = std::iter::once(0)
                .chain((0..rng.gen_range(0..4usize)).map(|_| rng.gen_range(0..3u8)))
                .collect();
            let n = rng.gen_range(1..150usize);
            let rows: Vec<Row> = (0..n)
                .map(|i| {
                    kinds
                        .iter()
                        .map(|k| match k {
                            _ if i > 0 && rng.gen_bool(0.2) => Value::Null,
                            0 => Value::Int(rng.gen_range(-5..5i64)),
                            1 => Value::str(format!("s{}", rng.gen_range(0..4u32))),
                            // Spill mix; its first row must not be an
                            // Int or Str, which would start typed.
                            _ => match rng.gen_range(0..if i == 0 { 3 } else { 5u8 }) {
                                0 => Value::real(1.5),
                                1 => Value::Bool(true),
                                2 => Value::Tuple(vec![Value::Int(1)]),
                                3 => Value::Int(1),
                                _ => Value::str("x"),
                            },
                        })
                        .collect()
                })
                .collect();
            let names: Vec<String> = (0..kinds.len()).map(|j| format!("c{j}")).collect();
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            let full = ColumnarRelation::build(&Relation::new(schema(&names), rows.clone()))
                .expect("column 0 is typed");
            let mut grown =
                ColumnarRelation::build(&Relation::new(schema(&names), rows[..1].to_vec()))
                    .expect("column 0 is typed");
            for row in &rows[1..] {
                assert!(grown.push_row(row), "case {case}: push refused");
            }
            assert_eq!(grown, full, "case {case}");
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(&full.row(i), row, "case {case} row {i}");
            }
        }
    }

    /// Zones follow the rows through `push_row`: a mirror grown row by
    /// row across four zones and a bit, with NULLs (payload `0`) on zone
    /// boundaries and scattered, equals a rebuilt one, each zone's span is
    /// the min and max of its payloads, and a range straddling a boundary
    /// folds both zones.
    #[test]
    fn zones_survive_push_row() {
        use eds_testkit::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(0x2035);
        let n = 4 * ZONE_ROWS + 3;
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                let null = i > 0 && (i.is_multiple_of(ZONE_ROWS) || rng.gen_bool(0.01));
                let shift = 5_000 * (i / ZONE_ROWS) as i64;
                vec![if null {
                    Value::Null
                } else {
                    Value::Int(rng.gen_range(-1_000..1_000i64) + shift)
                }]
            })
            .collect();
        let mut grown = ColumnarRelation::build(&Relation::new(schema(&["x"]), rows[..1].to_vec()))
            .expect("typed");
        for row in &rows[1..] {
            assert!(grown.push_row(row));
        }
        let full =
            ColumnarRelation::build(&Relation::new(schema(&["x"]), rows.clone())).expect("typed");
        assert_eq!(grown, full);
        let Some(Column::Int { zones, .. }) = grown.column(0) else {
            panic!("expected an Int column");
        };
        let payload = |row: &Row| match row[0] {
            Value::Int(x) => x,
            _ => 0,
        };
        let mut spans = Vec::new();
        for (z, chunk) in rows.chunks(ZONE_ROWS).enumerate() {
            let min = chunk.iter().map(payload).min().unwrap();
            let max = chunk.iter().map(payload).max().unwrap();
            let lo = z * ZONE_ROWS;
            assert_eq!(zones.span(lo, lo + chunk.len()), (min, max), "zone {z}");
            assert_eq!(zones.span(lo, lo + 1), (min, max), "zone {z}, one row");
            spans.push((min, max));
        }
        // Zone 1 starts with a NULL: its `0` widens the span below the
        // zone's values.
        assert_eq!(spans[1].0, 0);
        let folded = (spans[0].0.min(spans[1].0), spans[0].1.max(spans[1].1));
        assert_eq!(zones.span(ZONE_ROWS - 1, ZONE_ROWS + 1), folded);
    }

    /// `dense_key` takes a span of up to `per_row` slots per selected row
    /// and no more, reads the span of the zones from the first selected
    /// row to the last (a NULL's `0` included), refuses a span from
    /// `i64::MIN` to `i64::MAX`, an empty selection and a `Str` column,
    /// and addresses every selected row by `payload − min`.
    #[test]
    fn dense_key_addresses_spans_up_to_the_limit() {
        let n = 3 * ZONE_ROWS;
        // Zone 0 runs −10..=10 with a NULL, zone 1 is 0..=99, zone 2
        // holds both extremes.
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                let x = match (i / ZONE_ROWS, i % ZONE_ROWS) {
                    (0, 7) => Value::Null,
                    (0, j) => Value::Int(j as i64 % 21 - 10),
                    (1, j) => Value::Int(j as i64 % 100),
                    (_, 0) => Value::Int(i64::MIN),
                    (_, 1) => Value::Int(i64::MAX),
                    (_, j) => Value::Int(j as i64),
                };
                vec![x, Value::str("s")]
            })
            .collect();
        let cols = ColumnarRelation::build(&Relation::new(schema(&["x", "s"]), rows.clone()))
            .expect("typed");
        let (x, s) = (cols.column(0).unwrap(), cols.column(1).unwrap());
        // Zone 0: 21 slots over 3 selected rows is 7 a row.
        let sel = [2u32, 7, 900];
        assert!(x.dense_key(&sel, 6).is_none());
        let key = x.dense_key(&sel, 7).expect("21 slots, 7 a row");
        assert_eq!(key.slots, 21);
        assert_eq!(key.slot(7), None);
        for &i in &[2usize, 900] {
            let s = key.slot(i).expect("not NULL");
            assert_eq!(Value::Int(key.key(s)), rows[i][0]);
        }
        // Zones 0 and 1: −10..=99.
        let key = x.dense_key(&[5, 1_500], 55).expect("110 slots");
        assert_eq!((key.slots, key.key(0)), (110, -10));
        assert!(x.dense_key(&[5, 1_500], 54).is_none());
        // Zone 2 overflows; nothing is dense on no rows or a string.
        assert!(x.dense_key(&[2_100, 2_200], usize::MAX).is_none());
        assert!(x.dense_key(&[], usize::MAX).is_none());
        assert!(s.dense_key(&[0, 1], usize::MAX).is_none());
    }

    /// `for_each_null` over `[lo, hi)` visits exactly the rows the
    /// per-row `is_null` loop finds, in order: unaligned and aligned
    /// bounds, empty ranges, ranges inside one word, all-valid and
    /// all-NULL words, and a column length that is not a multiple of 64.
    #[test]
    fn for_each_null_equals_the_per_row_loop() {
        use eds_testkit::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(0x2B17);
        for case in 0..300 {
            let len = match case % 3 {
                0 => rng.gen_range(1..64usize),
                1 => 64 * rng.gen_range(1..6usize),
                _ => rng.gen_range(65..400usize),
            };
            // Per 64-row word: all valid, all NULL, 1-in-13, or random.
            let modes: Vec<u8> = (0..len.div_ceil(64))
                .map(|_| rng.gen_range(0..4u8))
                .collect();
            let mut nulls = NullBitmap::with_capacity(len);
            for i in 0..len {
                let null = match modes[i / 64] {
                    0 => false,
                    1 => true,
                    2 => i % 13 == 0,
                    _ => rng.gen_bool(0.3),
                };
                nulls.push(i, null);
            }
            let mut ranges = vec![(0, len), (0, 0), (len, len), (len - 1, len)];
            for _ in 0..20 {
                let lo = rng.gen_range(0..len);
                ranges.push((lo, rng.gen_range(lo..len + 1)));
                // Inside one word.
                let hi = (lo + rng.gen_range(0..8usize))
                    .min((lo / 64 + 1) * 64)
                    .min(len);
                ranges.push((lo, hi));
            }
            for (lo, hi) in ranges {
                let want: Vec<usize> = (lo..hi).filter(|&i| nulls.is_null(i)).collect();
                let mut got = Vec::new();
                nulls.for_each_null(lo, hi, |i| got.push(i));
                assert_eq!(got, want, "case {case}: len {len} range [{lo}, {hi})");
            }
        }
    }

    /// Codes are values: on every pair of rows of an `Int`, a `Str` and
    /// a spill column, `eq_at` is `Value` equality — NULL is not `0` nor
    /// `''`, interned ids match exactly when strings do, REAL `0.0` is
    /// not `-0.0`, NaN is NaN, INT `1` is not REAL `1.0` — and equal
    /// codes hash alike (a spill code hashes as its `Value`) under std's
    /// hasher and the engine's. A set of coded rows holds one entry per
    /// distinct row of values.
    #[test]
    fn codes_hash_and_compare_as_values() {
        use crate::hash::{Fold, FoldSet};
        use std::collections::hash_map::DefaultHasher;
        use std::collections::HashSet;
        use std::hash::{BuildHasher, BuildHasherDefault};

        let int = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
        let s = |v: Option<&str>| v.map_or(Value::Null, Value::str);
        // Rows 8 and 9 repeat rows 0 and 1.
        let col_i = [0, -1, 0, 5, -1, 7, 0, 5, 0, -1].map(|v| int((v >= 0).then_some(v)));
        let col_s = [
            Some("a"),
            None,
            Some("a"),
            Some(""),
            None,
            Some("b"),
            Some(""),
            Some("a"),
            Some("a"),
            None,
        ]
        .map(s);
        let col_x = [
            Value::real(0.0),
            Value::real(-0.0),
            Value::real(f64::NAN),
            Value::real(f64::NAN),
            Value::Bool(true),
            Value::Int(1),
            Value::real(1.0),
            Value::real(0.0),
            Value::real(0.0),
            Value::real(-0.0),
        ];
        let n = col_x.len();
        let rows: Vec<Row> = (0..n)
            .map(|i| vec![col_i[i].clone(), col_s[i].clone(), col_x[i].clone()])
            .collect();
        let rel = Relation::new(schema(&["i", "s", "x"]), rows.clone());
        let cols = ColumnarRelation::build(&rel).expect("column-friendly");
        assert!(cols.column_is_typed(0) && cols.column_is_typed(1));
        assert!(!cols.column_is_typed(2));

        fn check<B: BuildHasher>(b: &B, cols: &ColumnarRelation, columns: [&[Value]; 3]) {
            let n = columns[0].len();
            let hash = |f: &dyn Fn(&mut B::Hasher)| {
                let mut h = b.build_hasher();
                f(&mut h);
                h.finish()
            };
            for (j, values) in columns.into_iter().enumerate() {
                let c = cols.column(j).unwrap();
                for a in 0..n {
                    for b in 0..n {
                        let same = values[a] == values[b];
                        assert_eq!(c.eq_at(a, b), same, "column {j}, rows {a} and {b}");
                        if same {
                            let (ha, hb) = (hash(&|h| c.hash_at(a, h)), hash(&|h| c.hash_at(b, h)));
                            assert_eq!(ha, hb, "column {j}, rows {a} and {b}");
                        }
                    }
                    if j == 2 {
                        assert_eq!(
                            hash(&|h| c.hash_at(a, h)),
                            hash(&|h| values[a].hash(h)),
                            "spill row {a}"
                        );
                    }
                }
            }
        }
        check(
            &BuildHasherDefault::<DefaultHasher>::default(),
            &cols,
            [&col_i, &col_s, &col_x],
        );
        check(&Fold::default(), &cols, [&col_i, &col_s, &col_x]);

        let all: Vec<&Column> = (0..3).map(|j| cols.column(j).unwrap()).collect();
        let coded: HashSet<CodedRow<'_>> = (0..n).map(|i| CodedRow::new(&all, i)).collect();
        let folded: FoldSet<CodedRow<'_>> = (0..n).map(|i| CodedRow::new(&all, i)).collect();
        let valued: HashSet<&Row> = rows.iter().collect();
        assert_eq!(valued.len(), n - 2);
        assert_eq!(coded.len(), valued.len());
        assert_eq!(folded.len(), valued.len());
    }

    #[test]
    fn mid_column_kind_conflict_spills() {
        let rel = Relation::new(
            schema(&["k"]),
            vec![
                vec![Value::Int(1)],
                vec![Value::str("two")],
                vec![Value::Int(3)],
            ],
        );
        // Single column spills -> no typed column -> no mirror at all.
        assert!(ColumnarRelation::build(&rel).is_none());

        let rel2 = Relation::new(
            schema(&["k", "x"]),
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::str("two"), Value::Int(20)],
            ],
        );
        let cols = ColumnarRelation::build(&rel2).expect("second column is typed");
        assert!(!cols.column_is_typed(0));
        assert!(cols.column_is_typed(1));
        assert_eq!(cols.value_at(1, 0), Value::str("two"));
    }

    #[test]
    fn int_real_mix_spills_rather_than_promoting() {
        // Promoting i64 to f64 would lose precision above 2^53 and change
        // comparison results; the layout must refuse instead.
        let rel = Relation::new(
            schema(&["n"]),
            vec![vec![Value::Int(1)], vec![Value::real(2.0)]],
        );
        assert!(ColumnarRelation::build(&rel).is_none());
    }

    #[test]
    fn adt_shapes_spill() {
        let rel = Relation::new(
            schema(&["t", "c", "i"]),
            vec![vec![
                Value::Tuple(vec![Value::str("A")]),
                Value::set(vec![Value::Int(1)]),
                Value::Int(7),
            ]],
        );
        let cols = ColumnarRelation::build(&rel).unwrap();
        assert!(!cols.column_is_typed(0));
        assert!(!cols.column_is_typed(1));
        assert!(cols.column_is_typed(2));
        assert_eq!(cols.row(0), rel.rows[0].to_vec());
    }

    #[test]
    fn empty_and_all_null_stay_row_major() {
        let empty = Relation::empty(schema(&["x"]));
        assert!(ColumnarRelation::build(&empty).is_none());
        let nulls = Relation::new(schema(&["x"]), vec![vec![Value::Null], vec![Value::Null]]);
        assert!(ColumnarRelation::build(&nulls).is_none());
    }
}
