//! In-memory relations with shared (reference-counted) rows.
//!
//! A row is a view into a reference-counted block of values, so
//! row-preserving operators (filter, join combination, union, fixpoint
//! accumulation) share tuples instead of deep-cloning every `Value`. A
//! stored row is a block of its own; the rows an operator builds are cut
//! from one block per [`BLOCK_ROWS`] rows (`RowBlocks`), so building
//! them costs one allocation per block rather than one per row. A row of
//! one value that owns no heap memory holds that value itself, with no
//! block and no refcount. The schema is shared the same way: cloning a
//! [`Relation`] is two pointer-vector copies, never a traversal of string
//! or collection values.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::slice;
use std::sync::Arc;

use eds_adt::Value;
use eds_lera::Schema;

use crate::hash::{Fold, FoldSet};

/// A row: one value per attribute.
pub type Row = Vec<Value>;

/// A shared row. It dereferences to `[Value]`, and equality, order,
/// hashing, `Borrow<[Value]>` and `Debug` are the slice's, so a row reads
/// the same however it is held and a row-keyed set is probed by
/// `&[Value]`. Cloning a row never allocates.
#[derive(Clone)]
pub struct SharedRow(Repr);

#[derive(Clone)]
enum Repr {
    /// A one-value row whose value owns no heap memory (NULL, BOOL, INT,
    /// REAL, OBJECT): copied on clone, so it needs no block. A `STRING`,
    /// tuple or collection would be deep-copied, so such a row is a view.
    Inline(Value),
    /// The values `start .. start + len` of a shared block. The block
    /// stays allocated while any of its rows is alive. Offsets are `u32`:
    /// a block of 2³² values would be 128 GiB.
    View {
        block: Arc<[Value]>,
        start: u32,
        len: u32,
    },
}

// Every stored row and every result row pays this width once.
const _: () = assert!(size_of::<SharedRow>() == 32);

impl Deref for SharedRow {
    type Target = [Value];

    #[inline]
    fn deref(&self) -> &[Value] {
        match &self.0 {
            Repr::Inline(value) => slice::from_ref(value),
            Repr::View { block, start, len } => {
                let start = *start as usize;
                &block[start..start + *len as usize]
            }
        }
    }
}

impl Borrow<[Value]> for SharedRow {
    #[inline]
    fn borrow(&self) -> &[Value] {
        self
    }
}

impl PartialEq for SharedRow {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for SharedRow {}

impl PartialOrd for SharedRow {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SharedRow {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        (**self).cmp(&**other)
    }
}

impl Hash for SharedRow {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for SharedRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Whether a value owns no heap memory, so a row of it alone is held
/// inline.
#[inline]
fn plain(value: &Value) -> bool {
    matches!(
        value,
        Value::Null | Value::Bool(_) | Value::Int(_) | Value::Real(_) | Value::Object(_)
    )
}

/// The value of a row that is one plain value, taken out of it.
#[inline]
fn take_plain(row: &mut Row) -> Option<Value> {
    match &row[..] {
        [value] if plain(value) => row.pop(),
        _ => None,
    }
}

impl SharedRow {
    /// A whole block as one row.
    fn whole(block: Arc<[Value]>) -> Self {
        let len = block.len() as u32;
        SharedRow(Repr::View {
            block,
            start: 0,
            len,
        })
    }
}

/// An inline row, or else a one-row block.
impl From<Vec<Value>> for SharedRow {
    fn from(mut row: Vec<Value>) -> Self {
        shared_row(&mut row)
    }
}

/// Take the row a scratch buffer holds: inline when it is one plain
/// value, else drained into a one-row block. `vec::Drain` is a
/// `TrustedLen` iterator, so the block is allocated exactly once — half
/// the allocator traffic of `Arc::new(vec)`.
#[inline]
pub fn shared_row(scratch: &mut Vec<Value>) -> SharedRow {
    match take_plain(scratch) {
        Some(value) => SharedRow(Repr::Inline(value)),
        None => SharedRow::whole(scratch.drain(..).collect()),
    }
}

/// Rows per block an operator builds (`RowBlocks`): one allocation
/// serves up to this many result rows, and bounds the buffer a block is
/// built in.
pub const BLOCK_ROWS: usize = 2048;

/// Rows built into shared blocks of at most [`BLOCK_ROWS`] rows, in
/// arrival order. A row's values are appended to the open block's
/// buffer; the block is allocated once — and cut into its rows — when it
/// is full, when a row of another width arrives, when a row is pushed
/// whole or inline (so order holds), and at the end.
#[derive(Default)]
pub(crate) struct RowBlocks {
    rows: Vec<SharedRow>,
    open: Vec<Value>,
    open_rows: usize,
    width: usize,
    /// Rows the open buffer makes room for when a view row first needs
    /// it; an inline row needs none.
    room: usize,
}

impl RowBlocks {
    /// Room for `rows` more rows.
    pub(crate) fn reserve(&mut self, rows: usize) {
        self.rows.reserve(rows);
        self.room = rows.min(BLOCK_ROWS);
    }

    /// Append the row whose values `row` holds, leaving it empty.
    #[inline]
    pub(crate) fn push_values(&mut self, row: &mut Row) {
        if let Some(value) = take_plain(row) {
            self.push_inline(value);
            return;
        }
        if self.open_rows == BLOCK_ROWS || (self.open_rows > 0 && row.len() != self.width) {
            self.cut();
        }
        if self.open.capacity() == 0 {
            self.open.reserve(self.room * row.len());
        }
        self.width = row.len();
        self.open.append(row);
        self.open_rows += 1;
    }

    /// Append the one-value row `value`, held inline: meant for a value
    /// that owns no heap memory, or cloning the row deep-copies it.
    #[inline]
    pub(crate) fn push_inline(&mut self, value: Value) {
        self.push(SharedRow(Repr::Inline(value)));
    }

    /// Append an existing row whole (no copy).
    #[inline]
    pub(crate) fn push(&mut self, row: SharedRow) {
        self.cut();
        self.rows.push(row);
    }

    /// The rows, in arrival order.
    pub(crate) fn into_rows(mut self) -> Vec<SharedRow> {
        self.cut();
        self.rows
    }

    /// Allocate the open block and cut it into its rows.
    fn cut(&mut self) {
        if self.open_rows == 0 {
            return;
        }
        let block: Arc<[Value]> = self.open.drain(..).collect();
        let len = self.width as u32;
        self.rows.extend((0..self.open_rows as u32).map(|k| {
            SharedRow(Repr::View {
                block: Arc::clone(&block),
                start: k * len,
                len,
            })
        }));
        self.open_rows = 0;
    }
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

    /// Append an owned row, inline or as a one-row block ([`shared_row`]).
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
    use std::hash::BuildHasher;

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
        assert!(std::ptr::eq(&a.rows[0][..], &b.rows[0][..]));
        assert!(std::ptr::eq(&*a.schema, &*b.schema));
    }

    /// Rows `(k, k + 1)` for `k` in `ks`, built into shared blocks.
    fn block_rows(ks: impl IntoIterator<Item = i64>) -> Vec<SharedRow> {
        let mut blocks = RowBlocks::default();
        for k in ks {
            blocks.push_values(&mut vec![Value::Int(k), Value::Int(k + 1)]);
        }
        blocks.into_rows()
    }

    /// A row is its values, wherever it sits: a view into the middle of
    /// a block and a one-row block holding the same values are equal,
    /// hash alike, order alike, print alike and are found by the same
    /// slice probe.
    #[test]
    fn a_block_view_is_its_values() {
        let rows = block_rows([0, 5, 9]);
        let view = &rows[1];
        assert!(std::ptr::eq(&rows[0][1], view.as_ptr().wrapping_sub(1)));
        let values = vec![Value::Int(5), Value::Int(6)];
        let single = SharedRow::from(values.clone());
        assert_eq!(*view, single);
        assert_eq!(**view, values[..]);

        let fold = Fold::default();
        assert_eq!(fold.hash_one(view), fold.hash_one(&single));
        assert_eq!(fold.hash_one(view), fold.hash_one(&values[..]));

        assert_eq!(view.cmp(&single), Ordering::Equal);
        for other in [&rows[0], &rows[2]] {
            assert_eq!(view.cmp(other), single.cmp(other));
        }
        let mut sorted = vec![rows[2].clone(), single.clone(), rows[0].clone()];
        sorted.sort_unstable();
        assert_eq!(sorted, rows);

        assert_eq!(format!("{view:?}"), format!("{single:?}"));
        assert_eq!(format!("{view:?}"), format!("{:?}", &values[..]));

        let by_view: FoldSet<SharedRow> = [view.clone()].into_iter().collect();
        let by_single: FoldSet<SharedRow> = [single].into_iter().collect();
        assert!(by_view.contains(&values[..]));
        assert!(by_single.contains(&values[..]));
        assert!(!by_view.contains(&rows[0][..]));
    }

    /// A block lives as long as any of its rows: a row kept past the
    /// relation it came from still reads its values.
    #[test]
    fn a_view_outlives_its_relation() {
        let kept = {
            let rel = Relation::from_shared(schema2(), block_rows(0..4));
            rel.rows[2].clone()
        };
        assert_eq!(*kept, [Value::Int(2), Value::Int(3)]);
    }

    /// One plain value of each kind.
    fn plain_values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-3),
            Value::real(2.5),
            Value::Object(eds_adt::Oid(7)),
        ]
    }

    /// A view of `value` in the middle of a three-value block.
    fn view_of(value: &Value) -> SharedRow {
        SharedRow(Repr::View {
            block: vec![Value::Int(0), value.clone(), Value::Int(2)].into(),
            start: 1,
            len: 1,
        })
    }

    fn is_inline(row: &SharedRow) -> bool {
        matches!(row.0, Repr::Inline(_))
    }

    /// An inline row and a view of the same value are equal, hash alike,
    /// order alike against every other row, print alike and are found by
    /// the same slice probe.
    #[test]
    fn an_inline_row_is_its_value() {
        let fold = Fold::default();
        let values = plain_values();
        for value in &values {
            let inline = SharedRow::from(vec![value.clone()]);
            let view = view_of(value);
            assert!(is_inline(&inline) && !is_inline(&view));
            assert_eq!(inline, view);
            assert_eq!(&*inline, slice::from_ref(value));
            assert_eq!(fold.hash_one(&inline), fold.hash_one(&view));
            assert_eq!(
                fold.hash_one(&inline),
                fold.hash_one(slice::from_ref(value))
            );
            for other in &values {
                let other = view_of(other);
                assert_eq!(inline.cmp(&other), view.cmp(&other));
            }
            assert_eq!(format!("{inline:?}"), format!("{view:?}"));
            let set: FoldSet<SharedRow> = [inline].into_iter().collect();
            assert!(set.contains(&view[..]));
        }
    }

    /// A one-value row whose value owns heap memory stays a view, so
    /// cloning it never deep-copies; every way in agrees.
    #[test]
    fn a_one_value_string_tuple_or_collection_row_is_a_view() {
        let heavy = [
            Value::str("s"),
            Value::Tuple(vec![Value::Int(1)]),
            Value::set(vec![Value::Int(1)]),
        ];
        for value in heavy.iter().chain(&plain_values()) {
            let mut blocks = RowBlocks::default();
            blocks.push_values(&mut vec![value.clone()]);
            let rows = [
                SharedRow::from(vec![value.clone()]),
                shared_row(&mut vec![value.clone()]),
                blocks.into_rows().remove(0),
            ];
            for row in &rows {
                assert_eq!(is_inline(row), plain(value), "{value:?}");
                assert_eq!(&**row, slice::from_ref(value));
            }
        }
    }

    /// Inline rows, rows cut from a block and rows pushed whole come out
    /// in arrival order: an inline row cuts the open block first.
    #[test]
    fn blocks_keep_arrival_order_around_inline_rows() {
        let whole = SharedRow::from(vec![Value::str("whole"), Value::Int(0)]);
        let arrivals: Vec<Row> = vec![
            vec![Value::Int(1)],
            vec![Value::str("a")],
            vec![Value::str("b")],
            vec![Value::Null],
            vec![Value::Int(2), Value::str("c")],
            vec![Value::real(0.5)],
            vec![Value::str("d")],
            vec![Value::Object(eds_adt::Oid(3))],
            whole.to_vec(),
            vec![Value::str("e")],
        ];
        let mut blocks = RowBlocks::default();
        blocks.reserve(arrivals.len());
        for row in &arrivals {
            if row[..] == whole[..] {
                blocks.push(whole.clone());
            } else {
                blocks.push_values(&mut row.clone());
            }
        }
        let rows = blocks.into_rows();
        let got: Vec<Row> = rows.iter().map(|r| r.to_vec()).collect();
        assert_eq!(got, arrivals);
        let inline: Vec<bool> = rows.iter().map(is_inline).collect();
        assert_eq!(
            inline,
            [true, false, false, true, false, true, false, true, false, false]
        );
        // The two adjacent `STRING` rows share a block.
        assert!(std::ptr::eq(
            rows[1].as_ptr().wrapping_add(1),
            rows[2].as_ptr()
        ));
    }

    /// A block holds at most `BLOCK_ROWS` rows, and a row of another
    /// width or a row pushed whole starts a new one; order holds.
    #[test]
    fn blocks_cut_at_the_cap_and_on_a_whole_row() {
        let rows = block_rows(0..BLOCK_ROWS as i64 + 1);
        let adjacent = |a: &SharedRow, b: &SharedRow| {
            std::ptr::eq(a[..].as_ptr().wrapping_add(a.len()), b[..].as_ptr())
        };
        let cuts: Vec<usize> = (1..rows.len())
            .filter(|&i| !adjacent(&rows[i - 1], &rows[i]))
            .collect();
        assert_eq!(cuts, vec![BLOCK_ROWS]);

        let mut blocks = RowBlocks::default();
        blocks.push_values(&mut vec![Value::Int(1)]);
        blocks.push(SharedRow::from(vec![Value::Int(2)]));
        blocks.push_values(&mut vec![Value::Int(3)]);
        blocks.push_values(&mut vec![Value::Int(4), Value::Int(5)]);
        blocks.push_values(&mut vec![]);
        let rows = blocks.into_rows();
        let lens: Vec<usize> = rows.iter().map(|r| r.len()).collect();
        assert_eq!(lens, [1, 1, 1, 2, 0]);
        assert_eq!(*rows[3], [Value::Int(4), Value::Int(5)]);
    }
}
