//! The engine's one hasher: every row-keyed set and map of the executor
//! (set sinks, the semi-naive `known` set, `difference` / `intersect`
//! membership, grouping, join link tables) hashes through [`Fold`].
//!
//! Each 8-byte word is folded into the state by one widening multiply —
//! `(state ^ word) * K` as a 128-bit product, high half XORed into the
//! low — in the style of `foldhash`. The seed is drawn once per process
//! from std's `RandomState`, so bucket layout differs between runs, but
//! this is *not* a keyed PRF: it resists nothing adversarial, only
//! accidental clustering. Equal keys hash alike, which is all a set
//! needs for its answers; the join's hashed link table compares each
//! hash match's keys before the match joins, so a collision there costs
//! a candidate, never a wrong row.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// Multiplier of every fold (the 64-bit golden ratio, odd).
const K: u64 = 0x9e37_79b9_7f4a_7c15;
/// Multiplier of [`Hasher::finish`], distinct from [`K`].
const K_FINISH: u64 = 0xd6e8_feb8_6659_fd93;

/// A set keyed through the engine hasher.
pub(crate) type FoldSet<T> = HashSet<T, Fold>;
/// A map keyed through the engine hasher.
pub(crate) type FoldMap<K, V> = HashMap<K, V, Fold>;

#[inline]
fn fold(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p as u64) ^ ((p >> 64) as u64)
}

/// Builds [`FoldHasher`]s from the process seed.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fold {
    seed: u64,
}

impl Default for Fold {
    fn default() -> Fold {
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED.get_or_init(|| RandomState::new().hash_one(K));
        Fold { seed }
    }
}

impl BuildHasher for Fold {
    type Hasher = FoldHasher;

    #[inline]
    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { state: self.seed }
    }
}

/// One hash in progress; see the module documentation.
pub(crate) struct FoldHasher {
    state: u64,
}

impl Hasher for FoldHasher {
    /// Whole words, then a zero-padded tail whose top byte carries its
    /// length (at most 7), so `"ab"` and `"ab\0"` fold differently.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(w);
            self.write_u64(u64::from_le_bytes(buf));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            buf[7] = tail.len() as u8;
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = fold(self.state ^ i, K);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    /// hashbrown picks a bucket by the low bits and a tag by the top
    /// seven: one more fold spreads the last word over both.
    #[inline]
    fn finish(&self) -> u64 {
        fold(self.state, K_FINISH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eds_adt::{CollKind, Value};
    use std::collections::HashSet;

    /// A set keyed through the engine hasher has exactly a std set's
    /// membership over values whose equality is easy to get wrong:
    /// NULL, zero and the empty string, signed zeros and NaN, an INT
    /// beside its REAL twin, strings longer than a word that share a
    /// prefix (and differ in the tail or only in length), tuples and
    /// collections.
    #[test]
    fn fold_sets_agree_with_std_sets() {
        let long = "abcdefgh_ijklmnop";
        let values = vec![
            Value::Null,
            Value::Int(0),
            Value::str(""),
            Value::real(0.0),
            Value::real(-0.0),
            Value::real(f64::NAN),
            Value::Int(1),
            Value::real(1.0),
            Value::Int(-1),
            Value::Int(i64::MAX),
            Value::Bool(false),
            Value::str(long),
            Value::str(&long[..16]),
            Value::str("abcdefgh_ijklmnoq"),
            Value::str("abcdefgh"),
            Value::str("abcdefgh\0"),
            Value::Tuple(vec![Value::Int(1), Value::str("a")]),
            Value::Tuple(vec![Value::str("a"), Value::Int(1)]),
            Value::Tuple(vec![Value::Int(1)]),
            Value::coll(CollKind::Set, vec![Value::Int(1), Value::Int(2)]),
            Value::coll(CollKind::Bag, vec![Value::Int(1), Value::Int(2)]),
            Value::coll(CollKind::List, vec![Value::Int(2), Value::Int(1)]),
            Value::coll(CollKind::List, vec![]),
        ];
        // Single values and two-column rows, every one offered twice.
        let rows: Vec<Vec<Value>> = values
            .iter()
            .map(|v| vec![v.clone()])
            .chain(
                values
                    .iter()
                    .flat_map(|a| values.iter().map(move |b| vec![a.clone(), b.clone()])),
            )
            .collect();
        let mut fold: FoldSet<&[Value]> = FoldSet::default();
        let mut std: HashSet<&[Value]> = HashSet::new();
        for row in rows.iter().chain(&rows) {
            assert_eq!(fold.insert(row), std.insert(row), "{row:?}");
        }
        assert_eq!(fold.len(), std.len());
        for row in &rows {
            assert!(fold.contains(&row[..]));
        }
        let mut probe = values.clone();
        probe.push(Value::str("abcdefgh_ijklmno"));
        for v in &probe {
            let one = std::slice::from_ref(v);
            assert_eq!(fold.contains(one), std.contains(one), "{v:?}");
        }
    }

    /// Byte strings differing only in a trailing zero, or in length
    /// within one word, do not hash alike.
    #[test]
    fn tails_carry_their_length() {
        let h = |b: &[u8]| {
            let mut s = Fold::default().build_hasher();
            s.write(b);
            s.finish()
        };
        assert_ne!(h(b"ab"), h(b"ab\0"));
        assert_ne!(h(b""), h(b"\0"));
        assert_ne!(h(b"abcdefgh"), h(b"abcdefgh\0"));
        assert_eq!(h(b"abcdefghij"), h(b"abcdefghij"));
    }
}
