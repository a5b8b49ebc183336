//! The benchmark's own splitmix64. Every input — data, literals, binds,
//! shuffles — derives from `--seed` through this generator, so the same
//! seed gives the same inputs and later edits to `crates/testkit`
//! cannot move this benchmark's numbers.

/// A seeded splitmix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated from sibling streams by `tag`
    /// (one tag per use: a table, a statement kind, a shuffle).
    pub fn new(seed: u64, tag: &str) -> Rng {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in tag.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        let mut rng = Rng(h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every `n` this benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..hi` as an `i64`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_tags_decorrelate() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, "x").next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, "x").next_u64(), Rng::new(7, "y").next_u64());
        assert_ne!(Rng::new(7, "x").next_u64(), Rng::new(8, "x").next_u64());
        let mut r = Rng::new(1, "shuffle");
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
