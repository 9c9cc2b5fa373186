//! One small keyed hasher for the hash maps on the dispatch path.
//!
//! std's `HashMap` hashes with SipHash-1-3, built to resist collision
//! attacks on arbitrary byte strings. The maps between the ingress and
//! the simulated queue key on a few machine words: the decision cache's
//! index and the scheduler's coalescing map on a shape's three
//! dimensions (plus a class), the ingress tenant table on a tenant id.
//! [`MixHasher`] folds each word into its state with one 64×64→128-bit
//! multiply whose halves are xor-ed together (the "folded multiply"
//! that foldhash and aHash's fallback are built on): a few cycles per
//! word where SipHash spends tens of nanoseconds per key.
//!
//! Every table draws its own 64-bit key from std's [`RandomState`] when
//! it is built ([`MixState::new`]), and the key seeds the state the
//! words are folded into. Bucket positions therefore differ from table
//! to table and from process to process, so a tenant who chooses the
//! shapes or ids it submits cannot precompute a set that collides. The
//! key hides collisions rather than making them infeasible to find, as
//! SipHash does: one multiply per word is what these maps can afford
//! on every request. None of these maps is ever iterated into an
//! output, so the random key changes no decision, count or report.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};

/// An odd 64-bit multiplier with well-spread bits (the PCG-64
/// multiplier's low word).
const MULTIPLIER: u64 = 0x5851_f42d_4c95_7f2d;

/// The full 128-bit product of `a` and `b`, its two halves xor-ed.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// A hash map on the [`MixHasher`], keyed per table.
pub(crate) type MixMap<K, V> = HashMap<K, V, MixState>;

/// Builds [`MixHasher`]s seeded with one table's key.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MixState {
    key: u64,
}

impl MixState {
    /// A state with a fresh key drawn from std's [`RandomState`].
    pub(crate) fn new() -> Self {
        MixState {
            key: RandomState::new().hash_one(MULTIPLIER),
        }
    }
}

impl Default for MixState {
    fn default() -> Self {
        Self::new()
    }
}

impl BuildHasher for MixState {
    type Hasher = MixHasher;

    #[inline]
    fn build_hasher(&self) -> MixHasher {
        MixHasher { state: self.key }
    }
}

/// One folded multiply per written word (see the module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) struct MixHasher {
    state: u64,
}

impl Hasher for MixHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = folded_multiply(self.state ^ word, MULTIPLIER);
    }

    #[inline]
    fn write_u8(&mut self, word: u8) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_u16(&mut self, word: u16) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    /// Bytes are folded in eight at a time, the last word zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            for (to, &from) in word.iter_mut().zip(chunk) {
                *to = from;
            }
            self.write_u64(u64::from_le_bytes(word));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autokernel_gemm::GemmShape;
    use std::collections::HashSet;

    #[test]
    fn each_table_draws_its_own_key() {
        let shape = GemmShape::new(196, 2304, 256);
        let (a, b) = (MixState::new(), MixState::new());
        assert_ne!(a.hash_one(shape), b.hash_one(shape));
        assert_eq!(a.hash_one(shape), a.hash_one(shape));
    }

    #[test]
    fn shapes_and_classes_hash_apart() {
        let state = MixState::new();
        let mut seen = HashSet::new();
        for m in 1..=40 {
            for k in [1, 27, 64, 768, 3072] {
                for n in [1, 64, 768, 1000] {
                    for class in 0..3u16 {
                        let key = (GemmShape::new(m, k, n), class);
                        assert!(seen.insert(state.hash_one(key)), "{key:?} collides");
                    }
                }
            }
        }
    }
}
