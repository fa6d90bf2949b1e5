//! The one integer hasher behind every sparse-key table in this crate.
//!
//! The runtime's hashed keys — [`crate::graph::DataKey`]s, task ids, step
//! indices, `(datum, producer)` arrival keys — are integers the program
//! itself issues, never outside input, and the hot paths do a handful of
//! look-ups per task access; std's SipHash is then a measurable slice of
//! graph construction and of the streaming window's per-task cost. One
//! multiply per word mixes them plenty.
//!
//! `finish` rotates the product so its well-mixed *high* bits land where
//! the table takes its bucket index from: `DataKey`s pack a kind tag and
//! two indices into disjoint bit fields, and the low bits of `key × odd`
//! depend only on the low bits of the key — without the rotation every
//! tile of one block column would start probing from the same bucket.
//!
//! Nothing may depend on the iteration order of a table built with this
//! hasher (it is deterministic, unlike std's, but an accident of the key
//! encoding); callers that need an order sort.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher for program-issued integer keys.
#[derive(Default, Clone, Copy)]
pub struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, k: u8) {
        self.mix(k as u64);
    }

    #[inline]
    fn write_u32(&mut self, k: u32) {
        self.mix(k as u64);
    }

    #[inline]
    fn write_u64(&mut self, k: u64) {
        self.mix(k);
    }

    #[inline]
    fn write_usize(&mut self, k: usize) {
        self.mix(k as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Hash-map state for integer-keyed maps and sets.
pub type IntHashBuilder = BuildHasherDefault<IntHasher>;

/// A `HashMap` over program-issued integer keys.
pub type IntMap<K, V> = std::collections::HashMap<K, V, IntHashBuilder>;

/// A `HashSet` over program-issued integer keys.
pub type IntSet<K> = std::collections::HashSet<K, IntHashBuilder>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DataKey;
    use std::hash::BuildHasher;

    #[test]
    fn tuple_keys_keep_every_component() {
        // A composite key must not collapse to its last word.
        let h = |k: &(DataKey, Option<usize>)| IntHashBuilder::default().hash_one(k);
        let base = (DataKey(7 << 56 | 3 << 28 | 1), Some(5));
        assert_ne!(h(&base), h(&(DataKey(7 << 56 | 4 << 28 | 1), Some(5))));
        assert_ne!(h(&base), h(&(base.0, Some(6))));
        assert_ne!(h(&base), h(&(base.0, None)));
    }

    #[test]
    fn packed_index_fields_spread_over_low_bits() {
        // Keys differing only in a high bit field (a tile's row index) must
        // not share their low hash bits — that is where the table indexes.
        let mut low = std::collections::HashSet::new();
        for i in 0..256u64 {
            let key = DataKey(1 << 56 | i << 28 | 9);
            low.insert(IntHashBuilder::default().hash_one(key) & 0xfff);
        }
        assert!(low.len() > 200, "only {} distinct buckets", low.len());
    }
}
