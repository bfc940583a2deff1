//! A fast, unkeyed hasher for maps keyed by node ids and memo ids.
//!
//! This is the multiply-rotate hash of Firefox and rustc ("Fx"): one
//! rotate, xor and multiply per machine word. It is several times cheaper
//! than std's keyed SipHash on small integer keys, but it is not keyed, so
//! whoever chooses the keys can choose colliding ones. This crate uses it
//! only where the keys are node ids or ids a pass assigned itself; maps
//! keyed by names or covers, which a `tels serve` client writes, keep
//! std's keyed hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` hashed with [`FxHasher`].
pub(crate) type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hasher: `h = (h.rotate_left(5) ^ word) * SEED` per word.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash + ?Sized>(value: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_and_nearby_keys_differ() {
        assert_eq!(hash(&(7u32, true)), hash(&(7u32, true)));
        assert_ne!(hash(&(7u32, true)), hash(&(7u32, false)));
        assert_ne!(hash(&[1u32, 2, 3]), hash(&[1u32, 3, 2]));
        // Bytes past the last whole word count.
        let bytes = |b: &[u8]| {
            let mut h = FxHasher::default();
            h.write(b);
            h.finish()
        };
        assert_ne!(bytes(&[1; 9]), bytes(&[1; 8]));
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut map: FxHashMap<u32, u32> = FxHashMap::default();
        let mut set: FxHashSet<u32> = FxHashSet::default();
        for i in 0..1000u32 {
            map.insert(i, i * i);
            assert!(set.insert(i * 7));
        }
        assert!((0..1000u32).all(|i| map[&i] == i * i && set.contains(&(i * 7))));
        assert!(!set.insert(7));
    }
}
