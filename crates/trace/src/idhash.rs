//! A small, fast hasher for ids the program assigns itself.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the mixing step (the constant of rustc's `FxHasher`).
const SEED: u64 = 0xf135_7aea_2e62_a9c5;

/// A multiply-and-add hasher for dense integer ids that this program
/// assigns: observation ids, window ids and `PredId`s.
///
/// It is not keyed, so keys chosen from outside the program could be made
/// to collide. Maps keyed by input bytes or decoded input values keep std's
/// `RandomState`; only keys made of program-assigned ids use this hasher,
/// where one `u32` costs one multiply instead of a SipHash round.
///
/// # Example
///
/// ```
/// use std::collections::HashMap;
/// use tracelearn_trace::IdBuildHasher;
///
/// let mut window_ids: HashMap<Vec<u32>, u32, IdBuildHasher> = HashMap::default();
/// window_ids.insert(vec![0, 1, 2], 0);
/// assert_eq!(window_ids.get([0u32, 1, 2].as_slice()), Some(&0));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

/// Builds [`IdHasher`]s, for `HashMap<K, V, IdBuildHasher>`.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(
                word.try_into().expect("chunks_exact yields eight bytes"),
            ));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its best-mixed bits at the top; hash tables
        // index buckets with the low bits.
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        IdBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equally_and_short_windows_spread() {
        assert_eq!(hash_of(&[1u32, 2, 3][..]), hash_of(&vec![1u32, 2, 3]));
        // The 4096 windows of three small ids spread over the low twelve
        // bits as a random function would (≈ 2589 distinct buckets): the
        // low bits, which tables index with, carry the mixing.
        let buckets: HashSet<u64> = (0..16u32)
            .flat_map(|a| (0..16u32).flat_map(move |b| (0..16u32).map(move |c| [a, b, c])))
            .map(|window| hash_of(&window[..]) & 0xFFF)
            .collect();
        assert!(buckets.len() > 2400, "{} of 4096 buckets", buckets.len());
    }
}
