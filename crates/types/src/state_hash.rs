//! A word-at-a-time hasher for in-process state digests.
//!
//! The model checker digests every state it explores, and a state carries
//! tens of kilobytes of live bytes (globals, stack, file contents, network
//! buffers). [`StateHasher`] folds those bytes eight at a time, mixing fully
//! after every word, so the digest costs one multiply per word instead of
//! one per byte.
//!
//! Unlike [`Fnv1a`](crate::Fnv1a) its output is not pinned anywhere: it only
//! has to be a pure function of the folded fields within one process, which
//! is all visited-state pruning needs. Cross-process identities (plan
//! hashes, store fingerprints, prefix digests) stay on FNV-1a.

/// Initial state: the first 64 fractional bits of pi, so an empty digest is
/// not zero.
const SEED: u64 = 0x243F_6A88_85A3_08D3;

/// Per-word multiplier: odd, so each mixing step is a bijection of the
/// state for a fixed input word.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// A streaming in-process state hasher.
///
/// Every write folds whole 64-bit words: integers are widened to one word,
/// byte slices ([`write_bytes`](Self::write_bytes)) are folded as their
/// length followed by their little-endian words, with the last partial word
/// zero-padded. The length prefix keeps adjacent variable-length fields from
/// aliasing; fixed-width fields are told apart by their position.
///
/// Each word step `h = (h ^ w) * K; h ^= h >> 29` is a bijection of `h` for
/// a fixed `w`, so two inputs that differ in exactly one word always digest
/// differently.
#[derive(Clone, Debug)]
pub struct StateHasher {
    hash: u64,
}

impl StateHasher {
    /// Starts a fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        StateHasher { hash: SEED }
    }

    fn mix(&mut self, word: u64) {
        self.hash = (self.hash ^ word).wrapping_mul(K);
        self.hash ^= self.hash >> 29;
    }

    /// Folds a byte slice: its length, then its bytes a word at a time.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        let words = bytes.chunks_exact(8);
        let tail = words.remainder();
        for word in words {
            self.mix(u64::from_le_bytes(
                word.try_into().expect("chunks_exact yields 8 bytes"),
            ));
        }
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.mix(u64::from_le_bytes(last));
        }
    }

    /// Folds a single byte as one word.
    pub fn write_u8(&mut self, value: u8) {
        self.mix(u64::from(value));
    }

    /// Folds a `u32` as one word.
    pub fn write_u32(&mut self, value: u32) {
        self.mix(u64::from(value));
    }

    /// Folds a `u64` as one word.
    pub fn write_u64(&mut self, value: u64) {
        self.mix(value);
    }

    /// Folds a `usize` as one word (identical across pointer widths).
    pub fn write_usize(&mut self, value: usize) {
        self.mix(value as u64);
    }

    /// Folds a string's bytes, length-prefixed like
    /// [`write_bytes`](Self::write_bytes).
    pub fn write_str(&mut self, value: &str) {
        self.write_bytes(value.as_bytes());
    }

    /// The current digest, passed through a final avalanche so every input
    /// bit can reach every output bit.
    #[must_use]
    pub fn finish(&self) -> u64 {
        let mut h = self.hash;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

impl Default for StateHasher {
    fn default() -> Self {
        StateHasher::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn digest_bytes(bytes: &[u8]) -> u64 {
        let mut hasher = StateHasher::new();
        hasher.write_bytes(bytes);
        hasher.finish()
    }

    #[test]
    fn every_single_bit_flip_of_a_page_digests_distinctly() {
        let base: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(31) >> 3) as u8)
            .collect();
        let mut seen = HashSet::new();
        assert!(seen.insert(digest_bytes(&base)));
        let mut flipped = base.clone();
        for bit in 0..base.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(seen.insert(digest_bytes(&flipped)), "bit {bit} collided");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(seen.len(), 4096 * 8 + 1);
    }

    #[test]
    fn length_prefix_separates_zero_padding_and_field_boundaries() {
        assert_ne!(digest_bytes(b"abc"), digest_bytes(b"abc\0"));
        assert_ne!(digest_bytes(b""), digest_bytes(b"\0"));
        let mut split = StateHasher::new();
        split.write_str("ab");
        split.write_str("c");
        let mut other = StateHasher::new();
        other.write_str("a");
        other.write_str("bc");
        assert_ne!(split.finish(), other.finish());
    }

    #[test]
    fn equal_inputs_digest_equally() {
        let mut a = StateHasher::new();
        a.write_u32(7);
        a.write_bytes(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = StateHasher::new();
        b.write_u32(7);
        b.write_bytes(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(StateHasher::new().finish(), 0);
    }
}
