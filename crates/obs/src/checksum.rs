//! The workspace's content checksums, FNV-1a 64 and its word-wise
//! variant, and splitmix64, its one deterministic mixer.
//!
//! Byte-wise FNV-1a ([`Fnv1a`], [`fnv1a64`]) hashes flight dumps, history
//! segments, the trainer's `state_digest` and the critical-path and race
//! digests; their goldens pin it. Checkpoint shards, which are megabytes
//! per run, hash with [`fnv1a64_words`]: the same xor-then-multiply step
//! taken on 8-byte words in four independent lanes. Both are
//! dependency-free and portable, and both guard against torn writes and
//! bit rot, not adversaries. [`splitmix64`] drives the flight recorder's
//! sampling, the recovery loop's detection jitter and the serving traffic
//! generator.

/// FNV-1a 64's offset basis: the state of an empty input.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64's prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64: [`Fnv1a::write`] the input in pieces, in order,
/// and [`Fnv1a::finish`] equals [`fnv1a64`] over their concatenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    /// The state of an empty input (the FNV-1a 64 offset basis).
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// Feeds `bytes` into the hash.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a 64 over one byte slice.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// One step of [`fnv1a64_words`]: FNV-1a's xor and multiply on a whole
/// word, then the product's high half folded into its low half. The
/// multiply alone carries a difference only towards higher bits, so
/// without the fold two flips of a lane's top bit would cancel. Each
/// stage is a bijection of `state` for a fixed `word` and of `word` for a
/// fixed `state`.
#[inline]
fn word_step(state: u64, word: u64) -> u64 {
    let m = (state ^ word).wrapping_mul(FNV_PRIME);
    m ^ (m >> 32)
}

/// The checkpoint checksum: FNV-1a over little-endian 64-bit words.
///
/// The input is read as little-endian `u64` words, the last one
/// zero-padded; word `k` goes to lane `k % 4`, and each of the four lanes,
/// all starting at the FNV-1a offset basis, takes one step per word:
/// `m = (lane ^ word) * FNV_PRIME`, then `lane = m ^ (m >> 32)`. The
/// result folds the lanes, in order, into the offset basis with the same
/// step, then folds in the input's length in bytes (so zero padding and
/// trailing zero bytes differ). Every step is a bijection of
/// the state, so a change confined to one word, such as a flipped bit,
/// always changes the result. The four lanes have no data dependence on
/// each other, so the loop takes 32 bytes per round.
pub fn fnv1a64_words(bytes: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET; 4];
    let (words, tail) = bytes.as_chunks::<8>();
    let (blocks, rest) = words.as_chunks::<4>();
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block) {
            *lane = word_step(*lane, u64::from_le_bytes(*word));
        }
    }
    for (lane, word) in lanes.iter_mut().zip(rest) {
        *lane = word_step(*lane, u64::from_le_bytes(*word));
    }
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        let lane = &mut lanes[rest.len()];
        *lane = word_step(*lane, u64::from_le_bytes(last));
    }
    let folded = lanes.iter().fold(FNV_OFFSET, |h, &lane| word_step(h, lane));
    word_step(folded, bytes.len() as u64)
}

/// splitmix64: one step of the SplitMix64 generator's output mix applied
/// to `x` plus the golden-ratio increment. A stream seeded at `s` yields
/// `splitmix64(s)`, `splitmix64(s + 0x9e37_79b9_7f4a_7c15)`, and so on.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors_and_streams() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::default();
        h.write(b"pica");
        h.write(b"");
        h.write(b"sso");
        assert_eq!(h.finish(), fnv1a64(b"picasso"));
    }

    #[test]
    fn word_checksum_matches_its_reference_vectors() {
        let ramp: Vec<u8> = (0..37).collect();
        assert_eq!(fnv1a64_words(b""), 0x0f42_c414_7dbb_93f2);
        assert_eq!(fnv1a64_words(b"a"), 0xe67b_1684_650e_1b86);
        assert_eq!(fnv1a64_words(b"picasso"), 0x7b4e_a459_cebe_3186);
        assert_eq!(fnv1a64_words(b"picasso!"), 0xf3ab_5ab7_fbde_cfa9);
        assert_eq!(fnv1a64_words(&ramp[..32]), 0x9b01_2177_3a80_58be);
        assert_eq!(fnv1a64_words(&ramp), 0xc254_f905_cba3_60f5);
        // The length tells zero padding from trailing zero bytes.
        assert_eq!(fnv1a64_words(&[0; 7]), 0x4ab0_da39_ca83_82e1);
        assert_eq!(fnv1a64_words(&[0; 8]), 0x4ab0_d939_ca83_8e1c);
    }
}
