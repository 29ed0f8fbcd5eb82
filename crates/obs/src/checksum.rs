//! FNV-1a 64, the workspace's one content checksum, and splitmix64, its
//! one deterministic mixer.
//!
//! Checkpoint shards, flight dumps, history segments, the causal-log codec
//! and the critical-path and race digests all hash with FNV-1a. It is
//! dependency-free and portable, and it guards against torn writes and bit
//! rot, not adversaries. [`splitmix64`] drives the flight recorder's
//! sampling, the recovery loop's detection jitter and the serving traffic
//! generator.

/// Incremental FNV-1a 64: [`Fnv1a::write`] the input in pieces, in order,
/// and [`Fnv1a::finish`] equals [`fnv1a64`] over their concatenation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    /// The state of an empty input (the FNV-1a 64 offset basis).
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Feeds `bytes` into the hash.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
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
}
