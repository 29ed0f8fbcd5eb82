//! The word-wise checkpoint checksum against a byte-at-a-time reference.
//!
//! `fnv1a64_words` reads the input as little-endian words, four lanes at a
//! time. The reference below restates its definition one byte at a time:
//! it shifts each byte into the current word, hands a finished word to lane
//! `word index % 4`, pads the last word with zeros, then folds the lanes
//! and the length. Random inputs must hash equal under both, and at every
//! length from 0 to 64 a flip of any single bit must change the result.

use picasso_obs::checksum::fnv1a64_words;
use proptest::prelude::*;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

fn step(state: u64, word: u64) -> u64 {
    let m = (state ^ word).wrapping_mul(PRIME);
    m ^ (m >> 32)
}

fn reference(bytes: &[u8]) -> u64 {
    let mut lanes = [OFFSET; 4];
    let mut word = 0u64;
    let mut index = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        word |= u64::from(b) << (8 * (i % 8));
        if i % 8 == 7 {
            lanes[index % 4] = step(lanes[index % 4], word);
            word = 0;
            index += 1;
        }
    }
    if !bytes.len().is_multiple_of(8) {
        lanes[index % 4] = step(lanes[index % 4], word);
    }
    let mut h = OFFSET;
    for lane in lanes {
        h = step(h, lane);
    }
    step(h, bytes.len() as u64)
}

/// The vendored proptest draws from half-open ranges only, so bytes are
/// drawn as `0u16..256`.
fn as_bytes(raw: &[u16]) -> Vec<u8> {
    raw.iter().map(|&b| b as u8).collect()
}

proptest! {
    /// Random inputs of up to 600 bytes hash as the reference does, and
    /// appending a zero byte changes the hash.
    #[test]
    fn word_checksum_matches_the_byte_reference(
        raw in proptest::collection::vec(0u16..256, 0..600),
    ) {
        let bytes = as_bytes(&raw);
        let sum = fnv1a64_words(&bytes);
        prop_assert_eq!(sum, reference(&bytes));
        let mut padded = bytes.clone();
        padded.push(0);
        prop_assert!(fnv1a64_words(&padded) != sum);
        prop_assert_eq!(fnv1a64_words(&padded), reference(&padded));
    }

    /// At every length from 0 to 64, random contents hash as the reference
    /// does, and flipping any one bit changes the hash.
    #[test]
    fn every_single_bit_flip_up_to_64_bytes_changes_the_checksum(
        raw in proptest::collection::vec(0u16..256, 64..65),
    ) {
        let contents = as_bytes(&raw);
        for len in 0..=64 {
            let mut bytes = contents[..len].to_vec();
            let sum = fnv1a64_words(&bytes);
            prop_assert_eq!(sum, reference(&bytes));
            for bit in 0..len * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                let flipped = fnv1a64_words(&bytes);
                prop_assert!(flipped != sum, "len {} bit {}", len, bit);
                prop_assert_eq!(flipped, reference(&bytes));
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }
}
