//! Deterministic binary codec and the shard checksum.
//!
//! Shards are flat little-endian byte streams: the encoder writes fixed-width
//! integers and floats in declaration order, the decoder reads them back and
//! rejects truncated or oversized payloads. Determinism matters twice over —
//! the crash-and-recover proof compares checkpoints byte for byte, and the
//! perf gate pins incremental-vs-full size ratios — so there is no padding,
//! no varint, and no platform-dependent field.

use std::fmt;

/// The integrity checksum of every checkpoint shard (FNV-1a over 64-bit
/// words), and the byte-wise FNV-1a the trainer's state digest hashes with.
pub use picasso_obs::checksum::{fnv1a64_words, Fnv1a};

/// Why a payload could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before a read completed.
    UnexpectedEof {
        /// Bytes the read needed.
        want: usize,
        /// Bytes left in the payload.
        have: usize,
    },
    /// Bytes remained after the document was fully decoded.
    TrailingBytes(usize),
    /// A decoded value violated a structural invariant.
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { want, have } => {
                write!(
                    f,
                    "unexpected end of payload: need {want} bytes, have {have}"
                )
            }
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after document"),
            CodecError::Invalid(msg) => write!(f, "invalid payload: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends fixed-width little-endian values to a byte buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// An empty encoder whose buffer holds `bytes` before it grows.
    pub fn with_capacity(bytes: usize) -> Encoder {
        Encoder {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Writes a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a length-prefixed `f32` slice.
    pub fn f32_slice(&mut self, vs: &[f32]) {
        self.u64(vs.len() as u64);
        self.buf
            .extend(vs.iter().flat_map(|v| v.to_bits().to_le_bytes()));
    }

    /// Consumes the encoder, returning the payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads fixed-width little-endian values back out of a payload.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let have = self.buf.len() - self.pos;
        if have < n {
            return Err(CodecError::UnexpectedEof { want: n, have });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads the next `N` bytes.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Reads an `f32` by bit pattern.
    pub fn f32(&mut self) -> Result<f32, CodecError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads a length-prefixed `f32` slice.
    pub fn f32_slice(&mut self) -> Result<Vec<f32>, CodecError> {
        let n = self.u64()? as usize;
        // Each element needs 4 bytes; bound before allocating so a corrupt
        // length cannot trigger a huge reservation.
        let have = self.buf.len() - self.pos;
        let want = n.saturating_mul(4);
        if have < want {
            return Err(CodecError::UnexpectedEof { want, have });
        }
        (0..n).map(|_| self.f32()).collect()
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes(self.buf.len() - self.pos))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip_exactly() {
        let mut e = Encoder::new();
        e.u64(u64::MAX);
        e.u32(7);
        e.f32_slice(&[1.5, f32::NAN, -3.25, -0.0]);
        let bytes = e.finish();

        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.u32().unwrap(), 7);
        let vs = d.f32_slice().unwrap();
        assert_eq!(vs.len(), 4);
        assert!(vs[1].is_nan(), "NaN bit patterns survive");
        assert_eq!(vs[3].to_bits(), (-0.0f32).to_bits());
        d.finish().unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let mut e = Encoder::new();
        e.u64(1);
        let mut bytes = e.finish();
        bytes.pop();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(
            d.u64(),
            Err(CodecError::UnexpectedEof { want: 8, have: 7 })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut e = Encoder::new();
        e.u32(1);
        let mut bytes = e.finish();
        bytes.push(0);
        let mut d = Decoder::new(&bytes);
        d.u32().unwrap();
        assert_eq!(d.finish(), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn corrupt_slice_length_does_not_allocate() {
        let mut e = Encoder::new();
        e.u64(u64::MAX / 8); // absurd element count, no payload
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(
            d.f32_slice(),
            Err(CodecError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn slice_length_of_u64_max_is_an_error_not_an_overflow() {
        let mut e = Encoder::new();
        e.u64(u64::MAX); // its byte count overflows
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(
            d.f32_slice(),
            Err(CodecError::UnexpectedEof { want, have: 0 }) if want == usize::MAX
        ));
    }

    #[test]
    fn fnv_is_stable_and_sensitive() {
        assert_eq!(fnv1a64_words(b""), 0x0f42_c414_7dbb_93f2);
        let a = fnv1a64_words(b"picasso");
        let b = fnv1a64_words(b"picassp");
        assert_ne!(a, b, "one-bit change moves the checksum");
        assert_eq!(a, fnv1a64_words(b"picasso"), "hash is a pure function");
    }
}
