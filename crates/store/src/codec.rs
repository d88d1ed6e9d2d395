//! Payload byte-building: the fixed-width little-endian encoding every
//! record payload is written in.
//!
//! [`Enc`] appends; [`Dec`] consumes, returning a typed [`DecodeError`]
//! on any shortfall instead of panicking. Floats travel as IEEE-754 bit
//! patterns (`f64::to_bits`), so every value — including NaN payloads and
//! signed zeros — round-trips exactly; nothing here formats or parses
//! decimal text.

use std::fmt;

/// A payload failed to decode: it ended early or held an impossible tag.
///
/// The `field` names what was being decoded — restore errors surface it
/// verbatim, so keep the labels stable and human-readable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte position inside the payload where decoding stopped.
    pub offset: usize,
    /// What was being decoded when it failed.
    pub field: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "payload decode failed at byte {} while reading {}",
            self.offset, self.field
        )
    }
}

impl std::error::Error for DecodeError {}

/// Append-only payload builder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty payload.
    pub fn new() -> Self {
        Enc::default()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (lengths, counts).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends an optional `u64`: presence byte, then the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.u64(x);
            }
            None => self.bool(false),
        }
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed slice of `u64`s.
    pub fn u64s(&mut self, v: &[u64]) {
        self.usize(v.len());
        for &x in v {
            self.u64(x);
        }
    }

    /// Appends a length-prefixed slice of `f64` bit patterns.
    pub fn f64s(&mut self, v: &[f64]) {
        self.usize(v.len());
        for &x in v {
            self.f64(x);
        }
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The finished payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Forward-only payload consumer over a borrowed byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

/// Longest length prefix [`Dec`] honors for a single vector or byte
/// string — a corrupt length must not turn into a giant allocation.
const MAX_SEQ_LEN: u64 = 1 << 32;

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Dec { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError {
            offset: self.pos,
            field,
        })?;
        let slice = self.data.get(self.pos..end).ok_or(DecodeError {
            offset: self.pos,
            field,
        })?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self, field: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, field)?.first().copied().unwrap_or(0))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, field: &'static str) -> Result<u32, DecodeError> {
        let offset = self.pos;
        let bytes = self.take(4, field)?;
        let arr: [u8; 4] = bytes
            .try_into()
            .map_err(|_| DecodeError { offset, field })?;
        Ok(u32::from_le_bytes(arr))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, field: &'static str) -> Result<u64, DecodeError> {
        let offset = self.pos;
        let bytes = self.take(8, field)?;
        let arr: [u8; 8] = bytes
            .try_into()
            .map_err(|_| DecodeError { offset, field })?;
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads a `u64` written by [`Enc::usize`] back as a `usize`.
    pub fn usize(&mut self, field: &'static str) -> Result<usize, DecodeError> {
        let offset = self.pos;
        let v = self.u64(field)?;
        usize::try_from(v).map_err(|_| DecodeError { offset, field })
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self, field: &'static str) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64(field)?))
    }

    /// Reads a `bool`; any byte other than 0 or 1 is a decode error.
    pub fn bool(&mut self, field: &'static str) -> Result<bool, DecodeError> {
        let offset = self.pos;
        match self.u8(field)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError { offset, field }),
        }
    }

    /// Reads a one-byte enum tag; any byte `>= variants` is a decode
    /// error at the tag's offset.
    pub fn tag(&mut self, field: &'static str, variants: u8) -> Result<u8, DecodeError> {
        let offset = self.pos;
        let v = self.u8(field)?;
        if v < variants {
            Ok(v)
        } else {
            Err(DecodeError { offset, field })
        }
    }

    /// Reads an optional `u64` written by [`Enc::opt_u64`].
    pub fn opt_u64(&mut self, field: &'static str) -> Result<Option<u64>, DecodeError> {
        if self.bool(field)? {
            Ok(Some(self.u64(field)?))
        } else {
            Ok(None)
        }
    }

    /// Reads a sequence length prefix, bounded by an allocation cap.
    pub fn seq_len(&mut self, field: &'static str) -> Result<usize, DecodeError> {
        let offset = self.pos;
        let n = self.u64(field)?;
        if n > MAX_SEQ_LEN {
            return Err(DecodeError { offset, field });
        }
        usize::try_from(n).map_err(|_| DecodeError { offset, field })
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self, field: &'static str) -> Result<&'a [u8], DecodeError> {
        let n = self.seq_len(field)?;
        self.take(n, field)
    }

    /// Reads a length-prefixed slice of `u64`s.
    pub fn u64s(&mut self, field: &'static str) -> Result<Vec<u64>, DecodeError> {
        let n = self.seq_len(field)?;
        let mut out = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            out.push(self.u64(field)?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed slice of `f64`s.
    pub fn f64s(&mut self, field: &'static str) -> Result<Vec<f64>, DecodeError> {
        let mut out = Vec::new();
        self.f64s_into(field, &mut out)?;
        Ok(out)
    }

    /// Reads a length-prefixed slice of `f64`s onto the end of `out` and
    /// returns its length: the form for decoding many short slices into
    /// one flat buffer without a `Vec` per slice. On error `out` may hold
    /// part of the slice.
    pub fn f64s_into(
        &mut self,
        field: &'static str,
        out: &mut Vec<f64>,
    ) -> Result<usize, DecodeError> {
        let n = self.seq_len(field)?;
        out.reserve(n.min(1 << 16));
        for _ in 0..n {
            out.push(self.f64(field)?);
        }
        Ok(n)
    }

    /// Asserts the payload was consumed exactly — trailing garbage means
    /// the writer and reader disagree on the schema.
    pub fn finish(self, field: &'static str) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError {
                offset: self.pos,
                field,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip_exactly() {
        let mut enc = Enc::new();
        enc.u8(7);
        enc.u32(0xDEAD_BEEF);
        enc.u64(u64::MAX);
        enc.f64(-0.0);
        enc.f64(f64::NAN);
        enc.bool(true);
        enc.opt_u64(None);
        enc.opt_u64(Some(42));
        enc.bytes(b"abc");
        enc.f64s(&[1.5, -2.25]);
        enc.u64s(&[3, 4, 5]);
        let bytes = enc.into_bytes();

        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.u8("a").unwrap(), 7);
        assert_eq!(dec.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.u64("c").unwrap(), u64::MAX);
        assert_eq!(dec.f64("d").unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(dec.f64("e").unwrap().is_nan());
        assert!(dec.bool("f").unwrap());
        assert_eq!(dec.opt_u64("g").unwrap(), None);
        assert_eq!(dec.opt_u64("h").unwrap(), Some(42));
        assert_eq!(dec.bytes("i").unwrap(), b"abc");
        assert_eq!(dec.f64s("j").unwrap(), vec![1.5, -2.25]);
        assert_eq!(dec.u64s("k").unwrap(), vec![3, 4, 5]);
        dec.finish("end").unwrap();
    }

    #[test]
    fn short_payloads_error_instead_of_panicking() {
        let mut dec = Dec::new(&[1, 2]);
        let err = dec.u64("needs-eight").unwrap_err();
        assert_eq!(err.field, "needs-eight");
        assert_eq!(err.offset, 0);
    }

    #[test]
    fn non_boolean_byte_is_a_decode_error() {
        let mut dec = Dec::new(&[9]);
        assert!(dec.bool("flag").is_err());
    }

    #[test]
    fn enum_tags_are_range_checked() {
        let mut dec = Dec::new(&[2, 3]);
        assert_eq!(dec.tag("ok", 3).unwrap(), 2);
        let err = dec.tag("class", 3).unwrap_err();
        assert_eq!(err.field, "class");
        assert_eq!(err.offset, 1);
    }

    #[test]
    fn trailing_garbage_fails_finish() {
        let dec = Dec::new(&[0]);
        assert!(dec.finish("end").is_err());
    }

    #[test]
    fn f64s_into_appends_each_slice_to_one_buffer() {
        let mut enc = Enc::new();
        enc.f64s(&[0.25, 0.5]);
        enc.f64s(&[]);
        enc.f64s(&[1.0]);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let mut flat = vec![9.0];
        assert_eq!(dec.f64s_into("a", &mut flat).unwrap(), 2);
        assert_eq!(dec.f64s_into("b", &mut flat).unwrap(), 0);
        assert_eq!(dec.f64s_into("c", &mut flat).unwrap(), 1);
        assert_eq!(flat, vec![9.0, 0.25, 0.5, 1.0]);
        dec.finish("end").unwrap();
        let mut truncated = Dec::new(&bytes[..12]);
        assert!(truncated.f64s_into("short", &mut flat).is_err());
    }

    #[test]
    fn implausible_length_prefix_is_rejected() {
        let mut enc = Enc::new();
        enc.u64(u64::MAX); // absurd element count
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert!(dec.u64s("huge").is_err());
    }
}
