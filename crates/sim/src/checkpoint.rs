//! The binary substrate of the [`Stats`](crate::stats::Stats) codec
//! (`Stats::save_state`/`load_state`), which the bench result cache uses
//! to store finished cells.
//!
//! A [`Writer`] appends fixed-width little-endian fields and
//! length-prefixed slices; a [`Reader`] consumes them with hard errors on
//! truncation or corruption — never silent defaults, because a
//! half-decoded `Stats` would produce plausible-but-wrong results. The
//! format is deliberately *not* self-describing: field order is the
//! struct declaration order of the saving type.

/// A decode failure. Every variant is a hard error: the value being
/// decoded must be discarded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The byte stream ended before the expected field.
    Truncated,
    /// A structural field disagrees with the decoding type (for example
    /// an array length).
    Corrupt(&'static str),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Truncated => write!(f, "payload truncated"),
            CkptError::Corrupt(what) => write!(f, "payload corrupt: {what}"),
        }
    }
}

/// Appends little-endian fields to a growable byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `&[u64]` with a length prefix.
    pub fn u64_slice(&mut self, s: &[u64]) {
        self.u64(s.len() as u64);
        for &v in s {
            self.u64(v);
        }
    }
}

/// Consumes little-endian fields from a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { buf: bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        let end = self.pos.checked_add(n).ok_or(CkptError::Truncated)?;
        if end > self.buf.len() {
            return Err(CkptError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads a `u64`, little-endian.
    pub fn u64(&mut self) -> Result<u64, CkptError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads into an existing `&mut [u64]`, erroring if the stored
    /// length differs (the decoding type's geometry must match).
    pub fn u64_slice_into(&mut self, dst: &mut [u64]) -> Result<(), CkptError> {
        if self.u64()? != dst.len() as u64 {
            return Err(CkptError::Corrupt("u64 slice length mismatch"));
        }
        for v in dst.iter_mut() {
            *v = self.u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_round_trip_and_check_lengths() {
        let mut w = Writer::new();
        w.u64(u64::MAX - 3);
        w.u64_slice(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u64().expect("u64 round-trip"), u64::MAX - 3);
        let mut dst = [0u64; 3];
        r.u64_slice_into(&mut dst).expect("slice round-trip");
        assert_eq!(dst, [1, 2, 3]);
        assert_eq!(r.remaining(), 0);

        let mut r = Reader::new(&bytes);
        r.u64().expect("u64 round-trip");
        let mut wrong = [0u64; 2];
        assert!(matches!(r.u64_slice_into(&mut wrong), Err(CkptError::Corrupt(_))));
    }

    #[test]
    fn truncation_is_a_hard_error() {
        let mut w = Writer::new();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..5]);
        assert_eq!(r.u64(), Err(CkptError::Truncated));
    }
}
