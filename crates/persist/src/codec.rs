//! Little-endian primitive readers and writers.
//!
//! [`ByteWriter`] appends fixed-width little-endian fields to a growable
//! buffer; [`ByteReader`] is its total inverse — every read returns
//! `Result` and a short read is a typed [`PersistError::Truncated`],
//! never a panic. Length prefixes go through [`ByteReader::take_len`],
//! which bounds the declared count by the bytes actually remaining so a
//! corrupted length cannot trigger a pathological allocation.

use crate::PersistError;

/// Appends little-endian fields to an owned buffer.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// A writer with pre-reserved capacity.
    pub fn with_capacity(capacity: usize) -> ByteWriter {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The buffer written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as the little-endian bits (`f64::to_bits`), so
    /// the round trip is bit-exact including signed zeros.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a collection length as a `u64` prefix.
    pub fn put_len(&mut self, len: usize) {
        self.put_u64(len as u64);
    }

    /// Appends raw bytes (no length prefix).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Overwrites the little-endian `u32` at byte offset `at`, e.g. a
    /// length reserved before its payload was written.
    ///
    /// # Panics
    /// If `at + 4` exceeds the bytes written so far.
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Overwrites the little-endian `u64` at byte offset `at`.
    ///
    /// # Panics
    /// If `at + 8` exceeds the bytes written so far.
    pub fn patch_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }
}

impl From<Vec<u8>> for ByteWriter {
    /// A writer that appends after the bytes already in `buf`.
    fn from(buf: Vec<u8>) -> ByteWriter {
        ByteWriter { buf }
    }
}

/// A cursor over a byte slice whose every read is checked.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a slice, positioned at the start.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Errors with [`PersistError::TrailingBytes`] unless the reader is
    /// exactly exhausted — the final check of every decode.
    pub fn finish(&self) -> Result<(), PersistError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(PersistError::TrailingBytes {
                count: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated { context });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a bool byte, rejecting anything but 0 or 1.
    pub fn take_bool(&mut self) -> Result<bool, PersistError> {
        match self.take(1, "bool")?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(PersistError::Malformed {
                context: "bool byte out of range",
            }),
        }
    }

    /// Reads a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, PersistError> {
        let b = self.take(2, "u16")?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, PersistError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, PersistError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from its stored bits (bit-exact, NaN included —
    /// callers that must exclude NaN validate after reading).
    pub fn take_f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads an `f64` and rejects non-finite values — the guard for
    /// state fields that arithmetic downstream assumes finite.
    pub fn take_finite_f64(&mut self) -> Result<f64, PersistError> {
        let v = self.take_f64()?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(PersistError::Malformed {
                context: "non-finite f64 in state",
            })
        }
    }

    /// Reads a `u64` length prefix for elements of at least
    /// `min_element_size` bytes each, bounding it by the remaining input
    /// so a corrupted length cannot drive a huge allocation.
    pub fn take_len(&mut self, min_element_size: usize) -> Result<usize, PersistError> {
        let len = self.take_u64()?;
        let cap = self
            .remaining()
            .checked_div(min_element_size)
            .map_or(u64::MAX, |c| c as u64);
        if len > cap {
            return Err(PersistError::Malformed {
                context: "length prefix exceeds remaining input",
            });
        }
        Ok(len as usize)
    }

    /// Reads exactly `n` raw bytes.
    pub fn take_bytes(
        &mut self,
        n: usize,
        context: &'static str,
    ) -> Result<&'a [u8], PersistError> {
        self.take(n, context)
    }

    /// Reads a fixed 4-byte array (tags, magics).
    pub fn take_tag(&mut self, context: &'static str) -> Result<[u8; 4], PersistError> {
        let b = self.take(4, context)?;
        Ok([b[0], b[1], b[2], b[3]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_bool(true);
        w.put_bool(false);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_f64(-0.0);
        w.put_f64(std::f64::consts::PI);
        w.put_len(3);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 0xAB);
        assert!(r.take_bool().unwrap());
        assert!(!r.take_bool().unwrap());
        assert_eq!(r.take_u16().unwrap(), 0xBEEF);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        // Bit-exact: -0.0 keeps its sign bit.
        assert_eq!(r.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.take_f64().unwrap(), std::f64::consts::PI);
        assert_eq!(r.take_len(0).unwrap(), 3);
        r.finish().unwrap();
    }

    #[test]
    fn patches_overwrite_in_place() {
        let mut w = ByteWriter::from(vec![0xEE]);
        w.put_u32(0);
        w.put_u64(0);
        w.put_u8(0x11);
        w.patch_u32(1, 0xDEAD_BEEF);
        w.patch_u64(5, 0x0123_4567_89AB_CDEF);
        let mut expected = ByteWriter::new();
        expected.put_u8(0xEE);
        expected.put_u32(0xDEAD_BEEF);
        expected.put_u64(0x0123_4567_89AB_CDEF);
        expected.put_u8(0x11);
        assert_eq!(w.as_bytes(), expected.as_bytes());
    }

    #[test]
    fn short_reads_are_truncated_errors() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert!(matches!(
            r.take_u64(),
            Err(PersistError::Truncated { context: "u64" })
        ));
        // The failed read consumed nothing.
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.take_u16().unwrap(), 0x0201);
    }

    #[test]
    fn bool_rejects_junk() {
        let mut r = ByteReader::new(&[2]);
        assert!(matches!(r.take_bool(), Err(PersistError::Malformed { .. })));
    }

    #[test]
    fn length_prefix_is_allocation_guarded() {
        let mut w = ByteWriter::new();
        w.put_len(usize::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.take_len(8), Err(PersistError::Malformed { .. })));
    }

    #[test]
    fn finish_flags_trailing_bytes() {
        let mut r = ByteReader::new(&[0, 0, 0]);
        r.take_u8().unwrap();
        assert_eq!(r.finish(), Err(PersistError::TrailingBytes { count: 2 }));
    }

    #[test]
    fn non_finite_guard() {
        let mut w = ByteWriter::new();
        w.put_f64(f64::NAN);
        w.put_f64(f64::INFINITY);
        w.put_f64(1.5);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.take_finite_f64().is_err());
        assert!(r.take_finite_f64().is_err());
        assert_eq!(r.take_finite_f64().unwrap(), 1.5);
    }
}
