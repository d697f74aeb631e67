//! LEB128 variable-length integers and a bounds-checked payload cursor.
//!
//! FBIN encodes every count, dictionary index and item-id delta as an
//! unsigned LEB128 varint: 7 value bits per byte, high bit = continuation.
//! Small values (the overwhelmingly common case for delta-encoded sorted
//! item ids) take one byte.
//!
//! [`read_varint`] is the one varint reader, and [`read_len`] narrows its
//! value to `usize`. Both return a [`VarintFault`] code rather than a
//! [`StoreError`], so the chunk decoder's hot loop moves no error value
//! through its reads; [`PayloadCursor`] wraps them for the dictionary and
//! end sections, where each fault becomes its error at once.

use crate::error::StoreError;

/// Append `v` to `buf` as an unsigned LEB128 varint (1–10 bytes).
pub fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Why a varint could not be read: a small `Copy` code, so a decode loop
/// carries no [`StoreError`] (and no `String`) through its reads. The
/// caller turns it into an error, with its own context, only on failure.
#[derive(Debug, Clone, Copy)]
pub enum VarintFault {
    /// The payload ended inside the varint.
    Truncated,
    /// The value does not fit in a `u64`: a tenth byte above 1, which
    /// also covers every varint longer than 10 bytes.
    Overflow,
    /// A length that does not fit in `usize`.
    Length(u64),
}

impl VarintFault {
    /// The error this fault stands for, reported against `context`.
    pub fn into_error(self, context: &'static str) -> StoreError {
        match self {
            VarintFault::Truncated => StoreError::Truncated { context },
            VarintFault::Overflow => StoreError::Corrupt {
                context,
                message: "varint overflows u64".to_string(),
            },
            VarintFault::Length(v) => StoreError::Corrupt {
                context,
                message: format!("length {v} exceeds the address space"),
            },
        }
    }
}

/// Read one LEB128 varint from `buf` at `*pos` and advance `*pos` past it.
#[inline]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, VarintFault> {
    let mut value = 0;
    let mut shift = 0;
    loop {
        let Some(&byte) = buf.get(*pos) else {
            return Err(VarintFault::Truncated);
        };
        *pos += 1;
        // The tenth byte (shift 63) holds the top bit of a u64: anything
        // above 1 there, a continuation included, is corruption, not EOF.
        if shift == 63 && byte > 1 {
            return Err(VarintFault::Overflow);
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte < 0x80 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Read a varint at `*pos`, as [`read_varint`], and narrow it to `usize`.
#[inline]
pub fn read_len(buf: &[u8], pos: &mut usize) -> Result<usize, VarintFault> {
    let v = read_varint(buf, pos)?;
    usize::try_from(v).map_err(|_| VarintFault::Length(v))
}

/// A cursor over one section payload, with typed truncation/corruption
/// errors instead of panics.
pub struct PayloadCursor<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Section name, used as error context.
    context: &'static str,
}

impl<'a> PayloadCursor<'a> {
    /// Cursor over `buf`, reporting errors against `context`.
    pub fn new(buf: &'a [u8], context: &'static str) -> Self {
        PayloadCursor {
            buf,
            pos: 0,
            context,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Read one LEB128 varint.
    pub fn read_varint(&mut self) -> Result<u64, StoreError> {
        read_varint(self.buf, &mut self.pos).map_err(|f| f.into_error(self.context))
    }

    /// Read a varint and narrow it to `usize`.
    pub fn read_len(&mut self) -> Result<usize, StoreError> {
        read_len(self.buf, &mut self.pos).map_err(|f| f.into_error(self.context))
    }

    /// Read exactly `n` raw bytes.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Truncated {
                context: self.context,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_across_magnitudes() {
        let values = [
            0u64,
            1,
            127,
            128,
            255,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut c = PayloadCursor::new(&buf, "test");
        for &v in &values {
            assert_eq!(c.read_varint().unwrap(), v);
        }
        assert!(c.is_exhausted());
    }

    #[test]
    fn single_byte_for_small_values() {
        for v in 0..128u64 {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            assert_eq!(buf, vec![v as u8]);
        }
    }

    #[test]
    fn truncated_varint_is_typed() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 1_000_000);
        buf.pop();
        let mut c = PayloadCursor::new(&buf, "test");
        assert!(matches!(
            c.read_varint().unwrap_err(),
            StoreError::Truncated { .. }
        ));
    }

    #[test]
    fn overlong_varint_is_corrupt() {
        // 11 continuation bytes can never be a valid u64.
        let buf = [0x80u8; 11];
        let mut c = PayloadCursor::new(&buf, "test");
        assert!(matches!(
            c.read_varint().unwrap_err(),
            StoreError::Corrupt { .. }
        ));
        // 10 bytes whose top byte carries bits beyond 2^64.
        let buf = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        let mut c = PayloadCursor::new(&buf, "test");
        assert!(matches!(
            c.read_varint().unwrap_err(),
            StoreError::Corrupt { .. }
        ));
    }

    #[test]
    fn read_bytes_bounds_checked() {
        let mut c = PayloadCursor::new(b"abc", "test");
        assert_eq!(c.read_bytes(2).unwrap(), b"ab");
        assert!(matches!(
            c.read_bytes(2).unwrap_err(),
            StoreError::Truncated { .. }
        ));
    }
}
