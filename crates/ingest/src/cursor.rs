//! A bounds-checked byte cursor: every read returns a `Result`, so
//! corrupt captures surface as errors instead of panics.

use crate::error::IngestError;

/// Byte order of the multi-byte fields being read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endian {
    /// Least-significant byte first.
    Little,
    /// Most-significant byte first.
    Big,
}

impl Endian {
    /// Reads one 32-bit word in this byte order.
    #[inline]
    pub(crate) fn u32(self, bytes: [u8; 4]) -> u32 {
        match self {
            Endian::Little => u32::from_le_bytes(bytes),
            Endian::Big => u32::from_be_bytes(bytes),
        }
    }
}

/// A forward-only reader over an in-memory capture.
#[derive(Debug, Clone)]
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Absolute byte offset of the next read.
    pub(crate) fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` bytes, or reports where the input ended.
    pub(crate) fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], IngestError> {
        self.bytes(n).ok_or(IngestError::Truncated {
            offset: self.pos,
            what,
        })
    }

    /// Takes the next `n` bytes; `None`, consuming nothing, when fewer
    /// are left.
    #[inline]
    pub(crate) fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let out = self.buf.get(self.pos..)?.get(..n)?;
        self.pos += n;
        Some(out)
    }

    /// Takes the next `N` bytes as an array, with one bounds check;
    /// `None`, consuming nothing, when fewer are left.
    #[inline]
    pub(crate) fn array<const N: usize>(&mut self) -> Option<&'a [u8; N]> {
        let (out, _) = self.buf.get(self.pos..)?.split_first_chunk::<N>()?;
        self.pos += N;
        Some(out)
    }

    /// Skips `n` bytes.
    pub(crate) fn skip(&mut self, n: usize, what: &'static str) -> Result<(), IngestError> {
        self.take(n, what).map(|_| ())
    }

    pub(crate) fn u16(&mut self, endian: Endian, what: &'static str) -> Result<u16, IngestError> {
        let b = self.take(2, what)?;
        let arr = [b[0], b[1]];
        Ok(match endian {
            Endian::Little => u16::from_le_bytes(arr),
            Endian::Big => u16::from_be_bytes(arr),
        })
    }

    pub(crate) fn u32(&mut self, endian: Endian, what: &'static str) -> Result<u32, IngestError> {
        let offset = self.pos;
        let word = self
            .array::<4>()
            .ok_or(IngestError::Truncated { offset, what })?;
        Ok(endian.u32(*word))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_both_endiannesses() {
        let data = [0x01, 0x02, 0x03, 0x04];
        let mut le = Cursor::new(&data);
        assert_eq!(le.u32(Endian::Little, "x").unwrap(), 0x0403_0201);
        let mut be = Cursor::new(&data);
        assert_eq!(be.u32(Endian::Big, "x").unwrap(), 0x0102_0304);
        let mut h = Cursor::new(&data);
        assert_eq!(h.u16(Endian::Big, "x").unwrap(), 0x0102);
        assert_eq!(h.u16(Endian::Little, "x").unwrap(), 0x0403);
    }

    #[test]
    fn truncation_reports_offset_and_context() {
        let data = [0xAA, 0xBB];
        let mut c = Cursor::new(&data);
        c.skip(1, "first").unwrap();
        let err = c.u32(Endian::Little, "header field").unwrap_err();
        match err {
            IngestError::Truncated { offset, what } => {
                assert_eq!(offset, 1);
                assert_eq!(what, "header field");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // The failed read consumed nothing.
        assert_eq!(c.remaining(), 1);
    }

    #[test]
    fn take_skip_and_exhaustion() {
        let data = [1u8, 2, 3, 4, 5];
        let mut c = Cursor::new(&data);
        assert_eq!(c.take(2, "x").unwrap(), &[1, 2]);
        c.skip(1, "x").unwrap();
        assert_eq!(c.offset(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.take(2, "x").unwrap(), &[4, 5]);
        assert!(c.is_empty());
        assert!(c.take(1, "x").is_err());
    }
}
