//! The binary codec every on-disk format shares.
//!
//! `.dtts` trace stores and their compressed blobs, dt-cache entries
//! and baseline bundles all write integers as LEB128 varints
//! ([`write_varint`]) and read everything back through one bounded
//! [`Reader`]. Every read is checked, so no input can make a decoder
//! panic, and a list length read with [`Reader::count`] can never claim
//! more items than the bytes left could hold, so no allocation is sized
//! by an untrusted header. Each format maps [`CodecError`] into its own
//! error vocabulary where it reads.
//!
//! Sealed formats (cache entries, baseline bundles, and each section
//! of a `.dtts` store) end in a 16-byte [`StableHasher`] digest of
//! everything before it: [`seal`] appends it and [`unseal`] verifies
//! and strips it.

use crate::hash::StableHasher;
use crate::trace::TraceId;
use std::fmt;

/// Error decoding a binary format (a compressed blob or any structure
/// read through a [`Reader`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// A compressed blob's magic bytes are wrong.
    BadMagic,
    /// A compressed blob's format version is unsupported.
    BadVersion(u8),
    /// Input ended mid-field.
    Truncated,
    /// An embedded string was not UTF-8.
    Utf8,
    /// A field is out of range: a varint wider than 64 bits, a value
    /// too wide for its type, a count the input cannot hold, or a
    /// match that references data before the start of the stream.
    Corrupt(&'static str),
    /// A well-formed blob that disagrees with its container: a digest
    /// or symbol count other than the container's index records, or
    /// more symbols than the container may decode. The container
    /// reports it as its own format error.
    Container(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bad magic bytes (not a DTLZ blob)"),
            CodecError::BadVersion(v) => write!(f, "unsupported DTLZ version {v}"),
            CodecError::Truncated => write!(f, "compressed stream ended unexpectedly"),
            CodecError::Utf8 => write!(f, "invalid UTF-8"),
            CodecError::Corrupt(m) => write!(f, "corrupt compressed stream: {m}"),
            CodecError::Container(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// LEB128-encode `v` into `out`.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// A bounded cursor over an encoded byte image.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader::at(buf, 0)
    }

    /// A reader at offset `at` of `buf` (offsets stay absolute).
    pub fn at(buf: &'a [u8], at: usize) -> Reader<'a> {
        Reader { buf, at }
    }

    /// The current offset.
    pub fn pos(&self) -> usize {
        self.at
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.at)
    }

    /// One LEB128 varint.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = *self.buf.get(self.at).ok_or(CodecError::Truncated)?;
            self.at += 1;
            if shift >= 64 {
                return Err(CodecError::Corrupt("varint too long"));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A varint that must fit a `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        u32::try_from(self.varint()?).map_err(|_| CodecError::Corrupt("value exceeds u32"))
    }

    /// One raw byte.
    pub fn byte(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// A flag byte: 0 or 1.
    pub fn flag(&mut self) -> Result<bool, CodecError> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Corrupt("bad flag byte")),
        }
    }

    /// The next `n` bytes (checked, so a hostile `n` cannot wrap the
    /// offset).
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.at.checked_add(n).ok_or(CodecError::Truncated)?;
        let bytes = self.buf.get(self.at..end).ok_or(CodecError::Truncated)?;
        self.at = end;
        Ok(bytes)
    }

    /// The next `N` bytes as an array (for fixed-width LE fields).
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }

    /// A length header for that many follow-up items of at least
    /// `min_bytes` each. A count the bytes left cannot hold is an
    /// error, so it is safe to size an allocation by the result.
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, CodecError> {
        usize::try_from(self.varint()?)
            .ok()
            .filter(|n| n.saturating_mul(min_bytes.max(1)) <= self.remaining())
            .ok_or(CodecError::Corrupt("count exceeds input size"))
    }

    /// A counted list: a [`Reader::count`] of items of at least
    /// `min_bytes` each, then every item read by `item`.
    pub fn list<T>(
        &mut self,
        min_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.count(min_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Ok(out)
    }

    /// A length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, CodecError> {
        let len = usize::try_from(self.varint()?).map_err(|_| CodecError::Truncated)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Utf8)
    }

    /// A trace id: a process and a thread varint, each of which must
    /// fit a `u32` (a wider one would alias another trace's id).
    pub fn id(&mut self) -> Result<TraceId, CodecError> {
        Ok(TraceId::new(self.u32()?, self.u32()?))
    }
}

/// Append the seal: 16 bytes of [`StableHasher`] over everything so
/// far (magic and version included).
pub fn seal(mut bytes: Vec<u8>) -> Vec<u8> {
    let mut h = StableHasher::new();
    h.write_raw(&bytes);
    bytes.extend_from_slice(&h.finish().to_le_bytes());
    bytes
}

/// Verify and strip the seal: the payload and its digest, or `None`
/// when `buf` is shorter than a seal or the digest does not match.
pub fn unseal(buf: &[u8]) -> Option<(&[u8], u128)> {
    let (payload, digest) = buf.split_at(buf.len().checked_sub(16)?);
    let mut h = StableHasher::new();
    h.write_raw(payload);
    let d = h.finish();
    (d.to_le_bytes() == digest).then_some((payload, d))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint().unwrap(), v);
            assert_eq!(r.pos(), buf.len());
        }
    }

    #[test]
    fn reads_are_bounded() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX); // a count no input can hold
        write_varint(&mut buf, 3);
        buf.extend_from_slice(b"ab");
        let mut r = Reader::new(&buf);
        assert_eq!(
            r.count(1),
            Err(CodecError::Corrupt("count exceeds input size"))
        );
        assert_eq!(r.string(), Err(CodecError::Truncated));
        let mut r = Reader::at(&buf, buf.len() - 2);
        assert_eq!(r.take(usize::MAX), Err(CodecError::Truncated));
        assert_eq!(r.flag(), Err(CodecError::Corrupt("bad flag byte")));
        assert_eq!(
            Reader::new(&[0x80; 11]).varint(),
            Err(CodecError::Corrupt("varint too long"))
        );
        assert_eq!(Reader::new(&[0x80]).varint(), Err(CodecError::Truncated));
    }
}
