//! Artifact records: the workspace's one hash and its one sealed framing.
//!
//! Every content address (dataset, backbone and cell fingerprints, cell
//! RNG streams) and every on-disk checksum is 64-bit FNV-1a computed by
//! [`Fnv`]. Every checksummed artifact (EOST checkpoints, EOSC cache
//! entries, EOSJ journal entries) is framed by [`seal`] and read back by
//! [`open`]:
//!
//! ```text
//! magic (4 bytes) | u32 version | body | u64 FNV-1a of everything before it
//! ```
//!
//! All integers and floats are little-endian. Formats differ only in the
//! sections of their body, written through a [`Writer`] and read through
//! a bounds-checked [`Reader`] cursor. The EOSW weight format keeps an
//! unsealed header (it travels inside EOST and EOSC bodies, which are
//! sealed) but uses the same writer and cursor.
//!
//! ```
//! use eos_tensor::record::{open, seal};
//! let bytes = seal(b"DEMO", 1, |w| {
//!     w.u64(42).f32s(&[1.5, -2.0]);
//! });
//! let mut r = open(&bytes, b"DEMO", 1).unwrap();
//! assert_eq!(r.u64().unwrap(), 42);
//! assert_eq!(r.f32s(2).unwrap(), vec![1.5, -2.0]);
//! r.end("the demo body").unwrap();
//! ```

use std::io;

/// The 64-bit FNV offset basis.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf29ce484222325;
/// The 64-bit FNV prime.
pub const FNV_PRIME: u64 = 0x100000001b3;

/// Streaming FNV-1a hasher over typed fields. Fingerprints derived from
/// it name the on-disk artifacts and seed per-cell RNG streams, so the
/// mixing must stay stable across releases — change it and every cached
/// artifact silently invalidates (safe, but wasteful) while every derived
/// RNG stream shifts (changes experiment output).
pub struct Fnv(u64);

impl Fnv {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(FNV_OFFSET_BASIS)
    }

    /// Mixes raw bytes.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Mixes a string with a terminator, so `"ab" + "c"` and `"a" + "bc"`
    /// hash differently.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes()).bytes(&[0xff])
    }

    /// Mixes a `u64` as its little-endian bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Mixes an `f32` by bit pattern (exact, no rounding ambiguity).
    #[inline]
    pub fn f32(&mut self, v: f32) -> &mut Self {
        self.bytes(&v.to_bits().to_le_bytes())
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv::new().bytes(bytes).finish()
}

/// An `InvalidData` error: the artifact exists but cannot be trusted.
pub fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Little-endian builder for a record's bytes.
#[derive(Default)]
pub struct Writer(Vec<u8>);

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer(Vec::new())
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.0.extend_from_slice(b);
        self
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Appends an `f32`.
    pub fn f32(&mut self, v: f32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Appends a run of `f32`s (no length prefix).
    pub fn f32s(&mut self, vs: &[f32]) -> &mut Self {
        self.0.reserve(vs.len() * 4);
        for v in vs {
            self.0.extend_from_slice(&v.to_le_bytes());
        }
        self
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }
}

/// Builds a sealed record: `magic | u32 version | body | u64 FNV-1a tail`,
/// the tail hashing everything before it.
pub fn seal(magic: &[u8; 4], version: u32, body: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(magic).u32(version);
    body(&mut w);
    let tail = fnv1a(&w.0);
    w.u64(tail);
    w.0
}

/// Everything before a sealed record's tail, if the tail is the FNV-1a
/// of it; otherwise why not.
fn verified(bytes: &[u8]) -> Result<&[u8], String> {
    let Some(split) = bytes.len().checked_sub(8) else {
        return Err("shorter than its checksum".into());
    };
    let (head, tail) = bytes.split_at(split);
    let stored = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
    let computed = fnv1a(head);
    if stored != computed {
        return Err(format!(
            "checksum mismatch (truncated or corrupt): stored {stored:#018x}, computed {computed:#018x}"
        ));
    }
    Ok(head)
}

/// True when a sealed record's tail matches its contents — the structure
/// is not parsed. Garbage collectors use this to sort intact entries from
/// corrupt ones without knowing each format.
pub fn tail_ok(bytes: &[u8]) -> bool {
    verified(bytes).is_ok()
}

/// Opens a record built by [`seal`]: checks the tail first, then the
/// magic and the version, and returns a cursor over the body. Every
/// failure is `InvalidData` and names the expected format.
pub fn open<'a>(bytes: &'a [u8], magic: &[u8; 4], version: u32) -> io::Result<Reader<'a>> {
    let name = String::from_utf8_lossy(magic);
    let head = verified(bytes).map_err(|why| invalid(format!("{name} record {why}")))?;
    // A verified record is trusted bytes; running out inside it means
    // writer and reader disagree on the structure, so that is corruption
    // too rather than a short read.
    let mut r = Reader {
        rest: head,
        short: io::ErrorKind::InvalidData,
    };
    if r.bytes(4).ok() != Some(&magic[..]) {
        return Err(invalid(format!("not an {name} record")));
    }
    let found = r.u32()?;
    if found != version {
        return Err(invalid(format!("unsupported {name} version {found}")));
    }
    Ok(r)
}

/// Bounds-checked little-endian cursor over a record body. Reading past
/// the end fails (`UnexpectedEof` for a raw buffer, `InvalidData` inside
/// a record [`open`] verified) before anything is allocated for the read.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
    short: io::ErrorKind,
}

impl<'a> Reader<'a> {
    /// A cursor over unsealed bytes.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader {
            rest: bytes,
            short: io::ErrorKind::UnexpectedEof,
        }
    }

    /// The next `len` bytes.
    pub fn bytes(&mut self, len: usize) -> io::Result<&'a [u8]> {
        if len > self.rest.len() {
            return Err(io::Error::new(
                self.short,
                format!(
                    "record ends early: {len} bytes wanted, {} left",
                    self.rest.len()
                ),
            ));
        }
        let (head, rest) = self.rest.split_at(len);
        self.rest = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        Ok(self.bytes(N)?.try_into().expect("length checked"))
    }

    /// The next `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next `f32`.
    pub fn f32(&mut self) -> io::Result<f32> {
        self.array().map(f32::from_le_bytes)
    }

    /// The next `n` `f32`s.
    pub fn f32s(&mut self, n: usize) -> io::Result<Vec<f32>> {
        let len = n
            .checked_mul(4)
            .ok_or_else(|| invalid(format!("{n} floats overflow the record")))?;
        Ok(self
            .bytes(len)?
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect())
    }

    /// Succeeds only when every byte was consumed; `what` names the last
    /// section, for the error message.
    pub fn end(self, what: &str) -> io::Result<()> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(invalid(format!("trailing bytes after {what}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn typed_fields_are_their_little_endian_bytes() {
        let mut h = Fnv::new();
        h.u64(7).f32(-0.0).str("ab");
        let mut bytes = 7u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&(-0.0f32).to_bits().to_le_bytes());
        bytes.extend_from_slice(b"ab\xff");
        assert_eq!(h.finish(), fnv1a(&bytes));
    }

    #[test]
    fn seal_then_open_round_trips_every_field() {
        let bytes = seal(b"EOSX", 3, |w| {
            w.u32(9)
                .u64(u64::MAX)
                .f32(0.5)
                .f32s(&[1.0, -2.5])
                .bytes(b"xy");
        });
        assert_eq!(bytes.len(), 4 + 4 + 4 + 8 + 4 + 8 + 2 + 8);
        assert!(tail_ok(&bytes));
        assert!(!tail_ok(&bytes[..bytes.len() - 1]));
        let mut r = open(&bytes, b"EOSX", 3).unwrap();
        assert_eq!(r.u32().unwrap(), 9);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f32().unwrap(), 0.5);
        assert_eq!(r.f32s(2).unwrap(), vec![1.0, -2.5]);
        assert_eq!(r.bytes(2).unwrap(), b"xy");
        r.end("the test body").unwrap();
    }

    #[test]
    fn open_names_the_format_on_magic_and_version_errors() {
        let other = seal(b"NOPE", 3, |_| {});
        let err = open(&other, b"EOSX", 3).unwrap_err();
        assert!(err.to_string().contains("not an EOSX"), "{err}");
        let newer = seal(b"EOSX", 4, |_| {});
        let err = open(&newer, b"EOSX", 3).unwrap_err();
        assert!(
            err.to_string().contains("unsupported EOSX version 4"),
            "{err}"
        );
    }

    #[test]
    fn reader_bounds_every_read() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32().unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        assert!(r.f32s(usize::MAX).is_err(), "overflowing count");
        assert_eq!(r.bytes(2).unwrap(), &[1, 2]);
        assert!(r
            .end("two bytes")
            .unwrap_err()
            .to_string()
            .contains("trailing"));
        // Inside a verified record a short read is corruption.
        let empty = seal(b"EOSX", 3, |_| {});
        let mut r = open(&empty, b"EOSX", 3).unwrap();
        assert_eq!(r.u64().unwrap_err().kind(), io::ErrorKind::InvalidData);
    }
}
