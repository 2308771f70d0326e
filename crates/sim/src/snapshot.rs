//! Binary state-snapshot primitives for deterministic checkpointing.
//!
//! Every stateful component of the platform serializes itself through a
//! [`StateWriter`] and restores through a [`StateReader`]. The encoding is
//! a compact, self-describing tree of length-prefixed *sections*:
//!
//! ```text
//! section := tag[4 bytes ASCII] kind[1 byte] len[u32 LE] payload[len bytes]
//! kind    := 0 (leaf: payload is raw scalars) | 1 (container: payload is
//!            a sequence of child sections)
//! ```
//!
//! Scalars are little-endian; `f64` travels as its IEEE-754 bit pattern
//! ([`f64::to_bits`]) so a save/restore round trip is **bit-exact** — the
//! foundation of the checkpoint guarantee that a restored platform replays
//! byte-identical traces.
//!
//! Reading is total: malformed input yields a typed [`SnapshotError`],
//! never a panic, so corrupt or truncated checkpoint files surface as
//! recoverable errors.
//!
//! # Example
//!
//! ```
//! use ascp_sim::snapshot::{StateReader, StateWriter};
//!
//! let mut w = StateWriter::new();
//! w.leaf("DEMO", |w| {
//!     w.put_u64(7);
//!     w.put_f64(1.5);
//! });
//! let bytes = w.into_bytes();
//!
//! let mut r = StateReader::new(&bytes);
//! let (a, b) = r
//!     .leaf("DEMO", |r| {
//!         let a = r.take_u64()?;
//!         let b = r.take_f64()?;
//!         Ok((a, b))
//!     })
//!     .unwrap();
//! assert_eq!((a, b), (7, 1.5));
//! ```

use std::error::Error;
use std::fmt;

/// Length of a section tag in bytes.
pub const TAG_LEN: usize = 4;

/// Section header overhead: tag + kind byte + u32 length.
pub const SECTION_HEADER_LEN: usize = TAG_LEN + 1 + 4;

/// Typed decoding failure. Every reader method returns one of these on
/// malformed input instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ended before the requested scalar or section payload.
    Truncated {
        /// What was being decoded.
        context: String,
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A section tag did not match the expected component tag — the byte
    /// stream is from a different layout (or corrupted).
    SectionMismatch {
        /// Tag the decoder expected.
        expected: String,
        /// Tag found in the stream.
        found: String,
    },
    /// A section's declared length disagrees with what its decoder
    /// consumed — the payload layout does not match this build.
    LengthMismatch {
        /// Section tag.
        section: String,
        /// Length declared in the header.
        declared: usize,
        /// Bytes the decoder actually consumed.
        consumed: usize,
    },
    /// A value failed validation (bad bool byte, absurd element count,
    /// unknown enum discriminant, …).
    Corrupt {
        /// What was being decoded and why it was rejected.
        context: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated {
                context,
                needed,
                available,
            } => write!(
                f,
                "snapshot truncated decoding {context}: needed {needed} bytes, {available} left"
            ),
            Self::SectionMismatch { expected, found } => {
                write!(f, "expected section {expected:?}, found {found:?}")
            }
            Self::LengthMismatch {
                section,
                declared,
                consumed,
            } => write!(
                f,
                "section {section:?} declares {declared} bytes but decoder consumed {consumed}"
            ),
            Self::Corrupt { context } => write!(f, "corrupt snapshot: {context}"),
        }
    }
}

impl Error for SnapshotError {}

fn tag_string(tag: &[u8]) -> String {
    String::from_utf8_lossy(tag).into_owned()
}

/// Append-only binary encoder for component state.
///
/// See the [module docs](self) for the wire format.
#[derive(Debug, Clone, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The encoded bytes so far.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends a byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
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

    /// Appends a little-endian `i32`.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (bit-exact, NaN-safe).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends an optional `f64` as a presence byte plus the value.
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        self.put_bool(v.is_some());
        self.put_f64(v.unwrap_or(0.0));
    }

    /// Appends an optional `u32` as a presence byte plus the value.
    pub fn put_opt_u32(&mut self, v: Option<u32>) {
        self.put_bool(v.is_some());
        self.put_u32(v.unwrap_or(0));
    }

    /// Appends an optional `u64` as a presence byte plus the value.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        self.put_bool(v.is_some());
        self.put_u64(v.unwrap_or(0));
    }

    /// Appends raw bytes with a `u32` element-count prefix.
    pub fn put_u8_slice(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u16` slice with a `u32` element-count prefix.
    pub fn put_u16_slice(&mut self, v: &[u16]) {
        self.put_u32(v.len() as u32);
        for &x in v {
            self.put_u16(x);
        }
    }

    /// Appends an `i32` slice with a `u32` element-count prefix.
    pub fn put_i32_slice(&mut self, v: &[i32]) {
        self.put_u32(v.len() as u32);
        for &x in v {
            self.put_i32(x);
        }
    }

    /// Appends an `i64` slice with a `u32` element-count prefix.
    pub fn put_i64_slice(&mut self, v: &[i64]) {
        self.put_u32(v.len() as u32);
        for &x in v {
            self.put_i64(x);
        }
    }

    /// Appends an `f64` slice with a `u32` element-count prefix.
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.put_u32(v.len() as u32);
        for &x in v {
            self.put_f64(x);
        }
    }

    /// Writes a **leaf** section: `tag`, kind 0, and the payload produced
    /// by `f` (raw scalars, no child sections).
    ///
    /// # Panics
    ///
    /// Panics if `tag` is not exactly [`TAG_LEN`] ASCII bytes.
    pub fn leaf(&mut self, tag: &str, f: impl FnOnce(&mut Self)) {
        self.section_inner(tag, 0, f);
    }

    /// Writes a **container** section: `tag`, kind 1, whose payload is the
    /// sequence of child sections produced by `f`.
    ///
    /// # Panics
    ///
    /// Panics if `tag` is not exactly [`TAG_LEN`] ASCII bytes.
    pub fn container(&mut self, tag: &str, f: impl FnOnce(&mut Self)) {
        self.section_inner(tag, 1, f);
    }

    fn section_inner(&mut self, tag: &str, kind: u8, f: impl FnOnce(&mut Self)) {
        assert!(
            tag.len() == TAG_LEN && tag.is_ascii(),
            "section tag must be {TAG_LEN} ASCII bytes, got {tag:?}"
        );
        self.buf.extend_from_slice(tag.as_bytes());
        self.buf.push(kind);
        let len_at = self.buf.len();
        self.buf.extend_from_slice(&0u32.to_le_bytes());
        f(self);
        let payload = self.buf.len() - len_at - 4;
        let payload = u32::try_from(payload).expect("section payload exceeds u32");
        self.buf[len_at..len_at + 4].copy_from_slice(&payload.to_le_bytes());
    }
}

/// Cursor-based decoder over a snapshot byte slice.
///
/// Every method is total: out-of-bounds reads and malformed values return
/// [`SnapshotError`] instead of panicking.
#[derive(Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Wraps a byte slice.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when the cursor has consumed the whole buffer.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take_bytes(&mut self, n: usize, context: &str) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated {
                context: context.to_owned(),
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a byte.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if the buffer is exhausted.
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take_bytes(1, "u8")?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if fewer than 2 bytes remain.
    pub fn take_u16(&mut self) -> Result<u16, SnapshotError> {
        let b = self.take_bytes(2, "u16")?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if fewer than 4 bytes remain.
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take_bytes(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if fewer than 8 bytes remain.
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take_bytes(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `i32`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if fewer than 4 bytes remain.
    pub fn take_i32(&mut self) -> Result<i32, SnapshotError> {
        Ok(self.take_u32()? as i32)
    }

    /// Reads a little-endian `i64`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if fewer than 8 bytes remain.
    pub fn take_i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(self.take_u64()? as i64)
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if fewer than 8 bytes remain.
    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a bool byte, rejecting anything but 0 or 1.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] on exhaustion,
    /// [`SnapshotError::Corrupt`] on any byte other than 0/1.
    pub fn take_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt {
                context: format!("bool byte {b:#04x} (must be 0 or 1)"),
            }),
        }
    }

    /// Reads an optional `f64` (presence byte + value).
    ///
    /// # Errors
    ///
    /// Propagates the underlying scalar errors.
    pub fn take_opt_f64(&mut self) -> Result<Option<f64>, SnapshotError> {
        let present = self.take_bool()?;
        let v = self.take_f64()?;
        Ok(present.then_some(v))
    }

    /// Reads an optional `u32` (presence byte + value).
    ///
    /// # Errors
    ///
    /// Propagates the underlying scalar errors.
    pub fn take_opt_u32(&mut self) -> Result<Option<u32>, SnapshotError> {
        let present = self.take_bool()?;
        let v = self.take_u32()?;
        Ok(present.then_some(v))
    }

    /// Reads an optional `u64` (presence byte + value).
    ///
    /// # Errors
    ///
    /// Propagates the underlying scalar errors.
    pub fn take_opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        let present = self.take_bool()?;
        let v = self.take_u64()?;
        Ok(present.then_some(v))
    }

    /// Reads a `u32` element count and bounds it by the payload left:
    /// `count` elements of at least `elem_size` encoded bytes each must
    /// fit in the remaining bytes. Call it before allocating for a count
    /// read from input.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if fewer than 4 bytes remain,
    /// [`SnapshotError::Corrupt`] (naming `context`) if the count cannot
    /// fit.
    pub fn take_count(&mut self, elem_size: usize, context: &str) -> Result<usize, SnapshotError> {
        let n = self.take_u32()? as usize;
        if n.saturating_mul(elem_size) > self.remaining() {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "{context} count {n} exceeds remaining {} bytes",
                    self.remaining()
                ),
            });
        }
        Ok(n)
    }

    /// Reads a length-prefixed byte vector.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] / [`SnapshotError::Corrupt`] on
    /// malformed input.
    pub fn take_u8_vec(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let n = self.take_count(1, "u8 slice")?;
        Ok(self.take_bytes(n, "u8 slice")?.to_vec())
    }

    /// Reads a length-prefixed `u16` vector.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] / [`SnapshotError::Corrupt`] on
    /// malformed input.
    pub fn take_u16_vec(&mut self) -> Result<Vec<u16>, SnapshotError> {
        let n = self.take_count(2, "u16 slice")?;
        (0..n).map(|_| self.take_u16()).collect()
    }

    /// Reads a length-prefixed `i32` vector.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] / [`SnapshotError::Corrupt`] on
    /// malformed input.
    pub fn take_i32_vec(&mut self) -> Result<Vec<i32>, SnapshotError> {
        let n = self.take_count(4, "i32 slice")?;
        (0..n).map(|_| self.take_i32()).collect()
    }

    /// Reads a length-prefixed `i64` vector.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] / [`SnapshotError::Corrupt`] on
    /// malformed input.
    pub fn take_i64_vec(&mut self) -> Result<Vec<i64>, SnapshotError> {
        let n = self.take_count(8, "i64 slice")?;
        (0..n).map(|_| self.take_i64()).collect()
    }

    /// Reads a length-prefixed `f64` vector.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] / [`SnapshotError::Corrupt`] on
    /// malformed input.
    pub fn take_f64_vec(&mut self) -> Result<Vec<f64>, SnapshotError> {
        let n = self.take_count(8, "f64 slice")?;
        (0..n).map(|_| self.take_f64()).collect()
    }

    /// Tag of the next section without consuming it, or `None` at the end
    /// of the buffer.
    #[must_use]
    pub fn peek_tag(&self) -> Option<String> {
        let rest = &self.buf[self.pos..];
        (rest.len() >= TAG_LEN).then(|| tag_string(&rest[..TAG_LEN]))
    }

    /// Decodes a **leaf** section written by [`StateWriter::leaf`].
    ///
    /// Verifies the tag, bounds the payload, runs `f` over it, and checks
    /// the decoder consumed the payload exactly.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::SectionMismatch`] on tag mismatch,
    /// [`SnapshotError::LengthMismatch`] if `f` leaves bytes unread, plus
    /// the underlying truncation/corruption errors.
    pub fn leaf<T>(
        &mut self,
        tag: &str,
        f: impl FnOnce(&mut StateReader<'_>) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        self.section_inner(tag, 0, f)
    }

    /// Decodes a **container** section written by
    /// [`StateWriter::container`].
    ///
    /// # Errors
    ///
    /// Same classes as [`StateReader::leaf`].
    pub fn container<T>(
        &mut self,
        tag: &str,
        f: impl FnOnce(&mut StateReader<'_>) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        self.section_inner(tag, 1, f)
    }

    fn section_inner<T>(
        &mut self,
        tag: &str,
        expected_kind: u8,
        f: impl FnOnce(&mut StateReader<'_>) -> Result<T, SnapshotError>,
    ) -> Result<T, SnapshotError> {
        assert!(
            tag.len() == TAG_LEN && tag.is_ascii(),
            "section tag must be {TAG_LEN} ASCII bytes, got {tag:?}"
        );
        let found = self.take_bytes(TAG_LEN, "section tag")?;
        if found != tag.as_bytes() {
            return Err(SnapshotError::SectionMismatch {
                expected: tag.to_owned(),
                found: tag_string(found),
            });
        }
        let kind = self.take_u8()?;
        if kind != expected_kind {
            return Err(SnapshotError::Corrupt {
                context: format!("section {tag:?} kind byte {kind} (expected {expected_kind})"),
            });
        }
        let len = self.take_u32()? as usize;
        let payload =
            self.take_bytes(len, "section payload")
                .map_err(|_| SnapshotError::Truncated {
                    context: format!("section {tag:?} payload"),
                    needed: len,
                    available: self.buf.len() - self.pos,
                })?;
        let mut sub = StateReader::new(payload);
        let out = f(&mut sub)?;
        if !sub.is_exhausted() {
            return Err(SnapshotError::LengthMismatch {
                section: tag.to_owned(),
                declared: len,
                consumed: len - sub.remaining(),
            });
        }
        Ok(out)
    }
}

/// FNV-1a 64-bit hash, used for checkpoint config digests and warm-start
/// cache keys (stable across platforms and runs, no external deps).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Renders a snapshot byte stream (a sequence of sections) as indented
/// JSON for debugging: container sections recurse, leaf payloads show
/// their length and a hex prefix.
///
/// # Errors
///
/// Returns the underlying [`SnapshotError`] if the stream is malformed.
pub fn dump_sections_json(bytes: &[u8]) -> Result<String, SnapshotError> {
    let mut out = String::from("[");
    dump_level(bytes, 1, &mut out)?;
    out.push_str("\n]");
    Ok(out)
}

fn dump_level(bytes: &[u8], depth: usize, out: &mut String) -> Result<(), SnapshotError> {
    let mut r = StateReader::new(bytes);
    let indent = "  ".repeat(depth);
    let mut first = true;
    while !r.is_exhausted() {
        let tag_bytes = r.take_bytes(TAG_LEN, "section tag")?;
        let tag = tag_string(tag_bytes);
        let kind = r.take_u8()?;
        let len = r.take_u32()? as usize;
        let payload = r.take_bytes(len, "section payload")?;
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(&indent);
        match kind {
            1 => {
                out.push_str(&format!(
                    "{{\"section\": {:?}, \"len\": {len}, \"children\": [",
                    tag
                ));
                dump_level(payload, depth + 1, out)?;
                out.push('\n');
                out.push_str(&indent);
                out.push_str("]}");
            }
            0 => {
                let prefix: String = payload
                    .iter()
                    .take(24)
                    .map(|b| format!("{b:02x}"))
                    .collect();
                let ellipsis = if len > 24 { "…" } else { "" };
                out.push_str(&format!(
                    "{{\"section\": {:?}, \"len\": {len}, \"data\": \"{prefix}{ellipsis}\"}}",
                    tag
                ));
            }
            k => {
                return Err(SnapshotError::Corrupt {
                    context: format!("section {tag:?} kind byte {k}"),
                })
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trip_is_bit_exact() {
        let mut w = StateWriter::new();
        w.put_u8(0xa5);
        w.put_u16(0xbeef);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX);
        w.put_i32(-7);
        w.put_i64(i64::MIN);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_opt_f64(None);
        w.put_opt_f64(Some(2.5));
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 0xa5);
        assert_eq!(r.take_u16().unwrap(), 0xbeef);
        assert_eq!(r.take_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.take_u64().unwrap(), u64::MAX);
        assert_eq!(r.take_i32().unwrap(), -7);
        assert_eq!(r.take_i64().unwrap(), i64::MIN);
        assert_eq!(r.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.take_f64().unwrap().is_nan());
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_opt_f64().unwrap(), None);
        assert_eq!(r.take_opt_f64().unwrap(), Some(2.5));
        assert!(r.is_exhausted());
    }

    #[test]
    fn slices_round_trip() {
        let mut w = StateWriter::new();
        w.put_u8_slice(&[1, 2, 3]);
        w.put_u16_slice(&[10, 20]);
        w.put_i32_slice(&[-1, 0, 1]);
        w.put_i64_slice(&[i64::MAX]);
        w.put_f64_slice(&[1.25, -3.5]);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert_eq!(r.take_u8_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.take_u16_vec().unwrap(), vec![10, 20]);
        assert_eq!(r.take_i32_vec().unwrap(), vec![-1, 0, 1]);
        assert_eq!(r.take_i64_vec().unwrap(), vec![i64::MAX]);
        assert_eq!(r.take_f64_vec().unwrap(), vec![1.25, -3.5]);
    }

    #[test]
    fn nested_sections_round_trip() {
        let mut w = StateWriter::new();
        w.container("PLAT", |w| {
            w.leaf("RNG0", |w| w.put_u64(42));
            w.container("CHN0", |w| {
                w.leaf("PLL0", |w| w.put_f64(15000.0));
            });
        });
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        r.container("PLAT", |r| {
            let s = r.leaf("RNG0", |r| r.take_u64())?;
            assert_eq!(s, 42);
            r.container("CHN0", |r| {
                let f = r.leaf("PLL0", |r| r.take_f64())?;
                assert!((f - 15000.0).abs() < 1e-12);
                Ok(())
            })
        })
        .unwrap();
        assert!(r.is_exhausted());
    }

    #[test]
    fn wrong_tag_is_section_mismatch() {
        let mut w = StateWriter::new();
        w.leaf("AAAA", |w| w.put_u8(1));
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        let err = r.leaf("BBBB", |r| r.take_u8()).unwrap_err();
        assert!(matches!(err, SnapshotError::SectionMismatch { .. }));
    }

    #[test]
    fn truncated_buffer_is_typed_error() {
        let mut w = StateWriter::new();
        w.leaf("AAAA", |w| w.put_u64(7));
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = StateReader::new(&bytes[..cut]);
            let err = r.leaf("AAAA", |r| r.take_u64());
            assert!(err.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn under_consumed_section_is_length_mismatch() {
        let mut w = StateWriter::new();
        w.leaf("AAAA", |w| {
            w.put_u8(1);
            w.put_u8(2);
        });
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        let err = r.leaf("AAAA", |r| r.take_u8()).unwrap_err();
        assert!(matches!(err, SnapshotError::LengthMismatch { .. }));
    }

    #[test]
    fn bad_bool_byte_is_corrupt() {
        let mut r = StateReader::new(&[7]);
        assert!(matches!(
            r.take_bool().unwrap_err(),
            SnapshotError::Corrupt { .. }
        ));
    }

    #[test]
    fn absurd_count_rejected_without_allocation() {
        let mut w = StateWriter::new();
        w.put_u32(u32::MAX); // claims 4 billion elements in a 4-byte buffer
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        assert!(matches!(
            r.take_f64_vec().unwrap_err(),
            SnapshotError::Corrupt { .. }
        ));
    }

    #[test]
    fn json_dump_walks_tree() {
        let mut w = StateWriter::new();
        w.container("PLAT", |w| {
            w.leaf("RNG0", |w| w.put_u64(42));
        });
        let json = dump_sections_json(&w.into_bytes()).unwrap();
        assert!(json.contains("\"PLAT\""));
        assert!(json.contains("\"RNG0\""));
        assert!(json.contains("children"));
    }

    #[test]
    fn fnv_is_stable_and_spreads() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
    }
}
