//! Hand-rolled binary codec for durable graph state.
//!
//! Persists [`GraphSnapshot`]s as little-endian byte streams with no external dependencies (the same vendored-stub discipline
//! as the rest of the workspace — see `vendor/README.md`): fixed-width
//! integers only, explicit length prefixes, and strict decode-side
//! validation so a truncated, bit-flipped or hostile buffer is rejected
//! with a precise [`CodecError`] instead of producing a plausible-looking
//! wrong graph.
//!
//! The checkpoint container built on top of these primitives (magic,
//! version, checksum) lives in [`crate::checkpoint`].

use gpma_graph::Edge;

use crate::framework::GraphSnapshot;

/// Why a buffer failed to decode. Each variant names the precise defect so
/// corrupt-and-reject tests (and operators reading logs) see *what* broke,
/// mirroring the `audit` validators' error style.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the field being read.
    Truncated {
        /// The field (or structure) being decoded when bytes ran out.
        context: &'static str,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// The container does not start with the expected magic number.
    BadMagic {
        /// The four bytes found where the magic belongs.
        found: u32,
    },
    /// The container claims a format version this build does not speak.
    BadVersion {
        /// The version found in the header.
        found: u16,
    },
    /// A length prefix claims more elements than the remaining bytes could
    /// possibly hold — rejected *before* any allocation is sized from it.
    LengthOverflow {
        /// The counted field.
        context: &'static str,
        /// Elements the prefix claims.
        count: u64,
        /// Bytes actually remaining for them.
        have: usize,
    },
    /// The payload checksum does not match the stored one (bit rot, torn
    /// write, or tampering).
    ChecksumMismatch {
        /// Checksum stored in the buffer.
        stored: u64,
        /// Checksum recomputed over the payload.
        computed: u64,
    },
    /// The buffer parsed but violates a structural invariant (unsorted
    /// keys, an edge outside the vertex count, a non-zero checkpoint delta
    /// count).
    Corrupt(String),
    /// Decoding finished with unconsumed bytes left over.
    TrailingBytes {
        /// Bytes left after the last expected field.
        extra: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated {
                context,
                needed,
                have,
            } => write!(f, "truncated {context}: needed {needed} bytes, have {have}"),
            CodecError::BadMagic { found } => {
                write!(f, "bad magic {found:#010x}, expected a GPMA checkpoint")
            }
            CodecError::BadVersion { found } => write!(f, "unsupported format version {found}"),
            CodecError::LengthOverflow {
                context,
                count,
                have,
            } => write!(
                f,
                "length overflow in {context}: {count} elements claimed, {have} bytes remain"
            ),
            CodecError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CodecError::Corrupt(m) => write!(f, "corrupt payload: {m}"),
            CodecError::TrailingBytes { extra } => {
                write!(f, "{extra} unconsumed bytes after the payload")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Append a `u16` in little-endian order.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32` in little-endian order.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` in little-endian order.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// 64-bit FNV-1a over a byte slice — the checkpoint container's integrity
/// checksum. Not cryptographic; it exists to catch truncation, bit rot and
/// torn writes, the failure modes a local checkpoint store actually has.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A bounds-checked little-endian reader over a borrowed buffer. Every read
/// names the field being decoded so truncation errors say *where* the bytes
/// ran out.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wrap a buffer for reading from its start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                context,
                needed: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self, context: &'static str) -> Result<u16, CodecError> {
        let b = self.take(2, context)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, CodecError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, CodecError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Validate a length prefix against the bytes remaining: `count`
    /// elements of `elem_bytes` each must fit, or the prefix is lying.
    /// Returns the count as a `usize` safe to allocate with.
    pub fn checked_count(
        &self,
        count: u64,
        elem_bytes: usize,
        context: &'static str,
    ) -> Result<usize, CodecError> {
        let fits = count
            .checked_mul(elem_bytes as u64)
            .is_some_and(|total| total <= self.remaining() as u64);
        if !fits {
            return Err(CodecError::LengthOverflow {
                context,
                count,
                have: self.remaining(),
            });
        }
        Ok(count as usize)
    }
}

/// Bytes one encoded edge occupies (src + dst + weight).
pub const EDGE_WIRE_BYTES: usize = 4 + 4 + 8;

fn put_edge(buf: &mut Vec<u8>, e: &Edge) {
    put_u32(buf, e.src);
    put_u32(buf, e.dst);
    put_u64(buf, e.weight);
}

fn read_edge(r: &mut ByteReader<'_>, context: &'static str) -> Result<Edge, CodecError> {
    let src = r.u32(context)?;
    let dst = r.u32(context)?;
    let weight = r.u64(context)?;
    Ok(Edge::weighted(src, dst, weight))
}

/// Encode a snapshot: epoch, vertex count, edge count, then each edge as
/// `(src u32, dst u32, weight u64)` in key order.
pub fn encode_snapshot(snap: &GraphSnapshot, buf: &mut Vec<u8>) {
    put_u64(buf, snap.epoch());
    put_u32(buf, snap.num_vertices());
    put_u64(buf, snap.num_edges() as u64);
    for e in snap.edges() {
        put_edge(buf, e);
    }
}

/// Decode a snapshot encoded by [`encode_snapshot`], validating the length
/// prefix against the remaining bytes, that every edge's source is inside
/// the stored vertex count, and that edges arrive strictly key-sorted (the
/// canonical form [`GraphSnapshot::from_edges`] guarantees, so any
/// deviation is corruption, not a formatting choice).
///
/// The image this builds is sized by the stored vertex count; callers
/// holding unverified bytes check their integrity first (as
/// [`checkpoint::decode`](crate::checkpoint::decode) does).
pub fn decode_snapshot(r: &mut ByteReader<'_>) -> Result<GraphSnapshot, CodecError> {
    let epoch = r.u64("snapshot epoch")?;
    let num_vertices = r.u32("snapshot vertex count")?;
    let count = r.u64("snapshot edge count")?;
    let count = r.checked_count(count, EDGE_WIRE_BYTES, "snapshot edges")?;
    let mut edges = Vec::with_capacity(count);
    let mut prev: Option<u64> = None;
    for _ in 0..count {
        let e = read_edge(r, "snapshot edge")?;
        if e.src >= num_vertices {
            return Err(CodecError::Corrupt(format!(
                "snapshot edge source {} outside its {num_vertices} vertices",
                e.src
            )));
        }
        if prev.is_some_and(|p| p >= e.key()) {
            return Err(CodecError::Corrupt(format!(
                "snapshot edges out of order at key {:#x}",
                e.key()
            )));
        }
        prev = Some(e.key());
        edges.push(e);
    }
    Ok(GraphSnapshot::from_edges(epoch, num_vertices, edges))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_roundtrip() {
        let snap = GraphSnapshot::from_edges(
            7,
            16,
            vec![
                Edge::weighted(0, 1, 3),
                Edge::weighted(2, 5, 9),
                Edge::weighted(15, 0, 1),
            ],
        );
        let mut buf = Vec::new();
        encode_snapshot(&snap, &mut buf);
        let mut r = ByteReader::new(&buf);
        let back = decode_snapshot(&mut r).expect("roundtrip");
        assert!(r.is_empty());
        assert_eq!(back, snap);
    }

    #[test]
    fn truncated_buffers_are_rejected() {
        let snap = GraphSnapshot::from_edges(1, 4, vec![Edge::new(0, 1), Edge::new(1, 2)]);
        let mut buf = Vec::new();
        encode_snapshot(&snap, &mut buf);
        // Cut inside the header: the field read itself runs dry.
        match decode_snapshot(&mut ByteReader::new(&buf[..10])) {
            Err(CodecError::Truncated { context, .. }) => {
                assert_eq!(context, "snapshot vertex count");
            }
            other => panic!("expected truncation rejection, got {other:?}"),
        }
        // Cut inside the edge array: the count prefix no longer fits the
        // bytes that remain, caught before a single edge is read.
        let mut short = buf.clone();
        short.truncate(buf.len() - 3);
        match decode_snapshot(&mut ByteReader::new(&short)) {
            Err(CodecError::LengthOverflow { context, count, .. }) => {
                assert_eq!(context, "snapshot edges");
                assert_eq!(count, 2);
            }
            other => panic!("expected length-overflow rejection, got {other:?}"),
        }
    }

    #[test]
    fn lying_length_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 1); // epoch
        put_u32(&mut buf, 4); // vertices
        put_u64(&mut buf, u64::MAX); // edge count: would overflow any alloc
        match decode_snapshot(&mut ByteReader::new(&buf)) {
            Err(CodecError::LengthOverflow { context, count, .. }) => {
                assert_eq!(context, "snapshot edges");
                assert_eq!(count, u64::MAX);
            }
            other => panic!("expected length-overflow rejection, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_edge_past_the_vertex_count_is_rejected() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 1); // epoch
        put_u32(&mut buf, 4); // vertices
        put_u64(&mut buf, 1); // edge count
        put_edge(&mut buf, &Edge::new(4, 0));
        match decode_snapshot(&mut ByteReader::new(&buf)) {
            Err(CodecError::Corrupt(m)) => assert!(m.contains("outside its 4 vertices"), "{m}"),
            other => panic!("expected corrupt rejection, got {other:?}"),
        }
    }

    #[test]
    fn fnv1a64_is_stable_and_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        let a = fnv1a64(b"gpma checkpoint");
        let mut flipped = b"gpma checkpoint".to_vec();
        flipped[3] ^= 1;
        assert_ne!(a, fnv1a64(&flipped));
    }
}
