//! Durable epoch-stamped checkpoints: one [`GraphSnapshot`] wrapped in a
//! self-validating binary container ([`crate::codec`]) and persisted
//! through a [`CheckpointStore`].
//!
//! [`encode`] writes the container and [`decode`] validates it and returns
//! the snapshot it holds: the exact state the producer published at that
//! snapshot's epoch. A checkpoint carries no delta chain. The updates since
//! it live with the producer (the cluster router's op log and unsaved cut
//! deltas), which recovery applies on top of the decoded snapshot.
//!
//! Container layout (all little-endian):
//!
//! ```text
//! magic    u32   "GPCK" (0x4b435047)
//! version  u16   1
//! flags    u16   reserved, must be 0
//! payload        snapshot (codec format), delta count u64 = 0
//! checksum u64   FNV-1a over everything above
//! ```
//!
//! Version 1 reserved a trailing delta chain after the snapshot. Nothing
//! writes one, so the count is always 0, and [`decode`] rejects any other
//! count as [`CodecError::Corrupt`].

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use crate::codec::{
    decode_snapshot, encode_snapshot, fnv1a64, put_u16, put_u32, put_u64, ByteReader, CodecError,
};
use crate::framework::GraphSnapshot;

/// First four container bytes: `GPCK` read as a little-endian `u32`.
pub const CHECKPOINT_MAGIC: u32 = u32::from_le_bytes(*b"GPCK");

/// Container format version this build writes and accepts.
pub const CHECKPOINT_VERSION: u16 = 1;

/// Serialize `snapshot` into the self-validating container format.
pub fn encode(snapshot: &GraphSnapshot) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, CHECKPOINT_MAGIC);
    put_u16(&mut buf, CHECKPOINT_VERSION);
    put_u16(&mut buf, 0); // flags, reserved
    encode_snapshot(snapshot, &mut buf);
    put_u64(&mut buf, 0); // delta count
    let checksum = fnv1a64(&buf);
    put_u64(&mut buf, checksum);
    buf
}

/// Parse and fully validate a container: magic, version, the payload
/// checksum, then per-field bounds, a zero delta count and no trailing
/// garbage. Every defect maps to a precise [`CodecError`]. The checksum
/// goes before the payload because decoding the snapshot builds an image
/// sized by the stored vertex count — only verified bytes may size an
/// allocation.
pub fn decode(bytes: &[u8]) -> Result<GraphSnapshot, CodecError> {
    // Header + checksum are the fixed costs; anything shorter cannot even
    // state what it claims to be.
    if bytes.len() < 8 + 8 {
        return Err(CodecError::Truncated {
            context: "checkpoint container",
            needed: 16,
            have: bytes.len(),
        });
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let mut r = ByteReader::new(body);
    let magic = r.u32("checkpoint magic")?;
    if magic != CHECKPOINT_MAGIC {
        return Err(CodecError::BadMagic { found: magic });
    }
    let version = r.u16("checkpoint version")?;
    if version != CHECKPOINT_VERSION {
        return Err(CodecError::BadVersion { found: version });
    }
    let _flags = r.u16("checkpoint flags")?;
    let stored = u64::from_le_bytes([
        tail[0], tail[1], tail[2], tail[3], tail[4], tail[5], tail[6], tail[7],
    ]);
    let computed = fnv1a64(body);
    if stored != computed {
        return Err(CodecError::ChecksumMismatch { stored, computed });
    }
    let snapshot = decode_snapshot(&mut r)?;
    let count = r.u64("checkpoint delta count")?;
    if count != 0 {
        return Err(CodecError::Corrupt(format!(
            "checkpoint carries {count} trailing deltas; none are written"
        )));
    }
    if !r.is_empty() {
        return Err(CodecError::TrailingBytes {
            extra: r.remaining(),
        });
    }
    Ok(snapshot)
}

/// Where encoded checkpoints go: keyed by shard id, with "latest" meaning
/// most recently saved (save order, *not* epoch order — epochs restart from
/// zero when a shard is respawned, so cross-incarnation epoch comparison
/// would resurrect stale state).
///
/// Implementations must be `Send + Sync`: the cluster router saves from its
/// own thread while tests and benches load from theirs.
pub trait CheckpointStore: Send + Sync {
    /// Persist `bytes` as shard `shard`'s checkpoint at `epoch`.
    fn save(&self, shard: usize, epoch: u64, bytes: &[u8]) -> io::Result<()>;

    /// The most recently saved checkpoint for `shard`, if any.
    fn load_latest(&self, shard: usize) -> io::Result<Option<Vec<u8>>>;
}

/// Opaque, so a config holding a store can derive `Debug`.
impl std::fmt::Debug for dyn CheckpointStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dyn CheckpointStore")
    }
}

/// In-memory [`CheckpointStore`] for tests, fault-injection harnesses and
/// benches: retains the last few checkpoints per shard in save order.
pub struct MemoryCheckpointStore {
    slots: Mutex<ShardSlots>,
    retain: usize,
}

/// Per-shard retained checkpoints: encoded bytes in save order.
type ShardSlots = HashMap<usize, Vec<Vec<u8>>>;

impl MemoryCheckpointStore {
    /// An empty store retaining the default 2 checkpoints per shard.
    pub fn new() -> Self {
        Self::with_retain(2)
    }

    /// An empty store retaining the last `retain` checkpoints per shard
    /// (clamped to ≥ 1).
    pub fn with_retain(retain: usize) -> Self {
        MemoryCheckpointStore {
            slots: Mutex::new(HashMap::new()),
            retain: retain.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ShardSlots> {
        // A poisoned map only means another thread panicked mid-save; the
        // data itself is plain bytes — keep serving rather than cascading.
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Checkpoints currently retained across all shards.
    pub fn len(&self) -> usize {
        self.lock().values().map(Vec::len).sum()
    }

    /// True when nothing has been saved yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for MemoryCheckpointStore {
    fn default() -> Self {
        Self::new()
    }
}

impl CheckpointStore for MemoryCheckpointStore {
    fn save(&self, shard: usize, _epoch: u64, bytes: &[u8]) -> io::Result<()> {
        let mut slots = self.lock();
        let shard_slots = slots.entry(shard).or_default();
        shard_slots.push(bytes.to_vec());
        if shard_slots.len() > self.retain {
            let excess = shard_slots.len() - self.retain;
            shard_slots.drain(..excess);
        }
        Ok(())
    }

    fn load_latest(&self, shard: usize) -> io::Result<Option<Vec<u8>>> {
        Ok(self.lock().get(&shard).and_then(|v| v.last()).cloned())
    }
}

/// Filesystem [`CheckpointStore`]: one file per checkpoint under a root
/// directory, named `shard<i>-seq<n>-epoch<e>.gpck`. The monotone per-shard
/// sequence number — not the epoch — orders "latest", for the same
/// cross-incarnation reason as [`CheckpointStore`] documents.
pub struct DirCheckpointStore {
    root: PathBuf,
}

impl DirCheckpointStore {
    /// Open (creating if needed) a checkpoint directory.
    pub fn open(root: impl AsRef<Path>) -> io::Result<Self> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(DirCheckpointStore { root })
    }

    /// The directory checkpoints are written to.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Parse `shard<i>-seq<n>-epoch<e>.gpck` into `(i, n)`; `None` for
    /// foreign files.
    fn parse_name(name: &str) -> Option<(usize, u64)> {
        let rest = name.strip_prefix("shard")?.strip_suffix(".gpck")?;
        let (shard, rest) = rest.split_once("-seq")?;
        let (seq, epoch) = rest.split_once("-epoch")?;
        epoch.parse::<u64>().ok()?;
        Some((shard.parse().ok()?, seq.parse().ok()?))
    }

    /// The highest sequence number recorded for `shard`, with its file path.
    fn latest_entry(&self, shard: usize) -> io::Result<Option<(u64, PathBuf)>> {
        let mut best: Option<(u64, PathBuf)> = None;
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some((s, seq)) = Self::parse_name(name) else {
                continue;
            };
            if s == shard && best.as_ref().is_none_or(|(b, _)| seq > *b) {
                best = Some((seq, entry.path()));
            }
        }
        Ok(best)
    }
}

impl CheckpointStore for DirCheckpointStore {
    fn save(&self, shard: usize, epoch: u64, bytes: &[u8]) -> io::Result<()> {
        let seq = self.latest_entry(shard)?.map_or(0, |(seq, _)| seq + 1);
        let path = self
            .root
            .join(format!("shard{shard}-seq{seq:08}-epoch{epoch}.gpck"));
        std::fs::write(path, bytes)
    }

    fn load_latest(&self, shard: usize) -> io::Result<Option<Vec<u8>>> {
        match self.latest_entry(shard)? {
            Some((_, path)) => std::fs::read(path).map(Some),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_graph::Edge;

    fn snapshot() -> GraphSnapshot {
        GraphSnapshot::from_edges(3, 8, vec![Edge::weighted(0, 1, 2), Edge::weighted(4, 5, 7)])
    }

    #[test]
    fn container_roundtrip_and_restore() {
        let snap = snapshot();
        let back = decode(&encode(&snap)).expect("roundtrip");
        assert_eq!(back, snap);
        assert_eq!(back.epoch(), 3);
        assert_eq!(back.weight(0, 1), Some(2));
        assert!(back.contains(4, 5));
    }

    #[test]
    fn nonzero_delta_count_is_rejected() {
        // A well-formed, correctly checksummed container whose delta count
        // claims two trailing deltas: the decoder refuses it as corrupt
        // before reading a single delta byte.
        let mut bytes = Vec::new();
        put_u32(&mut bytes, CHECKPOINT_MAGIC);
        put_u16(&mut bytes, CHECKPOINT_VERSION);
        put_u16(&mut bytes, 0);
        encode_snapshot(&snapshot(), &mut bytes);
        put_u64(&mut bytes, 2);
        let checksum = fnv1a64(&bytes);
        put_u64(&mut bytes, checksum);
        match decode(&bytes) {
            Err(CodecError::Corrupt(m)) => assert!(m.contains("2 trailing deltas"), "{m}"),
            other => panic!("expected corrupt rejection, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = encode(&snapshot());
        bytes[0] ^= 0xff;
        match decode(&bytes) {
            Err(CodecError::BadMagic { .. }) => {}
            other => panic!("expected bad-magic rejection, got {other:?}"),
        }
    }

    #[test]
    fn flipped_payload_byte_fails_the_checksum() {
        let mut bytes = encode(&snapshot());
        // Flip the last edge's weight byte: it would still parse; the
        // checksum, verified before the payload is decoded, catches it.
        let idx = bytes.len() - 8 - 8 - 8;
        bytes[idx] ^= 0x40;
        match decode(&bytes) {
            Err(CodecError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum rejection, got {other:?}"),
        }
    }

    #[test]
    fn memory_store_latest_means_save_order() {
        let store = MemoryCheckpointStore::new();
        store.save(0, 10, b"old").unwrap();
        store.save(0, 3, b"new-incarnation").unwrap();
        store.save(1, 7, b"other-shard").unwrap();
        // Epoch 3 saved after epoch 10 wins: save order, not epoch order.
        assert_eq!(store.load_latest(0).unwrap().unwrap(), b"new-incarnation");
        assert_eq!(store.load_latest(1).unwrap().unwrap(), b"other-shard");
        assert_eq!(store.load_latest(9).unwrap(), None);
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn memory_store_retention_drops_oldest() {
        let store = MemoryCheckpointStore::with_retain(2);
        for e in 1..=5u64 {
            store.save(0, e, &[e as u8]).unwrap();
        }
        assert_eq!(store.len(), 2);
        assert_eq!(store.load_latest(0).unwrap().unwrap(), [5]);
    }

    #[test]
    fn dir_store_roundtrips_by_sequence() {
        let root = std::env::temp_dir().join(format!(
            "gpma-ckpt-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let store = DirCheckpointStore::open(&root).unwrap();
        assert_eq!(store.load_latest(0).unwrap(), None);
        store.save(0, 10, b"first").unwrap();
        store.save(0, 2, b"second").unwrap();
        // Sequence order, not epoch order: epoch 2 saved second wins.
        assert_eq!(store.load_latest(0).unwrap().unwrap(), b"second");
        assert_eq!(store.load_latest(1).unwrap(), None);
        assert_eq!(store.root(), root.as_path());
        let _ = std::fs::remove_dir_all(&root);
    }
}
