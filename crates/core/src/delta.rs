//! Epoch delta publication: the O(|Δ|) per-epoch record every reader and
//! every published [`GraphSnapshot`] image is advanced with.
//!
//! Every flush of a [`DynamicGraphSystem`](crate::framework::DynamicGraphSystem)
//! advances the epoch by one and has a well-defined *net effect* on the live
//! edge set: a set of upserted edges (inserted or weight-modified, last write
//! wins) and a set of deleted keys. [`SnapshotDelta`] captures that effect so
//! that a reader holding the epoch-`k` state can reconstruct the epoch-`k+1`
//! state without ever copying the full edge list — the delta consumption model
//! of Meerkat/GraphVine-style incremental analytics (`gpma-incremental`
//! builds its maintainers on exactly this contract).
//!
//! A [`SnapshotDelta`] is *blind*: it says what to write, not what was
//! there. Whoever publishes an epoch classifies it once against the image
//! it is about to advance ([`SnapshotDelta::classify`]); the result, a
//! [`NetDelta`], drops the no-ops and marks each upsert *added* or
//! *reweighted*, so readers never look the pre-state up again.
//!
//! [`DeltaLog`] is the bounded publication ring of those net deltas: the
//! producer pushes one per epoch, readers catch up with
//! [`DeltaLog::deltas_since`], and a reader that lags past the ring's tail
//! falls back to a full snapshot ([`DeltaCatchUp::Snapshot`]) and resumes
//! delta consumption from there. [`OpLog`] folds an arrival-ordered update
//! stream into one blind delta: the cluster router's record of what it
//! forwarded between two cuts.

use std::collections::VecDeque;
use std::sync::Arc;

use gpma_graph::{decode_key, Edge, UpdateBatch};

use crate::framework::GraphSnapshot;
use crate::image::sort_last_write_wins;

/// Bytes a snapshot edge occupies on the modeled wire (key + weight).
pub const BYTES_PER_EDGE: usize = 8 + 8;

/// Bytes a deleted-key record occupies on the modeled wire.
pub const BYTES_PER_DELETED_KEY: usize = 8;

/// The net effect of one epoch (one applied flush) on the live edge set.
///
/// *Replay contract*: applying the delta to the exact epoch-`k-1` edge set —
/// remove every key in [`Self::deleted_keys`], then upsert every edge in
/// [`Self::inserted`] — reproduces the epoch-`k` edge set exactly. The two
/// key sets are disjoint and each is sorted and duplicate-free, so replay is
/// order-independent within a delta. Arrival-order (sequential) semantics
/// are preserved because the delta is computed from the *flushed* batch,
/// after any producer-side cancellation has already shaped it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SnapshotDelta {
    epoch: u64,
    /// Net upserts this epoch, sorted by storage key, one entry per key.
    inserted: Vec<Edge>,
    /// Keys whose edges this epoch removes, sorted, disjoint from `inserted`.
    deleted: Vec<u64>,
}

impl SnapshotDelta {
    /// Compute the net effect of `batch` applied at `epoch`, normalizing the
    /// framework's batch convention: deletions apply before insertions, and
    /// for repeated insertion keys the last write wins. A key both deleted
    /// and (re)inserted in one batch nets to *inserted*.
    pub fn from_batch(epoch: u64, batch: &UpdateBatch) -> Self {
        let mut inserted = batch.insertions.clone();
        sort_last_write_wins(&mut inserted);
        let mut deleted: Vec<u64> = batch
            .deletions
            .iter()
            .map(Edge::key)
            .filter(|k| inserted.binary_search_by_key(k, Edge::key).is_err())
            .collect();
        deleted.sort_unstable();
        deleted.dedup();
        SnapshotDelta {
            epoch,
            inserted,
            deleted,
        }
    }

    /// Build a delta from already-normalized parts (sorted, deduplicated,
    /// disjoint). Used by the cluster when merging shard chains; asserts the
    /// invariants in debug builds.
    pub fn from_parts(epoch: u64, inserted: Vec<Edge>, deleted: Vec<u64>) -> Self {
        debug_assert!(inserted.windows(2).all(|w| w[0].key() < w[1].key()));
        debug_assert!(deleted.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(deleted
            .iter()
            .all(|k| inserted.binary_search_by_key(k, Edge::key).is_err()));
        SnapshotDelta {
            epoch,
            inserted,
            deleted,
        }
    }

    /// Epoch this delta produces (replaying it on epoch `k-1` state yields
    /// epoch `k`).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Net upserted edges, sorted by key, one entry per key.
    pub fn inserted(&self) -> &[Edge] {
        &self.inserted
    }

    /// Keys removed this epoch, sorted, disjoint from the upsert keys.
    pub fn deleted_keys(&self) -> &[u64] {
        &self.deleted
    }

    /// Total changed keys (upserts + deletions).
    pub fn len(&self) -> usize {
        self.inserted.len() + self.deleted.len()
    }

    /// True when the epoch changed nothing (an empty forced flush).
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.deleted.is_empty()
    }

    /// Bytes this delta occupies on the modeled publication wire.
    pub fn wire_bytes(&self) -> usize {
        8 + self.inserted.len() * BYTES_PER_EDGE + self.deleted.len() * BYTES_PER_DELETED_KEY
    }

    /// Fold `later` into `self`, producing the net effect of both epochs in
    /// sequence (`self` first). The merged delta is stamped with `later`'s
    /// epoch. Associative, so a whole chain folds into one delta. This is
    /// the blind composition [`OpLog`] and the cluster's recovery record
    /// need (they replay onto a base taken anywhere in the span); readers
    /// compose published deltas with [`NetDelta::then`].
    pub fn merge(&mut self, later: &SnapshotDelta) {
        self.epoch = later.epoch;
        if later.is_empty() {
            return;
        }
        // Deletions in `later` override earlier upserts of the same key.
        if !later.deleted.is_empty() {
            self.inserted
                .retain(|e| later.deleted.binary_search(&e.key()).is_err());
            let mut deleted = std::mem::take(&mut self.deleted);
            deleted.extend_from_slice(&later.deleted);
            deleted.sort_unstable();
            deleted.dedup();
            self.deleted = deleted;
        }
        // Upserts in `later` override earlier deletions and earlier upserts.
        if !later.inserted.is_empty() {
            self.deleted
                .retain(|k| later.inserted.binary_search_by_key(k, Edge::key).is_err());
            let mut inserted = std::mem::take(&mut self.inserted);
            inserted.retain(|e| {
                later
                    .inserted
                    .binary_search_by_key(&e.key(), Edge::key)
                    .is_err()
            });
            inserted.extend_from_slice(&later.inserted);
            inserted.sort_by_key(Edge::key);
            self.inserted = inserted;
        }
    }

    /// Classify this delta against `pre`, the image it advances: see
    /// [`Self::classify_by`].
    pub fn classify(self, pre: &GraphSnapshot) -> NetDelta {
        self.classify_by(|src, dst| pre.weight(src, dst))
    }

    /// Classify this delta against the pre-state `weight` looks edges up
    /// in: an upsert of an absent edge is *added*, one of a present edge
    /// with another weight *reweighted*, and an identical re-insert or the
    /// deletion of an absent key is dropped. Calls `weight` once per
    /// record, in ascending key order with upserts and deletions
    /// interleaved, so consecutive lookups land in nearby rows. Works in
    /// place on this delta's buffers, so the class bits are the only
    /// allocation.
    pub fn classify_by(mut self, mut weight: impl FnMut(u32, u32) -> Option<u64>) -> NetDelta {
        let mut added = Vec::with_capacity(self.inserted.len().div_ceil(64));
        let (mut i, mut d, mut kept, mut kept_del) = (0, 0, 0, 0);
        while i < self.inserted.len() || d < self.deleted.len() {
            let upsert = self.inserted.get(i).copied();
            match self.deleted.get(d) {
                Some(&k) if upsert.is_none_or(|e| k < e.key()) => {
                    let (src, dst) = decode_key(k);
                    if weight(src, dst).is_some() {
                        self.deleted[kept_del] = k;
                        kept_del += 1;
                    }
                    d += 1;
                }
                _ => {
                    let e = upsert.expect("records left, none of them deletions");
                    let before = weight(e.src, e.dst);
                    if before != Some(e.weight) {
                        push_class(&mut added, kept, before.is_none());
                        self.inserted[kept] = e;
                        kept += 1;
                    }
                    i += 1;
                }
            }
        }
        self.inserted.truncate(kept);
        self.deleted.truncate(kept_del);
        NetDelta { delta: self, added }
    }
}

/// Append upsert `i`'s class bit to `bits`, which hold the first `i`.
fn push_class(bits: &mut Vec<u64>, i: usize, added: bool) {
    if i.is_multiple_of(64) {
        bits.push(0);
    }
    bits[i / 64] |= u64::from(added) << (i % 64);
}

/// One epoch's exact change, as its publisher classified it against the
/// image it advanced ([`SnapshotDelta::classify`]): the blind delta's
/// records minus its no-ops, each upsert marked *added* (absent before) or
/// *reweighted* (present with another weight), each deleted key one the
/// image held. No old weights: the blind delta's bytes plus one bit per
/// upsert. A composed delta ([`Self::then`]) is exact on topology, but an
/// edge removed and re-added at its old weight (or reweighted and back)
/// shows as a reweight, since no old weight says otherwise.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetDelta {
    /// The changing records, in the blind form `advance` replays.
    delta: SnapshotDelta,
    /// One bit per upsert, in order: set when the upsert adds its edge.
    added: Vec<u64>,
}

/// What one [`NetDelta`] does to one key.
#[derive(Debug, Clone, Copy)]
enum Change {
    Added(Edge),
    Reweighted(Edge),
    Removed,
}

impl NetDelta {
    /// Epoch this delta produces.
    pub fn epoch(&self) -> u64 {
        self.delta.epoch
    }

    /// The records as a blind delta: what [`GraphSnapshot::advance`] and
    /// [`apply_delta`] replay, and what [`SnapshotDelta::len`] counts.
    pub fn blind(&self) -> &SnapshotDelta {
        &self.delta
    }

    /// Upserted edges with their class (`true`: added), sorted by key.
    pub fn upserts(&self) -> impl Iterator<Item = (&Edge, bool)> + '_ {
        let added = |i: usize| self.added[i / 64] >> (i % 64) & 1 == 1;
        self.delta.inserted.iter().enumerate().map(move |(i, e)| (e, added(i)))
    }

    /// Edges absent before and present after, with their weights.
    pub fn added(&self) -> impl Iterator<Item = &Edge> + '_ {
        self.upserts().filter(|u| u.1).map(|u| u.0)
    }

    /// Edges present before and after, with their new weights.
    pub fn reweighted(&self) -> impl Iterator<Item = &Edge> + '_ {
        self.upserts().filter(|u| !u.1).map(|u| u.0)
    }

    /// Edges present before and absent after, as `(src, dst)`.
    pub fn removed(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.delta.deleted.iter().map(|&k| decode_key(k))
    }

    /// Number of added edges.
    pub fn num_added(&self) -> usize {
        self.added.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Topology changes (added + removed edges): the |Δ| incremental repair
    /// work scales with.
    pub fn topology_changes(&self) -> usize {
        self.num_added() + self.delta.deleted.len()
    }

    /// Every record as `(key, change)`, in key order.
    fn changes(&self) -> impl Iterator<Item = (u64, Change)> + '_ {
        let class = |(e, added): (&Edge, bool)| match added {
            true => (e.key(), Change::Added(*e)),
            false => (e.key(), Change::Reweighted(*e)),
        };
        let mut upserts = self.upserts().map(class).peekable();
        let mut removed = self.delta.deleted.iter().map(|&k| (k, Change::Removed)).peekable();
        std::iter::from_fn(move || match (upserts.peek(), removed.peek()) {
            (Some(u), Some(r)) if r.0 < u.0 => removed.next(),
            (Some(_), _) => upserts.next(),
            _ => removed.next(),
        })
    }

    /// The net change of applying `self` and then `later`, which must start
    /// where `self` ends; stamped with `later`'s epoch. One merge walk over
    /// the two deltas' sorted records: an edge added and then removed
    /// cancels, one removed and then added is a reweight, and otherwise a
    /// key keeps its first class and its last weight.
    ///
    /// # Panics
    ///
    /// When the two do not chain: `later` adds an edge `self` left present,
    /// or removes or reweights one `self` left absent.
    pub fn then(&self, later: &NetDelta) -> NetDelta {
        self.try_then(later).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Self::then`], with a pair that does not chain as an error naming
    /// the first key that breaks it.
    pub(crate) fn try_then(&self, later: &NetDelta) -> Result<NetDelta, String> {
        use Change::{Added, Removed, Reweighted};
        let mut net = NetDelta::default();
        net.delta.epoch = later.epoch();
        let (mut a, mut b) = (self.changes().peekable(), later.changes().peekable());
        while let Some(key) = a.peek().into_iter().chain(b.peek()).map(|c| c.0).min() {
            let (first, second) = (a.next_if(|c| c.0 == key), b.next_if(|c| c.0 == key));
            let change = match (first.map(|c| c.1), second.map(|c| c.1)) {
                (c, None) | (None, c) => c,
                (Some(Added(_)), Some(Removed)) => None,
                (Some(Added(_)), Some(Reweighted(e))) => Some(Added(e)),
                (Some(Removed), Some(Added(e))) | (Some(Reweighted(_)), Some(Reweighted(e))) => {
                    Some(Reweighted(e))
                }
                (Some(Reweighted(_)), Some(Removed)) => Some(Removed),
                (x, y) => {
                    let (src, dst) = decode_key(key);
                    return Err(format!("({src}, {dst}): {x:?} then {y:?} do not chain"));
                }
            };
            match change {
                Some(Removed) => net.delta.deleted.push(key),
                Some(Added(e) | Reweighted(e)) => {
                    let added = matches!(change, Some(Added(_)));
                    push_class(&mut net.added, net.delta.inserted.len(), added);
                    net.delta.inserted.push(e);
                }
                None => {}
            }
        }
        Ok(net)
    }

    /// Check that this delta is exactly the change from `pre` to `post`:
    /// classifying its records against `pre` gives it back (every class
    /// bit right, no no-op kept), and replaying them on `pre` gives `post`'s
    /// epoch and edges. O(E). Meant for a delta as its publisher classified
    /// it: a composition may call an edge restored to its old weight a
    /// reweight, which this rejects.
    pub fn verify(&self, pre: &GraphSnapshot, post: &GraphSnapshot) -> Result<(), String> {
        let (epoch, from) = (self.epoch(), pre.epoch());
        if self.delta.clone().classify(pre) != *self {
            return Err(format!("epoch {epoch}: not its records' classes against epoch {from}"));
        }
        let replayed = apply_delta(pre, &self.delta);
        if replayed.epoch() != post.epoch() || replayed.edges() != post.edges() {
            return Err(format!("epoch {epoch}: replayed on epoch {from}, not epoch {}", post.epoch()));
        }
        Ok(())
    }
}

/// Replay one delta on an epoch-stamped image, producing the next epoch's
/// image — the reader-side half of the delta contract, and the step every
/// publisher (service worker, recovery replay) advances with.
///
/// A path copy, not a rebuild: only the row blocks the delta touches are
/// rewritten (plus, now and then, the live rest of a slab that is mostly
/// garbage), every other block is shared with `snap`, which stays valid
/// ([`GraphSnapshot::advance`] is the same step and also reports the bytes
/// it copied). Cost O(|Δ| · block + V / block), independent of E.
///
/// Exactness: if `snap` is the true epoch-`k` state and `delta` the epoch
/// `k+1` net effect, the result equals the true epoch-`k+1` image
/// (same edges, same weights, same order).
pub fn apply_delta(snap: &GraphSnapshot, delta: &SnapshotDelta) -> GraphSnapshot {
    snap.advance(delta).0
}

/// Below this many logged operations [`OpLog`] grows instead of compacting.
const OP_LOG_MIN_COMPACT: usize = 4096;

/// One logged update: the edge and whether it deletes.
#[derive(Debug, Clone, Copy)]
struct LoggedOp {
    edge: Edge,
    delete: bool,
}

/// Arrival-ordered edge updates awaiting one fold into a [`SnapshotDelta`]:
/// the cluster router appends every client update it routes, and each cut
/// folds the log into that cut's delta. The last operation on a key wins,
/// so a batch's deletions are appended before its insertions — the
/// [`SnapshotDelta::from_batch`] convention — and a fold equals
/// `from_batch` + [`SnapshotDelta::merge`] over the same batches.
///
/// The buffer is reused across folds. When it is full it first compacts in
/// place to one entry per key, so its size is bounded by the keys touched
/// between two folds, not by the updates; a compaction that leaves it more
/// than half full also doubles it, so one sort pays for at least as many
/// pushes as it kept entries.
#[derive(Debug, Default, Clone)]
pub struct OpLog {
    ops: Vec<LoggedOp>,
    /// The compaction sort's second buffer.
    scratch: Vec<LoggedOp>,
    /// Folded deltas put back by [`Self::restore`], merged in order: older
    /// than everything in `ops`.
    restored: Option<SnapshotDelta>,
}

impl OpLog {
    /// Log an upsert of `e`.
    // lint: hot-path
    pub fn insert(&mut self, e: Edge) {
        self.push(e, false);
    }

    /// Log a deletion of `e`'s key.
    // lint: hot-path
    pub fn delete(&mut self, e: Edge) {
        self.push(e, true);
    }

    // lint: hot-path
    fn push(&mut self, edge: Edge, delete: bool) {
        if self.ops.len() == self.ops.capacity() && self.ops.len() >= OP_LOG_MIN_COMPACT {
            self.compact();
            if self.ops.len() > self.ops.capacity() / 2 {
                self.ops.reserve(self.ops.len());
            }
        }
        self.ops.push(LoggedOp { edge, delete });
    }

    /// Sort by key, arrival order kept within a key, and keep each key's
    /// last operation. The sort is a stable LSD radix sort with one
    /// counting pass per key byte that varies (four for keys of vertices
    /// below 65 536), several times cheaper than a comparison sort on a
    /// cut's ~8 000 operations.
    fn compact(&mut self) {
        if self.ops.is_empty() {
            return;
        }
        let key = |op: &LoggedOp| op.edge.key();
        let (any, all) = self.ops.iter().fold((0, u64::MAX), |(o, a), op| (o | key(op), a & key(op)));
        let mut passes = 0;
        for shift in (0..64).step_by(8).filter(|s| (any ^ all) >> s & 0xff != 0) {
            let mut at = [0usize; 256];
            for op in &self.ops {
                at[(key(op) >> shift & 0xff) as usize] += 1;
            }
            let mut sum = 0;
            for slot in &mut at {
                (*slot, sum) = (sum, sum + *slot);
            }
            self.scratch.clear();
            self.scratch.resize(self.ops.len(), self.ops[0]);
            for op in &self.ops {
                let slot = &mut at[(key(op) >> shift & 0xff) as usize];
                self.scratch[*slot] = *op;
                *slot += 1;
            }
            std::mem::swap(&mut self.ops, &mut self.scratch);
            passes += 1;
        }
        // Keep the log in its own buffer, whose capacity paces compaction.
        if passes % 2 == 1 {
            std::mem::swap(&mut self.ops, &mut self.scratch);
            self.ops.clear();
            self.ops.extend_from_slice(&self.scratch);
        }
        self.ops.dedup_by(|later, kept| {
            let same = later.edge.key() == kept.edge.key();
            if same {
                *kept = *later;
            }
            same
        });
    }

    /// Operations currently logged (after any compaction), not counting a
    /// restored delta.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing was logged or restored since the last fold or
    /// clear.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty() && self.restored.is_none()
    }

    /// Put a folded delta back ahead of everything logged since it was
    /// folded, so the next fold covers its keys too.
    pub fn restore(&mut self, delta: SnapshotDelta) {
        match &mut self.restored {
            Some(earlier) => earlier.merge(&delta),
            None => self.restored = Some(delta),
        }
    }

    /// Fold the log (after any restored delta) into the net delta it stamps
    /// with `epoch`, and empty it.
    pub fn fold(&mut self, epoch: u64) -> SnapshotDelta {
        self.compact();
        let deletes = self.ops.iter().filter(|op| op.delete).count();
        let mut inserted = Vec::with_capacity(self.ops.len() - deletes);
        let mut deleted = Vec::with_capacity(deletes);
        for op in self.ops.drain(..) {
            if op.delete {
                deleted.push(op.edge.key());
            } else {
                inserted.push(op.edge);
            }
        }
        let folded = SnapshotDelta::from_parts(epoch, inserted, deleted);
        match self.restored.take() {
            Some(mut earlier) => {
                earlier.merge(&folded);
                earlier
            }
            None => folded,
        }
    }

    /// What [`Self::fold`] would return (stamped with epoch 0), leaving the
    /// log as it is.
    pub fn peek(&self) -> SnapshotDelta {
        self.clone().fold(0)
    }
}

/// How a delta reader catches up after falling behind: either the missing
/// delta chain, or — when the reader lagged past the publication ring — a
/// full snapshot to rebase on (generic so the cluster can hand back a
/// `ClusterSnapshot`-shaped fallback).
#[derive(Debug, Clone)]
pub enum DeltaCatchUp<S> {
    /// The deltas for every missed epoch, oldest first. Empty when the
    /// reader was already current.
    Deltas(Vec<Arc<NetDelta>>),
    /// The reader lagged past the ring: rebase on this full state, then
    /// resume delta consumption from its epoch.
    Snapshot(S),
}

impl<S> DeltaCatchUp<S> {
    /// The same catch-up with its fallback state converted by `f` (a
    /// cluster cut to its image, say); a delta chain passes through.
    pub fn map<T>(self, f: impl FnOnce(S) -> T) -> DeltaCatchUp<T> {
        match self {
            DeltaCatchUp::Deltas(chain) => DeltaCatchUp::Deltas(chain),
            DeltaCatchUp::Snapshot(s) => DeltaCatchUp::Snapshot(f(s)),
        }
    }
}

/// A bounded ring of published epoch net deltas supporting reader catch-up.
///
/// The producer pushes exactly one delta per epoch; the ring retains the
/// most recent `capacity` of them. [`Self::deltas_since`] answers "give me
/// everything after epoch `k`" when the ring still covers epoch `k+1`, and
/// `None` when the reader must fall back to a full snapshot.
#[derive(Debug, Clone)]
pub struct DeltaLog {
    deltas: VecDeque<Arc<NetDelta>>,
    capacity: usize,
    /// Epoch readers are considered current at while the ring is empty —
    /// 0 at construction, the rebase epoch after a [`Self::reset_to`]
    /// (e.g. a cluster reshard publishing a snapshot-style marker).
    floor: u64,
}

impl DeltaLog {
    /// An empty log retaining at most `capacity` deltas (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        DeltaLog {
            deltas: VecDeque::new(),
            capacity: capacity.max(1),
            floor: 0,
        }
    }

    /// Clear the ring and declare `epoch` the new rebase point: readers at
    /// exactly `epoch` are current (empty chain); everyone earlier must
    /// fall back to a full snapshot. This is the `DeltaCatchUp::Snapshot`
    /// epoch marker a reshard (or any other history discontinuity)
    /// publishes — per-epoch deltas stop composing across the boundary, so
    /// the chain is cut rather than handed out with a hole in it.
    pub fn reset_to(&mut self, epoch: u64) {
        self.deltas.clear();
        self.floor = epoch;
    }

    /// Maximum deltas retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of deltas currently retained.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// True when no delta has been published yet (or the log was reset).
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Epoch of the newest retained delta.
    pub fn head_epoch(&self) -> Option<u64> {
        self.deltas.back().map(|d| d.epoch())
    }

    /// Epoch of the oldest retained delta.
    pub fn oldest_epoch(&self) -> Option<u64> {
        self.deltas.front().map(|d| d.epoch())
    }

    /// Publish the next epoch's delta, evicting the oldest past capacity.
    /// A non-contiguous epoch (producer restart, missed window) resets the
    /// ring first so `deltas_since` never hands out a chain with holes.
    pub fn push(&mut self, delta: Arc<NetDelta>) {
        if let Some(head) = self.head_epoch() {
            if delta.epoch() != head + 1 {
                self.reset_to(delta.epoch().saturating_sub(1));
            }
        }
        if self.deltas.len() == self.capacity {
            self.deltas.pop_front();
        }
        self.deltas.push_back(delta);
    }

    /// All retained deltas, oldest first (audit access).
    #[cfg(feature = "audit")]
    pub(crate) fn retained(&self) -> impl Iterator<Item = &Arc<NetDelta>> {
        self.deltas.iter()
    }

    /// The rebase floor: the epoch readers are considered current at while
    /// the ring is empty — 0 at construction, the marker epoch after a
    /// [`Self::reset_to`].
    pub fn floor(&self) -> u64 {
        self.floor
    }

    /// The chain of deltas for every epoch after `epoch`, oldest first.
    /// `None` when the ring no longer reaches back to epoch `epoch + 1` —
    /// the caller must rebase on a full snapshot.
    pub fn deltas_since(&self, epoch: u64) -> Option<Vec<Arc<NetDelta>>> {
        let head = match self.head_epoch() {
            // Nothing published yet (or the ring was reset): a reader at
            // the rebase floor is current; anyone else must rebase.
            None => return if epoch == self.floor { Some(Vec::new()) } else { None },
            Some(h) => h,
        };
        if epoch >= head {
            return if epoch == head { Some(Vec::new()) } else { None };
        }
        let oldest = self.oldest_epoch().expect("non-empty log");
        if epoch + 1 < oldest {
            return None;
        }
        let skip = (epoch + 1 - oldest) as usize;
        Some(self.deltas.iter().skip(skip).cloned().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(s: u32, d: u32, w: u64) -> Edge {
        Edge::weighted(s, d, w)
    }

    /// Edge `(epoch, 0)` added at `epoch`: a ring entry whose content does
    /// not matter.
    fn net(epoch: u64) -> Arc<NetDelta> {
        let blind = SnapshotDelta::from_parts(epoch, vec![e(epoch as u32 % 8, 0, epoch)], vec![]);
        Arc::new(blind.classify(&GraphSnapshot::from_edges(0, 8, Vec::new())))
    }

    #[test]
    fn catch_up_map_converts_only_the_fallback() {
        let chain = vec![net(4)];
        match DeltaCatchUp::<u32>::Deltas(chain.clone()).map(|s| s * 2) {
            DeltaCatchUp::Deltas(got) => assert!(got.len() == 1 && Arc::ptr_eq(&got[0], &chain[0])),
            DeltaCatchUp::Snapshot(_) => panic!("a chain stays a chain"),
        }
        assert!(matches!(DeltaCatchUp::<u32>::Snapshot(21).map(|s| s * 2), DeltaCatchUp::Snapshot(42)));
    }

    #[test]
    fn from_batch_normalizes_net_effect() {
        let d = SnapshotDelta::from_batch(
            3,
            &UpdateBatch {
                insertions: vec![e(0, 1, 1), e(0, 1, 9), e(2, 3, 4), e(5, 6, 2)],
                deletions: vec![Edge::new(2, 3), Edge::new(7, 8), Edge::new(7, 8)],
            },
        );
        assert_eq!(d.epoch(), 3);
        // (2,3) is deleted *and* re-inserted: nets to inserted.
        assert_eq!(d.inserted(), &[e(0, 1, 9), e(2, 3, 4), e(5, 6, 2)]);
        assert_eq!(d.deleted_keys(), &[Edge::new(7, 8).key()]);
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        assert_eq!(d.wire_bytes(), 8 + 3 * 16 + 8);
    }

    #[test]
    fn apply_delta_replays_exactly() {
        let snap = GraphSnapshot::from_edges(1, 8, vec![e(0, 1, 1), e(2, 3, 2), e(4, 5, 3)]);
        let d = SnapshotDelta::from_batch(
            2,
            &UpdateBatch {
                insertions: vec![e(2, 3, 9), e(6, 7, 1), e(0, 0, 5)],
                deletions: vec![Edge::new(4, 5), Edge::new(9, 9)],
            },
        );
        let next = apply_delta(&snap, &d);
        assert_eq!(next.epoch(), 2);
        assert_eq!(next.num_edges(), 4);
        assert_eq!(next.weight(2, 3), Some(9), "upsert overwrote");
        assert_eq!(next.weight(0, 0), Some(5));
        assert!(next.contains(6, 7));
        assert!(!next.contains(4, 5));
        assert!(next.contains(0, 1), "untouched edge survives");
        // Keys stay sorted and unique after replay.
        let keys: Vec<u64> = next.edges().iter().map(Edge::key).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn merge_folds_chains_like_sequential_replay() {
        let snap = GraphSnapshot::from_edges(0, 8, vec![e(0, 1, 1), e(1, 2, 2)]);
        let d1 = SnapshotDelta::from_batch(
            1,
            &UpdateBatch {
                insertions: vec![e(3, 4, 7)],
                deletions: vec![Edge::new(0, 1)],
            },
        );
        let d2 = SnapshotDelta::from_batch(
            2,
            &UpdateBatch {
                insertions: vec![e(0, 1, 5), e(3, 4, 8)],
                deletions: vec![Edge::new(1, 2)],
            },
        );
        let sequential = apply_delta(&apply_delta(&snap, &d1), &d2);
        let mut folded = d1.clone();
        folded.merge(&d2);
        assert_eq!(folded.epoch(), 2);
        let at_once = apply_delta(&snap, &folded);
        assert_eq!(sequential, at_once);
        // Insert-then-delete across the chain nets to deleted.
        let d3 = SnapshotDelta::from_batch(
            3,
            &UpdateBatch {
                insertions: vec![],
                deletions: vec![Edge::new(3, 4)],
            },
        );
        folded.merge(&d3);
        assert!(folded
            .inserted()
            .binary_search_by_key(&Edge::new(3, 4).key(), Edge::key)
            .is_err());
        assert!(folded.deleted_keys().contains(&Edge::new(3, 4).key()));
    }

    #[test]
    fn delta_log_catch_up_and_lag_fallback() {
        let mut log = DeltaLog::new(3);
        assert_eq!(log.capacity(), 3);
        assert!(log.is_empty());
        assert_eq!(log.deltas_since(0), Some(vec![]), "epoch 0 is current");
        assert!(log.deltas_since(5).is_none());
        for epoch in 1..=5u64 {
            log.push(net(epoch));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.oldest_epoch(), Some(3));
        assert_eq!(log.head_epoch(), Some(5));
        // Reader at epoch 3 catches up with epochs 4 and 5.
        let chain = log.deltas_since(3).expect("covered");
        assert_eq!(
            chain.iter().map(|d| d.epoch()).collect::<Vec<_>>(),
            vec![4, 5]
        );
        assert_eq!(log.deltas_since(5), Some(vec![]));
        // Reader at epoch 1 lagged past the ring: full-snapshot fallback.
        assert!(log.deltas_since(1).is_none());
        assert!(log.deltas_since(2).is_some(), "epoch 3 is the oldest held");
        assert!(log.deltas_since(9).is_none(), "future epochs are unknown");
    }

    #[test]
    fn reset_to_marks_a_snapshot_style_epoch_boundary() {
        let mut log = DeltaLog::new(8);
        log.push(net(1));
        log.push(net(2));
        // A reshard publishes cut 3 as a rebase marker: history is cut.
        log.reset_to(3);
        assert!(log.is_empty());
        // Readers at the marker are current; everyone earlier rebases.
        assert_eq!(log.deltas_since(3), Some(vec![]));
        assert!(log.deltas_since(2).is_none());
        assert!(log.deltas_since(0).is_none());
        // Delta publication resumes seamlessly after the marker.
        log.push(net(4));
        assert_eq!(log.deltas_since(3).expect("covered").len(), 1);
        assert!(log.deltas_since(2).is_none());
    }

    #[test]
    fn delta_log_resets_on_epoch_gap() {
        let mut log = DeltaLog::new(8);
        log.push(net(1));
        log.push(net(2));
        log.push(net(7)); // gap: ring resets to avoid a chain with holes
        assert_eq!(log.oldest_epoch(), Some(7));
        assert!(log.deltas_since(2).is_none());
        assert_eq!(log.deltas_since(6).expect("covered").len(), 1);
    }

    #[test]
    fn reader_exactly_at_the_rebase_floor_stays_current_through_refills() {
        let mut log = DeltaLog::new(8);
        log.push(net(1));
        log.reset_to(10);
        // At the floor: current with an empty chain, before and after the
        // ring refills — the recovery coordinator's "checkpoint is exactly
        // the marker" case must not be forced into a snapshot fallback.
        assert_eq!(log.deltas_since(10), Some(vec![]));
        assert!(
            log.deltas_since(11).is_none(),
            "an epoch above the empty ring's floor is unknown"
        );
        log.push(net(11));
        log.push(net(12));
        let chain = log.deltas_since(10).expect("floor reader still covered");
        assert_eq!(
            chain.iter().map(|d| d.epoch()).collect::<Vec<_>>(),
            vec![11, 12]
        );
        assert_eq!(log.deltas_since(12), Some(vec![]), "head reader is current");
    }

    #[test]
    fn reader_below_the_rebase_floor_always_falls_back() {
        let mut log = DeltaLog::new(8);
        log.push(net(1));
        log.push(net(2));
        log.reset_to(5);
        // Below the floor the chain was discarded, not evicted: no refill
        // can ever make these readers whole again.
        for reader in [0, 1, 2, 3, 4] {
            assert!(log.deltas_since(reader).is_none(), "reader {reader}");
        }
        log.push(net(6));
        log.push(net(7));
        for reader in [0, 4] {
            assert!(
                log.deltas_since(reader).is_none(),
                "reader {reader} after refill"
            );
        }
        assert_eq!(log.deltas_since(5).expect("floor reader").len(), 2);
    }

    #[test]
    fn recovery_outrun_by_a_small_ring_is_forced_onto_the_snapshot_path() {
        // The crash-recovery shape: a checkpoint at the floor (epoch 0) and
        // a ring too small to retain the whole post-checkpoint chain — the
        // coordinator must get `None` (snapshot fallback), never a chain
        // with the evicted prefix silently missing.
        let mut log = DeltaLog::new(2);
        for epoch in 1..=5u64 {
            log.push(net(epoch));
        }
        assert_eq!(log.oldest_epoch(), Some(4));
        assert!(
            log.deltas_since(0).is_none(),
            "checkpoint at the floor was outrun"
        );
        assert!(log.deltas_since(2).is_none(), "mid-chain reader outrun too");
        assert_eq!(log.deltas_since(3).expect("covered").len(), 2);
        // After the fallback, recovery republishes from a fresh marker and
        // the same reader epoch becomes current again.
        log.reset_to(0);
        assert_eq!(log.deltas_since(0), Some(vec![]));
        assert_eq!(log.head_epoch(), None);
    }

    #[test]
    fn floor_tracks_resets() {
        let mut log = DeltaLog::new(4);
        assert_eq!(log.floor(), 0);
        log.reset_to(17);
        assert_eq!(log.floor(), 17);
        assert_eq!(log.deltas_since(17), Some(vec![]));
        assert!(log.deltas_since(16).is_none());
    }

    #[test]
    fn op_log_folds_like_from_batch_and_merge() {
        // Few keys and many batches, so the log compacts mid-stream too.
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let mut log = OpLog::default();
        for round in 1..=3u64 {
            let mut folded = SnapshotDelta::default();
            for _ in 0..400 {
                let mut batch = UpdateBatch::default();
                for _ in 0..next(24) {
                    let (s, d) = (next(12) as u32, next(12) as u32);
                    if next(3) == 0 {
                        batch.deletions.push(Edge::new(s, d));
                    } else {
                        batch.insertions.push(e(s, d, next(5)));
                    }
                }
                for x in &batch.deletions {
                    log.delete(*x);
                }
                for x in &batch.insertions {
                    log.insert(*x);
                }
                folded.merge(&SnapshotDelta::from_batch(round, &batch));
            }
            assert!(log.len() <= OP_LOG_MIN_COMPACT + 144, "log compacts");
            let peeked = log.peek();
            assert_eq!(peeked.inserted(), folded.inserted(), "round {round}");
            assert_eq!(
                peeked.deleted_keys(),
                folded.deleted_keys(),
                "round {round}"
            );
            assert_eq!(log.fold(round), folded, "round {round}");
            assert!(log.is_empty());
        }
    }

    #[test]
    fn op_log_grows_when_compaction_frees_little() {
        // One key short of the compaction threshold, rewritten over and
        // over: a log that compacted without growing would re-sort itself
        // on nearly every push.
        let keys = OP_LOG_MIN_COMPACT as u32 - 1;
        let pushes = 64 * OP_LOG_MIN_COMPACT;
        let mut log = OpLog::default();
        let mut compactions = 0usize;
        for i in 0..pushes {
            let k = i as u32 % keys;
            let before = log.len();
            log.insert(e(k / 64, k % 64, i as u64));
            if log.len() <= before {
                compactions += 1;
            }
        }
        assert!(
            compactions <= 2 * pushes / OP_LOG_MIN_COMPACT,
            "{compactions} compactions"
        );
        let folded = log.fold(1);
        assert_eq!(folded.inserted().len(), keys as usize);
        let last = (pushes - keys as usize..pushes).map(|i| {
            let k = i as u32 % keys;
            e(k / 64, k % 64, i as u64)
        });
        let mut want: Vec<Edge> = last.collect();
        want.sort_by_key(Edge::key);
        assert_eq!(folded.inserted(), &want[..]);
    }

    #[test]
    fn op_log_restore_goes_ahead_of_later_ops() {
        let mut log = OpLog::default();
        log.insert(e(0, 1, 1));
        log.insert(e(0, 2, 1));
        log.delete(Edge::new(0, 3));
        let first = log.fold(1);
        log.delete(Edge::new(0, 1));
        log.insert(e(0, 3, 5));
        log.restore(first.clone());
        assert!(!log.is_empty());
        // A peek sees the restored delta and leaves the log whole.
        let peeked = log.peek();
        assert_eq!(peeked.inserted(), &[e(0, 2, 1), e(0, 3, 5)]);
        assert_eq!(peeked.deleted_keys(), &[Edge::new(0, 1).key()]);
        let mut want = first;
        want.merge(&SnapshotDelta::from_parts(
            2,
            vec![e(0, 3, 5)],
            vec![Edge::new(0, 1).key()],
        ));
        assert_eq!(log.fold(2), want);
        assert_eq!(want.inserted(), &[e(0, 2, 1), e(0, 3, 5)]);
        assert_eq!(want.deleted_keys(), &[Edge::new(0, 1).key()]);
        assert!(log.is_empty());
        log.insert(e(1, 1, 1));
        log.restore(want);
        log.fold(3);
        assert!(log.is_empty());
    }
}
