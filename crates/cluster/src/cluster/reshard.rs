//! The live reshard, as a phase machine the router loop steps. Ingest keeps
//! flowing through all of it; the swap is the only pause, and it issues no
//! barrier and waits on no ack:
//!
//! 1. **Begin** ([`Router::begin_reshard`]) — grow services for new shard
//!    ids, forward the pending residue and issue one async barrier round.
//!    From here until the swap the router *mirrors*: every client update
//!    whose owner differs under the new plan is also pushed into that
//!    owner's pending sub-batch (with the same pending-window
//!    cancellation), and its key is recorded in the reshard's `moved` map
//!    (key → live at the new owner).
//! 2. **Copy** ([`Phase::Copy`]) — once the round's acks are in, ship from
//!    each source's barrier image every edge whose owner changes, unless
//!    `moved` already holds its key: a mirrored update is newer than any
//!    image. A shard that gave no ack is rebuilt and the round reissued,
//!    as for every round — any image taken after mirroring began is valid
//!    for the keys `moved` does not hold.
//! 3. **Swap** (the same step; the only pause) — forward the pending
//!    sub-batches, swap the plan and enqueue the retractions: `moved`'s
//!    live keys, already key-sorted, grouped by old owner.
//! 4. **Retire** ([`Phase::Retire`]) — the sources apply their retractions
//!    while ingest flows under the new plan. Once they settle, the
//!    snapshot-style epoch marker is a cut round ([`Router::publish_marker`])
//!    that publishes as a rebase point and checkpoints its fold; the
//!    deferred cuts queue behind it.
//!
//! Every step runs on an event: the router steps the reshard in the pass
//! whose barrier answers complete its round, and waits on nothing else.
//!
//! Ordering needs no barrier. Until the swap, every update to a moving key
//! reaches its old owner (client traffic) and its new owner (the mirror),
//! each through a FIFO shard queue in arrival order. The copy carries only
//! keys no mirrored update has touched, so it never overwrites a newer
//! value. The swap changes only where the *next* update goes, and every
//! pre-swap update to the new owner is already queued ahead of it.
//! Recovery rebuilds a shard from the router's record of the graph: the op
//! log holds the mirrored updates, a shard in the copy window also owns the
//! moved keys it mirrors, and the swap keeps its copies in `unsaved`.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::Sender;
use gpma_core::framework::{GraphSnapshot, BYTES_PER_UPDATE};
use gpma_core::multi::{DegreePartition, Partitioner};
use gpma_graph::{Edge, UpdateBatch};
use gpma_obs::{EventKind, Stage, NO_SHARD};
use gpma_sim::pcie::TransferLedger;

use super::{spawn_shard_service, BarrierRound, ReshardError, ReshardReport, Router};
use crate::snapshot::ClusterSnapshot;
use gpma_core::delta::SnapshotDelta;

/// Where a reshard's caller waits for its report.
pub(super) type ReshardAck = Sender<Result<ReshardReport, ReshardError>>;

/// The two background phases. The copy + swap and the marker round start
/// on the transitions, once the phase's barrier round is answered.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Mirroring; the round's images are what the copy reads.
    Copy,
    /// Plan swapped; the round queues behind the retraction batches.
    Retire,
}

/// One in-flight reshard, started at once or after waiting in the
/// deferred queue.
pub(super) struct Reshard {
    /// The target plan.
    new: Arc<dyn Partitioner>,
    /// Shard count before the reshard (sources are `0..old_n`).
    old_n: usize,
    /// Shard count after (destinations are `0..new_n`).
    new_n: usize,
    /// Every moving key the copy shipped or a mirrored update touched →
    /// whether it is live at its new owner.
    moved: BTreeMap<u64, bool>,
    phase: Phase,
    /// The barrier round the phase waits on.
    pub(super) round: BarrierRound,
    /// Policy name routed under before the swap (for the report).
    from_policy: String,
    ack: ReshardAck,
    /// When the reshard began. Everything from here to the report that is
    /// not `pause` is billed as background.
    started: Instant,
    /// Wall of the swap, the only stretch ingest was paused.
    pause: Duration,
    /// Edges whose owner changed (`moved`'s live keys at the swap).
    migrated: usize,
}

impl Reshard {
    /// In the copy window, the target plan and the moved keys, which a
    /// shard also holds where the target plan gives them to it.
    pub(super) fn mirror(&self) -> Option<(&dyn Partitioner, &BTreeMap<u64, bool>)> {
        (self.phase == Phase::Copy).then_some((&*self.new, &self.moved))
    }
}

impl Router {
    /// Reshard onto a degree-aware plan built from the observed per-vertex
    /// update load.
    pub(super) fn begin_rebalance(&mut self, target_shards: Option<usize>, ack: ReshardAck) {
        let shards = target_shards.unwrap_or(self.services.len()).max(1);
        let plan = Arc::new(DegreePartition::from_degrees(&self.observed, shards));
        self.begin_reshard(plan, ack);
    }

    /// Start a reshard onto `new` (or reject it): grow the destination
    /// services, forward the residue, issue the barrier round the copy
    /// reads, and start mirroring. [`Self::step_reshard`] does the rest.
    /// Never called with a cut round in flight: it would barrier against
    /// shards the copy floods with internal traffic.
    pub(super) fn begin_reshard(&mut self, new: Arc<dyn Partitioner>, ack: ReshardAck) {
        let nv = self.part.plan().num_vertices();
        if new.num_vertices() != nv {
            let _ = ack.send(Err(ReshardError::VertexMismatch {
                expected: nv,
                got: new.num_vertices(),
            }));
            return;
        }
        debug_assert!(self.pending_cut.is_none());
        let started = Instant::now();
        let new_n = new.num_shards().max(1);
        let old_n = self.services.len();
        let obs = self.shared.obs.clone();
        obs.event(
            Stage::ReshardQuiesce,
            NO_SHARD,
            0,
            EventKind::ReshardBegin,
            0,
        );
        // Producer sends completing from here to the end of the reshard are
        // additionally sampled into `ingest.reshard` (see ClusterHandle).
        self.shared.reshard_active.store(true, Ordering::Relaxed);
        for i in old_n..new_n {
            let (svc, image) = spawn_shard_service(i, &self.cfg, &self.device_cfg, nv, &[], &obs);
            self.handles.push(svc.handle());
            self.services.push(svc);
            self.pending.push(UpdateBatch::default());
            // Persist the fresh (empty) incarnation immediately so a crash
            // before the marker never restores a stale checkpoint from a
            // retired shard slot of the same id.
            self.persist(i, &image);
        }
        if new_n > old_n {
            // Mirrored updates reach the new shards through `forward`,
            // which charges them to these counters.
            let mut c = self.shared.router.lock();
            c.routed.resize(new_n, 0);
            c.sub_batches.resize(new_n, 0);
            c.transfer.resize(new_n, TransferLedger::default());
        }
        self.reshard = Some(Reshard {
            new,
            old_n,
            new_n,
            moved: BTreeMap::new(),
            phase: Phase::Copy,
            round: BarrierRound::default(),
            from_policy: self.part.plan().name().to_string(),
            ack,
            started,
            pause: Duration::ZERO,
            migrated: 0,
        });
        // The residue goes out under the old plan, and the copy's barriers
        // queue behind it.
        self.forward();
        let round = self.issue_round();
        if let Some(rs) = self.reshard.as_mut() {
            rs.round = round;
        }
    }

    /// The shard edge `e`, owned by `s` under the plan in force, also goes
    /// to while the reshard in flight mirrors: its new owner when that
    /// differs from `s`. Records `live` for its key. `None` outside the
    /// copy window or when the edge stays on `s`.
    // lint: hot-path
    pub(super) fn mirror_owner(&mut self, e: Edge, s: usize, live: bool) -> Option<usize> {
        let rs = self.reshard.as_mut()?;
        if rs.phase != Phase::Copy {
            return None;
        }
        let d = rs.new.shard_of_edge(e.src, e.dst);
        if d == s {
            return None;
        }
        rs.moved.insert(e.key(), live);
        Some(d)
    }

    /// Advance the in-flight reshard (if any) once its barrier round is
    /// answered.
    pub(super) fn step_reshard(&mut self) {
        let Some(rs) = self.reshard.as_ref() else {
            return;
        };
        if !rs.round.done() {
            return;
        }
        if rs.phase == Phase::Copy {
            return self.copy_and_swap();
        }
        if let Some(rs) = self.reshard.take() {
            self.publish_marker(rs);
        }
    }

    /// Copy → swap, once every shard answered the copy round. Leaves the
    /// reshard in [`Phase::Retire`], or finished when nothing had to move.
    /// The reshard stays in [`Router::reshard`] until the swap, so a
    /// recovery before it sees what the shard mirrors.
    fn copy_and_swap(&mut self) {
        let obs = self.shared.obs.clone();
        let Some(rs) = self.reshard.as_mut() else {
            return;
        };
        let snaps = std::mem::take(&mut rs.round).images();
        let migrate_span = obs.span(Stage::ReshardMigrate);
        let mut copies = vec![Vec::new(); rs.new_n];
        for (s, snap) in snaps.iter().enumerate().take(rs.old_n) {
            for e in snap.edges() {
                let d = rs.new.shard_of_edge(e.src, e.dst);
                if d == s {
                    continue;
                }
                if let Entry::Vacant(slot) = rs.moved.entry(e.key()) {
                    slot.insert(true);
                    copies[d].push(*e);
                }
            }
        }
        drop(migrate_span);
        // Nothing routes from here to the end of this step: the movers are
        // final, and the copies, shipped in the swap, still reach their
        // shards ahead of any update routed under the new plan.
        rs.migrated = rs.moved.values().filter(|&&live| live).count();
        let t0 = Instant::now();
        let quiesce_span = obs.span(Stage::ReshardQuiesce);
        self.forward();
        drop(quiesce_span);
        let Some(mut rs) = self.reshard.take() else {
            return;
        };
        let (old_n, new_n) = (rs.old_n, rs.new_n);
        // Fast path: same shard count and nothing moved — no edge of a
        // barrier image and no update since. The new plan only changes
        // where *future* updates route, so swap it, reset the skew window
        // and keep the delta ring intact: no internal traffic entered any
        // shard, so consumers keep composing deltas across the boundary
        // instead of rebasing.
        if rs.moved.is_empty() && new_n == old_n {
            {
                let mut c = self.shared.router.lock();
                c.routed = vec![0; new_n];
                c.sub_batches = vec![0; new_n];
            }
            self.swap_plan(rs.new.clone());
            rs.pause = t0.elapsed();
            let resident: usize = snaps.iter().map(|s| s.num_edges()).sum();
            let cut = self.shared.published_cut.lock().snapshot.cut();
            return self.complete_reshard(rs, resident, cut);
        }

        // Swap, and retract in the background: deleting the movers from
        // their sources is GPMA apply work far too slow to sit inside a
        // pause, so only grouping and sending the retractions are in it.
        // No barrier: every pre-swap update is already queued at its shard
        // ahead of whatever the new plan routes there next. A reader
        // pairing `partitioner()` with `snapshot()` from here to the marker
        // sees the new plan against the pre-reshard cut — the benign
        // direction (snapshots carry their own shard structure); cuts stay
        // deferred until the marker.
        let resume_span = obs.span(Stage::ReshardResume);
        let retract = retractions(&rs, &**self.part.plan());
        // No op log holds the copies, and once the sources' retractions
        // apply nothing can copy them again.
        let shipped = UpdateBatch {
            insertions: copies.concat(),
            deletions: Vec::new(),
        };
        self.unsaved.merge(&SnapshotDelta::from_batch(0, &shipped));
        // Every shard gets its copies ahead of its retractions, so it grows
        // before it shrinks — far cheaper for the PMA than the reverse. A
        // send to a dead shard is dropped: recovery rebuilds it.
        let copied: Vec<usize> = copies.iter().map(Vec::len).collect();
        for (d, insertions) in copies.into_iter().enumerate() {
            if !insertions.is_empty() {
                let _ = self.handles[d].ingest_unmetered(UpdateBatch {
                    insertions,
                    deletions: Vec::new(),
                });
            }
        }
        self.swap_plan(rs.new.clone());
        self.pending.truncate(new_n);
        for (i, deletions) in retract.into_iter().enumerate() {
            if !deletions.is_empty() {
                let _ = self.handles[i].ingest_unmetered(UpdateBatch {
                    insertions: Vec::new(),
                    deletions,
                });
            }
        }
        rs.pause = t0.elapsed();
        {
            let mut c = self.shared.router.lock();
            let old_ledgers = std::mem::take(&mut c.transfer);
            for t in &old_ledgers {
                c.retired_transfer.merge(t);
            }
            c.routed = vec![0; new_n];
            c.sub_batches = vec![0; new_n];
            c.transfer = vec![TransferLedger::default(); new_n];
            for (d, &n) in copied.iter().enumerate() {
                if n > 0 {
                    c.transfer[d].record(&self.link, n * BYTES_PER_UPDATE);
                }
            }
        }
        drop(resume_span);

        // Retiring shards (shrink) drain and drop here: their stores are
        // dead weight, not movers, and skipped the retraction above.
        self.handles.truncate(new_n);
        for svc in self.services.drain(new_n..) {
            let _ = svc.shutdown();
        }
        rs.phase = Phase::Retire;
        rs.round = self.issue_round();
        self.reshard = Some(rs);
    }

    /// Swap the plan in force, for the router and every reader at once.
    fn swap_plan(&mut self, new: Arc<dyn Partitioner>) {
        let mut p = self.shared.partition.lock();
        *p = p.advance(new);
        self.part = p.clone();
    }

    /// Retire → marker: the sources have applied their retractions, so
    /// the marker is a cut round over the fully retired post-migration
    /// state. A shard that dies at its barrier is rebuilt and the marker
    /// reissued, like any cut round.
    fn publish_marker(&mut self, rs: Reshard) {
        self.start_cut_round(Vec::new(), Some(rs));
    }

    /// The marker round published `snap`: clear the shard ids a shrink
    /// retired, and report.
    pub(super) fn marker_published(&mut self, rs: Reshard, snap: &ClusterSnapshot) {
        // A restart probes shard ids densely from 0: a shard id a shrink
        // retired must hold nothing from now on.
        let retired = GraphSnapshot::from_edges(0, snap.num_vertices(), Vec::new());
        for i in rs.new_n..rs.old_n {
            self.persist(i, &retired);
        }
        self.complete_reshard(rs, snap.num_edges(), snap.cut());
    }

    /// Every reshard ends here: bump the migration counters, record and
    /// send the report, let producers out of the `ingest.reshard` window.
    fn complete_reshard(&mut self, rs: Reshard, total_edges: usize, cut: u64) {
        let migrated = rs.migrated;
        let pause_secs = rs.pause.as_secs_f64();
        let background_secs = rs.started.elapsed().saturating_sub(rs.pause).as_secs_f64();
        let migration_bytes = (migrated * BYTES_PER_UPDATE) as u64;
        {
            let mut c = self.shared.router.lock();
            c.reshard_count += 1;
            c.migrated_edges += migrated as u64;
            c.migration_bytes += migration_bytes;
            c.migration_pause_secs += pause_secs;
            c.migration_background_secs += background_secs;
        }
        let report = ReshardReport {
            version: self.part.version(),
            from_policy: rs.from_policy,
            to_policy: rs.new.name().to_string(),
            from_shards: rs.old_n,
            to_shards: rs.new_n,
            migrated_edges: migrated,
            resident_edges: total_edges.saturating_sub(migrated),
            migration_bytes,
            full_rebuild_bytes: (total_edges * BYTES_PER_UPDATE) as u64,
            pause_secs,
            background_secs,
            cut,
        };
        self.shared.reshards.lock().push(report.clone());
        self.shared.reshard_active.store(false, Ordering::Relaxed);
        self.shared.obs.event(
            Stage::ReshardResume,
            NO_SHARD,
            report.version,
            EventKind::ReshardEnd,
            rs.pause.as_micros() as u64,
        );
        let _ = rs.ack.send(Ok(report));
    }
}

/// The movers' retraction from their old owners: `moved`'s live keys, in
/// key order, grouped by their owner under `old_plan`. The copies on the
/// new owners become the only live copies at the swap, keeping the marker
/// cut duplicate-free. Retiring shards (shrink) get none — their stores
/// are dropped whole.
fn retractions(rs: &Reshard, old_plan: &dyn Partitioner) -> Vec<Vec<Edge>> {
    let mut out = vec![Vec::new(); rs.new_n.min(rs.old_n)];
    for (&k, _) in rs.moved.iter().filter(|(_, &live)| live) {
        let (src, dst) = gpma_graph::decode_key(k);
        let from = old_plan.shard_of_edge(src, dst);
        if from < out.len() {
            out[from].push(Edge::new(src, dst));
        }
    }
    out
}
