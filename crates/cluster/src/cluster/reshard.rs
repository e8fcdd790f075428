//! The live copy-on-write reshard, as a phase machine the router loop
//! steps — ingest keeps flowing through everything except the settle:
//!
//! 1. **Frozen-cut copy** ([`Router::begin_reshard`], synchronous) — grow
//!    services for new shard ids, take every source shard's latest
//!    published snapshot (no flush forced) and ship each edge whose owner
//!    changes under the new plan to its destination.
//! 2. **Delta replay rounds** ([`Phase::Replay`], one per router pass) —
//!    each source's in-flight delta chain is split across the new
//!    partition boundary ([`split_delta_moves`]) and the
//!    boundary-crossing updates replay onto their destinations, one batch
//!    per delta so arrival order survives. Rounds repeat, interleaved
//!    with live ingest under the *old* plan, until the chains run dry (or
//!    [`COW_MAX_ROUNDS`]).
//! 3. **Pre-settle** ([`Phase::PreSettle`]) — the staged copy is cheap to
//!    *ship* but the destinations still owe its apply cost, and a naive
//!    final barrier would eat all of it inside the pause. Async barriers
//!    are FIFO behind every staged ship, so the router keeps absorbing
//!    ingest (and keeps the replay cursors warm) while the destinations
//!    chew through the backlog. Each barrier flush itself produces delta
//!    residue the replay then ships, so the barriers are reissued until a
//!    full round lands with nothing shipped and nothing queued. Under
//!    saturating ingest that never converges; [`COW_PRESETTLE_REISSUES`]
//!    hands the (bounded) residue to the settle instead.
//! 4. **Settle + swap** ([`Router::settle_and_swap`], synchronous — the
//!    only pause, bounded by one flush of the trailing residue) — barrier
//!    every shard so the delta chains go static, replay the post-barrier
//!    residue onto the staged images, enqueue the movers' retraction from
//!    their old owners and swap the plan atomically.
//! 5. **Background retire** ([`Phase::Retire`]) — the sources apply their
//!    retraction deletions while ingest already flows under the new plan;
//!    the snapshot-style epoch marker publishes once they settle
//!    ([`Router::publish_marker`]), and the deferred cuts run against it.
//!
//! After the final replay the staged images *are* the mover set: the
//! frozen-cut copy plus the complete delta chains reconstruct each
//! shard's boundary-crossing edges exactly, so no full-state diff runs
//! inside the pause. Whenever that reconstruction breaks — a delta ring
//! outruns a reader, a shard is recovered mid-copy — the dirty flag forces
//! a full frozen-cut resync (staged arrivals that died queued are
//! re-shipped idempotently), so a kill-during-COW recovers exactly.
//! Arrival-order semantics hold across the boundary: client updates route
//! under the old plan until the swap, and the marker cut rebases every
//! delta reader past it.
//!
//! The in-flight [`Reshard`] sits in [`Router::reshard`] except while one
//! of the functions here has taken it out to work on it. `recover_shard`
//! reports respawns to the reshard it finds there, so nothing that can
//! recover a shard (`forward`, `ensure_shards_alive`) runs while it is out.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::Sender;
use gpma_core::delta::{split_delta_moves, DeltaCatchUp};
use gpma_core::framework::{GraphSnapshot, BYTES_PER_UPDATE};
use gpma_core::multi::{DegreePartition, Partitioner};
use gpma_graph::{Edge, UpdateBatch};
use gpma_obs::{EventKind, Stage, NO_SHARD};
use gpma_sim::pcie::TransferLedger;

use super::{spawn_shard_service, BarrierRound, CutEvent, ReshardError, ReshardReport, Router};
use crate::snapshot::ClusterSnapshot;

/// Cap on background replay rounds one reshard may spend chasing a hot
/// ingest stream before it settles anyway — the final barrier makes the
/// delta chains static and the settle replay drains them exactly, so the
/// cap only bounds how long a reshard may defer its plan swap.
const COW_MAX_ROUNDS: u64 = 256;

/// Cap on the post-barrier settle replay. With ingest paused the chains
/// are static and one round normally drains them; extra rounds only run
/// when a ring outrun forces a frozen-cut resync.
const COW_SETTLE_ROUNDS: u64 = 64;

/// Cap on pre-settle barrier reissues. Each reissue flushes the residue
/// the previous round's barrier itself produced; on a quiet stream two or
/// three suffice and the settle then sees empty queues.
const COW_PRESETTLE_REISSUES: u32 = 16;

/// Where a reshard's caller waits for its report (`None` = fired by the
/// [`RebalancePolicy`](super::RebalancePolicy), nobody waits).
pub(super) type ReshardAck = Sender<Result<ReshardReport, ReshardError>>;

/// The staged copy of one reshard: what has been shipped where, and how
/// far each source's delta chain has been replayed.
struct CowState {
    /// The target plan the background rounds stage toward.
    new: Arc<dyn Partitioner>,
    /// Shard count before the reshard (sources are `0..old_n`).
    old_n: usize,
    /// Shard count after (destinations are `0..new_n`).
    new_n: usize,
    /// Per-destination image of every edge shipped there so far, keyed by
    /// edge key — after the settle replay, exactly the mover set.
    staged: Vec<BTreeMap<u64, Edge>>,
    /// Per-source replay cursor: the shard-local epoch through which the
    /// delta chain has been split and shipped.
    handled: Vec<u64>,
    /// Per-destination staged-insert counts (the modeled DMA charges).
    arrived: Vec<usize>,
    /// Edges shipped by frozen-cut copy rounds.
    copied: u64,
    /// Updates shipped by delta-chain replay rounds.
    replayed: u64,
    /// A recovery (or an outrun source ring) invalidated the replay
    /// cursors: the next round must be a full frozen-cut resync instead of
    /// a delta replay.
    sync_dirty: bool,
    /// Shards respawned since the last resync — their staged image must be
    /// rebuilt from their actual settled state (staged arrivals queued but
    /// unflushed at death are not in the replay log).
    recovered: Vec<usize>,
}

/// The background phases, each with exactly the state it polls. The copy
/// and the settle are synchronous and run on the transitions.
enum Phase {
    /// Delta replay rounds under the old plan.
    Replay {
        /// Rounds left before settling regardless ([`COW_MAX_ROUNDS`]).
        rounds_left: u64,
    },
    /// Barriers out behind the staged backlog, replay rounds continuing.
    PreSettle {
        /// The barrier round in flight.
        round: BarrierRound,
        /// Updates the replay shipped since that round was issued.
        shipped: u64,
        /// Rounds left before settling regardless
        /// ([`COW_PRESETTLE_REISSUES`]).
        reissues_left: u32,
    },
    /// Plan swapped; the sources are applying their retractions. Replay
    /// rounds must NOT run here — the sources' delta streams now carry the
    /// retraction deletions, and a replay would ship them to the
    /// destinations as deletes of the live copies.
    Retire {
        /// Barriers behind the retraction batches.
        round: BarrierRound,
    },
}

/// One in-flight reshard: explicit, auto-fired, or deferred — they differ
/// only in who (if anyone) holds the other end of `ack`.
pub(super) struct Reshard {
    cow: CowState,
    phase: Phase,
    /// Policy name routed under before the swap (for the report).
    from_policy: String,
    ack: Option<ReshardAck>,
    /// When the copy began. Everything from here to the report that is not
    /// `pause` is billed as background.
    started: Instant,
    /// Wall of the settle + swap, the only stretch ingest was paused.
    pause: Duration,
    /// Edges whose owner changed (the staged images' total at the swap).
    migrated: usize,
}

impl Reshard {
    /// Past the swap: ingest routes under the new plan.
    fn retiring(&self) -> bool {
        matches!(self.phase, Phase::Retire { .. })
    }

    /// Shard `i` was respawned with this reshard in flight. Its ring
    /// restarts at epoch 0 and any staged arrivals queued (unflushed) at
    /// death died with the worker, so the replay cursor and staged image
    /// for it are both stale: force a full frozen-cut resync. Post-swap the
    /// replay log has already re-ingested every internal ship, and a resync
    /// would mis-read the sources' retraction deltas as moves.
    pub(super) fn shard_recovered(&mut self, i: usize) {
        if !self.retiring() {
            self.cow.sync_dirty = true;
            self.cow.recovered.push(i);
        }
    }
}

impl Router {
    /// Reshard onto a degree-aware plan built from the observed per-vertex
    /// update load.
    pub(super) fn begin_rebalance(
        &mut self,
        target_shards: Option<usize>,
        ack: Option<ReshardAck>,
    ) {
        let shards = target_shards.unwrap_or(self.services.len()).max(1);
        let plan = Arc::new(DegreePartition::from_degrees(&self.observed, shards));
        self.begin_reshard(plan, ack);
    }

    /// Start a reshard onto `new` (or reject it): grow the destination
    /// services, ship the frozen-cut copy, and leave the rest to
    /// [`Self::step_reshard`].
    pub(super) fn begin_reshard(&mut self, new: Arc<dyn Partitioner>, ack: Option<ReshardAck>) {
        let nv = self.part.plan().num_vertices();
        if new.num_vertices() != nv {
            if let Some(ack) = ack {
                let _ = ack.send(Err(ReshardError::VertexMismatch {
                    expected: nv,
                    got: new.num_vertices(),
                }));
            }
            return;
        }
        // A cut round still in flight would barrier against shards the
        // copy below floods with internal traffic: drain it first.
        self.resolve_pending_cut();
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
        let mut cow = CowState {
            new,
            old_n,
            new_n,
            staged: vec![BTreeMap::new(); new_n],
            handled: vec![0; old_n],
            arrived: vec![0; new_n],
            copied: 0,
            replayed: 0,
            sync_dirty: false,
            recovered: Vec::new(),
        };
        {
            let _migrate = obs.span(Stage::ReshardMigrate);
            for i in old_n..new_n {
                let (svc, image) =
                    spawn_shard_service(i, &self.cfg, &self.device_cfg, nv, &[], &obs);
                self.handles.push(svc.handle());
                self.services.push(svc);
                self.replay.push(Vec::new());
                // Persist the fresh (empty) incarnation immediately so a
                // crash during the copy never restores a stale checkpoint
                // from a retired shard slot of the same id.
                self.save_checkpoint(i, &image, 0);
            }
            self.cow_full_sync(&mut cow);
        }
        self.reshard = Some(Reshard {
            cow,
            phase: Phase::Replay {
                rounds_left: COW_MAX_ROUNDS,
            },
            from_policy: self.part.plan().name().to_string(),
            ack,
            started,
            pause: Duration::ZERO,
            migrated: 0,
        });
    }

    /// Advance the in-flight reshard (if any) by one router pass: the
    /// loop has just absorbed and forwarded whatever traffic arrived.
    /// `queue_idle` says nothing more is waiting — with a round that
    /// shipped nothing, the signal that the background work has converged.
    pub(super) fn step_reshard(&mut self, queue_idle: bool) {
        let Some(mut rs) = self.reshard.take() else {
            return;
        };
        let mut phase_done = false;
        match &mut rs.phase {
            Phase::Replay { rounds_left } => {
                let shipped = self.cow_round(&mut rs.cow);
                *rounds_left -= 1;
                if *rounds_left == 0 || (shipped == 0 && queue_idle) {
                    rs.phase = Phase::PreSettle {
                        round: BarrierRound::issue(&self.services),
                        shipped: 0,
                        reissues_left: COW_PRESETTLE_REISSUES,
                    };
                }
            }
            Phase::PreSettle {
                round,
                shipped,
                reissues_left,
            } => {
                *shipped += self.cow_round(&mut rs.cow);
                // A dead worker's ack never comes (the round counts it as
                // answered): the settle's recovery probe deals with it.
                if round.poll(false) {
                    *reissues_left -= 1;
                    if *reissues_left == 0 || (*shipped == 0 && queue_idle) {
                        phase_done = true;
                    } else {
                        *round = BarrierRound::issue(&self.services);
                        *shipped = 0;
                    }
                }
            }
            Phase::Retire { round } => phase_done = round.poll(false),
        }
        self.reshard = Some(rs);
        if phase_done {
            self.end_phase();
        }
    }

    /// Run the synchronous transition out of the current background phase.
    fn end_phase(&mut self) {
        match self.reshard.as_ref().map(Reshard::retiring) {
            Some(true) => self.publish_marker(),
            Some(false) => self.settle_and_swap(),
            None => {}
        }
    }

    /// The shutdown path: run the in-flight reshard (if any) to completion
    /// without the optional background rounds — the settle replays
    /// whatever they would have, inside the pause nobody is left to feel.
    pub(super) fn finish_reshard(&mut self) {
        while self.reshard.is_some() {
            self.end_phase();
        }
    }

    /// One background round: a delta replay, or the full resync a dirty
    /// flag calls for. Returns the updates shipped (a resync counts as
    /// one, so the phase does not converge on it).
    fn cow_round(&mut self, cow: &mut CowState) -> u64 {
        if cow.sync_dirty {
            self.cow_full_sync(cow);
            1
        } else {
            self.cow_replay_round(cow)
        }
    }

    /// Ship the frozen-cut copy: take every source shard's latest published
    /// image (no flush forced), compute the boundary-crossing edge set
    /// under the new plan, and ship the diff against what is
    /// already staged at each destination. This is also the resync path
    /// after a recovery or an outrun source ring; a recovered shard's
    /// staged image is first rebuilt from its *actual* settled state,
    /// because staged arrivals that were still queued at its death are
    /// gone — the diff then re-ships them (idempotent upserts, and
    /// retractions of absent keys are no-ops).
    fn cow_full_sync(&mut self, cow: &mut CowState) {
        let old_plan = self.part.plan().clone();
        for d in std::mem::take(&mut cow.recovered) {
            if d >= cow.new_n {
                // A recovered source with no destination role under the
                // new plan: nothing was ever staged at it.
                continue;
            }
            let snap = self.services[d].snapshot();
            cow.staged[d] = snap
                .edges()
                .iter()
                .filter(|e| old_plan.shard_of_edge(e.src, e.dst) != d)
                .map(|e| (e.key(), *e))
                .collect();
        }
        let mut desired: Vec<BTreeMap<u64, Edge>> = vec![BTreeMap::new(); cow.new_n];
        for s in 0..cow.old_n {
            let snap = self.services[s].snapshot();
            cow.handled[s] = snap.epoch();
            for e in snap.edges() {
                if old_plan.shard_of_edge(e.src, e.dst) != s {
                    // A staged copy parked here by an earlier round — its
                    // source still owns the original.
                    continue;
                }
                let to = cow.new.shard_of_edge(e.src, e.dst);
                if to != s && to < cow.new_n {
                    desired[to].insert(e.key(), *e);
                }
            }
        }
        for (d, want) in desired.iter().enumerate() {
            let mut batch = UpdateBatch::default();
            for k in cow.staged[d].keys() {
                if !want.contains_key(k) {
                    let (src, dst) = gpma_graph::decode_key(*k);
                    batch.deletions.push(Edge::new(src, dst));
                }
            }
            for (k, e) in want {
                if cow.staged[d].get(k) != Some(e) {
                    batch.insertions.push(*e);
                }
            }
            if !batch.is_empty() {
                cow.arrived[d] += batch.insertions.len();
                cow.copied += batch.len() as u64;
                self.ship(d, batch);
            }
        }
        cow.staged = desired;
        cow.sync_dirty = false;
    }

    /// One background replay round: split each source's in-flight delta
    /// chain across the new partition boundary and ship the movers to
    /// their destinations — one batch per delta, because a batch applies
    /// deletions before insertions and folding a chain would reorder an
    /// insert-then-delete of the same key. Returns the updates shipped;
    /// an outrun source ring flags a full resync for the next round
    /// instead.
    fn cow_replay_round(&mut self, cow: &mut CowState) -> u64 {
        let obs = self.shared.obs.clone();
        let _replay = obs.span(Stage::ReshardReplay);
        let mut shipped = 0u64;
        let mut scratch: Vec<UpdateBatch> = vec![UpdateBatch::default(); cow.new_n];
        for s in 0..cow.old_n {
            match self.services[s].deltas_since(cow.handled[s]) {
                DeltaCatchUp::Deltas(chain) => {
                    for dlt in &chain {
                        if split_delta_moves(dlt, s, &*cow.new, &mut scratch) == 0 {
                            continue;
                        }
                        for (d, b) in scratch.iter_mut().enumerate() {
                            if b.is_empty() {
                                continue;
                            }
                            for e in &b.insertions {
                                cow.staged[d].insert(e.key(), *e);
                            }
                            for e in &b.deletions {
                                cow.staged[d].remove(&e.key());
                            }
                            cow.arrived[d] += b.insertions.len();
                            shipped += b.len() as u64;
                            self.ship(d, std::mem::take(b));
                        }
                    }
                    if let Some(last) = chain.last() {
                        cow.handled[s] = last.epoch();
                    }
                }
                DeltaCatchUp::Snapshot(_) => {
                    // The source flushed past its ring since the last
                    // round: the cursor is gone, resync from a fresh
                    // frozen cut.
                    cow.sync_dirty = true;
                }
            }
        }
        cow.replayed += shipped;
        shipped
    }

    /// Send one router-internal batch (staged copy, replay, retraction) to
    /// shard `d`. Internal ships enter the replay log like client batches:
    /// a shard dying with this queued but unapplied replays it from the
    /// log on respawn.
    fn ship(&mut self, d: usize, batch: UpdateBatch) {
        if self.recovery.is_some() {
            self.replay[d].push(batch.clone());
        }
        let _ = self.handles[d].ingest_unmetered(batch);
    }

    /// Swap the plan in force, for the router and every reader at once.
    fn swap_plan(&mut self, new: Arc<dyn Partitioner>) {
        let mut p = self.shared.partition.lock();
        *p = p.advance(new);
        self.part = p.clone();
    }

    /// Settle + swap. Ingest pauses from the barrier to the plan swap — the
    /// window this whole protocol exists to shrink. Leaves the reshard in
    /// [`Phase::Retire`], or finished when nothing had to move.
    fn settle_and_swap(&mut self) {
        let obs = self.shared.obs.clone();
        let quiesce_span = obs.span(Stage::ReshardQuiesce);
        // A shard that died mid-stream must be recovered *before* the final
        // replay reads its delta chain.
        self.forward();
        self.ensure_shards_alive();
        let Some(mut rs) = self.reshard.take() else {
            return;
        };
        let cow = &mut rs.cow;
        if cow.sync_dirty {
            // A recovery landed after the last background round: restore
            // the staged images before the chains go static.
            self.cow_full_sync(cow);
        }
        let t0 = Instant::now();
        // Every shard flushes its trailing updates at once.
        let mut round = BarrierRound::issue(&self.services);
        round.poll(true);
        let (snaps, _) = self.round_snapshots(round);
        // The barrier flushed every source's trailing updates, so the
        // delta chains are now complete and static: replay them dry. A
        // ring outrun inside this window trips the dirty flag and re-syncs
        // from the (now settled) frozen cuts; with no client traffic
        // flowing the loop converges.
        for round in 0..COW_SETTLE_ROUNDS {
            if cow.sync_dirty {
                self.cow_full_sync(cow);
            } else if self.cow_replay_round(cow) == 0 {
                break;
            } else if round + 1 == COW_SETTLE_ROUNDS {
                self.shared.worker_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "gpma-cluster: reshard settle did not run dry in \
                     {COW_SETTLE_ROUNDS} rounds; proceeding with last state"
                );
            }
        }
        drop(quiesce_span);

        rs.migrated = cow.staged.iter().map(|m| m.len()).sum();
        let (old_n, new_n) = (cow.old_n, cow.new_n);
        // Fast path: same shard count, nothing moved AND nothing was ever
        // staged — the new plan only changes where *future* updates route,
        // so swap it, reset the skew window (the rebalance cooldown) and
        // keep the delta ring intact: zero internal traffic entered any
        // shard's delta stream, so consumers keep composing deltas across
        // the boundary instead of rebasing. (Any staged ship disqualifies
        // this path — it already leaked into a destination's stream.) This
        // is what keeps a persistently hot vertex (skew irreducible by any
        // 1D plan) from thrashing every delta consumer once per window.
        if rs.migrated == 0 && new_n == old_n && cow.copied == 0 && cow.replayed == 0 {
            {
                let mut c = self.shared.router.lock();
                c.routed = vec![0; new_n];
                c.sub_batches = vec![0; new_n];
            }
            self.swap_plan(cow.new.clone());
            rs.pause = t0.elapsed();
            let resident: usize = snaps.iter().map(|s| s.edges().len()).sum();
            let cut = self.shared.snapshot.lock().cut();
            return self.complete_reshard(rs, resident, cut);
        }

        // Swap first, retract in the background. The staged copies on the
        // destinations are settled, so the moment the plan swaps every
        // future update routes to them and the movers' old copies are
        // garbage, not state — and deleting ~the whole mover set from the
        // sources is GPMA apply work far too slow to sit inside a pause.
        // Enqueue the retraction batches (send cost only), swap the plan,
        // and the pause ends. A reader pairing `partitioner()` with
        // `snapshot()` from here to the marker sees the new plan against
        // the pre-reshard cut — the benign direction (snapshots carry
        // their own shard structure); cuts stay deferred until the marker.
        let resume_span = obs.span(Stage::ReshardResume);
        let retract = retractions(cow, &**self.part.plan());
        self.swap_plan(cow.new.clone());
        self.pending = vec![UpdateBatch::default(); new_n];
        self.pending_len = 0;
        // Surviving shards keep their replay logs — until the marker's
        // checkpoints land, a death recovers from the pre-reshard
        // checkpoint plus the log, which recorded every internal ship.
        self.replay.truncate(new_n);
        for (i, deletions) in retract.into_iter().enumerate() {
            if !deletions.is_empty() {
                self.ship(
                    i,
                    UpdateBatch {
                        insertions: Vec::new(),
                        deletions,
                    },
                );
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
            for (to, &n) in rs.cow.arrived.iter().enumerate() {
                if n > 0 {
                    c.transfer[to].record(&self.link, n * BYTES_PER_UPDATE);
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
        rs.phase = Phase::Retire {
            round: BarrierRound::issue(&self.services),
        };
        self.reshard = Some(rs);
    }

    /// Retire → done: settle every surviving shard, publish the
    /// snapshot-style marker cut, checkpoint, report.
    fn publish_marker(&mut self) {
        // A worker that died mid-retire is recovered here, from the replay
        // log alone (see [`Reshard::shard_recovered`]).
        self.forward();
        self.ensure_shards_alive();
        let Some(rs) = self.reshard.take() else {
            return;
        };
        let mut round = BarrierRound::issue(&self.services);
        round.poll(true);
        // The round blocked with nothing forwarded after its barriers, so
        // each acked image holds its shard's whole replay log (client
        // batches and internal ships alike).
        let log_lens: Vec<Option<usize>> = round
            .got
            .iter()
            .zip(&self.replay)
            .map(|(got, log)| got.as_ref().map(|_| log.len()))
            .collect();
        let (snaps, _) = self.round_snapshots(round);
        let cut = self.shared.cuts.fetch_add(1, Ordering::Relaxed) + 1;
        let snap = Arc::new(ClusterSnapshot::new(
            cut,
            self.part.plan().num_vertices(),
            snaps,
        ));
        let total_edges = snap.num_edges();
        self.last_cut_epochs = snap.shards().iter().map(|s| s.epoch()).collect();
        *self.shared.snapshot.lock() = snap.clone();
        self.shared.delta_log.lock().reset_to(cut);
        if let Some(tx) = &self.cut_tx {
            let _ = tx.send(CutEvent::Rebase(snap.clone()));
        }
        // The marker barrier settled every surviving shard, so its images
        // are the fully retired post-migration state.
        self.checkpoint_cut(&snap, log_lens);
        // A restart probes shard ids densely from 0: a shard id a shrink
        // retired must hold nothing from now on.
        let retired = GraphSnapshot::from_edges(0, snap.num_vertices(), Vec::new());
        for i in rs.cow.new_n..rs.cow.old_n {
            self.persist(i, &retired);
        }
        self.complete_reshard(rs, total_edges, cut);
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
            to_policy: rs.cow.new.name().to_string(),
            from_shards: rs.cow.old_n,
            to_shards: rs.cow.new_n,
            migrated_edges: migrated,
            resident_edges: total_edges.saturating_sub(migrated),
            migration_bytes,
            full_rebuild_bytes: (total_edges * BYTES_PER_UPDATE) as u64,
            pause_secs,
            background_secs,
            cut,
            auto: rs.ack.is_none(),
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
        if let Some(ack) = rs.ack {
            let _ = ack.send(Ok(report));
        }
    }
}

/// The movers' retraction from their old owners, one key-sorted deletion
/// list per source under `old_plan`: the staged copies on the destinations
/// become the only live copies at the swap, keeping the marker cut
/// duplicate-free. Retiring shards (shrink) get none — their stores are
/// dropped whole. Each destination's staged map contributes a sorted run;
/// the concatenation is not globally sorted and the shard apply path wants
/// key order, hence the sort.
fn retractions(cow: &CowState, old_plan: &dyn Partitioner) -> Vec<Vec<Edge>> {
    let mut keys: Vec<Vec<u64>> = vec![Vec::new(); cow.old_n];
    for k in cow.staged.iter().flat_map(|staged| staged.keys()) {
        let (src, dst) = gpma_graph::decode_key(*k);
        let from = old_plan.shard_of_edge(src, dst);
        if from < cow.new_n {
            keys[from].push(*k);
        }
    }
    keys.into_iter()
        .map(|mut ks| {
            ks.sort_unstable();
            ks.into_iter()
                .map(|k| {
                    let (src, dst) = gpma_graph::decode_key(k);
                    Edge::new(src, dst)
                })
                .collect()
        })
        .collect()
}
