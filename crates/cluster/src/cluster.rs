//! The cluster runtime: cluster handles, the router thread that fans one
//! ingest stream out across per-shard [`StreamingService`] workers, the
//! coordinated epoch cut, and the shutdown protocol.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use gpma_core::checkpoint::{self, CheckpointStore};
use gpma_core::delta::{DeltaCatchUp, DeltaLog, NetDelta, OpLog, SnapshotDelta};
use gpma_core::framework::{DynamicGraphSystem, GraphSnapshot, BYTES_PER_UPDATE};
use gpma_core::multi::{PartitionEpoch, Partitioner};
use gpma_graph::{Edge, UpdateBatch};
use gpma_obs::{EventKind, Registry as ObsRegistry, Stage, NO_SHARD};
use gpma_service::{BarrierAck, IngestHandle, ServiceConfig, ServiceReport, StreamingService};
use gpma_sim::pcie::{Pcie, TransferLedger};
use gpma_sim::{Device, DeviceConfig, PcieConfig};
use parking_lot::Mutex;

use crate::metrics::ClusterMetrics;
use crate::snapshot::ClusterSnapshot;
use reshard::Reshard;

mod reshard;

/// Cut-level deltas the cluster retains for reader catch-up
/// ([`GraphCluster::deltas_since`]).
const CUT_DELTA_LOG_CAPACITY: usize = 256;

/// Tuning knobs for a [`GraphCluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Capacity of the cluster's bounded router queue. Blocking producers
    /// stall when it fills — backpressure propagates from the shard queues
    /// through the router to every [`ClusterHandle`].
    pub queue_capacity: usize,
    /// Capacity of each shard service's own ingest queue.
    pub shard_queue_capacity: usize,
    /// Flush threshold of each shard's `GraphStreamBuffer` (updates per
    /// device step).
    pub flush_threshold: usize,
    /// Updates the router coalesces before forwarding per-shard sub-batches
    /// (one modeled DMA per non-empty sub-batch). Larger values amortize
    /// the per-transfer latency floor; smaller values cut snapshot
    /// staleness.
    pub router_batch: usize,
    /// Where every coordinated cut checkpoints each shard's barrier image
    /// (`None`, the default, saves nothing). "Latest" means most recently *saved* — epochs restart when a shard
    /// worker is respawned, so save order, not epoch order, identifies the
    /// newest incarnation. Storage only: failover is the same either way.
    /// A shard whose barrier goes unanswered is rebuilt from its latest
    /// decodable checkpoint here (or, with no store or nothing decodable,
    /// its last published image) plus every update since, out of the
    /// router's op log, and the round is reissued, oracle-exact.
    pub checkpoints: Option<Arc<dyn CheckpointStore>>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            queue_capacity: 4096,
            shard_queue_capacity: 1024,
            flush_threshold: 64,
            router_batch: 256,
            checkpoints: None,
        }
    }
}

/// Why a [`GraphCluster::reshard`] request was rejected (the cluster keeps
/// running under its current plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReshardError {
    /// The new plan partitions a different vertex-id space. Vertex ids are
    /// global; a reshard moves edges, it does not renumber them.
    VertexMismatch {
        /// The cluster's vertex-id space.
        expected: u32,
        /// The rejected plan's vertex-id space.
        got: u32,
    },
    /// The cluster router has already shut down.
    Closed,
}

impl std::fmt::Display for ReshardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReshardError::VertexMismatch { expected, got } => write!(
                f,
                "reshard rejected: plan covers {got} vertices, cluster has {expected}"
            ),
            ReshardError::Closed => write!(f, "the graph cluster has shut down"),
        }
    }
}

impl std::error::Error for ReshardError {}

impl From<ClusterClosed> for ReshardError {
    fn from(_: ClusterClosed) -> Self {
        ReshardError::Closed
    }
}

/// What one live reshard did, returned by [`GraphCluster::reshard`] /
/// [`GraphCluster::rebalance`] and kept in
/// [`GraphCluster::reshard_history`].
#[derive(Debug, Clone)]
pub struct ReshardReport {
    /// Partition-epoch version the reshard produced (1 = first reshard).
    pub version: u64,
    /// Policy name routed under before the reshard.
    pub from_policy: String,
    /// Policy name in force after the reshard.
    pub to_policy: String,
    /// Shard count before.
    pub from_shards: usize,
    /// Shard count after.
    pub to_shards: usize,
    /// Edges whose owner changed (extracted and re-ingested).
    pub migrated_edges: usize,
    /// Edges left in place on their current shard.
    pub resident_edges: usize,
    /// Modeled bytes the migration shipped as device-to-device DMAs.
    pub migration_bytes: u64,
    /// Modeled bytes a from-scratch repartition would have shipped
    /// (every live edge re-uploaded).
    pub full_rebuild_bytes: u64,
    /// Wall-clock seconds ingest was actually paused: the swap alone —
    /// forwarding the pending sub-batches, swapping the plan and enqueueing
    /// the retractions. It issues no barrier and waits on no ack, so it
    /// does not grow with the shards' backlog: the router mirrors moving
    /// updates to their new owners from the start of the reshard, and the
    /// copy and the retire run while ingest keeps flowing (see
    /// `background_secs`).
    pub pause_secs: f64,
    /// Wall-clock seconds of the reshard outside the pause — the wait for
    /// the barrier images, the copy, and the waits for the sources to apply
    /// their retractions — with ingest still flowing. Not a stall;
    /// `pause_secs + background_secs` is the reshard's whole wall.
    pub background_secs: f64,
    /// Cut number of the snapshot-style epoch marker the reshard published.
    pub cut: u64,
}

/// Error returned by every handle operation once the cluster router has
/// exited (after [`GraphCluster::shutdown`] or a router panic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterClosed;

impl std::fmt::Display for ClusterClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the graph cluster has shut down")
    }
}

impl std::error::Error for ClusterClosed {}

/// Commands flowing through the bounded router queue.
enum Command {
    /// Updates; a single edge travels as a one-edge batch.
    Batch(UpdateBatch),
    /// Forward all residue, barrier every shard, publish a cut, ack it.
    Cut(Sender<Arc<ClusterSnapshot>>),
    /// Live reshard onto an explicit new plan; ack with the migration
    /// accounting (or why it was rejected).
    Reshard(Arc<dyn Partitioner>, Sender<Result<ReshardReport, ReshardError>>),
    /// Reshard onto a degree-aware plan built from the router's observed
    /// per-vertex load, optionally changing the shard count.
    Rebalance(Option<usize>, Sender<Result<ReshardReport, ReshardError>>),
    /// Reply with each shard service's live metrics.
    Stats(Sender<Vec<gpma_service::ServiceMetrics>>),
    /// Fault injection: kill one shard's worker mid-stream — now, or with
    /// `at_barrier` when it reaches its next barrier; ack whether the kill
    /// landed (or was armed).
    Kill {
        shard: usize,
        at_barrier: bool,
        ack: Sender<bool>,
    },
    /// A shard answered a barrier: its ack is on the router's ack channel.
    /// Carries nothing — it only makes the router run a pass.
    Wake,
    /// Take no new plan changes, run the rounds in flight and a final cut,
    /// stop the shard services, exit.
    Shutdown,
}

/// Router-side accounting, written by the router thread per forwarding step
/// and read whole by [`GraphCluster::metrics`].
#[derive(Debug, Clone, Default)]
pub(crate) struct RouterCounters {
    /// Updates routed to each shard *under the current partition plan*
    /// (reset by every reshard: the skew window).
    pub routed: Vec<u64>,
    /// Non-empty sub-batches forwarded to each shard (one modeled DMA
    /// each) — together with `routed`, the raw routing-skew observables.
    /// Reset with `routed` at every reshard.
    pub sub_batches: Vec<u64>,
    /// Modeled host→shard transfer ledger per shard (current plan).
    pub transfer: Vec<TransferLedger>,
    /// Ledgers of shards retired (or reset) by reshards, merged — keeps
    /// cluster-lifetime transfer totals monotone across plan changes.
    pub retired_transfer: TransferLedger,
    /// Routed insertions whose endpoints have different home shards (the
    /// traffic analytics must pay along partition boundaries).
    pub cut_edges: u64,
    /// Pending insertions cancelled in the router by a later same-key
    /// deletion (arrival-order semantics, before the shard even sees them).
    pub cancelled_inserts: u64,
    /// Live reshards performed.
    pub reshard_count: u64,
    /// Edges migrated between shards across all reshards.
    pub migrated_edges: u64,
    /// Modeled migration bytes shipped as device-to-device DMAs.
    pub migration_bytes: u64,
    /// Total wall-clock seconds ingest was paused by reshards (the swaps).
    pub migration_pause_secs: f64,
    /// Total wall-clock seconds reshards spent outside their swaps while
    /// ingest kept flowing.
    pub migration_background_secs: f64,
    /// Dead shard workers detected and respawned.
    pub recoveries: u64,
    /// Total wall-clock seconds spent recovering.
    pub recovery_secs: f64,
    /// Op-log entries (one per key) re-applied on top of recovered shards'
    /// base images.
    pub recovery_replayed_updates: u64,
    /// Recoveries with a checkpoint store set that found nothing to decode
    /// and rebuilt from the published image.
    pub recovery_snapshot_fallbacks: u64,
    /// Checkpoints persisted to [`ClusterConfig::checkpoints`].
    pub checkpoints_taken: u64,
    /// Encoded bytes those checkpoints wrote.
    pub checkpoint_bytes: u64,
}

/// State shared between producers, the router, and the front object.
struct Shared {
    /// The versioned partition plan in force (the router swaps it whole at
    /// every reshard; readers see plan changes atomically).
    partition: Mutex<PartitionEpoch>,
    /// Every reshard performed, in order (explicit and policy-triggered).
    reshards: Mutex<Vec<ReshardReport>>,
    /// The latest published cut and the cut-delta ring that ends at it.
    published_cut: Mutex<PublishedCut>,
    /// Barrier rounds reissued because some shard left them unanswered.
    delta_fallbacks: AtomicU64,
    /// Errors the router thread recovered from instead of panicking (a
    /// missing barrier ack, a failed checkpoint save or load); surfaced as
    /// [`ClusterMetrics::worker_errors`].
    worker_errors: AtomicU64,
    router: Mutex<RouterCounters>,
    ingested_inserts: AtomicU64,
    ingested_deletes: AtomicU64,
    /// Updates shed by the non-blocking offer path (producer-side).
    dropped_updates: AtomicU64,
    queries: AtomicU64,
    cuts: AtomicU64,
    /// The cluster-wide telemetry hub (DESIGN.md §13): shared with every
    /// shard service via [`StreamingService::spawn_instrumented`] so flush
    /// stages aggregate cluster-wide and survive shard respawns.
    obs: Arc<ObsRegistry>,
    /// True while the router is inside a live reshard. Producer sends that
    /// complete in this window are additionally sampled into the
    /// `ingest.reshard` histogram — ingest latency *under* migration, the
    /// headline number of the `obs` experiment.
    reshard_active: AtomicBool,
    started: Instant,
}

/// The cluster's publication: one lock over the cut and its delta ring, so
/// no reader sees a cut without the delta that produced it.
struct PublishedCut {
    /// Swapped whole, so readers hold the lock for an `Arc` clone.
    snapshot: Arc<ClusterSnapshot>,
    /// Cut-level deltas (epoch = cut number); its head is `snapshot`'s cut.
    deltas: DeltaLog,
}

/// A cloneable producer handle feeding the cluster's bounded router queue.
///
/// Semantics match the single-shard [`IngestHandle`]: updates from one
/// handle apply in arrival order (insert-then-delete nets to *absent*)
/// regardless of which shard each edge routes to, because the router is a
/// single FIFO stage that cancels pending inserts before forwarding a
/// same-key deletion.
#[derive(Clone)]
pub struct ClusterHandle {
    tx: Sender<Command>,
    shared: Arc<Shared>,
}

impl ClusterHandle {
    /// Finish an enqueue sample started at `t0`: always `ingest.enqueue`,
    /// plus `ingest.reshard` while a live reshard holds the router — the
    /// latency-under-migration histogram.
    fn record_enqueue(&self, t0: Instant) {
        let us = t0.elapsed().as_micros() as u64;
        self.shared.obs.record(Stage::IngestEnqueue, us);
        if self.shared.reshard_active.load(Ordering::Relaxed) {
            self.shared.obs.record(Stage::IngestReshard, us);
        }
    }

    /// Stream one edge insertion, blocking while the router queue is full.
    pub fn insert(&self, e: Edge) -> Result<(), ClusterClosed> {
        self.ingest(UpdateBatch::single_insert(e))
    }

    /// Stream one edge deletion, blocking while the router queue is full.
    pub fn delete(&self, e: Edge) -> Result<(), ClusterClosed> {
        self.ingest(UpdateBatch::single_delete(e))
    }

    /// Stream a pre-assembled batch (deletions apply before insertions
    /// within the batch, the framework convention), blocking while the
    /// router queue is full.
    pub fn ingest(&self, batch: UpdateBatch) -> Result<(), ClusterClosed> {
        let (ins, del) = (batch.insertions.len() as u64, batch.deletions.len() as u64);
        let t0 = Instant::now();
        self.tx
            .send(Command::Batch(batch))
            .map_err(|_| ClusterClosed)?;
        self.record_enqueue(t0);
        self.shared.ingested_inserts.fetch_add(ins, Ordering::Relaxed);
        self.shared.ingested_deletes.fetch_add(del, Ordering::Relaxed);
        Ok(())
    }

    /// Non-blocking batch ingest — the load-shedding policy for producers
    /// that must not stall, as [`IngestHandle::offer_batch`]: the whole
    /// batch is accepted or shed as one unit (a batch occupies a single
    /// router-queue slot, so partial shedding is impossible). `Ok(false)`
    /// counts every contained update as dropped. The ingest path a
    /// quota-metered serving front uses.
    pub fn offer_batch(&self, batch: UpdateBatch) -> Result<bool, ClusterClosed> {
        let (ins, del) = (batch.insertions.len() as u64, batch.deletions.len() as u64);
        let t0 = Instant::now();
        match self.tx.try_send(Command::Batch(batch)) {
            Ok(()) => {
                self.record_enqueue(t0);
                self.shared.ingested_inserts.fetch_add(ins, Ordering::Relaxed);
                self.shared.ingested_deletes.fetch_add(del, Ordering::Relaxed);
                Ok(true)
            }
            Err(TrySendError::Full(_)) => {
                self.shared
                    .dropped_updates
                    .fetch_add(ins + del, Ordering::Relaxed);
                Ok(false)
            }
            Err(TrySendError::Disconnected(_)) => Err(ClusterClosed),
        }
    }

    /// Commands currently queued at the router (racy, for pacing).
    pub fn queue_depth(&self) -> usize {
        self.tx.len()
    }
}

/// Final accounting returned by [`GraphCluster::shutdown`].
pub struct ClusterReport {
    /// The final coordinated cut: every accepted update is reflected.
    pub final_snapshot: Arc<ClusterSnapshot>,
    /// Cluster metrics frozen at shutdown (per-shard metrics included).
    pub metrics: ClusterMetrics,
    /// Each shard service's own report (system, final snapshot, metrics),
    /// index-aligned with shard ids.
    pub shard_reports: Vec<ServiceReport>,
}

/// The sharded streaming facade: one ingest stream fanned out across
/// per-shard [`StreamingService`] workers by a [`Partitioner`] policy.
///
/// See the crate docs for the architecture diagram; `examples/
/// sharded_service.rs` is the runnable walkthrough.
pub struct GraphCluster {
    tx: Sender<Command>,
    router: Option<JoinHandle<Vec<ServiceReport>>>,
    shared: Arc<Shared>,
}

impl GraphCluster {
    /// Rebuild a cluster purely from a [`CheckpointStore`] — the
    /// process-restart path: no live workers, no op log, just whatever
    /// the previous process persisted.
    ///
    /// Shard ids are probed densely from 0 until the store has no latest
    /// checkpoint for an id (a cluster always checkpoints shards `0..n`,
    /// so the first gap is the end). Each checkpoint is decoded
    /// ([`checkpoint::decode`]), the shard images are merged, and a *fresh*
    /// cluster is spawned over them — the new `partitioner` and shard count
    /// need not match the old cluster's, so a restart can also re-plan.
    ///
    /// Every cut checkpoints each shard's barrier image, so the restored
    /// graph is exactly the last cut whose saves all succeeded (a shard
    /// recovered since then contributes its post-recovery image instead).
    /// Updates after that cut are gone by definition. Corrupt containers
    /// surface as
    /// [`io::ErrorKind::InvalidData`](std::io::ErrorKind::InvalidData); an
    /// empty store (no shard 0) yields
    /// [`io::ErrorKind::NotFound`](std::io::ErrorKind::NotFound).
    pub fn spawn_from_store(
        cfg: ClusterConfig,
        device_cfg: &DeviceConfig,
        partitioner: Arc<dyn Partitioner>,
        store: &dyn CheckpointStore,
    ) -> std::io::Result<Self> {
        let mut edges: Vec<Edge> = Vec::new();
        let mut shard = 0usize;
        while let Some(bytes) = store.load_latest(shard)? {
            let image = checkpoint::decode(&bytes).map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("shard {shard} checkpoint corrupt: {e}"),
                )
            })?;
            edges.extend(image.edges());
            shard += 1;
        }
        if shard == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "checkpoint store holds no shard 0 checkpoint",
            ));
        }
        // Shard states are disjoint under any 1D plan; under an edge-grid
        // plan an edge lives on exactly one cell. Either way the merge is
        // duplicate-free, and the fresh spawn re-routes it under the new
        // partitioner.
        edges.sort_unstable_by_key(|e| e.key());
        edges.dedup_by_key(|e| e.key());
        Ok(Self::spawn(cfg, device_cfg, partitioner, &edges))
    }

    /// Spawn the cluster: build one simulated device + GPMA+ system per
    /// shard (initial edges routed by the policy), wrap each in a
    /// [`StreamingService`], and start the router thread.
    pub fn spawn(
        cfg: ClusterConfig,
        device_cfg: &DeviceConfig,
        partitioner: Arc<dyn Partitioner>,
        initial_edges: &[Edge],
    ) -> Self {
        let num_shards = partitioner.num_shards();
        assert!(num_shards >= 1);
        let num_vertices = partitioner.num_vertices();
        let mut per_shard: Vec<Vec<Edge>> = vec![Vec::new(); num_shards];
        for e in initial_edges {
            per_shard[partitioner.shard_of_edge(e.src, e.dst)].push(*e);
        }

        let obs = Arc::new(ObsRegistry::new());
        let mut services = Vec::with_capacity(num_shards);
        let mut initial_snaps = Vec::with_capacity(num_shards);
        for (i, edges) in per_shard.iter().enumerate() {
            let (svc, initial) = spawn_shard_service(i, &cfg, device_cfg, num_vertices, edges, &obs);
            initial_snaps.push(initial);
            services.push(svc);
        }

        let initial = Arc::new(ClusterSnapshot::new(0, num_vertices, initial_snaps));
        let shared = Arc::new(Shared {
            partition: Mutex::new(PartitionEpoch::new(partitioner.clone())),
            reshards: Mutex::new(Vec::new()),
            published_cut: Mutex::new(PublishedCut {
                snapshot: initial,
                deltas: DeltaLog::new(CUT_DELTA_LOG_CAPACITY),
            }),
            delta_fallbacks: AtomicU64::new(0),
            worker_errors: AtomicU64::new(0),
            router: Mutex::new(RouterCounters {
                routed: vec![0; num_shards],
                sub_batches: vec![0; num_shards],
                transfer: vec![TransferLedger::default(); num_shards],
                ..Default::default()
            }),
            ingested_inserts: AtomicU64::new(0),
            ingested_deletes: AtomicU64::new(0),
            dropped_updates: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            cuts: AtomicU64::new(0),
            obs,
            reshard_active: AtomicBool::new(false),
            started: Instant::now(),
        });

        let (tx, rx) = bounded(cfg.queue_capacity.max(1));
        let wake = tx.clone();
        let router_shared = shared.clone();
        let router_part = partitioner.clone();
        let router_device_cfg = device_cfg.clone();
        let router = std::thread::Builder::new()
            .name("gpma-cluster-router".into())
            .spawn(move || {
                run_router(
                    rx,
                    wake,
                    services,
                    router_part,
                    router_shared,
                    cfg,
                    router_device_cfg,
                )
            })
            .expect("spawn cluster router thread");

        GraphCluster {
            tx,
            router: Some(router),
            shared,
        }
    }

    /// A new producer handle; clone freely across threads.
    pub fn handle(&self) -> ClusterHandle {
        ClusterHandle {
            tx: self.tx.clone(),
            shared: self.shared.clone(),
        }
    }

    /// The partitioning policy the router currently applies (swapped whole
    /// by [`Self::reshard`] / [`Self::rebalance`]).
    pub fn partitioner(&self) -> Arc<dyn Partitioner> {
        self.shared.partition.lock().plan().clone()
    }

    /// Version of the partition plan in force (0 = the spawn-time plan;
    /// each reshard increments it).
    pub fn partition_version(&self) -> u64 {
        self.shared.partition.lock().version()
    }

    /// Number of shards (and shard services / simulated devices) under the
    /// current plan.
    pub fn num_shards(&self) -> usize {
        self.shared.partition.lock().plan().num_shards()
    }

    /// Every reshard performed so far, in order.
    pub fn reshard_history(&self) -> Vec<ReshardReport> {
        self.shared.reshards.lock().clone()
    }

    /// Live reshard onto an explicit new plan: migrate the minimal
    /// edge-move set between the plans (device-to-device DMAs, charged to
    /// the transfer ledgers) while ingest keeps flowing — the router
    /// mirrors every update to a moving edge onto its new owner and copies
    /// the rest from barrier images — then swap the plan, the only pause,
    /// and publish a snapshot-style epoch marker (readers of
    /// [`Self::deltas_since`] at older cuts rebase on the marker cut). The
    /// shard count may grow or shrink; edges whose owner is unchanged never
    /// move. Arrival-order semantics hold across the boundary: each key's
    /// updates reach its final owner in the order they were accepted, and a
    /// queued insert-then-delete still nets to absent.
    pub fn reshard(&self, new: Arc<dyn Partitioner>) -> Result<ReshardReport, ReshardError> {
        let (ack_tx, ack_rx) = bounded(1);
        self.tx
            .send(Command::Reshard(new, ack_tx))
            .map_err(|_| ReshardError::Closed)?;
        ack_rx.recv().map_err(|_| ReshardError::Closed)?
    }

    /// Reshard onto a [`DegreePartition`](crate::DegreePartition) built
    /// from the per-vertex update load the router has observed.
    /// `target_shards` `None` keeps the current shard count.
    pub fn rebalance(&self, target_shards: Option<usize>) -> Result<ReshardReport, ReshardError> {
        let (ack_tx, ack_rx) = bounded(1);
        self.tx
            .send(Command::Rebalance(target_shards, ack_tx))
            .map_err(|_| ReshardError::Closed)?;
        ack_rx.recv().map_err(|_| ReshardError::Closed)?
    }

    /// The latest published coordinated cut (cut 0 until the first
    /// [`Self::epoch_cut`]). Never blocks beyond an `Arc` swap.
    pub fn snapshot(&self) -> Arc<ClusterSnapshot> {
        self.shared.queries.fetch_add(1, Ordering::Relaxed);
        self.shared.published_cut.lock().snapshot.clone()
    }

    /// Catch a delta reader up from cut number `cut`: the per-cut
    /// [`NetDelta`] chain when the cluster ring still covers it (one delta
    /// per coordinated cut, epoch = cut number, each folded from what the
    /// router forwarded between the two cuts and classified against the
    /// cut before), or the latest full cut
    /// to rebase on when the reader lagged past the last 256 cuts or past
    /// a rebase point (a reshard's marker cut).
    /// The chain and the cut are read under one lock, so a chain always
    /// reaches the latest cut. Never blocks beyond that lock.
    pub fn deltas_since(&self, cut: u64) -> DeltaCatchUp<Arc<ClusterSnapshot>> {
        let published = self.shared.published_cut.lock();
        match published.deltas.deltas_since(cut) {
            Some(chain) => DeltaCatchUp::Deltas(chain),
            None => DeltaCatchUp::Snapshot(published.snapshot.clone()),
        }
    }

    /// Coordinate a globally consistent epoch cut: every update accepted by
    /// any handle *before* this call is reflected in the returned snapshot
    /// (the router forwards its residue, then barriers every shard).
    /// Updates enqueued concurrently by other producers may be included
    /// too; none accepted after the ack are. A shard that dies before
    /// answering its barrier is rebuilt and the round reissued under the
    /// same cut number, so the promise holds through a shard death.
    pub fn epoch_cut(&self) -> Result<Arc<ClusterSnapshot>, ClusterClosed> {
        let (ack_tx, ack_rx) = bounded(1);
        self.tx
            .send(Command::Cut(ack_tx))
            .map_err(|_| ClusterClosed)?;
        ack_rx.recv().map_err(|_| ClusterClosed)
    }

    /// Fault injection: kill `shard`'s worker mid-stream — no drain, no
    /// final flush ([`StreamingService::inject_failure`]). Returns
    /// `Ok(true)` when the kill landed, `Ok(false)` when the shard was out
    /// of range (logged, counted as a worker error) or already dead. Updates
    /// forwarded to the corpse are dropped (the router's op log holds
    /// them); the next barrier round it leaves unanswered rebuilds the
    /// shard and is reissued (see [`ClusterConfig::checkpoints`]).
    /// Test/chaos hook.
    pub fn kill_shard(&self, shard: usize) -> Result<bool, ClusterClosed> {
        self.kill(shard, false)
    }

    /// Fault injection: `shard`'s worker dies when it next reaches a
    /// barrier, without answering it
    /// ([`StreamingService::crash_at_next_barrier`]) — the kill between a
    /// round's barrier and its ack that a FIFO [`Self::kill_shard`] cannot
    /// reach. Returns once the kill is armed: `Ok(true)` when the worker was
    /// alive, `Ok(false)` as for [`Self::kill_shard`]. Test/chaos hook.
    pub fn kill_shard_at_next_barrier(&self, shard: usize) -> Result<bool, ClusterClosed> {
        self.kill(shard, true)
    }

    fn kill(&self, shard: usize, at_barrier: bool) -> Result<bool, ClusterClosed> {
        let (ack_tx, ack_rx) = bounded(1);
        self.tx
            .send(Command::Kill {
                shard,
                at_barrier,
                ack: ack_tx,
            })
            .map_err(|_| ClusterClosed)?;
        ack_rx.recv().map_err(|_| ClusterClosed)
    }

    /// Current cluster metrics; fetching per-shard service metrics round-
    /// trips through the router, so this queues behind in-flight updates.
    pub fn metrics(&self) -> Result<ClusterMetrics, ClusterClosed> {
        let (reply_tx, reply_rx) = bounded(1);
        self.tx
            .send(Command::Stats(reply_tx))
            .map_err(|_| ClusterClosed)?;
        let shards = reply_rx.recv().map_err(|_| ClusterClosed)?;
        Ok(self.assemble_metrics(shards))
    }

    fn assemble_metrics(&self, shards: Vec<gpma_service::ServiceMetrics>) -> ClusterMetrics {
        let router = self.shared.router.lock().clone();
        let (policy, num_shards, partition_version) = {
            let p = self.shared.partition.lock();
            (
                p.plan().name().to_string(),
                p.plan().num_shards(),
                p.version(),
            )
        };
        ClusterMetrics {
            num_shards,
            policy,
            partition_version,
            cuts: self.shared.cuts.load(Ordering::Relaxed),
            latest_cut: self.shared.published_cut.lock().snapshot.cut(),
            queue_depth: self.tx.len(),
            ingested_inserts: self.shared.ingested_inserts.load(Ordering::Relaxed),
            ingested_deletes: self.shared.ingested_deletes.load(Ordering::Relaxed),
            dropped_updates: self.shared.dropped_updates.load(Ordering::Relaxed),
            queries: self.shared.queries.load(Ordering::Relaxed),
            elapsed_secs: self.shared.started.elapsed().as_secs_f64(),
            routed: router.routed,
            sub_batches: router.sub_batches,
            transfer: router.transfer,
            retired_transfer: router.retired_transfer,
            cut_edges: router.cut_edges,
            cancelled_inserts: router.cancelled_inserts,
            delta_fallbacks: self.shared.delta_fallbacks.load(Ordering::Relaxed),
            worker_errors: self.shared.worker_errors.load(Ordering::Relaxed),
            reshard_count: router.reshard_count,
            migrated_edges: router.migrated_edges,
            migration_bytes: router.migration_bytes,
            migration_pause_secs: router.migration_pause_secs,
            migration_background_secs: router.migration_background_secs,
            recoveries: router.recoveries,
            recovery_secs: router.recovery_secs,
            recovery_replayed_updates: router.recovery_replayed_updates,
            recovery_snapshot_fallbacks: router.recovery_snapshot_fallbacks,
            checkpoints_taken: router.checkpoints_taken,
            checkpoint_bytes: router.checkpoint_bytes,
            shards,
        }
    }

    /// The cluster-wide telemetry registry: per-stage latency histograms
    /// (ingest, flush, routing, cut, reshard, recovery) plus the bounded
    /// event timeline. One registry serves the router and every shard
    /// worker, so stage histograms aggregate cluster-wide and survive
    /// shard respawns and reshards.
    pub fn obs(&self) -> &Arc<ObsRegistry> {
        &self.shared.obs
    }

    /// Stop the cluster: drain the router queue, forward all residue, take
    /// a final coordinated cut, shut every shard service down and hand all
    /// reports back. Outstanding [`ClusterHandle`]s get [`ClusterClosed`]
    /// afterwards. Quiesce producer threads first (same contract as
    /// [`StreamingService::shutdown`]).
    pub fn shutdown(mut self) -> ClusterReport {
        let shard_reports = match self.stop_router().expect("cluster router already stopped") {
            Ok(reports) => reports,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        let metrics =
            self.assemble_metrics(shard_reports.iter().map(|r| r.metrics.clone()).collect());
        ClusterReport {
            final_snapshot: self.shared.published_cut.lock().snapshot.clone(),
            metrics,
            shard_reports,
        }
    }

    fn stop_router(&mut self) -> Option<std::thread::Result<Vec<ServiceReport>>> {
        let router = self.router.take()?;
        let _ = self.tx.send(Command::Shutdown);
        Some(router.join())
    }
}

#[cfg(feature = "audit")]
impl GraphCluster {
    /// Coordinate a fresh epoch cut and cross-check it against the
    /// per-shard snapshots it was assembled from: shard count and vertex
    /// space match the active plan, every edge sits on the shard the plan
    /// owns it to, endpoints stay inside the vertex space, the cut's image
    /// holds every shard edge (shards are edge-disjoint), and the cut's
    /// published delta is exactly the change from the cut before it
    /// ([`NetDelta::verify`]). Returns the validated cut. Assumes no reshard
    /// or other cut runs concurrently — a plan swap between the cut and the
    /// check makes ownership fail spuriously.
    pub fn audit_cut(&self) -> Result<Arc<ClusterSnapshot>, gpma_core::AuditError> {
        use gpma_core::AuditError;
        let prev = self.snapshot();
        let snap = self
            .epoch_cut()
            .map_err(|_| AuditError::Cluster("cluster closed mid-audit".into()))?;
        let plan = self.partitioner();
        if snap.num_shards() != plan.num_shards() {
            return Err(AuditError::Cluster(format!(
                "cut {} has {} shard snapshots, plan has {} shards",
                snap.cut(),
                snap.num_shards(),
                plan.num_shards()
            )));
        }
        let nv = plan.num_vertices();
        if snap.num_vertices() != nv {
            return Err(AuditError::Cluster(format!(
                "cut {} spans {} vertices, plan spans {nv}",
                snap.cut(),
                snap.num_vertices()
            )));
        }
        for (i, shard) in snap.shards().iter().enumerate() {
            for e in shard.edges() {
                if e.src >= nv || e.dst >= nv {
                    return Err(AuditError::Cluster(format!(
                        "shard {i} holds out-of-range edge ({}, {})",
                        e.src, e.dst
                    )));
                }
                let owner = plan.shard_of_edge(e.src, e.dst);
                if owner != i {
                    return Err(AuditError::Cluster(format!(
                        "edge ({}, {}) resident on shard {i} but owned by \
                         shard {owner} under plan {}",
                        e.src,
                        e.dst,
                        plan.name()
                    )));
                }
            }
        }
        // The image keeps one copy of a key several shards hold.
        let image = snap.image();
        if image.num_edges() < snap.num_edges() {
            return Err(AuditError::Cluster(format!(
                "cut {} holds {} duplicate key(s) across shards",
                snap.cut(),
                snap.num_edges() - image.num_edges()
            )));
        }
        if self.shared.published_cut.lock().snapshot.cut() < snap.cut() {
            return Err(AuditError::Cluster(format!(
                "cut {} was never published as the latest snapshot",
                snap.cut()
            )));
        }
        if let DeltaCatchUp::Deltas(chain) = self.deltas_since(prev.cut()) {
            match &chain[..] {
                [delta] => delta.verify(prev.image(), snap.image()),
                _ => Err(format!("{} cut deltas since cut {}, not one", chain.len(), prev.cut())),
            }
            .map_err(|m| AuditError::Cluster(format!("cut {} delta: {m}", snap.cut())))?;
        }
        Ok(snap)
    }
}

impl Drop for GraphCluster {
    fn drop(&mut self) {
        // Mirror StreamingService::drop: never re-panic out of Drop.
        if let Some(Err(_)) = self.stop_router() {
            eprintln!("gpma-cluster: router thread panicked; state discarded");
        }
    }
}

/// Build one shard's service: simulated device, GPMA+ system, streaming
/// facade — the single recipe both the spawn path and the reshard
/// scale-out path use, so reshard-created shards can never silently
/// diverge from spawn-created ones.
fn spawn_shard_service(
    shard: usize,
    cfg: &ClusterConfig,
    device_cfg: &DeviceConfig,
    num_vertices: u32,
    edges: &[Edge],
    obs: &Arc<ObsRegistry>,
) -> (StreamingService, Arc<GraphSnapshot>) {
    let dev = Device::named(device_cfg.clone(), format!("shard{shard}"));
    let sys = DynamicGraphSystem::new(dev, num_vertices, edges, cfg.flush_threshold);
    // Every shard worker records into the one cluster registry, so flush
    // histograms aggregate cluster-wide and survive shard respawns.
    let svc = StreamingService::spawn_instrumented(
        ServiceConfig {
            queue_capacity: cfg.shard_queue_capacity,
            // Nothing reads a shard's delta ring: the router's op log is
            // the record of what each shard was sent.
            delta_log_capacity: 1,
        },
        sys,
        obs.clone(),
        shard as u32,
    );
    // The image the service built at spawn, not a second store readback.
    let initial = svc.snapshot();
    (svc, initial)
}

/// One shard's answer to a barrier round: the round's id, the shard, and
/// its barrier image (`None`: the worker died without answering).
type Ack = (u64, usize, Option<Arc<GraphSnapshot>>);

/// One barrier per shard, each FIFO behind everything already forwarded to
/// that shard. Issuing it returns at once; each answer arrives as an event
/// on the router's ack channel and is filed here, so the router never
/// stalls on a cluster-wide quiesce. The cut, the reshard's copy and retire
/// waits and its marker are all this, and a round some shard leaves
/// unanswered is reissued ([`Router::reissue_unanswered`]).
struct BarrierRound {
    /// Tags the round's acks. An ack for a round no longer in flight (a
    /// round reissued after a recovery) matches nothing and is dropped.
    id: u64,
    /// Collected barrier images. One still `None` once the round is
    /// complete means that worker died before answering.
    got: Vec<Option<Arc<GraphSnapshot>>>,
    /// Shards yet to answer.
    outstanding: usize,
    /// When the round's barriers were issued.
    issued: Instant,
}

/// An empty round, done at once: the placeholder of a reshard phase whose
/// round is not issued yet.
impl Default for BarrierRound {
    fn default() -> Self {
        BarrierRound {
            id: 0,
            got: Vec::new(),
            outstanding: 0,
            issued: Instant::now(),
        }
    }
}

impl BarrierRound {
    /// Every shard's answer is in: its image, or `None` if it died first.
    fn done(&self) -> bool {
        self.outstanding == 0
    }

    /// Done, and some shard answered `None`: the round must be reissued.
    fn unanswered(&self) -> bool {
        self.done() && self.got.iter().any(Option::is_none)
    }

    /// The barrier images of a done round no shard left unanswered.
    fn images(self) -> Vec<Arc<GraphSnapshot>> {
        debug_assert!(self.done() && !self.unanswered());
        self.got.into_iter().flatten().collect()
    }
}

/// One in-flight non-blocking cut round.
struct PendingCut {
    /// Every `epoch_cut` caller waiting on this round.
    acks: Vec<Sender<Arc<ClusterSnapshot>>>,
    round: BarrierRound,
    /// The router's op log, folded when the barriers were issued: exactly
    /// what the round's images add to the previous cut. Blind, because a
    /// recovery replays it onto a base taken anywhere in its span.
    delta: SnapshotDelta,
    /// The fold classified against the previous cut, which readers get;
    /// `None` for a marker round, which publishes as a rebase point.
    net: Option<NetDelta>,
    /// The reshard whose marker this round is: it publishes as a rebase
    /// point, and completes the reshard.
    marker: Option<Reshard>,
}

/// Everything the router loop threads through its helpers.
struct Router {
    handles: Vec<IngestHandle>,
    services: Vec<StreamingService>,
    part: PartitionEpoch,
    shared: Arc<Shared>,
    cfg: ClusterConfig,
    device_cfg: DeviceConfig,
    link: Pcie,
    /// Per-shard sub-batches under assembly (deletions before insertions,
    /// the framework batch convention).
    pending: Vec<UpdateBatch>,
    pending_len: usize,
    /// Every client update routed since the last cut round was issued, in
    /// arrival order: folded into that round's delta. Mirrored updates are
    /// not logged — they move edges, they do not change the graph.
    ops: OpLog,
    /// Counters accumulated lock-free in the per-edge routing loop and
    /// published under the single metrics lock [`Self::forward`] already
    /// takes per burst (the same rule the service crate applies to its
    /// ingest hot path).
    local_cut_edges: u64,
    local_cancelled: u64,
    /// Per-source-vertex routed update counts — the observed degrees a
    /// [`DegreePartition`](crate::DegreePartition) rebalance target is
    /// built from. Cumulative across reshards (the estimate only sharpens).
    observed: Vec<u64>,
    /// Where every shard's barrier answer lands (unbounded: an ack never
    /// blocks a shard worker), and the router's own queue, which the
    /// answering worker rings with a [`Command::Wake`].
    acks: (Sender<Ack>, Receiver<Ack>),
    wake: Sender<Command>,
    /// Id of the last barrier round issued.
    rounds: u64,
    /// Set by [`Command::Shutdown`]: no new plan changes; the loop exits
    /// once the rounds in flight and a final cut round are done.
    stopping: bool,
    /// What a dead shard's rebuild base may lack and the op log no longer
    /// holds: the copies of a reshard's swap, and with a store, every cut
    /// delta published since a cut or marker left a save failed. A
    /// completed cut or marker empties it unless one of its saves failed.
    /// [`Self::recover_shard`] applies it first.
    unsaved: SnapshotDelta,
    /// The non-blocking cut round in flight, if any.
    pending_cut: Option<PendingCut>,
    /// The plan the latest published cut's shards follow; a no-op reshard
    /// swaps [`Self::part`] without publishing a cut.
    cut_plan: Arc<dyn Partitioner>,
    /// `epoch_cut` callers that arrived while a round was in flight; they
    /// join the *next* round (their pre-cut updates may not have been
    /// forwarded when the current round's barriers were issued).
    queued_cut_acks: Vec<Sender<Arc<ClusterSnapshot>>>,
    /// The reshard in flight up to its marker round, if any (see
    /// [`reshard`]).
    reshard: Option<Reshard>,
    /// Cut, reshard and rebalance commands in arrival order, each started
    /// by [`Self::run_deferred`] as soon as nothing in flight blocks it.
    deferred: VecDeque<Command>,
}

impl Router {
    /// Buffer one routed batch, enforcing arrival-order semantics within
    /// the pending window (a deletion cancels a same-key pending insert on
    /// its shard before being buffered).
    fn route(&mut self, b: UpdateBatch) {
        // One `router.route` sample per routed batch: partition lookup,
        // cut-edge accounting and pending-window cancellation.
        let obs = self.shared.obs.clone();
        let _route = obs.span(Stage::RouteBatch);
        // Batch convention: its deletions precede its insertions, so route
        // deletions first (cancelling only *earlier* pending inserts, never
        // this batch's own).
        self.pending_len += b.len();
        for e in &b.deletions {
            self.route_delete(*e);
        }
        for e in b.insertions {
            self.route_insert(e);
        }
    }

    /// Buffer one insertion for its owner, and for its new owner too while
    /// a reshard mirrors.
    // lint: hot-path
    fn route_insert(&mut self, e: Edge) {
        let s = self.part.plan().shard_of_edge(e.src, e.dst);
        if self.part.plan().is_cut_edge(e.src, e.dst) {
            self.local_cut_edges += 1;
        }
        self.observed[e.src as usize] += 1;
        self.ops.insert(e);
        self.pending[s].insertions.push(e);
        if let Some(d) = self.mirror_owner(e, s, true) {
            self.pending[d].insertions.push(e);
        }
    }

    /// Buffer one deletion for its owner, and for its new owner too while a
    /// reshard mirrors; each cancels the same-key insertion pending there.
    // lint: hot-path
    fn route_delete(&mut self, e: Edge) {
        let s = self.part.plan().shard_of_edge(e.src, e.dst);
        self.observed[e.src as usize] += 1;
        self.ops.delete(e);
        self.local_cancelled += buffer_deletion(&mut self.pending[s], e);
        if let Some(d) = self.mirror_owner(e, s, false) {
            buffer_deletion(&mut self.pending[d], e);
        }
    }

    /// Ship every non-empty per-shard sub-batch: record one modeled DMA per
    /// sub-batch against that shard's ledger (all accounting under one lock
    /// per burst), then forward through the shards' (blocking) ingest
    /// handles — shard backpressure stalls the router, which fills the
    /// cluster queue, which stalls producers.
    fn forward(&mut self) {
        if self.pending_len == 0 {
            return;
        }
        let obs = self.shared.obs.clone();
        let _forward = obs.span(Stage::Forward);
        let mut outgoing: Vec<(usize, UpdateBatch)> = Vec::with_capacity(self.pending.len());
        for (i, slot) in self.pending.iter_mut().enumerate() {
            if !slot.is_empty() {
                outgoing.push((i, std::mem::take(slot)));
            }
        }
        {
            let mut c = self.shared.router.lock();
            c.cut_edges += std::mem::take(&mut self.local_cut_edges);
            c.cancelled_inserts += std::mem::take(&mut self.local_cancelled);
            for (i, b) in &outgoing {
                c.routed[*i] += b.len() as u64;
                c.sub_batches[*i] += 1;
                c.transfer[*i].record(&self.link, b.len() * BYTES_PER_UPDATE);
            }
        }
        for (i, b) in outgoing {
            // Unmetered: router-internal traffic must not pollute the
            // client-facing ingest-latency histogram (this whole burst is
            // already timed by the `router.forward` span). A send to a dead
            // shard is dropped: the op log already holds it, and the barrier
            // the shard leaves unanswered rebuilds it from that.
            let _ = self.handles[i].ingest_unmetered(b);
        }
        self.pending_len = 0;
    }

    /// The one failover path. A round in flight that completed with some
    /// shard silent — its worker died at or before the barrier — puts a
    /// cut or marker round's fold back into the op log, rebuilds every
    /// silent shard ([`Self::recover_shard`]) and reissues the round: a cut
    /// round under the same cut number, waiters and marker, a reshard round
    /// in the same phase. No round completes on anything but its barrier
    /// answers.
    fn reissue_unanswered(&mut self) {
        if let Some(pc) = self.pending_cut.take_if(|pc| pc.round.unanswered()) {
            self.ops.restore(pc.delta);
            self.recover_silent(&pc.round);
            self.start_cut_round(pc.acks, pc.marker);
        } else if let Some(rs) = self.reshard.as_mut().filter(|rs| rs.round.unanswered()) {
            let round = std::mem::take(&mut rs.round);
            self.recover_silent(&round);
            let round = self.issue_round();
            if let Some(rs) = self.reshard.as_mut() {
                rs.round = round;
            }
        }
    }

    /// Count `round`'s reissue and rebuild each shard it heard nothing from;
    /// `recovery.detect` records, per such shard, the time from the round's
    /// issue to the router finding it silent.
    fn recover_silent(&mut self, round: &BarrierRound) {
        self.shared.delta_fallbacks.fetch_add(1, Ordering::Relaxed);
        for (i, _) in round.got.iter().enumerate().filter(|(_, got)| got.is_none()) {
            self.shared
                .obs
                .record_duration(Stage::RecoveryDetect, round.issued.elapsed());
            self.shared.worker_errors.fetch_add(1, Ordering::Relaxed);
            eprintln!("gpma-cluster: shard {i} gave no barrier ack; rebuilding it");
            self.recover_shard(i);
        }
    }

    /// Rebuild dead shard `i` in place:
    ///
    /// 1. **Restore** — with [`ClusterConfig::checkpoints`] set, decode the
    ///    shard slot's latest checkpoint: the image of its last landed save.
    /// 2. **Published image** — with no store, or when nothing decodes (none
    ///    saved yet, a load error, a corrupt container; counted in
    ///    [`ClusterMetrics::recovery_snapshot_fallbacks`]), take the dead
    ///    worker's last *published* image instead, no older than its last
    ///    acked barrier.
    /// 3. **Rebuild + respawn** — apply [`Self::unsaved`] and the op log to
    ///    that base, keep what the shard owns ([`rebuild_shard`]), build a
    ///    fresh service on the result (epochs restart at 0) and swap it
    ///    into the routing tables.
    /// 4. **Re-checkpoint** — persist the spawn image, so the store's
    ///    "latest" matches the live epoch space.
    ///
    /// Every term of the rebuild is last-op-per-key and together they reach
    /// back to the base, so the rebuilt shard holds exactly what was
    /// forwarded to it and the reissued round's delta stays exact.
    fn recover_shard(&mut self, i: usize) {
        // An unanswered cut round's fold is back in the op log by now.
        debug_assert!(self.pending_cut.is_none());
        let obs = self.shared.obs.clone();
        let t0 = Instant::now();
        let nv = self.part.plan().num_vertices();

        let restore_span = obs.span(Stage::RecoveryRestore);
        // `None`: no store; `Some(None)`: a store with nothing to decode.
        let restored = self.cfg.checkpoints.as_ref().map(|store| match store.load_latest(i) {
            Ok(Some(bytes)) => match checkpoint::decode(&bytes) {
                Ok(image) => Some(image),
                Err(e) => {
                    self.shared.worker_errors.fetch_add(1, Ordering::Relaxed);
                    eprintln!("gpma-cluster: shard {i} checkpoint corrupt ({e}); falling back");
                    None
                }
            },
            Ok(None) => None,
            Err(e) => {
                self.shared.worker_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("gpma-cluster: shard {i} checkpoint load failed ({e}); falling back");
                None
            }
        });
        let fallback = restored.as_ref().is_some_and(Option::is_none);
        let base = match restored.flatten() {
            Some(image) => Arc::new(image),
            None => self.services[i].snapshot(),
        };
        drop(restore_span);

        let replay_span = obs.span(Stage::RecoveryReplay);
        let mut since = self.unsaved.clone();
        since.merge(&self.ops.peek());
        let mirror = self.reshard.as_ref().and_then(Reshard::mirror);
        let edges = rebuild_shard(&base, &since, owned_by(i, &**self.part.plan(), mirror));
        let (svc, image) = spawn_shard_service(i, &self.cfg, &self.device_cfg, nv, &edges, &obs);
        self.handles[i] = svc.handle();
        self.services[i] = svc;
        drop(replay_span);
        obs.event(
            Stage::RecoveryReplay,
            i as u32,
            0,
            EventKind::Recovered,
            t0.elapsed().as_micros() as u64,
        );
        self.persist(i, &image);

        let mut c = self.shared.router.lock();
        c.recoveries += 1;
        c.recovery_secs += t0.elapsed().as_secs_f64();
        c.recovery_replayed_updates += since.len() as u64;
        if fallback {
            c.recovery_snapshot_fallbacks += 1;
        }
    }

    /// Persist `image` as shard id `i`'s checkpoint and count it; false
    /// only when a save failed (logged and counted). With no store there
    /// is nothing to save.
    fn persist(&self, i: usize, image: &GraphSnapshot) -> bool {
        let Some(store) = &self.cfg.checkpoints else {
            return true;
        };
        let obs = self.shared.obs.clone();
        let _save = obs.span(Stage::CheckpointSave);
        let bytes = checkpoint::encode(image);
        match store.save(i, image.epoch(), &bytes) {
            Ok(()) => {
                let mut c = self.shared.router.lock();
                c.checkpoints_taken += 1;
                c.checkpoint_bytes += bytes.len() as u64;
                true
            }
            Err(e) => {
                self.shared.worker_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!("gpma-cluster: shard {i} checkpoint save failed ({e})");
                false
            }
        }
    }

    /// Checkpoint every shard image of a completed cut or marker, then
    /// settle [`Self::unsaved`]: emptied unless a save failed, otherwise
    /// extended by `delta`, what the cut or marker took out of the op log.
    fn checkpoint_cut(&mut self, snap: &ClusterSnapshot, delta: &SnapshotDelta) {
        let mut landed = true;
        for (i, image) in snap.shards().iter().enumerate() {
            landed &= self.persist(i, image);
        }
        if landed {
            self.unsaved = SnapshotDelta::default();
        } else {
            self.unsaved.merge(delta);
        }
    }

    /// Assemble and publish one coordinated cut from a round's barrier
    /// images with its net delta, and checkpoint it with the blind one. A
    /// cut without a net delta (a reshard's marker) publishes as a rebase
    /// point, and still checkpoints its delta.
    fn publish_cut(
        &mut self,
        snaps: Vec<Arc<GraphSnapshot>>,
        delta: SnapshotDelta,
        net: Option<NetDelta>,
        t0: Instant,
    ) -> Arc<ClusterSnapshot> {
        let obs = self.shared.obs.clone();
        let cut = self.shared.cuts.fetch_add(1, Ordering::Relaxed) + 1;
        let snap = {
            let _publish = obs.span(Stage::CutPublish);
            let snap = Arc::new(ClusterSnapshot::new(
                cut,
                self.part.plan().num_vertices(),
                snaps,
            ));
            debug_assert_eq!(delta.epoch(), cut);
            self.publish(&snap, net.map(Arc::new));
            self.cut_plan = self.part.plan().clone();
            self.checkpoint_cut(&snap, &delta);
            snap
        };
        obs.event(
            Stage::CutPublish,
            NO_SHARD,
            cut,
            EventKind::Cut,
            t0.elapsed().as_micros() as u64,
        );
        snap
    }

    /// Publish `snap` with the delta that produced it from the previous
    /// cut, or — `None` — as a rebase point readers at older cuts must
    /// rebase past: cut and ring under one lock.
    fn publish(&self, snap: &Arc<ClusterSnapshot>, delta: Option<Arc<NetDelta>>) {
        let mut published = self.shared.published_cut.lock();
        published.snapshot = snap.clone();
        match delta {
            Some(d) => published.deltas.push(d),
            None => published.deltas.reset_to(snap.cut()),
        }
    }

    /// Issue one barrier to every shard as a new round. Each shard's answer
    /// goes onto the ack channel, tagged with the round and the shard, and
    /// then rings the router with a `try_send` of [`Command::Wake`]: a
    /// blocking send could deadlock against a router blocked in
    /// [`Self::forward`] on that shard's full queue, and a full router
    /// queue already guarantees the pass after which the acks are read.
    fn issue_round(&mut self) -> BarrierRound {
        self.rounds += 1;
        let id = self.rounds;
        let issued = Instant::now();
        for (i, svc) in self.services.iter().enumerate() {
            let (acks, wake) = (self.acks.0.clone(), self.wake.clone());
            svc.barrier_with(BarrierAck::new(move |image| {
                let _ = acks.send((id, i, image));
                let _ = wake.try_send(Command::Wake);
            }));
        }
        let n = self.services.len();
        BarrierRound {
            id,
            got: vec![None; n],
            outstanding: n,
            issued,
        }
    }

    /// File every barrier answer that has arrived with the round it
    /// belongs to, then run what the completed rounds let run: reissue a
    /// round some shard left unanswered, publish a cut, step the reshard,
    /// start deferred commands, check the skew.
    /// Acks are read once per pass; a round issued here waits for a later
    /// pass, which its acks' `Wake`s bring.
    fn advance(&mut self) {
        while let Ok((id, shard, image)) = self.acks.1.try_recv() {
            let cut = self.pending_cut.as_mut().map(|pc| &mut pc.round);
            let reshard = self.reshard.as_mut().map(|rs| &mut rs.round);
            if let Some(round) = cut.into_iter().chain(reshard).find(|r| r.id == id) {
                round.got[shard] = image;
                round.outstanding -= 1;
            }
        }
        self.reissue_unanswered();
        self.finish_cut_round();
        self.step_reshard();
        self.run_deferred();
    }

    /// Start the deferred control commands in arrival order while nothing
    /// in flight blocks the one at the front: a cut waits for a reshard
    /// (a barrier before its marker would observe movers on both owners),
    /// a plan change for any round (plan changes cannot nest, and a cut
    /// round must not barrier against shards a copy floods).
    fn run_deferred(&mut self) {
        while self.reshard.is_none() {
            let plan_change = matches!(
                self.deferred.front(),
                Some(Command::Reshard(..) | Command::Rebalance(..))
            );
            if plan_change && self.pending_cut.is_some() {
                return;
            }
            match self.deferred.pop_front() {
                Some(Command::Cut(ack)) => self.begin_cut(ack),
                Some(Command::Reshard(new, ack)) => self.begin_reshard(new, ack),
                Some(Command::Rebalance(target, ack)) => self.begin_rebalance(target, ack),
                _ => return,
            }
        }
    }

    /// No round in flight and nothing deferred.
    fn is_idle(&self) -> bool {
        self.pending_cut.is_none() && self.reshard.is_none() && self.deferred.is_empty()
    }

    /// Start (or queue into) a non-blocking cut round. The barrier command
    /// is FIFO-ordered behind every update already forwarded to each shard,
    /// so the per-shard barrier snapshots form an exact global frontier
    /// even though their acks arrive at different times — the router keeps
    /// absorbing and forwarding ingest while they come in.
    fn begin_cut(&mut self, ack: Sender<Arc<ClusterSnapshot>>) {
        if self.pending_cut.is_some() {
            // This caller's pre-cut updates may not have been forwarded
            // when the in-flight round's barriers were issued: it joins
            // the next round, started the moment the current one resolves.
            self.queued_cut_acks.push(ack);
            return;
        }
        self.start_cut_round(vec![ack], None);
    }

    /// Forward residue and issue one barrier to every shard, registering
    /// the round as [`Router::pending_cut`] with its delta: the op log,
    /// folded, and classified while the barriers are in flight. Only one
    /// round is in flight, so this round publishes the next cut number;
    /// with `marker` it is that reshard's marker.
    fn start_cut_round(&mut self, acks: Vec<Sender<Arc<ClusterSnapshot>>>, marker: Option<Reshard>) {
        self.forward();
        let cut = self.shared.cuts.load(Ordering::Relaxed) + 1;
        let round = self.issue_round();
        let delta = self.ops.fold(cut);
        let net = marker.is_none().then(|| self.classify_cut(&delta));
        self.pending_cut = Some(PendingCut {
            acks,
            round,
            delta,
            net,
            marker,
        });
    }

    /// Classify a copy of a cut round's fold against the previous cut, the
    /// latest published one: each key is looked up on the shard image that
    /// owns it under [`Self::cut_plan`]. That cut and this round follow one
    /// plan apart from a no-op reshard's swap, which moves no edge: cuts
    /// wait for a reshard, and its marker publishes as a rebase point.
    fn classify_cut(&self, fold: &SnapshotDelta) -> NetDelta {
        let prev = self.shared.published_cut.lock().snapshot.clone();
        let (shards, plan) = (prev.shards(), &self.cut_plan);
        fold.clone()
            .classify_by(|src, dst| shards[plan.shard_of_edge(src, dst)].weight(src, dst))
    }

    /// Once every shard has answered the in-flight cut round: publish the
    /// cut, answer every waiter, complete the reshard a marker round
    /// belongs to, and start the next round if callers queued up meanwhile.
    fn finish_cut_round(&mut self) {
        let Some(pc) = self.pending_cut.take_if(|pc| pc.round.done()) else {
            return;
        };
        let t0 = pc.round.issued;
        self.shared.obs.record_duration(Stage::CutBarrier, t0.elapsed());
        let snap = self.publish_cut(pc.round.images(), pc.delta, pc.net, t0);
        for ack in pc.acks {
            let _ = ack.send(snap.clone());
        }
        if let Some(rs) = pc.marker {
            self.marker_published(rs, &snap);
        }
        if !self.queued_cut_acks.is_empty() {
            let next = std::mem::take(&mut self.queued_cut_acks);
            self.start_cut_round(next, None);
        }
    }

    /// Kill one shard's worker (fault injection) — now, or with
    /// `at_barrier` at its next barrier — acking whether it landed.
    fn kill(&mut self, shard: usize, at_barrier: bool, ack: Sender<bool>) {
        let landed = match self.services.get(shard) {
            Some(svc) if at_barrier => {
                svc.crash_at_next_barrier();
                svc.is_alive()
            }
            Some(svc) => svc.inject_failure().is_ok(),
            None => {
                self.shared.worker_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "gpma-cluster: kill_shard({shard}) out of range ({} shards); ignored",
                    self.services.len()
                );
                false
            }
        };
        let _ = ack.send(landed);
    }

}

/// Which edges shard `i` holds: those `plan`, the plan in force, routes to
/// it, and in a reshard's copy window (`mirror`: the target plan and its
/// moved keys) the moved keys the target plan gives it.
fn owned_by<'a>(
    i: usize,
    plan: &'a dyn Partitioner,
    mirror: Option<(&'a dyn Partitioner, &'a BTreeMap<u64, bool>)>,
) -> impl Fn(&Edge) -> bool + 'a {
    move |e| {
        plan.shard_of_edge(e.src, e.dst) == i
            || mirror.is_some_and(|(new, moved)| {
                moved.contains_key(&e.key()) && new.shard_of_edge(e.src, e.dst) == i
            })
    }
}

/// A shard's edge set rebuilt from `base`, an image of it taken at any
/// point `delta` reaches back to: `base` advanced by `delta`, keeping the
/// edges `owns` accepts, key-sorted. Each key's last operation since the
/// base is in `delta`, and a key it lacks has not changed since, so the
/// result does not depend on where in that span the base was taken.
fn rebuild_shard(
    base: &GraphSnapshot,
    delta: &SnapshotDelta,
    owns: impl Fn(&Edge) -> bool,
) -> Vec<Edge> {
    base.advance(delta)
        .0
        .edges()
        .iter()
        .filter(|e| owns(e))
        .copied()
        .collect()
}

/// Buffer deletion `e` into a pending sub-batch after cancelling the
/// same-key insertion pending there; returns how many it cancelled.
// lint: hot-path
fn buffer_deletion(batch: &mut UpdateBatch, e: Edge) -> u64 {
    let key = e.key();
    let before = batch.insertions.len();
    batch.insertions.retain(|p| p.key() != key);
    batch.deletions.push(e);
    (before - batch.insertions.len()) as u64
}

/// The router loop: block on the queue, coalesce bursts into per-shard
/// sub-batches, forward, then run whatever the barrier answers since the
/// last pass let run. The queue is the one place the router waits: every
/// answer rings it with a [`Command::Wake`]. On shutdown it runs the rounds
/// in flight and a final cut round the same way, then stops the shards.
fn run_router(
    rx: Receiver<Command>,
    wake: Sender<Command>,
    services: Vec<StreamingService>,
    part: Arc<dyn Partitioner>,
    shared: Arc<Shared>,
    cfg: ClusterConfig,
    device_cfg: DeviceConfig,
) -> Vec<ServiceReport> {
    let num_shards = services.len();
    let num_vertices = part.num_vertices();
    let router_batch = cfg.router_batch.max(1);
    let mut r = Router {
        handles: services.iter().map(|s| s.handle()).collect(),
        services,
        cut_plan: part.clone(),
        part: PartitionEpoch::new(part),
        shared,
        cfg,
        device_cfg,
        link: Pcie::new(PcieConfig::default()),
        pending: vec![UpdateBatch::default(); num_shards],
        pending_len: 0,
        local_cut_edges: 0,
        local_cancelled: 0,
        observed: vec![0; num_vertices as usize],
        ops: OpLog::default(),
        acks: unbounded(),
        wake,
        rounds: 0,
        stopping: false,
        unsaved: SnapshotDelta::default(),
        pending_cut: None,
        queued_cut_acks: Vec::new(),
        reshard: None,
        deferred: VecDeque::new(),
    };
    let mut final_cut = false;
    while let Ok(cmd) = rx.recv() {
        handle_command(cmd, &mut r);
        // Coalesce whatever else is already queued before forwarding, so
        // bursts ship as few, large modeled DMAs.
        while r.pending_len < router_batch {
            match rx.try_recv() {
                Ok(cmd) => handle_command(cmd, &mut r),
                Err(_) => break,
            }
        }
        r.forward();
        r.advance();
        if r.stopping && r.is_idle() {
            if final_cut {
                break;
            }
            r.start_cut_round(Vec::new(), None);
            final_cut = true;
        }
    }
    r.handles.clear();
    r.services
        .drain(..)
        .map(|svc| svc.shutdown())
        .collect()
}

/// Apply one command. Control commands queue in arrival order and start as
/// soon as nothing in flight blocks them (see [`Router::run_deferred`]);
/// data routes, stats and kills serve inline.
fn handle_command(cmd: Command, r: &mut Router) {
    match cmd {
        Command::Batch(b) => r.route(b),
        Command::Reshard(_, ack) | Command::Rebalance(_, ack) if r.stopping => {
            let _ = ack.send(Err(ReshardError::Closed));
        }
        Command::Cut(_) | Command::Reshard(..) | Command::Rebalance(..) => {
            r.deferred.push_back(cmd);
            r.run_deferred();
        }
        Command::Stats(reply) => {
            // Flush residue first so the reply (and the shared counters it
            // is read alongside) reflect everything accepted so far.
            r.forward();
            let _ = reply.send(r.services.iter().map(|s| s.metrics()).collect());
        }
        Command::Kill {
            shard,
            at_barrier,
            ack,
        } => r.kill(shard, at_barrier, ack),
        Command::Wake => {}
        Command::Shutdown => r.stopping = true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_core::checkpoint::MemoryCheckpointStore;
    use gpma_core::multi::{EdgeGridPartition, HashVertexPartition, VertexPartition};
    use gpma_sim::DeviceConfig;
    use proptest::prelude::{any, prop, prop_assert_eq, proptest, ProptestConfig};

    fn spawn4(policy: Arc<dyn Partitioner>, initial: &[Edge]) -> GraphCluster {
        GraphCluster::spawn(
            ClusterConfig {
                flush_threshold: 4,
                router_batch: 8,
                ..Default::default()
            },
            &DeviceConfig::deterministic(),
            policy,
            initial,
        )
    }

    #[test]
    fn roundtrip_and_cut_under_hash_policy() {
        let part = Arc::new(HashVertexPartition {
            num_vertices: 32,
            num_shards: 4,
        });
        let c = spawn4(part, &[Edge::new(0, 1)]);
        assert_eq!(c.num_shards(), 4);
        assert_eq!(c.snapshot().cut(), 0);
        let h = c.handle();
        for i in 1..=16u32 {
            h.insert(Edge::new(i, 0)).unwrap();
        }
        let snap = c.epoch_cut().unwrap();
        assert_eq!(snap.cut(), 1);
        assert_eq!(snap.num_edges(), 17);
        let report = c.shutdown();
        assert_eq!(report.metrics.ingested(), 16);
        assert_eq!(report.final_snapshot.num_edges(), 17);
        assert!(report.final_snapshot.cut() > snap.cut());
        assert_eq!(report.shard_reports.len(), 4);
        // Every routed update was charged to a transfer ledger.
        let total = report.metrics.total_transfer();
        assert_eq!(report.metrics.routed.iter().sum::<u64>(), 16);
        assert_eq!(total.bytes, 16 * BYTES_PER_UPDATE as u64);
        assert!(total.time.secs() > 0.0);
    }

    #[test]
    fn telemetry_covers_ingest_routing_cut_and_reshard() {
        let part = Arc::new(HashVertexPartition {
            num_vertices: 32,
            num_shards: 2,
        });
        let c = spawn4(part, &[]);
        let h = c.handle();
        for i in 1..=32u32 {
            h.insert(Edge::new(i % 32, (i + 7) % 32)).unwrap();
        }
        c.epoch_cut().unwrap();
        c.reshard(Arc::new(HashVertexPartition {
            num_vertices: 32,
            num_shards: 4,
        }))
        .unwrap();

        let obs = c.obs().clone();
        assert_eq!(obs.hist(Stage::IngestEnqueue).snapshot().count, 32);
        for stage in [
            Stage::RouteBatch,
            Stage::Forward,
            Stage::FlushApply,
            Stage::CutBarrier,
            Stage::CutPublish,
            Stage::ReshardQuiesce,
            Stage::ReshardMigrate,
            Stage::ReshardResume,
        ] {
            assert!(
                obs.hist(stage).snapshot().count > 0,
                "stage {} never recorded",
                stage.name()
            );
        }
        let events = obs.events();
        assert!(events.iter().any(|e| e.kind == EventKind::Cut));
        assert!(events.iter().any(|e| e.kind == EventKind::ReshardBegin));
        assert!(events.iter().any(|e| e.kind == EventKind::ReshardEnd));
        gpma_obs::parse_exposition(&obs.render_prometheus()).unwrap();
        c.shutdown();
    }

    #[test]
    fn arrival_order_wins_across_shard_routing() {
        let part = Arc::new(VertexPartition {
            num_vertices: 16,
            num_shards: 4,
        });
        let c = spawn4(part, &[]);
        let h = c.handle();
        // insert → delete ⇒ absent (cancelled in the router or the shard).
        h.insert(Edge::new(1, 2)).unwrap();
        h.delete(Edge::new(1, 2)).unwrap();
        // delete → insert ⇒ present.
        h.delete(Edge::new(9, 3)).unwrap();
        h.insert(Edge::new(9, 3)).unwrap();
        let snap = c.epoch_cut().unwrap();
        assert!(!snap.image().contains(1, 2));
        assert!(snap.image().contains(9, 3));
        let report = c.shutdown();
        assert_eq!(
            report.metrics.cancelled_inserts
                + report
                    .shard_reports
                    .iter()
                    .map(|r| r.metrics.counters.cancelled_inserts)
                    .sum::<u64>(),
            1
        );
    }

    #[test]
    fn handles_fail_after_shutdown() {
        let part = Arc::new(VertexPartition {
            num_vertices: 8,
            num_shards: 2,
        });
        let c = spawn4(part, &[]);
        let h = c.handle();
        drop(c.shutdown());
        assert_eq!(h.insert(Edge::new(1, 2)), Err(ClusterClosed));
        assert_eq!(h.delete(Edge::new(1, 2)), Err(ClusterClosed));
    }

    #[test]
    fn grid_policy_splits_rows_yet_cut_sees_whole_graph() {
        let part = Arc::new(EdgeGridPartition::new(16, 4));
        let c = spawn4(part.clone(), &[]);
        let h = c.handle();
        // Vertex 0's out-row spans both column blocks of grid row 0.
        for d in 1..16u32 {
            h.insert(Edge::new(0, d)).unwrap();
        }
        let snap = c.epoch_cut().unwrap();
        assert_eq!(snap.num_edges(), 15);
        assert_eq!(snap.image().out_degree(0), 15);
        // The row genuinely lives on more than one shard.
        let shards_with_row = snap
            .shards()
            .iter()
            .filter(|s| s.out_degree(0) > 0)
            .count();
        assert!(shards_with_row > 1, "grid should split vertex 0's row");
        let report = c.shutdown();
        assert!(report.metrics.cut_edges > 0);
    }

    #[test]
    fn cut_deltas_replay_to_the_merged_cut() {
        use gpma_core::delta::apply_delta;
        let part = Arc::new(HashVertexPartition {
            num_vertices: 32,
            num_shards: 4,
        });
        let c = spawn4(part, &[Edge::new(0, 1), Edge::new(1, 2)]);
        let cut0 = c.snapshot().to_graph_snapshot();
        let h = c.handle();
        for i in 2..=9u32 {
            h.insert(Edge::new(i, 0)).unwrap();
        }
        h.delete(Edge::new(0, 1)).unwrap();
        c.epoch_cut().unwrap();
        for i in 10..=13u32 {
            h.insert(Edge::new(i, 1)).unwrap();
        }
        let cut2 = c.epoch_cut().unwrap();
        let chain = match c.deltas_since(0) {
            DeltaCatchUp::Deltas(chain) => chain,
            DeltaCatchUp::Snapshot(_) => panic!("ring covers both cuts"),
        };
        assert_eq!(
            chain.iter().map(|d| d.epoch()).collect::<Vec<_>>(),
            vec![1, 2]
        );
        let mut replayed = cut0;
        for d in &chain {
            replayed = apply_delta(&replayed, d.blind());
        }
        let flat = cut2.to_graph_snapshot();
        assert_eq!(replayed.edges(), flat.edges());
        assert_eq!(replayed.epoch(), cut2.cut());
        // Delta bytes are O(|Δ|): the second cut changed 4 edges.
        assert_eq!(chain[1].blind().len(), 4);
        let report = c.shutdown();
        assert_eq!(report.metrics.delta_fallbacks, 0);
    }

    /// The owner-diff of a cut against a new plan, as `(moved, resident)`:
    /// an edge moves iff the plan places it on a shard other than the one
    /// holding it, so every edge of a retiring shard moves.
    fn owner_diff(cut: &ClusterSnapshot, plan: &dyn Partitioner) -> (usize, usize) {
        let mut moved = 0;
        let mut resident = 0;
        for (i, s) in cut.shards().iter().enumerate() {
            for e in s.edges() {
                if plan.shard_of_edge(e.src, e.dst) == i {
                    resident += 1;
                } else {
                    moved += 1;
                }
            }
        }
        (moved, resident)
    }

    #[test]
    fn reshard_migrates_grows_and_shrinks() {
        let part = Arc::new(HashVertexPartition {
            num_vertices: 32,
            num_shards: 4,
        });
        let c = spawn4(part, &[]);
        let h = c.handle();
        for i in 0..24u32 {
            h.insert(Edge::new(i % 32, (i + 7) % 32)).unwrap();
        }
        let before_r1 = c.epoch_cut().unwrap();

        // 4 → 2 under an explicit range plan: shards 2 and 3 retire.
        let range = VertexPartition {
            num_vertices: 32,
            num_shards: 2,
        };
        let r1 = c.reshard(Arc::new(range)).unwrap();
        assert_eq!((r1.from_shards, r1.to_shards), (4, 2));
        assert_eq!(r1.version, 1);
        assert_eq!(r1.migrated_edges + r1.resident_edges, 24);
        assert_eq!(
            (r1.migrated_edges, r1.resident_edges),
            owner_diff(&before_r1, &range),
            "4 → 2 moves exactly the owner-diff"
        );
        assert!(r1.migration_bytes <= r1.full_rebuild_bytes);
        assert_eq!(c.num_shards(), 2);
        assert_eq!(c.partition_version(), 1);
        assert_eq!(c.partitioner().name(), "vertex-range");
        assert_eq!(c.snapshot().cut(), r1.cut);
        assert_eq!(c.snapshot().num_edges(), 24, "no edge lost shrinking");

        // Updates keep flowing and route under the new plan.
        h.insert(Edge::new(5, 9)).unwrap();
        h.delete(Edge::new(5, 9)).unwrap();
        let snap = c.epoch_cut().unwrap();
        assert!(!snap.image().contains(5, 9), "arrival order survives the reshard");

        // 2 → 8 via the degree-aware rebalance target.
        let r2 = c.rebalance(Some(8)).unwrap();
        assert_eq!((r2.from_shards, r2.to_shards), (2, 8));
        assert_eq!(r2.to_policy, "degree-aware");
        assert_eq!(c.num_shards(), 8);
        assert_eq!(
            (r2.migrated_edges, r2.resident_edges),
            owner_diff(&snap, &*c.partitioner()),
            "2 → 8 moves exactly the owner-diff"
        );
        let final_snap = c.epoch_cut().unwrap();
        assert_eq!(final_snap.num_edges(), 24);
        assert_eq!(final_snap.num_shards(), 8);

        // Every live edge sits on the shard the new plan owns it with.
        let plan = c.partitioner();
        for (i, s) in final_snap.shards().iter().enumerate() {
            for e in s.edges() {
                assert_eq!(plan.shard_of_edge(e.src, e.dst), i);
            }
        }

        let report = c.shutdown();
        let m = &report.metrics;
        assert_eq!(m.reshard_count, 2);
        assert_eq!(m.migrated_edges, (r1.migrated_edges + r2.migrated_edges) as u64);
        assert_eq!(m.migration_bytes, r1.migration_bytes + r2.migration_bytes);
        assert!(m.migration_pause_secs > 0.0);
        assert_eq!(m.partition_version, 2);
        // Migration DMAs were charged to the ledgers; lifetime totals keep
        // the pre-reshard host→shard traffic too (retired ledgers).
        assert!(report.metrics.total_transfer().bytes >= 24 * BYTES_PER_UPDATE as u64);
    }

    #[test]
    fn reshard_rejects_vertex_space_changes() {
        let part = Arc::new(VertexPartition {
            num_vertices: 16,
            num_shards: 2,
        });
        let c = spawn4(part, &[Edge::new(0, 1)]);
        let err = c
            .reshard(Arc::new(VertexPartition {
                num_vertices: 99,
                num_shards: 2,
            }))
            .unwrap_err();
        assert_eq!(
            err,
            ReshardError::VertexMismatch {
                expected: 16,
                got: 99
            }
        );
        // The cluster is untouched and keeps serving.
        assert_eq!(c.partition_version(), 0);
        let h = c.handle();
        h.insert(Edge::new(2, 3)).unwrap();
        assert_eq!(c.epoch_cut().unwrap().num_edges(), 2);
        drop(c.shutdown());
    }

    #[test]
    fn reshard_publishes_snapshot_style_delta_marker() {
        let part = Arc::new(HashVertexPartition {
            num_vertices: 32,
            num_shards: 4,
        });
        let c = spawn4(part, &[Edge::new(0, 1)]);
        let h = c.handle();
        for i in 1..=8u32 {
            h.insert(Edge::new(i, 0)).unwrap();
        }
        c.epoch_cut().unwrap(); // cut 1: delta in the ring
        let r = c
            .reshard(Arc::new(VertexPartition {
                num_vertices: 32,
                num_shards: 2,
            }))
            .unwrap(); // cut 2: epoch marker
        // Pre-reshard readers must rebase: per-epoch deltas do not compose
        // across the migration.
        assert!(matches!(c.deltas_since(0), DeltaCatchUp::Snapshot(_)));
        assert!(matches!(c.deltas_since(1), DeltaCatchUp::Snapshot(_)));
        // A reader at the marker cut is current, and the chain resumes.
        assert!(matches!(
            c.deltas_since(r.cut),
            DeltaCatchUp::Deltas(ref d) if d.is_empty()
        ));
        h.insert(Edge::new(20, 21)).unwrap();
        let next = c.epoch_cut().unwrap();
        match c.deltas_since(r.cut) {
            DeltaCatchUp::Deltas(chain) => {
                assert_eq!(chain.len(), 1);
                assert_eq!(chain[0].epoch(), next.cut());
                // The post-reshard delta is the user's update only — the
                // migration itself never leaks into the delta stream.
                assert_eq!(chain[0].blind().len(), 1);
            }
            DeltaCatchUp::Snapshot(_) => panic!("chain must resume after the marker"),
        }
        let report = c.shutdown();
        assert_eq!(report.metrics.delta_fallbacks, 0, "marker is not a fallback");
    }

    #[test]
    fn noop_reshard_swaps_plan_without_breaking_delta_chain() {
        // Resharding onto a plan that moves nothing (and keeps the shard
        // count) must swap the plan and reset the skew window but leave
        // the delta ring intact — consumers keep composing deltas across
        // the boundary instead of rebasing on a snapshot.
        let part = Arc::new(VertexPartition {
            num_vertices: 16,
            num_shards: 2,
        });
        let c = spawn4(part.clone(), &[]);
        let h = c.handle();
        h.insert(Edge::new(1, 2)).unwrap();
        let cut1 = c.epoch_cut().unwrap();
        // Same placement, fresh Arc: every edge already sits where the
        // "new" plan wants it.
        let r = c
            .reshard(Arc::new(VertexPartition {
                num_vertices: 16,
                num_shards: 2,
            }))
            .unwrap();
        assert_eq!(r.migrated_edges, 0);
        assert_eq!(r.migration_bytes, 0);
        assert_eq!(r.cut, cut1.cut(), "no marker cut published");
        assert_eq!(c.partition_version(), 1, "plan still swapped");
        // The pre-reshard delta chain is still served — no forced rebase.
        match c.deltas_since(0) {
            DeltaCatchUp::Deltas(chain) => {
                assert_eq!(chain.len(), 1);
                assert_eq!(chain[0].epoch(), cut1.cut());
            }
            DeltaCatchUp::Snapshot(_) => panic!("no-op reshard must keep the ring"),
        }
        // Skew window reset (the rebalance cooldown observable).
        let m = c.metrics().unwrap();
        assert_eq!(m.routed, vec![0, 0]);
        assert_eq!(m.reshard_count, 1);
        drop(c.shutdown());
    }

    #[test]
    fn a_cut_after_a_noop_reshard_classifies_against_the_old_owners() {
        // An edge the previous cut holds is deleted, then a reshard that
        // moves no edge routes its key elsewhere: the next cut's delta
        // must still remove it, so the cut is classified against the owners
        // of the plan the previous cut was taken under.
        let range = Arc::new(VertexPartition {
            num_vertices: 16,
            num_shards: 2,
        });
        let hash = Arc::new(HashVertexPartition {
            num_vertices: 16,
            num_shards: 2,
        });
        let v = (0..16u32)
            .find(|&v| range.shard_of_edge(v, 0) != hash.shard_of_edge(v, 0))
            .expect("the plans differ somewhere");
        let c = spawn4(range, &[]);
        let h = c.handle();
        h.insert(Edge::new(v, 0)).unwrap();
        let cut1 = c.epoch_cut().unwrap();
        h.delete(Edge::new(v, 0)).unwrap();
        let r = c.reshard(hash).unwrap();
        assert_eq!((r.migrated_edges, r.cut), (0, cut1.cut()), "a no-op reshard");
        let cut2 = c.epoch_cut().unwrap();
        let DeltaCatchUp::Deltas(chain) = c.deltas_since(cut1.cut()) else {
            panic!("a no-op reshard keeps the ring");
        };
        assert!(chain[0].removed().eq([(v, 0)]), "{:?}", chain[0]);
        assert_eq!(chain[0].verify(cut1.image(), cut2.image()), Ok(()));
        drop(c.shutdown());
    }

    /// `shutdown()` right behind a rebalance (the router may take the
    /// shutdown before, during or after the reshard): the call returns, the
    /// final snapshot is oracle-exact, nothing was logged as an error, and
    /// the rebalance is answered.
    #[test]
    fn shutdown_racing_a_rebalance_is_exact() {
        let c = GraphCluster::spawn(
            ClusterConfig {
                flush_threshold: 8,
                router_batch: 16,
                ..Default::default()
            },
            &DeviceConfig::deterministic(),
            Arc::new(HashVertexPartition {
                num_vertices: 64,
                num_shards: 4,
            }),
            &[],
        );
        let h = c.handle();
        let mut oracle = BTreeMap::new();
        // One hot source; every fourth update deletes.
        for i in 0..96u32 {
            let e = Edge::weighted(7, i % 40, u64::from(i + 1));
            if i % 4 == 3 {
                h.delete(e).unwrap();
                oracle.remove(&e.key());
            } else {
                h.insert(e).unwrap();
                oracle.insert(e.key(), e.weight);
            }
        }
        let (ack_tx, ack_rx) = bounded(1);
        c.tx.send(Command::Rebalance(Some(2), ack_tx)).unwrap();
        let report = c.shutdown();
        let image = report.final_snapshot.image();
        let got: BTreeMap<u64, u64> = image.edges().iter().map(|e| (e.key(), e.weight)).collect();
        assert_eq!(got, oracle);
        assert_eq!(report.metrics.worker_errors, 0);
        assert!(
            matches!(ack_rx.recv(), Ok(Ok(_) | Err(ReshardError::Closed))),
            "the rebalance was answered"
        );
    }

    #[test]
    fn metrics_round_trip_through_router() {
        let part = Arc::new(VertexPartition {
            num_vertices: 8,
            num_shards: 2,
        });
        let c = spawn4(part, &[Edge::new(0, 1)]);
        let h = c.handle();
        for i in 0..6u32 {
            h.insert(Edge::new(i % 8, (i + 3) % 8)).unwrap();
        }
        c.epoch_cut().unwrap();
        let m = c.metrics().unwrap();
        assert_eq!(m.num_shards, 2);
        assert_eq!(m.shards.len(), 2);
        assert_eq!(m.ingested(), 6);
        assert_eq!(m.cuts, 1);
        assert!(m.elapsed_secs > 0.0);
        let line = m.to_string();
        assert!(line.contains("cut"), "display: {line}");
        drop(c);
    }

    /// A fresh in-memory checkpoint store.
    fn memory_store() -> Arc<dyn CheckpointStore> {
        Arc::new(MemoryCheckpointStore::new())
    }

    /// `c`'s delta chain from cut `from` replays it exactly to cut `to`.
    fn assert_chain_replays(c: &GraphCluster, from: &ClusterSnapshot, to: &ClusterSnapshot) {
        let DeltaCatchUp::Deltas(chain) = c.deltas_since(from.cut()) else {
            panic!("no delta chain from cut {} to cut {}", from.cut(), to.cut());
        };
        assert_eq!(chain.last().map(|d| d.epoch()), Some(to.cut()));
        let mut replayed = from.to_graph_snapshot();
        for d in &chain {
            replayed = gpma_core::delta::apply_delta(&replayed, d.blind());
        }
        assert_eq!(replayed.edges(), to.image().edges());
    }

    #[test]
    fn a_killed_shard_is_rebuilt_without_a_store() {
        // No checkpoint store: the cut that finds shard 0 silent rebuilds
        // it from its last published image and the router's op log, and
        // reissues the round.
        let part = Arc::new(VertexPartition {
            num_vertices: 16,
            num_shards: 4,
        });
        let c = spawn4(part, &[]);
        let h = c.handle();
        for i in 0..4u32 {
            h.insert(Edge::new(0, 4 + i)).unwrap(); // all on shard 0
        }
        let cut1 = c.epoch_cut().unwrap();
        assert_eq!(cut1.num_edges(), 4);

        // Two more shard-0 edges stay below the flush threshold (4): they
        // sit buffered in the worker when the kill lands, and die with it.
        h.insert(Edge::new(1, 8)).unwrap();
        h.insert(Edge::new(1, 9)).unwrap();
        assert_eq!(c.kill_shard(0), Ok(true));
        assert_eq!(c.kill_shard(9), Ok(false), "out of range is non-fatal");

        // Forwarded to the corpse and dropped; the op log still holds it.
        h.insert(Edge::new(4, 0)).unwrap();
        let cut2 = c.epoch_cut().unwrap();
        for (src, dst) in [(1, 8), (1, 9), (4, 0)] {
            assert!(cut2.image().contains(src, dst), "cut 2 lacks ({src}, {dst})");
        }
        assert_eq!(cut2.num_edges(), 7);
        assert_chain_replays(&c, &cut1, &cut2);
        let m = c.metrics().unwrap();
        assert_eq!(m.recoveries, 1);
        let detect = c.obs().hist(Stage::RecoveryDetect).snapshot();
        assert_eq!(detect.count, m.recoveries, "one detection per rebuilt shard");
        // One error for the out-of-range kill, one for cut 2's missing ack,
        // whose round was reissued once.
        assert_eq!(m.worker_errors, 2);
        assert_eq!(m.delta_fallbacks, 1);
        assert_eq!((m.recovery_snapshot_fallbacks, m.checkpoints_taken), (0, 0));
        let report = c.shutdown();
        assert_eq!(report.metrics.worker_errors, 2, "the shutdown cut meets no corpse");
    }

    #[test]
    fn killed_shard_recovers_from_checkpoint_and_replay() {
        let part = Arc::new(VertexPartition {
            num_vertices: 16,
            num_shards: 4,
        });
        let store = Arc::new(MemoryCheckpointStore::new());
        let c = GraphCluster::spawn(
            ClusterConfig {
                flush_threshold: 4,
                router_batch: 8,
                checkpoints: Some(store.clone()),
                ..Default::default()
            },
            &DeviceConfig::deterministic(),
            part,
            &[Edge::new(0, 1)],
        );
        let h = c.handle();
        for i in 0..4u32 {
            h.insert(Edge::new(0, 4 + i)).unwrap();
        }
        let cut1 = c.epoch_cut().unwrap();
        assert_eq!(cut1.num_edges(), 5);
        assert!(store.len() >= 4, "cut 1 checkpointed every shard");

        // Updates after the checkpoint: some flushed, some residue when the
        // kill lands — recovery must reassemble all of them.
        for i in 0..6u32 {
            h.insert(Edge::new(1, 8 + i)).unwrap();
        }
        assert_eq!(c.kill_shard(0), Ok(true));
        // Traffic to the dead shard is dropped; the cut's barrier finds it
        // silent, and the rebuild replays the log: this burst and the
        // pre-kill residue both.
        h.insert(Edge::new(2, 3)).unwrap();
        h.delete(Edge::new(0, 4)).unwrap();
        let cut2 = c.epoch_cut().unwrap();
        assert!(cut2.image().contains(0, 1));
        assert!(!cut2.image().contains(0, 4), "post-recovery deletes apply");
        for i in 0..6u32 {
            assert!(cut2.image().contains(1, 8 + i), "killed updates recovered");
        }
        assert!(cut2.image().contains(2, 3));
        assert_eq!(cut2.num_edges(), 1 + 3 + 6 + 1);

        let m = c.metrics().unwrap();
        assert_eq!(m.recoveries, 1);
        assert!(m.recovery_replayed_updates >= 6, "{m}");
        assert!(m.checkpoints_taken >= 9, "4 at cut1 + 1 post-recovery + 4 at cut2");
        assert!(m.checkpoint_bytes > 0);
        assert!(m.recovery_secs > 0.0);

        // The cut spanning the crash still publishes an exact delta: the
        // recovered shard holds exactly what the router forwarded to it,
        // which is what the router's op log recorded.
        assert_chain_replays(&c, &cut1, &cut2);
        assert_eq!(m.delta_fallbacks, 1, "cut 2's round was reissued once");
        c.shutdown();
    }

    #[test]
    fn a_shard_dying_behind_its_barrier_keeps_the_delta_chain_exact() {
        for store in [false, true] {
            let part = Arc::new(VertexPartition {
                num_vertices: 16,
                num_shards: 4,
            });
            let c = GraphCluster::spawn(
                ClusterConfig {
                    flush_threshold: 64,
                    router_batch: 8,
                    checkpoints: store.then(memory_store),
                    ..Default::default()
                },
                &DeviceConfig::deterministic(),
                part,
                &[Edge::new(0, 1)],
            );
            let h = c.handle();
            for i in 0..4u32 {
                h.insert(Edge::new(0, 4 + i)).unwrap();
            }
            let cut1 = c.epoch_cut().unwrap();

            // Shard 0 dies on reaching cut 2's barrier, with this burst
            // still buffered below its flush threshold: the round is
            // reissued on a shard rebuilt from the op log, so cut 2 itself
            // holds all of it.
            assert_eq!(c.kill_shard_at_next_barrier(0), Ok(true));
            h.insert(Edge::new(1, 8)).unwrap();
            h.insert(Edge::new(1, 9)).unwrap();
            h.delete(Edge::new(0, 4)).unwrap();
            h.insert(Edge::new(4, 0)).unwrap();
            let cut2 = c.epoch_cut().unwrap();
            let image2 = cut2.image();
            assert!(
                image2.contains(1, 8) && image2.contains(1, 9) && !image2.contains(0, 4),
                "store {store}: cut 2 lacks what shard 0 died holding"
            );
            assert!(image2.contains(4, 0));
            assert_eq!(cut2.cut(), cut1.cut() + 1, "the reissue keeps the cut number");
            assert_chain_replays(&c, &cut1, &cut2);
            let m = c.metrics().unwrap();
            assert_eq!(
                (m.recoveries, m.delta_fallbacks, m.worker_errors),
                (1, 1, 1),
                "store {store}"
            );
            c.shutdown();
        }
    }

    #[test]
    fn a_shard_killed_mid_stream_rejoins_exactly() {
        let part = Arc::new(HashVertexPartition {
            num_vertices: 32,
            num_shards: 4,
        });
        let c = GraphCluster::spawn(
            ClusterConfig {
                flush_threshold: 4,
                router_batch: 8,
                checkpoints: Some(memory_store()),
                ..Default::default()
            },
            &DeviceConfig::deterministic(),
            part,
            &[],
        );
        let h = c.handle();
        for i in 0..32u32 {
            h.insert(Edge::new(i, (i + 1) % 32)).unwrap();
            if i == 11 {
                assert_eq!(c.kill_shard(1), Ok(true));
            }
        }
        let snap = c.epoch_cut().unwrap();
        assert_eq!(snap.num_edges(), 32, "no update lost across the injected crash");
        for i in 0..32u32 {
            assert!(snap.image().contains(i, (i + 1) % 32));
        }
        let report = c.shutdown();
        assert_eq!(report.metrics.recoveries, 1, "the plan fires exactly once");
    }

    #[test]
    fn a_reader_never_sees_a_cut_without_its_delta() {
        let c = spawn4(
            Arc::new(HashVertexPartition {
                num_vertices: 32,
                num_shards: 2,
            }),
            &[],
        );
        c.epoch_cut().unwrap();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = c.snapshot();
                    if let DeltaCatchUp::Deltas(chain) = c.deltas_since(snap.cut() - 1) {
                        let head = chain.last().map(|d| d.epoch());
                        assert!(
                            head >= Some(snap.cut()),
                            "cut {} visible before its delta (chain head {head:?})",
                            snap.cut()
                        );
                    }
                    reads += 1;
                }
                reads
            });
            let h = c.handle();
            for i in 0..1000u32 {
                h.insert(Edge::new(i % 32, (i * 7 + 1) % 32)).unwrap();
                c.epoch_cut().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
            assert!(reader.join().unwrap() > 0);
        });
        c.shutdown();
    }

    /// Producers flood tiny queues while another thread cuts in a loop: the
    /// router blocks in `forward` on full shard queues and the workers'
    /// `Wake`s find its own queue full, yet every cut must complete. A
    /// watchdog fails the run on a stalled cut instead of hanging, and the
    /// final cut must equal the oracle.
    #[test]
    fn cuts_complete_while_producers_saturate_every_queue() {
        use std::time::{Duration, Instant};
        const PRODUCERS: u32 = 3;
        const OPS: u32 = 400;
        let c = Arc::new(GraphCluster::spawn(
            ClusterConfig {
                queue_capacity: 4,
                shard_queue_capacity: 2,
                flush_threshold: 1,
                router_batch: 8,
                ..Default::default()
            },
            &DeviceConfig::deterministic(),
            Arc::new(HashVertexPartition {
                num_vertices: 64,
                num_shards: 2,
            }),
            &[],
        ));
        // Producer p owns sources p, p + PRODUCERS, ...: disjoint keys, so
        // the oracle does not depend on how the producers interleave.
        let op = |p: u32, i: u32| {
            let e = Edge::new(p + PRODUCERS * (i % 7), (i * 13 + p) % 64);
            (i % 5 == 4, e)
        };
        let mut oracle = BTreeMap::new();
        for p in 0..PRODUCERS {
            for i in 0..OPS {
                match op(p, i) {
                    (true, e) => oracle.remove(&e.key()),
                    (false, e) => oracle.insert(e.key(), e),
                };
            }
        }
        // When the cut in progress started (None: no cut in progress).
        let cutting: Arc<Mutex<Option<Instant>>> = Arc::default();
        let producing = Arc::new(AtomicU64::new(u64::from(PRODUCERS)));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let (h, producing) = (c.handle(), producing.clone());
                std::thread::spawn(move || {
                    for i in 0..OPS {
                        match op(p, i) {
                            (true, e) => h.delete(e).unwrap(),
                            (false, e) => h.insert(e).unwrap(),
                        }
                    }
                    producing.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        let cutter = {
            let (c, cutting, producing) = (c.clone(), cutting.clone(), producing.clone());
            std::thread::spawn(move || {
                let mut cuts = 0u64;
                loop {
                    let last = producing.load(Ordering::SeqCst) == 0;
                    *cutting.lock() = Some(Instant::now());
                    let snap = c.epoch_cut().unwrap();
                    *cutting.lock() = None;
                    cuts += 1;
                    if last {
                        return (cuts, snap);
                    }
                }
            })
        };
        while !cutter.is_finished() {
            let stalled = cutting.lock().is_some_and(|t0| t0.elapsed() > Duration::from_secs(5));
            // Panicking leaves the stuck threads behind rather than joining
            // them: the run fails instead of hanging.
            assert!(!stalled, "a cut stalled for 5 s under saturated queues");
            std::thread::sleep(Duration::from_millis(10));
        }
        for p in producers {
            p.join().unwrap();
        }
        let (cuts, last) = cutter.join().unwrap();
        assert!(cuts > 1);
        let want: Vec<Edge> = oracle.into_values().collect();
        assert_eq!(last.num_edges(), want.len(), "no key on two shards");
        assert_eq!(last.image().edges().to_vec(), want);
    }

    /// Vertex ranges that park the router at `gate` on the first placement
    /// lookup after `armed` is set — of any edge, or of the key in
    /// `park_on` only — so a test can queue commands behind the update the
    /// router is routing, or the swap it is in.
    struct Parking {
        inner: VertexPartition,
        armed: AtomicBool,
        /// The key whose lookup parks (`u64::MAX`: any key).
        park_on: AtomicU64,
        gate: std::sync::Barrier,
    }

    impl Partitioner for Parking {
        fn name(&self) -> &str {
            "parking-range"
        }
        fn num_shards(&self) -> usize {
            self.inner.num_shards
        }
        fn num_vertices(&self) -> u32 {
            self.inner.num_vertices
        }
        fn shard_of_edge(&self, src: u32, dst: u32) -> usize {
            let key = self.park_on.load(Ordering::SeqCst);
            if (key == u64::MAX || key == Edge::new(src, dst).key())
                && self.armed.swap(false, Ordering::SeqCst)
            {
                self.gate.wait(); // the router is parked
                self.gate.wait(); // carry on
            }
            self.inner.shard_of_edge(src, dst)
        }
        fn home_of_vertex(&self, v: u32) -> usize {
            self.inner.home_of_vertex(v)
        }
        fn stores_row(&self, shard: usize, v: u32) -> bool {
            self.inner.stores_row(shard, v)
        }
    }

    /// Which shard [`dual_write_reshard`] kills, and when.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Crash {
        /// No kill.
        None,
        /// Source shard 1 dies at the copy round's barrier, armed before
        /// the reshard.
        SourceBeforeAck,
        /// Destination shard 3, whose one edge is a copy, dies after the
        /// swap and before the marker.
        DestinationAfterSwap,
        /// Destination shard 3 dies at the marker round's barrier with an
        /// update routed to it in the retire window still buffered: the
        /// marker round is reissued on a rebuilt shard 3 that holds it.
        AtMarker,
    }

    /// Reshard 2 → 4 vertex ranges (owner `src / 8` → `src / 4`) with
    /// updates the router routes — mirrored — after the copy's barriers
    /// and before it reads their acks, because they queue behind the
    /// `Reshard` command while the router is parked. The marker cut and the
    /// cut after it must both hold the expected table, and the delta from
    /// the one to the other replay exactly. `store` sets a checkpoint store.
    fn dual_write_reshard(crash: Crash, store: bool) {
        use std::time::Duration;
        let old = Arc::new(Parking {
            inner: VertexPartition {
                num_vertices: 16,
                num_shards: 2,
            },
            armed: AtomicBool::new(false),
            park_on: AtomicU64::new(u64::MAX),
            gate: std::sync::Barrier::new(2),
        });
        let new = Arc::new(Parking {
            inner: VertexPartition {
                num_vertices: 16,
                num_shards: 4,
            },
            armed: AtomicBool::new(false),
            park_on: AtomicU64::new(u64::MAX),
            gate: std::sync::Barrier::new(2),
        });
        let initial = [
            Edge::new(0, 1),
            Edge::new(4, 1),
            Edge::new(5, 1),
            Edge::new(6, 1),
            Edge::new(12, 3),
        ];
        let c = GraphCluster::spawn(
            ClusterConfig {
                flush_threshold: 4,
                router_batch: 64,
                checkpoints: store.then(memory_store),
                ..Default::default()
            },
            &DeviceConfig::deterministic(),
            old.clone(),
            &initial,
        );
        let h = c.handle();
        if crash == Crash::SourceBeforeAck {
            assert_eq!(c.kill_shard_at_next_barrier(1), Ok(true));
        }
        old.armed.store(true, Ordering::SeqCst);
        h.insert(Edge::new(0, 2)).unwrap(); // stays on shard 0
        old.gate.wait();
        let (ack_tx, ack_rx) = bounded(1);
        c.tx.send(Command::Reshard(new.clone(), ack_tx)).unwrap();
        h.delete(Edge::new(4, 1)).unwrap(); // moving, in its source's image
        h.insert(Edge::weighted(5, 1, 9)).unwrap(); // weight upsert of a mover
        h.insert(Edge::new(9, 2)).unwrap(); // a new moving key ...
        h.delete(Edge::new(9, 2)).unwrap(); // ... inserted, then deleted
        let kill = |at_barrier| {
            let (kill_tx, kill_rx) = bounded(1);
            c.tx.send(Command::Kill {
                shard: 3,
                at_barrier,
                ack: kill_tx,
            })
            .unwrap();
            kill_rx
        };
        let mut killed = None;
        if matches!(crash, Crash::DestinationAfterSwap | Crash::AtMarker) {
            // Park again inside the swap, on the retraction of (12, 3).
            old.park_on.store(Edge::new(12, 3).key(), Ordering::SeqCst);
            old.armed.store(true, Ordering::SeqCst);
            old.gate.wait();
            old.gate.wait();
        }
        if crash == Crash::DestinationAfterSwap {
            // The router serves the kill once the swap is done, before the
            // retire round is answered.
            killed = Some(kill(false));
        }
        if crash == Crash::AtMarker {
            // Queue an update to shard 3 that parks the router once it is
            // routed under the new plan: in the retire window. The sleep
            // lets every copy-round `Wake` land in the queue ahead of it.
            std::thread::sleep(Duration::from_millis(50));
            new.park_on.store(Edge::new(13, 1).key(), Ordering::SeqCst);
            new.armed.store(true, Ordering::SeqCst);
            h.insert(Edge::new(13, 1)).unwrap();
            old.gate.wait(); // the swap issues the retire round
            new.gate.wait(); // parked routing (13, 1)
            // Each shard's retire answer rings the router once. With all
            // four in, shard 3 is past the retire barrier, and the next
            // barrier it reaches is the marker's.
            while h.queue_depth() < 4 {
                std::thread::yield_now();
            }
            killed = Some(kill(true));
            new.gate.wait();
        } else {
            old.gate.wait();
        }
        if let Some(kill_rx) = killed {
            assert!(
                kill_rx.recv().unwrap(),
                "shard 3 killed in the retire window"
            );
        }
        let report = ack_rx.recv().unwrap().unwrap();
        // The live moved set: (5, 1) reweighted, (6, 1) and (12, 3) copied.
        assert_eq!(report.migrated_edges, 3);
        assert_eq!(report.to_shards, 4);

        let marker = c.snapshot();
        assert_eq!(marker.cut(), report.cut);
        let next = c.epoch_cut().unwrap();
        // (src, dst, weight, owner under the new plan).
        let expect = [
            (0, 1, 1, 0),
            (0, 2, 1, 0),
            (5, 1, 9, 1),
            (6, 1, 1, 1),
            (12, 3, 1, 3),
        ];
        // What shard 3 died holding at the marker, rebuilt into it.
        let recovered = (crash == Crash::AtMarker).then_some((13, 1, 1, 3));
        let expect: Vec<_> = expect.into_iter().chain(recovered).collect();
        for snap in [&marker, &next] {
            assert_eq!(snap.num_edges(), expect.len(), "cut {} (store {store})", snap.cut());
            for &(src, dst, w, owner) in &expect {
                for (i, shard) in snap.shards().iter().enumerate() {
                    assert_eq!(
                        shard.weight(src, dst),
                        (i == owner).then_some(w),
                        "({src}, {dst}) on shard {i} at cut {} (store {store})",
                        snap.cut()
                    );
                }
            }
        }
        assert_chain_replays(&c, &marker, &next);
        let m = c.metrics().unwrap();
        assert_eq!(m.migrated_edges, 3);
        // A kill leaves one round unanswered: one error, one rebuild, one
        // reissue.
        let killed = u64::from(crash != Crash::None);
        assert_eq!(
            (m.worker_errors, m.recoveries, m.delta_fallbacks),
            (killed, killed, killed),
            "store {store}"
        );
        c.shutdown();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A shard rebuilt from a base taken anywhere between its last save
        /// and now, plus the deltas since that save, equals the sequential
        /// oracle filtered to the shard — under a plain plan and inside a
        /// copy window whose moved keys are the keys a random subset of the
        /// updates since the save touched.
        #[test]
        fn rebuild_matches_the_sequential_oracle(
            ops in prop::collection::vec((0u8..3, 0u32..12, 0u32..12, 1u64..5), 0..80),
            points in (0usize..81, 0usize..81, 0usize..81),
            mirrored in prop::collection::vec((0usize..80, any::<bool>()), 0..10),
            shard in 0usize..4,
            window in any::<bool>(),
            base_mirrors in any::<bool>(),
        ) {
            let edge = |(_, s, d, w): (u8, u32, u32, u64)| Edge::weighted(s, d, w);
            let oracle_at = |n: usize| {
                let mut g = BTreeMap::new();
                for &op in &ops[..n] {
                    match op.0 {
                        0 => g.remove(&edge(op).key()),
                        _ => g.insert(edge(op).key(), edge(op)),
                    };
                }
                g
            };
            // save <= base <= fold <= now: the base image may postdate the
            // save, and a cut folded the op log in between.
            let n = ops.len() + 1;
            let mut p = [points.0 % n, points.1 % n, points.2 % n];
            p.sort_unstable();
            let [save, base_at, fold_at] = p;
            let plan = HashVertexPartition { num_vertices: 12, num_shards: 3 };
            let new = VertexPartition { num_vertices: 12, num_shards: 4 };
            let moved: BTreeMap<u64, bool> = mirrored
                .iter()
                .filter(|(at, _)| save + at < ops.len())
                .map(|&(at, live)| (edge(ops[save + at]).key(), live))
                .collect();
            // The shard holds what the plan routes to it, and in a copy
            // window the moved keys the new plan gives it; a base taken
            // before the window opened lacks the latter.
            let holds = |e: &Edge, mirrors: bool| {
                plan.shard_of_edge(e.src, e.dst) == shard
                    || (mirrors
                        && moved.contains_key(&e.key())
                        && new.shard_of_edge(e.src, e.dst) == shard)
            };
            let base: Vec<Edge> = oracle_at(base_at)
                .into_values()
                .filter(|e| holds(e, window && base_mirrors))
                .collect();
            let base = GraphSnapshot::from_edges(0, 12, base);

            let mut log = OpLog::default();
            let mut since = SnapshotDelta::default();
            for (i, &op) in ops.iter().enumerate().skip(save) {
                if i == fold_at {
                    since = log.fold(0);
                }
                match op.0 {
                    0 => log.delete(edge(op)),
                    _ => log.insert(edge(op)),
                }
            }
            since.merge(&log.peek());
            let mirror = window.then_some((&new as &dyn Partitioner, &moved));
            let got = rebuild_shard(&base, &since, owned_by(shard, &plan, mirror));
            let want: Vec<Edge> = oracle_at(ops.len())
                .into_values()
                .filter(|e| holds(e, window))
                .collect();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn updates_routed_in_the_copy_window_reach_their_new_owner() {
        dual_write_reshard(Crash::None, false);
        dual_write_reshard(Crash::None, true);
    }

    #[test]
    fn a_source_killed_before_it_acks_is_recovered_and_copied() {
        dual_write_reshard(Crash::SourceBeforeAck, false);
        dual_write_reshard(Crash::SourceBeforeAck, true);
    }

    #[test]
    fn a_destination_killed_after_the_swap_is_rebuilt_with_its_copies() {
        dual_write_reshard(Crash::DestinationAfterSwap, false);
        dual_write_reshard(Crash::DestinationAfterSwap, true);
    }

    #[test]
    fn a_shard_dying_at_the_marker_barrier_is_rebuilt_into_the_marker() {
        dual_write_reshard(Crash::AtMarker, false);
        dual_write_reshard(Crash::AtMarker, true);
    }
}
