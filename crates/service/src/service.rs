//! The service runtime: ingest handles, the worker thread that drains the
//! queue into the framework's [`GraphStreamBuffer`], delta + image
//! publication and the shutdown protocol.
//!
//! [`GraphStreamBuffer`]: gpma_core::framework::GraphStreamBuffer

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError, TrySendError};
use gpma_core::delta::{DeltaCatchUp, DeltaLog, SnapshotDelta};
use gpma_core::framework::{DynamicGraphSystem, GraphSnapshot};
use gpma_graph::{Edge, UpdateBatch};
use gpma_obs::{EventKind, Registry as ObsRegistry, Stage, NO_SHARD};
use gpma_sim::ServiceCounters;
use parking_lot::Mutex;


use crate::metrics::{PublicationStats, ServiceMetrics};

/// Tuning knobs for a [`StreamingService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Capacity of the bounded ingest queue (in commands, each carrying one
    /// update or one batch). Blocking producers stall when it is full —
    /// that is the backpressure policy; the non-blocking `offer_*` path
    /// drops instead and counts the drop.
    pub queue_capacity: usize,
    /// Epoch deltas retained for reader catch-up
    /// ([`StreamingService::deltas_since`]). A reader that lags past the
    /// ring falls back to a full snapshot. Clamped to at least 1.
    pub delta_log_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 1024,
            delta_log_capacity: 1024,
        }
    }
}

/// Error returned by every handle operation once the service worker has
/// exited (after [`StreamingService::shutdown`] or a worker panic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceClosed;

impl std::fmt::Display for ServiceClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the streaming service has shut down")
    }
}

impl std::error::Error for ServiceClosed {}

/// The answer to one barrier: a callback the service calls exactly once,
/// with the image the barrier's flush published, or with `None` when the
/// barrier is never served — the worker died at it or before reaching it,
/// or the service was already closed. `Drop` is what sends the `None`, so
/// no path can lose an answer. The callback runs on whichever thread lets
/// go of the ack (usually the worker): keep it short and non-blocking.
pub struct BarrierAck(Option<AckFn>);

type AckFn = Box<dyn FnOnce(Option<Arc<GraphSnapshot>>) + Send>;

impl BarrierAck {
    /// Wrap the callback the barrier's answer goes to.
    pub fn new(f: impl FnOnce(Option<Arc<GraphSnapshot>>) + Send + 'static) -> Self {
        BarrierAck(Some(Box::new(f)))
    }

    fn answer(mut self, image: Arc<GraphSnapshot>) {
        if let Some(f) = self.0.take() {
            f(Some(image));
        }
    }
}

impl Drop for BarrierAck {
    fn drop(&mut self) {
        if let Some(f) = self.0.take() {
            f(None);
        }
    }
}

/// Commands flowing through the bounded ingest queue to the worker.
enum Command {
    /// Updates; a single edge travels as a one-edge batch.
    Batch(UpdateBatch),
    /// Flush all residue and ack with the published image.
    Barrier(BarrierAck),
    /// Run a closure against the live system, serialized with updates
    /// (Figure 1's dynamic query buffer). The closure carries its own
    /// reply channel.
    AdHoc(Box<dyn FnOnce(&DynamicGraphSystem) + Send>),
    /// Drain everything still queued, final-flush, publish, exit.
    Shutdown,
    /// Fault injection: ack, then exit *immediately* — no drain, no final
    /// flush. Buffered residue and queued commands are lost, modeling a
    /// worker crash while the shared state (last published snapshot + delta
    /// ring) survives in the front object for recovery.
    Crash(Sender<()>),
}

/// State shared between producers, the worker, and the front object.
///
/// Producer-side counters are lock-free atomics so the per-edge ingest hot
/// path never contends on the metrics mutex (which would serialize exactly
/// the multi-producer scaling the facade exists to provide); the mutex
/// guards only the worker-side flush accounting.
struct Shared {
    counters: Mutex<ServiceCounters>,
    /// Insertions accepted into the queue (producer-side, lock-free).
    ingested_inserts: AtomicU64,
    /// Deletions accepted into the queue (producer-side, lock-free).
    ingested_deletes: AtomicU64,
    /// Updates shed by the non-blocking offer path (producer-side).
    dropped_updates: AtomicU64,
    /// Snapshot queries served (reader-side).
    queries: AtomicU64,
    /// High-water mark of the queue depth the worker observed (sampled on
    /// every popped command, so it must not take the metrics mutex).
    max_queue_depth: AtomicU64,
    /// What readers see. One lock over both halves, and the worker stores
    /// a flush's image and delta in one acquisition, so the image is always
    /// at the ring head for every reader.
    published: Mutex<Published>,
    /// Modeled bytes shipped by delta publication (O(|Δ|) per epoch).
    delta_bytes: AtomicU64,
    /// Modeled bytes of the row blocks image publication wrote.
    snapshot_bytes: AtomicU64,
    /// Errors the worker thread recovered from instead of panicking (a
    /// published image that diverged from the store); surfaced as
    /// [`ServiceMetrics::worker_errors`].
    worker_errors: AtomicU64,
    /// Armed by [`StreamingService::crash_at_next_barrier`]: the worker
    /// dies at the next barrier it reaches instead of answering it.
    crash_at_barrier: AtomicBool,
    /// The telemetry hub (DESIGN.md §13): per-stage latency histograms and
    /// the structured-event ring. A cluster passes one shared registry to
    /// every shard service so flush-stage histograms aggregate
    /// cluster-wide; a standalone service owns its own.
    obs: Arc<ObsRegistry>,
    /// Shard tag for timeline events ([`gpma_obs::NO_SHARD`] standalone).
    obs_shard: u32,
    started: Instant,
}

/// The publication state of a service: the latest image and the ring of
/// epoch deltas that led to it.
struct Published {
    /// Swapped whole, so readers hold the lock for an `Arc` clone. Only the
    /// worker advances it.
    image: Arc<GraphSnapshot>,
    /// Published epoch deltas retained for reader catch-up; its head is
    /// `image`'s epoch.
    log: DeltaLog,
    /// The image before `image`, kept where barriers check the ring's head
    /// against the two ([`CROSS_CHECK`]).
    previous: Option<Arc<GraphSnapshot>>,
}

/// Whether every barrier re-reads the store and checks the published image
/// and the ring's head delta (debug builds and the `audit` feature);
/// release builds check the image at shutdown only.
const CROSS_CHECK: bool = cfg!(any(debug_assertions, feature = "audit"));

impl Shared {
    fn latest(&self) -> Arc<GraphSnapshot> {
        self.published.lock().image.clone()
    }

    fn publication_stats(&self) -> PublicationStats {
        PublicationStats {
            delta_bytes: self.delta_bytes.load(Ordering::Relaxed),
            snapshot_bytes: self.snapshot_bytes.load(Ordering::Relaxed),
        }
    }

    /// Merge the lock-free producer/reader counters into a counters copy.
    fn counters_snapshot(&self) -> ServiceCounters {
        let mut c = self.counters.lock().clone();
        c.ingested_inserts = self.ingested_inserts.load(Ordering::Relaxed);
        c.ingested_deletes = self.ingested_deletes.load(Ordering::Relaxed);
        c.dropped_updates = self.dropped_updates.load(Ordering::Relaxed);
        c.queries = self.queries.load(Ordering::Relaxed);
        c.max_queue_depth = self.max_queue_depth.load(Ordering::Relaxed) as usize;
        c
    }

    /// Record an observed queue depth (lock-free high-water mark).
    fn observe_queue_depth(&self, depth: usize) {
        self.max_queue_depth.fetch_max(depth as u64, Ordering::Relaxed);
    }
}

/// A cloneable producer handle feeding the service's bounded ingest queue.
///
/// The blocking methods ([`insert`](Self::insert), [`delete`](Self::delete),
/// [`ingest`](Self::ingest)) park the producer while the queue is full —
/// backpressure. The non-blocking `offer_*` variants return `Ok(false)`
/// instead and count the update as dropped in [`ServiceMetrics`].
#[derive(Clone)]
pub struct IngestHandle {
    tx: Sender<Command>,
    shared: Arc<Shared>,
}

impl IngestHandle {
    /// Stream one edge insertion, blocking while the queue is full.
    ///
    /// Updates from one handle are applied in arrival order: an insertion
    /// followed by a [`delete`](Self::delete) of the same edge nets to
    /// *absent*, regardless of flush-batch boundaries.
    pub fn insert(&self, e: Edge) -> Result<(), ServiceClosed> {
        self.ingest(UpdateBatch::single_insert(e))
    }

    /// Stream one edge deletion, blocking while the queue is full.
    pub fn delete(&self, e: Edge) -> Result<(), ServiceClosed> {
        self.ingest(UpdateBatch::single_delete(e))
    }

    /// Stream a pre-assembled batch, blocking while the queue is full.
    ///
    /// The framework's sliding-window convention applies *inside* the
    /// batch: its deletions apply before its insertions, so deleting and
    /// re-inserting the same edge in one batch nets to *present* in the
    /// final state. Across separately sent commands, arrival order wins
    /// (see [`Self::insert`]).
    ///
    /// Visibility caveat: a batch larger than the system's flush threshold
    /// is applied across several flushes, each publishing a snapshot, so
    /// readers can observe *intermediate* epochs where only part of the
    /// batch has landed (the final state is unaffected). For all-or-nothing
    /// epoch visibility keep batches within the flush threshold.
    pub fn ingest(&self, batch: UpdateBatch) -> Result<(), ServiceClosed> {
        let span = self.shared.obs.span(Stage::IngestEnqueue);
        if self.enqueue_batch(batch).is_err() {
            span.cancel();
            return Err(ServiceClosed);
        }
        Ok(())
    }

    /// [`Self::ingest`] without the `ingest.enqueue` latency sample.
    ///
    /// Internal traffic — the cluster router's forwards, reshard migration
    /// shipments, recovery replays — goes through here so the ingest
    /// histogram measures only what external producers experience (the
    /// router's own `router.forward` span already times these sends).
    pub fn ingest_unmetered(&self, batch: UpdateBatch) -> Result<(), ServiceClosed> {
        self.enqueue_batch(batch)
    }

    fn enqueue_batch(&self, batch: UpdateBatch) -> Result<(), ServiceClosed> {
        let (ins, del) = (batch.insertions.len() as u64, batch.deletions.len() as u64);
        self.tx
            .send(Command::Batch(batch))
            .map_err(|_| ServiceClosed)?;
        self.shared.ingested_inserts.fetch_add(ins, Ordering::Relaxed);
        self.shared.ingested_deletes.fetch_add(del, Ordering::Relaxed);
        Ok(())
    }

    /// Non-blocking batch ingest — the load-shedding policy for producers
    /// that must not stall: the whole batch is accepted or shed as one unit
    /// (`Ok(false)` counts every contained update as dropped).
    /// All-or-nothing by construction — a batch travels as a single queue
    /// slot, so partial shedding is impossible. This is the ingest path a
    /// quota-metered serving front uses: it must never stall a tenant.
    pub fn offer_batch(&self, batch: UpdateBatch) -> Result<bool, ServiceClosed> {
        let (ins, del) = (batch.insertions.len() as u64, batch.deletions.len() as u64);
        match self.tx.try_send(Command::Batch(batch)) {
            Ok(()) => {
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
            Err(TrySendError::Disconnected(_)) => Err(ServiceClosed),
        }
    }

    /// Commands currently queued (a racy snapshot, useful for pacing).
    pub fn queue_depth(&self) -> usize {
        self.tx.len()
    }
}

/// Final accounting returned by [`StreamingService::shutdown`].
pub struct ServiceReport {
    /// The framework system, handed back for post-mortem inspection or
    /// continued single-threaded use.
    pub system: DynamicGraphSystem,
    /// The final state, read back from the store at shutdown — not the
    /// delta-advanced image the worker published. The two are compared and
    /// a divergence counts in [`ServiceMetrics::worker_errors`], so checking
    /// this against an oracle checks the device store end to end.
    pub final_snapshot: Arc<GraphSnapshot>,
    /// Metrics frozen at shutdown.
    pub metrics: ServiceMetrics,
}

/// The concurrent streaming facade over [`DynamicGraphSystem`].
///
/// Spawning moves the system onto a dedicated worker thread; producers feed
/// it through cloneable [`IngestHandle`]s over a bounded queue, and readers
/// consume the epoch-stamped [`GraphSnapshot`] image the worker advances
/// by every flush's delta. See the crate docs for the architecture diagram
/// and a runnable end-to-end example.
pub struct StreamingService {
    tx: Sender<Command>,
    worker: Option<JoinHandle<DynamicGraphSystem>>,
    shared: Arc<Shared>,
}

impl StreamingService {
    /// Spawn the service over a pre-assembled system ([`Monitor`]s already
    /// registered). The system's stream-buffer threshold becomes the flush
    /// batch size.
    ///
    /// [`Monitor`]: gpma_core::framework::Monitor
    pub fn spawn(cfg: ServiceConfig, system: DynamicGraphSystem) -> Self {
        Self::spawn_instrumented(cfg, system, Arc::new(ObsRegistry::new()), NO_SHARD)
    }

    /// Like [`Self::spawn`] but recording pipeline-stage telemetry into a
    /// caller-supplied [`gpma_obs::Registry`], tagging timeline events with
    /// `shard`.
    ///
    /// This is how `gpma-cluster` gives all its shard workers one shared
    /// registry, so flush-stage histograms aggregate cluster-wide and
    /// survive shard respawns. Standalone callers normally use
    /// [`Self::spawn`], which allocates a private registry (reachable via
    /// [`Self::obs`]).
    pub fn spawn_instrumented(
        cfg: ServiceConfig,
        system: DynamicGraphSystem,
        obs: Arc<ObsRegistry>,
        shard: u32,
    ) -> Self {
        let (tx, rx) = bounded(cfg.queue_capacity.max(1));
        let initial = Arc::new(system.snapshot());
        let delta_log_capacity = cfg.delta_log_capacity.max(1);
        let shared = Arc::new(Shared {
            counters: Mutex::new(ServiceCounters::default()),
            ingested_inserts: AtomicU64::new(0),
            ingested_deletes: AtomicU64::new(0),
            dropped_updates: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
            published: Mutex::new(Published {
                image: initial,
                log: DeltaLog::new(delta_log_capacity),
                previous: None,
            }),
            delta_bytes: AtomicU64::new(0),
            snapshot_bytes: AtomicU64::new(0),
            worker_errors: AtomicU64::new(0),
            crash_at_barrier: AtomicBool::new(false),
            obs,
            obs_shard: shard,
            started: Instant::now(),
        });

        let worker_shared = shared.clone();
        let worker = std::thread::Builder::new()
            .name("gpma-service-worker".into())
            .spawn(move || run_worker(rx, system, worker_shared))
            .expect("spawn service worker thread");

        StreamingService {
            tx,
            worker: Some(worker),
            shared,
        }
    }

    /// A new producer handle; clone freely across threads.
    pub fn handle(&self) -> IngestHandle {
        IngestHandle {
            tx: self.tx.clone(),
            shared: self.shared.clone(),
        }
    }

    /// The latest published image (epoch-stamped, immutable, cheap to
    /// clone): the state as of the last completed flush. Never blocks on
    /// the worker beyond an `Arc` swap.
    pub fn snapshot(&self) -> Arc<GraphSnapshot> {
        self.shared.queries.fetch_add(1, Ordering::Relaxed);
        self.shared.latest()
    }

    /// Catch a delta reader up from `epoch`: the missing delta chain when
    /// the ring still covers it, or a full-snapshot rebase when the reader
    /// lagged past [`ServiceConfig::delta_log_capacity`] epochs. Never
    /// blocks on the worker beyond the publication lock.
    pub fn deltas_since(&self, epoch: u64) -> DeltaCatchUp<Arc<GraphSnapshot>> {
        let published = self.shared.published.lock();
        match published.log.deltas_since(epoch) {
            Some(chain) => DeltaCatchUp::Deltas(chain),
            None => DeltaCatchUp::Snapshot(published.image.clone()),
        }
    }

    /// Run an ad-hoc read against the latest snapshot — the concurrent
    /// query path: updates keep flowing while `f` runs.
    pub fn query<R>(&self, f: impl FnOnce(&GraphSnapshot) -> R) -> R {
        f(&self.snapshot())
    }

    /// Epoch of the latest published snapshot.
    pub fn latest_epoch(&self) -> u64 {
        self.shared.latest().epoch()
    }

    /// Flush everything enqueued *before* this call and return the snapshot
    /// the flush produced. On return, every update previously accepted by
    /// any handle is reflected in the snapshot (updates enqueued
    /// concurrently by other producers may be included too).
    pub fn barrier(&self) -> Result<Arc<GraphSnapshot>, ServiceClosed> {
        let (ack_tx, ack_rx) = bounded(1);
        self.barrier_with(BarrierAck::new(move |image| {
            let _ = ack_tx.send(image);
        }));
        ack_rx.recv().ok().flatten().ok_or(ServiceClosed)
    }

    /// Enqueue a [`Self::barrier`] behind every update already accepted and
    /// return at once: `ack` gets the flushed image when the worker gets
    /// there, or `None` if it never will. A coordinator over several
    /// services issues one per service and collects the answers as events
    /// instead of serialising full barriers — the cluster's cut path.
    pub fn barrier_with(&self, ack: BarrierAck) {
        // A closed service hands the command back, and dropping it answers
        // `None`.
        let _ = self.tx.send(Command::Barrier(ack));
    }

    /// Run a closure against the *live* system, serialized with updates on
    /// the worker thread (Figure 1's dynamic query buffer). Blocks until the
    /// worker reaches the command; buffered-but-unflushed updates are not
    /// yet visible. Prefer [`Self::query`] for reads that can tolerate
    /// snapshot staleness — it never queues behind updates.
    pub fn ad_hoc<R, F>(&self, f: F) -> Result<R, ServiceClosed>
    where
        R: Send + 'static,
        F: FnOnce(&DynamicGraphSystem) -> R + Send + 'static,
    {
        let (reply_tx, reply_rx) = bounded(1);
        self.tx
            .send(Command::AdHoc(Box::new(move |sys: &DynamicGraphSystem| {
                let _ = reply_tx.send(f(sys));
            })))
            .map_err(|_| ServiceClosed)?;
        reply_rx.recv().map_err(|_| ServiceClosed)
    }

    /// Fault injection: order the worker thread to die *without* draining
    /// or flushing, then wait until it has actually exited. Afterwards every
    /// [`IngestHandle`] and control call observes [`ServiceClosed`], while
    /// the last published snapshot and the delta ring stay readable through
    /// the front object — exactly the state a recovery coordinator has to
    /// work from. Test/chaos hook; there is no way to un-crash a service
    /// short of spawning a new one from its last image.
    pub fn inject_failure(&self) -> Result<(), ServiceClosed> {
        let (ack_tx, ack_rx) = bounded(1);
        self.tx
            .send(Command::Crash(ack_tx))
            .map_err(|_| ServiceClosed)?;
        ack_rx.recv().map_err(|_| ServiceClosed)?;
        // The ack is sent just before the worker returns; spin the last few
        // instructions out so post-return behavior is deterministic (every
        // subsequent send fails once the receiver is dropped).
        while self.worker.as_ref().is_some_and(|w| !w.is_finished()) {
            std::thread::yield_now();
        }
        Ok(())
    }

    /// Fault injection: the worker dies, as under [`Self::inject_failure`],
    /// when it next reaches a barrier — without flushing or answering it,
    /// and with every command queued behind it. This is the kill that lands
    /// after a coordinator issued its barrier and before the ack, which a
    /// FIFO [`Self::inject_failure`] can never beat. Returns at once.
    pub fn crash_at_next_barrier(&self) {
        self.shared.crash_at_barrier.store(true, Ordering::Relaxed);
    }

    /// Whether the worker thread is still running. `false` after
    /// [`Self::inject_failure`] (or a worker panic). A diagnostic: no
    /// coordinator polls it — a cluster learns of a dead worker from the
    /// barrier it leaves unanswered ([`BarrierAck`] answers `None`).
    pub fn is_alive(&self) -> bool {
        self.worker.as_ref().is_some_and(|w| !w.is_finished())
    }

    /// Current metrics: cumulative counters plus live queue depth, latest
    /// epoch and service wall-clock age.
    pub fn metrics(&self) -> ServiceMetrics {
        ServiceMetrics {
            counters: self.shared.counters_snapshot(),
            queue_depth: self.tx.len(),
            latest_epoch: self.shared.latest().epoch(),
            elapsed_secs: self.shared.started.elapsed().as_secs_f64(),
            publication: self.shared.publication_stats(),
            worker_errors: self.shared.worker_errors.load(Ordering::Relaxed),
        }
    }

    /// The telemetry registry this service records into: per-stage latency
    /// histograms (`ingest.enqueue`, `flush.*`) plus
    /// the bounded event ring. Shared with the cluster when spawned via
    /// [`Self::spawn_instrumented`].
    pub fn obs(&self) -> &Arc<ObsRegistry> {
        &self.shared.obs
    }

    /// Stop the service: drain the queue, final-flush all residue, join
    /// every thread and hand everything back. Outstanding [`IngestHandle`]s
    /// get [`ServiceClosed`] afterwards.
    ///
    /// [`ServiceReport::final_snapshot`] is read back from the returned
    /// store and compared with the image the worker published; a mismatch
    /// is logged and counted in [`ServiceMetrics::worker_errors`].
    ///
    /// Exactness contract: join (or otherwise quiesce) producer threads
    /// before calling this. The worker keeps draining and flushing until
    /// the queue is empty, but a blocking `insert` that wins the race with
    /// the worker's final empty-check can be accepted (and counted) yet
    /// never applied — the same way a request can slip into any server's
    /// accept queue at the instant it stops.
    pub fn shutdown(mut self) -> ServiceReport {
        let system = match self.stop_worker().expect("service worker already stopped") {
            Ok(system) => system,
            // Re-raise the worker's own panic with its original payload.
            Err(payload) => std::panic::resume_unwind(payload),
        };
        let final_snapshot = Arc::new(system.snapshot());
        check_published(&final_snapshot, &self.shared);
        ServiceReport {
            final_snapshot,
            metrics: ServiceMetrics {
                counters: self.shared.counters_snapshot(),
                queue_depth: 0,
                latest_epoch: self.shared.latest().epoch(),
                elapsed_secs: self.shared.started.elapsed().as_secs_f64(),
                publication: self.shared.publication_stats(),
                worker_errors: self.shared.worker_errors.load(Ordering::Relaxed),
            },
            system,
        }
    }

    /// Send `Shutdown` and join the worker, recovering the system or its
    /// panic payload. Used by both `shutdown` and `Drop`.
    fn stop_worker(&mut self) -> Option<std::thread::Result<DynamicGraphSystem>> {
        let worker = self.worker.take()?;
        let _ = self.tx.send(Command::Shutdown);
        Some(worker.join())
    }
}

impl Drop for StreamingService {
    fn drop(&mut self) {
        // Never panic out of Drop: re-raising a worker panic here would
        // double-panic (abort) when the service is dropped during an
        // unwind, hiding the original failure. Surface it on stderr only.
        if let Some(Err(_)) = self.stop_worker() {
            eprintln!("gpma-service: worker thread panicked; state discarded");
        }
    }
}

/// The worker loop: block on the queue, buffer updates into the system's
/// stream buffer, flush threshold-sized steps, and publish each epoch's
/// delta and the image advanced by it.
fn run_worker(rx: Receiver<Command>, mut sys: DynamicGraphSystem, shared: Arc<Shared>) -> DynamicGraphSystem {
    loop {
        let cmd = match rx.recv() {
            Ok(cmd) => cmd,
            // Every producer (and the front object) is gone: final flush.
            Err(_) => break,
        };
        shared.observe_queue_depth(rx.len() + 1);
        if handle_command(cmd, &rx, &mut sys, &shared) {
            return sys;
        }
        // Opportunistically absorb whatever else is already queued before
        // flushing, so bursts coalesce into threshold-sized device steps.
        // `drain_t0` times each absorb burst (`flush.drain`): the window
        // from the previous flush (or queue wake-up) to the next flush
        // trigger. The inner loop never blocks, so the window is pure
        // buffering work — two clock reads per flush, not per command.
        let mut drain_t0 = Instant::now();
        loop {
            if sys.stream.ready() {
                shared
                    .obs
                    .record_duration(Stage::FlushDrain, drain_t0.elapsed());
                flush_once(&mut sys, &shared);
                drain_t0 = Instant::now();
                continue;
            }
            match rx.try_recv() {
                Ok(cmd) => {
                    // Producers refill the queue while we flush; sample here
                    // too or the high-water mark misses exactly the bursts
                    // it exists to measure.
                    shared.observe_queue_depth(rx.len() + 1);
                    if handle_command(cmd, &rx, &mut sys, &shared) {
                        return sys;
                    }
                }
                Err(TryRecvError::Empty | TryRecvError::Disconnected) => break,
            }
        }
    }
    drain_and_stop(&rx, &mut sys, &shared);
    sys
}

/// Apply one command. Returns `true` when the worker must exit (after the
/// shutdown drain has already run).
fn handle_command(
    cmd: Command,
    rx: &Receiver<Command>,
    sys: &mut DynamicGraphSystem,
    shared: &Shared,
) -> bool {
    match cmd {
        Command::Batch(b) => buffer_update(b, sys, shared),
        Command::Barrier(ack) => {
            if shared.crash_at_barrier.swap(false, Ordering::Relaxed) {
                // Dropping `ack` unanswered answers `None`.
                record_death(sys, shared);
                return true;
            }
            ack_barrier(ack, sys, shared);
        }
        Command::AdHoc(f) => f(sys),
        Command::Shutdown => {
            drain_and_stop(rx, sys, shared);
            return true;
        }
        Command::Crash(ack) => {
            // A crash is not a shutdown: skip the drain entirely so buffered
            // residue and queued commands die with the worker, exactly like
            // a real process kill between flushes.
            record_death(sys, shared);
            let _ = ack.send(());
            return true;
        }
    }
    false
}

/// Put an injected death on the telemetry timeline, so recovery latency
/// can be read off it.
fn record_death(sys: &DynamicGraphSystem, shared: &Shared) {
    shared.obs.event(
        Stage::RecoveryDetect,
        shared.obs_shard,
        sys.epoch(),
        EventKind::ShardDead,
        0,
    );
}

/// Buffer an update batch, enforcing per-producer arrival-order
/// semantics: its deletions cancel any same-key insertion still buffered,
/// so "insert then delete" within one flush window nets to *absent* (within
/// one batch the framework's delete-first convention applies, as documented
/// on [`IngestHandle::ingest`]).
fn buffer_update(b: UpdateBatch, sys: &mut DynamicGraphSystem, shared: &Shared) {
    let mut cancelled = 0usize;
    for d in &b.deletions {
        cancelled += sys.stream.cancel_pending_inserts(d.key());
    }
    if cancelled > 0 {
        shared.counters.lock().record_cancelled(cancelled as u64);
    }
    sys.stream.offer_batch(&b);
}

/// Shutdown path: absorb every command still queued (acking barriers,
/// answering ad-hoc queries), then flush all residue and publish. The
/// drain-flush cycle repeats until the queue is observed empty *after* a
/// flush, so updates accepted while the final flushes ran are still
/// applied; only a send racing the very last empty-check can be discarded
/// (see [`StreamingService::shutdown`] for the producer contract).
fn drain_and_stop(rx: &Receiver<Command>, sys: &mut DynamicGraphSystem, shared: &Shared) {
    loop {
        while let Ok(cmd) = rx.try_recv() {
            match cmd {
                Command::Batch(b) => buffer_update(b, sys, shared),
                Command::Barrier(ack) => ack_barrier(ack, sys, shared),
                Command::AdHoc(f) => f(sys),
                Command::Shutdown => {}
                Command::Crash(ack) => {
                    // A crash queued behind a shutdown is moot — the worker
                    // is already dying; ack so the injector never hangs.
                    let _ = ack.send(());
                }
            }
        }
        while !sys.stream.is_empty() {
            flush_once(sys, shared);
        }
        if rx.is_empty() {
            break;
        }
    }
}

/// Serve one barrier: flush all residue, then ack with the published image
/// (already current — every flush publishes). Debug builds and the `audit`
/// feature also read the store back here and compare, so a delta that lies
/// about its batch is caught at the next barrier, not only at shutdown.
fn ack_barrier(ack: BarrierAck, sys: &mut DynamicGraphSystem, shared: &Shared) {
    while !sys.stream.is_empty() {
        flush_once(sys, shared);
    }
    if CROSS_CHECK {
        check_published(&sys.snapshot(), shared);
    }
    ack.answer(shared.latest());
}

/// Compare a store readback with the published image, and check the ring's
/// head delta against the image before it, when one is kept: a divergence
/// means a flush's delta did not describe what the store did. Logged and
/// counted once, never fatal.
fn check_published(readback: &GraphSnapshot, shared: &Shared) {
    let (image, previous, chain) = {
        let published = shared.published.lock();
        let since = published.previous.as_ref().map(|pre| pre.epoch());
        let chain = since.and_then(|epoch| published.log.deltas_since(epoch));
        (published.image.clone(), published.previous.clone(), chain)
    };
    let head = match (previous, chain.as_deref()) {
        (Some(pre), Some([head])) => head.verify(&pre, &image).err(),
        _ => None,
    };
    if *image != *readback || head.is_some() {
        shared.worker_errors.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "gpma-service: published image or delta diverged from the store at epoch {} ({})",
            readback.epoch(),
            head.unwrap_or_default()
        );
    }
}

/// One threshold-sized device step + metrics + publication of the epoch's
/// delta and of the image advanced by it — both O(|Δ|); nothing here reads
/// the store back.
fn flush_once(sys: &mut DynamicGraphSystem, shared: &Shared) {
    let obs = &shared.obs;
    let t0 = Instant::now();
    let _total = obs.span(Stage::FlushTotal);
    let report = {
        let _apply = obs.span(Stage::FlushApply);
        sys.flush()
    };
    let wall = t0.elapsed().as_secs_f64();
    shared.counters.lock().record_flush(
        wall,
        report.duplicate_inserts as u64,
        report.update_time,
        report.analytics_time(),
    );
    {
        let _publish = obs.span(Stage::FlushPublish);
        publish(report.delta, shared);
    }
    obs.event(
        Stage::FlushTotal,
        shared.obs_shard,
        sys.epoch(),
        EventKind::Flush,
        (wall * 1e6) as u64,
    );
}

/// Publish one epoch: classify the flush's delta against the latest image
/// and advance that image by it, both outside any lock (a path copy: only
/// the row blocks the delta changes are rewritten, into one new slab), then
/// store image and net delta together so no reader sees the ring ahead of
/// the image.
fn publish(delta: SnapshotDelta, shared: &Shared) {
    let pre = shared.latest();
    let net = delta.classify(&pre);
    let (next, copied_bytes) = pre.advance(net.blind());
    let wire_bytes = net.blind().wire_bytes() as u64;
    let old = {
        let mut published = shared.published.lock();
        published.log.push(Arc::new(net));
        let old = std::mem::replace(&mut published.image, Arc::new(next));
        match CROSS_CHECK {
            true => published.previous.replace(old),
            false => Some(old),
        }
    };
    // Freed outside the lock: when no reader holds the old image this drop
    // frees its block vector and the slabs only it used.
    drop((pre, old));
    shared.delta_bytes.fetch_add(wire_bytes, Ordering::Relaxed);
    shared
        .snapshot_bytes
        .fetch_add((8 + copied_bytes) as u64, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_sim::{Device, DeviceConfig};

    fn system(threshold: usize) -> DynamicGraphSystem {
        let dev = Device::new(DeviceConfig::deterministic());
        DynamicGraphSystem::new(dev, 64, &[Edge::new(0, 1)], threshold)
    }

    #[test]
    fn single_producer_roundtrip() {
        let svc = StreamingService::spawn(ServiceConfig::default(), system(4));
        let h = svc.handle();
        for i in 1..=8u32 {
            h.insert(Edge::new(i, 0)).unwrap();
        }
        let snap = svc.barrier().unwrap();
        assert_eq!(snap.num_edges(), 9);
        assert!(snap.epoch() >= 2, "8 inserts at threshold 4: ≥2 flushes");
        let report = svc.shutdown();
        assert_eq!(report.metrics.counters.ingested(), 8);
        assert_eq!(report.final_snapshot.num_edges(), 9);
        assert_eq!(report.system.graph.storage.num_edges(), 9);
    }

    #[test]
    fn telemetry_records_the_flush_pipeline() {
        let svc = StreamingService::spawn(ServiceConfig::default(), system(4));
        let h = svc.handle();
        for i in 1..=16u32 {
            h.insert(Edge::new(i, 0)).unwrap();
        }
        svc.barrier().unwrap();

        let obs = svc.obs();
        let enq = obs.hist(Stage::IngestEnqueue).snapshot();
        assert_eq!(enq.count, 16, "one ingest.enqueue sample per insert");
        for stage in [
            Stage::FlushDrain,
            Stage::FlushApply,
            Stage::FlushPublish,
            Stage::FlushTotal,
        ] {
            let s = obs.hist(stage).snapshot();
            assert!(s.count >= 4, "{}: 16 inserts at threshold 4", stage.name());
        }
        assert!(
            obs.events().iter().any(|e| e.kind == EventKind::Flush),
            "flush events land on the timeline"
        );
        // The rendered exposition must satisfy the line-format checker.
        gpma_obs::parse_exposition(&obs.render_prometheus()).unwrap();
        svc.shutdown();
    }

    #[test]
    fn unmetered_ingest_skips_the_latency_histogram() {
        let svc = StreamingService::spawn(ServiceConfig::default(), system(4));
        let h = svc.handle();
        let batch = UpdateBatch {
            insertions: (1..=4u32).map(|i| Edge::new(i, 0)).collect(),
            deletions: Vec::new(),
        };
        h.ingest_unmetered(batch).unwrap();
        let snap = svc.barrier().unwrap();
        assert_eq!(snap.num_edges(), 5, "unmetered updates still apply");
        assert_eq!(
            svc.obs().hist(Stage::IngestEnqueue).snapshot().count,
            0,
            "internal traffic stays out of ingest.enqueue"
        );
        svc.shutdown();
    }

    #[test]
    fn handles_fail_after_shutdown() {
        let svc = StreamingService::spawn(ServiceConfig::default(), system(4));
        let h = svc.handle();
        drop(svc.shutdown());
        assert_eq!(h.insert(Edge::new(1, 2)), Err(ServiceClosed));
        assert_eq!(h.offer_batch(UpdateBatch::single_delete(Edge::new(1, 2))), Err(ServiceClosed));
    }

    #[test]
    fn inject_failure_kills_the_worker_without_draining() {
        let svc = StreamingService::spawn(ServiceConfig::default(), system(4));
        let h = svc.handle();
        for i in 1..=8u32 {
            h.insert(Edge::new(i, 0)).unwrap();
        }
        let snap = svc.barrier().unwrap();
        assert_eq!(snap.num_edges(), 9);

        // Buffered residue below the flush threshold dies with the worker.
        h.insert(Edge::new(20, 21)).unwrap();
        h.insert(Edge::new(22, 23)).unwrap();
        svc.inject_failure().unwrap();

        assert!(!svc.is_alive());
        assert_eq!(h.insert(Edge::new(30, 31)), Err(ServiceClosed));
        assert!(svc.barrier().is_err());
        assert!(svc.inject_failure().is_err(), "already dead");
        // The front object still serves the last published state — without
        // the two unflushed residue edges, exactly like a real crash.
        let last = svc.snapshot();
        assert_eq!(last.epoch(), snap.epoch());
        assert_eq!(last.num_edges(), 9);
        assert!(!last.contains(20, 21));
    }

    #[test]
    fn crash_at_next_barrier_dies_without_answering_it() {
        let svc = StreamingService::spawn(ServiceConfig::default(), system(4));
        let h = svc.handle();
        for i in 1..=4u32 {
            h.insert(Edge::new(i, 0)).unwrap();
        }
        let snap = svc.barrier().unwrap();
        svc.crash_at_next_barrier();
        // Queued ahead of the barrier, below the flush threshold: dies
        // buffered.
        h.insert(Edge::new(20, 21)).unwrap();
        assert!(svc.barrier().is_err(), "the barrier is never answered");
        while svc.is_alive() {
            std::thread::yield_now();
        }
        assert_eq!(h.insert(Edge::new(30, 31)), Err(ServiceClosed));
        let last = svc.snapshot();
        assert_eq!(last.epoch(), snap.epoch());
        assert!(!last.contains(20, 21));
    }

    #[test]
    fn a_barrier_ack_is_answered_exactly_once() {
        // Each ack records its answer (true = an image) into `log`.
        type Log = Arc<Mutex<Vec<bool>>>;
        let ack = |log: &Log| {
            let log = log.clone();
            BarrierAck::new(move |image| log.lock().push(image.is_some()))
        };
        let svc = StreamingService::spawn(ServiceConfig::default(), system(4));
        let live: Log = Arc::default();
        svc.barrier_with(ack(&live));
        svc.barrier().unwrap(); // FIFO: the first barrier was served
        assert_eq!(*live.lock(), [true], "a live worker answers with its image");

        // Park the worker so that both barriers queue before it reaches
        // the first.
        let (crashed, behind): (Log, Log) = Default::default();
        let (gate_tx, gate_rx) = bounded::<()>(1);
        svc.tx
            .send(Command::AdHoc(Box::new(move |_| {
                let _ = gate_rx.recv();
            })))
            .unwrap();
        svc.crash_at_next_barrier();
        svc.barrier_with(ack(&crashed));
        svc.barrier_with(ack(&behind));
        gate_tx.send(()).unwrap();
        while svc.is_alive() {
            std::thread::yield_now();
        }
        assert_eq!(*crashed.lock(), [false], "a worker dying at it answers None");
        assert_eq!(*behind.lock(), [false], "so does one queued behind it");

        let closed: Log = Arc::default();
        svc.barrier_with(ack(&closed));
        assert_eq!(*closed.lock(), [false], "a closed service answers None at once");
        drop(svc);
        let answers = [&live, &crashed, &behind, &closed].map(|log| log.lock().len());
        assert_eq!(answers, [1; 4], "never twice");
    }

    #[test]
    fn dead_service_still_serves_its_last_image() {
        let svc = StreamingService::spawn(ServiceConfig::default(), system(4));
        let h = svc.handle();
        for i in 1..=8u32 {
            h.insert(Edge::new(i, 0)).unwrap();
        }
        // Serialize behind the inserts, then kill the worker.
        svc.ad_hoc(|_| ()).unwrap();
        svc.inject_failure().unwrap();

        // The front object still holds the image of the last flush: two
        // threshold-4 flushes, no barrier needed to publish them.
        let last = svc.snapshot();
        assert_eq!(last.epoch(), 2, "two threshold-4 flushes published");
        assert_eq!(last.num_edges(), 9);
        for i in 1..=8u32 {
            assert!(last.contains(i, 0));
        }
    }

    #[test]
    fn offer_drops_when_queue_full_and_counts_it() {
        // Stall the worker inside an ad-hoc closure so the capacity-1 queue
        // deterministically fills: first offer accepted, the rest shed.
        let svc = StreamingService::spawn(
            ServiceConfig {
                queue_capacity: 1,
                ..Default::default()
            },
            system(1_000_000),
        );
        let h = svc.handle();
        let (gate_tx, gate_rx) = bounded::<()>(1);
        let (entered_tx, entered_rx) = bounded::<()>(1);
        svc.tx
            .send(Command::AdHoc(Box::new(move |_sys| {
                let _ = entered_tx.send(());
                let _ = gate_rx.recv(); // hold the worker
            })))
            .unwrap();
        entered_rx.recv().unwrap(); // worker is now parked inside the closure
        let mut dropped = 0u64;
        let mut accepted = 0u64;
        for i in 0..10u32 {
            match h.offer_batch(UpdateBatch::single_insert(Edge::new(2, 3 + i))).unwrap() {
                true => accepted += 1,
                false => dropped += 1,
            }
        }
        assert_eq!(accepted, 1, "exactly one offer fits the capacity-1 queue");
        assert_eq!(dropped, 9);
        gate_tx.send(()).unwrap();
        let report = svc.shutdown();
        assert_eq!(report.metrics.counters.dropped_updates, dropped);
        assert_eq!(report.metrics.counters.ingested(), accepted);
        assert_eq!(report.final_snapshot.num_edges(), 2);
    }

    #[test]
    fn ad_hoc_runs_serialized_on_live_graph() {
        let svc = StreamingService::spawn(ServiceConfig::default(), system(2));
        let h = svc.handle();
        h.insert(Edge::new(1, 2)).unwrap();
        h.insert(Edge::new(2, 3)).unwrap();
        let n = svc
            .ad_hoc(|sys| sys.ad_hoc(|_, g| g.storage.num_edges()))
            .unwrap();
        // FIFO: both inserts flushed (threshold 2) before the query ran.
        assert_eq!(n, 3);
    }

    #[test]
    fn arrival_order_wins_across_commands() {
        // Huge threshold: everything lands in one flush window, so this
        // exercises the cancel-pending-inserts path, not batch splitting.
        let svc = StreamingService::spawn(ServiceConfig::default(), system(1_000_000));
        let h = svc.handle();
        // insert → delete ⇒ absent.
        h.insert(Edge::new(5, 6)).unwrap();
        h.delete(Edge::new(5, 6)).unwrap();
        // delete → insert ⇒ present.
        h.delete(Edge::new(7, 8)).unwrap();
        h.insert(Edge::new(7, 8)).unwrap();
        // insert → batch-with-delete ⇒ absent.
        h.insert(Edge::new(9, 10)).unwrap();
        h.ingest(UpdateBatch {
            insertions: vec![],
            deletions: vec![Edge::new(9, 10)],
        })
        .unwrap();
        let snap = svc.barrier().unwrap();
        assert!(!snap.contains(5, 6));
        assert!(snap.contains(7, 8));
        assert!(!snap.contains(9, 10));
        let report = svc.shutdown();
        assert_eq!(report.metrics.counters.cancelled_inserts, 2);
    }

    #[test]
    fn delta_chain_replays_to_barrier_snapshot() {
        use gpma_core::delta::apply_delta;
        let svc = StreamingService::spawn(ServiceConfig::default(), system(3));
        let epoch0 = svc.snapshot();
        let h = svc.handle();
        for i in 1..=7u32 {
            h.insert(Edge::new(i, 0)).unwrap();
        }
        h.delete(Edge::new(0, 1)).unwrap();
        let snap = svc.barrier().unwrap();
        let chain = match svc.deltas_since(0) {
            DeltaCatchUp::Deltas(chain) => chain,
            DeltaCatchUp::Snapshot(_) => panic!("ring holds every epoch"),
        };
        assert_eq!(chain.last().unwrap().epoch(), snap.epoch());
        let mut replayed = (*epoch0).clone();
        for d in &chain {
            replayed = apply_delta(&replayed, d.blind());
        }
        assert_eq!(replayed, *snap);
        // A current reader gets an empty chain; a future epoch falls back.
        assert!(matches!(
            svc.deltas_since(snap.epoch()),
            DeltaCatchUp::Deltas(ref c) if c.is_empty()
        ));
        drop(svc.shutdown());
    }

    #[test]
    fn lagged_reader_falls_back_to_snapshot() {
        let svc = StreamingService::spawn(
            ServiceConfig {
                delta_log_capacity: 2,
                ..Default::default()
            },
            system(1),
        );
        let h = svc.handle();
        for i in 1..=6u32 {
            h.insert(Edge::new(i, 0)).unwrap();
        }
        let snap = svc.barrier().unwrap();
        assert!(snap.epoch() >= 6);
        // Epoch 0 lagged past the 2-deep ring.
        match svc.deltas_since(0) {
            DeltaCatchUp::Snapshot(s) => {
                assert_eq!(s.epoch(), snap.epoch());
                // The fallback reconnects to the ring.
                assert!(matches!(
                    svc.deltas_since(s.epoch()),
                    DeltaCatchUp::Deltas(_)
                ));
            }
            DeltaCatchUp::Deltas(_) => panic!("must fall back past the ring"),
        }
        drop(svc.shutdown());
    }

    #[test]
    fn every_flush_publishes_and_barrier_and_shutdown_see_it() {
        let svc = StreamingService::spawn(ServiceConfig::default(), system(1));
        let h = svc.handle();
        for i in 1..=5u32 {
            h.insert(Edge::new(i, 0)).unwrap();
        }
        let snap = svc.barrier().unwrap();
        assert_eq!(snap.epoch(), 5, "the barrier image is at the live epoch");
        assert_eq!(snap.num_edges(), 6);
        for i in 6..=8u32 {
            h.insert(Edge::new(i, 0)).unwrap();
        }
        let report = svc.shutdown();
        assert_eq!(report.final_snapshot.epoch(), 8);
        assert_eq!(report.final_snapshot.num_edges(), 9);
        assert_eq!(report.metrics.worker_errors, 0, "image and store agree");
        assert_eq!(report.metrics.counters.flushes, 8, "one publish per epoch");
        let p = &report.metrics.publication;
        assert!(p.delta_bytes > 0 && p.snapshot_bytes > 0);
    }

    #[test]
    fn shutdown_returns_the_store_readback_and_counts_a_diverged_image() {
        let svc = StreamingService::spawn(ServiceConfig::default(), system(4));
        let h = svc.handle();
        for i in 1..=8u32 {
            h.insert(Edge::new(i, 0)).unwrap();
        }
        let honest = svc.barrier().unwrap();
        // A delta that lies about its batch: it claims (9, 0) was upserted,
        // which the store never saw.
        let lie = SnapshotDelta::from_parts(honest.epoch(), vec![Edge::new(9, 0)], vec![]);
        svc.shared.published.lock().image =
            Arc::new(gpma_core::delta::apply_delta(&honest, &lie));
        assert!(svc.snapshot().contains(9, 0));
        let report = svc.shutdown();
        assert_eq!(report.metrics.worker_errors, 1, "the divergence is counted");
        assert_eq!(*report.final_snapshot, *honest, "the report carries the store's state");
        assert_eq!(*report.final_snapshot, report.system.snapshot());
    }

    #[test]
    fn barrier_cross_check_catches_a_diverged_image() {
        // Debug builds (and the `audit` feature) re-read the store at every
        // barrier; release builds without it check at shutdown only.
        if !CROSS_CHECK {
            return;
        }
        let svc = StreamingService::spawn(ServiceConfig::default(), system(4));
        let clean = svc.barrier().unwrap();
        assert_eq!(svc.metrics().worker_errors, 0);
        let lie = SnapshotDelta::from_parts(clean.epoch(), vec![], vec![Edge::new(0, 1).key()]);
        svc.shared.published.lock().image =
            Arc::new(gpma_core::delta::apply_delta(&clean, &lie));
        svc.barrier().unwrap();
        assert_eq!(svc.metrics().worker_errors, 1);
    }

    #[test]
    fn barrier_cross_check_catches_a_delta_that_adds_a_present_edge() {
        if !CROSS_CHECK {
            return;
        }
        let svc = StreamingService::spawn(ServiceConfig::default(), system(4));
        let h = svc.handle();
        for i in 1..=4u32 {
            h.insert(Edge::new(i, 0)).unwrap();
        }
        let image = svc.barrier().unwrap();
        assert_eq!(svc.metrics().worker_errors, 0);
        // The honest head adds the four new edges; the lie replacing it
        // also calls (0, 1) added, which was present before.
        let mut upserts: Vec<Edge> = (1..=4u32).map(|i| Edge::new(i, 0)).collect();
        upserts.push(Edge::new(0, 1));
        upserts.sort_by_key(Edge::key);
        let nobody = GraphSnapshot::from_edges(0, 64, Vec::new());
        let lie = SnapshotDelta::from_parts(image.epoch(), upserts, vec![]).classify(&nobody);
        svc.shared.published.lock().log.push(Arc::new(lie));
        svc.barrier().unwrap();
        assert_eq!(svc.metrics().worker_errors, 1);
    }

    #[test]
    fn metrics_report_rates() {
        // Threshold 4 keeps the whole batch in one step, so the duplicate
        // (1, 2) insertion pair is visible to the per-step counter.
        let svc = StreamingService::spawn(ServiceConfig::default(), system(4));
        let h = svc.handle();
        h.ingest(UpdateBatch {
            insertions: vec![Edge::new(1, 2), Edge::new(1, 2), Edge::new(2, 3)],
            deletions: vec![Edge::new(0, 1)],
        })
        .unwrap();
        svc.barrier().unwrap();
        let m = svc.metrics();
        assert_eq!(m.counters.ingested_inserts, 3);
        assert_eq!(m.counters.ingested_deletes, 1);
        assert!(m.counters.flushes >= 1);
        assert!(m.counters.duplicate_edges >= 1, "duplicate (1,2) counted");
        assert!(m.elapsed_secs > 0.0);
        assert!(m.ingest_throughput() > 0.0);
        let line = m.to_string();
        assert!(line.contains("epoch"), "display: {line}");
        drop(svc);
    }
}
