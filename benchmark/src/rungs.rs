//! The layer ladder: one driver ("rung") per layer of the program, each
//! taking the same update batches through that layer and everything below
//! it, from outside, through public functions only.
//!
//! ```text
//! sim        device primitives a batch needs (upload, sort, scan, one pass)
//! core       GpmaPlus::update_batch_lazy on a bare device
//! framework  DynamicGraphSystem::ingest → flush
//! service    IngestHandle::ingest → StreamingService::barrier
//! cluster    ClusterHandle::ingest → GraphCluster::epoch_cut   (2 shards)
//! serving    QueryServer::ingest → barrier → served EdgeExists query
//! ```
//!
//! The four workloads use the top four rungs as their write path, so the
//! ladder measured in a traced run and the end-to-end numbers come from the
//! same code. Every device runs with `host_parallelism: 1`: kernels execute
//! inline on the calling thread, so a workload's busy threads are exactly
//! the workers its layers spawn (on the driver's CPU, a cluster's shards on
//! a CPU each; see `pin.rs`).

use std::sync::Arc;
use std::time::Duration;

use gpma_cluster::{ClusterConfig, ClusterHandle, GraphCluster, PartitionPolicy};
use gpma_core::framework::DynamicGraphSystem;
use gpma_core::GpmaPlus;
use gpma_graph::{Edge, UpdateBatch};
use gpma_service::{IngestHandle, ServiceConfig, StreamingService};
use gpma_serving::{Query, QueryResult, QueryServer, ServingConfig, TenantConfig};
use gpma_sim::primitives::{exclusive_scan_u32, radix_sort_pairs_u64};
use gpma_sim::{Device, DeviceBuffer, DeviceConfig};

use crate::pin;
use crate::trace::Tracer;

/// The device configuration every workload uses.
pub fn device_config() -> DeviceConfig {
    DeviceConfig {
        host_parallelism: 1,
        ..DeviceConfig::default()
    }
}

/// Shards of the cluster rung: the smallest cluster that routes, fans out
/// and cuts across shards.
pub const CLUSTER_SHARDS: usize = 2;

/// The CPUs besides the driver's own that host a shard of the cluster rung:
/// where the probe has to look as well while a cluster is measured.
pub fn shard_cpus() -> &'static [usize] {
    pin::cpus(CLUSTER_SHARDS).get(1..).unwrap_or(&[])
}

/// The BFS roots a fifth of the served query mix asks for. The cache could
/// maintain them incrementally (`ServingConfig::bfs_roots`) and does not
/// here: `gpma_incremental::IncrementalBfs` answers wrongly once a delta
/// both removes and adds edges (`tests/incremental_bfs.rs`), which every
/// delta of a sliding window does. They are answered like any other BFS:
/// computed on the first miss of an epoch, served from the cache after.
pub const HOT_BFS_ROOTS: [u32; 4] = [0, 1, 2, 3];

/// PageRank iteration cap for served queries (bounds a miss's cost).
pub const SERVED_PAGERANK_ITERS: usize = 10;

/// What the driver may ask of any rung.
pub trait Rung {
    /// Hand one batch to the layer. No visibility guarantee yet.
    fn offer(&mut self, batch: UpdateBatch, tr: &mut Tracer);

    /// Block until everything offered is readable at this layer.
    fn publish(&mut self, tr: &mut Tracer);

    /// Cumulative simulated device seconds spent applying updates.
    fn update_sim_secs(&self) -> f64;

    /// Updates or queries the layer shed, dropped, rejected or got wrong.
    fn failed(&self) -> u64 {
        0
    }
}

// ----------------------------------------------------------------------
// sim
// ----------------------------------------------------------------------

/// Device primitives alone: what it costs the host to simulate the kernels
/// any batch needs before it touches a store.
pub struct SimRung {
    dev: Device,
}

impl SimRung {
    /// A bare device.
    pub fn new() -> Self {
        SimRung {
            dev: Device::new(device_config()),
        }
    }
}

impl Default for SimRung {
    fn default() -> Self {
        SimRung::new()
    }
}

impl Rung for SimRung {
    fn offer(&mut self, batch: UpdateBatch, tr: &mut Tracer) {
        let dev = &self.dev;
        tr.span("sim.batch_primitives", || {
            let host_keys: Vec<u64> = batch
                .deletions
                .iter()
                .chain(batch.insertions.iter())
                .map(Edge::key)
                .collect();
            let host_vals: Vec<u64> = (0..host_keys.len() as u64).collect();
            let mut keys = DeviceBuffer::from_slice(&host_keys);
            let mut vals = DeviceBuffer::from_slice(&host_vals);
            radix_sort_pairs_u64(dev, &mut keys, &mut vals);
            // One coalesced pass over the sorted batch, flagging row heads…
            let flags = DeviceBuffer::<u32>::new(keys.len());
            dev.launch("flag_rows", keys.len(), |lane| {
                let i = lane.tid;
                let k = keys.get(lane, i);
                let head = i == 0 || (keys.get(lane, i - 1) >> 32) != (k >> 32);
                flags.set(lane, i, head as u32);
            });
            // …and a scan over the flags.
            let (_, rows) = exclusive_scan_u32(dev, &flags);
            std::hint::black_box(rows);
        });
    }

    fn publish(&mut self, _tr: &mut Tracer) {}

    fn update_sim_secs(&self) -> f64 {
        self.dev.elapsed().secs()
    }
}

// ----------------------------------------------------------------------
// core
// ----------------------------------------------------------------------

/// `GpmaPlus::update_batch_lazy` on a bare device: the store without the
/// framework around it.
pub struct CoreRung {
    dev: Device,
    graph: GpmaPlus,
    update_sim: f64,
    /// Accumulated `PlusStats` over every batch.
    pub levels: u64,
    /// Full-array resizes over every batch.
    pub resizes: u64,
    /// Batches applied.
    pub batches: u64,
}

impl CoreRung {
    /// Bulk-build the store from `initial`.
    pub fn new(num_vertices: u32, initial: &[Edge]) -> Self {
        let dev = Device::new(device_config());
        let graph = GpmaPlus::build(&dev, num_vertices, initial);
        CoreRung {
            dev,
            graph,
            update_sim: 0.0,
            levels: 0,
            resizes: 0,
            batches: 0,
        }
    }

    /// The device, for reading `DeviceMetrics`.
    pub fn device(&self) -> &Device {
        &self.dev
    }
}

impl Rung for CoreRung {
    fn offer(&mut self, batch: UpdateBatch, tr: &mut Tracer) {
        let graph = &mut self.graph;
        let (stats, t) = tr.span("core.update_batch_lazy", || {
            self.dev.timed(|d| graph.update_batch_lazy(d, &batch))
        });
        self.update_sim += t.secs();
        self.levels += stats.levels as u64;
        self.resizes += stats.resizes;
        self.batches += 1;
    }

    fn publish(&mut self, _tr: &mut Tracer) {}

    fn update_sim_secs(&self) -> f64 {
        self.update_sim
    }
}

// ----------------------------------------------------------------------
// framework
// ----------------------------------------------------------------------

/// `DynamicGraphSystem` on the calling thread: the paper's Figure 1 loop.
pub struct FrameworkRung {
    /// The system under test (public so the workload can run `ad_hoc`).
    pub sys: DynamicGraphSystem,
    update_sim: f64,
}

impl FrameworkRung {
    /// Bulk-build; the stream buffer flushes at `flush_threshold` updates.
    pub fn new(num_vertices: u32, initial: &[Edge], flush_threshold: usize) -> Self {
        let dev = Device::new(device_config());
        FrameworkRung {
            sys: DynamicGraphSystem::new(dev, num_vertices, initial, flush_threshold),
            update_sim: 0.0,
        }
    }
}

impl Rung for FrameworkRung {
    fn offer(&mut self, batch: UpdateBatch, tr: &mut Tracer) {
        let reports = tr.span("core.ingest", || self.sys.ingest(&batch));
        self.update_sim += reports.iter().map(|r| r.update_time.secs()).sum::<f64>();
    }

    fn publish(&mut self, tr: &mut Tracer) {
        while !self.sys.stream.is_empty() {
            let report = tr.span("core.flush", || self.sys.flush());
            self.update_sim += report.update_time.secs();
        }
    }

    fn update_sim_secs(&self) -> f64 {
        self.update_sim
    }
}

// ----------------------------------------------------------------------
// service
// ----------------------------------------------------------------------

fn spawn_service(num_vertices: u32, initial: &[Edge], flush_threshold: usize) -> StreamingService {
    let dev = Device::new(device_config());
    let sys = DynamicGraphSystem::new(dev, num_vertices, initial, flush_threshold);
    StreamingService::spawn(ServiceConfig::default(), sys)
}

/// One `StreamingService`: queue, worker thread, snapshot + delta publish.
pub struct ServiceRung {
    /// The service under test (public for the workload's read section).
    pub svc: StreamingService,
    handle: IngestHandle,
}

impl ServiceRung {
    /// Spawn the service; the worker flushes at `flush_threshold` updates.
    pub fn new(num_vertices: u32, initial: &[Edge], flush_threshold: usize) -> Self {
        let svc = spawn_service(num_vertices, initial, flush_threshold);
        ServiceRung {
            handle: svc.handle(),
            svc,
        }
    }
}

impl Rung for ServiceRung {
    fn offer(&mut self, batch: UpdateBatch, tr: &mut Tracer) {
        tr.span("service.ingest", || self.handle.ingest(batch))
            .expect("service worker alive");
    }

    fn publish(&mut self, tr: &mut Tracer) {
        tr.span("service.barrier", || self.svc.barrier())
            .expect("service worker alive");
    }

    fn update_sim_secs(&self) -> f64 {
        self.svc.metrics().counters.update_sim.secs()
    }

    fn failed(&self) -> u64 {
        let m = self.svc.metrics();
        m.counters.dropped_updates + m.worker_errors
    }
}

// ----------------------------------------------------------------------
// cluster
// ----------------------------------------------------------------------

/// A 2-shard hash-partitioned `GraphCluster`, no recovery policy, one shard
/// per CPU.
pub struct ClusterRung {
    /// The cluster under test (public for the workload's read section).
    pub cluster: GraphCluster,
    handle: ClusterHandle,
    update_sim: f64,
    failed: u64,
}

impl ClusterRung {
    /// Spawn the cluster. The router forwards after every `batch`-update
    /// command (no coalescing across commands, so sub-batch boundaries are
    /// fixed by the stream); each shard flushes at its share of a batch.
    /// Each shard's worker gets a CPU of its own where the machine has one
    /// (a shard is a `StreamingService`; its worker carries that name).
    pub fn new(num_vertices: u32, initial: &[Edge], batch: usize) -> Self {
        let cfg = ClusterConfig {
            router_batch: batch,
            flush_threshold: (batch / CLUSTER_SHARDS).max(1),
            ..ClusterConfig::default()
        };
        let part = PartitionPolicy::VertexHash.build(num_vertices, CLUSTER_SHARDS);
        let cluster = pin::spread("gpma-service-worker", CLUSTER_SHARDS, || {
            GraphCluster::spawn(cfg, &device_config(), part, initial)
        });
        ClusterRung {
            handle: cluster.handle(),
            cluster,
            update_sim: 0.0,
            failed: 0,
        }
    }

    /// Re-read the shard counters (one router round-trip); call outside
    /// timed sections.
    pub fn refresh_counters(&mut self) {
        if let Ok(m) = self.cluster.metrics() {
            self.update_sim = m.shards.iter().map(|s| s.counters.update_sim.secs()).sum();
            self.failed = m.dropped_updates + m.worker_errors + m.delta_fallbacks;
        }
    }
}

impl Rung for ClusterRung {
    fn offer(&mut self, batch: UpdateBatch, tr: &mut Tracer) {
        tr.span("cluster.ingest", || self.handle.ingest(batch))
            .expect("cluster router alive");
    }

    fn publish(&mut self, tr: &mut Tracer) {
        tr.span("cluster.epoch_cut", || self.cluster.epoch_cut())
            .expect("cluster router alive");
    }

    fn update_sim_secs(&self) -> f64 {
        self.update_sim
    }

    fn failed(&self) -> u64 {
        self.failed
    }
}

// ----------------------------------------------------------------------
// serving
// ----------------------------------------------------------------------

/// A `QueryServer` (1 worker, cache on, no maintained BFS roots — see
/// [`HOT_BFS_ROOTS`]) over one `StreamingService`: ingest goes through the tenant's quota, and a batch
/// counts as visible only once a served query sees it.
pub struct ServingRung {
    /// The backend service.
    pub svc: Arc<StreamingService>,
    server: QueryServer<StreamingService>,
    tenant: u32,
    last_inserted: Option<Edge>,
    failed: u64,
}

impl ServingRung {
    /// Spawn service + server.
    pub fn new(num_vertices: u32, initial: &[Edge], flush_threshold: usize) -> Self {
        let svc = Arc::new(spawn_service(num_vertices, initial, flush_threshold));
        let cfg = ServingConfig {
            workers: 1,
            // A miss may recompute CC or PageRank; on a slow host that must
            // still be an answer, not a deadline miss.
            default_deadline: Duration::from_secs(60),
            cache: true,
            bfs_roots: Vec::new(),
            pagerank: gpma_serving::PageRankParams {
                max_iters: SERVED_PAGERANK_ITERS,
                ..Default::default()
            },
            tenants: vec![TenantConfig::unlimited("bench")],
            ..ServingConfig::default()
        };
        let server = QueryServer::spawn(Arc::clone(&svc), cfg);
        let tenant = server.tenant_id("bench").expect("tenant registered");
        ServingRung {
            svc,
            server,
            tenant,
            last_inserted: None,
            failed: 0,
        }
    }

    /// The server.
    pub fn server(&self) -> &QueryServer<StreamingService> {
        &self.server
    }

    /// Submit one query and wait for its answer; `None` (and a counted
    /// failure) when it was shed, rejected or missed its deadline.
    pub fn ask(&mut self, query: Query, tr: &mut Tracer) -> Option<QueryResult> {
        let answer = tr.span("serving.query", || {
            self.server
                .submit(self.tenant, query)
                .and_then(|ticket| ticket.wait())
        });
        if answer.is_err() {
            self.failed += 1;
        }
        answer.ok()
    }

    /// Stop the server, then the service; returns the final snapshot.
    pub fn shutdown(self) -> (gpma_serving::ServingMetrics, gpma_service::ServiceReport) {
        let serving = self.server.shutdown();
        let svc = Arc::into_inner(self.svc).expect("server released the backend");
        (serving, svc.shutdown())
    }
}

impl Rung for ServingRung {
    fn offer(&mut self, batch: UpdateBatch, tr: &mut Tracer) {
        if let Some(e) = batch.insertions.first() {
            self.last_inserted = Some(*e);
        }
        let updates = batch.len() as u64;
        let accepted = tr.span("serving.ingest", || self.server.ingest(self.tenant, batch));
        if accepted != Ok(true) {
            self.failed += updates;
        }
    }

    fn publish(&mut self, tr: &mut Tracer) {
        tr.span("service.barrier", || self.svc.barrier())
            .expect("service worker alive");
        if let Some(e) = self.last_inserted {
            let seen = self.ask(Query::EdgeExists { u: e.src, v: e.dst }, tr);
            if seen != Some(QueryResult::Exists(true)) {
                self.failed += 1;
            }
        }
    }

    fn update_sim_secs(&self) -> f64 {
        self.svc.metrics().counters.update_sim.secs()
    }

    fn failed(&self) -> u64 {
        let m = self.svc.metrics();
        self.failed + m.counters.dropped_updates + m.worker_errors
    }
}
