//! End-to-end tests of the query-serving front (`gpma-serving`): every
//! cache-served answer must equal a fresh from-snapshot computation on the
//! same epoch — through a random insert/delete stream over a sharded
//! cluster, across a live reshard (delta-ring reset → snapshot-fallback
//! flush) and a shard kill + recovery — plus deterministic behavioral
//! checks of the shed-never-block admission contract (quota, queue-full,
//! deadline, cancellation, tenant isolation of the memo key space) and of
//! which answers the cache holds.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use gpma_cluster::{ClusterConfig, GraphCluster, MemoryCheckpointStore, PartitionPolicy};
use gpma_core::delta::DeltaCatchUp;
use gpma_core::framework::{DynamicGraphSystem, GraphSnapshot};
use gpma_graph::{Edge, UpdateBatch};
use gpma_service::{ServiceConfig, StreamingService};
use gpma_serving::{
    execute, ClusterBackend, PageRankParams, Query, QueryServer, Rejected,
    ServingBackend, ServingConfig, TenantConfig,
};
use gpma_sim::{Device, DeviceConfig};

use proptest::prelude::*;

const NUM_VERTICES: u32 = 48;

type Op = (u8, u32, u32, u64);

fn ops_strategy(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..10, 0u32..NUM_VERTICES, 0u32..NUM_VERTICES, 1u64..512),
        0..max_len,
    )
}

/// ~70% inserts, ~30% deletes, arrival order preserved.
fn feed(cluster: &GraphCluster, ops: &[Op]) {
    let h = cluster.handle();
    for &(kind, s, d, w) in ops {
        let (src, dst) = (s % NUM_VERTICES, d % NUM_VERTICES);
        if kind < 7 {
            h.insert(Edge::weighted(src, dst, w)).expect("cluster alive");
        } else {
            h.delete(Edge::new(src, dst)).expect("cluster alive");
        }
    }
}

/// The query vocabulary exercised at every checkpoint of the stream: both
/// maintained (0) and unmaintained (5) BFS roots, the invalidate-always
/// PageRank, and point kinds over a few vertices (answered by the image,
/// never memoized).
fn probe_queries() -> Vec<Query> {
    vec![
        Query::Bfs { src: 0 },
        Query::Bfs { src: 5 },
        Query::Cc,
        Query::PageRank { top_k: 6 },
        Query::Degree { v: 3 },
        Query::Degree { v: 17 },
        Query::EdgeExists { u: 0, v: 1 },
        Query::EdgeExists { u: 7, v: 9 },
        Query::Neighbors { v: 3 },
        Query::Neighbors { v: 29 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The exactness contract: after every phase of a random stream —
    /// including a mid-stream grow reshard and a shard kill + recovery —
    /// every query submitted through the cached server (asked twice, so
    /// the second answer is a same-epoch memo hit) equals `execute` on an
    /// independently merged snapshot of the same cut.
    #[test]
    fn cached_answers_equal_fresh_snapshot_computation(ops in ops_strategy(160)) {
        let pr = PageRankParams { damping: 0.85, epsilon: 1e-6, max_iters: 50 };
        let cluster = GraphCluster::spawn(
            ClusterConfig {
                flush_threshold: 6,
                checkpoints: Some(Arc::new(MemoryCheckpointStore::new())),
                ..Default::default()
            },
            &DeviceConfig::deterministic(),
            PartitionPolicy::VertexHash.build(NUM_VERTICES, 3),
            &[Edge::new(0, 1)],
        );
        let backend = Arc::new(ClusterBackend::new(Arc::new(cluster)));
        let server = QueryServer::spawn(
            Arc::clone(&backend),
            ServingConfig {
                workers: 2,
                queue_capacity: 64,
                default_deadline: Duration::from_secs(60),
                cache: true,
                bfs_roots: vec![0],
                pagerank: pr,
                tenants: vec![TenantConfig::unlimited("default")],
            },
        );

        // Always four phases (empty streams still exercise reshard,
        // kill/recovery and the query checks on a static graph).
        let chunk = ops.len().div_ceil(4).max(1);
        for phase in 0..4 {
            let start = (phase * chunk).min(ops.len());
            let end = ((phase + 1) * chunk).min(ops.len());
            feed(backend.cluster(), &ops[start..end]);
            match phase {
                // Live reshard: resets the delta ring, so the cache must
                // take the snapshot-fallback flush and stay exact.
                1 => {
                    backend
                        .cluster()
                        .reshard(PartitionPolicy::VertexHash.build(NUM_VERTICES, 4))
                        .expect("mid-stream reshard");
                }
                // Kill a shard; the following cuts detect and recover it.
                2 => {
                    backend.cluster().kill_shard(1).expect("cluster alive");
                    backend.cluster().epoch_cut().expect("cluster alive");
                }
                _ => {}
            }
            // Barrier: everything accepted so far is flushed + published.
            let cut = backend.cluster().epoch_cut().expect("cluster alive");
            // Independent oracle: one image built from scratch over the
            // concatenated shard edge lists, not the cut's memoized merge.
            let edges = cut.shards().iter().flat_map(|s| s.edges().iter().copied()).collect();
            let fresh = GraphSnapshot::from_edges(cut.cut(), cut.num_vertices(), edges);
            for q in probe_queries() {
                // Twice: first may miss (computing + memoizing), second is
                // a same-epoch hit — both must match the oracle.
                for attempt in 0..2 {
                    let ticket = server.submit(0, q).expect("admission");
                    let got = ticket.wait().expect("query completes");
                    prop_assert_eq!(
                        &got,
                        &execute(q, &fresh, pr),
                        "phase {} attempt {} query {:?}",
                        phase,
                        attempt,
                        q
                    );
                }
            }
        }
        let m = server.shutdown();
        let t = m.totals();
        prop_assert!(t.cache_hits >= 1, "repeat queries must hit the memo");
        prop_assert_eq!(t.rejected(), 0, "unlimited tenant never sheds");
    }
}

#[test]
fn cluster_backend_serves_the_cut_image() {
    let cluster = GraphCluster::spawn(
        ClusterConfig::default(),
        &DeviceConfig::deterministic(),
        PartitionPolicy::VertexHash.build(NUM_VERTICES, 2),
        &[Edge::new(0, 1), Edge::new(3, 4)],
    );
    let backend = ClusterBackend::new(Arc::new(cluster));
    backend.cluster().handle().insert(Edge::new(5, 6)).expect("cluster alive");
    let cut = backend.cluster().epoch_cut().expect("cluster alive");
    let (a, b) = (backend.latest(), backend.latest());
    assert!(Arc::ptr_eq(&a, &b), "one merge per cut");
    assert!(Arc::ptr_eq(&a, backend.cluster().snapshot().image()));
    assert!(Arc::ptr_eq(&a, cut.image()));
    assert_eq!((a.epoch(), a.num_edges()), (cut.cut(), 3));
    match backend.deltas_since(u64::MAX) {
        DeltaCatchUp::Snapshot(image) => assert!(Arc::ptr_eq(&image, &a)),
        DeltaCatchUp::Deltas(_) => panic!("no chain starts past the latest cut"),
    }
}

/// A backend whose `latest()` blocks until the gate opens — used to hold
/// the worker pool busy so queue/cancellation behavior is deterministic.
struct GatedBackend {
    snap: Arc<GraphSnapshot>,
    gate: Mutex<bool>,
    open: Condvar,
}

impl GatedBackend {
    fn new() -> Self {
        GatedBackend {
            snap: Arc::new(GraphSnapshot::from_edges(
                0,
                8,
                vec![Edge::new(0, 1), Edge::new(1, 2)],
            )),
            gate: Mutex::new(true),
            open: Condvar::new(),
        }
    }

    fn set_gate(&self, value: bool) {
        *self.gate.lock().unwrap() = value;
        self.open.notify_all();
    }
}

impl ServingBackend for GatedBackend {
    fn latest(&self) -> Arc<GraphSnapshot> {
        let mut open = self.gate.lock().unwrap();
        while !*open {
            open = self.open.wait(open).unwrap();
        }
        self.snap.clone()
    }

    fn deltas_since(&self, _epoch: u64) -> DeltaCatchUp<Arc<GraphSnapshot>> {
        DeltaCatchUp::Snapshot(self.latest())
    }

    fn offer(&self, _batch: UpdateBatch) -> Result<bool, gpma_serving::BackendClosed> {
        Ok(true)
    }
}

fn gated_server(queue_capacity: usize) -> (Arc<GatedBackend>, QueryServer<GatedBackend>) {
    let backend = Arc::new(GatedBackend::new());
    let server = QueryServer::spawn(
        Arc::clone(&backend),
        ServingConfig {
            workers: 1,
            queue_capacity,
            cache: false,
            tenants: vec![TenantConfig::unlimited("t")],
            ..Default::default()
        },
    );
    (backend, server)
}

/// Park the single worker behind the gate and wait until it has dequeued
/// the parked job (queue drains to empty).
fn park_worker(backend: &GatedBackend, server: &QueryServer<GatedBackend>) {
    backend.set_gate(false);
    server.submit(0, Query::Cc).expect("parked query admitted");
    while server.queue_depth() > 0 {
        std::thread::yield_now();
    }
}

#[test]
fn full_queue_sheds_with_queue_full() {
    let (backend, server) = gated_server(1);
    park_worker(&backend, &server);
    // One slot fits; everything past it sheds synchronously.
    let queued = server.submit(0, Query::Cc).expect("one slot fits");
    assert_eq!(server.submit(0, Query::Cc).err(), Some(Rejected::QueueFull));
    assert_eq!(server.submit(0, Query::Cc).err(), Some(Rejected::QueueFull));
    backend.set_gate(true);
    assert!(queued.wait().is_ok());
    let m = server.shutdown();
    assert_eq!(m.totals().rejected_queue_full, 2);
    assert_eq!(m.totals().admitted, 2);
}

#[test]
fn cancelled_ticket_completes_without_executing() {
    let (backend, server) = gated_server(4);
    park_worker(&backend, &server);
    let ticket = server.submit(0, Query::Cc).expect("queued");
    ticket.cancel();
    backend.set_gate(true);
    assert_eq!(ticket.wait(), Err(Rejected::Cancelled));
    let m = server.shutdown();
    assert_eq!(m.totals().cancelled, 1);
}

#[test]
fn expired_deadline_sheds_before_execution() {
    let (_backend, server) = gated_server(4);
    let ticket = server
        .submit_with_deadline(0, Query::Cc, Duration::ZERO)
        .expect("admitted; deadline is checked by the worker");
    assert_eq!(ticket.wait(), Err(Rejected::Deadline));
    let m = server.shutdown();
    assert_eq!(m.totals().rejected_deadline, 1);
}

fn service_server(tenants: Vec<TenantConfig>) -> (Arc<StreamingService>, QueryServer<StreamingService>) {
    let dev = Device::new(DeviceConfig::deterministic());
    let sys = DynamicGraphSystem::new(dev, 16, &[Edge::new(0, 1)], 4);
    let svc = Arc::new(StreamingService::spawn(ServiceConfig::default(), sys));
    let server = QueryServer::spawn(
        Arc::clone(&svc),
        ServingConfig {
            tenants,
            ..Default::default()
        },
    );
    (svc, server)
}

#[test]
fn query_quota_sheds_and_unknown_tenants_have_none() {
    let (svc, server) = service_server(vec![
        TenantConfig::new("burst2", 0.0, 0.0).with_bursts(2.0, 1.0),
        TenantConfig::unlimited("free"),
    ]);
    let t = server.tenant_id("burst2").unwrap();
    assert!(server.submit(t, Query::Cc).is_ok());
    assert!(server.submit(t, Query::Cc).is_ok());
    assert_eq!(server.submit(t, Query::Cc).err(), Some(Rejected::QuotaExceeded));
    // The other tenant is unaffected by the shed.
    let free = server.tenant_id("free").unwrap();
    assert!(server.submit(free, Query::Cc).is_ok());
    // Unregistered tenant ids are zero-quota by definition.
    assert_eq!(server.submit(99, Query::Cc).err(), Some(Rejected::QuotaExceeded));
    let m = server.shutdown();
    assert_eq!(m.tenants[t as usize].rejected_quota, 1);
    assert_eq!(m.tenants[free as usize].rejected(), 0);
    drop(Arc::into_inner(svc).unwrap().shutdown());
}

#[test]
fn ingest_quota_sheds_whole_batches() {
    let (svc, server) = service_server(vec![
        TenantConfig::new("writer", 100.0, 0.0).with_bursts(100.0, 3.0),
    ]);
    let batch = |edges: &[(u32, u32)]| UpdateBatch {
        insertions: edges.iter().map(|&(s, d)| Edge::new(s, d)).collect(),
        deletions: vec![],
    };
    assert_eq!(server.ingest(0, batch(&[(1, 2), (2, 3)])), Ok(true));
    // Two tokens spent of three; a 2-update batch is all-or-nothing shed.
    assert_eq!(
        server.ingest(0, batch(&[(3, 4), (4, 5)])),
        Err(Rejected::QuotaExceeded)
    );
    assert_eq!(server.ingest(0, batch(&[(3, 4)])), Ok(true));
    let m = server.shutdown();
    assert_eq!(m.tenants[0].ingested, 3);
    assert_eq!(m.tenants[0].ingest_shed, 2);
    let report = Arc::into_inner(svc).unwrap().shutdown();
    assert_eq!(report.metrics.counters.ingested(), 3);
}

#[test]
fn tenants_do_not_share_memoized_results() {
    let (svc, server) = service_server(vec![
        TenantConfig::unlimited("a"),
        TenantConfig::unlimited("b"),
    ]);
    let want = execute(Query::Cc, &svc.snapshot(), PageRankParams::default());
    // Same query, two tenants: each misses once (separate memo keys),
    // then each hits its own entry.
    for tenant in [0u32, 1, 0, 1] {
        let ticket = server.submit(tenant, Query::Cc).unwrap();
        assert_eq!(ticket.wait(), Ok(want.clone()));
    }
    let m = server.shutdown();
    for t in &m.tenants {
        assert_eq!(t.cache_misses, 1, "{}", t.name);
        assert_eq!(t.cache_hits, 1, "{}", t.name);
    }
    drop(Arc::into_inner(svc).unwrap().shutdown());
}

/// Point queries skip the memo but not the refresh: after every barrier
/// they answer exactly what `execute` computes on the barrier's image.
#[test]
fn point_answers_equal_the_barrier_image() {
    let (svc, server) = service_server(vec![TenantConfig::unlimited("t")]);
    let h = svc.handle();
    let points = [
        Query::Degree { v: 0 },
        Query::Degree { v: 3 },
        Query::EdgeExists { u: 0, v: 1 },
        Query::EdgeExists { u: 3, v: 4 },
        Query::Neighbors { v: 0 },
        Query::Neighbors { v: 3 },
    ];
    let mut asked = 0u64;
    for round in 0..5u32 {
        h.ingest(UpdateBatch {
            insertions: vec![Edge::new(round % 4, round + 1), Edge::new(3, 4 + round)],
            deletions: vec![Edge::new(0, 1 + round / 2), Edge::new(3, 3 + round)],
        })
        .unwrap();
        let snap = svc.barrier().unwrap();
        for q in points {
            let want = execute(q, &snap, PageRankParams::default());
            let got = server.submit(0, q).unwrap().wait();
            assert_eq!(got, Ok(want), "round {round} {q:?}");
            asked += 1;
        }
    }
    drop(h);
    let m = server.shutdown();
    let t = m.totals();
    assert_eq!((t.cache_hits, t.cache_misses), (0, asked), "point queries always execute");
    assert_eq!(t.cache_hits + t.cache_misses, t.completed());
    assert_eq!(m.cache_entries, 0);
    drop(Arc::into_inner(svc).unwrap().shutdown());
}

/// The cache holds whole-graph answers only: asking every query kind
/// memoizes exactly the BFS, CC and PageRank entries.
#[test]
fn cache_entries_count_only_whole_graph_queries() {
    let (svc, server) = service_server(vec![TenantConfig::unlimited("t")]);
    for q in [
        Query::Bfs { src: 0 },
        Query::Cc,
        Query::PageRank { top_k: 3 },
        Query::Degree { v: 0 },
        Query::EdgeExists { u: 0, v: 1 },
        Query::Neighbors { v: 0 },
    ] {
        server.submit(0, q).unwrap().wait().unwrap();
    }
    assert_eq!(server.metrics().cache_entries, 3);
    drop(server.shutdown());
    drop(Arc::into_inner(svc).unwrap().shutdown());
}
