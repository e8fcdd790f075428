//! End-to-end tests of cluster elasticity (`GraphCluster::reshard` /
//! `rebalance`): a random insert/delete stream with mid-stream reshards —
//! hash → degree-aware, and shard counts 4 → 2 → 8 — must agree exactly
//! with the single-device sequential oracle at every post-reshard cut
//! (same edge set, same BFS/CC/PageRank), and an [`IncrementalEngine`]
//! pulling the cluster's delta stream must stay exact across the
//! snapshot-style epoch markers each reshard publishes.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use gpma_analytics::{bfs_host, cc_host, pagerank_host};
use gpma_baselines::AdjLists;
use gpma_cluster::{
    ClusterConfig, ClusterHandle, ClusterSnapshot, DegreePartition, GraphCluster, HashVertexPartition,
    PartitionPolicy, VertexPartition,
};
use gpma_core::delta::{apply_delta, DeltaCatchUp};
use gpma_core::multi::Partitioner;
use gpma_graph::Edge;
use gpma_incremental::{CatchUp, IncrementalEngine};
use gpma_sim::DeviceConfig;

use proptest::prelude::*;

const NUM_VERTICES: u32 = 64;

fn spawn_cluster(shards: usize, threshold: usize) -> GraphCluster {
    GraphCluster::spawn(
        ClusterConfig {
            flush_threshold: threshold,
            router_batch: 16,
            ..Default::default()
        },
        &DeviceConfig::deterministic(),
        Arc::new(HashVertexPartition {
            num_vertices: NUM_VERTICES,
            num_shards: shards,
        }),
        &[],
    )
}

/// Sequential oracle: arrival order, last write wins, deletes remove.
fn apply_oracle(oracle: &mut BTreeMap<(u32, u32), u64>, ops: &[(u8, u32, u32, u64)]) {
    for &(kind, s, d, w) in ops {
        let (src, dst) = (s % NUM_VERTICES, d % NUM_VERTICES);
        if kind < 3 {
            oracle.insert((src, dst), w);
        } else {
            oracle.remove(&(src, dst));
        }
    }
}

fn feed(h: &ClusterHandle, ops: &[(u8, u32, u32, u64)]) {
    for &(kind, s, d, w) in ops {
        let (src, dst) = (s % NUM_VERTICES, d % NUM_VERTICES);
        if kind < 3 {
            h.insert(Edge::weighted(src, dst, w)).expect("cluster alive");
        } else {
            h.delete(Edge::new(src, dst)).expect("cluster alive");
        }
    }
}

/// Catch `engine` up with the cluster's latest cut: its image and the cut
/// chain since the engine's epoch.
fn pull(cluster: &GraphCluster, engine: &mut IncrementalEngine) -> CatchUp {
    let latest = cluster.snapshot().image().clone();
    let catchup = cluster
        .deltas_since(engine.graph().epoch())
        .map(|cut| cut.image().clone());
    engine.catch_up(latest, catchup)
}

/// The engine's maintained answers equal the from-scratch oracles on the
/// oracle graph.
fn assert_engine_matches(
    engine: &IncrementalEngine,
    oracle: &BTreeMap<(u32, u32), u64>,
    label: &str,
) {
    let adj = oracle_graph(oracle);
    assert_eq!(engine.graph().num_edges(), oracle.len(), "{label}: engine edge count");
    assert_eq!(engine.bfs().unwrap().distances(), bfs_host(&adj, 0), "{label}: engine BFS");
    assert_eq!(engine.cc().unwrap().labels(), cc_host(&adj), "{label}: engine CC");
    let expect = pagerank_host(&adj, 0.85, 1e-10, 100_000).ranks;
    for (got, want) in engine.pagerank().unwrap().ranks().iter().zip(&expect) {
        assert!((got - want).abs() < 1e-6, "{label}: engine pagerank {got} vs {want}");
    }
}

fn oracle_graph(oracle: &BTreeMap<(u32, u32), u64>) -> AdjLists {
    let edges: Vec<Edge> = oracle
        .iter()
        .map(|(&(s, d), &w)| Edge::weighted(s, d, w))
        .collect();
    AdjLists::build(NUM_VERTICES, &edges)
}

/// A fresh cut's contents + host analytics must equal the oracle's, and
/// its delta must be exact — the first cut after a marker's included.
fn assert_cut_matches(
    cluster: &GraphCluster,
    oracle: &BTreeMap<(u32, u32), u64>,
    label: &str,
) {
    let prev = cluster.snapshot();
    let snap = cluster.epoch_cut().expect("cluster alive");
    assert_cut_delta_exact(cluster, &prev, &snap, label);
    assert_snapshot_matches(&snap, oracle, label);
}

/// The delta `cluster` published for cut `snap` is exactly the change from
/// `prev`, the cut before it: every class holds against the two cut images
/// (`NetDelta::verify`), and it replays `prev`'s image into `snap`'s.
fn assert_cut_delta_exact(
    cluster: &GraphCluster,
    prev: &ClusterSnapshot,
    snap: &ClusterSnapshot,
    label: &str,
) {
    let DeltaCatchUp::Deltas(chain) = cluster.deltas_since(prev.cut()) else {
        panic!("{label}: no delta chain from cut {}", prev.cut());
    };
    let [delta] = &chain[..] else {
        panic!("{label}: {} deltas after cut {}", chain.len(), prev.cut());
    };
    assert_eq!(delta.epoch(), snap.cut(), "{label}: delta epoch");
    delta
        .verify(prev.image(), snap.image())
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let replayed = apply_delta(prev.image(), delta.blind());
    assert_eq!(replayed.edges(), snap.image().edges(), "{label}: replay");
}

fn assert_snapshot_matches(
    snap: &ClusterSnapshot,
    oracle: &BTreeMap<(u32, u32), u64>,
    label: &str,
) {
    assert_eq!(snap.num_edges(), oracle.len(), "{label}: an edge lives on two shards");
    let image = snap.image();
    let got: BTreeMap<(u32, u32), u64> = image
        .edges()
        .iter()
        .map(|e| ((e.src, e.dst), e.weight))
        .collect();
    assert_eq!(&got, oracle, "{label}: edge sets diverged");
    let adj = oracle_graph(oracle);
    let root = oracle.keys().next().map(|&(s, _)| s).unwrap_or(0);
    assert_eq!(bfs_host(&**image, root), bfs_host(&adj, root), "{label}: BFS");
    assert_eq!(cc_host(&**image), cc_host(&adj), "{label}: CC");
    let pr_cut = pagerank_host(&**image, 0.85, 1e-10, 200);
    let pr_adj = pagerank_host(&adj, 0.85, 1e-10, 200);
    for v in 0..NUM_VERTICES as usize {
        assert!(
            (pr_cut.ranks[v] - pr_adj.ranks[v]).abs() < 1e-9,
            "{label}: pagerank vertex {v}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Mid-stream reshards (hash → range 4 → 2, then degree-aware 2 → 8)
    /// are invisible to correctness: the final cut, the analytics on every
    /// post-reshard cut, and an IncrementalEngine pulling after every phase
    /// all equal the sequential oracle exactly.
    #[test]
    fn reshard_stream_matches_sequential_oracle(
        ops_a in prop::collection::vec((0u8..4, 0u32..64, 0u32..64, 1u64..100), 1..60),
        ops_b in prop::collection::vec((0u8..4, 0u32..64, 0u32..64, 1u64..100), 1..60),
        ops_c in prop::collection::vec((0u8..4, 0u32..64, 0u32..64, 1u64..100), 1..60),
        threshold in 1usize..10,
    ) {
        let mut engine = IncrementalEngine::new()
            .with_bfs(0)
            .with_cc()
            .with_pagerank(0.85, 1e-10);
        let cluster = GraphCluster::spawn(
            ClusterConfig {
                flush_threshold: threshold,
                router_batch: 16,
                ..Default::default()
            },
            &DeviceConfig::deterministic(),
            Arc::new(HashVertexPartition {
                num_vertices: NUM_VERTICES,
                num_shards: 4,
            }),
            &[],
        );
        engine.rebase_shared(cluster.snapshot().image().clone());
        let h = cluster.handle();
        let mut oracle = BTreeMap::new();

        // Phase 1 under vertex-hash × 4.
        feed(&h, &ops_a);
        apply_oracle(&mut oracle, &ops_a);
        assert_cut_matches(&cluster, &oracle, "pre-reshard");
        pull(&cluster, &mut engine);
        assert_engine_matches(&engine, &oracle, "pre-reshard");

        // Reshard 1: hash × 4 → range × 2 (shrink), with ops_b streaming
        // *during* the copy-on-write reshard from a second producer. The
        // router absorbs them under the old plan while it copies; the
        // post-swap cut must be oracle-exact anyway.
        let concurrent = {
            let hb = h.clone();
            let ops = ops_b.clone();
            std::thread::spawn(move || feed(&hb, &ops))
        };
        let r1 = cluster.reshard(Arc::new(gpma_cluster::VertexPartition {
            num_vertices: NUM_VERTICES,
            num_shards: 2,
        })).expect("reshard 1");
        concurrent.join().expect("producer");
        apply_oracle(&mut oracle, &ops_b);
        // The pause wall excludes the background copy/replay wall — the
        // split the COW protocol exists to create.
        prop_assert!(r1.pause_secs >= 0.0 && r1.background_secs >= 0.0);
        prop_assert_eq!(cluster.num_shards(), 2);
        assert_cut_matches(&cluster, &oracle, "post-shrink");
        // Every reshard marker the engine pulls across rebases it.
        prop_assert_eq!(pull(&cluster, &mut engine), CatchUp::Rebased);
        assert_engine_matches(&engine, &oracle, "post-shrink");

        // Reshard 2: degree-aware × 8 (grow) from the router's
        // observations, again with a live concurrent stream (ops_c).
        let concurrent = {
            let hc = h.clone();
            let ops = ops_c.clone();
            std::thread::spawn(move || feed(&hc, &ops))
        };
        let r2 = cluster.rebalance(Some(8)).expect("rebalance to 8");
        concurrent.join().expect("producer");
        apply_oracle(&mut oracle, &ops_c);
        prop_assert_eq!(r2.to_shards, 8);
        prop_assert_eq!(&r2.to_policy, "degree-aware");
        assert_cut_matches(&cluster, &oracle, "post-grow");
        prop_assert_eq!(pull(&cluster, &mut engine), CatchUp::Rebased);
        assert_engine_matches(&engine, &oracle, "post-grow");

        // Phase 3 under degree-aware × 8: a quiet tail, then the final cut.
        feed(&h, &ops_a);
        apply_oracle(&mut oracle, &ops_a);
        assert_cut_matches(&cluster, &oracle, "final");
        pull(&cluster, &mut engine);
        assert_engine_matches(&engine, &oracle, "final");

        let report = cluster.shutdown();
        prop_assert_eq!(report.metrics.reshard_count, 2);
        prop_assert_eq!(report.metrics.partition_version, 2);
        // The rebase at spawn plus one per reshard marker.
        let stats = engine.stats();
        prop_assert!(stats.rebases >= 3, "one rebase per epoch marker: {:?}", stats);
    }
}

/// Deterministic end-to-end: after a hub-heavy stream, `rebalance(None)`
/// installs a degree-aware plan that actually flattens the routed-update
/// skew for the rest of the stream.
#[test]
fn automatic_rebalance_flattens_hub_skew() {
    let cluster = GraphCluster::spawn(
        ClusterConfig {
            flush_threshold: 16,
            router_batch: 16,
            ..Default::default()
        },
        &DeviceConfig::deterministic(),
        PartitionPolicy::VertexHash.build(NUM_VERTICES, 4),
        &[],
    );
    let h = cluster.handle();
    // Hub-heavy phase: two hot sources own nearly all the traffic, and
    // vertex-hash happens to put both on the same shard-ish neighborhood —
    // either way max/mean ≫ 1.5 on 4 shards.
    for i in 0..512u32 {
        let src = if i % 2 == 0 { 7 } else { 9 };
        h.insert(Edge::weighted(src, i % NUM_VERTICES, u64::from(i + 1)))
            .unwrap();
    }
    cluster.epoch_cut().unwrap();
    let skew = cluster.metrics().unwrap().imbalance();
    assert!(skew > 1.5, "the hub phase is skewed: {skew}");
    let r = cluster.rebalance(None).expect("rebalance");
    assert_eq!((r.to_policy.as_str(), r.to_shards), ("degree-aware", 4));

    // Tail phase under the degree-aware plan: same hub mix. The two hubs
    // now sit on different shards, so the window skew stays near 2.0
    // (two shards share all the load) instead of 4.0 (one shard owns it).
    for i in 0..512u32 {
        let src = if i % 2 == 0 { 7 } else { 9 };
        h.insert(Edge::weighted(src, i % NUM_VERTICES, u64::from(i)))
            .unwrap();
    }
    // Assert the flattening on what the degree-aware plan did: the two hub
    // rows live on different shards in the final cut.
    let snap = cluster.epoch_cut().unwrap();
    let hub7 = snap.shards().iter().position(|s| s.out_degree(7) > 0);
    let hub9 = snap.shards().iter().position(|s| s.out_degree(9) > 0);
    assert!(hub7.is_some() && hub9.is_some(), "both hub rows must survive");
    assert_ne!(hub7, hub9, "degree-aware must split the two hubs");
    let report = cluster.shutdown();
    assert_eq!(report.metrics.reshard_count, 1);
    assert_eq!(report.final_snapshot.num_edges(), NUM_VERTICES as usize);
}

/// The owner-diff of a cut against a new plan, as `(moved, resident)`: an
/// edge moves iff the plan places it on a shard other than the one
/// holding it.
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

/// An explicit reshard to a degree-aware plan built offline from a known
/// edge list: placement follows the plan exactly and nothing is lost.
#[test]
fn explicit_degree_aware_reshard_places_rows_whole() {
    let cluster = spawn_cluster(4, 8);
    let h = cluster.handle();
    let mut edges = Vec::new();
    for d in 1..32u32 {
        edges.push(Edge::new(0, d)); // hub row
    }
    for v in 1..16u32 {
        edges.push(Edge::new(v, v + 16));
    }
    for e in &edges {
        h.insert(*e).unwrap();
    }
    let before = cluster.epoch_cut().unwrap();
    let plan = Arc::new(DegreePartition::from_edges(NUM_VERTICES, &edges, 4));
    let report = cluster.reshard(plan.clone()).unwrap();
    // Nothing streams through this reshard, so the mover set the
    // copy-on-write protocol reconstructed incrementally must be exactly
    // the owner-diff of the pre-reshard placement — the reference oracle.
    let (moved, resident) = owner_diff(&before, &*plan);
    assert_eq!(report.migrated_edges, moved);
    assert_eq!(report.resident_edges, resident);
    let snap = cluster.epoch_cut().unwrap();
    assert_eq!(snap.num_edges(), edges.len());
    for (i, s) in snap.shards().iter().enumerate() {
        for e in s.edges() {
            assert_eq!(
                plan.shard_of_edge(e.src, e.dst),
                i,
                "edge ({},{}) misplaced",
                e.src,
                e.dst
            );
        }
    }
    // The hub row lives whole on one shard (1D vertex policy).
    let hub_shards = snap
        .shards()
        .iter()
        .filter(|s| s.out_degree(0) > 0)
        .count();
    assert_eq!(hub_shards, 1);
    drop(cluster.shutdown());
}

/// A vertex-range plan whose first placement lookup — made by the router,
/// inside the frozen-cut copy of the reshard onto it — parks the caller at
/// a two-party gate until the test opens it.
struct GatedPlan {
    inner: VertexPartition,
    gate: Arc<Barrier>,
    passed: AtomicBool,
}

impl Partitioner for GatedPlan {
    fn name(&self) -> &str {
        "gated-range"
    }
    fn num_shards(&self) -> usize {
        self.inner.num_shards
    }
    fn num_vertices(&self) -> u32 {
        self.inner.num_vertices
    }
    fn shard_of_edge(&self, src: u32, dst: u32) -> usize {
        if !self.passed.swap(true, Ordering::SeqCst) {
            self.gate.wait(); // "the router is inside the copy"
            self.gate.wait(); // "carry on"
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

/// A cut and a second reshard that arrive while a reshard is in flight
/// wait for its marker cut and then run in arrival order: the cut sees the
/// first reshard's plan (and everything accepted before it, once), the
/// second reshard starts from there.
#[test]
fn commands_deferred_mid_reshard_run_in_arrival_order() {
    let cluster = spawn_cluster(4, 8);
    let h = cluster.handle();
    let mut oracle = BTreeMap::new();
    let ops_a: Vec<_> = (0..48u32).map(|i| (0u8, i, i * 7 + 3, u64::from(i + 1))).collect();
    feed(&h, &ops_a);
    apply_oracle(&mut oracle, &ops_a);
    cluster.epoch_cut().unwrap();

    let gate = Arc::new(Barrier::new(2));
    let first = Arc::new(GatedPlan {
        inner: VertexPartition {
            num_vertices: NUM_VERTICES,
            num_shards: 2,
        },
        gate: gate.clone(),
        passed: AtomicBool::new(false),
    });
    let second = Arc::new(HashVertexPartition {
        num_vertices: NUM_VERTICES,
        num_shards: 8,
    });
    let (r1, snap, r2) = std::thread::scope(|s| {
        let r1 = s.spawn(|| cluster.reshard(first.clone()));
        gate.wait();
        // The router is parked inside the first reshard's copy: whatever
        // is sent now queues behind it, in this order.
        let ops_b: Vec<_> = (0..24u32)
            .map(|i| (i as u8 % 4, i * 5, i + 9, u64::from(i + 100)))
            .collect();
        feed(&h, &ops_b);
        apply_oracle(&mut oracle, &ops_b);
        let cut = s.spawn(|| cluster.epoch_cut());
        while h.queue_depth() < ops_b.len() + 1 {
            std::thread::yield_now();
        }
        let r2 = s.spawn(|| cluster.reshard(second.clone()));
        while h.queue_depth() < ops_b.len() + 2 {
            std::thread::yield_now();
        }
        gate.wait();
        (
            r1.join().expect("first reshard caller").expect("reshard 1"),
            cut.join().expect("cut caller").expect("cluster alive"),
            r2.join().expect("second reshard caller").expect("reshard 2"),
        )
    });

    assert_eq!((r1.version, r1.to_shards), (1, 2));
    assert_eq!(snap.cut(), r1.cut + 1, "the cut is the first thing after the marker");
    assert_eq!(snap.num_shards(), 2, "the cut ran before the second reshard began");
    assert_snapshot_matches(&snap, &oracle, "deferred cut");
    assert_eq!((r2.version, r2.from_shards, r2.to_shards), (2, 2, 8));
    assert!(r2.cut > snap.cut());

    assert_eq!(cluster.partition_version(), 2);
    let history: Vec<(String, usize)> = cluster
        .reshard_history()
        .into_iter()
        .map(|r| (r.to_policy, r.to_shards))
        .collect();
    assert_eq!(
        history,
        [("gated-range".to_string(), 2), ("vertex-hash".to_string(), 8)]
    );
    assert_cut_matches(&cluster, &oracle, "after both reshards");
    let report = cluster.shutdown();
    assert_eq!(report.metrics.worker_errors, 0);
}
