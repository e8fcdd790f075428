//! End-to-end tests of the sharded streaming cluster (`gpma-cluster`): a
//! 4-shard cluster fed interleaved insert/delete streams must agree exactly
//! with a single-device sequential oracle at the coordinated epoch cut —
//! same edge set, same BFS/CC/PageRank results on the merged snapshot —
//! under *both* partitioning policies, and the distributed (sharded) BFS
//! must match the host oracle too.

use std::collections::BTreeMap;

use gpma_analytics::{bfs_host, bfs_sharded, cc_host, pagerank_host, HostGraph, UNREACHED};
use gpma_baselines::AdjLists;
use gpma_cluster::{ClusterConfig, ClusterHandle, GraphCluster, PartitionPolicy};
use gpma_graph::Edge;
use gpma_sim::pcie::Pcie;
use gpma_sim::{DeviceConfig, PcieConfig};

use proptest::prelude::*;

const NUM_VERTICES: u32 = 64;
const SHARDS: usize = 4;

fn spawn_cluster(policy: PartitionPolicy, initial: &[Edge], threshold: usize) -> GraphCluster {
    GraphCluster::spawn(
        ClusterConfig {
            flush_threshold: threshold,
            router_batch: 16,
            ..Default::default()
        },
        &DeviceConfig::deterministic(),
        policy.build(NUM_VERTICES, SHARDS),
        initial,
    )
}

/// Sequential oracle for one producer's op stream over its private source
/// range: arrival order, last write wins, deletes remove.
fn apply_oracle(
    oracle: &mut BTreeMap<(u32, u32), u64>,
    ops: &[(u8, u32, u32, u64)],
    src_base: u32,
) {
    for &(kind, s, d, w) in ops {
        let src = src_base + (s % 16);
        let dst = d % (NUM_VERTICES - 1);
        if kind < 3 {
            oracle.insert((src, dst), w);
        } else {
            oracle.remove(&(src, dst));
        }
    }
}

fn feed(h: &ClusterHandle, ops: &[(u8, u32, u32, u64)], src_base: u32) {
    for &(kind, s, d, w) in ops {
        let src = src_base + (s % 16);
        let dst = d % (NUM_VERTICES - 1);
        if kind < 3 {
            h.insert(Edge::weighted(src, dst, w)).expect("cluster alive");
        } else {
            h.delete(Edge::new(src, dst)).expect("cluster alive");
        }
    }
}

#[test]
fn multi_producer_cluster_with_concurrent_cuts() {
    const PRODUCERS: u32 = 4;
    const EDGES_EACH: u32 = 100;
    const DSTS_EACH: u32 = 12;

    for policy in [PartitionPolicy::VertexHash, PartitionPolicy::EdgeGrid] {
        // Star seed: 0 → each producer's hub vertex 1..=4.
        let initial: Vec<Edge> = (1..=PRODUCERS).map(|v| Edge::new(0, v)).collect();
        let cluster = spawn_cluster(policy, &initial, 8);

        // Disjoint destination ranges per producer make the final edge set
        // interleaving-independent; repeats exercise last-write-wins.
        let edges_of = |p: u32| -> Vec<Edge> {
            (0..EDGES_EACH)
                .map(|i| {
                    Edge::weighted(1 + p, 5 + p * DSTS_EACH + (i % DSTS_EACH), u64::from(i + 1))
                })
                .collect()
        };
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let h = cluster.handle();
                let edges = edges_of(p);
                std::thread::spawn(move || {
                    for e in edges {
                        h.insert(e).expect("cluster alive");
                    }
                })
            })
            .collect();

        // Concurrent cuts race the producers: cut numbers must be monotone
        // and (insert-only workload) edge counts monotone with them.
        let mut last_cut = 0;
        let mut last_edges = 0;
        for _ in 0..10 {
            let snap = cluster.epoch_cut().expect("cluster alive");
            assert!(snap.cut() > last_cut, "{policy:?}: cuts are monotone");
            assert!(
                snap.num_edges() >= last_edges,
                "{policy:?}: insert-only edge counts are monotone"
            );
            last_cut = snap.cut();
            last_edges = snap.num_edges();
            std::thread::yield_now();
        }
        for t in producers {
            t.join().unwrap();
        }

        let mut oracle: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for e in &initial {
            oracle.insert((e.src, e.dst), e.weight);
        }
        for p in 0..PRODUCERS {
            for e in edges_of(p) {
                oracle.insert((e.src, e.dst), e.weight);
            }
        }

        let snap = cluster.epoch_cut().expect("cluster alive");
        let image = snap.image();
        let got: BTreeMap<(u32, u32), u64> = image
            .edges()
            .iter()
            .map(|e| ((e.src, e.dst), e.weight))
            .collect();
        assert_eq!(got, oracle, "{policy:?}");

        // Analytics on the cut's image: every streamed destination is two
        // hops from the root through its producer's hub.
        let dist = bfs_host(&**image, 0);
        for p in 0..PRODUCERS {
            assert_eq!(dist[(1 + p) as usize], 1, "{policy:?} hub {p}");
            for d in 0..DSTS_EACH {
                assert_eq!(dist[(5 + p * DSTS_EACH + d) as usize], 2, "{policy:?}");
            }
        }
        let reached = dist.iter().filter(|&&d| d != UNREACHED).count();
        assert_eq!(reached, (1 + PRODUCERS * (1 + DSTS_EACH)) as usize);

        let report = cluster.shutdown();
        assert_eq!(
            report.metrics.ingested(),
            u64::from(PRODUCERS * EDGES_EACH),
            "{policy:?}"
        );
        assert_eq!(report.final_snapshot.num_edges(), snap.num_edges());
        assert_eq!(
            report.metrics.routed.iter().sum::<u64>(),
            u64::from(PRODUCERS * EDGES_EACH),
            "{policy:?}: every accepted update was routed"
        );
        assert!(report.metrics.total_transfer().bytes > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A 4-shard cluster ingesting two interleaved insert/delete streams
    /// (disjoint source ranges, ~3:1 insert:delete) matches the sequential
    /// oracle at the final cut under both partitioning policies: same edge
    /// set, same BFS / CC / PageRank on the merged snapshot, and the
    /// distributed sharded analytics agree with the host oracles.
    #[test]
    fn sharded_streams_match_sequential_oracle(
        ops_a in prop::collection::vec((0u8..4, 0u32..16, 0u32..64, 1u64..100), 0..40),
        ops_b in prop::collection::vec((0u8..4, 0u32..16, 0u32..64, 1u64..100), 0..40),
        threshold in 1usize..10,
    ) {
        for policy in [PartitionPolicy::VertexHash, PartitionPolicy::EdgeGrid] {
            let cluster = spawn_cluster(policy, &[], threshold);
            let ta = {
                let h = cluster.handle();
                let ops = ops_a.clone();
                std::thread::spawn(move || feed(&h, &ops, 0))
            };
            let tb = {
                let h = cluster.handle();
                let ops = ops_b.clone();
                std::thread::spawn(move || feed(&h, &ops, 16))
            };
            ta.join().unwrap();
            tb.join().unwrap();

            let mut oracle = BTreeMap::new();
            apply_oracle(&mut oracle, &ops_a, 0);
            apply_oracle(&mut oracle, &ops_b, 16);

            let snap = cluster.epoch_cut().expect("cluster alive");
            let image = snap.image();
            let got: BTreeMap<(u32, u32), u64> = image
                .edges()
                .iter()
                .map(|e| ((e.src, e.dst), e.weight))
                .collect();
            prop_assert_eq!(&got, &oracle, "{:?}", policy);

            // Single-device oracle graph from the oracle edge set.
            let oracle_edges: Vec<Edge> = oracle
                .iter()
                .map(|(&(s, d), &w)| Edge::weighted(s, d, w))
                .collect();
            let adj = AdjLists::build(NUM_VERTICES, &oracle_edges);

            // Analytics on the cut's image equal the single-device oracles.
            let root = oracle_edges.first().map(|e| e.src).unwrap_or(0);
            prop_assert_eq!(bfs_host(&**image, root), bfs_host(&adj, root), "{:?}", policy);
            prop_assert_eq!(cc_host(&**image), cc_host(&adj), "{:?}", policy);
            let pr_oracle = pagerank_host(&adj, 0.85, 1e-10, 200);
            let pr_merged = pagerank_host(&**image, 0.85, 1e-10, 200);
            for v in 0..NUM_VERTICES as usize {
                prop_assert!(
                    (pr_merged.ranks[v] - pr_oracle.ranks[v]).abs() < 1e-9,
                    "{:?} merged pagerank vertex {}", policy, v
                );
            }

            // Distributed BFS over the shard snapshots agrees too.
            let link = Pcie::new(PcieConfig::default());
            let refs = snap.shard_refs();
            let (dist, _) = bfs_sharded(&refs, NUM_VERTICES, root, &link);
            prop_assert_eq!(dist, bfs_host(&adj, root), "{:?}", policy);

            // The shards are edge-disjoint: their counts add up to the
            // oracle's, and every row of the image is whole.
            prop_assert_eq!(snap.num_edges(), oracle.len());
            let total: usize = (0..NUM_VERTICES)
                .map(|v| HostGraph::out_degree(&**image, v))
                .sum();
            prop_assert_eq!(total, oracle.len());

            let report = cluster.shutdown();
            prop_assert_eq!(
                report.metrics.ingested(),
                (ops_a.len() + ops_b.len()) as u64
            );
        }
    }
}

/// A cut's image also works as a `HostGraph` trait object (monitors take
/// `&dyn HostGraph`).
#[test]
fn cluster_snapshot_as_dyn_host_graph() {
    let cluster = spawn_cluster(PartitionPolicy::VertexHash, &[Edge::new(0, 1)], 4);
    let snap = cluster.epoch_cut().expect("cluster alive");
    let g: &dyn HostGraph = &**snap.image();
    assert_eq!(g.num_vertices(), NUM_VERTICES);
    assert_eq!(g.out_degree(0), 1);
    drop(cluster);
}

#[test]
fn cut_isolation_between_epochs() {
    // A cut must not observe updates accepted after its ack.
    let cluster = spawn_cluster(PartitionPolicy::EdgeGrid, &[], 4);
    let h = cluster.handle();
    h.insert(Edge::new(1, 2)).unwrap();
    let early = cluster.epoch_cut().unwrap();
    h.insert(Edge::new(3, 4)).unwrap();
    let late = cluster.epoch_cut().unwrap();
    let (early, late) = (early.image(), late.image());
    assert!(early.contains(1, 2) && !early.contains(3, 4));
    assert!(late.contains(1, 2) && late.contains(3, 4));
    drop(cluster.shutdown());
}
