//! End-to-end tests of the epoch-delta read path (`gpma-incremental`):
//! replaying the published `NetDelta` chain from epoch 0 must
//! reconstruct the barrier `GraphSnapshot` exactly — through the streaming
//! service *and* through a 4-shard cluster's coordinated cuts — and every
//! incremental maintainer must equal its from-scratch oracle after every
//! epoch of a random insert/delete stream.

use std::sync::Arc;

use gpma_analytics::{bfs_host, cc_host, pagerank_host};
use gpma_cluster::{ClusterConfig, GraphCluster, PartitionPolicy};
use gpma_core::delta::{apply_delta, DeltaCatchUp, NetDelta, SnapshotDelta};
use gpma_core::framework::{DynamicGraphSystem, GraphSnapshot};
use gpma_graph::{Edge, UpdateBatch};
use gpma_incremental::{DeltaGraph, IncrementalEngine};
use gpma_service::{ServiceConfig, StreamingService};
use gpma_sim::{Device, DeviceConfig};

use proptest::prelude::*;

const NUM_VERTICES: u32 = 48;

type Op = (u8, u32, u32, u64);

/// Interpret one raw op against the shared vertex space.
fn decode(op: Op) -> (bool, Edge) {
    let (kind, s, d, w) = op;
    let src = s % NUM_VERTICES;
    let dst = d % (NUM_VERTICES - 1);
    let dst = if dst == src { NUM_VERTICES - 1 } else { dst };
    // ~70% inserts, ~30% deletes.
    (kind < 7, Edge::weighted(src, dst, 1 + (w % 64)))
}

fn ops_strategy(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..10, 0u32..NUM_VERTICES, 0u32..NUM_VERTICES, 0u64..1024),
        0..max_len,
    )
}

/// Replay `chain` on `base`, checking that each delta is exactly the change
/// it makes.
fn replay(base: &GraphSnapshot, chain: &[Arc<NetDelta>]) -> GraphSnapshot {
    let mut snap = base.clone();
    for d in chain {
        assert_eq!(d.epoch(), snap.epoch() + 1, "chain must be gap-free");
        let next = apply_delta(&snap, d.blind());
        d.verify(&snap, &next).unwrap();
        snap = next;
    }
    snap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Service path: the delta ring's chain from epoch 0 reconstructs the
    /// barrier snapshot bit-for-bit.
    #[test]
    fn service_delta_chain_replays_exactly(ops in ops_strategy(160)) {
        let dev = Device::new(DeviceConfig::deterministic());
        let sys = DynamicGraphSystem::new(dev, NUM_VERTICES, &[Edge::new(0, 1)], 5);
        let svc = StreamingService::spawn(ServiceConfig::default(), sys);
        let epoch0 = svc.snapshot();
        let h = svc.handle();
        for op in ops {
            let (insert, e) = decode(op);
            if insert {
                h.insert(e).expect("service alive");
            } else {
                h.delete(e).expect("service alive");
            }
        }
        let barrier = svc.barrier().expect("service alive");
        let chain = match svc.deltas_since(0) {
            DeltaCatchUp::Deltas(chain) => chain,
            DeltaCatchUp::Snapshot(_) => panic!("default ring covers this run"),
        };
        let replayed = replay(&epoch0, &chain);
        prop_assert_eq!(&replayed, &*barrier);
        // The final report (a store readback) agrees too.
        let report = svc.shutdown();
        prop_assert_eq!(report.final_snapshot.edges(), replayed.edges());
    }

    /// Cluster path: one merged delta per coordinated cut; replaying the
    /// cut chain from cut 0 reconstructs the final cut's merged snapshot
    /// exactly, under both partitioning policies.
    #[test]
    fn cluster_cut_deltas_replay_exactly(ops in ops_strategy(120)) {
        for policy in [PartitionPolicy::VertexHash, PartitionPolicy::EdgeGrid] {
            let cluster = GraphCluster::spawn(
                ClusterConfig {
                    flush_threshold: 4,
                    router_batch: 8,
                    ..Default::default()
                },
                &DeviceConfig::deterministic(),
                policy.build(NUM_VERTICES, 4),
                &[Edge::new(0, 1), Edge::new(1, 2)],
            );
            let cut0 = cluster.snapshot().to_graph_snapshot();
            let h = cluster.handle();
            // Interleave cuts mid-stream so the chain has several links.
            for (i, &op) in ops.iter().enumerate() {
                let (insert, e) = decode(op);
                if insert {
                    h.insert(e).expect("cluster alive");
                } else {
                    h.delete(e).expect("cluster alive");
                }
                if i % 40 == 39 {
                    cluster.epoch_cut().expect("cluster alive");
                }
            }
            let last = cluster.epoch_cut().expect("cluster alive");
            let chain = match cluster.deltas_since(0) {
                DeltaCatchUp::Deltas(chain) => chain,
                DeltaCatchUp::Snapshot(_) => panic!("ring covers every cut"),
            };
            let replayed = replay(&cut0, &chain);
            let flat = last.to_graph_snapshot();
            prop_assert_eq!(replayed.edges(), flat.edges(), "policy {}", policy.name());
            prop_assert_eq!(replayed.epoch(), last.cut());
            let report = cluster.shutdown();
            prop_assert_eq!(report.metrics.delta_fallbacks, 0);
        }
    }

    /// Every incremental maintainer equals its from-scratch oracle after
    /// every epoch of a random insert/delete stream.
    #[test]
    fn maintainers_match_oracles_every_epoch(ops in ops_strategy(150)) {
        let root = 0u32;
        let mut engine = IncrementalEngine::new()
            .with_bfs(root)
            .with_cc()
            .with_pagerank(0.85, 1e-9);
        let initial = GraphSnapshot::from_edges(
            0,
            NUM_VERTICES,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(5, 6)],
        );
        engine.rebase(&initial);
        // The oracle is the snapshot replay itself, not a second engine
        // graph; the two bare graphs only compare the two apply paths.
        let mut shadow = initial.clone();
        let mut advancing = DeltaGraph::from_snapshot(&initial);
        let mut adopting = DeltaGraph::from_snapshot(&initial);
        for (epoch, chunk) in ops.chunks(6).enumerate() {
            let mut batch = UpdateBatch::default();
            for &op in chunk {
                let (insert, e) = decode(op);
                if insert {
                    batch.insertions.push(e);
                } else {
                    batch.deletions.push(e);
                }
            }
            let delta = SnapshotDelta::from_batch(epoch as u64 + 1, &batch);
            let next = apply_delta(&shadow, &delta);
            let before = std::mem::replace(&mut shadow, next);
            engine.apply(&delta);
            prop_assert_eq!(&**engine.graph().image(), &shadow);
            prop_assert_eq!(engine.graph().num_edges(), shadow.num_edges());
            let mut transpose = vec![Vec::new(); NUM_VERTICES as usize];
            for e in shadow.edges() {
                transpose[e.dst as usize].push(e.src);
            }
            for v in 0..NUM_VERTICES {
                prop_assert_eq!(
                    engine.graph().in_neighbors(v).collect::<Vec<_>>(),
                    transpose[v as usize].clone(),
                    "in-neighbours of {} diverged at epoch {}",
                    v,
                    epoch + 1
                );
            }
            let published = Arc::new(shadow.clone());
            let net = advancing.apply(&delta);
            prop_assert_eq!(net.verify(&before, &shadow), Ok(()));
            adopting.apply_at(&net, published.clone());
            prop_assert!(Arc::ptr_eq(adopting.image(), &published));
            for v in 0..NUM_VERTICES {
                prop_assert!(adopting.in_neighbors(v).eq(advancing.in_neighbors(v)));
            }
            prop_assert_eq!(
                engine.bfs().unwrap().distances(),
                bfs_host(&shadow, root).as_slice(),
                "BFS diverged at epoch {}",
                epoch + 1
            );
            prop_assert_eq!(
                engine.cc().unwrap().labels(),
                cc_host(&shadow),
                "CC diverged at epoch {}",
                epoch + 1
            );
            let oracle = pagerank_host(&shadow, 0.85, 1e-9, 100_000).ranks;
            for (v, (a, b)) in engine
                .pagerank()
                .unwrap()
                .ranks()
                .iter()
                .zip(&oracle)
                .enumerate()
            {
                prop_assert!(
                    (a - b).abs() < 1e-6,
                    "PageRank diverged at epoch {} vertex {v}: {a} vs {b}",
                    epoch + 1
                );
            }
        }
    }
}
