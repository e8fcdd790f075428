//! Crash-recovery fault-injection harness: a shard worker is killed at a
//! random point of a random insert/delete stream — under both 1D partition
//! policies, with and without a checkpoint store — and the recovered
//! cluster (respawned from its latest durable checkpoint, or its last
//! published image, plus the router's op log) must equal the single-device
//! sequential oracle at every subsequent cut: same edge set, same
//! BFS/CC/PageRank. Deterministic cases cover a kill straddling a live
//! reshard, a delta ring too small to cover the gap, an update forwarded
//! while a cut round is in flight, checkpoints that must equal the cut's
//! shard images, and a store whose saves fail. Every checked cut's
//! published delta must be exactly its change from the cut before — the
//! cut a killed shard's reissued round publishes, and the first cut after
//! a reshard's marker, included.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gpma_analytics::{bfs_host, cc_host, pagerank_host};
use gpma_baselines::AdjLists;
use gpma_cluster::{
    CheckpointStore, ClusterConfig, ClusterHandle, ClusterSnapshot, GraphCluster,
    HashVertexPartition, MemoryCheckpointStore, VertexPartition,
};
use gpma_core::checkpoint;
use gpma_core::delta::{apply_delta, DeltaCatchUp};
use gpma_core::multi::Partitioner;
use gpma_graph::{Edge, UpdateBatch};
use gpma_sim::DeviceConfig;

use proptest::prelude::*;

const NUM_VERTICES: u32 = 64;

fn recovery_config(threshold: usize, store: bool) -> ClusterConfig {
    let memory = || Arc::new(MemoryCheckpointStore::new()) as Arc<dyn CheckpointStore>;
    ClusterConfig {
        flush_threshold: threshold,
        router_batch: 16,
        checkpoints: store.then(memory),
        ..Default::default()
    }
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

fn oracle_graph(oracle: &BTreeMap<(u32, u32), u64>) -> AdjLists {
    let edges: Vec<Edge> = oracle
        .iter()
        .map(|(&(s, d), &w)| Edge::weighted(s, d, w))
        .collect();
    AdjLists::build(NUM_VERTICES, &edges)
}

/// Cut contents + host analytics on the cut must equal the oracle's, and
/// the cut's delta must be exact.
fn assert_cut_matches(cluster: &GraphCluster, oracle: &BTreeMap<(u32, u32), u64>, label: &str) {
    let prev = cluster.snapshot();
    let snap = cluster.epoch_cut().expect("cluster alive");
    assert_cut_delta_exact(cluster, &prev, &snap, label);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Kill a random shard at a random epoch of a random stream, under
    /// either 1D policy, with or without a checkpoint store: the recovered
    /// cluster equals the sequential oracle at every subsequent cut. The
    /// kill lands mid-stream, so whatever the victim had buffered but not
    /// flushed dies with it and must come back from the rebuild.
    #[test]
    fn killed_shard_stream_matches_sequential_oracle(
        ops_a in prop::collection::vec((0u8..4, 0u32..64, 0u32..64, 1u64..100), 1..60),
        ops_b in prop::collection::vec((0u8..4, 0u32..64, 0u32..64, 1u64..100), 1..60),
        ops_c in prop::collection::vec((0u8..4, 0u32..64, 0u32..64, 1u64..100), 1..60),
        kill_shard in 0usize..4,
        use_hash in any::<bool>(),
        threshold in 1usize..10,
        store in any::<bool>(),
    ) {
        let policy: Arc<dyn Partitioner> = if use_hash {
            Arc::new(HashVertexPartition { num_vertices: NUM_VERTICES, num_shards: 4 })
        } else {
            Arc::new(VertexPartition { num_vertices: NUM_VERTICES, num_shards: 4 })
        };
        let cluster = GraphCluster::spawn(
            recovery_config(threshold, store),
            &DeviceConfig::deterministic(),
            policy,
            &[],
        );
        let h = cluster.handle();
        let mut oracle = BTreeMap::new();

        // Phase 1: establish durable checkpoints at a healthy cut.
        feed(&h, &ops_a);
        apply_oracle(&mut oracle, &ops_a);
        assert_cut_matches(&cluster, &oracle, "pre-kill");

        // Phase 2: stream a random prefix, then kill a random shard. The
        // random ops_b length is the random kill epoch.
        feed(&h, &ops_b);
        apply_oracle(&mut oracle, &ops_b);
        prop_assert!(cluster.kill_shard(kill_shard).expect("cluster alive"));

        // Phase 3: keep streaming over the corpse; the cut's barrier finds
        // it silent, and the router respawns it and reissues the round.
        feed(&h, &ops_c);
        apply_oracle(&mut oracle, &ops_c);
        assert_cut_matches(&cluster, &oracle, "first post-kill cut");

        // Every *subsequent* cut must stay exact too (the recovered
        // incarnation keeps ingesting and checkpointing).
        feed(&h, &ops_b);
        apply_oracle(&mut oracle, &ops_b);
        assert_cut_matches(&cluster, &oracle, "second post-kill cut");

        let report = cluster.shutdown();
        prop_assert!(report.metrics.recoveries >= 1, "the kill must be recovered");
    }
}

/// A kill straddling a live reshard: the dead worker leaves the copy round
/// unanswered, is recovered, and the migration proceeds onto the new plan;
/// a second kill *after* the reshard recovers from the re-taken
/// checkpoints. Both sides stay oracle-exact.
#[test]
fn kill_straddling_a_reshard_recovers_exactly() {
    let cluster = GraphCluster::spawn(
        recovery_config(4, true),
        &DeviceConfig::deterministic(),
        Arc::new(HashVertexPartition {
            num_vertices: NUM_VERTICES,
            num_shards: 4,
        }),
        &[],
    );
    let h = cluster.handle();
    let mut oracle = BTreeMap::new();

    let phase_a: Vec<(u8, u32, u32, u64)> = (0..40u32)
        .map(|i| (0u8, i % NUM_VERTICES, (i * 7 + 1) % NUM_VERTICES, u64::from(i + 1)))
        .collect();
    feed(&h, &phase_a);
    apply_oracle(&mut oracle, &phase_a);
    assert_cut_matches(&cluster, &oracle, "pre-kill");

    // Kill, then immediately reshard: the copy round the corpse leaves
    // unanswered must recover it before migrating state off it.
    assert!(cluster.kill_shard(2).expect("cluster alive"));
    let report = cluster
        .reshard(Arc::new(VertexPartition {
            num_vertices: NUM_VERTICES,
            num_shards: 2,
        }))
        .expect("reshard over a dead shard");
    assert_eq!(report.migrated_edges + report.resident_edges, oracle.len());
    assert_eq!(cluster.num_shards(), 2);
    assert_cut_matches(&cluster, &oracle, "post-reshard");

    // The reshard re-checkpointed the new incarnations: a kill in the new
    // shard space recovers from those.
    let phase_b: Vec<(u8, u32, u32, u64)> = (0..24u32)
        .map(|i| {
            let kind = if i % 5 == 4 { 3u8 } else { 0u8 };
            (kind, (i * 3) % NUM_VERTICES, (i * 11 + 2) % NUM_VERTICES, u64::from(i + 100))
        })
        .collect();
    feed(&h, &phase_b);
    apply_oracle(&mut oracle, &phase_b);
    assert!(cluster.kill_shard(1).expect("cluster alive"));
    feed(&h, &phase_a);
    apply_oracle(&mut oracle, &phase_a);
    assert_cut_matches(&cluster, &oracle, "post-reshard kill");

    let report = cluster.shutdown();
    assert!(report.metrics.recoveries >= 2, "both kills must be recovered");
    assert_eq!(report.metrics.reshard_count, 1);
}

/// A shard killed *inside* a copy-on-write reshard: the kill is armed
/// before the reshard starts and fires at the victim's next barrier, the
/// copy round's, so the victim dies between the frozen-cut copy's barrier
/// and its ack — taking whatever staged arrivals it had queued down with
/// it. The router must recover the corpse mid-copy,
/// rebuild its staged image from the respawned incarnation's settled
/// state, and land the reshard oracle-exact with ingest flowing the whole
/// time.
#[test]
fn kill_during_cow_reshard_recovers_exactly() {
    let cluster = GraphCluster::spawn(
        ClusterConfig {
            flush_threshold: 4,
            router_batch: 8,
            checkpoints: Some(Arc::new(MemoryCheckpointStore::new())),
            ..Default::default()
        },
        &DeviceConfig::deterministic(),
        Arc::new(HashVertexPartition {
            num_vertices: NUM_VERTICES,
            num_shards: 4,
        }),
        &[],
    );
    let h = cluster.handle();
    let mut oracle = BTreeMap::new();

    // Phase A: ingest and cut outside any reshard.
    let phase_a: Vec<(u8, u32, u32, u64)> = (0..48u32)
        .map(|i| {
            let kind = if i % 7 == 6 { 3u8 } else { 0u8 };
            (kind, i % NUM_VERTICES, (i * 7 + 1) % NUM_VERTICES, u64::from(i + 1))
        })
        .collect();
    feed(&h, &phase_a);
    apply_oracle(&mut oracle, &phase_a);
    assert_cut_matches(&cluster, &oracle, "pre-reshard (fault armed)");
    assert!(cluster.kill_shard_at_next_barrier(1).expect("cluster alive"));

    // Phase B: reshard 4 → 2 with a live concurrent stream. The armed kill
    // fires at the copy round's barrier and must be recovered there.
    let phase_b: Vec<(u8, u32, u32, u64)> = (0..160u32)
        .map(|i| {
            let kind = if i % 6 == 5 { 3u8 } else { 0u8 };
            (kind, (i * 3) % NUM_VERTICES, (i * 11 + 2) % NUM_VERTICES, u64::from(i + 100))
        })
        .collect();
    let concurrent = {
        let hb = h.clone();
        let ops = phase_b.clone();
        std::thread::spawn(move || feed(&hb, &ops))
    };
    let report = cluster
        .reshard(Arc::new(VertexPartition {
            num_vertices: NUM_VERTICES,
            num_shards: 2,
        }))
        .expect("reshard through a mid-COW kill");
    concurrent.join().expect("producer");
    apply_oracle(&mut oracle, &phase_b);
    assert_eq!(cluster.num_shards(), 2);
    assert!(report.pause_secs >= 0.0 && report.background_secs >= 0.0);
    assert_cut_matches(&cluster, &oracle, "post-kill-during-COW");

    // Tail: the recovered incarnation keeps ingesting under the new plan.
    feed(&h, &phase_a);
    apply_oracle(&mut oracle, &phase_a);
    assert_cut_matches(&cluster, &oracle, "tail cut");

    let metrics = cluster.shutdown().metrics;
    assert_eq!(metrics.reshard_count, 1);
    assert!(
        metrics.recoveries >= 1,
        "the armed kill must fire inside the reshard and be recovered: {metrics}"
    );
}

/// Shard delta rings (one delta each) far too small to cover the flushes
/// since the last checkpoint: recovery never reads the ring, so it
/// restores the checkpoint, re-applies the router's op log and stays
/// oracle-exact with no snapshot fallback.
#[test]
fn outrun_delta_ring_recovers_from_checkpoint_and_log() {
    let cluster = GraphCluster::spawn(
        ClusterConfig {
            flush_threshold: 2,
            router_batch: 4,
            checkpoints: Some(Arc::new(MemoryCheckpointStore::new())),
            ..Default::default()
        },
        &DeviceConfig::deterministic(),
        Arc::new(VertexPartition {
            num_vertices: NUM_VERTICES,
            num_shards: 4,
        }),
        &[],
    );
    let h = cluster.handle();
    let mut oracle = BTreeMap::new();

    let seed_ops: Vec<(u8, u32, u32, u64)> = (0..16u32)
        .map(|i| (0u8, i % 16, (i + 17) % NUM_VERTICES, u64::from(i + 1)))
        .collect();
    feed(&h, &seed_ops);
    apply_oracle(&mut oracle, &seed_ops);
    assert_cut_matches(&cluster, &oracle, "checkpoint cut");

    // 32 updates for shard 0 alone (VertexPartition ranges: vertices 0..16)
    // = 16 flushes at threshold 2, blowing far past the 1-deep ring.
    let burst: Vec<(u8, u32, u32, u64)> = (0..32u32)
        .map(|i| (0u8, i % 16, (i * 5 + 3) % NUM_VERTICES, u64::from(i + 200)))
        .collect();
    feed(&h, &burst);
    apply_oracle(&mut oracle, &burst);
    assert!(cluster.kill_shard(0).expect("cluster alive"));

    let tail_ops: Vec<(u8, u32, u32, u64)> = (0..12u32)
        .map(|i| (0u8, i % 16, (i * 13 + 5) % NUM_VERTICES, u64::from(i + 500)))
        .collect();
    feed(&h, &tail_ops);
    apply_oracle(&mut oracle, &tail_ops);
    assert_cut_matches(&cluster, &oracle, "post-outrun recovery");

    let report = cluster.shutdown();
    assert!(report.metrics.recoveries >= 1);
    assert_eq!(
        report.metrics.recovery_snapshot_fallbacks, 0,
        "the checkpoint decodes, so recovery needs no published image: {}",
        report.metrics
    );
}

/// Process-restart durability: drive a cluster whose checkpoints land in
/// an on-disk [`DirCheckpointStore`], shut the whole cluster down (the
/// "process" exits — every worker, ring and op log is gone), then
/// rebuild purely from the directory via `spawn_from_store` and require
/// the restored edge set — under a *different* shard plan — to equal the
/// last checkpointed cut exactly.
#[test]
fn cluster_restarts_from_dir_checkpoint_store() {
    use gpma_cluster::DirCheckpointStore;

    let root = std::env::temp_dir().join(format!(
        "gpma-restart-test-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&root);

    // Incarnation 1: random-ish deterministic stream, checkpoint at every
    // cut so the directory ends up holding the full final state.
    let mut oracle = BTreeMap::new();
    let ops: Vec<(u8, u32, u32, u64)> = (0..240u64)
        .map(|i| {
            let x = i.wrapping_mul(0x9e3779b97f4a7c15).rotate_left(17);
            (
                (x % 10) as u8,
                (x >> 8) as u32 % NUM_VERTICES,
                (x >> 40) as u32 % NUM_VERTICES,
                1 + (x >> 20) % 64,
            )
        })
        .collect();
    {
        let store = Arc::new(DirCheckpointStore::open(&root).expect("tempdir"));
        let cluster = GraphCluster::spawn(
            ClusterConfig {
                flush_threshold: 8,
                router_batch: 16,
                checkpoints: Some(store),
                ..Default::default()
            },
            &DeviceConfig::deterministic(),
            Arc::new(HashVertexPartition { num_vertices: NUM_VERTICES, num_shards: 3 }),
            &[],
        );
        let h = cluster.handle();
        for chunk in ops.chunks(60) {
            feed(&h, chunk);
            apply_oracle(&mut oracle, chunk);
            // The cut checkpoints every shard at this boundary.
            cluster.epoch_cut().expect("cluster alive");
        }
        assert_cut_matches(&cluster, &oracle, "incarnation 1 final cut");
        drop(cluster.shutdown());
    }

    // Incarnation 2: nothing survives but the directory. Restart under a
    // different plan (3 → 2 shards) — spawn_from_store re-routes.
    let store2 = DirCheckpointStore::open(&root).expect("reopen");
    let restarted = GraphCluster::spawn_from_store(
        ClusterConfig {
            flush_threshold: 8,
            ..Default::default()
        },
        &DeviceConfig::deterministic(),
        Arc::new(HashVertexPartition { num_vertices: NUM_VERTICES, num_shards: 2 }),
        &store2,
    )
    .expect("restart from checkpoint dir");
    assert_cut_matches(&restarted, &oracle, "restarted cluster");
    drop(restarted.shutdown());

    // An empty directory is a clean NotFound, not a silent empty cluster.
    let empty = std::env::temp_dir().join(format!("gpma-restart-empty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&empty);
    match GraphCluster::spawn_from_store(
        ClusterConfig::default(),
        &DeviceConfig::deterministic(),
        Arc::new(HashVertexPartition { num_vertices: NUM_VERTICES, num_shards: 2 }),
        &DirCheckpointStore::open(&empty).expect("tempdir"),
    ) {
        Ok(c) => {
            drop(c.shutdown());
            panic!("an empty store must not spawn a cluster");
        }
        Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::NotFound),
    }

    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&empty);
}

/// Vertex space of the bulk-batch tests below.
const BULK_NV: u32 = 1024;

/// Edges in one bulk batch: enough that a shard's barrier apply outlasts
/// the 2 ms before the next update arrives. A debug build applies several
/// times slower, so a quarter of the batch keeps the same window.
const BULK_EDGES: u32 = if cfg!(debug_assertions) { 50_000 } else { 200_000 };

/// Rounds of each timing-dependent scenario: the interleaving it needs
/// happens in most rounds, not all.
const BULK_ROUNDS: usize = 5;

/// A 2-shard range-partitioned cluster over [`BULK_NV`] vertices: shard 0
/// owns sources `0..512`, shard 1 the rest.
fn bulk_cluster(flush_threshold: usize, store: Arc<dyn CheckpointStore>) -> GraphCluster {
    GraphCluster::spawn(
        ClusterConfig {
            flush_threshold,
            checkpoints: Some(store),
            ..Default::default()
        },
        &DeviceConfig::deterministic(),
        Arc::new(VertexPartition {
            num_vertices: BULK_NV,
            num_shards: 2,
        }),
        &[],
    )
}

/// `n` distinct edges `(first_src + k % sources, k / sources)`.
fn grid_edges(n: u32, first_src: u32, sources: u32) -> Vec<Edge> {
    (0..n)
        .map(|k| Edge::new(first_src + k % sources, k / sources))
        .collect()
}

/// Ingest `bulk`, start a cut on another thread and run `during` 2 ms
/// later, while the cut round is (in most runs) still waiting on the
/// shard applying the bulk. Returns that cut.
fn cut_behind_bulk(
    cluster: &GraphCluster,
    bulk: Vec<Edge>,
    during: impl FnOnce(&ClusterHandle),
) -> Arc<ClusterSnapshot> {
    let h = cluster.handle();
    h.ingest(UpdateBatch {
        insertions: bulk,
        deletions: Vec::new(),
    })
    .expect("cluster alive");
    std::thread::scope(|s| {
        let cut = s.spawn(|| cluster.epoch_cut().expect("cluster alive"));
        std::thread::sleep(Duration::from_millis(2));
        during(&h);
        cut.join().expect("cut thread")
    })
}

/// An update forwarded while a cut round is in flight lands in the op log
/// *after* the shard's barrier, so the cut's checkpoint does not hold it.
/// Publishing the cut must keep that log entry: the flush threshold never
/// flushes the update, and the kill takes the buffered copy down.
#[test]
fn update_forwarded_during_a_cut_round_survives_a_kill() {
    for round in 0..BULK_ROUNDS {
        let cluster = bulk_cluster(1 << 30, Arc::new(MemoryCheckpointStore::new()));
        let bulk = grid_edges(BULK_EDGES, 0, BULK_NV);
        let late = Edge::new(3, BULK_NV - 1);
        cut_behind_bulk(&cluster, bulk, |h| h.insert(late).expect("cluster alive"));
        // Stats forward the router's residue, so `late` reaches shard 0's
        // stream buffer before the kill.
        cluster.metrics().expect("cluster alive");
        assert!(cluster.kill_shard(0).expect("cluster alive"));
        let cut = cluster.epoch_cut().expect("cluster alive");
        assert!(
            cut.image().contains(late.src, late.dst),
            "round {round}: the update forwarded during the cut round was lost"
        );
        assert_eq!(cut.num_edges(), BULK_EDGES as usize + 1, "round {round}");
        let m = cluster.shutdown().metrics;
        assert_eq!(m.recoveries, 1, "round {round}");
        assert_eq!(m.recovery_snapshot_fallbacks, 0, "round {round}");
    }
}

/// Every checkpoint a cut saves is that cut's barrier image of the shard,
/// even when the shard flushed more updates before the round completed,
/// so a restart from the store rebuilds exactly the cut.
#[test]
fn cut_checkpoints_are_the_cut_images_and_restart_to_the_cut() {
    let half = BULK_NV / 2;
    for round in 0..BULK_ROUNDS {
        let store = Arc::new(MemoryCheckpointStore::new());
        let cluster = bulk_cluster(1024, store.clone());
        // Shard 1 applies the bulk while shard 0, already acked, flushes
        // two threshold batches past its barrier. At threshold 1024 the
        // bulk costs ~50 flushes per 50 k edges, so a quarter of it keeps
        // the window open.
        let cut = cut_behind_bulk(&cluster, grid_edges(BULK_EDGES / 4, half, half), |h| {
            for e in grid_edges(2048, 0, half) {
                h.insert(e).expect("cluster alive");
            }
        });
        for (i, image) in cut.shards().iter().enumerate() {
            let bytes = store.load_latest(i).unwrap().expect("the cut saved every shard");
            let saved = checkpoint::decode(&bytes).expect("checkpoint decodes");
            assert!(
                saved == **image,
                "round {round}: shard {i}'s checkpoint (epoch {}, {} edges) is not the \
                 cut's image (epoch {}, {} edges)",
                saved.epoch(),
                saved.num_edges(),
                image.epoch(),
                image.num_edges()
            );
        }
        let restarted = GraphCluster::spawn_from_store(
            ClusterConfig::default(),
            &DeviceConfig::deterministic(),
            Arc::new(VertexPartition {
                num_vertices: BULK_NV,
                num_shards: 2,
            }),
            &*store,
        )
        .expect("restart from the cut's checkpoints");
        assert!(
            restarted.snapshot().num_edges() == cut.num_edges()
                && restarted.snapshot().image().edges().to_vec() == cut.image().edges().to_vec(),
            "round {round}: the restart is not the cut ({} vs {} edges)",
            restarted.snapshot().num_edges(),
            cut.num_edges()
        );
        drop(restarted.shutdown());
        drop(cluster.shutdown());
    }
}

/// A shrinking reshard retires shard ids whose last checkpoints stay in the
/// store, and a restart probes shard ids densely from 0. The reshard must
/// overwrite them with empty images, or a restart after the survivors
/// deleted those edges brings them back.
#[test]
fn a_restart_after_a_shrinking_reshard_ignores_the_retired_shards() {
    let store = Arc::new(MemoryCheckpointStore::new());
    let cluster = GraphCluster::spawn(
        ClusterConfig {
            flush_threshold: 4,
            router_batch: 16,
            checkpoints: Some(store.clone()),
            ..Default::default()
        },
        &DeviceConfig::deterministic(),
        Arc::new(HashVertexPartition {
            num_vertices: NUM_VERTICES,
            num_shards: 4,
        }),
        &[],
    );
    let h = cluster.handle();
    let ring: Vec<Edge> = (0..NUM_VERTICES)
        .map(|v| Edge::new(v, (v + 1) % NUM_VERTICES))
        .collect();
    for &e in &ring {
        h.insert(e).expect("cluster alive");
    }
    assert_eq!(cluster.epoch_cut().expect("cluster alive").num_edges(), 64);
    cluster
        .reshard(Arc::new(HashVertexPartition {
            num_vertices: NUM_VERTICES,
            num_shards: 2,
        }))
        .expect("shrink to 2 shards");
    for &e in &ring {
        h.delete(e).expect("cluster alive");
    }
    assert_eq!(cluster.epoch_cut().expect("cluster alive").num_edges(), 0);
    drop(cluster.shutdown());

    let restarted = GraphCluster::spawn_from_store(
        ClusterConfig::default(),
        &DeviceConfig::deterministic(),
        Arc::new(HashVertexPartition {
            num_vertices: NUM_VERTICES,
            num_shards: 2,
        }),
        &*store,
    )
    .expect("restart from the store");
    assert_eq!(
        restarted.snapshot().num_edges(),
        0,
        "the retired shards' checkpoints came back"
    );
    drop(restarted.shutdown());
}

/// A [`CheckpointStore`] whose saves fail once [`Self::fail_saves`] is
/// called, as a full disk would, and whose loads fail once
/// [`Self::fail_loads`] is, as an unreadable one would.
#[derive(Default)]
struct FailingStore {
    inner: MemoryCheckpointStore,
    failing: AtomicBool,
    failing_loads: AtomicBool,
}

impl FailingStore {
    fn fail_saves(&self) {
        self.failing.store(true, Ordering::Relaxed);
    }

    fn fail_loads(&self) {
        self.failing_loads.store(true, Ordering::Relaxed);
    }
}

impl CheckpointStore for FailingStore {
    fn save(&self, shard: usize, epoch: u64, bytes: &[u8]) -> std::io::Result<()> {
        if self.failing.load(Ordering::Relaxed) {
            return Err(std::io::Error::other("injected save failure"));
        }
        self.inner.save(shard, epoch, bytes)
    }

    fn load_latest(&self, shard: usize) -> std::io::Result<Option<Vec<u8>>> {
        if self.failing_loads.load(Ordering::Relaxed) {
            return Err(std::io::Error::other("injected load failure"));
        }
        self.inner.load_latest(shard)
    }
}

/// Phase `p` of the failing-store stream: 12 inserts on shard 0 (sources
/// below 32) that no other phase writes, 4 on shard 1, and 2 deletions of
/// the previous phase's shard-0 inserts.
fn failing_store_phase(p: u32) -> Vec<(u8, u32, u32, u64)> {
    let shard0 = |p: u32, i: u32| ((i * 3 + p) % 32, 32 + p * 6 + i / 2);
    let mut ops: Vec<(u8, u32, u32, u64)> = (0..12u32)
        .map(|i| {
            let (s, d) = shard0(p, i);
            (0u8, s, d, u64::from(p * 100 + i + 1))
        })
        .collect();
    ops.extend((0..4u32).map(|i| (0u8, 32 + i * 7 + p, i + p, u64::from(p + 1))));
    if p > 0 {
        ops.extend([0u32, 5].map(|i| {
            let (s, d) = shard0(p - 1, i);
            (3u8, s, d, 0)
        }));
    }
    ops
}

/// Once every save fails, the checkpoint store keeps the first cut's
/// images, so the router must keep every update since then: a cut whose
/// saves fail may not drop its delta, nor may a reshard's marker drop the
/// op log or the copies, or a second kill loses the updates the first
/// recovery re-applied.
#[test]
fn failed_checkpoint_saves_keep_the_replay_log_across_two_kills() {
    let store = Arc::new(FailingStore::default());
    let cluster = GraphCluster::spawn(
        ClusterConfig {
            flush_threshold: 4,
            router_batch: 16,
            checkpoints: Some(store.clone()),
            ..Default::default()
        },
        &DeviceConfig::deterministic(),
        Arc::new(VertexPartition {
            num_vertices: NUM_VERTICES,
            num_shards: 2,
        }),
        &[],
    );
    let h = cluster.handle();
    let mut oracle = BTreeMap::new();
    let feed_phase = |p: u32, oracle: &mut BTreeMap<(u32, u32), u64>| {
        let ops = failing_store_phase(p);
        feed(&h, &ops);
        apply_oracle(oracle, &ops);
    };

    feed_phase(0, &mut oracle);
    assert_cut_matches(&cluster, &oracle, "first cut");
    store.fail_saves();
    for kill in 1..=2u32 {
        if kill == 2 {
            // Between the kills, a reshard whose marker saves fail too:
            // 2 → 3 ranges moves sources 22..32 off shard 0 by copy, and the
            // updates routed since the last cut only reach the marker.
            feed_phase(5, &mut oracle);
            cluster
                .reshard(Arc::new(VertexPartition {
                    num_vertices: NUM_VERTICES,
                    num_shards: 3,
                }))
                .expect("reshard with failing saves");
            assert_cut_matches(&cluster, &oracle, "cut after the reshard");
        }
        feed_phase(2 * kill - 1, &mut oracle);
        assert!(cluster.kill_shard(0).expect("cluster alive"));
        feed_phase(2 * kill, &mut oracle);
        assert_cut_matches(&cluster, &oracle, &format!("cut after kill {kill}"));
    }
    let m = cluster.shutdown().metrics;
    assert_eq!(m.recoveries, 2);
    assert_eq!(m.recovery_snapshot_fallbacks, 0);
    assert!(m.worker_errors >= 2, "every failed save is counted: {m}");
}

/// With every load failing, recovery cannot read a checkpoint: it rebuilds
/// the shard from the dead worker's published image, counts the fallback
/// and the load error, and the cluster stays oracle-exact.
#[test]
fn failed_checkpoint_loads_recover_from_the_published_image() {
    let store = Arc::new(FailingStore::default());
    let cluster = GraphCluster::spawn(
        ClusterConfig {
            flush_threshold: 4,
            router_batch: 16,
            checkpoints: Some(store.clone()),
            ..Default::default()
        },
        &DeviceConfig::deterministic(),
        Arc::new(VertexPartition {
            num_vertices: NUM_VERTICES,
            num_shards: 2,
        }),
        &[],
    );
    let h = cluster.handle();
    let mut oracle = BTreeMap::new();
    let feed_phase = |p: u32, oracle: &mut BTreeMap<(u32, u32), u64>| {
        let ops = failing_store_phase(p);
        feed(&h, &ops);
        apply_oracle(oracle, &ops);
    };

    feed_phase(0, &mut oracle);
    assert_cut_matches(&cluster, &oracle, "first cut");
    store.fail_loads();
    feed_phase(1, &mut oracle);
    assert!(cluster.kill_shard(0).expect("cluster alive"));
    feed_phase(2, &mut oracle);
    assert_cut_matches(&cluster, &oracle, "cut after the kill");
    let m = cluster.shutdown().metrics;
    assert_eq!(m.recoveries, 1);
    assert_eq!(m.recovery_snapshot_fallbacks, 1);
    assert_eq!(m.worker_errors, 2, "the missing ack and the failed load are counted: {m}");
}
