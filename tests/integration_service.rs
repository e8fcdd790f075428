//! End-to-end tests of the concurrent streaming facade (`gpma-service`):
//! many producers and readers hammer one service and the final epoch must
//! agree exactly with a sequential oracle, including the analytics run
//! against it — the paper's §6.5 "concurrent streams and queries" scenario.

use std::collections::BTreeMap;

use gpma_analytics::{bfs_host, cc_host, HostGraph, UNREACHED};
use gpma_core::framework::DynamicGraphSystem;
use gpma_graph::Edge;
use gpma_service::{ServiceConfig, StreamingService};
use gpma_sim::{Device, DeviceConfig};

use proptest::prelude::*;

const NUM_VERTICES: u32 = 64;

fn spawn_service(initial: &[Edge], threshold: usize) -> StreamingService {
    let dev = Device::new(DeviceConfig::deterministic());
    let sys = DynamicGraphSystem::new(dev, NUM_VERTICES, initial, threshold);
    StreamingService::spawn(ServiceConfig::default(), sys)
}

#[test]
fn multi_producer_ingest_with_concurrent_queries() {
    const PRODUCERS: u32 = 4;
    const EDGES_EACH: u32 = 120;
    const DSTS_EACH: u32 = 14;

    // Star-shaped initial graph: 0 → each producer's hub vertex 1..=4.
    let initial: Vec<Edge> = (1..=PRODUCERS).map(|v| Edge::new(0, v)).collect();
    let svc = spawn_service(&initial, 16);

    // Each producer streams from its own hub into a disjoint destination
    // range (5..61), so the final edge set is independent of cross-thread
    // interleaving; repeated destinations exercise last-write-wins.
    let edges_of = |p: u32| -> Vec<Edge> {
        (0..EDGES_EACH)
            .map(|i| Edge::weighted(1 + p, 5 + p * DSTS_EACH + (i % DSTS_EACH), u64::from(i + 1)))
            .collect()
    };
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let h = svc.handle();
            let edges = edges_of(p);
            std::thread::spawn(move || {
                for e in edges {
                    h.insert(e).expect("service alive");
                }
            })
        })
        .collect();

    // Concurrent ad-hoc queries race the producers and must always observe
    // a consistent epoch: epochs monotone, and (insert-only workload) edge
    // counts monotone with them.
    let mut last_epoch = 0;
    let mut last_edges = 0;
    for _ in 0..50 {
        let (epoch, edges) = svc.query(|snap| (snap.epoch(), snap.num_edges()));
        assert!(epoch >= last_epoch, "epochs are monotonic");
        if epoch > last_epoch {
            assert!(edges >= last_edges, "insert-only: edge count monotone");
            last_epoch = epoch;
            last_edges = edges;
        }
        std::thread::yield_now();
    }
    for t in producers {
        t.join().unwrap();
    }

    // Sequential per-producer oracle (disjoint key spaces make the merged
    // result interleaving-independent).
    let mut oracle: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for e in &initial {
        oracle.insert((e.src, e.dst), e.weight);
    }
    for p in 0..PRODUCERS {
        for e in edges_of(p) {
            oracle.insert((e.src, e.dst), e.weight);
        }
    }

    // Barrier: everything accepted is now visible at the final epoch.
    let snap = svc.barrier().expect("service alive");
    let got: BTreeMap<(u32, u32), u64> = snap
        .edges()
        .iter()
        .map(|e| ((e.src, e.dst), e.weight))
        .collect();
    assert_eq!(got, oracle);
    assert_eq!(
        snap.num_edges(),
        (PRODUCERS * (1 + DSTS_EACH)) as usize,
        "4 hub edges + 4 × 14 distinct streamed keys"
    );

    // Analytics consistency at the final epoch: every streamed destination
    // is exactly two hops from the root through its producer's hub, and
    // every touched vertex joins root's weak component.
    let dist = bfs_host(&*snap, 0);
    let labels = cc_host(&*snap);
    for p in 0..PRODUCERS {
        assert_eq!(dist[(1 + p) as usize], 1, "hub {p}");
        for d in 0..DSTS_EACH {
            let v = (5 + p * DSTS_EACH + d) as usize;
            assert_eq!(dist[v], 2, "hub {p} dst {d}");
            assert_eq!(labels[v], labels[0], "dst in root's component");
        }
    }
    let reached = dist.iter().filter(|&&d| d != UNREACHED).count();
    assert_eq!(reached, (1 + PRODUCERS * (1 + DSTS_EACH)) as usize);

    let report = svc.shutdown();
    assert_eq!(
        report.metrics.counters.ingested(),
        u64::from(PRODUCERS * EDGES_EACH)
    );
    assert_eq!(report.metrics.counters.dropped_updates, 0);
    assert_eq!(report.final_snapshot.num_edges(), snap.num_edges());
    // 480 inserts over 14-slot ranges: heavy last-write-wins churn shows up
    // as per-step duplicates.
    assert!(report.metrics.counters.duplicate_edges > 0);
}

/// The published image is advanced by deltas and never re-read from the
/// store on the flush path, so check the two against each other after every
/// barrier of a mixed stream: single updates, batches, upserts of live keys,
/// deletes of absent ones, insert-then-delete inside one flush window.
#[test]
fn published_image_equals_the_store_after_every_barrier() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::SmallRng::seed_from_u64(15);
    let initial: Vec<Edge> = (0..NUM_VERTICES).map(|v| Edge::new(v, (v + 1) % NUM_VERTICES)).collect();
    let svc = spawn_service(&initial, 7);
    let h = svc.handle();
    let mut random_edge = move || {
        let (s, d) = (rng.gen_range(0..NUM_VERTICES), rng.gen_range(0..NUM_VERTICES - 1));
        (rng.gen_range(0..4u32), Edge::weighted(s, d, rng.gen_range(1..9)))
    };
    for round in 0..24 {
        let mut batch = gpma_graph::UpdateBatch::default();
        for _ in 0..(round % 5) * 6 {
            match random_edge() {
                (0, e) => batch.deletions.push(e),
                (_, e) => batch.insertions.push(e),
            }
        }
        h.ingest(batch).expect("service alive");
        for _ in 0..round % 7 {
            match random_edge() {
                (0, e) => h.delete(e),
                (1, e) => h.insert(e).and_then(|()| h.delete(e)),
                (_, e) => h.insert(e),
            }
            .expect("service alive");
        }
        let published = svc.barrier().expect("service alive");
        let store = svc.ad_hoc(|sys| sys.snapshot()).expect("service alive");
        assert_eq!(*published, store, "round {round}");
        assert_eq!(published.check_layout(), Ok(()));
    }
    let report = svc.shutdown();
    assert_eq!(report.metrics.worker_errors, 0);
}

/// Publishing an epoch copies the row blocks its delta touches, so the
/// bytes per flush follow |Δ|, not E: two graphs of equal degree, one with
/// ten times the vertices and edges, fed the same batches.
#[test]
fn publish_cost_follows_the_delta_not_the_graph() {
    const BATCH: usize = 64;
    let bytes_per_flush = |num_vertices: u32| -> f64 {
        let ring: Vec<Edge> = (0..num_vertices)
            .flat_map(|v| (1..=8).map(move |k| Edge::new(v, (v + k) % num_vertices)))
            .collect();
        let dev = Device::new(DeviceConfig::deterministic());
        let sys = DynamicGraphSystem::new(dev, num_vertices, &ring, BATCH);
        let svc = StreamingService::spawn(ServiceConfig::default(), sys);
        let h = svc.handle();
        for round in 0..20u32 {
            let mut batch = gpma_graph::UpdateBatch::default();
            for i in 0..BATCH as u32 / 2 {
                let v = (round * 37 + i * 11) % 400;
                batch.insertions.push(Edge::weighted(v, (v + 20 + i) % 400, 3));
                batch.deletions.push(Edge::new(v, (v + 1) % 400));
            }
            h.ingest(batch).expect("service alive");
        }
        svc.barrier().expect("service alive");
        let report = svc.shutdown();
        assert_eq!(report.metrics.worker_errors, 0);
        let flushes = report.metrics.counters.flushes;
        assert_eq!(flushes, 20);
        report.metrics.publication.snapshot_bytes as f64 / flushes as f64
    };
    let (small, large) = (bytes_per_flush(400), bytes_per_flush(4_000));
    assert!(small > 0.0);
    assert!(
        large < 2.0 * small && small < 2.0 * large,
        "per-flush publish bytes: {small} on 3.2k edges, {large} on 32k edges"
    );
    // Far below one full copy of the larger graph (16 B per edge).
    assert!(large < 32_000.0 * 16.0 / 4.0, "{large}");
}

/// Sequential oracle for one producer's op stream over its private source
/// range: arrival order, last write wins, deletes remove.
fn apply_oracle(oracle: &mut BTreeMap<(u32, u32), u64>, ops: &[(u8, u32, u32, u64)], src_base: u32) {
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

fn feed(h: &gpma_service::IngestHandle, ops: &[(u8, u32, u32, u64)], src_base: u32) {
    for &(kind, s, d, w) in ops {
        let src = src_base + (s % 16);
        let dst = d % (NUM_VERTICES - 1);
        if kind < 3 {
            h.insert(Edge::weighted(src, dst, w)).expect("service alive");
        } else {
            h.delete(Edge::new(src, dst)).expect("service alive");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Two interleaved insert/delete streams over disjoint source ranges
    /// match the sequential per-producer oracle at the final epoch, for any
    /// op mix (~3:1 insert:delete) and any flush interleaving.
    #[test]
    fn interleaved_streams_match_sequential_oracle(
        ops_a in prop::collection::vec((0u8..4, 0u32..16, 0u32..64, 1u64..100), 0..48),
        ops_b in prop::collection::vec((0u8..4, 0u32..16, 0u32..64, 1u64..100), 0..48),
        threshold in 1usize..12,
    ) {
        let svc = spawn_service(&[], threshold);
        let ta = {
            let h = svc.handle();
            let ops = ops_a.clone();
            std::thread::spawn(move || feed(&h, &ops, 0))
        };
        let tb = {
            let h = svc.handle();
            let ops = ops_b.clone();
            std::thread::spawn(move || feed(&h, &ops, 16))
        };
        ta.join().unwrap();
        tb.join().unwrap();

        let mut oracle = BTreeMap::new();
        apply_oracle(&mut oracle, &ops_a, 0);
        apply_oracle(&mut oracle, &ops_b, 16);

        let snap = svc.barrier().expect("service alive");
        let got: BTreeMap<(u32, u32), u64> = snap
            .edges()
            .iter()
            .map(|e| ((e.src, e.dst), e.weight))
            .collect();
        prop_assert_eq!(&got, &oracle);

        // The snapshot is a coherent HostGraph: per-row degrees sum to the
        // oracle's edge count.
        let total: usize = (0..NUM_VERTICES)
            .map(|v| HostGraph::out_degree(&*snap, v))
            .sum();
        prop_assert_eq!(total, oracle.len());

        let report = svc.shutdown();
        prop_assert_eq!(
            report.metrics.counters.ingested(),
            (ops_a.len() + ops_b.len()) as u64
        );
    }
}
