//! Cross-crate storage integration: every dynamic-graph store in the
//! repository must track exactly the same edge set under long mixed update
//! streams, and the device structures must hold their invariants throughout.

use gpma_baselines::{AdjLists, PmaGraph, RebuildCsr, StingerGraph};
use gpma_core::{Gpma, GpmaPlus};
use gpma_graph::datasets::{generate, DatasetKind};
use gpma_graph::{Edge, UpdateBatch};
use gpma_sim::{Device, DeviceConfig};
use std::collections::BTreeSet;

fn edge_set_of(edges: impl IntoIterator<Item = Edge>) -> BTreeSet<(u32, u32)> {
    edges.into_iter().map(|e| (e.src, e.dst)).collect()
}

/// Drive all six stores through the same sliding window and check they agree
/// with an oracle after every slide.
#[test]
fn all_stores_agree_over_sliding_window() {
    let stream = generate(DatasetKind::PokecLike, 0.0005, 11);
    let nv = stream.num_vertices;
    let initial = stream.initial_edges();
    let cfg = DeviceConfig::deterministic();

    let dev_plus = Device::new(cfg.clone());
    let mut plus = GpmaPlus::build(&dev_plus, nv, initial);
    let dev_lock = Device::new(cfg.clone());
    let mut lock = Gpma::build(&dev_lock, nv, initial);
    let dev_reb = Device::new(cfg.clone());
    let mut reb = RebuildCsr::build(&dev_reb, nv, initial);
    let mut adj = AdjLists::build(nv, initial);
    let mut pma = PmaGraph::build(nv, initial);
    let mut stinger = StingerGraph::build(nv, initial);

    let batch_size = stream.slide_batch_size(0.02);
    for (i, batch) in stream.sliding(batch_size).take(5).enumerate() {
        plus.update_batch_lazy(&dev_plus, &batch);
        lock.update_batch(&dev_lock, &batch);
        reb.update_batch(&dev_reb, &batch);
        adj.update_batch(&batch);
        pma.update_batch(&batch);
        stinger.update_batch(&batch);

        plus.storage.check_invariants();
        lock.storage.check_invariants();

        let oracle = edge_set_of(adj.iter_edges());
        assert_eq!(edge_set_of(plus.storage.host_edges()), oracle, "GPMA+ slide {i}");
        assert_eq!(edge_set_of(lock.storage.host_edges()), oracle, "GPMA slide {i}");
        assert_eq!(
            edge_set_of(reb.to_host_csr().iter_edges()),
            oracle,
            "rebuild slide {i}"
        );
        assert_eq!(pma.num_edges(), oracle.len(), "PMA slide {i}");
        assert_eq!(stinger.num_edges(), oracle.len(), "Stinger slide {i}");
    }
}

/// The sliding window invariant end-to-end: after consuming the whole
/// stream, the store contains exactly the last |Es| edges.
#[test]
fn window_contents_match_stream_tail() {
    let stream = generate(DatasetKind::UniformRandom, 0.0003, 3);
    let dev = Device::new(DeviceConfig::deterministic());
    let mut g = GpmaPlus::build(&dev, stream.num_vertices, stream.initial_edges());
    let batch = stream.slide_batch_size(0.05);
    for b in stream.sliding(batch) {
        g.update_batch_lazy(&dev, &b);
    }
    let expect = edge_set_of(
        stream.edges[stream.len() - stream.initial_size()..]
            .iter()
            .copied(),
    );
    assert_eq!(edge_set_of(g.storage.host_edges()), expect);
    g.storage.check_invariants();
}

/// GPMA+ under a real parallel host pool must agree with deterministic mode.
#[test]
fn gpma_plus_parallel_pool_determinism() {
    let stream = generate(DatasetKind::RedditLike, 0.0003, 9);
    let run = |cfg: DeviceConfig| {
        let dev = Device::new(cfg);
        let mut g = GpmaPlus::build(&dev, stream.num_vertices, stream.initial_edges());
        for b in stream.sliding(stream.slide_batch_size(0.03)).take(4) {
            g.update_batch_lazy(&dev, &b);
        }
        g.storage.host_entries()
    };
    let a = run(DeviceConfig::deterministic());
    let b = run(DeviceConfig {
        host_parallelism: 8,
        ..DeviceConfig::default()
    });
    assert_eq!(a, b, "device results must not depend on host parallelism");
}

/// Explicit mixed streams (§6.3 extended) keep all stores in lockstep.
#[test]
fn explicit_streams_agree() {
    let stream = generate(DatasetKind::Graph500, 0.0002, 17);
    let nv = stream.num_vertices;
    let dev = Device::new(DeviceConfig::deterministic());
    let mut plus = GpmaPlus::build(&dev, nv, stream.initial_edges());
    let mut adj = AdjLists::build(nv, stream.initial_edges());
    for b in stream.explicit(200, 0.5, 5).take(6) {
        // Explicit batches may delete an edge and reinsert it later: the
        // insert must recycle the tombstone its deletion left.
        plus.update_batch_lazy(&dev, &b);
        adj.update_batch(&b);
        assert_eq!(
            edge_set_of(plus.storage.host_edges()),
            edge_set_of(adj.iter_edges())
        );
        plus.storage.check_invariants();
    }
}

/// Delete-everything then refill across the same store (shrink + grow).
#[test]
fn full_churn_cycle() {
    let dev = Device::new(DeviceConfig::deterministic());
    let nv = 64u32;
    let all: Vec<Edge> = (0..nv)
        .flat_map(|s| (1..8u32).map(move |i| Edge::new(s, (s + i) % nv)))
        .collect();
    let mut g = GpmaPlus::build(&dev, nv, &all);
    g.update_batch_lazy(
        &dev,
        &UpdateBatch {
            insertions: vec![],
            deletions: all.clone(),
        },
    );
    assert_eq!(g.storage.num_edges(), 0);
    g.storage.check_invariants();
    g.update_batch_lazy(
        &dev,
        &UpdateBatch {
            insertions: all.clone(),
            deletions: vec![],
        },
    );
    assert_eq!(g.storage.num_edges(), all.len());
    g.storage.check_invariants();
}
