//! The host analytics give the same answers on an image whose row blocks a
//! long run of deltas has scattered over several slabs as on `AdjLists`
//! built from the same edges: `GraphSnapshot::for_each_edge` walks the
//! image's edge runs, the baseline walks its rows, and BFS distances, CC
//! labels and the PageRank bits must not notice. `DeltaGraph` hands its
//! reads to the image it holds, so the same holds through it.

use std::sync::Arc;

use gpma_analytics::{bfs_host, cc_host, pagerank_host, HostGraph, DAMPING, EPSILON, MAX_ITERS};
use gpma_baselines::AdjLists;
use gpma_core::delta::SnapshotDelta;
use gpma_core::framework::GraphSnapshot;
use gpma_core::image::ROWS_PER_BLOCK;
use gpma_graph::{Edge, UpdateBatch};
use gpma_incremental::DeltaGraph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Not a multiple of the block size: the last block is short.
const NV: u32 = 203;
/// Two whole blocks no edge ever touches: empty blocks, isolated vertices.
const ISOLATED: std::ops::Range<u32> = 64..80;

fn vertex(rng: &mut SmallRng) -> u32 {
    let v = rng.gen_range(0..NV - ISOLATED.len() as u32);
    if v < ISOLATED.start {
        v
    } else {
        v + ISOLATED.len() as u32
    }
}

/// Upserts and deletions of live edges over one to three blocks, now and
/// then a whole block cleared.
fn random_delta(rng: &mut SmallRng, image: &GraphSnapshot, epoch: u64) -> SnapshotDelta {
    let mut batch = UpdateBatch::default();
    for _ in 0..rng.gen_range(1..4) {
        let first = vertex(rng) / ROWS_PER_BLOCK as u32 * ROWS_PER_BLOCK as u32;
        let rows = first..(first + ROWS_PER_BLOCK as u32).min(NV);
        if rng.gen_range(0..8) == 0 {
            for u in rows {
                let doomed = image.neighbors(u).iter();
                batch
                    .deletions
                    .extend(doomed.map(|e| Edge::new(e.src, e.dst)));
            }
            continue;
        }
        for _ in 0..rng.gen_range(1..12) {
            let u = rng.gen_range(rows.clone());
            match image.neighbors(u) {
                row if !row.is_empty() && rng.gen_bool(0.4) => {
                    let e = row[rng.gen_range(0..row.len())];
                    batch.deletions.push(Edge::new(e.src, e.dst));
                }
                _ => batch.insertions.push(Edge::new(u, vertex(rng))),
            }
        }
    }
    SnapshotDelta::from_batch(epoch, &batch)
}

/// Every answer of `g` equals the baseline's on the same edges.
fn assert_same_answers(g: &dyn HostGraph, edges: &[Edge], what: &str) {
    let mut walked = Vec::new();
    g.for_each_edge(&mut |u, v| walked.push((u, v)));
    assert_eq!(
        walked,
        edges.iter().map(|e| (e.src, e.dst)).collect::<Vec<_>>(),
        "{what}"
    );
    let adj = AdjLists::build(NV, edges);
    for root in [0, 7, 101, NV - 1, ISOLATED.start + 3] {
        assert_eq!(
            bfs_host(g, root),
            bfs_host(&adj, root),
            "{what}: BFS from {root}"
        );
    }
    assert_eq!(cc_host(g), cc_host(&adj), "{what}: CC");
    let (got, want) = (
        pagerank_host(g, DAMPING, EPSILON, MAX_ITERS),
        pagerank_host(&adj, DAMPING, EPSILON, MAX_ITERS),
    );
    let bits = |ranks: &[f64]| ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.ranks), bits(&want.ranks), "{what}: PageRank");
    assert_eq!(got.iterations, want.iterations, "{what}: PageRank sweeps");
}

#[test]
fn host_analytics_agree_with_adjlists_on_a_many_slab_image() {
    let mut rng = SmallRng::seed_from_u64(45);
    let start = (0..900)
        .map(|_| Edge::new(vertex(&mut rng), vertex(&mut rng)))
        .collect();
    let mut image = Arc::new(GraphSnapshot::from_edges(0, NV, start));
    let mut graph = DeltaGraph::from_image(image.clone());
    for epoch in 1..=60 {
        let delta = random_delta(&mut rng, &image, epoch);
        let net = delta.clone().classify(&image);
        image = Arc::new(image.advance(&delta).0);
        graph.apply_at(&net, image.clone());
        if epoch % 20 != 0 {
            continue;
        }
        image.check_layout().expect("a valid image");
        let edges = image.edges().to_vec();
        let runs: Vec<&[Edge]> = image.edge_runs().collect();
        assert_eq!(runs.len(), image.num_blocks());
        assert_eq!(
            runs.concat(),
            edges,
            "epoch {epoch}: the runs are the edges"
        );
        let empty = ISOLATED.start as usize / ROWS_PER_BLOCK;
        assert!(runs[empty].is_empty() && runs[empty + 1].is_empty());
        assert!(
            image.num_slabs() >= 3,
            "epoch {epoch}: {} slab(s)",
            image.num_slabs()
        );
        assert_same_answers(&*image, &edges, &format!("image at epoch {epoch}"));
        assert_same_answers(&graph, &edges, &format!("DeltaGraph at epoch {epoch}"));
    }
}
