//! Globally consistent cluster snapshots: the read side of the coordinated
//! epoch cut.
//!
//! Each shard service publishes an epoch-stamped
//! [`GraphSnapshot`](gpma_core::framework::GraphSnapshot) when the router
//! barriers it; the cluster assembles them into one [`ClusterSnapshot`]
//! stamped with the cluster-wide *cut* number. Because the router is a
//! single FIFO stage, every update accepted before the cut command was
//! forwarded to its shard before the barriers ran, and none accepted after
//! it leaks in — the cut is a consistent global state without stopping
//! ingest on other handles for longer than the barrier round.

use std::sync::Arc;

use gpma_analytics::HostGraph;
use gpma_core::framework::GraphSnapshot;
use gpma_graph::Edge;

/// An immutable, cut-stamped view over all shard snapshots.
///
/// The shards hold edge-disjoint subsets (each edge has exactly one owner
/// under any [`Partitioner`](gpma_core::multi::Partitioner) policy), so the
/// union over shards *is* the global graph. The snapshot implements
/// [`HostGraph`] by iterating a row across shards — under vertex policies a
/// row lives on one shard, under the edge grid it spans one grid row — so
/// every host analytic (`bfs_host`, `cc_host`, `pagerank_host`) runs on it
/// directly, and the sharded variants run on [`Self::shard_refs`].
#[derive(Debug, Clone)]
pub struct ClusterSnapshot {
    cut: u64,
    num_vertices: u32,
    shards: Vec<Arc<GraphSnapshot>>,
}

impl ClusterSnapshot {
    /// Assemble a cut from per-shard snapshots (one per shard, index-aligned
    /// with the cluster's shard ids).
    pub fn new(cut: u64, num_vertices: u32, shards: Vec<Arc<GraphSnapshot>>) -> Self {
        ClusterSnapshot {
            cut,
            num_vertices,
            shards,
        }
    }

    /// Cluster-wide cut number: 0 is the initial bulk-built state, each
    /// coordinated epoch cut increments it.
    pub fn cut(&self) -> u64 {
        self.cut
    }

    /// Global vertex count (vertex ids are global on every shard).
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of shards that contributed to this cut.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard epoch-stamped snapshots of this cut.
    pub fn shards(&self) -> &[Arc<GraphSnapshot>] {
        &self.shards
    }

    /// Borrowed shard views, in shard order — the input shape the sharded
    /// analytics (`gpma_analytics::bfs_sharded` / `pagerank_sharded`) take.
    pub fn shard_refs(&self) -> Vec<&GraphSnapshot> {
        self.shards.iter().map(|s| s.as_ref()).collect()
    }

    /// Each shard's local epoch at the cut (its flush count).
    pub fn shard_epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.epoch()).collect()
    }

    /// Total live edges across all shards.
    pub fn num_edges(&self) -> usize {
        self.shards.iter().map(|s| s.num_edges()).sum()
    }

    /// True when no shard holds a live edge.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Live edges of every shard merged into global row-major key order.
    pub fn merged_edges(&self) -> Vec<Edge> {
        let mut out: Vec<Edge> = Vec::with_capacity(self.num_edges());
        for s in &self.shards {
            out.extend(s.edges());
        }
        out.sort_by_key(Edge::key);
        out
    }

    /// Collapse the cut into one [`GraphSnapshot`] (epoch := cut), for
    /// callers that want single-store semantics. The shards' images are
    /// merged row by row into one allocation — no flat edge list, no global
    /// sort; only a row that several shards hold is sorted.
    pub fn to_graph_snapshot(&self) -> GraphSnapshot {
        GraphSnapshot::merged(self.cut, self.num_vertices, &self.shard_refs())
    }

    /// True when edge `(src, dst)` was live on any shard at this cut.
    pub fn contains(&self, src: u32, dst: u32) -> bool {
        self.shards.iter().any(|s| s.contains(src, dst))
    }

    /// Weight of `(src, dst)` at this cut, if live (shards are
    /// edge-disjoint, so at most one answers).
    pub fn weight(&self, src: u32, dst: u32) -> Option<u64> {
        self.shards.iter().find_map(|s| s.weight(src, dst))
    }
}

impl HostGraph for ClusterSnapshot {
    #[inline]
    fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    #[inline]
    fn for_each_neighbor(&self, v: u32, f: &mut dyn FnMut(u32, u64)) {
        for s in &self.shards {
            for e in s.neighbors(v) {
                f(e.dst, e.weight);
            }
        }
    }

    #[inline]
    fn out_degree(&self, v: u32) -> usize {
        self.shards.iter().map(|s| s.out_degree(v)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_analytics::{bfs_host, cc_host, component_count};
    use gpma_core::multi::{EdgeGridPartition, Partitioner};

    fn path_edges() -> Vec<Edge> {
        vec![
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(2, 3),
            Edge::weighted(3, 0, 9),
            Edge::new(5, 6),
        ]
    }

    fn snapshot_under(part: &dyn Partitioner) -> ClusterSnapshot {
        let mut per: Vec<Vec<Edge>> = vec![Vec::new(); part.num_shards()];
        for e in path_edges() {
            per[part.shard_of_edge(e.src, e.dst)].push(e);
        }
        ClusterSnapshot::new(
            3,
            part.num_vertices(),
            per.into_iter()
                .map(|es| Arc::new(GraphSnapshot::from_edges(1, part.num_vertices(), es)))
                .collect(),
        )
    }

    #[test]
    fn merged_view_is_the_whole_graph() {
        let part = EdgeGridPartition::new(8, 4);
        let cs = snapshot_under(&part);
        assert_eq!(cs.cut(), 3);
        assert_eq!(cs.num_edges(), 5);
        assert!(!cs.is_empty());
        assert!(cs.contains(3, 0));
        assert_eq!(cs.weight(3, 0), Some(9));
        assert!(!cs.contains(0, 3));
        let keys: Vec<u64> = cs.merged_edges().iter().map(Edge::key).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted, no dupes");
        let flat = cs.to_graph_snapshot();
        assert_eq!(flat.epoch(), 3);
        assert_eq!(flat.num_edges(), 5);
    }

    #[test]
    fn merged_image_equals_the_flat_rebuild_under_every_policy() {
        use crate::PartitionPolicy;
        // Rows that straddle block boundaries, a hub whose row the grid
        // splits across shards (one of its keys is listed twice: the later
        // weight wins), and an empty stretch of rows.
        let mut edges: Vec<Edge> = (0..40u32).map(|v| Edge::weighted(v, (v * 7 + 3) % 40, 2)).collect();
        edges.extend((0..40u32).filter(|d| d % 3 != 0).map(|d| Edge::weighted(8, d, 5)));
        edges.retain(|e| !(16..24).contains(&e.src));
        for policy in PartitionPolicy::ALL {
            let part = policy.build(40, 4);
            let mut per: Vec<Vec<Edge>> = vec![Vec::new(); part.num_shards()];
            for e in &edges {
                per[part.shard_of_edge(e.src, e.dst)].push(*e);
            }
            let shards = per
                .into_iter()
                .map(|es| Arc::new(GraphSnapshot::from_edges(1, 40, es)))
                .collect();
            let cs = ClusterSnapshot::new(9, 40, shards);
            let merged = cs.to_graph_snapshot();
            assert_eq!(
                merged,
                GraphSnapshot::from_edges(9, 40, cs.merged_edges()),
                "{}",
                policy.name()
            );
            assert_eq!(merged.check_layout(), Ok(()));
            assert_eq!(merged.num_edges(), cs.num_edges());
        }
    }

    #[test]
    fn host_graph_over_split_rows_matches_flat_snapshot() {
        // The grid splits vertex 1's row if its dsts land in different
        // column blocks; HostGraph must still see the full row.
        let part = EdgeGridPartition::new(8, 4);
        let cs = snapshot_under(&part);
        let flat = cs.to_graph_snapshot();
        for v in 0..8u32 {
            assert_eq!(
                HostGraph::out_degree(&cs, v),
                HostGraph::out_degree(&flat, v),
                "row {v}"
            );
        }
        assert_eq!(bfs_host(&cs, 0), bfs_host(&flat, 0));
        let labels = cc_host(&cs);
        assert_eq!(component_count(&labels), component_count(&cc_host(&flat)));
    }
}
