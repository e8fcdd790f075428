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

use std::sync::{Arc, OnceLock};

use gpma_core::framework::GraphSnapshot;

/// An immutable, cut-stamped view over all shard snapshots.
///
/// The shards hold edge-disjoint subsets (each edge has exactly one owner
/// under any [`Partitioner`](gpma_core::multi::Partitioner) policy), so the
/// union over shards *is* the global graph. A reader reads that union
/// through [`Self::image`], the cut flattened into one [`GraphSnapshot`] the
/// first time anyone asks and shared by every later reader of the cut; the
/// sharded BFS runs on [`Self::shard_refs`].
#[derive(Debug, Clone)]
pub struct ClusterSnapshot {
    cut: u64,
    num_vertices: u32,
    shards: Vec<Arc<GraphSnapshot>>,
    image: OnceLock<Arc<GraphSnapshot>>,
}

impl ClusterSnapshot {
    /// Assemble a cut from per-shard snapshots (one per shard, index-aligned
    /// with the cluster's shard ids).
    pub fn new(cut: u64, num_vertices: u32, shards: Vec<Arc<GraphSnapshot>>) -> Self {
        ClusterSnapshot {
            cut,
            num_vertices,
            shards,
            image: OnceLock::new(),
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
    /// BFS (`gpma_analytics::bfs_sharded`) takes.
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

    /// The cut as one [`GraphSnapshot`] (epoch := cut): the one read path
    /// over a cut. The shard images are merged row by row
    /// ([`GraphSnapshot::merged`]) on the first call and the result is kept,
    /// so every reader of this cut shares one `Arc`. Where two shards hold
    /// one key the image keeps one copy, so a cut whose shards overlap has
    /// `image().num_edges() < num_edges()`.
    pub fn image(&self) -> &Arc<GraphSnapshot> {
        self.image.get_or_init(|| {
            Arc::new(GraphSnapshot::merged(
                self.cut,
                self.num_vertices,
                &self.shard_refs(),
            ))
        })
    }

    /// An owned copy of [`Self::image`].
    pub fn to_graph_snapshot(&self) -> GraphSnapshot {
        (**self.image()).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_core::multi::{EdgeGridPartition, Partitioner};
    use gpma_graph::Edge;

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
        let image = cs.image();
        assert!(image.contains(3, 0));
        assert_eq!(image.weight(3, 0), Some(9));
        assert!(!image.contains(0, 3));
        let keys: Vec<u64> = image.edges().iter().map(Edge::key).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted, no dupes");
        assert!(Arc::ptr_eq(image, cs.image()), "merged once, then shared");
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
            // The oracle concatenates the shard edge lists and builds one
            // image from scratch.
            let flat: Vec<Edge> = cs
                .shards()
                .iter()
                .flat_map(|s| s.edges().iter().copied())
                .collect();
            let merged = cs.image();
            assert_eq!(
                **merged,
                GraphSnapshot::from_edges(9, 40, flat),
                "{}",
                policy.name()
            );
            assert_eq!(merged.check_layout(), Ok(()));
            assert_eq!(merged.num_edges(), cs.num_edges());
            assert_eq!(cs.to_graph_snapshot(), **merged);
        }
    }

    #[test]
    fn a_key_two_shards_hold_shrinks_the_image() {
        // The property `GraphCluster::audit_cut` relies on: `merged` keeps
        // one copy of a key several shards hold.
        let shard = |es: Vec<Edge>| Arc::new(GraphSnapshot::from_edges(1, 8, es));
        let cs = ClusterSnapshot::new(
            2,
            8,
            vec![
                shard(vec![Edge::new(0, 1), Edge::new(2, 3)]),
                shard(vec![Edge::weighted(2, 3, 7), Edge::new(4, 5)]),
            ],
        );
        assert_eq!(cs.num_edges(), 4);
        assert_eq!(cs.image().num_edges(), 3);
    }
}
