//! State migration between partition plans: the minimal edge-move set that
//! turns the placement of one [`Partitioner`] into another.
//!
//! This is the reference definition of what a reshard must move, not the
//! path a live one takes: `gpma-cluster`'s reshard reconstructs the same
//! set from barrier images plus the updates its router mirrors while the
//! copy runs (DESIGN.md §15), and its tests hold that against
//! [`MigrationPlan::compute`].
//!
//! A reshard never rebuilds shards from scratch. Given per-shard snapshots
//! of the resident edges, [`MigrationPlan::compute`] keeps every edge whose
//! owner is unchanged in place and schedules one move per edge whose owner
//! differs under the new plan — grouped by `(from, to)` shard pair so each
//! pair ships as one modeled device-to-device DMA. The plan is *minimal* in
//! the exact sense that an edge appears in it iff its old and new owners
//! differ (or its old shard is being retired), which is the least any
//! correct reshard can move.
//!
//! The byte accounting ([`MigrationPlan::bytes`] vs
//! [`MigrationPlan::full_rebuild_bytes`]) is what the `repro -- elastic`
//! experiment reports: live migration wins over a snapshot rebuild exactly
//! when the moved fraction stays below 1.

use gpma_graph::Edge;

use crate::framework::BYTES_PER_UPDATE;
use crate::multi::Partitioner;

/// One scheduled transfer: every edge leaving shard `from` for shard `to`,
/// shipped as a single device-to-device DMA.
#[derive(Debug, Clone)]
pub struct EdgeMove {
    /// Source shard under the *old* plan (may exceed the new shard count
    /// when shards are being retired).
    pub from: usize,
    /// Destination shard under the *new* plan.
    pub to: usize,
    /// The edges changing owner, in the source shard's iteration order.
    pub edges: Vec<Edge>,
}

/// The minimal edge-move set between two partition plans, computed from
/// per-shard snapshots of the resident edges.
#[derive(Debug, Clone, Default)]
pub struct MigrationPlan {
    moves: Vec<EdgeMove>,
    resident_edges: usize,
}

impl MigrationPlan {
    /// Plan the reshard from `per_shard` (the edges resident on each shard,
    /// index = current shard id) onto `new`. An edge moves iff
    /// `new.shard_of_edge` disagrees with its current shard, or its current
    /// shard id is outside the new plan's shard range (a retiring shard).
    pub fn compute<E: AsRef<[Edge]>>(per_shard: &[E], new: &dyn Partitioner) -> Self {
        let to_shards = new.num_shards();
        let mut buckets: std::collections::BTreeMap<(usize, usize), Vec<Edge>> =
            std::collections::BTreeMap::new();
        let mut resident = 0usize;
        for (from, edges) in per_shard.iter().enumerate() {
            for e in edges.as_ref() {
                let to = new.shard_of_edge(e.src, e.dst);
                debug_assert!(to < to_shards);
                if to == from {
                    resident += 1;
                } else {
                    buckets.entry((from, to)).or_default().push(*e);
                }
            }
        }
        MigrationPlan {
            moves: buckets
                .into_iter()
                .map(|((from, to), edges)| EdgeMove { from, to, edges })
                .collect(),
            resident_edges: resident,
        }
    }

    /// The scheduled moves, sorted by `(from, to)`; empty pairs omitted.
    pub fn moves(&self) -> &[EdgeMove] {
        &self.moves
    }

    /// Total edges changing owner.
    pub fn moved_edges(&self) -> usize {
        self.moves.iter().map(|m| m.edges.len()).sum()
    }

    /// Edges that keep their current shard.
    pub fn resident_edges(&self) -> usize {
        self.resident_edges
    }

    /// True when the new plan places every edge where it already lives.
    pub fn is_noop(&self) -> bool {
        self.moves.is_empty()
    }

    /// Modeled bytes the migration ships over the inter-device links.
    pub fn bytes(&self) -> usize {
        self.moved_edges() * BYTES_PER_UPDATE
    }

    /// Modeled bytes a from-scratch repartition of the same state would
    /// ship (every live edge re-uploaded) — the baseline live migration is
    /// measured against.
    pub fn full_rebuild_bytes(&self) -> usize {
        (self.moved_edges() + self.resident_edges) * BYTES_PER_UPDATE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::{HashVertexPartition, VertexPartition};

    fn ring(n: u32) -> Vec<Edge> {
        (0..n).map(|v| Edge::new(v, (v + 1) % n)).collect()
    }

    fn place(edges: &[Edge], part: &dyn Partitioner) -> Vec<Vec<Edge>> {
        let mut per = vec![Vec::new(); part.num_shards()];
        for e in edges {
            per[part.shard_of_edge(e.src, e.dst)].push(*e);
        }
        per
    }

    #[test]
    fn identity_reshard_moves_nothing() {
        let part = VertexPartition {
            num_vertices: 16,
            num_shards: 4,
        };
        let per = place(&ring(16), &part);
        let plan = MigrationPlan::compute(&per, &part);
        assert!(plan.is_noop());
        assert_eq!(plan.moved_edges(), 0);
        assert_eq!(plan.resident_edges(), 16);
        assert_eq!(plan.bytes(), 0);
        assert_eq!(plan.full_rebuild_bytes(), 16 * BYTES_PER_UPDATE);
    }

    #[test]
    fn plan_is_minimal_and_exhaustive() {
        // Every edge whose owner differs is moved; every other stays.
        let old = VertexPartition {
            num_vertices: 32,
            num_shards: 4,
        };
        let new = HashVertexPartition {
            num_vertices: 32,
            num_shards: 4,
        };
        let edges = ring(32);
        let per = place(&edges, &old);
        let plan = MigrationPlan::compute(&per, &new);
        assert_eq!(plan.moved_edges() + plan.resident_edges(), edges.len());
        for m in plan.moves() {
            assert_ne!(m.from, m.to);
            assert!(!m.edges.is_empty());
            for e in &m.edges {
                assert_eq!(old.shard_of_edge(e.src, e.dst), m.from);
                assert_eq!(new.shard_of_edge(e.src, e.dst), m.to);
            }
        }
        // Moves are grouped: each (from, to) pair appears once.
        let mut pairs: Vec<(usize, usize)> = plan.moves().iter().map(|m| (m.from, m.to)).collect();
        let before = pairs.len();
        pairs.dedup();
        assert_eq!(pairs.len(), before);
        assert!(plan.bytes() < plan.full_rebuild_bytes());
    }

    #[test]
    fn shrink_retires_high_shards_entirely() {
        let old = VertexPartition {
            num_vertices: 16,
            num_shards: 4,
        };
        let new = VertexPartition {
            num_vertices: 16,
            num_shards: 2,
        };
        let per = place(&ring(16), &old);
        let plan = MigrationPlan::compute(&per, &new);
        // Everything on shards 2 and 3 must leave; targets stay in range.
        for m in plan.moves() {
            assert!(m.to < 2);
        }
        let from_retired: usize = plan
            .moves()
            .iter()
            .filter(|m| m.from >= 2)
            .map(|m| m.edges.len())
            .sum();
        let resident_on_retired: usize = per[2].len() + per[3].len();
        assert_eq!(from_retired, resident_on_retired);
        assert_eq!(plan.bytes(), plan.moved_edges() * BYTES_PER_UPDATE);
    }
}
