//! Deep invariant validators (the `audit` feature): Result-returning
//! cross-checks of the structural guarantees the paper and DESIGN.md state
//! but the fast paths only assert indirectly.
//!
//! Unlike [`GpmaStorage::check_invariants`](crate::storage::GpmaStorage::check_invariants)
//! (which panics), every validator here returns a precise [`AuditError`] so
//! tests can corrupt a structure and assert the *specific* rejection, and
//! `repro -- audit` can report what failed mid-stream.
//!
//! Soundness note on the density checks: the per-level thresholds of
//! Figure 3 gate *merge acceptance*, not steady state — two sibling leaves
//! each at `tau_leaf` legally exceed their parent's `tau(l)`, and the even
//! redistribution rounds up. The validator therefore checks the exact
//! post-conditions the update paths guarantee: every leaf holds at most
//! `ceil(tau_leaf * seg_len)` entries, every level-`l` window at most
//! `2^l` times that, and the root stays above its lower density bound
//! (or the array is at its minimum capacity).

use std::sync::Arc;

use gpma_graph::edge::{Edge, GUARD_DST};

use crate::delta::{DeltaLog, NetDelta};
use crate::framework::GraphSnapshot;
use crate::gpma_plus::GpmaPlus;
use crate::multi::PartitionEpoch;
use crate::storage::{GpmaStorage, EMPTY};

/// A validator rejection: which structure failed and exactly how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// The PMA slot array violated a structural or density invariant.
    Storage(String),
    /// The delta publication ring violated the chain contract.
    DeltaLog(String),
    /// A partition plan is not total/consistent over the vertex space.
    Partition(String),
    /// A cluster cut is inconsistent with its per-shard snapshots.
    Cluster(String),
    /// A published graph image broke its layout or diverged from the store.
    Image(String),
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::Storage(m) => write!(f, "storage audit: {m}"),
            AuditError::DeltaLog(m) => write!(f, "delta-log audit: {m}"),
            AuditError::Partition(m) => write!(f, "partition audit: {m}"),
            AuditError::Cluster(m) => write!(f, "cluster audit: {m}"),
            AuditError::Image(m) => write!(f, "image audit: {m}"),
        }
    }
}

impl std::error::Error for AuditError {}

/// Deep-validate a published image: the block layout
/// ([`GraphSnapshot::check_layout`] — every block inside its slab and
/// overlapping no other, offsets monotone from 0, every edge in the block
/// and row its `src` names, rows strictly `dst`-sorted, the slabs' live
/// counts and `num_edges` equal to the sums) and, when `store` is given,
/// equality with a fresh readback of it (the epoch stamp aside).
pub fn validate_image(image: &GraphSnapshot, store: Option<&GpmaStorage>) -> Result<(), AuditError> {
    image.check_layout().map_err(AuditError::Image)?;
    if let Some(store) = store {
        let readback = GraphSnapshot::from_store(image.epoch(), store);
        if *image != readback {
            let diverged = image
                .edges()
                .iter()
                .zip(readback.edges())
                .find(|(a, b)| a != b)
                .map_or("one is a prefix of the other".to_string(), |(a, b)| {
                    format!("first difference: image {a:?}, store {b:?}")
                });
            return Err(AuditError::Image(format!(
                "epoch {}: image holds {} edges, store {} ({diverged})",
                image.epoch(),
                image.num_edges(),
                readback.num_edges()
            )));
        }
    }
    Ok(())
}

impl GpmaPlus {
    /// Deep-validate the PMA state: sorted keys without duplicates, the len
    /// counter in sync, one guard per vertex, the leaf index's routing
    /// invariant, and the density post-conditions above.
    pub fn validate(&self) -> Result<(), AuditError> {
        let s = &self.storage;
        let geom = s.geometry();
        let density = s.density_config();
        let keys = s.keys.as_slice();

        // Sorted with gaps, strictly increasing among live keys.
        let mut prev: Option<u64> = None;
        let mut live = 0usize;
        let mut guards = 0usize;
        for (i, &k) in keys.iter().enumerate() {
            if k == EMPTY {
                continue;
            }
            live += 1;
            if (k as u32) == GUARD_DST {
                guards += 1;
            }
            if let Some(p) = prev {
                if p >= k {
                    return Err(AuditError::Storage(format!(
                        "keys out of order at slot {i}: {p:#x} !< {k:#x}"
                    )));
                }
            }
            prev = Some(k);
        }
        if live != s.len() {
            return Err(AuditError::Storage(format!(
                "len counter out of sync: counts {} live slots, counter says {}",
                live,
                s.len()
            )));
        }
        if guards != s.num_vertices() as usize {
            return Err(AuditError::Storage(format!(
                "guards lost: {} present, {} vertices",
                guards,
                s.num_vertices()
            )));
        }

        // Leaf index: the routing invariant (storage module docs).
        s.check_routing().map_err(AuditError::Storage)?;
        let seg_len = geom.seg_len;

        // Density post-conditions (Figure 3 as the update paths enforce it).
        let leaf_bound = (density.tau_leaf * seg_len as f64).ceil() as usize;
        let per_leaf: Vec<usize> = keys
            .chunks(seg_len)
            .map(|c| c.iter().filter(|&&k| k != EMPTY).count())
            .collect();
        for (l, &n) in per_leaf.iter().enumerate() {
            if n > leaf_bound {
                return Err(AuditError::Storage(format!(
                    "leaf {l} over-full: {n} entries > bound {leaf_bound} \
                     (tau_leaf {} x seg_len {seg_len})",
                    density.tau_leaf
                )));
            }
        }
        let height = geom.height();
        for level in 1..=height {
            let leaves = 1usize << level;
            let bound = leaves * leaf_bound;
            for (w, chunk) in per_leaf.chunks(leaves).enumerate() {
                let n: usize = chunk.iter().sum();
                if n > bound {
                    return Err(AuditError::Storage(format!(
                        "level {level} window {w} over-full: {n} entries > bound {bound}"
                    )));
                }
            }
        }
        // Root lower bound: the shrink check `update_batch_lazy` runs after
        // every batch fires when the root drops below rho_root — unless the array is already at
        // its minimum capacity, or the power-of-two rounding of the resize
        // target means no smaller geometry could hold the entries (a fresh
        // build/resize can legally sit just below rho_root for that
        // reason).
        let cap = geom.capacity();
        let canonical = crate::storage::GpmaStorage::geometry_for(s.len()).capacity();
        if !density.within_rho(s.len(), cap, height, height) && cap > 128 && cap != canonical {
            return Err(AuditError::Storage(format!(
                "root under-full: {} live in {cap} slots below rho_root with \
                 room to shrink to {canonical}",
                s.len()
            )));
        }
        Ok(())
    }
}

impl DeltaLog {
    /// Validate the publication ring: within capacity, a gap-free epoch
    /// chain above the rebase floor, each net delta internally normalized
    /// (sorted, duplicate-free, upsert/removal key sets disjoint, one class
    /// bit per upsert), the whole chain composing ([`NetDelta::then`]: no
    /// delta adds an edge an earlier one left present, or removes or
    /// reweights one it left absent), and an associativity spot check of
    /// that composition over the oldest three.
    pub fn validate(&self) -> Result<(), AuditError> {
        let fail = |m: String| Err(AuditError::DeltaLog(m));
        if self.len() > self.capacity() {
            return fail(format!(
                "ring over capacity: {} retained > {}",
                self.len(),
                self.capacity()
            ));
        }
        let chain: Vec<&Arc<NetDelta>> = self.retained().collect();
        if let Some(first) = chain.first() {
            if first.epoch() <= self.floor() {
                return fail(format!(
                    "oldest retained epoch {} not above the rebase floor {}",
                    first.epoch(),
                    self.floor()
                ));
            }
        }
        for d in &chain {
            let epoch = d.epoch();
            let blind = d.blind();
            if !blind.inserted().windows(2).all(|w| w[0].key() < w[1].key()) {
                return fail(format!("epoch {epoch}: upserts not strictly key-sorted"));
            }
            if !blind.deleted_keys().windows(2).all(|w| w[0] < w[1]) {
                return fail(format!("epoch {epoch}: removed keys not strictly sorted"));
            }
            if blind
                .deleted_keys()
                .iter()
                .any(|k| blind.inserted().binary_search_by_key(k, Edge::key).is_ok())
            {
                return fail(format!("epoch {epoch}: a key is both upserted and removed"));
            }
            if d.num_added() != d.added().count() {
                return fail(format!("epoch {epoch}: class bits set past the last upsert"));
            }
        }
        for pair in chain.windows(2) {
            if pair[1].epoch() != pair[0].epoch() + 1 {
                return fail(format!(
                    "epoch gap in ring: {} followed by {}",
                    pair[0].epoch(),
                    pair[1].epoch()
                ));
            }
        }
        let compose = |x: &NetDelta, y: &NetDelta| {
            x.try_then(y)
                .map_err(|m| AuditError::DeltaLog(format!("epochs ..={}: {m}", y.epoch())))
        };
        if let Some((first, rest)) = chain.split_first() {
            rest.iter().try_fold((***first).clone(), |net, d| compose(&net, d))?;
        }
        if let [a, b, c, ..] = chain[..] {
            if compose(&compose(a, b)?, c)? != compose(a, &compose(b, c)?)? {
                return fail(format!(
                    "composition not associative over epochs {}..={}",
                    a.epoch(),
                    c.epoch()
                ));
            }
        }
        Ok(())
    }
}

impl PartitionEpoch {
    /// Validate that the plan is total and consistent over its vertex
    /// space: every vertex has a home shard in range, a non-empty row set,
    /// and every (sampled) edge placement lands inside the row set of its
    /// source — the disjoint-and-complete contract distributed analytics
    /// rely on. Destinations are sampled (stride `max(1, nv/64)`) to keep
    /// the audit O(V) rather than O(V^2).
    pub fn validate(&self) -> Result<(), AuditError> {
        let plan = self.plan();
        let s = plan.num_shards();
        let nv = plan.num_vertices();
        if s == 0 {
            return Err(AuditError::Partition("plan has zero shards".into()));
        }
        let stride = ((nv / 64).max(1)) as usize;
        for src in 0..nv {
            let home = plan.home_of_vertex(src);
            if home >= s {
                return Err(AuditError::Partition(format!(
                    "{}: vertex {src} home {home} out of range ({s} shards)",
                    plan.name()
                )));
            }
            if !(0..s).any(|i| plan.stores_row(i, src)) {
                return Err(AuditError::Partition(format!(
                    "{}: vertex {src} has an empty row-shard set",
                    plan.name()
                )));
            }
            for dst in (0..nv).step_by(stride) {
                let shard = plan.shard_of_edge(src, dst);
                if shard >= s {
                    return Err(AuditError::Partition(format!(
                        "{}: edge ({src},{dst}) owner {shard} out of range",
                        plan.name()
                    )));
                }
                if !plan.stores_row(shard, src) {
                    return Err(AuditError::Partition(format!(
                        "{}: edge ({src},{dst}) stored on shard {shard} outside \
                         the row set of {src}",
                        plan.name()
                    )));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::VertexPartition;

    #[test]
    fn audit_error_displays_its_domain() {
        let e = AuditError::Partition("bad".into());
        assert_eq!(e.to_string(), "partition audit: bad");
        assert!(AuditError::Storage("x".into()).to_string().starts_with("storage"));
    }

    #[test]
    fn valid_partition_epoch_passes() {
        let epoch = PartitionEpoch::new(Arc::new(VertexPartition {
            num_vertices: 40,
            num_shards: 4,
        }));
        epoch.validate().expect("vertex-range plan is total");
    }
}
