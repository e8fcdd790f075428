//! Corrupt-and-reject coverage for the `audit` feature's deep validators:
//! each test damages one structure in one precise way and asserts the
//! validator reports that specific failure, plus a property test that audits
//! a random insert/delete stream after every epoch.
//!
//! Run with `cargo test --features audit -p gpma-core` (CI does).
#![cfg(feature = "audit")]

use std::sync::Arc;

use gpma_core::audit::{validate_image, AuditError};
use gpma_core::delta::{apply_delta, DeltaLog, NetDelta, SnapshotDelta};
use gpma_core::framework::GraphSnapshot;
use gpma_core::multi::{PartitionEpoch, Partitioner};
use gpma_core::storage::EMPTY;
use gpma_core::GpmaPlus;
use gpma_graph::{Edge, UpdateBatch};
use gpma_sim::{Device, DeviceConfig};
use proptest::prelude::*;

fn build_plus(nv: u32, edges: &[Edge]) -> (Device, GpmaPlus) {
    let dev = Device::new(DeviceConfig::deterministic());
    let g = GpmaPlus::build(&dev, nv, edges);
    (dev, g)
}

fn star_edges(n: u32) -> Vec<Edge> {
    (1..n).map(|d| Edge::weighted(0, d, u64::from(d))).collect()
}

// ------------------------------------------------------------------ image

#[test]
fn delta_advanced_image_validates_against_the_store() {
    let (dev, mut g) = build_plus(16, &star_edges(12));
    let base = GraphSnapshot::from_store(0, &g.storage);
    validate_image(&base, Some(&g.storage)).expect("fresh readback");
    let batch = UpdateBatch {
        insertions: vec![Edge::new(3, 4), Edge::weighted(0, 2, 9), Edge::new(15, 0)],
        deletions: vec![Edge::new(0, 1), Edge::new(7, 7)],
    };
    g.update_batch_lazy(&dev, &batch);
    let next = apply_delta(&base, &SnapshotDelta::from_batch(1, &batch));
    validate_image(&next, Some(&g.storage)).expect("image advanced by the batch's delta");
    // The image that missed the batch has a sound layout but a stale content.
    validate_image(&base, None).expect("layout alone");
    match validate_image(&base, Some(&g.storage)) {
        Err(AuditError::Image(m)) => assert!(m.contains("first difference"), "{m}"),
        other => panic!("expected a divergence rejection, got {other:?}"),
    }
}

#[test]
fn edges_swapped_across_a_row_boundary_are_rejected() {
    // Block 0 holds (0,1) (0,2) | (1,0): positions 1 and 2 straddle the
    // boundary between rows 0 and 1.
    let edges = vec![Edge::new(0, 1), Edge::new(0, 2), Edge::new(1, 0), Edge::new(9, 3)];
    let mut image = GraphSnapshot::from_edges(0, 16, edges);
    validate_image(&image, None).expect("intact image");
    image.corrupt_swap(0, 1, 2);
    match validate_image(&image, None) {
        Err(AuditError::Image(m)) => assert!(m.contains("row 0 holds edge (1, 0)"), "{m}"),
        other => panic!("expected a misplaced-edge rejection, got {other:?}"),
    }
}

// ---------------------------------------------------------------- storage

#[test]
fn intact_gpma_plus_validates() {
    let (dev, mut g) = build_plus(16, &star_edges(12));
    g.validate().expect("fresh build");
    g.update_batch_lazy(
        &dev,
        &UpdateBatch {
            insertions: vec![Edge::new(3, 4), Edge::new(5, 6)],
            deletions: vec![Edge::new(0, 1)],
        },
    );
    g.validate().expect("after an update batch");
}

#[test]
fn reordered_keys_are_rejected() {
    let (_dev, mut g) = build_plus(16, &star_edges(12));
    let keys = g.storage.keys.as_mut_slice();
    // Swap the first two distinct live keys.
    let live: Vec<usize> = (0..keys.len()).filter(|&i| keys[i] != EMPTY).collect();
    keys.swap(live[0], live[1]);
    match g.validate() {
        Err(AuditError::Storage(m)) => assert!(m.contains("out of order"), "{m}"),
        other => panic!("expected out-of-order rejection, got {other:?}"),
    }
}

#[test]
fn desynced_len_counter_is_rejected() {
    let (_dev, mut g) = build_plus(16, &star_edges(12));
    let keys = g.storage.keys.as_mut_slice();
    // Blank one live non-guard slot without telling the counter.
    let victim = (0..keys.len())
        .find(|&i| keys[i] != EMPTY && (keys[i] as u32) != u32::MAX)
        .expect("a live edge slot");
    keys[victim] = EMPTY;
    match g.validate() {
        Err(AuditError::Storage(m)) => assert!(m.contains("len counter"), "{m}"),
        other => panic!("expected len-counter rejection, got {other:?}"),
    }
}

#[test]
fn lost_guard_is_rejected() {
    // Only vertex 0 has edges, so vertex 2's row holds nothing but its
    // guard: decrementing that key keeps the array sorted and the live
    // count intact while erasing the guard itself.
    let (_dev, mut g) = build_plus(4, &star_edges(4));
    let guard_key = (2u64 << 32) | u64::from(u32::MAX);
    let keys = g.storage.keys.as_mut_slice();
    let slot = (0..keys.len())
        .find(|&i| keys[i] == guard_key)
        .expect("guard of vertex 2");
    keys[slot] = guard_key - 1;
    match g.validate() {
        Err(AuditError::Storage(m)) => assert!(m.contains("guards lost"), "{m}"),
        other => panic!("expected guards-lost rejection, got {other:?}"),
    }
}

#[test]
fn understated_routing_bound_is_rejected() {
    let (_dev, mut g) = build_plus(16, &star_edges(12));
    let last = g.storage.leaf_max_prefix.len() - 1;
    g.storage.leaf_max_prefix.host_write(last, 0);
    match g.validate() {
        Err(AuditError::Storage(m)) => assert!(m.contains("routing bound"), "{m}"),
        other => panic!("expected routing-bound rejection, got {other:?}"),
    }
}

#[test]
fn bound_raised_to_the_next_leafs_min_is_rejected() {
    // Raise a bound to the smallest key of the next non-empty leaf. The
    // index stays monotone and nothing is understated, yet that key now
    // routes one leaf too early and `find_slot` misses it: only the routing
    // invariant catches this.
    let (_dev, mut g) = build_plus(16, &star_edges(12));
    let seg_len = g.storage.geometry().seg_len;
    let (next, next_min) = g
        .storage
        .keys
        .as_slice()
        .chunks(seg_len)
        .enumerate()
        .skip(1)
        .find_map(|(l, leaf)| leaf.iter().find(|&&k| k != EMPTY).map(|&k| (l, k)))
        .expect("a non-empty leaf after the first");
    g.storage.leaf_max_prefix.host_write(next - 1, next_min);
    match g.validate() {
        Err(AuditError::Storage(m)) => {
            assert!(m.contains("at or below") && m.contains("routing bound"), "{m}")
        }
        other => panic!("expected routing-bound rejection, got {other:?}"),
    }
}

// --------------------------------------------------------------- delta log

/// The insertion of `inserts` at `epoch`, classified against an empty
/// image: every edge added.
fn delta(epoch: u64, inserts: &[(u32, u32)]) -> Arc<NetDelta> {
    let blind = SnapshotDelta::from_batch(
        epoch,
        &UpdateBatch {
            insertions: inserts.iter().map(|&(s, d)| Edge::new(s, d)).collect(),
            deletions: vec![],
        },
    );
    Arc::new(blind.classify(&GraphSnapshot::from_edges(epoch - 1, 8, Vec::new())))
}

#[test]
fn contiguous_delta_chain_validates() {
    let mut log = DeltaLog::new(8);
    log.push(delta(1, &[(0, 1), (1, 2)]));
    log.push(delta(2, &[(2, 3)]));
    log.push(delta(3, &[(3, 4), (0, 2)]));
    log.validate().expect("contiguous normalized chain");
}

#[test]
fn a_ring_that_adds_an_edge_twice_is_rejected() {
    let mut log = DeltaLog::new(8);
    log.push(delta(1, &[(0, 1)]));
    log.push(delta(2, &[(2, 3)]));
    // Epoch 3 calls (0, 1) added, but epoch 1 left it present.
    log.push(delta(3, &[(0, 1)]));
    match log.validate() {
        Err(AuditError::DeltaLog(m)) => assert!(m.contains("(0, 1)") && m.contains("do not chain"), "{m}"),
        other => panic!("expected a chain rejection, got {other:?}"),
    }
}

#[test]
fn delta_below_rebase_floor_is_rejected() {
    let mut log = DeltaLog::new(8);
    // A reshard declares epoch 10 the rebase point; publishing epoch 5
    // afterwards hands readers a chain that predates their floor.
    log.reset_to(10);
    log.push(delta(5, &[(0, 1)]));
    match log.validate() {
        Err(AuditError::DeltaLog(m)) => assert!(m.contains("rebase floor"), "{m}"),
        other => panic!("expected rebase-floor rejection, got {other:?}"),
    }
}

// --------------------------------------------------------------- partition

/// A plan that homes every vertex on a shard that does not exist.
struct HomelessPlan;

impl Partitioner for HomelessPlan {
    fn name(&self) -> &str {
        "homeless"
    }
    fn num_shards(&self) -> usize {
        2
    }
    fn num_vertices(&self) -> u32 {
        8
    }
    fn shard_of_edge(&self, _src: u32, _dst: u32) -> usize {
        0
    }
    fn home_of_vertex(&self, _v: u32) -> usize {
        2 // == num_shards: out of range
    }
    fn stores_row(&self, shard: usize, _v: u32) -> bool {
        shard == 0
    }
}

/// A plan whose row sets do not cover the vertices it claims to place.
struct RowlessPlan;

impl Partitioner for RowlessPlan {
    fn name(&self) -> &str {
        "rowless"
    }
    fn num_shards(&self) -> usize {
        2
    }
    fn num_vertices(&self) -> u32 {
        8
    }
    fn shard_of_edge(&self, _src: u32, _dst: u32) -> usize {
        0
    }
    fn home_of_vertex(&self, _v: u32) -> usize {
        0
    }
    fn stores_row(&self, _shard: usize, _v: u32) -> bool {
        false
    }
}

#[test]
fn out_of_range_home_is_rejected() {
    let epoch = PartitionEpoch::new(Arc::new(HomelessPlan));
    match epoch.validate() {
        Err(AuditError::Partition(m)) => assert!(m.contains("out of range"), "{m}"),
        other => panic!("expected out-of-range rejection, got {other:?}"),
    }
}

#[test]
fn empty_row_set_is_rejected() {
    let epoch = PartitionEpoch::new(Arc::new(RowlessPlan));
    match epoch.validate() {
        Err(AuditError::Partition(m)) => assert!(m.contains("row-shard set"), "{m}"),
        other => panic!("expected empty-row-set rejection, got {other:?}"),
    }
}

// ---------------------------------------------------------------- proptest

const NV: u32 = 24;

#[derive(Debug, Clone)]
struct Op {
    src: u32,
    dst: u32,
    weight: u64,
    delete: bool,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0..NV, 0..NV - 1, 1u64..100, any::<bool>()).prop_map(|(s, t, w, delete)| Op {
        src: s,
        dst: if t == s { NV - 1 } else { t },
        weight: w,
        delete,
    })
}

fn to_batch(ops: &[Op]) -> UpdateBatch {
    let mut b = UpdateBatch::default();
    for op in ops {
        if op.delete {
            b.deletions.push(Edge::new(op.src, op.dst));
        } else {
            b.insertions.push(Edge::weighted(op.src, op.dst, op.weight));
        }
    }
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every epoch of a random insert/delete stream leaves both the PMA
    /// state and the delta ring audit-clean.
    #[test]
    fn random_stream_stays_audit_clean(
        batches in prop::collection::vec(prop::collection::vec(op_strategy(), 1..40), 1..7),
    ) {
        let dev = Device::new(DeviceConfig::deterministic());
        let mut g = GpmaPlus::build(&dev, NV, &[]);
        let mut log = DeltaLog::new(4);
        let mut image = GraphSnapshot::from_edges(0, NV, Vec::new());
        for (i, ops) in batches.iter().enumerate() {
            let b = to_batch(ops);
            g.update_batch_lazy(&dev, &b);
            let net = SnapshotDelta::from_batch(i as u64 + 1, &b).classify(&image);
            image = apply_delta(&image, net.blind());
            log.push(Arc::new(net));
            let storage_audit = g.validate();
            prop_assert!(storage_audit.is_ok(), "epoch {}: {:?}", i + 1, storage_audit);
            let log_audit = log.validate();
            prop_assert!(log_audit.is_ok(), "epoch {}: {:?}", i + 1, log_audit);
        }
    }
}
