//! Property-based tests of the device structures: GPMA and GPMA+ must match
//! a sorted-map oracle under arbitrary batch sequences, preserve their
//! structural invariants, and agree with each other.

use gpma_core::storage::EMPTY;
use gpma_core::{Gpma, GpmaPlus};
use gpma_graph::{encode_key, Edge, UpdateBatch};
use gpma_sim::{Device, DeviceConfig, Lane};
use proptest::prelude::*;
use std::collections::BTreeMap;

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

fn batches_strategy() -> impl Strategy<Value = Vec<Vec<Op>>> {
    prop::collection::vec(prop::collection::vec(op_strategy(), 1..40), 1..8)
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

fn apply_oracle(oracle: &mut BTreeMap<(u32, u32), u64>, b: &UpdateBatch) {
    for e in &b.deletions {
        oracle.remove(&(e.src, e.dst));
    }
    for e in &b.insertions {
        oracle.insert((e.src, e.dst), e.weight);
    }
}

fn edges_of_plus(g: &GpmaPlus) -> BTreeMap<(u32, u32), u64> {
    g.storage
        .host_edges()
        .into_iter()
        .map(|e| ((e.src, e.dst), e.weight))
        .collect()
}

/// One step of the leaf-index property test: a mixed batch plus the shapes
/// that stress a locally maintained index.
#[derive(Debug, Clone)]
enum Step {
    /// Mixed inserts and deletes: deletions tombstone, bounds stay.
    Mixed(Vec<Op>),
    /// Lazily delete the largest real edge of leaf `i % leaves` (its bound
    /// becomes overstated).
    DropLeafMax(usize),
    /// Lazily delete every real edge of leaf `i % leaves` (a guard-free
    /// leaf ends up empty under a stale bound).
    EmptyLeaf(usize),
    /// Insert six full rows at once: overflows the root, forcing a grow.
    Grow(u32),
    /// Delete every edge: past 128 slots, forces a shrink.
    MassDelete,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let ops = || prop::collection::vec(op_strategy(), 1..40);
    prop_oneof![
        8 => ops().prop_map(Step::Mixed),
        3 => (0usize..1024).prop_map(Step::DropLeafMax),
        3 => (0usize..1024).prop_map(Step::EmptyLeaf),
        1 => (0..NV).prop_map(Step::Grow),
        1 => (0u32..1).prop_map(|_| Step::MassDelete),
    ]
}

/// Real edges stored in leaf `i % leaves`, in key order.
fn leaf_edges(g: &GpmaPlus, i: usize) -> Vec<Edge> {
    let geom = g.storage.geometry();
    let leaf = i % geom.num_segs;
    g.storage.keys.as_slice()[leaf * geom.seg_len..(leaf + 1) * geom.seg_len]
        .iter()
        .filter(|&&k| gpma_core::GpmaStorage::is_entry(k))
        .map(|&k| {
            let (s, d) = gpma_graph::decode_key(k);
            Edge::new(s, d)
        })
        .collect()
}

/// The search contract the leaf index exists for: every live key is found,
/// and every absent key routes to a leaf where inserting it keeps the
/// array globally sorted.
fn assert_index_routes_every_key(g: &GpmaPlus) {
    let geom = g.storage.geometry();
    let keys = g.storage.keys.as_slice();
    let leaves: Vec<&[u64]> = keys.chunks(geom.seg_len).collect();
    // Largest live key strictly left of each leaf, smallest strictly right
    // (a leaf's live keys are sorted, so its ends are its extremes).
    let is_live = |k: &u64| *k != EMPTY;
    let mut max_left = vec![None; leaves.len()];
    let mut running = None;
    for (l, leaf) in leaves.iter().enumerate() {
        max_left[l] = running;
        running = leaf.iter().copied().rfind(is_live).or(running);
    }
    let mut min_right = vec![None; leaves.len()];
    let mut running = None;
    for (l, leaf) in leaves.iter().enumerate().rev() {
        min_right[l] = running;
        running = leaf.iter().copied().find(is_live).or(running);
    }
    let mut lane = Lane::test_lane(0);
    for src in 0..NV {
        for dst in (0..NV).chain([gpma_graph::GUARD_DST]) {
            let key = encode_key(src, dst);
            match g.storage.find_slot(&mut lane, key) {
                Some(slot) => assert_eq!(keys[slot], key),
                None => {
                    assert!(!keys.contains(&key), "live key {key:#x} not found");
                    let leaf = g.storage.find_leaf(&mut lane, key);
                    assert!(
                        max_left[leaf].is_none_or(|m| m < key)
                            && min_right[leaf].is_none_or(|m| key < m),
                        "absent key {key:#x} routes to leaf {leaf}, out of order"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn leaf_index_routes_after_any_interleaving(
        steps in prop::collection::vec(step_strategy(), 1..14),
        device_tier in any::<bool>(),
    ) {
        // Both writers of routing bounds: the small-tier merge lane, and
        // `redispatch_window` under the device tier.
        let tier_max = if device_tier { 0 } else { gpma_core::gpma_plus::SMALL_WINDOW_MAX };
        let dev = Device::new(DeviceConfig::deterministic());
        let mut g = GpmaPlus::build(&dev, NV, &[]).with_tier_max(tier_max);
        let mut oracle = BTreeMap::new();
        for step in &steps {
            let batch = match step {
                Step::Mixed(ops) => to_batch(ops),
                Step::DropLeafMax(i) => {
                    let deletions = leaf_edges(&g, *i).pop().into_iter().collect();
                    UpdateBatch { insertions: vec![], deletions }
                }
                Step::EmptyLeaf(i) => UpdateBatch { insertions: vec![], deletions: leaf_edges(&g, *i) },
                Step::Grow(row) => {
                    let insertions = (0..6)
                        .flat_map(|r| (0..NV).map(move |d| Edge::new((row + r) % NV, d)))
                        .collect();
                    UpdateBatch { insertions, deletions: vec![] }
                }
                Step::MassDelete => {
                    let deletions = oracle.keys().map(|&(s, d)| Edge::new(s, d)).collect();
                    UpdateBatch { insertions: vec![], deletions }
                }
            };
            let cap_before = g.storage.capacity();
            let stats = g.update_batch_lazy(&dev, &batch);
            if let Step::MassDelete = step {
                // Only the guards are left: below the root's lower density
                // bound whenever the array is past its 128-slot floor.
                let shrinks = cap_before > 128;
                prop_assert_eq!(stats.resizes, u64::from(shrinks));
                prop_assert!(!shrinks || g.storage.capacity() < cap_before);
            }
            apply_oracle(&mut oracle, &batch);
            g.storage.check_invariants();
            prop_assert_eq!(edges_of_plus(&g), oracle.clone());
            assert_index_routes_every_key(&g);
        }
    }

    #[test]
    fn gpma_plus_matches_oracle(batches in batches_strategy()) {
        let dev = Device::new(DeviceConfig::deterministic());
        let mut g = GpmaPlus::build(&dev, NV, &[]);
        let mut oracle = BTreeMap::new();
        for ops in &batches {
            let b = to_batch(ops);
            g.update_batch_lazy(&dev, &b);
            apply_oracle(&mut oracle, &b);
            g.storage.check_invariants();
            prop_assert_eq!(edges_of_plus(&g), oracle.clone());
        }
    }

    #[test]
    fn gpma_lock_based_matches_oracle(batches in batches_strategy()) {
        let dev = Device::new(DeviceConfig::deterministic());
        let mut g = Gpma::build(&dev, NV, &[]);
        let mut oracle: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for ops in &batches {
            let b = to_batch(ops);
            g.update_batch(&dev, &b);
            apply_oracle(&mut oracle, &b);
            g.storage.check_invariants();
            let got: BTreeMap<(u32, u32), u64> = g
                .storage
                .host_edges()
                .into_iter()
                .map(|e| ((e.src, e.dst), e.weight))
                .collect();
            prop_assert_eq!(got, oracle.clone());
        }
    }

    #[test]
    fn csr_view_always_matches_reference(batches in batches_strategy()) {
        let dev = Device::new(DeviceConfig::deterministic());
        let mut g = GpmaPlus::build(&dev, NV, &[]);
        for ops in &batches {
            g.update_batch_lazy(&dev, &to_batch(ops));
            let view = gpma_core::CsrView::build(&dev, &g.storage);
            let got = view.to_host_csr(&g.storage);
            got.validate().unwrap();
            let expect = gpma_graph::Coo::new(NV, g.storage.host_edges()).to_csr();
            prop_assert_eq!(got, expect);
        }
    }

    #[test]
    fn guards_and_len_survive_arbitrary_churn(batches in batches_strategy()) {
        let dev = Device::new(DeviceConfig::deterministic());
        let mut g = GpmaPlus::build(&dev, NV, &[]);
        for ops in &batches {
            g.update_batch_lazy(&dev, &to_batch(ops));
        }
        // len = edges + one immortal guard per vertex.
        prop_assert_eq!(g.storage.len(), g.storage.num_edges() + NV as usize);
    }
}
