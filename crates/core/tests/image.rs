//! Property tests of the persistent row-block image: random delta chains
//! replayed through `apply_delta` against a `BTreeMap` oracle. After every
//! step the image must equal a from-scratch build of the oracle, answer
//! row queries like it, share every block the delta left alone with its
//! predecessor (unless the step also emptied a slab, which moves blocks) —
//! and the predecessor must not have changed. A second property holds
//! `GraphSnapshot::merged` to a from-scratch build of its parts' edges, and
//! a third holds a delta's classification (`SnapshotDelta::classify`) to a
//! brute-force diff of the two images and `NetDelta::then` to classifying
//! the merged chain.

use std::collections::BTreeMap;

use gpma_core::delta::{apply_delta, NetDelta, SnapshotDelta};
use gpma_core::framework::GraphSnapshot;
use gpma_core::image::ROWS_PER_BLOCK;
use gpma_graph::{Edge, UpdateBatch};
use proptest::prelude::*;

/// Three full blocks and a short last one (rows 24..27).
const NV: u32 = 3 * ROWS_PER_BLOCK as u32 + 3;

type Oracle = BTreeMap<(u32, u32), u64>;

#[derive(Debug, Clone)]
enum Op {
    Upsert(Edge),
    /// May name an absent key, or a row past the last vertex.
    Delete(Edge),
    /// Delete every live edge of one block (empties its rows).
    ClearBlock(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u32..10, 0..NV + 6, 0..NV, 1u64..5).prop_map(|(kind, s, d, w)| match kind {
        0..=4 => Op::Upsert(Edge::weighted(s % NV, d, w)),
        5..=8 => Op::Delete(Edge::new(s, d)),
        _ => Op::ClearBlock(s % NV.div_ceil(ROWS_PER_BLOCK as u32)),
    })
}

/// Turn one step's ops into a batch (deletions apply before insertions, the
/// later insertion of a key wins) and apply the same to the oracle.
fn step(oracle: &mut Oracle, ops: &[Op]) -> UpdateBatch {
    let mut batch = UpdateBatch::default();
    for op in ops {
        match op {
            Op::Upsert(e) => batch.insertions.push(*e),
            Op::Delete(e) => batch.deletions.push(*e),
            Op::ClearBlock(b) => {
                let rows = b * ROWS_PER_BLOCK as u32..(b + 1) * ROWS_PER_BLOCK as u32;
                let doomed = oracle.keys().filter(|(s, _)| rows.contains(s));
                batch
                    .deletions
                    .extend(doomed.map(|&(s, d)| Edge::new(s, d)));
            }
        }
    }
    for e in &batch.deletions {
        oracle.remove(&(e.src, e.dst));
    }
    for e in &batch.insertions {
        oracle.insert((e.src, e.dst), e.weight);
    }
    batch
}

fn image_of(epoch: u64, oracle: &Oracle) -> GraphSnapshot {
    let edges = oracle.iter().map(|(&(s, d), &w)| Edge::weighted(s, d, w));
    GraphSnapshot::from_edges(epoch, NV, edges.collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn delta_chains_advance_the_image_exactly_and_persistently(
        initial in prop::collection::vec(op_strategy(), 0..40),
        steps in prop::collection::vec(prop::collection::vec(op_strategy(), 0..12), 1..12),
    ) {
        let mut oracle = Oracle::new();
        step(&mut oracle, &initial);
        let mut image = image_of(0, &oracle);
        for (i, ops) in steps.iter().enumerate() {
            let epoch = i as u64 + 1;
            let before = image_of(epoch - 1, &oracle);
            let batch = step(&mut oracle, ops);
            let delta = SnapshotDelta::from_batch(epoch, &batch);
            let next = apply_delta(&image, &delta);

            prop_assert_eq!(&next, &image_of(epoch, &oracle));
            prop_assert_eq!(next.check_layout(), Ok(()));
            prop_assert_eq!(next.num_edges(), oracle.len());
            for v in 0..NV + 2 {
                let want: Vec<Edge> = oracle
                    .range((v, 0)..=(v, u32::MAX))
                    .map(|(&(s, d), &w)| Edge::weighted(s, d, w))
                    .collect();
                prop_assert_eq!(next.neighbors(v), &want[..], "row {}", v);
                prop_assert_eq!(next.out_degree(v), want.len());
                for d in 0..NV {
                    prop_assert_eq!(next.weight(v, d), oracle.get(&(v, d)).copied());
                }
            }

            // Persistence: advancing did not disturb the previous image.
            prop_assert_eq!(&image, &before);
            // Structural sharing: a k-key delta rewrites at most k blocks,
            // all into one new slab — unless it also emptied an old slab to
            // bound the garbage, which moves that slab's blocks too.
            let rebuilt = next.num_blocks() - next.shared_blocks(&image);
            if next.num_slabs() == image.num_slabs() + 1 {
                prop_assert!(rebuilt <= delta.len(), "{} blocks rebuilt for {} keys", rebuilt, delta.len());
            }
            prop_assert!(next.num_slabs() <= image.num_slabs() + 1);
            image = next;
        }
    }
}

/// One update of a small key space (rows `0..NV`, destinations `0..4`,
/// weights 1 and 2), so absent deletes, identical re-inserts and reweights
/// are common; kind 2 deletes a key and re-inserts it in one batch.
fn churn_strategy() -> impl Strategy<Value = Vec<(u32, u32, u32, u64)>> {
    prop::collection::vec((0u32..3, 0..NV, 0u32..4, 1u64..3), 0..16)
}

fn churn_batch(ops: &[(u32, u32, u32, u64)]) -> UpdateBatch {
    let mut batch = UpdateBatch::default();
    for &(kind, s, d, w) in ops {
        if kind != 0 {
            batch.deletions.push(Edge::new(s, d));
        }
        if kind != 1 {
            batch.insertions.push(Edge::weighted(s, d, w));
        }
    }
    batch
}

/// A delta's changes by key, from its class accessors: `Some((weight,
/// added))` for an upsert, `None` for a removal.
fn changes(net: &NetDelta) -> BTreeMap<(u32, u32), Option<(u64, bool)>> {
    let upserts = net.upserts().map(|(e, added)| ((e.src, e.dst), Some((e.weight, added))));
    upserts.chain(net.removed().map(|k| (k, None))).collect()
}

/// The same, by diffing every edge of `pre` against `post`.
fn diff(pre: &GraphSnapshot, post: &GraphSnapshot) -> BTreeMap<(u32, u32), Option<(u64, bool)>> {
    let map = |g: &GraphSnapshot| -> Oracle { g.edges().iter().map(|e| ((e.src, e.dst), e.weight)).collect() };
    let (before, after) = (map(pre), map(post));
    let mut out = BTreeMap::new();
    for (&k, &w) in &after {
        if before.get(&k) != Some(&w) {
            out.insert(k, Some((w, !before.contains_key(&k))));
        }
    }
    for &k in before.keys().filter(|k| !after.contains_key(k)) {
        out.insert(k, None);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Classifying each blind delta against the image it advances equals a
    /// brute-force diff of the two images; composing the classified chain
    /// with `then` equals classifying the merged blind chain against the
    /// base, except that an edge removed and re-added (or reweighted) back
    /// to its base weight stays a reweight, which only the base's weight
    /// could rule out.
    #[test]
    fn classification_is_the_image_diff_and_then_is_the_merge(
        initial in churn_strategy(),
        steps in prop::collection::vec(churn_strategy(), 1..8),
    ) {
        let base = apply_delta(
            &GraphSnapshot::from_edges(0, NV, Vec::new()),
            &SnapshotDelta::from_batch(0, &churn_batch(&initial)),
        );
        let (mut image, mut merged, mut composed) = (base.clone(), SnapshotDelta::default(), None::<NetDelta>);
        for (i, ops) in steps.iter().enumerate() {
            let blind = SnapshotDelta::from_batch(i as u64 + 1, &churn_batch(ops));
            merged.merge(&blind);
            let net = blind.classify(&image);
            let next = apply_delta(&image, net.blind());
            prop_assert_eq!(&next, &apply_delta(&image, &SnapshotDelta::from_batch(i as u64 + 1, &churn_batch(ops))));
            prop_assert_eq!(changes(&net), diff(&image, &next));
            prop_assert_eq!(net.verify(&image, &next), Ok(()));
            composed = Some(match composed {
                Some(c) => c.then(&net),
                None => net,
            });
            image = next;
        }
        let composed = composed.expect("at least one step");
        let whole = merged.classify(&base);
        prop_assert_eq!(composed.epoch(), whole.epoch());
        let (mut got, want) = (changes(&composed), changes(&whole));
        got.retain(|&(s, d), change| match change {
            Some((w, false)) if !want.contains_key(&(s, d)) => base.weight(s, d) != Some(*w),
            _ => true,
        });
        prop_assert_eq!(got, want);
    }
}

/// The blind delta of `upserts` and `deletions`, classified against `pre`.
fn classified(upserts: &[(u32, u32, u64)], deletions: &[(u32, u32)], pre: &GraphSnapshot) -> NetDelta {
    let batch = UpdateBatch {
        insertions: upserts.iter().map(|&(s, d, w)| Edge::weighted(s, d, w)).collect(),
        deletions: deletions.iter().map(|&(s, d)| Edge::new(s, d)).collect(),
    };
    SnapshotDelta::from_batch(1, &batch).classify(pre)
}

#[test]
fn then_panics_on_pairs_that_do_not_chain() {
    let base = GraphSnapshot::from_edges(0, 4, vec![Edge::weighted(0, 1, 1)]);
    let empty = GraphSnapshot::from_edges(0, 4, Vec::new());
    let add = classified(&[(2, 3, 1)], &[], &base);
    let remove = classified(&[], &[(0, 1)], &base);
    let reweight = classified(&[(0, 1, 5)], &[], &base);
    let re_add = classified(&[(0, 1, 7)], &[], &empty);
    for (name, first, later) in [
        ("added twice", &add, &add),
        ("removed twice", &remove, &remove),
        ("removed, then reweighted", &remove, &reweight),
        ("reweighted, then added", &reweight, &re_add),
    ] {
        let composed = std::panic::catch_unwind(|| first.then(later));
        assert!(composed.is_err(), "{name} composed");
    }
    // The chaining counterparts compose.
    assert!(remove.then(&re_add).reweighted().eq([&Edge::weighted(0, 1, 7)]));
    let added = GraphSnapshot::from_edges(1, 4, vec![Edge::weighted(0, 1, 1), Edge::weighted(2, 3, 1)]);
    assert!(add.then(&classified(&[], &[(2, 3)], &added)).blind().is_empty());
}

/// One part of a merge: the blocks it may populate (one bit per block) and
/// its edges there. Narrow destinations make parts share keys, and each part
/// weighs its edges by its own index so the winner of a shared key shows.
fn part_strategy() -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (0u32..16, prop::collection::vec((0..NV, 0u32..6), 0..30))
}

fn part_image(index: usize, (mask, edges): &(u32, Vec<(u32, u32)>)) -> GraphSnapshot {
    let in_mask = |s: u32| mask >> (s as usize / ROWS_PER_BLOCK) & 1 == 1;
    let edges = edges
        .iter()
        .filter(|&&(s, _)| in_mask(s))
        .map(|&(s, d)| Edge::weighted(s, d, index as u64 + 1));
    GraphSnapshot::from_edges(index as u64, NV, edges.collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Rows split across parts, keys two parts hold (the later part wins),
    /// empty parts and blocks only one part populates.
    #[test]
    fn merged_equals_a_flat_build_of_its_parts_in_order(
        specs in prop::collection::vec(part_strategy(), 0..5),
    ) {
        let parts: Vec<GraphSnapshot> =
            specs.iter().enumerate().map(|(i, p)| part_image(i, p)).collect();
        let refs: Vec<&GraphSnapshot> = parts.iter().collect();
        let merged = GraphSnapshot::merged(9, NV, &refs);
        let flat: Vec<Edge> = parts.iter().flat_map(|p| p.edges().to_vec()).collect();
        prop_assert_eq!(&merged, &GraphSnapshot::from_edges(9, NV, flat));
        prop_assert_eq!(merged.check_layout(), Ok(()));
        prop_assert_eq!(merged.num_slabs(), 1);
        for v in 0..NV {
            for d in 0..6 {
                let last = parts.iter().rev().find_map(|p| p.weight(v, d));
                prop_assert_eq!(merged.weight(v, d), last, "({}, {})", v, d);
            }
        }
    }
}

#[test]
fn an_empty_delta_shares_every_block() {
    let base = GraphSnapshot::from_edges(4, NV, vec![Edge::new(0, 1), Edge::new(NV - 1, 0)]);
    let next = apply_delta(
        &base,
        &SnapshotDelta::from_batch(5, &UpdateBatch::default()),
    );
    assert_eq!(next.epoch(), 5);
    assert_eq!(next.edges(), base.edges());
    assert_eq!(next.shared_blocks(&base), base.num_blocks());
}

#[test]
fn one_key_in_a_large_image_rebuilds_one_block() {
    let nv = 4_000u32;
    let edges: Vec<Edge> = (0..nv).map(|v| Edge::new(v, (v + 1) % nv)).collect();
    let base = GraphSnapshot::from_edges(0, nv, edges);
    let delta = SnapshotDelta::from_batch(
        1,
        &UpdateBatch {
            insertions: vec![Edge::weighted(1_234, 7, 9)],
            deletions: vec![],
        },
    );
    let next = apply_delta(&base, &delta);
    assert_eq!(next.num_edges(), base.num_edges() + 1);
    assert_eq!(next.shared_blocks(&base), base.num_blocks() - 1);
}
