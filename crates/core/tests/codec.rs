//! Property-based round-trip tests of the durability codec: every snapshot
//! the checkpoint layer can persist must decode back to an identical value,
//! the decoder must consume its buffer exactly, and no single flipped byte
//! of a checkpoint may decode silently.

use gpma_core::checkpoint;
use gpma_core::codec::{decode_snapshot, encode_snapshot, ByteReader};
use gpma_core::framework::GraphSnapshot;
use gpma_graph::Edge;
use proptest::prelude::*;

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

fn snapshot_of(epoch: u64, ops: &[Op]) -> GraphSnapshot {
    let edges: Vec<Edge> = ops
        .iter()
        .filter(|op| !op.delete)
        .map(|op| Edge::weighted(op.src, op.dst, op.weight))
        .collect();
    GraphSnapshot::from_edges(epoch, NV, edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn snapshot_wire_roundtrip_is_identity(
        ops in prop::collection::vec(op_strategy(), 0..60),
        epoch in 0u64..1_000,
    ) {
        let snap = snapshot_of(epoch, &ops);
        let mut buf = Vec::new();
        encode_snapshot(&snap, &mut buf);

        let mut r = ByteReader::new(&buf);
        let back = decode_snapshot(&mut r).expect("well-formed snapshot bytes");
        prop_assert!(r.is_empty(), "decoder must consume the buffer exactly");
        prop_assert_eq!(back, snap);
    }

    #[test]
    fn checkpoint_container_roundtrip_is_identity(
        ops in prop::collection::vec(op_strategy(), 0..40),
        epoch in 0u64..100,
    ) {
        let snap = snapshot_of(epoch, &ops);
        let back = checkpoint::decode(&checkpoint::encode(&snap))
            .expect("well-formed checkpoint bytes");
        prop_assert_eq!(back, snap);
    }

    #[test]
    fn any_single_byte_corruption_of_a_checkpoint_is_rejected_or_detected(
        base in prop::collection::vec(op_strategy(), 1..30),
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = checkpoint::encode(&snapshot_of(3, &base));
        let pos = (pos_seed as usize) % bytes.len();
        bytes[pos] ^= flip;

        // A flipped byte must never decode silently: either the structural
        // validation or the trailing checksum catches it.
        prop_assert!(checkpoint::decode(&bytes).is_err());
    }
}
