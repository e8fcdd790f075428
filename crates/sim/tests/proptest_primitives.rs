//! Property-based tests: the device primitives must agree with their std
//! reference implementations on arbitrary inputs, under both deterministic
//! and parallel host execution.

use gpma_sim::primitives::BLOCK;
use gpma_sim::{primitives, Device, DeviceBuffer, DeviceConfig};
use proptest::prelude::*;

fn det() -> Device {
    Device::new(DeviceConfig::deterministic())
}

fn pooled() -> Device {
    Device::new(DeviceConfig { host_parallelism: 4, ..DeviceConfig::default() })
}

/// Sort masks: random (about half the digits), sparse (few digits, many
/// equal keys) and the edge-key shape `ids << 32 | ids` of 0–32-bit ids.
fn sort_mask() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, b, c)| a & b & c),
        (0u32..=32).prop_map(|bits| {
            let ids = (1u64 << bits) - 1;
            (ids << 32) | ids
        }),
    ]
}

/// Raw keys: arbitrary, or one of 16 values spread over all 64 bits, so
/// that any mask leaves runs of equal keys.
fn raw_key() -> impl Strategy<Value = u64> {
    prop_oneof![any::<u64>(), (0u64..16).prop_map(|x| x.wrapping_mul(0x9E37_79B9_7F4A_7C15))]
}

/// Masked and full sort of `keys` (each inside `mask`) with their input
/// indices as values: both must equal the stable order.
fn check_masked_sort(dev: &Device, keys: &[u64], mask: u64) {
    let idx: Vec<u64> = (0..keys.len() as u64).collect();
    let mut expect: Vec<(u64, u64)> = keys.iter().copied().zip(idx.iter().copied()).collect();
    expect.sort_by_key(|&(k, _)| k); // stable: equal keys keep input order
    let (mut fk, mut fv) = (DeviceBuffer::from_slice(keys), DeviceBuffer::from_slice(&idx));
    primitives::radix_sort_pairs_u64(dev, &mut fk, &mut fv);
    let (mut mk, mut mv) = (DeviceBuffer::from_slice(keys), DeviceBuffer::from_slice(&idx));
    primitives::radix_sort_pairs_u64_masked(dev, &mut mk, &mut mv, mask);
    let full: Vec<(u64, u64)> = fk.to_vec().into_iter().zip(fv.to_vec()).collect();
    let masked: Vec<(u64, u64)> = mk.to_vec().into_iter().zip(mv.to_vec()).collect();
    assert_eq!(full, expect, "full sort, n={} mask={mask:#x}", keys.len());
    assert_eq!(masked, expect, "masked sort, n={} mask={mask:#x}", keys.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn masked_sort_equals_full_sort(raw in prop::collection::vec(raw_key(), 2000),
                                    mask in sort_mask(),
                                    n in prop_oneof![0usize..=BLOCK, BLOCK + 1..=2 * BLOCK, 2 * BLOCK + 1..2000]) {
        // Up to one block is the one-launch tile; past it the tiles merge
        // over two blocks or up to eight, or a mask of one or two digits
        // runs its digit passes instead.
        let keys: Vec<u64> = raw[..n].iter().map(|&k| k & mask).collect();
        check_masked_sort(&det(), &keys, mask);
        check_masked_sort(&pooled(), &keys, mask);
    }

    #[test]
    fn radix_sort_sorts_any_input(mut data in prop::collection::vec(any::<u64>(), 0..2000)) {
        let d = det();
        let mut keys = DeviceBuffer::from_slice(&data);
        primitives::radix_sort_u64(&d, &mut keys);
        data.sort_unstable();
        prop_assert_eq!(keys.to_vec(), data);
    }

    #[test]
    fn sort_pairs_keeps_payloads_attached(data in prop::collection::vec(any::<u64>(), 0..1000)) {
        let d = det();
        let vals: Vec<u64> = data.iter().map(|&k| k.wrapping_mul(31).wrapping_add(7)).collect();
        let mut dk = DeviceBuffer::from_slice(&data);
        let mut dv = DeviceBuffer::from_slice(&vals);
        primitives::radix_sort_pairs_u64(&d, &mut dk, &mut dv);
        for (k, v) in dk.to_vec().into_iter().zip(dv.to_vec()) {
            prop_assert_eq!(v, k.wrapping_mul(31).wrapping_add(7));
        }
    }

    #[test]
    fn scan_matches_prefix_sums(data in prop::collection::vec(0u32..1000, 0..3000)) {
        let d = det();
        let (out, total) = primitives::exclusive_scan_u32(&d, &DeviceBuffer::from_slice(&data));
        let mut acc = 0u32;
        let expect: Vec<u32> = data.iter().map(|&v| { let p = acc; acc += v; p }).collect();
        prop_assert_eq!(out.to_vec(), expect);
        prop_assert_eq!(total, acc);
    }

    #[test]
    fn rle_reconstructs_input(runs in prop::collection::vec((0u32..4, 1usize..=2 * BLOCK), 1..12),
                            n in 0usize..=3 * BLOCK + 1) {
        // Runs up to two blocks long over four values: they straddle block
        // boundaries, and two neighbours of one value merge into one run.
        let data: Vec<u32> = runs
            .iter()
            .flat_map(|&(v, len)| std::iter::repeat_n(v, len))
            .chain(std::iter::repeat(9))
            .take(n)
            .collect();
        let mut unique = Vec::new();
        let mut starts = Vec::new();
        for (i, &v) in data.iter().enumerate() {
            if i == 0 || data[i - 1] != v {
                unique.push(v);
                starts.push(i as u32);
            }
        }
        for d in [det(), pooled()] {
            let mut rle = primitives::RleScratch::default();
            let input = DeviceBuffer::from_slice(&data);
            let runs = primitives::run_length_encode_u32_into(&d, &input, n, &mut rle);
            prop_assert_eq!(runs, unique.len());
            prop_assert_eq!(&rle.unique.to_vec()[..runs], &unique[..]);
            if n > 0 {
                prop_assert_eq!(&rle.starts.to_vec()[..runs], &starts[..]);
                prop_assert_eq!(rle.starts.host_read(runs), n as u32, "sentinel");
            }
            // One block walk up to one block; above it, head counts, their
            // one-launch scan and the walk.
            let launches = match n { 0 => 0, 1..=BLOCK => 1, _ => 3 };
            prop_assert_eq!(d.metrics().launches, launches);
        }
    }

    #[test]
    fn compact_equals_filter(data in prop::collection::vec(any::<u64>(), 0..1500),
                             keep_mod in 1u64..7) {
        let d = det();
        let flags: Vec<u32> = data.iter().map(|&v| (v % keep_mod == 0) as u32).collect();
        let vals: Vec<u32> = (0..data.len() as u32).collect();
        let (keys, idx) = primitives::compact_pairs_flagged(
            &d,
            &DeviceBuffer::from_slice(&data),
            &DeviceBuffer::from_slice(&vals),
            &DeviceBuffer::from_slice(&flags),
        );
        let expect: Vec<(u64, u32)> = data.iter().copied().zip(vals).filter(|&(v, _)| v % keep_mod == 0).collect();
        let got: Vec<(u64, u32)> = keys.to_vec().into_iter().zip(idx.to_vec()).collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn parallel_execution_is_equivalent(data in prop::collection::vec(any::<u64>(), 1..1200)) {
        let par = Device::new(DeviceConfig { host_parallelism: 4, ..DeviceConfig::default() });
        let mut a = DeviceBuffer::from_slice(&data);
        primitives::radix_sort_u64(&par, &mut a);
        let det_dev = det();
        let mut b = DeviceBuffer::from_slice(&data);
        primitives::radix_sort_u64(&det_dev, &mut b);
        prop_assert_eq!(a.to_vec(), b.to_vec());
    }

    #[test]
    fn cost_model_is_deterministic(n in 1usize..3000, work in 1u64..100) {
        let run = || {
            let d = det();
            let buf = DeviceBuffer::<u64>::new(n);
            let s = d.launch("k", n, |lane| {
                buf.set(lane, lane.tid, lane.tid as u64);
                lane.work(work);
            });
            s.cycles
        };
        prop_assert_eq!(run(), run());
    }
}
