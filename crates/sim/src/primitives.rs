//! Device-wide parallel primitives, mirroring the NVIDIA CUB operations the
//! paper builds GPMA+ from (Section 5.2): radix sort, exclusive scan,
//! run-length encoding and stream compaction. (The one reduction that runs,
//! the analytics' `f64` sum, lives beside its callers in `gpma-analytics`.)
//!
//! Every primitive is implemented as a sequence of real kernel launches on
//! the simulated device, so it both computes the correct result and charges
//! the cost model a linear-in-`n / K` amount of work like its CUB
//! counterpart.

use crate::buffer::{DeviceBuffer, DevicePod};
use crate::device::Device;
use crate::launch;

/// Elements each block-thread processes sequentially in the blocked kernels
/// (the analogue of a CUDA thread block's tile).
pub const BLOCK: usize = 256;

// ----------------------------------------------------------------------
// Exclusive scan
// ----------------------------------------------------------------------

/// Exclusive prefix sum. Returns the scanned buffer and the grand total.
///
/// Three-phase blocked scan (partial sums, recursive scan of block sums,
/// offset add), the standard GPU formulation.
pub fn exclusive_scan_u32(dev: &Device, input: &DeviceBuffer<u32>) -> (DeviceBuffer<u32>, u32) {
    let out = DeviceBuffer::<u32>::new(input.len());
    let total = exclusive_scan_u32_into(dev, input, input.len(), &out);
    (out, total)
}

/// [`exclusive_scan_u32`] over the first `n` elements, writing into a
/// caller-owned output buffer (which may be larger than `n`), so hot loops
/// reuse one output across launches. Returns the grand total.
///
/// Not allocation-free: each call still allocates its intermediates — a
/// one-slot total up to [`BLOCK`] elements, above that the block-sum level
/// and, recursively, that level's own scan.
// lint: hot-path
pub fn exclusive_scan_u32_into(
    dev: &Device,
    input: &DeviceBuffer<u32>,
    n: usize,
    out: &DeviceBuffer<u32>,
) -> u32 {
    assert!(input.len() >= n && out.len() >= n);
    if n == 0 {
        return 0;
    }
    if n <= BLOCK {
        let total = DeviceBuffer::<u32>::new(1);
        launch!(dev, "scan_small", 1, |lane| {
            let mut acc = 0u32;
            for i in 0..n {
                let v = input.get(lane, i);
                out.set(lane, i, acc);
                acc += v;
            }
            total.set(lane, 0, acc);
        });
        return total.host_read(0);
    }

    let nb = n.div_ceil(BLOCK);
    let block_sums = DeviceBuffer::<u32>::new(nb);
    launch!(dev, "scan_block_sums", nb, |lane| {
        let b = lane.tid;
        let start = b * BLOCK;
        let end = (start + BLOCK).min(n);
        let mut acc = 0u32;
        for i in start..end {
            acc += input.get(lane, i);
        }
        block_sums.set(lane, b, acc);
    });

    let (scanned_sums, total) = exclusive_scan_u32(dev, &block_sums);

    launch!(dev, "scan_add_offsets", nb, |lane| {
        let b = lane.tid;
        let start = b * BLOCK;
        let end = (start + BLOCK).min(n);
        let mut acc = scanned_sums.get(lane, b);
        for i in start..end {
            let v = input.get(lane, i);
            out.set(lane, i, acc);
            acc += v;
        }
    });

    total
}

// ----------------------------------------------------------------------
// Run-length encoding
// ----------------------------------------------------------------------

/// Reusable buffer set for [`run_length_encode_u32_into`]: each block's
/// run-head count and its scan, a one-slot run count, and the two run
/// outputs (sized to the *input* length, an upper bound on the run count,
/// plus the sentinel slot of [`Self::starts`]). Capacities only grow
/// ([`DeviceBuffer::grow_to`]), so a steady stream of equally sized inputs
/// reallocates none of these buffers after the first call; above one
/// [`BLOCK`] the scan of the block counts still allocates its intermediates
/// per call ([`exclusive_scan_u32_into`]).
pub struct RleScratch {
    block_heads: DeviceBuffer<u32>,
    block_offsets: DeviceBuffer<u32>,
    runs: DeviceBuffer<u32>,
    /// Distinct run values, valid for the `num_runs` returned by the call
    /// that filled this scratch.
    pub unique: DeviceBuffer<u32>,
    /// Each run's first input index, index-aligned with [`Self::unique`],
    /// then the sentinel `starts[num_runs] = n`: run `j` is
    /// `starts[j]..starts[j + 1]`.
    pub starts: DeviceBuffer<u32>,
}

impl Default for RleScratch {
    fn default() -> Self {
        RleScratch {
            block_heads: DeviceBuffer::new(0),
            block_offsets: DeviceBuffer::new(0),
            runs: DeviceBuffer::new(1),
            unique: DeviceBuffer::new(0),
            starts: DeviceBuffer::new(0),
        }
    }
}

/// Run-length encode `input[..n]` (CUB `DeviceRunLengthEncode::Encode`)
/// into caller-owned scratch, so hot loops reuse one buffer set across
/// launches. Returns the run count; run `j` repeats `scratch.unique[j]`
/// from input index `scratch.starts[j]` up to `scratch.starts[j + 1]` (the
/// index set `I` of Algorithm 4). The buffers are over-sized: only the
/// first `num_runs` entries (and the sentinel after them) are meaningful.
///
/// A block walk in the shape of [`exclusive_scan_u32_into`]: one lane per
/// [`BLOCK`] counts its tile's run heads, the counts are scanned, and each
/// lane walks its tile again writing its runs from its scanned offset. An
/// input of at most one block needs neither count nor scan: one launch.
// lint: hot-path
pub fn run_length_encode_u32_into(
    dev: &Device,
    input: &DeviceBuffer<u32>,
    n: usize,
    scratch: &mut RleScratch,
) -> usize {
    assert!(input.len() >= n);
    if n == 0 {
        return 0;
    }
    let nb = n.div_ceil(BLOCK);
    scratch.block_heads.grow_to(nb);
    scratch.block_offsets.grow_to(nb);
    scratch.unique.grow_to(n);
    scratch.starts.grow_to(n + 1);
    let RleScratch {
        block_heads,
        block_offsets,
        runs,
        unique,
        starts,
    } = &*scratch;
    if nb > 1 {
        launch!(dev, "rle_block_heads", nb, |lane| {
            let b = lane.tid;
            let (start, end) = (b * BLOCK, ((b + 1) * BLOCK).min(n));
            let mut prev = (start > 0).then(|| input.get(lane, start - 1));
            let mut heads = 0u32;
            for i in start..end {
                let v = input.get(lane, i);
                heads += u32::from(prev != Some(v));
                prev = Some(v);
            }
            block_heads.set(lane, b, heads);
        });
        exclusive_scan_u32_into(dev, block_heads, nb, block_offsets);
    }
    launch!(dev, "rle_block_runs", nb, |lane| {
        let b = lane.tid;
        let (start, end) = (b * BLOCK, ((b + 1) * BLOCK).min(n));
        let mut r = if nb > 1 { block_offsets.get(lane, b) } else { 0 };
        let mut prev = (start > 0).then(|| input.get(lane, start - 1));
        for i in start..end {
            let v = input.get(lane, i);
            if prev != Some(v) {
                unique.set(lane, r as usize, v);
                starts.set(lane, r as usize, i as u32);
                r += 1;
            }
            prev = Some(v);
        }
        if b + 1 == nb {
            starts.set(lane, r as usize, n as u32);
            runs.set(lane, 0, r);
        }
    });
    scratch.runs.host_read(0) as usize
}

// ----------------------------------------------------------------------
// Stream compaction
// ----------------------------------------------------------------------

/// Keep the pairs `(keys[i], vals[i])` where `flags[i] != 0` (CUB
/// `DeviceSelect::Flagged` over a key-value stream) into exactly-sized
/// outputs: one scan of the mask, one scatter launch moving both streams.
pub fn compact_pairs_flagged<K: DevicePod, V: DevicePod>(
    dev: &Device,
    keys: &DeviceBuffer<K>,
    vals: &DeviceBuffer<V>,
    flags: &DeviceBuffer<u32>,
) -> (DeviceBuffer<K>, DeviceBuffer<V>) {
    let n = flags.len();
    assert!(keys.len() == n && vals.len() == n);
    let (positions, kept) = exclusive_scan_u32(dev, flags);
    let out = (DeviceBuffer::new(kept as usize), DeviceBuffer::new(kept as usize));
    scatter_flagged_pairs(dev, (keys, vals), flags, n, &positions, (&out.0, &out.1));
    out
}

/// [`compact_pairs_flagged`] over the first `n` pairs of `src` into
/// caller-owned buffers: `positions` receives the mask's scan and `out`
/// must have room for every kept pair (both may be over-sized). Returns
/// the kept count.
// lint: hot-path
pub fn compact_pairs_flagged_into<K: DevicePod, V: DevicePod>(
    dev: &Device,
    src: (&DeviceBuffer<K>, &DeviceBuffer<V>),
    flags: &DeviceBuffer<u32>,
    n: usize,
    positions: &DeviceBuffer<u32>,
    out: (&DeviceBuffer<K>, &DeviceBuffer<V>),
) -> usize {
    let kept = exclusive_scan_u32_into(dev, flags, n, positions);
    scatter_flagged_pairs(dev, src, flags, n, positions, out);
    kept as usize
}

/// The scatter of both compactions: each flagged pair moves to its scanned
/// position.
fn scatter_flagged_pairs<K: DevicePod, V: DevicePod>(
    dev: &Device,
    (keys, vals): (&DeviceBuffer<K>, &DeviceBuffer<V>),
    flags: &DeviceBuffer<u32>,
    n: usize,
    positions: &DeviceBuffer<u32>,
    (out_keys, out_vals): (&DeviceBuffer<K>, &DeviceBuffer<V>),
) {
    assert!(keys.len() >= n && vals.len() >= n && flags.len() >= n && positions.len() >= n);
    if n == 0 {
        return;
    }
    launch!(dev, "compact_scatter", n, |lane| {
        let i = lane.tid;
        if flags.get(lane, i) != 0 {
            let p = positions.get(lane, i) as usize;
            let k = keys.get(lane, i);
            out_keys.set(lane, p, k);
            let v = vals.get(lane, i);
            out_vals.set(lane, p, v);
        }
    });
}

// ----------------------------------------------------------------------
// Radix sort
// ----------------------------------------------------------------------

const RADIX_BITS: u32 = 8;
const RADIX: usize = 1 << RADIX_BITS;

/// Stable LSD radix sort of `(key, value)` pairs by all 64 key bits
/// (CUB `DeviceRadixSort::SortPairs`). Sorts in place.
pub fn radix_sort_pairs_u64(
    dev: &Device,
    keys: &mut DeviceBuffer<u64>,
    vals: &mut DeviceBuffer<u64>,
) {
    radix_sort_pairs_u64_masked(dev, keys, vals, u64::MAX);
}

/// [`radix_sort_pairs_u64`] over the key bits in `mask` only: every key
/// must agree with every other on the bits outside it (zero, say). A digit
/// pass runs only when its 8 bits meet the mask; any other digit has the
/// same value in every key, so its pass would be an identity permutation
/// and the result is bit-identical to the full sort. Like CUB, an input of
/// at most [`BLOCK`] pairs is sorted by one launch (`radix_sort_tile`).
pub fn radix_sort_pairs_u64_masked(
    dev: &Device,
    keys: &mut DeviceBuffer<u64>,
    vals: &mut DeviceBuffer<u64>,
    mask: u64,
) {
    assert_eq!(keys.len(), vals.len());
    let n = keys.len();
    debug_assert!(
        keys.as_slice().windows(2).all(|w| (w[0] ^ w[1]) & !mask == 0),
        "keys differ outside the sort mask {mask:#x}"
    );
    if n <= 1 || mask == 0 {
        return;
    }
    if n <= BLOCK {
        radix_sort_tile(dev, keys, vals, mask);
        return;
    }
    let nb = n.div_ceil(BLOCK);
    let mut other_k = DeviceBuffer::<u64>::new(n);
    let mut other_v = DeviceBuffer::<u64>::new(n);

    for shift in digit_shifts(mask) {
        radix_pass(
            dev,
            n,
            nb,
            shift,
            PassBufs {
                src_k: keys,
                src_v: vals,
                dst_k: &other_k,
                dst_v: &other_v,
            },
        );
        // The pass's output becomes `keys` / `vals`, so after any number
        // of passes the caller holds the sorted pairs.
        std::mem::swap(keys, &mut other_k);
        std::mem::swap(vals, &mut other_v);
    }
}

/// Sort a key-only buffer.
pub fn radix_sort_u64(dev: &Device, keys: &mut DeviceBuffer<u64>) {
    let mut dummy = DeviceBuffer::<u64>::new(keys.len());
    radix_sort_pairs_u64(dev, keys, &mut dummy);
}

/// The shifts of the 8-bit digits that meet `mask`, least significant
/// first.
fn digit_shifts(mask: u64) -> impl Iterator<Item = u32> {
    (0..u64::BITS)
        .step_by(RADIX_BITS as usize)
        .filter(move |&shift| (mask >> shift) & (RADIX as u64 - 1) != 0)
}

#[inline]
fn digit(key: u64, shift: u32) -> usize {
    ((key >> shift) as usize) & (RADIX - 1)
}

/// Sort at most [`BLOCK`] pairs in one one-lane launch, the analogue of
/// CUB's single-tile sort: each pair is loaded and stored once, and each
/// digit pass of `mask` is a lane-local histogram, digit scan and scatter
/// charged through `lane.work`.
fn radix_sort_tile(dev: &Device, keys: &DeviceBuffer<u64>, vals: &DeviceBuffer<u64>, mask: u64) {
    let n = keys.len();
    assert!(n <= BLOCK);
    launch!(dev, "radix_sort_tile", 1, |lane| {
        let mut tile = [[(0u64, 0u64); BLOCK]; 2];
        for (i, pair) in tile[0][..n].iter_mut().enumerate() {
            *pair = (keys.get(lane, i), vals.get(lane, i));
        }
        let mut cur = 0;
        for shift in digit_shifts(mask) {
            let [a, b] = &mut tile;
            let (src, dst) = if cur == 0 { (a, b) } else { (b, a) };
            let mut offset = [0u32; RADIX];
            for &(k, _) in &src[..n] {
                offset[digit(k, shift)] += 1;
            }
            let mut acc = 0;
            for o in offset.iter_mut() {
                let c = *o;
                *o = acc;
                acc += c;
            }
            for &(k, v) in &src[..n] {
                let d = digit(k, shift);
                dst[offset[d] as usize] = (k, v);
                offset[d] += 1;
            }
            lane.work((2 * n + RADIX) as u64);
            cur ^= 1;
        }
        for (i, &(k, v)) in tile[cur][..n].iter().enumerate() {
            keys.set(lane, i, k);
            vals.set(lane, i, v);
        }
    });
}

/// The ping-pong buffer set one radix pass reads from and scatters into.
#[derive(Clone, Copy)]
struct PassBufs<'a> {
    src_k: &'a DeviceBuffer<u64>,
    src_v: &'a DeviceBuffer<u64>,
    dst_k: &'a DeviceBuffer<u64>,
    dst_v: &'a DeviceBuffer<u64>,
}

fn radix_pass(dev: &Device, n: usize, nb: usize, shift: u32, bufs: PassBufs<'_>) {
    let PassBufs {
        src_k,
        src_v,
        dst_k,
        dst_v,
    } = bufs;
    // Column-major histogram: hist[d * nb + b] so that the exclusive scan
    // yields digit-major/block-minor global offsets (stable order).
    let hist = DeviceBuffer::<u32>::new(RADIX * nb);
    launch!(dev, "radix_hist", nb, |lane| {
        let b = lane.tid;
        let start = b * BLOCK;
        let end = (start + BLOCK).min(n);
        let mut local = [0u32; RADIX];
        for i in start..end {
            let d = digit(src_k.get(lane, i), shift);
            local[d] += 1;
            lane.work(1);
        }
        for (d, &c) in local.iter().enumerate() {
            if c > 0 {
                hist.set(lane, d * nb + b, c);
            }
        }
    });

    let (offsets, _) = exclusive_scan_u32(dev, &hist);

    launch!(dev, "radix_scatter", nb, |lane| {
        let b = lane.tid;
        let start = b * BLOCK;
        let end = (start + BLOCK).min(n);
        let mut local = [0u32; RADIX];
        let mut used = [false; RADIX];
        for i in start..end {
            let k = src_k.get(lane, i);
            let v = src_v.get(lane, i);
            let d = digit(k, shift);
            if !used[d] {
                local[d] = offsets.get(lane, d * nb + b);
                used[d] = true;
            }
            let pos = local[d] as usize;
            local[d] += 1;
            dst_k.set(lane, pos, k);
            dst_v.set(lane, pos, v);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;

    fn dev() -> Device {
        Device::new(DeviceConfig::deterministic())
    }

    fn pdev() -> Device {
        Device::new(DeviceConfig {
            host_parallelism: 4,
            ..DeviceConfig::default()
        })
    }

    #[test]
    fn scan_matches_reference_small_and_large() {
        let d = dev();
        for n in [0usize, 1, 5, BLOCK, BLOCK + 1, 4 * BLOCK + 17, 70_000] {
            let data: Vec<u32> = (0..n).map(|i| (i % 7) as u32 + 1).collect();
            let input = DeviceBuffer::from_slice(&data);
            let (out, total) = exclusive_scan_u32(&d, &input);
            let mut acc = 0u32;
            let mut expect = Vec::with_capacity(n);
            for &v in &data {
                expect.push(acc);
                acc += v;
            }
            assert_eq!(out.to_vec(), expect, "n={n}");
            assert_eq!(total, acc, "n={n}");
        }
    }

    /// The runs of `input[..n]` as `(unique, starts)`, read back from
    /// `scratch`; `starts` ends with its sentinel.
    fn rle(d: &Device, input: &DeviceBuffer<u32>, n: usize, scratch: &mut RleScratch) -> [Vec<u32>; 2] {
        let runs = run_length_encode_u32_into(d, input, n, scratch);
        let starts = if n == 0 { vec![] } else { scratch.starts.to_vec()[..=runs].to_vec() };
        [scratch.unique.to_vec()[..runs].to_vec(), starts]
    }

    #[test]
    fn rle_basic() {
        let d = dev();
        let input = DeviceBuffer::from_slice(&[3u32, 3, 3, 5, 7, 7, 9]);
        let [unique, starts] = rle(&d, &input, 7, &mut RleScratch::default());
        assert_eq!(unique, vec![3, 5, 7, 9]);
        assert_eq!(starts, vec![0, 3, 4, 6, 7]);
        // At most one block: one launch, no count and no scan.
        assert_eq!(d.metrics().launches, 1);
    }

    #[test]
    fn rle_single_run_and_empty() {
        let d = dev();
        let mut scratch = RleScratch::default();
        let input = DeviceBuffer::from_slice(&[8u32; 1000]);
        let [unique, starts] = rle(&d, &input, 1000, &mut scratch);
        assert_eq!((unique, starts), (vec![8], vec![0, 1000]));
        // Four blocks: head counts, their one-launch scan, the run walk.
        assert_eq!(d.metrics().launches, 3);
        assert_eq!(run_length_encode_u32_into(&d, &DeviceBuffer::new(0), 0, &mut scratch), 0);
    }

    #[test]
    fn compact_keeps_flagged() {
        let d = dev();
        let keys = DeviceBuffer::from_slice(&[10u64, 11, 12, 13, 14]);
        let vals = DeviceBuffer::from_slice(&[0u32, 1, 2, 3, 4]);
        let flags = DeviceBuffer::from_slice(&[1u32, 0, 1, 0, 1]);
        let (k, v) = compact_pairs_flagged(&d, &keys, &vals, &flags);
        assert_eq!((k.to_vec(), v.to_vec()), (vec![10, 12, 14], vec![0, 2, 4]));
        // One scan, one scatter for both streams.
        assert_eq!(d.metrics().launches, 2);
    }

    #[test]
    fn length_bounded_variants_ignore_scratch_tails() {
        let d = dev();
        // Oversized buffers with garbage tails; only the first n count.
        let keys = DeviceBuffer::from_slice(&[10u64, 11, 12, 13, 99, 99]);
        let vals = DeviceBuffer::from_slice(&[5u32, 6, 7, 8, 9, 9]);
        let flags = DeviceBuffer::from_slice(&[0u32, 1, 1, 0, 1, 1]);
        let positions = DeviceBuffer::<u32>::new(6);
        let n = 4;
        let (out_k, out_v) = (DeviceBuffer::<u64>::new(6), DeviceBuffer::<u32>::new(6));
        let kept = compact_pairs_flagged_into(&d, (&keys, &vals), &flags, n, &positions, (&out_k, &out_v));
        assert_eq!(kept, 2);
        assert_eq!(&positions.to_vec()[..n], &[0, 0, 1, 2]);
        assert_eq!(&out_k.to_vec()[..kept], &[11, 12]);
        assert_eq!(&out_v.to_vec()[..kept], &[6, 7]);
        // Bounded RLE stops at n.
        let runs = DeviceBuffer::from_slice(&[3u32, 3, 4, 4, 7, 7]);
        let mut scratch = RleScratch::default();
        let [unique, starts] = rle(&d, &runs, 4, &mut scratch);
        assert_eq!((unique, starts), (vec![3, 4], vec![0, 2, 4]));
        assert_eq!(run_length_encode_u32_into(&d, &runs, 0, &mut scratch), 0);
    }

    /// One scratch reused across shrinking inputs gives the runs a freshly
    /// allocated scratch gives, and both equal the host-computed runs.
    #[test]
    fn rle_scratch_reuse_matches_allocating_variant() {
        let d = dev();
        let mut scratch = RleScratch::default();
        // Shrinking inputs across calls: results must ignore stale tails
        // left in the over-sized reused buffers.
        for (data, expect) in [
            (
                vec![1u32, 1, 2, 2, 2, 9, 9, 4],
                [vec![1, 2, 9, 4], vec![0, 2, 5, 7, 8]],
            ),
            (vec![5u32, 5, 5, 5, 5], [vec![5], vec![0, 5]]),
            (vec![8u32, 7, 6], [vec![8, 7, 6], vec![0, 1, 2, 3]]),
        ] {
            let input = DeviceBuffer::from_slice(&data);
            let fresh = rle(&d, &input, data.len(), &mut RleScratch::default());
            assert_eq!(rle(&d, &input, data.len(), &mut scratch), fresh, "{data:?}");
            assert_eq!(fresh, expect, "{data:?}");
        }
        assert_eq!(
            run_length_encode_u32_into(&d, &DeviceBuffer::new(0), 0, &mut scratch),
            0
        );
    }

    #[test]
    fn radix_sort_random() {
        use rand::{Rng, SeedableRng};
        let d = dev();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
        for n in [0usize, 1, 2, 255, 256, 257, 10_000] {
            let data: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
            let mut keys = DeviceBuffer::from_slice(&data);
            let mut vals = DeviceBuffer::from_slice(&data.iter().map(|k| k ^ 0xABCD).collect::<Vec<_>>());
            radix_sort_pairs_u64(&d, &mut keys, &mut vals);
            let mut expect = data.clone();
            expect.sort_unstable();
            assert_eq!(keys.to_vec(), expect, "n={n}");
            // Values travel with their keys.
            for (k, v) in keys.to_vec().into_iter().zip(vals.to_vec()) {
                assert_eq!(v, k ^ 0xABCD);
            }
        }
    }

    #[test]
    fn radix_sort_is_stable_for_equal_keys() {
        let d = dev();
        // Equal keys, distinguishable values in original order.
        let keys_in: Vec<u64> = vec![5, 1, 5, 1, 5, 1, 5, 1];
        let vals_in: Vec<u64> = (0..8).collect();
        let mut keys = DeviceBuffer::from_slice(&keys_in);
        let mut vals = DeviceBuffer::from_slice(&vals_in);
        radix_sort_pairs_u64(&d, &mut keys, &mut vals);
        assert_eq!(keys.to_vec(), vec![1, 1, 1, 1, 5, 5, 5, 5]);
        assert_eq!(vals.to_vec(), vec![1, 3, 5, 7, 0, 2, 4, 6]);
    }

    #[test]
    fn masked_sort_runs_only_the_digits_it_needs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        // Four digits of eight: the edge keys of 20 000 vertices.
        let mask = 0x7FFF_0000_7FFFu64;
        for (n, launches) in [(BLOCK, 1), (BLOCK + 1, 4 * 5), (4_000, 4 * 5)] {
            let data: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() & mask).collect();
            let d = dev();
            let mut keys = DeviceBuffer::from_slice(&data);
            let mut vals = DeviceBuffer::from_slice(&(0..n as u64).collect::<Vec<_>>());
            radix_sort_pairs_u64_masked(&d, &mut keys, &mut vals, mask);
            // One tile launch, or per pass a histogram, a three-launch
            // scan of its 256 · blocks counts and a scatter.
            assert_eq!(d.metrics().launches, launches, "n={n}");
            let mut expect: Vec<(u64, u64)> = data.iter().copied().zip(0..).collect();
            expect.sort(); // (key, input index): the stable order
            let got: Vec<(u64, u64)> = keys.to_vec().into_iter().zip(vals.to_vec()).collect();
            assert_eq!(got, expect, "n={n}");
        }
    }

    #[test]
    fn masked_sort_with_an_odd_pass_count_leaves_the_result_in_place() {
        let d = dev();
        // One digit: a single pass, so the output sits in the scratch
        // allocation the sort swapped into the caller's buffers.
        let data: Vec<u64> = (0..1_000u64).map(|i| (i * 37) % 251).collect();
        let mut keys = DeviceBuffer::from_slice(&data);
        let mut vals = DeviceBuffer::from_slice(&data);
        radix_sort_pairs_u64_masked(&d, &mut keys, &mut vals, 0xFF);
        let mut expect = data;
        expect.sort_unstable();
        assert_eq!(keys.to_vec(), expect);
        assert_eq!(vals.to_vec(), expect);
        // No digit at all: every key is equal, nothing launches.
        let d = dev();
        let mut keys = DeviceBuffer::from_slice(&[7u64 << 40; 300]);
        let mut vals = DeviceBuffer::from_slice(&(0..300u64).collect::<Vec<_>>());
        radix_sort_pairs_u64_masked(&d, &mut keys, &mut vals, 0);
        assert_eq!(d.metrics().launches, 0);
        assert_eq!(vals.to_vec(), (0..300u64).collect::<Vec<_>>());
    }

    #[test]
    fn radix_sort_parallel_pool_matches() {
        use rand::{Rng, SeedableRng};
        let d = pdev();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let data: Vec<u64> = (0..50_000).map(|_| rng.gen::<u64>()).collect();
        let mut keys = DeviceBuffer::from_slice(&data);
        radix_sort_u64(&d, &mut keys);
        let mut expect = data;
        expect.sort_unstable();
        assert_eq!(keys.to_vec(), expect);
    }

    #[test]
    fn primitives_advance_the_clock() {
        let d = dev();
        let before = d.elapsed();
        let input = DeviceBuffer::from_slice(&vec![1u32; 10_000]);
        let _ = exclusive_scan_u32(&d, &input);
        assert!(d.elapsed().secs() > before.secs());
    }

    #[test]
    fn scan_cost_scales_sublinearly_with_sms() {
        let d1 = Device::new(DeviceConfig::deterministic().with_sms(1));
        let d32 = Device::new(DeviceConfig::deterministic().with_sms(32));
        let data = vec![1u32; 1 << 18];
        let (_, _) = exclusive_scan_u32(&d1, &DeviceBuffer::from_slice(&data));
        let (_, _) = exclusive_scan_u32(&d32, &DeviceBuffer::from_slice(&data));
        assert!(d1.elapsed().secs() > 2.0 * d32.elapsed().secs());
    }
}
