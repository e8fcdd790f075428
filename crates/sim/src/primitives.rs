//! Device-wide parallel primitives, mirroring the NVIDIA CUB operations the
//! paper builds GPMA+ from (Section 5.2): sort (tile sort and merge
//! passes, or radix digit passes), exclusive scan, run-length encoding and
//! stream compaction. (The one reduction that runs,
//! the analytics' `f64` sum, lives beside its callers in `gpma-analytics`.)
//!
//! Every primitive is implemented as a sequence of real kernel launches on
//! the simulated device, so it both computes the correct result and charges
//! the cost model a linear-in-`n / K` amount of work like its CUB
//! counterpart.

use crate::buffer::{DeviceBuffer, DevicePod};
use crate::device::{Device, Lane, LaneMode};
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
// Sort
// ----------------------------------------------------------------------

const RADIX_BITS: u32 = 8;
const RADIX: usize = 1 << RADIX_BITS;

/// The ping-pong pair a sort of more than one [`BLOCK`] moves its pairs
/// through. Capacities only grow ([`DeviceBuffer::grow_to`]), so a steady
/// stream of equally sized sorts allocates the pair once; a sort of at
/// most one block never touches it.
#[derive(Debug)]
pub struct SortScratch {
    keys: DeviceBuffer<u64>,
    vals: DeviceBuffer<u64>,
}

impl Default for SortScratch {
    fn default() -> Self {
        SortScratch {
            keys: DeviceBuffer::new(0),
            vals: DeviceBuffer::new(0),
        }
    }
}

/// Stable sort of `(key, value)` pairs by all 64 key bits (CUB
/// `DeviceRadixSort::SortPairs`). Sorts in place.
pub fn radix_sort_pairs_u64(
    dev: &Device,
    keys: &mut DeviceBuffer<u64>,
    vals: &mut DeviceBuffer<u64>,
) {
    radix_sort_pairs_u64_masked(dev, keys, vals, u64::MAX);
}

/// [`radix_sort_pairs_u64`] over the key bits in `mask` only: every key
/// must agree with every other on the bits outside it (zero, say). Sorts
/// in place through a scratch of its own ([`sort_pairs_u64_into`]).
pub fn radix_sort_pairs_u64_masked(
    dev: &Device,
    keys: &mut DeviceBuffer<u64>,
    vals: &mut DeviceBuffer<u64>,
    mask: u64,
) {
    sort_pairs_u64_into(dev, keys, vals, mask, &mut SortScratch::default());
}

/// Sort a key-only buffer.
pub fn radix_sort_u64(dev: &Device, keys: &mut DeviceBuffer<u64>) {
    let mut dummy = DeviceBuffer::<u64>::new(keys.len());
    radix_sort_pairs_u64(dev, keys, &mut dummy);
}

/// The one sort behind the entry points above: a stable sort of the
/// `(key, value)` pairs by the key bits in `mask`, every key agreeing with
/// every other outside it. Only the 8-bit digits that meet the mask can
/// differ, so a digit pass runs only for those, and the result is
/// bit-identical to the full sort.
///
/// The sort first orders each [`BLOCK`]-pair tile in one launch
/// (`radix_sort_tile`, the whole sort up to one block). Past one tile it
/// then runs ⌈log₂ tiles⌉ stable pairwise merge passes, one launch each
/// (`sort_merge_pass`). A merge pass moves each pair once, while a digit
/// pass reads it in its histogram, again in its scatter, and scans 256
/// counts per tile over three launches. So the merges run while their
/// pass count is at most twice the mask's digit count; above that
/// crossover the sort is the mask's digit passes (`radix_hist`, a scan of
/// the counts, `radix_scatter`), which CUB's `DeviceRadixSort` runs.
///
/// The sorted pairs are left in `keys` and `vals`. The digit passes
/// ping-pong by exchanging the caller's buffers with the scratch's, so
/// after an odd count of them the caller holds the scratch's former pair,
/// which may be longer than the input: only the first `n` slots are the
/// sorted pairs.
// lint: hot-path
pub fn sort_pairs_u64_into(
    dev: &Device,
    keys: &mut DeviceBuffer<u64>,
    vals: &mut DeviceBuffer<u64>,
    mask: u64,
    scratch: &mut SortScratch,
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
    let tiles = n.div_ceil(BLOCK);
    if tiles > 1 {
        scratch.keys.grow_to(n);
        scratch.vals.grow_to(n);
    }
    let merge_passes = tiles.next_power_of_two().trailing_zeros();
    if merge_passes <= 2 * digit_shifts(mask).count() as u32 {
        sort_by_merges(dev, n, mask, merge_passes, (keys, vals), scratch);
    } else {
        sort_by_digits(dev, n, mask, keys, vals, scratch);
    }
}

/// A key buffer and its value buffer.
type Pairs<'a> = (&'a DeviceBuffer<u64>, &'a DeviceBuffer<u64>);

/// The tile sort, then `passes` merge passes. The tiles land in whichever
/// pair makes the last merge pass write the caller's.
fn sort_by_merges(
    dev: &Device,
    n: usize,
    mask: u64,
    passes: u32,
    caller: Pairs<'_>,
    scratch: &SortScratch,
) {
    let bufs = [caller, (&scratch.keys, &scratch.vals)];
    let mut cur = passes as usize % 2;
    sort_tiles(dev, n, mask, caller, bufs[cur]);
    for pass in 0..passes {
        merge_runs(dev, n, BLOCK << pass, bufs[cur], bufs[cur ^ 1]);
        cur ^= 1;
    }
}

/// The mask's digit passes, least significant first, each exchanging the
/// caller's pair with the scratch's.
fn sort_by_digits(
    dev: &Device,
    n: usize,
    mask: u64,
    keys: &mut DeviceBuffer<u64>,
    vals: &mut DeviceBuffer<u64>,
    scratch: &mut SortScratch,
) {
    for shift in digit_shifts(mask) {
        radix_pass(dev, n, shift, (keys, vals), (&scratch.keys, &scratch.vals));
        // The pass's output becomes `keys` / `vals`, so after any number
        // of passes the caller holds the sorted pairs.
        std::mem::swap(keys, &mut scratch.keys);
        std::mem::swap(vals, &mut scratch.vals);
    }
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

/// Sort each [`BLOCK`]-pair tile of `src` into the same slots of `dst`
/// (which may be `src`), one lane per tile, the analogue of CUB's
/// single-tile sort: each pair is loaded and stored once, and each digit
/// pass of `mask` is a lane-local histogram, digit scan and scatter
/// charged through `lane.work`.
fn sort_tiles(
    dev: &Device,
    n: usize,
    mask: u64,
    (src_k, src_v): Pairs<'_>,
    (dst_k, dst_v): Pairs<'_>,
) {
    launch!(dev, "radix_sort_tile", n.div_ceil(BLOCK), |lane| {
        let start = lane.tid * BLOCK;
        let len = (n - start).min(BLOCK);
        let mut tile = [[(0u64, 0u64); BLOCK]; 2];
        for (i, pair) in tile[0][..len].iter_mut().enumerate() {
            *pair = (src_k.get(lane, start + i), src_v.get(lane, start + i));
        }
        let mut cur = 0;
        for shift in digit_shifts(mask) {
            let [a, b] = &mut tile;
            let (src, dst) = if cur == 0 { (a, b) } else { (b, a) };
            let mut offset = [0u32; RADIX];
            for &(k, _) in &src[..len] {
                offset[digit(k, shift)] += 1;
            }
            let mut acc = 0;
            for o in offset.iter_mut() {
                let c = *o;
                *o = acc;
                acc += c;
            }
            for &(k, v) in &src[..len] {
                let d = digit(k, shift);
                dst[offset[d] as usize] = (k, v);
                offset[d] += 1;
            }
            lane.work((2 * len + RADIX) as u64);
            cur ^= 1;
        }
        for (i, &(k, v)) in tile[cur][..len].iter().enumerate() {
            dst_k.set(lane, start + i, k);
            dst_v.set(lane, start + i, v);
        }
    });
}

/// One stable merge pass: the sorted runs of `width` pairs in `src` merge
/// two by two into `dst`, the left run's pair first on equal keys. One
/// lane writes each [`BLOCK`]-output chunk (`width` is a multiple of it,
/// so a chunk draws on one pair of runs): a merge-path co-rank search
/// finds where the chunk starts in each run, then the lane merges
/// sequentially from there. No lane waits on another.
fn merge_runs(
    dev: &Device,
    n: usize,
    width: usize,
    (src_k, src_v): Pairs<'_>,
    (dst_k, dst_v): Pairs<'_>,
) {
    launch!(dev, "sort_merge_pass", n.div_ceil(BLOCK), |lane| {
        let out = lane.tid * BLOCK..((lane.tid + 1) * BLOCK).min(n);
        let lo = out.start / (2 * width) * (2 * width);
        let (mid, hi) = ((lo + width).min(n), (lo + 2 * width).min(n));
        let (mut a, mut b) = co_rank(lane, src_k, lo, mid, hi, out.start - lo);
        // The head key of each run, read once as the run advances.
        let mut ka = (a < mid).then(|| src_k.get(lane, a));
        let mut kb = (b < hi).then(|| src_k.get(lane, b));
        for o in out {
            let take_left = match (ka, kb) {
                (Some(x), Some(y)) => x <= y,
                (x, _) => x.is_some(),
            };
            let (head, next, end) = if take_left {
                (&mut ka, &mut a, mid)
            } else {
                (&mut kb, &mut b, hi)
            };
            let k = head.expect("a chunk never outruns its two runs");
            let v = src_v.get(lane, *next);
            *next += 1;
            *head = (*next < end).then(|| src_k.get(lane, *next));
            dst_k.set(lane, o, k);
            dst_v.set(lane, o, v);
            lane.work(1);
        }
    });
}

/// Merge-path co-rank: how the first `diag` outputs of the stable merge of
/// the runs `keys[lo..mid]` and `keys[mid..hi]` split between them,
/// returned as each run's next index. A binary search over the diagonal:
/// left pair `i` precedes right pair `j` exactly when its key is not
/// greater.
#[inline]
fn co_rank<M: LaneMode>(
    lane: &mut Lane<'_, M>,
    keys: &DeviceBuffer<u64>,
    lo: usize,
    mid: usize,
    hi: usize,
    diag: usize,
) -> (usize, usize) {
    let (mut below, mut above) = (diag.saturating_sub(hi - mid), diag.min(mid - lo));
    while below < above {
        let i = (below + above) / 2;
        if keys.get(lane, lo + i) <= keys.get(lane, mid + diag - i - 1) {
            below = i + 1;
        } else {
            above = i;
        }
    }
    (lo + below, mid + diag - below)
}

/// One digit pass over the first `n` pairs of `src` into `dst`: a
/// per-tile histogram, a scan of the counts, a per-tile scatter.
fn radix_pass(
    dev: &Device,
    n: usize,
    shift: u32,
    (src_k, src_v): Pairs<'_>,
    (dst_k, dst_v): Pairs<'_>,
) {
    let nb = n.div_ceil(BLOCK);
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

    /// Sort `keys` with their input indices as values on `d`; returns the
    /// sorted pairs and the launches the sort took.
    fn sort_indexed(d: &Device, keys: &[u64], mask: u64) -> (Vec<(u64, u64)>, u64) {
        let before = d.metrics().launches;
        let mut k = DeviceBuffer::from_slice(keys);
        let mut v = DeviceBuffer::from_slice(&(0..keys.len() as u64).collect::<Vec<_>>());
        radix_sort_pairs_u64_masked(d, &mut k, &mut v, mask);
        let got = k.to_vec().into_iter().zip(v.to_vec()).collect();
        (got, d.metrics().launches - before)
    }

    /// `(key, input index)` in the stable order.
    fn stable_order(keys: &[u64]) -> Vec<(u64, u64)> {
        let mut expect: Vec<(u64, u64)> = keys.iter().copied().zip(0..).collect();
        expect.sort();
        expect
    }

    #[test]
    fn sort_launches_follow_the_path_rule() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        // Four digits of eight: the edge keys of 20 000 vertices, so the
        // merges run while there are at most eight passes of them.
        let mask = 0x7FFF_0000_7FFFu64;
        for (n, launches) in [(2, 1), (BLOCK, 1), (BLOCK + 1, 2), (2 * BLOCK, 2), (2 * BLOCK + 1, 3), (10_000, 7)] {
            let data: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() & mask).collect();
            let (got, took) = sort_indexed(&dev(), &data, mask);
            // One tile launch, then one launch per merge pass.
            assert_eq!(took, launches, "n={n}");
            assert_eq!(got, stable_order(&data), "n={n}");
        }
    }

    #[test]
    fn masked_sort_runs_only_the_digits_it_needs() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        // Above the crossover: 65 537 keys need nine merge passes, more
        // than twice four digits; 1 025 keys need three, more than twice
        // one. Per digit pass a histogram, a scan of its 256 · blocks
        // counts (five launches over 257 blocks, three over five) and a
        // scatter.
        for (mask, n, launches) in [(0x7FFF_0000_7FFFu64, 65_537, 4 * 7), (0xFF00, 1_025, 5)] {
            let data: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() & mask).collect();
            let (got, took) = sort_indexed(&dev(), &data, mask);
            assert_eq!(took, launches, "n={n}");
            assert_eq!(got, stable_order(&data), "n={n}");
        }
    }

    #[test]
    fn masked_sort_with_an_odd_pass_count_leaves_the_result_in_place() {
        let d = dev();
        // One digit past its crossover: a single pass, so the output sits
        // in the scratch allocation the sort swapped into the caller's
        // buffers.
        let data: Vec<u64> = (0..2_000u64).map(|i| (i * 37) % 251).collect();
        let mut keys = DeviceBuffer::from_slice(&data);
        let mut vals = DeviceBuffer::from_slice(&data);
        radix_sort_pairs_u64_masked(&d, &mut keys, &mut vals, 0xFF);
        assert_eq!(d.metrics().launches, 5);
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

    /// A reused scratch sorts as a fresh one does, whatever it held, and a
    /// steady stream of equal sorts grows it once.
    #[test]
    fn sort_scratch_is_reused() {
        let d = dev();
        let mut scratch = SortScratch::default();
        for n in [700usize, 300, 700, 700] {
            let data: Vec<u64> = (0..n as u64).map(|i| (i * 7919) % 113).collect();
            let mut keys = DeviceBuffer::from_slice(&data);
            let mut vals = DeviceBuffer::from_slice(&(0..n as u64).collect::<Vec<_>>());
            sort_pairs_u64_into(&d, &mut keys, &mut vals, 0xFF, &mut scratch);
            let got: Vec<(u64, u64)> = keys.to_vec().into_iter().zip(vals.to_vec()).collect();
            assert_eq!(got, stable_order(&data), "n={n}");
            assert_eq!(scratch.keys.len(), 700, "grown once, never shrunk");
        }
    }

    /// Sort `keys` (with their input indices as values) by the merges and
    /// by the digit passes, each through a fresh scratch; returns both.
    fn both_paths(d: &Device, keys: &[u64], mask: u64) -> [Vec<(u64, u64)>; 2] {
        let n = keys.len();
        let idx: Vec<u64> = (0..n as u64).collect();
        std::array::from_fn(|path| {
            let (mut k, mut v) = (DeviceBuffer::from_slice(keys), DeviceBuffer::from_slice(&idx));
            let mut scratch = SortScratch::default();
            scratch.keys.grow_to(n);
            scratch.vals.grow_to(n);
            if path == 0 {
                let passes = n.div_ceil(BLOCK).next_power_of_two().trailing_zeros();
                sort_by_merges(d, n, mask, passes, (&k, &v), &scratch);
            } else {
                sort_by_digits(d, n, mask, &mut k, &mut v, &mut scratch);
            }
            k.to_vec().into_iter().zip(v.to_vec()).take(n).collect()
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The merges and the digit passes are both stable, so they agree
        /// pair for pair, on either side of every mask's crossover (one
        /// digit crosses at 1 024 keys, two at 4 096), over ragged last
        /// tiles, all-equal keys, a few distinct keys and sparse masks.
        #[test]
        fn merge_passes_are_bit_identical_to_digit_passes(
            seed in proptest::prelude::any::<u64>(),
            n in BLOCK + 1..4_400usize,
            shape in 0..4u8,
            mask in 0..4usize,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            // All eight digits, four (edge keys), one, and a sparse two.
            let mask = [u64::MAX, 0x7FFF_0000_7FFF, 0xFF_0000_0000, 0x0300_0000_0001][mask];
            let keys: Vec<u64> = (0..n)
                .map(|_| match shape {
                    0 => rng.gen::<u64>(),
                    1 => 0x5A5A_5A5A_5A5A_5A5A,
                    2 => rng.gen_range(0..6u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    _ => rng.gen::<u64>() & rng.gen::<u64>() & rng.gen::<u64>(),
                } & mask)
                .collect();
            let expect = stable_order(&keys);
            for d in [dev(), pdev()] {
                let [merged, digits] = both_paths(&d, &keys, mask);
                proptest::prop_assert_eq!(&merged, &expect);
                proptest::prop_assert_eq!(&digits, &expect);
                proptest::prop_assert_eq!(sort_indexed(&d, &keys, mask).0, expect.clone());
            }
        }
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
