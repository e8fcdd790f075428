//! Golden simulated counts: the cost model's totals for one fixed
//! build → update → analytics sequence, snapshotted twice. The *store*
//! totals (after the build and the three slides) move only with the update
//! kernels or the cost model; the *whole-sequence* totals add the view
//! build and the three device analytics. They were re-recorded when the
//! analytics kernels stopped loading weights and PageRank's iteration was
//! fused (341 → 324 launches, cycles −4.6 %, atomics and conflicts
//! unmoved), and last when device PageRank turned from an atomic push
//! scatter per iteration into a pull over an in-edge index counting-sorted
//! once per call. Benchmark device `[324, 1_916_574, 3_048_288, 215_198,
//! 8_104]` → `[319, 1_865_961, 3_069_252, 55_198, 7_976]`, deterministic
//! `[324, 1_916_225, 3_044_628, 215_198, 8_010]` → `[319, 1_858_891,
//! 2_984_579, 55_198, 7_954]`: ten per-iteration scatters (20 000 CAS
//! each) became two index passes (20 000 atomic adds each), and the ten
//! `pr_spmv` + `pr_update` pairs became ten `pr_pull` launches beside the
//! index build's five.
//!
//! A third set pins the small-launch path on its own: eight 256-update
//! slides, where a launch is one to four warps, the always-sampled warp 0
//! is a quarter to all of it and many launches are a single lane
//! (recorded before one-lane warps stopped being traced, unchanged after).
//!
//! The store half and the small-batch set were last re-recorded when the
//! batch sort started running only the digit passes an edge key of `NV`
//! vertices can set (four of eight here) and sorting a batch of at most
//! one block in a single launch. Store, benchmark device `[230, 1_349_670,
//! 2_312_578, 11_200, 7_944]` → `[170, 1_041_258, 2_215_546, 11_200,
//! 7_944]`, deterministic `[230, 1_349_656, 2_312_476, 11_200, 7_940]` →
//! `[170, 1_041_244, 2_215_444, 11_200, 7_940]`: three 1 000-insertion
//! sorts lost four passes of five launches each. Small batches, benchmark
//! `[440, 2_589_030, 4_588_468, 4_054, 2_934]` → `[256, 1_662_118,
//! 4_515_258, 4_054, 2_934]`, deterministic `[440, 2_589_068, 4_588_964,
//! 4_054, 2_934]` → `[256, 1_662_156, 4_515_754, 4_054, 2_934]`: each
//! 128-insertion sort is one launch instead of 24. Atomics and conflicts
//! did not move, and the analytics half (`analytics_half`) is asserted
//! unchanged: the sort's output is bit-identical, so every analytics
//! launch sees the same store, and the whole-sequence totals (319 → 259
//! launches) moved by exactly the store's difference.
//!
//! They were re-recorded again when GPMA+'s warp/block tier became one
//! launch per level (`tryinsert_small` merges, decides, writes back only
//! the slots that change and marks its updates; `tryinsert_count` and
//! `mark_consumed` stay for the device tier only) and the level loop
//! started stopping, without a keep-mask scan, at the level that consumes
//! the batch. Store, benchmark device `[170, 1_041_258, 2_215_546, 11_200,
//! 7_944]` → `[155, 954_873, 2_079_991, 11_200, 7_944]`, deterministic
//! `[170, 1_041_244, 2_215_444, 11_200, 7_940]` → `[155, 954_836,
//! 2_079_599, 11_200, 7_940]`: five launches fewer per slide. Small
//! batches, benchmark `[256, 1_662_118, 4_515_258, 4_054, 2_934]` → `[232,
//! 1_537_950, 4_465_888, 4_054, 2_934]`, deterministic `[256, 1_662_156,
//! 4_515_754, 4_054, 2_934]` → `[232, 1_537_931, 4_465_724, 4_054,
//! 2_934]`: three launches fewer per slide. Atomics and conflicts did not
//! move (each accepted segment still makes one length and one counter
//! atomic), and the analytics half is unchanged: the slot layout after
//! every batch is bit-identical (`gpma_plus` tests hold it to the kept
//! three-launch tier).
//!
//! They were re-recorded again when GPMA+ lost its op-code stream: with
//! deletions only ever tombstoned, every update that reaches the merges is
//! an insertion, so `gather_payload`, `compact_promote` and
//! `slice_updates` stopped moving a four-byte op per update and the merges
//! stopped reading one. Store, benchmark device `[155, 954_873, 2_079_991,
//! 11_200, 7_944]` → `[155, 954_622, 2_077_040, 11_200, 7_944]`,
//! deterministic `[155, 954_836, 2_079_599, 11_200, 7_940]` → `[155,
//! 954_585, 2_076_652, 11_200, 7_940]`. Small batches, benchmark `[232,
//! 1_537_950, 4_465_888, 4_054, 2_934]` → `[232, 1_537_922, 4_465_506,
//! 4_054, 2_934]`, deterministic `[232, 1_537_931, 4_465_724, 4_054, 2_934]`
//! → `[232, 1_537_906, 4_465_370, 4_054, 2_934]`. Launches, atomics and
//! conflicts did not move, and neither did the analytics half: the slot
//! layout after every batch is bit-identical.
//!
//! They were re-recorded again when the batch path shed launches without
//! shedding work: the sort carries the weights (`gather_payload` went),
//! the run-length encoding is one block walk (one launch up to one block,
//! three above it, where it was four plus a scan), and the parallel merge
//! that the post-batch rebuild runs compacts keys and values under one
//! scan per mask. Store, benchmark device `[155, 954_622, 2_077_040,
//! 11_200, 7_944]` → `[131, 817_447, 1_872_628, 11_200, 7_944]`,
//! deterministic `[155, 954_585, 2_076_652, 11_200, 7_940]` → `[131,
//! 817_406, 1_872_195, 11_200, 7_940]`: eight launches fewer per slide.
//! Small batches, benchmark `[232, 1_537_922, 4_465_506, 4_054, 2_934]` →
//! `[168, 1_172_548, 3_925_284, 4_054, 2_934]`, deterministic `[232,
//! 1_537_906, 4_465_370, 4_054, 2_934]` → `[168, 1_172_524, 3_925_106,
//! 4_054, 2_934]`: eight launches fewer per slide, four on the insertion
//! path and four in the rebuild. Atomics, conflicts and the analytics
//! half did not move: the slot layout after every batch is bit-identical.
//!
//! They were re-recorded in two steps. First the sort of more than
//! one block became a tile sort plus ⌈log₂ tiles⌉ merge passes (each
//! 1 000-insertion sort: three launches, not 20) and the parallel merge
//! staged and flagged its updates in one kernel. That step alone took the
//! store, benchmark device, from `[131, 817_447, 1_872_628, 11_200, 7_944]`
//! to `[80, 556_667, 1_804_913, 11_200, 7_944]` (deterministic `[131,
//! 817_406, 1_872_195, 11_200, 7_940]` → `[80, 556_626, 1_804_480, 11_200,
//! 7_940]`), left the small batches and the analytics half where they
//! were, and moved no atomic: both sorts are stable, so every slot layout
//! is bit-identical. Then the post-batch rebuild stopped running where it
//! lands on the array's own capacity. This store is 33-40 % dense, so
//! every slide had rebuilt it: store `[32, 194_499, 354_649, 11_180,
//! 7_925]`, deterministic `[32, 194_532, 355_101, 11_180, 7_918]`; small
//! batches `[168, 1_172_548, 3_925_284, 4_054, 2_934]` → `[40, 206_638,
//! 56_236, 4_044, 2_924]`, deterministic `[168, 1_172_524, 3_925_106,
//! 4_054, 2_934]` → `[40, 206_669, 56_614, 4_044, 2_924]`, five launches
//! per slide. Without the rebuild's re-spreading the slot layout differs,
//! so the analytics half moved with it: benchmark `[89, 516_291, 756_674,
//! 43_998, 32]` → `[89, 516_523, 759_551, 43_998, 0]`, deterministic
//! `[89, 509_235, 672_103, 43_998, 14]` → `[89, 509_394, 673_982, 43_998,
//! 20]`.
//!
//! They were re-recorded last in two more steps, each folding a launch of
//! every GPMA+ batch into a neighbour. First the batch's lazy deletions
//! became the first lanes of `locate_leaves` (one launch fewer per slide):
//! store, benchmark device `[32, 194_499, 354_649, 11_180, 7_925]` → `[29,
//! 179_485, 354_522, 11_180, 7_925]`, deterministic `[32, 194_532, 355_101,
//! 11_180, 7_918]` → `[29, 179_546, 355_288, 11_180, 7_918]`; small
//! batches `[40, 206_638, 56_236, 4_044, 2_924]` → `[32, 166_974, 60_306,
//! 4_044, 2_924]`, deterministic `[40, 206_669, 56_614, 4_044, 2_924]` →
//! `[32, 166_666, 56_614, 4_044, 2_924]`. The deletion lanes come first,
//! so the sampled warps of the old `lazy_delete` launch are the sampled
//! warps here and no atomic or conflict moved. The benchmark device's
//! small-batch transactions rose 7 %: its one sampled warp per launch is
//! now a deletion warp, whose scattered ratio is extrapolated over the
//! coalesced leaf searches; traced in full (deterministic) they did not
//! move. Then `tryinsert_small` launched over the level's updates and each
//! run's head lane found its own run, so the warp/block tier stopped
//! running the run-length encoding (one launch per level up to one block
//! of updates, three above it): store `[29, 179_485, 354_522, 11_180,
//! 7_925]` → `[20, 133_445, 342_423, 11_180, 7_898]`, deterministic `[29,
//! 179_546, 355_288, 11_180, 7_918]` → `[20, 133_540, 343_586, 11_180,
//! 7_892]`; small batches `[32, 166_974, 60_306, 4_044, 2_924]` → `[24,
//! 126_697, 57_399, 4_044, 2_924]`, deterministic `[32, 166_666, 56_614,
//! 4_044, 2_924]` → `[24, 126_373, 53_536, 4_044, 2_924]`. Each accepted
//! run still makes one length and one counter atomic, so atomics did not
//! move; the store's conflicts fell by 27 and 26 because a warp of update
//! lanes holds fewer run heads than a warp of one lane per run, so fewer
//! of them meet on the counter at one step. The small batches' conflicts
//! did not move. The analytics half did not move in either step: the slot layout after
//! every batch is bit-identical (`fused_deletions_lay_out_like_a_delete_launch_first`,
//! and the one-pass layout tests in `gpma_plus`).
//!
//! A change to how `gpma_sim::Device::launch` traces or counts a sampled warp
//! must leave every number here alone; a deliberate change to the kernels or
//! the cost model re-records the half it touches and says so.
//!
//! Both devices run lanes inline (`host_parallelism: 1`), so CAS retry
//! counts — the one scheduling-dependent input of the model — are fixed.
//! The graph comes from the vendored `rand` stub's `SmallRng`; swapping in
//! the real crate changes the stream and needs a re-record.

use gpma_analytics::{bfs_device, cc_device, pagerank_device, GpmaView, DAMPING};
use gpma_core::GpmaPlus;
use gpma_graph::datasets::pokec_like;
use gpma_graph::{Edge, UpdateBatch};
use gpma_sim::{Device, DeviceConfig, DeviceMetrics};

const NV: u32 = 2_000;
const INITIAL: usize = 20_000;
const SLIDE: usize = 1_000;

/// Bulk-build the store on the first 20 000 edges of a stream that has
/// `extra` more.
fn build(dev: &Device, extra: usize) -> (GpmaPlus, Vec<Edge>) {
    let edges = pokec_like(NV, INITIAL + extra, 7).edges;
    (GpmaPlus::build(dev, NV, &edges[..INITIAL]), edges)
}

/// `slides` mixed batches through the lazy-delete path: each inserts the
/// next `slide` edges of the stream and deletes the `slide` oldest.
fn slide_through(dev: &Device, g: &mut GpmaPlus, edges: &[Edge], slides: usize, slide: usize) {
    for i in 0..slides {
        let batch = UpdateBatch {
            insertions: edges[INITIAL + i * slide..INITIAL + (i + 1) * slide].to_vec(),
            deletions: edges[i * slide..(i + 1) * slide].to_vec(),
        };
        g.update_batch_lazy(dev, &batch);
    }
}

/// Build, three 2 000-update slides, then every device analytic once.
/// Returns the device's totals after the slides and at the end.
fn run(cfg: DeviceConfig) -> [[u64; 5]; 2] {
    let dev = Device::new(cfg);
    let (mut g, edges) = build(&dev, 3 * SLIDE);
    slide_through(&dev, &mut g, &edges, 3, SLIDE);
    let store = totals(&dev.metrics());
    let view = GpmaView::build(&dev, &g.storage);
    bfs_device(&dev, &view, 0);
    cc_device(&dev, &view);
    let pr = pagerank_device(&dev, &view, DAMPING, 0.0, 10);
    assert_eq!(pr.iterations, 10);
    [store, totals(&dev.metrics())]
}

/// What the view build and the three analytics added on top of the store:
/// pinned on its own, so a store-side re-record cannot hide a move here.
fn analytics_half(store: [u64; 5], all: [u64; 5]) -> [u64; 5] {
    std::array::from_fn(|i| all[i] - store[i])
}

fn totals(m: &DeviceMetrics) -> [u64; 5] {
    [
        m.launches,
        m.total_cycles,
        m.total_mem_transactions,
        m.total_atomic_ops,
        m.total_atomic_conflicts,
    ]
}

/// Eight 256-update slides. Returns their totals alone, without the build.
fn run_small_batches(cfg: DeviceConfig) -> [u64; 5] {
    let dev = Device::new(cfg);
    let (mut g, edges) = build(&dev, 8 * 128);
    dev.reset_clock();
    slide_through(&dev, &mut g, &edges, 8, 128);
    totals(&dev.metrics())
}

#[test]
fn benchmark_device_counts_are_pinned() {
    // What every benchmark device uses: inline lanes, every 16th warp traced.
    let [store, all] = run(DeviceConfig {
        host_parallelism: 1,
        ..Default::default()
    });
    assert_eq!(store, [20, 133_445, 342_423, 11_180, 7_898]);
    assert_eq!(analytics_half(store, all), [89, 516_523, 759_551, 43_998, 0]);
}

#[test]
fn small_batch_counts_are_pinned() {
    let benchmark = run_small_batches(DeviceConfig {
        host_parallelism: 1,
        ..Default::default()
    });
    assert_eq!(benchmark, [24, 126_697, 57_399, 4_044, 2_924]);
    let deterministic = run_small_batches(DeviceConfig::deterministic());
    assert_eq!(deterministic, [24, 126_373, 53_536, 4_044, 2_924]);
}

#[test]
fn deterministic_device_counts_are_pinned() {
    // Every warp traced.
    let [store, all] = run(DeviceConfig::deterministic());
    assert_eq!(store, [20, 133_540, 343_586, 11_180, 7_892]);
    assert_eq!(analytics_half(store, all), [89, 509_394, 673_982, 43_998, 20]);
}
