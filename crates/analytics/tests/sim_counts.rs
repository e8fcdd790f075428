//! Golden simulated counts: the cost model's totals for one fixed
//! build → update → analytics sequence, snapshotted twice. The *store*
//! totals (after the build and the three slides) move only with the update
//! kernels or the cost model; the *whole-sequence* totals add the view
//! build and the three device analytics, and were last re-recorded when
//! the analytics kernels stopped loading weights and PageRank's iteration
//! was fused (341 → 324 launches, cycles −4.6 %, atomics and conflicts
//! unmoved). A change to how `gpma_sim::Device::launch` traces or counts a
//! sampled warp must leave every number here alone; a deliberate change to
//! the kernels or the cost model re-records the half it touches and says so.
//!
//! Both devices run lanes inline (`host_parallelism: 1`), so CAS retry
//! counts — the one scheduling-dependent input of the model — are fixed.
//! The graph comes from the vendored `rand` stub's `SmallRng`; swapping in
//! the real crate changes the stream and needs a re-record.

use gpma_analytics::{bfs_device, cc_device, pagerank_device, GpmaView, DAMPING};
use gpma_core::GpmaPlus;
use gpma_graph::datasets::pokec_like;
use gpma_graph::UpdateBatch;
use gpma_sim::{Device, DeviceConfig, DeviceMetrics};

const NV: u32 = 2_000;
const INITIAL: usize = 20_000;
const SLIDE: usize = 1_000;

/// Build on the first 20 000 edges, slide three mixed batches through the
/// lazy-delete path, then run every device analytic once. Returns the
/// device's totals after the slides and at the end.
fn run(cfg: DeviceConfig) -> [[u64; 5]; 2] {
    let dev = Device::new(cfg);
    let stream = pokec_like(NV, INITIAL + 3 * SLIDE, 7);
    let edges = &stream.edges;
    let mut g = GpmaPlus::build(&dev, NV, &edges[..INITIAL]);
    for i in 0..3 {
        let batch = UpdateBatch {
            insertions: edges[INITIAL + i * SLIDE..INITIAL + (i + 1) * SLIDE].to_vec(),
            deletions: edges[i * SLIDE..(i + 1) * SLIDE].to_vec(),
        };
        g.update_batch_lazy(&dev, &batch);
    }
    let store = totals(&dev.metrics());
    let view = GpmaView::build(&dev, &g.storage);
    bfs_device(&dev, &view, 0);
    cc_device(&dev, &view);
    let pr = pagerank_device(&dev, &view, DAMPING, 0.0, 10);
    assert_eq!(pr.iterations, 10);
    [store, totals(&dev.metrics())]
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

#[test]
fn benchmark_device_counts_are_pinned() {
    // What every benchmark device uses: inline lanes, every 16th warp traced.
    let [store, all] = run(DeviceConfig {
        host_parallelism: 1,
        ..Default::default()
    });
    assert_eq!(store, [230, 1_349_670, 2_312_578, 11_200, 7_944]);
    assert_eq!(all, [324, 1_916_574, 3_048_288, 215_198, 8_104]);
}

#[test]
fn deterministic_device_counts_are_pinned() {
    // Every warp traced.
    let [store, all] = run(DeviceConfig::deterministic());
    assert_eq!(store, [230, 1_349_656, 2_312_476, 11_200, 7_940]);
    assert_eq!(all, [324, 1_916_225, 3_044_628, 215_198, 8_010]);
}
