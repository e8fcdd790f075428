//! Golden simulated counts: the cost model's totals for one fixed
//! build → update → analytics sequence, recorded before the launch
//! accounting in `gpma_sim::Device::launch` was rewritten. Any change to how
//! a sampled warp is traced or counted must leave every number here alone;
//! a deliberate cost-model change re-records them and says so.
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
/// lazy-delete path, then run every device analytic once.
fn run(cfg: DeviceConfig) -> DeviceMetrics {
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
    let view = GpmaView::build(&dev, &g.storage);
    bfs_device(&dev, &view, 0);
    cc_device(&dev, &view);
    let pr = pagerank_device(&dev, &view, DAMPING, 0.0, 10);
    assert_eq!(pr.iterations, 10);
    dev.metrics()
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
    let m = run(DeviceConfig {
        host_parallelism: 1,
        ..Default::default()
    });
    assert_eq!(totals(&m), [341, 2_009_292, 3_135_286, 215_198, 8_104]);
}

#[test]
fn deterministic_device_counts_are_pinned() {
    // Every warp traced.
    let m = run(DeviceConfig::deterministic());
    assert_eq!(totals(&m), [341, 2_008_918, 3_131_166, 215_198, 8_010]);
}
