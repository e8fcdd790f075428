//! End-to-end framework integration (§3): stream buffers, continuous
//! monitors, the asynchronous pipeline and ad-hoc queries working together
//! over generated datasets.

use gpma_analytics::{App, AppMonitor};
use gpma_core::framework::DynamicGraphSystem;
use gpma_graph::datasets::{generate, DatasetKind};
use gpma_graph::UpdateBatch;
use gpma_sim::{Device, DeviceConfig};

#[test]
fn framework_end_to_end_over_dataset_stream() {
    let stream = generate(DatasetKind::RedditLike, 0.0004, 3);
    let batch = stream.slide_batch_size(0.01);
    let dev = Device::new(DeviceConfig::deterministic());
    // Each slide carries `batch` insertions + `batch` deletions = one step.
    let mut sys =
        DynamicGraphSystem::new(dev, stream.num_vertices, stream.initial_edges(), batch * 2);
    let (monitor, reached) = AppMonitor::new(App::Bfs, || 0);
    sys.register_monitor(Box::new(monitor));

    let mut steps = 0usize;
    let mut total_update = 0.0;
    let mut total_analytics = 0.0;
    for b in stream.sliding(batch).take(4) {
        for report in sys.ingest(&b) {
            steps += 1;
            assert_eq!(report.batch_size, batch * 2); // insertions + deletions
            assert!(report.update_time.secs() > 0.0);
            assert_eq!(report.analytics.len(), 1);
            total_update += report.update_time.secs();
            total_analytics += report.analytics_time().secs();
            // With a small batch and a real analytic, PCIe must be hidden.
            assert!(report.schedule.transfers_hidden);
        }
    }
    assert_eq!(steps, 4);
    assert!(total_update > 0.0 && total_analytics > 0.0);
    // One BFS per step, each reaching at least its root.
    let reached: Vec<u64> = reached.try_iter().collect();
    assert_eq!(reached.len(), 4);
    assert!(reached.iter().all(|&r| r >= 1 && r <= stream.num_vertices as u64));

    // The active window is intact: |edges| stays |Es| (no duplicate streams
    // edges in the generated datasets).
    let live = sys.ad_hoc(|_, g| g.storage.num_edges());
    assert_eq!(live, stream.initial_size());
}

#[test]
fn monitors_observe_every_flush_in_order() {
    let stream = generate(DatasetKind::UniformRandom, 0.0002, 8);
    let dev = Device::new(DeviceConfig::deterministic());
    let batch = stream.slide_batch_size(0.02);
    let mut sys =
        DynamicGraphSystem::new(dev, stream.num_vertices, stream.initial_edges(), batch * 2);
    let (monitor, digests) = AppMonitor::new(App::Bfs, || 1);
    sys.register_monitor(Box::new(monitor));
    let mut flushes = 0;
    for b in stream.sliding(batch).take(3) {
        flushes += sys.ingest(&b).len();
        // The monitor ran on this flush, before the next one.
        assert_eq!(digests.try_iter().count(), 1);
    }
    assert_eq!(flushes, 3);
}

#[test]
fn oversized_ingest_produces_multiple_steps() {
    let stream = generate(DatasetKind::PokecLike, 0.0002, 2);
    let dev = Device::new(DeviceConfig::deterministic());
    let mut sys = DynamicGraphSystem::new(dev, stream.num_vertices, stream.initial_edges(), 50);
    // One big batch = several threshold flushes.
    let big = UpdateBatch {
        insertions: stream.edges[stream.initial_size()..stream.initial_size() + 120].to_vec(),
        deletions: vec![],
    };
    let reports = sys.ingest(&big);
    assert!(reports.len() >= 2, "expected multiple flushes, got {}", reports.len());
}
