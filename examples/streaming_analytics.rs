//! Streaming analytics on the concurrent service facade (`gpma-service`):
//! a Reddit-like influence stream is fed by multiple producer threads while
//! PageRank tracks every published epoch — pulled from the service's delta
//! ring — and ad-hoc queries read consistent epochs: the paper's §6.5
//! "concurrent streams and queries" scenario over the §3 framework.
//!
//! ```sh
//! cargo run --release --example streaming_analytics
//! ```

use gpma_analytics::pagerank_host;
use gpma_core::delta::apply_delta;
use gpma_core::framework::{DynamicGraphSystem, GraphSnapshot};
use gpma_graph::datasets::{generate, DatasetKind};
use gpma_service::{DeltaCatchUp, ServiceConfig, StreamingService};
use gpma_sim::{Device, DeviceConfig};

const PRODUCERS: usize = 4;

/// Continuous PageRank tracking (the paper's TunkRank motivation): keeps
/// its own image and advances it by every delta it pulls, so it ranks each
/// published epoch in order.
struct PageRankTracker {
    image: GraphSnapshot,
    epochs_analyzed: u64,
}

impl PageRankTracker {
    /// Pull every epoch published since the tracker's and rank each one,
    /// from scratch, on the image its delta produced.
    fn track(&mut self, svc: &StreamingService) {
        let DeltaCatchUp::Deltas(chain) = svc.deltas_since(self.image.epoch()) else {
            panic!("the delta ring holds every epoch of this stream");
        };
        for delta in &chain {
            self.image = apply_delta(&self.image, delta.blind());
            let pr = pagerank_host(&self.image, 0.85, 1e-3, 50);
            let top = pr
                .ranks
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap());
            if let Some((v, r)) = top {
                println!(
                    "  [tracker] epoch {:>3}: {} edges, top influencer v{} (rank {:.5})",
                    self.image.epoch(),
                    self.image.num_edges(),
                    v,
                    r
                );
            }
            self.epochs_analyzed += 1;
        }
    }
}

fn main() {
    // A small Reddit-like temporal influence stream (Table 2 at 1/2000).
    let stream = generate(DatasetKind::RedditLike, 0.0005, 7);
    println!(
        "stream: {} — {} vertices, {} edges ({} initial)",
        stream.name,
        stream.num_vertices,
        stream.len(),
        stream.initial_size()
    );

    // Assemble the framework system, then put the service facade over it.
    let batch_size = stream.slide_batch_size(0.01);
    let dev = Device::new(DeviceConfig::default());
    let sys = DynamicGraphSystem::new(dev, stream.num_vertices, stream.initial_edges(), batch_size);
    let svc = StreamingService::spawn(ServiceConfig::default(), sys);
    let mut tracker = PageRankTracker {
        image: (*svc.snapshot()).clone(),
        epochs_analyzed: 0,
    };

    // Concurrent producers: split the live tail of the stream round-robin
    // across threads, each feeding its own IngestHandle.
    let tail: Vec<_> = stream.edges[stream.initial_size()..].to_vec();
    println!("feeding {} live edges from {PRODUCERS} producer threads ...", tail.len());
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let h = svc.handle();
            let edges: Vec<_> = tail.iter().skip(p).step_by(PRODUCERS).copied().collect();
            std::thread::spawn(move || {
                for e in edges {
                    h.insert(e).expect("service alive");
                }
            })
        })
        .collect();

    // Meanwhile, this thread runs ad-hoc queries against consistent
    // epoch-stamped snapshots — ingest never pauses for them — and the
    // tracker pulls the epochs published since its last pass.
    for _ in 0..5 {
        let (epoch, edges, deg0) =
            svc.query(|snap| (snap.epoch(), snap.num_edges(), snap.out_degree(0)));
        println!("  [query]  epoch {epoch:>3}: {edges} edges live, deg(v0) = {deg0}");
        tracker.track(&svc);
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    for t in producers {
        t.join().unwrap();
    }

    // Barrier: everything accepted above is flushed and visible.
    let final_snap = svc.barrier().expect("service alive");
    println!(
        "barrier: epoch {} with {} live edges",
        final_snap.epoch(),
        final_snap.num_edges()
    );

    tracker.track(&svc);
    let report = svc.shutdown();
    println!("service metrics: {}", report.metrics);
    let analyzed = tracker.epochs_analyzed;
    println!("epochs analyzed by the PageRank tracker: {analyzed}");
    assert_eq!(
        analyzed,
        report.final_snapshot.epoch(),
        "the tracker ranked every published epoch"
    );
    assert_eq!(tracker.image, *report.final_snapshot, "the tracked image is the final state");
    assert_eq!(
        report.metrics.counters.ingested(),
        tail.len() as u64,
        "every streamed edge was accepted"
    );
}
