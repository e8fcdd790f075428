//! A live analytics dashboard on the incremental read path
//! (`gpma-incremental`): producers stream a Reddit-like influence graph
//! into a `gpma-service` worker that publishes O(|Δ|) epoch deltas, while
//! the incremental engine keeps BFS reachability, connected components and
//! PageRank *live* across every epoch — no snapshot copies, no from-scratch
//! recomputes.
//!
//! ```sh
//! cargo run --release --example incremental_dashboard
//! ```

use gpma_core::delta::BYTES_PER_EDGE;
use gpma_core::framework::DynamicGraphSystem;
use gpma_graph::datasets::{generate, DatasetKind};
use gpma_incremental::IncrementalEngine;
use gpma_service::{ServiceConfig, StreamingService};
use gpma_sim::{Device, DeviceConfig};

const PRODUCERS: usize = 4;

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

    // The engine bundles all three maintainers over one shared delta-fed
    // graph; the monitor half rides the service's delta thread, the handle
    // half answers dashboard queries from this thread.
    let root = stream.initial_edges()[0].src;
    let engine = IncrementalEngine::new()
        .with_bfs(root)
        .with_cc()
        .with_pagerank(0.85, 1e-3);
    let (monitor, dashboard) = engine.into_shared();

    let batch_size = stream.slide_batch_size(0.01);
    let dev = Device::new(DeviceConfig::default());
    let sys = DynamicGraphSystem::new(dev, stream.num_vertices, stream.initial_edges(), batch_size);
    let svc = StreamingService::spawn_with_delta_monitors(
        ServiceConfig::default(),
        sys,
        vec![Box::new(monitor)],
    );

    let tail: Vec<_> = stream.edges[stream.initial_size()..].to_vec();
    println!(
        "feeding {} live edges from {PRODUCERS} producer threads ...",
        tail.len()
    );
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

    // The dashboard loop: live results straight from the maintainers —
    // each line reflects some fully-applied epoch, no recompute anywhere.
    for _ in 0..5 {
        let (epoch, edges, reachable, components, top) = dashboard.with(|e| {
            let reachable = e
                .bfs()
                .map(|b| b.distances().iter().filter(|&&d| d != u32::MAX).count())
                .unwrap_or(0);
            let top = e.pagerank().and_then(|p| {
                p.ranks()
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(v, r)| (v, *r))
            });
            let graph_edges = e.graph().num_edges();
            let components = e.cc().map(|c| c.component_count()).unwrap_or(0);
            (e.graph().epoch(), graph_edges, reachable, components, top)
        });
        let (top_v, top_r) = top.unwrap_or((0, 0.0));
        println!(
            "  [live] epoch {epoch:>3}: {edges} edges | {reachable} reachable from v{root} | \
             {components} components | top influencer v{top_v} (rank {top_r:.5})"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    for t in producers {
        t.join().unwrap();
    }

    // Barrier, then let the delta thread drain: shutdown joins it, so the
    // engine has absorbed every epoch when we read the final state.
    let final_snap = svc.barrier().expect("service alive");
    let report = svc.shutdown();
    assert_eq!(dashboard.epoch(), final_snap.epoch(), "engine is current");

    let stats = dashboard.stats();
    let p = &report.metrics.publication;
    println!("service metrics: {}", report.metrics);
    println!(
        "engine: {} epochs applied ({} changed edges), work bfs={} cc={} pagerank={}",
        stats.epochs, stats.changed_edges, stats.bfs_work, stats.cc_work, stats.pagerank_work
    );
    let full_republication =
        report.metrics.counters.flushes * (8 + final_snap.num_edges() * BYTES_PER_EDGE) as u64;
    println!(
        "read path: {} delta bytes vs ~{} bytes had every epoch shipped a full snapshot ({}× saved)",
        p.delta_bytes,
        full_republication,
        full_republication / p.delta_bytes.max(1),
    );
    let engine_dist = dashboard.with(|e| e.bfs().unwrap().distances().to_vec());
    assert_eq!(
        engine_dist,
        gpma_analytics::bfs_host(&*final_snap, root),
        "incremental BFS equals the from-scratch oracle on the final state"
    );
    println!("final check: incremental BFS matches the from-scratch oracle ✓");
}
