//! A live analytics dashboard on the incremental read path
//! (`gpma-incremental`): producers stream a Reddit-like influence graph
//! into a `gpma-service` worker that publishes O(|Δ|) epoch deltas, while
//! the dashboard pulls them into the incremental engine before every line
//! it prints, keeping BFS reachability, connected components and PageRank
//! *live* — no snapshot copies, no from-scratch recomputes.
//!
//! ```sh
//! cargo run --release --example incremental_dashboard
//! ```

use gpma_core::delta::BYTES_PER_EDGE;
use gpma_core::framework::DynamicGraphSystem;
use gpma_graph::datasets::{generate, DatasetKind};
use gpma_incremental::{CatchUp, IncrementalEngine};
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

    let batch_size = stream.slide_batch_size(0.01);
    let dev = Device::new(DeviceConfig::default());
    let sys = DynamicGraphSystem::new(dev, stream.num_vertices, stream.initial_edges(), batch_size);
    let svc = StreamingService::spawn(ServiceConfig::default(), sys);

    // The engine bundles all three maintainers over one graph: the image
    // the service published. The dashboard pulls every epoch since the
    // engine's, folded into one delta, before each line it prints.
    let root = stream.initial_edges()[0].src;
    let mut engine = IncrementalEngine::new()
        .with_bfs(root)
        .with_cc()
        .with_pagerank(0.85, 1e-3);
    engine.rebase_shared(svc.snapshot());
    let pull = |engine: &mut IncrementalEngine| {
        engine.catch_up(svc.snapshot(), svc.deltas_since(engine.graph().epoch()))
    };

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

    // The dashboard loop: pull, then read live results straight from the
    // maintainers — each line reflects the epoch just caught up to, no
    // recompute anywhere.
    for _ in 0..5 {
        let caught = match pull(&mut engine) {
            CatchUp::Current => "current",
            CatchUp::Applied(_) => "applied",
            CatchUp::Rebased => "rebased",
        };
        let reachable = engine
            .bfs()
            .map(|b| b.distances().iter().filter(|&&d| d != u32::MAX).count())
            .unwrap_or(0);
        let (top_v, top_r) = engine
            .pagerank()
            .and_then(|p| {
                p.ranks()
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(v, r)| (v, *r))
            })
            .unwrap_or((0, 0.0));
        let components = engine.cc().map(|c| c.component_count()).unwrap_or(0);
        println!(
            "  [live] epoch {:>3} ({caught}): {} edges | {reachable} reachable from v{root} | \
             {components} components | top influencer v{top_v} (rank {top_r:.5})",
            engine.graph().epoch(),
            engine.graph().num_edges(),
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    for t in producers {
        t.join().unwrap();
    }

    // Barrier, then one last pull: the engine is current with the final
    // state.
    let final_snap = svc.barrier().expect("service alive");
    pull(&mut engine);
    assert_eq!(engine.graph().epoch(), final_snap.epoch(), "engine is current");
    let report = svc.shutdown();

    let stats = engine.stats();
    let p = &report.metrics.publication;
    println!("service metrics: {}", report.metrics);
    println!(
        "engine: {} catch-ups applied ({} changed edges), work bfs={} cc={} pagerank={}",
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
    assert_eq!(
        engine.bfs().unwrap().distances(),
        gpma_analytics::bfs_host(&*final_snap, root),
        "incremental BFS equals the from-scratch oracle on the final state"
    );
    println!("final check: incremental BFS matches the from-scratch oracle ✓");
}
