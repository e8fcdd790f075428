//! Sharded streaming service (§6.6 / Figure 12 as a system): fan one live
//! edge stream across a 4-shard `gpma-cluster`, take coordinated epoch
//! cuts while producers keep streaming, run the distributed BFS with its
//! frontier exchange made explicit, and PageRank and CC on the cut's
//! merged image.
//!
//! ```sh
//! cargo run --release --example sharded_service
//! ```

use gpma_analytics::{bfs_sharded, component_count, cc_host, pagerank_host};
use gpma_cluster::{ClusterConfig, GraphCluster, PartitionPolicy};
use gpma_obs::Stage;
use gpma_graph::gen::rmat;
use gpma_graph::GraphStream;
use gpma_sim::pcie::Pcie;
use gpma_sim::{DeviceConfig, PcieConfig};

const SHARDS: usize = 4;
const PRODUCERS: usize = 4;

fn main() {
    let coo = rmat(11, 40_000, 7);
    let stream = GraphStream::from_coo_shuffled("Graph500", coo, 99);
    let nv = stream.num_vertices;
    println!(
        "Graph500: {} vertices, {} edges ({} initial, {} streamed live)",
        nv,
        stream.len(),
        stream.initial_size(),
        stream.len() - stream.initial_size()
    );

    for policy in [PartitionPolicy::VertexHash, PartitionPolicy::EdgeGrid] {
        let cluster = GraphCluster::spawn(
            ClusterConfig {
                flush_threshold: 256,
                ..Default::default()
            },
            &DeviceConfig::default(),
            policy.build(nv, SHARDS),
            stream.initial_edges(),
        );
        println!("\n=== {} × {SHARDS} shards ===", policy.name());

        // PRODUCERS threads stream the live tail concurrently.
        let tail: Vec<_> = stream.edges[stream.initial_size()..].to_vec();
        let feeders: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let h = cluster.handle();
                let chunk: Vec<_> = tail.iter().skip(p).step_by(PRODUCERS).copied().collect();
                std::thread::spawn(move || {
                    for e in chunk {
                        h.insert(e).expect("cluster alive");
                    }
                })
            })
            .collect();

        // A mid-stream coordinated cut: globally consistent, does not stop
        // the producers for longer than the barrier round.
        let mid = cluster.epoch_cut().expect("cluster alive");
        println!(
            "mid-stream cut {}: {} edges, shard epochs {:?}",
            mid.cut(),
            mid.num_edges(),
            mid.shard_epochs()
        );

        for f in feeders {
            f.join().expect("producer");
        }
        let snap = cluster.epoch_cut().expect("cluster alive");
        println!(
            "final cut {}: {} edges across {} shards",
            snap.cut(),
            snap.num_edges(),
            snap.num_shards()
        );

        // Distributed BFS over the cut, exchange traffic included.
        let link = Pcie::new(PcieConfig::default());
        let refs = snap.shard_refs();
        let (dist, bfs_x) = bfs_sharded(&refs, nv, 0, &link);
        let reached = dist.iter().filter(|&&d| d != gpma_analytics::UNREACHED).count();
        println!(
            "BFS: {} reached in {} supersteps, frontier exchange {} KB ({:.3} ms modeled)",
            reached,
            bfs_x.supersteps,
            bfs_x.bytes / 1024,
            bfs_x.comm.millis()
        );
        // The cut's image is a host graph.
        let image = snap.image();
        let pr = pagerank_host(&**image, 0.85, 1e-6, 100);
        println!(
            "PageRank on the merged cut: {} iters (converged: {})",
            pr.iterations, pr.converged
        );
        let labels = cc_host(&**image);
        println!("CC on the merged cut: {} components", component_count(&labels));

        // Client-observed ingest latency plus the per-stage pipeline
        // breakdown behind it (DESIGN.md §13) — the same telemetry the
        // repo benchmark's `cluster-ingest` workload reports.
        let ingest = cluster.obs().hist(Stage::IngestEnqueue).snapshot();
        println!(
            "ingest latency: p50 {} µs / p99 {} µs / max {} µs over {} enqueues",
            ingest.p50, ingest.p99, ingest.max, ingest.count
        );
        println!("{}", cluster.obs().render_table());

        let report = cluster.shutdown();
        println!("{}", report.metrics);
    }
    println!("\nvertex-hash balances routing; edge-grid halves frontier exchange at the cost of imbalance (Figure 12's trade-off)");
    println!("run examples/elastic_rebalance.rs to watch the skew-driven rebalancer fix it live");
}
