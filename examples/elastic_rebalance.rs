//! Elastic cluster demo: a 2D edge-grid cluster shows its known ~2×
//! power-law routing skew, the demo reads it from the cluster metrics and
//! rebalances live onto a degree-aware plan mid-stream, and the second half
//! of the stream routes balanced — with the migration cost (edges moved, modeled
//! bytes, ingest pause) and a shard-count resize (4 → 8) on top.
//!
//! ```sh
//! cargo run --release --example elastic_rebalance
//! ```

use gpma_cluster::{ClusterConfig, GraphCluster, PartitionPolicy};
use gpma_obs::Stage;
use gpma_graph::gen::rmat;
use gpma_graph::GraphStream;
use gpma_sim::DeviceConfig;

const SHARDS: usize = 4;
/// Max/mean routed-update skew above which the demo rebalances.
const SKEW_THRESHOLD: f64 = 1.3;

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

    // Spawn on the edge grid: storage-balanced but routing-skewed on
    // power-law rows.
    let cluster = GraphCluster::spawn(
        ClusterConfig {
            flush_threshold: 256,
            ..Default::default()
        },
        &DeviceConfig::default(),
        PartitionPolicy::EdgeGrid.build(nv, SHARDS),
        stream.initial_edges(),
    );
    println!("\n=== edge-grid × {SHARDS}, rebalance at skew > {SKEW_THRESHOLD} ===");

    let h = cluster.handle();
    let tail: Vec<_> = stream.edges[stream.initial_size()..].to_vec();
    let (first, second) = tail.split_at(tail.len() / 2);
    for e in first {
        h.insert(*e).expect("cluster alive");
    }

    // Read the skew the first half routed with; past the threshold,
    // live-migrate onto a degree-aware plan built from what the router
    // observed. A reshard splits the cost: `paused` is the only window
    // producers can feel (the plan swap), and `background` is the barrier
    // wait, the copy and the retire that ran while ingest kept flowing.
    let skew = cluster.metrics().expect("cluster alive").imbalance();
    println!("first half: {} updates routed, max/mean skew {skew:.2}", first.len());
    if skew > SKEW_THRESHOLD {
        let r = cluster.rebalance(None).expect("rebalance");
        println!(
            "reshard v{}: {} × {} → {} × {} | moved {} edges ({} KB vs {} KB rebuild) | paused {:.2} ms + {:.2} ms background",
            r.version,
            r.from_policy,
            r.from_shards,
            r.to_policy,
            r.to_shards,
            r.migrated_edges,
            r.migration_bytes / 1024,
            r.full_rebuild_bytes / 1024,
            r.pause_secs * 1e3,
            r.background_secs * 1e3,
        );
    }

    for e in second {
        h.insert(*e).expect("cluster alive");
    }
    let snap = cluster.epoch_cut().expect("cluster alive");
    println!(
        "streamed {} updates; cut {} holds {} edges on {} shards",
        tail.len(),
        snap.cut(),
        snap.num_edges(),
        snap.num_shards()
    );
    let metrics = cluster.metrics().expect("cluster alive");
    println!(
        "post-rebalance window: routed {:?} (max/mean {:.2})",
        metrics.routed,
        metrics.imbalance()
    );

    // Elastic scale-out on demand: the same degree observations, 8 shards —
    // with a live producer re-streaming updates *through* the reshard, the
    // zero-pause case the copy-on-write protocol exists for.
    let concurrent = {
        let h = cluster.handle();
        let replay: Vec<_> = tail.iter().take(8_192).copied().collect();
        std::thread::spawn(move || {
            for e in &replay {
                h.insert(*e).expect("cluster alive");
            }
        })
    };
    let grow = cluster.rebalance(Some(8)).expect("grow to 8");
    concurrent.join().expect("producer");
    println!(
        "scale-out v{}: {} shards → {} shards, moved {} edges, kept {} in place, paused {:.2} ms + {:.2} ms background",
        grow.version,
        grow.from_shards,
        grow.to_shards,
        grow.migrated_edges,
        grow.resident_edges,
        grow.pause_secs * 1e3,
        grow.background_secs * 1e3
    );
    let final_snap = cluster.epoch_cut().expect("cluster alive");
    assert_eq!(final_snap.num_edges(), snap.num_edges(), "no edge lost");
    println!(
        "cut {}: {} edges across {} shards (unchanged through both reshards)",
        final_snap.cut(),
        final_snap.num_edges(),
        final_snap.num_shards()
    );

    // What each reshard phase actually cost, and what ingest latency looked
    // like while one was in flight (DESIGN.md §13): `reshard.*` are the
    // quiesce/migrate/resume spans, `ingest.reshard` is the client-observed
    // enqueue latency sampled only while a reshard was active.
    let obs = cluster.obs();
    for stage in [
        Stage::ReshardQuiesce,
        Stage::ReshardMigrate,
        Stage::ReshardResume,
    ] {
        let s = obs.hist(stage).snapshot();
        println!(
            "{:<16} p50 {:>8} µs  p99 {:>8} µs  ({} spans)",
            stage.name(),
            s.p50,
            s.p99,
            s.count
        );
    }
    let steady = obs.hist(Stage::IngestEnqueue).snapshot();
    let during = obs.hist(Stage::IngestReshard).snapshot();
    println!(
        "ingest enqueue: p99 {} µs overall ({} samples) vs p99 {} µs while resharding ({} samples)",
        steady.p99, steady.count, during.p99, during.count
    );
    println!("{}", obs.render_table());

    let report = cluster.shutdown();
    let m = &report.metrics;
    println!(
        "\n{} reshards total: {} edges migrated, {} KB shipped, {:.2} ms cumulative pause (+{:.2} ms background copy/retire)",
        m.reshard_count,
        m.migrated_edges,
        m.migration_bytes / 1024,
        m.migration_pause_secs * 1e3,
        m.migration_background_secs * 1e3,
    );
    println!("{}", report.metrics);
}
