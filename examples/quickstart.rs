//! Quickstart: build a GPMA+ dynamic graph on the simulated GPU, stream a
//! few update batches through it, and run the three analytics of the paper.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use gpma_analytics::{bfs_device, cc_device, component_count, pagerank_device, GpmaView};
use gpma_core::GpmaPlus;
use gpma_graph::{Edge, UpdateBatch};
use gpma_sim::{Device, DeviceConfig};

fn main() {
    // A simulated GPU (24 SMs, 1 GHz — see DESIGN.md for the calibration).
    let dev = Device::new(DeviceConfig::default());

    // Build the dynamic graph from an initial edge set.
    let initial = vec![
        Edge::new(0, 1),
        Edge::new(1, 2),
        Edge::new(2, 3),
        Edge::new(3, 4),
        Edge::new(4, 0),
    ];
    let mut graph = GpmaPlus::build(&dev, 6, &initial);
    println!("built: {} edges over {} vertices", graph.storage.num_edges(), 6);

    // Stream an update batch: two insertions, one deletion.
    let (stats, t) = {
        let g = &mut graph;
        let batch = UpdateBatch {
            insertions: vec![Edge::new(2, 5), Edge::new(5, 0)],
            deletions: vec![Edge::new(4, 0)],
        };
        let mut stats = None;
        let (_, t) = dev.timed(|d| {
            stats = Some(g.update_batch_lazy(d, &batch));
        });
        (stats.unwrap(), t)
    };
    println!(
        "batch applied in {:.1} simulated µs ({} levels, {} small merges)",
        t.micros(),
        stats.levels,
        stats.small_merges
    );

    // The CSR view adapts existing GPU algorithms to GPMA (§4.2).
    let view = GpmaView::build(&dev, &graph.storage);

    let dist = bfs_device(&dev, &view, 0);
    println!("BFS distances from 0: {:?}", dist.to_vec());

    let labels = cc_device(&dev, &view);
    println!(
        "connected components: {} ({:?})",
        component_count(labels.as_slice()),
        labels.to_vec()
    );

    let pr = pagerank_device(&dev, &view, 0.85, 1e-6, 100);
    println!(
        "PageRank ({} iterations, converged = {}):",
        pr.iterations, pr.converged
    );
    for (v, r) in pr.ranks.iter().enumerate() {
        println!("  vertex {v}: {r:.4}");
    }

    println!(
        "total simulated device time: {:.2} µs across {} kernel launches",
        dev.elapsed().micros(),
        dev.metrics().launches
    );
}
