//! Cross-crate analytics integration: the three applications must produce
//! identical results across every approach (Table 1's matrix), including
//! after updates, and the multi-device versions must agree with
//! single-device runs on real generated datasets.

use gpma_analytics::multi::{bfs_multi, cc_multi, pagerank_multi};
use gpma_analytics::{bfs_host, cc_host, component_count, pagerank_host, App, AppMonitor};
use gpma_baselines::AdjLists;
use gpma_bench::apps::run_app;
use gpma_bench::{ApproachKind, Store};
use gpma_core::framework::DynamicGraphSystem;
use gpma_core::multi::MultiGpma;
use gpma_graph::datasets::{generate, DatasetKind};
use gpma_sim::{Device, DeviceConfig};

#[test]
fn table1_matrix_agrees_after_streaming() {
    let stream = generate(DatasetKind::RedditLike, 0.0004, 23);
    let batch = stream.slide_batch_size(0.02);
    let mut stores: Vec<Store> = ApproachKind::ALL
        .iter()
        .map(|&k| {
            Store::build_with(
                k,
                stream.num_vertices,
                stream.initial_edges(),
                DeviceConfig::deterministic(),
            )
        })
        .collect();
    for b in stream.sliding(batch).take(3) {
        for s in stores.iter_mut() {
            s.apply(&b);
        }
    }
    for app in App::ALL {
        let mut digests: Vec<(&str, u64)> = stores
            .iter()
            .map(|s| (s.kind().name(), run_app(app, s, 1).digest))
            .collect();
        // The framework's monitor, fed the same slides one flush each.
        let dev = Device::new(DeviceConfig::deterministic());
        let mut sys =
            DynamicGraphSystem::new(dev, stream.num_vertices, stream.initial_edges(), 2 * batch);
        let (monitor, runs) = AppMonitor::new(app, || 1);
        sys.register_monitor(Box::new(monitor));
        for b in stream.sliding(batch).take(3) {
            sys.stream.offer_batch(&b);
            sys.flush();
        }
        let runs: Vec<u64> = runs.try_iter().collect();
        assert_eq!(runs.len(), 3, "one run per flush");
        digests.push(("framework monitor", runs[2]));
        let first = digests[0].1;
        for (name, d) in &digests {
            assert_eq!(*d, first, "{name} disagrees on {:?}", app);
        }
    }
}

#[test]
fn multi_device_matches_host_references_on_dataset() {
    let stream = generate(DatasetKind::PokecLike, 0.0004, 31);
    let oracle = AdjLists::build(stream.num_vertices, stream.initial_edges());
    for nd in [1usize, 3] {
        let mut m = MultiGpma::build(
            &DeviceConfig::deterministic(),
            nd,
            stream.num_vertices,
            stream.initial_edges(),
        );
        let (dist, _) = bfs_multi(&mut m, 0);
        assert_eq!(dist, bfs_host(&oracle, 0), "bfs {nd} devices");
        let (labels, _) = cc_multi(&mut m);
        assert_eq!(labels, cc_host(&oracle), "cc {nd} devices");
        let (pr, _) = pagerank_multi(&mut m, 0.85, 1e-8, 200);
        let expect = pagerank_host(&oracle, 0.85, 1e-8, 200);
        for v in 0..stream.num_vertices as usize {
            assert!(
                (pr.ranks[v] - expect.ranks[v]).abs() < 1e-6,
                "pr {nd} devices vertex {v}"
            );
        }
    }
}

#[test]
fn component_count_shrinks_as_window_slides_on_growing_density() {
    // As the window slides over a uniform stream the structure stays
    // statistically similar: component count must stay plausible (>=1, <=|V|)
    // and BFS reach from a hub must stay consistent with CC membership.
    let stream = generate(DatasetKind::UniformRandom, 0.0003, 5);
    let mut store = Store::build_with(
        ApproachKind::GpmaPlus,
        stream.num_vertices,
        stream.initial_edges(),
        DeviceConfig::deterministic(),
    );
    for b in stream.sliding(stream.slide_batch_size(0.05)).take(3) {
        store.apply(&b);
        let cc = run_app(App::ConnectedComponent, &store, 0).digest;
        assert!(cc >= 1 && cc <= stream.num_vertices as u64);
        let reached = run_app(App::Bfs, &store, 0).digest;
        assert!(reached >= 1 && reached <= stream.num_vertices as u64);
    }
}

#[test]
fn pagerank_mass_conserved_on_all_datasets() {
    for kind in DatasetKind::ALL {
        let stream = generate(kind, 0.0002, 77);
        let oracle = AdjLists::build(stream.num_vertices, stream.initial_edges());
        let pr = pagerank_host(&oracle, 0.85, 1e-6, 300);
        let mass: f64 = pr.ranks.iter().sum();
        assert!(
            (mass - 1.0).abs() < 1e-6,
            "{}: rank mass {mass}",
            kind.name()
        );
        assert!(component_count(&cc_host(&oracle)) >= 1);
    }
}
