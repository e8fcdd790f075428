//! The three streaming applications (§6.3) runnable against any store, with
//! per-run timing in the store's native metric (wall vs simulated).

use gpma_analytics::{
    bfs_host, cc_host, pagerank_host, App, DeviceGraphView, GpmaView, HostGraph, RebuildView,
};
use gpma_sim::Device;

use crate::approaches::Store;

/// Outcome of one analytic run: elapsed seconds plus a content digest used
/// for cross-approach consistency checks.
#[derive(Debug, Clone, Copy)]
pub struct AppRun {
    /// Run time: simulated device seconds, or modeled host seconds.
    pub seconds: f64,
    /// BFS: reached vertex count. CC: component count. PageRank: iterations.
    pub digest: u64,
}

/// Run `app` on `store` (the shared device runner for device stores, the
/// reference algorithms for CPU stores), timing it in the store's native
/// metric.
pub fn run_app(app: App, store: &Store, root: u32) -> AppRun {
    match store {
        Store::AdjLists(g) => run_host(app, g, root),
        Store::Pma(g) => run_host(app, g, root),
        Store::Stinger(g) => run_host(app, g, root),
        Store::CuSparseCsr { dev, csr } => {
            run_device(app, dev, &RebuildView::build(dev, csr), root)
        }
        Store::Gpma { dev, g } => run_device(app, dev, &GpmaView::build(dev, &g.storage), root),
        Store::GpmaPlus { dev, g } => run_device(app, dev, &GpmaView::build(dev, &g.storage), root),
    }
}

/// [`App::run_device`] in simulated device time. The view is built before
/// the clock starts: Figures 8–10 time the analytic, not the view.
fn run_device<G: DeviceGraphView>(app: App, dev: &Device, view: &G, root: u32) -> AppRun {
    let (run, t) = dev.timed(|d| app.run_device(d, view, root));
    AppRun {
        seconds: t.secs(),
        digest: run.digest,
    }
}

/// Wall-timed calls [`run_host`] makes per cell. A cell's first call can
/// read up to 1.8× its later ones, so the cell reports the fastest.
const HOST_CALLS: usize = 3;

/// The reference algorithms on a CPU store, wall-timed: the minimum of
/// [`HOST_CALLS`] calls, whose digests must agree. Generic, so each
/// store's neighbour walk is inlined into them; through `&dyn HostGraph`
/// every neighbour visit would be a virtual call.
fn run_host<G: HostGraph>(app: App, g: &G, root: u32) -> AppRun {
    let once = || {
        let t0 = std::time::Instant::now();
        let digest = match app {
            App::Bfs => bfs_host(g, root)
                .iter()
                .filter(|&&x| x != gpma_analytics::UNREACHED)
                .count() as u64,
            App::ConnectedComponent => gpma_analytics::component_count(&cc_host(g)) as u64,
            App::PageRank => {
                pagerank_host(
                    g,
                    gpma_analytics::DAMPING,
                    gpma_analytics::EPSILON,
                    gpma_analytics::MAX_ITERS,
                )
                .iterations as u64
            }
        };
        AppRun {
            seconds: t0.elapsed().as_secs_f64(),
            digest,
        }
    };
    let first = once();
    (1..HOST_CALLS).fold(first, |best, _| {
        let run = once();
        assert_eq!(
            run.digest,
            first.digest,
            "{} digest moved between calls",
            app.name()
        );
        AppRun {
            seconds: best.seconds.min(run.seconds),
            digest: first.digest,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approaches::{ApproachKind, Store};
    use gpma_graph::Edge;
    use gpma_sim::DeviceConfig;

    #[test]
    fn all_approaches_agree_on_digests() {
        // 0→1→2→3→4 chain plus 5↔6; 7 isolated.
        let edges: Vec<Edge> = [(0u32, 1u32), (1, 2), (2, 3), (3, 4), (5, 6), (6, 5)]
            .iter()
            .map(|&(s, d)| Edge::new(s, d))
            .collect();
        for app in App::ALL {
            let mut digests = Vec::new();
            for kind in ApproachKind::ALL {
                let store = Store::build_with(kind, 8, &edges, DeviceConfig::deterministic());
                let run = run_app(app, &store, 0);
                digests.push((kind.name(), run.digest));
            }
            let first = digests[0].1;
            for (name, d) in &digests {
                assert_eq!(*d, first, "{name} disagrees on {}", app.name());
            }
        }
    }
}
