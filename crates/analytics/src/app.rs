//! The three streaming applications of §6.3 as one device runner, and the
//! continuous monitor (Figure 1) that runs one of them after every flush of
//! a [`DynamicGraphSystem`](gpma_core::framework::DynamicGraphSystem).
//!
//! Figures 8–10 call [`App::run_device`] on whichever device store they
//! measure; Figure 11 registers an [`AppMonitor`], so the framework times
//! the run and ships its result over the modeled PCIe link.

use std::sync::mpsc::{channel, Receiver, Sender};

use gpma_core::framework::Monitor;
use gpma_core::GpmaPlus;
use gpma_sim::Device;

use crate::view::{DeviceGraphView, GpmaView};
use crate::{bfs_device, cc_device, component_count, pagerank_device, UNREACHED};
use crate::{DAMPING, EPSILON, MAX_ITERS};

/// The three evaluation applications of §6.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// Breadth-first search.
    Bfs,
    /// Connected components (label propagation).
    ConnectedComponent,
    /// PageRank.
    PageRank,
}

/// What one application run leaves on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppResult {
    /// BFS: reached vertex count. CC: component count. PageRank: iterations.
    /// Equal across approaches that hold the same edges.
    pub digest: u64,
    /// Size of the result vector the host fetches back (D2H).
    pub bytes: usize,
}

impl App {
    /// All applications, in Figure 8-10 order.
    pub const ALL: [App; 3] = [App::Bfs, App::ConnectedComponent, App::PageRank];

    /// Display name used in tables and reports.
    pub fn name(&self) -> &'static str {
        match self {
            App::Bfs => "BFS",
            App::ConnectedComponent => "ConnectedComponent",
            App::PageRank => "PageRank",
        }
    }

    /// Run this application's device kernels on `view`; `root` is the BFS
    /// source (CC and PageRank ignore it).
    pub fn run_device<G: DeviceGraphView>(&self, dev: &Device, view: &G, root: u32) -> AppResult {
        match self {
            App::Bfs => {
                let dist = bfs_device(dev, view, root);
                AppResult {
                    digest: dist.as_slice().iter().filter(|&&x| x != UNREACHED).count() as u64,
                    bytes: dist.len() * 4,
                }
            }
            App::ConnectedComponent => {
                let labels = cc_device(dev, view);
                AppResult {
                    digest: component_count(labels.as_slice()) as u64,
                    bytes: labels.len() * 4,
                }
            }
            App::PageRank => {
                let pr = pagerank_device(dev, view, DAMPING, EPSILON, MAX_ITERS);
                AppResult {
                    digest: pr.iterations as u64,
                    bytes: pr.ranks.len() * 8,
                }
            }
        }
    }
}

/// Figure 1's continuous monitor: runs one [`App`] over a [`GpmaView`] of
/// the live store after every flush. The view is built inside the run, so
/// the framework's timing of the run covers it.
pub struct AppMonitor<R> {
    app: App,
    roots: R,
    digests: Sender<u64>,
}

impl<R: FnMut() -> u32 + Send> AppMonitor<R> {
    /// A monitor running `app` from the root `roots` yields at each run,
    /// and the receiver of each run's digest, in flush order. The caller
    /// owns the root sequence (a seeded RNG, a fixed vertex), so this crate
    /// draws no random numbers. A BFS root at or above the graph's vertex
    /// count reaches nothing: the run launches no BFS, sends digest 0 and
    /// ships 0 bytes. Dropping the receiver discards the digests.
    pub fn new(app: App, roots: R) -> (Self, Receiver<u64>) {
        let (digests, rx) = channel();
        (
            AppMonitor {
                app,
                roots,
                digests,
            },
            rx,
        )
    }
}

impl<R: FnMut() -> u32 + Send> Monitor for AppMonitor<R> {
    fn name(&self) -> &str {
        self.app.name()
    }

    fn run(&mut self, dev: &Device, graph: &GpmaPlus) -> usize {
        let root = (self.roots)();
        let out = if self.app == App::Bfs && root >= graph.storage.num_vertices() {
            AppResult { digest: 0, bytes: 0 }
        } else {
            self.app.run_device(dev, &GpmaView::build(dev, &graph.storage), root)
        };
        // A dropped receiver only means nobody reads the digests.
        let _ = self.digests.send(out.digest);
        out.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_core::framework::DynamicGraphSystem;
    use gpma_graph::{Edge, UpdateBatch};
    use gpma_sim::DeviceConfig;

    /// A BFS root outside the vertex set reaches nothing: the flush runs no
    /// kernel for it, ships nothing and does not panic.
    #[test]
    fn an_out_of_range_root_reaches_nothing() {
        let dev = Device::new(DeviceConfig::deterministic());
        let mut sys = DynamicGraphSystem::new(dev, 4, &[Edge::new(0, 1)], 1);
        let (monitor, digests) = AppMonitor::new(App::Bfs, || 7);
        sys.register_monitor(Box::new(monitor));
        let reports = sys.ingest(&UpdateBatch {
            insertions: vec![Edge::new(1, 2)],
            deletions: vec![],
        });
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].analytics[0].2, 0, "bytes shipped");
        assert_eq!(reports[0].analytics_time().secs(), 0.0);
        assert_eq!(digests.try_iter().collect::<Vec<_>>(), vec![0]);
    }
}
