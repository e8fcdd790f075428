//! Uniform wrappers over all six compared approaches (Table 1), exposing a
//! single `apply / run-analytic` interface to the experiment drivers.
//!
//! CPU approaches are measured in host wall-clock time; device approaches in
//! simulated device time (`gpma-sim` cost model). EXPERIMENTS.md discusses
//! why comparing those directly still reproduces the paper's *shapes*.

use gpma_baselines::{AdjLists, PmaGraph, RebuildCsr, StingerGraph};
use gpma_core::{Gpma, GpmaPlus};
use gpma_graph::{Edge, UpdateBatch};
use gpma_sim::{Device, DeviceConfig};

/// The compared approaches of §6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ApproachKind {
    /// AdjLists (CPU).
    AdjLists,
    /// PMA (CPU).
    Pma,
    /// Stinger (CPU).
    Stinger,
    /// cuSparseCSR rebuild (GPU).
    CuSparseCsr,
    /// GPMA (GPU).
    Gpma,
    /// GPMA+ (GPU).
    GpmaPlus,
}

impl ApproachKind {
    /// Every compared approach, in Table 1 order.
    pub const ALL: [ApproachKind; 6] = [
        ApproachKind::AdjLists,
        ApproachKind::Pma,
        ApproachKind::Stinger,
        ApproachKind::CuSparseCsr,
        ApproachKind::Gpma,
        ApproachKind::GpmaPlus,
    ];

    /// The device-resident subset.
    pub const DEVICE: [ApproachKind; 3] = [
        ApproachKind::CuSparseCsr,
        ApproachKind::Gpma,
        ApproachKind::GpmaPlus,
    ];

    /// Display name used in tables and reports.
    pub fn name(&self) -> &'static str {
        match self {
            ApproachKind::AdjLists => "AdjLists",
            ApproachKind::Pma => "PMA",
            ApproachKind::Stinger => "Stinger",
            ApproachKind::CuSparseCsr => "cuSparseCSR",
            ApproachKind::Gpma => "GPMA",
            ApproachKind::GpmaPlus => "GPMA+",
        }
    }

    /// Whether this approach runs on the (simulated) device.
    pub fn is_device(&self) -> bool {
        matches!(
            self,
            ApproachKind::CuSparseCsr | ApproachKind::Gpma | ApproachKind::GpmaPlus
        )
    }
}

/// An instantiated approach holding its store (and device, if any).
pub enum Store {
    /// AdjLists (CPU).
    AdjLists(AdjLists),
    /// PMA (CPU).
    Pma(PmaGraph),
    /// Stinger (CPU).
    Stinger(StingerGraph),
    /// cuSparseCSR (GPU): static CSR rebuilt on every batch.
    CuSparseCsr {
        /// The simulated device the CSR lives on.
        dev: Device,
        /// The rebuilt CSR.
        csr: RebuildCsr,
    },
    /// GPMA (GPU).
    Gpma {
        /// The simulated device the structure lives on.
        dev: Device,
        /// The GPMA structure.
        g: Gpma,
    },
    /// GPMA+ (GPU).
    GpmaPlus {
        /// The simulated device the structure lives on.
        dev: Device,
        // Boxed: GPMA+ carries reusable upload/level scratch, making it
        // much larger than the host-store variants.
        /// The GPMA+ structure.
        g: Box<GpmaPlus>,
    },
}

impl Store {
    /// Build the approach's store from the initial graph.
    pub fn build(kind: ApproachKind, num_vertices: u32, edges: &[Edge]) -> Store {
        Store::build_with(kind, num_vertices, edges, DeviceConfig::default())
    }

    /// [`Store::build`] with an explicit device configuration.
    pub fn build_with(
        kind: ApproachKind,
        num_vertices: u32,
        edges: &[Edge],
        cfg: DeviceConfig,
    ) -> Store {
        match kind {
            ApproachKind::AdjLists => Store::AdjLists(AdjLists::build(num_vertices, edges)),
            ApproachKind::Pma => Store::Pma(PmaGraph::build(num_vertices, edges)),
            ApproachKind::Stinger => Store::Stinger(StingerGraph::build(num_vertices, edges)),
            ApproachKind::CuSparseCsr => {
                let dev = Device::new(cfg);
                let csr = RebuildCsr::build(&dev, num_vertices, edges);
                Store::CuSparseCsr { dev, csr }
            }
            ApproachKind::Gpma => {
                let dev = Device::new(cfg);
                let g = Gpma::build(&dev, num_vertices, edges);
                Store::Gpma { dev, g }
            }
            ApproachKind::GpmaPlus => {
                let dev = Device::new(cfg);
                let g = Box::new(GpmaPlus::build(&dev, num_vertices, edges));
                Store::GpmaPlus { dev, g }
            }
        }
    }

    /// Which approach this store wraps.
    pub fn kind(&self) -> ApproachKind {
        match self {
            Store::AdjLists(_) => ApproachKind::AdjLists,
            Store::Pma(_) => ApproachKind::Pma,
            Store::Stinger(_) => ApproachKind::Stinger,
            Store::CuSparseCsr { .. } => ApproachKind::CuSparseCsr,
            Store::Gpma { .. } => ApproachKind::Gpma,
            Store::GpmaPlus { .. } => ApproachKind::GpmaPlus,
        }
    }

    /// Apply one update batch; returns seconds (wall-clock for CPU stores,
    /// simulated device time for GPU stores).
    pub fn apply(&mut self, batch: &UpdateBatch) -> f64 {
        match self {
            Store::AdjLists(g) => wall(|| g.update_batch(batch)),
            Store::Pma(g) => wall(|| g.update_batch(batch)),
            Store::Stinger(g) => wall(|| g.update_batch(batch)),
            Store::CuSparseCsr { dev, csr } => {
                let (_, t) = dev.timed(|d| csr.update_batch(d, batch));
                t.secs()
            }
            Store::Gpma { dev, g } => {
                let (_, t) = dev.timed(|d| {
                    g.update_batch(d, batch);
                });
                t.secs()
            }
            Store::GpmaPlus { dev, g } => {
                let (_, t) = dev.timed(|d| {
                    g.update_batch_lazy(d, batch);
                });
                t.secs()
            }
        }
    }

    /// Current live edge count (consistency checks between approaches).
    pub fn num_edges(&self) -> usize {
        match self {
            Store::AdjLists(g) => g.num_edges(),
            Store::Pma(g) => g.num_edges(),
            Store::Stinger(g) => g.num_edges(),
            Store::CuSparseCsr { csr, .. } => csr.num_edges(),
            Store::Gpma { g, .. } => g.storage.num_edges(),
            Store::GpmaPlus { g, .. } => g.storage.num_edges(),
        }
    }
}

fn wall<R>(f: impl FnOnce() -> R) -> f64 {
    let t0 = std::time::Instant::now();
    let _ = f();
    t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(pairs: &[(u32, u32)]) -> Vec<Edge> {
        pairs.iter().map(|&(s, d)| Edge::new(s, d)).collect()
    }

    #[test]
    fn all_stores_apply_the_same_batch_identically() {
        let initial = edges(&[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let batch = UpdateBatch {
            insertions: edges(&[(0, 2), (3, 1)]),
            deletions: edges(&[(1, 2)]),
        };
        for kind in ApproachKind::ALL {
            let mut store = Store::build_with(kind, 4, &initial, DeviceConfig::deterministic());
            assert_eq!(store.num_edges(), 4, "{}", kind.name());
            let secs = store.apply(&batch);
            assert!(secs >= 0.0);
            assert_eq!(store.num_edges(), 5, "{} after batch", kind.name());
            assert_eq!(store.kind(), kind);
        }
    }
}
