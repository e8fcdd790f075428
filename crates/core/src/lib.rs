//! # gpma-core — GPMA and GPMA+ dynamic graph storage on a (simulated) GPU
//!
//! The primary contribution of *Accelerating Dynamic Graph Analytics on
//! GPUs* (Sha, Li, He, Tan — PVLDB 11(1), 2017), reproduced in Rust on the
//! `gpma-sim` SIMT device:
//!
//! * [`storage`] — the device-resident PMA slot array with per-vertex guard
//!   entries and density-threshold segment tree (§4.1, Figure 5).
//! * [`gpma`] — the lock-based concurrent update algorithm (Algorithm 1).
//! * [`gpma_plus`] — the lock-free segment-oriented batch algorithm
//!   (Algorithm 4) with warp/block/device merge tiers (§5.2).
//! * [`csr`] — the CSR interface over GPMA that lets existing GPU graph
//!   algorithms run unmodified up to an `IsEntryExist` check (§4.2).
//! * [`framework`] — the dynamic graph analytic framework of §3 (Figure 1):
//!   stream/query buffers and the PCIe-overlapping pipeline (Figure 2).
//! * [`image`] — the published [`GraphSnapshot`](image::GraphSnapshot): a
//!   persistent row-block image over a few shared slabs that each epoch's
//!   delta advances in O(|Δ|), sharing every untouched block with the
//!   previous epoch.
//! * [`delta`] — per-epoch [`SnapshotDelta`] capture, its classification
//!   into the exact [`NetDelta`] a publisher publishes, and the bounded
//!   [`DeltaLog`] publication ring, the O(|Δ|) read-path seam the
//!   `gpma-incremental` engine consumes.
//! * [`multi`] — vertex-partitioned GPMA+ across multiple devices (§6.4).
//! * [`codec`] / [`checkpoint`] — the hand-rolled binary wire format and
//!   the durable one-snapshot checkpoint container
//!   ([`checkpoint::encode`] / [`checkpoint::decode`]) with its
//!   [`CheckpointStore`] backends, the persistence layer `gpma-cluster`
//!   recovers crashed shard workers from.
//!
//! ## Quick example
//!
//! ```
//! use gpma_core::gpma_plus::GpmaPlus;
//! use gpma_core::csr::CsrView;
//! use gpma_graph::{Edge, UpdateBatch};
//! use gpma_sim::{Device, DeviceConfig};
//!
//! let dev = Device::new(DeviceConfig::deterministic());
//! let mut graph = GpmaPlus::build(&dev, 4, &[Edge::new(0, 1), Edge::new(1, 2)]);
//! graph.update_batch_lazy(&dev, &UpdateBatch {
//!     insertions: vec![Edge::new(2, 3)],
//!     deletions: vec![Edge::new(0, 1)],
//! });
//! let view = CsrView::build(&dev, &graph.storage);
//! assert_eq!(view.degrees.to_vec(), vec![0, 1, 1, 0]);
//! ```

#![warn(missing_docs)]

#[cfg(feature = "audit")]
pub mod audit;
pub mod checkpoint;
pub mod codec;
pub mod csr;
pub mod delta;
pub mod framework;
pub mod gpma;
pub mod gpma_plus;
pub mod image;
pub mod multi;
pub mod storage;
pub mod update;

#[cfg(feature = "audit")]
pub use audit::AuditError;
pub use checkpoint::{CheckpointStore, DirCheckpointStore, MemoryCheckpointStore};
pub use codec::CodecError;
pub use csr::CsrView;
pub use delta::{apply_delta, DeltaCatchUp, DeltaLog, NetDelta, OpLog, SnapshotDelta};
pub use gpma::{Gpma, LockStats};
pub use gpma_plus::{GpmaPlus, PlusStats};
pub use storage::{GpmaStorage, EMPTY};
