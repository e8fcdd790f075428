//! # gpma-incremental — incremental analytics fed by epoch deltas
//!
//! The paper's premise is that dynamic graphs change by *small batches* —
//! yet a read path that republishes full snapshots and recomputes analytics
//! from scratch pays O(E) per epoch no matter how small the batch was.
//! Following the delta-consumption designs of Meerkat (arXiv:2305.17813)
//! and GraphVine (arXiv:2306.08252), this crate closes that gap: the core
//! layer captures each flush's net effect as a [`SnapshotDelta`], the
//! service/cluster layers publish those deltas through bounded rings, and
//! the maintainers
//! here keep results *live* across epochs — BFS and CC with work
//! proportional to the affected region, PageRank by re-converging from the
//! previous ranks instead of from scratch:
//!
//! | maintainer | insert repair | delete repair | per-epoch cost |
//! |---|---|---|---|
//! | [`IncrementalBfs`] | decrease-only relaxation from added edges | orphan detection + bounded re-search | O(affected + incident edges) |
//! | [`IncrementalCc`] | relabel the smaller component, hang its spanning tree from the edge | non-tree edge: nothing; cut tree edge: search the cut-off fragment for a replacement edge, split it off if none | O(smaller side + cut fragments searched) |
//! | [`DeltaPageRank`] | power-iteration sweeps warm-started from the previous ranks | same | sweeps × (V + E), a few sweeps |
//!
//! versus O(V + E) (BFS/CC) and O(iterations · E) (PageRank) for the
//! from-scratch oracles they are validated against.
//!
//! ```text
//!  service worker                          monitor thread
//!  ──────────────                          ──────────────
//!  flush → SnapshotDelta ─┬─(Δ, image)──►  EngineMonitor ──► DeltaGraph.apply_at(Δ, image)
//!        image.advance(Δ) ┘                    │                │ AppliedDelta
//!        = the published snapshot              ▼                ▼
//!        └─► DeltaLog (catch-up)      IncrementalBfs / Cc    (repair from the changes)
//!                                     DeltaPageRank          (re-sweeps the image)
//!                                      ▲ EngineHandle.with(..) — queries
//! ```
//!
//! The maintainers keep no copy of the edges: a [`DeltaGraph`] is the
//! [`GraphSnapshot`](gpma_core::framework::GraphSnapshot) image it is
//! current with — every forward read is a row lookup in it — plus sorted
//! in-neighbour rows of its own. A caller that holds the published image
//! hands it over ([`IncrementalEngine::rebase_shared`],
//! [`IncrementalEngine::apply_at`]) and shares it with every other reader —
//! the [`EngineMonitor`] above does, since every monitor callback carries
//! the image its delta produced. One that only has deltas
//! ([`IncrementalEngine::apply`]) advances a private image by the same
//! O(|Δ|) step the service takes.
//!
//! ## Example: a live engine on a streaming service
//!
//! ```
//! use gpma_core::framework::DynamicGraphSystem;
//! use gpma_graph::Edge;
//! use gpma_incremental::IncrementalEngine;
//! use gpma_service::{ServiceConfig, StreamingService};
//! use gpma_sim::{Device, DeviceConfig};
//!
//! let engine = IncrementalEngine::new()
//!     .with_bfs(0)
//!     .with_cc()
//!     .with_pagerank(0.85, 1e-6);
//! let (monitor, handle) = engine.into_shared();
//!
//! let dev = Device::new(DeviceConfig::deterministic());
//! let sys = DynamicGraphSystem::new(dev, 64, &[Edge::new(0, 1)], 4);
//! let svc = StreamingService::spawn_with_delta_monitors(
//!     ServiceConfig::default(),
//!     sys,
//!     vec![Box::new(monitor)],
//! );
//!
//! let h = svc.handle();
//! for i in 1..16u32 {
//!     h.insert(Edge::new(i, i + 1)).unwrap();
//! }
//! svc.barrier().unwrap();
//! let report = svc.shutdown(); // joins the delta thread: engine is final
//!
//! assert_eq!(handle.epoch(), report.final_snapshot.epoch());
//! let reachable = handle.with(|e| {
//!     e.bfs().unwrap().distances().iter().filter(|&&d| d != u32::MAX).count()
//! });
//! assert_eq!(reachable, 17);
//! ```
//!
//! The engine plugs into `gpma-cluster` the same way
//! (`GraphCluster::spawn_with_delta_monitors`), consuming one merged delta
//! per coordinated cut with the cut flattened into one image. When a reader outruns a delta ring, the publication
//! layer hands a full snapshot instead and the engine transparently
//! [rebases](IncrementalEngine::rebase).

#![warn(missing_docs)]

mod bfs;
mod cc;
mod engine;
mod graph;
mod pagerank;

pub use bfs::IncrementalBfs;
pub use cc::IncrementalCc;
pub use engine::{EngineHandle, EngineMonitor, EngineStats, IncrementalEngine};
pub use gpma_core::delta::{apply_delta, DeltaCatchUp, DeltaLog, SnapshotDelta};
pub use graph::{AppliedDelta, DeltaGraph};
pub use pagerank::DeltaPageRank;
