//! # gpma-incremental — incremental analytics fed by epoch deltas
//!
//! The paper's premise is that dynamic graphs change by *small batches* —
//! yet a read path that republishes full snapshots and recomputes analytics
//! from scratch pays O(E) per epoch no matter how small the batch was.
//! Following the delta-consumption designs of Meerkat (arXiv:2305.17813)
//! and GraphVine (arXiv:2306.08252), this crate closes that gap: the core
//! layer captures each flush's net effect as a [`SnapshotDelta`], the
//! service/cluster layers classify it once against the image it advances
//! and publish the resulting [`NetDelta`]s — which edges were added,
//! reweighted and removed — through bounded rings, and the maintainers
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
//!  service worker / cluster router                      any reader thread
//!  ───────────────────────────────                      ─────────────────
//!  flush → SnapshotDelta                                 IncrementalEngine::catch_up
//!        .classify(image) = NetDelta ──► DeltaLog ─ deltas_since(e) ─► │ then: (e, latest] as one Δ
//!        image.advance(Δ)                                              │ DeltaGraph.apply_at(Δ, latest)
//!        = the published image ────────────── latest ────────────────► ▼ (patches the in-rows)
//!                                       IncrementalBfs / Cc   (repair from Δ's added/removed)
//!                                       DeltaPageRank         (re-sweeps the image)
//! ```
//!
//! The maintainers keep no copy of the edges: a [`DeltaGraph`] is the
//! [`GraphSnapshot`](gpma_core::framework::GraphSnapshot) image it is
//! current with — every forward read is a row lookup in it — plus sorted
//! in-neighbour rows of its own. A reader that holds the published image
//! hands it over ([`IncrementalEngine::rebase_shared`],
//! [`IncrementalEngine::catch_up`], [`IncrementalEngine::apply_at`]) and
//! shares it with every other reader. One that only has blind deltas
//! ([`IncrementalEngine::apply`]) classifies each against its image and
//! advances a private image by the same O(|Δ|) steps the service takes.
//!
//! ## Example: a live engine pulling from a streaming service
//!
//! ```
//! use std::sync::Arc;
//!
//! use gpma_core::framework::DynamicGraphSystem;
//! use gpma_graph::Edge;
//! use gpma_incremental::{CatchUp, IncrementalEngine};
//! use gpma_service::{ServiceConfig, StreamingService};
//! use gpma_sim::{Device, DeviceConfig};
//!
//! let dev = Device::new(DeviceConfig::deterministic());
//! let sys = DynamicGraphSystem::new(dev, 64, &[Edge::new(0, 1)], 4);
//! let svc = StreamingService::spawn(ServiceConfig::default(), sys);
//!
//! let mut engine = IncrementalEngine::new()
//!     .with_bfs(0)
//!     .with_cc()
//!     .with_pagerank(0.85, 1e-6);
//! engine.rebase_shared(svc.snapshot());
//!
//! let h = svc.handle();
//! for i in 1..16u32 {
//!     h.insert(Edge::new(i, i + 1)).unwrap();
//! }
//! let latest = svc.barrier().unwrap();
//!
//! // Pull: every epoch since the engine's, composed into one delta.
//! let pulled = engine.catch_up(latest.clone(), svc.deltas_since(engine.graph().epoch()));
//! assert!(matches!(pulled, CatchUp::Applied(_)));
//! assert!(Arc::ptr_eq(engine.graph().image(), &latest), "adopted, not copied");
//! let reachable = engine.bfs().unwrap().distances().iter().filter(|&&d| d != u32::MAX).count();
//! assert_eq!(reachable, 17);
//! svc.shutdown();
//! ```
//!
//! A `gpma-cluster` reader pulls the same way: the latest cut's image and
//! the cut chain of `GraphCluster::deltas_since`, one delta per
//! coordinated cut. When a reader outruns a delta ring, or crosses a
//! reshard's marker cut, the publisher hands a full snapshot instead and
//! [`catch_up`](IncrementalEngine::catch_up) rebases on it.

#![warn(missing_docs)]

mod bfs;
mod cc;
mod engine;
mod graph;
mod pagerank;

pub use bfs::IncrementalBfs;
pub use cc::IncrementalCc;
pub use engine::{CatchUp, EngineStats, IncrementalEngine};
pub use gpma_core::delta::{apply_delta, DeltaCatchUp, DeltaLog, NetDelta, SnapshotDelta};
pub use graph::DeltaGraph;
pub use pagerank::DeltaPageRank;
