//! # gpma-service — a concurrent streaming-service facade over GPMA+
//!
//! The paper's headline scenario (§1, §6.5) is a GPU that *absorbs
//! concurrent update streams while analytics run against fresh, consistent
//! state*. The framework crate ([`gpma_core::framework`]) provides the
//! single-threaded machinery — stream buffer, batch flush, monitors, PCIe
//! pipeline; this crate turns it into a service:
//!
//! ```text
//!  producer threads                 service worker              readers
//!  ───────────────                  ──────────────              ───────
//!  IngestHandle ─┐   bounded        ┌─────────────────┐
//!  IngestHandle ─┼─► MPMC queue ──► │ GraphStreamBuffer│  flush  ┌──────────────┐
//!  IngestHandle ─┘  (backpressure)  │  → GPMA+ update  │ ──────► │ GraphSnapshot │──► query()
//!                                   │  → monitors      │  epoch  │  (Arc, immut) │
//!                                   └─────────────────┘  N → N+1 ├──────────────┤
//!                                                                │  delta ring   │──► deltas_since()
//!                                                                └──────────────┘     (readers pull)
//! ```
//!
//! * **Ingest** — any number of producers hold cloneable [`IngestHandle`]s
//!   over one bounded channel. Blocking sends stall producers when the queue
//!   fills (backpressure); the non-blocking `offer_*` variants shed load and
//!   count the drop.
//! * **Worker** — a dedicated thread drains the queue into the framework's
//!   `GraphStreamBuffer` and flushes threshold-sized batches to the (simulated)
//!   device, exactly like the paper's Figure 1 update module.
//! * **Epoch-versioned reads** — after every flush the worker publishes an
//!   immutable, epoch-stamped [`GraphSnapshot`]: the previous image
//!   advanced by the flush's delta, sharing every row block the delta did
//!   not touch, so a publish costs O(|Δ|), not O(E). Queries and delta
//!   readers always see a consistent graph while updates keep flowing. The
//!   store itself is read back only at spawn and at shutdown, where it is
//!   compared with the published image ([`ServiceReport::final_snapshot`]).
//! * **Delta publication** — every flush also publishes its O(|Δ|) net
//!   effect, classified once against the image it advances, as a
//!   [`NetDelta`] into a bounded ring ([`StreamingService::deltas_since`]
//!   catches readers up, falling back to the latest image past the ring).
//!   Readers pull: the `gpma-incremental` crate's
//!   `IncrementalEngine::catch_up` composes a pulled chain into one delta
//!   and repairs live BFS / CC / PageRank from it.
//! * **Failure** — [`StreamingService::inject_failure`] is the fault hook
//!   that kills the worker mid-stream for crash-recovery tests; the front
//!   object keeps serving the last published image, which any caller can
//!   encode with [`gpma_core::checkpoint::encode`]. Any reader in the
//!   process gets a lock-free replica at the latest epoch with one `Arc`
//!   clone of the published image.
//! * **Observability** — [`ServiceMetrics`] reports ingest throughput, flush
//!   latency, queue depth, dropped/duplicate edge counts and the
//!   delta-vs-snapshot publication byte split ([`PublicationStats`]),
//!   built on [`gpma_sim::ServiceCounters`].
//!
//! ## Paper-section mapping
//!
//! | service piece                      | paper concept                                |
//! |------------------------------------|----------------------------------------------|
//! | [`IngestHandle`] + queue           | §3 graph stream buffer (host side)           |
//! | worker flush loop                  | §3 graph update module / Algorithm 4 batches |
//! | [`GraphSnapshot`] epochs           | §6.5 concurrent streams & consistent queries |
//! | [`StreamingService::deltas_since`] | §3 continuous monitoring, pulled by readers  |
//! | [`StreamingService::ad_hoc`]       | §3 dynamic query buffer (serialized reads)   |
//!
//! ## Example: two producers, concurrent queries
//!
//! ```
//! use gpma_core::framework::DynamicGraphSystem;
//! use gpma_graph::Edge;
//! use gpma_service::{ServiceConfig, StreamingService};
//! use gpma_sim::{Device, DeviceConfig};
//!
//! // Assemble the single-threaded system, then hand it to the service.
//! let dev = Device::new(DeviceConfig::deterministic());
//! let sys = DynamicGraphSystem::new(dev, 64, &[Edge::new(0, 1)], 8);
//! let svc = StreamingService::spawn(ServiceConfig::default(), sys);
//!
//! // Two producers stream disjoint edge ranges concurrently.
//! let workers: Vec<_> = (0..2u32)
//!     .map(|p| {
//!         let h = svc.handle();
//!         std::thread::spawn(move || {
//!             for i in 0..16u32 {
//!                 h.insert(Edge::new(1 + p * 16 + i, 0)).unwrap();
//!             }
//!         })
//!     })
//!     .collect();
//!
//! // Reads never block ingest: they run on the latest published snapshot.
//! let live_now = svc.query(|snap| snap.num_edges());
//! assert!(live_now >= 1);
//!
//! for w in workers {
//!     w.join().unwrap();
//! }
//!
//! // A barrier flushes everything accepted so far and returns its snapshot.
//! let snap = svc.barrier().unwrap();
//! assert_eq!(snap.num_edges(), 1 + 32);
//! assert!(snap.epoch() >= 4, "32 updates at threshold 8");
//!
//! let report = svc.shutdown();
//! assert_eq!(report.metrics.counters.ingested(), 32);
//! ```

#![warn(missing_docs)]

mod metrics;
mod service;

pub use gpma_core::delta::{DeltaCatchUp, NetDelta, SnapshotDelta};
pub use gpma_core::framework::GraphSnapshot;
pub use metrics::{PublicationStats, ServiceMetrics};
pub use service::{
    BarrierAck, IngestHandle, ServiceClosed, ServiceConfig, ServiceReport,
    StreamingService,
};
