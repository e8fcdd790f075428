//! `gpma-serving` — the multi-tenant query-serving front over a streaming
//! GPMA+ graph store.
//!
//! Prior crates built the write path of Sha et al., *Accelerating Dynamic
//! Graph Analytics on GPUs* (PVLDB 2017): batched GPMA+ updates, epoch
//! snapshots, incremental maintainers, sharding. This crate builds the
//! *read* side the paper's concurrent-streams design (§6.5) implies but
//! never fleshes out: many tenants issuing analytics queries against the
//! latest published snapshot while ingest keeps running.
//!
//! ```text
//!  tenants ──► admission (token buckets, typed shed) ──► bounded queue
//!                                                            │
//!                                             worker pool  ◄─┘
//!                                                  │
//!                    ┌─────────────────────────────┤
//!                    ▼ hit                         ▼ miss / point query
//!            ResultCache (tails the          execute() on the
//!            backend's delta ring: one       cached epoch's snapshot,
//!            merged delta per refresh;       then memoize whole-graph
//!            refill / stale / invalidate;    answers only
//!            BFS repaired on lookup)
//! ```
//!
//! The pieces:
//!
//! - [`Executor`] / [`Ticket`]: a std-only bounded task pool with
//!   non-blocking submission and waitable/cancellable completion handles
//!   (the seam where a tokio runtime would slot in).
//! - [`Query`] / [`QueryResult`] / [`execute`]: the typed query vocabulary
//!   and its fresh-from-snapshot oracle.
//! - [`ResultCache`]: memoized whole-graph results (BFS, CC, PageRank)
//!   keyed `(tenant, query)`, advanced by tailing [`NetDelta`]s —
//!   every hit is oracle-exact at the current epoch by construction, a BFS
//!   answer repaired on lookup from the net change since it was exact (see
//!   the `cache` module docs). Point queries are
//!   answered by the published image and never memoized.
//! - [`TenantConfig`] / [`TokenBucket`]: per-tenant query and ingest
//!   quotas; admission sheds ([`Rejected`]) and never blocks.
//! - [`ServingBackend`]: the snapshot/delta/ingest contract, implemented
//!   by [`StreamingService`] directly and by [`ClusterBackend`] over a
//!   sharded [`GraphCluster`].
//! - [`QueryServer`]: the assembled front; stage latencies land in
//!   `gpma-obs` under `query.admit`, `query.exec`, `query.cache_hit` and
//!   `query.total`.
//!
//! ## Example: cached queries over a live ingest stream
//!
//! ```
//! use std::sync::Arc;
//!
//! use gpma_core::framework::DynamicGraphSystem;
//! use gpma_graph::{Edge, UpdateBatch};
//! use gpma_service::{ServiceConfig, StreamingService};
//! use gpma_serving::{Query, QueryResult, QueryServer, ServingConfig, TenantConfig};
//! use gpma_sim::{Device, DeviceConfig};
//!
//! let dev = Device::new(DeviceConfig::deterministic());
//! let sys = DynamicGraphSystem::new(dev, 64, &[Edge::new(0, 1)], 4);
//! let svc = Arc::new(StreamingService::spawn(ServiceConfig::default(), sys));
//!
//! let mut cfg = ServingConfig::default();
//! cfg.bfs_roots = vec![0];
//! cfg.tenants = vec![
//!     TenantConfig::unlimited("dashboard"),
//!     TenantConfig::new("batch", 100.0, 10_000.0),
//! ];
//! let server = QueryServer::spawn(Arc::clone(&svc), cfg);
//! let dash = server.tenant_id("dashboard").unwrap();
//!
//! // Ingest flows through the tenant's quota into the service.
//! let batch = UpdateBatch {
//!     insertions: vec![Edge::new(1, 2), Edge::new(2, 3)],
//!     deletions: vec![],
//! };
//! assert_eq!(server.ingest(dash, batch).unwrap(), true);
//! svc.barrier().unwrap();
//!
//! // Submit twice: the second answer is a cache hit at the same epoch.
//! for _ in 0..2 {
//!     let ticket = server.submit(dash, Query::Bfs { src: 0 }).unwrap();
//!     let QueryResult::Distances(d) = ticket.wait().unwrap() else { panic!() };
//!     assert_eq!(d[3], 3, "0→1→2→3");
//! }
//! let m = server.shutdown();
//! assert_eq!(m.totals().cache_hits, 1);
//!
//! // The server released its backend handle; unwrap the Arc to shut down.
//! let report = Arc::into_inner(svc).unwrap().shutdown();
//! assert_eq!(report.metrics.counters.ingested(), 2);
//! ```
//!
//! [`NetDelta`]: gpma_core::delta::NetDelta
//! [`StreamingService`]: gpma_service::StreamingService
//! [`GraphCluster`]: gpma_cluster::GraphCluster

#![warn(missing_docs)]

mod backend;
mod cache;
mod executor;
mod metrics;
mod query;
mod server;
mod tenant;

pub use backend::{BackendClosed, ClusterBackend, ServingBackend};
pub use cache::{CacheStats, ResultCache};
pub use executor::{Executor, Ticket};
pub use metrics::{ServingMetrics, TenantMetrics};
pub use query::{execute, PageRankParams, Query, QueryResult};
pub use server::{QueryServer, QueryTicket, Rejected, ServingConfig};
pub use tenant::{TenantConfig, TokenBucket};
