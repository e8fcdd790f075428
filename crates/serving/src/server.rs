//! The query server: admission control, the worker pool, and the cached
//! read path, assembled over any [`ServingBackend`].
//!
//! Life of a query:
//!
//! ```text
//! submit ──► tenant lookup ──► query token bucket ──► bounded queue
//!               │quota shed         │quota shed          │full shed
//!               ▼                   ▼                    ▼
//!          QuotaExceeded       QuotaExceeded          QueueFull
//!                                               worker picks job
//!                                                      │ deadline gone? ─► Deadline
//!                                                      ▼
//!                                        cache refresh (tail delta ring)
//!                                            hit? ──► clone Arc, done
//!                                                     (a stale BFS entry is
//!                                                      repaired first)
//!                                            miss ──► execute(), memoize
//!                                           point ──► execute() on the image
//! ```
//!
//! Admission *sheds, never blocks*: every rejection is a typed
//! [`Rejected`] returned synchronously from [`QueryServer::submit`], so an
//! over-quota tenant burns its own budget without occupying worker time or
//! queue slots that other tenants need.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use gpma_obs::{Registry, Stage};

use crate::backend::ServingBackend;
use crate::cache::{CacheStats, ResultCache};
use crate::executor::{Executor, Ticket};
use crate::metrics::{ServingMetrics, TenantCounters};
use crate::query::{execute, PageRankParams, Query, QueryResult};
use crate::tenant::{TenantConfig, TokenBucket};

/// Why a query was not answered. The first three are the admission shed
/// reasons (`QueueFull`, `QuotaExceeded`, `Deadline`); `Cancelled` and
/// `Closed` are client- and lifecycle-driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The bounded executor queue was at capacity.
    QueueFull,
    /// The tenant's token bucket was empty (or the tenant id is unknown,
    /// which is a zero-quota tenant by definition).
    QuotaExceeded,
    /// The per-query deadline expired before a worker reached the job.
    Deadline,
    /// The client cancelled the ticket before the job ran.
    Cancelled,
    /// The server or its backend has shut down.
    Closed,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Rejected::QueueFull => "rejected: executor queue full",
            Rejected::QuotaExceeded => "rejected: tenant quota exceeded",
            Rejected::Deadline => "rejected: deadline expired",
            Rejected::Cancelled => "rejected: cancelled by client",
            Rejected::Closed => "rejected: server closed",
        })
    }
}

impl std::error::Error for Rejected {}

/// Query-server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Worker threads executing queries.
    pub workers: usize,
    /// Bounded submission-queue capacity (admission sheds beyond it).
    pub queue_capacity: usize,
    /// Deadline applied by [`QueryServer::submit`] (use
    /// [`submit_with_deadline`](QueryServer::submit_with_deadline) to
    /// override per query).
    pub default_deadline: Duration,
    /// Enable the delta-maintained result cache.
    pub cache: bool,
    /// BFS roots whose cached answers are never evicted. Every memoized
    /// BFS answer is repaired on its next lookup from the net change since
    /// it was exact; one at another root is dropped at a refresh when BFS
    /// queries were asked since the refresh before and it was not.
    pub bfs_roots: Vec<u32>,
    /// Server-wide PageRank execution parameters.
    pub pagerank: PageRankParams,
    /// Registered tenants; index order assigns tenant ids `0..n`.
    pub tenants: Vec<TenantConfig>,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            workers: 2,
            queue_capacity: 64,
            default_deadline: Duration::from_secs(1),
            cache: true,
            bfs_roots: Vec::new(),
            pagerank: PageRankParams::default(),
            tenants: vec![TenantConfig::unlimited("default")],
        }
    }
}

/// The completion handle a submission returns: wait, poll, or cancel.
pub type QueryTicket = Ticket<Result<QueryResult, Rejected>>;

struct TenantState {
    name: String,
    query_bucket: Mutex<TokenBucket>,
    ingest_bucket: Mutex<TokenBucket>,
    stats: TenantCounters,
}

struct ServerShared {
    cache: Option<Mutex<ResultCache>>,
    tenants: Vec<TenantState>,
    obs: Arc<Registry>,
    pagerank: PageRankParams,
    default_deadline: Duration,
}

/// The serving front over a [`ServingBackend`]: multi-tenant admission,
/// a bounded worker pool, and the memoized read path.
pub struct QueryServer<B: ServingBackend> {
    backend: Arc<B>,
    exec: Executor,
    shared: Arc<ServerShared>,
}

impl<B: ServingBackend> QueryServer<B> {
    /// Spawn a server over `backend` with a fresh private obs registry.
    pub fn spawn(backend: Arc<B>, cfg: ServingConfig) -> Self {
        Self::spawn_with_obs(backend, cfg, Arc::new(Registry::new()))
    }

    /// [`spawn`](Self::spawn), recording `query.*` stage latencies into a
    /// caller-provided registry (share one with the ingest pipeline to get
    /// a single exposition page).
    pub fn spawn_with_obs(backend: Arc<B>, cfg: ServingConfig, obs: Arc<Registry>) -> Self {
        let initial = backend.latest();
        let cache = if cfg.cache {
            Some(Mutex::new(ResultCache::new(initial, cfg.bfs_roots.clone())))
        } else {
            None
        };
        let tenants = cfg
            .tenants
            .iter()
            .map(|t| TenantState {
                name: t.name.clone(),
                query_bucket: Mutex::new(TokenBucket::new(t.query_rate, t.query_burst)),
                ingest_bucket: Mutex::new(TokenBucket::new(t.ingest_rate, t.ingest_burst)),
                stats: TenantCounters::default(),
            })
            .collect();
        QueryServer {
            backend,
            exec: Executor::new(cfg.workers, cfg.queue_capacity),
            shared: Arc::new(ServerShared {
                cache,
                tenants,
                obs,
                pagerank: cfg.pagerank,
                default_deadline: cfg.default_deadline,
            }),
        }
    }

    /// Tenant id for `name`, if registered.
    pub fn tenant_id(&self, name: &str) -> Option<u32> {
        self.shared
            .tenants
            .iter()
            .position(|t| t.name == name)
            .map(|i| i as u32)
    }

    /// Submit `query` for `tenant` under the config's default deadline.
    pub fn submit(&self, tenant: u32, query: Query) -> Result<QueryTicket, Rejected> {
        self.submit_with_deadline(tenant, query, self.shared.default_deadline)
    }

    /// Submit with an explicit deadline. The admission decision (quota +
    /// queue) happens synchronously on the caller's thread and sheds with
    /// a typed [`Rejected`]; on `Ok` the returned ticket completes with
    /// the result, a [`Rejected::Deadline`], or a
    /// [`Rejected::Cancelled`].
    pub fn submit_with_deadline(
        &self,
        tenant: u32,
        query: Query,
        deadline: Duration,
    ) -> Result<QueryTicket, Rejected> {
        let t_submit = Instant::now();
        let _admit = self.shared.obs.span(Stage::QueryAdmit);
        let Some(state) = self.shared.tenants.get(tenant as usize) else {
            // An unregistered tenant has no quota at all.
            return Err(Rejected::QuotaExceeded);
        };
        bump(&state.stats.submitted);
        if !lock_bucket(&state.query_bucket).try_take(1.0) {
            bump(&state.stats.rejected_quota);
            return Err(Rejected::QuotaExceeded);
        }
        let ticket = QueryTicket::new();
        let job_ticket = ticket.clone();
        let shared = Arc::clone(&self.shared);
        let backend = Arc::clone(&self.backend);
        let deadline_at = t_submit + deadline;
        let accepted = self.exec.try_submit(move || {
            run_query(
                &shared,
                &*backend,
                tenant,
                query,
                deadline_at,
                t_submit,
                &job_ticket,
            );
        });
        if !accepted {
            bump(&state.stats.rejected_queue_full);
            return Err(Rejected::QueueFull);
        }
        bump(&state.stats.admitted);
        Ok(ticket)
    }

    /// Offer an update batch through `tenant`'s ingest quota. Costs one
    /// token per update (insert or delete), all-or-nothing. `Ok(false)`
    /// means the quota admitted the batch but the backend's bounded ingest
    /// queue shed it.
    pub fn ingest(&self, tenant: u32, batch: gpma_graph::UpdateBatch) -> Result<bool, Rejected> {
        let Some(state) = self.shared.tenants.get(tenant as usize) else {
            return Err(Rejected::QuotaExceeded);
        };
        let cost = (batch.insertions.len() + batch.deletions.len()) as u64;
        if !lock_bucket(&state.ingest_bucket).try_take(cost as f64) {
            state
                .stats
                .ingest_shed
                .fetch_add(cost, std::sync::atomic::Ordering::Relaxed);
            return Err(Rejected::QuotaExceeded);
        }
        match self.backend.offer(batch) {
            Ok(true) => {
                state
                    .stats
                    .ingested
                    .fetch_add(cost, std::sync::atomic::Ordering::Relaxed);
                Ok(true)
            }
            Ok(false) => {
                state
                    .stats
                    .ingest_shed
                    .fetch_add(cost, std::sync::atomic::Ordering::Relaxed);
                Ok(false)
            }
            Err(_) => Err(Rejected::Closed),
        }
    }

    /// Point-in-time serving metrics across every tenant plus cache state.
    pub fn metrics(&self) -> ServingMetrics {
        assemble_metrics(&self.shared, &*self.backend)
    }

    /// The registry receiving `query.*` stage latencies.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.shared.obs
    }

    /// Jobs currently queued (admitted, not yet picked up).
    pub fn queue_depth(&self) -> usize {
        self.exec.queue_depth()
    }

    /// Drain every admitted query (all outstanding tickets complete), join
    /// the workers, and return the final metrics. The backend is left
    /// running — it belongs to the caller.
    pub fn shutdown(self) -> ServingMetrics {
        let QueryServer {
            backend,
            exec,
            shared,
        } = self;
        exec.shutdown();
        assemble_metrics(&shared, &*backend)
    }
}

fn bump(c: &std::sync::atomic::AtomicU64) {
    c.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
}

fn lock_bucket(b: &Mutex<TokenBucket>) -> std::sync::MutexGuard<'_, TokenBucket> {
    b.lock().unwrap_or_else(PoisonError::into_inner)
}

fn assemble_metrics<B: ServingBackend>(shared: &ServerShared, backend: &B) -> ServingMetrics {
    let (epoch, cache_entries, cache) = match &shared.cache {
        Some(c) => {
            let guard = c.lock().unwrap_or_else(PoisonError::into_inner);
            (guard.epoch(), guard.len(), guard.stats())
        }
        None => (backend.latest().epoch(), 0, CacheStats::default()),
    };
    ServingMetrics {
        tenants: shared
            .tenants
            .iter()
            .map(|t| t.stats.snapshot(&t.name))
            .collect(),
        epoch,
        cache_entries,
        cache,
    }
}

/// The worker-side query path. Runs on a pool thread; must complete the
/// ticket on every exit path (the executor drains accepted jobs on
/// shutdown, so "accepted" implies "ticket completes").
fn run_query<B: ServingBackend>(
    shared: &ServerShared,
    backend: &B,
    tenant: u32,
    query: Query,
    deadline_at: Instant,
    t_submit: Instant,
    ticket: &QueryTicket,
) {
    let stats = &shared.tenants[tenant as usize].stats;
    if ticket.is_cancelled() {
        bump(&stats.cancelled);
        ticket.complete(Err(Rejected::Cancelled));
        return;
    }
    if Instant::now() >= deadline_at {
        bump(&stats.rejected_deadline);
        shared
            .obs
            .record_duration(Stage::QueryTotal, t_submit.elapsed());
        ticket.complete(Err(Rejected::Deadline));
        return;
    }
    let result = match &shared.cache {
        Some(cache_lock) => {
            let mut guard = cache_lock.lock().unwrap_or_else(PoisonError::into_inner);
            let t0 = Instant::now();
            let latest = backend.latest();
            if latest.epoch() > guard.epoch() {
                // Tail the delta ring up to the published snapshot. The
                // backend calls here are leaf operations (their own locks
                // are internal and never taken around the cache lock), so
                // holding the cache lock across them cannot deadlock.
                let catchup = backend.deltas_since(guard.epoch());
                guard.refresh(latest, catchup);
            }
            if let Some(hit) = guard.lookup(tenant, query) {
                let result = hit.clone();
                drop(guard);
                shared.obs.record_duration(Stage::QueryCacheHit, t0.elapsed());
                bump(&stats.cache_hits);
                result
            } else {
                // A miss, or a point query: execute on the refreshed image
                // outside the lock.
                let snap = guard.snapshot().clone();
                let epoch = guard.epoch();
                drop(guard);
                let t1 = Instant::now();
                let result = execute(query, &snap, shared.pagerank);
                shared.obs.record_duration(Stage::QueryExec, t1.elapsed());
                bump(&stats.cache_misses);
                if ResultCache::memoizes(query) {
                    let mut guard = cache_lock.lock().unwrap_or_else(PoisonError::into_inner);
                    if guard.epoch() == epoch {
                        // Only memoize if no refresh advanced the cache
                        // while we computed — a stale entry would poison
                        // later hits.
                        guard.insert(tenant, query, result.clone());
                    }
                }
                result
            }
        }
        None => {
            let t1 = Instant::now();
            let result = execute(query, &backend.latest(), shared.pagerank);
            shared.obs.record_duration(Stage::QueryExec, t1.elapsed());
            bump(&stats.cache_misses);
            result
        }
    };
    shared
        .obs
        .record_duration(Stage::QueryTotal, t_submit.elapsed());
    ticket.complete(Ok(result));
}
