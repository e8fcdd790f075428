//! Per-tenant serving accounting: lock-free counters updated on the
//! admission and execution paths, snapshotted into [`TenantMetrics`] /
//! [`ServingMetrics`] reports.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::cache::CacheStats;

/// Live per-tenant counters (crate-internal; snapshot via
/// [`TenantCounters::snapshot`]).
#[derive(Debug, Default)]
pub(crate) struct TenantCounters {
    pub submitted: AtomicU64,
    pub admitted: AtomicU64,
    pub rejected_queue_full: AtomicU64,
    pub rejected_quota: AtomicU64,
    pub rejected_deadline: AtomicU64,
    pub cancelled: AtomicU64,
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    pub ingested: AtomicU64,
    pub ingest_shed: AtomicU64,
}

impl TenantCounters {
    pub(crate) fn snapshot(&self, name: &str) -> TenantMetrics {
        TenantMetrics {
            name: name.to_string(),
            submitted: self.submitted.load(Relaxed),
            admitted: self.admitted.load(Relaxed),
            rejected_queue_full: self.rejected_queue_full.load(Relaxed),
            rejected_quota: self.rejected_quota.load(Relaxed),
            rejected_deadline: self.rejected_deadline.load(Relaxed),
            cancelled: self.cancelled.load(Relaxed),
            cache_hits: self.cache_hits.load(Relaxed),
            cache_misses: self.cache_misses.load(Relaxed),
            ingested: self.ingested.load(Relaxed),
            ingest_shed: self.ingest_shed.load(Relaxed),
        }
    }
}

/// One tenant's point-in-time serving accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantMetrics {
    /// Tenant display name.
    pub name: String,
    /// Queries submitted (admitted + rejected).
    pub submitted: u64,
    /// Queries accepted into the executor queue.
    pub admitted: u64,
    /// Queries shed because the executor queue was full.
    pub rejected_queue_full: u64,
    /// Queries shed by the query token bucket.
    pub rejected_quota: u64,
    /// Admitted queries that expired before a worker reached them.
    pub rejected_deadline: u64,
    /// Admitted queries cancelled by the client before execution.
    pub cancelled: u64,
    /// Queries answered from the delta-maintained result cache.
    pub cache_hits: u64,
    /// Queries computed fresh from the latest snapshot.
    pub cache_misses: u64,
    /// Updates accepted into the backend via this tenant's ingest quota.
    pub ingested: u64,
    /// Updates shed (ingest quota, or the backend queue was full).
    pub ingest_shed: u64,
}

impl TenantMetrics {
    /// Queries rejected for any reason (quota, queue, deadline).
    pub fn rejected(&self) -> u64 {
        self.rejected_queue_full + self.rejected_quota + self.rejected_deadline
    }

    /// Queries that produced an answer (hit or miss).
    pub fn completed(&self) -> u64 {
        self.cache_hits + self.cache_misses
    }

    /// Fraction of completed queries served from the cache (`0.0` when
    /// none completed).
    pub fn hit_rate(&self) -> f64 {
        let done = self.completed();
        if done == 0 {
            0.0
        } else {
            self.cache_hits as f64 / done as f64
        }
    }

    /// Accumulate another tenant's counters into this one (for totals).
    fn absorb(&mut self, other: &TenantMetrics) {
        self.submitted += other.submitted;
        self.admitted += other.admitted;
        self.rejected_queue_full += other.rejected_queue_full;
        self.rejected_quota += other.rejected_quota;
        self.rejected_deadline += other.rejected_deadline;
        self.cancelled += other.cancelled;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.ingested += other.ingested;
        self.ingest_shed += other.ingest_shed;
    }
}

/// A point-in-time report over the whole serving front: every tenant plus
/// the shared cache's state (see
/// [`QueryServer::metrics`](crate::QueryServer::metrics)).
#[derive(Debug, Clone)]
pub struct ServingMetrics {
    /// Per-tenant accounting, index-aligned with tenant ids.
    pub tenants: Vec<TenantMetrics>,
    /// Epoch the result cache is pinned to (the latest refresh's snapshot
    /// epoch; the backend's latest epoch when the cache is disabled).
    pub epoch: u64,
    /// Entries currently memoized.
    pub cache_entries: usize,
    /// Cache maintenance counters (refreshes, invalidations, repairs,
    /// full flushes).
    pub cache: CacheStats,
}

impl ServingMetrics {
    /// All tenants' counters summed (named `total`).
    pub fn totals(&self) -> TenantMetrics {
        let mut t = TenantMetrics {
            name: "total".to_string(),
            ..TenantMetrics::default()
        };
        for m in &self.tenants {
            t.absorb(m);
        }
        t
    }
}

impl std::fmt::Display for ServingMetrics {
    // Rendered through the shared `gpma_obs::LineReport` builder so the
    // service, cluster and serving one-liners keep one field-order/unit
    // convention.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let t = self.totals();
        let line = gpma_obs::LineReport::new(
            "serving",
            format_args!("{} tenants", self.tenants.len()),
        )
        .field("epoch", self.epoch)
        .field("queries", t.submitted)
        .annotate(format_args!(
            "{} admitted, {} shed ({} quota / {} queue / {} deadline)",
            t.admitted, t.rejected(), t.rejected_quota, t.rejected_queue_full, t.rejected_deadline,
        ))
        .group()
        .field("completed", t.completed())
        .annotate(format_args!(
            "{:.1}% cache hits, {} entries",
            t.hit_rate() * 100.0,
            self.cache_entries
        ))
        .group()
        .field("ingested", t.ingested)
        .annotate(format_args!("{} shed", t.ingest_shed))
        .group()
        .raw(format_args!(
            "cache {} refreshes, {} invalidated, {} repaired, {} flushes",
            self.cache.refreshes,
            self.cache.invalidations,
            self.cache.repairs,
            self.cache.flushes
        ))
        .finish();
        f.write_str(&line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant(hits: u64, misses: u64) -> TenantMetrics {
        TenantMetrics {
            name: "t".into(),
            submitted: hits + misses + 3,
            admitted: hits + misses,
            rejected_queue_full: 1,
            rejected_quota: 2,
            rejected_deadline: 0,
            cancelled: 0,
            cache_hits: hits,
            cache_misses: misses,
            ingested: 10,
            ingest_shed: 5,
        }
    }

    #[test]
    fn rates_and_totals() {
        let m = ServingMetrics {
            tenants: vec![tenant(6, 2), tenant(0, 4)],
            epoch: 9,
            cache_entries: 3,
            cache: CacheStats::default(),
        };
        let t = m.totals();
        assert_eq!(t.submitted, 18);
        assert_eq!(t.rejected(), 6);
        assert_eq!(t.completed(), 12);
        assert!((t.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(t.ingested, 20);
        let line = m.to_string();
        assert!(line.contains("epoch 9") && line.contains("50.0% cache hits"), "{line}");
        assert!(line.contains("0 invalidated, 0 repaired"), "{line}");
    }

    #[test]
    fn empty_report_divides_safely() {
        let m = ServingMetrics {
            tenants: Vec::new(),
            epoch: 0,
            cache_entries: 0,
            cache: CacheStats::default(),
        };
        assert_eq!(m.totals().hit_rate(), 0.0);
    }
}
