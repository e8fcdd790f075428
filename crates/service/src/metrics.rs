//! The [`ServiceMetrics`] report: cumulative [`ServiceCounters`] plus the
//! live gauges (queue depth, latest epoch, service age) and derived rates.

use gpma_sim::ServiceCounters;

/// Cumulative read-path publication accounting: what the worker shipped as
/// epoch deltas and what advancing the published image by them copied —
/// both O(|Δ|) per flush. Every flush publishes one delta and one image, so
/// [`ServiceCounters::flushes`] counts both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublicationStats {
    /// Modeled bytes shipped by delta publication.
    pub delta_bytes: u64,
    /// Modeled bytes image publication copied: 8 per publish plus
    /// [`BYTES_PER_EDGE`](gpma_core::delta::BYTES_PER_EDGE) for every edge
    /// of every row block the publish wrote — the blocks its delta changed
    /// and the blocks it moved to keep the image's garbage bounded
    /// (`gpma_core::image`), not the graph. The per-publish copy of the
    /// block vector (O(V / rows-per-block), no edge data) is not counted.
    pub snapshot_bytes: u64,
}

/// A point-in-time metrics report from a running
/// [`StreamingService`](crate::StreamingService).
///
/// Counters accumulate from service start; gauges (`queue_depth`,
/// `latest_epoch`) are sampled at the moment of the
/// [`metrics()`](crate::StreamingService::metrics) call. The `Display`
/// impl renders a one-line operational summary.
#[derive(Debug, Clone)]
pub struct ServiceMetrics {
    /// Cumulative ingest/flush/drop counters (see [`ServiceCounters`]).
    pub counters: ServiceCounters,
    /// Commands queued at sampling time (backpressure gauge).
    pub queue_depth: usize,
    /// Epoch of the latest published snapshot.
    pub latest_epoch: u64,
    /// Host wall-clock seconds since the service was spawned.
    pub elapsed_secs: f64,
    /// Delta-vs-snapshot publication accounting.
    pub publication: PublicationStats,
    /// Errors the worker thread recovered from instead of panicking.
    /// Non-zero means the worker degraded gracefully somewhere — worth
    /// investigating, never fatal.
    pub worker_errors: u64,
}

impl ServiceMetrics {
    /// Updates accepted per wall-clock second since spawn.
    pub fn ingest_throughput(&self) -> f64 {
        self.counters.ingest_throughput(self.elapsed_secs)
    }

    /// Mean wall-clock flush latency in seconds (0 before the first flush).
    pub fn avg_flush_latency_secs(&self) -> f64 {
        self.counters.avg_flush_wall_secs()
    }
}

impl std::fmt::Display for ServiceMetrics {
    // Rendered through the shared `gpma_obs::LineReport` builder so the
    // service and cluster one-liners keep one field-order/unit convention.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let line = gpma_obs::LineReport::new("service", format_args!("epoch {}", self.latest_epoch))
            .field("ingested", self.counters.ingested())
            .annotate(format_args!("{:.0}/s", self.ingest_throughput()))
            .field("flushes", self.counters.flushes)
            .annotate(format_args!(
                "avg {:.2} ms, sim update {:.2} ms / analytics {:.2} ms",
                self.avg_flush_latency_secs() * 1e3,
                self.counters.update_sim.millis(),
                self.counters.analytics_sim.millis(),
            ))
            .field("queue", self.queue_depth)
            .annotate(format_args!("max {}", self.counters.max_queue_depth))
            .group()
            .field("dropped", self.counters.dropped_updates)
            .field("duplicates", self.counters.duplicate_edges)
            .field("queries", self.counters.queries)
            .group()
            .raw(format_args!("published {} deltas", self.counters.flushes))
            .annotate(format_args!("{}", gpma_obs::fmt_bytes(self.publication.delta_bytes)))
            .raw("images")
            .annotate(format_args!("{}", gpma_obs::fmt_bytes(self.publication.snapshot_bytes)))
            .group()
            .field("worker errors", self.worker_errors)
            .finish();
        f.write_str(&line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_sim::SimTime;

    fn sample() -> ServiceMetrics {
        let mut counters = ServiceCounters {
            ingested_inserts: 90,
            ingested_deletes: 10,
            dropped_updates: 25,
            ..Default::default()
        };
        counters.record_flush(0.002, 3, SimTime(0.5), SimTime(0.25));
        ServiceMetrics {
            counters,
            queue_depth: 7,
            latest_epoch: 1,
            elapsed_secs: 50.0,
            publication: PublicationStats {
                delta_bytes: 200,
                snapshot_bytes: 1000,
            },
            worker_errors: 0,
        }
    }

    #[test]
    fn derived_rates() {
        let m = sample();
        assert_eq!(m.ingest_throughput(), 2.0);
        assert_eq!(m.avg_flush_latency_secs(), 0.002);
        let line = m.to_string();
        assert!(line.contains("epoch 1"), "{line}");
        assert!(line.contains("dropped 25"), "{line}");
        assert!(line.contains("duplicates 3"), "{line}");
    }

    #[test]
    fn zero_states_do_not_divide_by_zero() {
        let m = ServiceMetrics {
            counters: ServiceCounters::default(),
            queue_depth: 0,
            latest_epoch: 0,
            elapsed_secs: 0.0,
            publication: PublicationStats::default(),
            worker_errors: 0,
        };
        assert_eq!(m.ingest_throughput(), 0.0);
        assert_eq!(m.avg_flush_latency_secs(), 0.0);
    }

    #[test]
    fn publication_stats_appear_in_the_summary_line() {
        let m = sample();
        let line = m.to_string();
        // One flush published one delta and one image.
        assert!(line.contains("published 1 deltas (200 B), images (1000 B)"), "{line}");
    }
}
