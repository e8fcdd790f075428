//! # gpma-obs — the observability spine (DESIGN.md §13)
//!
//! Unified tracing, latency histograms, and pipeline-stage telemetry for
//! the GPMA workspace. Std-only (no deps, vendored or otherwise) so every
//! crate can take it as a dependency without widening the offline
//! surface.
//!
//! The pieces:
//!
//! * [`Histogram`] — HDR-style log-bucketed latency histogram: lock-free,
//!   allocation-free recording (gpma-lint's hot-path rule covers it) with
//!   p50/p90/p99/p999 quantiles exact to one sub-bucket (~3% relative).
//! * [`Stage`] — the closed static registry of instrumented pipeline
//!   stages (ingest enqueue, flush drain/apply/publish, router
//!   route/forward, cut barrier/publish, reshard quiesce/migrate/resume,
//!   recovery detect/restore/replay, query admit/exec/cache-hit/total).
//! * [`SpanGuard`] — two-word RAII span timer; drop records elapsed µs.
//! * [`ObsEvent`] — structured timeline events in a bounded ring.
//! * [`Registry`] — one histogram per stage + the ring + renderers:
//!   Prometheus text exposition ([`Registry::render_prometheus`],
//!   validated by [`parse_exposition`]) and a human-readable table
//!   ([`Registry::render_table`]).
//! * [`LineReport`] — the shared one-line metrics formatter
//!   `ServiceMetrics` and `ClusterMetrics` both render `Display` through.
//!
//! A registry is always on: every span reads the clock and every record
//! lands. The repo benchmark measures telemetry's cost with its own
//! tracer, not by switching a registry off.

#![warn(missing_docs)]

mod fmt;
mod histogram;
mod registry;
mod span;
mod stage;

pub use fmt::{fmt_bytes, fmt_micros, LineReport};
pub use histogram::{HistSnapshot, Histogram, NUM_BUCKETS, SUB_BUCKETS};
pub use registry::{parse_exposition, Registry, DEFAULT_EVENT_CAP};
pub use span::SpanGuard;
pub use stage::{EventKind, ObsEvent, Stage, NO_SHARD};

#[cfg(test)]
mod proptests {
    use crate::Histogram;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        // The quantile contract against a sorted oracle: for any sample
        // set, reported p50/p99 must be ≥ the oracle order statistic and
        // within one sub-bucket's relative width above it.
        fn quantiles_track_sorted_oracle(samples in prop::collection::vec(0u64..2_000_000, 1..400)) {
            let h = Histogram::new();
            for &v in &samples {
                h.record(v);
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for q in [0.5f64, 0.99] {
                let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                let oracle = sorted[rank - 1];
                let got = h.quantile(q);
                prop_assert!(got >= oracle, "q{q}: {got} < oracle {oracle}");
                let bound = oracle as f64 * (1.0 + 1.0 / crate::SUB_BUCKETS as f64) + 1.0;
                prop_assert!(
                    (got as f64) <= bound,
                    "q{q}: {got} overshoots oracle {oracle} beyond one sub-bucket (bound {bound})"
                );
            }
        }

        // count/sum/min/max are exact regardless of bucketing.
        fn moments_are_exact(samples in prop::collection::vec(0u64..u64::MAX / 1024, 1..200)) {
            let h = Histogram::new();
            for &v in &samples {
                h.record(v);
            }
            prop_assert_eq!(h.count(), samples.len() as u64);
            prop_assert_eq!(h.sum(), samples.iter().sum::<u64>());
            prop_assert_eq!(h.min(), *samples.iter().min().unwrap());
            prop_assert_eq!(h.max(), *samples.iter().max().unwrap());
        }
    }
}
