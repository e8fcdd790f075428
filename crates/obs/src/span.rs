//! RAII span timers: construct a [`SpanGuard`] at stage entry, and its
//! `Drop` records the elapsed wall-clock into the stage's histogram.
//!
//! The guard is two words (an optional histogram reference and a start
//! instant); [`SpanGuard::cancel`] clears it so the drop records nothing.

use crate::histogram::Histogram;
use std::time::Instant;

/// A running span timer. Records `elapsed µs` into its histogram when
/// dropped, unless cancelled.
#[derive(Debug)]
#[must_use = "a span guard measures until dropped — bind it with `let _span = …`"]
pub struct SpanGuard<'a> {
    inner: Option<(&'a Histogram, Instant)>,
}

impl<'a> SpanGuard<'a> {
    /// A live span recording into `hist` on drop.
    pub fn active(hist: &'a Histogram) -> Self {
        SpanGuard {
            inner: Some((hist, Instant::now())),
        }
    }

    /// End the span early without recording (e.g. an aborted stage whose
    /// partial time would pollute the distribution).
    pub fn cancel(mut self) {
        self.inner = None;
    }
}

impl Drop for SpanGuard<'_> {
    // lint: hot-path
    fn drop(&mut self) {
        if let Some((hist, start)) = self.inner.take() {
            hist.record(start.elapsed().as_micros() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_span_records_once_on_drop() {
        let h = Histogram::new();
        {
            let _span = SpanGuard::active(&h);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(h.count(), 1);
        assert!(h.max() >= 1_000, "recorded {} µs, expected ≥ 1 ms", h.max());
    }

    #[test]
    fn cancelled_span_records_nothing() {
        let h = Histogram::new();
        let span = SpanGuard::active(&h);
        span.cancel();
        assert_eq!(h.count(), 0);
    }
}
