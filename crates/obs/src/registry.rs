//! The [`Registry`]: one histogram per [`Stage`], a bounded structured
//! event ring, and the renderers (Prometheus text exposition, aligned
//! table for humans).

use crate::fmt::fmt_micros;
use crate::histogram::{HistSnapshot, Histogram};
use crate::span::SpanGuard;
use crate::stage::{EventKind, ObsEvent, Stage};
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Default capacity of the structured-event ring.
pub const DEFAULT_EVENT_CAP: usize = 1024;

/// Bounded event ring: keeps the most recent `cap` events, counts what it
/// overwrote.
#[derive(Debug)]
struct EventRing {
    buf: Vec<ObsEvent>,
    cap: usize,
    /// Next write position once `buf` is full.
    head: usize,
    dropped: u64,
}

impl EventRing {
    fn new(cap: usize) -> Self {
        EventRing {
            buf: Vec::with_capacity(cap.max(1)),
            cap: cap.max(1),
            head: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, ev: ObsEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Events oldest → newest.
    fn ordered(&self) -> Vec<ObsEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

/// The telemetry hub one service or cluster owns (usually behind an
/// `Arc`): per-stage histograms, span construction, the event ring, and
/// every renderer.
#[derive(Debug)]
pub struct Registry {
    start: Instant,
    hists: Vec<Histogram>,
    events: Mutex<EventRing>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A registry with the default event capacity.
    pub fn new() -> Self {
        Self::with_event_capacity(DEFAULT_EVENT_CAP)
    }

    /// A registry whose event ring keeps `cap` events.
    pub fn with_event_capacity(cap: usize) -> Self {
        Registry {
            start: Instant::now(),
            hists: (0..Stage::COUNT).map(|_| Histogram::new()).collect(),
            events: Mutex::new(EventRing::new(cap)),
        }
    }

    /// The stage's histogram.
    pub fn hist(&self, stage: Stage) -> &Histogram {
        &self.hists[stage.index()]
    }

    /// Start a span for `stage`.
    #[inline]
    pub fn span(&self, stage: Stage) -> SpanGuard<'_> {
        SpanGuard::active(&self.hists[stage.index()])
    }

    /// Record a raw sample for `stage` (a pre-measured duration in µs).
    #[inline]
    pub fn record(&self, stage: Stage, value: u64) {
        self.hists[stage.index()].record(value);
    }

    /// Record a wall-clock duration for `stage`, in microseconds.
    #[inline]
    pub fn record_duration(&self, stage: Stage, d: std::time::Duration) {
        self.record(stage, d.as_micros() as u64);
    }

    /// Append a structured timeline event (timestamped since registry
    /// creation). Kept off the span record path: callers emit events at
    /// stage boundaries, not per sample.
    pub fn event(&self, stage: Stage, shard: u32, epoch: u64, kind: EventKind, value: u64) {
        let ev = ObsEvent {
            ts: self.start.elapsed().as_micros() as u64,
            stage,
            shard,
            epoch,
            kind,
            value,
        };
        if let Ok(mut ring) = self.events.lock() {
            ring.push(ev);
        }
    }

    /// The ring's events, oldest → newest.
    pub fn events(&self) -> Vec<ObsEvent> {
        self.events.lock().map(|r| r.ordered()).unwrap_or_default()
    }

    /// Events overwritten because the ring was full.
    pub fn events_dropped(&self) -> u64 {
        self.events.lock().map(|r| r.dropped).unwrap_or(0)
    }

    /// Reset every histogram and clear the event ring.
    pub fn reset(&self) {
        for h in &self.hists {
            h.reset();
        }
        if let Ok(mut ring) = self.events.lock() {
            let cap = ring.cap;
            *ring = EventRing::new(cap);
        }
    }

    /// Prometheus-style text exposition: one `gpma_stage_micros` summary
    /// family with `stage` labels and the standard quantile set, plus
    /// event-ring gauges. Only stages with samples are emitted.
    pub fn render_prometheus(&self) -> String {
        const FAMILY: &str = "gpma_stage_micros";
        let mut out = String::new();
        let live: Vec<(Stage, HistSnapshot)> = Stage::ALL
            .iter()
            .map(|s| (*s, self.hist(*s).snapshot()))
            .filter(|(_, snap)| snap.count > 0)
            .collect();
        if !live.is_empty() {
            let _ = writeln!(out, "# HELP {FAMILY} Per-stage latency distribution.");
            let _ = writeln!(out, "# TYPE {FAMILY} summary");
        }
        for (s, snap) in live {
            let n = s.name();
            for (q, v) in [
                ("0.5", snap.p50),
                ("0.9", snap.p90),
                ("0.99", snap.p99),
                ("0.999", snap.p999),
            ] {
                let _ = writeln!(out, "{FAMILY}{{stage=\"{n}\",quantile=\"{q}\"}} {v}");
            }
            let _ = writeln!(out, "{FAMILY}_sum{{stage=\"{n}\"}} {}", snap.sum);
            let _ = writeln!(out, "{FAMILY}_count{{stage=\"{n}\"}} {}", snap.count);
            let _ = writeln!(out, "{FAMILY}_max{{stage=\"{n}\"}} {}", snap.max);
        }
        let _ = writeln!(out, "# TYPE gpma_events_total counter");
        let _ = writeln!(out, "gpma_events_total {}", self.events().len());
        let _ = writeln!(out, "# TYPE gpma_events_dropped_total counter");
        let _ = writeln!(out, "gpma_events_dropped_total {}", self.events_dropped());
        out
    }

    /// Human-readable aligned table of every stage with samples: count,
    /// mean, p50/p90/p99, max, and total time (µs values rendered with
    /// adaptive units).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<20} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
            "stage", "count", "mean", "p50", "p90", "p99", "max", "total"
        );
        for s in Stage::ALL {
            let snap = self.hist(s).snapshot();
            if snap.count == 0 {
                continue;
            }
            let mean = (snap.sum as f64 / snap.count as f64).round() as u64;
            let _ = writeln!(
                out,
                "{:<20} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
                s.name(),
                snap.count,
                fmt_micros(mean),
                fmt_micros(snap.p50),
                fmt_micros(snap.p90),
                fmt_micros(snap.p99),
                fmt_micros(snap.max),
                fmt_micros(snap.sum)
            );
        }
        out
    }
}

/// Validate Prometheus text-exposition format line by line: comments must
/// be `# HELP|TYPE …`, samples must be `name[{label="v",…}] value`.
/// Returns the number of sample lines. This is the CI checker — no real
/// Prometheus parser exists in an offline workspace, so the format is
/// pinned here.
pub fn parse_exposition(text: &str) -> Result<usize, String> {
    fn valid_metric_name(s: &str) -> bool {
        !s.is_empty()
            && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    fn valid_labels(s: &str) -> bool {
        // `key="value"` pairs, comma-separated; values must not contain
        // unescaped quotes (our renderer never escapes, so plain scan).
        s.split(',').all(|pair| {
            let Some((k, v)) = pair.split_once('=') else {
                return false;
            };
            valid_metric_name(k) && v.len() >= 2 && v.starts_with('"') && v.ends_with('"')
        })
    }
    let mut samples = 0usize;
    for (ln, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if !(rest.starts_with("HELP ") || rest.starts_with("TYPE ")) {
                return Err(format!("line {}: comment is neither HELP nor TYPE", ln + 1));
            }
            continue;
        }
        let Some((name_part, value_part)) = line.rsplit_once(' ') else {
            return Err(format!("line {}: no sample value", ln + 1));
        };
        let (name, labels) = match name_part.split_once('{') {
            Some((n, rest)) => {
                let Some(labels) = rest.strip_suffix('}') else {
                    return Err(format!("line {}: unclosed label set", ln + 1));
                };
                (n, Some(labels))
            }
            None => (name_part, None),
        };
        if !valid_metric_name(name) {
            return Err(format!("line {}: bad metric name `{name}`", ln + 1));
        }
        if let Some(labels) = labels {
            if !valid_labels(labels) {
                return Err(format!("line {}: bad label set `{labels}`", ln + 1));
            }
        }
        if value_part.parse::<f64>().is_err() {
            return Err(format!("line {}: bad sample value `{value_part}`", ln + 1));
        }
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_into_the_right_stage() {
        let r = Registry::new();
        {
            let _s = r.span(Stage::FlushApply);
        }
        assert_eq!(r.hist(Stage::FlushApply).count(), 1);
        assert_eq!(r.hist(Stage::FlushDrain).count(), 0);
    }

    #[test]
    fn event_ring_is_bounded_and_ordered() {
        let r = Registry::with_event_capacity(4);
        for epoch in 0..10u64 {
            r.event(Stage::FlushTotal, 0, epoch, EventKind::Flush, epoch);
        }
        let evs = r.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(r.events_dropped(), 6);
        let epochs: Vec<u64> = evs.iter().map(|e| e.epoch).collect();
        assert_eq!(epochs, vec![6, 7, 8, 9], "oldest→newest after wrap");
    }

    #[test]
    fn prometheus_exposition_round_trips_through_the_checker() {
        let r = Registry::new();
        for v in [10u64, 100, 1000] {
            r.record(Stage::IngestEnqueue, v);
        }
        r.record(Stage::QueryExec, 3);
        r.event(Stage::FlushTotal, 1, 7, EventKind::Flush, 42);
        let text = r.render_prometheus();
        let samples = parse_exposition(&text).expect("exposition must parse");
        // 2 stages × (4 quantiles + sum + count + max) + 2 event counters.
        assert_eq!(samples, 2 * 7 + 2, "{text}");
        assert!(text.contains("gpma_stage_micros{stage=\"ingest.enqueue\",quantile=\"0.99\"}"));
        assert!(text.contains("gpma_stage_micros_count{stage=\"query.exec\"} 1"));
        assert_eq!(
            text.matches("# TYPE").count(),
            3,
            "one stage family + two counters"
        );
    }

    #[test]
    fn exposition_checker_rejects_malformed_lines() {
        assert!(parse_exposition("# random comment\n").is_err());
        assert!(parse_exposition("9metric 1\n").is_err());
        assert!(parse_exposition("m{unclosed=\"x\" 1\n").is_err());
        assert!(parse_exposition("m{k=\"v\"} notanumber\n").is_err());
        assert!(parse_exposition("m{k=noquotes} 1\n").is_err());
        assert_eq!(parse_exposition("# TYPE m counter\nm{k=\"v\"} 1\nm 2.5\n"), Ok(2));
    }

    #[test]
    fn table_lists_only_live_stages() {
        let r = Registry::new();
        r.record(Stage::CutBarrier, 1500);
        let t = r.render_table();
        assert!(t.contains("cut.barrier"), "{t}");
        assert!(!t.contains("reshard.quiesce"), "{t}");
    }
}
