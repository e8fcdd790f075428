//! Spans recorded by the benchmark itself, around every call it makes into a
//! layer of the program.
//!
//! A span is `(name, start_ns, end_ns, parent, round)`; the name's prefix up
//! to the first `.` is the layer (a crate name, or `section` for the
//! driver's own timed sections). Spans stay in a preallocated vector and are
//! written to `trace/<workload>.json` when the run ends. A layer's self time
//! is its spans' durations minus the part their child spans cover. With the
//! tracer off (`--trace 0`, and the untraced rounds of a traced run) a span
//! costs one branch and no clock read.

use std::time::Instant;

use crate::alloc;
use crate::json::Json;

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct SpanId(u32);

const NO_SPAN: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `service.barrier`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Driver round the span belongs to.
    pub round: u32,
}

/// Self time and span count of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTime {
    /// Layer name (span-name prefix).
    pub layer: String,
    /// Sum of span durations minus time covered by child spans, ns.
    pub self_ns: u64,
    /// Spans recorded for the layer.
    pub spans: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u32,
    dropped: u64,
}

impl Tracer {
    /// A tracer with room for `capacity` spans (allocated uncounted). With
    /// `capacity == 0` it can never record.
    pub fn new(capacity: usize) -> Self {
        alloc::paused(|| Tracer {
            on: false,
            t0: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            round: 0,
            dropped: 0,
        })
    }

    /// Switch recording on or off (between rounds, never inside a span).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggle only between spans");
        self.on = on && self.spans.capacity() > 0;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Stamp subsequent spans with driver round `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Open a span. When the buffer is full the span is counted as dropped
    /// rather than growing the vector inside a timed section.
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(NO_SPAN);
        }
        if self.spans.len() == self.spans.capacity() || self.open.len() == self.open.capacity() {
            self.dropped += 1;
            return SpanId(NO_SPAN);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            round: self.round,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close a span opened by [`Self::begin`] (innermost first).
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if id.0 == NO_SPAN {
            return;
        }
        let now = self.t0.elapsed().as_nanos() as u64;
        debug_assert_eq!(self.open.last(), Some(&id.0), "spans close innermost first");
        self.open.pop();
        self.spans[id.0 as usize].end_ns = now;
    }

    /// Time `f` as one span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not recorded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Self time per layer, layers in first-seen order.
    pub fn layer_times(&self) -> Vec<LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: Vec<LayerTime> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let layer = layer_of(s.name);
            let self_ns = s
                .end_ns
                .saturating_sub(s.start_ns)
                .saturating_sub(child_ns[i]);
            match out.iter_mut().find(|l| l.layer == layer) {
                Some(l) => {
                    l.self_ns += self_ns;
                    l.spans += 1;
                }
                None => out.push(LayerTime {
                    layer: layer.to_string(),
                    self_ns,
                    spans: 1,
                }),
            }
        }
        out
    }

    /// Total duration of the root spans (the driver's timed sections): the
    /// traced round time the layer self times must add up to.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .sum()
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("round", Json::Num(s.round as f64)),
                ])
            })
            .collect();
        let layers = self
            .layer_times()
            .into_iter()
            .map(|l| {
                Json::obj([
                    ("layer", Json::Str(l.layer)),
                    ("self_ns", Json::Num(l.self_ns as f64)),
                    ("spans", Json::Num(l.spans as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::Num(seed as f64)),
            ("root_ns", Json::Num(self.root_ns() as f64)),
            ("dropped_spans", Json::Num(self.dropped as f64)),
            ("layers", Json::Arr(layers)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// The layer a span name belongs to: its prefix up to the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(8);
        let id = t.begin("service.ingest");
        t.end(id);
        assert!(t.spans().is_empty());
        let mut never = Tracer::new(0);
        never.set_enabled(true);
        assert!(!never.enabled());
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(16);
        t.set_enabled(true);
        t.set_round(3);
        let root = t.begin("section.write");
        let a = t.begin("service.ingest");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a);
        t.span("service.barrier", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.round == 3 && s.end_ns >= s.start_ns));

        let layers = t.layer_times();
        let section = layers.iter().find(|l| l.layer == "section").unwrap();
        let service = layers.iter().find(|l| l.layer == "service").unwrap();
        assert_eq!(service.spans, 2);
        assert!(service.self_ns >= 4_000_000);
        // Everything adds up to the root span exactly.
        assert_eq!(section.self_ns + service.self_ns, t.root_ns());
        assert!(section.self_ns < service.self_ns);
    }

    #[test]
    fn full_buffer_drops_instead_of_growing() {
        let mut t = Tracer::new(2);
        t.set_enabled(true);
        for _ in 0..5 {
            t.span("sim.launch", || {});
        }
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn trace_document_parses_back() {
        let mut t = Tracer::new(4);
        t.set_enabled(true);
        let r = t.begin("section.read");
        t.span("analytics.bfs_host", || {});
        t.end(r);
        let doc = Json::parse(&t.to_json("stream-small", 9).to_pretty()).unwrap();
        assert_eq!(doc.get("workload").unwrap().as_str(), Some("stream-small"));
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(layer_of("analytics.bfs_host"), "analytics");
    }
}
