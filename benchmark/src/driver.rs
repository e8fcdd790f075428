//! One run of one workload: set-up, warm-up, the measured lock-step rounds,
//! the correctness checks and the result.
//!
//! A *round* is `write section → visible section → (every k-th round) read
//! section`, driven by this one thread. Every section ends in a
//! barrier/cut/`wait`, so the number of flushes, cuts and queries per round
//! is fixed by the seed, not by timing. The speed probe runs before and
//! after every section; a section's normalised time is its raw time scaled
//! by the probes beside it, and every timing metric is the median over
//! rounds of the per-round normalised value.

use std::time::Instant;

use crate::alloc;
use crate::json::Json;
use crate::layers::{self, Metrics};
use crate::oracle::Oracle;
use crate::pin;
use crate::probe::{normalise, Probe, Reading, Sample};
use crate::rungs::shard_cpus;
use crate::spec::{Top, WorkloadSpec, SETUP_REPS};
use crate::stats::{iqr_ratio, median};
use crate::stream::SlideStream;
use crate::trace::Tracer;
use crate::workloads::{self, Workload};

/// A sampled correctness check runs every this-many measured rounds (and
/// always before the first and after the last one).
const CHECK_EVERY: usize = 32;

/// Room for the spans of a traced run (preallocated, uncounted).
const TRACE_CAPACITY: usize = 400_000;

/// Share of `--seconds` a traced run spends on the workload's rounds; the
/// layer tour takes the rest (it is fixed work, not timed work).
const TRACED_ROUNDS_SHARE: f64 = 0.5;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload (already shrunk when `--shrunk` was given).
    pub spec: WorkloadSpec,
    /// Stream seed.
    pub seed: u64,
    /// Seconds the measured window lasts.
    pub seconds: f64,
    /// Traced run: record spans, run the layer tour, report per-layer
    /// metrics.
    pub trace: bool,
}

/// What one run found.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Every check passed.
    pub correct: bool,
    /// Updates offered plus queries submitted.
    pub attempted: u64,
    /// Operations shed, dropped, rejected, late or wrong.
    pub failed: u64,
    /// The seven end-to-end metrics, in `spec::END_TO_END` order.
    pub end_to_end: Vec<(String, f64)>,
    /// The per-layer metrics (traced runs only), in `spec::PER_LAYER` order.
    pub per_layer: Vec<(String, f64)>,
    /// The recorded trace (traced runs only).
    pub trace: Option<Json>,
}

/// Raw and probe-normalised seconds of one timed section.
#[derive(Debug, Clone, Copy, Default)]
struct Section {
    raw: f64,
    norm: f64,
}

impl Section {
    /// `raw` seconds between the probes `before` and `after`.
    fn new(raw: f64, before: Sample, after: Sample) -> Self {
        Section {
            raw,
            norm: normalise(raw, before, after),
        }
    }
}

/// What scales a write or visible section: it ends in a barrier over every
/// worker, so it follows the slowest CPU that hosts one.
fn by_workers(r: Reading) -> Sample {
    r.slowest
}

/// What scales a read section: the driver's own computation, or one served
/// by a worker on the driver's CPU.
fn by_driver(r: Reading) -> Sample {
    r.home
}

#[derive(Debug, Clone, Default)]
struct Round {
    write: Section,
    visible: Section,
    read: Option<Section>,
    /// Updates of the write section alone.
    write_updates: u64,
    /// Updates of the write and visible sections.
    updates: u64,
    /// Heap bytes requested during the write and visible sections.
    alloc_bytes: u64,
    /// Peak live heap bytes while the round ran.
    peak_bytes: i64,
    traced: bool,
}

impl Round {
    fn updates_per_s(&self) -> f64 {
        self.write_updates as f64 / self.write.norm
    }
}

/// Everything the round loop touches.
struct Bench<'a> {
    spec: &'a WorkloadSpec,
    stream: SlideStream,
    workload: Box<dyn Workload>,
    oracle: Oracle,
    tracer: Tracer,
    probe: Probe,
    /// Every probe of the measured window.
    probes: Vec<Sample>,
    attempted: u64,
    round_no: u32,
}

impl Bench<'_> {
    /// Time `f` as one section: the probe before it is the one that closed
    /// the previous section; a fresh probe closes this one. `scale_by` picks
    /// the sample of a reading that the section follows.
    fn section<R>(
        &mut self,
        before: &mut Reading,
        scale_by: fn(Reading) -> Sample,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, Section) {
        let t0 = Instant::now();
        let r = f(self);
        let raw = t0.elapsed().as_secs_f64();
        let after = self.probe.run();
        self.probes.push(after.slowest);
        let s = Section::new(raw, scale_by(*before), scale_by(after));
        *before = after;
        (r, s)
    }

    /// One lock-step round.
    fn round(&mut self, with_read: bool) -> Round {
        let spec = self.spec;
        self.round_no += 1;
        self.tracer.set_round(self.round_no);
        // Inputs first, outside every timed section; the oracle sees them
        // before the program does.
        let batches = self.stream.next_batches(spec.batches_per_write, spec.batch);
        let visible = self.stream.next_batches(1, spec.visible_batch);
        alloc::paused(|| {
            for b in batches.iter().chain(&visible) {
                self.oracle.apply(b);
            }
        });
        let count =
            |bs: &[gpma_graph::UpdateBatch]| bs.iter().map(|b| b.len()).sum::<usize>() as u64;
        let write_updates = count(&batches);
        let mut round = Round {
            write_updates,
            updates: write_updates + count(&visible),
            traced: self.tracer.enabled(),
            ..Round::default()
        };
        self.attempted += round.updates;

        let mut before = self.probe.run();
        self.probes.push(before.slowest);

        alloc::reset_peak();
        let a0 = alloc::requested_bytes();
        let (_, write) = self.section(&mut before, by_workers, |b| {
            let root = b.tracer.begin("section.write");
            let rung = b.workload.rung();
            for batch in batches {
                rung.offer(batch, &mut b.tracer);
            }
            rung.publish(&mut b.tracer);
            b.tracer.end(root);
        });
        let a1 = alloc::requested_bytes();
        round.write = write;

        let a2 = alloc::requested_bytes();
        let (_, vis) = self.section(&mut before, by_workers, |b| {
            let root = b.tracer.begin("section.visible");
            let rung = b.workload.rung();
            for batch in visible {
                rung.offer(batch, &mut b.tracer);
            }
            rung.publish(&mut b.tracer);
            b.tracer.end(root);
        });
        let a3 = alloc::requested_bytes();
        round.visible = vis;
        round.alloc_bytes = (a1 - a0) + (a3 - a2);

        if with_read {
            let (queries, read) = self.section(&mut before, by_driver, |b| {
                let root = b.tracer.begin("section.read");
                let q = b.workload.read(&mut b.tracer);
                b.tracer.end(root);
                q
            });
            self.attempted += queries;
            round.read = Some(read);
        }
        round.peak_bytes = alloc::peak_bytes();
        self.workload.between_rounds();
        round
    }

    /// Untimed, uncounted check of the published state against the oracle.
    fn check(&mut self) -> bool {
        let ok = alloc::paused(|| self.workload.check(&self.oracle));
        if !ok {
            eprintln!(
                "{}: check against the oracle failed after round {}",
                self.spec.name, self.round_no
            );
        }
        ok
    }
}

/// Run one workload once.
pub fn run(args: &RunArgs) -> RunOutcome {
    let spec = &args.spec;
    let mut probe = Probe::new();
    // Let the probe's own pages and caches settle before it is trusted.
    for _ in 0..3 {
        probe.run();
    }
    // One CPU for the probe and every thread the program will spawn (see
    // `pin.rs`): the fastest one right now, best of three probes on each.
    // A cluster's shards get a CPU each, and the probe follows them there.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    pin::pin_to_fastest_cpu(|| {
        (0..3)
            .map(|_| probe.run().home.total())
            .fold(f64::INFINITY, f64::min)
    });
    if spec.top == Top::Cluster {
        probe.also_on(shard_cpus());
    }

    // ---- the input, once; then set-up several times, the last kept -----
    // Set-up is the program's own: bulk-build the store from the initial
    // window and spawn the layers above it. Generating the input stream is
    // the benchmark's job and is reported as `graph.generate_s`.
    let stream = SlideStream::generate(spec.vertices, spec.window, args.seed);
    let mut setups: Vec<Section> = Vec::new();
    let mut kept: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            // Tear the previous repetition down first (untimed).
            old.stop();
        }
        // The driver builds; the workers it spawns have nothing to do yet.
        let before = probe.run().home;
        let t0 = Instant::now();
        let workload = workloads::build(spec, &stream, args.seed);
        let raw = t0.elapsed().as_secs_f64();
        let after = probe.run().home;
        setups.push(Section::new(raw, before, after));
        kept = Some(workload);
    }
    let workload = kept.expect("SETUP_REPS >= 1");
    let oracle = alloc::paused(|| Oracle::new(stream.initial()));
    let mut b = Bench {
        spec,
        stream,
        workload,
        oracle,
        tracer: Tracer::new(if args.trace { TRACE_CAPACITY } else { 0 }),
        probe,
        probes: alloc::paused(|| Vec::with_capacity(1 << 16)),
        attempted: 0,
        round_no: 0,
    };

    // ---- warm-up: a fixed number of rounds, so the measured window
    // starts from the same program state for a given seed --------------
    for i in 0..spec.warmup_rounds {
        b.round(i.is_multiple_of(spec.read_every));
    }
    let mut correct = b.check();

    // ---- measured window ---------------------------------------------
    let window_secs = if args.trace {
        args.seconds * TRACED_ROUNDS_SHARE
    } else {
        args.seconds
    };
    let mut rounds: Vec<Round> = alloc::paused(|| Vec::with_capacity(1 << 14));
    b.probes.clear();
    let sim0 = b.workload.rung().update_sim_secs();
    // (simulated seconds, heap bytes, updates) over the exact prefix.
    let mut exact: Option<(f64, u64, u64)> = None;
    let (mut alloc_sum, mut updates_sum) = (0u64, 0u64);
    let t_window = Instant::now();
    while t_window.elapsed().as_secs_f64() < window_secs || rounds.is_empty() {
        let i = rounds.len();
        // Traced runs alternate traced and untraced rounds, so the span
        // overhead is measured inside one run.
        b.tracer.set_enabled(args.trace && i.is_multiple_of(2));
        let round = b.round(i.is_multiple_of(spec.read_every));
        alloc_sum += round.alloc_bytes;
        updates_sum += round.updates;
        alloc::paused(|| rounds.push(round));
        if rounds.len() == spec.exact_rounds {
            exact = Some((
                b.workload.rung().update_sim_secs() - sim0,
                alloc_sum,
                updates_sum,
            ));
        }
        if i.is_multiple_of(CHECK_EVERY) {
            correct &= b.check();
        }
    }
    b.tracer.set_enabled(false);
    let elapsed = t_window.elapsed().as_secs_f64();
    // A run too short to reach the exact prefix (a `--shrunk` test run on a
    // slow host) falls back to everything it measured.
    let (sim_secs, alloc_bytes, exact_updates) = exact.unwrap_or_else(|| {
        (
            b.workload.rung().update_sim_secs() - sim0,
            alloc_sum,
            updates_sum,
        )
    });
    let exact_len = spec.exact_rounds.min(rounds.len());
    correct &= b.check();
    let mut failed = b.workload.rung().failed();

    // ---- end-to-end metrics ------------------------------------------
    let col =
        |f: &dyn Fn(&Round) -> Option<f64>| -> Vec<f64> { rounds.iter().filter_map(f).collect() };
    let ups_norm = col(&|r| Some(r.updates_per_s()));
    let vis_norm = col(&|r| Some(r.visible.norm * 1e3));
    let read_norm = col(&|r| r.read.map(|s| s.norm * 1e3));
    let setup_norm: Vec<f64> = setups.iter().map(|s| s.norm).collect();
    let end_to_end = vec![
        ("setup_s".to_string(), median(&setup_norm)),
        ("updates_per_s".to_string(), median(&ups_norm)),
        ("visible_ms".to_string(), median(&vis_norm)),
        ("read_ms".to_string(), median(&read_norm)),
        (
            "update_sim_us".to_string(),
            sim_secs * 1e6 / exact_updates as f64,
        ),
        (
            "alloc_bytes_per_update".to_string(),
            alloc_bytes as f64 / exact_updates as f64,
        ),
        (
            // Over the exact prefix as well: where a program's heap grows
            // with the updates it has taken, the number must not depend on
            // how many rounds the host managed.
            "heap_mb_peak".to_string(),
            median(&col(&|r| Some(r.peak_bytes as f64 / 1e6))[..exact_len]),
        ),
    ];

    // ---- traced run: overhead, env, then the layer tour ---------------
    let mut per_layer = Vec::new();
    let mut trace_doc = None;
    if args.trace {
        let traced = col(&|r| r.traced.then(|| r.updates_per_s()));
        let untraced = col(&|r| (!r.traced).then(|| r.updates_per_s()));
        let mut m = Metrics::default();
        m.set("obs.span_ns", layers::span_cost_ns());
        m.set(
            "obs.overhead_ratio",
            if untraced.is_empty() {
                1.0
            } else {
                median(&traced) / median(&untraced)
            },
        );
        let probe_ms: Vec<f64> = b.probes.iter().map(|p| p.total() * 1e3).collect();
        m.set("env.cores", cores as f64);
        m.set("env.rounds", rounds.len() as f64);
        m.set("env.elapsed_s", elapsed);
        m.set("env.probe_ms_p50", median(&probe_ms));
        m.set("env.probe_iqr_ratio", iqr_ratio(&probe_ms));
        m.set("env.round_iqr_ratio", iqr_ratio(&ups_norm));
        m.set(
            "env.raw_updates_per_s",
            median(&col(&|r| Some(r.write_updates as f64 / r.write.raw))),
        );
        m.set(
            "env.raw_visible_ms",
            median(&col(&|r| Some(r.visible.raw * 1e3))),
        );
        m.set(
            "env.raw_read_ms",
            median(&col(&|r| r.read.map(|s| s.raw * 1e3))),
        );
        m.set(
            "env.raw_setup_s",
            median(&setups.iter().map(|s| s.raw).collect::<Vec<_>>()),
        );

        trace_doc = Some(b.tracer.to_json(spec.name, args.seed));
        layers::tour(
            spec,
            args.seed,
            &mut b.probe,
            1e6 / median(&ups_norm),
            &mut m,
        );
        per_layer = m.into_ordered();
    }

    // ---- stop everything, check the final state -----------------------
    let Bench {
        workload,
        oracle,
        attempted,
        ..
    } = b;
    let stopped = workload.stop();
    correct &= stopped.clean && alloc::paused(|| oracle.matches(&stopped.final_snapshot));
    if !correct {
        // A wrong answer is a failed operation even if nothing was shed.
        failed = failed.max(1);
    }
    RunOutcome {
        correct,
        attempted,
        failed,
        end_to_end,
        per_layer,
        trace: trace_doc,
    }
}
