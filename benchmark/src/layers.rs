//! The layer tour of a traced run: the workload's own stream taken through
//! every layer in turn, from outside, giving the per-layer metrics and the
//! layer ladder.
//!
//! The tour is fixed work (round counts below), not timed work, so its
//! counts repeat exactly for a seed. Every layer gets the *running
//! workload's* geometry — window, batch size, batches per publish — so a
//! row of the ladder reads "what this stream costs per update when driven
//! through this layer and everything under it", and the rung of the
//! workload's own top layer is directly comparable with its end-to-end
//! number (`ladder.unattributed_ratio`). All host times are
//! probe-normalised like the end-to-end ones.

use std::time::Instant;

use gpma_analytics::{
    bfs_device, bfs_host, cc_device, cc_host, pagerank_device, pagerank_host, GpmaView, DAMPING,
    EPSILON,
};
use gpma_baselines::RebuildCsr;
use gpma_core::delta::apply_delta;
use gpma_core::framework::StepReport;
use gpma_graph::UpdateBatch;
use gpma_incremental::IncrementalEngine;
use gpma_obs::Stage;
use gpma_pma::Pma;
use gpma_serving::Query;
use gpma_sim::primitives::{exclusive_scan_u32, radix_sort_u64};
use gpma_sim::{Device, DeviceBuffer};

use crate::probe::{normalise, slowdown, Probe};
use crate::rungs::{
    device_config, shard_cpus, ClusterRung, CoreRung, FrameworkRung, Rung, ServiceRung,
    ServingRung, SimRung,
};
use crate::spec::{Top, WorkloadSpec, PER_LAYER};
use crate::stats::{max, median, quantile};
use crate::stream::{SlideStream, SplitMix};
use crate::trace::Tracer;
use crate::workloads::{query_mix, BFS_ROOT, DEVICE_PAGERANK_ITERS};

/// Measured rounds per ladder rung (after one unmeasured round).
const LADDER_ROUNDS: usize = 6;

/// The small-batch size of `core.apply_small_us_per_update` and of the
/// delta stream fed to the incremental engine.
const SMALL_BATCH: usize = 256;

/// Batches given to the core and framework rungs back to back.
const FLUSH_PAIRS: usize = 8;

/// Deltas applied to the incremental engine.
const ENGINE_DELTAS: usize = 24;

/// Named metric values, kept in insertion order until rendered.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    /// Record `name = value` (a later value replaces an earlier one).
    pub fn set(&mut self, name: &str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Every `spec::PER_LAYER` metric in spec order. A metric the tour did
    /// not produce is `NaN` (rendered `null`), which the tests reject.
    pub fn into_ordered(self) -> Vec<(String, f64)> {
        PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), self.get(m.name).unwrap_or(f64::NAN)))
            .collect()
    }
}

/// Cost of one `begin`/`end` pair of the benchmark's tracer, ns.
pub fn span_cost_ns() -> f64 {
    const N: usize = 100_000;
    let mut t = Tracer::new(N);
    t.set_enabled(true);
    let t0 = Instant::now();
    for _ in 0..N {
        let id = t.begin("obs.probe");
        t.end(id);
    }
    let ns = t0.elapsed().as_nanos() as f64 / N as f64;
    std::hint::black_box(t.spans().len());
    ns
}

/// Times closures between probes.
struct Clock<'a> {
    probe: &'a mut Probe,
}

impl Clock<'_> {
    /// Run `f`; returns `(result, raw seconds, normalised seconds)`.
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let before = self.probe.run().slowest;
        let t0 = Instant::now();
        let r = f();
        let raw = t0.elapsed().as_secs_f64();
        let after = self.probe.run().slowest;
        (r, raw, normalise(raw, before, after))
    }

    /// Run `f` between two probes and return the factor that turns a raw
    /// time taken inside it into a normalised one.
    fn scaled<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let before = self.probe.run().slowest;
        let r = f();
        let after = self.probe.run().slowest;
        (r, 1.0 / slowdown(before, after))
    }

    /// Median normalised seconds of `reps` runs of `f`.
    fn median_of(&mut self, reps: usize, mut f: impl FnMut()) -> f64 {
        let samples: Vec<f64> = (0..reps).map(|_| self.time(&mut f).2).collect();
        median(&samples)
    }
}

/// The batches of one driven round.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Updates per batch.
    batch: usize,
    /// Batches per publish.
    batches: usize,
}

/// What driving a rung for a few rounds measured.
struct Drive {
    /// Median over rounds of normalised µs per update.
    us_per_update: f64,
    /// Raw wall seconds of all measured rounds.
    raw_secs: f64,
    /// Raw wall seconds including the unmeasured first round.
    raw_secs_all: f64,
    /// Raw µs of every `offer` call.
    offer_us: Vec<f64>,
    /// Raw ms of every `publish` call.
    publish_ms: Vec<f64>,
}

/// One unmeasured round, then `rounds` measured ones of `batches × batch`
/// updates + publish.
fn drive(
    rung: &mut dyn Rung,
    stream: &mut SlideStream,
    shape: Shape,
    rounds: usize,
    clock: &mut Clock<'_>,
) -> Drive {
    let Shape { batch, batches } = shape;
    let mut tr = Tracer::new(0);
    let mut d = Drive {
        us_per_update: 0.0,
        raw_secs: 0.0,
        raw_secs_all: 0.0,
        offer_us: Vec::new(),
        publish_ms: Vec::new(),
    };
    let mut per_round = Vec::new();
    for round in 0..rounds + 1 {
        let input = stream.next_batches(batches, batch);
        let updates: usize = input.iter().map(UpdateBatch::len).sum();
        let mut offers = Vec::with_capacity(batches);
        let mut publish = 0.0;
        let (_, raw, norm) = clock.time(|| {
            for b in input {
                let t0 = Instant::now();
                rung.offer(b, &mut tr);
                offers.push(t0.elapsed().as_secs_f64() * 1e6);
            }
            let t0 = Instant::now();
            rung.publish(&mut tr);
            publish = t0.elapsed().as_secs_f64() * 1e3;
        });
        d.raw_secs_all += raw;
        if round == 0 {
            continue;
        }
        per_round.push(norm * 1e6 / updates as f64);
        d.raw_secs += raw;
        d.offer_us.extend(offers);
        d.publish_ms.push(publish);
    }
    d.us_per_update = median(&per_round);
    d
}

/// Run the tour for `spec` and record every per-layer metric except the
/// `obs.*` and `env.*` ones (the driver owns those).
pub fn tour(
    spec: &WorkloadSpec,
    seed: u64,
    probe: &mut Probe,
    e2e_us_per_update: f64,
    m: &mut Metrics,
) {
    // Every rung but the cluster runs on the driver's CPU alone.
    probe.also_on(&[]);
    let mut clock = Clock { probe };
    let nv = spec.vertices;
    let (batch, batches) = (spec.batch, spec.batches_per_write);
    let shape = Shape { batch, batches };
    let small = Shape {
        batch: SMALL_BATCH.min(batch),
        batches: 8,
    };

    // ---- gpma-graph: the generator and batch assembly -----------------
    let (mut stream, _, gen_norm) = clock.time(|| SlideStream::generate(nv, spec.window, seed));
    m.set("graph.generate_s", gen_norm);
    let build_s = clock.median_of(5, || {
        std::hint::black_box(stream.next_batch(batch));
    });
    m.set("graph.batch_build_us", build_s * 1e6);

    sim_micro(&mut clock, m);

    // ---- ladder: sim ---------------------------------------------------
    stream.rewind();
    let mut sim = SimRung::new();
    let d = drive(&mut sim, &mut stream, shape, LADDER_ROUNDS, &mut clock);
    m.set("ladder.sim_us", d.us_per_update);

    // ---- ladder: core (+ sim counters of the update path) --------------
    stream.rewind();
    let (mut core, _, build_norm) = clock.time(|| CoreRung::new(nv, stream.initial()));
    m.set("core.build_s", build_norm);
    let before = core.device().metrics();
    let sim0 = core.update_sim_secs();
    let d = drive(&mut core, &mut stream, shape, LADDER_ROUNDS, &mut clock);
    let after = core.device().metrics();
    let measured_batches = (LADDER_ROUNDS * batches) as f64;
    // The unmeasured first round is inside the counter window too.
    let counted_batches = ((LADDER_ROUNDS + 1) * batches) as f64;
    let counted_updates = counted_batches * batch as f64;
    let sim_secs = core.update_sim_secs() - sim0;
    m.set("ladder.core_us", d.us_per_update);
    m.set("core.apply_us_per_update", d.us_per_update);
    m.set(
        "core.apply_sim_us_per_update",
        sim_secs * 1e6 / counted_updates,
    );
    m.set(
        "core.levels_per_batch",
        core.levels as f64 / core.batches as f64,
    );
    m.set("core.resizes", core.resizes as f64);
    m.set(
        "sim.launches_per_batch",
        (after.launches - before.launches) as f64 / counted_batches,
    );
    m.set(
        "sim.mem_transactions_per_update",
        (after.total_mem_transactions - before.total_mem_transactions) as f64 / counted_updates,
    );
    m.set(
        "sim.atomic_conflicts_per_update",
        (after.total_atomic_conflicts - before.total_atomic_conflicts) as f64 / counted_updates,
    );
    let measured_sim = sim_secs * measured_batches / counted_batches;
    m.set("sim.host_us_per_sim_us", d.raw_secs / measured_sim);

    // ---- ladder: framework, on the same batches as the core rung -------
    stream.rewind();
    let mut fw = FrameworkRung::new(nv, stream.initial(), batch);
    let d = drive(&mut fw, &mut stream, shape, LADDER_ROUNDS, &mut clock);
    m.set("ladder.framework_us", d.us_per_update);
    // Both stores are now in the same state: give each further batch to
    // both, back to back, and take the framework's extra time per update
    // (delta record, duplicate count, pipeline schedule) pair by pair.
    let mut tr = Tracer::new(0);
    let mut extra_us = Vec::with_capacity(FLUSH_PAIRS);
    let (_, scale) = clock.scaled(|| {
        for b in stream.next_batches(FLUSH_PAIRS, batch) {
            let updates = b.len() as f64;
            let t0 = Instant::now();
            core.offer(b.clone(), &mut tr);
            let t_core = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            fw.offer(b, &mut tr);
            fw.publish(&mut tr);
            extra_us.push((t0.elapsed().as_secs_f64() - t_core) * 1e6 / updates);
        }
    });
    m.set("core.flush_self_us_per_update", median(&extra_us) * scale);

    // ---- snapshot, delta, analytics, engine on the framework system ----
    // First, while the stream is where this system is: its deltas must be
    // real changes for the engine behind it to have work.
    framework_extras(&mut fw, &mut stream, small, &mut clock, m);
    drop(fw);

    // Small batches on the core store: the per-launch floor. (The store is
    // the few slides behind that the framework just took; every update
    // still inserts a dead edge or deletes a live one.)
    let sim_small0 = core.update_sim_secs();
    let small_run = drive(&mut core, &mut stream, small, 3, &mut clock);
    let small_sim_us =
        (core.update_sim_secs() - sim_small0) * 1e6 / (4 * small.batches * small.batch) as f64;
    m.set("core.apply_small_us_per_update", small_run.us_per_update);
    drop(core);

    // ---- baselines + CPU PMA on the same stream -----------------------
    stream.rewind();
    baselines(&mut stream, nv, small, small_sim_us, &mut clock, m);

    // ---- ladder: service -----------------------------------------------
    stream.rewind();
    let mut svc = ServiceRung::new(nv, stream.initial(), batch);
    let busy0 = svc.svc.metrics().counters.flush_wall_secs;
    let d = drive(&mut svc, &mut stream, shape, LADDER_ROUNDS, &mut clock);
    m.set("ladder.service_us", d.us_per_update);
    service_metrics(&svc, &d, busy0, &mut clock, m);
    svc.svc.shutdown();

    // ---- ladder: cluster -----------------------------------------------
    stream.rewind();
    clock.probe.also_on(shard_cpus());
    let mut cl = ClusterRung::new(nv, stream.initial(), batch);
    let d = drive(&mut cl, &mut stream, shape, LADDER_ROUNDS, &mut clock);
    m.set("ladder.cluster_us", d.us_per_update);
    cluster_metrics(&mut cl, &mut stream, &d, shape, &mut clock, m);
    cl.cluster.shutdown();
    clock.probe.also_on(&[]);

    // ---- ladder: serving -----------------------------------------------
    stream.rewind();
    let mut sv = ServingRung::new(nv, stream.initial(), batch);
    let d = drive(&mut sv, &mut stream, shape, LADDER_ROUNDS, &mut clock);
    m.set("ladder.serving_us", d.us_per_update);
    serving_metrics(&mut sv, &mut stream, seed, shape, &mut clock, m);
    sv.shutdown();

    // ---- the gap between the ladder and the end-to-end number ---------
    let top = match spec.top {
        Top::Framework => "ladder.framework_us",
        Top::Service => "ladder.service_us",
        Top::Cluster => "ladder.cluster_us",
        Top::Serving => "ladder.serving_us",
    };
    let rung_us = m.get(top).unwrap_or(f64::NAN);
    m.set(
        "ladder.unattributed_ratio",
        (e2e_us_per_update - rung_us).abs() / e2e_us_per_update,
    );
}

/// Host cost of the simulator's primitives, at fixed sizes.
fn sim_micro(clock: &mut Clock<'_>, m: &mut Metrics) {
    const LAUNCHES: usize = 2000;
    const LANES: usize = 1 << 17;
    const KEYS: usize = 1 << 15;
    let dev = Device::new(device_config());

    let s = clock.median_of(3, || {
        for _ in 0..LAUNCHES {
            dev.launch("noop", 32, |lane| lane.work(1));
        }
    });
    m.set("sim.launch_host_us", s * 1e6 / LAUNCHES as f64);
    let launch_secs = s / LAUNCHES as f64;

    let buf = DeviceBuffer::<u32>::new(LANES);
    let s = clock.median_of(3, || {
        dev.launch("touch", LANES, |lane| {
            let v = buf.get(lane, lane.tid);
            buf.set(lane, lane.tid, v.wrapping_add(1));
        });
    });
    m.set(
        "sim.lane_host_ns",
        (s - launch_secs).max(0.0) * 1e9 / LANES as f64,
    );

    let mut rng = SplitMix(0xC0FFEE);
    let keys: Vec<u64> = (0..KEYS).map(|_| rng.next_u64() >> 1).collect();
    let s = clock.median_of(3, || {
        let mut k = DeviceBuffer::from_slice(&keys);
        radix_sort_u64(&dev, &mut k);
        std::hint::black_box(k.len());
    });
    m.set("sim.sort_host_ns_per_key", s * 1e9 / KEYS as f64);

    let flags = DeviceBuffer::<u32>::filled(1, LANES);
    let s = clock.median_of(3, || {
        std::hint::black_box(exclusive_scan_u32(&dev, &flags).1);
    });
    m.set("sim.scan_host_ns_per_elem", s * 1e9 / LANES as f64);
}

/// The rebuild-per-batch device baseline (simulated time) and the CPU PMA
/// (host time), both on small batches of the same stream.
fn baselines(
    stream: &mut SlideStream,
    nv: u32,
    small: Shape,
    gpma_small_sim_us: f64,
    clock: &mut Clock<'_>,
    m: &mut Metrics,
) {
    let dev = Device::new(device_config());
    let mut csr = RebuildCsr::build(&dev, nv, stream.initial());
    let mut pairs: Vec<(u64, u64)> = stream
        .initial()
        .iter()
        .map(|e| (e.key(), e.weight))
        .collect();
    pairs.sort_unstable();
    let mut pma: Pma<u64> = Pma::from_sorted(&pairs);

    let batches: Vec<UpdateBatch> = stream.next_batches(4, small.batch);
    let updates = (batches.len() * small.batch) as f64;
    let mut rebuild_sim = 0.0;
    for b in &batches[..2] {
        rebuild_sim += dev.timed(|d| csr.update_batch(d, b)).1.secs();
    }
    let rebuild_sim_us = rebuild_sim * 1e6 / (2 * small.batch) as f64;
    m.set("baselines.rebuild_sim_us_per_update", rebuild_sim_us);
    m.set(
        "core.speedup_vs_rebuild_sim",
        rebuild_sim_us / gpma_small_sim_us,
    );

    let (_, _, norm) = clock.time(|| {
        for b in &batches {
            for d in &b.deletions {
                pma.remove(d.key());
            }
            for i in &b.insertions {
                pma.insert(i.key(), i.weight);
            }
        }
    });
    m.set("pma.insert_us_per_update", norm * 1e6 / updates);
}

/// Snapshot / delta costs, the analytics kernels and the incremental
/// engine, all on the framework rung's live system.
fn framework_extras(
    fw: &mut FrameworkRung,
    stream: &mut SlideStream,
    small: Shape,
    clock: &mut Clock<'_>,
    m: &mut Metrics,
) {
    // One small slide as a forced framework step.
    let step = |fw: &mut FrameworkRung, stream: &mut SlideStream| -> StepReport {
        fw.sys.stream.offer_batch(&stream.next_batch(small.batch));
        fw.sys.flush()
    };
    let ms = |secs: f64| secs * 1e3;
    let (snap, _, norm) = clock.time(|| fw.sys.snapshot());
    m.set("core.snapshot_ms", ms(norm));

    // One small step, for a delta to replay.
    let report = step(fw, stream);
    m.set(
        "core.delta_bytes_per_update",
        report.delta.wire_bytes() as f64 / report.batch_size as f64,
    );
    let (_, _, norm) =
        clock.time(|| std::hint::black_box(apply_delta(&snap, &report.delta).num_edges()));
    m.set("core.apply_delta_ms", ms(norm));

    // Device kernels: host ms beside simulated ms.
    let snap = fw.sys.snapshot();
    fw.sys.ad_hoc(|dev, g| {
        let view = GpmaView::build(dev, &g.storage);
        let ((_, sim), _, norm) =
            clock.time(|| dev.timed(|d| bfs_device(d, &view, BFS_ROOT).len()));
        m.set("analytics.bfs_ms", ms(norm));
        m.set("analytics.bfs_sim_ms", sim.millis());
        let ((_, sim), _, norm) = clock.time(|| dev.timed(|d| cc_device(d, &view).len()));
        m.set("analytics.cc_ms", ms(norm));
        m.set("analytics.cc_sim_ms", sim.millis());
        let ((pr, sim), _, norm) = clock
            .time(|| dev.timed(|d| pagerank_device(d, &view, DAMPING, 0.0, DEVICE_PAGERANK_ITERS)));
        m.set("analytics.pagerank_ms", ms(norm));
        m.set("analytics.pagerank_sim_ms", sim.millis());
        m.set("analytics.pagerank_iters", pr.iterations as f64);
    });
    // Host references on the snapshot.
    let s = clock.median_of(3, || {
        std::hint::black_box(bfs_host(&snap, BFS_ROOT).len());
    });
    m.set("analytics.bfs_host_ms", ms(s));
    let s = clock.median_of(3, || {
        std::hint::black_box(cc_host(&snap).len());
    });
    m.set("analytics.cc_host_ms", ms(s));
    let s = clock.median_of(3, || {
        std::hint::black_box(pagerank_host(&snap, DAMPING, 0.0, DEVICE_PAGERANK_ITERS).iterations);
    });
    m.set("analytics.pagerank_host_ms", ms(s));

    // The incremental engine, fed the framework's own deltas.
    let mut engine = IncrementalEngine::new()
        .with_bfs(BFS_ROOT)
        .with_cc()
        .with_pagerank(DAMPING, EPSILON);
    let (_, _, norm) = clock.time(|| engine.rebase(&snap));
    m.set("incremental.rebase_ms", ms(norm));
    let base = engine.stats();
    let mut apply_us = Vec::with_capacity(ENGINE_DELTAS);
    for _ in 0..ENGINE_DELTAS {
        let report = step(fw, stream);
        let (_, _, norm) = clock.time(|| engine.apply(&report.delta));
        apply_us.push(norm * 1e6);
    }
    let stats = engine.stats();
    let n = apply_us.len() as f64;
    m.set("incremental.apply_us_per_delta", median(&apply_us));
    m.set("incremental.apply_us_p99", quantile(&apply_us, 0.99));
    m.set(
        "incremental.bfs_work_per_delta",
        (stats.bfs_work - base.bfs_work) as f64 / n,
    );
    m.set(
        "incremental.cc_work_per_delta",
        (stats.cc_work - base.cc_work) as f64 / n,
    );
    m.set(
        "incremental.pagerank_work_per_delta",
        (stats.pagerank_work - base.pagerank_work) as f64 / n,
    );
}

/// `service.*` from the driven service's own counters and stage histograms
/// plus driver-side timings of the read calls.
fn service_metrics(
    rung: &ServiceRung,
    d: &Drive,
    busy0: f64,
    clock: &mut Clock<'_>,
    m: &mut Metrics,
) {
    let svc = &rung.svc;
    let sm = svc.metrics();
    let obs = svc.obs();
    m.set("service.enqueue_us_p50", median(&d.offer_us));
    m.set("service.enqueue_us_p99", quantile(&d.offer_us, 0.99));
    m.set("service.enqueue_us_max", max(&d.offer_us));
    m.set("service.barrier_ms_p50", median(&d.publish_ms));
    let s = clock.median_of(5, || {
        std::hint::black_box(svc.snapshot().epoch());
    });
    m.set("service.snapshot_call_us_p50", s * 1e6);
    let since = svc.latest_epoch().saturating_sub(4);
    let s = clock.median_of(5, || {
        std::hint::black_box(&svc.deltas_since(since));
    });
    m.set("service.deltas_since_us_p50", s * 1e6);
    m.set(
        "service.flush_apply_us_mean",
        obs.hist(Stage::FlushApply).mean(),
    );
    m.set(
        "service.flush_publish_us_mean",
        obs.hist(Stage::FlushPublish).mean(),
    );
    m.set(
        "service.flush_total_us_max",
        obs.hist(Stage::FlushTotal).max() as f64,
    );
    let ingested = sm.counters.ingested() as f64;
    m.set("service.flushes", sm.counters.flushes as f64);
    m.set(
        "service.updates_per_flush",
        ingested / sm.counters.flushes.max(1) as f64,
    );
    m.set(
        "service.max_queue_depth",
        sm.counters.max_queue_depth as f64,
    );
    // Share of the driven rounds' wall time the worker spent flushing.
    m.set(
        "service.worker_busy_ratio",
        (sm.counters.flush_wall_secs - busy0) / d.raw_secs_all,
    );
    m.set(
        "service.snapshot_bytes_per_update",
        sm.publication.snapshot_bytes as f64 / ingested,
    );
    m.set(
        "service.delta_bytes_per_update",
        sm.publication.delta_bytes as f64 / ingested,
    );
    m.set(
        "service.dropped_updates",
        sm.counters.dropped_updates as f64,
    );
    m.set("service.worker_errors", sm.worker_errors as f64);
}

/// `cluster.*`: router and cut counters after the ladder rounds, then one
/// `rebalance(None)` with the stream still flowing around it.
fn cluster_metrics(
    rung: &mut ClusterRung,
    stream: &mut SlideStream,
    d: &Drive,
    shape: Shape,
    clock: &mut Clock<'_>,
    m: &mut Metrics,
) {
    m.set("cluster.enqueue_us_p50", median(&d.offer_us));
    m.set("cluster.enqueue_us_p99", quantile(&d.offer_us, 0.99));
    m.set("cluster.cut_ms_p50", median(&d.publish_ms));
    m.set("cluster.cut_ms_max", max(&d.publish_ms));
    let cm = rung.cluster.metrics().expect("cluster router alive");
    let ingested = cm.ingested() as f64;
    let route = rung.cluster.obs().hist(Stage::RouteBatch);
    m.set("cluster.route_us_per_update", route.sum() as f64 / ingested);
    let cut = rung.cluster.snapshot();
    let s = clock.median_of(3, || {
        std::hint::black_box(cut.to_graph_snapshot().num_edges());
    });
    m.set("cluster.to_graph_snapshot_ms", s * 1e3);
    m.set("cluster.route_imbalance", cm.imbalance());
    m.set("cluster.cut_edge_fraction", cm.cut_fraction());
    let ledger = cm.total_transfer();
    m.set(
        "cluster.transfer_bytes_per_update",
        ledger.bytes as f64 / ingested,
    );
    m.set(
        "cluster.dmas_per_kupdate",
        ledger.transfers as f64 * 1e3 / ingested,
    );
    m.set(
        "cluster.shard_flushes",
        cm.shards.iter().map(|s| s.counters.flushes).sum::<u64>() as f64,
    );
    m.set("cluster.delta_fallbacks", cm.delta_fallbacks as f64);
    m.set("cluster.dropped_updates", cm.dropped_updates as f64);
    m.set("cluster.worker_errors", cm.worker_errors as f64);

    // One live reshard onto the degree-aware plan, traffic before and after.
    let report = rung
        .cluster
        .rebalance(None)
        .expect("rebalance on a healthy cluster");
    m.set("cluster.reshard_pause_ms", report.pause_secs * 1e3);
    m.set("cluster.reshard_background_s", report.background_secs);
    m.set(
        "cluster.reshard_migrated_edges",
        report.migrated_edges as f64,
    );
    drive(rung, stream, shape, 1, clock);
}

/// `serving.*`: the 64-query mix after each of a few publishes, timed per
/// query kind by the driver, plus the server's own counters.
fn serving_metrics(
    rung: &mut ServingRung,
    stream: &mut SlideStream,
    seed: u64,
    shape: Shape,
    clock: &mut Clock<'_>,
    m: &mut Metrics,
) {
    const MIX_ROUNDS: usize = 6;
    let mix = query_mix(stream.num_vertices(), stream.initial(), seed);
    let mut tr = Tracer::new(0);
    let (mut point, mut bfs, mut cc, mut pr, mut first) = (vec![], vec![], vec![], vec![], vec![]);
    let (mut hit, mut miss) = (vec![], vec![]);
    let mut depth_max = 0usize;
    for _ in 0..MIX_ROUNDS {
        for b in stream.next_batches(shape.batches, shape.batch) {
            rung.offer(b, &mut tr);
        }
        // Barrier only: the first query below is the one that pays the
        // cache refresh for the new epochs.
        rung.svc.barrier().expect("service worker alive");
        let mut raw: Vec<(Query, f64, bool)> = Vec::with_capacity(mix.len() + 1);
        let (_, scale) = clock.scaled(|| {
            for &q in std::iter::once(&Query::Degree { v: BFS_ROOT }).chain(&mix) {
                let hits0 = rung.server().metrics().totals().cache_hits;
                let t0 = Instant::now();
                rung.ask(q, &mut tr);
                let secs = t0.elapsed().as_secs_f64();
                depth_max = depth_max.max(rung.server().queue_depth());
                let hit = rung.server().metrics().totals().cache_hits > hits0;
                raw.push((q, secs, hit));
            }
        });
        first.push(raw[0].1 * scale * 1e6);
        for &(q, secs, was_hit) in &raw[1..] {
            let norm = secs * scale;
            if was_hit {
                hit.push(norm * 1e6);
            } else {
                miss.push(norm * 1e3);
            }
            match q {
                Query::Bfs { .. } => bfs.push(norm * 1e3),
                Query::Cc => cc.push(norm * 1e3),
                Query::PageRank { .. } => pr.push(norm * 1e3),
                _ => point.push(norm * 1e6),
            }
        }
    }
    let obs = rung.server().obs();
    let sm = rung.server().metrics();
    let t = sm.totals();
    m.set("serving.admit_us_mean", obs.hist(Stage::QueryAdmit).mean());
    m.set("serving.hit_ratio", t.hit_rate());
    // Submit → answer as the client sees it, split by what the server's
    // hit counter did (its own stage histograms have 1 µs resolution).
    m.set("serving.hit_us_p50", median(&hit));
    m.set("serving.miss_ms_p50", median(&miss));
    m.set("serving.point_us_p50", median(&point));
    m.set("serving.bfs_ms_p50", median(&bfs));
    m.set("serving.cc_ms_p50", median(&cc));
    m.set("serving.pagerank_ms_p50", median(&pr));
    // The first query after a publish minus an ordinary point query: what
    // tailing the delta ring and patching the cache cost.
    m.set(
        "serving.refresh_us_p50",
        (median(&first) - median(&point)).max(0.0),
    );
    m.set(
        "serving.invalidations_per_refresh",
        sm.cache.invalidations as f64 / sm.cache.refreshes.max(1) as f64,
    );
    m.set(
        "serving.query_ms_max",
        obs.hist(Stage::QueryTotal).max() as f64 / 1e3,
    );
    m.set(
        "serving.shed_ratio",
        t.rejected() as f64 / t.submitted.max(1) as f64,
    );
    m.set("serving.queue_depth_max", depth_max as f64);
}
