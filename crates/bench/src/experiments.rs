//! Experiment drivers: one function per table/figure of the paper's
//! evaluation (Section 6). Each prints the same rows/series the paper
//! reports and saves a CSV under `results/`.
//!
//! Times are reported in the store's native metric: host wall-clock for CPU
//! approaches, simulated device time for GPU approaches (see EXPERIMENTS.md
//! for the comparison methodology).

use gpma_analytics::{App, AppMonitor};
use gpma_core::framework::DynamicGraphSystem;
use gpma_core::multi::MultiGpma;
use gpma_core::{Gpma, GpmaPlus};
use gpma_graph::datasets::{generate, DatasetKind, DatasetStats};
use gpma_graph::{GraphStream, UpdateBatch};
use gpma_sim::pcie::{StepCosts, StepSchedule};
use gpma_sim::{Device, DeviceConfig, SimTime};
use rand::{Rng, SeedableRng};

use crate::approaches::{ApproachKind, Store};
use crate::apps::run_app;
use crate::report::{emit, fmt_meps, fmt_ms};

/// Shared experiment configuration.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Dataset scale relative to Table 2 (1.0 = paper scale).
    pub scale: f64,
    /// RNG seed shared by every generator.
    pub seed: u64,
    /// Slides measured (and averaged) per configuration.
    pub max_slides: usize,
    /// Device configuration used by the GPU approaches.
    pub device_cfg: DeviceConfig,
    /// Smoke-run mode: experiments with pass/fail bounds (e.g. the elastic
    /// reshard-pause ceiling) enforce them only when set, so full-scale
    /// runs on loaded hosts report rather than abort.
    pub quick: bool,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: 0.005,
            seed: 42,
            max_slides: 3,
            device_cfg: DeviceConfig::default(),
            quick: false,
        }
    }
}

impl ExpConfig {
    /// Shrunk configuration for `--quick` smoke runs.
    pub fn quick() -> Self {
        ExpConfig {
            scale: 0.001,
            max_slides: 1,
            quick: true,
            ..Default::default()
        }
    }
}

// ----------------------------------------------------------------------
// Table 1 — experimented algorithms and compared approaches
// ----------------------------------------------------------------------

/// Table 1: the compared approaches and their properties (static).
pub fn table1() {
    let rows: Vec<Vec<String>> = vec![
        vec![
            "AdjLists (CPU)".into(),
            "per-vertex ordered trees".into(),
            "standard single-thread".into(),
            "standard single-thread".into(),
            "standard single-thread".into(),
        ],
        vec![
            "PMA (CPU)".into(),
            "packed memory array [10,11]".into(),
            "standard single-thread".into(),
            "standard single-thread".into(),
            "standard single-thread".into(),
        ],
        vec![
            "Stinger (CPU)".into(),
            "fixed edge blocks [19]".into(),
            "host algorithms (parallel updates)".into(),
            "host algorithms (parallel updates)".into(),
            "host algorithms (parallel updates)".into(),
        ],
        vec![
            "cuSparseCSR (GPU)".into(),
            "device CSR + rebuild [3]".into(),
            "device frontier BFS [37]".into(),
            "device hook+jump CC [43]".into(),
            "device SpMV power iteration [2]".into(),
        ],
        vec![
            "GPMA/GPMA+ (GPU)".into(),
            "this reproduction".into(),
            "device frontier BFS (gap-aware)".into(),
            "device hook+jump CC (gap-aware)".into(),
            "device SpMV (gap-aware)".into(),
        ],
    ];
    emit(
        "table1",
        "Table 1: graph algorithms and compared approaches",
        &["Approach", "Graph Container", "BFS", "ConnectedComponent", "PageRank"],
        &rows,
    );
}

// ----------------------------------------------------------------------
// Table 2 — dataset statistics
// ----------------------------------------------------------------------

/// Table 2: statistics of the four generated datasets.
pub fn table2(cfg: &ExpConfig) -> Vec<DatasetStats> {
    let mut rows = Vec::new();
    let mut stats_out = Vec::new();
    for kind in DatasetKind::ALL {
        let stream = generate(kind, cfg.scale, cfg.seed);
        let st = DatasetStats::of(&stream);
        let (pv, pe) = kind.paper_stats();
        rows.push(vec![
            st.name.clone(),
            format!("{}", st.vertices),
            format!("{}", st.edges),
            format!("{:.1}", st.avg_degree),
            format!("{}", st.initial_edges),
            format!("{:.1}", st.initial_avg_degree),
            format!("{:.2}M", pv as f64 / 1e6),
            format!("{:.1}M", pe as f64 / 1e6),
        ]);
        stats_out.push(st);
    }
    emit(
        "table2",
        &format!("Table 2: dataset statistics (scale = {})", cfg.scale),
        &["Dataset", "|V|", "|E|", "|E|/|V|", "|Es|", "|Es|/|V|", "paper |V|", "paper |E|"],
        &rows,
    );
    stats_out
}

// ----------------------------------------------------------------------
// Figure 7 — update latency vs sliding batch size
// ----------------------------------------------------------------------

/// Figure 7: update latency versus sliding-batch size, per approach.
pub fn fig7(cfg: &ExpConfig) {
    let mut rows = Vec::new();
    let mut summaries = Vec::new();
    for kind in DatasetKind::ALL {
        let mut times = Vec::new();
        let stream = generate(kind, cfg.scale, cfg.seed);
        let max_batch = (stream.initial_size() / 4).max(1);
        // Base-4 exponential batch sizes, as Figure 7's log-scale x-axis.
        let mut batch_sizes = Vec::new();
        let mut b = 1usize;
        while b <= max_batch && b <= 1 << 20 {
            batch_sizes.push(b);
            b *= 4;
        }
        for approach in ApproachKind::ALL {
            let mut store = Store::build_with(
                approach,
                stream.num_vertices,
                stream.initial_edges(),
                cfg.device_cfg.clone(),
            );
            // Walk the stream forward across batch sizes on one store.
            let mut start = 0usize;
            let mut end = stream.initial_size();
            for &bsz in &batch_sizes {
                let mut total = 0.0f64;
                let mut slides = 0usize;
                for _ in 0..cfg.max_slides {
                    if end + bsz > stream.len() {
                        break;
                    }
                    let batch = UpdateBatch {
                        insertions: stream.edges[end..end + bsz].to_vec(),
                        deletions: stream.edges[start..start + bsz].to_vec(),
                    };
                    total += store.apply(&batch);
                    start += bsz;
                    end += bsz;
                    slides += 1;
                }
                if slides == 0 {
                    continue;
                }
                times.push((approach, bsz, total / slides as f64));
                rows.push(vec![
                    kind.name().to_string(),
                    approach.name().to_string(),
                    format!("{bsz}"),
                    fmt_ms(total / slides as f64),
                    if approach.is_device() { "sim" } else { "wall" }.to_string(),
                ]);
            }
        }
        let batch = |b: Option<usize>| b.map_or("none".to_string(), |b| b.to_string());
        summaries.push(format!(
            "fig7 {}: GPMA+ beats GPMA from batch {}; rebuild beats GPMA+ from batch {}",
            kind.name(),
            batch(first_win(&times, ApproachKind::GpmaPlus, ApproachKind::Gpma)),
            batch(first_win(&times, ApproachKind::CuSparseCsr, ApproachKind::GpmaPlus)),
        ));
        eprintln!("fig7: {} done", kind.name());
    }
    emit(
        "fig7",
        "Figure 7: avg update time per slide vs batch size (ms)",
        &["Dataset", "Approach", "BatchSize", "UpdateMs", "Metric"],
        &rows,
    );
    for line in summaries {
        println!("{line}");
    }
}

/// The smallest batch size at which `fast` took less time per slide than
/// `slow`, among `(approach, batch size, seconds)` rows of one dataset.
fn first_win(times: &[(ApproachKind, usize, f64)], fast: ApproachKind, slow: ApproachKind) -> Option<usize> {
    times
        .iter()
        .filter(|&&(a, _, _)| a == fast)
        .find(|&&(_, b, t)| times.iter().any(|&(a, b2, t2)| a == slow && b2 == b && t < t2))
        .map(|&(_, b, _)| b)
}

// ----------------------------------------------------------------------
// Figures 8/9/10 — streaming applications
// ----------------------------------------------------------------------

/// Slide ratios of Figures 8–10 ("0.01%", "0.1%", "1%").
pub const SLIDE_RATIOS: [f64; 3] = [0.0001, 0.001, 0.01];

/// The approaches of `digests` whose last analytic digest differs from the
/// first approach's, described as `name: digest vs first`. Every approach
/// of one (dataset, slide) group saw the same batches, so they must agree.
fn digest_mismatches(digests: &[(ApproachKind, u64)]) -> Vec<String> {
    let Some(&(_, first)) = digests.first() else {
        return Vec::new();
    };
    digests
        .iter()
        .filter(|(_, d)| *d != first)
        .map(|(k, d)| format!("{}: {d} vs {first}", k.name()))
        .collect()
}

/// Figures 8-10: streaming application latency at each slide ratio. Panics
/// after writing the figure if two approaches disagree on a digest.
pub fn fig_app(cfg: &ExpConfig, app: App, fig_name: &str) {
    let mut rows = Vec::new();
    let mut mismatches = Vec::new();
    for kind in DatasetKind::ALL {
        let stream = generate(kind, cfg.scale, cfg.seed);
        for ratio in SLIDE_RATIOS {
            let batch = stream.slide_batch_size(ratio);
            let mut digests: Vec<(ApproachKind, u64)> = Vec::new();
            for approach in ApproachKind::ALL {
                let mut store = Store::build_with(
                    approach,
                    stream.num_vertices,
                    stream.initial_edges(),
                    cfg.device_cfg.clone(),
                );
                let mut rng = rand::rngs::SmallRng::seed_from_u64(cfg.seed ^ 0x5EED);
                let mut upd = 0.0f64;
                let mut ana = 0.0f64;
                let mut slides = 0usize;
                let mut last_digest = 0u64;
                for b in stream.sliding(batch).take(cfg.max_slides) {
                    upd += store.apply(&b);
                    let root = rng.gen_range(0..stream.num_vertices);
                    let run = run_app(app, &store, root);
                    ana += run.seconds;
                    last_digest = run.digest;
                    slides += 1;
                }
                if slides == 0 {
                    continue;
                }
                digests.push((approach, last_digest));
                rows.push(vec![
                    kind.name().to_string(),
                    format!("{}%", ratio * 100.0),
                    approach.name().to_string(),
                    fmt_ms(upd / slides as f64),
                    fmt_ms(ana / slides as f64),
                    format!("{last_digest}"),
                ]);
            }
            for m in digest_mismatches(&digests) {
                mismatches.push(format!("{} {}% {m}", kind.name(), ratio * 100.0));
            }
        }
        eprintln!("{fig_name}: {} done", kind.name());
    }
    emit(
        fig_name,
        &format!(
            "Figure {}: streaming {} — avg per-slide update & analytics time (ms)",
            &fig_name[3..],
            app.name()
        ),
        &["Dataset", "Slide", "Approach", "UpdateMs", "AnalyticsMs", "Digest"],
        &rows,
    );
    assert!(
        mismatches.is_empty(),
        "{fig_name}: digest mismatch: {}",
        mismatches.join("; ")
    );
}

// ----------------------------------------------------------------------
// Figure 11 — asynchronous-stream transfer hiding
// ----------------------------------------------------------------------

/// One Figure 11 row: stream `stream`'s first `cfg.max_slides` slides of
/// `batch` insertions and `batch` deletions through a
/// [`DynamicGraphSystem`] with a BFS monitor, one flush per slide, and
/// return the steps' mean schedule (hidden when every step hid its
/// transfers). `None` when the stream has no slide to take.
fn fig11_row(cfg: &ExpConfig, stream: &GraphStream, batch: usize) -> Option<StepSchedule> {
    let nv = stream.num_vertices;
    let dev = Device::new(cfg.device_cfg.clone());
    let mut sys = DynamicGraphSystem::new(dev, nv, stream.initial_edges(), 2 * batch);
    let mut rng = rand::rngs::SmallRng::seed_from_u64(cfg.seed);
    let (monitor, _) = AppMonitor::new(App::Bfs, move || rng.gen_range(0..nv));
    sys.register_monitor(Box::new(monitor));
    let steps: Vec<StepSchedule> = stream
        .sliding(batch)
        .take(cfg.max_slides)
        .map(|b| {
            sys.stream.offer_batch(&b);
            sys.flush().schedule
        })
        .collect();
    if steps.is_empty() {
        return None;
    }
    // A running mean: exactly the value itself when every step has the same
    // one (the fetch of a fixed-size result), which `sum / n` is not.
    let mean = |f: fn(&StepSchedule) -> SimTime| {
        let secs = steps.iter().map(|s| f(s).secs()).enumerate();
        SimTime(secs.fold(0.0, |m, (i, x)| m + (x - m) / (i + 1) as f64))
    };
    Some(StepSchedule {
        costs: StepCosts {
            h2d_updates: mean(|s| s.costs.h2d_updates),
            update_compute: mean(|s| s.costs.update_compute),
            analytics_compute: mean(|s| s.costs.analytics_compute),
            d2h_results: mean(|s| s.costs.d2h_results),
        },
        makespan: mean(|s| s.makespan),
        serialized: mean(|s| s.serialized),
        transfers_hidden: steps.iter().all(|s| s.transfers_hidden),
    })
}

/// Figure 11: PCIe transfer hiding with the asynchronous-stream pipeline.
pub fn fig11(cfg: &ExpConfig) {
    let mut rows = Vec::new();
    for kind in DatasetKind::ALL {
        let stream = generate(kind, cfg.scale, cfg.seed);
        for ratio in SLIDE_RATIOS {
            let Some(s) = fig11_row(cfg, &stream, stream.slide_batch_size(ratio)) else {
                continue;
            };
            rows.push(vec![
                kind.name().to_string(),
                format!("{}%", ratio * 100.0),
                fmt_ms(s.costs.update_compute.secs()),
                fmt_ms(s.costs.analytics_compute.secs()),
                fmt_ms(s.costs.h2d_updates.secs()),
                fmt_ms(s.costs.d2h_results.secs()),
                fmt_ms(s.makespan.secs()),
                fmt_ms(s.serialized.secs()),
                if s.transfers_hidden { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    emit(
        "fig11",
        "Figure 11: concurrent transfer & compute with async streams (GPMA+, BFS)",
        &[
            "Dataset", "Slide", "UpdateMs", "BfsMs", "SendMs", "FetchMs", "StepMs",
            "SerializedMs", "Hidden",
        ],
        &rows,
    );
}

// ----------------------------------------------------------------------
// Figure 12 — multi-GPU throughput
// ----------------------------------------------------------------------

/// Figure 12: multi-GPU update and analytics scaling.
pub fn fig12(cfg: &ExpConfig) {
    // Paper sizes 600M/1.2B/1.8B edges, scaled by `cfg.scale / 0.005 * 1e-3`
    // relative adjustment: we derive from cfg.scale so --quick shrinks it.
    let base_edges = ((600_000_000f64 * cfg.scale * 0.2) as usize).max(20_000);
    let mut rows = Vec::new();
    for mult in 1..=3usize {
        let edges = base_edges * mult;
        let vertices = (edges / 100).next_power_of_two() as u32;
        let scale_bits = vertices.trailing_zeros();
        let coo = gpma_graph::gen::rmat(scale_bits, edges, cfg.seed + mult as u64);
        let stream = GraphStream::from_coo_shuffled(
            format!("Graph500-{}x", mult),
            coo,
            cfg.seed ^ 0xF16,
        );
        let batch = stream.slide_batch_size(0.01); // 1% slide, as §6.4
        for nd in 1..=3usize {
            let mut m = MultiGpma::build(
                &cfg.device_cfg,
                nd,
                stream.num_vertices,
                stream.initial_edges(),
            );
            // Update throughput over one slide.
            let mut slides = stream.sliding(batch);
            let b = slides.next().expect("stream too short for fig12");
            let ut = m.update_batch(&b);
            let update_tp = fmt_meps(b.len(), ut.total().secs());
            // Application throughput: edges processed / total time.
            let ne = m.num_edges();
            let (_, pr_t) = gpma_analytics::multi::pagerank_multi(&mut m, 0.85, 1e-3, 50);
            let pr_tp = fmt_meps(ne * pr_t.iterations.max(1), pr_t.total().secs());
            let (_, bfs_t) = gpma_analytics::multi::bfs_multi(&mut m, 0);
            let bfs_tp = fmt_meps(ne, bfs_t.total().secs());
            let (_, cc_t) = gpma_analytics::multi::cc_multi(&mut m);
            let cc_tp = fmt_meps(ne * cc_t.iterations.max(1), cc_t.total().secs());
            rows.push(vec![
                format!("{}", edges),
                format!("{nd}"),
                update_tp,
                pr_tp,
                bfs_tp,
                cc_tp,
            ]);
            eprintln!("fig12: |E|={edges} on {nd} GPU(s) done");
        }
    }
    emit(
        "fig12",
        "Figure 12: multi-GPU throughput on Graph500 (million edges/second)",
        &["Edges", "GPUs", "UpdateMeps", "PageRankMeps", "BfsMeps", "CcMeps"],
        &rows,
    );
}

// ----------------------------------------------------------------------
// §6.2 extended — sorted (locality-clustered) streams
// ----------------------------------------------------------------------

/// §6.2 extended: locality-clustered (key-sorted) update streams.
pub fn sorted_stream(cfg: &ExpConfig) {
    let stream = generate(DatasetKind::Graph500, cfg.scale, cfg.seed);
    let sorted = stream.sorted_by_key();
    let batch = stream.slide_batch_size(0.001).max(256);
    let mut rows = Vec::new();
    for (label, s) in [("random-order", &stream), ("key-sorted", &sorted)] {
        // GPMA (lock-based): clustered batches conflict heavily.
        let dev = Device::new(cfg.device_cfg.clone());
        let mut g = Gpma::build(&dev, s.num_vertices, s.initial_edges());
        let mut t_gpma = 0.0;
        let mut rounds = 0usize;
        let mut aborts = 0u64;
        let mut slides = 0usize;
        for b in s.sliding(batch).take(cfg.max_slides) {
            let (st, t) = dev.timed(|d| g.update_batch(d, &b));
            t_gpma += t.secs();
            rounds += st.rounds;
            aborts += st.aborts;
            slides += 1;
        }
        // GPMA+: insensitive to update locality.
        let mut plus = Store::build_with(
            ApproachKind::GpmaPlus,
            s.num_vertices,
            s.initial_edges(),
            cfg.device_cfg.clone(),
        );
        let t_plus: f64 = s.sliding(batch).take(cfg.max_slides).map(|b| plus.apply(&b)).sum();
        let n = slides.max(1) as f64;
        rows.push(vec![
            label.to_string(),
            format!("{batch}"),
            fmt_ms(t_gpma / n),
            format!("{:.1}", rounds as f64 / n),
            format!("{:.0}", aborts as f64 / n),
            fmt_ms(t_plus / n),
        ]);
    }
    emit(
        "sorted",
        "§6.2 extreme case: sorted graph streams (GPMA conflicts vs GPMA+)",
        &["StreamOrder", "Batch", "GpmaMs", "GpmaRounds", "GpmaAborts", "GpmaPlusMs"],
        &rows,
    );
}

// ----------------------------------------------------------------------
// §6.3 extended — explicit random insertions/deletions
// ----------------------------------------------------------------------

/// §6.3 extended: explicit random insert/delete streams.
pub fn explicit_stream(cfg: &ExpConfig) {
    let mut rows = Vec::new();
    for kind in DatasetKind::ALL {
        let stream = generate(kind, cfg.scale, cfg.seed);
        let batch = stream.slide_batch_size(0.01);
        for approach in ApproachKind::ALL {
            let mut store = Store::build_with(
                approach,
                stream.num_vertices,
                stream.initial_edges(),
                cfg.device_cfg.clone(),
            );
            let mut t = 0.0;
            let mut slides = 0;
            for b in stream.explicit(batch, 0.5, cfg.seed).take(cfg.max_slides) {
                t += store.apply(&b);
                slides += 1;
            }
            if slides == 0 {
                continue;
            }
            rows.push(vec![
                kind.name().to_string(),
                approach.name().to_string(),
                format!("{batch}"),
                fmt_ms(t / slides as f64),
            ]);
        }
        eprintln!("explicit: {} done", kind.name());
    }
    emit(
        "explicit",
        "Extended: explicit random insert/delete batches (50/50), 1% batch",
        &["Dataset", "Approach", "Batch", "UpdateMs"],
        &rows,
    );
}

// ----------------------------------------------------------------------
// Elastic — live resharding with skew-driven degree-aware rebalancing
// ----------------------------------------------------------------------

/// Producer threads `elastic` streams through, each taking every
/// `PRODUCERS`-th edge.
const PRODUCERS: usize = 4;

/// Stream `edges` into `cluster` from [`PRODUCERS`] threads while
/// `meanwhile` runs on this one; return its result once every producer has
/// finished.
fn stream_during<T>(
    cluster: &gpma_cluster::GraphCluster,
    edges: &[gpma_graph::Edge],
    meanwhile: impl FnOnce() -> T,
) -> T {
    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let h = cluster.handle();
            s.spawn(move || {
                for &e in edges.iter().skip(p).step_by(PRODUCERS) {
                    // A closed cluster means teardown won the race; stop
                    // feeding instead of panicking the producer thread.
                    if h.insert(e).is_err() {
                        eprintln!("gpma-bench: cluster closed mid-feed; producer stopping");
                        return;
                    }
                }
            });
        }
        meanwhile()
    })
}

/// The cluster-elasticity experiment: stream the first half of a power-law
/// (Graph500) stream into a static cluster, read the accumulated
/// `imbalance`, then live-`rebalance` onto the degree-aware plan built
/// from the router's observations and stream the second half. Reports, per
/// policy × shard count,
///
/// * **skew before/after**: max/mean routed updates under the spawn policy
///   vs under the degree-aware plan (the edge grid's ~2× power-law
///   imbalance should drop below 1.2×),
/// * **migration cost**: edges moved and modeled bytes shipped vs the
///   bytes a from-scratch repartition would ship, and
/// * **pause**: the live-reshard split — `pause_secs` is the swap window
///   producers can feel, `background_secs` the barrier wait, copy and
///   retire that overlapped live ingest — vs the wall cost of bulk-building
///   a fresh cluster from the same state. Producers keep streaming *during*
///   the reshard; the client-observed enqueue p99 while a reshard is in
///   flight (`ingest.reshard`) must stay inside the swap window.
///
/// Saves `results/elastic.csv`.
pub fn elastic(cfg: &ExpConfig) {
    use gpma_cluster::{ClusterConfig, GraphCluster, PartitionPolicy};
    use gpma_obs::Stage;

    let stream = generate(DatasetKind::Graph500, cfg.scale, cfg.seed);
    let nv = stream.num_vertices;
    let batch = stream.slide_batch_size(0.01).max(1);
    let cap = (batch * 40 * cfg.max_slides.max(1)).min(stream.len() - stream.initial_size());
    let tail = &stream.edges[stream.initial_size()..stream.initial_size() + cap];
    let (first_half, second_half) = tail.split_at(tail.len() / 2);
    // A bounded slice streams *through* the reshard (exercising the
    // router's mirroring of moving updates); the rest lands after the swap
    // so the post-swap routing window has traffic to measure skew from.
    // The live slice is capped at a few flush batches: producers that
    // outrun the shards indefinitely back up the router's queue whatever
    // the reshard does.
    let live_cap = (8 * batch).min(second_half.len() / 2);
    let (during_slice, after_slice) = second_half.split_at(live_cap);

    let mut rows = Vec::new();
    for policy in [PartitionPolicy::VertexHash, PartitionPolicy::EdgeGrid] {
        for shards in [4usize, 8] {
            let cluster = GraphCluster::spawn(
                ClusterConfig {
                    flush_threshold: batch,
                    ..Default::default()
                },
                &cfg.device_cfg,
                policy.build(nv, shards),
                stream.initial_edges(),
            );
            stream_during(&cluster, first_half, || ());
            cluster.epoch_cut().expect("cluster alive");
            let before = cluster
                .metrics()
                .expect("cluster alive")
                .imbalance();

            // Rebalance with ingest live: the producers race the reshard,
            // so `pause_secs` and the `ingest.reshard` histogram reflect
            // what clients actually felt mid-migration.
            let report = stream_during(&cluster, during_slice, || cluster.rebalance(None))
                .expect("degree-aware rebalance succeeds");
            stream_during(&cluster, after_slice, || ());
            cluster.epoch_cut().expect("cluster alive");
            let during = cluster.obs().hist(Stage::IngestReshard).snapshot();
            let flush_max_secs = cluster.obs().hist(Stage::FlushApply).snapshot().max as f64 / 1e6;
            let quiesce_us = cluster.obs().hist(Stage::ReshardQuiesce).snapshot().max;
            let resume_us = cluster.obs().hist(Stage::ReshardResume).snapshot().max;
            let after = cluster
                .metrics()
                .expect("cluster alive")
                .imbalance();
            let final_snap = cluster.snapshot();
            drop(cluster.shutdown());

            // Copy-on-write keeps the swap window bounded by draining one
            // trailing flush, and enqueue stays wait-free mid-reshard:
            // fewer than 1 % of the sends that completed mid-reshard may
            // have waited out the swap window.
            if cfg.quick {
                let pause_bound = (4.0 * flush_max_secs).max(0.05);
                assert!(
                    report.pause_secs < pause_bound,
                    "{} × {shards}: pause {:.4}s must stay below one flush drain ({:.4}s)",
                    policy.name(),
                    report.pause_secs,
                    pause_bound
                );
            }
            assert!(
                during.p99 as f64 <= report.pause_secs * 1e6,
                "{} × {shards}: mid-reshard enqueue p99 {}µs exceeds the {:.0}µs pause",
                policy.name(),
                during.p99,
                report.pause_secs * 1e6
            );

            // The alternative the live path is measured against: stop the
            // world and bulk-rebuild a fresh cluster from the full state
            // under the new plan.
            let rebuild_wall = {
                let edges = final_snap.image().edges().to_vec();
                let plan = gpma_cluster::DegreePartition::from_edges(nv, &edges, shards);
                let t0 = std::time::Instant::now();
                let fresh = GraphCluster::spawn(
                    ClusterConfig {
                        flush_threshold: batch,
                        ..Default::default()
                    },
                    &cfg.device_cfg,
                    std::sync::Arc::new(plan),
                    &edges,
                );
                let wall = t0.elapsed().as_secs_f64();
                drop(fresh.shutdown());
                wall
            };

            assert!(
                report.migration_bytes < report.full_rebuild_bytes,
                "{} × {shards}: migration must ship less than a rebuild",
                policy.name()
            );
            rows.push(vec![
                policy.name().to_string(),
                format!("{shards}"),
                format!("{:.3}", before),
                format!("{:.3}", after),
                format!("{}", report.migrated_edges),
                format!("{}", report.resident_edges),
                format!("{}", report.migration_bytes / 1024),
                format!("{}", report.full_rebuild_bytes / 1024),
                fmt_ms(report.pause_secs),
                fmt_ms(report.background_secs),
                fmt_ms(rebuild_wall),
            ]);
            eprintln!(
                "elastic: {} × {shards} done (skew {before:.2} → {after:.2}, \
                 settle {:.1} ms + swap {:.1} ms, mid-reshard enqueue p99 {}µs)",
                policy.name(),
                quiesce_us as f64 / 1e3,
                resume_us as f64 / 1e3,
                during.p99,
            );
        }
    }

    // Shard-count elasticity on the same stream: 4 → 2 → 8 mid-stream with
    // every update preserved (the integration proptest checks exactness;
    // here we record the migration economics of scale-in/scale-out).
    let cluster = GraphCluster::spawn(
        ClusterConfig {
            flush_threshold: batch,
            ..Default::default()
        },
        &cfg.device_cfg,
        PartitionPolicy::VertexHash.build(nv, 4),
        stream.initial_edges(),
    );
    stream_during(&cluster, first_half, || ());
    cluster.epoch_cut().expect("cluster alive");
    let shrink =
        stream_during(&cluster, during_slice, || cluster.rebalance(Some(2))).expect("shrink to 2");
    stream_during(&cluster, after_slice, || ());
    cluster.epoch_cut().expect("cluster alive");
    let grow = cluster.rebalance(Some(8)).expect("grow to 8");
    drop(cluster.shutdown());
    rows.push(vec![
        "resize 4→2→8".to_string(),
        "2,8".to_string(),
        "-".to_string(),
        "-".to_string(),
        format!("{}", shrink.migrated_edges + grow.migrated_edges),
        format!("{}", grow.resident_edges),
        format!("{}", (shrink.migration_bytes + grow.migration_bytes) / 1024),
        format!("{}", grow.full_rebuild_bytes / 1024),
        fmt_ms(shrink.pause_secs + grow.pause_secs),
        fmt_ms(shrink.background_secs + grow.background_secs),
        "-".to_string(),
    ]);

    emit(
        "elastic",
        "Elastic cluster: copy-on-write rebalance under live ingest vs accumulated \
         routing skew (Graph500, 4 producers, 1% flush batches)",
        &[
            "Policy", "Shards", "SkewBefore", "SkewAfter", "Moved", "Resident", "MoveKB",
            "RebuildKB", "PauseMs", "BgMs", "RebuildMs",
        ],
        &rows,
    );
}

// ----------------------------------------------------------------------
// Ablations (DESIGN.md §5)
// ----------------------------------------------------------------------

/// Ablation: merge tiers, density thresholds and scan variants.
pub fn ablation(cfg: &ExpConfig) {
    let stream = generate(DatasetKind::Graph500, cfg.scale, cfg.seed);
    let batch = stream.slide_batch_size(0.01);

    // (a) GPMA+ merge tiers.
    let mut rows = Vec::new();
    for (label, tier_max) in [
        ("warp/block+device (default)", gpma_core::gpma_plus::SMALL_WINDOW_MAX),
        ("device tier only", 0usize),
        ("warp/block only (no device tier)", usize::MAX),
    ] {
        let dev = Device::new(cfg.device_cfg.clone());
        let mut g = GpmaPlus::build(&dev, stream.num_vertices, stream.initial_edges())
            .with_tier_max(tier_max);
        let mut t = 0.0;
        let mut slides = 0;
        for b in stream.sliding(batch).take(cfg.max_slides) {
            let (_, dt) = dev.timed(|d| {
                g.update_batch_lazy(d, &b);
            });
            t += dt.secs();
            slides += 1;
        }
        rows.push(vec![label.to_string(), fmt_ms(t / slides.max(1) as f64)]);
    }
    emit(
        "ablation_tiers",
        "Ablation: GPMA+ merge tier strategy (1% batches, Graph500)",
        &["Tiers", "UpdateMs"],
        &rows,
    );

    // (b) Theorem 1: K-scaling of GPMA+ updates.
    let mut rows = Vec::new();
    for k in [1usize, 2, 4, 8, 16, 32] {
        let mut store = Store::build_with(
            ApproachKind::GpmaPlus,
            stream.num_vertices,
            stream.initial_edges(),
            cfg.device_cfg.clone().with_sms(k),
        );
        let mut t = 0.0;
        let mut slides = 0;
        for b in stream.sliding(batch).take(cfg.max_slides) {
            t += store.apply(&b);
            slides += 1;
        }
        rows.push(vec![format!("{k}"), fmt_ms(t / slides.max(1) as f64)]);
    }
    emit(
        "ablation_k",
        "Ablation: GPMA+ update time vs compute units K (Theorem 1)",
        &["K(SMs)", "UpdateMs"],
        &rows,
    );

    // (c) GPMA lock-conflict sensitivity to batch locality.
    let sorted = stream.sorted_by_key();
    let mut rows = Vec::new();
    for (label, s) in [("random", &stream), ("clustered", &sorted)] {
        let dev = Device::new(cfg.device_cfg.clone());
        let mut g = Gpma::build(&dev, s.num_vertices, s.initial_edges());
        let b = s.sliding(batch.min(2048)).next().unwrap();
        let (st, t) = dev.timed(|d| g.update_batch(d, &b));
        rows.push(vec![
            label.to_string(),
            fmt_ms(t.secs()),
            format!("{}", st.rounds),
            format!("{}", st.aborts),
        ]);
    }
    emit(
        "ablation_conflicts",
        "Ablation: GPMA lock conflicts vs update locality",
        &["BatchLocality", "UpdateMs", "Rounds", "Aborts"],
        &rows,
    );
}

// ----------------------------------------------------------------------
// audit — run the deep invariant validators against live state
// ----------------------------------------------------------------------

/// `repro -- audit`: exercise every `gpma_core::audit` validator mid-stream
/// — the GPMA+ state after each slide of a sliding-window stream, the delta
/// publication ring and the delta-advanced graph image after each epoch,
/// every shipped partition policy, and a coordinated cluster cut.
pub fn audit(cfg: &ExpConfig) {
    use gpma_cluster::{ClusterConfig, GraphCluster, PartitionPolicy};
    use gpma_core::audit::validate_image;
    use gpma_core::delta::{apply_delta, DeltaLog, SnapshotDelta};
    use gpma_core::framework::GraphSnapshot;
    use gpma_core::multi::{DegreePartition, PartitionEpoch};
    use std::sync::Arc;

    let stream = generate(DatasetKind::Graph500, cfg.scale, cfg.seed);
    let nv = stream.num_vertices;
    let batch = stream.slide_batch_size(0.01).max(1);
    let slides = (cfg.max_slides.max(1) * 4).min(16);
    let mut rows = Vec::new();

    // GPMA+ structural/density audit after every sliding-window slide, and
    // after every published epoch the delta ring contract and the graph
    // image advanced by the epoch's delta (layout, and equality with a
    // readback of the store the batch was applied to).
    let dev = Device::new(cfg.device_cfg.clone());
    let mut g = GpmaPlus::build(&dev, nv, stream.initial_edges());
    g.validate().expect("initial GPMA+ state audits clean");
    let mut log = DeltaLog::new(8);
    let mut image = GraphSnapshot::from_store(0, &g.storage);
    let mut epoch = 0u64;
    for b in stream.sliding(batch).take(slides) {
        g.update_batch_lazy(&dev, &b);
        g.validate()
            .unwrap_or_else(|e| panic!("epoch {}: {e}", epoch + 1));
        epoch += 1;
        let delta = SnapshotDelta::from_batch(epoch, &b).classify(&image);
        image = apply_delta(&image, delta.blind());
        validate_image(&image, Some(&g.storage)).unwrap_or_else(|e| panic!("{e}"));
        log.push(Arc::new(delta));
        log.validate()
            .unwrap_or_else(|e| panic!("epoch {epoch}: {e}"));
    }
    rows.push(vec![
        "GpmaPlus::validate".into(),
        format!("{} epochs", epoch),
        "ok".into(),
    ]);
    rows.push(vec![
        "DeltaLog::validate".into(),
        format!("{} epochs, ring of {}", epoch, log.capacity()),
        "ok".into(),
    ]);
    rows.push(vec![
        "validate_image".into(),
        format!("{} epochs, {} blocks vs store", epoch, image.num_blocks()),
        "ok".into(),
    ]);

    // Every shipped partition policy plus a degree-aware plan is total and
    // consistent over the vertex space.
    let mut plans: Vec<Arc<dyn gpma_core::multi::Partitioner>> = PartitionPolicy::ALL
        .iter()
        .map(|p| p.build(nv, 4))
        .collect();
    plans.push(Arc::new(DegreePartition::from_edges(
        nv,
        stream.initial_edges(),
        4,
    )));
    let num_plans = plans.len();
    for plan in &plans {
        let name = plan.name().to_string();
        PartitionEpoch::new(plan.clone())
            .validate()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    rows.push(vec![
        "PartitionEpoch::validate".into(),
        format!("{num_plans} plans x {nv} vertices"),
        "ok".into(),
    ]);

    // A coordinated cluster cut is consistent with its shard snapshots.
    let cluster = GraphCluster::spawn(
        ClusterConfig {
            flush_threshold: batch,
            ..Default::default()
        },
        &cfg.device_cfg,
        PartitionPolicy::VertexHash.build(nv, 4),
        stream.initial_edges(),
    );
    let h = cluster.handle();
    for b in stream.sliding(batch).take(2) {
        h.ingest(b).expect("cluster alive");
    }
    let snap = cluster.audit_cut().expect("cluster cut audits clean");
    rows.push(vec![
        "GraphCluster::audit_cut".into(),
        format!("cut {}, {} edges", snap.cut(), snap.num_edges()),
        "ok".into(),
    ]);
    drop(cluster.shutdown());

    emit(
        "audit",
        "Audit: deep invariant validators over live state",
        &["Validator", "Coverage", "Result"],
        &rows,
    );
}

// ----------------------------------------------------------------------
// Recovery — shard failover from checkpoint + the router's op log
// ----------------------------------------------------------------------

/// `recovery`: a live cluster failover. `kill_shard` kills a shard worker
/// mid-stream; the cut that finds it silent rebuilds it from its latest
/// checkpoint plus the updates since, and the `ClusterMetrics` recovery
/// counters report what the failover cost.
pub fn recovery(cfg: &ExpConfig) {
    use gpma_cluster::{ClusterConfig, GraphCluster, MemoryCheckpointStore, PartitionPolicy};
    use std::sync::Arc;

    let stream = generate(DatasetKind::Graph500, cfg.scale, cfg.seed);
    let nv = stream.num_vertices;
    let batch = stream.slide_batch_size(0.01).max(1);
    let tail = &stream.edges[stream.initial_size()..];
    assert!(!tail.is_empty(), "recovery needs a streamed tail");

    let n_updates = (batch * 8 * cfg.max_slides.max(1)).min(tail.len());
    let cluster = GraphCluster::spawn(
        ClusterConfig {
            flush_threshold: batch,
            checkpoints: Some(Arc::new(MemoryCheckpointStore::new())),
            ..Default::default()
        },
        &cfg.device_cfg,
        PartitionPolicy::VertexHash.build(nv, 4),
        stream.initial_edges(),
    );
    let h = cluster.handle();
    for (i, e) in tail[..n_updates].iter().enumerate() {
        h.insert(*e).expect("cluster alive");
        if i == n_updates / 4 {
            // A mid-stream cut so checkpoints exist before the kill.
            cluster.epoch_cut().expect("cluster alive");
        }
        if i == n_updates / 2 {
            assert!(cluster.kill_shard(1).expect("cluster alive"));
        }
    }
    cluster.epoch_cut().expect("cluster alive");
    let report = cluster.shutdown();
    let m = &report.metrics;
    assert!(m.recoveries >= 1, "the killed shard must have been recovered");
    assert_eq!(m.recovery_snapshot_fallbacks, 0, "every recovery found its checkpoint");
    // The stream only inserts: an exact failover ends on exactly its keys.
    let streamed = stream.initial_edges().iter().chain(&tail[..n_updates]);
    let keys: std::collections::BTreeSet<u64> = streamed.clone().map(|e| e.key()).collect();
    let last = &report.final_snapshot;
    let image = last.image();
    assert!(
        last.num_edges() == keys.len() && streamed.clone().all(|e| image.contains(e.src, e.dst)),
        "the recovered cluster holds {} edges, the stream {}",
        last.num_edges(),
        keys.len()
    );
    emit(
        "recovery",
        "Cluster failover after a mid-stream kill (Graph500, 4 shards, kill + respawn)",
        &["Recoveries", "RecoverMs", "ReplayedUpdates", "Checkpoints", "CkptKB"],
        &[vec![
            format!("{}", m.recoveries),
            fmt_ms(m.recovery_secs / m.recoveries as f64),
            format!("{}", m.recovery_replayed_updates),
            format!("{}", m.checkpoints_taken),
            format!("{}", m.checkpoint_bytes / 1024),
        ]],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_mismatches_name_every_approach_that_disagrees_with_the_first() {
        assert!(digest_mismatches(&[]).is_empty());
        let agree: Vec<_> = ApproachKind::ALL.iter().map(|&k| (k, 10)).collect();
        assert!(digest_mismatches(&agree).is_empty());
        let mut one_off = agree.clone();
        one_off[4].1 = 11;
        let got = digest_mismatches(&one_off);
        assert_eq!(got, vec![format!("{}: 11 vs 10", ApproachKind::Gpma.name())]);
        // Measured against the first approach, so a disagreeing first one
        // names every other.
        one_off[0].1 = 12;
        assert_eq!(digest_mismatches(&one_off).len(), 5);
    }

    #[test]
    fn fig11_sends_every_update_of_a_slide() {
        use gpma_sim::pcie::Pcie;
        use gpma_sim::PcieConfig;
        let cfg = ExpConfig {
            max_slides: 2,
            device_cfg: DeviceConfig::deterministic(),
            ..ExpConfig::quick()
        };
        let stream = generate(DatasetKind::RedditLike, 0.0004, cfg.seed);
        let batch = stream.slide_batch_size(0.01);
        let row = fig11_row(&cfg, &stream, batch).expect("the stream has two slides");
        // A slide is `batch` insertions plus `batch` deletions; both cross
        // the link, and the BFS distance vector comes back.
        let link = Pcie::new(PcieConfig::default());
        let send = link.transfer_time(2 * batch * gpma_core::framework::BYTES_PER_UPDATE);
        assert_eq!(row.costs.h2d_updates, send);
        let fetch = link.transfer_time(stream.num_vertices as usize * 4);
        assert_eq!(row.costs.d2h_results, fetch);
        assert!(row.costs.update_compute.secs() > 0.0 && row.costs.analytics_compute.secs() > 0.0);
    }

    #[test]
    fn first_win_is_the_smallest_batch_where_fast_is_faster() {
        use ApproachKind::{CuSparseCsr as Rebuild, Gpma, GpmaPlus as Plus};
        let times = [
            (Gpma, 1, 1.0),
            (Gpma, 4, 2.0),
            (Gpma, 16, 8.0),
            (Plus, 1, 1.5),
            (Plus, 4, 2.0),
            (Plus, 16, 3.0),
            (Rebuild, 1, 9.0),
            (Rebuild, 4, 9.0),
        ];
        // A tie is not a win.
        assert_eq!(first_win(&times, Plus, Gpma), Some(16));
        assert_eq!(first_win(&times, Gpma, Plus), Some(1));
        // Rebuild never wins, and has no row at 16 to compare.
        assert_eq!(first_win(&times, Rebuild, Plus), None);
    }
}
