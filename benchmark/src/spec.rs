//! The benchmark's definition: workloads with their frozen sizes, the seven
//! end-to-end metrics with their bounds, and the per-layer metric list.
//!
//! `BENCHMARK.json` at the repo root is this module rendered by
//! `gpma-benchmark spec`; a unit test holds the two equal. Sizes, bounds and
//! the probe are frozen: a change to any of them is a new benchmark issue
//! and re-measures the baseline, never part of a performance change.

use crate::json::Json;

/// Seconds one run measures (`--seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 30;

/// How often a run repeats set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 9;

/// Which layer a workload writes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Top {
    /// `DynamicGraphSystem` on the driver thread.
    Framework,
    /// One `StreamingService`.
    Service,
    /// A 2-shard `GraphCluster`.
    Cluster,
    /// A `QueryServer` over a `StreamingService`.
    Serving,
}

/// One workload: its name, why it exists, and its frozen shape.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// One line: what it stresses and why it is in the set.
    pub why: &'static str,
    /// Top layer.
    pub top: Top,
    /// Vertices of the generated graph.
    pub vertices: u32,
    /// Live edges in the sliding window.
    pub window: usize,
    /// Updates per offered batch (half insertions, half deletions).
    pub batch: usize,
    /// Whether the exact metrics repeat bit for bit for a seed: true where
    /// the program runs on the driver thread alone. With worker threads a
    /// few allocations depend on scheduling (queue growth, wake-ups), so
    /// the counts repeat only to about 1e-5.
    pub exact: bool,
    /// Batches per write section (then one publish).
    pub batches_per_write: usize,
    /// Updates of the visible section's one batch.
    pub visible_batch: usize,
    /// The read section runs every this-many rounds.
    pub read_every: usize,
    /// Unmeasured rounds before the measured window.
    pub warmup_rounds: usize,
    /// Measured rounds the counts (`update_sim_us`,
    /// `alloc_bytes_per_update`, `heap_mb_peak`) are taken over, so they do
    /// not depend on how many rounds the host managed in the time: about a
    /// third of the rounds a run manages on the reference machine.
    pub exact_rounds: usize,
}

impl WorkloadSpec {
    /// The same workload at a tenth of the size, for the 2 s test runs.
    pub fn shrunk(mut self) -> Self {
        self.vertices /= 10;
        self.window /= 10;
        self.batch = (self.batch / 4).max(32);
        self.visible_batch = self.visible_batch.min(self.batch);
        self.warmup_rounds = 1;
        self.exact_rounds = 4;
        self
    }
}

/// The four workloads.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "paper-slide",
        why: "The paper's Fig. 8-10 loop on one thread, no service: 200k-edge window, 5% slides, device BFS+CC+PageRank. Per-update cost in sim/core/analytics is nearly all of the time; baseline of the other three.",
        top: Top::Framework,
        exact: true,
        vertices: 20_000,
        window: 200_000,
        batch: 20_000,
        batches_per_write: 1,
        visible_batch: 256,
        read_every: 2,
        warmup_rounds: 4,
        exact_rounds: 80,
    },
    WorkloadSpec {
        name: "stream-small",
        why: "The same graph through one StreamingService in 256-update batches (16 per barrier): per-flush fixed cost (launch bookkeeping, O(E) snapshot publish) dominates and the per-update kernels do little.",
        top: Top::Service,
        exact: false,
        vertices: 20_000,
        window: 200_000,
        batch: 256,
        batches_per_write: 16,
        visible_batch: 256,
        read_every: 4,
        warmup_rounds: 4,
        exact_rounds: 96,
    },
    WorkloadSpec {
        name: "cluster-ingest",
        why: "The same window over a 2-shard hash-partitioned GraphCluster, one shard per CPU, 8 x 1024-update batches per epoch cut: routing, fan-out, barrier acks and cut publish carry the cost, not the stores.",
        top: Top::Cluster,
        exact: false,
        vertices: 20_000,
        window: 200_000,
        batch: 1024,
        batches_per_write: 8,
        visible_batch: 1024,
        read_every: 4,
        warmup_rounds: 4,
        exact_rounds: 96,
    },
    WorkloadSpec {
        name: "serve-mixed",
        why: "Reads beside writes: QueryServer (1 worker, cache on) over a service, 100k-edge window, 4 x 256 updates per barrier, 64-query mix. The cache, its delta patching and the publish path dominate.",
        top: Top::Serving,
        exact: false,
        vertices: 20_000,
        window: 100_000,
        batch: 256,
        batches_per_write: 4,
        visible_batch: 256,
        read_every: 1,
        warmup_rounds: 4,
        exact_rounds: 128,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<WorkloadSpec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Name (per-layer names carry the crate prefix).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: share of the parent's median the metric may worsen
    /// by before a change is rejected.
    pub bound: Option<f64>,
    /// Whether the metric is a count that repeats for one seed: end-to-end
    /// ones to 1e-9 on workloads flagged [`WorkloadSpec::exact`] (`compare`
    /// treats a change there as a breach), per-layer ones because the tour
    /// is fixed work (`compare` reports a change, per-layer is not gated).
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
        exact,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: false,
    }
}

/// A per-layer count that repeats exactly for a seed (the tour is fixed
/// work); lower is better.
const fn count(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: true,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
        bound: None,
        exact: false,
    }
}

/// The seven end-to-end metrics, reported by every workload.
pub const END_TO_END: [MetricSpec; 7] = [
    e2e("setup_s", "s", Better::Lower, 0.10, false),
    e2e("updates_per_s", "updates/s", Better::Higher, 0.10, false),
    e2e("visible_ms", "ms", Better::Lower, 0.10, false),
    e2e("read_ms", "ms", Better::Lower, 0.10, false),
    e2e("update_sim_us", "sim_us", Better::Lower, 0.02, true),
    e2e("alloc_bytes_per_update", "bytes", Better::Lower, 0.02, true),
    e2e("heap_mb_peak", "MB", Better::Lower, 0.05, false),
];

/// The per-layer metrics, reported by every traced run.
pub const PER_LAYER: &[MetricSpec] = &[
    // gpma-sim: what simulating a kernel costs the host, and what the
    // update path asks of the device.
    lo("sim.launch_host_us", "us"),
    lo("sim.lane_host_ns", "ns"),
    lo("sim.sort_host_ns_per_key", "ns"),
    lo("sim.scan_host_ns_per_elem", "ns"),
    count("sim.launches_per_batch", "count"),
    count("sim.mem_transactions_per_update", "count"),
    count("sim.atomic_conflicts_per_update", "count"),
    lo("sim.host_us_per_sim_us", "ratio"),
    // CPU PMA, generator, rebuild baseline.
    lo("pma.insert_us_per_update", "us"),
    lo("graph.generate_s", "s"),
    lo("graph.batch_build_us", "us"),
    count("baselines.rebuild_sim_us_per_update", "sim_us"),
    // gpma-core.
    lo("core.build_s", "s"),
    lo("core.apply_us_per_update", "us"),
    lo("core.apply_small_us_per_update", "us"),
    count("core.apply_sim_us_per_update", "sim_us"),
    lo("core.flush_self_us_per_update", "us"),
    lo("core.snapshot_ms", "ms"),
    lo("core.apply_delta_ms", "ms"),
    count("core.delta_bytes_per_update", "bytes"),
    count("core.levels_per_batch", "count"),
    count("core.resizes", "count"),
    hi("core.speedup_vs_rebuild_sim", "ratio"),
    // gpma-analytics: device kernels (host ms and simulated ms) and the
    // host references.
    lo("analytics.bfs_ms", "ms"),
    lo("analytics.cc_ms", "ms"),
    lo("analytics.pagerank_ms", "ms"),
    count("analytics.bfs_sim_ms", "sim_ms"),
    count("analytics.cc_sim_ms", "sim_ms"),
    count("analytics.pagerank_sim_ms", "sim_ms"),
    count("analytics.pagerank_iters", "count"),
    lo("analytics.bfs_host_ms", "ms"),
    lo("analytics.cc_host_ms", "ms"),
    lo("analytics.pagerank_host_ms", "ms"),
    // gpma-incremental.
    lo("incremental.rebase_ms", "ms"),
    lo("incremental.apply_us_per_delta", "us"),
    lo("incremental.apply_us_p99", "us"),
    count("incremental.bfs_work_per_delta", "count"),
    count("incremental.cc_work_per_delta", "count"),
    count("incremental.pagerank_work_per_delta", "count"),
    // gpma-service.
    lo("service.enqueue_us_p50", "us"),
    lo("service.enqueue_us_p99", "us"),
    lo("service.enqueue_us_max", "us"),
    lo("service.barrier_ms_p50", "ms"),
    lo("service.snapshot_call_us_p50", "us"),
    lo("service.deltas_since_us_p50", "us"),
    lo("service.flush_apply_us_mean", "us"),
    lo("service.flush_publish_us_mean", "us"),
    lo("service.flush_total_us_max", "us"),
    count("service.flushes", "count"),
    hi("service.updates_per_flush", "count"),
    lo("service.max_queue_depth", "count"),
    lo("service.worker_busy_ratio", "ratio"),
    count("service.snapshot_bytes_per_update", "bytes"),
    count("service.delta_bytes_per_update", "bytes"),
    count("service.dropped_updates", "count"),
    count("service.worker_errors", "count"),
    // gpma-cluster.
    lo("cluster.enqueue_us_p50", "us"),
    lo("cluster.enqueue_us_p99", "us"),
    lo("cluster.route_us_per_update", "us"),
    lo("cluster.cut_ms_p50", "ms"),
    lo("cluster.cut_ms_max", "ms"),
    lo("cluster.to_graph_snapshot_ms", "ms"),
    count("cluster.route_imbalance", "ratio"),
    count("cluster.cut_edge_fraction", "ratio"),
    count("cluster.transfer_bytes_per_update", "bytes"),
    count("cluster.dmas_per_kupdate", "count"),
    count("cluster.shard_flushes", "count"),
    count("cluster.delta_fallbacks", "count"),
    count("cluster.dropped_updates", "count"),
    count("cluster.worker_errors", "count"),
    lo("cluster.reshard_pause_ms", "ms"),
    lo("cluster.reshard_background_s", "s"),
    count("cluster.reshard_migrated_edges", "count"),
    // gpma-serving.
    lo("serving.admit_us_mean", "us"),
    hi("serving.hit_ratio", "ratio"),
    lo("serving.hit_us_p50", "us"),
    lo("serving.miss_ms_p50", "ms"),
    lo("serving.point_us_p50", "us"),
    lo("serving.bfs_ms_p50", "ms"),
    lo("serving.cc_ms_p50", "ms"),
    lo("serving.pagerank_ms_p50", "ms"),
    lo("serving.refresh_us_p50", "us"),
    count("serving.invalidations_per_refresh", "count"),
    lo("serving.query_ms_max", "ms"),
    count("serving.shed_ratio", "ratio"),
    lo("serving.queue_depth_max", "count"),
    // The benchmark's own spans.
    lo("obs.span_ns", "ns"),
    hi("obs.overhead_ratio", "ratio"),
    // The layer ladder: the workload's write batches through each rung.
    lo("ladder.sim_us", "us"),
    lo("ladder.core_us", "us"),
    lo("ladder.framework_us", "us"),
    lo("ladder.service_us", "us"),
    lo("ladder.cluster_us", "us"),
    lo("ladder.serving_us", "us"),
    lo("ladder.unattributed_ratio", "ratio"),
    // The run itself.
    hi("env.cores", "count"),
    hi("env.rounds", "count"),
    lo("env.elapsed_s", "s"),
    lo("env.probe_ms_p50", "ms"),
    lo("env.probe_iqr_ratio", "ratio"),
    lo("env.round_iqr_ratio", "ratio"),
    hi("env.raw_updates_per_s", "updates/s"),
    lo("env.raw_visible_ms", "ms"),
    lo("env.raw_read_ms", "ms"),
    lo("env.raw_setup_s", "s"),
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound.unwrap_or(0.0))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn spec_stays_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names = HashSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
            assert!(names.insert(w.name));
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        for m in &END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.unwrap() <= setup.bound.unwrap()));
        assert!(benchmark_json().to_pretty().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_on_disk_equals_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `gpma-benchmark spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn shrunk_workloads_keep_their_shape() {
        for w in WORKLOADS {
            let s = w.shrunk();
            assert_eq!(s.top, w.top);
            assert!(s.window >= s.batch * s.batches_per_write, "{}", s.name);
            assert!(s.visible_batch <= s.window && s.batch % 2 == 0);
        }
    }
}
