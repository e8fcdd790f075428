//! The four workloads: a top rung to write through, a read section on the
//! just-published state, and the correctness checks against the oracle.
//!
//! All four are driven by the same closed, lock-step loop (`driver.rs`):
//! one client, the next call issued only after the previous one returned,
//! every section ending in a barrier/cut/`wait`. A workload therefore
//! decides *what* is called, never *when*.

use std::sync::Arc;

use gpma_analytics::{
    bfs_device, bfs_host, bfs_sharded, cc_device, cc_host, pagerank_device, GpmaView, DAMPING,
};
use gpma_core::framework::GraphSnapshot;
use gpma_graph::Edge;
use gpma_serving::{execute, PageRankParams, Query, QueryResult};
use gpma_sim::pcie::Pcie;
use gpma_sim::PcieConfig;

use crate::oracle::Oracle;
use crate::rungs::{
    ClusterRung, FrameworkRung, Rung, ServiceRung, ServingRung, HOT_BFS_ROOTS,
    SERVED_PAGERANK_ITERS,
};
use crate::spec::{Top, WorkloadSpec};
use crate::stream::{SlideStream, SplitMix};
use crate::trace::Tracer;

/// BFS root of the analytics reads: Pokec-like ids are rank-ordered, so
/// vertex 0 is the best-connected one and the traversal covers the graph.
pub const BFS_ROOT: u32 = 0;

/// PageRank iterations of the paper-slide read. Run with a convergence
/// threshold of zero, so every read does exactly this many iterations and
/// its work does not depend on where the graph happens to converge.
pub const DEVICE_PAGERANK_ITERS: usize = 10;

/// Queries in one serve-mixed read section.
pub const MIX_QUERIES: usize = 64;

/// What the driver needs from a workload.
pub trait Workload {
    /// The layer the write and visible sections go through.
    fn rung(&mut self) -> &mut dyn Rung;

    /// The read section on the just-published state; returns the number of
    /// queries it submitted (for `attempted`).
    fn read(&mut self, tr: &mut Tracer) -> u64;

    /// Untimed: does the published state equal the oracle, and do the
    /// program's own answers agree with an independent computation?
    fn check(&mut self, oracle: &Oracle) -> bool;

    /// Untimed hook between rounds (counters that need a round trip).
    fn between_rounds(&mut self) {}

    /// Stop every thread the workload started and hand back the final
    /// state its shutdown produced.
    fn stop(self: Box<Self>) -> Stopped;
}

/// What a stopped workload leaves behind.
pub struct Stopped {
    /// The final published state (must equal the oracle).
    pub final_snapshot: Arc<GraphSnapshot>,
    /// No update or query was shed, dropped or rejected, and no worker
    /// logged an error, over the workload's whole life.
    pub clean: bool,
}

/// Build `spec`'s workload over the stream's initial window.
pub fn build(spec: &WorkloadSpec, stream: &SlideStream, seed: u64) -> Box<dyn Workload> {
    let nv = stream.num_vertices();
    let initial = stream.initial();
    match spec.top {
        Top::Framework => Box::new(PaperSlide {
            rung: FrameworkRung::new(nv, initial, spec.batch),
        }),
        Top::Service => Box::new(StreamSmall {
            rung: ServiceRung::new(nv, initial, spec.batch),
            seen_epoch: 0,
        }),
        Top::Cluster => Box::new(ClusterIngest {
            rung: ClusterRung::new(nv, initial, spec.batch),
            link: Pcie::new(PcieConfig::default()),
            num_vertices: nv,
        }),
        Top::Serving => Box::new(ServeMixed {
            mix: query_mix(nv, initial, seed),
            rung: ServingRung::new(nv, initial, spec.batch),
            answers: Vec::new(),
            num_vertices: nv,
        }),
    }
}

// ----------------------------------------------------------------------
// paper-slide
// ----------------------------------------------------------------------

struct PaperSlide {
    rung: FrameworkRung,
}

impl Workload for PaperSlide {
    fn rung(&mut self) -> &mut dyn Rung {
        &mut self.rung
    }

    fn read(&mut self, tr: &mut Tracer) -> u64 {
        self.rung.sys.ad_hoc(|dev, g| {
            let view = tr.span("analytics.view_build", || GpmaView::build(dev, &g.storage));
            let dist = tr.span("analytics.bfs_device", || bfs_device(dev, &view, BFS_ROOT));
            let labels = tr.span("analytics.cc_device", || cc_device(dev, &view));
            let ranks = tr.span("analytics.pagerank_device", || {
                pagerank_device(dev, &view, DAMPING, 0.0, DEVICE_PAGERANK_ITERS)
            });
            std::hint::black_box((dist.len(), labels.len(), ranks.iterations));
        });
        3
    }

    fn check(&mut self, oracle: &Oracle) -> bool {
        let snap = self.rung.sys.snapshot();
        let (dist, labels) = self.rung.sys.ad_hoc(|dev, g| {
            let view = GpmaView::build(dev, &g.storage);
            (
                bfs_device(dev, &view, BFS_ROOT).to_vec(),
                cc_device(dev, &view).to_vec(),
            )
        });
        oracle.matches(&snap) && dist == bfs_host(&snap, BFS_ROOT) && labels == cc_host(&snap)
    }

    fn stop(self: Box<Self>) -> Stopped {
        Stopped {
            final_snapshot: Arc::new(self.rung.sys.snapshot()),
            clean: true,
        }
    }
}

// ----------------------------------------------------------------------
// stream-small
// ----------------------------------------------------------------------

struct StreamSmall {
    rung: ServiceRung,
    /// Epoch the reader has caught up to through `deltas_since`.
    seen_epoch: u64,
}

impl Workload for StreamSmall {
    fn rung(&mut self) -> &mut dyn Rung {
        &mut self.rung
    }

    fn read(&mut self, tr: &mut Tracer) -> u64 {
        let svc = &self.rung.svc;
        let snap = tr.span("service.snapshot", || svc.snapshot());
        let since = self.seen_epoch;
        let chain = tr.span("service.deltas_since", || svc.deltas_since(since));
        self.seen_epoch = snap.epoch();
        let dist = tr.span("analytics.bfs_host", || bfs_host(&*snap, BFS_ROOT));
        let labels = tr.span("analytics.cc_host", || cc_host(&*snap));
        std::hint::black_box((chain, dist.len(), labels.len()));
        4
    }

    fn check(&mut self, oracle: &Oracle) -> bool {
        oracle.matches(&self.rung.svc.snapshot())
    }

    fn stop(self: Box<Self>) -> Stopped {
        let report = self.rung.svc.shutdown();
        Stopped {
            clean: report.metrics.counters.dropped_updates == 0
                && report.metrics.worker_errors == 0,
            final_snapshot: report.final_snapshot,
        }
    }
}

// ----------------------------------------------------------------------
// cluster-ingest
// ----------------------------------------------------------------------

struct ClusterIngest {
    rung: ClusterRung,
    link: Pcie,
    num_vertices: u32,
}

impl Workload for ClusterIngest {
    fn rung(&mut self) -> &mut dyn Rung {
        &mut self.rung
    }

    fn read(&mut self, tr: &mut Tracer) -> u64 {
        let cut = tr.span("cluster.snapshot", || self.rung.cluster.snapshot());
        let (dist, _) = tr.span("analytics.bfs_sharded", || {
            bfs_sharded(&cut.shard_refs(), self.num_vertices, BFS_ROOT, &self.link)
        });
        let merged = tr.span("cluster.to_graph_snapshot", || cut.to_graph_snapshot());
        std::hint::black_box((dist.len(), merged.num_edges()));
        2
    }

    fn check(&mut self, oracle: &Oracle) -> bool {
        let cut = self.rung.cluster.snapshot();
        let merged = cut.to_graph_snapshot();
        let (dist, _) = bfs_sharded(&cut.shard_refs(), self.num_vertices, BFS_ROOT, &self.link);
        oracle.matches(&merged) && dist == bfs_host(&merged, BFS_ROOT)
    }

    fn between_rounds(&mut self) {
        self.rung.refresh_counters();
    }

    fn stop(self: Box<Self>) -> Stopped {
        let report = self.rung.cluster.shutdown();
        let m = &report.metrics;
        Stopped {
            clean: m.dropped_updates == 0 && m.worker_errors == 0 && m.delta_fallbacks == 0,
            final_snapshot: Arc::new(report.final_snapshot.to_graph_snapshot()),
        }
    }
}

// ----------------------------------------------------------------------
// serve-mixed
// ----------------------------------------------------------------------

struct ServeMixed {
    rung: ServingRung,
    mix: Vec<Query>,
    /// The last read section's answers, for the sampled check.
    answers: Vec<Option<QueryResult>>,
    num_vertices: u32,
}

/// The fixed 64-query mix for `seed`: 45 point queries (Degree, EdgeExists,
/// Neighbors, 15 each), 12 BFS at the four hot roots, 3 BFS elsewhere, 3 CC,
/// 1 PageRank top-10 — 70 / 20 / 5 / 4 / 1 % rounded to whole queries — in
/// a seeded order.
pub fn query_mix(num_vertices: u32, initial: &[Edge], seed: u64) -> Vec<Query> {
    let mut rng = SplitMix(seed ^ 0x5EED_0FA1);
    let nv = num_vertices as u64;
    let mut mix = Vec::with_capacity(MIX_QUERIES);
    for _ in 0..15 {
        mix.push(Query::Degree {
            v: rng.below(nv) as u32,
        });
        let e = initial[rng.below(initial.len() as u64) as usize];
        mix.push(Query::EdgeExists { u: e.src, v: e.dst });
        mix.push(Query::Neighbors {
            v: rng.below(nv) as u32,
        });
    }
    for i in 0..12 {
        mix.push(Query::Bfs {
            src: HOT_BFS_ROOTS[i % HOT_BFS_ROOTS.len()],
        });
    }
    for _ in 0..3 {
        // Any vertex past the hot roots.
        let src = HOT_BFS_ROOTS.len() as u64 + rng.below(nv - HOT_BFS_ROOTS.len() as u64);
        mix.push(Query::Bfs { src: src as u32 });
    }
    mix.extend([Query::Cc; 3]);
    mix.push(Query::PageRank { top_k: 10 });
    debug_assert_eq!(mix.len(), MIX_QUERIES);
    for i in (1..mix.len()).rev() {
        mix.swap(i, rng.below(i as u64 + 1) as usize);
    }
    mix
}

impl Workload for ServeMixed {
    fn rung(&mut self) -> &mut dyn Rung {
        &mut self.rung
    }

    fn read(&mut self, tr: &mut Tracer) -> u64 {
        self.answers.clear();
        for &q in &self.mix {
            self.answers.push(self.rung.ask(q, tr));
        }
        self.mix.len() as u64
    }

    fn check(&mut self, oracle: &Oracle) -> bool {
        // The answers were served from the state the last publish made
        // visible; nothing was offered since, so the oracle is at the same
        // point. Recompute every answer on an independent snapshot.
        let snap: GraphSnapshot = oracle.to_snapshot(self.num_vertices);
        let params = PageRankParams {
            max_iters: SERVED_PAGERANK_ITERS,
            ..Default::default()
        };
        let wrong = self
            .mix
            .iter()
            .zip(&self.answers)
            .find(|&(&q, a)| a.as_ref() != Some(&execute(q, &snap, params)));
        if let Some((q, _)) = wrong {
            eprintln!("serve-mixed: served answer to {q:?} differs from execute() on the oracle's snapshot");
        }
        let answers_ok = wrong.is_none();
        answers_ok && oracle.matches(&self.rung.svc.snapshot())
    }

    fn stop(self: Box<Self>) -> Stopped {
        let (serving, service) = self.rung.shutdown();
        let t = serving.totals();
        Stopped {
            clean: t.rejected() == 0
                && t.ingest_shed == 0
                && service.metrics.counters.dropped_updates == 0
                && service.metrics.worker_errors == 0,
            final_snapshot: service.final_snapshot,
        }
    }
}
