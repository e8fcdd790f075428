//! Multi-tenant query serving over a live ingest stream (`gpma-serving`):
//! four producer threads pour a Graph500-like edge stream through
//! per-tenant ingest quotas while three tenants — an unlimited dashboard,
//! a rate-limited analytics batch job, and a tightly-capped ad-hoc user —
//! hammer the typed query vocabulary. The delta-maintained result cache
//! memoizes the whole-graph answers and keeps BFS (repaired on lookup,
//! root 0 never evicted) and CC across every flush, point queries read the
//! published image directly, and the token buckets shed the ad-hoc
//! tenant's overflow without ever blocking the others.
//!
//! ```sh
//! cargo run --release --example query_serving
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gpma_core::framework::DynamicGraphSystem;
use gpma_graph::datasets::{generate, DatasetKind};
use gpma_graph::UpdateBatch;
use gpma_obs::Stage;
use gpma_service::{ServiceConfig, StreamingService};
use gpma_serving::{PageRankParams, Query, QueryServer, Rejected, ServingConfig, TenantConfig};
use gpma_sim::{Device, DeviceConfig};

const PRODUCERS: usize = 4;
const ROUNDS: usize = 120;

fn main() {
    let stream = generate(DatasetKind::Graph500, 0.001, 42);
    println!(
        "stream: {} — {} vertices, {} edges ({} initial)",
        stream.name,
        stream.num_vertices,
        stream.len(),
        stream.initial_size()
    );

    let dev = Device::new(DeviceConfig::default());
    let sys = DynamicGraphSystem::new(dev, stream.num_vertices, stream.initial_edges(), 64);
    let svc = Arc::new(StreamingService::spawn(ServiceConfig::default(), sys));

    // Three tenants with very different contracts. Rates are tokens/sec:
    // one query or one ingested update each costs one token.
    let server = Arc::new(QueryServer::spawn(
        Arc::clone(&svc),
        ServingConfig {
            workers: 3,
            queue_capacity: 128,
            cache: true,
            bfs_roots: vec![0],
            pagerank: PageRankParams {
                damping: 0.85,
                epsilon: 1e-6,
                max_iters: 30,
            },
            tenants: vec![
                TenantConfig::unlimited("dashboard"),
                TenantConfig::new("analytics", 500.0, 200_000.0),
                TenantConfig::new("adhoc", 40.0, 0.0).with_bursts(10.0, 1.0),
            ],
            ..Default::default()
        },
    ));

    // Four producers split a bounded slice of the tail and push it
    // through ingest quotas while the query loop below runs.
    let tail: Vec<_> = stream.edges[stream.initial_size()..][..40_000].to_vec();
    let stop = Arc::new(AtomicBool::new(false));
    println!("feeding {} live edges from {PRODUCERS} producer threads ...", tail.len());
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            let slice: Vec<_> = tail.iter().skip(p).step_by(PRODUCERS).copied().collect();
            std::thread::spawn(move || {
                // Producers 0-1 write as the dashboard, 2-3 as analytics.
                let tenant = if p < 2 { 0 } else { 1 };
                for chunk in slice.chunks(16) {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let batch = UpdateBatch {
                        insertions: chunk.to_vec(),
                        deletions: vec![],
                    };
                    match server.ingest(tenant, batch) {
                        Ok(_) => {}
                        Err(Rejected::QuotaExceeded) => std::thread::yield_now(),
                        Err(_) => return,
                    }
                    std::thread::yield_now();
                }
            })
        })
        .collect();

    // The query mix every tenant rotates through while ingest runs.
    let queries = [
        Query::Bfs { src: 0 },
        Query::Cc,
        Query::PageRank { top_k: 5 },
        Query::Degree { v: 1 },
        Query::EdgeExists { u: 0, v: 1 },
        Query::Neighbors { v: 1 },
    ];
    let t0 = Instant::now();
    for round in 0..ROUNDS {
        let mut tickets = Vec::new();
        for tenant in 0..3u32 {
            let q = queries[(round + tenant as usize) % queries.len()];
            if let Ok(t) = server.submit(tenant, q) {
                tickets.push(t);
            }
        }
        for t in tickets {
            let _ = t.wait();
        }
        // Pace the rounds so flushes publish between them: the cache gets
        // continuously refreshed instead of staying warm at one epoch.
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    stop.store(true, Ordering::Relaxed);
    for p in producers {
        p.join().expect("producer thread");
    }
    println!(
        "{ROUNDS} query rounds x 3 tenants in {:.1} ms",
        t0.elapsed().as_secs_f64() * 1e3
    );

    // Per-tenant accounting + the query.* stage histograms.
    let obs = Arc::clone(server.obs());
    let server = Arc::into_inner(server).expect("producers joined");
    let metrics = server.shutdown();
    println!("\n{metrics}");
    for t in &metrics.tenants {
        println!(
            "  {:<10} submitted {:>4}  admitted {:>4}  shed {:>3} (quota {:>3})  hit rate {:>5.1}%  ingested {:>6} (+{} shed)",
            t.name,
            t.submitted,
            t.admitted,
            t.rejected(),
            t.rejected_quota,
            t.hit_rate() * 100.0,
            t.ingested,
            t.ingest_shed,
        );
    }

    let total = obs.hist(Stage::QueryTotal).snapshot();
    let hit = obs.hist(Stage::QueryCacheHit).snapshot();
    let exec = obs.hist(Stage::QueryExec).snapshot();
    let totals = metrics.totals();
    println!(
        "\nlatency: query.total p50 {}us p99 {}us ({} queries) | cache_hit p50 {}us ({}) | exec p50 {}us ({})",
        total.p50, total.p99, total.count, hit.p50, hit.count, exec.p50, exec.count,
    );
    println!(
        "cache: {:.1}% hit rate over {} completed queries, {} entries at epoch {}",
        totals.hit_rate() * 100.0,
        totals.completed(),
        metrics.cache_entries,
        metrics.epoch,
    );
    // Only whole-graph answers are memoized: at most one entry per tenant
    // for each of the mix's BFS, CC and PageRank queries.
    assert!(
        metrics.cache_entries <= 3 * 3,
        "point answers must not be memoized ({} entries)",
        metrics.cache_entries
    );
    let report = Arc::into_inner(svc).expect("server shut down").shutdown();
    println!(
        "ingest: {} updates accepted by the service, final epoch {}",
        report.metrics.counters.ingested(),
        report.metrics.latest_epoch
    );
}
