//! Multi-GPU analytics (§6.4): BFS, Connected Components and PageRank over
//! a partitioned [`MultiGpma`], synchronizing all devices after each
//! iteration — plus the *sharded* (cluster) BFS that runs the same
//! supersteps over per-shard host snapshots with an explicitly modeled
//! frontier exchange.
//!
//! Each device processes the rows it owns (asked of the
//! [`Partitioner`](gpma_core::multi::Partitioner) policy, so vertex-range,
//! vertex-hash and edge-grid placements all work); between iterations the
//! frontier / label / rank vectors are exchanged with the modeled ring
//! all-reduce. Compute time is the per-iteration makespan over devices;
//! communication is charged per exchange. This reproduces Figure 12's
//! split: PageRank is compute-dominated (scales), BFS/CC are
//! synchronization-dominated (trade-off with device count).

use gpma_core::multi::MultiGpma;
use gpma_sim::pcie::Pcie;
use gpma_sim::{launch, Device, DeviceBuffer, SimTime};

use crate::bfs::UNREACHED;
use crate::cc::cc_hook;
use crate::pagerank::{finalize_host, PageRank};
use crate::util::{atomic_add_f64, filled_f64, load_f64};
use crate::view::{DeviceGraphView, GpmaView, HostGraph};

/// Timing of a multi-device analytic run.
#[derive(Debug, Clone, Default)]
pub struct MultiTime {
    /// Sum over iterations of the per-iteration device makespan.
    pub compute: SimTime,
    /// Total modeled inter-device communication.
    pub comm: SimTime,
    /// Iterations (BFS levels, PageRank power steps, CC rounds) executed.
    pub iterations: usize,
}

impl MultiTime {
    /// Total modeled time: compute makespans plus communication.
    pub fn total(&self) -> SimTime {
        self.compute + self.comm
    }
}

/// Level-synchronous multi-device BFS; frontiers are synchronized after
/// every level (a `|V|/8`-byte bitmap exchange).
pub fn bfs_multi(m: &mut MultiGpma, root: u32) -> (Vec<u32>, MultiTime) {
    let nv = m.num_vertices() as usize;
    let nd = m.num_devices();
    let mut time = MultiTime::default();
    let mut dist = vec![UNREACHED; nv];
    dist[root as usize] = 0;
    let mut frontier: Vec<u32> = vec![root];
    let mut level = 0u32;
    // Per-device next-frontier flags, read back after each level.
    while !frontier.is_empty() {
        time.iterations += 1;
        let mut next_flag_bufs: Vec<DeviceBuffer<u32>> = Vec::with_capacity(nd);
        // Each shard expands the frontier vertices whose rows it stores.
        let frontier_ref = &frontier;
        let dist_ref = &dist;
        let part = m.partitioner().clone();
        let step = m.parallel_step(|i, dev, shard| {
            let mine: Vec<u32> = frontier_ref
                .iter()
                .copied()
                .filter(|&v| part.stores_row(i, v))
                .collect();
            let flags = DeviceBuffer::<u32>::new(nv);
            if !mine.is_empty() {
                let view = GpmaView::build(dev, &shard.storage);
                let fr = DeviceBuffer::from_slice(&mine);
                let dist_dev = DeviceBuffer::from_slice(dist_ref);
                let fl = &flags;
                launch!(dev, "bfs_multi_gather", mine.len(), |lane| {
                    let v = fr.get(lane, lane.tid);
                    for slot in view.row_range(lane, v) {
                        if let Some((_, dst)) = view.slot_entry(lane, slot) {
                            if dist_dev.get(lane, dst as usize) == UNREACHED {
                                fl.set(lane, dst as usize, 1);
                            }
                        }
                    }
                });
            }
            next_flag_bufs.push(flags);
        });
        time.compute += step.makespan;
        time.comm += m.allreduce_time(nv.div_ceil(8));
        // Host-side union of per-device next frontiers.
        let mut next = Vec::new();
        for flags in &next_flag_bufs {
            let f = flags.as_slice();
            for (v, &set) in f.iter().enumerate() {
                if set != 0 && dist[v] == UNREACHED {
                    dist[v] = level + 1;
                    next.push(v as u32);
                }
            }
        }
        next.sort_unstable();
        frontier = next;
        level += 1;
    }
    (dist, time)
}

/// Push SpMV over one shard: every live entry (u → v) atomically adds
/// `share[u]` to `y[v]`, where `share[u]` is `x[u] / outdeg[u]` divided
/// once per vertex, not per edge. `pagerank_device` pulls instead; a pull
/// here would change Figure 12's simulated times.
fn pr_scatter<G: DeviceGraphView>(
    dev: &Device,
    g: &G,
    share: &DeviceBuffer<u64>,
    y: &DeviceBuffer<u64>,
) {
    launch!(dev, "pr_spmv", g.num_slots(), |lane| {
        if let Some((u, v)) = g.slot_entry(lane, lane.tid) {
            let s = load_f64(lane, share, u as usize);
            atomic_add_f64(lane, y, v as usize, s);
        }
    });
}

/// Multi-device PageRank: each device scatters its shard's edges into a
/// partial rank vector; partials are all-reduced (`|V| * 8` bytes) each
/// iteration.
pub fn pagerank_multi(
    m: &mut MultiGpma,
    damping: f64,
    epsilon: f64,
    max_iters: usize,
) -> (PageRank, MultiTime) {
    let nv = m.num_vertices() as usize;
    let mut time = MultiTime::default();
    let mut x = vec![1.0 / nv as f64; nv];
    let mut converged = false;
    // Degrees are summed across shards: a vertex policy stores a whole row
    // on one device, but the edge grid splits rows across a grid row.
    let mut degs = vec![0u32; nv];
    {
        let degs_ref = &mut degs;
        m.parallel_step(|_, dev, shard| {
            let view = GpmaView::build(dev, &shard.storage);
            for (v, &d) in view.degrees().as_slice().iter().enumerate() {
                degs_ref[v] += d;
            }
        });
    }
    while time.iterations < max_iters {
        time.iterations += 1;
        let mut partials: Vec<Vec<f64>> = Vec::with_capacity(m.num_devices());
        // What every device uploads: x[u] / outdeg[u] (unread where 0).
        let share_bits: Vec<u64> = x
            .iter()
            .zip(&degs)
            .map(|(&xu, &d)| if d == 0 { 0.0 } else { xu / d as f64 })
            .map(f64::to_bits)
            .collect();
        let share_ref = &share_bits;
        let step = m.parallel_step(|_, dev, shard| {
            let view = GpmaView::build(dev, &shard.storage);
            let share = DeviceBuffer::from_slice(share_ref);
            let y = filled_f64(0.0, nv);
            pr_scatter(dev, &view, &share, &y);
            partials.push(y.to_vec().into_iter().map(f64::from_bits).collect());
        });
        time.compute += step.makespan;
        time.comm += m.allreduce_time(nv * 8);
        // Combine partials + finalize on the host (the reduction itself is
        // what the comm term models).
        let mut y = vec![0.0f64; nv];
        for p in &partials {
            for (v, &val) in p.iter().enumerate() {
                y[v] += val;
            }
        }
        let dangling: f64 = (0..nv).filter(|&v| degs[v] == 0).map(|v| x[v]).sum();
        let err = finalize_host(&mut y, &x, dangling, damping);
        x = y;
        if err < epsilon {
            converged = true;
            break;
        }
    }
    (
        PageRank {
            ranks: x,
            iterations: time.iterations,
            converged,
        },
        time,
    )
}

/// Multi-device Connected Components: per-round device hooking over each
/// shard's edges, host min-combine + pointer jumping, `|V| * 4`-byte label
/// exchange per round.
pub fn cc_multi(m: &mut MultiGpma) -> (Vec<u32>, MultiTime) {
    let nv = m.num_vertices() as usize;
    let mut time = MultiTime::default();
    let mut labels: Vec<u32> = (0..nv as u32).collect();
    loop {
        time.iterations += 1;
        let mut partials: Vec<Vec<u32>> = Vec::with_capacity(m.num_devices());
        let labels_ref = &labels;
        let step = m.parallel_step(|_, dev, shard| {
            let view = GpmaView::build(dev, &shard.storage);
            let l = DeviceBuffer::from_slice(labels_ref);
            // The fixpoint is decided on the host after the min-combine;
            // the hook's own flag goes unread.
            let changed = DeviceBuffer::<u32>::new(1);
            cc_hook(dev, &view, &l, &changed);
            partials.push(l.to_vec());
        });
        time.compute += step.makespan;
        time.comm += m.allreduce_time(nv * 4);
        // Min-combine and pointer-jump on the host.
        let mut next = labels.clone();
        for p in &partials {
            for (v, &lab) in p.iter().enumerate() {
                next[v] = next[v].min(lab);
            }
        }
        for v in 0..nv {
            let mut root = next[v];
            while next[root as usize] != root {
                root = next[root as usize];
            }
            next[v] = root;
        }
        if next == labels {
            break;
        }
        labels = next;
    }
    (labels, time)
}

// ----------------------------------------------------------------------
// Sharded (cluster) BFS over host-side shard snapshots
// ----------------------------------------------------------------------

/// Traffic and timing of one distributed BFS over cluster shards.
///
/// The shards are host-side snapshots (each shard service publishes one at
/// an epoch cut), so there is no simulated device compute here — what the
/// cluster layer adds, and what this struct accounts, is the *inter-shard
/// exchange*: how many bytes crossed the interconnect between supersteps
/// and how long the modeled transfers took.
#[derive(Debug, Clone, Default)]
pub struct ExchangeStats {
    /// Supersteps executed (BFS levels).
    pub supersteps: usize,
    /// Total bytes shipped between shards across all supersteps.
    pub bytes: u64,
    /// Modeled transfer time (ring exchange over the given link).
    pub comm: SimTime,
}

impl ExchangeStats {
    /// Charge one superstep's ring exchange: every shard ships its share to
    /// the `s - 1` peers; shards transmit concurrently, so the modeled time
    /// is bounded by the largest share per hop.
    fn charge(&mut self, link: &Pcie, per_shard_bytes: &[usize]) {
        let s = per_shard_bytes.len();
        if s <= 1 {
            return;
        }
        let hops = (s - 1) as u64;
        let total: u64 = per_shard_bytes.iter().map(|&b| b as u64).sum();
        self.bytes += total * hops;
        let max = per_shard_bytes.iter().copied().max().unwrap_or(0);
        self.comm += SimTime(link.transfer_time(max).secs() * hops as f64);
    }
}

/// Distributed level-synchronous BFS over edge-disjoint shard graphs.
///
/// Every superstep each shard expands the current frontier over its local
/// adjacency (a shard holding none of `v`'s out-edges contributes nothing,
/// so the union over shards is exactly the full graph's expansion); the
/// per-shard discovered sets are then exchanged (4 bytes per vertex id to
/// each peer) and merged into the next frontier. Matches
/// [`bfs_host`](crate::bfs_host) on the merged graph for any partitioning.
pub fn bfs_sharded<G: HostGraph + ?Sized>(
    shards: &[&G],
    num_vertices: u32,
    root: u32,
    link: &Pcie,
) -> (Vec<u32>, ExchangeStats) {
    let nv = num_vertices as usize;
    let mut stats = ExchangeStats::default();
    let mut dist = vec![UNREACHED; nv];
    dist[root as usize] = 0;
    let mut frontier: Vec<u32> = vec![root];
    let mut level = 0u32;
    // Per-shard dedup stamps, hoisted out of the level loop: comparing
    // against the superstep number instead of re-zeroing a |V|-sized
    // buffer per shard per level keeps per-level overhead proportional to
    // the frontier, not the vertex set.
    let mut seen: Vec<Vec<u32>> = shards.iter().map(|_| vec![0u32; nv]).collect();
    let mut stamp = 0u32;
    while !frontier.is_empty() {
        stats.supersteps += 1;
        stamp += 1;
        // Per-shard local expansion (deduplicated within each shard — a
        // shard ships each discovered vertex once).
        let mut discovered: Vec<Vec<u32>> = Vec::with_capacity(shards.len());
        for (si, g) in shards.iter().enumerate() {
            let seen_s = &mut seen[si];
            let mut local = Vec::new();
            for &v in &frontier {
                g.for_each_neighbor(v, &mut |d, _| {
                    let di = d as usize;
                    if dist[di] == UNREACHED && seen_s[di] != stamp {
                        seen_s[di] = stamp;
                        local.push(d);
                    }
                });
            }
            discovered.push(local);
        }
        let per_shard_bytes: Vec<usize> = discovered.iter().map(|d| d.len() * 4).collect();
        stats.charge(link, &per_shard_bytes);
        // Merge the exchanged sets into the next global frontier.
        let mut next = Vec::new();
        for local in &discovered {
            for &v in local {
                if dist[v as usize] == UNREACHED {
                    dist[v as usize] = level + 1;
                    next.push(v);
                }
            }
        }
        next.sort_unstable();
        frontier = next;
        level += 1;
    }
    (dist, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs_host;
    use crate::cc::cc_host;
    use crate::pagerank::pagerank_host;
    use gpma_baselines::AdjLists;
    use gpma_core::framework::GraphSnapshot;
    use gpma_core::multi::{EdgeGridPartition, HashVertexPartition, Partitioner};
    use gpma_graph::Edge;
    use gpma_sim::{DeviceConfig, PcieConfig};
    use std::sync::Arc;

    fn edges() -> Vec<Edge> {
        // Two lobes joined at 4: 0→1→2→3→4 and 4→5, 6→7 separate.
        vec![
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(2, 3),
            Edge::new(3, 4),
            Edge::new(4, 5),
            Edge::new(6, 7),
        ]
    }

    fn multi(devices: usize) -> MultiGpma {
        MultiGpma::build(&DeviceConfig::deterministic(), devices, 8, &edges())
    }

    #[test]
    fn bfs_multi_matches_single_reference() {
        let oracle = bfs_host(&AdjLists::build(8, &edges()), 0);
        for nd in [1usize, 2, 3] {
            let mut m = multi(nd);
            let (dist, time) = bfs_multi(&mut m, 0);
            assert_eq!(dist, oracle, "{nd} devices");
            assert!(time.iterations >= 5);
            if nd > 1 {
                assert!(time.comm.secs() > 0.0);
            } else {
                assert_eq!(time.comm.secs(), 0.0);
            }
        }
    }

    #[test]
    fn cc_multi_matches_single_reference() {
        let oracle = cc_host(&AdjLists::build(8, &edges()));
        for nd in [1usize, 2, 3] {
            let mut m = multi(nd);
            let (labels, _) = cc_multi(&mut m);
            assert_eq!(labels, oracle, "{nd} devices");
        }
    }

    #[test]
    fn pagerank_multi_matches_single_reference() {
        let expect = pagerank_host(&AdjLists::build(8, &edges()), 0.85, 1e-9, 300);
        for nd in [1usize, 2, 3] {
            let mut m = multi(nd);
            let (pr, time) = pagerank_multi(&mut m, 0.85, 1e-9, 300);
            assert!(pr.converged);
            for v in 0..8 {
                assert!(
                    (pr.ranks[v] - expect.ranks[v]).abs() < 1e-7,
                    "{nd} devices, vertex {v}"
                );
            }
            assert_eq!(time.iterations, pr.iterations);
        }
    }

    /// The device-side multi analytics stay correct under the non-default
    /// partitioning policies (hash scatters rows, the grid splits them).
    #[test]
    fn multi_analytics_match_under_every_policy() {
        let bfs_oracle = bfs_host(&AdjLists::build(8, &edges()), 0);
        let cc_oracle = cc_host(&AdjLists::build(8, &edges()));
        let pr_oracle = pagerank_host(&AdjLists::build(8, &edges()), 0.85, 1e-9, 300);
        let policies: Vec<Arc<dyn Partitioner>> = vec![
            Arc::new(HashVertexPartition {
                num_vertices: 8,
                num_shards: 3,
            }),
            Arc::new(EdgeGridPartition::new(8, 4)),
        ];
        for part in policies {
            let name = part.name().to_string();
            let mk =
                || MultiGpma::build_with(&DeviceConfig::deterministic(), part.clone(), &edges());
            let (dist, _) = bfs_multi(&mut mk(), 0);
            assert_eq!(dist, bfs_oracle, "{name}");
            let (labels, _) = cc_multi(&mut mk());
            assert_eq!(labels, cc_oracle, "{name}");
            let (pr, _) = pagerank_multi(&mut mk(), 0.85, 1e-9, 300);
            assert!(pr.converged, "{name}");
            for v in 0..8 {
                assert!((pr.ranks[v] - pr_oracle.ranks[v]).abs() < 1e-7, "{name} v{v}");
            }
        }
    }

    #[test]
    fn update_throughput_improves_with_devices() {
        use gpma_graph::UpdateBatch;
        // Same batch on 1 vs 3 devices: per-device compute shrinks, and
        // updates need no communication — near-linear scaling (Figure 12).
        let all: Vec<Edge> = (0..300u32)
            .flat_map(|s| (1..5u32).map(move |i| Edge::new(s, (s + i) % 300)))
            .collect();
        let batch = UpdateBatch {
            insertions: (0..300u32).map(|s| Edge::new(s, (s + 7) % 300)).collect(),
            deletions: vec![],
        };
        let mut m1 = MultiGpma::build(&DeviceConfig::deterministic(), 1, 300, &all);
        let t1 = m1.update_batch(&batch);
        let mut m3 = MultiGpma::build(&DeviceConfig::deterministic(), 3, 300, &all);
        let t3 = m3.update_batch(&batch);
        assert!(
            t3.total().secs() < t1.total().secs(),
            "3 devices should beat 1: {} vs {}",
            t3.total().secs(),
            t1.total().secs()
        );
    }

    /// Split an edge list into per-shard host snapshots under a policy.
    fn shard_snapshots(part: &dyn Partitioner, edges: &[Edge]) -> Vec<GraphSnapshot> {
        let mut per: Vec<Vec<Edge>> = vec![Vec::new(); part.num_shards()];
        for e in edges {
            per[part.shard_of_edge(e.src, e.dst)].push(*e);
        }
        per.into_iter()
            .map(|es| GraphSnapshot::from_edges(1, part.num_vertices(), es))
            .collect()
    }

    #[test]
    fn bfs_sharded_matches_host_oracle() {
        let oracle = bfs_host(&AdjLists::build(8, &edges()), 0);
        let link = Pcie::new(PcieConfig::default());
        let policies: Vec<Box<dyn Partitioner>> = vec![
            Box::new(HashVertexPartition {
                num_vertices: 8,
                num_shards: 4,
            }),
            Box::new(EdgeGridPartition::new(8, 4)),
        ];
        for part in &policies {
            let snaps = shard_snapshots(part.as_ref(), &edges());
            let refs: Vec<&GraphSnapshot> = snaps.iter().collect();
            let (dist, stats) = bfs_sharded(&refs, 8, 0, &link);
            assert_eq!(dist, oracle, "{}", part.name());
            assert_eq!(stats.supersteps, 6, "{}", part.name());
            assert!(stats.bytes > 0 && stats.comm.secs() > 0.0);
        }
    }

    #[test]
    fn bfs_sharded_single_shard_has_no_traffic() {
        let snap = GraphSnapshot::from_edges(1, 8, edges());
        let link = Pcie::new(PcieConfig::default());
        let (dist, stats) = bfs_sharded(&[&snap], 8, 0, &link);
        assert_eq!(dist, bfs_host(&AdjLists::build(8, &edges()), 0));
        assert_eq!(stats.bytes, 0);
        assert_eq!(stats.comm.secs(), 0.0);
    }
}
