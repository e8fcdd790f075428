//! Multi-device GPMA+ (Section 6.4): the graph is partitioned across
//! several simulated GPUs by a pluggable [`Partitioner`] policy, updates are
//! routed to the shard owning each edge, and analytics synchronize all
//! devices after each iteration with a modeled peer-to-peer exchange.
//!
//! Per-step time is the *makespan* (slowest device) plus communication —
//! exactly the trade-off Figure 12 reports: update and PageRank scale with
//! device count, while BFS/ConnectedComponent pay relatively more for
//! synchronization.
//!
//! Three partitioning policies ship with the crate:
//!
//! * [`VertexPartition`] — contiguous vertex ranges (the paper's §6.4
//!   setup); a vertex's whole out-row lives on one shard.
//! * [`HashVertexPartition`] — vertices scattered by a multiplicative hash;
//!   same row-locality as ranges but balanced under skewed vertex ids.
//! * [`EdgeGridPartition`] — the 2D edge-grid decomposition used by
//!   multi-GPU frameworks (Gunrock-style): shard `(r, c)` of an `R × C`
//!   grid stores edges whose source falls in row-block `r` and destination
//!   in column-block `c`. A vertex's out-row spans the `C` shards of its
//!   row-block, which trades heavier frontier exchange for balanced edge
//!   storage on power-law graphs.

use std::sync::Arc;

use gpma_graph::{Edge, UpdateBatch};
use gpma_sim::pcie::Pcie;
use gpma_sim::{Device, DeviceConfig, PcieConfig, SimTime};

use crate::gpma_plus::GpmaPlus;

/// A policy assigning edges and per-vertex state to shards.
///
/// One trait serves both layers that need placement decisions: the storage
/// router ([`MultiGpma::update_batch`], the `gpma-cluster` ingest router)
/// asks [`shard_of_edge`](Self::shard_of_edge), while distributed analytics
/// ask [`stores_row`](Self::stores_row) (which shards must expand a frontier
/// vertex) and [`home_of_vertex`](Self::home_of_vertex) (where a vertex's
/// aggregate — distance, rank — is accounted when modeling exchange
/// traffic).
pub trait Partitioner: Send + Sync {
    /// Short stable policy name (bench tables, reports).
    fn name(&self) -> &str;

    /// Number of shards this policy distributes over.
    fn num_shards(&self) -> usize;

    /// Total vertices being partitioned (vertex ids stay global).
    fn num_vertices(&self) -> u32;

    /// The shard storing edge `(src, dst)`.
    fn shard_of_edge(&self, src: u32, dst: u32) -> usize;

    /// The shard owning vertex `v`'s aggregation state.
    fn home_of_vertex(&self, v: u32) -> usize;

    /// True when `shard` may store out-edges of `v` — the shards a frontier
    /// expansion of `v` must run on. Vertex policies return true for exactly
    /// one shard; the edge grid for one grid row (`C` shards).
    fn stores_row(&self, shard: usize, v: u32) -> bool;

    /// Edges crossing shard state boundaries: true when the two endpoints
    /// have different homes (each such edge implies inter-device traffic
    /// when analytics propagate along it).
    fn is_cut_edge(&self, src: u32, dst: u32) -> bool {
        self.home_of_vertex(src) != self.home_of_vertex(dst)
    }
}

/// Contiguous vertex-range partition over `num_shards` devices.
#[derive(Debug, Clone, Copy)]
pub struct VertexPartition {
    /// Total vertices being partitioned.
    pub num_vertices: u32,
    /// Number of devices (shards).
    pub num_shards: usize,
}

impl VertexPartition {
    /// The shard owning source vertex `v`.
    pub fn shard_of(&self, v: u32) -> usize {
        debug_assert!(v < self.num_vertices);
        let per = self.num_vertices.div_ceil(self.num_shards as u32).max(1);
        ((v / per) as usize).min(self.num_shards - 1)
    }

    /// Vertex range owned by `shard`.
    pub fn range_of(&self, shard: usize) -> std::ops::Range<u32> {
        let per = self.num_vertices.div_ceil(self.num_shards as u32).max(1);
        let lo = (shard as u32) * per;
        let hi = ((shard as u32 + 1) * per).min(self.num_vertices);
        lo.min(hi)..hi
    }
}

impl Partitioner for VertexPartition {
    fn name(&self) -> &str {
        "vertex-range"
    }
    fn num_shards(&self) -> usize {
        self.num_shards
    }
    fn num_vertices(&self) -> u32 {
        self.num_vertices
    }
    fn shard_of_edge(&self, src: u32, _dst: u32) -> usize {
        self.shard_of(src)
    }
    fn home_of_vertex(&self, v: u32) -> usize {
        self.shard_of(v)
    }
    fn stores_row(&self, shard: usize, v: u32) -> bool {
        shard == self.shard_of(v)
    }
}

/// Vertex partition by multiplicative hash: shard `h(src) mod S`.
///
/// Keeps whole out-rows on one shard like [`VertexPartition`], but scatters
/// adjacent vertex ids so range-clustered graphs (e.g. crawl order) do not
/// pile onto one device.
#[derive(Debug, Clone, Copy)]
pub struct HashVertexPartition {
    /// Total vertices being partitioned.
    pub num_vertices: u32,
    /// Number of shards.
    pub num_shards: usize,
}

impl HashVertexPartition {
    /// Fibonacci-style multiplicative hash, then fold onto the shard count.
    fn shard_of(&self, v: u32) -> usize {
        let h = v.wrapping_mul(0x9E37_79B1).rotate_right(16);
        (h as usize) % self.num_shards.max(1)
    }
}

impl Partitioner for HashVertexPartition {
    fn name(&self) -> &str {
        "vertex-hash"
    }
    fn num_shards(&self) -> usize {
        self.num_shards
    }
    fn num_vertices(&self) -> u32 {
        self.num_vertices
    }
    fn shard_of_edge(&self, src: u32, _dst: u32) -> usize {
        self.shard_of(src)
    }
    fn home_of_vertex(&self, v: u32) -> usize {
        self.shard_of(v)
    }
    fn stores_row(&self, shard: usize, v: u32) -> bool {
        shard == self.shard_of(v)
    }
}

/// 2D edge-grid partition: shard `(r, c)` of an `R × C` grid stores the
/// edges whose source lies in contiguous row-block `r` and destination in
/// column-block `c`.
///
/// Out-rows span the `C` shards of one grid row, so updates stay
/// single-shard (each edge has one owner) while frontier analytics must
/// broadcast a vertex to `C` shards — the storage-balance vs communication
/// trade-off this policy exists to expose (Figure 12's second axis).
#[derive(Debug, Clone, Copy)]
pub struct EdgeGridPartition {
    /// Total vertices being partitioned.
    pub num_vertices: u32,
    /// Grid rows (source blocks).
    pub rows: usize,
    /// Grid columns (destination blocks).
    pub cols: usize,
}

impl EdgeGridPartition {
    /// Build the most square `R × C` grid with `R * C == num_shards`
    /// (`R <= C`; a prime shard count degenerates to `1 × S`).
    pub fn new(num_vertices: u32, num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        let mut rows = 1usize;
        let mut r = 1usize;
        while r * r <= num_shards {
            if num_shards.is_multiple_of(r) {
                rows = r;
            }
            r += 1;
        }
        EdgeGridPartition {
            num_vertices,
            rows,
            cols: num_shards / rows,
        }
    }

    fn block_of(&self, v: u32, blocks: usize) -> usize {
        let per = self.num_vertices.div_ceil(blocks as u32).max(1);
        ((v / per) as usize).min(blocks - 1)
    }

    /// Grid row-block of source vertex `v`.
    pub fn row_of(&self, v: u32) -> usize {
        self.block_of(v, self.rows)
    }

    /// Grid column-block of destination vertex `v`.
    pub fn col_of(&self, v: u32) -> usize {
        self.block_of(v, self.cols)
    }
}

impl Partitioner for EdgeGridPartition {
    fn name(&self) -> &str {
        "edge-grid"
    }
    fn num_shards(&self) -> usize {
        self.rows * self.cols
    }
    fn num_vertices(&self) -> u32 {
        self.num_vertices
    }
    fn shard_of_edge(&self, src: u32, dst: u32) -> usize {
        self.row_of(src) * self.cols + self.col_of(dst)
    }
    fn home_of_vertex(&self, v: u32) -> usize {
        // Diagonal block: the shard holding `v`'s self-quadrant.
        self.row_of(v) * self.cols + self.col_of(v)
    }
    fn stores_row(&self, shard: usize, v: u32) -> bool {
        shard / self.cols == self.row_of(v)
    }
}

/// Degree-aware 1D partition: vertices are assigned to shards by a greedy
/// balanced (LPT-style) pass over *observed* per-vertex load, heaviest
/// first, each to the currently lightest shard.
///
/// This is the natural rebalance target for power-law graphs: vertex
/// policies that ignore degree pile hub rows onto whichever shard the
/// range/hash happens to pick (the ~2× imbalance
/// `ClusterMetrics::routing_skew` measures on the edge grid), while the
/// greedy assignment bounds the busiest shard at `mean + max_single_vertex`
/// — within a few percent of perfect balance unless one vertex dominates
/// the whole stream. Like the other vertex policies a vertex's whole
/// out-row lives on one shard, so updates stay single-shard and frontier
/// expansion touches exactly one device per vertex.
#[derive(Debug, Clone)]
pub struct DegreePartition {
    num_shards: usize,
    /// Shard of each vertex (index = vertex id).
    assign: Arc<Vec<u32>>,
}

impl DegreePartition {
    /// Build from observed per-vertex load (out-degree, routed-update
    /// counts, …; index = vertex id): sort vertices by load descending and
    /// greedily give each to the least-loaded shard. Zero-load vertices
    /// round-robin across shards (count tie-break) so future traffic on
    /// unseen vertices spreads too. Deterministic: ties break on vertex id
    /// and shard id.
    pub fn from_degrees(degrees: &[u64], num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        let mut order: Vec<u32> = (0..degrees.len() as u32).collect();
        order.sort_by(|&a, &b| {
            degrees[b as usize]
                .cmp(&degrees[a as usize])
                .then(a.cmp(&b))
        });
        let mut load = vec![0u64; num_shards];
        let mut count = vec![0u64; num_shards];
        let mut assign = vec![0u32; degrees.len()];
        for v in order {
            let best = (0..num_shards)
                .min_by_key(|&s| (load[s], count[s], s))
                .expect("at least one shard");
            assign[v as usize] = best as u32;
            load[best] += degrees[v as usize];
            count[best] += 1;
        }
        DegreePartition {
            num_shards,
            assign: Arc::new(assign),
        }
    }

    /// Build from an edge list, using each vertex's out-degree as its load.
    pub fn from_edges(num_vertices: u32, edges: &[Edge], num_shards: usize) -> Self {
        let mut degrees = vec![0u64; num_vertices as usize];
        for e in edges {
            degrees[e.src as usize] += 1;
        }
        Self::from_degrees(&degrees, num_shards)
    }

    fn shard_of(&self, v: u32) -> usize {
        self.assign[v as usize] as usize
    }
}

impl Partitioner for DegreePartition {
    fn name(&self) -> &str {
        "degree-aware"
    }
    fn num_shards(&self) -> usize {
        self.num_shards
    }
    fn num_vertices(&self) -> u32 {
        self.assign.len() as u32
    }
    fn shard_of_edge(&self, src: u32, _dst: u32) -> usize {
        self.shard_of(src)
    }
    fn home_of_vertex(&self, v: u32) -> usize {
        self.shard_of(v)
    }
    fn stores_row(&self, shard: usize, v: u32) -> bool {
        shard == self.shard_of(v)
    }
}

/// A versioned, swappable partition plan — the unit a reshard replaces.
///
/// Routing layers hold a `PartitionEpoch` instead of a bare
/// `Arc<dyn Partitioner>`: the version stamps which plan placed any given
/// sub-batch or snapshot, so observers (metrics, reshard reports, tests)
/// can tell state produced under the old plan from state produced under
/// the new one.
#[derive(Clone)]
pub struct PartitionEpoch {
    version: u64,
    plan: Arc<dyn Partitioner>,
}

impl PartitionEpoch {
    /// Version 0: the plan the system was built with.
    pub fn new(plan: Arc<dyn Partitioner>) -> Self {
        PartitionEpoch { version: 0, plan }
    }

    /// The successor epoch: `plan` becomes current, version increments.
    pub fn advance(&self, plan: Arc<dyn Partitioner>) -> Self {
        PartitionEpoch {
            version: self.version + 1,
            plan,
        }
    }

    /// How many reshards produced this plan (0 = the build-time plan).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The active partitioner.
    pub fn plan(&self) -> &Arc<dyn Partitioner> {
        &self.plan
    }
}

impl std::fmt::Debug for PartitionEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionEpoch")
            .field("version", &self.version)
            .field("plan", &self.plan.name())
            .field("shards", &self.plan.num_shards())
            .finish()
    }
}

/// Timing of one multi-device step.
#[derive(Debug, Clone)]
pub struct MultiStepTime {
    /// Simulated compute time on each device.
    pub per_device: Vec<SimTime>,
    /// max(per_device).
    pub makespan: SimTime,
    /// Modeled inter-device synchronization time.
    pub comm: SimTime,
}

impl MultiStepTime {
    /// End-to-end step time: slowest device plus synchronization.
    pub fn total(&self) -> SimTime {
        self.makespan + self.comm
    }
}

/// GPMA+ sharded across multiple simulated devices.
pub struct MultiGpma {
    devices: Vec<Device>,
    shards: Vec<GpmaPlus>,
    partition: PartitionEpoch,
    pcie: Pcie,
}

impl MultiGpma {
    /// Build `num_devices` shards under the default contiguous
    /// [`VertexPartition`]; each shard stores the out-edges of its vertex
    /// range (guards exist on every shard so vertex ids stay global).
    pub fn build(
        cfg: &DeviceConfig,
        num_devices: usize,
        num_vertices: u32,
        edges: &[Edge],
    ) -> Self {
        Self::build_with(
            cfg,
            Arc::new(VertexPartition {
                num_vertices,
                num_shards: num_devices.max(1),
            }),
            edges,
        )
    }

    /// Build shards under an explicit partitioning policy; the shard count
    /// and vertex-id space come from the policy.
    pub fn build_with(
        cfg: &DeviceConfig,
        partitioner: Arc<dyn Partitioner>,
        edges: &[Edge],
    ) -> Self {
        let num_devices = partitioner.num_shards();
        assert!(num_devices >= 1);
        let num_vertices = partitioner.num_vertices();
        let devices: Vec<Device> = (0..num_devices)
            .map(|i| Device::named(cfg.clone(), format!("gpu{i}")))
            .collect();
        let mut per_shard: Vec<Vec<Edge>> = vec![Vec::new(); num_devices];
        for e in edges {
            per_shard[partitioner.shard_of_edge(e.src, e.dst)].push(*e);
        }
        let shards: Vec<GpmaPlus> = per_shard
            .iter()
            .zip(devices.iter())
            .map(|(es, d)| GpmaPlus::build(d, num_vertices, es))
            .collect();
        MultiGpma {
            devices,
            shards,
            partition: PartitionEpoch::new(partitioner),
            pcie: Pcie::new(PcieConfig::default()),
        }
    }

    /// Number of simulated devices the graph is sharded across.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Global vertex count of the partitioned graph.
    pub fn num_vertices(&self) -> u32 {
        self.partition.plan().num_vertices()
    }

    /// The partitioning policy in force.
    pub fn partitioner(&self) -> &Arc<dyn Partitioner> {
        self.partition.plan()
    }

    /// All shard devices, index-aligned with [`Self::shards`].
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// All per-device GPMA+ shards.
    pub fn shards(&self) -> &[GpmaPlus] {
        &self.shards
    }

    /// Device `i` (panics when out of range).
    pub fn device(&self, i: usize) -> &Device {
        &self.devices[i]
    }

    /// Total live edges across shards.
    pub fn num_edges(&self) -> usize {
        self.shards.iter().map(|s| s.storage.num_edges()).sum()
    }

    /// Route a batch through the partitioner and apply each sub-batch on its
    /// shard (lazy sliding-window mode). Updates need no inter-device
    /// communication — the reason Figure 12 shows near-linear update
    /// scaling.
    pub fn update_batch(&mut self, batch: &UpdateBatch) -> MultiStepTime {
        let part = self.partition.plan();
        let mut sub: Vec<UpdateBatch> = vec![UpdateBatch::default(); self.shards.len()];
        for e in &batch.insertions {
            sub[part.shard_of_edge(e.src, e.dst)].insertions.push(*e);
        }
        for e in &batch.deletions {
            sub[part.shard_of_edge(e.src, e.dst)].deletions.push(*e);
        }
        let per_device: Vec<SimTime> = self
            .shards
            .iter_mut()
            .zip(self.devices.iter())
            .zip(sub.iter())
            .map(|((shard, dev), b)| {
                let (_, t) = dev.timed(|d| {
                    shard.update_batch_lazy(d, b);
                });
                t
            })
            .collect();
        let makespan = SimTime(per_device.iter().map(|t| t.secs()).fold(0.0, f64::max));
        MultiStepTime {
            per_device,
            makespan,
            comm: SimTime::ZERO,
        }
    }

    /// Modeled all-to-all synchronization of `bytes_per_device` (e.g. a
    /// frontier or rank vector slice broadcast after each iteration): a ring
    /// exchange where every device ships its share to `D - 1` peers over
    /// PCIe P2P.
    pub fn allreduce_time(&self, bytes_per_device: usize) -> SimTime {
        let d = self.devices.len();
        if d <= 1 {
            return SimTime::ZERO;
        }
        let t = self.pcie.transfer_time(bytes_per_device);
        SimTime(t.secs() * (d - 1) as f64)
    }

    /// Makespan helper over per-device timed closures: runs `f(i, dev,
    /// shard)` for each shard and returns the slowest simulated time.
    pub fn parallel_step<F>(&mut self, mut f: F) -> MultiStepTime
    where
        F: FnMut(usize, &Device, &mut GpmaPlus),
    {
        let per_device: Vec<SimTime> = self
            .shards
            .iter_mut()
            .zip(self.devices.iter())
            .enumerate()
            .map(|(i, (shard, dev))| {
                let (_, t) = dev.timed(|d| f(i, d, shard));
                t
            })
            .collect();
        let makespan = SimTime(per_device.iter().map(|t| t.secs()).fold(0.0, f64::max));
        MultiStepTime {
            per_device,
            makespan,
            comm: SimTime::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn cfg() -> DeviceConfig {
        DeviceConfig::deterministic()
    }

    fn ring(n: u32) -> Vec<Edge> {
        (0..n).map(|v| Edge::new(v, (v + 1) % n)).collect()
    }

    #[test]
    fn partition_covers_all_vertices_contiguously() {
        let p = VertexPartition {
            num_vertices: 10,
            num_shards: 3,
        };
        let mut seen = Vec::new();
        for s in 0..3 {
            for v in p.range_of(s) {
                assert_eq!(p.shard_of(v), s);
                assert!(p.stores_row(s, v));
                assert_eq!(p.home_of_vertex(v), s);
                seen.push(v);
            }
        }
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    /// Every policy must give each edge exactly one owner, and `stores_row`
    /// must cover that owner (else analytics would skip stored edges).
    #[test]
    fn policies_are_total_and_consistent() {
        let nv = 37u32;
        let policies: Vec<Box<dyn Partitioner>> = vec![
            Box::new(VertexPartition {
                num_vertices: nv,
                num_shards: 4,
            }),
            Box::new(HashVertexPartition {
                num_vertices: nv,
                num_shards: 4,
            }),
            Box::new(EdgeGridPartition::new(nv, 4)),
            Box::new(EdgeGridPartition::new(nv, 6)),
            Box::new(DegreePartition::from_degrees(
                &(0..nv as u64).rev().collect::<Vec<_>>(),
                4,
            )),
        ];
        for p in &policies {
            let s = p.num_shards();
            for src in 0..nv {
                assert!(p.home_of_vertex(src) < s, "{}", p.name());
                let owners: Vec<usize> = (0..s).filter(|&i| p.stores_row(i, src)).collect();
                assert!(!owners.is_empty(), "{}: vertex {src} has no row shard", p.name());
                for dst in (0..nv).step_by(5) {
                    let shard = p.shard_of_edge(src, dst);
                    assert!(shard < s, "{}", p.name());
                    assert!(
                        p.stores_row(shard, src),
                        "{}: edge ({src},{dst}) on shard {shard} outside row set",
                        p.name()
                    );
                }
            }
        }
    }

    #[test]
    fn edge_grid_picks_square_factorization() {
        let g = EdgeGridPartition::new(100, 4);
        assert_eq!((g.rows, g.cols), (2, 2));
        let g = EdgeGridPartition::new(100, 8);
        assert_eq!((g.rows, g.cols), (2, 4));
        let g = EdgeGridPartition::new(100, 7);
        assert_eq!((g.rows, g.cols), (1, 7));
        assert_eq!(g.num_shards(), 7);
    }

    #[test]
    fn hash_partition_balances_contiguous_ids() {
        let p = HashVertexPartition {
            num_vertices: 4096,
            num_shards: 4,
        };
        let mut counts = [0usize; 4];
        for v in 0..4096u32 {
            counts[p.home_of_vertex(v)] += 1;
        }
        for &c in &counts {
            assert!((800..=1250).contains(&c), "skewed hash: {counts:?}");
        }
    }

    #[test]
    fn build_routes_edges_by_source() {
        let m = MultiGpma::build(&cfg(), 3, 9, &ring(9));
        assert_eq!(m.num_edges(), 9);
        assert_eq!(m.num_vertices(), 9);
        for (i, shard) in m.shards().iter().enumerate() {
            for e in shard.storage.host_edges() {
                assert_eq!(
                    m.partitioner().shard_of_edge(e.src, e.dst),
                    i,
                    "edge on wrong shard"
                );
            }
        }
    }

    #[test]
    fn build_with_grid_routes_edges_by_cell() {
        let part = Arc::new(EdgeGridPartition::new(8, 4));
        let m = MultiGpma::build_with(&cfg(), part.clone(), &ring(8));
        assert_eq!(m.num_devices(), 4);
        assert_eq!(m.num_edges(), 8);
        for (i, shard) in m.shards().iter().enumerate() {
            for e in shard.storage.host_edges() {
                assert_eq!(part.shard_of_edge(e.src, e.dst), i);
            }
        }
    }

    #[test]
    fn update_routes_and_applies() {
        let mut m = MultiGpma::build(&cfg(), 2, 8, &ring(8));
        let t = m.update_batch(&UpdateBatch {
            insertions: vec![Edge::new(0, 3), Edge::new(7, 2)],
            deletions: vec![Edge::new(1, 2)],
        });
        assert_eq!(m.num_edges(), 8 + 2 - 1);
        assert_eq!(t.per_device.len(), 2);
        assert!(t.makespan.secs() > 0.0);
        let all: BTreeSet<(u32, u32)> = m
            .shards()
            .iter()
            .flat_map(|s| s.storage.host_edges())
            .map(|e| (e.src, e.dst))
            .collect();
        assert!(all.contains(&(0, 3)) && all.contains(&(7, 2)));
        assert!(!all.contains(&(1, 2)));
    }

    #[test]
    fn update_routes_under_every_policy() {
        let nv = 16u32;
        let policies: Vec<Arc<dyn Partitioner>> = vec![
            Arc::new(HashVertexPartition {
                num_vertices: nv,
                num_shards: 4,
            }),
            Arc::new(EdgeGridPartition::new(nv, 4)),
        ];
        for part in policies {
            let mut m = MultiGpma::build_with(&cfg(), part.clone(), &ring(nv));
            m.update_batch(&UpdateBatch {
                insertions: vec![Edge::new(3, 9), Edge::new(12, 1)],
                deletions: vec![Edge::new(0, 1)],
            });
            assert_eq!(m.num_edges(), 16 + 2 - 1, "{}", part.name());
            let all: BTreeSet<(u32, u32)> = m
                .shards()
                .iter()
                .flat_map(|s| s.storage.host_edges())
                .map(|e| (e.src, e.dst))
                .collect();
            assert!(all.contains(&(3, 9)) && all.contains(&(12, 1)));
            assert!(!all.contains(&(0, 1)));
        }
    }

    #[test]
    fn single_device_has_no_comm() {
        let m = MultiGpma::build(&cfg(), 1, 4, &ring(4));
        assert_eq!(m.allreduce_time(1 << 20).secs(), 0.0);
        let m3 = MultiGpma::build(&cfg(), 3, 4, &ring(4));
        assert!(m3.allreduce_time(1 << 20).secs() > 0.0);
    }

    #[test]
    fn parallel_step_reports_makespan() {
        let mut m = MultiGpma::build(&cfg(), 2, 8, &ring(8));
        let t = m.parallel_step(|i, dev, _shard| {
            // Device 1 does 10x the work; makespan must reflect it.
            dev.launch("probe", 64, |lane| lane.work(if i == 1 { 10_000 } else { 1_000 }));
        });
        assert!(t.per_device[1].secs() > t.per_device[0].secs());
        assert_eq!(t.makespan.secs(), t.per_device[1].secs());
    }

    #[test]
    fn degree_partition_balances_power_law_loads() {
        // One hub with half the mass, a fat tail after it: LPT keeps the
        // busiest shard near the hub's own share while range/hash piles
        // tail mass on top of it.
        let mut degrees = vec![0u64; 64];
        degrees[0] = 300;
        for (v, d) in degrees.iter_mut().enumerate().skip(1) {
            *d = (64 - v as u64) / 2;
        }
        let total: u64 = degrees.iter().sum();
        let p = DegreePartition::from_degrees(&degrees, 4);
        assert_eq!(p.name(), "degree-aware");
        assert_eq!(p.num_shards(), 4);
        assert_eq!(p.num_vertices(), 64);
        let mut load = [0u64; 4];
        for (v, &d) in degrees.iter().enumerate() {
            load[p.home_of_vertex(v as u32)] += d;
        }
        let max = *load.iter().max().unwrap() as f64;
        let mean = total as f64 / 4.0;
        // LPT bound: the busiest shard stays within one largest tail item
        // of the mean — far below the ~2× skew of degree-blind policies.
        let largest_tail = degrees[1..].iter().max().copied().unwrap() as f64;
        assert!(
            max <= mean + largest_tail,
            "unbalanced: {load:?} (mean {mean})"
        );
        assert!(max / mean < 1.2, "skew {:.3} too high: {load:?}", max / mean);
        // Zero-degree vertices round-robin instead of piling on one shard.
        let zeros = DegreePartition::from_degrees(&[0u64; 16], 4);
        let mut counts = [0usize; 4];
        for v in 0..16u32 {
            counts[zeros.home_of_vertex(v)] += 1;
        }
        assert_eq!(counts, [4, 4, 4, 4]);
    }

    #[test]
    fn partition_epoch_versions_advance() {
        let e0 = PartitionEpoch::new(Arc::new(VertexPartition {
            num_vertices: 8,
            num_shards: 2,
        }));
        assert_eq!(e0.version(), 0);
        assert_eq!(e0.plan().name(), "vertex-range");
        let e1 = e0.advance(Arc::new(HashVertexPartition {
            num_vertices: 8,
            num_shards: 4,
        }));
        assert_eq!(e1.version(), 1);
        assert_eq!(e1.plan().num_shards(), 4);
        let dbg = format!("{e1:?}");
        assert!(dbg.contains("vertex-hash") && dbg.contains('1'), "{dbg}");
    }

    #[test]
    fn cut_edges_follow_vertex_homes() {
        let p = VertexPartition {
            num_vertices: 8,
            num_shards: 2,
        };
        assert!(!p.is_cut_edge(0, 1));
        assert!(p.is_cut_edge(0, 5));
    }
}
