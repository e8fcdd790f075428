//! Graph access abstractions for the analytics kernels.
//!
//! [`DeviceGraphView`] is the device-side CSR contract of §4.2: analytics
//! iterate a row's slot range and must tolerate gaps and guard entries
//! (`slot_entry` returning `None` is Algorithm 2/3's `IsEntryExist` check).
//! It is implemented both by CSR-on-GPMA and by the rebuild baseline's dense
//! CSR — demonstrating the paper's claim that existing GPU algorithms adapt
//! to GPMA by only adding that check.
//!
//! A slot is read in two parts. `slot_entry` is the existence check plus
//! the endpoints — one load of the slot's key, which is all BFS, CC and
//! PageRank use; `slot_weight` loads the value stored beside it, for a
//! kernel that wants it. A lane pays (in simulated transactions and in host
//! time) only for the field it reads.
//!
//! The kernels over this trait (`bfs_device<G>`, `cc_device<G>`,
//! `pagerank_device<G>`) are generic, so they are compiled in the crate
//! that *calls* them, once per view type and lane kind. The lane-taking
//! methods are generic over the lane's [`LaneMode`], so their bodies travel
//! with them; they keep `#[inline]` all the same, and the non-generic
//! [`HostGraph`] impls need it (`gpma-lint` rule `lane-inline` checks both):
//! without it their bodies stay in this crate and `bfs_host<G>` /
//! `cc_host<G>` / `pagerank_host_from<G>` make a real cross-crate call per
//! neighbour visit.
//!
//! [`HostGraph`] is the equivalent CPU-side contract for the AdjLists, PMA
//! and Stinger baselines and for the published `GraphSnapshot`. It reads a
//! row at a time (`for_each_neighbor`, what BFS needs) or every edge in row
//! order at once (`for_each_edge`, what PageRank's edge pass and CC's
//! unions need). The provided `for_each_edge` walks the rows; a graph that
//! stores its edges in that order streams them instead — the snapshot its
//! blocks' edge runs, the PMA its array — with no per-row lookup.

use gpma_baselines::{AdjLists, PmaGraph, RebuildCsr, StingerGraph};
use gpma_core::{CsrView, GpmaStorage};
use gpma_graph::decode_key;
use gpma_sim::{launch, Device, DeviceBuffer, Lane, LaneMode};

/// Device-side view of a CSR-ordered dynamic graph.
pub trait DeviceGraphView: Sync {
    /// Number of vertices.
    fn num_vertices(&self) -> u32;

    /// Total slots (for edge-centric kernels that stride the whole array).
    fn num_slots(&self) -> usize;

    /// Slot range of row `v`.
    fn row_range<M: LaneMode>(&self, lane: &mut Lane<'_, M>, v: u32) -> std::ops::Range<usize>;

    /// Decode one slot: `Some((src, dst))` for a live edge, `None` for a
    /// gap or guard (the `IsEntryExist` check). One load of the slot's key.
    fn slot_entry<M: LaneMode>(&self, lane: &mut Lane<'_, M>, slot: usize) -> Option<(u32, u32)>;

    /// Weight stored at `slot`; meaningful only where
    /// [`slot_entry`](Self::slot_entry) is `Some`.
    fn slot_weight<M: LaneMode>(&self, lane: &mut Lane<'_, M>, slot: usize) -> u64;

    /// Live out-degree per vertex.
    fn degrees(&self) -> &DeviceBuffer<u32>;
}

/// A borrowed view is a view, so a kernel can be handed `&view`.
impl<G: DeviceGraphView> DeviceGraphView for &G {
    #[inline]
    fn num_vertices(&self) -> u32 {
        (**self).num_vertices()
    }

    #[inline]
    fn num_slots(&self) -> usize {
        (**self).num_slots()
    }

    #[inline]
    fn row_range<M: LaneMode>(&self, lane: &mut Lane<'_, M>, v: u32) -> std::ops::Range<usize> {
        (**self).row_range(lane, v)
    }

    #[inline]
    fn slot_entry<M: LaneMode>(&self, lane: &mut Lane<'_, M>, slot: usize) -> Option<(u32, u32)> {
        (**self).slot_entry(lane, slot)
    }

    #[inline]
    fn slot_weight<M: LaneMode>(&self, lane: &mut Lane<'_, M>, slot: usize) -> u64 {
        (**self).slot_weight(lane, slot)
    }

    #[inline]
    fn degrees(&self) -> &DeviceBuffer<u32> {
        (**self).degrees()
    }
}

/// CSR-on-GPMA view (storage + offsets). Built per read: it borrows the
/// storage, so it lives between two update batches at most.
pub struct GpmaView<'a> {
    /// The underlying GPMA storage.
    pub storage: &'a GpmaStorage,
    /// The CSR row index derived from it.
    pub csr: CsrView,
}

impl<'a> GpmaView<'a> {
    /// Wrap live GPMA storage, deriving the CSR row index on device.
    pub fn build(dev: &Device, storage: &'a GpmaStorage) -> Self {
        GpmaView {
            storage,
            csr: CsrView::build(dev, storage),
        }
    }
}

impl<'a> DeviceGraphView for GpmaView<'a> {
    #[inline]
    fn num_vertices(&self) -> u32 {
        self.storage.num_vertices()
    }

    #[inline]
    fn num_slots(&self) -> usize {
        self.storage.capacity()
    }

    #[inline]
    fn row_range<M: LaneMode>(&self, lane: &mut Lane<'_, M>, v: u32) -> std::ops::Range<usize> {
        self.csr.row_range(lane, v)
    }

    #[inline]
    fn slot_entry<M: LaneMode>(&self, lane: &mut Lane<'_, M>, slot: usize) -> Option<(u32, u32)> {
        let k = self.storage.keys.get(lane, slot);
        // Gap or guard: not an entry.
        GpmaStorage::is_entry(k).then(|| decode_key(k))
    }

    #[inline]
    fn slot_weight<M: LaneMode>(&self, lane: &mut Lane<'_, M>, slot: usize) -> u64 {
        self.storage.vals.get(lane, slot)
    }

    #[inline]
    fn degrees(&self) -> &DeviceBuffer<u32> {
        &self.csr.degrees
    }
}

/// Dense CSR view over the rebuild baseline.
pub struct RebuildView<'a> {
    /// The rebuilt static CSR.
    pub csr: &'a RebuildCsr,
    degrees: DeviceBuffer<u32>,
}

impl<'a> RebuildView<'a> {
    /// Wrap a rebuilt static CSR, computing per-row degrees on device.
    pub fn build(dev: &Device, csr: &'a RebuildCsr) -> Self {
        let nv = csr.num_vertices() as usize;
        let degrees = DeviceBuffer::<u32>::new(nv);
        {
            let off = &csr.offsets;
            let deg = &degrees;
            launch!(dev, "rebuild_degrees", nv, |lane| {
                let v = lane.tid;
                let lo = off.get(lane, v);
                let hi = off.get(lane, v + 1);
                deg.set(lane, v, hi - lo);
            });
        }
        RebuildView { csr, degrees }
    }
}

impl<'a> DeviceGraphView for RebuildView<'a> {
    #[inline]
    fn num_vertices(&self) -> u32 {
        self.csr.num_vertices()
    }

    #[inline]
    fn num_slots(&self) -> usize {
        self.csr.num_edges()
    }

    #[inline]
    fn row_range<M: LaneMode>(&self, lane: &mut Lane<'_, M>, v: u32) -> std::ops::Range<usize> {
        self.csr.row_range(lane, v)
    }

    #[inline]
    fn slot_entry<M: LaneMode>(&self, lane: &mut Lane<'_, M>, slot: usize) -> Option<(u32, u32)> {
        // Dense CSR: every slot is live.
        Some(decode_key(self.csr.keys.get(lane, slot)))
    }

    #[inline]
    fn slot_weight<M: LaneMode>(&self, lane: &mut Lane<'_, M>, slot: usize) -> u64 {
        self.csr.vals.get(lane, slot)
    }

    #[inline]
    fn degrees(&self) -> &DeviceBuffer<u32> {
        &self.degrees
    }
}

/// Host-side (CPU baseline) graph contract.
pub trait HostGraph {
    /// Number of vertices.
    fn num_vertices(&self) -> u32;
    /// Visit each out-neighbor of `v` as `(dst, weight)`.
    fn for_each_neighbor(&self, v: u32, f: &mut dyn FnMut(u32, u64));
    /// Number of out-neighbors of `v`.
    fn out_degree(&self, v: u32) -> usize {
        let mut n = 0;
        self.for_each_neighbor(v, &mut |_, _| n += 1);
        n
    }
    /// Visit every edge as `(src, dst)`: rows in vertex order, each row in
    /// [`for_each_neighbor`](Self::for_each_neighbor)'s order. A graph that
    /// stores its edges in that order overrides it with one linear scan.
    #[inline]
    fn for_each_edge(&self, f: &mut dyn FnMut(u32, u32)) {
        for u in 0..self.num_vertices() {
            self.for_each_neighbor(u, &mut |v, _| f(u, v));
        }
    }
}

impl HostGraph for AdjLists {
    #[inline]
    fn num_vertices(&self) -> u32 {
        AdjLists::num_vertices(self)
    }
    #[inline]
    fn for_each_neighbor(&self, v: u32, f: &mut dyn FnMut(u32, u64)) {
        for (d, w) in self.neighbors(v) {
            f(d, w);
        }
    }
    #[inline]
    fn out_degree(&self, v: u32) -> usize {
        AdjLists::out_degree(self, v)
    }
}

impl HostGraph for PmaGraph {
    #[inline]
    fn num_vertices(&self) -> u32 {
        PmaGraph::num_vertices(self)
    }
    #[inline]
    fn for_each_neighbor(&self, v: u32, f: &mut dyn FnMut(u32, u64)) {
        for (d, w) in self.neighbors(v) {
            f(d, w);
        }
    }
    #[inline]
    fn for_each_edge(&self, f: &mut dyn FnMut(u32, u32)) {
        for (u, v) in self.edges() {
            f(u, v);
        }
    }
}

/// Epoch-stamped service snapshots are first-class host graphs, so the CPU
/// reference analytics (`bfs_host`, `cc_host`, `pagerank_host`) double as
/// the streaming facade's continuous monitors: they read a consistent
/// [`GraphSnapshot`](gpma_core::framework::GraphSnapshot) while updates keep
/// flowing on the service worker (the paper's §6.5 concurrency scenario).
impl HostGraph for gpma_core::framework::GraphSnapshot {
    #[inline]
    fn num_vertices(&self) -> u32 {
        gpma_core::framework::GraphSnapshot::num_vertices(self)
    }
    #[inline]
    fn for_each_neighbor(&self, v: u32, f: &mut dyn FnMut(u32, u64)) {
        for e in self.neighbors(v) {
            f(e.dst, e.weight);
        }
    }
    #[inline]
    fn out_degree(&self, v: u32) -> usize {
        gpma_core::framework::GraphSnapshot::out_degree(self, v)
    }
    #[inline]
    fn for_each_edge(&self, f: &mut dyn FnMut(u32, u32)) {
        for run in self.edge_runs() {
            for e in run {
                f(e.src, e.dst);
            }
        }
    }
}

impl HostGraph for StingerGraph {
    #[inline]
    fn num_vertices(&self) -> u32 {
        StingerGraph::num_vertices(self)
    }
    #[inline]
    fn for_each_neighbor(&self, v: u32, f: &mut dyn FnMut(u32, u64)) {
        for (d, w) in self.neighbors(v) {
            f(d, w);
        }
    }
    #[inline]
    fn out_degree(&self, v: u32) -> usize {
        StingerGraph::out_degree(self, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_core::GpmaPlus;
    use gpma_graph::Edge;
    use gpma_sim::DeviceConfig;

    fn dev() -> Device {
        Device::new(DeviceConfig::deterministic())
    }

    fn tri() -> Vec<Edge> {
        vec![Edge::weighted(0, 1, 1), Edge::weighted(1, 2, 2), Edge::weighted(2, 0, 3)]
    }

    /// Read all live edges through a DeviceGraphView's row interface.
    fn edges_via_view<G: DeviceGraphView>(dev: &Device, g: &G) -> Vec<(u32, u32, u64)> {
        let nv = g.num_vertices() as usize;
        let cap = g.num_slots();
        let out = DeviceBuffer::<u64>::filled(u64::MAX, cap.max(1));
        dev.launch("collect", nv, |lane| {
            let v = lane.tid as u32;
            for slot in g.row_range(lane, v) {
                if let Some((s, d)) = g.slot_entry(lane, slot) {
                    let w = g.slot_weight(lane, slot);
                    out.set(lane, slot, ((s as u64) << 40) | ((d as u64) << 16) | w);
                }
            }
        });
        out.to_vec()
            .into_iter()
            .filter(|&x| x != u64::MAX)
            .map(|x| ((x >> 40) as u32, ((x >> 16) & 0xFFFFFF) as u32, x & 0xFFFF))
            .collect()
    }

    #[test]
    fn gpma_and_rebuild_views_agree() {
        let d = dev();
        let g = GpmaPlus::build(&d, 3, &tri());
        let gv = GpmaView::build(&d, &g.storage);
        let rc = RebuildCsr::build(&d, 3, &tri());
        let rv = RebuildView::build(&d, &rc);
        let mut a = edges_via_view(&d, &gv);
        let mut b = edges_via_view(&d, &rv);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert_eq!(gv.degrees().to_vec(), rv.degrees().to_vec());
        // `slot_weight` reads what the host readback of the same array reads.
        let csr = gv.csr.to_host_csr(gv.storage);
        let mut host = Vec::new();
        for v in 0..3 {
            for i in csr.offsets[v] as usize..csr.offsets[v + 1] as usize {
                host.push((v as u32, csr.dsts[i], csr.weights[i]));
            }
        }
        assert_eq!(a, host);
    }

    #[test]
    fn snapshot_is_a_host_graph() {
        use gpma_core::framework::GraphSnapshot;
        let snap = GraphSnapshot::from_edges(3, 3, tri());
        let adj = AdjLists::build(3, &tri());
        for v in 0..3u32 {
            let collect = |g: &dyn HostGraph| {
                let mut out = Vec::new();
                g.for_each_neighbor(v, &mut |d, w| out.push((d, w)));
                out
            };
            assert_eq!(collect(&snap), collect(&adj), "row {v}");
            assert_eq!(HostGraph::out_degree(&snap, v), adj.out_degree(v));
        }
        // The reference analytics run directly off the snapshot.
        let dist = crate::bfs_host(&snap, 0);
        assert_eq!(dist, vec![0, 1, 2]);
        let labels = crate::cc_host(&snap);
        assert_eq!(crate::component_count(&labels), 1);
    }

    #[test]
    fn host_graph_impls_agree() {
        let adj = AdjLists::build(3, &tri());
        let pma = PmaGraph::build(3, &tri());
        let st = StingerGraph::build(3, &tri());
        for v in 0..3u32 {
            let collect = |g: &dyn HostGraph| {
                let mut out = Vec::new();
                g.for_each_neighbor(v, &mut |d, w| out.push((d, w)));
                out.sort_unstable();
                out
            };
            let a = collect(&adj);
            assert_eq!(a, collect(&pma), "pma row {v}");
            assert_eq!(a, collect(&st), "stinger row {v}");
            assert_eq!(adj.out_degree(v), HostGraph::out_degree(&st, v));
        }
    }
}
