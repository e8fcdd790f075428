//! The CSR interface on top of GPMA (Section 4.2, Figure 5).
//!
//! A CSR stored on GPMA is "an array which has bounded gaps interleaved with
//! the graph entries": the row-offset array points into the PMA slot space,
//! and entry accesses must check `IsEntryExist` (Algorithm 2 line 10 /
//! Algorithm 3 line 4) to skip gaps and guard entries. The offsets are
//! re-derived after each update batch by a parallel binary-search kernel.

use gpma_graph::edge::row_start_key;
use gpma_sim::{launch, Device, DeviceBuffer, Lane, LaneMode};

use crate::storage::GpmaStorage;

/// Device-resident CSR view over a [`GpmaStorage`].
pub struct CsrView {
    /// `num_vertices + 1` slot positions into the PMA array; row `v`'s
    /// entries (and its guard) live in `offsets[v] .. offsets[v + 1]`.
    pub offsets: DeviceBuffer<u32>,
    /// Live out-degree per vertex (valid entries only, guards excluded).
    pub degrees: DeviceBuffer<u32>,
    num_vertices: u32,
}

impl CsrView {
    /// Build the view with two kernels: a per-vertex lower-bound search for
    /// the offsets and a per-vertex count for the degrees.
    pub fn build(dev: &Device, storage: &GpmaStorage) -> CsrView {
        let nv = storage.num_vertices() as usize;
        let cap = storage.capacity();
        assert!(cap < u32::MAX as usize, "capacity exceeds u32 offsets");
        let offsets = DeviceBuffer::<u32>::new(nv + 1);
        {
            let off = &offsets;
            launch!(dev, "csr_offsets", nv + 1, |lane| {
                let v = lane.tid;
                let pos = if v == nv {
                    cap
                } else {
                    storage.lower_bound_slot(lane, row_start_key(v as u32))
                };
                off.set(lane, v, pos as u32);
            });
        }
        let degrees = DeviceBuffer::<u32>::new(nv);
        {
            let off = &offsets;
            let deg = &degrees;
            let keys = &storage.keys;
            launch!(dev, "csr_degrees", nv, |lane| {
                let v = lane.tid;
                let lo = off.get(lane, v) as usize;
                let hi = off.get(lane, v + 1) as usize;
                let mut d = 0u32;
                for i in lo..hi {
                    let k = keys.get(lane, i);
                    if GpmaStorage::is_entry(k) {
                        d += 1;
                    }
                }
                deg.set(lane, v, d);
            });
        }
        CsrView {
            offsets,
            degrees,
            num_vertices: storage.num_vertices(),
        }
    }

    /// Vertex count of the underlying store.
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// The slot range of row `v` (device-side; Algorithm 3 line 2).
    #[inline]
    pub fn row_range<M: LaneMode>(&self, lane: &mut Lane<'_, M>, v: u32) -> std::ops::Range<usize> {
        let lo = self.offsets.get(lane, v as usize) as usize;
        let hi = self.offsets.get(lane, v as usize + 1) as usize;
        lo..hi
    }

    /// Host-side readback of the logical CSR (gaps and guards removed) —
    /// used by tests to compare against the reference `gpma_graph::Csr`.
    pub fn to_host_csr(&self, storage: &GpmaStorage) -> gpma_graph::Csr {
        let offs = self.offsets.to_vec();
        let keys = storage.keys.as_slice();
        let vals = storage.vals.as_slice();
        let nv = self.num_vertices as usize;
        let mut offsets = Vec::with_capacity(nv + 1);
        let mut dsts = Vec::new();
        let mut weights = Vec::new();
        offsets.push(0u32);
        for v in 0..nv {
            for i in offs[v] as usize..offs[v + 1] as usize {
                let k = keys[i];
                if GpmaStorage::is_entry(k) {
                    debug_assert_eq!((k >> 32) as u32, v as u32, "entry escaped its row");
                    dsts.push(k as u32);
                    weights.push(vals[i]);
                }
            }
            offsets.push(dsts.len() as u32);
        }
        gpma_graph::Csr {
            offsets,
            dsts,
            weights,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_graph::{Coo, Edge, UpdateBatch};
    use gpma_sim::DeviceConfig;

    use crate::gpma_plus::GpmaPlus;

    fn dev() -> Device {
        Device::new(DeviceConfig::deterministic())
    }

    fn fig5_edges() -> Vec<Edge> {
        vec![
            Edge::weighted(0, 0, 1),
            Edge::weighted(0, 2, 2),
            Edge::weighted(1, 2, 3),
            Edge::weighted(2, 0, 4),
            Edge::weighted(2, 1, 5),
            Edge::weighted(2, 2, 6),
        ]
    }

    #[test]
    fn fig5_csr_on_gpma_matches_reference() {
        let d = dev();
        let g = GpmaPlus::build(&d, 3, &fig5_edges());
        let view = CsrView::build(&d, &g.storage);
        let got = view.to_host_csr(&g.storage);
        let expect = Coo::new(3, fig5_edges()).to_csr();
        assert_eq!(got, expect);
        assert_eq!(view.degrees.to_vec(), vec![2, 1, 3]);
    }

    #[test]
    fn view_tracks_updates() {
        let d = dev();
        let mut g = GpmaPlus::build(&d, 4, &fig5_edges());
        g.update_batch_lazy(
            &d,
            &UpdateBatch {
                insertions: vec![Edge::weighted(3, 0, 9), Edge::weighted(1, 0, 8)],
                deletions: vec![Edge::new(2, 1)],
            },
        );
        let view = CsrView::build(&d, &g.storage);
        let got = view.to_host_csr(&g.storage);
        let mut edges = fig5_edges();
        edges.retain(|e| !(e.src == 2 && e.dst == 1));
        edges.push(Edge::weighted(3, 0, 9));
        edges.push(Edge::weighted(1, 0, 8));
        let expect = Coo::new(4, edges).to_csr();
        assert_eq!(got, expect);
        assert_eq!(view.degrees.to_vec(), vec![2, 2, 2, 1]);
    }

    #[test]
    fn view_valid_after_lazy_deletions_leave_holes() {
        let d = dev();
        let all: Vec<Edge> = (0..8u32)
            .flat_map(|s| (0..8u32).filter(move |&t| t != s).map(move |t| Edge::new(s, t)))
            .collect();
        let mut g = GpmaPlus::build(&d, 8, &all);
        g.update_batch_lazy(
            &d,
            &UpdateBatch {
                insertions: vec![],
                deletions: all.iter().step_by(3).cloned().collect(),
            },
        );
        let view = CsrView::build(&d, &g.storage);
        let got = view.to_host_csr(&g.storage);
        got.validate().unwrap();
        let survivors: Vec<Edge> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, e)| *e)
            .collect();
        let expect = Coo::new(8, survivors).to_csr();
        assert_eq!(got, expect);
    }

    #[test]
    fn empty_rows_have_empty_ranges() {
        let d = dev();
        let g = GpmaPlus::build(&d, 5, &[Edge::new(2, 3)]);
        let view = CsrView::build(&d, &g.storage);
        let csr = view.to_host_csr(&g.storage);
        assert_eq!(csr.out_degree(0), 0);
        assert_eq!(csr.out_degree(2), 1);
        assert_eq!(csr.out_degree(4), 0);
        assert_eq!(view.degrees.to_vec(), vec![0, 0, 1, 0, 0]);
    }
}
