//! cuSparseCSR baseline (§6.1): a device-resident *static* CSR that handles
//! every update batch by rebuilding from scratch — concatenate the current
//! entries with the batch, radix-sort everything, resolve duplicates and
//! deletions, and regenerate the offset array. Per-batch cost is
//! `Θ(sort(|E| + b))` regardless of the batch size `b`, which is exactly the
//! flat, high line Figure 7 shows for the rebuild approach.

use gpma_graph::edge::{edge_key_mask, row_start_key, GUARD_DST};
use gpma_graph::{Edge, UpdateBatch};
use gpma_sim::{launch, primitives, Device, DeviceBuffer, Lane, LaneMode};

const TAG_INSERT: u64 = 0;
const TAG_DELETE: u64 = 1;

/// Device CSR rebuilt per batch (no gaps, no guards — plain cuSparse CSR).
pub struct RebuildCsr {
    /// Dense, sorted row-major edge keys.
    pub keys: DeviceBuffer<u64>,
    /// Edge weights aligned with `keys`.
    pub vals: DeviceBuffer<u64>,
    /// `num_vertices + 1` offsets into the dense arrays.
    pub offsets: DeviceBuffer<u32>,
    num_vertices: u32,
}

impl RebuildCsr {
    /// Build the device CSR from an initial edge list.
    pub fn build(dev: &Device, num_vertices: u32, edges: &[Edge]) -> Self {
        let mut csr = RebuildCsr {
            keys: DeviceBuffer::new(0),
            vals: DeviceBuffer::new(0),
            offsets: DeviceBuffer::new(num_vertices as usize + 1),
            num_vertices,
        };
        csr.update_batch(
            dev,
            &UpdateBatch {
                insertions: edges.to_vec(),
                deletions: vec![],
            },
        );
        csr
    }

    /// Number of vertices (fixed at construction).
    pub fn num_vertices(&self) -> u32 {
        self.num_vertices
    }

    /// Number of edges in the current rebuild.
    pub fn num_edges(&self) -> usize {
        self.keys.len()
    }

    /// Full rebuild with the batch folded in (the cuSparse "update" path).
    pub fn update_batch(&mut self, dev: &Device, batch: &UpdateBatch) {
        for e in batch.insertions.iter().chain(batch.deletions.iter()) {
            assert!(e.dst != GUARD_DST, "guard sentinel dst");
            assert!(
                e.src < self.num_vertices && e.dst < self.num_vertices,
                "edge out of range"
            );
        }
        let nc = self.keys.len();
        let nd = batch.deletions.len();
        let ni = batch.insertions.len();
        let total = nc + nd + ni;
        if total == 0 {
            self.rebuild_offsets(dev);
            return;
        }

        // Concatenate [current | deletions | insertions]; the stable sort
        // keeps that order within equal keys, so "last wins" resolves to:
        // insertion > deletion > current.
        let all_keys = DeviceBuffer::<u64>::new(total);
        let all_idx = DeviceBuffer::<u64>::new(total);
        {
            let cur = &self.keys;
            let ak = &all_keys;
            let ai = &all_idx;
            launch!(dev, "rebuild_concat_current", nc, |lane| {
                let i = lane.tid;
                let k = cur.get(lane, i);
                ak.set(lane, i, k);
                ai.set(lane, i, i as u64);
            });
        }
        let host_tail_keys: Vec<u64> = batch
            .deletions
            .iter()
            .map(|e| e.key())
            .chain(batch.insertions.iter().map(|e| e.key()))
            .collect();
        let tail_keys = DeviceBuffer::from_slice(&host_tail_keys);
        {
            let ak = &all_keys;
            let ai = &all_idx;
            let tk = &tail_keys;
            launch!(dev, "rebuild_concat_updates", nd + ni, |lane| {
                let i = lane.tid;
                let k = tk.get(lane, i);
                ak.set(lane, nc + i, k);
                ai.set(lane, nc + i, (nc + i) as u64);
            });
        }

        // Every key, current or new, has both ends below |V|: the same
        // masked sort as GPMA+'s batch sort, so the figures compare like
        // with like.
        let mut sorted_keys = all_keys;
        let mut sorted_idx = all_idx;
        let mask = edge_key_mask(self.num_vertices);
        primitives::radix_sort_pairs_u64_masked(dev, &mut sorted_keys, &mut sorted_idx, mask);

        // Gather values and op tags through the permutation.
        let host_tail_vals: Vec<u64> = batch
            .deletions
            .iter()
            .map(|_| 0)
            .chain(batch.insertions.iter().map(|e| e.weight))
            .collect();
        let tail_vals = DeviceBuffer::from_slice(&host_tail_vals);
        let vals = DeviceBuffer::<u64>::new(total);
        let tags = DeviceBuffer::<u64>::new(total);
        {
            let cur_vals = &self.vals;
            let si = &sorted_idx;
            let v = &vals;
            let t = &tags;
            let tv = &tail_vals;
            launch!(dev, "rebuild_gather", total, |lane| {
                let i = lane.tid;
                let src = si.get(lane, i) as usize;
                let (value, tag) = if src < nc {
                    (cur_vals.get(lane, src), TAG_INSERT)
                } else if src < nc + nd {
                    (0, TAG_DELETE)
                } else {
                    (tv.get(lane, src - nc), TAG_INSERT)
                };
                v.set(lane, i, value);
                t.set(lane, i, tag);
            });
        }

        // Keep the last element of every equal-key run unless it's a delete.
        let flags = DeviceBuffer::<u32>::new(total);
        {
            let sk = &sorted_keys;
            let t = &tags;
            let f = &flags;
            launch!(dev, "rebuild_resolve", total, |lane| {
                let i = lane.tid;
                let k = sk.get(lane, i);
                let last = i + 1 >= total || sk.get(lane, i + 1) != k;
                let keep = last && t.get(lane, i) == TAG_INSERT;
                f.set(lane, i, keep as u32);
            });
        }
        (self.keys, self.vals) = primitives::compact_pairs_flagged(dev, &sorted_keys, &vals, &flags);
        self.rebuild_offsets(dev);
    }

    fn rebuild_offsets(&mut self, dev: &Device) {
        let nv = self.num_vertices as usize;
        let ne = self.keys.len();
        let offsets = DeviceBuffer::<u32>::new(nv + 1);
        {
            let keys = &self.keys;
            let off = &offsets;
            launch!(dev, "rebuild_offsets", nv + 1, |lane| {
                let v = lane.tid;
                let target = if v == nv {
                    u64::MAX
                } else {
                    row_start_key(v as u32)
                };
                // lower_bound over the dense key array.
                let mut lo = 0usize;
                let mut hi = ne;
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if keys.get(lane, mid) < target {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                off.set(lane, v, lo as u32);
            });
        }
        self.offsets = offsets;
    }

    /// Row slot range (dense CSR — every slot in range is a live entry).
    #[inline]
    pub fn row_range<M: LaneMode>(&self, lane: &mut Lane<'_, M>, v: u32) -> std::ops::Range<usize> {
        let lo = self.offsets.get(lane, v as usize) as usize;
        let hi = self.offsets.get(lane, v as usize + 1) as usize;
        lo..hi
    }

    /// Host readback as a reference CSR.
    pub fn to_host_csr(&self) -> gpma_graph::Csr {
        gpma_graph::Csr {
            offsets: self.offsets.to_vec(),
            dsts: self.keys.as_slice().iter().map(|&k| k as u32).collect(),
            weights: self.vals.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjlists::AdjLists;
    use gpma_graph::Coo;
    use gpma_sim::DeviceConfig;

    fn dev() -> Device {
        Device::new(DeviceConfig::deterministic())
    }

    #[test]
    fn build_matches_reference_csr() {
        let d = dev();
        let edges = vec![
            Edge::weighted(2, 0, 4),
            Edge::weighted(0, 2, 2),
            Edge::weighted(0, 0, 1),
            Edge::weighted(1, 2, 3),
        ];
        let csr = RebuildCsr::build(&d, 3, &edges);
        let expect = Coo::new(3, edges).to_csr();
        assert_eq!(csr.to_host_csr(), expect);
        csr.to_host_csr().validate().unwrap();
    }

    #[test]
    fn update_semantics_match_adjlists_oracle() {
        let d = dev();
        let initial: Vec<Edge> = (0..100u64)
            .map(|i| Edge::weighted((i % 10) as u32, ((i * 7 + 1) % 10) as u32, i))
            .filter(|e| e.src != e.dst)
            .collect();
        let mut csr = RebuildCsr::build(&d, 10, &initial);
        let mut oracle = AdjLists::build(10, &initial);
        for round in 0..5u64 {
            let batch = UpdateBatch {
                insertions: (0..20)
                    .map(|i| {
                        let s = ((i * 3 + round) % 10) as u32;
                        let t = ((i * 7 + round * 2 + 1) % 10) as u32;
                        Edge::weighted(s, if t == s { (s + 1) % 10 } else { t }, i + round * 100)
                    })
                    .collect(),
                deletions: oracle.iter_edges().take(10).collect(),
            };
            csr.update_batch(&d, &batch);
            oracle.update_batch(&batch);
            let got = csr.to_host_csr();
            let expect = Coo::new(10, oracle.iter_edges().collect()).to_csr();
            assert_eq!(got, expect, "round {round}");
        }
    }

    #[test]
    fn delete_then_insert_same_key_survives() {
        let d = dev();
        let mut csr = RebuildCsr::build(&d, 4, &[Edge::weighted(1, 2, 1)]);
        csr.update_batch(
            &d,
            &UpdateBatch {
                insertions: vec![Edge::weighted(1, 2, 99)],
                deletions: vec![Edge::new(1, 2)],
            },
        );
        assert_eq!(csr.num_edges(), 1);
        assert_eq!(csr.to_host_csr().weights, vec![99]);
    }

    #[test]
    fn rebuild_cost_is_flat_in_batch_size() {
        // The defining property: tiny and large batches cost similarly
        // because the whole graph is re-sorted either way.
        let d = dev();
        let initial: Vec<Edge> = (0..64u32)
            .flat_map(|s| (1..32u32).map(move |i| Edge::new(s, (s + i) % 64)))
            .collect();
        let mut csr = RebuildCsr::build(&d, 64, &initial);
        let (_, t_small) = d.timed(|dd| {
            csr.update_batch(
                dd,
                &UpdateBatch {
                    insertions: vec![Edge::new(0, 40)],
                    deletions: vec![],
                },
            );
        });
        let big: Vec<Edge> = (0..500u64)
            .map(|i| Edge::new((i % 64) as u32, ((i * 11 + 2) % 63) as u32))
            .filter(|e| e.src != e.dst)
            .collect();
        let (_, t_big) = d.timed(|dd| {
            csr.update_batch(
                dd,
                &UpdateBatch {
                    insertions: big,
                    deletions: vec![],
                },
            );
        });
        // Within 3x of each other despite a 500x batch-size difference.
        assert!(
            t_big.secs() < 3.0 * t_small.secs(),
            "rebuild should be flat: {} vs {}",
            t_big.secs(),
            t_small.secs()
        );
    }

    #[test]
    fn empty_graph_and_empty_batch() {
        let d = dev();
        let mut csr = RebuildCsr::build(&d, 4, &[]);
        assert_eq!(csr.num_edges(), 0);
        csr.update_batch(&d, &UpdateBatch::default());
        assert_eq!(csr.num_edges(), 0);
        assert_eq!(csr.offsets.to_vec(), vec![0; 5]);
    }
}
