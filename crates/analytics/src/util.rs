//! Floating-point device utilities shared by the analytics kernels: f64
//! values stored as bit patterns in `u64` buffers (so the CAS-based atomic
//! add works, exactly like CUDA's pre-Pascal `atomicAdd(double*)` emulation)
//! and a blocked f64 sum-reduction.

use gpma_sim::{launch, primitives, Device, DeviceBuffer, Lane, LaneMode};

/// Read an f64 stored as bits.
#[inline]
pub fn load_f64<M: LaneMode>(lane: &mut Lane<'_, M>, buf: &DeviceBuffer<u64>, i: usize) -> f64 {
    f64::from_bits(buf.get(lane, i))
}

/// Write an f64 as bits.
#[inline]
pub fn store_f64<M: LaneMode>(lane: &mut Lane<'_, M>, buf: &DeviceBuffer<u64>, i: usize, v: f64) {
    buf.set(lane, i, v.to_bits());
}

/// CAS-loop atomic f64 add (CUDA's classic double atomicAdd emulation).
#[inline]
pub fn atomic_add_f64<M: LaneMode>(
    lane: &mut Lane<'_, M>,
    buf: &DeviceBuffer<u64>,
    i: usize,
    add: f64,
) {
    let mut cur = buf.atomic_load(lane, i);
    loop {
        let new = (f64::from_bits(cur) + add).to_bits();
        let prev = buf.atomic_cas(lane, i, cur, new);
        if prev == cur {
            return;
        }
        cur = prev;
    }
}

/// Blocked sum-reduction of f64 bit patterns.
pub fn reduce_f64(dev: &Device, input: &DeviceBuffer<u64>) -> f64 {
    let n = input.len();
    if n == 0 {
        return 0.0;
    }
    const B: usize = primitives::BLOCK;
    if n <= B {
        let total = DeviceBuffer::<u64>::new(1);
        launch!(dev, "reduce_f64_small", 1, |lane| {
            let mut acc = 0.0f64;
            for i in 0..n {
                acc += load_f64(lane, input, i);
            }
            store_f64(lane, &total, 0, acc);
        });
        return f64::from_bits(total.host_read(0));
    }
    let nb = n.div_ceil(B);
    let partials = DeviceBuffer::<u64>::new(nb);
    launch!(dev, "reduce_f64_blocks", nb, |lane| {
        let b = lane.tid;
        let start = b * B;
        let end = (start + B).min(n);
        let mut acc = 0.0f64;
        for i in start..end {
            acc += load_f64(lane, input, i);
        }
        store_f64(lane, &partials, b, acc);
    });
    reduce_f64(dev, &partials)
}

/// Allocate an f64 device vector filled with `v`.
pub fn filled_f64(v: f64, n: usize) -> DeviceBuffer<u64> {
    DeviceBuffer::filled(v.to_bits(), n)
}

/// Vertex no edge of [`slid_pokec`] touches.
#[cfg(test)]
pub(crate) const ISOLATED: u32 = 1_999;

/// Fixture of the device-kernel tests: a 2 000-vertex `pokec_like` graph
/// after three lazy slides (so the array carries gaps and tombstones), with
/// vertices `7, 57, 107, …` dangling and [`ISOLATED`] isolated. Returns the
/// store and its live edges.
#[cfg(test)]
pub(crate) fn slid_pokec(dev: &Device) -> (gpma_core::GpmaPlus, Vec<gpma_graph::Edge>) {
    use gpma_graph::{datasets::pokec_like, Edge, UpdateBatch};
    const NV: u32 = 2_000;
    const INITIAL: usize = 20_000;
    const SLIDE: usize = 1_000;
    let edges: Vec<Edge> = pokec_like(NV, 26_000, 7)
        .edges
        .into_iter()
        .filter(|e| e.src % 50 != 7 && e.src != ISOLATED && e.dst != ISOLATED)
        .collect();
    assert!(edges.len() >= INITIAL + 3 * SLIDE);
    let mut g = gpma_core::GpmaPlus::build(dev, NV, &edges[..INITIAL]);
    for i in 0..3 {
        let batch = UpdateBatch {
            insertions: edges[INITIAL + i * SLIDE..INITIAL + (i + 1) * SLIDE].to_vec(),
            deletions: edges[i * SLIDE..(i + 1) * SLIDE].to_vec(),
        };
        g.update_batch_lazy(dev, &batch);
    }
    let live = g.storage.host_edges();
    assert_eq!(live.len(), INITIAL);
    (g, live)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_sim::DeviceConfig;

    fn dev() -> Device {
        Device::new(DeviceConfig::deterministic())
    }

    #[test]
    fn reduce_matches_reference() {
        let d = dev();
        for n in [1usize, 17, 256, 1000, 70_000] {
            let vals: Vec<f64> = (0..n).map(|i| (i as f64) * 0.25).collect();
            let buf = DeviceBuffer::from_slice(&vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
            let got = reduce_f64(&d, &buf);
            let expect: f64 = vals.iter().sum();
            assert!((got - expect).abs() < 1e-6 * expect.max(1.0), "n={n}: {got} vs {expect}");
        }
    }

    #[test]
    fn atomic_add_accumulates_under_contention() {
        let d = Device::new(DeviceConfig {
            host_parallelism: 8,
            ..DeviceConfig::default()
        });
        let acc = filled_f64(0.0, 1);
        d.launch("madd", 10_000, |lane| {
            atomic_add_f64(lane, &acc, 0, 0.5);
        });
        let total = f64::from_bits(acc.host_read(0));
        assert!((total - 5000.0).abs() < 1e-9, "{total}");
    }

    #[test]
    fn load_store_roundtrip() {
        let d = dev();
        let buf = filled_f64(1.5, 4);
        d.launch("rt", 4, |lane| {
            let v = load_f64(lane, &buf, lane.tid);
            store_f64(lane, &buf, lane.tid, v * 2.0);
        });
        assert_eq!(f64::from_bits(buf.host_read(2)), 3.0);
    }
}
