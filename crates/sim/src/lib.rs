//! # gpma-sim — a software SIMT device for the GPMA reproduction
//!
//! This crate substitutes for the CUDA GPU of *Accelerating Dynamic Graph
//! Analytics on GPUs* (Sha, Li, He, Tan — PVLDB 11(1), 2017). It provides:
//!
//! * [`Device`] — kernel launches over logical lanes grouped into warps,
//!   executed with real host-thread parallelism, with a cycle cost model
//!   accounting for memory coalescing, warp divergence, atomic conflicts,
//!   launch overhead and `K`-way compute-unit scaling (Theorem 1's `K`).
//! * [`DeviceBuffer`] — typed global memory with CUDA-like semantics
//!   (racing lanes must use atomics).
//! * [`primitives`] — the CUB-equivalent device primitives GPMA+ is built
//!   from: sort, exclusive scan, run-length encoding, compaction,
//!   reduction.
//! * [`pcie`] — the PCIe transfer model and Figure 2's asynchronous-stream
//!   pipeline used for the Figure 11 experiment.
//!
//! Simulated time ([`SimTime`]) is derived purely from the cost model and is
//! completely independent of host wall-clock time, so results are stable
//! across machines.
//!
//! ## Quick example
//!
//! Launch a kernel over 256 lanes and read the cost model's verdict:
//!
//! ```
//! use gpma_sim::{Device, DeviceBuffer, DeviceConfig};
//!
//! let dev = Device::new(DeviceConfig::deterministic());
//! let out = DeviceBuffer::<u64>::new(256);
//! let stats = dev.launch("square", 256, |lane| {
//!     let i = lane.tid as u64;
//!     lane.work(1);
//!     out.set(lane, lane.tid, i * i);
//! });
//! assert_eq!(out.to_vec()[9], 81);
//! assert_eq!(stats.threads, 256);
//! assert_eq!(stats.warps, 8);
//! assert!(dev.elapsed().secs() > 0.0);
//! ```
//!
//! The kernels of the other crates are written with [`launch!`], which
//! compiles the body once per [`LaneMode`]: warps whose accesses are traced
//! for the coalescing analysis run one copy, every other warp a copy with
//! no trace code. It counts exactly as the closure form does:
//!
//! ```
//! use gpma_sim::{launch, Device, DeviceBuffer, DeviceConfig};
//!
//! let dev = Device::new(DeviceConfig::default());
//! let out = DeviceBuffer::<u64>::new(4096);
//! let twice = launch!(dev, "stride", 4096, |lane| out.set(lane, lane.tid * 7 % 4096, 1));
//! let once = dev.launch("stride", 4096, |lane| out.set(lane, lane.tid * 7 % 4096, 1));
//! assert_eq!(twice, once);
//! ```

#![warn(missing_docs)]

mod buffer;
mod config;
mod device;
mod metrics;
mod pool;

pub mod pcie;
pub mod primitives;

pub use buffer::{DeviceBuffer, DevicePod};
pub use config::{DeviceConfig, PcieConfig};
pub use device::{Device, Lane, LaneMode, Traced, Untraced};
pub use metrics::{DeviceMetrics, KernelStats, ServiceCounters, SimTime};

#[cfg(test)]
mod integration_tests {
    use super::*;

    /// A miniature end-to-end flow exercising launch + primitives together:
    /// histogram by key, scan, and gather — the building blocks GPMA+ uses.
    #[test]
    fn histogram_scan_gather_roundtrip() {
        let dev = Device::new(DeviceConfig::deterministic());
        let n = 10_000usize;
        let keys: Vec<u64> = (0..n).map(|i| (i as u64 * 2654435761) % 97).collect();
        let mut dkeys = DeviceBuffer::from_slice(&keys);
        let mut dvals = DeviceBuffer::from_slice(&vec![1u64; n]);
        primitives::radix_sort_pairs_u64(&dev, &mut dkeys, &mut dvals);

        let sorted = dkeys.to_vec();
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));

        // RLE over the low 32 bits of the sorted keys.
        let low = DeviceBuffer::from_slice(&sorted.iter().map(|&k| k as u32).collect::<Vec<_>>());
        let mut rle = primitives::RleScratch::default();
        let runs = primitives::run_length_encode_u32_into(&dev, &low, n, &mut rle);
        let starts = rle.starts.to_vec();
        let total: u32 = starts[..=runs].windows(2).map(|w| w[1] - w[0]).sum();
        assert_eq!(total as usize, n);
        assert_eq!(runs, 97);
    }
}
