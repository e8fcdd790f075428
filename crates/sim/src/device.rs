//! The simulated SIMT device: kernel launches, lanes, and the cost model.
//!
//! A kernel is a closure run once per logical thread ("lane"). Lanes are
//! grouped into warps of [`DeviceConfig::warp_size`]; the cost model charges
//! each warp the maximum lane instruction count (modelling divergence), and
//! charges memory by coalesced 128-byte transactions measured on sampled
//! warps. Total kernel time divides the summed warp work by the device's
//! parallel warp throughput (`num_sms * warps_per_sm`) — this is what gives
//! GPMA+ its `O(1 + log^2 N / K)` amortized behaviour from Theorem 1.
//!
//! A sampled warp's lanes append their addresses to one flat trace owned by
//! the host thread running them (`TRACE`, reused across warps and launches,
//! released once a warp grows it past `TRACE_RETAIN` entries); the warp is
//! then counted step by step — distinct lines, same-address atomics — and
//! the launch extrapolates by the sampled ratios. Unsampled lanes trace nothing.

use parking_lot::Mutex;
use std::cell::Cell;

use crate::config::DeviceConfig;
use crate::metrics::{DeviceMetrics, KernelStats, SimTime};
use crate::pool::Pool;

/// Per-lane execution context handed to kernel closures.
///
/// Tracks the lane id and instruction/memory counters that feed the cost
/// model. Obtained only from [`Device::launch`].
pub struct Lane<'a> {
    /// Logical global thread id of this lane.
    pub tid: usize,
    ops: u64,
    mem_ops: u64,
    atomic_ops: u64,
    /// The warp's trace, when the warp is sampled.
    trace: Option<&'a mut WarpTrace>,
}

impl<'a> Lane<'a> {
    fn new(tid: usize, trace: Option<&'a mut WarpTrace>) -> Self {
        Lane {
            tid,
            ops: 0,
            mem_ops: 0,
            atomic_ops: 0,
            trace,
        }
    }

    /// Construct a free-standing lane for unit tests of buffer access.
    pub fn test_lane(tid: usize) -> Lane<'static> {
        Lane::new(tid, None)
    }

    /// Charge `n` ALU cycles of explicit compute work.
    #[inline]
    pub fn work(&mut self, n: u64) {
        self.ops += n;
    }

    #[inline]
    pub(crate) fn record_mem(&mut self, addr: u64) {
        self.ops += 1;
        self.mem_ops += 1;
        if let Some(t) = self.trace.as_mut() {
            t.mem.addrs.push(addr);
        }
    }

    #[inline]
    pub(crate) fn record_atomic(&mut self, addr: u64) {
        self.ops += 2;
        self.mem_ops += 1;
        self.atomic_ops += 1;
        if let Some(t) = self.trace.as_mut() {
            t.mem.addrs.push(addr);
            t.atomics.addrs.push(addr);
        }
    }
}

/// The addresses a warp's lanes touched, lane after lane in one flat
/// vector; lane `l` owns `addrs[ends[l - 1]..ends[l]]`, in program order.
struct LaneTraces {
    addrs: Vec<u64>,
    ends: Vec<usize>,
}

impl LaneTraces {
    const fn new() -> Self {
        LaneTraces {
            addrs: Vec::new(),
            ends: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.addrs.clear();
        self.ends.clear();
    }

    /// Close the running lane's trace.
    fn end_lane(&mut self) {
        self.ends.push(self.addrs.len());
    }
}

/// Everything a sampled warp records, plus the counting scratch.
struct WarpTrace {
    /// Every memory access, atomics included (coalescing analysis).
    mem: LaneTraces,
    /// Atomic accesses only (conflict analysis).
    atomics: LaneTraces,
    /// Distinct values of the step being counted; at most one per lane.
    seen: Vec<u64>,
}

impl WarpTrace {
    const fn new() -> Self {
        WarpTrace {
            mem: LaneTraces::new(),
            atomics: LaneTraces::new(),
            seen: Vec::new(),
        }
    }

    fn clear(&mut self) {
        self.mem.clear();
        self.atomics.clear();
    }

    fn end_lane(&mut self) {
        self.mem.end_lane();
        self.atomics.end_lane();
    }
}

/// A trace grown past this many entries by one warp is dropped rather than
/// kept for the next launch: a block-sequential scan warp records 16 k
/// accesses once, and pinning that per host thread would show up in the
/// peak heap. Ordinary warps stay far below and reuse their allocation.
const TRACE_RETAIN: usize = 4096;

thread_local! {
    /// This host thread's trace, parked between launches. `launch` takes it
    /// out while it runs lanes, so a kernel that itself launches (on this
    /// thread) finds an empty one and simply allocates its own.
    static TRACE: Cell<WarpTrace> = const { Cell::new(WarpTrace::new()) };
}

#[derive(Default)]
struct LaunchAccum {
    ops: u64,
    mem_ops: u64,
    atomic_ops: u64,
    warp_max_ops_sum: u64,
    sampled_mem_ops: u64,
    sampled_transactions: u64,
    sampled_atomic_ops: u64,
    sampled_atomic_conflicts: u64,
}

impl LaunchAccum {
    fn merge(&mut self, o: &LaunchAccum) {
        self.ops += o.ops;
        self.mem_ops += o.mem_ops;
        self.atomic_ops += o.atomic_ops;
        self.warp_max_ops_sum += o.warp_max_ops_sum;
        self.sampled_mem_ops += o.sampled_mem_ops;
        self.sampled_transactions += o.sampled_transactions;
        self.sampled_atomic_ops += o.sampled_atomic_ops;
        self.sampled_atomic_conflicts += o.sampled_atomic_conflicts;
    }

    fn add_lane(&mut self, lane: &Lane, sampled: bool) {
        self.ops += lane.ops;
        self.mem_ops += lane.mem_ops;
        self.atomic_ops += lane.atomic_ops;
        if sampled {
            self.sampled_mem_ops += lane.mem_ops;
            self.sampled_atomic_ops += lane.atomic_ops;
        }
    }
}

/// A simulated GPU.
pub struct Device {
    cfg: DeviceConfig,
    pool: Pool,
    metrics: Mutex<DeviceMetrics>,
    name: String,
}

impl Default for Device {
    fn default() -> Self {
        Device::new(DeviceConfig::default())
    }
}

impl Device {
    /// A device with the given configuration, named `gpu0`.
    pub fn new(cfg: DeviceConfig) -> Self {
        let pool = Pool::new(cfg.host_parallelism);
        Device {
            cfg,
            pool,
            metrics: Mutex::new(DeviceMetrics::default()),
            name: "gpu0".to_string(),
        }
    }

    /// A device with an explicit name (multi-GPU experiments).
    pub fn named(cfg: DeviceConfig, name: impl Into<String>) -> Self {
        let mut d = Device::new(cfg);
        d.name = name.into();
        d
    }

    /// The device's name, as shown in metrics output.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configuration this device was built with.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Launch `n` lanes executing `f`. Returns the cost-model statistics for
    /// this kernel; the device clock advances by `stats.cycles`.
    // lint: hot-path
    pub fn launch<F>(&self, name: &'static str, n: usize, f: F) -> KernelStats
    where
        F: Fn(&mut Lane) + Sync,
    {
        if n == 0 {
            // Real drivers still charge a launch; an empty grid is usually a
            // host-side bug worth seeing in the metrics.
            let stats = KernelStats {
                name,
                cycles: self.cfg.launch_overhead_cycles,
                ..Default::default()
            };
            self.metrics.lock().record(&stats);
            return stats;
        }

        let warp = self.cfg.warp_size.max(1);
        let sample = self.cfg.coalescing_sample.max(1);
        let tx_bytes = self.cfg.transaction_bytes.max(1) as u64;

        // Run the lanes of the warp-aligned range `start..end`.
        let run = |start: usize, end: usize| {
            let mut local = LaunchAccum::default();
            let mut trace = TRACE.replace(WarpTrace::new());
            let mut warp_start = start;
            while warp_start < end {
                let warp_end = (warp_start + warp).min(end);
                let sampled = (warp_start / warp).is_multiple_of(sample);
                let mut warp_max_ops = 0u64;
                if sampled {
                    trace.clear();
                }
                for tid in warp_start..warp_end {
                    let mut lane = Lane::new(tid, sampled.then_some(&mut trace));
                    f(&mut lane);
                    warp_max_ops = warp_max_ops.max(lane.ops);
                    local.add_lane(&lane, sampled);
                    if sampled {
                        trace.end_lane();
                    }
                }
                if sampled {
                    local.sampled_transactions +=
                        coalesced_transactions(&trace.mem, tx_bytes, &mut trace.seen);
                    local.sampled_atomic_conflicts +=
                        atomic_conflicts(&trace.atomics, &mut trace.seen);
                }
                local.warp_max_ops_sum += warp_max_ops;
                warp_start = warp_end;
            }
            if trace.mem.addrs.capacity() <= TRACE_RETAIN {
                TRACE.set(trace);
            }
            local
        };

        let acc = if self.pool.is_inline() {
            run(0, n)
        } else {
            let accum = Mutex::new(LaunchAccum::default());
            self.pool.run(&self.partition(n, warp), &|start, end| {
                let part = run(start, end);
                accum.lock().merge(&part);
            });
            accum.into_inner()
        };

        let stats = self.cost_model(name, n, &acc);
        self.metrics.lock().record(&stats);
        stats
    }

    /// Split `n` lanes into warp-aligned chunks for the host pool.
    fn partition(&self, n: usize, warp: usize) -> Vec<(usize, usize)> {
        let workers = self.pool.size.max(1);
        let target_chunks = (workers * 4).max(1);
        let warps = n.div_ceil(warp);
        let warps_per_chunk = warps.div_ceil(target_chunks).max(1);
        let chunk = warps_per_chunk * warp;
        let mut out = Vec::new();
        let mut s = 0;
        while s < n {
            let e = (s + chunk).min(n);
            out.push((s, e));
            s = e;
        }
        out
    }

    fn cost_model(&self, name: &'static str, n: usize, acc: &LaunchAccum) -> KernelStats {
        let warps = n.div_ceil(self.cfg.warp_size.max(1));
        // Extrapolate coalescing from sampled warps to the full launch.
        let tx_ratio = if acc.sampled_mem_ops > 0 {
            acc.sampled_transactions as f64 / acc.sampled_mem_ops as f64
        } else {
            1.0
        };
        let mem_transactions = (acc.mem_ops as f64 * tx_ratio).ceil() as u64;
        let conflict_ratio = if acc.sampled_atomic_ops > 0 {
            acc.sampled_atomic_conflicts as f64 / acc.sampled_atomic_ops as f64
        } else {
            0.0
        };
        let atomic_conflicts = (acc.atomic_ops as f64 * conflict_ratio).round() as u64;

        let compute_cycles = acc.warp_max_ops_sum;
        let mem_cycles = mem_transactions * self.cfg.mem_cycles_per_transaction;
        let atomic_cycles = acc.atomic_ops * self.cfg.atomic_extra_cycles
            + atomic_conflicts * self.cfg.atomic_conflict_cycles;
        let total_warp_cycles = compute_cycles + mem_cycles + atomic_cycles;
        let cycles =
            total_warp_cycles.div_ceil(self.cfg.parallel_warps()) + self.cfg.launch_overhead_cycles;

        KernelStats {
            name,
            threads: n,
            warps,
            cycles,
            compute_cycles,
            mem_transactions,
            mem_ops: acc.mem_ops,
            atomic_ops: acc.atomic_ops,
            atomic_conflicts,
            coalescing_factor: if mem_transactions > 0 {
                acc.mem_ops as f64 / mem_transactions as f64
            } else {
                1.0
            },
        }
    }

    /// Simulated seconds elapsed on this device since the last reset.
    pub fn elapsed(&self) -> SimTime {
        SimTime(self.cfg.cycles_to_secs(self.metrics.lock().total_cycles))
    }

    /// Advance the device clock by raw cycles (used by host-orchestrated
    /// costs such as device-to-device copies).
    pub fn advance_cycles(&self, cycles: u64) {
        self.metrics.lock().total_cycles += cycles;
    }

    /// Reset the device clock and aggregate metrics (not buffer contents).
    pub fn reset_clock(&self) {
        *self.metrics.lock() = DeviceMetrics::default();
    }

    /// Snapshot of aggregate metrics.
    pub fn metrics(&self) -> DeviceMetrics {
        self.metrics.lock().clone()
    }

    /// Run `f` while measuring the simulated time it adds to the clock.
    pub fn timed<R>(&self, f: impl FnOnce(&Device) -> R) -> (R, SimTime) {
        let before = self.metrics.lock().total_cycles;
        let r = f(self);
        let after = self.metrics.lock().total_cycles;
        (r, SimTime(self.cfg.cycles_to_secs(after - before)))
    }
}

/// Sum over the warp's aligned access steps of the number of distinct
/// `addr / granule` values the lanes still running at that step touch.
/// `seen` is scratch; it never holds more than one entry per lane.
// lint: hot-path
fn distinct_per_step(t: &LaneTraces, granule: u64, seen: &mut Vec<u64>) -> u64 {
    let mut steps = 0;
    let mut start = 0;
    for &end in &t.ends {
        steps = steps.max(end - start);
        start = end;
    }
    let mut total = 0u64;
    for step in 0..steps {
        seen.clear();
        // Largest value seen this step: lanes mostly walk memory in lane
        // order (coalesced, strided, one block each), so the next value is
        // that one again or a larger, hence new, one — no scan needed.
        let mut max = None;
        let mut start = 0;
        for &end in &t.ends {
            if start + step < end {
                let v = t.addrs[start + step] / granule;
                if max < Some(v) {
                    seen.push(v);
                    max = Some(v);
                } else if max != Some(v) && !seen.contains(&v) {
                    seen.push(v);
                }
            }
            start = end;
        }
        total += seen.len() as u64;
    }
    total
}

/// Number of memory transactions needed for the aligned access steps of one
/// warp: at each step, lanes hitting the same `tx_bytes` line share one
/// transaction (the hardware coalescer).
// lint: hot-path
fn coalesced_transactions(t: &LaneTraces, tx_bytes: u64, seen: &mut Vec<u64>) -> u64 {
    distinct_per_step(t, tx_bytes, seen)
}

/// Same-address atomic collisions within a warp step (serialized by
/// hardware): every atomic beyond the first on its address at its step.
// lint: hot-path
fn atomic_conflicts(t: &LaneTraces, seen: &mut Vec<u64>) -> u64 {
    t.addrs.len() as u64 - distinct_per_step(t, 1, seen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::DeviceBuffer;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    fn det_device() -> Device {
        Device::new(DeviceConfig::deterministic())
    }

    /// The accounting this module shipped with, kept as the oracle: one
    /// `Vec` per lane, one `HashSet` of lines per step.
    fn coalesced_transactions_ref(traces: &[Vec<u64>], tx_bytes: u64) -> u64 {
        let max_len = traces.iter().map(|t| t.len()).max().unwrap_or(0);
        let mut tx = 0u64;
        let mut lines: HashSet<u64> = HashSet::new();
        for step in 0..max_len {
            lines.clear();
            for t in traces {
                if let Some(&addr) = t.get(step) {
                    lines.insert(addr / tx_bytes);
                }
            }
            tx += lines.len() as u64;
        }
        tx
    }

    /// Oracle for [`atomic_conflicts`], as above.
    fn atomic_conflicts_ref(traces: &[Vec<u64>]) -> u64 {
        let max_len = traces.iter().map(|t| t.len()).max().unwrap_or(0);
        let mut conflicts = 0u64;
        let mut seen: HashSet<u64> = HashSet::new();
        for step in 0..max_len {
            seen.clear();
            let mut count = 0u64;
            for t in traces {
                if let Some(&addr) = t.get(step) {
                    count += 1;
                    seen.insert(addr);
                }
            }
            conflicts += count - seen.len() as u64;
        }
        conflicts
    }

    fn flatten(traces: &[Vec<u64>]) -> LaneTraces {
        let mut flat = LaneTraces::new();
        for t in traces {
            flat.addrs.extend_from_slice(t);
            flat.end_lane();
        }
        flat
    }

    /// A ragged warp trace: each lane is empty one time in four, else up to
    /// `max_len` long, with addresses drawn by `pattern`.
    fn ragged_traces(lanes: usize, max_len: usize, pattern: u8, seed: u64) -> Vec<Vec<u64>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let base = 1u64 << 20;
        (0..lanes as u64)
            .map(|lane| {
                if rng.gen_range(0..4) == 0 {
                    return Vec::new();
                }
                let len = rng.gen_range(0..=max_len) as u64;
                (0..len)
                    .map(|step| match pattern {
                        // Every access on one address.
                        0 => base,
                        // Disjoint addresses: one per (lane, step).
                        1 => base + (step * 32 + lane) * 8,
                        // Clustered inside a few lines.
                        2 => base + rng.gen_range(0..512u64),
                        // Strided: each lane walks its own block.
                        3 => base + (lane * 513 + step) * 4,
                        // Lanes in descending address order.
                        4 => base + ((31 - lane) * 2048 + step) * 4,
                        // A pool of six hot addresses.
                        5 => base + rng.gen_range(0..6u64) * 64,
                        // Fully scattered.
                        _ => rng.gen_range(0..u64::MAX),
                    })
                    .collect()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn counting_matches_the_hashset_oracle(
            lanes in 1usize..=32,
            max_len in 0usize..=600,
            pattern in 0u8..7,
            seed in any::<u64>(),
        ) {
            let traces = ragged_traces(lanes, max_len, pattern, seed);
            let flat = flatten(&traces);
            // Scratch arrives dirty, as it does from the previous warp.
            let mut seen = vec![7; 40];
            for tx_bytes in [32, 128] {
                prop_assert_eq!(
                    coalesced_transactions(&flat, tx_bytes, &mut seen),
                    coalesced_transactions_ref(&traces, tx_bytes),
                    "lanes {} max_len {} pattern {} seed {} tx {}",
                    lanes, max_len, pattern, seed, tx_bytes
                );
            }
            prop_assert_eq!(
                atomic_conflicts(&flat, &mut seen),
                atomic_conflicts_ref(&traces),
                "lanes {} max_len {} pattern {} seed {}",
                lanes, max_len, pattern, seed
            );
        }
    }

    /// A CAS-free kernel whose lanes do different amounts of work: up to six
    /// loads at a lane-dependent stride and up to two atomic adds on a
    /// handful of counters.
    fn uneven_kernel<'a>(
        data: &'a DeviceBuffer<u32>,
        counters: &'a DeviceBuffer<u32>,
    ) -> impl Fn(&mut Lane) + Sync + 'a {
        move |lane| {
            let tid = lane.tid;
            for k in 0..tid % 7 {
                let _ = data.get(lane, (tid * (k + 1)) % data.len());
            }
            for _ in 0..tid % 3 {
                counters.atomic_add(lane, tid % 5, 1);
            }
            lane.work((tid % 11) as u64);
        }
    }

    const UNEVEN_LANES: usize = 5_000;

    fn uneven_launch(dev: &Device) -> KernelStats {
        let data = DeviceBuffer::<u32>::new(4096);
        let counters = DeviceBuffer::<u32>::new(8);
        dev.launch("uneven", UNEVEN_LANES, uneven_kernel(&data, &counters))
    }

    fn device_with(host_parallelism: usize, coalescing_sample: usize) -> Device {
        Device::new(DeviceConfig {
            host_parallelism,
            coalescing_sample,
            ..DeviceConfig::default()
        })
    }

    #[test]
    fn stats_do_not_depend_on_host_parallelism() {
        for sample in [1, 16] {
            let inline = uneven_launch(&device_with(1, sample));
            let pooled = uneven_launch(&device_with(4, sample));
            assert_eq!(inline, pooled, "sample {sample}");
            assert!(inline.atomic_conflicts > 0 && inline.mem_transactions > 0);
        }
    }

    #[test]
    fn nested_launch_on_another_device_leaves_both_counts_alone() {
        let outer_dev = det_device();
        let inner_dev = det_device();
        let alone_outer = uneven_launch(&outer_dev);
        let alone_inner = uneven_launch(&inner_dev);

        let data = DeviceBuffer::<u32>::new(4096);
        let counters = DeviceBuffer::<u32>::new(8);
        let kernel = uneven_kernel(&data, &counters);
        let inner_stats = Mutex::new(Vec::new());
        // Lanes 3 (first warp, mid-trace) and 4 000 launch from inside the
        // kernel, on the thread whose trace scratch the outer launch holds.
        let nested_outer = outer_dev.launch("uneven", UNEVEN_LANES, |lane| {
            if lane.tid == 3 || lane.tid == 4_000 {
                inner_stats.lock().push(uneven_launch(&inner_dev));
            }
            kernel(lane);
        });
        assert_eq!(nested_outer, alone_outer);
        assert_eq!(inner_stats.into_inner(), vec![alone_inner.clone(), alone_inner]);
    }

    #[test]
    fn concurrent_launches_on_one_device_count_as_alone() {
        for host_parallelism in [1, 4] {
            let dev = device_with(host_parallelism, 1);
            let alone = uneven_launch(&dev);
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        start.wait();
                        for _ in 0..20 {
                            assert_eq!(uneven_launch(&dev), alone);
                        }
                    });
                }
            });
        }
    }

    /// Capacity of this thread's parked trace.
    fn parked_trace_capacity() -> usize {
        let trace = TRACE.replace(WarpTrace::new());
        let cap = trace.mem.addrs.capacity();
        TRACE.set(trace);
        cap
    }

    #[test]
    fn trace_scratch_is_kept_until_a_warp_outgrows_it() {
        let dev = det_device();
        let buf = DeviceBuffer::<u32>::new(1 << 16);
        let walk = |per_lane: usize| {
            dev.launch("walk", 64, |lane| {
                for k in 0..per_lane {
                    let _ = buf.get(lane, lane.tid * per_lane + k);
                }
            });
        };
        // 32 lanes x 128 accesses = TRACE_RETAIN entries per warp: kept.
        walk(TRACE_RETAIN / 32);
        let kept = parked_trace_capacity();
        assert!((TRACE_RETAIN / 2..=TRACE_RETAIN).contains(&kept), "{kept}");
        walk(8);
        assert_eq!(parked_trace_capacity(), kept);
        // One entry more per lane: the trace doubles and is let go.
        walk(TRACE_RETAIN / 32 + 1);
        assert_eq!(parked_trace_capacity(), 0);
    }

    #[test]
    fn launch_executes_every_lane() {
        let dev = det_device();
        let out = DeviceBuffer::<u64>::new(1000);
        dev.launch("iota", 1000, |lane| {
            out.set(lane, lane.tid, lane.tid as u64 * 2);
        });
        let v = out.to_vec();
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i as u64 * 2);
        }
    }

    #[test]
    fn launch_executes_in_parallel_pool() {
        let dev = Device::new(DeviceConfig {
            host_parallelism: 4,
            ..DeviceConfig::default()
        });
        let out = DeviceBuffer::<u32>::new(10_000);
        dev.launch("fill", 10_000, |lane| {
            out.set(lane, lane.tid, 7);
        });
        assert!(out.to_vec().iter().all(|&x| x == 7));
    }

    #[test]
    fn clock_advances_and_resets() {
        let dev = det_device();
        assert_eq!(dev.elapsed().secs(), 0.0);
        dev.launch("noop", 64, |_| {});
        assert!(dev.elapsed().secs() > 0.0);
        let m = dev.metrics();
        assert_eq!(m.launches, 1);
        dev.reset_clock();
        assert_eq!(dev.elapsed().secs(), 0.0);
    }

    #[test]
    fn coalesced_access_uses_fewer_transactions_than_strided() {
        let dev = det_device();
        let buf = DeviceBuffer::<u32>::new(32 * 64);
        let s1 = dev.launch("coalesced", 32, |lane| {
            let _ = buf.get(lane, lane.tid);
        });
        let s2 = dev.launch("strided", 32, |lane| {
            let _ = buf.get(lane, lane.tid * 64);
        });
        assert!(s1.mem_transactions < s2.mem_transactions);
        assert!(s1.coalescing_factor > s2.coalescing_factor);
        assert!(s1.cycles < s2.cycles);
    }

    #[test]
    fn divergence_charged_as_warp_max() {
        let dev = det_device();
        // One heavy lane per warp: warp cost should be ~heavy cost, not avg.
        let s = dev.launch("divergent", 32, |lane| {
            if lane.tid == 0 {
                lane.work(10_000);
            }
        });
        assert!(s.compute_cycles >= 10_000);
    }

    #[test]
    fn atomic_conflicts_detected() {
        let dev = det_device();
        let buf = DeviceBuffer::<u32>::new(64);
        let conflicting = dev.launch("same-addr", 32, |lane| {
            buf.atomic_add(lane, 0, 1);
        });
        let disjoint = dev.launch("diff-addr", 32, |lane| {
            buf.atomic_add(lane, lane.tid, 1);
        });
        assert!(conflicting.atomic_conflicts > 0);
        assert_eq!(disjoint.atomic_conflicts, 0);
        assert_eq!(buf.host_read(0), 33); // 32 adds + 1 from disjoint lane 0
    }

    #[test]
    fn more_sms_means_faster_kernels() {
        let slow = Device::new(DeviceConfig::deterministic().with_sms(1));
        let fast = Device::new(DeviceConfig::deterministic().with_sms(32));
        let buf_a = DeviceBuffer::<u64>::new(1 << 16);
        let buf_b = DeviceBuffer::<u64>::new(1 << 16);
        let sa = slow.launch("work", 1 << 16, |lane| {
            buf_a.set(lane, lane.tid, 1);
            lane.work(64);
        });
        let sb = fast.launch("work", 1 << 16, |lane| {
            buf_b.set(lane, lane.tid, 1);
            lane.work(64);
        });
        // Equal total work; the 32-SM device must be much faster.
        assert!(sa.cycles > 4 * sb.cycles, "{} vs {}", sa.cycles, sb.cycles);
    }

    #[test]
    fn empty_launch_charges_overhead_only() {
        let dev = det_device();
        let s = dev.launch("empty", 0, |_| {});
        assert_eq!(s.cycles, dev.config().launch_overhead_cycles);
        assert_eq!(s.threads, 0);
    }

    #[test]
    fn timed_measures_only_inner_work() {
        let dev = det_device();
        dev.launch("pre", 128, |lane| lane.work(10));
        let (_, t) = dev.timed(|d| {
            d.launch("inner", 128, |lane| lane.work(10));
        });
        assert!(t.secs() > 0.0);
        assert!(t.secs() < dev.elapsed().secs());
    }

    #[test]
    fn atomic_counter_sums_correctly_under_parallel_pool() {
        let dev = Device::new(DeviceConfig {
            host_parallelism: 8,
            ..DeviceConfig::default()
        });
        let counter = DeviceBuffer::<u64>::new(1);
        dev.launch("count", 100_000, |lane| {
            counter.atomic_add(lane, 0, 1);
        });
        assert_eq!(counter.host_read(0), 100_000);
    }
}
