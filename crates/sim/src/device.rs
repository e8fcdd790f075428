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
//! each part released once a warp grows it past `TRACE_RETAIN` entries); the
//! warp is then counted step by step — distinct lines, same-address atomics
//! — in one pass over the trace in recording order, which is exact for every
//! step whose lanes arrive in ascending order; the other steps are recounted
//! one by one. The launch extrapolates by the sampled ratios. Unsampled
//! lanes trace nothing, and neither does a sampled warp of one lane: each of
//! its steps has one access, so one line and no conflict.
//!
//! Whether a lane can trace is part of its type ([`LaneMode`]). A kernel
//! written with [`launch!`](crate::launch) is compiled twice: warps that are
//! traced run its [`Traced`] copy, every other warp its [`Untraced`] copy,
//! whose accesses carry no trace code at all. A kernel passed to
//! [`Device::launch`] as one closure is compiled once, as [`Traced`], and
//! every access checks at run time whether its warp handed it a trace.

use parking_lot::Mutex;
use std::cell::Cell;
use std::cmp::Reverse;
use std::marker::PhantomData;
use std::ops::Range;

use crate::config::DeviceConfig;
use crate::metrics::{DeviceMetrics, KernelStats, SimTime};
use crate::pool::Pool;

mod sealed {
    /// Closes [`LaneMode`](super::LaneMode) to the two lane kinds.
    pub trait Sealed {}
    impl Sealed for super::Traced {}
    impl Sealed for super::Untraced {}
}

/// Whether a [`Lane`] can record into its warp's trace, fixed by its type:
/// [`Traced`] or [`Untraced`]. Lane helpers are generic over it, so each
/// kind of lane gets its own copy of them.
pub trait LaneMode: sealed::Sealed + 'static {
    /// Whether an access may append to the warp's trace.
    const TRACES: bool;
}

/// The lane kind that records its accesses when its warp is traced, and
/// checks on every access whether it is. The default of [`Lane`], so a
/// kernel closure of [`Device::launch`] runs as one.
pub enum Traced {}

/// The lane kind of a warp that is not traced: its accesses only count.
pub enum Untraced {}

impl LaneMode for Traced {
    const TRACES: bool = true;
}

impl LaneMode for Untraced {
    const TRACES: bool = false;
}

/// Per-lane execution context handed to kernel closures.
///
/// Tracks the lane id and instruction/memory counters that feed the cost
/// model, and, for a [`Traced`] lane of a traced warp, the warp's trace. An
/// [`Untraced`] lane compiles the trace out. Obtained only from
/// [`Device::launch`] and [`Device::launch_modes`].
pub struct Lane<'a, M: LaneMode = Traced> {
    /// Logical global thread id of this lane.
    pub tid: usize,
    ops: u64,
    mem_ops: u64,
    atomic_ops: u64,
    /// The warp's trace, when the warp is traced; always `None` when `M`
    /// does not trace.
    trace: Option<&'a mut WarpTrace>,
    mode: PhantomData<M>,
}

impl Lane<'static> {
    /// Construct a free-standing lane for unit tests of buffer access.
    pub fn test_lane(tid: usize) -> Self {
        Lane::new(tid, None)
    }
}

impl<'a, M: LaneMode> Lane<'a, M> {
    #[inline(always)]
    fn new(tid: usize, trace: Option<&'a mut WarpTrace>) -> Self {
        Lane {
            tid,
            ops: 0,
            mem_ops: 0,
            atomic_ops: 0,
            trace,
            mode: PhantomData,
        }
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
        if M::TRACES {
            if let Some(t) = self.trace.as_mut() {
                t.mem.addrs.push(addr);
            }
        }
    }

    #[inline]
    pub(crate) fn record_atomic(&mut self, addr: u64) {
        self.ops += 2;
        self.mem_ops += 1;
        self.atomic_ops += 1;
        if M::TRACES {
            if let Some(t) = self.trace.as_mut() {
                t.mem.addrs.push(addr);
                t.atomics.addrs.push(addr);
            }
        }
    }
}

/// Launch a kernel whose body is written once and compiled twice, one copy
/// per lane kind: `launch!(dev, "name", n, |lane| body)` is
/// [`Device::launch_modes`] with `body` as the [`Traced`] and the
/// [`Untraced`] closure. It counts exactly as [`Device::launch`] with the
/// same closure; only the host time of the untraced warps differs. The body
/// is expanded twice, so it borrows what it captures rather than moving it.
#[macro_export]
macro_rules! launch {
    ($dev:expr, $name:expr, $n:expr, |$lane:ident| $body:expr $(,)?) => {
        $dev.launch_modes(
            $name,
            $n,
            |$lane: &mut $crate::Lane<'_, $crate::Traced>| $body,
            |$lane: &mut $crate::Lane<'_, $crate::Untraced>| $body,
        )
    };
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

/// What the counting pass knows about one aligned access step so far.
#[derive(Clone, Copy)]
struct Step {
    /// Largest value a lane has had at this step.
    max: u64,
    /// Values that arrived above `max`, the first included: the step's
    /// distinct count unless `below`.
    distinct: u32,
    /// A lane arrived below `max`, where it may or may not have been seen.
    below: bool,
}

/// A slot of the recount's value set; in use while it carries the set's
/// current stamp, so starting the next step's set is one increment.
#[derive(Clone, Copy, Default)]
struct Slot {
    stamp: u64,
    value: u64,
}

/// Scratch of the counting functions, reused across warps and launches.
struct CountScratch {
    /// One entry per step of the warp being counted.
    steps: Vec<Step>,
    /// `(length, start)` of the lanes still running at the step being
    /// recounted, the longest first.
    running: Vec<(usize, usize)>,
    /// Open-addressing set of the step being recounted: a power of two of
    /// slots, at least eight per lane.
    slots: Vec<Slot>,
    /// Stamp of the step being recounted; no slot carries a later one.
    stamp: u64,
}

/// Everything a sampled warp records, plus the counting scratch.
struct WarpTrace {
    /// Every memory access, atomics included (coalescing analysis).
    mem: LaneTraces,
    /// Atomic accesses only (conflict analysis).
    atomics: LaneTraces,
    count: CountScratch,
}

impl WarpTrace {
    const fn new() -> Self {
        WarpTrace {
            mem: LaneTraces::new(),
            atomics: LaneTraces::new(),
            count: CountScratch {
                steps: Vec::new(),
                running: Vec::new(),
                slots: Vec::new(),
                stamp: 0,
            },
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

    /// Let go of every part a warp grew past [`TRACE_RETAIN`] entries; the
    /// rest stays for the next launch.
    fn shed_overgrown(&mut self) {
        if self.mem.addrs.capacity() > TRACE_RETAIN {
            self.mem = LaneTraces::new();
        }
        if self.atomics.addrs.capacity() > TRACE_RETAIN {
            self.atomics = LaneTraces::new();
        }
        if self.count.steps.capacity() > TRACE_RETAIN {
            self.count.steps = Vec::new();
        }
    }
}

/// A part of the trace grown past this many entries by one warp is dropped
/// rather than kept for the next launch: a block-sequential scan warp
/// records 16 k accesses once, and pinning that per host thread would show
/// up in the peak heap. Ordinary warps stay far below and reuse their
/// allocation, and the per-step scratch of that scan warp (513 steps) stays
/// although its trace goes.
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

    #[inline(always)]
    fn add_lane<M: LaneMode>(&mut self, lane: &Lane<'_, M>, sampled: bool) {
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
    ///
    /// `f` is compiled once, as a [`Traced`] lane, so each of its accesses
    /// checks whether its warp is traced; [`launch!`](crate::launch) runs
    /// untraced warps without that check, at the same counts.
    // lint: hot-path
    pub fn launch<F>(&self, name: &'static str, n: usize, f: F) -> KernelStats
    where
        F: Fn(&mut Lane) + Sync,
    {
        self.launch_warps(name, n, |lanes, sampled, trace, local| {
            run_warp(&f, lanes, sampled, trace, local)
        })
    }

    /// Launch `n` lanes of one kernel given as its two instantiations:
    /// `traced` runs the warps whose accesses are traced, `untraced` every
    /// other warp, a sampled warp of one lane included. Both must be the
    /// same body, which [`launch!`](crate::launch) writes once; the
    /// statistics then equal [`Device::launch`]'s with that body.
    // lint: hot-path
    pub fn launch_modes<FT, FU>(
        &self,
        name: &'static str,
        n: usize,
        traced: FT,
        untraced: FU,
    ) -> KernelStats
    where
        FT: Fn(&mut Lane<'_, Traced>) + Sync,
        FU: Fn(&mut Lane<'_, Untraced>) + Sync,
    {
        // Each closure has one call site, in its own copy of the lane loop.
        self.launch_warps(name, n, |lanes, sampled, trace, local| match trace {
            Some(trace) => run_warp(&traced, lanes, sampled, Some(trace), local),
            None => run_warp(&untraced, lanes, sampled, None, local),
        })
    }

    /// Run every warp of an `n`-lane launch through `warp_fn(lanes, sampled,
    /// trace, local)`, which runs the lanes and returns the warp's largest
    /// lane op count; `trace` is the cleared trace when the warp is traced.
    /// Counts the traced warps, applies the cost model and records it.
    // lint: hot-path
    fn launch_warps<W>(&self, name: &'static str, n: usize, warp_fn: W) -> KernelStats
    where
        W: Fn(Range<usize>, bool, Option<&mut WarpTrace>, &mut LaunchAccum) -> u64 + Sync,
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
                // A lone lane has every step to itself: one line per access
                // and no atomic to collide with, known without a trace.
                let traced = sampled && warp_end - warp_start > 1;
                let mem_ops_before = local.sampled_mem_ops;
                if traced {
                    trace.clear();
                }
                let lanes = warp_start..warp_end;
                let warp_trace = traced.then_some(&mut trace);
                local.warp_max_ops_sum += warp_fn(lanes, sampled, warp_trace, &mut local);
                if traced {
                    local.sampled_transactions +=
                        coalesced_transactions(&trace.mem, tx_bytes, &mut trace.count);
                    local.sampled_atomic_conflicts +=
                        atomic_conflicts(&trace.atomics, &mut trace.count);
                } else {
                    // The lone lane's accesses; zero when nothing was sampled.
                    local.sampled_transactions += local.sampled_mem_ops - mem_ops_before;
                }
                warp_start = warp_end;
            }
            trace.shed_overgrown();
            TRACE.set(trace);
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

/// Run the lanes of one warp as `M` lanes, each with the warp's trace when
/// it has one, and return the largest lane op count (the warp's compute
/// cost under divergence).
#[inline(always)]
fn run_warp<M: LaneMode>(
    f: &impl Fn(&mut Lane<'_, M>),
    lanes: Range<usize>,
    sampled: bool,
    mut trace: Option<&mut WarpTrace>,
    local: &mut LaunchAccum,
) -> u64 {
    let mut warp_max_ops = 0u64;
    for tid in lanes {
        let mut lane = Lane::new(tid, trace.as_deref_mut());
        f(&mut lane);
        warp_max_ops = warp_max_ops.max(lane.ops);
        local.add_lane(&lane, sampled);
        if let Some(t) = trace.as_deref_mut() {
            t.end_lane();
        }
    }
    warp_max_ops
}

/// Sum over the warp's aligned access steps of the number of distinct
/// `addr / granule` values the lanes still running at that step touch.
// lint: hot-path
fn distinct_per_step(t: &LaneTraces, granule: u64, scratch: &mut CountScratch) -> u64 {
    if t.addrs.is_empty() {
        // Most kernels have no atomics: no step, whatever the lane count.
        return 0;
    }
    if granule.is_power_of_two() {
        // The granule's first address orders and tells apart like its index.
        let index_bits = !(granule - 1);
        count_steps(t, |addr| addr & index_bits, scratch)
    } else {
        count_steps(t, |addr| addr / granule, scratch)
    }
}

/// [`distinct_per_step`] over `unit(addr)`. One pass over the trace in the
/// order it was recorded keeps, per step, the largest value so far and how
/// many arrived above it: lanes mostly walk a buffer in lane order
/// (coalesced, strided, one block each), so a step's next value is its
/// largest again or a larger, hence new, one, and the count is exact. A step
/// where some value arrived below the largest — its lanes were in different
/// buffers, or ran against lane order — is left to [`recount_below`].
// lint: hot-path
fn count_steps(t: &LaneTraces, unit: impl Fn(u64) -> u64, scratch: &mut CountScratch) -> u64 {
    let steps = &mut scratch.steps;
    steps.clear();
    let mut start = 0;
    for &end in &t.ends {
        let lane = &t.addrs[start..end];
        let (known, first) = lane.split_at(lane.len().min(steps.len()));
        for (step, &addr) in steps.iter_mut().zip(known) {
            let v = unit(addr);
            step.distinct += u32::from(v > step.max);
            step.below |= v < step.max;
            step.max = step.max.max(v);
        }
        // This lane is the first to get this far.
        steps.extend(first.iter().map(|&addr| Step {
            max: unit(addr),
            distinct: 1,
            below: false,
        }));
        start = end;
    }
    let certified = steps.iter().filter(|step| !step.below);
    let total: u64 = certified.map(|step| u64::from(step.distinct)).sum();
    match steps.iter().position(|step| step.below) {
        Some(first) => total + recount_below(t, first, unit, scratch),
        None => total,
    }
}

/// The exact distinct counts of the steps [`count_steps`] marked `below`,
/// summed, `first` being the earliest of them: such a step's values go
/// through a set. The lanes that reach `first` are listed longest first, so
/// the lanes still running at a later step are a prefix of the list and a
/// step is gathered without a test per lane, however ragged the warp.
// lint: hot-path
fn recount_below(
    t: &LaneTraces,
    first: usize,
    unit: impl Fn(u64) -> u64,
    scratch: &mut CountScratch,
) -> u64 {
    let CountScratch {
        steps,
        running,
        slots,
        stamp,
    } = scratch;
    running.clear();
    let mut start = 0;
    for &end in &t.ends {
        if end - start > first {
            running.push((end - start, start));
        }
        start = end;
    }
    // Lanes of one length (a scatter's, say) are found in order and left so.
    running.sort_unstable_by_key(|&(len, _)| Reverse(len));
    // Sparse enough that a probe rarely meets another value.
    let room = (8 * t.ends.len()).next_power_of_two();
    if slots.len() < room {
        slots.resize(room, Slot::default());
    }
    let mask = slots.len() - 1;
    let shift = 64 - slots.len().trailing_zeros();
    let mut total = 0u64;
    for (s, _) in steps.iter().enumerate().skip(first).filter(|(_, step)| step.below) {
        while running.last().is_some_and(|&(len, _)| len <= s) {
            running.pop();
        }
        *stamp += 1;
        for &(_, start) in running.iter() {
            let v = unit(t.addrs[start + s]);
            let mut i = (v.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
            while slots[i].stamp == *stamp && slots[i].value != v {
                i = (i + 1) & mask;
            }
            total += u64::from(slots[i].stamp != *stamp);
            slots[i] = Slot {
                stamp: *stamp,
                value: v,
            };
        }
    }
    total
}

/// Number of memory transactions needed for the aligned access steps of one
/// warp: at each step, lanes hitting the same `tx_bytes` line share one
/// transaction (the hardware coalescer).
// lint: hot-path
fn coalesced_transactions(t: &LaneTraces, tx_bytes: u64, scratch: &mut CountScratch) -> u64 {
    distinct_per_step(t, tx_bytes, scratch)
}

/// Same-address atomic collisions within a warp step (serialized by
/// hardware): every atomic beyond the first on its address at its step.
// lint: hot-path
fn atomic_conflicts(t: &LaneTraces, scratch: &mut CountScratch) -> u64 {
    t.addrs.len() as u64 - distinct_per_step(t, 1, scratch)
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

    /// Scratch as earlier warps leave it: steps of another warp, a set too
    /// small for a full warp with every slot stamped in use, lanes listed.
    fn dirty_scratch() -> CountScratch {
        CountScratch {
            steps: vec![
                Step {
                    max: 7,
                    distinct: 3,
                    below: true,
                };
                40
            ],
            running: vec![(9, 9); 5],
            slots: vec![
                Slot {
                    stamp: 41,
                    value: 1 << 20,
                };
                16
            ],
            stamp: 41,
        }
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
        let streams = rng.gen_range(2..=6u64);
        (0..lanes as u64)
            .map(|lane| {
                if rng.gen_range(0..4) == 0 {
                    return Vec::new();
                }
                let len = rng.gen_range(0..=max_len) as u64;
                // How far this lane has read into each of its streams.
                let mut cursors = [0u64; 6];
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
                        4 => base + ((63 - lane) * 2048 + step) * 4,
                        // A pool of six hot addresses.
                        5 => base + rng.gen_range(0..6u64) * 64,
                        // Fully scattered.
                        6 => rng.gen_range(0..u64::MAX),
                        // A merge kernel: every lane reads a few buffers in
                        // a data-dependent order, each one forwards from a
                        // place that grows with the lane.
                        _ => {
                            let k = rng.gen_range(0..streams);
                            cursors[k as usize] += 1;
                            base + (k << 24) + (lane * 24 + cursors[k as usize]) * 8
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// A warp's lanes as `launch` sees them: a script of `(index, atomic)`
    /// accesses into one `u32` buffer per lane. Lanes read 2 to 6 regions of
    /// the buffer in a data-dependent order, forwards from a place that grows
    /// with the lane; one access in eight is an atomic on a few hot words;
    /// one lane in five does nothing.
    fn merge_scripts(lanes: usize, max_len: usize, seed: u64) -> Vec<Vec<(usize, bool)>> {
        const REGION: usize = 1 << 13;
        let mut rng = SmallRng::seed_from_u64(seed);
        let streams = rng.gen_range(2..=6usize);
        (0..lanes)
            .map(|lane| {
                if lanes > 1 && rng.gen_range(0..5) == 0 {
                    return Vec::new();
                }
                let len = rng.gen_range(1..=max_len);
                let mut cursors = [0usize; 6];
                (0..len)
                    .map(|_| {
                        let k = rng.gen_range(0..streams);
                        if rng.gen_range(0..8) == 0 {
                            return (k * REGION + rng.gen_range(0..4usize), true);
                        }
                        cursors[k] += 1;
                        (k * REGION + (lane * 24 + cursors[k]) % REGION, false)
                    })
                    .collect()
            })
            .collect()
    }

    const WARP_SIZES: [usize; 3] = [1, 8, 64];
    const LINE_BYTES: [usize; 2] = [96, 128];
    const SAMPLES: [usize; 3] = [1, 2, 16];

    /// One lane of a replayed launch: its script's accesses into `buf`.
    fn replay<M: LaneMode>(
        lane: &mut Lane<'_, M>,
        script: &[(usize, bool)],
        buf: &DeviceBuffer<u32>,
    ) {
        for &(i, atomic) in script {
            if atomic {
                buf.atomic_add(lane, i, 0);
            } else {
                let _ = buf.get(lane, i);
            }
        }
    }

    /// Replay `scripts` as one launch, sampling every `coalescing_sample`-th
    /// warp, once through [`Device::launch`] and once through [`launch!`]:
    /// the two must count alike, and as the oracle does, taken warp by warp
    /// over the sampled warps on the same addresses.
    fn assert_launch_matches_the_oracle(
        warp_size: usize,
        transaction_bytes: usize,
        coalescing_sample: usize,
        scripts: &[Vec<(usize, bool)>],
    ) {
        let dev = Device::new(DeviceConfig {
            warp_size,
            transaction_bytes,
            coalescing_sample,
            ..DeviceConfig::deterministic()
        });
        let buf = DeviceBuffer::<u32>::new(6 << 13);
        let n = scripts.len();
        let stats = dev.launch("replay", n, |lane| replay(lane, &scripts[lane.tid], &buf));
        let by_mode =
            crate::launch!(dev, "replay", n, |lane| replay(lane, &scripts[lane.tid], &buf));
        assert_eq!(by_mode, stats);
        let (mut transactions, mut conflicts) = (0u64, 0u64);
        let (mut sampled_mem_ops, mut sampled_atomic_ops) = (0u64, 0u64);
        for warp in scripts.chunks(warp_size).step_by(coalescing_sample) {
            let addrs = |atomics_only: bool| -> Vec<Vec<u64>> {
                warp.iter()
                    .map(|script| {
                        script
                            .iter()
                            .filter(|&&(_, atomic)| atomic || !atomics_only)
                            .map(|&(i, _)| buf.base_addr() + 4 * i as u64)
                            .collect()
                    })
                    .collect()
            };
            let (accesses, atomics) = (addrs(false), addrs(true));
            transactions += coalesced_transactions_ref(&accesses, transaction_bytes as u64);
            conflicts += atomic_conflicts_ref(&atomics);
            sampled_mem_ops += accesses.iter().map(|a| a.len() as u64).sum::<u64>();
            sampled_atomic_ops += atomics.iter().map(|a| a.len() as u64).sum::<u64>();
        }
        // `cost_model`'s extrapolation from the sampled warps.
        let ratio = |part: u64, sampled: u64, none: f64| {
            if sampled > 0 {
                part as f64 / sampled as f64
            } else {
                none
            }
        };
        let tx_ratio = ratio(transactions, sampled_mem_ops, 1.0);
        let conflict_ratio = ratio(conflicts, sampled_atomic_ops, 0.0);
        assert_eq!(stats.mem_transactions, (stats.mem_ops as f64 * tx_ratio).ceil() as u64);
        let conflicts = (stats.atomic_ops as f64 * conflict_ratio).round() as u64;
        assert_eq!(stats.atomic_conflicts, conflicts);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn counting_matches_the_hashset_oracle(
            lanes in 1usize..=64,
            max_len in 0usize..=300,
            pattern in 0u8..8,
            seed in any::<u64>(),
        ) {
            let traces = ragged_traces(lanes, max_len, pattern, seed);
            let flat = flatten(&traces);
            let mut scratch = dirty_scratch();
            for tx_bytes in [32, 96, 128] {
                prop_assert_eq!(
                    coalesced_transactions(&flat, tx_bytes, &mut scratch),
                    coalesced_transactions_ref(&traces, tx_bytes),
                    "lanes {} max_len {} pattern {} seed {} tx {}",
                    lanes, max_len, pattern, seed, tx_bytes
                );
            }
            prop_assert_eq!(
                atomic_conflicts(&flat, &mut scratch),
                atomic_conflicts_ref(&traces),
                "lanes {} max_len {} pattern {} seed {}",
                lanes, max_len, pattern, seed
            );
        }

        #[test]
        fn a_launch_of_merging_lanes_matches_the_oracle(
            warp_size in 0usize..3,
            transaction_bytes in 0usize..2,
            coalescing_sample in 0usize..3,
            lanes in 1usize..=150,
            seed in any::<u64>(),
        ) {
            let scripts = merge_scripts(lanes, 200, seed);
            assert_launch_matches_the_oracle(
                WARP_SIZES[warp_size],
                LINE_BYTES[transaction_bytes],
                SAMPLES[coalescing_sample],
                &scripts,
            );
        }

        #[test]
        fn a_warp_of_one_lane_is_exact_without_a_trace(
            warp_size in 0usize..3,
            transaction_bytes in 0usize..2,
            full_warps in 0usize..=2,
            max_len in 1usize..=20_000,
            seed in any::<u64>(),
        ) {
            // The launch ends in a warp of one lane, the long one.
            let warp_size = WARP_SIZES[warp_size];
            let mut scripts = merge_scripts(full_warps * warp_size, 40, seed);
            scripts.extend(merge_scripts(1, max_len, seed));
            assert_launch_matches_the_oracle(warp_size, LINE_BYTES[transaction_bytes], 1, &scripts);
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

    /// Capacities this thread's parked trace holds: accesses, atomics and
    /// per-step counting scratch.
    fn parked_capacities() -> [usize; 3] {
        let trace = TRACE.replace(WarpTrace::new());
        let caps = [
            trace.mem.addrs.capacity(),
            trace.atomics.addrs.capacity(),
            trace.count.steps.capacity(),
        ];
        TRACE.set(trace);
        caps
    }

    #[test]
    fn trace_scratch_is_kept_until_a_warp_outgrows_it() {
        let dev = det_device();
        let buf = DeviceBuffer::<u32>::new(1 << 16);
        // Each lane walks its own block and bumps one counter per access in
        // `atomics`.
        let walk = |lanes: usize, per_lane: usize, atomics: usize| {
            dev.launch("walk", lanes, |lane| {
                for k in 0..per_lane {
                    let _ = buf.get(lane, lane.tid * per_lane + k);
                }
                for _ in 0..atomics {
                    buf.atomic_add(lane, lane.tid, 1);
                }
            });
        };
        // 32 lanes x 128 accesses = TRACE_RETAIN entries per warp: kept.
        walk(64, TRACE_RETAIN / 32 - 1, 1);
        let kept = parked_capacities();
        assert!((TRACE_RETAIN / 2..=TRACE_RETAIN).contains(&kept[0]), "{kept:?}");
        assert!(kept[1] >= 32 && kept[2] >= TRACE_RETAIN / 32, "{kept:?}");
        walk(64, 8, 0);
        assert_eq!(parked_capacities(), kept);
        // A lone lane records nothing, however long it runs.
        walk(1, 4 * TRACE_RETAIN, TRACE_RETAIN);
        assert_eq!(parked_capacities(), kept);
        // One access more per lane: the accesses double and are let go; the
        // atomics and the 129 steps stay.
        walk(64, TRACE_RETAIN / 32 + 1, 0);
        let [accesses, atomics, steps] = parked_capacities();
        assert_eq!((accesses, atomics), (0, kept[1]));
        assert!((129..=TRACE_RETAIN).contains(&steps), "{steps}");
        // The same through atomics, which count as accesses too: both go.
        walk(64, 0, TRACE_RETAIN / 32 + 1);
        assert_eq!(parked_capacities(), [0, 0, steps]);
        // Two lanes, one of them long: the steps go with the accesses.
        walk(2, TRACE_RETAIN + 1, 0);
        assert_eq!(parked_capacities(), [0, 0, 0]);
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
