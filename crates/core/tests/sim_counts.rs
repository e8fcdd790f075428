//! Golden simulated counts for the lock-based GPMA (Algorithm 1): the cost
//! model's totals for one fixed build → update sequence, root doubling
//! included. `crates/analytics/tests/sim_counts.rs` pins GPMA+ and the
//! analytics; this file pins the store that GPMA+ is measured against in
//! Figure 7 and the `sorted`, `explicit` and `ablation` experiments.
//!
//! The batches insert 7 500 edges into a store built on 2 000 (plus a
//! guard per vertex), so some rounds exhaust the root and double the array
//! (`LockStats::grows > 0`): the grow's window compaction and redispatch
//! are in the totals. The totals move only with GPMA's kernels, the window
//! compaction, the lazy delete or the cost model; a deliberate change to
//! any of them re-records the numbers and says so.
//!
//! Re-recorded when the pending set's retry compaction started moving keys
//! and weights under one scan of the keep mask and one scatter launch
//! (two scans and two scatters before): deterministic `[942, 4_865_824,
//! 1_616_627, 52_161, 25_105]` → `[824, 4_269_230, 1_540_608, 52_161,
//! 25_105]`, benchmark device `[942, 4_865_864, 1_614_433, 52_161, 25_756]`
//! → `[824, 4_269_270, 1_538_474, 52_161, 25_756]`. The lock statistics,
//! atomics and conflicts did not move.
//!
//! Both devices run lanes inline (`host_parallelism: 1`), so lock
//! competition and CAS retries — the scheduling-dependent inputs — are
//! fixed. The graph comes from the vendored `rand` stub's `SmallRng`;
//! swapping in the real crate changes the stream and needs a re-record.

use gpma_core::{Gpma, LockStats};
use gpma_graph::datasets::pokec_like;
use gpma_graph::UpdateBatch;
use gpma_sim::{Device, DeviceConfig};

const NV: u32 = 1_000;
const INITIAL: usize = 2_000;
const BATCH: usize = 2_500;
const BATCHES: usize = 3;

/// Build on the first 2 000 edges of a stream, then three batches that
/// each insert the next 2 500 and delete 100 of the oldest. Returns the
/// summed lock statistics and the device's totals.
fn run(cfg: DeviceConfig) -> (LockStats, [u64; 5]) {
    let dev = Device::new(cfg);
    let edges = pokec_like(NV, INITIAL + BATCHES * BATCH, 11).edges;
    let mut g = Gpma::build(&dev, NV, &edges[..INITIAL]);
    let mut sum = LockStats::default();
    for i in 0..BATCHES {
        let batch = UpdateBatch {
            insertions: edges[INITIAL + i * BATCH..INITIAL + (i + 1) * BATCH].to_vec(),
            deletions: edges[i * 100..(i + 1) * 100].to_vec(),
        };
        let s = g.update_batch(&dev, &batch);
        sum.rounds += s.rounds;
        sum.aborts += s.aborts;
        sum.grows += s.grows;
        sum.lazy_deletes += s.lazy_deletes;
    }
    assert_eq!(
        g.storage.num_edges(),
        INITIAL + BATCHES * BATCH - BATCHES * 100
    );
    let m = dev.metrics();
    let totals = [
        m.launches,
        m.total_cycles,
        m.total_mem_transactions,
        m.total_atomic_ops,
        m.total_atomic_conflicts,
    ];
    (sum, totals)
}

fn assert_stats(stats: &LockStats) {
    assert!(
        stats.grows > 0,
        "the batches must double the root: {stats:?}"
    );
    assert_eq!(
        (stats.rounds, stats.aborts, stats.grows, stats.lazy_deletes),
        (41, 17_682, 1, 300)
    );
}

#[test]
fn lock_based_gpma_counts_are_pinned() {
    // Every warp traced.
    let (stats, totals) = run(DeviceConfig::deterministic());
    assert_stats(&stats);
    assert_eq!(totals, [824, 4_269_230, 1_540_608, 52_161, 25_105]);
}

#[test]
fn lock_based_gpma_benchmark_device_counts_are_pinned() {
    // What every benchmark device uses: inline lanes, every 16th warp traced.
    let (stats, totals) = run(DeviceConfig {
        host_parallelism: 1,
        ..Default::default()
    });
    assert_stats(&stats);
    assert_eq!(totals, [824, 4_269_270, 1_538_474, 52_161, 25_756]);
}
