// Seeded gpma-lint violations, one per rule class. This crate is excluded
// from the workspace and never compiled; it only exists to be scanned.
// NOTE: deliberately no missing_docs warn attribute here — that absence is
// the seeded `missing-docs-attr` violation (and the check is textual, so
// this comment must not spell the attribute out).

use std::sync::Mutex;

/// Holds two locks whose declared order (lint.toml) is alpha before beta.
pub struct Pair {
    /// Outermost lock in the declared hierarchy.
    pub alpha: Mutex<u64>,
    /// Innermost lock in the declared hierarchy.
    pub beta: Mutex<u64>,
}

impl Pair {
    /// Seeded `lock-order` violation: acquires beta, then alpha while beta
    /// is still held — the inverse of the declared hierarchy.
    pub fn inverted(&self) -> u64 {
        let beta = self.beta.lock();
        let alpha = self.alpha.lock();
        *beta.unwrap_or_else(|e| e.into_inner()) + *alpha.unwrap_or_else(|e| e.into_inner())
    }
}

/// Seeded `hot-path-alloc` violation: allocates inside an annotated hot path.
// lint: hot-path
pub fn hot_collects(xs: &[u64]) -> u64 {
    let doubled: Vec<u64> = xs.iter().map(|x| x * 2).collect();
    doubled.iter().sum()
}

/// Seeded telemetry-flavored `hot-path-alloc` violation: a histogram-style
/// record path that clones its sample buffer — exactly the allocation the
/// gpma-obs record path must never make.
// lint: hot-path
pub fn hot_record_sample(samples: &[u64], v: u64) -> Vec<u64> {
    let mut log = samples.to_vec();
    log.push(v);
    log
}

/// Seeded serving-flavored `hot-path-alloc` violation: a memoized
/// cache lookup that clones the stored result instead of borrowing it —
/// exactly the allocation the gpma-serving cache-lookup path must never
/// make.
// lint: hot-path
pub fn hot_cache_lookup(
    entries: &std::collections::HashMap<(u32, u64), Vec<u32>>,
    tenant: u32,
    query: u64,
) -> Option<Vec<u32>> {
    entries.get(&(tenant, query)).map(|hit| hit.clone())
}

/// Seeded routing-flavored `hot-path-alloc` violation: a per-destination
/// split loop that allocates a fresh scratch vector for every chunk
/// instead of reusing one — exactly the allocation the gpma-cluster
/// router's per-edge routing and mirroring (`route_insert` /
/// `route_delete`) must never make.
// lint: hot-path
pub fn hot_split_replay(deltas: &[Vec<u64>], shards: usize) -> u64 {
    let mut moved = 0u64;
    for chain in deltas {
        let mut scratch: Vec<Vec<u64>> = vec![Vec::new(); shards];
        for &k in chain {
            scratch[(k as usize) % shards].push(k);
        }
        moved += scratch.iter().map(|s| s.len() as u64).sum::<u64>();
    }
    moved
}

/// Seeded `worker-panic` violation: unwraps inside a spawned thread body.
pub fn spawn_and_unwrap(tx: std::sync::mpsc::Sender<u64>) {
    std::thread::spawn(move || {
        tx.send(42).unwrap();
    });
}

/// Seeded `thread-sleep` violation: sleeps in library code.
pub fn lazy_wait() {
    std::thread::sleep(std::time::Duration::from_millis(1));
}

/// Seeded `thread-sleep` violation, timed-poll flavor: waits for an answer
/// by waking every 200 µs instead of being woken when it arrives.
pub fn poll_for_ack(rx: &std::sync::mpsc::Receiver<u64>) -> u64 {
    loop {
        if let Ok(v) = rx.recv_timeout(std::time::Duration::from_micros(200)) {
            return v;
        }
    }
}

/// Stand-in for the simulator's per-lane context.
pub struct Lane;

/// Seeded `lane-inline` violation: an exported, non-generic per-lane
/// accessor without the inline attribute — a kernel compiled in another
/// crate would call it once per lane.
pub fn slot_key(lane: &mut Lane, keys: &[u64], slot: usize) -> u64 {
    let _ = lane;
    keys[slot]
}

/// Stand-in for the analytics crate's host graph contract.
pub trait Rows {
    /// Visit each out-neighbour of `v`.
    fn for_each_neighbor(&self, v: u32, f: &mut dyn FnMut(u32));
    /// Visit every edge.
    fn for_each_edge(&self, f: &mut dyn FnMut(u32, u32));
}

/// A row-indexed graph.
pub struct Rowed {
    /// Out-neighbours per vertex.
    pub rows: Vec<Vec<u32>>,
}

impl Rows for Rowed {
    /// Seeded `lane-inline` violation, visitor flavor: a generic traversal
    /// compiled in another crate calls this once per vertex and cannot
    /// devirtualise `f` through a body it cannot inline.
    fn for_each_neighbor(&self, v: u32, f: &mut dyn FnMut(u32)) {
        for &d in &self.rows[v as usize] {
            f(d);
        }
    }

    /// Not a violation: the inline attribute is there.
    #[inline]
    fn for_each_edge(&self, f: &mut dyn FnMut(u32, u32)) {
        for (u, row) in self.rows.iter().enumerate() {
            for &d in row {
                f(u as u32, d);
            }
        }
    }
}

// Seeded `missing-docs` violation: a public function with no doc comment.
pub fn undocumented() {}
