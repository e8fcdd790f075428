//! The memoized result cache, kept exact by tailing the delta stream.
//!
//! Entries are keyed `(tenant, query)` and all pinned to one epoch — the
//! cache's current snapshot. On refresh the cache pulls the backend's
//! delta chain ([`DeltaLog::deltas_since`] semantics via
//! [`ServingBackend::deltas_since`](crate::ServingBackend::deltas_since))
//! and advances every entry to the new epoch:
//!
//! | query kind        | maintenance                                        |
//! |-------------------|----------------------------------------------------|
//! | `Bfs` (maintained)| refilled from the [`IncrementalEngine`] maintainer |
//! | `Cc`              | refilled from the engine's CC maintainer           |
//! | `EdgeExists`      | patched per delta (insert wins over delete, the    |
//! |                   | [`apply_delta`](gpma_core::delta::apply_delta) rule)|
//! | `Neighbors`       | patched per delta (sorted set add/remove)          |
//! | `Degree`          | invalidated when a delta touches the vertex        |
//! | `PageRank`        | invalidated by any delta                           |
//! | `Bfs` (other src) | invalidated by any delta                           |
//!
//! A hit at the current epoch is therefore *oracle-exact by construction*:
//! patched entries replay exactly the transformation
//! [`apply_delta`](gpma_core::delta::apply_delta) performs on the snapshot
//! itself, engine-refilled entries inherit the incremental maintainers'
//! exactness guarantee (PR 4), and anything weaker is invalidated and
//! recomputed fresh on the next miss. The root-level
//! `integration_serving.rs` proptest holds every served answer to
//! [`execute`](crate::execute) on a fresh snapshot.
//!
//! When the reader is outrun (ring eviction, a cluster reshard's
//! [`DeltaLog::reset_to`] marker) the catch-up arrives as a full snapshot:
//! the cache flushes every entry and rebases the engine — correct, just
//! cold.
//!
//! [`DeltaLog::deltas_since`]: gpma_core::delta::DeltaLog::deltas_since
//! [`DeltaLog::reset_to`]: gpma_core::delta::DeltaLog::reset_to

use std::collections::HashMap;
use std::sync::Arc;

use gpma_core::delta::{DeltaCatchUp, SnapshotDelta};
use gpma_core::framework::GraphSnapshot;
use gpma_graph::decode_key;
use gpma_incremental::IncrementalEngine;

use crate::query::{Query, QueryResult};

/// Cache maintenance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Refresh passes that advanced the cache epoch.
    pub refreshes: u64,
    /// Entries carried across an epoch by patching / engine refill.
    pub patches: u64,
    /// Entries dropped because a delta (or fallback) stale-d them.
    pub invalidations: u64,
    /// Full flushes forced by a snapshot-fallback catch-up.
    pub flushes: u64,
}

/// The delta-maintained result cache. One per [`QueryServer`]; callers
/// serialize access behind the server's cache lock.
///
/// [`QueryServer`]: crate::QueryServer
pub struct ResultCache {
    entries: HashMap<(u32, Query), QueryResult>,
    engine: IncrementalEngine,
    bfs_roots: Vec<u32>,
    stats: CacheStats,
}

impl ResultCache {
    /// A cache pinned to `initial`, with incremental BFS maintainers at
    /// `bfs_roots` (roots outside the vertex range are dropped) and a CC
    /// maintainer, all rebased on `initial`.
    pub fn new(initial: Arc<GraphSnapshot>, bfs_roots: Vec<u32>) -> Self {
        let bfs_roots: Vec<u32> = bfs_roots
            .into_iter()
            .filter(|&r| r < initial.num_vertices())
            .collect();
        let mut engine = IncrementalEngine::new().with_cc();
        for &r in &bfs_roots {
            engine = engine.with_bfs(r);
        }
        engine.rebase_shared(initial);
        ResultCache {
            entries: HashMap::new(),
            engine,
            bfs_roots,
            stats: CacheStats::default(),
        }
    }

    /// Epoch every entry is pinned to.
    pub fn epoch(&self) -> u64 {
        self.engine.graph().epoch()
    }

    /// The snapshot backing that epoch (what misses compute against): the
    /// image the engine's maintainers read, which is the very `Arc` the
    /// backend published.
    pub fn snapshot(&self) -> &Arc<GraphSnapshot> {
        self.engine.graph().image()
    }

    /// Memoized entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maintenance counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// BFS roots the embedded engine maintains.
    pub fn maintained_roots(&self) -> &[u32] {
        &self.bfs_roots
    }

    /// Look up the memoized answer for `(tenant, query)` at the current
    /// epoch. Runs on every admitted query under the cache lock — no
    /// allocation allowed (the caller clones the `Arc`-backed result
    /// outside this frame).
    // lint: hot-path
    pub fn lookup(&self, tenant: u32, query: Query) -> Option<&QueryResult> {
        self.entries.get(&(tenant, query))
    }

    /// Memoize a miss computed at [`epoch`](Self::epoch). The caller must
    /// have verified the epoch did not advance while it computed.
    pub fn insert(&mut self, tenant: u32, query: Query, result: QueryResult) {
        self.entries.insert((tenant, query), result);
    }

    /// Advance the cache to `latest` using `catchup` (obtained from the
    /// backend *for this cache's epoch*). Entries are patched, refilled or
    /// invalidated per the module table; on a snapshot-fallback catch-up
    /// everything flushes.
    pub fn refresh(
        &mut self,
        latest: Arc<GraphSnapshot>,
        catchup: DeltaCatchUp<Arc<GraphSnapshot>>,
    ) {
        if latest.epoch() <= self.epoch() {
            // A concurrent refresher already advanced us past `latest`.
            return;
        }
        self.stats.refreshes += 1;
        match catchup {
            DeltaCatchUp::Deltas(chain) => {
                // The ring head can lead the snapshot we read (a publish
                // between the two loads); entries must stop exactly at the
                // snapshot epoch or hits would disagree with misses.
                for d in &chain {
                    if d.epoch() > self.epoch() && d.epoch() <= latest.epoch() {
                        self.apply_delta(d, &latest);
                    }
                }
                if self.epoch() == latest.epoch() {
                    self.refill_engine_entries();
                } else {
                    // The chain did not reach the snapshot (raced with a
                    // ring reset): rebase rather than serve a stale mix.
                    self.flush_all(latest);
                }
            }
            DeltaCatchUp::Snapshot(s) => {
                let s = if s.epoch() >= latest.epoch() { s } else { latest };
                self.flush_all(s);
            }
        }
    }

    /// Apply one epoch delta: advance the engine, patch patchable entries,
    /// drop the rest. The delta that reaches `latest` makes the engine adopt
    /// it; an earlier delta of a longer catch-up advances an image of the
    /// engine's own, which the next delta lets go of.
    fn apply_delta(&mut self, d: &SnapshotDelta, latest: &Arc<GraphSnapshot>) {
        if d.epoch() == latest.epoch() {
            self.engine.apply_at(d, latest.clone());
        } else {
            self.engine.apply(d);
        }
        let inserted = d.inserted();
        let deleted = d.deleted_keys();
        let roots = &self.bfs_roots;
        let mut patches = 0u64;
        let mut invalidations = 0u64;
        self.entries.retain(|&(_, q), r| {
            let keep = match q {
                // Engine-maintained: kept, refilled after the chain lands.
                Query::Bfs { src } => roots.contains(&src),
                Query::Cc => true,
                // No incremental maintenance cheaper than recompute.
                Query::PageRank { .. } => false,
                // An inserted edge may be a weight-only upsert, so the
                // degree cannot be patched from the delta alone; drop the
                // entry whenever the vertex is touched.
                Query::Degree { v } => {
                    !inserted.iter().any(|e| e.src == v)
                        && !deleted.iter().any(|&k| decode_key(k).0 == v)
                }
                Query::EdgeExists { u, v } => {
                    if let QueryResult::Exists(b) = r {
                        let key = gpma_graph::Edge::new(u, v).key();
                        // Insert wins over delete within one delta — the
                        // `apply_delta` merge rule.
                        if inserted.binary_search_by_key(&key, |e| e.key()).is_ok() {
                            *b = true;
                            patches += 1;
                        } else if deleted.binary_search(&key).is_ok() {
                            *b = false;
                            patches += 1;
                        }
                    }
                    true
                }
                Query::Neighbors { v } => {
                    if let QueryResult::Neighbors(list) = r {
                        let mut changed = false;
                        for &k in deleted {
                            let (s, dst) = decode_key(k);
                            if s == v {
                                let vec = Arc::make_mut(list);
                                if let Ok(i) = vec.binary_search(&dst) {
                                    vec.remove(i);
                                    changed = true;
                                }
                            }
                        }
                        for e in inserted {
                            if e.src == v {
                                let vec = Arc::make_mut(list);
                                if let Err(i) = vec.binary_search(&e.dst) {
                                    vec.insert(i, e.dst);
                                    changed = true;
                                }
                            }
                        }
                        if changed {
                            patches += 1;
                        }
                    }
                    true
                }
            };
            if !keep {
                invalidations += 1;
            }
            keep
        });
        self.stats.patches += patches;
        self.stats.invalidations += invalidations;
    }

    /// Re-fill every surviving engine-backed entry (BFS at maintained
    /// roots, CC) from the maintainers, which are now at the cache epoch.
    fn refill_engine_entries(&mut self) {
        let keys: Vec<(u32, Query)> = self
            .entries
            .keys()
            .filter(|(_, q)| matches!(q, Query::Bfs { .. } | Query::Cc))
            .copied()
            .collect();
        for key in keys {
            let refilled = match key.1 {
                Query::Bfs { src } => self
                    .engine
                    .bfs_from(src)
                    .map(|m| QueryResult::Distances(Arc::new(m.distances().to_vec()))),
                Query::Cc => self.engine.cc().map(|m| QueryResult::Components {
                    count: m.component_count(),
                    labels: Arc::new(m.labels()),
                }),
                _ => None,
            };
            match refilled {
                Some(r) => {
                    self.entries.insert(key, r);
                    self.stats.patches += 1;
                }
                None => {
                    // Defensive: an entry whose maintainer vanished.
                    self.entries.remove(&key);
                    self.stats.invalidations += 1;
                }
            }
        }
    }

    /// Drop every entry and rebase the engine on `s` (the
    /// snapshot-fallback path: ring outrun or reshard marker).
    fn flush_all(&mut self, s: Arc<GraphSnapshot>) {
        self.stats.flushes += 1;
        self.stats.invalidations += self.entries.len() as u64;
        self.entries.clear();
        self.engine.rebase_shared(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{execute, PageRankParams};
    use gpma_core::delta::apply_delta;
    use gpma_graph::{Edge, UpdateBatch};

    fn base() -> Arc<GraphSnapshot> {
        Arc::new(GraphSnapshot::from_edges(
            0,
            8,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(3, 4)],
        ))
    }

    fn delta(epoch: u64, ins: &[(u32, u32)], del: &[(u32, u32)]) -> Arc<SnapshotDelta> {
        Arc::new(SnapshotDelta::from_batch(
            epoch,
            &UpdateBatch {
                insertions: ins.iter().map(|&(s, d)| Edge::new(s, d)).collect(),
                deletions: del.iter().map(|&(s, d)| Edge::new(s, d)).collect(),
            },
        ))
    }

    /// Fill the cache with one entry per query kind, advance it by a delta
    /// chain, and hold every surviving or refilled entry to the oracle.
    #[test]
    fn refresh_keeps_every_entry_oracle_exact() {
        let pr = PageRankParams::default();
        let s0 = base();
        let mut cache = ResultCache::new(s0.clone(), vec![0]);
        let queries = [
            Query::Bfs { src: 0 },     // maintained root
            Query::Bfs { src: 3 },     // unmaintained root
            Query::Cc,
            Query::PageRank { top_k: 4 },
            Query::Degree { v: 1 },
            Query::Degree { v: 5 },
            Query::EdgeExists { u: 0, v: 1 },
            Query::EdgeExists { u: 2, v: 3 },
            Query::Neighbors { v: 1 },
            Query::Neighbors { v: 6 },
        ];
        for q in queries {
            let r = execute(q, &s0, pr);
            cache.insert(7, q, r);
        }
        assert_eq!(cache.len(), queries.len());

        let d1 = delta(1, &[(2, 3), (1, 5)], &[(0, 1)]);
        let d2 = delta(2, &[(6, 7)], &[(3, 4)]);
        let s1 = Arc::new(apply_delta(&s0, &d1));
        let s2 = Arc::new(apply_delta(&s1, &d2));
        cache.refresh(s2.clone(), DeltaCatchUp::Deltas(vec![d1, d2]));
        assert_eq!(cache.epoch(), 2);
        // Epoch 1 advanced an image of the engine's own; epoch 2 adopted
        // the published one, not a copy equal to it.
        assert!(Arc::ptr_eq(cache.snapshot(), &s2));

        for q in queries {
            if let Some(hit) = cache.lookup(7, q) {
                assert_eq!(hit, &execute(q, &s2, pr), "stale hit for {q:?}");
            }
        }
        // The patched/maintained kinds must actually survive.
        for q in [
            Query::Bfs { src: 0 },
            Query::Cc,
            Query::EdgeExists { u: 0, v: 1 },
            Query::Neighbors { v: 1 },
        ] {
            assert!(cache.lookup(7, q).is_some(), "{q:?} should survive refresh");
        }
        // And the unmaintainable kinds must be gone.
        for q in [
            Query::Bfs { src: 3 },
            Query::PageRank { top_k: 4 },
            Query::Degree { v: 1 }, // touched by (1,5) insert
            Query::Degree { v: 3 }, // touched by (3,4) delete
        ] {
            assert!(cache.lookup(7, q).is_none(), "{q:?} should invalidate");
        }
        // A degree no delta's source touches survives unchanged.
        assert_eq!(
            cache.lookup(7, Query::Degree { v: 5 }),
            Some(&execute(Query::Degree { v: 5 }, &s2, pr))
        );
        let st = cache.stats();
        assert!(st.patches > 0 && st.invalidations > 0 && st.refreshes == 1);
    }

    #[test]
    fn snapshot_fallback_flushes_everything() {
        let s0 = base();
        let mut cache = ResultCache::new(s0.clone(), vec![]);
        cache.insert(0, Query::Cc, execute(Query::Cc, &s0, PageRankParams::default()));
        let s9 = Arc::new(GraphSnapshot::from_edges(9, 8, vec![Edge::new(5, 6)]));
        cache.refresh(s9.clone(), DeltaCatchUp::Snapshot(s9.clone()));
        assert_eq!(cache.epoch(), 9);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().flushes, 1);
        assert_eq!(cache.snapshot().num_edges(), 1);
        assert!(Arc::ptr_eq(cache.snapshot(), &s9));
    }

    #[test]
    fn stale_refresh_is_a_no_op() {
        let s0 = base();
        let mut cache = ResultCache::new(s0.clone(), vec![]);
        cache.insert(0, Query::Degree { v: 0 }, QueryResult::Degree(1));
        // A "latest" at or below the cache epoch must change nothing.
        cache.refresh(s0.clone(), DeltaCatchUp::Deltas(vec![]));
        assert_eq!(cache.epoch(), 0);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().refreshes, 0);
    }

    #[test]
    fn tenants_are_isolated_keys() {
        let s0 = base();
        let mut cache = ResultCache::new(s0, vec![]);
        cache.insert(0, Query::Degree { v: 0 }, QueryResult::Degree(1));
        assert!(cache.lookup(0, Query::Degree { v: 0 }).is_some());
        assert!(cache.lookup(1, Query::Degree { v: 0 }).is_none());
    }

    #[test]
    fn out_of_range_bfs_roots_are_dropped() {
        let cache = ResultCache::new(base(), vec![0, 99]);
        assert_eq!(cache.maintained_roots(), &[0]);
    }
}
