//! The memoized result cache of whole-graph answers, kept exact by tailing
//! the delta stream.
//!
//! Entries are keyed `(tenant, query)` and all pinned to one epoch — the
//! cache's current snapshot. Only whole-graph queries are memoized
//! (`ResultCache::memoizes`): a point query (`Degree`, `EdgeExists`,
//! `Neighbors`) is answered by the published image itself in O(degree),
//! so keeping a copy of its answer would only add maintenance. On refresh
//! the cache pulls the backend's delta chain ([`DeltaLog::deltas_since`]
//! semantics via
//! [`ServingBackend::deltas_since`](crate::ServingBackend::deltas_since)),
//! folds the span it missed into one delta with [`SnapshotDelta::merge`],
//! and advances every entry to the new epoch in one step:
//!
//! | query kind        | maintenance                                        |
//! |-------------------|----------------------------------------------------|
//! | `Bfs` (maintained)| refilled from the [`IncrementalEngine`] maintainer |
//! | `Cc`              | refilled from the engine's CC maintainer           |
//! | `PageRank`        | invalidated by any delta                           |
//! | `Bfs` (other src) | invalidated by any delta                           |
//!
//! A hit at the current epoch is therefore *oracle-exact by construction*:
//! engine-refilled entries inherit the incremental maintainers' exactness
//! guarantee (PR 4), and anything weaker is invalidated and recomputed
//! fresh on the next miss. The root-level `integration_serving.rs`
//! proptest holds every served answer to [`execute`](crate::execute) on a
//! fresh snapshot.
//!
//! When the reader is outrun (ring eviction, a cluster reshard's
//! [`DeltaLog::reset_to`] marker) the catch-up arrives as a full snapshot:
//! the cache flushes every entry and rebases the engine — correct, just
//! cold.
//!
//! [`DeltaLog::deltas_since`]: gpma_core::delta::DeltaLog::deltas_since
//! [`DeltaLog::reset_to`]: gpma_core::delta::DeltaLog::reset_to

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use gpma_core::delta::{DeltaCatchUp, SnapshotDelta};
use gpma_core::framework::GraphSnapshot;
use gpma_incremental::IncrementalEngine;

use crate::query::{Query, QueryResult};

/// Cache maintenance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Refresh passes that advanced the cache epoch.
    pub refreshes: u64,
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

    /// Whether the cache memoizes `query`: the whole-graph kinds (`Bfs`,
    /// `Cc`, `PageRank`). Point queries are always executed on the image.
    pub(crate) fn memoizes(query: Query) -> bool {
        matches!(
            query,
            Query::Bfs { .. } | Query::Cc | Query::PageRank { .. }
        )
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
    /// have verified the epoch did not advance while it computed. A point
    /// query is ignored: the cache holds whole-graph answers only.
    pub fn insert(&mut self, tenant: u32, query: Query, result: QueryResult) {
        if Self::memoizes(query) {
            self.entries.insert((tenant, query), result);
        }
    }

    /// Advance the cache to `latest` using `catchup` (obtained from the
    /// backend *for this cache's epoch*). The missed span of the chain is
    /// folded into one delta and applied once; entries are refilled or
    /// invalidated per the module table. On a snapshot-fallback catch-up
    /// everything flushes.
    pub fn refresh(
        &mut self,
        latest: Arc<GraphSnapshot>,
        catchup: DeltaCatchUp<Arc<GraphSnapshot>>,
    ) {
        let (from, to) = (self.epoch(), latest.epoch());
        if to <= from {
            // A concurrent refresher already advanced us past `latest`.
            return;
        }
        self.stats.refreshes += 1;
        match catchup {
            DeltaCatchUp::Deltas(chain) => {
                // The ring head can lead the snapshot we read (a publish
                // between the two loads); entries must stop exactly at the
                // snapshot epoch or hits would disagree with misses.
                let mut span = chain.iter().filter(|d| d.epoch() > from && d.epoch() <= to);
                let merged = span.next().map(|first| {
                    let mut merged = Cow::Borrowed(&**first);
                    for d in span {
                        merged.to_mut().merge(d);
                    }
                    merged
                });
                match merged {
                    Some(delta) if delta.epoch() == to => self.advance(&delta, latest),
                    // The chain did not reach the snapshot (raced with a
                    // ring reset): rebase rather than serve a stale mix.
                    _ => self.flush_all(latest),
                }
            }
            DeltaCatchUp::Snapshot(s) => {
                let s = if s.epoch() >= latest.epoch() { s } else { latest };
                self.flush_all(s);
            }
        }
    }

    /// Apply the merged catch-up delta: the engine adopts `latest` (the
    /// image `delta` produces), every engine-backed entry (BFS at a
    /// maintained root, CC) is refilled from its maintainer, and the rest
    /// are dropped: they have no maintenance cheaper than recompute.
    fn advance(&mut self, delta: &SnapshotDelta, latest: Arc<GraphSnapshot>) {
        self.engine.apply_at(delta, latest);
        let engine = &self.engine;
        let before = self.entries.len();
        self.entries.retain(|&(_, q), r| {
            let refilled = match q {
                Query::Bfs { src } => engine
                    .bfs_from(src)
                    .map(|m| QueryResult::Distances(Arc::new(m.distances().to_vec()))),
                Query::Cc => engine.cc().map(|m| QueryResult::Components {
                    count: m.component_count(),
                    labels: Arc::new(m.labels()),
                }),
                _ => None,
            };
            match refilled {
                Some(fresh) => {
                    *r = fresh;
                    true
                }
                None => false,
            }
        });
        self.stats.invalidations += (before - self.entries.len()) as u64;
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

    fn whole_graph_entries(cache: &mut ResultCache, snap: &GraphSnapshot) -> [Query; 4] {
        let queries = [
            Query::Bfs { src: 0 },     // maintained root
            Query::Bfs { src: 3 },     // unmaintained root
            Query::Cc,
            Query::PageRank { top_k: 4 },
        ];
        for q in queries {
            cache.insert(7, q, execute(q, snap, PageRankParams::default()));
        }
        queries
    }

    /// Fill the cache with one entry per query kind, advance it by a delta
    /// chain, and hold every surviving or refilled entry to the oracle.
    #[test]
    fn refresh_keeps_every_entry_oracle_exact() {
        let pr = PageRankParams::default();
        let s0 = base();
        let mut cache = ResultCache::new(s0.clone(), vec![0]);
        let queries = whole_graph_entries(&mut cache, &s0);
        // Point queries are answered by the image, never memoized.
        for q in [
            Query::Degree { v: 1 },
            Query::EdgeExists { u: 0, v: 1 },
            Query::Neighbors { v: 1 },
        ] {
            assert!(!ResultCache::memoizes(q));
            cache.insert(7, q, execute(q, &s0, pr));
            assert!(cache.lookup(7, q).is_none(), "{q:?} was memoized");
        }
        assert_eq!(cache.len(), queries.len());

        let d1 = delta(1, &[(2, 3), (1, 5)], &[(0, 1)]);
        let d2 = delta(2, &[(6, 7)], &[(3, 4)]);
        let s1 = Arc::new(apply_delta(&s0, &d1));
        let s2 = Arc::new(apply_delta(&s1, &d2));
        cache.refresh(s2.clone(), DeltaCatchUp::Deltas(vec![d1, d2]));
        assert_eq!(cache.epoch(), 2);
        // The engine adopted the published image, not a copy equal to it.
        assert!(Arc::ptr_eq(cache.snapshot(), &s2));

        for q in queries {
            if let Some(hit) = cache.lookup(7, q) {
                assert_eq!(hit, &execute(q, &s2, pr), "stale hit for {q:?}");
            }
        }
        // The maintained kinds must actually survive.
        for q in [Query::Bfs { src: 0 }, Query::Cc] {
            assert!(cache.lookup(7, q).is_some(), "{q:?} should survive refresh");
        }
        // And the unmaintainable kinds must be gone.
        for q in [Query::Bfs { src: 3 }, Query::PageRank { top_k: 4 }] {
            assert!(cache.lookup(7, q).is_none(), "{q:?} should invalidate");
        }
        let st = cache.stats();
        assert_eq!((st.refreshes, st.invalidations, st.flushes), (1, 2, 0));
    }

    /// A multi-delta catch-up folds into one delta: the engine applies
    /// once, adopts the published image, and its maintained entries equal
    /// the oracle on it.
    #[test]
    fn catch_up_applies_one_merged_delta() {
        let pr = PageRankParams::default();
        let s0 = base();
        let mut cache = ResultCache::new(s0.clone(), vec![0]);
        whole_graph_entries(&mut cache, &s0);
        let before = cache.engine.stats().epochs;

        // (2, 6) appears in d1 and goes again in d3, so the merged delta
        // deletes a key the cache's image never held.
        let d1 = delta(1, &[(1, 5), (2, 6)], &[(0, 1)]);
        let d2 = delta(2, &[(0, 1), (5, 6)], &[(3, 4)]);
        let d3 = delta(3, &[(6, 7)], &[(2, 6), (1, 2)]);
        // The ring head may lead the snapshot the reader loaded.
        let d4 = delta(4, &[(7, 0)], &[]);
        let s1 = Arc::new(apply_delta(&s0, &d1));
        let s2 = Arc::new(apply_delta(&s1, &d2));
        let s3 = Arc::new(apply_delta(&s2, &d3));
        cache.refresh(s3.clone(), DeltaCatchUp::Deltas(vec![d1, d2, d3, d4]));

        assert_eq!(cache.epoch(), 3);
        assert_eq!(cache.engine.stats().epochs, before + 1, "one apply, not three");
        assert!(Arc::ptr_eq(cache.snapshot(), &s3));
        for q in [Query::Bfs { src: 0 }, Query::Cc] {
            assert_eq!(cache.lookup(7, q), Some(&execute(q, &s3, pr)), "{q:?}");
        }
        assert_eq!(cache.stats().flushes, 0);
    }

    #[test]
    fn chain_short_of_the_snapshot_rebases() {
        let s0 = base();
        let mut cache = ResultCache::new(s0.clone(), vec![0]);
        whole_graph_entries(&mut cache, &s0);
        let d1 = delta(1, &[(2, 3)], &[]);
        let d2 = delta(2, &[(6, 7)], &[]);
        let s1 = Arc::new(apply_delta(&s0, &d1));
        let s2 = Arc::new(apply_delta(&s1, &d2));
        cache.refresh(s2.clone(), DeltaCatchUp::Deltas(vec![d1]));
        assert!(cache.is_empty());
        assert_eq!(cache.stats().flushes, 1);
        assert!(Arc::ptr_eq(cache.snapshot(), &s2));
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
        cache.insert(0, Query::Cc, execute(Query::Cc, &s0, PageRankParams::default()));
        // A "latest" at or below the cache epoch must change nothing.
        cache.refresh(s0.clone(), DeltaCatchUp::Deltas(vec![]));
        assert_eq!(cache.epoch(), 0);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().refreshes, 0);
    }

    #[test]
    fn tenants_are_isolated_keys() {
        let s0 = base();
        let mut cache = ResultCache::new(s0.clone(), vec![]);
        cache.insert(0, Query::Cc, execute(Query::Cc, &s0, PageRankParams::default()));
        assert!(cache.lookup(0, Query::Cc).is_some());
        assert!(cache.lookup(1, Query::Cc).is_none());
    }

    #[test]
    fn out_of_range_bfs_roots_are_dropped() {
        let cache = ResultCache::new(base(), vec![0, 99]);
        assert_eq!(cache.maintained_roots(), &[0]);
    }
}
