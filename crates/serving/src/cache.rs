//! The memoized result cache of whole-graph answers, kept exact by tailing
//! the delta stream.
//!
//! Entries are keyed `(tenant, query)`. Only whole-graph queries are
//! memoized (`ResultCache::memoizes`): a point query (`Degree`,
//! `EdgeExists`, `Neighbors`) is answered by the published image itself in
//! O(degree), so keeping a copy of its answer would only add maintenance.
//! On refresh the cache pulls the backend's delta chain
//! ([`DeltaLog::deltas_since`] semantics via
//! [`ServingBackend::deltas_since`](crate::ServingBackend::deltas_since))
//! and hands it to its [`IncrementalEngine`]'s
//! [`catch_up`](IncrementalEngine::catch_up), which composes the span it
//! missed into one net delta and applies it once; the cache then maintains
//! each entry by kind:
//!
//! | query kind | maintenance                                             |
//! |------------|---------------------------------------------------------|
//! | `Bfs`      | repaired on lookup from the logged net change           |
//! | `Cc`       | refilled at refresh from the engine's CC maintainer     |
//! | `PageRank` | invalidated by any delta                                |
//!
//! A BFS entry turns *stale* at a refresh: it keeps the epoch it is exact
//! at, and the refresh logs the [`NetDelta`] the engine applied — the
//! publisher's own `Arc` for a one-epoch refresh. The refresh repairs
//! nothing. The next lookup of the entry composes the logged deltas since
//! its epoch into one ([`NetDelta::then`]), repairs the distances in place
//! with an [`IncrementalBfs`] seeded from them, and serves the result as a
//! hit.
//! One fixed rule evicts: at a refresh that follows a BFS lookup, every
//! BFS entry not looked up since the refresh before is dropped, unless its
//! root is one the server was configured with. The log keeps only what the
//! remaining stale entries need.
//!
//! A hit is therefore *oracle-exact by construction*: a refilled CC entry
//! inherits the incremental maintainer's exactness guarantee, a BFS entry
//! the repair's, and a PageRank entry is recomputed fresh on the next miss.
//! The root-level `integration_serving.rs` proptest holds every served
//! answer to [`execute`](crate::execute) on a fresh snapshot.
//!
//! When the reader is outrun (ring eviction, a cluster reshard's
//! [`DeltaLog::reset_to`] marker) the catch-up arrives as a full snapshot:
//! the cache flushes every entry and the log and rebases the engine —
//! correct, just cold.
//!
//! [`DeltaLog::deltas_since`]: gpma_core::delta::DeltaLog::deltas_since
//! [`DeltaLog::reset_to`]: gpma_core::delta::DeltaLog::reset_to

use std::collections::HashMap;
use std::sync::Arc;

use gpma_core::delta::{DeltaCatchUp, NetDelta};
use gpma_core::framework::GraphSnapshot;
use gpma_incremental::{CatchUp, DeltaGraph, IncrementalBfs, IncrementalEngine};

use crate::query::{Query, QueryResult};

/// Cache maintenance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Refresh passes that advanced the cache epoch.
    pub refreshes: u64,
    /// Entries dropped: PageRank answers a delta stale-d, BFS answers
    /// evicted unasked, and everything a flush cleared.
    pub invalidations: u64,
    /// Stale BFS entries repaired on lookup.
    pub repairs: u64,
    /// Full flushes forced by a snapshot-fallback catch-up.
    pub flushes: u64,
}

/// A memoized answer.
struct Entry {
    result: QueryResult,
    /// The epoch `result` is exact at: the cache's own, or an older one for
    /// a stale BFS answer.
    epoch: u64,
    /// Looked up or inserted since the last refresh.
    asked: bool,
}

/// The delta-maintained result cache. One per [`QueryServer`]; callers
/// serialize access behind the server's cache lock.
///
/// [`QueryServer`]: crate::QueryServer
pub struct ResultCache {
    entries: HashMap<(u32, Query), Entry>,
    engine: IncrementalEngine,
    bfs_roots: Vec<u32>,
    /// The net delta of each refresh since the oldest stale entry's epoch,
    /// oldest first: each ends at its epoch and starts where the one
    /// before it ends.
    log: Vec<Arc<NetDelta>>,
    /// The log composed from an epoch to the cache's, kept for the next
    /// stale entry of that epoch.
    net: Option<(u64, NetDelta)>,
    /// A BFS query was looked up since the last refresh.
    bfs_asked: bool,
    stats: CacheStats,
}

impl ResultCache {
    /// A cache pinned to `initial`, whose BFS answers at `bfs_roots` are
    /// never evicted (roots outside the vertex range are dropped). Its
    /// engine maintains CC, rebased on `initial`.
    pub fn new(initial: Arc<GraphSnapshot>, bfs_roots: Vec<u32>) -> Self {
        let bfs_roots: Vec<u32> = bfs_roots
            .into_iter()
            .filter(|&r| r < initial.num_vertices())
            .collect();
        let mut engine = IncrementalEngine::new().with_cc();
        engine.rebase_shared(initial);
        ResultCache {
            entries: HashMap::new(),
            engine,
            bfs_roots,
            log: Vec::new(),
            net: None,
            bfs_asked: false,
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

    /// The epoch the cache is current with: every hit is exact at it.
    pub fn epoch(&self) -> u64 {
        self.engine.graph().epoch()
    }

    /// The snapshot backing that epoch (what misses compute against): the
    /// image the engine's maintainers read, which is the very `Arc` the
    /// backend published.
    pub fn snapshot(&self) -> &Arc<GraphSnapshot> {
        self.engine.graph().image()
    }

    /// Memoized entries currently held, stale ones included.
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

    /// BFS roots whose answers are never evicted.
    pub fn maintained_roots(&self) -> &[u32] {
        &self.bfs_roots
    }

    /// Look up the memoized answer for `(tenant, query)` at the current
    /// epoch. Runs on every admitted query under the cache lock; a hit
    /// allocates nothing (the caller clones the `Arc`-backed result outside
    /// this frame). A stale BFS entry is first repaired from the logged
    /// net change (see the module docs), and served as a hit.
    // lint: hot-path
    pub fn lookup(&mut self, tenant: u32, query: Query) -> Option<&QueryResult> {
        let epoch = self.epoch();
        self.bfs_asked |= matches!(query, Query::Bfs { .. });
        let entry = self.entries.get_mut(&(tenant, query))?;
        entry.asked = true;
        if entry.epoch != epoch {
            Self::repair(entry, query, &self.log, &mut self.net, self.engine.graph());
            self.stats.repairs += 1;
        }
        Some(&entry.result)
    }

    /// Bring a stale BFS entry to `g`'s epoch: compose the logged changes
    /// since its epoch (kept in `net` for the next entry of that epoch)
    /// and repair its distances in place — in the very vector unless a
    /// served answer still holds it.
    fn repair(
        entry: &mut Entry,
        query: Query,
        log: &[Arc<NetDelta>],
        net: &mut Option<(u64, NetDelta)>,
        g: &DeltaGraph,
    ) {
        let (Query::Bfs { src }, QueryResult::Distances(dist)) = (query, &mut entry.result) else {
            unreachable!("only BFS entries go stale");
        };
        let since = &log[log.partition_point(|d| d.epoch() <= entry.epoch)..];
        let change = match since {
            [one] => &**one,
            [first, rest @ ..] => {
                if !matches!(net, Some((from, _)) if *from == entry.epoch) {
                    let composed = rest.iter().fold((**first).clone(), |acc, d| acc.then(d));
                    *net = Some((entry.epoch, composed));
                }
                &net.as_ref().expect("composed above").1
            }
            [] => unreachable!("a stale entry's changes are logged"),
        };
        debug_assert_eq!(change.epoch(), g.epoch(), "the log reaches the cache epoch");
        let dist = Arc::make_mut(dist);
        let mut bfs = IncrementalBfs::seeded(src, std::mem::take(dist));
        bfs.apply(g, change);
        *dist = bfs.into_distances();
        entry.epoch = g.epoch();
    }

    /// Memoize a miss computed at [`epoch`](Self::epoch). The caller must
    /// have verified the epoch did not advance while it computed. A point
    /// query is ignored: the cache holds whole-graph answers only.
    pub fn insert(&mut self, tenant: u32, query: Query, result: QueryResult) {
        if Self::memoizes(query) {
            let epoch = self.epoch();
            self.entries.insert(
                (tenant, query),
                Entry {
                    result,
                    epoch,
                    asked: true,
                },
            );
        }
    }

    /// Advance the cache to `latest` using `catchup` (obtained from the
    /// backend *for this cache's epoch*) through the engine's
    /// [`catch_up`](IncrementalEngine::catch_up); entries are refilled,
    /// staled or invalidated per the module table. When the engine rebased
    /// instead, everything flushes. A `latest` the cache is already past (a
    /// concurrent refresher won) changes nothing.
    pub fn refresh(
        &mut self,
        latest: Arc<GraphSnapshot>,
        catchup: DeltaCatchUp<Arc<GraphSnapshot>>,
    ) {
        match self.engine.catch_up(latest, catchup) {
            CatchUp::Current => return,
            CatchUp::Applied(applied) => self.advance(applied),
            CatchUp::Rebased => self.flush_all(),
        }
        self.stats.refreshes += 1;
    }

    /// Maintain the entries after the engine applied `applied`: a CC entry
    /// is refilled from its maintainer, a BFS entry goes stale or is
    /// evicted, and a PageRank entry is dropped: it has no maintenance
    /// cheaper than recompute. The changes join the log when a stale entry
    /// needs them.
    fn advance(&mut self, applied: Arc<NetDelta>) {
        let (engine, roots) = (&self.engine, &self.bfs_roots);
        let evict = std::mem::take(&mut self.bfs_asked);
        let mut oldest: Option<u64> = None;
        let before = self.entries.len();
        self.entries.retain(|&(_, q), entry| {
            let asked = std::mem::take(&mut entry.asked);
            match q {
                Query::Bfs { src } => {
                    let kept = asked || !evict || roots.contains(&src);
                    if kept {
                        oldest = Some(oldest.map_or(entry.epoch, |e| e.min(entry.epoch)));
                    }
                    kept
                }
                Query::Cc => match engine.cc() {
                    Some(m) => {
                        entry.result = QueryResult::Components {
                            count: m.component_count(),
                            labels: Arc::new(m.labels()),
                        };
                        entry.epoch = applied.epoch();
                        true
                    }
                    None => false,
                },
                _ => false,
            }
        });
        self.stats.invalidations += (before - self.entries.len()) as u64;
        self.net = None;
        match oldest {
            Some(epoch) => {
                self.log.retain(|d| d.epoch() > epoch);
                self.log.push(applied);
                self.compact_log();
            }
            None => self.log.clear(),
        }
    }

    /// Once the log holds more records than the graph has edges, fold each
    /// run of it that no entry's epoch splits into one net change. A run's
    /// net change is bounded by the graph, so the log stays bounded however
    /// long stale entries go unasked.
    fn compact_log(&mut self) {
        if self.log.iter().map(|d| d.blind().len()).sum::<usize>() <= self.snapshot().num_edges() {
            return;
        }
        let needed: Vec<u64> = self.entries.values().map(|e| e.epoch).collect();
        let mut folded: Vec<Arc<NetDelta>> = Vec::with_capacity(self.log.len());
        for d in self.log.drain(..) {
            match folded.last_mut() {
                Some(prev) if !needed.contains(&prev.epoch()) => *prev = Arc::new(prev.then(&d)),
                _ => folded.push(d),
            }
        }
        self.log = folded;
    }

    /// Drop every entry and the log after the engine rebased (the
    /// snapshot-fallback path: ring outrun or reshard marker).
    fn flush_all(&mut self) {
        self.stats.flushes += 1;
        self.stats.invalidations += self.entries.len() as u64;
        self.entries.clear();
        self.log.clear();
        self.net = None;
        self.bfs_asked = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{execute, PageRankParams};
    use gpma_analytics::UNREACHED;
    use gpma_core::delta::{apply_delta, SnapshotDelta};
    use gpma_graph::{Edge, UpdateBatch};

    fn base() -> Arc<GraphSnapshot> {
        Arc::new(GraphSnapshot::from_edges(
            0,
            8,
            vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(3, 4)],
        ))
    }

    /// The delta of `(ins, del)` over `prev`, classified as its publisher
    /// would, and the image it leads to.
    fn delta(
        prev: &GraphSnapshot,
        ins: &[(u32, u32)],
        del: &[(u32, u32)],
    ) -> (Arc<NetDelta>, Arc<GraphSnapshot>) {
        let blind = SnapshotDelta::from_batch(
            prev.epoch() + 1,
            &UpdateBatch {
                insertions: ins.iter().map(|&(s, d)| Edge::new(s, d)).collect(),
                deletions: del.iter().map(|&(s, d)| Edge::new(s, d)).collect(),
            },
        );
        let net = blind.classify(prev);
        let next = Arc::new(apply_delta(prev, net.blind()));
        (Arc::new(net), next)
    }

    /// Refresh `cache` by one delta over `prev`; returns the new snapshot.
    fn step(
        cache: &mut ResultCache,
        prev: &GraphSnapshot,
        ins: &[(u32, u32)],
        del: &[(u32, u32)],
    ) -> Arc<GraphSnapshot> {
        let (d, next) = delta(prev, ins, del);
        cache.refresh(next.clone(), DeltaCatchUp::Deltas(vec![d]));
        next
    }

    fn whole_graph_entries(cache: &mut ResultCache, snap: &GraphSnapshot) -> [Query; 4] {
        let queries = [
            Query::Bfs { src: 0 }, // configured root
            Query::Bfs { src: 3 }, // any other root
            Query::Cc,
            Query::PageRank { top_k: 4 },
        ];
        for q in queries {
            cache.insert(7, q, execute(q, snap, PageRankParams::default()));
        }
        queries
    }

    /// Fill the cache with one entry per query kind, advance it by a delta
    /// chain, and hold every surviving entry to the oracle.
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

        let (d1, s1) = delta(&s0, &[(2, 3), (1, 5)], &[(0, 1)]);
        let (d2, s2) = delta(&s1, &[(6, 7)], &[(3, 4)]);
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
        for q in [Query::Bfs { src: 0 }, Query::Bfs { src: 3 }, Query::Cc] {
            assert!(cache.lookup(7, q).is_some(), "{q:?} should survive refresh");
        }
        // And the unmaintainable kind must be gone.
        assert!(cache.lookup(7, Query::PageRank { top_k: 4 }).is_none());
        let st = cache.stats();
        assert_eq!(
            (st.refreshes, st.invalidations, st.repairs, st.flushes),
            (1, 1, 2, 0)
        );
    }

    /// A multi-delta catch-up folds into one delta: the engine applies
    /// once, adopts the published image, and the entries equal the oracle
    /// on it.
    #[test]
    fn catch_up_applies_one_merged_delta() {
        let pr = PageRankParams::default();
        let s0 = base();
        let mut cache = ResultCache::new(s0.clone(), vec![0]);
        whole_graph_entries(&mut cache, &s0);
        let before = cache.engine.stats().epochs;

        // (2, 6) appears in d1 and goes again in d3, and (0, 1) goes in d1
        // and comes back in d2: the composed delta has neither.
        let (d1, s1) = delta(&s0, &[(1, 5), (2, 6)], &[(0, 1)]);
        let (d2, s2) = delta(&s1, &[(0, 1), (5, 6)], &[(3, 4)]);
        let (d3, s3) = delta(&s2, &[(6, 7)], &[(2, 6), (1, 2)]);
        // The ring head may lead the snapshot the reader loaded.
        let (d4, _) = delta(&s3, &[(7, 0)], &[]);
        cache.refresh(s3.clone(), DeltaCatchUp::Deltas(vec![d1, d2, d3, d4]));

        assert_eq!(cache.epoch(), 3);
        assert_eq!(cache.engine.stats().epochs, before + 1, "one apply, not three");
        assert!(Arc::ptr_eq(cache.snapshot(), &s3));
        for q in [Query::Bfs { src: 0 }, Query::Cc] {
            assert_eq!(cache.lookup(7, q), Some(&execute(q, &s3, pr)), "{q:?}");
        }
        assert_eq!(cache.stats().flushes, 0);
    }

    /// A root asked at every epoch of a sliding window is repaired on each
    /// lookup, in its own vector, and never recomputed.
    #[test]
    fn an_asked_root_is_repaired_every_epoch_and_never_recomputed() {
        let pr = PageRankParams::default();
        let edges = gpma_graph::datasets::pokec_like(300, 4_000, 3).edges;
        let window = edges.len() / 2;
        let mut snap = Arc::new(GraphSnapshot::from_edges(0, 300, edges[..window].to_vec()));
        let mut cache = ResultCache::new(snap.clone(), Vec::new());
        let q = Query::Bfs { src: 0 };
        assert!(cache.lookup(0, q).is_none());
        cache.insert(0, q, execute(q, &snap, pr));
        let run = |from: usize| -> Vec<(u32, u32)> {
            (from..from + 40)
                .map(|i| edges[i % edges.len()])
                .map(|e| (e.src, e.dst))
                .collect()
        };
        for epoch in 1..=30u64 {
            let slid = (epoch as usize - 1) * 40;
            let held = match cache.lookup(0, q) {
                Some(QueryResult::Distances(d)) => Arc::as_ptr(d),
                other => panic!("{other:?}"),
            };
            snap = step(&mut cache, &snap, &run(window + slid), &run(slid));
            let hit = cache
                .lookup(0, q)
                .expect("asked every epoch, never evicted");
            assert_eq!(hit, &execute(q, &snap, pr), "epoch {epoch}");
            let QueryResult::Distances(d) = hit else {
                unreachable!()
            };
            assert_eq!(Arc::as_ptr(d), held, "repaired in place");
        }
        let st = cache.stats();
        assert_eq!((st.repairs, st.invalidations), (30, 0));
    }

    /// A served answer still holding the distances keeps its epoch's values:
    /// the repair writes a copy.
    #[test]
    fn a_held_answer_is_not_repaired_under_its_holder() {
        let pr = PageRankParams::default();
        let s0 = base();
        let mut cache = ResultCache::new(s0.clone(), Vec::new());
        let q = Query::Bfs { src: 0 };
        cache.insert(0, q, execute(q, &s0, pr));
        let served = cache.lookup(0, q).cloned().expect("memoized");
        let s1 = step(&mut cache, &s0, &[(2, 3)], &[]);
        assert_eq!(cache.lookup(0, q), Some(&execute(q, &s1, pr)));
        assert_eq!(served, execute(q, &s0, pr), "the held answer moved");
    }

    /// Once BFS queries are being asked, a root nobody asked between two
    /// refreshes is dropped; a configured root is not.
    #[test]
    fn an_unasked_root_is_dropped_after_one_bfs_active_epoch() {
        let pr = PageRankParams::default();
        let s0 = base();
        let mut cache = ResultCache::new(s0.clone(), vec![5]);
        let (asked, unasked, pinned) = (
            Query::Bfs { src: 0 },
            Query::Bfs { src: 3 },
            Query::Bfs { src: 5 },
        );
        for q in [asked, unasked, pinned] {
            cache.insert(0, q, execute(q, &s0, pr));
        }
        // No BFS lookup since the last refresh: nothing is evicted.
        let s1 = step(&mut cache, &s0, &[(2, 3)], &[]);
        let s2 = step(&mut cache, &s1, &[(3, 5)], &[]);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.log.len(), 2, "both deltas wait for the stale entries");
        assert_eq!(cache.lookup(0, asked), Some(&execute(asked, &s2, pr)));
        // A BFS was asked: the next refresh drops the unasked root only.
        let s3 = step(&mut cache, &s2, &[(5, 6)], &[(0, 1)]);
        assert!(cache.lookup(0, unasked).is_none(), "unasked root kept");
        assert_eq!(cache.stats().invalidations, 1);
        for q in [asked, pinned] {
            assert_eq!(cache.lookup(0, q), Some(&execute(q, &s3, pr)), "{q:?}");
        }
    }

    #[test]
    fn an_out_of_range_root_stays_unreached() {
        let pr = PageRankParams::default();
        let s0 = base();
        let mut cache = ResultCache::new(s0.clone(), Vec::new());
        let q = Query::Bfs { src: 99 };
        cache.insert(0, q, execute(q, &s0, pr));
        let s1 = step(&mut cache, &s0, &[(2, 3), (5, 6)], &[(0, 1)]);
        let s2 = step(&mut cache, &s1, &[(0, 1)], &[(3, 4)]);
        let hit = cache.lookup(0, q).cloned();
        assert_eq!(
            hit,
            Some(QueryResult::Distances(Arc::new(vec![UNREACHED; 8])))
        );
        assert_eq!(hit, Some(execute(q, &s2, pr)));
    }

    /// A configured root nobody asks keeps its entry, but the log it needs
    /// folds once it outgrows the graph, and the repair stays exact.
    #[test]
    fn an_unasked_entry_bounds_the_log() {
        let pr = PageRankParams::default();
        let mut snap = base();
        let mut cache = ResultCache::new(snap.clone(), vec![0]);
        let q = Query::Bfs { src: 0 };
        cache.insert(0, q, execute(q, &snap, pr));
        for i in 0..40u32 {
            let e = (i % 7, (i * 3 + 1) % 8);
            let (ins, del) = if snap.contains(e.0, e.1) {
                (vec![], vec![e])
            } else {
                (vec![e], vec![])
            };
            snap = step(&mut cache, &snap, &ins, &del);
            // Folded, the log is at most the difference of two graphs.
            let records: usize = cache.log.iter().map(|d| d.blind().len()).sum();
            let bound = base().num_edges() + snap.num_edges();
            assert!(
                records <= bound,
                "log of {records} records at epoch {}",
                i + 1
            );
        }
        assert!(cache.log.len() < 40, "the log never folded");
        assert_eq!(cache.lookup(0, q), Some(&execute(q, &snap, pr)));
    }

    #[test]
    fn chain_short_of_the_snapshot_rebases() {
        let s0 = base();
        let mut cache = ResultCache::new(s0.clone(), vec![0]);
        whole_graph_entries(&mut cache, &s0);
        let (d1, s1) = delta(&s0, &[(2, 3)], &[]);
        let (_, s2) = delta(&s1, &[(6, 7)], &[]);
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
        let q = Query::Bfs { src: 0 };
        cache.insert(0, q, execute(q, &s0, PageRankParams::default()));
        let s1 = step(&mut cache, &s0, &[(2, 3)], &[]);
        assert_eq!(cache.log.len(), 1, "the stale BFS entry's change is logged");
        let s9 = Arc::new(GraphSnapshot::from_edges(9, 8, vec![Edge::new(5, 6)]));
        cache.refresh(s9.clone(), DeltaCatchUp::Snapshot(s9.clone()));
        assert_eq!(cache.epoch(), 9);
        assert!(cache.is_empty());
        assert!(cache.log.is_empty(), "a flush empties the log");
        assert_eq!(cache.stats().flushes, 1);
        assert_eq!(cache.stats().invalidations, 2);
        assert_eq!(cache.snapshot().num_edges(), 1);
        assert!(Arc::ptr_eq(cache.snapshot(), &s9));
        assert!(s1.epoch() < 9);
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
