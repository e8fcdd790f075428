//! The typed query vocabulary and its oracle: every query kind, its result
//! shape, and [`execute`] — the fresh-from-snapshot computation that both
//! serves cache misses and *defines* correctness for cache hits (the
//! exactness proptest holds every cache-served answer to this function's
//! output on the same epoch).

use std::sync::Arc;

use gpma_analytics::{bfs_host, cc_host, component_count, pagerank_host, UNREACHED};
use gpma_core::framework::GraphSnapshot;

/// One typed query against the latest published snapshot.
///
/// `Copy + Eq + Hash` by design: a query is part of the result-cache key
/// `(tenant, query, epoch)`, and the admission/lookup hot paths must stay
/// allocation-free (`gpma-lint`'s `hot-path-alloc` rule covers them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Query {
    /// BFS hop distances from `src` to every vertex.
    Bfs {
        /// Traversal root.
        src: u32,
    },
    /// Connected-component labels (undirected semantics) plus the count.
    Cc,
    /// The `top_k` highest-PageRank vertices with their ranks
    /// (parameters come from the server's
    /// [`PageRankParams`]; rank descending, vertex id ascending on ties).
    PageRank {
        /// How many top-ranked vertices to return.
        top_k: u32,
    },
    /// Out-degree of vertex `v`.
    Degree {
        /// Vertex queried.
        v: u32,
    },
    /// Whether directed edge `(u, v)` is live.
    EdgeExists {
        /// Source endpoint.
        u: u32,
        /// Destination endpoint.
        v: u32,
    },
    /// The sorted out-neighbor list of vertex `v`.
    Neighbors {
        /// Vertex queried.
        v: u32,
    },
}

impl Query {
    /// Stable lowercase kind name for metrics/exposition labels.
    pub fn kind(self) -> &'static str {
        match self {
            Query::Bfs { .. } => "bfs",
            Query::Cc => "cc",
            Query::PageRank { .. } => "pagerank",
            Query::Degree { .. } => "degree",
            Query::EdgeExists { .. } => "edge_exists",
            Query::Neighbors { .. } => "neighbors",
        }
    }
}

/// A query's answer. Bulk payloads are `Arc`-wrapped so cache hits clone a
/// pointer, not a vector.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// [`Query::Bfs`]: hop distance per vertex
    /// ([`UNREACHED`] where unreachable).
    Distances(Arc<Vec<u32>>),
    /// [`Query::Cc`]: per-vertex component labels and the component count.
    Components {
        /// Representative label per vertex.
        labels: Arc<Vec<u32>>,
        /// Number of distinct components.
        count: usize,
    },
    /// [`Query::PageRank`]: `(vertex, rank)` pairs, rank descending.
    TopRanks(Arc<Vec<(u32, f64)>>),
    /// [`Query::Degree`]: the out-degree.
    Degree(usize),
    /// [`Query::EdgeExists`]: whether the edge is live.
    Exists(bool),
    /// [`Query::Neighbors`]: sorted out-neighbor vertex ids.
    Neighbors(Arc<Vec<u32>>),
}

/// Server-wide PageRank execution parameters (part of the oracle: two
/// executions agree only when run with the same parameters).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankParams {
    /// Damping factor (the paper's 0.85).
    pub damping: f64,
    /// L1 convergence threshold.
    pub epsilon: f64,
    /// Iteration cap.
    pub max_iters: usize,
}

impl Default for PageRankParams {
    fn default() -> Self {
        PageRankParams {
            damping: 0.85,
            epsilon: 1e-9,
            max_iters: 100_000,
        }
    }
}

/// Execute `query` against `snap` from scratch — the correctness oracle.
///
/// Deterministic: same snapshot + same parameters ⇒ bitwise-identical
/// result (PageRank ties order by ascending vertex id). Out-of-range
/// vertices are answered structurally (empty neighbors, degree 0, absent
/// edge, all-unreachable distances) rather than panicking, so arbitrary
/// tenant input is safe.
pub fn execute(query: Query, snap: &GraphSnapshot, pr: PageRankParams) -> QueryResult {
    match query {
        Query::Bfs { src } => {
            if src >= snap.num_vertices() {
                let nv = snap.num_vertices() as usize;
                QueryResult::Distances(Arc::new(vec![UNREACHED; nv]))
            } else {
                QueryResult::Distances(Arc::new(bfs_host(snap, src)))
            }
        }
        Query::Cc => {
            let labels = cc_host(snap);
            let count = component_count(&labels);
            QueryResult::Components {
                labels: Arc::new(labels),
                count,
            }
        }
        Query::PageRank { top_k } => QueryResult::TopRanks(Arc::new(top_ranks(snap, top_k, pr))),
        Query::Degree { v } => QueryResult::Degree(snap.out_degree(v)),
        Query::EdgeExists { u, v } => QueryResult::Exists(snap.contains(u, v)),
        Query::Neighbors { v } => {
            QueryResult::Neighbors(Arc::new(snap.neighbors(v).iter().map(|e| e.dst).collect()))
        }
    }
}

/// Full PageRank, then the deterministic top-k selection: rank descending,
/// vertex id ascending on exact ties. The order is total (no two vertices
/// compare equal), so selecting the first `k` and sorting only those gives
/// exactly the first `k` of a full sort, in O(|V| + k log k).
fn top_ranks(snap: &GraphSnapshot, top_k: u32, pr: PageRankParams) -> Vec<(u32, f64)> {
    let ranks = pagerank_host(snap, pr.damping, pr.epsilon, pr.max_iters).ranks;
    let by_rank =
        |&a: &u32, &b: &u32| ranks[b as usize].total_cmp(&ranks[a as usize]).then(a.cmp(&b));
    let mut order: Vec<u32> = (0..ranks.len() as u32).collect();
    if (top_k as usize) < order.len() {
        order.select_nth_unstable_by(top_k as usize, by_rank);
        order.truncate(top_k as usize);
    }
    order.sort_unstable_by(by_rank);
    order.into_iter().map(|v| (v, ranks[v as usize])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpma_graph::Edge;

    fn snap() -> GraphSnapshot {
        // 0→1→2, 2→0, isolated 3; vertex 1 also →3.
        GraphSnapshot::from_edges(
            7,
            4,
            vec![
                Edge::new(0, 1),
                Edge::new(1, 2),
                Edge::new(1, 3),
                Edge::new(2, 0),
            ],
        )
    }

    #[test]
    fn execute_matches_host_oracles() {
        let s = snap();
        let pr = PageRankParams::default();
        assert_eq!(
            execute(Query::Bfs { src: 0 }, &s, pr),
            QueryResult::Distances(Arc::new(bfs_host(&s, 0)))
        );
        let labels = cc_host(&s);
        assert_eq!(
            execute(Query::Cc, &s, pr),
            QueryResult::Components {
                count: component_count(&labels),
                labels: Arc::new(labels),
            }
        );
        assert_eq!(execute(Query::Degree { v: 1 }, &s, pr), QueryResult::Degree(2));
        assert_eq!(
            execute(Query::EdgeExists { u: 1, v: 3 }, &s, pr),
            QueryResult::Exists(true)
        );
        assert_eq!(
            execute(Query::EdgeExists { u: 3, v: 1 }, &s, pr),
            QueryResult::Exists(false)
        );
        assert_eq!(
            execute(Query::Neighbors { v: 1 }, &s, pr),
            QueryResult::Neighbors(Arc::new(vec![2, 3]))
        );
    }

    #[test]
    fn top_ranks_are_sorted_and_deterministic() {
        let s = snap();
        let pr = PageRankParams::default();
        let QueryResult::TopRanks(top) = execute(Query::PageRank { top_k: 4 }, &s, pr) else {
            panic!("wrong result shape");
        };
        assert_eq!(top.len(), 4);
        for w in top.windows(2) {
            assert!(
                w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                "order violated: {w:?}"
            );
        }
        // Determinism: re-executing yields the identical vector.
        assert_eq!(
            execute(Query::PageRank { top_k: 4 }, &s, pr),
            QueryResult::TopRanks(top)
        );
        // top_k larger than |V| truncates to |V|.
        let QueryResult::TopRanks(all) = execute(Query::PageRank { top_k: 99 }, &s, pr) else {
            panic!("wrong result shape");
        };
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn top_ranks_equal_the_first_k_of_a_full_sort() {
        // Two 3-cycles, a 2-cycle, a 3-star and three isolated vertices:
        // the vertices of each cycle, the two 3-cycles, the leaves and the
        // isolated ones all tie exactly, so the selection has to break ties
        // by vertex id.
        let edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (6, 7), (7, 6)]
            .into_iter()
            .chain([(8, 11), (9, 11), (10, 11)]);
        let nv = 15;
        let s = GraphSnapshot::from_edges(1, nv, edges.map(|(s, d)| Edge::new(s, d)).collect());
        let pr = PageRankParams::default();
        let ranks = pagerank_host(&s, pr.damping, pr.epsilon, pr.max_iters).ranks;
        assert_eq!(ranks[0].to_bits(), ranks[5].to_bits(), "the two 3-cycles tie");
        assert_eq!(ranks[8].to_bits(), ranks[12].to_bits(), "leaves and isolated tie");
        // The reference: the full sort the selection replaced.
        let mut full: Vec<u32> = (0..nv).collect();
        full.sort_by(|&a, &b| {
            let by_rank = ranks[b as usize].partial_cmp(&ranks[a as usize]).unwrap();
            by_rank.then(a.cmp(&b))
        });
        for k in [0, 1, 10, nv, nv + 5] {
            let want: Vec<(u32, f64)> =
                full.iter().take(k as usize).map(|&v| (v, ranks[v as usize])).collect();
            assert_eq!(top_ranks(&s, k, pr), want, "k = {k}");
        }
    }

    #[test]
    fn out_of_range_vertices_answer_structurally() {
        let s = snap();
        let pr = PageRankParams::default();
        assert_eq!(
            execute(Query::Bfs { src: 99 }, &s, pr),
            QueryResult::Distances(Arc::new(vec![UNREACHED; 4]))
        );
        assert_eq!(execute(Query::Degree { v: 99 }, &s, pr), QueryResult::Degree(0));
        assert_eq!(
            execute(Query::Neighbors { v: 99 }, &s, pr),
            QueryResult::Neighbors(Arc::new(Vec::new()))
        );
        assert_eq!(
            execute(Query::EdgeExists { u: 99, v: 0 }, &s, pr),
            QueryResult::Exists(false)
        );
    }
}
