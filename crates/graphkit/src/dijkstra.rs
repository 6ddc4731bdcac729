//! Single-source shortest paths and bounded variants.
//!
//! Ties are broken by node id everywhere (the paper fixes an arbitrary
//! lexicographic order on nodes; we use the integer order of ids), so
//! every ball, settle order and shortest-path tree is unique and
//! deterministic, which several lemmas rely on.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::Graph;
use crate::ids::{cost_add, Cost, NodeId, Weight, INFINITY};

/// Result of a single-source run: distances and parent pointers.
#[derive(Clone, Debug)]
pub struct Sssp {
    /// Source node.
    pub source: NodeId,
    /// `dist[v]` = d(source, v), `INFINITY` if unreachable.
    pub dist: Vec<Cost>,
    /// `parent[v]` = predecessor of `v` on a shortest path from the
    /// source; `u32::MAX` for the source itself and unreachable nodes.
    pub parent: Vec<u32>,
}

impl Sssp {
    /// Distance to `v`.
    #[inline(always)]
    pub fn d(&self, v: NodeId) -> Cost {
        self.dist[v.idx()]
    }

    /// Is `v` reachable from the source?
    #[inline(always)]
    pub fn reachable(&self, v: NodeId) -> bool {
        self.dist[v.idx()] != INFINITY
    }

    /// Parent of `v` in the shortest-path tree, if any.
    pub fn parent_of(&self, v: NodeId) -> Option<NodeId> {
        let p = self.parent[v.idx()];
        if p == u32::MAX {
            None
        } else {
            Some(NodeId(p))
        }
    }

    /// Reconstruct the shortest path source -> v (inclusive); `None` if
    /// unreachable.
    pub fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if !self.reachable(v) {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent_of(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        debug_assert_eq!(path[0], self.source);
        Some(path)
    }
}

/// Full Dijkstra from `source`.
///
/// Tie-break: when two relaxations yield equal distance, the parent with
/// the smaller id wins, so shortest-path trees are canonical.
pub fn dijkstra(g: &Graph, source: NodeId) -> Sssp {
    dijkstra_bounded(g, source, INFINITY)
}

/// Dijkstra that never settles nodes at distance `> radius`.
/// Nodes beyond the radius report `INFINITY`.
pub fn dijkstra_bounded(g: &Graph, source: NodeId, radius: Cost) -> Sssp {
    let n = g.n();
    let mut dist = vec![INFINITY; n];
    let mut parent = vec![u32::MAX; n];
    let mut heap: BinaryHeap<Reverse<(Cost, u32)>> = BinaryHeap::new();
    dist[source.idx()] = 0;
    heap.push(Reverse((0, source.0)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue; // stale entry
        }
        let u_id = NodeId(u);
        for (v, w) in g.edges_of(u_id) {
            let nd = cost_add(d, w);
            if nd > radius {
                continue;
            }
            let dv = &mut dist[v.idx()];
            if nd < *dv || (nd == *dv && u < parent[v.idx()]) {
                let improved = nd < *dv;
                *dv = nd;
                parent[v.idx()] = u;
                if improved {
                    heap.push(Reverse((nd, v.0)));
                }
            }
        }
    }
    Sssp { source, dist, parent }
}

/// Reusable buffers for repeated bounded Dijkstra runs from many
/// sources over the same graph size.
///
/// [`dijkstra_bounded`] allocates (and zeroes) two `n`-length vectors
/// per call, which turns `n` small-ball runs into Θ(n²) work. The
/// scratch keeps the vectors alive across runs and resets only the
/// entries the previous run touched, so a run costs O(ball) rather
/// than O(n). This is the workhorse behind the matrix-free scheme
/// construction (per-node ranges, `E(u,i)` balls, level-0 S-sets).
pub struct DijkstraScratch {
    dist: Vec<Cost>,
    parent: Vec<u32>,
    heap: BinaryHeap<Reverse<(Cost, u32)>>,
    /// Nodes whose `dist`/`parent` entries are dirty.
    touched: Vec<u32>,
    /// Settled `(distance, node)` pairs of the last run, in increasing
    /// `(distance, id)` order (the heap pop order).
    settled: Vec<(Cost, u32)>,
}

impl DijkstraScratch {
    /// Scratch for graphs of `n` nodes.
    pub fn new(n: usize) -> Self {
        DijkstraScratch {
            dist: vec![INFINITY; n],
            parent: vec![u32::MAX; n],
            heap: BinaryHeap::new(),
            touched: Vec::new(),
            settled: Vec::new(),
        }
    }

    /// Run Dijkstra from `source`, stopping at distance `> radius` and
    /// additionally once `settle_cap` nodes have been settled (pass
    /// `usize::MAX` for no cap). Settled nodes and their distances —
    /// in increasing `(distance, id)` order — are available through
    /// [`Self::settled`] until the next run; `dist`/`parent` views stay
    /// consistent with [`dijkstra_bounded`] for every settled node.
    ///
    /// With a `settle_cap`, the run stops *after* the cap-th pop, so
    /// the settled list is exactly the `settle_cap` smallest
    /// `(distance, id)` pairs (ties broken by id, as everywhere).
    pub fn run(&mut self, g: &Graph, source: NodeId, radius: Cost, settle_cap: usize) {
        self.run_where(g, &[source], radius, settle_cap, |_, _| true);
    }

    /// [`Self::run`] from every node of `sources` at once (each starts
    /// at distance 0), relaxing an edge only when `keep(head, weight)`
    /// holds. The run settles every node within `radius` of its
    /// nearest source in the subgraph of kept edges: with `keep`
    /// always true, the union of the balls `B(s, radius)` over
    /// `sources`. Ties still go to the smaller parent id.
    pub fn run_where(
        &mut self,
        g: &Graph,
        sources: &[NodeId],
        radius: Cost,
        settle_cap: usize,
        keep: impl Fn(NodeId, Weight) -> bool,
    ) {
        // Lazy reset of the previous run's footprint.
        for &v in &self.touched {
            self.dist[v as usize] = INFINITY;
            self.parent[v as usize] = u32::MAX;
        }
        self.touched.clear();
        self.settled.clear();
        self.heap.clear();
        for &s in sources {
            // A repeated source is queued, and so settled, once.
            if self.dist[s.idx()] != 0 {
                self.dist[s.idx()] = 0;
                self.touched.push(s.0);
                self.heap.push(Reverse((0, s.0)));
            }
        }
        while let Some(Reverse((d, u))) = self.heap.pop() {
            if d > self.dist[u as usize] {
                continue; // stale entry
            }
            self.settled.push((d, u));
            if self.settled.len() >= settle_cap {
                break;
            }
            for (v, w) in g.edges_of(NodeId(u)) {
                let nd = cost_add(d, w);
                if nd > radius || !keep(v, w) {
                    continue;
                }
                let dv = &mut self.dist[v.idx()];
                if nd < *dv || (nd == *dv && u < self.parent[v.idx()]) {
                    let improved = nd < *dv;
                    if *dv == INFINITY {
                        self.touched.push(v.0);
                    }
                    *dv = nd;
                    self.parent[v.idx()] = u;
                    if improved {
                        self.heap.push(Reverse((nd, v.0)));
                    }
                }
            }
        }
    }

    /// Settled `(distance, node)` pairs of the last run, in increasing
    /// `(distance, id)` order.
    pub fn settled(&self) -> &[(Cost, u32)] {
        &self.settled
    }

    /// Distance to `v` as of the last run (`INFINITY` if unsettled —
    /// meaningful only for nodes the run settled).
    #[inline(always)]
    pub fn dist(&self, v: NodeId) -> Cost {
        self.dist[v.idx()]
    }

    /// Shortest-path-tree parent of `v` as of the last run
    /// (`u32::MAX` for the source and unsettled nodes). Identical to
    /// the full-run parent for every settled node: any predecessor on
    /// a shortest path to a settled node lies strictly closer, hence
    /// inside the bound as well.
    #[inline(always)]
    pub fn parent(&self, v: NodeId) -> u32 {
        self.parent[v.idx()]
    }

    /// Full distance view of the last run (`INFINITY` outside the
    /// settled ball) — the slice form [`crate::Tree::from_dist_parents`]
    /// consumes.
    pub fn dists(&self) -> &[Cost] {
        &self.dist
    }

    /// Full parent view of the last run (`u32::MAX` outside the
    /// settled ball).
    pub fn parents(&self) -> &[u32] {
        &self.parent
    }

    /// The number of settled nodes whose `(distance, id)` key is
    /// strictly below `key` — the rank/position primitive behind the
    /// level-0 S-set queries. Exact whenever the run's radius reached
    /// `key.0`.
    pub fn position_below(&self, key: (Cost, u32)) -> usize {
        self.settled.partition_point(|&e| e < key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph_from_edges;

    /// Path graph 0-1-2-3-4 with unit weights.
    fn path5() -> Graph {
        graph_from_edges(5, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)])
    }

    fn weighted() -> Graph {
        // Square with a costly diagonal and a pendant.
        graph_from_edges(5, &[(0, 1, 2), (1, 2, 2), (2, 3, 2), (3, 0, 2), (0, 2, 10), (3, 4, 7)])
    }

    #[test]
    fn distances_on_path() {
        let g = path5();
        let sp = dijkstra(&g, NodeId(0));
        assert_eq!(sp.dist, vec![0, 1, 2, 3, 4]);
        assert_eq!(sp.path_to(NodeId(4)).unwrap().len(), 5);
    }

    #[test]
    fn distances_weighted() {
        let g = weighted();
        let sp = dijkstra(&g, NodeId(0));
        assert_eq!(sp.d(NodeId(2)), 4); // around the square, not the diagonal
        assert_eq!(sp.d(NodeId(4)), 9);
    }

    #[test]
    fn unreachable_nodes() {
        let g = graph_from_edges(4, &[(0, 1, 1), (2, 3, 1)]);
        let sp = dijkstra(&g, NodeId(0));
        assert!(sp.reachable(NodeId(1)));
        assert!(!sp.reachable(NodeId(2)));
        assert_eq!(sp.path_to(NodeId(3)), None);
    }

    #[test]
    fn bounded_truncates() {
        let g = path5();
        let sp = dijkstra_bounded(&g, NodeId(0), 2);
        assert_eq!(sp.d(NodeId(2)), 2);
        assert_eq!(sp.d(NodeId(3)), INFINITY);
    }

    #[test]
    fn path_reconstruction_is_shortest() {
        let g = weighted();
        let sp = dijkstra(&g, NodeId(1));
        let p = sp.path_to(NodeId(4)).unwrap();
        assert_eq!(p.first(), Some(&NodeId(1)));
        assert_eq!(p.last(), Some(&NodeId(4)));
        // Cost along reconstructed path equals reported distance.
        let mut cost = 0;
        for win in p.windows(2) {
            cost += g.edge_weight(win[0], win[1]).unwrap();
        }
        assert_eq!(cost, sp.d(NodeId(4)));
    }

    #[test]
    fn scratch_matches_bounded_across_runs() {
        let g = weighted();
        let mut scratch = DijkstraScratch::new(g.n());
        for src in 0..5u32 {
            for radius in [0u64, 2, 4, 9, u64::MAX - 1] {
                scratch.run(&g, NodeId(src), radius, usize::MAX);
                let sp = dijkstra_bounded(&g, NodeId(src), radius);
                for (d, v) in scratch.settled() {
                    assert_eq!(*d, sp.d(NodeId(*v)));
                    assert_eq!(scratch.parent(NodeId(*v)), sp.parent[*v as usize]);
                }
                let want: usize = sp.dist.iter().filter(|&&d| d != INFINITY).count();
                assert_eq!(scratch.settled().len(), want, "src={src} r={radius}");
            }
        }
    }

    #[test]
    fn scratch_settle_cap_takes_smallest_pairs() {
        // Star with equal spokes: the cap must cut by (distance, id).
        let g = graph_from_edges(5, &[(0, 1, 5), (0, 2, 5), (0, 3, 5), (0, 4, 5)]);
        let mut scratch = DijkstraScratch::new(g.n());
        scratch.run(&g, NodeId(0), u64::MAX - 1, 3);
        let ids: Vec<u32> = scratch.settled().iter().map(|&(_, v)| v).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(scratch.position_below((5, 2)), 2); // {(0,0), (5,1)}
        assert_eq!(scratch.position_below((5, 0)), 1);
    }

    #[test]
    fn canonical_parents_under_ties() {
        // Two equal-length routes to node 3: via 1 and via 2.
        let g = graph_from_edges(4, &[(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)]);
        let sp = dijkstra(&g, NodeId(0));
        // Parent must be the smaller-id predecessor.
        assert_eq!(sp.parent_of(NodeId(3)), Some(NodeId(1)));
    }
}
