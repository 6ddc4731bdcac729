//! Property-based tests for the graph substrate: Dijkstra against a
//! Floyd–Warshall oracle, metric axioms, restricted multi-source balls
//! against per-source Dijkstra, and tree extraction invariants.

use graphkit::{dijkstra, graph_from_edges, Cost, DijkstraScratch, Graph, NodeId, Tree, INFINITY};
use proptest::prelude::*;

/// A random (possibly disconnected) graph as an edge list.
fn arb_edges() -> impl Strategy<Value = (usize, Vec<(u32, u32, u64)>)> {
    (3usize..24).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32, 1u64..100), 0..(n * 2))
            .prop_map(|es| es.into_iter().filter(|(u, v, _)| u != v).collect::<Vec<_>>());
        (Just(n), edges)
    })
}

fn floyd_warshall(g: &Graph) -> Vec<Vec<Cost>> {
    let n = g.n();
    let mut d = vec![vec![INFINITY; n]; n];
    for (v, row) in d.iter_mut().enumerate() {
        row[v] = 0;
    }
    for (u, v, w) in g.all_edges() {
        d[u.idx()][v.idx()] = d[u.idx()][v.idx()].min(w);
        d[v.idx()][u.idx()] = d[v.idx()][u.idx()].min(w);
    }
    for m in 0..n {
        for a in 0..n {
            if d[a][m] == INFINITY {
                continue;
            }
            for b in 0..n {
                if d[m][b] == INFINITY {
                    continue;
                }
                let via = d[a][m] + d[m][b];
                if via < d[a][b] {
                    d[a][b] = via;
                }
            }
        }
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Dijkstra equals Floyd–Warshall on every source.
    #[test]
    fn dijkstra_matches_oracle((n, edges) in arb_edges()) {
        let g = graph_from_edges(n, &edges);
        let oracle = floyd_warshall(&g);
        for s in 0..n as u32 {
            let sp = dijkstra(&g, NodeId(s));
            prop_assert_eq!(&sp.dist, &oracle[s as usize]);
        }
    }

    /// Reconstructed shortest paths have exactly the reported cost and
    /// consist of real edges.
    #[test]
    fn paths_cost_their_distance((n, edges) in arb_edges()) {
        let g = graph_from_edges(n, &edges);
        let sp = dijkstra(&g, NodeId(0));
        for v in 0..n as u32 {
            if let Some(path) = sp.path_to(NodeId(v)) {
                let mut cost = 0;
                for w in path.windows(2) {
                    cost += g.edge_weight(w[0], w[1]).expect("path edge must exist");
                }
                prop_assert_eq!(cost, sp.d(NodeId(v)));
            }
        }
    }

    /// `run_where` from 1–3 sources inside a member set, keeping only
    /// edges into members of weight ≤ `cap`, settles exactly the nodes
    /// within `r` of their nearest source in the graph of the kept
    /// edges, with that distance, in `(distance, id)` order.
    #[test]
    fn ball_matches_distances(
        (n, edges) in arb_edges(),
        mask in any::<u32>(),
        picks in proptest::collection::vec(any::<u32>(), 1..4),
        r in 1u64..300,
        cap in 1u64..100,
    ) {
        let sources: Vec<NodeId> = picks.iter().map(|&p| NodeId(p % n as u32)).collect();
        let mut member: Vec<bool> = (0..n).map(|v| mask >> v & 1 == 1).collect();
        for s in &sources {
            member[s.idx()] = true;
        }
        let g = graph_from_edges(n, &edges);
        let mut scratch = DijkstraScratch::new(n);
        scratch.run_where(&g, &sources, r, usize::MAX, |v, w| member[v.idx()] && w <= cap);
        let kept: Vec<(u32, u32, u64)> = g
            .all_edges()
            .filter(|&(u, v, w)| member[u.idx()] && member[v.idx()] && w <= cap)
            .map(|(u, v, w)| (u.0, v.0, w))
            .collect();
        let reference = graph_from_edges(n, &kept);
        let mut nearest = vec![INFINITY; n];
        for &s in &sources {
            for (best, d) in nearest.iter_mut().zip(dijkstra(&reference, s).dist) {
                *best = (*best).min(d);
            }
        }
        let mut expect: Vec<(Cost, u32)> = (0..n as u32)
            .filter(|&v| nearest[v as usize] <= r)
            .map(|v| (nearest[v as usize], v))
            .collect();
        expect.sort_unstable();
        prop_assert_eq!(scratch.settled(), &expect[..]);
    }

    /// SPT extraction: member depths equal graph distances; every tree
    /// edge is a graph edge of matching weight.
    #[test]
    fn spt_depths_are_distances((n, edges) in arb_edges()) {
        let g = graph_from_edges(n, &edges);
        let sp = dijkstra(&g, NodeId(0));
        let members: Vec<NodeId> =
            g.nodes().filter(|&v| sp.reachable(v)).collect();
        let t = Tree::from_sssp(&g, &sp, members);
        for ix in 0..t.size() as u32 {
            prop_assert_eq!(t.depth(ix), sp.d(t.graph_id(ix)));
            if let Some(p) = t.parent(ix) {
                let w = g
                    .edge_weight(t.graph_id(p), t.graph_id(ix))
                    .expect("tree edge must be a graph edge");
                prop_assert_eq!(w, t.parent_weight(ix));
            }
        }
    }

    /// On-demand truth equals the dense matrix on every queried pair,
    /// regardless of cache capacity, prefetch coverage, or thread
    /// count (including disconnected graphs, where both report
    /// INFINITY).
    #[test]
    fn on_demand_truth_matches_apsp(
        (n, edges) in arb_edges(),
        cap in 1usize..6,
        threads in 1usize..5,
    ) {
        let g = graph_from_edges(n, &edges);
        let d = graphkit::metrics::apsp(&g);
        let mut truth = graphkit::OnDemandTruth::with_capacity(&g, cap);
        // Prefetch an arbitrary slice of the pair space; the rest goes
        // through the bounded row cache.
        let prefetched: Vec<(NodeId, NodeId)> = (0..n as u32)
            .filter(|v| v % 2 == 0)
            .map(|v| (NodeId(v), NodeId((v + 1) % n as u32)))
            .collect();
        truth.prefetch_pairs(&prefetched, threads);
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                prop_assert_eq!(truth.d(NodeId(u), NodeId(v)), d.d(NodeId(u), NodeId(v)));
            }
        }
    }

    /// CSR construction: neighbor lists sorted, degrees sum to 2m,
    /// ports invert.
    #[test]
    fn csr_invariants((n, edges) in arb_edges()) {
        let g = graph_from_edges(n, &edges);
        let degree_sum: usize = g.nodes().map(|u| g.degree(u)).sum();
        prop_assert_eq!(degree_sum, 2 * g.m());
        for u in g.nodes() {
            let nb = g.neighbors(u);
            for w in nb.windows(2) {
                prop_assert!(w[0] < w[1], "unsorted or duplicate neighbor");
            }
            for (p, &v) in nb.iter().enumerate() {
                prop_assert_eq!(g.endpoint(u, p as u32), NodeId(v));
                prop_assert_eq!(g.port_to(u, NodeId(v)), Some(p as u32));
            }
        }
    }
}
