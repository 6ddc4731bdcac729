//! Property-based tests for sparse tree covers on random graphs and
//! radii: the four Lemma 6 invariants plus structural sanity of the
//! cluster trees themselves.

use covers::{build_cover, build_cover_within, verify_cover};
use graphkit::gen::WeightDist;
use graphkit::metrics::apsp;
use graphkit::{graph_from_edges, Graph, NodeId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn arb_graph() -> impl Strategy<Value = graphkit::Graph> {
    (5usize..50, any::<u64>(), 0.0f64..0.25, 1u64..64).prop_map(|(n, seed, p, hi)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        graphkit::gen::erdos_renyi(n, p, WeightDist::UniformInt { lo: 1, hi }, &mut rng)
    })
}

/// Reference for [`build_cover_within`]: the subgraph induced by the
/// members of `inside`, renumbered in ascending host id, plus the
/// local → host map.
fn induced(g: &Graph, inside: &[bool]) -> (Graph, Vec<u32>) {
    let to_host: Vec<u32> = (0..g.n() as u32).filter(|&v| inside[v as usize]).collect();
    let mut to_local = vec![u32::MAX; g.n()];
    for (l, &h) in to_host.iter().enumerate() {
        to_local[h as usize] = l as u32;
    }
    let mut edges = Vec::new();
    for &h in &to_host {
        for (v, w) in g.edges_of(NodeId(h)) {
            if inside[v.idx()] && h < v.0 {
                edges.push((to_local[h as usize], to_local[v.idx()], w));
            }
        }
    }
    (graph_from_edges(to_host.len(), &edges), to_host)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// All four Lemma 6 properties on arbitrary (graph, k, ρ).
    #[test]
    fn lemma6_invariants(g in arb_graph(), k in 1usize..5, rho in 1u64..100) {
        let cover = build_cover(&g, k, rho);
        let rep = verify_cover(&g, &cover);
        prop_assert!(rep.ok(), "violated: {:?} (k={}, rho={})", rep, k, rho);
    }

    /// Every node has a home tree, and the home tree contains the node
    /// itself at depth ≤ (2k−1)ρ.
    #[test]
    fn home_trees_contain_owner(g in arb_graph(), k in 1usize..4, rho in 1u64..50) {
        let cover = build_cover(&g, k, rho);
        for v in 0..g.n() as u32 {
            let home = cover.home_tree(NodeId(v));
            let ix = home.find(NodeId(v)).expect("home tree must contain its owner");
            prop_assert!(home.depth(ix) <= (2 * k as u64 - 1) * rho);
        }
    }

    /// Cluster-tree depths are realizable graph distances: depth(x) ≥
    /// d_G(root, x) (tree paths are walks in G).
    #[test]
    fn tree_depths_dominate_graph_distance(g in arb_graph(), rho in 1u64..40) {
        let d = apsp(&g);
        let cover = build_cover(&g, 2, rho);
        for t in &cover.trees {
            let root = t.graph_id(t.root());
            for ix in 0..t.size() as u32 {
                prop_assert!(t.depth(ix) >= d.d(root, t.graph_id(ix)));
            }
        }
    }

    /// Tree membership accounting matches overlap counting.
    #[test]
    fn overlap_consistency(g in arb_graph(), rho in 1u64..40) {
        let cover = build_cover(&g, 2, rho);
        let mut counts = vec![0usize; g.n()];
        for t in &cover.trees {
            for &gid in t.graph_ids() {
                counts[gid as usize] += 1;
            }
        }
        for v in 0..g.n() as u32 {
            prop_assert_eq!(cover.overlap(NodeId(v)), counts[v as usize]);
            prop_assert!(counts[v as usize] >= 1, "node {} in no tree", v);
        }
    }

    /// A cover built in the host graph over a member mask is the cover
    /// of the induced subgraph lifted to host ids: the same home table
    /// (`u32::MAX` outside the mask), and every tree with the same
    /// graph ids, parents and weights. Lemma 6 holds on it.
    #[test]
    fn masked_cover_equals_induced_cover(
        g in arb_graph(),
        mask_seed in any::<u64>(),
        k in 1usize..4,
        rho in 1u64..60,
    ) {
        let mut rng = SmallRng::seed_from_u64(mask_seed);
        let inside: Vec<bool> = (0..g.n()).map(|_| rng.gen_bool(0.7)).collect();
        let cover = build_cover_within(&g, &inside, k, rho);
        let (sub, to_host) = induced(&g, &inside);
        let reference = build_cover(&sub, k, rho);
        let mut home = vec![u32::MAX; g.n()];
        for (local, &t) in reference.home.iter().enumerate() {
            home[to_host[local] as usize] = t;
        }
        prop_assert_eq!(&cover.home, &home);
        prop_assert_eq!(cover.trees.len(), reference.trees.len());
        for (t, r) in cover.trees.iter().zip(&reference.trees) {
            let lifted: Vec<u32> = r.graph_ids().iter().map(|&l| to_host[l as usize]).collect();
            prop_assert_eq!(t.graph_ids(), &lifted[..]);
            prop_assert_eq!(t.parents(), r.parents());
            prop_assert_eq!(t.parent_weights(), r.parent_weights());
        }
        let rep = verify_cover(&g, &cover);
        prop_assert!(rep.ok(), "violated: {:?} (k={}, rho={})", rep, k, rho);
    }
}
