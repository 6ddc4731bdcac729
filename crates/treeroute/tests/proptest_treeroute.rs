//! Property-based tests for the three tree-routing schemes: exactness
//! of labeled routing, the Lemma 4 hit/miss guarantees, and the
//! Lemma 7 cost budget — on arbitrary random trees.

use graphkit::{dijkstra, Graph, NodeId, Tree};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use treeroute::cover_router::CoverTreeRouter;
use treeroute::labeled::LabeledTree;
use treeroute::laing::{ErrorReportingTree, SearchOutcome};
use treeroute::names::Naming;

/// Random tree with mixed topology: attach node i to a random earlier
/// node, with a "star bias" knob that concentrates attachments.
fn arb_tree() -> impl Strategy<Value = Graph> {
    (5usize..80, any::<u64>(), 0u8..3, 1u64..50).prop_map(|(n, seed, bias, wmax)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        use rand::Rng;
        let mut b = graphkit::GraphBuilder::with_nodes(n);
        for i in 1..n {
            let parent = match bias {
                0 => rng.gen_range(0..i), // uniform recursive
                1 => 0,                   // star
                _ => i - 1,               // path
            };
            let w = rng.gen_range(1..=wmax);
            b.add_edge(NodeId(i as u32), NodeId(parent as u32), w);
        }
        b.build()
    })
}

fn rooted(g: &Graph, root: u32) -> Tree {
    let sp = dijkstra::dijkstra(g, NodeId(root));
    Tree::from_sssp(g, &sp, g.nodes())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Lemma 5: labeled routing is exact between all sampled pairs.
    #[test]
    fn labeled_routing_exact(g in arb_tree(), root_pick in any::<u32>()) {
        let root = root_pick % g.n() as u32;
        let lt = LabeledTree::new(rooted(&g, root));
        let m = lt.tree().size() as u32;
        for s in (0..m).step_by(3) {
            for t in (0..m).step_by(5) {
                let (path, cost) = lt.route(s, lt.label(t)).expect("in-tree");
                prop_assert_eq!(*path.last().unwrap(), t);
                prop_assert_eq!(cost, lt.tree().tree_distance(s, t));
            }
        }
    }

    /// Lemma 4(a): every tree node with name length ≤ j is found by a
    /// j-bounded search with stretch ≤ 2j−1.
    #[test]
    fn laing_hits_within_stretch(g in arb_tree(), k in 1usize..4, seed in any::<u64>()) {
        let ert = ErrorReportingTree::new(rooted(&g, 0), k, seed);
        let by_rank = ert.labeled().tree().nodes_by_depth();
        for (rank, &t) in by_rank.iter().enumerate().step_by(2) {
            let level = ert.naming().level_of_rank(rank).max(1).min(k);
            let target = ert.labeled().tree().graph_id(t);
            let (outcome, _) = ert.search(target, level);
            match outcome {
                SearchOutcome::Found { cost, delivered_at } => {
                    prop_assert_eq!(delivered_at, t);
                    let depth = ert.labeled().tree().depth(t);
                    prop_assert!(cost <= ((2 * level as u64).saturating_sub(1)) * depth.max(1));
                }
                SearchOutcome::NotFound { .. } =>
                    prop_assert!(false, "rank {} missed at its own level", rank),
            }
        }
    }

    /// Lemma 4(b): absent ids always produce a negative response back
    /// at the root, within the (2j−2)·maxdepth bound.
    #[test]
    fn laing_misses_bounded(g in arb_tree(), k in 1usize..4, seed in any::<u64>()) {
        let ert = ErrorReportingTree::new(rooted(&g, 0), k, seed);
        for j in 1..=k {
            let (outcome, visited) = ert.search(NodeId(10_000_000), j);
            match outcome {
                SearchOutcome::Found { .. } =>
                    prop_assert!(false, "found an absent id"),
                SearchOutcome::NotFound { cost } => {
                    prop_assert_eq!(*visited.last().unwrap(), ert.labeled().tree().root());
                    let bound = ((2 * j as u64).saturating_sub(2))
                        * ert.max_depth_in_level(j - 1).max(1);
                    prop_assert!(cost <= bound, "miss cost {} > {}", cost, bound);
                }
            }
        }
    }

    /// Lemma 7: lookups (hits and misses, from every 7th source) stay
    /// within the 4·rad + 2k·maxE budget.
    #[test]
    fn cover_router_budget(g in arb_tree(), sigma in 2u64..6, seed in any::<u64>()) {
        let r = CoverTreeRouter::new(rooted(&g, 0), sigma, seed);
        let m = r.labeled().tree().size() as u32;
        let budget = r.cost_budget();
        for from in (0..m).step_by(7) {
            for t in (0..m).step_by(11) {
                let target = r.labeled().tree().graph_id(t);
                let (outcome, path) = r.route(from, target);
                prop_assert!(outcome.is_found());
                prop_assert!(outcome.cost() <= budget,
                    "cost {} > budget {}", outcome.cost(), budget);
                prop_assert_eq!(*path.last().unwrap(), t);
            }
            let (miss, mpath) = r.route(from, NodeId(20_000_000));
            prop_assert!(!miss.is_found());
            prop_assert!(miss.cost() <= budget);
            prop_assert_eq!(*mpath.last().unwrap(), from, "miss must return to source");
        }
    }

    /// Naming: rank ↔ name bijection for arbitrary alphabet sizes.
    #[test]
    fn naming_bijective(count in 1usize..500, sigma in 1u64..40) {
        let nm = Naming::new(count, sigma);
        for rank in 0..count {
            let name = nm.name_of_rank(rank);
            prop_assert_eq!(nm.rank_of_name(&name), Some(rank));
            prop_assert!(name.iter().all(|&d| (d as u64) < sigma));
        }
        // One past the end must not decode.
        let mut names: Vec<_> = (0..count).map(|r| nm.name_of_rank(r)).collect();
        names.sort();
        names.dedup();
        prop_assert_eq!(names.len(), count, "names must be unique");
    }
}

// ---- out-of-tree degradation (panic-free-serve regressions) ------------
//
// The labeled-route path used to index `locals[at]` and panic on a
// node id past the tree; after the call-graph lint pass it returns
// `None`/`NotInTree`. Pin that contract.

#[test]
fn labeled_route_from_out_of_tree_node_is_none() {
    let g = graphkit::gen::Family::Grid.generate(36, 0x0FF);
    let lt = LabeledTree::new(rooted(&g, 0));
    let m = lt.tree().size() as u32;
    for bad in [m, m + 1, u32::MAX] {
        assert!(lt.route(bad, lt.label(0)).is_none(), "route from {bad} must degrade");
        assert!(matches!(lt.route_step(bad, lt.label(0)), treeroute::labeled::Step::NotInTree));
    }
    // In-range routing is unaffected.
    assert!(lt.route(m - 1, lt.label(0)).is_some());
}
