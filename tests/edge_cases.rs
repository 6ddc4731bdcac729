//! Degenerate and boundary instances: tiny graphs, k beyond log n,
//! diameter-1 graphs, single-edge graphs. The scheme must stay correct
//! (deliver everything) at every corner.

use compact_routing::prelude::*;
use graphkit::metrics::apsp;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn check_all_pairs(g: Graph, k: usize, seed: u64) {
    let d = apsp(&g);
    let scheme = Scheme::build_on_demand(g.clone(), SchemeParams::new(k, seed));
    let stats = evaluate(&g, &d, &scheme, &pairs::all(g.n()));
    assert_eq!(stats.failures, 0, "n={} k={k}", g.n());
}

#[test]
fn two_node_graph() {
    for k in [1usize, 2, 3] {
        check_all_pairs(graphkit::graph_from_edges(2, &[(0, 1, 7)]), k, 1);
    }
}

#[test]
fn three_node_path_and_triangle() {
    for k in [1usize, 2, 4] {
        check_all_pairs(graphkit::graph_from_edges(3, &[(0, 1, 1), (1, 2, 1)]), k, 2);
        check_all_pairs(graphkit::graph_from_edges(3, &[(0, 1, 1), (1, 2, 1), (0, 2, 1)]), k, 2);
    }
}

#[test]
fn complete_graph_diameter_one() {
    let mut rng = SmallRng::seed_from_u64(3);
    let g = graphkit::gen::complete(20, graphkit::gen::WeightDist::Unit, &mut rng);
    for k in [1usize, 2, 3] {
        check_all_pairs(g.clone(), k, 3);
    }
}

#[test]
fn k_exceeds_log_n() {
    // k = 8 on a 12-node graph: levels degenerate but must stay correct.
    let mut rng = SmallRng::seed_from_u64(4);
    let g = graphkit::gen::erdos_renyi(
        12,
        0.3,
        graphkit::gen::WeightDist::UniformInt { lo: 1, hi: 5 },
        &mut rng,
    );
    check_all_pairs(g, 8, 4);
}

#[test]
fn single_heavy_edge() {
    // Two cliques joined by one enormous edge: the classic two-scale
    // metric; every pair must still route.
    let mut b = GraphBuilder::with_nodes(12);
    for i in 0..6u32 {
        for j in (i + 1)..6 {
            b.add_edge(NodeId(i), NodeId(j), 1);
            b.add_edge(NodeId(i + 6), NodeId(j + 6), 1);
        }
    }
    b.add_edge(NodeId(0), NodeId(6), 1 << 30);
    check_all_pairs(b.build(), 3, 5);
}

#[test]
fn star_graph_hub_routing() {
    check_all_pairs(graphkit::gen::star(30, 5), 2, 6);
}

#[test]
fn long_path_graph() {
    // Paths maximize diameter relative to n: every level sparse.
    check_all_pairs(graphkit::gen::path(60, 3), 3, 7);
}

#[test]
fn uniform_random_weights_stress() {
    let mut rng = SmallRng::seed_from_u64(8);
    for trial in 0..5u64 {
        let g = graphkit::gen::erdos_renyi(
            40,
            0.1,
            graphkit::gen::WeightDist::PowerOfTwo { max_exp: 25 },
            &mut rng,
        );
        check_all_pairs(g, 3, trial);
    }
}

#[test]
fn baselines_on_tiny_graphs() {
    let g = graphkit::graph_from_edges(3, &[(0, 1, 2), (1, 2, 3)]);
    let d = apsp(&g);
    let w = pairs::all(3);
    assert_eq!(evaluate(&g, &d, &ShortestPathTables::build(g.clone()), &w).failures, 0);
    assert_eq!(evaluate(&g, &d, &HierarchicalScheme::build(g.clone(), 2, 1), &w).failures, 0);
    assert_eq!(evaluate(&g, &d, &LandmarkChaining::build(g.clone(), 2, 1), &w).failures, 0);
    assert_eq!(evaluate(&g, &d, &TzLabeled::build(g.clone(), 2, 1), &w).failures, 0);
}

#[test]
fn io_roundtrip_preserves_routing() {
    // Serialize, re-parse, rebuild: identical routes.
    let g = Family::Geometric.generate(50, 9);
    let text = graphkit::io::write_graph(&g);
    let g2 = graphkit::io::parse_graph(&text).unwrap();
    let s1 = Scheme::build_on_demand(g.clone(), SchemeParams::new(2, 10));
    let s2 = Scheme::build_on_demand(g2, SchemeParams::new(2, 10));
    for &(a, b) in pairs::sample(50, 100, 11).iter() {
        assert_eq!(s1.route(a, b), s2.route(a, b));
    }
}
