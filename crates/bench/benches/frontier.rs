//! Criterion bench for experiment X2's frontier: per-route latency of
//! every scheme on the same graph — the time cost of each point on the
//! space-stretch curve (plus the distance oracle's O(k) queries).

use baselines::{
    DistanceOracle, HierarchicalScheme, LandmarkChaining, ShortestPathTables, TzLabeled,
};
use criterion::{criterion_group, criterion_main, Criterion};
use graphkit::gen::Family;
use graphkit::metrics::apsp;
use graphkit::NodeId;
use routing_core::{Scheme, SchemeParams};
use sim::{pairs, Router};

fn frontier(c: &mut Criterion) {
    let n = 256;
    let k = 3;
    let g = Family::Geometric.generate(n, 12);
    let d = apsp(&g);
    let workload = pairs::sample(n, 512, 13);
    let routers: Vec<Box<dyn Router>> = vec![
        Box::new(ShortestPathTables::build(g.clone())),
        Box::new(HierarchicalScheme::build(g.clone(), k, 14)),
        Box::new(LandmarkChaining::build_with_matrix(g.clone(), &d, k, 14)),
        Box::new(TzLabeled::build_with_matrix(g.clone(), &d, k, 14)),
        Box::new(Scheme::build_on_demand(g.clone(), SchemeParams::new(k, 14))),
    ];
    let mut group = c.benchmark_group("frontier/route");
    for r in &routers {
        group.bench_function(r.name(), |b| {
            let mut i = 0;
            b.iter(|| {
                let (s, t) = workload[i % workload.len()];
                i += 1;
                std::hint::black_box(r.route(s, t))
            });
        });
    }
    group.finish();

    let oracle = DistanceOracle::build(&d, k, 14);
    c.bench_function("frontier/oracle_query", |b| {
        let mut i = 0;
        b.iter(|| {
            let (s, t) = workload[i % workload.len()];
            i += 1;
            std::hint::black_box(oracle.query(NodeId(s.0), NodeId(t.0)))
        });
    });
}

criterion_group!(benches, frontier);
criterion_main!(benches);
