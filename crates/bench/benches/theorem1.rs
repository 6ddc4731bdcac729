//! Criterion bench for experiment T1's hot paths: routing throughput
//! and scheme construction of the Theorem 1 scheme.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphkit::gen::Family;
use routing_core::{Scheme, SchemeParams};
use sim::{pairs, Router};

fn route_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("theorem1/route");
    for k in [2usize, 3, 4] {
        let g = Family::Geometric.generate(256, 42);
        let scheme = Scheme::build_on_demand(g, SchemeParams::new(k, 42));
        let workload = pairs::sample(256, 512, 7);
        group.bench_with_input(BenchmarkId::from_parameter(format!("k{k}")), &k, |b, _| {
            let mut i = 0;
            b.iter(|| {
                let (s, t) = workload[i % workload.len()];
                i += 1;
                std::hint::black_box(scheme.route(s, t))
            });
        });
    }
    group.finish();
}

fn build_time(c: &mut Criterion) {
    let mut group = c.benchmark_group("theorem1/build");
    group.sample_size(10);
    for n in [128usize, 256] {
        let g = Family::Geometric.generate(n, 43);
        group.bench_with_input(BenchmarkId::from_parameter(format!("n{n}")), &n, |b, _| {
            b.iter(|| {
                std::hint::black_box(Scheme::build_on_demand(g.clone(), SchemeParams::new(3, 43)))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, route_throughput, build_time);
criterion_main!(benches);
