//! Criterion bench for experiment SF: scheme construction across
//! aspect ratios (the build cost must not grow with log Δ either).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphkit::gen;
use routing_core::{Scheme, SchemeParams};

fn build_vs_aspect_ratio(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale_free/build");
    group.sample_size(10);
    for e in [4u32, 20, 40] {
        let g = gen::exponential_ring(64, e);
        group.bench_with_input(BenchmarkId::from_parameter(format!("logdelta{e}")), &e, |b, _| {
            b.iter(|| {
                std::hint::black_box(Scheme::build_on_demand(g.clone(), SchemeParams::new(2, 8)))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, build_vs_aspect_ratio);
criterion_main!(benches);
