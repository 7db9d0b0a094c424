//! Criterion microbench: H² construction across {method} x {memory mode}.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use h2_core::{BasisMethod, H2Config, H2Matrix, MemoryMode};
use h2_kernels::Coulomb;
use h2_points::gen;
use std::sync::Arc;

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("construction");
    group.sample_size(10);
    let n = 4_000usize;
    let pts = gen::uniform_cube(n, 3, 1);
    for (label, basis, mode) in [
        (
            "dd/normal",
            BasisMethod::data_driven_for_tol(1e-6, 3),
            MemoryMode::Normal,
        ),
        (
            "dd/otf",
            BasisMethod::data_driven_for_tol(1e-6, 3),
            MemoryMode::OnTheFly,
        ),
        (
            "interp/normal",
            BasisMethod::interpolation_for_tol(1e-6, 3),
            MemoryMode::Normal,
        ),
        (
            "interp/otf",
            BasisMethod::interpolation_for_tol(1e-6, 3),
            MemoryMode::OnTheFly,
        ),
    ] {
        let cfg = H2Config {
            basis,
            mode,
            ..H2Config::default()
        };
        group.bench_with_input(BenchmarkId::new(label, n), &n, |bench, _| {
            bench.iter(|| H2Matrix::build(&pts, Arc::new(Coulomb), &cfg));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_construction);
criterion_main!(benches);
