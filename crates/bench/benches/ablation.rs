//! Criterion ablations for the design choices called out in DESIGN.md §8:
//! leaf size, admissibility eta, and the sampling strategy behind
//! Algorithm 1. Each variant builds the same problem; throughput differences
//! expose the knob's cost, and accuracy assertions in the integration tests
//! cover its quality side.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use h2_core::{BasisMethod, H2Config, H2Matrix, MemoryMode};
use h2_kernels::Coulomb;
use h2_points::gen;
use std::sync::Arc;

const N: usize = 4_000;

fn cfg_with(leaf: usize, eta: f64) -> H2Config {
    H2Config {
        basis: BasisMethod::data_driven_for_tol(1e-6, 3),
        mode: MemoryMode::OnTheFly,
        leaf_size: leaf,
        eta,
        ..H2Config::default()
    }
}

fn bench_leaf_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation-leaf-size");
    group.sample_size(10);
    let pts = gen::uniform_cube(N, 3, 1);
    let b = h2_core::error_est::probe_vector(N, 2);
    for &leaf in &[32usize, 128, 512] {
        let h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg_with(leaf, 0.7));
        group.bench_with_input(BenchmarkId::new("matvec", leaf), &leaf, |bench, _| {
            bench.iter(|| h2.matvec(&b));
        });
        group.bench_with_input(BenchmarkId::new("construct", leaf), &leaf, |bench, _| {
            bench.iter(|| H2Matrix::build(&pts, Arc::new(Coulomb), &cfg_with(leaf, 0.7)));
        });
    }
    group.finish();
}

fn bench_eta(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation-eta");
    group.sample_size(10);
    let pts = gen::uniform_cube(N, 3, 1);
    let b = h2_core::error_est::probe_vector(N, 2);
    for &eta in &[0.5f64, 0.7, 0.9] {
        let h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg_with(128, eta));
        group.bench_with_input(
            BenchmarkId::new("matvec", format!("{eta}")),
            &eta,
            |bench, _| {
                bench.iter(|| h2.matvec(&b));
            },
        );
    }
    group.finish();
}

fn bench_sampling_strategy(c: &mut Criterion) {
    use h2_points::admissibility::build_block_lists;
    use h2_points::tree::{ClusterTree, TreeParams};
    use h2_sampling::*;

    let mut group = c.benchmark_group("ablation-sampling-strategy");
    group.sample_size(10);
    let pts = gen::uniform_cube(N, 3, 1);
    let tree = ClusterTree::build(&pts, TreeParams::default());
    let lists = build_block_lists(&tree, 0.7);
    let params = SampleParams::for_tolerance(1e-6, 3);
    let strategies: Vec<(&str, Box<dyn Sampler>)> = vec![
        ("anchor-net", Box::new(AnchorNet)),
        ("random", Box::new(UniformRandom)),
        ("farthest-point", Box::new(FarthestPoint)),
    ];
    for (name, s) in &strategies {
        group.bench_function(*name, |bench| {
            bench.iter(|| hierarchical_sample_with(&tree, &lists, &params, s.as_ref()));
        });
    }
    group.finish();
}

/// Basis-method ablation: the paper's data-driven sampling vs the classical
/// geometric proxy-surface skeletonization vs tensor interpolation, at one
/// accuracy.
fn bench_basis_method(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation-basis-method");
    group.sample_size(10);
    let pts = gen::uniform_cube(N, 3, 1);
    for (name, basis) in [
        ("data-driven", BasisMethod::data_driven_for_tol(1e-6, 3)),
        ("proxy-surface", BasisMethod::proxy_surface_for_tol(1e-6, 3)),
        ("interpolation", BasisMethod::interpolation_for_tol(1e-6, 3)),
    ] {
        let cfg = H2Config {
            basis,
            mode: MemoryMode::OnTheFly,
            ..H2Config::default()
        };
        group.bench_function(format!("construct/{name}"), |bench| {
            bench.iter(|| H2Matrix::build(&pts, Arc::new(Coulomb), &cfg));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_leaf_size,
    bench_eta,
    bench_sampling_strategy,
    bench_basis_method
);
criterion_main!(benches);
