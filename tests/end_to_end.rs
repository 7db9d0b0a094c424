//! End-to-end integration tests: every construction method x memory mode x
//! kernel x distribution path through the public API, validated against the
//! exact dense product.

use h2mv::h2::error_est::probe_vector;
use h2mv::prelude::*;
use std::sync::Arc;

fn true_rel_err(h2: &H2Matrix, b: &[f64], y: &[f64]) -> f64 {
    let z = h2mv::kernels::dense_matvec(h2.kernel(), h2.tree().points(), b);
    let _ = y;
    h2mv::linalg::vec_ops::rel_err(y, &z)
}

#[test]
fn all_four_paper_configs_reach_tolerance() {
    let n = 1200;
    let pts = h2mv::points::gen::uniform_cube(n, 3, 1);
    let b = probe_vector(n, 2);
    for (basis, tol_factor) in [
        (BasisMethod::data_driven_for_tol(1e-6, 3), 50.0),
        (BasisMethod::interpolation_for_tol(1e-6, 3), 50.0),
    ] {
        for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
            let cfg = H2Config {
                basis: basis.clone(),
                mode,
                leaf_size: 64,
                eta: 0.7,
                ..H2Config::default()
            };
            let h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg);
            let y = h2.matvec(&b);
            let err = true_rel_err(&h2, &b, &y);
            assert!(
                err < 1e-6 * tol_factor,
                "{} / {:?}: err {err}",
                cfg.basis.name(),
                mode
            );
        }
    }
}

#[test]
fn every_paper_kernel_on_every_distribution() {
    let n = 800;
    for dist in [
        Distribution3d::Cube,
        Distribution3d::Sphere,
        Distribution3d::Dino,
    ] {
        let pts = dist.generate(n, 3);
        let b = probe_vector(n, 4);
        for (kname, kernel) in h2mv::kernels::paper_kernels() {
            let kernel: Arc<dyn Kernel> = kernel.into();
            let cfg = H2Config {
                basis: BasisMethod::data_driven_for_tol(1e-6, 3),
                mode: MemoryMode::OnTheFly,
                leaf_size: 64,
                eta: 0.7,
                ..H2Config::default()
            };
            let h2 = H2Matrix::build(&pts, kernel, &cfg);
            let y = h2.matvec(&b);
            let err = true_rel_err(&h2, &b, &y);
            assert!(err < 1e-4, "{kname} on {}: err {err}", dist.name());
        }
    }
}

#[test]
fn normal_and_otf_agree_to_rounding() {
    let n = 1000;
    let pts = h2mv::points::gen::sphere_surface(n, 3, 5);
    let b = probe_vector(n, 6);
    let mk = |mode| {
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-7, 3),
            mode,
            leaf_size: 50,
            eta: 0.7,
            ..H2Config::default()
        };
        H2Matrix::build(&pts, Arc::new(Exponential), &cfg)
    };
    let y1 = mk(MemoryMode::Normal).matvec(&b);
    let y2 = mk(MemoryMode::OnTheFly).matvec(&b);
    assert!(h2mv::linalg::vec_ops::rel_err(&y1, &y2) < 1e-13);
}

#[test]
fn memory_ordering_matches_paper_table1() {
    // interpolation/normal > data-driven/normal > interpolation/otf >
    // data-driven/otf (the ordering of the paper's Table I memory column).
    let n = 4000;
    let pts = h2mv::points::gen::uniform_cube(n, 3, 7);
    let mem = |basis: BasisMethod, mode| {
        let cfg = H2Config {
            basis,
            mode,
            ..H2Config::default()
        };
        H2Matrix::build(&pts, Arc::new(Coulomb), &cfg)
            .memory_report()
            .generators()
    };
    let tol = 1e-6;
    let inorm = mem(
        BasisMethod::interpolation_for_tol(tol, 3),
        MemoryMode::Normal,
    );
    let dnorm = mem(BasisMethod::data_driven_for_tol(tol, 3), MemoryMode::Normal);
    let iotf = mem(
        BasisMethod::interpolation_for_tol(tol, 3),
        MemoryMode::OnTheFly,
    );
    let dotf = mem(
        BasisMethod::data_driven_for_tol(tol, 3),
        MemoryMode::OnTheFly,
    );
    assert!(inorm > dnorm, "interp/normal {inorm} <= dd/normal {dnorm}");
    assert!(dnorm > iotf, "dd/normal {dnorm} <= interp/otf {iotf}");
    assert!(iotf > dotf, "interp/otf {iotf} <= dd/otf {dotf}");
}

#[test]
fn proxy_surface_method_reaches_tolerance() {
    // The geometric ablation baseline must also pass end-to-end, in both
    // memory modes (its couplings are kernel submatrices like data-driven).
    let n = 1000;
    let pts = h2mv::points::gen::uniform_cube(n, 3, 21);
    let b = probe_vector(n, 22);
    for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
        let cfg = H2Config {
            basis: BasisMethod::proxy_surface_for_tol(1e-6, 3),
            mode,
            leaf_size: 64,
            eta: 0.7,
            ..H2Config::default()
        };
        let h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg);
        let y = h2.matvec(&b);
        let err = true_rel_err(&h2, &b, &y);
        assert!(err < 1e-4, "proxy-surface {mode:?}: err {err}");
    }
}

#[test]
fn composite_kernel_end_to_end() {
    // A caller's own kernel, `0.5·exp(−r) + Gaussian`, through the trait's
    // entrywise defaults: the data-driven sampling never looks at the kernel.
    struct ScaledExpPlusGaussian;
    impl Kernel for ScaledExpPlusGaussian {
        fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
            0.5 * Exponential.eval(x, y) + Gaussian { h: 0.3 }.eval(x, y)
        }
    }
    let n = 800;
    let pts = h2mv::points::gen::uniform_cube(n, 3, 23);
    let kernel = ScaledExpPlusGaussian;
    let cfg = H2Config {
        basis: BasisMethod::data_driven_for_tol(1e-6, 3),
        mode: MemoryMode::OnTheFly,
        ..H2Config::default()
    };
    let h2 = H2Matrix::build(&pts, Arc::new(kernel), &cfg);
    let b = probe_vector(n, 24);
    let y = h2.matvec(&b);
    let err = true_rel_err(&h2, &b, &y);
    assert!(err < 1e-5, "composite kernel err {err}");
}

#[test]
fn dino_distribution_is_handled() {
    // The paper includes dino precisely because non-uniform data stresses
    // adaptive partitioning.
    let n = 2000;
    let pts = h2mv::points::gen::dino(n, 9);
    let cfg = H2Config {
        basis: BasisMethod::data_driven_for_tol(1e-7, 3),
        mode: MemoryMode::OnTheFly,
        ..H2Config::default()
    };
    let h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg);
    let b = probe_vector(n, 10);
    let y = h2.matvec(&b);
    assert!(true_rel_err(&h2, &b, &y) < 1e-5);
}

#[test]
fn high_dimensional_data_driven_works() {
    for d in [4usize, 5, 6] {
        let n = 900;
        let pts = h2mv::points::gen::uniform_cube(n, d, 11);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-5, d),
            mode: MemoryMode::OnTheFly,
            leaf_size: 64,
            eta: 0.7,
            ..H2Config::default()
        };
        let h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg);
        let b = probe_vector(n, 12);
        let y = h2.matvec(&b);
        let err = true_rel_err(&h2, &b, &y);
        assert!(err < 1e-4, "d={d}: err {err}");
    }
}

#[test]
fn vector_panel_and_sharded_products_agree_bitwise() {
    // One sweep engine behind three entry points: the vector product, any
    // column of the panel product, and the sharded product are the same
    // bits, in both memory modes.
    let n = 900;
    let pts = h2mv::points::gen::uniform_cube(n, 3, 13);
    for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-6, 3),
            mode,
            leaf_size: 48,
            ..H2Config::default()
        };
        let h2 = Arc::new(H2Matrix::build(&pts, Arc::new(Coulomb), &cfg));
        let cols: Vec<Vec<f64>> = (0..3).map(|c| probe_vector(n, 14 + c)).collect();
        let panel = h2mv::linalg::Matrix::from_fn(n, 3, |i, j| cols[j][i]);
        let y = h2.matmat(&panel);
        let sharded = ShardedH2::new(h2.clone(), 3).unwrap();
        for c in 0..3 {
            let yc = h2.matvec(panel.col(c));
            assert_eq!(y.col(c), &yc[..], "{}: column {c}", mode.name());
            assert_eq!(sharded.matvec(panel.col(c)), yc, "{}: sharded", mode.name());
        }
    }
}

#[test]
fn repeated_matvecs_are_deterministic() {
    let n = 600;
    let pts = h2mv::points::gen::uniform_cube(n, 2, 15);
    let cfg = H2Config {
        basis: BasisMethod::data_driven_for_tol(1e-6, 2),
        mode: MemoryMode::OnTheFly,
        ..H2Config::default()
    };
    let h2 = H2Matrix::build(&pts, Arc::new(Gaussian::paper()), &cfg);
    let b = probe_vector(n, 16);
    let y1 = h2.matvec(&b);
    let y2 = h2.matvec(&b);
    assert_eq!(y1, y2, "matvec must be bit-reproducible");
}

#[test]
fn thread_pool_results_identical_across_pool_sizes() {
    // Fig. 7's precondition: neither the parallel construction nor the
    // parallel schedule may change one bit — the operator is built inside
    // the pool too — and the schedule must really have run that wide.
    let n = 1000;
    let pts = h2mv::points::gen::uniform_cube(n, 3, 17);
    let b = probe_vector(n, 18);
    let run = |threads: usize| {
        let pool = h2mv::thread_pool(threads);
        pool.install(|| {
            let cfg = H2Config {
                basis: BasisMethod::data_driven_for_tol(1e-6, 3),
                mode: MemoryMode::OnTheFly,
                ..H2Config::default()
            };
            let h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg);
            // Eight leaf groups: every width up to 8 finds work.
            assert_eq!(h2.tree().level_with_cut(8), Some(3));
            let spawned = h2mv::h2::diagnostics::counters::scope();
            let y = h2.matvec(&b);
            let helpers = spawned.count("sweep.helper_threads");
            assert_eq!(helpers as usize + 1, threads, "the sweep's width");
            (h2.ranks().to_vec(), y)
        })
    };
    let y1 = run(1);
    for threads in [2, 3, 8] {
        assert_eq!(run(threads), y1, "{threads} threads changed the answer");
    }
}
