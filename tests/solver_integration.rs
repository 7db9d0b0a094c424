//! Integration of the H² matvec with the CG solver — the paper's
//! motivating use case (amortizing one construction over many products) —
//! and the solver's properties on random dense SPD systems.

use h2mv::h2::error_est::probe_vector;
use h2mv::linalg::Matrix;
use h2mv::points::gen::{cases, Rng};
use h2mv::prelude::*;
use h2mv::solvers::{ShiftedOperator, StopReason};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A dense square matrix as an operator.
struct Dense(Matrix);

impl H2Operator for Dense {
    fn dims(&self) -> (usize, usize) {
        (self.0.nrows(), self.0.ncols())
    }
    fn matvec(&self, x: &[f64]) -> Vec<f64> {
        self.0.matvec(x)
    }
}

/// An H² matrix that counts its products.
struct Counting<'a>(&'a H2Matrix, AtomicUsize);

impl H2Operator for Counting<'_> {
    fn dims(&self) -> (usize, usize) {
        self.0.dims()
    }
    fn matvec(&self, x: &[f64]) -> Vec<f64> {
        self.1.fetch_add(1, Ordering::Relaxed);
        self.0.matvec(x)
    }
}

#[test]
fn cg_with_h2_operator_matches_dense_solve() {
    let n = 900;
    let pts = h2mv::points::gen::uniform_cube(n, 3, 1);
    let kernel = Gaussian { h: 0.2 };
    let lambda = 1e-2;

    // H2-accelerated operator.
    let cfg = H2Config {
        basis: BasisMethod::data_driven_for_tol(1e-9, 3),
        mode: MemoryMode::Normal,
        leaf_size: 64,
        eta: 0.7,
        ..H2Config::default()
    };
    let h2 = H2Matrix::build(&pts, Arc::new(kernel), &cfg);
    // H2Matrix is itself an H2Operator — no closure wrapper needed.
    let shifted = ShiftedOperator::new(&h2, lambda);

    let b: Vec<f64> = (0..n).map(|i| ((i % 17) as f64 - 8.0) * 0.1).collect();
    let sol = cg(
        &shifted,
        &b,
        &CgOptions {
            tol: 1e-10,
            max_iter: 2000,
        },
    )
    .unwrap();
    assert_eq!(
        sol.stop,
        StopReason::Converged,
        "residual {}",
        sol.rel_residual
    );

    // Dense reference solve of the exact system.
    let idx: Vec<usize> = (0..n).collect();
    let mut k = h2mv::kernels::kernel_matrix(&kernel, &pts, &idx, &idx);
    for i in 0..n {
        k[(i, i)] += lambda;
    }
    let x_ref = h2mv::linalg::lu::solve(&k, &b).unwrap();
    let err = h2mv::linalg::vec_ops::rel_err(&sol.x, &x_ref);
    assert!(err < 1e-5, "H2-CG vs dense solve differ: {err}");
}

#[test]
fn amortization_iteration_count_is_operator_applications() {
    // The SolveResult iteration count is exactly the number of H2 matvecs —
    // the quantity the paper's normal-vs-OTF break-even reasoning uses.
    let n = 400;
    let pts = h2mv::points::gen::uniform_cube(n, 2, 3);
    let cfg = H2Config {
        basis: BasisMethod::data_driven_for_tol(1e-7, 2),
        mode: MemoryMode::Normal,
        ..H2Config::default()
    };
    let h2 = H2Matrix::build(&pts, Arc::new(Gaussian { h: 0.3 }), &cfg);
    let op = Counting(&h2, AtomicUsize::new(0));
    let shifted = ShiftedOperator::new(&op, 1e-1);
    let sol = cg(&shifted, &vec![1.0; n], &CgOptions::default()).unwrap();
    assert_eq!(sol.iterations, op.1.load(Ordering::Relaxed));
}

#[test]
fn dense_operator_and_h2_operator_same_cg_trajectory() {
    // At tight H2 tolerance the CG convergence history should track the
    // dense operator's almost exactly for the first iterations.
    let n = 300;
    let pts = h2mv::points::gen::uniform_cube(n, 2, 4);
    let kernel = Gaussian { h: 0.2 };
    let idx: Vec<usize> = (0..n).collect();
    let mut k = h2mv::kernels::kernel_matrix(&kernel, &pts, &idx, &idx);
    for i in 0..n {
        k[(i, i)] += 0.1;
    }
    let dense_op = Dense(k);
    let cfg = H2Config {
        basis: BasisMethod::data_driven_for_tol(1e-10, 2),
        mode: MemoryMode::Normal,
        leaf_size: 40,
        eta: 0.7,
        ..H2Config::default()
    };
    let h2 = H2Matrix::build(&pts, Arc::new(kernel), &cfg);
    let h2_shift = ShiftedOperator::new(&h2, 0.1);
    let b = vec![1.0; n];
    let opts = CgOptions {
        tol: 1e-8,
        max_iter: 100,
    };
    let s1 = cg(&dense_op, &b, &opts).unwrap();
    let s2 = cg(&h2_shift, &b, &opts).unwrap();
    let k0 = s1.history.len().min(s2.history.len()).min(5);
    for i in 0..k0 {
        let (a, bb) = (s1.history[i], s2.history[i]);
        assert!(
            (a - bb).abs() < 1e-6 * (1.0 + a.abs()),
            "iteration {i}: {a} vs {bb}"
        );
    }
}

#[test]
fn cg_solves_through_a_sharded_operator() {
    // K + λI over the sharded operator: the solver only sees H2Operator.
    let n = 603;
    let pts = h2mv::points::gen::uniform_cube(n, 3, 42);
    let cfg = H2Config {
        basis: BasisMethod::data_driven_for_tol(1e-6, 3),
        mode: MemoryMode::OnTheFly,
        leaf_size: 32,
        eta: 0.7,
        ..H2Config::default()
    };
    let h2 = Arc::new(H2Matrix::build(&pts, Arc::new(Exponential), &cfg));
    let sh = ShardedH2::new(h2.clone(), 3).unwrap();
    let op = ShiftedOperator::new(&sh, 2.0);
    let b = probe_vector(n, 19);
    let sol = cg(&op, &b, &CgOptions::default()).unwrap();
    assert!(sol.rel_residual < 1e-8, "residual {}", sol.rel_residual);
    // Identical system through the serial operator → identical iterates.
    let serial_op = ShiftedOperator::new(&*h2, 2.0);
    let serial_sol = cg(&serial_op, &b, &CgOptions::default()).unwrap();
    assert_eq!(sol.x, serial_sol.x);
    assert_eq!(sol.iterations, serial_sol.iterations);
}

const CASES: u64 = 16;

/// A matrix with entries uniform in `[-0.5, 0.5)`, drawn from the case's
/// stream.
fn seeded_matrix(n: usize, r: &mut Rng) -> Matrix {
    Matrix::from_fn(n, n, |_, _| r.unit() - 0.5)
}

fn spd(n: usize, r: &mut Rng) -> Matrix {
    let b = seeded_matrix(n, r);
    let mut a = b.t_matmul(&b);
    for i in 0..n {
        a[(i, i)] += 1.0 + n as f64 * 0.05;
    }
    a
}

#[test]
fn cg_solves_any_spd() {
    cases(CASES, |r| {
        let n = 2 + r.below(38);
        let a = spd(n, r);
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let b = a.matvec(&x_true);
        let opts = CgOptions {
            tol: 1e-12,
            max_iter: 10 * n + 20,
        };
        let sol = cg(&Dense(a), &b, &opts).unwrap();
        assert_eq!(sol.stop, StopReason::Converged);
        for (xi, ti) in sol.x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-6 * (1.0 + ti.abs()));
        }
    });
}

#[test]
fn cg_converges_within_n_iterations_exactly() {
    cases(CASES, |r| {
        let n = 2 + r.below(28);
        // Exact-arithmetic CG terminates in <= n steps; allow slack for
        // floating point.
        let a = spd(n, r);
        let opts = CgOptions {
            tol: 1e-10,
            max_iter: 3 * n + 10,
        };
        let sol = cg(&Dense(a), &vec![1.0; n], &opts).unwrap();
        assert_eq!(sol.stop, StopReason::Converged);
        assert!(sol.iterations <= 3 * n + 10);
    });
}

#[test]
fn shifted_operator_shifts_spectrum() {
    cases(CASES, |r| {
        let n = 2 + r.below(18);
        let shift = 0.1 + r.unit() * 4.9;
        let a = seeded_matrix(n, r);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).cos()).collect();
        let mut y2 = a.matvec(&x);
        let op = Dense(a);
        let y1 = ShiftedOperator::new(&op, shift).matvec(&x);
        for (v, xi) in y2.iter_mut().zip(&x) {
            *v += shift * xi;
        }
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-12 * (1.0 + v.abs()));
        }
    });
}
