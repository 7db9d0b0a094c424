//! Property-based tests for the iterative solvers.

use h2_linalg::Matrix;
use h2_points::gen::{cases, Rng};
use h2_solvers::*;

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

fn diag_dominant(n: usize, r: &mut Rng) -> Matrix {
    let mut a = seeded_matrix(n, r);
    for i in 0..n {
        a[(i, i)] += n as f64 * 0.6 + 2.0;
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
        let op = DenseOperator::new(a);
        let sol = cg(
            &op,
            &b,
            &CgOptions {
                tol: 1e-12,
                max_iter: 10 * n + 20,
            },
        )
        .unwrap();
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
        let b = vec![1.0; n];
        let op = DenseOperator::new(a);
        let sol = cg(
            &op,
            &b,
            &CgOptions {
                tol: 1e-10,
                max_iter: 3 * n + 10,
            },
        )
        .unwrap();
        assert_eq!(sol.stop, StopReason::Converged);
        assert!(sol.iterations <= 3 * n + 10);
    });
}

#[test]
fn gmres_and_bicgstab_agree() {
    cases(CASES, |r| {
        let n = 3 + r.below(27);
        let a = diag_dominant(n, r);
        let b: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) * 0.4 - 1.0).collect();
        let op = DenseOperator::new(a);
        let g = gmres(
            &op,
            &b,
            &GmresOptions {
                tol: 1e-11,
                restart: 30,
                max_iter: 600,
            },
        )
        .unwrap();
        let s = bicgstab(
            &op,
            &b,
            &BiCgStabOptions {
                tol: 1e-11,
                max_iter: 600,
            },
        )
        .unwrap();
        assert_eq!(g.stop, StopReason::Converged);
        assert_eq!(s.stop, StopReason::Converged);
        for (u, v) in g.x.iter().zip(&s.x) {
            assert!((u - v).abs() < 1e-6 * (1.0 + v.abs()));
        }
    });
}

#[test]
fn solutions_satisfy_reported_residual() {
    cases(CASES, |r| {
        let n = 2 + r.below(23);
        let a = diag_dominant(n, r);
        let b = vec![1.0; n];
        let op = DenseOperator::new(a.clone());
        let sol = gmres(&op, &b, &GmresOptions::default()).unwrap();
        let ax = a.matvec(&sol.x);
        let res: f64 = ax
            .iter()
            .zip(&b)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        // The true residual must be within an order of the reported one
        // (restarted GMRES reports the recurrence residual).
        assert!(res / bn <= 10.0 * sol.rel_residual + 1e-9);
    });
}

#[test]
fn jacobi_never_hurts_much() {
    cases(CASES, |r| {
        let n = 4 + r.below(26);
        let a = spd(n, r);
        let diag: Vec<f64> = (0..n).map(|i| a[(i, i)]).collect();
        let b = vec![1.0; n];
        let op = DenseOperator::new(a);
        let plain = cg(&op, &b, &CgOptions::default()).unwrap();
        let pre = pcg(&op, &b, &JacobiPrecond::new(&diag), &CgOptions::default()).unwrap();
        assert_eq!(pre.stop, StopReason::Converged);
        assert!(pre.iterations <= plain.iterations * 2 + 5);
    });
}

#[test]
fn shifted_operator_shifts_spectrum() {
    cases(CASES, |r| {
        let n = 2 + r.below(18);
        let shift = 0.1 + r.unit() * 4.9;
        let a = seeded_matrix(n, r);
        let op = DenseOperator::new(a.clone());
        let sh = ShiftedOperator::new(&op, shift);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).cos()).collect();
        let y1 = sh.matvec(&x);
        let mut y2 = a.matvec(&x);
        for (v, xi) in y2.iter_mut().zip(&x) {
            *v += shift * xi;
        }
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-12 * (1.0 + v.abs()));
        }
    });
}
