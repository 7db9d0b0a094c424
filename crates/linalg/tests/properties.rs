//! Property-based tests for the dense linear-algebra substrate.

use h2_linalg::chol::Cholesky;
use h2_linalg::id::{column_id, column_id_rel_err, row_id, row_id_rel_err};
use h2_linalg::lu::Lu;
use h2_linalg::qr::{PivotedQr, Qr, Truncation};
use h2_linalg::Matrix;
use h2_points::gen::{cases, Rng};

const CASES: u64 = 24;

/// A matrix with entries uniform in `[-1, 1)`, drawn from the case's stream.
fn seeded_matrix(m: usize, n: usize, r: &mut Rng) -> Matrix {
    Matrix::from_fn(m, n, |_, _| r.unit() * 2.0 - 1.0)
}

fn low_rank(m: usize, n: usize, rank: usize, r: &mut Rng) -> Matrix {
    seeded_matrix(m, rank, r).matmul(&seeded_matrix(rank, n, r))
}

#[test]
fn qr_reconstruction() {
    cases(CASES, |r| {
        let m = 2 + r.below(22);
        let n = 1 + r.below(23);
        let a = seeded_matrix(m, n, r);
        let qr = Qr::new(a.clone());
        let rec = qr.q().matmul(&qr.r());
        assert!(rec.sub(&a).max_abs() < 1e-10);
        // Orthonormality of thin Q.
        let q = qr.q();
        let qtq = q.t_matmul(&q);
        let k = m.min(n);
        assert!(qtq.sub(&Matrix::identity(k)).max_abs() < 1e-10);
    });
}

#[test]
fn pivoted_qr_rank_detection() {
    cases(CASES, |r| {
        let m = 6 + r.below(24);
        let n = 6 + r.below(24);
        let rank = (1 + r.below(4)).min(m.min(n));
        let a = low_rank(m, n, rank, r);
        let pqr = PivotedQr::new(a, Truncation::tol(1e-9));
        assert!(
            pqr.rank() <= rank,
            "rank {} exceeded true rank {}",
            pqr.rank(),
            rank
        );
        // Rank can drop below `rank` only with vanishing probability; allow -1.
        assert!(pqr.rank() + 1 >= rank);
    });
}

#[test]
fn row_and_column_ids_reconstruct() {
    cases(CASES, |r| {
        let m = 5 + r.below(20);
        let n = 5 + r.below(20);
        let rank = (1 + r.below(3)).min(m.min(n));
        let a = low_rank(m, n, rank, r);
        let cid = column_id(&a, Truncation::tol(1e-10));
        assert!(column_id_rel_err(&a, &cid) < 1e-7);
        let rid = row_id(&a, Truncation::tol(1e-10));
        assert!(row_id_rel_err(&a, &rid) < 1e-7);
        // Interpolation coefficients of an ID are bounded-ish (pivoting
        // keeps them O(1) in practice; guard against wild instability).
        assert!(rid.p.max_abs() < 1e3);
    });
}

#[test]
fn lu_solves_diag_dominant() {
    cases(CASES, |r| {
        let n = 2 + r.below(18);
        let mut a = seeded_matrix(n, n, r);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let b = a.matvec(&x_true);
        let lu = Lu::new(a).unwrap();
        let x = lu.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-8);
        }
    });
}

#[test]
fn cholesky_round_trip() {
    cases(CASES, |r| {
        let n = 2 + r.below(14);
        let b = seeded_matrix(n, n, r);
        let mut a = b.t_matmul(&b);
        for i in 0..n {
            a[(i, i)] += 1.0;
        }
        let ch = Cholesky::new(a.clone()).unwrap();
        let rec = ch.l().matmul_t(ch.l());
        assert!(rec.sub(&a).max_abs() < 1e-9);
    });
}

#[test]
fn gemm_associates_with_matvec() {
    cases(CASES, |r| {
        let m = 1 + r.below(11);
        let k = 1 + r.below(11);
        let n = 1 + r.below(11);
        // (A B) x == A (B x)
        let a = seeded_matrix(m, k, r);
        let b = seeded_matrix(k, n, r);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 - 2.0) * 0.25).collect();
        let lhs = a.matmul(&b).matvec(&x);
        let rhs = a.matvec(&b.matvec(&x));
        for (u, v) in lhs.iter().zip(&rhs) {
            assert!((u - v).abs() < 1e-10 * (1.0 + v.abs()));
        }
    });
}

#[test]
fn transpose_matvec_adjoint() {
    cases(CASES, |r| {
        let m = 1 + r.below(14);
        let n = 1 + r.below(14);
        // <A x, y> == <x, A^T y>
        let a = seeded_matrix(m, n, r);
        let x: Vec<f64> = (0..n).map(|i| ((i * 3 % 7) as f64) - 3.0).collect();
        let y: Vec<f64> = (0..m).map(|i| ((i * 5 % 11) as f64) * 0.2).collect();
        let ax = a.matvec(&x);
        let aty = a.matvec_t(&y);
        let lhs: f64 = ax.iter().zip(&y).map(|(p, q)| p * q).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(p, q)| p * q).sum();
        assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
    });
}
