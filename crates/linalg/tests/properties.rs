//! Property-based tests for the dense linear-algebra substrate.

use h2_linalg::chol::Cholesky;
use h2_linalg::id::{column_id, column_id_rel_err, row_id, row_id_rel_err};
use h2_linalg::lu::Lu;
use h2_linalg::qr::{PivotedQr, Qr, Truncation};
use h2_linalg::Matrix;
use proptest::prelude::*;

/// Deterministic pseudo-random matrix from a seed (keeps shrinking stable).
fn seeded_matrix(m: usize, n: usize, seed: u64) -> Matrix {
    let mut state = seed | 1;
    Matrix::from_fn(m, n, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    })
}

fn low_rank(m: usize, n: usize, r: usize, seed: u64) -> Matrix {
    seeded_matrix(m, r, seed).matmul(&seeded_matrix(r, n, seed ^ 0xABC))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn qr_reconstruction(m in 2usize..24, n in 1usize..24, seed in 0u64..1000) {
        let a = seeded_matrix(m, n, seed);
        let qr = Qr::new(a.clone());
        let rec = qr.q().matmul(&qr.r());
        prop_assert!(rec.sub(&a).max_abs() < 1e-10);
        // Orthonormality of thin Q.
        let q = qr.q();
        let qtq = q.t_matmul(&q);
        let k = m.min(n);
        prop_assert!(qtq.sub(&Matrix::identity(k)).max_abs() < 1e-10);
    }

    #[test]
    fn pivoted_qr_rank_detection(
        m in 6usize..30,
        n in 6usize..30,
        r in 1usize..5,
        seed in 0u64..1000,
    ) {
        let r = r.min(m.min(n));
        let a = low_rank(m, n, r, seed);
        let pqr = PivotedQr::new(a, Truncation::tol(1e-9));
        prop_assert!(pqr.rank() <= r, "rank {} exceeded true rank {}", pqr.rank(), r);
        // Rank can drop below r only with vanishing probability; allow -1.
        prop_assert!(pqr.rank() + 1 >= r);
    }

    #[test]
    fn row_and_column_ids_reconstruct(
        m in 5usize..25,
        n in 5usize..25,
        r in 1usize..4,
        seed in 0u64..1000,
    ) {
        let r = r.min(m.min(n));
        let a = low_rank(m, n, r, seed);
        let cid = column_id(&a, Truncation::tol(1e-10));
        prop_assert!(column_id_rel_err(&a, &cid) < 1e-7);
        let rid = row_id(&a, Truncation::tol(1e-10));
        prop_assert!(row_id_rel_err(&a, &rid) < 1e-7);
        // Interpolation coefficients of an ID are bounded-ish (pivoting
        // keeps them O(1) in practice; guard against wild instability).
        prop_assert!(rid.p.max_abs() < 1e3);
    }

    #[test]
    fn lu_solves_diag_dominant(n in 2usize..20, seed in 0u64..1000) {
        let mut a = seeded_matrix(n, n, seed);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let b = a.matvec(&x_true);
        let lu = Lu::new(a).unwrap();
        let x = lu.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            prop_assert!((xi - ti).abs() < 1e-8);
        }
    }

    #[test]
    fn cholesky_round_trip(n in 2usize..16, seed in 0u64..1000) {
        let b = seeded_matrix(n, n, seed);
        let mut a = b.t_matmul(&b);
        for i in 0..n {
            a[(i, i)] += 1.0;
        }
        let ch = Cholesky::new(a.clone()).unwrap();
        let rec = ch.l().matmul_t(ch.l());
        prop_assert!(rec.sub(&a).max_abs() < 1e-9);
    }

    #[test]
    fn gemm_associates_with_matvec(m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in 0u64..1000) {
        // (A B) x == A (B x)
        let a = seeded_matrix(m, k, seed);
        let b = seeded_matrix(k, n, seed ^ 1);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 - 2.0) * 0.25).collect();
        let lhs = a.matmul(&b).matvec(&x);
        let rhs = a.matvec(&b.matvec(&x));
        for (u, v) in lhs.iter().zip(&rhs) {
            prop_assert!((u - v).abs() < 1e-10 * (1.0 + v.abs()));
        }
    }

    #[test]
    fn transpose_matvec_adjoint(m in 1usize..15, n in 1usize..15, seed in 0u64..1000) {
        // <A x, y> == <x, A^T y>
        let a = seeded_matrix(m, n, seed);
        let x: Vec<f64> = (0..n).map(|i| ((i * 3 % 7) as f64) - 3.0).collect();
        let y: Vec<f64> = (0..m).map(|i| ((i * 5 % 11) as f64) * 0.2).collect();
        let ax = a.matvec(&x);
        let aty = a.matvec_t(&y);
        let lhs: f64 = ax.iter().zip(&y).map(|(p, q)| p * q).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(p, q)| p * q).sum();
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
    }
}
