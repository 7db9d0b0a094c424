//! Property-based tests for the dense linear-algebra substrate.

use h2_linalg::chol::Cholesky;
use h2_linalg::id::{column_id, column_id_rel_err, row_id, row_id_rel_err};
use h2_linalg::lu::Lu;
use h2_linalg::qr::{PivotedQr, Truncation};
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
        // Full rank: A P = Q R with every column in R.
        let qr = PivotedQr::new(a.clone(), Truncation::rank(usize::MAX));
        let k = m.min(n);
        assert_eq!(qr.rank(), k);
        let rec = qr.q().matmul(&qr.r());
        assert!(rec.sub(&a.select_cols(qr.perm())).max_abs() < 1e-10);
        // Orthonormality of thin Q.
        let q = qr.q();
        let qtq = q.t_matmul(&q);
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

/// FNV-1a, one 64-bit word at a time.
fn fnv(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0100_0000_01b3)
}

#[test]
fn row_ids_keep_their_bits() {
    // Row IDs of kernel blocks shaped like the construction's `K(X_i, Y_i*)`
    // (node points against a far sample): FNV-1a over every skeleton index,
    // every bit of `P` and the rank. A pivot or a rounding that moves
    // changes the hash.
    use h2_linalg::id::row_id_consume;
    use h2_linalg::MatrixS;
    let x = h2_points::gen::uniform_cube(128, 3, 1);
    let y = h2_points::gen::uniform_cube(720, 3, 2);
    let block = |rows: usize, cols: usize, gauss: bool| {
        Matrix::from_fn(rows, cols, |i, j| {
            let d2: f64 = (x.point(i).iter().zip(y.point(j)))
                .map(|(a, b)| (a - b - 2.0) * (a - b - 2.0))
                .sum();
            if gauss {
                (-d2 / 4.0).exp()
            } else {
                1.0 / d2.sqrt()
            }
        })
    };
    let truncations = [
        Truncation::tol(1e-6),
        Truncation::tol(1e-9),
        Truncation {
            rel_tol: 1e-9,
            max_rank: 16,
        },
    ];
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for rows in [1, 3, 7, 64, 128] {
        for cols in [0, 5, 288, 720] {
            for gauss in [false, true] {
                let a = block(rows, cols, gauss);
                for trunc in truncations {
                    let id = row_id_consume(a.clone(), trunc);
                    h = fnv(h, id.skel.len() as u64);
                    h = id.skel.iter().fold(h, |h, &s| fnv(h, s as u64));
                    h = id.p.as_slice().iter().fold(h, |h, v| fnv(h, v.to_bits()));
                }
                let a32: MatrixS<f32> = a.convert();
                let id = row_id_consume(a32, Truncation::tol(1e-5));
                h = fnv(h, id.skel.len() as u64);
                h = id.skel.iter().fold(h, |h, &s| fnv(h, s as u64));
                h =
                    id.p.as_slice()
                        .iter()
                        .fold(h, |h, v| fnv(h, v.to_bits() as u64));
            }
        }
    }
    assert_eq!(h, 0x88d8_03f6_34f9_e654, "row ID hash {h:#018x}");
}

/// A value's bits for a hash, every NaN as one word: IEEE 754 leaves which
/// payload an operation on two NaNs returns to the implementation.
fn hash_bits(v: f64) -> u64 {
    if v.is_nan() {
        0x7ff8_0000_0000_0000
    } else {
        v.to_bits()
    }
}

#[test]
fn k1_applies_keep_their_bits() {
    // The panel applies at k = 1 and at k = 5 (one tile and one leftover
    // column) over blocks from empty to 109 × 109: FNV-1a over every output
    // of `matmat_acc`, `matmat_t_acc` and `matmat_bi_acc`, in f64/f64,
    // f32/f64 and f32/f32. Blocks, panels and starting outputs carry ±0;
    // the `special` cases add ±∞ and NaN. Panel column 0 of the forward `x`
    // has no zero in its first group of four block columns and exactly one
    // in the second, so both forms of the hoisted zero test run.
    use h2_linalg::panel::{matmat_acc, matmat_bi_acc, matmat_t_acc};
    use h2_linalg::Scalar;

    fn block<S: Scalar>(rows: usize, cols: usize, special: bool) -> Vec<S> {
        (0..rows * cols)
            .map(|e| {
                let (i, j) = (e % rows, e / rows);
                match ((i * 7 + j * 13 + 3) % 23, special && j == 1) {
                    (_, true) if i % 7 == 3 => S::from_f64(f64::INFINITY),
                    (_, true) if i % 7 == 5 => S::from_f64(f64::NEG_INFINITY),
                    (_, true) if i % 11 == 8 => S::from_f64(f64::NAN),
                    (0, _) => S::ZERO,
                    (1, _) => -S::ZERO,
                    (v, _) => S::from_f64(v as f64 / 9.0 - 1.3),
                }
            })
            .collect()
    }
    fn panel<A: Scalar>(len: usize, k: usize, seed: usize, special: bool) -> Vec<A> {
        (0..len * k)
            .map(|e| {
                let (i, c) = (e % len, e / len);
                match ((i * 5 + c * 3 + seed) % 19, special && c + 1 == k) {
                    _ if c == 0 && i == 6 => A::ZERO,
                    _ if c == 0 && i < 8 => A::from_f64(0.25 + i as f64),
                    (_, true) if i % 13 == 10 => A::from_f64(f64::INFINITY),
                    (_, true) if i % 17 == 12 => A::from_f64(f64::NEG_INFINITY),
                    (_, true) if i % 19 == 14 => A::from_f64(f64::NAN),
                    (0, _) => A::ZERO,
                    (1, _) => -A::ZERO,
                    (v, _) => A::from_f64(v as f64 / 7.0 - 1.2),
                }
            })
            .collect()
    }
    fn hash<S: Scalar, A: Scalar>(mut h: u64) -> u64 {
        let mut out = |v: &[A]| {
            for &e in v {
                h = fnv(h, hash_bits(e.to_f64()));
            }
        };
        for k in [1, 5] {
            for rows in [0, 1, 3, 7, 8, 9, 109] {
                for cols in [0, 1, 2, 3, 4, 5, 8, 9, 109] {
                    for special in [false, true] {
                        let b = block::<S>(rows, cols, special);
                        let (xf, xt) =
                            (panel::<A>(cols, k, 1, special), panel(rows, k, 2, special));
                        let (yf0, yt0) =
                            (panel::<A>(rows, k, 3, special), panel(cols, k, 4, special));
                        let mut yf = yf0.clone();
                        matmat_acc(&b, rows, cols, k, &xf, &mut yf);
                        out(&yf);
                        let mut yt = yt0.clone();
                        matmat_t_acc(&b, rows, cols, k, &xt, &mut yt);
                        out(&yt);
                        let (mut yf, mut yt) = (yf0, yt0);
                        matmat_bi_acc(&b, rows, cols, k, &xf, &mut yf, &xt, &mut yt);
                        out(&yf);
                        out(&yt);
                    }
                }
            }
        }
        h
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    h = hash::<f64, f64>(h);
    h = hash::<f32, f64>(h);
    h = hash::<f32, f32>(h);
    assert_eq!(h, 0x76c9_8b19_2c17_dd03, "k = 1 apply hash {h:#018x}");
}
