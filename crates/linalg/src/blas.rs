//! BLAS-style building blocks: dot products, axpy, and blocked gemm variants.
//!
//! The gemm kernels use a simple cache-blocked rank-1-update-free formulation
//! (jik loop order over column panels) that LLVM auto-vectorizes well; above
//! a flop threshold the columns of the result are one step of the scoped
//! executor ([`crate::exec`]), as wide as the caller's width — which is 1
//! inside an executor task, where a product of any size runs inline.
//!
//! `dot` and `axpy` take *two* scalar parameters — `S` for the stored data
//! and `A` for the vector being accumulated into. Stored values are promoted
//! `S -> A` before the multiply, so `S = f32, A = f64` gives the
//! mixed-precision accumulation the H² sweeps use, while `S = A`
//! instantiations compile to exactly the old same-type code (promotion is
//! the identity).

use crate::exec;
use crate::matrix::MatrixS;
use crate::scalar::Scalar;

/// Flop count above which gemm parallelizes over the columns of the result.
const PAR_FLOP_THRESHOLD: usize = 1 << 22;

/// Threads a product of `flops` flops may use: the caller's width above the
/// threshold, one below it.
fn gemm_width(flops: usize) -> usize {
    if flops >= PAR_FLOP_THRESHOLD {
        exec::width()
    } else {
        1
    }
}

/// `sum_i x_i * y_i`, accumulated in `A` (entries of `x` promoted `S -> A`).
/// Unrolled by 4 to expose ILP; slices must match length. Always inlined,
/// so that the panel kernels' AVX2 compile (`crate::panel`) compiles it too.
#[inline(always)]
pub fn dot<S: Scalar, A: Scalar>(x: &[S], y: &[A]) -> A {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let chunks = n / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (A::ZERO, A::ZERO, A::ZERO, A::ZERO);
    for c in 0..chunks {
        let i = 4 * c;
        s0 += x[i].promote::<A>() * y[i];
        s1 += x[i + 1].promote::<A>() * y[i + 1];
        s2 += x[i + 2].promote::<A>() * y[i + 2];
        s3 += x[i + 3].promote::<A>() * y[i + 3];
    }
    let mut s = (s0 + s1) + (s2 + s3);
    for i in 4 * chunks..n {
        s += x[i].promote::<A>() * y[i];
    }
    s
}

/// `y += alpha * x`, accumulated in `A` (entries of `x` promoted `S -> A`).
/// Always inlined, as [`dot`] is.
#[inline(always)]
pub fn axpy<S: Scalar, A: Scalar>(alpha: A, x: &[S], y: &mut [A]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi.promote::<A>();
    }
}

/// Pairwise sum of `(x_i * inv)^2`: O(eps * log n) error growth instead of
/// the O(eps * n) of a running sum, so the norm itself doesn't pollute
/// f32-vs-f64 accuracy comparisons.
fn pairwise_sq_sum<S: Scalar>(x: &[S], inv: S) -> S {
    if x.len() <= 32 {
        let mut s = S::ZERO;
        for &v in x {
            let t = v * inv;
            s += t * t;
        }
        s
    } else {
        let mid = x.len() / 2;
        pairwise_sq_sum(&x[..mid], inv) + pairwise_sq_sum(&x[mid..], inv)
    }
}

/// Euclidean norm with overflow-safe scaling for large entries and pairwise
/// accumulation of the squared sum.
#[inline]
pub fn nrm2<S: Scalar>(x: &[S]) -> S {
    let mx = x.iter().fold(S::ZERO, |m, &v| m.max(v.abs()));
    if mx == S::ZERO || !mx.is_finite() {
        return mx;
    }
    let inv = S::ONE / mx;
    let s = pairwise_sq_sum(x, inv);
    mx * s.sqrt()
}

/// Scales a vector in place.
#[inline]
pub fn scal<S: Scalar>(alpha: S, x: &mut [S]) {
    for v in x {
        *v *= alpha;
    }
}

/// Computes one column panel of `C = A * B`: `c_col = A * b_col`.
#[inline]
fn gemm_col<S: Scalar>(a: &MatrixS<S>, b_col: &[S], c_col: &mut [S]) {
    c_col.fill(S::ZERO);
    for (k, &bk) in b_col.iter().enumerate() {
        if bk != S::ZERO {
            axpy(bk, a.col(k), c_col);
        }
    }
}

/// Dense `A * B`, one task per column of the result.
pub fn gemm<S: Scalar>(a: &MatrixS<S>, b: &MatrixS<S>) -> MatrixS<S> {
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "gemm: inner dims {} vs {}",
        a.ncols(),
        b.nrows()
    );
    let (m, n) = (a.nrows(), b.ncols());
    let mut c = MatrixS::zeros(m, n);
    let width = gemm_width(2 * m * n * a.ncols());
    exec::for_each_chunk(width, c.as_mut_slice(), m, |j, c_col| {
        gemm_col(a, b.col(j), c_col)
    });
    c
}

/// `A^T * B` without materializing `A^T`. Column j of the result is
/// `A^T b_j`, i.e. entry (i, j) is `dot(a_col_i, b_col_j)`.
pub fn gemm_tn<S: Scalar>(a: &MatrixS<S>, b: &MatrixS<S>) -> MatrixS<S> {
    assert_eq!(
        a.nrows(),
        b.nrows(),
        "gemm_tn: inner dims {} vs {}",
        a.nrows(),
        b.nrows()
    );
    let (m, n) = (a.ncols(), b.ncols());
    let mut c = MatrixS::zeros(m, n);
    let width = gemm_width(2 * m * n * a.nrows());
    exec::for_each_chunk(width, c.as_mut_slice(), m, |j, c_col| {
        let bj = b.col(j);
        for (i, ci) in c_col.iter_mut().enumerate() {
            *ci = dot(a.col(i), bj);
        }
    });
    c
}

/// `A * B^T` without materializing `B^T`.
pub fn gemm_nt<S: Scalar>(a: &MatrixS<S>, b: &MatrixS<S>) -> MatrixS<S> {
    assert_eq!(
        a.ncols(),
        b.ncols(),
        "gemm_nt: inner dims {} vs {}",
        a.ncols(),
        b.ncols()
    );
    let (m, n) = (a.nrows(), b.nrows());
    let mut c = MatrixS::zeros(m, n);
    // C = sum_k a_col_k * (b_col_k)^T: rank-1 updates, organised per C column.
    // Column j of C accumulates a_col_k * B[j, k] over k.
    let width = gemm_width(2 * m * n * a.ncols());
    exec::for_each_chunk(width, c.as_mut_slice(), m, |j, c_col| {
        c_col.fill(S::ZERO);
        for k in 0..a.ncols() {
            let bjk = b[(j, k)];
            if bjk != S::ZERO {
                axpy(bjk, a.col(k), c_col);
            }
        }
    });
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn naive_gemm(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.nrows(), b.ncols(), |i, j| {
            (0..a.ncols()).map(|k| a[(i, k)] * b[(k, j)]).sum()
        })
    }

    #[test]
    fn dot_matches_naive() {
        let x: Vec<f64> = (0..17).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..17).map(|i| (i * i) as f64 * 0.1).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - naive).abs() < 1e-9);
    }

    #[test]
    fn mixed_dot_promotes_exactly() {
        // f32 storage against an f64 vector equals widening the storage
        // first and doing everything in f64.
        let xs: Vec<f32> = (0..13).map(|i| (i as f32) * 0.3 - 1.5).collect();
        let yw: Vec<f64> = (0..13).map(|i| (i as f64) * 0.7 - 4.0).collect();
        let wide: Vec<f64> = xs.iter().map(|&v| v as f64).collect();
        assert_eq!(dot(&xs, &yw), dot(&wide, &yw));
        let mut acc = vec![0.5_f64; 13];
        let mut acc_wide = acc.clone();
        axpy(1.25_f64, &xs, &mut acc);
        axpy(1.25_f64, &wide, &mut acc_wide);
        assert_eq!(acc, acc_wide);
    }

    #[test]
    fn nrm2_robust_to_scaling() {
        assert_eq!(nrm2(&[] as &[f64]), 0.0);
        assert_eq!(nrm2(&[0.0, 0.0]), 0.0);
        assert!((nrm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        // Entries whose squares would overflow.
        let big = 1e200;
        let v = [big, big];
        assert!((nrm2(&v) - big * 2.0_f64.sqrt()).abs() / nrm2(&v) < 1e-14);
    }

    #[test]
    fn nrm2_pairwise_beats_naive_in_f32() {
        // A long vector of identical entries: the exact norm is known, and
        // a naive running f32 sum drifts visibly while pairwise stays tight.
        let n = 1 << 16;
        let v = vec![1.0_f32; n];
        let exact = (n as f64).sqrt();
        let pairwise_err = (nrm2(&v) as f64 - exact).abs() / exact;
        let naive: f32 = v.iter().map(|&x| x * x).sum();
        let naive_err = (naive.sqrt() as f64 - exact).abs() / exact;
        assert!(pairwise_err < 1e-6, "pairwise rel err {pairwise_err:.2e}");
        assert!(
            pairwise_err <= naive_err,
            "pairwise {pairwise_err:.2e} vs naive {naive_err:.2e}"
        );
    }

    #[test]
    fn gemm_matches_naive() {
        let a = Matrix::from_fn(7, 5, |i, j| ((i + 1) * (j + 2)) as f64 * 0.1);
        let b = Matrix::from_fn(5, 9, |i, j| (i as f64 - j as f64) * 0.3);
        let c = gemm(&a, &b);
        let n = naive_gemm(&a, &b);
        assert!(c.sub(&n).max_abs() < 1e-12);
    }

    #[test]
    fn gemm_tn_matches_transpose() {
        let a = Matrix::from_fn(6, 4, |i, j| (i * 4 + j) as f64 * 0.05);
        let b = Matrix::from_fn(6, 3, |i, j| (i + 2 * j) as f64 * 0.02);
        let c = gemm_tn(&a, &b);
        let expect = naive_gemm(&a.transpose(), &b);
        assert!(c.sub(&expect).max_abs() < 1e-12);
    }

    #[test]
    fn gemm_nt_matches_transpose() {
        let a = Matrix::from_fn(6, 4, |i, j| (i * 4 + j) as f64 * 0.05);
        let b = Matrix::from_fn(5, 4, |i, j| (i + 2 * j) as f64 * 0.02);
        let c = gemm_nt(&a, &b);
        let expect = naive_gemm(&a, &b.transpose());
        assert!(c.sub(&expect).max_abs() < 1e-12);
    }

    #[test]
    fn gemm_large_parallel_path() {
        // Big enough to trip the parallel threshold.
        let a = Matrix::from_fn(200, 150, |i, j| ((i * 31 + j * 17) % 13) as f64 * 0.1);
        let b = Matrix::from_fn(150, 180, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.1);
        let c = gemm(&a, &b);
        let n = naive_gemm(&a, &b);
        assert!(c.sub(&n).max_abs() < 1e-9);

        // One task per column: the same bits at any width, for all three
        // variants, whether the columns ran on helpers or inline.
        const { assert!(2 * 200 * 150 * 180 >= PAR_FLOP_THRESHOLD) };
        let (at, bt) = (a.transpose(), b.transpose());
        let all = || (gemm(&a, &b), gemm_tn(&at, &b), gemm_nt(&a, &bt));
        let one = exec::Width::new(1).install(all);
        assert_eq!(one.0, c);
        for w in [2, 3] {
            exec::Width::new(w).install(|| {
                assert_eq!(gemm_width(PAR_FLOP_THRESHOLD), w);
                assert_eq!(gemm_width(PAR_FLOP_THRESHOLD - 1), 1);
                assert_eq!(all(), one, "width {w}");
                // Inside a task of a wide step the product runs inline.
                for inside in exec::map(&[(); 2], |()| (gemm_width(usize::MAX), all())) {
                    assert_eq!(inside, (1, one.clone()), "in a task at width {w}");
                }
            });
        }
    }

    #[test]
    fn gemm_identity() {
        let a = Matrix::from_fn(4, 4, |i, j| (i + j) as f64);
        let i4 = Matrix::identity(4);
        assert_eq!(gemm(&a, &i4), a);
        assert_eq!(gemm(&i4, &a), a);
    }

    #[test]
    fn gemm_f32_matches_f64_reference() {
        let a32 = MatrixS::<f32>::from_fn(9, 6, |i, j| ((i * 5 + j) % 7) as f32 * 0.25);
        let b32 = MatrixS::<f32>::from_fn(6, 4, |i, j| ((i + 3 * j) % 5) as f32 * 0.5);
        let c32 = gemm(&a32, &b32);
        let c64 = gemm(&a32.convert::<f64>(), &b32.convert::<f64>());
        // Entries here are small dyadic rationals: both precisions are exact.
        assert_eq!(c32.convert::<f64>(), c64);
    }

    #[test]
    fn gemm_empty_dims() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        let c = gemm(&a, &b);
        assert_eq!(c.shape(), (3, 2));
        assert!(c.as_slice().iter().all(|&v| v == 0.0));
    }
}
