//! Column-pivoted (rank-revealing) Householder QR.
//!
//! [`PivotedQr`] is the workhorse of the interpolative
//! decomposition in [`crate::id`]: Businger–Golub column pivoting with
//! downdated column norms (and periodic recomputation for numerical safety),
//! truncated either at a fixed rank or at a relative tolerance on the
//! R-diagonal — exactly the rank-revealing behaviour the data-driven H²
//! construction relies on to pick skeleton points.
//!
//! The factorization is generic over [`Scalar`]. Tolerance-truncated
//! pivoted QR clamps the requested tolerance to [`Scalar::SAFE_REL_TOL`]
//! (a few machine epsilons): below that the downdated column norms are
//! roundoff, and the pivot loop would chase noise instead of rank.

use crate::blas;
use crate::matrix::MatrixS;
use crate::scalar::Scalar;

/// Applies the Householder reflector stored in `v` (implicit leading 1) to a
/// column slice: `x -= tau * v (v . x)` where `v = [1, fact[k+1..m, k]]`.
#[inline(always)]
fn apply_reflector<S: Scalar>(v_tail: &[S], tau: S, x: &mut [S]) {
    // x[0] pairs with the implicit 1 at the head of v.
    let w = x[0] + blas::dot(v_tail, &x[1..]);
    let t = tau * w;
    x[0] -= t;
    blas::axpy(-t, v_tail, &mut x[1..]);
}

/// The one trailing update: applies the reflector `[1, v_tail]` with
/// coefficient `tau` to rows `row0..` of every column of the column-major
/// `cols` (`ld` rows each, `ld - row0 = v_tail.len() + 1`). Each column gets
/// exactly [`apply_reflector`]'s bits; the widest compile this host has
/// runs it.
fn reflect<S: Scalar>(v_tail: &[S], tau: S, cols: &mut [S], ld: usize, row0: usize) {
    assert_eq!(ld - row0, v_tail.len() + 1, "reflect: column length");
    assert_eq!(cols.len() % ld, 0, "reflect: whole columns");
    if tau == S::ZERO {
        return;
    }
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if crate::simd::avx2() {
        // SAFETY: `reflect_avx2` is a safe function whose only requirement
        // of its caller is that the CPU supports AVX2, which `simd::avx2`
        // on the line above has just established.
        return unsafe { reflect_avx2(v_tail, tau, cols, ld, row0) };
    }
    reflect_baseline(v_tail, tau, cols, ld, row0)
}

/// [`reflect_baseline`] compiled with 256-bit vectors; AVX2 without `fma`,
/// so nothing is contracted and the bits are the baseline's.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn reflect_avx2<S: Scalar>(v_tail: &[S], tau: S, cols: &mut [S], ld: usize, row0: usize) {
    reflect_baseline(v_tail, tau, cols, ld, row0)
}

/// `s[l] += v[l] · y[l]` for the four lanes of one partial-sum vector.
#[inline(always)]
fn madd4<S: Scalar>(s: &mut [S; 4], v: &[S], y: &[S]) {
    for l in 0..4 {
        s[l] += v[l] * y[l];
    }
}

/// `(s0 + s1) + (s2 + s3)`. Out of line, so that the compiler keeps each
/// column's four partial sums in one vector instead of one vector per lane
/// across the four columns, which costs a shuffle per load.
#[inline(never)]
fn combine<S: Scalar>(s: &[S; 4]) -> S {
    (s[0] + s[1]) + (s[2] + s[3])
}

/// The body of [`reflect`]. Four columns share each pass over `v_tail` for
/// their dots, each dot in [`blas::dot`]'s order: four strided partial sums
/// (the lanes of one vector), `(s0 + s1) + (s2 + s3)`, then the tail in
/// sequence. The fewer than four columns left over take [`apply_reflector`].
#[inline(always)]
fn reflect_baseline<S: Scalar>(v_tail: &[S], tau: S, cols: &mut [S], ld: usize, row0: usize) {
    let mut quads = cols.chunks_exact_mut(4 * ld);
    for quad in &mut quads {
        let (c0, rest) = quad.split_at_mut(ld);
        let (c1, rest) = rest.split_at_mut(ld);
        let (c2, c3) = rest.split_at_mut(ld);
        let mut x = [
            &mut c0[row0..],
            &mut c1[row0..],
            &mut c2[row0..],
            &mut c3[row0..],
        ];
        let [t0, t1, t2, t3] = x.each_ref().map(|xc| xc[1..].chunks_exact(4));
        let [mut s0, mut s1, mut s2, mut s3] = [[S::ZERO; 4]; 4];
        for ((((v, y0), y1), y2), y3) in v_tail.chunks_exact(4).zip(t0).zip(t1).zip(t2).zip(t3) {
            madd4(&mut s0, v, y0);
            madd4(&mut s1, v, y1);
            madd4(&mut s2, v, y2);
            madd4(&mut s3, v, y3);
        }
        let body = v_tail.len() - v_tail.len() % 4;
        for (xc, sc) in x.iter_mut().zip([s0, s1, s2, s3]) {
            let mut d = combine(&sc);
            for (&v, &y) in v_tail[body..].iter().zip(&xc[1 + body..]) {
                d += v * y;
            }
            let t = tau * (xc[0] + d);
            xc[0] -= t;
            blas::axpy(-t, v_tail, &mut xc[1..]);
        }
    }
    for col in quads.into_remainder().chunks_exact_mut(ld) {
        apply_reflector(v_tail, tau, &mut col[row0..]);
    }
}

/// Builds a Householder reflector for `col` in place.
///
/// On return `col[0]` holds the reflector's first component pre-beta, the
/// tail holds `v[1..]` (with the implicit `v[0] = 1`), and the function
/// returns `(tau, beta)` where `beta` is the resulting R diagonal entry.
fn make_reflector<S: Scalar>(col: &mut [S]) -> (S, S) {
    let alpha = col[0];
    let xnorm = blas::nrm2(&col[1..]);
    if xnorm == S::ZERO {
        return (S::ZERO, alpha);
    }
    let beta = -alpha.signum() * (alpha * alpha + xnorm * xnorm).sqrt();
    let tau = (beta - alpha) / beta;
    let scale = S::ONE / (alpha - beta);
    blas::scal(scale, &mut col[1..]);
    (tau, beta)
}

/// Column-pivoted, tolerance-truncated QR: `A P = Q R`.
///
/// The factorization stops as soon as the largest remaining column norm
/// drops below `tol * ||largest initial column||` (or at `max_rank`). The
/// selected pivot order is exactly the skeleton-selection rule of the
/// interpolative decomposition.
#[derive(Clone, Debug)]
pub struct PivotedQr<S: Scalar = f64> {
    /// Compact factorization, columns permuted (R upper, reflectors lower).
    fact: MatrixS<S>,
    /// Householder coefficients for the first `rank` reflectors.
    tau: Vec<S>,
    /// `perm[k]` = original column index now in position k.
    perm: Vec<usize>,
    /// Numerical rank at the requested truncation.
    rank: usize,
}

/// Truncation policy for [`PivotedQr::new`].
#[derive(Clone, Copy, Debug)]
pub struct Truncation {
    /// Relative tolerance on the R diagonal (vs. the first pivot). `0.0`
    /// disables tolerance-based stopping.
    pub rel_tol: f64,
    /// Hard cap on the rank. `usize::MAX` disables it.
    pub max_rank: usize,
}

impl Truncation {
    /// Truncate at relative tolerance only.
    pub fn tol(rel_tol: f64) -> Self {
        Truncation {
            rel_tol,
            max_rank: usize::MAX,
        }
    }

    /// Truncate at fixed rank only.
    pub fn rank(max_rank: usize) -> Self {
        Truncation {
            rel_tol: 0.0,
            max_rank,
        }
    }
}

impl<S: Scalar> PivotedQr<S> {
    /// Factorizes `a` (consumed) with Businger–Golub column pivoting.
    pub fn new(mut a: MatrixS<S>, trunc: Truncation) -> Self {
        let (m, n) = a.shape();
        let kmax = m.min(n).min(trunc.max_rank);
        let mut perm: Vec<usize> = (0..n).collect();
        let mut tau = Vec::with_capacity(kmax);

        // A tolerance below what this precision resolves would have the
        // pivot loop chasing roundoff in the downdated norms: clamp it.
        let rel_tol = if trunc.rel_tol > 0.0 {
            trunc.rel_tol.max(S::SAFE_REL_TOL)
        } else {
            0.0
        };

        // Squared column norms, downdated as the factorization proceeds.
        let mut norms2: Vec<S> = (0..n).map(|j| blas::dot(a.col(j), a.col(j))).collect();
        let mut exact2 = norms2.clone();
        let norm0 = norms2.iter().cloned().fold(S::ZERO, S::max).sqrt();
        let thresh2 = if norm0 == S::ZERO {
            S::from_f64(f64::INFINITY) // all-zero matrix: rank 0
        } else {
            let t = S::from_f64(rel_tol) * norm0;
            t * t
        };

        let mut rank = 0;
        for k in 0..kmax {
            // Pick pivot column.
            let (piv, &pnorm2) = norms2[k..]
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, v)| (i + k, v))
                .unwrap();
            if rel_tol > 0.0 && pnorm2 <= thresh2 {
                break;
            }
            if pnorm2 <= S::ZERO {
                break;
            }
            if piv != k {
                a.swap_cols(k, piv);
                norms2.swap(k, piv);
                exact2.swap(k, piv);
                perm.swap(k, piv);
            }
            // Householder step.
            let (t, beta) = {
                let col = &mut a.col_mut(k)[k..];
                make_reflector(col)
            };
            tau.push(t);
            let (head, trailing) = a.as_mut_slice().split_at_mut((k + 1) * m);
            reflect(&head[k * m + k + 1..], t, trailing, m, k);
            a.col_mut(k)[k] = beta;
            rank = k + 1;
            // Downdate column norms; recompute when cancellation bites
            // (standard LAPACK-style safeguard).
            for jj in (k + 1)..n {
                let rkj = a[(k, jj)];
                let updated = norms2[jj] - rkj * rkj;
                if updated > S::from_f64(0.01) * exact2[jj] {
                    norms2[jj] = updated.max(S::ZERO);
                } else {
                    let tail = &a.col(jj)[k + 1..];
                    let fresh = blas::dot(tail, tail);
                    norms2[jj] = fresh;
                    exact2[jj] = fresh;
                }
            }
        }
        PivotedQr {
            fact: a,
            tau,
            perm,
            rank,
        }
    }

    /// Numerical rank at the requested truncation.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// `perm[k]` = original index of the column pivoted to position k. The
    /// first [`Self::rank`] entries are the skeleton columns.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// R factor truncated to `rank` rows (rank x n, columns in pivot order).
    pub fn r(&self) -> MatrixS<S> {
        let n = self.fact.ncols();
        MatrixS::from_fn(self.rank, n, |i, j| {
            if i <= j {
                self.fact[(i, j)]
            } else {
                S::ZERO
            }
        })
    }

    /// Thin Q (m x rank).
    pub fn q(&self) -> MatrixS<S> {
        let m = self.fact.nrows();
        let k = self.rank;
        let mut q = MatrixS::zeros(m, k);
        for i in 0..k {
            q[(i, i)] = S::ONE;
        }
        for j in (0..k).rev() {
            reflect(
                &self.fact.col(j)[j + 1..],
                self.tau[j],
                q.as_mut_slice(),
                m,
                j,
            );
        }
        q
    }

    /// Solves `R11 * X = R12` where `R11` is the leading `rank x rank`
    /// triangle and `R12` the trailing `rank x (n - rank)` block. This is the
    /// interpolation-coefficient solve of the ID. Returns `X`
    /// (`rank x (n - rank)`).
    pub fn interp_coeffs(&self) -> MatrixS<S> {
        let n = self.fact.ncols();
        let k = self.rank;
        let mut x = self.fact_block(k, n);
        // Back substitution on each column: R11 X = R12.
        for jj in 0..x.ncols() {
            for i in (0..k).rev() {
                let mut s = x[(i, jj)];
                for l in (i + 1)..k {
                    s -= self.fact[(i, l)] * x[(l, jj)];
                }
                let rii = self.fact[(i, i)];
                // rii cannot be zero for i < rank by construction, but guard
                // against denormal pathologies.
                x[(i, jj)] = if rii != S::ZERO { s / rii } else { S::ZERO };
            }
        }
        x
    }

    /// The trailing block `fact[0..k, k..n]` (i.e. R12).
    fn fact_block(&self, k: usize, n: usize) -> MatrixS<S> {
        MatrixS::from_fn(k, n - k, |i, j| self.fact[(i, k + j)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::scalar::bits;

    fn rand_matrix(m: usize, n: usize, seed: u64) -> Matrix {
        // Simple deterministic LCG so this module doesn't need rand.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Matrix::from_fn(m, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    /// Columns of `ld` entries, `n` of them, with ±0, ±∞ and NaN in the
    /// second column (rows `row0..`) when `special`.
    fn columns<S: Scalar>(ld: usize, n: usize, row0: usize, special: bool) -> Vec<S> {
        let mut c: Vec<S> = (0..ld * n)
            .map(|e| match (e * 37 + 11) % 29 {
                0 => S::ZERO,
                1 => -S::ZERO,
                v => S::from_f64(v as f64 / 13.0 - 1.1),
            })
            .collect();
        if special && n > 1 {
            let col = &mut c[ld + row0..2 * ld];
            let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
            for (x, v) in col.iter_mut().zip(specials) {
                *x = S::from_f64(v);
            }
        }
        c
    }

    /// Runs `check(what, v_tail, tau, cols, ld, row0)` on reflector lengths
    /// across the four-row blocking, column counts across the four-column
    /// groups, at a row offset and with non-finite entries.
    fn for_each_case<S: Scalar>(mut check: impl FnMut(&str, &[S], S, &[S], usize, usize)) {
        for m in [1, 2, 3, 4, 5, 8, 9, 17, 300] {
            for n in (0..=9).chain([13]) {
                for (row0, special) in [(0, false), (2, false), (0, true), (3, true)] {
                    let ld = row0 + m;
                    let v: Vec<S> = columns(m - 1, 1, 0, false);
                    let cols = columns::<S>(ld, n, row0, special);
                    let what = format!("{} m={m} n={n} row0={row0} special={special}", S::NAME);
                    check(&what, &v, S::from_f64(1.37), &cols, ld, row0);
                }
            }
        }
    }

    /// The trailing update ≡ one [`apply_reflector`] per column.
    fn assert_per_column<S: Scalar>() {
        for_each_case::<S>(|what, v, tau, cols, ld, row0| {
            let mut want = cols.to_vec();
            for col in want.chunks_exact_mut(ld) {
                apply_reflector(v, tau, &mut col[row0..]);
            }
            let mut got = cols.to_vec();
            reflect_baseline(v, tau, &mut got, ld, row0);
            assert_eq!(bits(&got), bits(&want), "{what}");
        });
    }

    /// The dispatched compile ≡ the baseline compile.
    fn assert_dispatch<S: Scalar>() {
        for_each_case::<S>(|what, v, tau, cols, ld, row0| {
            let (mut base, mut got) = (cols.to_vec(), cols.to_vec());
            reflect_baseline(v, tau, &mut base, ld, row0);
            reflect(v, tau, &mut got, ld, row0);
            assert_eq!(bits(&got), bits(&base), "{what}");
        });
    }

    #[test]
    fn trailing_update_has_the_per_column_bits() {
        assert_per_column::<f64>();
        assert_per_column::<f32>();
    }

    #[test]
    fn dispatched_compile_has_the_baseline_bits() {
        if !crate::simd::avx2() {
            eprintln!("no AVX2 on this host: comparing the baseline compile with itself");
        }
        assert_dispatch::<f64>();
        assert_dispatch::<f32>();
    }

    #[test]
    fn pivoted_qr_f32_reconstructs() {
        let a32: MatrixS<f32> = rand_matrix(8, 5, 42).convert();
        let pqr = PivotedQr::new(a32.clone(), Truncation::rank(5));
        let rec = pqr.q().matmul(&pqr.r());
        assert!(rec.sub(&a32.select_cols(pqr.perm())).max_abs() < 1e-5);
        let qtq = pqr.q().t_matmul(&pqr.q());
        assert!(qtq.sub(&MatrixS::<f32>::identity(5)).max_abs() < 1e-5);
    }

    #[test]
    fn pivoted_qr_full_rank_reconstructs() {
        let a = rand_matrix(9, 6, 5);
        let pqr = PivotedQr::new(a.clone(), Truncation::tol(1e-14));
        assert_eq!(pqr.rank(), 6);
        let qr_prod = pqr.q().matmul(&pqr.r());
        // q*r equals A with columns permuted.
        let ap = a.select_cols(pqr.perm());
        assert!(qr_prod.sub(&ap).max_abs() < 1e-11);
    }

    #[test]
    fn pivoted_qr_detects_low_rank() {
        // Rank-3 matrix: outer product structure.
        let u = rand_matrix(20, 3, 1);
        let v = rand_matrix(15, 3, 2);
        let a = u.matmul_t(&v);
        let pqr = PivotedQr::new(a, Truncation::tol(1e-10));
        assert_eq!(pqr.rank(), 3);
    }

    #[test]
    fn pivoted_qr_f32_clamps_tolerance_to_precision() {
        // Rank-3 matrix in f32 with a tolerance far below f32 resolution:
        // without the SAFE_REL_TOL clamp the factorization would keep
        // pivoting on roundoff and report (near-)full rank.
        let u = rand_matrix(20, 3, 1);
        let v = rand_matrix(15, 3, 2);
        let a32: MatrixS<f32> = u.matmul_t(&v).convert();
        let pqr = PivotedQr::new(a32, Truncation::tol(1e-14));
        assert_eq!(pqr.rank(), 3);
    }

    #[test]
    fn pivoted_qr_rank_cap() {
        let a = rand_matrix(10, 10, 9);
        let pqr = PivotedQr::new(a, Truncation::rank(4));
        assert_eq!(pqr.rank(), 4);
    }

    #[test]
    fn pivoted_qr_zero_matrix() {
        let a = Matrix::zeros(5, 4);
        let pqr = PivotedQr::new(a, Truncation::tol(1e-10));
        assert_eq!(pqr.rank(), 0);
    }

    #[test]
    fn pivoted_qr_interp_coeffs_solve() {
        let a = rand_matrix(8, 8, 13);
        let pqr = PivotedQr::new(a, Truncation::rank(5));
        let x = pqr.interp_coeffs();
        assert_eq!(x.shape(), (5, 3));
        // Verify R11 * X = R12.
        let r = pqr.r();
        let r11 = r.block(0..5, 0..5);
        let r12 = r.block(0..5, 5..8);
        let res = r11.matmul(&x).sub(&r12);
        assert!(res.max_abs() < 1e-10);
    }

    #[test]
    fn pivot_order_decreasing_diagonal() {
        let a = rand_matrix(30, 20, 21);
        let pqr = PivotedQr::new(a, Truncation::tol(1e-13));
        let r = pqr.r();
        for i in 1..pqr.rank() {
            assert!(
                r[(i, i)].abs() <= r[(i - 1, i - 1)].abs() * (1.0 + 1e-10),
                "diagonal should be non-increasing"
            );
        }
    }
}
