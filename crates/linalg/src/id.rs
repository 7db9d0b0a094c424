//! Interpolative decompositions (ID).
//!
//! A **column ID** of an `m x n` matrix `A` with tolerance `eps` is
//!
//! ```text
//! A  ≈  A[:, J] · Z          Z = [ I  T ] · P^T,   |J| = rank,
//! ```
//!
//! i.e. every column of `A` is expressed as a combination of a few selected
//! *skeleton* columns `J`. A **row ID** is the transpose statement
//!
//! ```text
//! A  ≈  P_interp · A[I, :]
//! ```
//!
//! Row IDs are the core primitive of the data-driven H² construction: the
//! selected rows `I` of `K(X_i, Y_i*)` are the skeleton points of node `i`,
//! and `P_interp` is the node's basis (leaf) or transfer (internal) matrix.
//!
//! Both are computed from a rank-revealing column-pivoted QR
//! ([`crate::qr::PivotedQr`]), with the interpolation coefficients obtained
//! by a triangular solve `T = R11^{-1} R12`.

use crate::matrix::MatrixS;
use crate::qr::{PivotedQr, Truncation};
use crate::scalar::Scalar;

/// Result of a column interpolative decomposition: `A ≈ A[:, skel] * z`.
#[derive(Clone, Debug)]
pub struct ColumnId<S: Scalar = f64> {
    /// Indices of the skeleton columns (into the original matrix).
    pub skel: Vec<usize>,
    /// Coefficient matrix `Z` (`rank x n`) with `A ≈ A[:, skel] * Z`.
    pub z: MatrixS<S>,
}

/// Result of a row interpolative decomposition: `A ≈ p * A[skel, :]`.
#[derive(Clone, Debug)]
pub struct RowId<S: Scalar = f64> {
    /// Indices of the skeleton rows (into the original matrix).
    pub skel: Vec<usize>,
    /// Interpolation operator `P` (`m x rank`) with `A ≈ P * A[skel, :]`.
    pub p: MatrixS<S>,
}

/// Computes a column ID of `a` at the given truncation.
pub fn column_id<S: Scalar>(a: &MatrixS<S>, trunc: Truncation) -> ColumnId<S> {
    let n = a.ncols();
    let pqr = PivotedQr::new(a.clone(), trunc);
    let k = pqr.rank();
    let t = pqr.interp_coeffs(); // k x (n - k), in pivoted order
    let perm = pqr.perm();
    let skel: Vec<usize> = perm[..k].to_vec();
    // Z in original column order: Z[:, perm[j]] = e_j for j < k,
    // Z[:, perm[k + j]] = T[:, j].
    let mut z = MatrixS::zeros(k, n);
    for (j, &pj) in perm.iter().enumerate() {
        if j < k {
            z[(j, pj)] = S::ONE;
        } else {
            for i in 0..k {
                z[(i, pj)] = t[(i, j - k)];
            }
        }
    }
    ColumnId { skel, z }
}

/// Computes a row ID of `a` at the given truncation (column ID of `a^T`).
pub fn row_id<S: Scalar>(a: &MatrixS<S>, trunc: Truncation) -> RowId<S> {
    let cid = column_id(&a.transpose(), trunc);
    RowId {
        skel: cid.skel,
        p: cid.z.transpose(),
    }
}

/// Row ID computed directly from a matrix that is *consumed* (avoids one
/// clone on the hot construction path).
pub fn row_id_consume<S: Scalar>(a: MatrixS<S>, trunc: Truncation) -> RowId<S> {
    let at = a.transpose();
    drop(a);
    row_id_transposed(at, trunc)
}

/// Row ID of `A` from `Aᵀ`, which is consumed: the column ID of `Aᵀ`, its
/// coefficients laid out as `P`. A caller that can fill `Aᵀ` directly (a
/// symmetric kernel's block evaluated with its two point lists swapped)
/// skips the transposing copy of [`row_id_consume`], with the same bits.
pub fn row_id_transposed<S: Scalar>(at: MatrixS<S>, trunc: Truncation) -> RowId<S> {
    let n = at.ncols();
    let pqr = PivotedQr::new(at, trunc);
    let k = pqr.rank();
    let t = pqr.interp_coeffs();
    let perm = pqr.perm();
    let skel: Vec<usize> = perm[..k].to_vec();
    let mut p = MatrixS::zeros(n, k);
    for (j, &pj) in perm.iter().enumerate() {
        if j < k {
            p[(pj, j)] = S::ONE;
        } else {
            for i in 0..k {
                p[(pj, i)] = t[(i, j - k)];
            }
        }
    }
    RowId { skel, p }
}

/// Low-rank approximation error `||A - A[:,J] Z||_F / ||A||_F` of a column
/// ID (test/diagnostic helper; reported in `f64` regardless of `S`).
pub fn column_id_rel_err<S: Scalar>(a: &MatrixS<S>, id: &ColumnId<S>) -> f64 {
    let rec = a.select_cols(&id.skel).matmul(&id.z);
    let denom = a.fro_norm().to_f64();
    if denom == 0.0 {
        return 0.0;
    }
    rec.sub(a).fro_norm().to_f64() / denom
}

/// Low-rank approximation error of a row ID.
pub fn row_id_rel_err<S: Scalar>(a: &MatrixS<S>, id: &RowId<S>) -> f64 {
    let rec = id.p.matmul(&a.select_rows(&id.skel));
    let denom = a.fro_norm().to_f64();
    if denom == 0.0 {
        return 0.0;
    }
    rec.sub(a).fro_norm().to_f64() / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn rand_matrix(m: usize, n: usize, seed: u64) -> Matrix {
        let mut state = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        Matrix::from_fn(m, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    fn low_rank(m: usize, n: usize, r: usize, seed: u64) -> Matrix {
        rand_matrix(m, r, seed).matmul(&rand_matrix(r, n, seed + 1))
    }

    #[test]
    fn column_id_exact_on_low_rank() {
        let a = low_rank(16, 12, 4, 3);
        let id = column_id(&a, Truncation::tol(1e-12));
        assert_eq!(id.skel.len(), 4);
        assert!(column_id_rel_err(&a, &id) < 1e-10);
    }

    #[test]
    fn row_id_exact_on_low_rank() {
        let a = low_rank(14, 18, 5, 8);
        let id = row_id(&a, Truncation::tol(1e-12));
        assert_eq!(id.skel.len(), 5);
        assert!(row_id_rel_err(&a, &id) < 1e-10);
    }

    #[test]
    fn row_id_consume_matches_row_id() {
        let a = low_rank(11, 9, 3, 5);
        let id1 = row_id(&a, Truncation::tol(1e-12));
        let id2 = row_id_consume(a.clone(), Truncation::tol(1e-12));
        assert_eq!(id1.skel, id2.skel);
        assert!(id1.p.sub(&id2.p).max_abs() < 1e-13);
    }

    #[test]
    fn skeleton_rows_interpolate_exactly() {
        // P restricted to skeleton rows must be the identity.
        let a = low_rank(10, 8, 3, 17);
        let id = row_id(&a, Truncation::tol(1e-12));
        let p_skel = id.p.select_rows(&id.skel);
        assert!(p_skel.sub(&Matrix::identity(id.skel.len())).max_abs() < 1e-12);
    }

    #[test]
    fn row_id_f32_low_rank() {
        // The same decomposition carried out natively in f32 still finds
        // the exact rank and interpolates to single-precision accuracy.
        let a32: MatrixS<f32> = low_rank(14, 18, 5, 8).convert();
        let id = row_id(&a32, Truncation::tol(1e-5));
        assert_eq!(id.skel.len(), 5);
        assert!(row_id_rel_err(&a32, &id) < 1e-4);
    }

    #[test]
    fn tolerance_controls_rank_and_error() {
        // Matrix with geometrically decaying singular values.
        let n = 24;
        let u = rand_matrix(n, n, 1);
        let qu = PivotedQr::new(u, Truncation::rank(n)).q();
        let v = rand_matrix(n, n, 2);
        let qv = PivotedQr::new(v, Truncation::rank(n)).q();
        let mut s = Matrix::zeros(n, n);
        for i in 0..n {
            s[(i, i)] = 10f64.powi(-(i as i32) / 2);
        }
        let a = qu.matmul(&s).matmul_t(&qv);
        let loose = row_id(&a, Truncation::tol(1e-3));
        let tight = row_id(&a, Truncation::tol(1e-8));
        assert!(loose.skel.len() < tight.skel.len());
        assert!(row_id_rel_err(&a, &loose) < 1e-2);
        assert!(row_id_rel_err(&a, &tight) < 1e-6);
    }

    #[test]
    fn rank_capped_id() {
        let a = rand_matrix(20, 20, 4);
        let id = column_id(&a, Truncation::rank(6));
        assert_eq!(id.skel.len(), 6);
        assert_eq!(id.z.shape(), (6, 20));
    }

    #[test]
    fn id_of_zero_matrix_is_rank_zero() {
        let a = Matrix::zeros(7, 5);
        let id = column_id(&a, Truncation::tol(1e-10));
        assert_eq!(id.skel.len(), 0);
        assert_eq!(column_id_rel_err(&a, &id), 0.0);
    }

    #[test]
    fn id_of_empty_matrix() {
        let a = Matrix::zeros(0, 5);
        let id = column_id(&a, Truncation::tol(1e-10));
        assert_eq!(id.skel.len(), 0);
        let b = Matrix::zeros(5, 0);
        let id = row_id(&b, Truncation::tol(1e-10));
        assert_eq!(id.skel.len(), 0);
    }
}
