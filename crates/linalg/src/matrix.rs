//! Dense column-major matrix type.
//!
//! [`MatrixS`] stores entries of any [`Scalar`] contiguously column by
//! column, the layout used by LAPACK and friendliest to the column-oriented
//! factorizations in this crate (Householder QR sweeps whole columns).
//! Row-major callers can use [`MatrixS::transpose`]. The [`Matrix`] alias
//! pins `S = f64`, which is what almost all call sites mean.
//!
//! The apply methods (`matvec*`) take a second scalar parameter `A` for the
//! vector type: entries are promoted `S -> A` during accumulation. With
//! `A = S` this is the plain same-precision product (promotion is the
//! identity); with `S = f32, A = f64` it is the mixed-precision mode —
//! `f32` storage, `f64` accumulation.

use crate::blas;
use crate::panel;
use crate::scalar::Scalar;
use crate::slab::{SlabMem, SlabSlice};

/// A dense column-major matrix over a [`Scalar`] element type.
///
/// Entry `(i, j)` lives at `data[i + j * nrows]`. The type is deliberately
/// small: a buffer plus two dimensions. The buffer is an owned `Vec<S>`,
/// or [`MatrixS::from_slab`] wraps a read-only [`SlabSlice`] view instead
/// (a stored block: in the slab a block plan wrote, or in an `mmap`ed
/// operator file) — every read path works identically on both backings,
/// and the first mutation promotes a view to an owned copy
/// (copy-on-write), so mutating call sites never observe the difference.
#[derive(Clone, Debug, Default)]
pub struct MatrixS<S: Scalar = f64> {
    nrows: usize,
    ncols: usize,
    data: Buf<S>,
}

/// The storage behind a [`MatrixS`]: owned heap data or a borrowed view
/// into a shared read-only slab.
#[derive(Clone, Debug)]
enum Buf<S: Scalar> {
    Owned(Vec<S>),
    Mapped(SlabSlice<S>),
}

impl<S: Scalar> Default for Buf<S> {
    fn default() -> Self {
        Buf::Owned(Vec::new())
    }
}

impl<S: Scalar> Buf<S> {
    #[inline]
    fn as_slice(&self) -> &[S] {
        match self {
            Buf::Owned(v) => v,
            Buf::Mapped(m) => m.as_slice(),
        }
    }

    /// Copy-on-write promotion: a mapped buffer becomes an owned copy the
    /// first time mutable access is requested.
    #[inline]
    fn make_owned(&mut self) -> &mut Vec<S> {
        if let Buf::Mapped(m) = self {
            *self = Buf::Owned(m.as_slice().to_vec());
        }
        match self {
            Buf::Owned(v) => v,
            Buf::Mapped(_) => unreachable!("promoted above"),
        }
    }

    fn into_vec(self) -> Vec<S> {
        match self {
            Buf::Owned(v) => v,
            Buf::Mapped(m) => m.as_slice().to_vec(),
        }
    }
}

impl<S: Scalar> PartialEq for MatrixS<S> {
    fn eq(&self, other: &Self) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.as_slice() == other.as_slice()
    }
}

/// The `f64` matrix every pre-existing call site works with.
pub type Matrix = MatrixS<f64>;

impl<S: Scalar> MatrixS<S> {
    /// Creates an `nrows x ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        MatrixS {
            nrows,
            ncols,
            data: Buf::Owned(vec![S::ZERO; nrows * ncols]),
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = MatrixS::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = S::ONE;
        }
        m
    }

    /// Builds a matrix from a function of the index pair.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> S) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                data.push(f(i, j));
            }
        }
        MatrixS {
            nrows,
            ncols,
            data: Buf::Owned(data),
        }
    }

    /// Wraps an existing column-major buffer. `data.len()` must equal
    /// `nrows * ncols`.
    pub fn from_col_major(nrows: usize, ncols: usize, data: Vec<S>) -> Self {
        assert_eq!(
            data.len(),
            nrows * ncols,
            "buffer length {} != {} x {}",
            data.len(),
            nrows,
            ncols
        );
        MatrixS {
            nrows,
            ncols,
            data: Buf::Owned(data),
        }
    }

    /// Wraps a read-only slab view as a matrix without copying — the
    /// zero-copy backing used by `mmap`ed operator files. `data.len()` must
    /// equal `nrows * ncols`. Read paths (including every `matvec*` apply)
    /// run the exact same code as on owned storage; the first mutation
    /// promotes the buffer to an owned copy.
    pub fn from_slab(nrows: usize, ncols: usize, data: SlabSlice<S>) -> Self {
        assert_eq!(
            data.len(),
            nrows * ncols,
            "slab view length {} != {} x {}",
            data.len(),
            nrows,
            ncols
        );
        MatrixS {
            nrows,
            ncols,
            data: Buf::Mapped(data),
        }
    }

    /// True when the buffer is a borrowed slab view rather than owned heap
    /// data.
    pub fn is_mapped(&self) -> bool {
        matches!(self.data, Buf::Mapped(_))
    }

    /// Bytes of this matrix backed by a file mapping (0 for owned storage
    /// and for a view of a written or heap slab). The complement of
    /// [`MatrixS::bytes`] for memory accounting: mapped pages belong to
    /// the page cache, not this process.
    pub fn mapped_bytes(&self) -> usize {
        match &self.data {
            Buf::Mapped(m) if m.is_file_mapping() => m.len() * S::BYTES,
            _ => 0,
        }
    }

    /// The slab a view reads (`None` for owned storage): views that share
    /// one are one allocation, which a holder of several can count once.
    pub fn slab(&self) -> Option<&std::sync::Arc<SlabMem>> {
        match &self.data {
            Buf::Owned(_) => None,
            Buf::Mapped(m) => Some(m.mem()),
        }
    }

    /// Builds a matrix from row-major data (convenient in tests).
    pub fn from_rows(rows: &[Vec<S>]) -> Self {
        let nrows = rows.len();
        let ncols = if nrows == 0 { 0 } else { rows[0].len() };
        for r in rows {
            assert_eq!(r.len(), ncols, "ragged rows");
        }
        MatrixS::from_fn(nrows, ncols, |i, j| rows[i][j])
    }

    /// Entrywise conversion to another scalar type (through `f64`; exact
    /// unless narrowing to `f32`).
    pub fn convert<T: Scalar>(&self) -> MatrixS<T> {
        MatrixS {
            nrows: self.nrows,
            ncols: self.ncols,
            data: Buf::Owned(self.as_slice().iter().map(|v| v.promote()).collect()),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `(nrows, ncols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// True if either dimension is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nrows == 0 || self.ncols == 0
    }

    /// The underlying column-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[S] {
        self.data.as_slice()
    }

    /// Mutable access to the underlying column-major buffer (promotes a
    /// mapped buffer to an owned copy first).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        self.data.make_owned()
    }

    /// Consumes the matrix, returning its buffer (copied out of the slab
    /// for mapped storage).
    pub fn into_vec(self) -> Vec<S> {
        self.data.into_vec()
    }

    /// Column `j` as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[S] {
        debug_assert!(j < self.ncols);
        &self.data.as_slice()[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Column `j` as a mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [S] {
        let nrows = self.nrows;
        debug_assert!(j < self.ncols);
        &mut self.data.make_owned()[j * nrows..(j + 1) * nrows]
    }

    /// Two distinct columns, mutably (used by pivoted QR for swaps).
    pub fn cols_mut_pair(&mut self, a: usize, b: usize) -> (&mut [S], &mut [S]) {
        assert_ne!(a, b);
        let n = self.nrows;
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (left, right) = self.data.make_owned().split_at_mut(hi * n);
        let first = &mut left[lo * n..(lo + 1) * n];
        let second = &mut right[..n];
        if a < b {
            (first, second)
        } else {
            (second, first)
        }
    }

    /// Copies row `i` into a new vector.
    pub fn row(&self, i: usize) -> Vec<S> {
        (0..self.ncols).map(|j| self[(i, j)]).collect()
    }

    /// Swaps columns `a` and `b`.
    pub fn swap_cols(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (ca, cb) = self.cols_mut_pair(a, b);
        ca.swap_with_slice(cb);
    }

    /// Swaps rows `a` and `b`.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (nrows, ncols) = (self.nrows, self.ncols);
        let data = self.data.make_owned();
        for j in 0..ncols {
            data.swap(a + j * nrows, b + j * nrows);
        }
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> MatrixS<S> {
        let mut t = MatrixS::zeros(self.ncols, self.nrows);
        let src = self.as_slice();
        let dst = t.data.make_owned();
        // Blocked transpose for cache friendliness on large matrices.
        const B: usize = 32;
        for jb in (0..self.ncols).step_by(B) {
            for ib in (0..self.nrows).step_by(B) {
                for j in jb..(jb + B).min(self.ncols) {
                    for i in ib..(ib + B).min(self.nrows) {
                        dst[j + i * self.ncols] = src[i + j * self.nrows];
                    }
                }
            }
        }
        t
    }

    /// Extracts the submatrix with the given row and column index lists
    /// (indices may repeat and need not be sorted).
    pub fn select(&self, rows: &[usize], cols: &[usize]) -> MatrixS<S> {
        MatrixS::from_fn(rows.len(), cols.len(), |i, j| self[(rows[i], cols[j])])
    }

    /// Extracts the given rows (all columns).
    pub fn select_rows(&self, rows: &[usize]) -> MatrixS<S> {
        MatrixS::from_fn(rows.len(), self.ncols, |i, j| self[(rows[i], j)])
    }

    /// Extracts the given columns (all rows).
    pub fn select_cols(&self, cols: &[usize]) -> MatrixS<S> {
        let mut out = MatrixS::zeros(self.nrows, cols.len());
        for (jj, &j) in cols.iter().enumerate() {
            out.col_mut(jj).copy_from_slice(self.col(j));
        }
        out
    }

    /// Contiguous block `rows.start..rows.end` x `cols.start..cols.end`.
    pub fn block(&self, rows: std::ops::Range<usize>, cols: std::ops::Range<usize>) -> MatrixS<S> {
        assert!(rows.end <= self.nrows && cols.end <= self.ncols);
        let mut out = MatrixS::zeros(rows.len(), cols.len());
        for (jj, j) in cols.clone().enumerate() {
            out.col_mut(jj)
                .copy_from_slice(&self.col(j)[rows.start..rows.end]);
        }
        out
    }

    /// Writes `src` into the block starting at `(row0, col0)`.
    pub fn set_block(&mut self, row0: usize, col0: usize, src: &MatrixS<S>) {
        assert!(row0 + src.nrows <= self.nrows && col0 + src.ncols <= self.ncols);
        for j in 0..src.ncols {
            let dst = &mut self.col_mut(col0 + j)[row0..row0 + src.nrows];
            dst.copy_from_slice(src.col(j));
        }
    }

    /// Vertically stacks matrices (all must share a column count).
    pub fn vstack(parts: &[&MatrixS<S>]) -> MatrixS<S> {
        if parts.is_empty() {
            return MatrixS::zeros(0, 0);
        }
        let ncols = parts[0].ncols;
        let nrows: usize = parts.iter().map(|p| p.nrows).sum();
        let mut out = MatrixS::zeros(nrows, ncols);
        let mut r = 0;
        for p in parts {
            assert_eq!(p.ncols, ncols, "vstack: column mismatch");
            out.set_block(r, 0, p);
            r += p.nrows;
        }
        out
    }

    /// Horizontally stacks matrices (all must share a row count).
    pub fn hstack(parts: &[&MatrixS<S>]) -> MatrixS<S> {
        if parts.is_empty() {
            return MatrixS::zeros(0, 0);
        }
        let nrows = parts[0].nrows;
        let ncols: usize = parts.iter().map(|p| p.ncols).sum();
        let mut out = MatrixS::zeros(nrows, ncols);
        let mut c = 0;
        for p in parts {
            assert_eq!(p.nrows, nrows, "hstack: row mismatch");
            out.set_block(0, c, p);
            c += p.ncols;
        }
        out
    }

    /// `y = self * x` (allocating). Entries are promoted `S -> A`, so with
    /// `A = f64` over `f32` storage this is the mixed-precision apply.
    pub fn matvec<A: Scalar>(&self, x: &[A]) -> Vec<A> {
        let mut y = vec![A::ZERO; self.nrows];
        self.matvec_into(x, &mut y);
        y
    }

    /// `y = self * x`, writing into `y` (overwrites).
    pub fn matvec_into<A: Scalar>(&self, x: &[A], y: &mut [A]) {
        assert_eq!(x.len(), self.ncols, "matvec: x length");
        assert_eq!(y.len(), self.nrows, "matvec: y length");
        y.fill(A::ZERO);
        self.matvec_acc(x, y);
    }

    /// `y += self * x` (accumulating, no allocation).
    pub fn matvec_acc<A: Scalar>(&self, x: &[A], y: &mut [A]) {
        debug_assert_eq!(x.len(), self.ncols);
        panel::gemv_acc(self.as_slice(), self.nrows, x, y);
    }

    /// `Y += self * X` for column-major panels of `k` columns (`x` is
    /// `ncols × k`, `y` is `nrows × k`) in one register-blocked pass over
    /// the matrix; column `c` has the bits of `matvec_acc(x_c, y_c)`
    /// ([`panel::matmat_acc`]).
    pub fn matmat_acc<A: Scalar>(&self, k: usize, x: &[A], y: &mut [A]) {
        panel::matmat_acc(self.as_slice(), self.nrows, self.ncols, k, x, y);
    }

    /// `y = self^T * x` (allocating).
    pub fn matvec_t<A: Scalar>(&self, x: &[A]) -> Vec<A> {
        let mut y = vec![A::ZERO; self.ncols];
        self.matvec_t_into(x, &mut y);
        y
    }

    /// `y = self^T * x`, writing into `y` (overwrites).
    pub fn matvec_t_into<A: Scalar>(&self, x: &[A], y: &mut [A]) {
        assert_eq!(x.len(), self.nrows, "matvec_t: x length");
        assert_eq!(y.len(), self.ncols, "matvec_t: y length");
        y.fill(A::ZERO);
        self.matvec_t_acc(x, y);
    }

    /// `y += self^T * x` (accumulating, no allocation).
    pub fn matvec_t_acc<A: Scalar>(&self, x: &[A], y: &mut [A]) {
        debug_assert_eq!(y.len(), self.ncols);
        panel::gemv_t_acc(self.as_slice(), self.nrows, x, y);
    }

    /// `Y += self^T * X` for column-major panels of `k` columns (`x` is
    /// `nrows × k`, `y` is `ncols × k`); column `c` has the bits of
    /// `matvec_t_acc(x_c, y_c)` ([`panel::matmat_t_acc`]).
    pub fn matmat_t_acc<A: Scalar>(&self, k: usize, x: &[A], y: &mut [A]) {
        panel::matmat_t_acc(self.as_slice(), self.nrows, self.ncols, k, x, y);
    }

    /// `self * other` (see [`blas::gemm`] for the blocked kernel).
    pub fn matmul(&self, other: &MatrixS<S>) -> MatrixS<S> {
        blas::gemm(self, other)
    }

    /// `self^T * other` without forming the transpose.
    pub fn t_matmul(&self, other: &MatrixS<S>) -> MatrixS<S> {
        blas::gemm_tn(self, other)
    }

    /// `self * other^T` without forming the transpose.
    pub fn matmul_t(&self, other: &MatrixS<S>) -> MatrixS<S> {
        blas::gemm_nt(self, other)
    }

    /// Frobenius norm (overflow-safe pairwise accumulation via
    /// [`blas::nrm2`]).
    pub fn fro_norm(&self) -> S {
        blas::nrm2(self.as_slice())
    }

    /// Largest absolute entry (max norm).
    pub fn max_abs(&self) -> S {
        self.as_slice().iter().fold(S::ZERO, |m, &v| m.max(v.abs()))
    }

    /// Scales every entry in place.
    pub fn scale(&mut self, s: S) {
        for v in self.data.make_owned() {
            *v *= s;
        }
    }

    /// `self += alpha * other` (entrywise).
    pub fn axpy(&mut self, alpha: S, other: &MatrixS<S>) {
        assert_eq!(self.shape(), other.shape(), "axpy: shape mismatch");
        for (a, b) in self.data.make_owned().iter_mut().zip(other.as_slice()) {
            *a += alpha * *b;
        }
    }

    /// `self - other` (allocating).
    pub fn sub(&self, other: &MatrixS<S>) -> MatrixS<S> {
        assert_eq!(self.shape(), other.shape(), "sub: shape mismatch");
        let data = self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| a - b)
            .collect();
        MatrixS {
            nrows: self.nrows,
            ncols: self.ncols,
            data: Buf::Owned(data),
        }
    }

    /// Bytes of this process's memory the matrix holds (for memory
    /// accounting): an owned buffer's capacity, or a view's scalars when its
    /// slab is written or a heap copy. A view of a file mapping reports 0
    /// here — its pages are the page cache's, counted by
    /// [`MatrixS::mapped_bytes`].
    pub fn bytes(&self) -> usize {
        match &self.data {
            Buf::Owned(v) => v.capacity() * std::mem::size_of::<S>(),
            Buf::Mapped(m) if m.is_file_mapping() => 0,
            Buf::Mapped(m) => m.len() * S::BYTES,
        }
    }
}

impl<S: Scalar> std::ops::Index<(usize, usize)> for MatrixS<S> {
    type Output = S;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &S {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data.as_slice()[i + j * self.nrows]
    }
}

impl<S: Scalar> std::ops::IndexMut<(usize, usize)> for MatrixS<S> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut S {
        debug_assert!(i < self.nrows && j < self.ncols);
        let nrows = self.nrows;
        &mut self.data.make_owned()[i + j * nrows]
    }
}

impl<S: Scalar> std::fmt::Display for MatrixS<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "[{} x {}]", self.nrows, self.ncols)?;
        let rmax = self.nrows.min(8);
        let cmax = self.ncols.min(8);
        for i in 0..rmax {
            for j in 0..cmax {
                write!(f, "{:>12.4e} ", self[(i, j)])?;
            }
            if cmax < self.ncols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if rmax < self.nrows {
            writeln!(f, "...")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(1, 0)], 0.0);
        assert_eq!(i[(2, 2)], 1.0);
    }

    #[test]
    fn from_fn_layout_is_column_major() {
        let m = Matrix::from_fn(2, 2, |i, j| (i * 10 + j) as f64);
        // column 0 = [00, 10], column 1 = [01, 11]
        assert_eq!(m.as_slice(), &[0.0, 10.0, 1.0, 11.0]);
    }

    #[test]
    fn from_rows_round_trip() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), vec![3.0, 4.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(5, 7, |i, j| (i * 7 + j) as f64);
        assert_eq!(m.transpose().transpose(), m);
        let t = m.transpose();
        assert_eq!(t[(3, 4)], m[(4, 3)]);
    }

    #[test]
    fn select_rows_cols() {
        let m = Matrix::from_fn(4, 4, |i, j| (10 * i + j) as f64);
        let s = m.select(&[1, 3], &[0, 2]);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s[(0, 0)], 10.0);
        assert_eq!(s[(1, 1)], 32.0);
        let r = m.select_rows(&[2]);
        assert_eq!(r.row(0), vec![20.0, 21.0, 22.0, 23.0]);
        let c = m.select_cols(&[3, 3]);
        assert_eq!(c[(0, 0)], 3.0);
        assert_eq!(c[(0, 1)], 3.0);
    }

    #[test]
    fn block_and_set_block() {
        let m = Matrix::from_fn(4, 5, |i, j| (i + 10 * j) as f64);
        let b = m.block(1..3, 2..4);
        assert_eq!(b.shape(), (2, 2));
        assert_eq!(b[(0, 0)], m[(1, 2)]);
        let mut z = Matrix::zeros(4, 5);
        z.set_block(1, 2, &b);
        assert_eq!(z[(1, 2)], m[(1, 2)]);
        assert_eq!(z[(2, 3)], m[(2, 3)]);
        assert_eq!(z[(0, 0)], 0.0);
    }

    #[test]
    fn stack() {
        let a = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Matrix::from_fn(1, 2, |_, j| (100 + j) as f64);
        let v = Matrix::vstack(&[&a, &b]);
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v[(2, 1)], 101.0);
        let c = Matrix::from_fn(2, 1, |i, _| (i + 50) as f64);
        let h = Matrix::hstack(&[&a, &c]);
        assert_eq!(h.shape(), (2, 3));
        assert_eq!(h[(1, 2)], 51.0);
    }

    #[test]
    fn matvec_and_transpose_matvec() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        assert_eq!(m.matvec_t(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn matvec_acc_accumulates() {
        let m = Matrix::identity(2);
        let mut y = vec![1.0, 2.0];
        m.matvec_acc(&[3.0, 4.0], &mut y);
        assert_eq!(y, vec![4.0, 6.0]);
    }

    #[test]
    fn f32_matrix_basics() {
        let m = MatrixS::<f32>::from_fn(3, 3, |i, j| (i * 3 + j) as f32);
        assert_eq!(m[(1, 2)], 5.0_f32);
        let y = m.matvec(&[1.0_f32, 0.0, 1.0]);
        assert_eq!(y, vec![2.0_f32, 8.0, 14.0]);
        // Conversion round-trip through f64 is exact for f32 values.
        let wide: MatrixS<f64> = m.convert();
        let back: MatrixS<f32> = wide.convert();
        assert_eq!(back, m);
    }

    #[test]
    fn mixed_apply_promotes_storage_to_f64() {
        // f32 storage, f64 vectors: entries promoted exactly, accumulation
        // in f64 matches the all-f64 computation bit for bit.
        let mf32 = MatrixS::<f32>::from_fn(4, 4, |i, j| ((i + 2 * j) as f32) * 0.25);
        let mf64: MatrixS<f64> = mf32.convert();
        let x: Vec<f64> = (0..4).map(|i| (i as f64) * 0.5 - 1.0).collect();
        assert_eq!(mf32.matvec(&x), mf64.matvec(&x));
        assert_eq!(mf32.matvec_t(&x), mf64.matvec_t(&x));
    }

    #[test]
    fn swaps() {
        let mut m = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let orig = m.clone();
        m.swap_cols(0, 2);
        assert_eq!(m.col(0), orig.col(2));
        m.swap_cols(0, 2);
        m.swap_rows(0, 1);
        assert_eq!(m.row(0), orig.row(1));
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, -4.0]]);
        assert!((m.fro_norm() - 5.0).abs() < 1e-15);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn axpy_sub_scale() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let mut b = Matrix::from_rows(&[vec![10.0, 20.0]]);
        b.axpy(2.0, &a);
        assert_eq!(b, Matrix::from_rows(&[vec![12.0, 24.0]]));
        let d = b.sub(&a);
        assert_eq!(d, Matrix::from_rows(&[vec![11.0, 22.0]]));
        let mut s = d;
        s.scale(0.5);
        assert_eq!(s, Matrix::from_rows(&[vec![5.5, 11.0]]));
    }

    #[test]
    fn empty_matrices() {
        let e = Matrix::zeros(0, 5);
        assert!(e.is_empty());
        assert_eq!(e.matvec(&[0.0; 5]), Vec::<f64>::new());
        let e2 = Matrix::zeros(3, 0);
        assert_eq!(e2.matvec::<f64>(&[]), vec![0.0; 3]);
    }

    #[test]
    fn slab_backed_matrix_applies_bitwise_and_promotes_on_write() {
        let owned = Matrix::from_fn(5, 4, |i, j| ((i * 7 + j) as f64).sin());
        let mut bytes = Vec::new();
        for &v in owned.as_slice() {
            v.write_le(&mut bytes);
        }
        let mem = SlabMem::from_bytes(&bytes);
        let mapped = Matrix::from_slab(5, 4, mem.slice(0, 20).unwrap());
        assert!(mapped.is_mapped());
        assert!(std::sync::Arc::ptr_eq(mapped.slab().unwrap(), &mem));
        // A heap slab is this process's memory, not a file mapping's.
        assert_eq!((mapped.bytes(), mapped.mapped_bytes()), (160, 0));
        assert_eq!(mapped, owned);
        let x = [0.3, -1.1, 0.0, 2.5];
        // Same arithmetic, same code path: outputs are bit-identical.
        let (yo, ym): (Vec<f64>, Vec<f64>) = (owned.matvec(&x), mapped.matvec(&x));
        assert!(yo.iter().zip(&ym).all(|(a, b)| a.to_bits() == b.to_bits()));
        let xt = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(owned.matvec_t(&xt), mapped.matvec_t(&xt));
        // First mutation promotes to an owned copy; the slab is untouched.
        let mut cow = mapped.clone();
        cow.scale(2.0);
        assert!(!cow.is_mapped());
        assert_eq!(cow.mapped_bytes(), 0);
        assert!(cow.bytes() > 0);
        assert_eq!(cow[(0, 0)], 2.0 * owned[(0, 0)]);
        assert_eq!(mapped, owned, "source view must be unaffected");
    }
}
