//! The storage of a nested basis or transfer: a dense matrix with its unit
//! rows held as column indices.
//!
//! Every data-driven basis is a row interpolative decomposition,
//! `P = Π [I; T]`: each skeleton row of `P` is a unit vector. A
//! [`BasisMatrix`] holds such a matrix as two parts:
//!
//! - a **row map** with one entry per row: the column of a row that is
//!   bitwise a unit vector (`+1.0` in one column, `+0.0` in every other),
//!   or [`RowIndex::DENSE`];
//! - one dense **coefficient block** of the other rows, in row order.
//!
//! [`BasisMatrix::from_dense`] is the one rule that decides the split; the
//! builders call it. It splits only when the two parts hold fewer bytes than
//! the dense matrix, and holds the dense matrix as it is otherwise, with an
//! empty row map. A row with a `−0.0` is not a unit row, so the expansion
//! back ([`BasisMatrix::to_dense`]) is the dense matrix bit for bit.
//! [`BasisMatrix::from_split`] rebuilds a matrix from its two parts, as an
//! operator file stores them: a coefficient block that is a mapped view
//! stays one, and its bytes are [`BasisMatrix::mapped_bytes`].
//!
//! The row index is half as wide as the scalar (`u32` for `f64`, `u16` for
//! `f32`): the split rule is then the same in both precisions, and an `f32`
//! matrix holds exactly half the bytes of its `f64` twin.
//!
//! **Apply.** [`BasisMatrix::matmat_acc`] and [`BasisMatrix::matmat_t_acc`]
//! take `k`-column panels. A unit row adds one panel row; the coefficient
//! block goes through the [`crate::panel`] kernels on the gathered panel
//! rows, in this thread's scratch, wherever the block's bytes live. Column
//! `c` of a product has the bits of the one-column apply of column `c`, and
//! the orders are fixed by the matrix alone. Against the dense matrix's
//! apply the bits may differ in the last place: an identity term is added
//! on its own instead of among the row's zero products, and a transposed
//! dot's partial sums see only the coefficient rows.

use crate::matrix::MatrixS;
use crate::panel;
use crate::scalar::Scalar;
use std::any::Any;
use std::cell::RefCell;
use std::fmt;

/// One entry of a [`BasisMatrix`]'s row map: the column of a unit row, or
/// [`RowIndex::DENSE`] for a row of the coefficient block.
pub trait RowIndex: Copy + Default + Eq + Send + Sync + fmt::Debug + 'static {
    /// The entry of a row held in the coefficient block.
    const DENSE: Self;
    /// The entry of a unit row in column `col`, or `None` when `col` does
    /// not fit below [`RowIndex::DENSE`] (the row then stays dense).
    fn unit(col: usize) -> Option<Self>;
    /// The column of a unit row's entry.
    fn col(self) -> usize;
}

macro_rules! row_index {
    ($t:ty) => {
        impl RowIndex for $t {
            const DENSE: Self = <$t>::MAX;
            #[inline]
            fn unit(col: usize) -> Option<Self> {
                <$t>::try_from(col).ok().filter(|&c| c != Self::DENSE)
            }
            #[inline]
            fn col(self) -> usize {
                self as usize
            }
        }
    };
}
row_index!(u16);
row_index!(u32);

/// A dense `nrows × ncols` matrix held as a row map and a coefficient block
/// (module docs).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BasisMatrix<S: Scalar = f64> {
    /// Per row: its unit column, or `DENSE`. Empty when every row is in
    /// `coef`.
    rows: Vec<S::Index>,
    /// The rows that are not unit rows, in row order.
    coef: MatrixS<S>,
}

/// Per row of `m`, its row-map entry: the column of a row that is bitwise
/// `+1.0` in one column and `+0.0` in every other, else `DENSE`. One
/// branch-free pass over `m` in storage order, which stops once every row
/// is dense (a Chebyshev basis after its first column).
fn row_map<S: Scalar>(m: &MatrixS<S>) -> Vec<S::Index> {
    const UNSEEN: u32 = 0;
    const DENSE: u32 = u32::MAX;
    let (one, zero) = (1.0f64.to_bits(), 0.0f64.to_bits());
    // Per row: `UNSEEN` while it has shown only `+0.0`, then `1 +` the
    // column of its first other entry if that was a `+1.0` whose column
    // fits the index, else `DENSE`.
    let mut state = vec![UNSEEN; m.nrows()];
    for j in 0..m.ncols() {
        let unit = S::Index::unit(j).map_or(DENSE, |_| j as u32 + 1);
        for (s, &v) in state.iter_mut().zip(m.col(j)) {
            let bits = v.to_f64().to_bits();
            let next = if *s == UNSEEN && bits == one {
                unit
            } else {
                DENSE
            };
            *s = if bits == zero { *s } else { next };
        }
        if state.iter().all(|&s| s == DENSE) {
            break;
        }
    }
    // Into an exactly sized map: `bytes` counts its capacity.
    let mut map = Vec::with_capacity(state.len());
    map.extend(state.into_iter().map(|s| match s {
        UNSEEN | DENSE => S::Index::DENSE,
        col => S::Index::unit(col as usize - 1).expect("checked when seen"),
    }));
    map
}

impl<S: Scalar> BasisMatrix<S> {
    /// Holds `m`, its unit rows as column indices, when that takes fewer
    /// bytes than `m`; otherwise holds `m` itself, unchanged and uncopied.
    pub fn from_dense(m: MatrixS<S>) -> Self {
        let (nrows, ncols) = m.shape();
        let rows = row_map(&m);
        let dense: Vec<usize> = (0..nrows).filter(|&r| rows[r] == S::Index::DENSE).collect();
        let held = nrows * std::mem::size_of::<S::Index>() + dense.len() * ncols * S::BYTES;
        if held >= nrows * ncols * S::BYTES {
            let rows = Vec::new();
            return BasisMatrix { rows, coef: m };
        }
        let mut coef = Vec::with_capacity(dense.len() * ncols);
        for j in 0..ncols {
            let col = m.col(j);
            coef.extend(dense.iter().map(|&r| col[r]));
        }
        let coef = MatrixS::from_col_major(dense.len(), ncols, coef);
        BasisMatrix { rows, coef }
    }

    /// The matrix of row map `rows` and coefficient block `coef`, both held
    /// as they are: `coef` alone when `rows` is empty. Refuses a map with an
    /// entry that names no column of `coef`, or whose number of
    /// [`RowIndex::DENSE`] entries is not `coef`'s number of rows.
    pub fn from_split(rows: Vec<S::Index>, coef: MatrixS<S>) -> Result<Self, String> {
        if !rows.is_empty() {
            let (d, ncols) = coef.shape();
            let unit = rows.iter().filter(|&&ix| ix != S::Index::DENSE);
            if let Some(ix) = unit.clone().find(|ix| ix.col() >= ncols) {
                return Err(format!("row map names column {} of {ncols}", ix.col()));
            }
            let dense = rows.len() - unit.count();
            if dense != d {
                return Err(format!(
                    "{dense} coefficient rows in the map, {d} in the block"
                ));
            }
        }
        Ok(BasisMatrix { rows, coef })
    }

    /// Number of rows of the dense matrix: one per row-map entry, or the
    /// coefficient block's when the map is empty.
    pub fn nrows(&self) -> usize {
        match self.rows.len() {
            0 => self.coef.nrows(),
            n => n,
        }
    }

    /// Number of columns of the dense matrix.
    pub fn ncols(&self) -> usize {
        self.coef.ncols()
    }

    /// `(nrows, ncols)` of the dense matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows(), self.ncols())
    }

    /// True if either dimension is zero.
    pub fn is_empty(&self) -> bool {
        self.nrows() == 0 || self.ncols() == 0
    }

    /// The row map: per row its unit column or [`RowIndex::DENSE`], or
    /// empty when every row is in the coefficient block.
    pub fn row_map(&self) -> &[S::Index] {
        &self.rows
    }

    /// The coefficient block: the rows that are not unit rows, in row order
    /// (the whole matrix when the row map is empty).
    pub fn coefficients(&self) -> &MatrixS<S> {
        &self.coef
    }

    /// Number of rows held as column indices.
    pub fn unit_rows(&self) -> usize {
        self.nrows() - self.coef.nrows()
    }

    /// Heap bytes held: the row map and the coefficient block (0 for a
    /// coefficient block that is a mapped view).
    pub fn bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<S::Index>() + self.coef.bytes()
    }

    /// Bytes of the coefficient block backed by a shared slab.
    pub fn mapped_bytes(&self) -> usize {
        self.coef.mapped_bytes()
    }

    /// The dense matrix this one holds, bit for bit.
    pub fn to_dense(&self) -> MatrixS<S> {
        if self.rows.is_empty() {
            return self.coef.clone();
        }
        let mut out = MatrixS::zeros(self.nrows(), self.ncols());
        for (r, j) in self.units() {
            out[(r, j)] = S::ONE;
        }
        for (c, r) in self.dense_rows().enumerate() {
            for j in 0..self.ncols() {
                out[(r, j)] = self.coef[(c, j)];
            }
        }
        out
    }

    /// The rows of the coefficient block, in order.
    fn dense_rows(&self) -> impl Iterator<Item = usize> + '_ {
        let rows = self.rows.iter().enumerate();
        rows.filter_map(|(r, &ix)| (ix == S::Index::DENSE).then_some(r))
    }

    /// The unit rows as `(row, column)`, in row order.
    fn units(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let rows = self.rows.iter().enumerate();
        let units = rows.filter(|&(_, &ix)| ix != S::Index::DENSE);
        units.map(|(r, &ix)| (r, ix.col()))
    }

    /// `Y += self · X` for column-major panels of `k` columns (`x` is
    /// `ncols × k`, `y` is `nrows × k`). A unit row `r` in column `j` adds
    /// `x[j, c]` to `y[r, c]`, skipped when it is zero as the panel kernels
    /// skip a zero term; the coefficient rows of `y` are gathered, take
    /// [`crate::panel::matmat_acc`] and go back.
    pub fn matmat_acc<A: Scalar>(&self, k: usize, x: &[A], y: &mut [A]) {
        if self.rows.is_empty() {
            return self.coef.matmat_acc(k, x, y);
        }
        let (m, n, d) = (self.nrows(), self.ncols(), self.coef.nrows());
        assert_eq!((x.len(), y.len()), (n * k, m * k), "basis: B X lengths");
        for (xc, yc) in x.chunks_exact(n).zip(y.chunks_exact_mut(m)) {
            for (r, j) in self.units() {
                if xc[j] != A::ZERO {
                    yc[r] += xc[j];
                }
            }
        }
        if d == 0 {
            return;
        }
        with_scratch(d * k, |yd: &mut [A]| {
            for (yd, yc) in yd.chunks_exact_mut(d).zip(y.chunks_exact(m)) {
                for (v, r) in yd.iter_mut().zip(self.dense_rows()) {
                    *v = yc[r];
                }
            }
            panel::matmat_acc(self.coef.as_slice(), d, n, k, x, yd);
            for (yd, yc) in yd.chunks_exact(d).zip(y.chunks_exact_mut(m)) {
                for (&v, r) in yd.iter().zip(self.dense_rows()) {
                    yc[r] = v;
                }
            }
        });
    }

    /// `Y += selfᵀ · X` for column-major panels of `k` columns (`x` is
    /// `nrows × k`, `y` is `ncols × k`): the coefficient block's
    /// [`crate::panel::matmat_t_acc`] on the gathered rows of `x`, then each
    /// unit row `r` in column `j` adds `x[r, c]` to `y[j, c]`, in row order.
    pub fn matmat_t_acc<A: Scalar>(&self, k: usize, x: &[A], y: &mut [A]) {
        if self.rows.is_empty() {
            return self.coef.matmat_t_acc(k, x, y);
        }
        let (m, n, d) = (self.nrows(), self.ncols(), self.coef.nrows());
        assert_eq!((x.len(), y.len()), (m * k, n * k), "basis: Bᵀ X lengths");
        if d > 0 {
            with_scratch(d * k, |xd: &mut [A]| {
                for (xd, xc) in xd.chunks_exact_mut(d).zip(x.chunks_exact(m)) {
                    for (v, r) in xd.iter_mut().zip(self.dense_rows()) {
                        *v = xc[r];
                    }
                }
                panel::matmat_t_acc(self.coef.as_slice(), d, n, k, xd, y);
            });
        }
        for (xc, yc) in x.chunks_exact(m).zip(y.chunks_exact_mut(n)) {
            for (r, j) in self.units() {
                yc[j] += xc[r];
            }
        }
    }
}

thread_local! {
    /// The gathered panel rows of one apply, per accumulator scalar.
    static PANEL: RefCell<(Vec<f32>, Vec<f64>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Runs `f` on this thread's `len`-entry scratch of `A`s, which grows and
/// never shrinks: the sweeps apply a basis without allocating.
fn with_scratch<A: Scalar>(len: usize, f: impl FnOnce(&mut [A])) {
    PANEL.with(|s| {
        let mut s = s.borrow_mut();
        let (narrow, wide) = &mut *s;
        let buf = match (narrow as &mut dyn Any).downcast_mut::<Vec<A>>() {
            Some(buf) => buf,
            None => (wide as &mut dyn Any)
                .downcast_mut::<Vec<A>>()
                .expect("a scalar is f32 or f64"),
        };
        if buf.len() < len {
            buf.resize(len, A::ZERO);
        }
        f(&mut buf[..len])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::scalar::bits;

    /// Every case of the split rule: unit rows, a `−0.0` row, a row of two
    /// `1.0`s, two unit rows on one column, rows of other values.
    fn mixed<S: Scalar>() -> MatrixS<S> {
        let f = |v: f64| S::from_f64(v);
        MatrixS::from_rows(&[
            vec![f(1.0), f(0.0), f(0.0), f(0.0)],
            vec![f(0.25), f(-1.5), f(0.0), f(2.0)],
            vec![f(0.0), f(-0.0), f(1.0), f(0.0)],
            vec![f(1.0), f(1.0), f(0.0), f(0.0)],
            vec![f(0.0), f(0.0), f(0.0), f(1.0)],
            vec![f(0.0), f(0.0), f(1.0), f(0.0)],
            vec![f(0.0), f(1.0), f(0.0), f(0.0)],
            vec![f(0.0), f(0.0), f(1.0), f(0.0)],
            vec![f(-1.0), f(0.0), f(0.0), f(0.0)],
            vec![f(0.0), f(0.0), f(0.0), f(0.0)],
        ])
    }

    fn round_trip<S: Scalar>() {
        let shapes = [mixed::<S>(), MatrixS::zeros(0, 3), MatrixS::zeros(3, 0)];
        for m in shapes.into_iter().chain([MatrixS::zeros(0, 0)]) {
            let b = BasisMatrix::from_dense(m.clone());
            assert_eq!(b.shape(), m.shape());
            assert_eq!(bits(b.to_dense().as_slice()), bits(m.as_slice()));
            assert!(b.bytes() <= m.bytes(), "{} > {}", b.bytes(), m.bytes());
        }
        // The held bytes are the row map and the coefficient block, exactly.
        let (m, b) = (mixed::<S>(), BasisMatrix::from_dense(mixed::<S>()));
        let index = std::mem::size_of::<S::Index>();
        assert_eq!(b.bytes(), m.nrows() * index + 5 * m.ncols() * S::BYTES);
        // Rows 0, 4, 5, 6 and 7 are unit rows; the `−0.0` row (2) and the
        // row of two ones (3) stay dense.
        let b = BasisMatrix::from_dense(mixed::<S>());
        assert_eq!(b.unit_rows(), 5);
        assert_eq!(b.coefficients().nrows(), 5);
        assert!(b.bytes() < mixed::<S>().bytes());
    }

    #[test]
    fn from_dense_round_trips_bitwise() {
        round_trip::<f64>();
        round_trip::<f32>();
    }

    #[test]
    fn an_f32_matrix_holds_half_the_bytes() {
        let (a, b) = (
            BasisMatrix::from_dense(mixed::<f64>()),
            BasisMatrix::from_dense(mixed::<f32>()),
        );
        assert_eq!(a.bytes(), 2 * b.bytes());
    }

    #[test]
    fn a_split_that_saves_nothing_keeps_the_dense_matrix() {
        // One unit row in a 16-row column: 64 bytes of row map against the
        // 8 bytes it would save.
        let tall = Matrix::from_fn(16, 1, |i, _| if i == 0 { 1.0 } else { 0.5 });
        let b = BasisMatrix::from_dense(tall.clone());
        assert_eq!(b.unit_rows(), 0);
        assert_eq!(
            b,
            BasisMatrix::from_split(Vec::new(), tall.clone()).unwrap()
        );
        assert_eq!(b.bytes(), tall.bytes());
    }

    /// A panel of `rows × k` values cycling through ordinary numbers, signed
    /// zeros, infinities and NaN.
    fn panel<A: Scalar>(rows: usize, k: usize, salt: usize) -> Vec<A> {
        let special = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        (0..rows * k)
            .map(|i| {
                let h = (i * 7 + salt * 13) % 23;
                let v = if h < special.len() {
                    special[h]
                } else {
                    ((i * 37 + salt) % 101) as f64 / 17.0 - 2.5
                };
                A::from_f64(v)
            })
            .collect()
    }

    /// At every `k`, column `c` of both products has the bits of the
    /// one-column apply of column `c`.
    fn columns_are_vectors<S: Scalar, A: Scalar>(b: &BasisMatrix<S>, salt: usize) {
        let (rows, cols) = b.shape();
        for k in 1..=9 {
            let (x, xt) = (
                panel::<A>(cols, k, salt + k),
                panel::<A>(rows, k, salt + k + 1),
            );
            let (y0, yt0) = (panel::<A>(rows, k, k + 2), panel::<A>(cols, k, k + 3));
            let (mut y, mut yt) = (y0.clone(), yt0.clone());
            b.matmat_acc(k, &x, &mut y);
            b.matmat_t_acc(k, &xt, &mut yt);
            for c in 0..k {
                let mut yc = y0[c * rows..(c + 1) * rows].to_vec();
                b.matmat_acc(1, &x[c * cols..(c + 1) * cols], &mut yc);
                assert_eq!(
                    bits(&yc),
                    bits(&y[c * rows..(c + 1) * rows]),
                    "k = {k}, {c}"
                );
                let mut ytc = yt0[c * cols..(c + 1) * cols].to_vec();
                b.matmat_t_acc(1, &xt[c * rows..(c + 1) * rows], &mut ytc);
                assert_eq!(
                    bits(&ytc),
                    bits(&yt[c * cols..(c + 1) * cols]),
                    "k = {k}, {c}ᵀ"
                );
            }
        }
    }

    /// A row ID shape: 40 rows, 4 of them unit rows, the rest mixed.
    fn row_id() -> Matrix {
        Matrix::from_fn(40, 12, |i, j| match i % 10 {
            3 if j == i / 10 => 1.0,
            3 => 0.0,
            _ => ((i * 31 + j * 17) % 29) as f64 / 7.0 - 2.0,
        })
    }

    #[test]
    fn panel_columns_have_the_vector_bits() {
        for salt in 0..3 {
            columns_are_vectors::<f64, f64>(&BasisMatrix::from_dense(mixed()), salt);
            columns_are_vectors::<f32, f32>(&BasisMatrix::from_dense(mixed()), salt);
            columns_are_vectors::<f32, f64>(&BasisMatrix::from_dense(mixed()), salt);
            columns_are_vectors::<f64, f64>(&BasisMatrix::from_dense(row_id()), salt);
        }
    }

    /// `m` as a view into a file mapping of its bytes.
    fn mapped<S: Scalar>(m: &MatrixS<S>) -> MatrixS<S> {
        static FILES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let mut bytes = Vec::new();
        for &v in m.as_slice() {
            v.write_le(&mut bytes);
        }
        let k = FILES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let name = format!("h2-basis-test-{}-{k}.bin", std::process::id());
        let path = std::env::temp_dir().join(name);
        std::fs::write(&path, &bytes).expect("write");
        let mem = crate::slab::SlabMem::map_file(&path).expect("map");
        std::fs::remove_file(&path).ok();
        let view = mem.slice(0, m.as_slice().len()).expect("in bounds");
        MatrixS::from_slab(m.nrows(), m.ncols(), view)
    }

    /// The owned split of `m`, and the same split over a coefficient block
    /// that is a view into a mapping of its bytes: the view holds only its
    /// row map on the heap, the two add up to the owned split's bytes, and
    /// it expands and applies with the owned split's bits.
    fn mapped_split<S: Scalar, A: Scalar>(m: MatrixS<S>) {
        let owned = BasisMatrix::from_dense(m.clone());
        assert!(owned.unit_rows() > 0);
        let coef = mapped(owned.coefficients());
        let view = BasisMatrix::from_split(owned.row_map().to_vec(), coef).expect("valid split");
        assert!(view.coefficients().is_mapped());
        assert_eq!(view, owned);
        assert_eq!(view.bytes(), m.nrows() * std::mem::size_of::<S::Index>());
        assert_eq!(view.bytes() + view.mapped_bytes(), owned.bytes());
        assert_eq!(owned.mapped_bytes(), 0);
        assert_eq!(bits(view.to_dense().as_slice()), bits(m.as_slice()));
        let (rows, cols) = m.shape();
        for k in 1..=9 {
            let (x, xt) = (panel::<A>(cols, k, k), panel::<A>(rows, k, k + 1));
            let (mut y, mut yt) = (panel::<A>(rows, k, 2), panel::<A>(cols, k, 3));
            let (mut yo, mut yto) = (y.clone(), yt.clone());
            view.matmat_acc(k, &x, &mut y);
            owned.matmat_acc(k, &x, &mut yo);
            assert_eq!(bits(&y), bits(&yo), "k = {k}");
            view.matmat_t_acc(k, &xt, &mut yt);
            owned.matmat_t_acc(k, &xt, &mut yto);
            assert_eq!(bits(&yt), bits(&yto), "k = {k}ᵀ");
        }
        columns_are_vectors::<S, A>(&view, 1);
    }

    #[test]
    fn a_mapped_coefficient_block_applies_like_the_owned_split() {
        mapped_split::<f64, f64>(mixed());
        mapped_split::<f32, f32>(mixed());
        mapped_split::<f32, f64>(mixed());
        mapped_split::<f64, f64>(row_id());
        // Every row a unit row: an empty coefficient block.
        mapped_split::<f64, f64>(Matrix::identity(6));
        mapped_split::<f32, f64>(MatrixS::<f32>::identity(6));
        // A mapped matrix with an empty row map stays the view.
        let tall = Matrix::from_fn(16, 1, |i, _| if i == 0 { 1.0 } else { 0.5 });
        let b = BasisMatrix::from_split(Vec::new(), mapped(&tall)).expect("any matrix");
        assert!(b.coefficients().is_mapped());
        assert_eq!((b.bytes(), b.mapped_bytes()), (0, tall.bytes()));
    }

    #[test]
    fn from_split_refuses_a_map_that_does_not_fit_its_block() {
        let b = BasisMatrix::from_dense(mixed::<f64>());
        let (rows, coef) = (b.row_map().to_vec(), b.coefficients().clone());
        assert_eq!(BasisMatrix::from_split(rows.clone(), coef.clone()), Ok(b));
        // A unit row on column 4 of 4.
        let unit = rows.iter().position(|&ix| ix != u32::DENSE).unwrap();
        let mut wide = rows.clone();
        wide[unit] = 4;
        assert!(BasisMatrix::from_split(wide, coef.clone()).is_err());
        // One coefficient row more, and one fewer, than the block has.
        let mut more = rows.clone();
        more[unit] = u32::DENSE;
        assert!(BasisMatrix::from_split(more, coef.clone()).is_err());
        let dense = rows.iter().position(|&ix| ix == u32::DENSE).unwrap();
        let mut fewer = rows;
        fewer.remove(dense);
        assert!(BasisMatrix::from_split(fewer, coef).is_err());
    }

    #[test]
    fn the_apply_agrees_with_the_dense_apply() {
        let m = row_id();
        let b = BasisMatrix::from_dense(m.clone());
        assert_eq!(b.unit_rows(), 4);
        let rel = |got: &[f64], want: &[f64]| {
            let d: f64 = got.iter().zip(want).map(|(g, w)| (g - w).powi(2)).sum();
            d.sqrt() / want.iter().map(|w| w * w).sum::<f64>().sqrt()
        };
        for k in 1..=9 {
            let x: Vec<f64> = (0..12 * k).map(|i| (i as f64 * 0.37).sin()).collect();
            let xt: Vec<f64> = (0..40 * k).map(|i| (i as f64 * 0.21).cos()).collect();
            let (mut y, mut want) = (vec![0.5; 40 * k], vec![0.5; 40 * k]);
            b.matmat_acc(k, &x, &mut y);
            m.matmat_acc(k, &x, &mut want);
            assert!(rel(&y, &want) <= 1e-14, "k = {k}");
            let (mut yt, mut want) = (vec![0.5; 12 * k], vec![0.5; 12 * k]);
            b.matmat_t_acc(k, &xt, &mut yt);
            m.matmat_t_acc(k, &xt, &mut want);
            assert!(rel(&yt, &want) <= 1e-14, "k = {k}ᵀ");
        }
    }
}
