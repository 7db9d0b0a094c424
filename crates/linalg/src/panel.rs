//! `k`-column panel applies of a column-major block, `Y += B·X` and
//! `Y += Bᵀ·X`: one register-blocked pass over `B` where `k` matrix–vector
//! products would stream it `k` times.
//!
//! **Column contract.** Column `c` of either product has the bits of the
//! one-column apply of column `c` — [`gemv_acc`] / [`gemv_t_acc`], the
//! bodies of `MatrixS::matvec_acc` / `matvec_t_acc` — at every `k`. The tiles
//! vectorise across outputs, never across a reduction:
//!
//! - **Forward.** An 8-row × 4-column tile of `Y` stays in registers while
//!   the block columns go by in ascending order, each term added straight
//!   into its output. A term whose `x[j, c]` is zero is skipped, as the
//!   one-column apply skips it: adding `+0` instead would turn a `−0.0`
//!   output into `+0.0`, and an inf or NaN entry into NaN. The test is
//!   hoisted out of the tile: four panel columns with no zero entry run a
//!   branch-free tile.
//! - **Transposed.** Each output is [`blas::dot`] of a block column with a
//!   panel column: four partial sums over the rows `≡ 0, 1, 2, 3 (mod 4)`,
//!   then `(s0 + s1) + (s2 + s3)`, then the row tail, then one add into `y`.
//!   The four partial sums are the lanes of one vector, and two block
//!   columns × four panel columns are eight independent chains that share
//!   each 4-row load of `B`.
//!
//! There is one tile width, four panel columns; the `k mod 4` leftover
//! columns take the one-column path, so `k = 1` is exactly the
//! matrix–vector product. The tiles have a second compile with AVX2,
//! selected at run time ([`crate::simd`]).

use crate::blas;
use crate::scalar::Scalar;
use std::array;

/// Panel columns per tile: the one tile width.
const COLS: usize = 4;
/// Output rows per forward tile.
const ROWS: usize = 8;

/// `y += B x` for the column-major block `b` with `rows` rows and
/// `x.len()` columns: block columns ascending, a term with `x[j] == 0`
/// skipped.
#[inline]
pub fn gemv_acc<S: Scalar, A: Scalar>(b: &[S], rows: usize, x: &[A], y: &mut [A]) {
    debug_assert_eq!(b.len(), rows * x.len());
    debug_assert_eq!(y.len(), rows);
    for (j, &xj) in x.iter().enumerate() {
        if xj != A::ZERO {
            blas::axpy(xj, &b[j * rows..(j + 1) * rows], y);
        }
    }
}

/// `y += Bᵀ x` for the column-major block `b` with `rows` rows and
/// `y.len()` columns: `y[j] += blas::dot(B[:, j], x)`.
#[inline]
pub fn gemv_t_acc<S: Scalar, A: Scalar>(b: &[S], rows: usize, x: &[A], y: &mut [A]) {
    debug_assert_eq!(b.len(), rows * y.len());
    debug_assert_eq!(x.len(), rows);
    for (j, yj) in y.iter_mut().enumerate() {
        *yj += blas::dot(&b[j * rows..(j + 1) * rows], x);
    }
}

/// `Y += B X` for the column-major `rows × cols` block `b` and the
/// column-major panels `x` (`cols × k`) and `y` (`rows × k`). Column `c`
/// has the bits of [`gemv_acc`] on column `c`.
pub fn matmat_acc<S: Scalar, A: Scalar>(
    b: &[S],
    rows: usize,
    cols: usize,
    k: usize,
    x: &[A],
    y: &mut [A],
) {
    assert_eq!(b.len(), rows * cols, "matmat_acc: block length");
    assert_eq!(x.len(), cols * k, "matmat_acc: x length");
    assert_eq!(y.len(), rows * k, "matmat_acc: y length");
    let tiled = k - k % COLS;
    if tiled > 0 {
        tiles(Product::Forward, b, rows, cols, tiled, x, y);
    }
    for c in tiled..k {
        gemv_acc(b, rows, column(x, cols, c), column_mut(y, rows, c));
    }
}

/// `Y += Bᵀ X` for the column-major `rows × cols` block `b` and the
/// column-major panels `x` (`rows × k`) and `y` (`cols × k`). Column `c`
/// has the bits of [`gemv_t_acc`] on column `c`.
pub fn matmat_t_acc<S: Scalar, A: Scalar>(
    b: &[S],
    rows: usize,
    cols: usize,
    k: usize,
    x: &[A],
    y: &mut [A],
) {
    assert_eq!(b.len(), rows * cols, "matmat_t_acc: block length");
    assert_eq!(x.len(), rows * k, "matmat_t_acc: x length");
    assert_eq!(y.len(), cols * k, "matmat_t_acc: y length");
    let tiled = k - k % COLS;
    if tiled > 0 {
        tiles(Product::Transposed, b, rows, cols, tiled, x, y);
    }
    for c in tiled..k {
        gemv_t_acc(b, rows, column(x, rows, c), column_mut(y, cols, c));
    }
}

/// Column `c` of a column-major panel with `len` rows.
fn column<T>(panel: &[T], len: usize, c: usize) -> &[T] {
    &panel[c * len..(c + 1) * len]
}

/// [`column`], mutably.
fn column_mut<T>(panel: &mut [T], len: usize, c: usize) -> &mut [T] {
    &mut panel[c * len..(c + 1) * len]
}

/// Which product a tiled pass forms.
#[derive(Clone, Copy)]
enum Product {
    Forward,
    Transposed,
}

/// The widest compile of the tiles this host runs; `k` is a multiple of
/// [`COLS`], the panels are the first `k` columns.
fn tiles<S: Scalar, A: Scalar>(
    product: Product,
    b: &[S],
    rows: usize,
    cols: usize,
    k: usize,
    x: &[A],
    y: &mut [A],
) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if crate::simd::avx2() {
        // SAFETY: `tiles_avx2` is a safe function whose only requirement of
        // its caller is that the CPU supports AVX2, which `simd::avx2` on
        // the line above has just established.
        return unsafe { tiles_avx2(product, b, rows, cols, k, x, y) };
    }
    tiles_baseline(product, b, rows, cols, k, x, y)
}

/// [`tiles_baseline`] compiled with 256-bit vectors; AVX2 without `fma`,
/// so nothing is contracted and the bits are the baseline's.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn tiles_avx2<S: Scalar, A: Scalar>(
    product: Product,
    b: &[S],
    rows: usize,
    cols: usize,
    k: usize,
    x: &[A],
    y: &mut [A],
) {
    tiles_baseline(product, b, rows, cols, k, x, y)
}

/// `#[inline(always)]`, with everything under it, so that [`tiles_avx2`]
/// compiles this same body a second time.
#[inline(always)]
fn tiles_baseline<S: Scalar, A: Scalar>(
    product: Product,
    b: &[S],
    rows: usize,
    cols: usize,
    k: usize,
    x: &[A],
    y: &mut [A],
) {
    match product {
        Product::Forward => forward(b, rows, cols, k, x, y),
        Product::Transposed => transposed(b, rows, cols, k, x, y),
    }
}

/// `Y += B X` an 8 × 4 tile of `Y` at a time (module docs). The row tiles
/// start at 0, 8, 16, … and, when 8 does not divide `rows`, one more covers
/// the last 8 rows; it stores only the rows no other tile has: the others
/// are final already, and what it adds to them is dropped. A block of fewer
/// than 8 rows runs per column.
#[inline(always)]
fn forward<S: Scalar, A: Scalar>(
    b: &[S],
    rows: usize,
    cols: usize,
    k: usize,
    x: &[A],
    y: &mut [A],
) {
    if rows < ROWS {
        for c in 0..k {
            gemv_acc(b, rows, column(x, cols, c), column_mut(y, rows, c));
        }
        return;
    }
    let strips = rows - rows % ROWS;
    let last = (strips < rows).then_some(rows - ROWS);
    for c0 in (0..k).step_by(COLS) {
        let xs: [&[A]; COLS] = array::from_fn(|c| column(x, cols, c0 + c));
        // The zero test, hoisted out of the tile: with no zero among the
        // four columns no term is skipped and the tile runs branch-free.
        let dense = xs.iter().all(|xc| xc.iter().all(|&v| v != A::ZERO));
        let mut done = 0usize;
        for r0 in (0..strips).step_by(ROWS).chain(last) {
            let at = |c: usize| (c0 + c) * rows + r0;
            let mut t: [[A; ROWS]; COLS] = array::from_fn(|c| {
                let tile = &y[at(c)..at(c) + ROWS];
                tile.try_into().expect("a tile column is ROWS long")
            });
            if dense {
                forward_tile(&mut t, b, rows, r0, &xs, |_| true);
            } else {
                forward_tile(&mut t, b, rows, r0, &xs, |v| v != A::ZERO);
            }
            let keep = done.saturating_sub(r0);
            for (c, tc) in t.iter().enumerate() {
                y[at(c) + keep..at(c) + ROWS].copy_from_slice(&tc[keep..]);
            }
            done = r0 + ROWS;
        }
    }
}

/// One tile of [`forward`]: `t[c][r] += x_c[j] · B[r0 + r, j]` for `j`
/// ascending, over the `j` with `live(x_c[j])`.
#[inline(always)]
fn forward_tile<S: Scalar, A: Scalar>(
    t: &mut [[A; ROWS]; COLS],
    b: &[S],
    rows: usize,
    r0: usize,
    xs: &[&[A]; COLS],
    live: impl Fn(A) -> bool,
) {
    for j in 0..xs[0].len() {
        let mut bj = [A::ZERO; ROWS];
        for (e, &s) in bj.iter_mut().zip(&b[j * rows + r0..j * rows + r0 + ROWS]) {
            *e = s.promote();
        }
        for (tc, xc) in t.iter_mut().zip(xs) {
            let xc = xc[j];
            if live(xc) {
                for (s, &bv) in tc.iter_mut().zip(&bj) {
                    *s += xc * bv;
                }
            }
        }
    }
}

/// `Y += Bᵀ X` two block columns × four panel columns at a time (module
/// docs); an odd last block column runs [`blas::dot`] per panel column.
#[inline(always)]
fn transposed<S: Scalar, A: Scalar>(
    b: &[S],
    rows: usize,
    cols: usize,
    k: usize,
    x: &[A],
    y: &mut [A],
) {
    let (quads, pairs) = (rows / 4, cols - cols % 2);
    for j0 in (0..pairs).step_by(2) {
        let bs: [&[S]; 2] = array::from_fn(|jj| column(b, rows, j0 + jj));
        let bq: [&[[S; 4]]; 2] = bs.map(|bj| &bj.as_chunks::<4>().0[..quads]);
        for c0 in (0..k).step_by(COLS) {
            let xs: [&[A]; COLS] = array::from_fn(|c| column(x, rows, c0 + c));
            let xq: [&[[A; 4]]; COLS] = xs.map(|xc| &xc.as_chunks::<4>().0[..quads]);
            let mut s = [[[A::ZERO; 4]; COLS]; 2];
            for i in 0..quads {
                // Plain loops in the hot path: a call to a helper such as
                // `array::map` the inliner declines would spill the eight
                // chains at every step.
                let mut bv = [[A::ZERO; 4]; 2];
                for (v, q) in bv.iter_mut().zip(&bq) {
                    for (e, &s) in v.iter_mut().zip(&q[i]) {
                        *e = s.promote();
                    }
                }
                for (sj, bj) in s.iter_mut().zip(&bv) {
                    for (sc, xc) in sj.iter_mut().zip(&xq) {
                        for ((p, &bl), &xl) in sc.iter_mut().zip(bj).zip(&xc[i]) {
                            *p += bl * xl;
                        }
                    }
                }
            }
            for (jj, (sj, bj)) in s.iter().zip(&bs).enumerate() {
                let ys = array::from_fn(|c| (c0 + c) * cols + j0 + jj);
                finish_dots(sj, bj, &xs, ys, y);
            }
        }
    }
    if pairs < cols {
        let bj = column(b, rows, pairs);
        for c in 0..k {
            y[c * cols + pairs] += blas::dot(bj, column(x, rows, c));
        }
    }
}

/// Completes four of [`transposed`]'s dot products of the block column
/// `bj`, one per panel column of `xs`, from their partial sums `s`:
/// `(s0 + s1) + (s2 + s3)`, the row tail, then `y[at[c]] += t`.
///
/// Not inlined: where LLVM sees these sums next to the loop that makes them,
/// it vectorises both across the four outputs instead of across the four
/// partial sums, and every step of the loop then shuffles its loads.
#[inline(never)]
fn finish_dots<S: Scalar, A: Scalar>(
    s: &[[A; 4]; COLS],
    bj: &[S],
    xs: &[&[A]; COLS],
    at: [usize; COLS],
    y: &mut [A],
) {
    let tail = bj.len() - bj.len() % 4;
    for ((&[s0, s1, s2, s3], xc), at) in s.iter().zip(xs).zip(at) {
        let mut t = (s0 + s1) + (s2 + s3);
        for (bv, &xv) in bj[tail..].iter().zip(&xc[tail..]) {
            t += bv.promote::<A>() * xv;
        }
        y[at] += t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `rows × cols` block with exact zeros, negative zeros and, when
    /// `special`, a `+inf`, a `−inf` and a NaN.
    fn block<S: Scalar>(rows: usize, cols: usize, special: bool) -> Vec<S> {
        let mut b: Vec<S> = (0..rows * cols)
            .map(|e| match (e * 37 + 11) % 29 {
                0 => S::ZERO,
                1 => -S::ZERO,
                v => S::from_f64(v as f64 / 13.0 - 1.1),
            })
            .collect();
        if special && b.len() >= 3 {
            let n = b.len();
            b[n / 3] = S::from_f64(f64::INFINITY);
            b[n / 2] = S::from_f64(f64::NEG_INFINITY);
            b[n - 1] = S::from_f64(f64::NAN);
        }
        b
    }

    /// A `len × k` panel with exact zeros, negative zeros and, for `k > 1`,
    /// an all-zero column 1.
    fn panel<A: Scalar>(len: usize, k: usize, seed: usize) -> Vec<A> {
        (0..len * k)
            .map(|e| match (e * 53 + seed) % 17 {
                _ if k > 1 && e / len.max(1) == 1 => A::ZERO,
                0 => A::ZERO,
                1 => -A::ZERO,
                v => A::from_f64(v as f64 / 7.0 - 1.2),
            })
            .collect()
    }

    fn bits<A: Scalar>(v: &[A]) -> Vec<u64> {
        v.iter().map(|&e| e.to_f64().to_bits()).collect()
    }

    /// Panel ≡ `k` one-column applies, both directions, bit for bit.
    fn assert_columns<S: Scalar, A: Scalar>(rows: usize, cols: usize, k: usize, special: bool) {
        let what = format!(
            "{}/{} {rows}x{cols} k={k} special={special}",
            S::NAME,
            A::NAME
        );
        let b = block::<S>(rows, cols, special);

        let x = panel::<A>(cols, k, 3);
        let y0 = panel::<A>(rows, k, 5);
        let mut panel_y = y0.clone();
        matmat_acc(&b, rows, cols, k, &x, &mut panel_y);
        let mut column_y = y0;
        for c in 0..k {
            gemv_acc(
                &b,
                rows,
                column(&x, cols, c),
                column_mut(&mut column_y, rows, c),
            );
        }
        assert_eq!(bits(&panel_y), bits(&column_y), "forward {what}");

        let xt = panel::<A>(rows, k, 7);
        let yt0 = panel::<A>(cols, k, 9);
        let mut panel_t = yt0.clone();
        matmat_t_acc(&b, rows, cols, k, &xt, &mut panel_t);
        let mut column_t = yt0;
        for c in 0..k {
            gemv_t_acc(
                &b,
                rows,
                column(&xt, rows, c),
                column_mut(&mut column_t, cols, c),
            );
        }
        assert_eq!(bits(&panel_t), bits(&column_t), "transposed {what}");
    }

    fn every_shape<S: Scalar, A: Scalar>() {
        let mut shapes = vec![(0, 5), (0, 6), (5, 0), (6, 0), (1, 1)];
        for m in [3, 7, 8, 9, 17, 125] {
            shapes.extend([(m, 6), (m, 7), (m, 125)]);
        }
        for (rows, cols) in shapes {
            for k in 1..=9 {
                for special in [false, true] {
                    assert_columns::<S, A>(rows, cols, k, special);
                }
            }
        }
    }

    #[test]
    fn panel_columns_equal_one_column_applies_bitwise() {
        every_shape::<f64, f64>();
        every_shape::<f32, f64>();
        every_shape::<f32, f32>();
    }

    #[test]
    fn matrix_methods_are_the_slice_forms() {
        let m = crate::MatrixS::<f32>::from_col_major(9, 7, block(9, 7, false));
        let (x, xt) = (panel::<f64>(7, 5, 1), panel::<f64>(9, 5, 2));
        let (mut y, mut yt) = (panel::<f64>(9, 5, 3), panel::<f64>(7, 5, 4));
        let (mut want, mut want_t) = (y.clone(), yt.clone());
        m.matmat_acc(5, &x, &mut y);
        m.matmat_t_acc(5, &xt, &mut yt);
        for c in 0..5 {
            m.matvec_acc(column(&x, 7, c), column_mut(&mut want, 9, c));
            m.matvec_t_acc(column(&xt, 9, c), column_mut(&mut want_t, 7, c));
        }
        assert_eq!(bits(&y), bits(&want));
        assert_eq!(bits(&yt), bits(&want_t));
    }

    /// The dispatched compile has the baseline compile's bits.
    fn assert_dispatch<S: Scalar, A: Scalar>() {
        for (rows, cols) in [(17, 9), (125, 124), (8, 3)] {
            for special in [false, true] {
                let b = block::<S>(rows, cols, special);
                for (product, xlen, ylen) in [
                    (Product::Forward, cols, rows),
                    (Product::Transposed, rows, cols),
                ] {
                    let x = panel::<A>(xlen, 8, 1);
                    let mut base = panel::<A>(ylen, 8, 2);
                    let mut fast = base.clone();
                    tiles_baseline(product, &b, rows, cols, 8, &x, &mut base);
                    tiles(product, &b, rows, cols, 8, &x, &mut fast);
                    assert_eq!(bits(&base), bits(&fast), "{rows}x{cols}");
                }
            }
        }
    }

    #[test]
    fn dispatched_compile_has_the_baseline_bits() {
        if !crate::simd::avx2() {
            eprintln!("no AVX2 on this host: comparing the baseline compile with itself");
        }
        assert_dispatch::<f64, f64>();
        assert_dispatch::<f32, f64>();
        assert_dispatch::<f32, f32>();
    }
}
