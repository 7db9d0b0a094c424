//! `k`-column panel applies of a column-major block, `Y += B·X`,
//! `Y += Bᵀ·X`, and both at once: one register-blocked pass over `B` where
//! `k` matrix–vector products would stream it `k` times.
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
//!   each 4-row load of `B`. The two block columns of a pass are `p` and
//!   `p + cols / 2`, one from each half of the block: the passes then read
//!   `B` as two sequential streams, which the prefetcher runs ahead of,
//!   where pairing neighbours would make both streams jump every pass.
//!
//! There is one tile width, four panel columns; the `k mod 4` leftover
//! columns, which are all of `k = 1`, take the one-column path.
//!
//! **The one-column path** walks four block columns per pass, with the same
//! width, and the last `cols mod 4` one at a time:
//!
//! - **Forward.** Each `y[r]` receives the four columns' terms in ascending
//!   `j` in one pass over `y`, the order of four [`blas::axpy`] calls. The
//!   zero test is hoisted per group, as in the tiles: a group with a zero
//!   `x[j]` runs its axpys one by one, skipping that term.
//! - **Transposed.** Four [`blas::dot`]s, each in its own order, share each
//!   4-row load of `x`: four vectors of four partial sums.
//!
//! **Both directions** ([`matmat_bi_acc`]: `Yf += B·Xf` and `Yt += Bᵀ·Xt`).
//! A leftover column walks each group of four block columns once: its four
//! dots into `yt`, then its axpys into `yf`. Every output entry keeps the
//! sum order of its one-direction apply, so the fused product has the bits
//! of [`matmat_acc`] followed by [`matmat_t_acc`], and a block streamed from
//! memory is read once for both.
//! The tiled columns run the transposed tiles, then the forward tiles. At
//! four columns a pass computes on an entry about as fast as one core's
//! share of the memory bandwidth delivers it, so the block is fetched by
//! the pass that reads it in column order, and the forward tile, which
//! walks `B` in 8-row strips across every column, re-reads it from L2.
//!
//! Every product, one-column path included, has a second compile with AVX2,
//! selected at run time ([`crate::simd`]).

use crate::blas;
use crate::scalar::Scalar;
use std::array;

/// Panel columns per tile, and block columns per pass of a one-column
/// apply: the one width.
const COLS: usize = 4;
/// Output rows per forward tile.
const ROWS: usize = 8;

/// `y += B x` for the column-major block `b` with `rows` rows and
/// `x.len()` columns: block columns ascending, a term with `x[j] == 0`
/// skipped. Four block columns go by per pass (module docs).
#[inline(always)]
pub fn gemv_acc<S: Scalar, A: Scalar>(b: &[S], rows: usize, x: &[A], y: &mut [A]) {
    debug_assert_eq!(b.len(), rows * x.len());
    debug_assert_eq!(y.len(), rows);
    let walked = x.len() - x.len() % COLS;
    for j0 in (0..walked).step_by(COLS) {
        let xs = array::from_fn(|c| x[j0 + c]);
        axpy_walk(xs, array::from_fn(|c| column(b, rows, j0 + c)), y);
    }
    for (j, &xj) in x.iter().enumerate().skip(walked) {
        if xj != A::ZERO {
            blas::axpy(xj, column(b, rows, j), y);
        }
    }
}

/// `y += Bᵀ x` for the column-major block `b` with `rows` rows and
/// `y.len()` columns: `y[j] += blas::dot(B[:, j], x)`. Four block columns
/// go by per pass (module docs).
#[inline(always)]
pub fn gemv_t_acc<S: Scalar, A: Scalar>(b: &[S], rows: usize, x: &[A], y: &mut [A]) {
    debug_assert_eq!(b.len(), rows * y.len());
    debug_assert_eq!(x.len(), rows);
    let walked = y.len() - y.len() % COLS;
    for j0 in (0..walked).step_by(COLS) {
        dot_walk(array::from_fn(|c| column(b, rows, j0 + c)), x, j0, y);
    }
    for (j, yj) in y.iter_mut().enumerate().skip(walked) {
        *yj += blas::dot(column(b, rows, j), x);
    }
}

/// [`gemv_acc`] on `(xf, yf)` and [`gemv_t_acc`] on `(xt, yt)` in one walk
/// over the block columns, four at a time: each group is read for its dots,
/// then for its axpys.
#[inline(always)]
fn gemv_bi_acc<S: Scalar, A: Scalar>(
    b: &[S],
    rows: usize,
    xf: &[A],
    yf: &mut [A],
    xt: &[A],
    yt: &mut [A],
) {
    debug_assert_eq!(b.len(), rows * xf.len());
    debug_assert_eq!((xt.len(), yf.len(), yt.len()), (rows, rows, xf.len()));
    let walked = xf.len() - xf.len() % COLS;
    for j0 in (0..walked).step_by(COLS) {
        let bs = array::from_fn(|c| column(b, rows, j0 + c));
        dot_walk(bs, xt, j0, yt);
        axpy_walk(array::from_fn(|c| xf[j0 + c]), bs, yf);
    }
    for (j, (&xj, yj)) in xf.iter().zip(yt.iter_mut()).enumerate().skip(walked) {
        let bj = column(b, rows, j);
        *yj += blas::dot(bj, xt);
        if xj != A::ZERO {
            blas::axpy(xj, bj, yf);
        }
    }
}

/// `y[r] += xs[0]·b0[r]`, then `+= xs[1]·b1[r]`, … for the four block
/// columns `bs`: the terms of four [`blas::axpy`] calls in their order, in
/// one pass over `y`. A term whose `xs[c]` is zero is skipped, the test
/// hoisted out of the pass as in the tiles: a group with a zero runs its
/// axpys one by one.
#[inline(always)]
fn axpy_walk<S: Scalar, A: Scalar>(xs: [A; COLS], bs: [&[S]; COLS], y: &mut [A]) {
    if xs.contains(&A::ZERO) {
        for (xc, bc) in xs.into_iter().zip(bs) {
            if xc != A::ZERO {
                blas::axpy(xc, bc, y);
            }
        }
        return;
    }
    let [b0, b1, b2, b3] = bs.map(|bc| &bc[..y.len()]);
    let [x0, x1, x2, x3] = xs;
    for ((((yr, &v0), &v1), &v2), &v3) in y.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3) {
        let mut s = *yr;
        s += x0 * v0.promote::<A>();
        s += x1 * v1.promote::<A>();
        s += x2 * v2.promote::<A>();
        s += x3 * v3.promote::<A>();
        *yr = s;
    }
}

/// `y[j0 + c] += blas::dot(bs[c], x)` for the four block columns `bs`: four
/// chains of four partial sums that share each 4-row load of `x`.
#[inline(always)]
fn dot_walk<S: Scalar, A: Scalar>(bs: [&[S]; COLS], x: &[A], j0: usize, y: &mut [A]) {
    let quads = x.len() / 4;
    let xq = &x.as_chunks::<4>().0[..quads];
    let bq: [&[[S; 4]]; COLS] = bs.map(|bc| &bc.as_chunks::<4>().0[..quads]);
    let mut s = [[A::ZERO; 4]; COLS];
    for (i, xv) in xq.iter().enumerate() {
        // Plain loops, as in [`transposed`].
        for (sc, q) in s.iter_mut().zip(&bq) {
            for ((p, &bl), &xl) in sc.iter_mut().zip(&q[i]).zip(xv) {
                *p += bl.promote::<A>() * xl;
            }
        }
    }
    finish_dots(&s, bs, [x; COLS], array::from_fn(|c| j0 + c), y);
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
    apply(Product::Forward, b, (rows, cols, k), x, y, &[], &mut []);
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
    apply(Product::Transposed, b, (rows, cols, k), &[], &mut [], x, y);
}

/// `Yf += B Xf` and `Yt += Bᵀ Xt` for the column-major `rows × cols` block
/// `b`, with the panels of [`matmat_acc`] (`xf`, `yf`) and of
/// [`matmat_t_acc`] (`xt`, `yt`), in one walk over `b` (module docs). Has
/// the bits of those two calls, one after the other.
#[allow(clippy::too_many_arguments)]
pub fn matmat_bi_acc<S: Scalar, A: Scalar>(
    b: &[S],
    rows: usize,
    cols: usize,
    k: usize,
    xf: &[A],
    yf: &mut [A],
    xt: &[A],
    yt: &mut [A],
) {
    apply(Product::Both, b, (rows, cols, k), xf, yf, xt, yt);
}

/// Which directions a pass applies.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Product {
    /// `Yf += B Xf`.
    Forward,
    /// `Yt += Bᵀ Xt`.
    Transposed,
    /// Both.
    Both,
}

/// Checks the shapes of the `rows × cols` block `b` and of the `k`-column
/// panels of the directions `product` applies (the others are empty), then
/// runs the widest compile of [`apply_baseline`] this host has.
///
/// The panels are plain slice arguments, not an `Option` per direction: only
/// a reference argument carries LLVM's no-alias guarantee into the AVX2
/// compile, and without it the transposed tile ran 4× slower.
fn apply<S: Scalar, A: Scalar>(
    product: Product,
    b: &[S],
    (rows, cols, k): (usize, usize, usize),
    xf: &[A],
    yf: &mut [A],
    xt: &[A],
    yt: &mut [A],
) {
    assert_eq!(b.len(), rows * cols, "panel: block length");
    let (fwd, rev) = (product != Product::Transposed, product != Product::Forward);
    let want = |on: bool, x: usize, y: usize| if on { (x * k, y * k) } else { (0, 0) };
    let (f, t) = ((xf.len(), yf.len()), (xt.len(), yt.len()));
    assert_eq!(f, want(fwd, cols, rows), "panel: B X lengths");
    assert_eq!(t, want(rev, rows, cols), "panel: Bᵀ X lengths");
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    if crate::simd::avx2() {
        // SAFETY: `apply_avx2` is a safe function whose only requirement of
        // its caller is that the CPU supports AVX2, which `simd::avx2` on
        // the line above has just established.
        return unsafe { apply_avx2(product, b, (rows, cols, k), xf, yf, xt, yt) };
    }
    apply_baseline(product, b, (rows, cols, k), xf, yf, xt, yt)
}

/// [`apply_baseline`] compiled with 256-bit vectors; AVX2 without `fma`,
/// so nothing is contracted and the bits are the baseline's.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn apply_avx2<S: Scalar, A: Scalar>(
    product: Product,
    b: &[S],
    shape: (usize, usize, usize),
    xf: &[A],
    yf: &mut [A],
    xt: &[A],
    yt: &mut [A],
) {
    apply_baseline(product, b, shape, xf, yf, xt, yt)
}

/// The products of [`apply`]: the tiles over the first `k - k mod 4`
/// columns, transposed then forward (module docs: the column-order pass
/// fetches the block), and the one-column path over the rest.
/// `#[inline(always)]`, with everything under it, so that [`apply_avx2`]
/// compiles this same body a second time.
#[inline(always)]
fn apply_baseline<S: Scalar, A: Scalar>(
    product: Product,
    b: &[S],
    (rows, cols, k): (usize, usize, usize),
    xf: &[A],
    yf: &mut [A],
    xt: &[A],
    yt: &mut [A],
) {
    let tiled = k - k % COLS;
    if tiled > 0 && product != Product::Forward {
        transposed(b, rows, cols, tiled, xt, yt);
    }
    if tiled > 0 && product != Product::Transposed {
        forward(b, rows, cols, tiled, xf, yf);
    }
    for c in tiled..k {
        let (xf_c, xt_c) = (|| column(xf, cols, c), || column(xt, rows, c));
        match product {
            Product::Forward => gemv_acc(b, rows, xf_c(), column_mut(yf, rows, c)),
            Product::Transposed => gemv_t_acc(b, rows, xt_c(), column_mut(yt, cols, c)),
            Product::Both => {
                let (yf_c, yt_c) = (column_mut(yf, rows, c), column_mut(yt, cols, c));
                gemv_bi_acc(b, rows, xf_c(), yf_c, xt_c(), yt_c)
            }
        }
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

/// `Y += B X` an 8 × 4 tile of `Y` at a time (module docs) over the first
/// `k` panel columns, a multiple of [`COLS`]. The row tiles start at 0, 8,
/// 16, … and, when 8 does not divide `rows`, one more covers the last 8
/// rows; it stores only the rows no other tile has: the others are final
/// already, and what it adds to them is dropped. A block of fewer than 8
/// rows runs per column.
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

/// `Y += Bᵀ X` two block columns, `p` and `p + cols / 2`, × four panel
/// columns at a time (module docs) over the first `k` panel columns, a
/// multiple of [`COLS`]; an odd last block column runs [`blas::dot`] per
/// panel column.
#[inline(always)]
fn transposed<S: Scalar, A: Scalar>(
    b: &[S],
    rows: usize,
    cols: usize,
    k: usize,
    x: &[A],
    y: &mut [A],
) {
    let (quads, half) = (rows / 4, cols / 2);
    for p in 0..half {
        let js = [p, p + half];
        let bs: [&[S]; 2] = js.map(|j| column(b, rows, j));
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
            for ((sj, bj), j) in s.iter().zip(&bs).zip(js) {
                let ys = array::from_fn(|c| (c0 + c) * cols + j);
                finish_dots(sj, [*bj; COLS], xs, ys, y);
            }
        }
    }
    if cols % 2 == 1 {
        let bj = column(b, rows, cols - 1);
        for c in 0..k {
            y[c * cols + cols - 1] += blas::dot(bj, column(x, rows, c));
        }
    }
}

/// Completes four dot products, of the block column `bs[c]` with the panel
/// column `xs[c]`, from their partial sums `s[c]`: `(s0 + s1) + (s2 + s3)`,
/// the row tail, then `y[at[c]] += t`. [`transposed`] passes one block
/// column and four panel columns, the one-column applies four block columns
/// and one panel column.
///
/// Not inlined: where LLVM sees these sums next to the loop that makes them,
/// it vectorises both across the four outputs instead of across the four
/// partial sums, and every step of the loop then shuffles its loads.
#[inline(never)]
fn finish_dots<S: Scalar, A: Scalar>(
    s: &[[A; 4]; COLS],
    bs: [&[S]; COLS],
    xs: [&[A]; COLS],
    at: [usize; COLS],
    y: &mut [A],
) {
    for (((&[s0, s1, s2, s3], bj), xc), at) in s.iter().zip(bs).zip(xs).zip(at) {
        let tail = bj.len() - bj.len() % 4;
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
    use crate::scalar::bits;

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

    /// A case's description in a failure message.
    fn what<S: Scalar, A: Scalar>(rows: usize, cols: usize, k: usize, special: bool) -> String {
        let (s, a) = (S::NAME, A::NAME);
        format!("{s}/{a} {rows}x{cols} k={k} special={special}")
    }

    /// Panel ≡ `k` one-column applies, both directions, bit for bit.
    fn assert_columns<S: Scalar, A: Scalar>(rows: usize, cols: usize, k: usize, special: bool) {
        let what = what::<S, A>(rows, cols, k, special);
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

    /// [`matmat_bi_acc`] ≡ [`matmat_acc`] then [`matmat_t_acc`], bit for bit.
    fn assert_both<S: Scalar, A: Scalar>(rows: usize, cols: usize, k: usize, special: bool) {
        let what = what::<S, A>(rows, cols, k, special);
        let b = block::<S>(rows, cols, special);
        let (xf, xt) = (panel::<A>(cols, k, 3), panel::<A>(rows, k, 7));
        let (mut yf, mut yt) = (panel::<A>(rows, k, 5), panel::<A>(cols, k, 9));
        let (mut want_f, mut want_t) = (yf.clone(), yt.clone());
        matmat_bi_acc(&b, rows, cols, k, &xf, &mut yf, &xt, &mut yt);
        matmat_acc(&b, rows, cols, k, &xf, &mut want_f);
        matmat_t_acc(&b, rows, cols, k, &xt, &mut want_t);
        assert_eq!(bits(&yf), bits(&want_f), "forward {what}");
        assert_eq!(bits(&yt), bits(&want_t), "transposed {what}");
    }

    /// Runs `check(rows, cols, k, special)` over 0-row and 0-column blocks,
    /// blocks under 4 and 8 rows, and 125 × 125, at `k = 1..=9`. The 2-,
    /// 3- and 4-column blocks are the transposed tile's smallest pairings:
    /// one pair, a pair and the odd last column, two pairs.
    fn every_shape(check: fn(usize, usize, usize, bool)) {
        let mut shapes = vec![(0, 5), (0, 6), (5, 0), (6, 0), (1, 1)];
        for m in [3, 7, 8, 9, 17, 125] {
            shapes.extend([(m, 2), (m, 3), (m, 4), (m, 6), (m, 7), (m, 125)]);
        }
        for (rows, cols) in shapes {
            for k in 1..=9 {
                for special in [false, true] {
                    check(rows, cols, k, special);
                }
            }
        }
    }

    #[test]
    fn panel_columns_equal_one_column_applies_bitwise() {
        every_shape(assert_columns::<f64, f64>);
        every_shape(assert_columns::<f32, f64>);
        every_shape(assert_columns::<f32, f32>);
    }

    #[test]
    fn both_directions_at_once_equal_the_two_products_bitwise() {
        every_shape(assert_both::<f64, f64>);
        every_shape(assert_both::<f32, f64>);
        every_shape(assert_both::<f32, f32>);
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

    /// The dispatched compile has the baseline compile's bits: forward,
    /// transposed and both at once, tiled (`k = 8`), one-column (`k = 1`)
    /// and mixed (`k = 5`).
    fn assert_dispatch<S: Scalar, A: Scalar>() {
        use Product::*;
        for (rows, cols) in [(17, 9), (125, 124), (8, 3), (3, 5)] {
            for special in [false, true] {
                let b = block::<S>(rows, cols, special);
                for (k, product) in [1, 5, 8]
                    .into_iter()
                    .flat_map(|k| [Forward, Transposed, Both].map(|p| (k, p)))
                {
                    // The panels of a direction `product` does not apply
                    // are empty.
                    let on = |dir: bool, len: usize, seed: usize| match dir {
                        true => panel::<A>(len, k, seed),
                        false => Vec::new(),
                    };
                    let (fwd, rev) = (product != Transposed, product != Forward);
                    let (xf, xt) = (on(fwd, cols, 1), on(rev, rows, 3));
                    let (mut yf, mut yt) = (on(fwd, rows, 2), on(rev, cols, 4));
                    let (mut base_f, mut base_t) = (yf.clone(), yt.clone());
                    let shape = (rows, cols, k);
                    apply_baseline(product, &b, shape, &xf, &mut base_f, &xt, &mut base_t);
                    apply(product, &b, shape, &xf, &mut yf, &xt, &mut yt);
                    let what = format!("{rows}x{cols} k={k} {product:?}");
                    assert_eq!(bits(&base_f), bits(&yf), "{what}");
                    assert_eq!(bits(&base_t), bits(&yt), "{what}");
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
