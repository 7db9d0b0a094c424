//! Property-based tests for the kernel substrate.

use h2_kernels::{
    dense_matvec, kernel_cross_matrix, kernel_matrix, Coulomb, CoulombCubed, Exponential, Gaussian,
    InverseMultiquadric, Kernel, Matern32, ThinPlateSpline,
};
use h2_linalg::chol::Cholesky;
use h2_points::gen::{self, cases};
use h2_points::PointSet;

const CASES: u64 = 20;

fn kernels() -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(Coulomb),
        Box::new(CoulombCubed),
        Box::new(Exponential),
        Box::new(Gaussian::paper()),
        Box::new(Matern32 { ell: 0.7 }),
        Box::new(InverseMultiquadric { c: 1.0 }),
        Box::new(ThinPlateSpline),
    ]
}

/// `radial.rs`'s private tile size in `f64` slots: a tile holds `TILE / dim`
/// rows.
const TILE: usize = 1024;

/// Both blocked entry points against the scalar reference, on bits.
fn assert_block_bits(k: &dyn Kernel, pts: &PointSet, rows: &[usize], cols: &[usize]) {
    let block = kernel_matrix(k, pts, rows, cols);
    let cross = kernel_cross_matrix(k, &pts.select(rows), &pts.select(cols));
    for (jj, &c) in cols.iter().enumerate() {
        for (ii, &r) in rows.iter().enumerate() {
            let want = k.eval(pts.point(r), pts.point(c)).to_bits();
            for (entry, got) in [("block", block[(ii, jj)]), ("cross", cross[(ii, jj)])] {
                assert_eq!(
                    got.to_bits(),
                    want,
                    "eval_{}_into, {} dim {} at ({}, {})",
                    entry,
                    k.name(),
                    pts.dim(),
                    ii,
                    jj
                );
            }
        }
    }
}

#[test]
fn kernel_matrices_are_symmetric() {
    cases(CASES, |r| {
        let n = 2 + r.below(28);
        let dim = 1 + r.below(4);
        let seed = r.below(500) as u64;
        let pts = gen::uniform_cube(n, dim, seed);
        let idx: Vec<usize> = (0..n).collect();
        for k in kernels() {
            let m = kernel_matrix(k.as_ref(), &pts, &idx, &idx);
            let diff = m.sub(&m.transpose()).max_abs();
            assert!(diff == 0.0, "{} not symmetric", Kernel::name(k.as_ref()));
        }
    });
}

#[test]
fn blocked_eval_matches_pointwise() {
    cases(CASES, |r| {
        let n = 4 + r.below(21);
        let dim = 1 + r.below(3);
        let seed = r.below(500) as u64;
        let pts = gen::uniform_cube(n, dim, seed);
        let rows: Vec<usize> = (0..n / 2).collect();
        let cols: Vec<usize> = (n / 2..n).collect();
        for k in kernels() {
            let m = kernel_matrix(k.as_ref(), &pts, &rows, &cols);
            for (ii, &r) in rows.iter().enumerate() {
                for (jj, &c) in cols.iter().enumerate() {
                    assert_eq!(m[(ii, jj)], k.eval(pts.point(r), pts.point(c)));
                }
            }
        }
        // The tile's edges, over this case's coordinates. Rows and columns
        // repeat points and share them, so `r² = 0` and the singular kernels'
        // `K(x, x) = 0` land inside a vector lane.
        for dim in [1, 2, 3, 5, 8] {
            let pts = gen::uniform_cube(40, dim, seed);
            let cap = TILE / dim;
            for m in [0, 1, cap - 1, cap, cap + 1, 2 * cap + 3] {
                let rows: Vec<usize> = (0..m).map(|i| (i * 7) % 40).collect();
                for n in [0, 1, 7] {
                    let cols: Vec<usize> = (0..n).map(|j| (j % 4) * 10).collect();
                    for k in kernels() {
                        assert_block_bits(k.as_ref(), &pts, &rows, &cols);
                    }
                }
            }
        }
    });
}

#[test]
fn apply_block_is_fused_matvec() {
    cases(CASES, |r| {
        let n = 6 + r.below(19);
        let seed = r.below(500) as u64;
        let pts = gen::uniform_cube(n, 3, seed);
        let rows: Vec<usize> = (0..n / 2).collect();
        let cols: Vec<usize> = (n / 2..n).collect();
        let x: Vec<f64> = (0..cols.len()).map(|i| (i as f64 * 0.31).cos()).collect();
        for k in kernels() {
            let block = kernel_matrix(k.as_ref(), &pts, &rows, &cols);
            let mut y1 = vec![0.25; rows.len()];
            k.apply_block(&pts, &rows, &cols, &x, &mut y1);
            let mut y2 = vec![0.25; rows.len()];
            block.matvec_acc(&x, &mut y2);
            for (a, b) in y1.iter().zip(&y2) {
                assert!((a - b).abs() < 1e-11 * (1.0 + b.abs()));
            }
        }
    });
}

#[test]
fn gaussian_gram_is_positive_definite() {
    cases(CASES, |r| {
        let n = 3 + r.below(22);
        let seed = r.below(500) as u64;
        // exp(-r^2/h) is strictly PD for distinct points; with a tiny jitter
        // Cholesky must succeed.
        let pts = gen::uniform_cube(n, 3, seed);
        let idx: Vec<usize> = (0..n).collect();
        let mut m = kernel_matrix(&Gaussian::paper(), &pts, &idx, &idx);
        for i in 0..n {
            m[(i, i)] += 1e-10;
        }
        assert!(Cholesky::new(m).is_ok());
    });
}

#[test]
fn radial_kernels_decay() {
    cases(CASES, |r| {
        // Monotone decay in distance for the decaying kernels.
        let mut rnd = || r.unit() * 2.0;
        let r1 = rnd() + 0.01;
        let r2 = r1 + rnd() + 0.01;
        for k in [
            Box::new(Coulomb) as Box<dyn Kernel>,
            Box::new(Exponential),
            Box::new(Gaussian::paper()),
            Box::new(Matern32 { ell: 1.0 }),
        ] {
            let v1 = k.eval(&[0.0], &[r1]);
            let v2 = k.eval(&[0.0], &[r2]);
            assert!(
                v1 >= v2,
                "{}: K({r1})={v1} < K({r2})={v2}",
                Kernel::name(k.as_ref())
            );
        }
    });
}

#[test]
fn dense_matvec_of_ones_is_row_sums() {
    cases(CASES, |r| {
        let n = 3 + r.below(17);
        let seed = r.below(300) as u64;
        let pts = gen::uniform_cube(n, 2, seed);
        let idx: Vec<usize> = (0..n).collect();
        let m = kernel_matrix(&Exponential, &pts, &idx, &idx);
        let y = dense_matvec(&Exponential, &pts, &vec![1.0; n]);
        for i in 0..n {
            let row_sum: f64 = (0..n).map(|j| m[(i, j)]).sum();
            assert!((y[i] - row_sum).abs() < 1e-10 * (1.0 + row_sum.abs()));
        }
    });
}
