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

/// The points of the pin below: 300 in `dim` dimensions, spread by `scale`
/// (at 40 the Gaussian reaches its subnormals and underflows to zero).
fn spread_points(dim: usize, scale: f64) -> PointSet {
    PointSet::from_fn(300, dim, |i, d| {
        let u = ((i * 7919 + d * 104_729) % 1000) as f64 / 1000.0;
        scale * (u - 0.5) * (1.0 + (i % 5) as f64)
    })
}

#[test]
fn every_named_kernel_blocks_bitwise_as_eval() {
    // Both blocked entry points ≡ entrywise `eval` for every kernel
    // `kernel_by_name` knows, with its own parameters, over near and far
    // points; rows repeat points and share them with the columns.
    let rows: Vec<usize> = (0..300).map(|i| (i * 37) % 240).collect();
    let cols: Vec<usize> = (0..40).map(|j| (j * 53) % 300).collect();
    for name in NAMES {
        let k = h2_kernels::kernel_by_name(name).expect("a named kernel");
        for dim in [1, 2, 3] {
            for scale in [1.0, 40.0] {
                assert_block_bits(k.as_ref(), &spread_points(dim, scale), &rows, &cols);
            }
        }
    }
}

/// Every name `kernel_by_name` knows, once.
const NAMES: [&str; 7] = [
    "coulomb",
    "coulomb3",
    "exponential",
    "gaussian",
    "matern32",
    "imq",
    "tps",
];

/// FNV-1a, one 64-bit word at a time.
fn fnv(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0100_0000_01b3)
}

#[test]
fn kernel_blocks_keep_their_bits() {
    // `eval_block_into` of every `kernel_by_name` kernel in 1, 2 and 3
    // dimensions: FNV-1a over every entry's bits. Rows repeat points and
    // share them with the columns (`r² = 0`), and the wide set reaches
    // `r²` in the thousands, where the Gaussian underflows through the
    // subnormals to zero.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for name in NAMES {
        let k = h2_kernels::kernel_by_name(name).expect("a named kernel");
        for dim in [1, 2, 3] {
            for scale in [1.0, 40.0] {
                let pts = spread_points(dim, scale);
                let rows: Vec<usize> = (0..300).map(|i| (i * 37) % 240).collect();
                let cols: Vec<usize> = (0..40).map(|j| (j * 53) % 300).collect();
                let block = kernel_matrix(k.as_ref(), &pts, &rows, &cols);
                for &v in block.as_slice() {
                    h = fnv(h, v.to_bits());
                }
            }
        }
    }
    assert_eq!(h, 0x7bf0_b5c9_cd6b_8f3b, "kernel block hash {h:#018x}");
}
