//! Precision property tests: the `f32` and mixed-precision operator paths
//! against the `f64` reference, across kernels × memory modes × apply
//! shapes (vector and panel).
//!
//! The builders factor in `f64` and round generators once at assembly, so an
//! `f32` operator is the entrywise rounding of its `f64` sibling; relative
//! errors between them must sit at the single-precision floor (≤ 1e-5),
//! and the mixed mode (`f32` storage, `f64` accumulation) must not be worse
//! than pure `f32`.

use h2_core::{BasisMethod, H2Config, H2MatrixS, MemoryMode};
use h2_kernels::{Coulomb, Exponential, Gaussian, Kernel};
use h2_linalg::{vec_ops, Matrix, MatrixS};
use h2_points::gen;
use std::sync::Arc;

const N: usize = 700;

fn cfg(mode: MemoryMode) -> H2Config {
    H2Config {
        basis: BasisMethod::data_driven_for_tol(1e-6, 3),
        mode,
        leaf_size: 48,
        eta: 0.7,
        ..H2Config::default()
    }
}

fn rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
        .collect()
}

#[test]
fn f32_matvec_tracks_f64_across_kernels_and_modes() {
    let pts = gen::uniform_cube(N, 3, 17);
    let b64 = rhs(N, 3);
    let b32: Vec<f32> = b64.iter().map(|&v| v as f32).collect();
    let kernels: Vec<(&str, Arc<dyn Kernel>)> = vec![
        ("coulomb", Arc::new(Coulomb)),
        ("exponential", Arc::new(Exponential)),
        ("gaussian", Arc::new(Gaussian::paper())),
    ];
    for (name, kernel) in &kernels {
        for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
            let c = cfg(mode);
            let h64 = H2MatrixS::<f64>::build(&pts, kernel.clone(), &c);
            let h32 = H2MatrixS::<f32>::build(&pts, kernel.clone(), &c);
            // Identical structure: same ranks, same skeletons.
            assert_eq!(h64.ranks(), h32.ranks(), "{name}/{}", mode.name());
            let y64 = h64.matvec(&b64);
            let y32 = h32.matvec(&b32);
            let err = vec_ops::rel_err(&y32, &y64);
            assert!(err <= 1e-5, "{name}/{}: f32 matvec err {err}", mode.name());
        }
    }
}

#[test]
fn f32_matmat_tracks_f64_and_stays_bitwise_columnwise() {
    let pts = gen::uniform_cube(500, 3, 23);
    for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
        let c = cfg(mode);
        let h64 = H2MatrixS::<f64>::build(&pts, Arc::new(Coulomb), &c);
        let h32 = H2MatrixS::<f32>::build(&pts, Arc::new(Coulomb), &c);
        let b64 = Matrix::from_fn(500, 4, |i, j| ((i * 7 + 3 * j) % 11) as f64 * 0.2 - 1.0);
        let b32: MatrixS<f32> = b64.convert();
        let y64 = h64.matmat(&b64);
        let y32 = h32.matmat(&b32);
        for col in 0..4 {
            let err = vec_ops::rel_err(y32.col(col), y64.col(col));
            assert!(err <= 1e-5, "{}: col {col} err {err}", mode.name());
            // Panel columns stay bit-identical to vector products per
            // precision (the f64 guarantee carries over verbatim).
            assert_eq!(
                y32.col(col),
                &h32.matvec(b32.col(col))[..],
                "{}: f32 panel column {col} != vector product",
                mode.name()
            );
        }
    }
}

#[test]
fn mixed_precision_end_to_end_beats_or_matches_f32() {
    let pts = gen::uniform_cube(N, 3, 29);
    let b = rhs(N, 7);
    let b32: Vec<f32> = b.iter().map(|&v| v as f32).collect();
    for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
        let c = cfg(mode);
        let h64 = H2MatrixS::<f64>::build(&pts, Arc::new(Coulomb), &c);
        let h32 = H2MatrixS::<f32>::build(&pts, Arc::new(Coulomb), &c);
        let reference = h64.matvec(&b);
        let pure = vec_ops::rel_err(&h32.matvec(&b32), &reference);
        let mixed = vec_ops::rel_err(&h32.matvec_f64(&b), &reference);
        assert!(mixed <= 1e-5, "{}: mixed err {mixed}", mode.name());
        // Accumulating in f64 must not lose accuracy vs f32 accumulation
        // (small slack: with only ~1e2 terms per partial both sit near the
        // storage-rounding floor and can tie).
        assert!(
            mixed <= pure * 1.5 + 1e-9,
            "{}: mixed {mixed} worse than pure f32 {pure}",
            mode.name()
        );
    }
}

#[test]
fn f32_storage_halves_scalar_payload() {
    let pts = gen::uniform_cube(1200, 3, 31);
    let c = cfg(MemoryMode::Normal);
    let m64 = H2MatrixS::<f64>::build(&pts, Arc::new(Coulomb), &c).memory_report();
    let m32 = H2MatrixS::<f32>::build(&pts, Arc::new(Coulomb), &c).memory_report();
    // Scalar payloads (generators + blocks) halve exactly; index/tree/list
    // bytes are precision-independent.
    assert_eq!(2 * m32.bases, m64.bases);
    assert_eq!(2 * m32.transfers, m64.transfers);
    assert_eq!(2 * m32.coupling_blocks, m64.coupling_blocks);
    assert_eq!(2 * m32.nearfield_blocks, m64.nearfield_blocks);
    assert_eq!(m32.block_indices, m64.block_indices);
    assert_eq!(m32.tree, m64.tree);
}

#[test]
fn f32_estimate_rel_error_reports_single_precision_floor() {
    let pts = gen::uniform_cube(N, 3, 37);
    let b = rhs(N, 11);
    let b32: Vec<f32> = b.iter().map(|&v| v as f32).collect();
    let h32 = H2MatrixS::<f32>::build(&pts, Arc::new(Coulomb), &cfg(MemoryMode::OnTheFly));
    let y32 = h32.matvec(&b32);
    let est = h32.estimate_rel_error(&b32, &y32, 60, 99);
    assert!(est <= 1e-5, "estimated error {est}");
}

#[test]
fn f32_parts_round_trip_bitwise() {
    let pts = gen::uniform_cube(600, 3, 41);
    for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
        let h32 = H2MatrixS::<f32>::build(&pts, Arc::new(Coulomb), &cfg(mode));
        let back = H2MatrixS::<f32>::from_parts(h32.to_parts(), Arc::new(Coulomb)).unwrap();
        let b: Vec<f32> = (0..600).map(|i| (i as f32 * 0.37).sin()).collect();
        assert_eq!(h32.matvec(&b), back.matvec(&b), "mode {mode:?}");
    }
}
