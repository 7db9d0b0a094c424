//! Convergence studies: measured error must track the requested tolerance
//! over a ladder of targets, for every construction method — the
//! quantitative backbone behind the paper's Fig. 8.

use h2_core::{BasisMethod, H2Config, H2Matrix, MemoryMode};
use h2_kernels::{dense_matvec, Coulomb};
use h2_points::gen;
use std::sync::Arc;

fn true_error(h2: &H2Matrix, seed: u64) -> f64 {
    let n = h2.n();
    let b = h2_core::error_est::probe_vector(n, seed);
    let y = h2.matvec(&b);
    let z = dense_matvec(h2.kernel(), h2.tree().points(), &b);
    h2_linalg::vec_ops::rel_err(&y, &z)
}

fn ladder(mk: impl Fn(f64) -> BasisMethod) -> Vec<f64> {
    let pts = gen::uniform_cube(1200, 3, 31);
    [1e-2, 1e-4, 1e-6, 1e-8]
        .iter()
        .map(|&tol| {
            let cfg = H2Config {
                basis: mk(tol),
                mode: MemoryMode::OnTheFly,
                leaf_size: 64,
                eta: 0.7,
                ..H2Config::default()
            };
            let h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg);
            true_error(&h2, 33)
        })
        .collect()
}

fn assert_ladder(errors: &[f64], targets: &[f64], slack: f64, label: &str) {
    for (e, t) in errors.iter().zip(targets) {
        assert!(
            *e < t * slack,
            "{label}: target {t:.0e} achieved only {e:.2e}"
        );
    }
    // Strictly improving by at least 10x per 100x target step.
    for w in errors.windows(2) {
        assert!(
            w[1] < w[0] * 0.1 + 1e-14,
            "{label}: no convergence step: {} -> {}",
            w[0],
            w[1]
        );
    }
}

#[test]
fn data_driven_converges_with_tolerance() {
    let errors = ladder(|tol| BasisMethod::data_driven_for_tol(tol, 3));
    assert_ladder(&errors, &[1e-2, 1e-4, 1e-6, 1e-8], 10.0, "data-driven");
}

#[test]
fn interpolation_converges_with_tolerance() {
    let errors = ladder(|tol| BasisMethod::interpolation_for_tol(tol, 3));
    // Interpolation's calibration is ~1 digit per order: allow 30x slack on
    // the nominal target (measured errors still step down monotonically).
    assert_ladder(&errors, &[1e-2, 1e-4, 1e-6, 1e-8], 30.0, "interpolation");
}

#[test]
fn id_tolerance_is_the_error_lever() {
    // With generous fixed sampling, the ID tolerance alone must control the
    // achieved error (isolates the two knobs of the data-driven method).
    use h2_sampling::SampleParams;
    let pts = gen::uniform_cube(1000, 3, 37);
    let run = |id_tol: f64| {
        let cfg = H2Config {
            basis: BasisMethod::DataDriven {
                samples: SampleParams {
                    node_samples: 160,
                    far_samples: 480,
                },
                id_tol,
            },
            mode: MemoryMode::Normal,
            leaf_size: 64,
            eta: 0.7,
            ..H2Config::default()
        };
        let h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg);
        true_error(&h2, 39)
    };
    let loose = run(1e-3);
    let tight = run(1e-9);
    assert!(
        tight < loose * 1e-2,
        "id_tol had no effect: {loose:.2e} -> {tight:.2e}"
    );
}
