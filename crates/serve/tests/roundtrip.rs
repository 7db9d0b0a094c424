//! Persistence properties: save→load→matvec bit-identity in both memory
//! modes, robustness of the loader against truncated/corrupted bytes, and
//! the on-the-fly vs normal file-size split.

use h2_core::{BasisMethod, H2Config, H2Matrix, MemoryMode};
use h2_kernels::Coulomb;
use h2_points::gen;
use h2_serve::{codec, LoadError};
use proptest::prelude::*;
use std::sync::Arc;

fn build(n: usize, dim: usize, seed: u64, tol: f64, mode: MemoryMode) -> H2Matrix {
    let pts = gen::uniform_cube(n, dim, seed);
    let cfg = H2Config {
        basis: BasisMethod::data_driven_for_tol(tol, dim),
        mode,
        leaf_size: 48,
        eta: 0.7,
        ..H2Config::default()
    };
    H2Matrix::build(&pts, Arc::new(Coulomb), &cfg)
}

fn probe(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i as f64 + seed as f64) * 0.417).sin())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The loaded operator applies bit-identically to the in-memory one, in
    /// both memory modes, across sizes/dimensions/datasets.
    #[test]
    fn save_load_matvec_is_bit_identical((n, dim, seed) in (150usize..400, 1usize..4, 0u64..1000)) {
        for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
            let h2 = build(n, dim, seed, 1e-4, mode);
            let loaded = codec::decode::<f64>(&codec::encode(&h2), Arc::new(Coulomb))
                .expect("round trip must decode");
            let b = probe(n, seed);
            prop_assert_eq!(h2.matvec(&b), loaded.matvec(&b));
            prop_assert_eq!(loaded.mode(), mode);
        }
    }

    /// Any single flipped byte is detected: the loader returns `Err` (and
    /// in particular never panics) — magic, version, tags, lengths and
    /// payloads are all covered by structure checks or section checksums.
    #[test]
    fn corrupted_files_return_err((pos_seed, bit) in (0u64..10_000, 0u8..8)) {
        let h2 = build(220, 2, 3, 1e-4, MemoryMode::OnTheFly);
        let mut bytes = codec::encode(&h2);
        let pos = (pos_seed as usize) % bytes.len();
        bytes[pos] ^= 1 << bit;
        prop_assert!(codec::decode::<f64>(&bytes, Arc::new(Coulomb)).is_err(),
            "flip at byte {} must be detected", pos);
    }

    /// The header peeks (`stored_scalar`/`stored_builder`/`stored_epoch`)
    /// never panic on hostile bytes: any single bit flip anywhere in the
    /// file yields either a typed error or a well-formed answer.
    #[test]
    fn peeks_survive_bit_flips((pos_seed, bit) in (0u64..10_000, 0u8..8)) {
        let h2 = build(180, 2, 11, 1e-4, MemoryMode::OnTheFly);
        let mut bytes = codec::encode(&h2);
        let pos = (pos_seed as usize) % bytes.len();
        bytes[pos] ^= 1 << bit;
        // Typed errors are fine; panics are the bug this test hunts.
        let _ = codec::stored_scalar(&bytes);
        let _ = codec::stored_builder(&bytes);
        let _ = codec::stored_epoch(&bytes);
    }
}

/// The header peeks return typed errors (never panic) on truncated and
/// zero-length inputs, at every truncation point.
#[test]
fn peeks_return_typed_errors_on_truncated_and_empty_input() {
    for bytes in [vec![], vec![0x48]] {
        assert!(matches!(
            codec::stored_scalar(&bytes),
            Err(LoadError::BadMagic) | Err(LoadError::CorruptSection { .. })
        ));
        assert!(codec::stored_builder(&bytes).is_err());
        assert!(codec::stored_epoch(&bytes).is_err());
    }
    let h2 = build(200, 2, 13, 1e-4, MemoryMode::OnTheFly);
    let bytes = codec::encode(&h2);
    let step = (bytes.len() / 97).max(1);
    for cut in (0..bytes.len()).step_by(step) {
        let prefix = &bytes[..cut];
        // Each peek must return (not panic). A prefix that only cuts
        // the slab region legitimately still answers header peeks (they
        // never touch the slab); everything else is a typed LoadError
        // with a printable message. A successful answer must be sane.
        match codec::stored_scalar(prefix) {
            Ok(s) => assert!(s == "f64" || s == "f32"),
            Err(e) => {
                let _ = e.to_string();
            }
        }
        match codec::stored_epoch(prefix) {
            Ok(e) => assert_eq!(e, 0),
            Err(e) => {
                let _ = e.to_string();
            }
        }
        let _ = codec::stored_builder(prefix);
        // The full decode, by contrast, must reject every proper prefix.
        assert!(
            codec::decode::<f64>(prefix, Arc::new(Coulomb)).is_err(),
            "decoding a {cut}-byte prefix must fail"
        );
    }
    // The full file answers every peek.
    assert_eq!(codec::stored_scalar(&bytes).unwrap(), "f64");
    assert_eq!(codec::stored_epoch(&bytes).unwrap(), 0);
    assert!(codec::stored_builder(&bytes).is_ok());
}

/// Every truncation point yields a typed error, never a panic.
#[test]
fn truncated_files_return_err() {
    let h2 = build(260, 3, 5, 1e-4, MemoryMode::Normal);
    let bytes = codec::encode(&h2);
    let step = (bytes.len() / 101).max(1);
    for cut in (0..bytes.len()).step_by(step) {
        let err = codec::decode::<f64>(&bytes[..cut], Arc::new(Coulomb));
        assert!(err.is_err(), "decoding a {cut}-byte prefix must fail");
    }
    // The untruncated file still loads.
    assert!(codec::decode::<f64>(&bytes, Arc::new(Coulomb)).is_ok());
}

/// Acceptance criterion: at n = 5000 the on-the-fly file (tree + skeleton
/// generators only) is at least 5x smaller than the normal-mode file
/// (which adds the dense coupling/nearfield blocks) for the same operator.
#[test]
fn otf_file_at_least_5x_smaller_at_n5000() {
    let normal = build(5000, 3, 7, 1e-5, MemoryMode::Normal);
    let otf = build(5000, 3, 7, 1e-5, MemoryMode::OnTheFly);
    let normal_bytes = codec::encode(&normal);
    let otf_bytes = codec::encode(&otf);
    let ratio = normal_bytes.len() as f64 / otf_bytes.len() as f64;
    assert!(
        ratio >= 5.0,
        "normal {} KiB / otf {} KiB = {ratio:.2}x, expected >= 5x",
        normal_bytes.len() / 1024,
        otf_bytes.len() / 1024
    );
    // Both files round-trip to bit-identical operators.
    let b = probe(5000, 7);
    let n2 = codec::decode::<f64>(&normal_bytes, Arc::new(Coulomb)).unwrap();
    let o2 = codec::decode::<f64>(&otf_bytes, Arc::new(Coulomb)).unwrap();
    assert_eq!(normal.matvec(&b), n2.matvec(&b));
    assert_eq!(otf.matvec(&b), o2.matvec(&b));
}

/// A file saved in one mode and reopened must report that mode and the
/// loader must reject cross-mode inconsistencies injected at the parts
/// level (defense in depth for hand-edited files).
#[test]
fn mode_is_preserved_and_validated() {
    let otf = build(300, 3, 9, 1e-4, MemoryMode::OnTheFly);
    let loaded = codec::decode::<f64>(&codec::encode(&otf), Arc::new(Coulomb)).unwrap();
    assert_eq!(loaded.mode(), MemoryMode::OnTheFly);
    assert!(!loaded.lists().nearfield_pairs.is_empty());

    // Flipping the mode byte inside the fingerprint breaks its checksum.
    let bytes = codec::encode(&otf);
    let mut tampered = bytes.clone();
    // Fingerprint payload starts right after magic(8) + version(4) + tag(1) + len(8).
    tampered[21] ^= 1;
    match codec::decode::<f64>(&tampered, Arc::new(Coulomb)) {
        Err(LoadError::CorruptSection { section, .. }) => assert_eq!(section, "fingerprint"),
        other => panic!("expected corrupt fingerprint, got {:?}", other.map(|_| ())),
    }
}
