//! Persistence properties: save→load→matvec bit-identity in both memory
//! modes, robustness of the loader against truncated/corrupted bytes, and
//! the on-the-fly vs normal file-size split.

use h2_core::{BasisMethod, BuilderStrategy, H2Config, H2Matrix, MemoryMode};
use h2_kernels::Coulomb;
use h2_linalg::scalar::bits;
use h2_linalg::{BasisMatrix, Matrix, SlabMem};
use h2_points::gen::{self, cases};
use h2_serve::{codec, LoadError};
use std::sync::Arc;

const CASES: u64 = 6;

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

/// The loaded operator applies bit-identically to the in-memory one, in
/// both memory modes, across sizes/dimensions/datasets.
#[test]
fn save_load_matvec_is_bit_identical() {
    cases(CASES, |r| {
        let n = 150 + r.below(250);
        let dim = 1 + r.below(3);
        let seed = r.below(1000) as u64;
        for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
            let h2 = build(n, dim, seed, 1e-4, mode);
            let loaded = codec::decode::<f64>(&codec::encode(&h2), Arc::new(Coulomb))
                .expect("round trip must decode");
            let b = probe(n, seed);
            assert_eq!(h2.matvec(&b), loaded.matvec(&b));
            assert_eq!(loaded.mode(), mode);
        }
    });
}

/// Bases and transfers hold their unit rows as column indices
/// (`BasisMatrix`). For a data-driven, a sketched and an interpolation
/// operator in both modes, the built operator, `from_parts(to_parts)`, the
/// owned decode and the mapped decode apply with the same bits, and
/// `memory_report` counts the bytes the matrices hold.
#[test]
fn split_bases_keep_their_products_on_every_path() {
    let n = 900;
    let pts = gen::uniform_cube(n, 3, 5);
    let b = probe(n, 3);
    let panel = Matrix::from_fn(n, 3, |i, j| ((i * 3 + j) as f64 * 0.29).cos());
    for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
        let base = H2Config {
            mode,
            leaf_size: 48,
            eta: 0.7,
            ..H2Config::default()
        };
        let cfgs = [
            (
                "data-driven",
                H2Config {
                    basis: BasisMethod::data_driven_for_tol(1e-6, 3),
                    ..base.clone()
                },
            ),
            (
                "sketched",
                H2Config {
                    builder: BuilderStrategy::sketched_for_tol(1e-6, 3),
                    ..base.clone()
                },
            ),
            (
                "interpolation",
                H2Config {
                    basis: BasisMethod::Interpolation { order: 4 },
                    ..base.clone()
                },
            ),
        ];
        for (name, cfg) in cfgs {
            let h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg);
            let generators = || h2.bases().iter().chain(h2.transfers());
            let dense: usize = generators().map(|m| m.to_dense().bytes()).sum();
            let held: usize = generators().map(BasisMatrix::bytes).sum();
            assert!(held <= dense, "{name} {mode:?}: {held} > {dense}");
            if name != "interpolation" {
                assert!(
                    generators().any(|m| m.unit_rows() > 0),
                    "{name}: no unit row"
                );
                assert!(held < dense, "{name} {mode:?}: {held} of {dense}");
            }
            let bytes = codec::encode(&h2);
            let ops = [
                H2Matrix::from_parts(h2.to_parts(), Arc::new(Coulomb)).expect("from_parts"),
                codec::decode::<f64>(&bytes, Arc::new(Coulomb)).expect("decode"),
                codec::decode_mapped::<f64>(&SlabMem::from_bytes(&bytes), Arc::new(Coulomb))
                    .expect("decode_mapped"),
            ];
            let (want, want_panel) = (bits(&h2.matvec(&b)), h2.matmat(&panel));
            for (path, op) in ["from_parts", "decode", "decode_mapped"].iter().zip(&ops) {
                let what = format!("{name} {mode:?} {path}");
                assert_eq!(bits(&op.matvec(&b)), want, "{what}");
                let got_panel = op.matmat(&panel);
                assert_eq!(
                    bits(got_panel.as_slice()),
                    bits(want_panel.as_slice()),
                    "{what}"
                );
                let r = op.memory_report();
                let held: usize = (op.bases().iter().chain(op.transfers()))
                    .map(BasisMatrix::bytes)
                    .sum();
                assert_eq!(r.bases + r.transfers, held, "{what}");
                assert!(codec::encode(op) == bytes, "{what}: re-encoded bytes");
            }
        }
    }
}

/// A file of this test binary in the temporary directory.
fn temp_file(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("h2serve-roundtrip-{}-{tag}.h2", std::process::id()))
}

/// `bytes` through both owned decode paths: from memory, and streamed from
/// a file by `load`. Both must agree on whether the bytes load.
fn decode_and_load(bytes: &[u8], tag: &str) -> Result<H2Matrix, LoadError> {
    let path = temp_file(tag);
    std::fs::write(&path, bytes).expect("write temporary file");
    let loaded = codec::load::<f64>(&path, Arc::new(Coulomb));
    std::fs::remove_file(&path).ok();
    let decoded = codec::decode::<f64>(bytes, Arc::new(Coulomb));
    assert_eq!(loaded.is_ok(), decoded.is_ok(), "decode and load disagree");
    loaded
}

/// The zero padding between the end marker and the 64-byte-aligned slab
/// region: walks the sections (tag, u64 length, payload, u64 checksum)
/// from behind the magic and version up to the end marker (tag 6).
fn header_padding(bytes: &[u8]) -> std::ops::Range<usize> {
    let mut at = 12;
    loop {
        let tag = bytes[at];
        let len = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap()) as usize;
        at += 1 + 8 + len + 8;
        if tag == 6 {
            return at..at.next_multiple_of(codec::SLAB_ALIGN);
        }
    }
}

/// Any single flipped byte is detected: the loader returns `Err` (and
/// in particular never panics) — magic, version, tags, lengths and
/// payloads are all covered by structure checks or section checksums,
/// and the padding before the slab region must be zero.
#[test]
fn corrupted_files_return_err() {
    let h2 = build(220, 2, 3, 1e-4, MemoryMode::OnTheFly);
    cases(CASES, |r| {
        let pos_seed = r.below(10_000);
        let bit = r.below(8);
        let mut bytes = codec::encode(&h2);
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= 1 << bit;
        assert!(
            decode_and_load(&bytes, "flipped").is_err(),
            "flip at byte {} must be detected",
            pos
        );
    });
    // Every padding byte, through decode, load and decode_mapped.
    let clean = codec::encode(&h2);
    let padding = header_padding(&clean);
    assert!(!padding.is_empty(), "this file has no header padding");
    assert!(clean[padding.clone()].iter().all(|&b| b == 0));
    for pos in padding {
        let mut bytes = clean.clone();
        bytes[pos] ^= 1 << (pos % 8);
        let corrupt = |e| matches!(e, LoadError::CorruptSection { .. });
        assert!(
            decode_and_load(&bytes, "padding").is_err_and(corrupt),
            "owned paths accepted a flipped padding byte at {pos}"
        );
        let mem = h2_linalg::SlabMem::from_bytes(&bytes);
        assert!(
            codec::decode_mapped::<f64>(&mem, Arc::new(Coulomb)).is_err_and(corrupt),
            "decode_mapped accepted a flipped padding byte at {pos}"
        );
    }
}

/// The header peeks (`stored_scalar`/`stored_builder`/`stored_epoch`)
/// never panic on hostile bytes: any single bit flip anywhere in the
/// file yields either a typed error or a well-formed answer.
#[test]
fn peeks_survive_bit_flips() {
    let h2 = build(180, 2, 11, 1e-4, MemoryMode::OnTheFly);
    cases(CASES, |r| {
        let pos_seed = r.below(10_000);
        let bit = r.below(8);
        let mut bytes = codec::encode(&h2);
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= 1 << bit;
        // Typed errors are fine; panics are the bug this test hunts.
        let _ = codec::stored_scalar(&bytes);
        let _ = codec::stored_builder(&bytes);
        let _ = codec::stored_epoch(&bytes);
    });
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
        let err = decode_and_load(&bytes[..cut], "truncated");
        assert!(err.is_err(), "loading a {cut}-byte prefix must fail");
    }
    // The untruncated file still loads.
    assert!(decode_and_load(&bytes, "whole").is_ok());
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Rewrites the directory section of an encoded operator with `edit` and
/// recomputes its checksum, so only the edited value is wrong. The
/// directory (tag 8) starts with the family count, then per family: kind
/// (1 byte), slab offset, slab length, checksum, entry count (8 bytes
/// each), then per entry rows, columns and offset (8 bytes each).
fn with_directory(bytes: &[u8], edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let mut at = 12; // magic + version
    loop {
        let len = u64::from_le_bytes(out[at + 1..at + 9].try_into().unwrap()) as usize;
        let payload = at + 9..at + 9 + len;
        if out[at] == 8 {
            edit(&mut out[payload.clone()]);
            let sum = fnv1a64(&out[payload.clone()]).to_le_bytes();
            out[payload.end..payload.end + 8].copy_from_slice(&sum);
            return out;
        }
        at = payload.end + 8;
    }
}

/// A directory whose lengths point far past the end of the file, with a
/// valid checksum: a typed error before anything of that size is
/// allocated, from memory and from a file alike.
#[test]
fn a_directory_claiming_bytes_past_the_file_is_refused() {
    let h2 = build(300, 3, 9, 1e-4, MemoryMode::Normal);
    let bytes = codec::encode(&h2);
    // Directory offsets of the first family's slab length and of its first
    // entry's rows, columns and offset; each edit sets its fields to 2^50.
    let slab_len = 2 + 8;
    let entry = 2 + 4 * 8;
    let edits: [(&str, &[usize]); 3] = [
        ("slab length", &[slab_len]),
        ("shape", &[entry, entry + 8]),
        ("offset", &[entry + 16]),
    ];
    for (what, fields) in edits {
        let hostile = with_directory(&bytes, |d| {
            for &at in fields {
                d[at..at + 8].copy_from_slice(&(1u64 << 50).to_le_bytes());
            }
        });
        assert_ne!(hostile, bytes, "{what}");
        match decode_and_load(&hostile, "hostile") {
            Err(LoadError::CorruptSection {
                section: "directory",
                reason,
            }) => assert!(reason.contains("escapes"), "{what}: {reason}"),
            other => panic!(
                "{what}: expected a corrupt directory, got {:?}",
                other.map(|_| ())
            ),
        }
        let mem = h2_linalg::SlabMem::from_bytes(&hostile);
        assert!(
            codec::decode_mapped::<f64>(&mem, Arc::new(Coulomb)).is_err(),
            "{what}"
        );
    }
}

/// `mapped_bytes` counts file mappings only: 0 for a built operator, whose
/// blocks are views of the slab its plan wrote, and every payload the file
/// holds (blocks and coefficient blocks) for an mmap-loaded one, whose
/// resident report then leaves the blocks out.
#[test]
fn mapped_bytes_count_file_pages_only() {
    let h2 = build(1500, 3, 9, 1e-5, MemoryMode::Normal);
    let built = h2.memory_report();
    assert_eq!(built.mapped_bytes, 0);
    let kinds = [h2_core::BlockKind::Coupling, h2_core::BlockKind::Nearfield];
    let blocks = kinds
        .iter()
        .flat_map(|&kind| h2.table().stored_blocks(kind).unwrap());
    let payload = |m: &Matrix| m.nrows() * m.ncols() * 8;
    let block_bytes: usize = blocks.map(payload).sum();
    assert_eq!(built.coupling_blocks + built.nearfield_blocks, block_bytes);
    let generators = h2.bases().iter().chain(h2.transfers());
    let coefficients: usize = generators.map(|g| payload(g.coefficients())).sum();
    let path = temp_file("mapped-bytes");
    codec::save(&h2, &path).expect("save");
    let mapped: H2Matrix = codec::load_mmap(&path, Arc::new(Coulomb)).expect("mmap load");
    std::fs::remove_file(&path).ok();
    let report = mapped.memory_report();
    assert_eq!(report.mapped_bytes, block_bytes + coefficients);
    assert_eq!(report.coupling_blocks + report.nearfield_blocks, 0);
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
