//! Versioned binary persistence codec for built [`H2MatrixS`] operators.
//!
//! File layout (all integers little-endian):
//!
//! ```text
//! magic "H2SERVE\0" (8 bytes) | format version (u32)
//! then a sequence of sections, each:
//!   tag (u8) | payload length (u64) | payload | FNV-1a 64 checksum of payload
//! ```
//!
//! Header sections, in order: **fingerprint** (memory mode, scalar-type
//! code, builder-provenance code, eta, dimension, kernel name + probe
//! values, update epoch), **tree** (points, permutation, node arena),
//! **generators-meta** (ranks and proxies), **directory** and an empty
//! **end** marker; matrix payloads live behind them in a **slab region**
//! laid out for zero-copy `mmap` loading:
//!
//! ```text
//! magic | version=4
//! fingerprint | tree | generators-meta (ranks + proxies, no matrices)
//! directory (per matrix family: slab offset/len/checksum + shapes)
//! end | zero padding to a 64-byte boundary
//! slab region: one little-endian column-major slab per family
//!              (bases, transfers, then — normal mode — coupling, nearfield),
//!              every family and every matrix start 64-byte aligned
//! ```
//!
//! On-the-fly files simply omit the two dense-block families, which is what
//! makes them ~10× smaller: they carry only the tree and the skeleton/grid
//! generators, mirroring the paper's memory-mode split.
//!
//! The codec is precision-generic: the fingerprint carries the storage
//! scalar's code (`Scalar::CODE`, 4 for `f32` / 8 for `f64`) and every
//! matrix entry is written at the operator's own width, so `f32` files are
//! roughly half the size. [`decode`] rejects a width the caller did not ask
//! for with the typed [`LoadError::PrecisionMismatch`] — the codec never
//! converts silently. The **provenance byte** next to it records which
//! construction pipeline produced the operator
//! ([`h2_core::BuilderProvenance`]); it is pure metadata: unknown codes are
//! surfaced as `unknown(code)` and never rejected, so files written by
//! newer builds with new builders still load. Peek at it without a full
//! decode via [`stored_builder`].
//!
//! Because every matrix payload sits at a 64-byte-aligned file offset and
//! `mmap` maps files page-aligned, a mapped file can be read *in place*:
//! [`load_mmap`] wraps the mapping in [`h2_cache::BlockSlabs`] views and
//! hands the same `MatrixS` values to the same sweeps, so the mmap path is
//! bitwise-identical to the owned decode by construction. Slab checksums
//! are verified on the owned path only — verifying them on the mmap path
//! would fault in every page and defeat lazy loading.
//!
//! This is the only format: version 4. Blobs of the earlier
//! payload-in-section versions 1–3 are refused with
//! [`LoadError::UnsupportedVersion`].
//!
//! Block lists are *not* stored: they are a deterministic function of the
//! tree and `eta`, recomputed at load (`H2Matrix::from_parts`), which also
//! guarantees the dense-block sequences align with the recomputed pair
//! lists.
//!
//! Every decoding path is bounds-checked and returns [`LoadError`] — a
//! truncated, bit-flipped, or adversarially wrong file must never panic.

use crate::error::LoadError;
use h2_cache::{BlockSlabs, SlabBlock};
use h2_core::proxy::ProxyPoints;
use h2_core::{BuilderProvenance, H2MatrixS, H2Parts, MemoryMode};
use h2_dist::wire::{WireReader, WireWriter};
use h2_kernels::Kernel;
use h2_linalg::{MatrixS, Scalar, SlabMem};
use h2_points::tree::Node;
use h2_points::{BoundingBox, ClusterTree, PointSet};
use std::path::Path;
use std::sync::Arc;

/// File magic: identifies h2-serve operator files.
pub const MAGIC: [u8; 8] = *b"H2SERVE\0";
/// The one codec format version this build writes and reads: matrix
/// payloads in an aligned, `mmap`able slab region behind a checksummed
/// directory.
pub const FORMAT_VERSION: u32 = 4;
/// Alignment (bytes) of the slab region, each family slab, and each
/// matrix payload within its slab. 64 covers every scalar width this crate
/// serves plus cache-line alignment for the apply kernels.
pub const SLAB_ALIGN: usize = 64;

const TAG_FINGERPRINT: u8 = 1;
const TAG_TREE: u8 = 2;
const TAG_END: u8 = 6;
const TAG_GENERATORS_META: u8 = 7;
const TAG_DIRECTORY: u8 = 8;

/// Matrix families in the directory, in slab order.
const FAMILY_BASES: u8 = 0;
const FAMILY_TRANSFERS: u8 = 1;
const FAMILY_COUPLING: u8 = 2;
const FAMILY_NEARFIELD: u8 = 3;

fn family_name(kind: u8) -> &'static str {
    match kind {
        FAMILY_BASES => "bases",
        FAMILY_TRANSFERS => "transfers",
        FAMILY_COUPLING => "coupling",
        FAMILY_NEARFIELD => "nearfield",
        _ => "unknown",
    }
}

fn align_up(x: usize, align: usize) -> usize {
    x.div_ceil(align) * align
}

/// Number of deterministic kernel probe evaluations in the fingerprint.
const PROBE_COUNT: usize = 4;

fn section_name(tag: u8) -> &'static str {
    match tag {
        TAG_FINGERPRINT => "fingerprint",
        TAG_TREE => "tree",
        TAG_END => "end",
        TAG_GENERATORS_META => "generators-meta",
        TAG_DIRECTORY => "directory",
        _ => "unknown",
    }
}

/// Maps a stored `Scalar::CODE` byte back to the scalar's name.
fn scalar_name(code: u8) -> Option<&'static str> {
    match code {
        x if x == f32::CODE => Some(f32::NAME),
        x if x == f64::CODE => Some(f64::NAME),
        _ => None,
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Deterministic kernel fingerprint: evaluations at fixed synthetic point
/// pairs inside the unit cube. Stored bit-exact, so a kernel of the same
/// name but different parameters (e.g. a different bandwidth) is rejected
/// at load time.
fn probe_values(kernel: &dyn Kernel, dim: usize) -> [f64; PROBE_COUNT] {
    let mut out = [0.0; PROBE_COUNT];
    for (k, v) in out.iter_mut().enumerate() {
        let x: Vec<f64> = (0..dim)
            .map(|j| 0.12 + 0.05 * k as f64 + 0.031 * j as f64)
            .collect();
        let y: Vec<f64> = (0..dim)
            .map(|j| 0.83 - 0.04 * k as f64 - 0.017 * j as f64)
            .collect();
        *v = kernel.eval(&x, &y);
    }
    out
}

// ---------------------------------------------------------------- encoding

// Section payloads are written with the shared little-endian primitives of
// [`h2_dist::wire::WireWriter`] — the same codec the socket frames use.

fn write_pointset(e: &mut WireWriter, p: &PointSet) {
    e.u32(p.dim() as u32);
    e.usize(p.len());
    e.f64s(p.coords());
}

fn encode_fingerprint<S: Scalar>(h2: &H2MatrixS<S>) -> Vec<u8> {
    let mut e = WireWriter::new();
    e.u8(match h2.mode() {
        MemoryMode::Normal => 0,
        MemoryMode::OnTheFly => 1,
    });
    e.u8(S::CODE);
    e.u8(h2.provenance().code());
    e.f64(h2.lists().eta);
    e.u32(h2.dim() as u32);
    e.str(h2.kernel().name());
    e.u8(PROBE_COUNT as u8);
    e.f64s(&probe_values(h2.kernel(), h2.dim()));
    e.u64(h2.epoch());
    e.into_bytes()
}

fn encode_tree(tree: &ClusterTree) -> Vec<u8> {
    let mut e = WireWriter::new();
    write_pointset(&mut e, tree.points());
    for &p in tree.perm() {
        e.usize(p);
    }
    e.usize(tree.node_count());
    for nd in tree.nodes() {
        e.usize(nd.start);
        e.usize(nd.end);
        e.u32(nd.level as u32);
        e.u64(nd.parent.map_or(u64::MAX, |p| p as u64));
        e.u8(nd.children.len() as u8);
        for &c in &nd.children {
            e.usize(c);
        }
        e.f64s(nd.bbox.lo());
        e.f64s(nd.bbox.hi());
    }
    e.into_bytes()
}

fn push_section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
}

/// Ranks and proxies; the matrices live in the slab region, their shapes
/// in the directory.
fn encode_generators_meta<S: Scalar>(h2: &H2MatrixS<S>) -> Vec<u8> {
    let mut e = WireWriter::new();
    let n_nodes = h2.ranks().len();
    e.usize(n_nodes);
    for &r in h2.ranks() {
        e.usize(r);
    }
    for i in 0..n_nodes {
        match h2.proxy(i) {
            ProxyPoints::Indices(idx) => {
                e.u8(0);
                e.usize(idx.len());
                for &i in idx {
                    e.usize(i);
                }
            }
            ProxyPoints::Coords(pts) => {
                e.u8(1);
                write_pointset(&mut e, pts);
            }
        }
    }
    e.into_bytes()
}

/// One matrix family in the directory: where its slab sits (relative to
/// the aligned slab-region base), its checksum, and each matrix's shape and
/// offset within the slab.
struct DirFamily {
    kind: u8,
    slab_off: usize,
    slab_len: usize,
    checksum: u64,
    entries: Vec<SlabBlock>,
}

/// Lays one family out: 64-aligned matrix offsets relative to the family
/// slab base, returning the entries and the (aligned) slab length.
fn layout_family<S: Scalar>(mats: &[&MatrixS<S>]) -> (Vec<SlabBlock>, usize) {
    let mut entries = Vec::with_capacity(mats.len());
    let mut cursor = 0usize;
    for m in mats {
        entries.push(SlabBlock {
            nrows: m.nrows(),
            ncols: m.ncols(),
            offset: cursor,
        });
        cursor = align_up(cursor + m.nrows() * m.ncols() * S::BYTES, SLAB_ALIGN);
    }
    (entries, cursor)
}

fn encode_directory(families: &[DirFamily]) -> Vec<u8> {
    let mut e = WireWriter::new();
    e.u8(families.len() as u8);
    for f in families {
        e.u8(f.kind);
        e.usize(f.slab_off);
        e.usize(f.slab_len);
        e.u64(f.checksum);
        e.usize(f.entries.len());
        for b in &f.entries {
            e.usize(b.nrows);
            e.usize(b.ncols);
            e.usize(b.offset);
        }
    }
    e.into_bytes()
}

/// Serializes a built operator into the `mmap`able binary format, at the
/// operator's own storage precision. Reads the operator in place: the only
/// buffer of the file's size is the one returned.
pub fn encode<S: Scalar>(h2: &H2MatrixS<S>) -> Vec<u8> {
    // Pass 1: lay the families out and compute slab offsets.
    let nodes = 0..h2.tree().node_count();
    let mut family_mats: Vec<(u8, Vec<&MatrixS<S>>)> = vec![
        (
            FAMILY_BASES,
            nodes.clone().map(|i| h2.leaf_basis(i)).collect(),
        ),
        (FAMILY_TRANSFERS, nodes.map(|i| h2.transfer(i)).collect()),
    ];
    if let Some(cb) = h2.coupling_store().blocks() {
        family_mats.push((FAMILY_COUPLING, cb.iter().collect()));
    }
    if let Some(nb) = h2.nearfield_store().blocks() {
        family_mats.push((FAMILY_NEARFIELD, nb.iter().collect()));
    }
    let mut families = Vec::with_capacity(family_mats.len());
    let mut cursor = 0usize;
    for (kind, mats) in &family_mats {
        let (entries, slab_len) = layout_family(mats);
        families.push(DirFamily {
            kind: *kind,
            slab_off: cursor,
            slab_len,
            checksum: 0, // filled in after the slab region is serialized
            entries,
        });
        cursor = align_up(cursor + slab_len, SLAB_ALIGN);
    }

    // Pass 2: header sections, padded so the slab region lands 64-aligned.
    // Directory offsets are relative to that aligned base, which is why the
    // header's own length never perturbs them.
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    push_section(&mut out, TAG_FINGERPRINT, &encode_fingerprint(h2));
    push_section(&mut out, TAG_TREE, &encode_tree(h2.tree()));
    push_section(&mut out, TAG_GENERATORS_META, &encode_generators_meta(h2));
    let dir_at = out.len();
    push_section(&mut out, TAG_DIRECTORY, &encode_directory(&families));
    push_section(&mut out, TAG_END, &[]);
    out.resize(align_up(out.len(), SLAB_ALIGN), 0);

    // The slab region, each payload written once at its aligned offset
    // (zeros between matrices are the alignment padding — deterministic,
    // so the family checksums cover them too).
    let base = out.len();
    out.reserve_exact(cursor);
    for (f, (_, mats)) in families.iter_mut().zip(&family_mats) {
        for (b, m) in f.entries.iter().zip(mats) {
            out.resize(base + f.slab_off + b.offset, 0);
            for &v in m.as_slice() {
                v.write_le(&mut out);
            }
        }
        out.resize(base + f.slab_off + f.slab_len, 0);
        f.checksum = fnv1a64(&out[base + f.slab_off..][..f.slab_len]);
    }

    // The directory sits ahead of the slabs it checksums: rewrite it in
    // place, the same length, now that the checksums are known.
    let mut directory = Vec::new();
    push_section(&mut directory, TAG_DIRECTORY, &encode_directory(&families));
    out[dir_at..dir_at + directory.len()].copy_from_slice(&directory);
    out
}

/// Saves an operator to `path`; returns the number of bytes written.
pub fn save<S: Scalar>(h2: &H2MatrixS<S>, path: impl AsRef<Path>) -> std::io::Result<u64> {
    let bytes = encode(h2);
    std::fs::write(path, &bytes)?;
    Ok(bytes.len() as u64)
}

// ---------------------------------------------------------------- decoding

/// Bounds-checked reader over one section's payload: the shared
/// [`h2_dist::wire::WireReader`] primitives, with every wire-level
/// failure mapped to [`LoadError::CorruptSection`] naming the section,
/// plus this codec's composite shapes.
struct Dec<'a> {
    r: WireReader<'a>,
    section: &'static str,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8], section: &'static str) -> Self {
        Dec {
            r: WireReader::new(buf),
            section,
        }
    }

    fn corrupt(&self, reason: impl Into<String>) -> LoadError {
        LoadError::CorruptSection {
            section: self.section,
            reason: reason.into(),
        }
    }

    fn wrap<T>(&self, r: Result<T, h2_dist::wire::WireError>) -> Result<T, LoadError> {
        r.map_err(|e| self.corrupt(e.to_string()))
    }

    fn remaining(&self) -> usize {
        self.r.remaining()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], LoadError> {
        let r = self.r.take(n);
        self.wrap(r)
    }

    fn u8(&mut self) -> Result<u8, LoadError> {
        let r = self.r.u8();
        self.wrap(r)
    }

    fn u32(&mut self) -> Result<u32, LoadError> {
        let r = self.r.u32();
        self.wrap(r)
    }

    fn u64(&mut self) -> Result<u64, LoadError> {
        let r = self.r.u64();
        self.wrap(r)
    }

    fn usize(&mut self) -> Result<usize, LoadError> {
        let r = self.r.usize();
        self.wrap(r)
    }

    /// A `usize` that will be used as an element count of `elem_bytes`-sized
    /// items: rejected unless the remaining payload can actually hold it,
    /// which both catches truncation early and prevents huge bogus
    /// allocations from corrupt length fields.
    fn count(&mut self, elem_bytes: usize) -> Result<usize, LoadError> {
        let r = self.r.count(elem_bytes);
        self.wrap(r)
    }

    fn f64(&mut self) -> Result<f64, LoadError> {
        let r = self.r.f64();
        self.wrap(r)
    }

    fn f64s(&mut self, n: usize) -> Result<Vec<f64>, LoadError> {
        let r = self.r.f64s(n);
        self.wrap(r)
    }

    fn str(&mut self) -> Result<String, LoadError> {
        let r = self.r.str();
        self.wrap(r)
    }

    fn pointset(&mut self) -> Result<PointSet, LoadError> {
        let dim = self.u32()? as usize;
        if dim == 0 || dim > 64 {
            return Err(self.corrupt(format!("implausible dimension {dim}")));
        }
        let n = self.count(dim * 8)?;
        let coords = self.f64s(n * dim)?;
        Ok(PointSet::new(dim, coords))
    }

    fn finish(&self) -> Result<(), LoadError> {
        if self.remaining() != 0 {
            return Err(self.corrupt(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

fn decode_tree(payload: &[u8]) -> Result<ClusterTree, LoadError> {
    let mut d = Dec::new(payload, "tree");
    let points = d.pointset()?;
    let n = points.len();
    let dim = points.dim();
    let mut perm = Vec::with_capacity(n);
    for _ in 0..n {
        perm.push(d.usize()?);
    }
    let n_nodes = d.count(8 + 8 + 4 + 8 + 1 + 2 * dim * 8)?;
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        let start = d.usize()?;
        let end = d.usize()?;
        let level = d.u32()? as usize;
        let parent = match d.u64()? {
            u64::MAX => None,
            p => Some(usize::try_from(p).map_err(|_| d.corrupt("parent id exceeds usize"))?),
        };
        let n_children = d.u8()? as usize;
        let mut children = Vec::with_capacity(n_children);
        for _ in 0..n_children {
            children.push(d.usize()?);
        }
        let lo = d.f64s(dim)?;
        let hi = d.f64s(dim)?;
        // NaN corners fail this comparison too, so BoundingBox::new's
        // (debug) precondition can never trip on decoded data.
        if !lo.iter().zip(&hi).all(|(l, h)| l <= h) {
            return Err(d.corrupt("inverted or NaN bounding box"));
        }
        nodes.push(Node {
            start,
            end,
            children,
            parent,
            level,
            bbox: BoundingBox::new(lo, hi),
        });
    }
    d.finish()?;
    ClusterTree::from_parts(points, perm, nodes).map_err(LoadError::Inconsistent)
}

struct Fingerprint {
    mode: MemoryMode,
    scalar_code: u8,
    provenance: BuilderProvenance,
    eta: f64,
    dim: usize,
    kernel_name: String,
    probes: Vec<u64>,
    epoch: u64,
}

fn decode_fingerprint(payload: &[u8]) -> Result<Fingerprint, LoadError> {
    let mut d = Dec::new(payload, "fingerprint");
    let mode = match d.u8()? {
        0 => MemoryMode::Normal,
        1 => MemoryMode::OnTheFly,
        m => return Err(d.corrupt(format!("unknown memory mode {m}"))),
    };
    let scalar_code = d.u8()?;
    if scalar_name(scalar_code).is_none() {
        return Err(d.corrupt(format!("unknown scalar code {scalar_code}")));
    }
    // Provenance is metadata: every byte value is accepted (unknown codes
    // surface as `BuilderProvenance::Unknown`), never a decode error.
    let provenance = BuilderProvenance::from_code(d.u8()?);
    let eta = d.f64()?;
    let dim = d.u32()? as usize;
    let kernel_name = d.str()?;
    let probe_count = d.u8()? as usize;
    let mut probes = Vec::with_capacity(probe_count);
    for _ in 0..probe_count {
        probes.push(d.f64()?.to_bits());
    }
    let epoch = d.u64()?;
    d.finish()?;
    Ok(Fingerprint {
        mode,
        scalar_code,
        provenance,
        eta,
        dim,
        kernel_name,
        probes,
        epoch,
    })
}

/// The parsed section header of an operator file: the checksum-verified
/// sections and where the header ends (the slab region starts at the next
/// [`SLAB_ALIGN`] boundary after it).
struct Header<'a> {
    sections: Vec<(u8, &'a [u8])>,
    header_end: usize,
}

/// Splits `magic | version | sections` and verifies every section
/// checksum. Trailing bytes after the end marker are the slab region.
fn split_sections(bytes: &[u8]) -> Result<Header<'_>, LoadError> {
    if bytes.len() < MAGIC.len() + 4 || bytes[..MAGIC.len()] != MAGIC {
        return Err(LoadError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(LoadError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let mut d = Dec::new(&bytes[12..], "header");
    let mut sections = Vec::new();
    loop {
        let tag = d.u8()?;
        d.section = section_name(tag);
        if d.section == "unknown" {
            return Err(d.corrupt(format!("unknown section tag {tag}")));
        }
        let len = d.count(1)?;
        let payload = d.take(len)?;
        let stored = d.u64()?;
        let actual = fnv1a64(payload);
        if stored != actual {
            return Err(d.corrupt(format!(
                "checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
            )));
        }
        let done = tag == TAG_END;
        sections.push((tag, payload));
        if done {
            let header_end = bytes.len() - d.remaining();
            return Ok(Header {
                sections,
                header_end,
            });
        }
    }
}

fn section<'a>(sections: &[(u8, &'a [u8])], tag: u8) -> Result<Option<&'a [u8]>, LoadError> {
    let mut found = None;
    for &(t, payload) in sections {
        if t == tag {
            if found.is_some() {
                return Err(LoadError::CorruptSection {
                    section: section_name(tag),
                    reason: "duplicated section".into(),
                });
            }
            found = Some(payload);
        }
    }
    Ok(found)
}

fn require<'a>(sections: &[(u8, &'a [u8])], tag: u8) -> Result<&'a [u8], LoadError> {
    section(sections, tag)?.ok_or_else(|| LoadError::CorruptSection {
        section: section_name(tag),
        reason: "section missing".into(),
    })
}

/// Reads the storage scalar name ("f32" or "f64") recorded in an encoded
/// operator without decoding the payload — what a loader dispatching on
/// precision (e.g. the `h2serve` binary) inspects before choosing which
/// `decode::<S>` to call. Verifies magic, version, and the fingerprint
/// checksum on the way.
pub fn stored_scalar(bytes: &[u8]) -> Result<&'static str, LoadError> {
    let hdr = split_sections(bytes)?;
    let fp = decode_fingerprint(require(&hdr.sections, TAG_FINGERPRINT)?)?;
    Ok(scalar_name(fp.scalar_code).expect("decode_fingerprint validated the code"))
}

/// Reads the builder provenance recorded in an encoded operator without
/// decoding the payload — how serving surfaces report what pipeline
/// constructed each stored operator. Unknown provenance codes are returned
/// as [`BuilderProvenance::Unknown`], never an error.
pub fn stored_builder(bytes: &[u8]) -> Result<BuilderProvenance, LoadError> {
    let hdr = split_sections(bytes)?;
    let fp = decode_fingerprint(require(&hdr.sections, TAG_FINGERPRINT)?)?;
    Ok(fp.provenance)
}

/// Reads the update epoch recorded in an encoded operator without decoding
/// the payload.
pub fn stored_epoch(bytes: &[u8]) -> Result<u64, LoadError> {
    let hdr = split_sections(bytes)?;
    let fp = decode_fingerprint(require(&hdr.sections, TAG_FINGERPRINT)?)?;
    Ok(fp.epoch)
}

/// Why a file whose kernel name matches fails its probe evaluations. The
/// parameters may differ, or the file was saved by a build whose kernel
/// evaluation had other bits (its stored blocks carry them too), and must
/// be saved again.
const PROBES_DIFFER: &str = "probe evaluations differ: different kernel parameters, \
     or a file saved by a build whose kernel evaluation had other bits (re-save it)";

/// Shared fingerprint validation: stored scalar width against the
/// requested `S`, and the kernel (by name, then by probe evaluations).
fn check_fingerprint<S: Scalar>(fp: &Fingerprint, kernel: &dyn Kernel) -> Result<(), LoadError> {
    if fp.scalar_code != S::CODE {
        return Err(LoadError::PrecisionMismatch {
            stored: scalar_name(fp.scalar_code).expect("decode_fingerprint validated the code"),
            requested: S::NAME,
        });
    }
    if fp.kernel_name != kernel.name() {
        return Err(LoadError::KernelMismatch {
            stored: fp.kernel_name.clone(),
            given: kernel.name().to_string(),
            reason: "kernel names differ",
        });
    }
    let expect: Vec<u64> = probe_values(kernel, fp.dim)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    if fp.probes != expect {
        return Err(LoadError::KernelMismatch {
            stored: fp.kernel_name.clone(),
            given: kernel.name().to_string(),
            reason: PROBES_DIFFER,
        });
    }
    Ok(())
}

/// Final assembly shared by every decode path: pack the decoded pieces into
/// [`H2Parts`] and revalidate through `from_parts`.
#[allow(clippy::too_many_arguments)]
fn assemble<S: Scalar>(
    fp: Fingerprint,
    tree: ClusterTree,
    ranks: Vec<usize>,
    proxies: Vec<ProxyPoints>,
    bases: Vec<MatrixS<S>>,
    transfers: Vec<MatrixS<S>>,
    coupling_blocks: Option<Vec<MatrixS<S>>>,
    nearfield_blocks: Option<Vec<MatrixS<S>>>,
    kernel: Arc<dyn Kernel>,
) -> Result<H2MatrixS<S>, LoadError> {
    if tree.points().dim() != fp.dim {
        return Err(LoadError::Inconsistent(format!(
            "fingerprint dimension {} != point dimension {}",
            fp.dim,
            tree.points().dim()
        )));
    }
    let parts = H2Parts {
        tree,
        eta: fp.eta,
        mode: fp.mode,
        bases,
        transfers,
        proxies,
        ranks,
        coupling_blocks,
        nearfield_blocks,
        provenance: fp.provenance,
        epoch: fp.epoch,
    };
    H2MatrixS::from_parts(parts, kernel).map_err(LoadError::Inconsistent)
}

/// Ranks and proxies from the generators-meta section.
fn decode_generators_meta(payload: &[u8]) -> Result<(Vec<usize>, Vec<ProxyPoints>), LoadError> {
    let mut d = Dec::new(payload, "generators-meta");
    let n_nodes = d.count(8)?;
    let mut ranks = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        ranks.push(d.usize()?);
    }
    let mut proxies = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        proxies.push(match d.u8()? {
            0 => {
                let cnt = d.count(8)?;
                let mut idx = Vec::with_capacity(cnt);
                for _ in 0..cnt {
                    idx.push(d.usize()?);
                }
                ProxyPoints::Indices(idx)
            }
            1 => ProxyPoints::Coords(d.pointset()?),
            k => return Err(d.corrupt(format!("unknown proxy kind {k}"))),
        });
    }
    d.finish()?;
    Ok((ranks, proxies))
}

fn decode_directory(payload: &[u8]) -> Result<Vec<DirFamily>, LoadError> {
    let mut d = Dec::new(payload, "directory");
    let n_families = d.u8()? as usize;
    let mut families: Vec<DirFamily> = Vec::with_capacity(n_families);
    for _ in 0..n_families {
        let kind = d.u8()?;
        if family_name(kind) == "unknown" {
            return Err(d.corrupt(format!("unknown matrix family {kind}")));
        }
        if families.last().is_some_and(|p| p.kind >= kind) {
            return Err(d.corrupt("matrix families out of order"));
        }
        let slab_off = d.usize()?;
        let slab_len = d.usize()?;
        let checksum = d.u64()?;
        let count = d.count(24)?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push(SlabBlock {
                nrows: d.usize()?,
                ncols: d.usize()?,
                offset: d.usize()?,
            });
        }
        families.push(DirFamily {
            kind,
            slab_off,
            slab_len,
            checksum,
            entries,
        });
    }
    d.finish()?;
    Ok(families)
}

fn corrupt_directory(reason: impl Into<String>) -> LoadError {
    LoadError::CorruptSection {
        section: "directory",
        reason: reason.into(),
    }
}

/// The fully parsed, not yet materialized body of a file.
struct Body {
    fp: Fingerprint,
    tree: ClusterTree,
    ranks: Vec<usize>,
    proxies: Vec<ProxyPoints>,
    families: Vec<DirFamily>,
    /// Absolute byte offset of the (aligned) slab region within the file.
    slab_base: usize,
}

/// Parses and cross-validates a header: fingerprint (against `kernel`
/// and `S`), tree, generators-meta, and a directory whose families match
/// the stored memory mode and fit inside the file. Materializing the
/// matrices — owned copies or mmap views — is the caller's half.
fn parse<S: Scalar>(
    bytes: &[u8],
    hdr: &Header<'_>,
    kernel: &dyn Kernel,
) -> Result<Body, LoadError> {
    let sections = &hdr.sections;
    let fp = decode_fingerprint(require(sections, TAG_FINGERPRINT)?)?;
    check_fingerprint::<S>(&fp, kernel)?;
    let tree = decode_tree(require(sections, TAG_TREE)?)?;
    let (ranks, proxies) = decode_generators_meta(require(sections, TAG_GENERATORS_META)?)?;
    let families = decode_directory(require(sections, TAG_DIRECTORY)?)?;

    let kinds: Vec<u8> = families.iter().map(|f| f.kind).collect();
    let expect: &[u8] = match fp.mode {
        MemoryMode::Normal => &[
            FAMILY_BASES,
            FAMILY_TRANSFERS,
            FAMILY_COUPLING,
            FAMILY_NEARFIELD,
        ],
        MemoryMode::OnTheFly => &[FAMILY_BASES, FAMILY_TRANSFERS],
    };
    if kinds != expect {
        return Err(corrupt_directory(format!(
            "families {kinds:?} do not match memory mode {:?}",
            fp.mode
        )));
    }

    let slab_base = align_up(hdr.header_end, SLAB_ALIGN);
    let slab_region_len = bytes
        .len()
        .checked_sub(slab_base)
        .ok_or_else(|| corrupt_directory("file truncated before the slab region"))?;
    for f in &families {
        let end = f
            .slab_off
            .checked_add(f.slab_len)
            .ok_or_else(|| corrupt_directory("family slab offset overflows"))?;
        if end > slab_region_len {
            return Err(corrupt_directory(format!(
                "{} slab [{}, {end}) escapes the {slab_region_len}-byte slab region",
                family_name(f.kind),
                f.slab_off,
            )));
        }
    }
    Ok(Body {
        fp,
        tree,
        ranks,
        proxies,
        families,
        slab_base,
    })
}

/// Materializes one family as owned matrices, verifying the family slab
/// checksum (the owned path reads every byte anyway, so verification is
/// free — unlike the mmap path, where it would fault in every page).
fn owned_family<S: Scalar>(
    slab_region: &[u8],
    f: &DirFamily,
) -> Result<Vec<MatrixS<S>>, LoadError> {
    let name = family_name(f.kind);
    let slab = &slab_region[f.slab_off..f.slab_off + f.slab_len];
    let actual = fnv1a64(slab);
    if actual != f.checksum {
        return Err(corrupt_directory(format!(
            "{name} slab checksum mismatch (stored {:#018x}, computed {actual:#018x})",
            f.checksum
        )));
    }
    let mut mats = Vec::with_capacity(f.entries.len());
    for b in &f.entries {
        let cnt = b
            .nrows
            .checked_mul(b.ncols)
            .ok_or_else(|| corrupt_directory(format!("{name} matrix shape overflows")))?;
        let bytes_needed = cnt
            .checked_mul(S::BYTES)
            .ok_or_else(|| corrupt_directory(format!("{name} matrix size overflows")))?;
        let end = b
            .offset
            .checked_add(bytes_needed)
            .filter(|&e| e <= f.slab_len)
            .ok_or_else(|| {
                corrupt_directory(format!(
                    "{name} matrix {}x{} escapes its {}-byte slab",
                    b.nrows, b.ncols, f.slab_len
                ))
            })?;
        let data: Vec<S> = slab[b.offset..end]
            .chunks_exact(S::BYTES)
            .map(S::read_le)
            .collect();
        mats.push(MatrixS::from_col_major(b.nrows, b.ncols, data));
    }
    Ok(mats)
}

/// Materializes one family as zero-copy views over the mapping. Bounds and
/// alignment are fully checked by [`BlockSlabs::new`]; the slab checksum is
/// deliberately *not* verified (it would fault in every page).
fn mapped_family<S: Scalar>(
    mem: &Arc<SlabMem>,
    slab_base: usize,
    f: &DirFamily,
) -> Result<Vec<MatrixS<S>>, LoadError> {
    let base = slab_base
        .checked_add(f.slab_off)
        .ok_or_else(|| corrupt_directory("family slab offset overflows"))?;
    let slabs: BlockSlabs<S> = BlockSlabs::new(mem.clone(), base, f.entries.clone())
        .map_err(|e| corrupt_directory(format!("{}: {e}", family_name(f.kind))))?;
    Ok(slabs.views())
}

/// Decodes an operator from bytes, verifying structure, checksums, the
/// kernel fingerprint against `kernel`, and the stored scalar type against
/// the requested `S` (a width mismatch is the typed
/// [`LoadError::PrecisionMismatch`], never a silent conversion). Always
/// produces an operator with owned (heap) storage.
pub fn decode<S: Scalar>(bytes: &[u8], kernel: Arc<dyn Kernel>) -> Result<H2MatrixS<S>, LoadError> {
    let hdr = split_sections(bytes)?;
    let body = parse::<S>(bytes, &hdr, kernel.as_ref())?;
    let slab_region = &bytes[body.slab_base..];
    let mut fams = body.families.iter();
    let bases = owned_family::<S>(slab_region, fams.next().expect("validated"))?;
    let transfers = owned_family::<S>(slab_region, fams.next().expect("validated"))?;
    let coupling_blocks = fams
        .next()
        .map(|f| owned_family::<S>(slab_region, f))
        .transpose()?;
    let nearfield_blocks = fams
        .next()
        .map(|f| owned_family::<S>(slab_region, f))
        .transpose()?;
    assemble(
        body.fp,
        body.tree,
        body.ranks,
        body.proxies,
        bases,
        transfers,
        coupling_blocks,
        nearfield_blocks,
        kernel,
    )
}

/// Decodes an operator whose bytes live in a [`SlabMem`] — when the memory
/// is an actual file mapping, matrix payloads become zero-copy views over
/// the mapped pages instead of heap copies, so the operator's resident
/// footprint is just its tree, lists, and directory.
///
/// Falls back to the owned [`decode`] on big-endian hosts (which cannot
/// reinterpret little-endian slabs in place). Either way the returned
/// operator is *bitwise identical* in behaviour: the mmap path hands the
/// same bytes to the same apply kernels through [`BlockSlabs`] views.
pub fn decode_mapped<S: Scalar>(
    mem: &Arc<SlabMem>,
    kernel: Arc<dyn Kernel>,
) -> Result<H2MatrixS<S>, LoadError> {
    let bytes = mem.as_bytes();
    if cfg!(target_endian = "big") {
        return decode(bytes, kernel);
    }
    let hdr = split_sections(bytes)?;
    let body = parse::<S>(bytes, &hdr, kernel.as_ref())?;
    let mut fams = body.families.iter();
    let bases = mapped_family::<S>(mem, body.slab_base, fams.next().expect("validated"))?;
    let transfers = mapped_family::<S>(mem, body.slab_base, fams.next().expect("validated"))?;
    let coupling_blocks = fams
        .next()
        .map(|f| mapped_family::<S>(mem, body.slab_base, f))
        .transpose()?;
    let nearfield_blocks = fams
        .next()
        .map(|f| mapped_family::<S>(mem, body.slab_base, f))
        .transpose()?;
    assemble(
        body.fp,
        body.tree,
        body.ranks,
        body.proxies,
        bases,
        transfers,
        coupling_blocks,
        nearfield_blocks,
        kernel,
    )
}

/// Loads an operator from `path`, verifying it against `kernel`.
pub fn load<S: Scalar>(
    path: impl AsRef<Path>,
    kernel: Arc<dyn Kernel>,
) -> Result<H2MatrixS<S>, LoadError> {
    let bytes = std::fs::read(path)?;
    decode(&bytes, kernel)
}

/// Loads an operator from `path` by `mmap`ing it: matrix payloads are
/// served straight from the page cache (see [`decode_mapped`]), so a cold
/// load touches only the header pages and resident memory stays near zero
/// until blocks are actually applied.
pub fn load_mmap<S: Scalar>(
    path: impl AsRef<Path>,
    kernel: Arc<dyn Kernel>,
) -> Result<H2MatrixS<S>, LoadError> {
    let mem = SlabMem::map_file(path.as_ref())?;
    decode_mapped(&mem, kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_core::{BasisMethod, H2Config, H2Matrix};
    use h2_kernels::{Coulomb, Matern32};
    use h2_points::gen;

    fn build(mode: MemoryMode) -> H2Matrix {
        let pts = gen::uniform_cube(600, 3, 17);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-5, 3),
            mode,
            leaf_size: 48,
            eta: 0.7,
            ..H2Config::default()
        };
        H2Matrix::build(&pts, Arc::new(Coulomb), &cfg)
    }

    fn build32(mode: MemoryMode) -> H2MatrixS<f32> {
        let pts = gen::uniform_cube(600, 3, 17);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-5, 3),
            mode,
            leaf_size: 48,
            eta: 0.7,
            ..H2Config::default()
        };
        H2MatrixS::<f32>::build(&pts, Arc::new(Coulomb), &cfg)
    }

    #[test]
    fn round_trip_bitwise_both_modes() {
        for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
            let h2 = build(mode);
            let bytes = encode(&h2);
            let back: H2Matrix = decode(&bytes, Arc::new(Coulomb)).expect("decode");
            assert_eq!(back.mode(), mode);
            let b: Vec<f64> = (0..h2.n()).map(|i| (0.29 * i as f64).cos()).collect();
            assert_eq!(h2.matvec(&b), back.matvec(&b), "mode {mode:?}");
        }
    }

    #[test]
    fn f32_round_trip_bitwise_and_smaller() {
        for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
            let h2 = build32(mode);
            let bytes = encode(&h2);
            assert_eq!(stored_scalar(&bytes).unwrap(), "f32");
            // Scalar payloads halve; tree coordinates, indices, and framing
            // are precision-independent. Stored files are block-dominated
            // (well under 0.75×); on-the-fly files are tree/proxy-heavy, so
            // only strictly smaller is guaranteed there.
            let bytes64 = encode(&build(mode));
            let ceiling = match mode {
                MemoryMode::Normal => 0.75 * bytes64.len() as f64,
                MemoryMode::OnTheFly => bytes64.len() as f64,
            };
            assert!(
                (bytes.len() as f64) < ceiling,
                "{mode:?}: f32 file {} B vs f64 {} B",
                bytes.len(),
                bytes64.len()
            );
            let back: H2MatrixS<f32> = decode(&bytes, Arc::new(Coulomb)).expect("decode");
            let b: Vec<f32> = (0..h2.n()).map(|i| (0.29 * i as f32).cos()).collect();
            assert_eq!(h2.matvec(&b), back.matvec(&b), "mode {mode:?}");
        }
    }

    #[test]
    fn precision_mismatch_is_typed_and_never_converts() {
        let bytes32 = encode(&build32(MemoryMode::OnTheFly));
        let err = decode::<f64>(&bytes32, Arc::new(Coulomb))
            .err()
            .expect("must fail");
        assert!(
            matches!(
                err,
                LoadError::PrecisionMismatch {
                    stored: "f32",
                    requested: "f64",
                }
            ),
            "{err}"
        );
        let bytes64 = encode(&build(MemoryMode::OnTheFly));
        assert_eq!(stored_scalar(&bytes64).unwrap(), "f64");
        let err = decode::<f32>(&bytes64, Arc::new(Coulomb))
            .err()
            .expect("must fail");
        assert!(
            matches!(
                err,
                LoadError::PrecisionMismatch {
                    stored: "f64",
                    requested: "f32",
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn interpolation_grids_round_trip() {
        let pts = gen::uniform_cube(400, 2, 3);
        let cfg = H2Config {
            basis: BasisMethod::Interpolation { order: 4 },
            mode: MemoryMode::OnTheFly,
            leaf_size: 40,
            eta: 0.7,
            ..H2Config::default()
        };
        let h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg);
        let back: H2Matrix = decode(&encode(&h2), Arc::new(Coulomb)).expect("decode");
        let b: Vec<f64> = (0..h2.n()).map(|i| 1.0 / (1.0 + i as f64)).collect();
        assert_eq!(h2.matvec(&b), back.matvec(&b));
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        let h2 = build(MemoryMode::OnTheFly);
        let bytes = encode(&h2);
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            decode::<f64>(&bad, Arc::new(Coulomb)),
            Err(LoadError::BadMagic)
        ));
        let mut bad = bytes.clone();
        bad[8] = 99;
        assert!(matches!(
            decode::<f64>(&bad, Arc::new(Coulomb)),
            Err(LoadError::UnsupportedVersion { found: 99, .. })
        ));
        assert!(matches!(
            decode::<f64>(&bytes[..4], Arc::new(Coulomb)),
            Err(LoadError::BadMagic)
        ));
    }

    #[test]
    fn older_version_blobs_are_refused() {
        // v1 had no scalar byte, v2 no provenance byte, v3 kept matrices
        // inside the sections: readers must stop at the version check
        // rather than misparse any of them.
        let h2 = build(MemoryMode::OnTheFly);
        for old in [1u32, 2u32, 3u32] {
            let mut bytes = encode(&h2);
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            let err = decode::<f64>(&bytes, Arc::new(Coulomb))
                .err()
                .expect("must fail");
            assert!(
                matches!(
                    err,
                    LoadError::UnsupportedVersion {
                        found,
                        supported: FORMAT_VERSION,
                    } if found == old
                ),
                "v{old}: {err}"
            );
            assert!(matches!(
                stored_scalar(&bytes),
                Err(LoadError::UnsupportedVersion { .. })
            ));
            assert!(matches!(
                stored_builder(&bytes),
                Err(LoadError::UnsupportedVersion { .. })
            ));
            assert!(matches!(
                stored_epoch(&bytes),
                Err(LoadError::UnsupportedVersion { .. })
            ));
            assert!(matches!(
                decode_mapped::<f64>(&SlabMem::from_bytes(&bytes), Arc::new(Coulomb)),
                Err(LoadError::UnsupportedVersion { .. })
            ));
        }
    }

    #[test]
    fn provenance_is_recorded_and_peekable() {
        use h2_core::BuilderStrategy;
        let pts = gen::uniform_cube(500, 3, 17);
        let anchor = H2Matrix::build(
            &pts,
            Arc::new(Coulomb),
            &H2Config {
                basis: BasisMethod::data_driven_for_tol(1e-4, 3),
                mode: MemoryMode::OnTheFly,
                leaf_size: 48,
                ..H2Config::default()
            },
        );
        let sketched = H2Matrix::build(
            &pts,
            Arc::new(Coulomb),
            &H2Config {
                builder: BuilderStrategy::sketched_for_tol(1e-4, 3),
                mode: MemoryMode::OnTheFly,
                leaf_size: 48,
                seed: 5,
                ..H2Config::default()
            },
        );
        for (h2, want) in [
            (&anchor, BuilderProvenance::AnchorNet),
            (&sketched, BuilderProvenance::Sketched),
        ] {
            let bytes = encode(h2);
            assert_eq!(stored_builder(&bytes).unwrap(), want);
            let back: H2Matrix = decode(&bytes, Arc::new(Coulomb)).expect("decode");
            assert_eq!(back.provenance(), want);
            // Round trip again: provenance survives re-encoding from parts.
            assert_eq!(stored_builder(&encode(&back)).unwrap(), want);
        }
    }

    #[test]
    fn unknown_provenance_byte_is_surfaced_not_rejected() {
        // Simulate a file with a provenance code this build does not know —
        // the retired 3 or a future builder's 200: flip the provenance byte
        // (fingerprint payload offset 2: mode, scalar, provenance) and fix
        // up the section checksum. The file must load, reporting the
        // unknown code.
        let h2 = build(MemoryMode::OnTheFly);
        for code in [3, 200] {
            let mut bytes = encode(&h2);
            // First section starts after magic (8) + version (4): tag (1) +
            // len (8) + payload.
            assert_eq!(bytes[12], TAG_FINGERPRINT);
            let len = u64::from_le_bytes(bytes[13..21].try_into().unwrap()) as usize;
            let payload_start = 21;
            bytes[payload_start + 2] = code; // provenance byte
            let sum = fnv1a64(&bytes[payload_start..payload_start + len]);
            bytes[payload_start + len..payload_start + len + 8].copy_from_slice(&sum.to_le_bytes());
            let unknown = BuilderProvenance::Unknown(code);
            assert_eq!(stored_builder(&bytes).unwrap(), unknown);
            let back: H2Matrix = decode(&bytes, Arc::new(Coulomb)).expect("unknown code must load");
            assert_eq!(back.provenance(), unknown);
            assert_eq!(back.provenance().name(), "unknown");
        }
    }

    #[test]
    fn update_epoch_round_trips_in_the_fingerprint() {
        let mut h2 = build(MemoryMode::Normal);
        assert_eq!(stored_epoch(&encode(&h2)).unwrap(), 0);
        // Apply an update so the operator is genuinely at a later epoch.
        let extra = PointSet::new(3, vec![0.41, 0.43, 0.47, 0.51, 0.53, 0.57]);
        h2.insert_points(&extra).expect("insert");
        assert_eq!(h2.epoch(), 1);
        let bytes = encode(&h2);
        assert_eq!(stored_epoch(&bytes).unwrap(), 1);
        let back: H2Matrix = decode(&bytes, Arc::new(Coulomb)).expect("decode");
        assert_eq!(back.epoch(), 1);
        let b: Vec<f64> = (0..h2.n()).map(|i| (0.23 * i as f64).sin()).collect();
        assert_eq!(h2.matvec(&b), back.matvec(&b));
    }

    #[test]
    fn kernel_mismatch_by_name_and_by_parameters() {
        let pts = gen::uniform_cube(300, 3, 5);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-4, 3),
            mode: MemoryMode::OnTheFly,
            leaf_size: 48,
            eta: 0.7,
            ..H2Config::default()
        };
        let h2 = H2Matrix::build(&pts, Arc::new(Matern32 { ell: 1.0 }), &cfg);
        let bytes = encode(&h2);
        // Different kernel type: name mismatch.
        assert!(matches!(
            decode::<f64>(&bytes, Arc::new(Coulomb)),
            Err(LoadError::KernelMismatch {
                reason: "kernel names differ",
                ..
            })
        ));
        // Same type, different parameter: probe mismatch.
        let err = decode::<f64>(&bytes, Arc::new(Matern32 { ell: 2.0 }))
            .err()
            .expect("parameter change must be detected");
        assert!(matches!(err, LoadError::KernelMismatch { .. }), "{err}");
        // The right kernel round-trips.
        assert!(decode::<f64>(&bytes, Arc::new(Matern32 { ell: 1.0 })).is_ok());
    }

    #[test]
    fn one_flipped_probe_bit_is_a_kernel_mismatch_naming_both_causes() {
        // A file whose probes were evaluated with other kernel bits: the
        // same encode with the last bit of its first probe flipped, and the
        // fingerprint checksum recomputed so only the probe disagrees.
        let pts = gen::uniform_cube(300, 3, 5);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-4, 3),
            mode: MemoryMode::OnTheFly,
            leaf_size: 48,
            ..H2Config::default()
        };
        let h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg);
        let mut bytes = encode(&h2);
        assert_eq!(bytes[12], TAG_FINGERPRINT);
        let len = u64::from_le_bytes(bytes[13..21].try_into().unwrap()) as usize;
        let payload = 21..21 + len;
        let probe = probe_values(&Coulomb, 3)[0].to_le_bytes();
        let at = (bytes[payload.clone()].windows(8))
            .position(|w| w == probe)
            .expect("the first probe is in the fingerprint");
        bytes[21 + at] ^= 1;
        let sum = fnv1a64(&bytes[payload.clone()]).to_le_bytes();
        bytes[payload.end..payload.end + 8].copy_from_slice(&sum);
        let err = decode::<f64>(&bytes, Arc::new(Coulomb))
            .err()
            .expect("a flipped probe must be refused");
        assert!(
            matches!(
                err,
                LoadError::KernelMismatch {
                    reason: PROBES_DIFFER,
                    ..
                }
            ),
            "{err}"
        );
        let text = err.to_string();
        assert!(text.contains("different kernel parameters"), "{text}");
        assert!(text.contains("saved by a build"), "{text}");
        assert!(text.contains("re-save"), "{text}");
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("h2serve-codec-{}-{tag}.bin", std::process::id()))
    }

    #[test]
    fn slabs_are_aligned() {
        let h2 = build(MemoryMode::Normal);
        let bytes = encode(&h2);
        let hdr = split_sections(&bytes).unwrap();
        let families = decode_directory(require(&hdr.sections, TAG_DIRECTORY).unwrap()).unwrap();
        assert_eq!(families.len(), 4);
        let slab_base = align_up(hdr.header_end, SLAB_ALIGN);
        assert_eq!(slab_base % SLAB_ALIGN, 0);
        for f in &families {
            assert_eq!(f.slab_off % SLAB_ALIGN, 0, "{}", family_name(f.kind));
            for b in &f.entries {
                assert_eq!(b.offset % SLAB_ALIGN, 0);
                assert!(b.offset + b.nrows * b.ncols * 8 <= f.slab_len);
            }
            assert!(slab_base + f.slab_off + f.slab_len <= bytes.len());
        }
    }

    #[test]
    fn mmap_load_is_bitwise_identical_and_near_zero_resident() {
        for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
            let h2 = build(mode);
            let path = temp_path(&format!("mmap-{mode:?}"));
            save(&h2, &path).expect("save");
            let owned: H2Matrix = load(&path, Arc::new(Coulomb)).expect("owned load");
            let mapped: H2Matrix = load_mmap(&path, Arc::new(Coulomb)).expect("mmap load");
            let b: Vec<f64> = (0..h2.n()).map(|i| (0.29 * i as f64).cos()).collect();
            let want: Vec<u64> = owned.matvec(&b).iter().map(|v| v.to_bits()).collect();
            let got: Vec<u64> = mapped.matvec(&b).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "mode {mode:?}");
            // Re-saving a loaded operator reproduces the file, also when
            // its matrices are views into the mapping.
            let file = std::fs::read(&path).expect("read back");
            assert!(encode(&owned) == file, "mode {mode:?}: owned re-encode");
            assert!(encode(&mapped) == file, "mode {mode:?}: mapped re-encode");

            let ro = owned.memory_report();
            let rm = mapped.memory_report();
            assert_eq!(ro.mapped_bytes, 0);
            assert!(rm.mapped_bytes > 0, "mode {mode:?}");
            // Everything that was generator payload is now mapped pages.
            assert_eq!(
                rm.total() + rm.mapped_bytes,
                ro.total(),
                "mode {mode:?}: owned {ro:?} vs mapped {rm:?}"
            );
            if mode == MemoryMode::Normal {
                // The headline criterion: an mmap-loaded operator's resident
                // generator bytes are <= 5% of the owned footprint's.
                assert!(
                    (rm.generators() as f64) <= 0.05 * ro.generators() as f64,
                    "resident generators {} vs owned {}",
                    rm.generators(),
                    ro.generators()
                );
            }
            std::fs::remove_file(&path).ok();
        }
    }

    /// The engine's k-invariance on the mapped tier: column `c` of an
    /// 8-column product over an mmap-loaded operator is the vector product
    /// of column `c`, bit for bit — and both are the in-memory operator's.
    fn assert_mapped_k_invariant<S: Scalar, A: Scalar>(h2: &H2MatrixS<S>, tag: &str) {
        let path = temp_path(tag);
        save(h2, &path).expect("save");
        let mapped: H2MatrixS<S> = load_mmap(&path, Arc::new(Coulomb)).expect("mmap load");
        assert!(mapped.memory_report().mapped_bytes > 0, "{tag}");
        let b = MatrixS::<A>::from_fn(h2.n(), 8, |i, j| {
            A::from_f64(((i * 31 + j * 17) % 101) as f64 / 50.0 - 1.0)
        });
        let y = mapped.matmat(&b);
        assert_eq!(y.as_slice(), h2.matmat(&b).as_slice(), "{tag}");
        for c in 0..8 {
            assert_eq!(y.col(c), &mapped.matvec(b.col(c))[..], "{tag}: column {c}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mmap_loaded_panel_columns_equal_vector_products() {
        use h2_core::BuilderStrategy;
        let pts = gen::uniform_cube(600, 3, 17);
        for (bname, builder) in [
            ("anchor", BuilderStrategy::AnchorNet),
            ("sketched", BuilderStrategy::sketched_for_tol(1e-5, 3)),
        ] {
            let cfg = H2Config {
                basis: BasisMethod::data_driven_for_tol(1e-5, 3),
                mode: MemoryMode::Normal,
                builder,
                leaf_size: 48,
                ..H2Config::default()
            };
            let h64 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg);
            let h32 = H2MatrixS::<f32>::build(&pts, Arc::new(Coulomb), &cfg);
            assert_mapped_k_invariant::<f64, f64>(&h64, &format!("mmap-k-{bname}-f64"));
            assert_mapped_k_invariant::<f32, f32>(&h32, &format!("mmap-k-{bname}-f32"));
            assert_mapped_k_invariant::<f32, f64>(&h32, &format!("mmap-k-{bname}-mixed"));
        }
    }

    #[test]
    fn corrupt_slabs_fail_closed() {
        let h2 = build(MemoryMode::Normal);
        let bytes = encode(&h2);

        // Bit-flip deep in the slab region: the owned decode's family
        // checksum catches it.
        let mut flipped = bytes.clone();
        let n = flipped.len();
        flipped[n - 16] ^= 0x40;
        let err = decode::<f64>(&flipped, Arc::new(Coulomb))
            .err()
            .expect("bit flip must be detected");
        assert!(
            matches!(&err, LoadError::CorruptSection { section: "directory", reason }
                if reason.contains("checksum")),
            "{err}"
        );

        // Truncation inside the slab region: typed error, never a panic —
        // on the owned path and on the mmap path alike.
        let cut = &bytes[..bytes.len() - bytes.len() / 3];
        assert!(decode::<f64>(cut, Arc::new(Coulomb)).is_err());
        let mem = h2_linalg::SlabMem::from_bytes(cut);
        assert!(decode_mapped::<f64>(&mem, Arc::new(Coulomb)).is_err());

        // The same truncated bytes through a real file mapping.
        let path = temp_path("truncated");
        std::fs::write(&path, cut).unwrap();
        assert!(load_mmap::<f64>(&path, Arc::new(Coulomb)).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn probe_values_are_deterministic() {
        let a = probe_values(&Coulomb, 3);
        let b = probe_values(&Coulomb, 3);
        assert_eq!(a, b);
        assert_ne!(
            probe_values(&Matern32 { ell: 1.0 }, 2),
            probe_values(&Matern32 { ell: 2.0 }, 2)
        );
    }
}
