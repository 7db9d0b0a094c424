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
//! **generators-meta** (ranks, proxies and the row maps of the bases and
//! transfers), **directory** and an empty **end** marker; matrix payloads
//! live behind them in a **slab region** laid out for zero-copy `mmap`
//! loading:
//!
//! ```text
//! magic | version=5
//! fingerprint | tree
//! generators-meta (ranks, proxies, then per node its basis row map, then
//!                  per node its transfer row map: a length, then per row
//!                  a u32 unit column or u32::MAX for a coefficient row)
//! directory (per matrix family: slab offset/len/checksum + shapes)
//! end | zero padding to a 64-byte boundary
//! slab region: one little-endian column-major slab per family
//!              (bases, transfers, then — normal mode — coupling, nearfield),
//!              every family and every matrix start 64-byte aligned
//! ```
//!
//! A basis or transfer is stored as the operator holds it
//! ([`h2_linalg::BasisMatrix`]): its row map in the header, its coefficient
//! block (the whole matrix when the map is empty) in its family's slab. A
//! load rebuilds it with [`h2_linalg::BasisMatrix::from_split`], which
//! refuses a map that does not fit its block.
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
//! [`load_mmap`] wraps the mapping in [`h2_core::cache::BlockSlabs`] views and
//! hands the same `MatrixS` values to the same sweeps, so the mmap path is
//! bitwise-identical to the owned decode by construction. Slab checksums
//! are verified on the owned path only — verifying them on the mmap path
//! would fault in every page and defeat lazy loading.
//!
//! Saving and loading stream, so neither holds a copy of the file: an
//! operator file costs the operator plus `O(CHUNK)` (64 KiB) of buffers to
//! write or read. [`save`] writes the header with the directory's family
//! checksums zeroed, streams every slab through a small buffer while
//! folding its bytes (padding included) into the family's FNV-1a, then
//! seeks back and rewrites the directory, which keeps its length. [`load`]
//! reads the header section by section, checking every declared length
//! against the bytes left before allocating, then reads each matrix
//! straight into its owned storage and checks each family's checksum at
//! the family's end. Only [`encode`] and [`decode`], whose interface is a
//! buffer of the whole file, hold one.
//!
//! [`save`] never writes the destination in place: it writes a temporary
//! sibling, syncs it and renames it over `path`. Whatever maps the old
//! file (an operator from [`load_mmap`], a serving host) keeps reading the
//! old pages, where truncating the file under the mapping would take them
//! away (`SIGBUS`); a save that fails removes its temporary and leaves the
//! old file as it was.
//!
//! This is the only format: version 5. Blobs of the earlier versions are
//! refused with [`LoadError::UnsupportedVersion`]: 1–3 kept matrices inside
//! the sections, 4 stored every basis and transfer dense.
//!
//! Block lists are *not* stored: they are a deterministic function of the
//! tree and `eta`, recomputed at load (`H2Matrix::from_parts`), which also
//! guarantees the dense-block sequences align with the recomputed pair
//! lists.
//!
//! Every decoding path is bounds-checked and returns [`LoadError`] — a
//! truncated, bit-flipped, or adversarially wrong file must never panic.

use crate::error::LoadError;
use h2_core::cache::{BlockKind, BlockSlabs, SlabBlock};
use h2_core::proxy::ProxyPoints;
use h2_core::{BuilderProvenance, H2MatrixS, H2Parts, MemoryMode};
use h2_dist::wire::{WireReader, WireWriter};
use h2_kernels::Kernel;
use h2_linalg::basis::RowIndex;
use h2_linalg::{BasisMatrix, MatrixS, Scalar, SlabMem};
use h2_points::tree::Node;
use h2_points::{BoundingBox, ClusterTree, PointSet};
use std::borrow::Cow;
use std::ffi::OsString;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Cursor, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// File magic: identifies h2-serve operator files.
pub const MAGIC: [u8; 8] = *b"H2SERVE\0";
/// The one codec format version this build writes and reads: matrix
/// payloads in an aligned, `mmap`able slab region behind a checksummed
/// directory, each basis and transfer as its row map and coefficient block.
pub const FORMAT_VERSION: u32 = 5;
/// Alignment (bytes) of the slab region, each family slab, and each
/// matrix payload within its slab: the alignment of a generated slab too.
pub use h2_linalg::SLAB_ALIGN;

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

/// FNV-1a 64 of no bytes: where every checksum's fold starts.
const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues the FNV-1a 64 `h` over `bytes`, so a checksum can be folded
/// over a slab that is never in memory at once.
fn fnv1a64_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_fold(FNV_START, bytes)
}

/// Bytes of the slab region the writer and the reader hold at a time (a
/// multiple of every scalar width).
const CHUNK: usize = 64 * 1024;

/// The zero bytes alignment padding is written from.
const ZEROS: [u8; SLAB_ALIGN] = [0; SLAB_ALIGN];

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

/// Ranks, proxies and the row maps of the bases, then of the transfers; the
/// matrices live in the slab region, their shapes in the directory.
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
    for m in h2.bases().iter().chain(h2.transfers()) {
        e.usize(m.row_map().len());
        for &ix in m.row_map() {
            e.u32(wire_entry(ix));
        }
    }
    e.into_bytes()
}

/// A row-map entry as a file holds it: the unit column, or `u32::MAX` for a
/// coefficient row.
fn wire_entry<I: RowIndex>(ix: I) -> u32 {
    if ix == I::DENSE {
        u32::MAX
    } else {
        ix.col() as u32
    }
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
        let (nrows, ncols) = m.shape();
        entries.push(SlabBlock {
            nrows,
            ncols,
            offset: cursor,
        });
        cursor = align_up(cursor + nrows * ncols * S::BYTES, SLAB_ALIGN);
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

/// One file of an operator, laid out: the header with the directory's
/// family checksums still zero, where the directory sits in it, and each
/// family's matrices in slab order.
struct Plan<'a, S: Scalar> {
    /// Magic to end marker, zero-padded to [`SLAB_ALIGN`].
    head: Vec<u8>,
    dir_at: usize,
    families: Vec<DirFamily>,
    mats: Vec<Vec<&'a MatrixS<S>>>,
    slab_region_len: usize,
}

impl<'a, S: Scalar> Plan<'a, S> {
    fn new(h2: &'a H2MatrixS<S>) -> Self {
        // Lay the families out and compute slab offsets.
        let coefs = |family: &'a [BasisMatrix<S>]| family.iter().map(BasisMatrix::coefficients);
        let mut family_mats: Vec<(u8, Vec<&MatrixS<S>>)> = vec![
            (FAMILY_BASES, coefs(h2.bases()).collect()),
            (FAMILY_TRANSFERS, coefs(h2.transfers()).collect()),
        ];
        let table = h2.table();
        for (tag, kind) in [
            (FAMILY_COUPLING, BlockKind::Coupling),
            (FAMILY_NEARFIELD, BlockKind::Nearfield),
        ] {
            if let Some(blocks) = table.stored_blocks(kind) {
                family_mats.push((tag, blocks));
            }
        }
        let mut families = Vec::with_capacity(family_mats.len());
        let mut mats = Vec::with_capacity(family_mats.len());
        let mut cursor = 0usize;
        for (kind, family) in family_mats {
            let (entries, slab_len) = layout_family(&family);
            families.push(DirFamily {
                kind,
                slab_off: cursor,
                slab_len,
                checksum: 0, // known once the slab is written
                entries,
            });
            mats.push(family);
            cursor = align_up(cursor + slab_len, SLAB_ALIGN);
        }

        // Header sections, padded so the slab region lands 64-aligned.
        // Directory offsets are relative to that aligned base, which is why
        // the header's own length never perturbs them.
        let mut head = Vec::new();
        head.extend_from_slice(&MAGIC);
        head.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        push_section(&mut head, TAG_FINGERPRINT, &encode_fingerprint(h2));
        push_section(&mut head, TAG_TREE, &encode_tree(h2.tree()));
        push_section(&mut head, TAG_GENERATORS_META, &encode_generators_meta(h2));
        let dir_at = head.len();
        push_section(&mut head, TAG_DIRECTORY, &encode_directory(&families));
        push_section(&mut head, TAG_END, &[]);
        head.resize(align_up(head.len(), SLAB_ALIGN), 0);
        Plan {
            head,
            dir_at,
            families,
            mats,
            slab_region_len: cursor,
        }
    }

    /// The file's length in bytes.
    fn len(&self) -> usize {
        self.head.len() + self.slab_region_len
    }

    /// Writes the file into `w` from its current position and leaves `w`
    /// at the file's end: the header, then every slab a [`CHUNK`] at a
    /// time with its checksum folded on the way, then the directory again
    /// over itself, now with the checksums (the same length, so nothing
    /// behind it moves).
    fn write<W: Write + Seek>(mut self, w: &mut W) -> io::Result<u64> {
        let start = w.stream_position()?;
        w.write_all(&self.head)?;
        let mut out = SlabOut {
            w: &mut *w,
            at: 0,
            sum: FNV_START,
            buf: Vec::with_capacity(CHUNK),
        };
        for (f, mats) in self.families.iter_mut().zip(&self.mats) {
            out.pad_to(f.slab_off)?;
            out.sum = FNV_START;
            for (b, m) in f.entries.iter().zip(mats) {
                out.pad_to(f.slab_off + b.offset)?;
                out.values(m.as_slice())?;
            }
            // Zeros between matrices and up to the slab's aligned end are
            // deterministic, so the family checksum covers them too.
            out.pad_to(f.slab_off + f.slab_len)?;
            f.checksum = out.sum;
        }
        let mut directory = Vec::new();
        push_section(
            &mut directory,
            TAG_DIRECTORY,
            &encode_directory(&self.families),
        );
        w.seek(SeekFrom::Start(start + self.dir_at as u64))?;
        w.write_all(&directory)?;
        let len = self.len() as u64;
        w.seek(SeekFrom::Start(start + len))?;
        Ok(len)
    }
}

/// The slab-region side of [`Plan::write`]: its position in the region and
/// the FNV-1a of the current family so far.
struct SlabOut<'w, W> {
    w: &'w mut W,
    at: usize,
    sum: u64,
    buf: Vec<u8>,
}

impl<W: Write> SlabOut<'_, W> {
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.sum = fnv1a64_fold(self.sum, bytes);
        self.at += bytes.len();
        self.w.write_all(bytes)
    }

    fn pad_to(&mut self, at: usize) -> io::Result<()> {
        while self.at < at {
            let n = (at - self.at).min(ZEROS.len());
            self.put(&ZEROS[..n])?;
        }
        Ok(())
    }

    /// One matrix's values, little-endian, a [`CHUNK`] at a time.
    fn values<S: Scalar>(&mut self, values: &[S]) -> io::Result<()> {
        let mut buf = std::mem::take(&mut self.buf);
        for part in values.chunks(CHUNK / S::BYTES) {
            buf.clear();
            for &v in part {
                v.write_le(&mut buf);
            }
            self.put(&buf)?;
        }
        self.buf = buf;
        Ok(())
    }
}

/// Serializes a built operator into the `mmap`able binary format, at the
/// operator's own storage precision: the same bytes [`save`] writes to a
/// file. Reads the operator in place; the returned buffer is the only one
/// of the file's size.
pub fn encode<S: Scalar>(h2: &H2MatrixS<S>) -> Vec<u8> {
    let plan = Plan::new(h2);
    let mut out = Cursor::new(Vec::with_capacity(plan.len()));
    plan.write(&mut out)
        .expect("writing into a Vec cannot fail");
    out.into_inner()
}

/// Saves an operator to `path`; returns the number of bytes written.
///
/// The file is streamed through a small buffer into a temporary sibling of
/// `path`, synced, and renamed over `path` (then the directory is synced),
/// so saving holds no copy of the file in memory, and whatever maps the old
/// file (an operator from [`load_mmap`], `h2` itself among them) keeps
/// reading the old bytes. An error before the rename removes the temporary
/// and leaves `path` as it was.
pub fn save<S: Scalar>(h2: &H2MatrixS<S>, path: impl AsRef<Path>) -> io::Result<u64> {
    let path = path.as_ref();
    let tmp = temp_sibling(path)?;
    let written = File::create(&tmp).and_then(|file| {
        let mut w = BufWriter::new(file);
        let len = Plan::new(h2).write(&mut w)?;
        w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        std::fs::rename(&tmp, path)?;
        // The rename itself is durable once its directory is synced.
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        Ok(len)
    });
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// A name next to `path`, in the same directory (so the rename is atomic),
/// unique per process and call.
fn temp_sibling(path: &Path) -> io::Result<PathBuf> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} names no file", path.display()),
        )
    })?;
    let mut tmp = OsString::from(".");
    tmp.push(name);
    let k = NEXT.fetch_add(1, Ordering::Relaxed);
    tmp.push(format!(".{}-{k}.tmp", std::process::id()));
    Ok(path.with_file_name(tmp))
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

    /// A row map: its length, checked against the bytes left, then per row
    /// a unit column, which must fit `S`'s row index, or `u32::MAX`.
    fn row_map<S: Scalar>(&mut self) -> Result<Vec<S::Index>, LoadError> {
        let len = self.count(4)?;
        let mut map = Vec::with_capacity(len);
        for _ in 0..len {
            map.push(match self.u32()? {
                u32::MAX => S::Index::DENSE,
                col => S::Index::unit(col as usize)
                    .ok_or_else(|| self.corrupt(format!("row-map column {col} too wide")))?,
            });
        }
        Ok(map)
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

/// The checksum-verified header sections of an operator file and where the
/// header ends (the slab region starts at the next [`SLAB_ALIGN`] boundary
/// after it).
struct Header<'a> {
    sections: Vec<(u8, Cow<'a, [u8]>)>,
    header_end: usize,
}

/// Reads an operator file front to back from any [`Read`] that holds
/// `len` more bytes: an encoded buffer, a file or a mapping. Every length
/// the file declares is checked against the bytes left before anything is
/// allocated for it, and the slab region passes through one [`CHUNK`]-sized
/// buffer, so reading never holds a copy of the file.
struct Reader<R> {
    r: R,
    /// Bytes consumed.
    at: usize,
    /// Bytes left.
    left: usize,
    buf: Vec<u8>,
}

impl<'a> Reader<&'a [u8]> {
    fn of(bytes: &'a [u8]) -> Self {
        Reader::new(bytes, bytes.len())
    }

    /// [`Reader::header`] with every section borrowed from the bytes
    /// instead of copied.
    fn header_in_place(&mut self) -> Result<Header<'a>, LoadError> {
        self.header_with(|r, len, _| {
            // `header_with` checked that `len` bytes are left.
            let (payload, rest) = r.r.split_at(len);
            (r.r, r.at, r.left) = (rest, r.at + len, r.left - len);
            Ok(Cow::Borrowed(payload))
        })
    }
}

impl Reader<BufReader<File>> {
    fn open(path: &Path) -> Result<Self, LoadError> {
        let file = File::open(path)?;
        // A file larger than the address space cannot be read; it claims
        // more bytes than there are, and the first short read is an error.
        let len = usize::try_from(file.metadata()?.len()).unwrap_or(usize::MAX);
        Ok(Reader::new(BufReader::new(file), len))
    }
}

impl<R: Read> Reader<R> {
    fn new(r: R, len: usize) -> Self {
        Reader {
            r,
            at: 0,
            left: len,
            buf: Vec::new(),
        }
    }

    /// The file's length.
    fn len(&self) -> usize {
        self.at + self.left
    }

    /// Fills `out` with the next bytes, if that many are left.
    fn fill(&mut self, out: &mut [u8], section: &'static str) -> Result<(), LoadError> {
        if out.len() > self.left {
            return Err(LoadError::CorruptSection {
                section,
                reason: format!(
                    "truncated: wanted {} bytes, {} remain",
                    out.len(),
                    self.left
                ),
            });
        }
        self.r.read_exact(out)?;
        self.at += out.len();
        self.left -= out.len();
        Ok(())
    }

    fn array<const N: usize>(&mut self, section: &'static str) -> Result<[u8; N], LoadError> {
        let mut out = [0; N];
        self.fill(&mut out, section)?;
        Ok(out)
    }

    /// Passes the bytes up to file offset `to` to `f`, a [`CHUNK`] at a time.
    fn stream_to(&mut self, to: usize, mut f: impl FnMut(&[u8])) -> Result<(), LoadError> {
        let mut n = to.checked_sub(self.at).ok_or_else(|| {
            corrupt_directory(format!("offset {to} lies behind the reader at {}", self.at))
        })?;
        let mut buf = std::mem::take(&mut self.buf);
        buf.resize(CHUNK.min(n).max(buf.len()), 0);
        while n > 0 {
            let k = n.min(buf.len());
            self.fill(&mut buf[..k], "directory")?;
            f(&buf[..k]);
            n -= k;
        }
        self.buf = buf;
        Ok(())
    }

    /// Passes over the alignment padding up to file offset `to`: no
    /// checksum covers it, so every byte must be zero.
    fn skip_padding(&mut self, to: usize) -> Result<(), LoadError> {
        let mut zero = true;
        self.stream_to(to, |pad| zero &= pad.iter().all(|&b| b == 0))?;
        let dirty = || corrupt_directory(format!("nonzero padding before offset {to}"));
        zero.then_some(()).ok_or_else(dirty)
    }

    /// Magic, version, then every section up to and including the end
    /// marker, each checked against its checksum.
    fn header(&mut self) -> Result<Header<'static>, LoadError> {
        self.header_with(|r, len, section| {
            let mut payload = vec![0; len];
            r.fill(&mut payload, section)?;
            Ok(Cow::Owned(payload))
        })
    }

    /// [`Reader::header`], each section's `len`-byte payload taken by
    /// `payload`.
    fn header_with<'a>(
        &mut self,
        mut payload: impl FnMut(&mut Self, usize, &'static str) -> Result<Cow<'a, [u8]>, LoadError>,
    ) -> Result<Header<'a>, LoadError> {
        if self.left < MAGIC.len() + 4 {
            return Err(LoadError::BadMagic);
        }
        let [magic @ .., v0, v1, v2, v3] = self.array::<12>("header")?;
        if magic != MAGIC {
            return Err(LoadError::BadMagic);
        }
        let version = u32::from_le_bytes([v0, v1, v2, v3]);
        if version != FORMAT_VERSION {
            return Err(LoadError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let mut sections = Vec::new();
        loop {
            let [tag] = self.array("header")?;
            let section = section_name(tag);
            let corrupt = |reason| LoadError::CorruptSection { section, reason };
            if section == "unknown" {
                return Err(corrupt(format!("unknown section tag {tag}")));
            }
            // The payload and its checksum must fit in what is left.
            let len = u64::from_le_bytes(self.array(section)?);
            let Some(len) = usize::try_from(len)
                .ok()
                .filter(|&n| n <= self.left.saturating_sub(8))
            else {
                return Err(corrupt(format!(
                    "payload length {len} exceeds the {} bytes left",
                    self.left
                )));
            };
            let payload = payload(self, len, section)?;
            let stored = u64::from_le_bytes(self.array(section)?);
            let actual = fnv1a64(&payload);
            if stored != actual {
                return Err(corrupt(format!(
                    "checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
                )));
            }
            sections.push((tag, payload));
            if tag == TAG_END {
                return Ok(Header {
                    sections,
                    header_end: self.at,
                });
            }
        }
    }

    /// The fingerprint, read from the header alone.
    fn fingerprint(mut self) -> Result<Fingerprint, LoadError> {
        let hdr = self.header()?;
        decode_fingerprint(require(&hdr.sections, TAG_FINGERPRINT)?)
    }
}

fn section<'s>(sections: &'s [(u8, Cow<[u8]>)], tag: u8) -> Result<Option<&'s [u8]>, LoadError> {
    let mut found = None;
    for (t, payload) in sections {
        if *t == tag {
            if found.is_some() {
                return Err(LoadError::CorruptSection {
                    section: section_name(tag),
                    reason: "duplicated section".into(),
                });
            }
            found = Some(&payload[..]);
        }
    }
    Ok(found)
}

fn require<'s>(sections: &'s [(u8, Cow<[u8]>)], tag: u8) -> Result<&'s [u8], LoadError> {
    section(sections, tag)?.ok_or_else(|| LoadError::CorruptSection {
        section: section_name(tag),
        reason: "section missing".into(),
    })
}

fn scalar_of(fp: Fingerprint) -> &'static str {
    scalar_name(fp.scalar_code).expect("decode_fingerprint validated the code")
}

/// Reads the storage scalar name ("f32" or "f64") recorded in an encoded
/// operator without decoding the payload — what a loader dispatching on
/// precision inspects before choosing which `decode::<S>` to call.
/// Verifies magic, version, and the header checksums on the way.
pub fn stored_scalar(bytes: &[u8]) -> Result<&'static str, LoadError> {
    Reader::of(bytes).fingerprint().map(scalar_of)
}

/// [`stored_scalar`] of the operator file at `path`, reading its header
/// only: what the `h2serve` file commands inspect before choosing which
/// `load::<S>` to call.
pub fn stored_scalar_file(path: impl AsRef<Path>) -> Result<&'static str, LoadError> {
    Reader::open(path.as_ref())?.fingerprint().map(scalar_of)
}

/// Reads the builder provenance recorded in an encoded operator without
/// decoding the payload — how serving surfaces report what pipeline
/// constructed each stored operator. Unknown provenance codes are returned
/// as [`BuilderProvenance::Unknown`], never an error.
pub fn stored_builder(bytes: &[u8]) -> Result<BuilderProvenance, LoadError> {
    Ok(Reader::of(bytes).fingerprint()?.provenance)
}

/// Reads the update epoch recorded in an encoded operator without decoding
/// the payload.
pub fn stored_epoch(bytes: &[u8]) -> Result<u64, LoadError> {
    Ok(Reader::of(bytes).fingerprint()?.epoch)
}

/// [`stored_epoch`] of the operator file at `path`, reading its header only.
pub fn stored_epoch_file(path: impl AsRef<Path>) -> Result<u64, LoadError> {
    Ok(Reader::open(path.as_ref())?.fingerprint()?.epoch)
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

/// Final assembly shared by every decode path: pack the parsed body and
/// its matrix families (bases, transfers, then in normal mode coupling and
/// nearfield, as `parse` checked) into [`H2Parts`] and revalidate through
/// `from_parts`.
fn assemble<S: Scalar>(
    body: Body<S>,
    families: Vec<Vec<MatrixS<S>>>,
    kernel: Arc<dyn Kernel>,
) -> Result<H2MatrixS<S>, LoadError> {
    let Body {
        fp,
        tree,
        ranks,
        proxies,
        maps: [basis_maps, transfer_maps],
        ..
    } = body;
    if tree.points().dim() != fp.dim {
        return Err(LoadError::Inconsistent(format!(
            "fingerprint dimension {} != point dimension {}",
            fp.dim,
            tree.points().dim()
        )));
    }
    let mut families = families.into_iter();
    let (Some(bases), Some(transfers)) = (families.next(), families.next()) else {
        return Err(corrupt_directory("bases or transfers missing"));
    };
    let parts = H2Parts {
        tree,
        eta: fp.eta,
        bases: split("bases", basis_maps, bases)?,
        transfers: split("transfers", transfer_maps, transfers)?,
        proxies,
        ranks,
        // Both block families or neither, as `parse` checked against the
        // fingerprint's mode.
        blocks: families.next().zip(families.next()).map(|(c, n)| [c, n]),
        provenance: fp.provenance,
        epoch: fp.epoch,
    };
    H2MatrixS::from_parts(parts, kernel).map_err(LoadError::Inconsistent)
}

/// Rebuilds a family of bases or transfers from its row maps and its
/// coefficient blocks, one of each per node.
fn split<S: Scalar>(
    family: &str,
    maps: Vec<Vec<S::Index>>,
    coefs: Vec<MatrixS<S>>,
) -> Result<Vec<BasisMatrix<S>>, LoadError> {
    if maps.len() != coefs.len() {
        return Err(corrupt_directory(format!(
            "{} {family} for {} row maps",
            coefs.len(),
            maps.len()
        )));
    }
    let nodes = maps.into_iter().zip(coefs).enumerate();
    nodes
        .map(|(i, (map, coef))| {
            BasisMatrix::from_split(map, coef)
                .map_err(|e| LoadError::Inconsistent(format!("node {i}: {family}: {e}")))
        })
        .collect()
}

/// The generators-meta section: per node its rank and proxies, then per
/// node the row map of its basis, then per node that of its transfer.
type GeneratorsMeta<S> = (
    Vec<usize>,
    Vec<ProxyPoints>,
    [Vec<Vec<<S as Scalar>::Index>>; 2],
);

fn decode_generators_meta<S: Scalar>(payload: &[u8]) -> Result<GeneratorsMeta<S>, LoadError> {
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
    let mut maps = || {
        (0..n_nodes)
            .map(|_| d.row_map::<S>())
            .collect::<Result<_, _>>()
    };
    let maps = [maps()?, maps()?];
    d.finish()?;
    Ok((ranks, proxies, maps))
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
struct Body<S: Scalar> {
    fp: Fingerprint,
    tree: ClusterTree,
    ranks: Vec<usize>,
    proxies: Vec<ProxyPoints>,
    maps: [Vec<Vec<S::Index>>; 2],
    families: Vec<DirFamily>,
    /// Absolute byte offset of the (aligned) slab region within the file.
    slab_base: usize,
}

/// Parses and cross-validates a header: fingerprint (against `kernel`
/// and `S`), tree, generators-meta, and a directory whose families match
/// the stored memory mode and lie inside the `file_len`-byte file in
/// order, each with its matrices in order inside its slab. Materializing
/// the matrices — owned copies or mmap views — is the caller's half.
fn parse<S: Scalar>(
    hdr: Header<'_>,
    file_len: usize,
    kernel: &dyn Kernel,
) -> Result<Body<S>, LoadError> {
    let sections = &hdr.sections;
    let fp = decode_fingerprint(require(sections, TAG_FINGERPRINT)?)?;
    check_fingerprint::<S>(&fp, kernel)?;
    let tree = decode_tree(require(sections, TAG_TREE)?)?;
    let (ranks, proxies, maps) =
        decode_generators_meta::<S>(require(sections, TAG_GENERATORS_META)?)?;
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
    let slab_region_len = file_len
        .checked_sub(slab_base)
        .ok_or_else(|| corrupt_directory("file truncated before the slab region"))?;
    let mut family_end = 0;
    for f in &families {
        let name = family_name(f.kind);
        let end = f
            .slab_off
            .checked_add(f.slab_len)
            .ok_or_else(|| corrupt_directory("family slab offset overflows"))?;
        if end > slab_region_len {
            return Err(corrupt_directory(format!(
                "{name} slab [{}, {end}) escapes the {slab_region_len}-byte slab region",
                f.slab_off,
            )));
        }
        if f.slab_off < family_end {
            return Err(corrupt_directory(format!(
                "{name} slab overlaps the slab before it"
            )));
        }
        family_end = end;
        let mut matrix_end = 0;
        for b in &f.entries {
            let end = b
                .nrows
                .checked_mul(b.ncols)
                .and_then(|cnt| cnt.checked_mul(S::BYTES))
                .and_then(|bytes| b.offset.checked_add(bytes))
                .filter(|&e| e <= f.slab_len)
                .ok_or_else(|| {
                    corrupt_directory(format!(
                        "{name} matrix {}x{} at {} escapes its {}-byte slab",
                        b.nrows, b.ncols, b.offset, f.slab_len
                    ))
                })?;
            if b.offset < matrix_end {
                return Err(corrupt_directory(format!(
                    "{name} matrix at {} overlaps the matrix before it",
                    b.offset
                )));
            }
            matrix_end = end;
        }
    }
    Ok(Body {
        fp,
        tree,
        ranks,
        proxies,
        maps,
        families,
        slab_base,
    })
}

/// Reads one family on from the reader as owned matrices and verifies its
/// slab checksum at the family's end (the owned path reads every byte
/// anyway, so verification is free — unlike the mmap path, where it would
/// fault in every page).
fn owned_family<S: Scalar, R: Read>(
    r: &mut Reader<R>,
    slab_base: usize,
    f: &DirFamily,
) -> Result<Vec<MatrixS<S>>, LoadError> {
    // `parse` placed the family and its matrices inside the file.
    let start = slab_base + f.slab_off;
    r.skip_padding(start)?;
    let mut sum = FNV_START;
    let mut mats = Vec::with_capacity(f.entries.len());
    for b in &f.entries {
        r.stream_to(start + b.offset, |pad| sum = fnv1a64_fold(sum, pad))?;
        let cnt = b.nrows * b.ncols;
        let mut data = Vec::with_capacity(cnt);
        r.stream_to(start + b.offset + cnt * S::BYTES, |chunk| {
            sum = fnv1a64_fold(sum, chunk);
            data.extend(chunk.chunks_exact(S::BYTES).map(S::read_le));
        })?;
        mats.push(MatrixS::from_col_major(b.nrows, b.ncols, data));
    }
    r.stream_to(start + f.slab_len, |pad| sum = fnv1a64_fold(sum, pad))?;
    if sum != f.checksum {
        return Err(corrupt_directory(format!(
            "{} slab checksum mismatch (stored {:#018x}, computed {sum:#018x})",
            family_name(f.kind),
            f.checksum
        )));
    }
    Ok(mats)
}

/// The owned decode behind [`decode`] and [`load`]: the header, then every
/// family read straight into its matrices.
fn read_owned<S: Scalar, R: Read>(
    mut r: Reader<R>,
    kernel: Arc<dyn Kernel>,
) -> Result<H2MatrixS<S>, LoadError> {
    let hdr = r.header()?;
    let body = parse::<S>(hdr, r.len(), kernel.as_ref())?;
    let families = (body.families.iter())
        .map(|f| owned_family(&mut r, body.slab_base, f))
        .collect::<Result<_, _>>()?;
    assemble(body, families, kernel)
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
    read_owned(Reader::of(bytes), kernel)
}

/// Decodes an operator whose bytes live in a [`SlabMem`] — when the memory
/// is an actual file mapping, matrix payloads become zero-copy views over
/// the mapped pages instead of heap copies, and the header sections are
/// read in place. A basis or transfer is its row map, on the heap, over its
/// coefficient block, a view like any block's. The resident footprint is
/// the tree, lists, directory, proxies and row maps: a load reads the
/// header pages only.
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
    let mut r = Reader::of(bytes);
    let hdr = r.header_in_place()?;
    let body = parse::<S>(hdr, bytes.len(), kernel.as_ref())?;
    // The header's padding only: it ends in the header's last page.
    r.skip_padding(body.slab_base)?;
    let families = (body.families.iter())
        .map(|f| mapped_family(mem, body.slab_base, f))
        .collect::<Result<_, _>>()?;
    assemble(body, families, kernel)
}

/// Loads an operator from `path`, verifying it against `kernel`. The file
/// is read front to back through a small buffer straight into the
/// operator's matrices, so loading holds the operator and no copy of the
/// file.
pub fn load<S: Scalar>(
    path: impl AsRef<Path>,
    kernel: Arc<dyn Kernel>,
) -> Result<H2MatrixS<S>, LoadError> {
    read_owned(Reader::open(path.as_ref())?, kernel)
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
    use h2_linalg::scalar::bits;
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

    /// The format's bytes, pinned: the FNV-1a 64 of what `encode` writes
    /// for `f64` and `f32` operators in both memory modes. A writer change
    /// that moves one byte of a file fails here.
    #[test]
    fn files_keep_their_bytes() {
        let got = [
            fnv1a64(&encode(&build(MemoryMode::Normal))),
            fnv1a64(&encode(&build(MemoryMode::OnTheFly))),
            fnv1a64(&encode(&build32(MemoryMode::Normal))),
            fnv1a64(&encode(&build32(MemoryMode::OnTheFly))),
        ];
        let hex: Vec<String> = got.iter().map(|h| format!("{h:#018x}")).collect();
        assert_eq!(
            got,
            [
                0xb740_4587_29fe_c294,
                0xb3fa_aef2_7ced_e890,
                0xdeaf_e9ae_fce8_669d,
                0x2cfd_4642_752a_93eb,
            ],
            "f64 normal, f64 on-the-fly, f32 normal, f32 on-the-fly: {hex:?}"
        );
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
        // inside the sections, v4 stored bases and transfers dense: readers
        // must stop at the version check rather than misparse any of them.
        assert_eq!(FORMAT_VERSION, 5);
        let h2 = build(MemoryMode::OnTheFly);
        for old in [1u32, 2u32, 3u32, 4u32] {
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
            let refused = |err: Option<LoadError>| {
                matches!(err, Some(LoadError::UnsupportedVersion {
                    found,
                    supported: FORMAT_VERSION,
                }) if found == old)
            };
            assert!(refused(stored_scalar(&bytes).err()), "v{old}");
            assert!(refused(stored_builder(&bytes).err()), "v{old}");
            assert!(refused(stored_epoch(&bytes).err()), "v{old}");
            let mapped = decode_mapped::<f64>(&SlabMem::from_bytes(&bytes), Arc::new(Coulomb));
            assert!(refused(mapped.err()), "v{old}");
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
        let hdr = Reader::of(&bytes).header().unwrap();
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
            let (want, got) = (bits(&owned.matvec(&b)), bits(&mapped.matvec(&b)));
            assert_eq!(got, want, "mode {mode:?}");
            // `save` streams the bytes `encode` returns, and re-saving a
            // loaded operator reproduces the file, also when its matrices
            // are views into the mapping.
            let file = std::fs::read(&path).expect("read back");
            assert!(encode(&h2) == file, "mode {mode:?}: saved bytes");
            assert!(encode(&owned) == file, "mode {mode:?}: owned re-encode");
            assert!(encode(&mapped) == file, "mode {mode:?}: mapped re-encode");
            let h32 = build32(mode);
            save(&h32, &path).expect("save f32");
            let file = std::fs::read(&path).expect("read back");
            assert!(encode(&h32) == file, "mode {mode:?}: saved f32 bytes");

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

    fn build_n(n: usize, mode: MemoryMode) -> H2Matrix {
        let pts = gen::uniform_cube(n, 3, 23);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-5, 3),
            mode,
            leaf_size: 48,
            ..H2Config::default()
        };
        H2Matrix::build(&pts, Arc::new(Coulomb), &cfg)
    }

    /// `save` replaces a file by renaming a finished temporary over it, so
    /// an operator mapped from the old file keeps its bytes: writing the
    /// file in place would truncate the pages under the mapping.
    #[test]
    fn save_replaces_a_mapped_file_and_keeps_its_pages() {
        let path = temp_path("replace");
        let a = build_n(900, MemoryMode::Normal);
        save(&a, &path).expect("save A");
        let mapped: H2Matrix = load_mmap(&path, Arc::new(Coulomb)).expect("mmap A");
        let x: Vec<f64> = (0..a.n()).map(|i| (0.31 * i as f64).sin()).collect();
        let want = bits(&a.matvec(&x));
        assert_eq!(bits(&mapped.matvec(&x)), want);

        // A smaller operator B over the mapped file: A keeps its bits.
        let b = build_n(500, MemoryMode::Normal);
        save(&b, &path).expect("save B");
        assert_eq!(bits(&mapped.matvec(&x)), want, "A changed under the save");
        let back: H2Matrix = load(&path, Arc::new(Coulomb)).expect("load B");
        let y: Vec<f64> = (0..b.n()).map(|i| (0.31 * i as f64).sin()).collect();
        assert_eq!(back.n(), b.n());
        assert_eq!(bits(&back.matvec(&y)), bits(&b.matvec(&y)));

        // An operator mapped from the file saved onto that same file: the
        // writer reads the old pages while the new file is written.
        let own: H2Matrix = load_mmap(&path, Arc::new(Coulomb)).expect("mmap B");
        let before = std::fs::read(&path).expect("read B");
        save(&own, &path).expect("re-save B onto itself");
        assert!(std::fs::read(&path).expect("read again") == before);
        assert_eq!(bits(&own.matvec(&y)), bits(&b.matvec(&y)));
        std::fs::remove_file(&path).ok();
        drop((mapped, own));

        // No temporary is left behind when the save fails, whether the
        // directory is missing or the rename fails.
        let dir = temp_path("replace-dir");
        let missing = dir.join("missing").join("op.bin");
        assert!(save(&a, &missing).is_err());
        std::fs::create_dir_all(dir.join("op.bin")).expect("a directory in the way");
        assert!(save(&a, dir.join("op.bin")).is_err());
        let left: Vec<_> = std::fs::read_dir(&dir)
            .expect("list")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(left, ["op.bin"], "a failed save left files behind");
        std::fs::remove_dir_all(&dir).ok();
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

    /// Every load path rebuilds each basis and transfer as the operator held
    /// it, and the products keep their bits.
    fn loads_hold_the_built_bases<S: Scalar>(h2: &H2MatrixS<S>, tag: &str) {
        let path = temp_path(tag);
        save(h2, &path).expect("save");
        let loads: [H2MatrixS<S>; 3] = [
            decode(&encode(h2), Arc::new(Coulomb)).expect("decode"),
            load(&path, Arc::new(Coulomb)).expect("load"),
            load_mmap(&path, Arc::new(Coulomb)).expect("load_mmap"),
        ];
        let b: Vec<S> = (0..h2.n())
            .map(|i| S::from_f64((0.41 * i as f64).sin()))
            .collect();
        for (how, op) in ["decode", "load", "load_mmap"].iter().zip(&loads) {
            assert!(op.bases() == h2.bases(), "{tag} {how}: bases");
            assert!(op.transfers() == h2.transfers(), "{tag} {how}: transfers");
            assert_eq!(bits(&op.matvec(&b)), bits(&h2.matvec(&b)), "{tag} {how}");
        }
        assert!(loads[2]
            .bases()
            .iter()
            .any(|m| m.coefficients().is_mapped()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn loads_hold_the_bases_the_operator_held() {
        for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
            loads_hold_the_built_bases(&build(mode), &format!("bases-f64-{mode:?}"));
            loads_hold_the_built_bases(&build32(mode), &format!("bases-f32-{mode:?}"));
        }
    }

    /// One row map as written: its declared length and its entries.
    type WireMap = (u64, Vec<u32>);

    /// The row maps of `h2` as its file holds them: every basis's, then
    /// every transfer's.
    fn wire_maps<S: Scalar>(h2: &H2MatrixS<S>) -> Vec<WireMap> {
        let maps = h2.bases().iter().chain(h2.transfers());
        let wire = |m: &BasisMatrix<S>| m.row_map().iter().map(|&ix| wire_entry(ix)).collect();
        maps.map(|m| (m.row_map().len() as u64, wire(m))).collect()
    }

    /// The file of `h2` with its row maps edited by `edit`, the
    /// generators-meta checksum recomputed and the slab region moved behind
    /// the new header: only what `edit` did can refuse it.
    fn with_row_maps<S: Scalar>(
        h2: &H2MatrixS<S>,
        edit: impl FnOnce(&mut Vec<WireMap>),
    ) -> Vec<u8> {
        let bytes = encode(h2);
        let mut maps = wire_maps(h2);
        let written: usize = maps.iter().map(|(_, m)| 8 + 4 * m.len()).sum();
        edit(&mut maps);
        let hdr = Reader::of(&bytes).header().expect("header");
        let mut out = bytes[..12].to_vec();
        for (tag, payload) in &hdr.sections {
            let mut payload = payload.to_vec();
            if *tag == TAG_GENERATORS_META {
                // The row maps end the section.
                payload.truncate(payload.len() - written);
                for (len, map) in &maps {
                    payload.extend_from_slice(&len.to_le_bytes());
                    map.iter()
                        .for_each(|v| payload.extend_from_slice(&v.to_le_bytes()));
                }
            }
            push_section(&mut out, *tag, &payload);
        }
        out.resize(align_up(out.len(), SLAB_ALIGN), 0);
        out.extend_from_slice(&bytes[align_up(hdr.header_end, SLAB_ALIGN)..]);
        out
    }

    /// `bytes` fail `decode`, `load` and `decode_mapped` with a typed error.
    fn refused<S: Scalar>(bytes: &[u8], what: &str) {
        let path = temp_path(&format!("hostile-{}", S::NAME));
        std::fs::write(&path, bytes).expect("write");
        let errs = [
            decode::<S>(bytes, Arc::new(Coulomb)).err(),
            load::<S>(&path, Arc::new(Coulomb)).err(),
            decode_mapped::<S>(&SlabMem::from_bytes(bytes), Arc::new(Coulomb)).err(),
        ];
        std::fs::remove_file(&path).ok();
        for (how, err) in ["decode", "load", "decode_mapped"].iter().zip(errs) {
            let err = err.unwrap_or_else(|| panic!("{} {what}: {how} accepted the file", S::NAME));
            assert!(
                !err.to_string().contains("checksum"),
                "{what}: {how}: {err}"
            );
        }
    }

    /// Row maps that do not fit their operator: each is refused as a typed
    /// error by every load path, and by the map check rather than the
    /// section checksum, which the edit recomputes.
    fn hostile_row_maps<S: Scalar>(h2: &H2MatrixS<S>) {
        assert!(with_row_maps(h2, |_| {}) == encode(h2));
        let nodes = h2.bases().len();
        let maps = wire_maps(h2);
        // A leaf basis and a transfer that hold unit and coefficient rows,
        // and one unit row of each.
        let split = |at: usize| {
            let unit = |m: usize| maps[m].1.iter().position(|&v| v != u32::MAX);
            let m = (at..at + nodes).find(|&m| unit(m).is_some() && maps[m].1.contains(&u32::MAX));
            let m = m.expect("a split with coefficient rows");
            (m, unit(m).unwrap())
        };
        for (family, (m, unit)) in [("basis", split(0)), ("transfer", split(nodes))] {
            let ncols = h2
                .bases()
                .iter()
                .chain(h2.transfers())
                .nth(m)
                .unwrap()
                .ncols();
            for col in [ncols as u32, 65_535, 70_000, u32::MAX - 1] {
                let bytes = with_row_maps(h2, |maps| maps[m].1[unit] = col);
                refused::<S>(&bytes, &format!("{family} column {col} of {ncols}"));
            }
            let bytes = with_row_maps(h2, |maps| maps[m].1[unit] = u32::MAX);
            refused::<S>(&bytes, &format!("{family}: one coefficient row too many"));
            let dense = maps[m].1.iter().position(|&v| v == u32::MAX).unwrap();
            let bytes = with_row_maps(h2, |maps| maps[m].1[dense] = 0);
            refused::<S>(&bytes, &format!("{family}: one coefficient row too few"));
            let bytes = with_row_maps(h2, |maps| {
                maps[m].1.remove(unit);
                maps[m].0 -= 1;
            });
            refused::<S>(&bytes, &format!("{family}: one row short"));
        }
        for declared in [1, 1 << 40, u64::MAX / 4, u64::MAX] {
            let bytes = with_row_maps(h2, |maps| {
                let last = maps.last_mut().unwrap();
                last.0 = last.0.saturating_add(declared);
            });
            refused::<S>(&bytes, &format!("{declared} entries past the section"));
        }
    }

    #[test]
    fn hostile_row_maps_are_typed_errors() {
        // Enough levels for transfers that split.
        let pts = gen::uniform_cube(1000, 3, 29);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-5, 3),
            leaf_size: 32,
            ..H2Config::default()
        };
        hostile_row_maps(&H2Matrix::build(&pts, Arc::new(Coulomb), &cfg));
        let cfg = H2Config {
            mode: MemoryMode::OnTheFly,
            ..cfg
        };
        hostile_row_maps(&H2MatrixS::<f32>::build(&pts, Arc::new(Coulomb), &cfg));
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
