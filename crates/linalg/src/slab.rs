//! Read-only memory slabs and typed scalar views: where stored blocks live.
//!
//! The serving codec's format lays matrix payloads out as 64-byte-aligned
//! little-endian slabs so an operator file can be `mmap`ed and its blocks
//! applied in place, and every block plan of an operator writes its fresh
//! blocks into one slab of the same layout ([`SlabMem::write_parts`]). This
//! module supplies the pieces that make both safe:
//!
//! - [`SlabMem`]: an immutable byte region, one of three backings: a
//!   private read-only file mapping (the zero-copy load), a private
//!   anonymous mapping a writer filled and then froze read-only (a plan's
//!   blocks, advised `MADV_HUGEPAGE`), or a heap buffer (a copy of bytes,
//!   or a written slab below one huge page or off Linux). The region never
//!   moves or shrinks while any handle is alive, which is what lets views
//!   borrow from it across threads. Only the first backing is a *file
//!   mapping* ([`SlabMem::is_file_mapping`]): its pages belong to the page
//!   cache, while the other two are this process's memory.
//! - [`SlabSlice`]: a checked `&[S]` view into a [`SlabMem`]. Views of file
//!   bytes verify bounds, element alignment, and that the host is
//!   little-endian (the on-disk byte order), so reinterpreting the bytes as
//!   scalars is exactly the inverse of [`Scalar::write_le`]. On a
//!   big-endian host construction fails with a typed error and callers fall
//!   back to the owned (byte-by-byte) decode path. Views of a written slab
//!   hold scalars the writer stored in the host's order.
//!
//! A written slab is filled once, through disjoint `&mut [S]` regions cut
//! with `split_at_mut` (so several threads can fill it at once), and then
//! frozen: the mapping becomes `PROT_READ` before the first view exists.
//! Huge pages are only advice on the program's own mapping; where the host
//! does not grant them the slab faults 4 KiB pages like any heap buffer.
//!
//! The `mmap` bindings are minimal `extern "C"` declarations against the
//! libc the Rust standard library already links on Unix — no external
//! crate.

use crate::scalar::Scalar;
use std::fmt;
use std::sync::Arc;

/// Why a [`SlabSlice`] could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlabError {
    /// The requested range falls outside the slab.
    OutOfBounds {
        /// Requested start offset in bytes.
        offset: usize,
        /// Requested length in bytes.
        bytes: usize,
        /// Total slab length in bytes.
        len: usize,
    },
    /// The start address is not aligned for the element type.
    Misaligned {
        /// Requested start offset in bytes.
        offset: usize,
        /// Required alignment in bytes.
        align: usize,
    },
    /// The host is not little-endian, so in-place reinterpretation of the
    /// on-disk (little-endian) scalars would read wrong values.
    BigEndianHost,
}

impl fmt::Display for SlabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlabError::OutOfBounds { offset, bytes, len } => write!(
                f,
                "slab view [{offset}, {offset}+{bytes}) out of bounds (slab is {len} bytes)"
            ),
            SlabError::Misaligned { offset, align } => {
                write!(f, "slab view at offset {offset} not {align}-byte aligned")
            }
            SlabError::BigEndianHost => {
                write!(f, "in-place slab views require a little-endian host")
            }
        }
    }
}

impl std::error::Error for SlabError {}

/// Byte alignment of every matrix payload within a slab, in an operator
/// file and in a written slab alike: every scalar width this workspace
/// stores, and a cache line for the apply kernels.
pub const SLAB_ALIGN: usize = 64;

/// One transparent huge page: a written slab below it stays on the heap,
/// so a one-block plan costs no syscall.
#[cfg(target_os = "linux")]
const HUGE_PAGE: usize = 2 << 20;

enum Backing {
    /// A private `mmap` region, read-only by the time any view exists
    /// (unmapped on drop): a file's pages (`file`), or an anonymous region
    /// [`SlabMem::write_parts`] filled.
    #[cfg(unix)]
    Mapped {
        ptr: *mut u8,
        len: usize,
        file: bool,
    },
    /// A heap copy, stored as `u64` words so the base address is 8-byte
    /// aligned (enough for `f64`, the widest [`Scalar`]).
    Heap(Vec<u64>, usize),
}

/// An immutable byte region that outlives every view into it.
///
/// Obtain one with [`SlabMem::map_file`] (zero-copy where the platform
/// supports it) or [`SlabMem::from_bytes`] (heap copy), then carve typed
/// views out of it with [`SlabMem::slice`].
pub struct SlabMem {
    backing: Backing,
}

// SAFETY: the region is read-only once shared — a file mapping is
// PROT_READ/MAP_PRIVATE, and a written slab is filled through
// `scalars_mut` only inside `write_parts`, before `freeze` puts it behind
// the first `Arc` — so shared access from any thread is sound.
unsafe impl Send for SlabMem {}
unsafe impl Sync for SlabMem {}

impl SlabMem {
    /// Copies `bytes` into an 8-byte-aligned heap slab.
    pub fn from_bytes(bytes: &[u8]) -> Arc<SlabMem> {
        let words = bytes.len().div_ceil(8);
        let mut buf = vec![0u64; words];
        // SAFETY: `buf` holds `words * 8 >= bytes.len()` writable bytes.
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), buf.as_mut_ptr() as *mut u8, bytes.len());
        }
        Arc::new(SlabMem {
            backing: Backing::Heap(buf, bytes.len()),
        })
    }

    /// Maps `path` read-only. On Unix this is a private `mmap` — the file's
    /// pages enter memory lazily through the page cache and are never copied
    /// onto the heap. Elsewhere it falls back to [`SlabMem::from_bytes`].
    pub fn map_file(path: &std::path::Path) -> std::io::Result<Arc<SlabMem>> {
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len();
            let len = usize::try_from(len).map_err(|_| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "file too large to map")
            })?;
            if len == 0 {
                return Ok(SlabMem::from_bytes(&[]));
            }
            // SAFETY: a fresh anonymous-address, length-checked, read-only
            // private mapping of an open fd; failure is reported via
            // MAP_FAILED and turned into an io::Error.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr == sys::MAP_FAILED {
                return Err(std::io::Error::last_os_error());
            }
            Ok(Arc::new(SlabMem {
                backing: Backing::Mapped {
                    ptr: ptr as *mut u8,
                    len,
                    file: true,
                },
            }))
        }
        #[cfg(not(unix))]
        {
            Ok(SlabMem::from_bytes(&std::fs::read(path)?))
        }
    }

    /// A zeroed writable slab of `len` bytes, for [`SlabMem::write_parts`]
    /// to fill and [`SlabMem::freeze`]. From one huge page up on Linux it
    /// is a private anonymous mapping advised `MADV_HUGEPAGE` (the kernel
    /// rounds its length to whole 4 KiB pages only, so the resident set
    /// grows by no rounding to 2 MiB). Below one huge page, elsewhere, or
    /// when `mmap` fails it is a zeroed heap buffer.
    fn writable(len: usize) -> SlabMem {
        #[cfg(target_os = "linux")]
        if len >= HUGE_PAGE {
            // SAFETY: a fresh anonymous private mapping of `len` bytes at an
            // address of the kernel's choosing; failure is MAP_FAILED, after
            // which nothing is touched.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ | sys::PROT_WRITE,
                    sys::MAP_PRIVATE | sys::MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            if ptr != sys::MAP_FAILED {
                // SAFETY: advice on the mapping just made; a refusal (no
                // transparent huge pages on this kernel) changes nothing.
                unsafe { sys::madvise(ptr, len, sys::MADV_HUGEPAGE) };
                let ptr = ptr as *mut u8;
                return SlabMem {
                    backing: Backing::Mapped {
                        ptr,
                        len,
                        file: false,
                    },
                };
            }
        }
        SlabMem {
            backing: Backing::Heap(vec![0u64; len.div_ceil(8)], len),
        }
    }

    /// A writable slab as `len / S::BYTES` scalars to fill: only
    /// [`SlabMem::write_parts`] calls it, before [`SlabMem::freeze`].
    fn scalars_mut<S: Scalar>(&mut self) -> &mut [S] {
        let (ptr, len) = match &mut self.backing {
            #[cfg(unix)]
            Backing::Mapped { ptr, len, .. } => (*ptr, *len),
            Backing::Heap(buf, len) => (buf.as_mut_ptr() as *mut u8, *len),
        };
        assert!(std::mem::align_of::<S>() <= 8 && std::mem::size_of::<S>() == S::BYTES);
        // SAFETY: `ptr` is page- or 8-byte aligned (enough for every
        // `Scalar`), valid and zeroed for `len` bytes, and `&mut self`
        // makes this the only access; every bit pattern is a valid `S`.
        unsafe { std::slice::from_raw_parts_mut(ptr as *mut S, len / S::BYTES) }
    }

    /// A filled slab, read-only from here on: a mapping is protected
    /// `PROT_READ` before any view of it exists.
    fn freeze(self) -> Arc<SlabMem> {
        #[cfg(unix)]
        if let Backing::Mapped { ptr, len, .. } = self.backing {
            // SAFETY: `ptr`/`len` are this slab's own live mapping. Should
            // the call fail the pages stay writable, and still nothing
            // writes them: the only `&mut` access ended with the fill.
            unsafe { sys::mprotect(ptr as *mut std::ffi::c_void, len, sys::PROT_READ) };
        }
        Arc::new(self)
    }

    /// One fresh slab holding `lens[k]` scalars per part, each at a
    /// [`SLAB_ALIGN`]-aligned offset and in order: `fill` gets the parts as
    /// disjoint zeroed `&mut [S]` regions, then the slab is frozen and the
    /// parts come back as views of it, in the same order. The padding
    /// between parts stays zero.
    pub fn write_parts<S: Scalar>(
        lens: &[usize],
        fill: impl FnOnce(Vec<&mut [S]>),
    ) -> Vec<SlabSlice<S>> {
        let stride = SLAB_ALIGN / S::BYTES;
        let mut end = 0usize;
        let offsets: Vec<usize> = lens
            .iter()
            .map(|&len| {
                let at = end.next_multiple_of(stride);
                end = at + len;
                at
            })
            .collect();
        let mut slab = SlabMem::writable(end * S::BYTES);
        let mut rest = slab.scalars_mut::<S>();
        let mut parts = Vec::with_capacity(lens.len());
        let mut cut = 0;
        for (&at, &len) in offsets.iter().zip(lens) {
            let (part, tail) = std::mem::take(&mut rest)[at - cut..].split_at_mut(len);
            (rest, cut) = (tail, at + len);
            parts.push(part);
        }
        fill(parts);
        let mem = slab.freeze();
        let view = |(&at, &len): (&usize, &usize)| SlabSlice {
            mem: mem.clone(),
            offset: at * S::BYTES,
            len,
            _marker: std::marker::PhantomData,
        };
        offsets.iter().zip(lens).map(view).collect()
    }

    /// The whole slab as bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.backing {
            // SAFETY: the mapping is valid for `len` bytes until drop.
            #[cfg(unix)]
            Backing::Mapped { ptr, len, .. } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Backing::Heap(buf, len) => {
                // SAFETY: `buf` holds at least `len` initialized bytes.
                unsafe { std::slice::from_raw_parts(buf.as_ptr() as *const u8, *len) }
            }
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { len, .. } => *len,
            Backing::Heap(_, len) => *len,
        }
    }

    /// True when the slab is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the slab is a file mapping (pages owned by the page cache)
    /// rather than this process's memory (a written slab or a heap copy).
    pub fn is_file_mapping(&self) -> bool {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped { file, .. } => *file,
            Backing::Heap(..) => false,
        }
    }

    /// A checked `&[S]` view of `count` scalars starting `offset` bytes in.
    ///
    /// Fails (typed, never panics) when the range escapes the slab, the
    /// start address is misaligned for `S`, or the host is big-endian.
    pub fn slice<S: Scalar>(
        self: &Arc<Self>,
        offset: usize,
        count: usize,
    ) -> Result<SlabSlice<S>, SlabError> {
        if !cfg!(target_endian = "little") {
            return Err(SlabError::BigEndianHost);
        }
        let bytes = count.checked_mul(S::BYTES).ok_or(SlabError::OutOfBounds {
            offset,
            bytes: usize::MAX,
            len: self.len(),
        })?;
        let end = offset.checked_add(bytes).ok_or(SlabError::OutOfBounds {
            offset,
            bytes,
            len: self.len(),
        })?;
        if end > self.len() {
            return Err(SlabError::OutOfBounds {
                offset,
                bytes,
                len: self.len(),
            });
        }
        let base = self.as_bytes().as_ptr() as usize + offset;
        if !base.is_multiple_of(std::mem::align_of::<S>()) {
            return Err(SlabError::Misaligned {
                offset,
                align: std::mem::align_of::<S>(),
            });
        }
        Ok(SlabSlice {
            mem: self.clone(),
            offset,
            len: count,
            _marker: std::marker::PhantomData,
        })
    }
}

impl Drop for SlabMem {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Mapped { ptr, len, .. } = self.backing {
            // SAFETY: `ptr`/`len` came from a successful mmap and are
            // unmapped exactly once, here.
            unsafe {
                sys::munmap(ptr as *mut std::ffi::c_void, len);
            }
        }
    }
}

impl fmt::Debug for SlabMem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlabMem")
            .field("len", &self.len())
            .field("file_mapping", &self.is_file_mapping())
            .finish()
    }
}

/// A shared, immutable `&[S]` view into a [`SlabMem`].
///
/// Holds an `Arc` to the slab, so the backing memory outlives the view;
/// cloning is an `Arc` bump, not a data copy.
pub struct SlabSlice<S: Scalar> {
    mem: Arc<SlabMem>,
    offset: usize,
    len: usize,
    _marker: std::marker::PhantomData<S>,
}

impl<S: Scalar> SlabSlice<S> {
    /// The view as a scalar slice.
    #[inline]
    pub fn as_slice(&self) -> &[S] {
        // SAFETY: construction checked bounds, alignment, and endianness;
        // the backing bytes are immutable and outlive `self` via the Arc.
        unsafe {
            std::slice::from_raw_parts(
                self.mem.as_bytes().as_ptr().add(self.offset) as *const S,
                self.len,
            )
        }
    }

    /// Number of scalars in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when the backing slab is a file mapping (i.e. these scalars are
    /// page-cache pages, not heap).
    pub fn is_file_mapping(&self) -> bool {
        self.mem.is_file_mapping()
    }

    /// The slab the view reads.
    pub fn mem(&self) -> &Arc<SlabMem> {
        &self.mem
    }
}

impl<S: Scalar> Clone for SlabSlice<S> {
    fn clone(&self) -> Self {
        SlabSlice {
            mem: self.mem.clone(),
            offset: self.offset,
            len: self.len,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<S: Scalar> fmt::Debug for SlabSlice<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlabSlice")
            .field("offset", &self.offset)
            .field("len", &self.len)
            .field("file_mapping", &self.is_file_mapping())
            .finish()
    }
}

#[cfg(unix)]
mod sys {
    use std::ffi::c_void;
    use std::os::raw::c_int;

    pub const PROT_READ: c_int = 1;
    #[cfg(target_os = "linux")]
    pub const PROT_WRITE: c_int = 2;
    pub const MAP_PRIVATE: c_int = 2;
    #[cfg(target_os = "linux")]
    pub const MAP_ANONYMOUS: c_int = 0x20;
    #[cfg(target_os = "linux")]
    pub const MADV_HUGEPAGE: c_int = 14;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
        #[cfg(target_os = "linux")]
        pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_slab_round_trips_scalars() {
        let mut bytes = Vec::new();
        for v in [1.5f64, -2.25, 0.0, 1e300] {
            v.write_le(&mut bytes);
        }
        let mem = SlabMem::from_bytes(&bytes);
        assert_eq!(mem.len(), 32);
        assert!(!mem.is_file_mapping());
        let view: SlabSlice<f64> = mem.slice(0, 4).unwrap();
        assert_eq!(view.as_slice(), &[1.5, -2.25, 0.0, 1e300]);
        let tail: SlabSlice<f64> = mem.slice(16, 2).unwrap();
        assert_eq!(tail.as_slice(), &[0.0, 1e300]);
    }

    #[test]
    fn bounds_and_alignment_are_typed_errors() {
        let mem = SlabMem::from_bytes(&[0u8; 16]);
        assert!(matches!(
            mem.slice::<f64>(0, 3),
            Err(SlabError::OutOfBounds { .. })
        ));
        assert!(matches!(
            mem.slice::<f64>(4, 1),
            Err(SlabError::Misaligned { align: 8, .. })
        ));
        // f32 only needs 4-byte alignment, so the same offset is fine.
        assert!(mem.slice::<f32>(4, 3).is_ok());
        assert!(matches!(
            mem.slice::<f64>(usize::MAX, 1),
            Err(SlabError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn file_mapping_reads_in_place() {
        let mut bytes = Vec::new();
        for k in 0..64u32 {
            (k as f32 * 0.5 - 3.0).write_le(&mut bytes);
        }
        let path = std::env::temp_dir().join(format!("h2-slab-test-{}.bin", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let mem = SlabMem::map_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(mem.len(), bytes.len());
        assert!(cfg!(unix) == mem.is_file_mapping());
        let view: SlabSlice<f32> = mem.slice(0, 64).unwrap();
        assert_eq!(view.as_slice()[6], 0.0);
        assert_eq!(view.as_slice()[63], 63.0 * 0.5 - 3.0);
        // The view keeps the mapping alive even after the Arc handle drops.
        let kept = view.clone();
        drop(mem);
        assert_eq!(kept.as_slice().len(), 64);
    }

    /// The parts `write_parts` filled with `k + e / 8` (part `k`, entry
    /// `e`), checked through the views it returns: values, order,
    /// alignment, zero padding, and a backing that is no file mapping.
    fn written<S: Scalar>(lens: &[usize]) -> Vec<SlabSlice<S>> {
        let value = |k: usize, e: usize| S::from_f64(k as f64 + e as f64 / 8.0);
        let views = SlabMem::write_parts::<S>(lens, |parts| {
            assert_eq!(parts.len(), lens.len());
            for (k, part) in parts.into_iter().enumerate() {
                assert!(part.iter().all(|&v| v == S::ZERO), "zeroed");
                part.iter_mut()
                    .enumerate()
                    .for_each(|(e, v)| *v = value(k, e));
            }
        });
        let mem = views[0].mem().clone();
        assert!(!mem.is_file_mapping());
        let mut payload = vec![false; mem.len()];
        for (k, view) in views.iter().enumerate() {
            assert!(Arc::ptr_eq(view.mem(), &mem), "one slab");
            assert_eq!(view.offset % SLAB_ALIGN, 0);
            assert_eq!(view.len(), lens[k]);
            assert!(view
                .as_slice()
                .iter()
                .enumerate()
                .all(|(e, &v)| v == value(k, e)));
            payload[view.offset..view.offset + view.len() * S::BYTES].fill(true);
        }
        let padding = mem.as_bytes().iter().zip(&payload).filter(|(_, &p)| !p);
        assert!(padding.into_iter().all(|(&b, _)| b == 0), "zero padding");
        views
    }

    #[test]
    fn written_parts_are_aligned_views_of_one_read_only_slab() {
        written::<f64>(&[3, 0, 17, 1, 8]);
        written::<f32>(&[1, 15, 16, 17, 0]);
        written::<f64>(&[0]);
        // Past one huge page: an anonymous mapping on Linux, whose views
        // outlive every other handle.
        let big = written::<f64>(&[300_000, 5, 40_000]);
        let last = big[2].clone();
        drop(big);
        assert_eq!(last.as_slice()[39_999], 2.0 + 39_999.0 / 8.0);
        assert!(SlabMem::write_parts::<f32>(&[], |parts| assert!(parts.is_empty())).is_empty());
    }

    #[test]
    fn empty_inputs_are_fine() {
        let mem = SlabMem::from_bytes(&[]);
        assert!(mem.is_empty());
        let view: SlabSlice<f64> = mem.slice(0, 0).unwrap();
        assert!(view.is_empty());
        assert_eq!(view.as_slice(), &[] as &[f64]);
    }
}
