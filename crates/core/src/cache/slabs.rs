//! [`BlockSlabs`]: borrowed (slab-backed) storage for dense block lists.
//!
//! The serving codec's v4 format lays each matrix family (bases, transfers,
//! coupling blocks, nearfield blocks) out as one 64-byte-aligned
//! little-endian slab inside the operator file. After `mmap`ing the file,
//! this type turns a family's directory — shapes plus offsets into the
//! slab — into `Vec<MatrixS<S>>` *views*: matrices whose buffers borrow the
//! mapped pages instead of owning heap copies (see
//! [`MatrixS::from_slab`]). Those views fill the slots of the operator's
//! [`super::BlockTable`] and the H² sweeps read them unchanged, which is
//! what makes the mmap path bitwise-identical to the owned decode: it is
//! literally the same apply code over the same bytes.
//!
//! Construction is fully checked (bounds, element alignment, little-endian
//! host) and returns a typed [`SlabError`] — never panics — so a hostile
//! or truncated file fails closed at load time.

use h2_linalg::{MatrixS, Scalar, SlabError, SlabMem};
use std::sync::Arc;

/// Shape and position of one matrix inside a slab.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlabBlock {
    /// Rows of the matrix.
    pub nrows: usize,
    /// Columns of the matrix.
    pub ncols: usize,
    /// Byte offset of the column-major payload, relative to the slab base.
    pub offset: usize,
}

/// A family of dense matrices backed by one shared read-only slab.
pub struct BlockSlabs<S: Scalar> {
    mem: Arc<SlabMem>,
    base: usize,
    entries: Vec<SlabBlock>,
    _marker: std::marker::PhantomData<S>,
}

impl<S: Scalar> BlockSlabs<S> {
    /// Wraps `entries` over `mem`, with every entry offset interpreted
    /// relative to `base` (the slab's byte offset inside `mem`). Validates
    /// each entry eagerly so later [`BlockSlabs::views`] calls cannot fail
    /// half-way through.
    pub fn new(mem: Arc<SlabMem>, base: usize, entries: Vec<SlabBlock>) -> Result<Self, SlabError> {
        for e in &entries {
            let off = base.checked_add(e.offset).ok_or(SlabError::OutOfBounds {
                offset: e.offset,
                bytes: 0,
                len: mem.len(),
            })?;
            mem.slice::<S>(off, e.nrows * e.ncols)?;
        }
        Ok(BlockSlabs {
            mem,
            base,
            entries,
            _marker: std::marker::PhantomData,
        })
    }

    /// Number of matrices in the family.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the family is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `k`-th matrix as a zero-copy view.
    pub fn view(&self, k: usize) -> MatrixS<S> {
        let e = self.entries[k];
        let slice = self
            .mem
            .slice::<S>(self.base + e.offset, e.nrows * e.ncols)
            .expect("validated by BlockSlabs::new");
        MatrixS::from_slab(e.nrows, e.ncols, slice)
    }

    /// All matrices, in entry order, as zero-copy views. This is what the
    /// block table and generator lists are built from on the mmap path.
    pub fn views(&self) -> Vec<MatrixS<S>> {
        (0..self.entries.len()).map(|k| self.view(k)).collect()
    }

    /// Total scalar payload bytes referenced by the family (mapped, not
    /// heap).
    pub fn mapped_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|e| e.nrows * e.ncols * S::BYTES)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_read_the_slab_in_place() {
        // Two matrices packed into one slab: a 2x2 then, 64-aligned, a 1x3.
        let mut bytes = vec![0u8; 64 + 24];
        let a = [1.0f64, 2.0, 3.0, 4.0];
        let b = [-1.0f64, 0.5, 8.0];
        for (k, v) in a.iter().enumerate() {
            bytes[k * 8..k * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
        for (k, v) in b.iter().enumerate() {
            bytes[64 + k * 8..64 + k * 8 + 8].copy_from_slice(&v.to_le_bytes());
        }
        let mem = SlabMem::from_bytes(&bytes);
        let fam: BlockSlabs<f64> = BlockSlabs::new(
            mem,
            0,
            vec![
                SlabBlock {
                    nrows: 2,
                    ncols: 2,
                    offset: 0,
                },
                SlabBlock {
                    nrows: 1,
                    ncols: 3,
                    offset: 64,
                },
            ],
        )
        .unwrap();
        assert_eq!(fam.len(), 2);
        assert_eq!(fam.mapped_bytes(), 4 * 8 + 3 * 8);
        let vs = fam.views();
        assert!(vs.iter().all(|m| m.is_mapped()));
        assert_eq!(vs[0].as_slice(), &a);
        assert_eq!(vs[1].as_slice(), &b);
        assert_eq!(vs[0].matvec(&[1.0, 1.0]), vec![4.0, 6.0]);
    }

    #[test]
    fn hostile_directory_entries_fail_closed() {
        let mem = SlabMem::from_bytes(&[0u8; 32]);
        // Escapes the slab.
        assert!(BlockSlabs::<f64>::new(
            mem.clone(),
            0,
            vec![SlabBlock {
                nrows: 3,
                ncols: 3,
                offset: 0
            }],
        )
        .is_err());
        // Misaligned offset.
        assert!(BlockSlabs::<f64>::new(
            mem.clone(),
            0,
            vec![SlabBlock {
                nrows: 1,
                ncols: 1,
                offset: 3
            }],
        )
        .is_err());
        // Offset overflow.
        assert!(BlockSlabs::<f64>::new(
            mem,
            usize::MAX,
            vec![SlabBlock {
                nrows: 1,
                ncols: 1,
                offset: usize::MAX
            }],
        )
        .is_err());
    }
}
