//! Coupling and nearfield block stores.
//!
//! The paper (§III-A) stores coupling matrices in "a sparse matrix of
//! integers and a sequence of dense matrices" behind a matrix-free
//! interface that works identically in normal and on-the-fly modes. This
//! module is that structure: [`BlockIndex`] is the sparse integer map from
//! a node pair to a slot, and one [`BlockStore`] per pair list (aliased
//! [`CouplingStore`] / [`NearfieldStore`]) holds the dense blocks in normal
//! mode or nothing at all in on-the-fly mode.
//! Only the `i <= j` half is stored for symmetric kernels
//! (`B_{j,i} = B_{i,j}ᵀ`), exactly as the paper notes.
//!
//! (The stores live beside the budgeted [`super::BlockCache`], which shares
//! their `(i, j)`-canonical key convention.)

use h2_linalg::{MatrixS, Scalar};
use h2_points::NodeId;
use std::collections::HashMap;

/// Sparse pair → slot index ("sparse matrix of integers"). Pairs are stored
/// with `i <= j`.
#[derive(Clone, Debug, Default)]
pub struct BlockIndex {
    map: HashMap<(NodeId, NodeId), u32>,
}

impl BlockIndex {
    /// Builds the index from an ordered pair list (`i <= j` each).
    pub fn new(pairs: &[(NodeId, NodeId)]) -> Self {
        let mut map = HashMap::with_capacity(pairs.len());
        for (slot, &(i, j)) in pairs.iter().enumerate() {
            debug_assert!(i <= j);
            map.insert((i, j), slot as u32);
        }
        BlockIndex { map }
    }

    /// Looks up the slot for the *ordered* pair `(i, j)`; also reports
    /// whether the stored block must be applied transposed (`i > j`).
    pub fn slot(&self, i: NodeId, j: NodeId) -> Option<(usize, bool)> {
        if i <= j {
            self.map.get(&(i, j)).map(|&s| (s as usize, false))
        } else {
            self.map.get(&(j, i)).map(|&s| (s as usize, true))
        }
    }

    /// Number of indexed pairs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no pairs are indexed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate heap bytes (for memory accounting).
    ///
    /// `std::collections::HashMap` (hashbrown) allocates a power-of-two
    /// bucket table sized so the load factor stays ≤ 7/8; each bucket holds
    /// one `(key, value)` entry (padded to the entry's alignment) plus one
    /// control byte. `capacity()` reports `buckets * 7/8`, so the bucket
    /// count is recovered as the next power of two of `capacity * 8/7`.
    pub fn bytes(&self) -> usize {
        let cap = self.map.capacity();
        if cap == 0 {
            return 0;
        }
        let entry = std::mem::size_of::<((NodeId, NodeId), u32)>();
        let buckets = (cap * 8 / 7).max(1).next_power_of_two();
        buckets * (entry + 1)
    }
}

/// Dense blocks of one pair list — coupling (farfield) pairs or nearfield
/// leaf pairs; [`super::BlockKind`] tells the two apart wherever both are
/// in play. `None` blocks = on-the-fly.
///
/// Generic over the storage scalar `S`; the sweeps apply the borrowed
/// blocks to vectors of an independent accumulator scalar `A`, so an `f32`
/// store feeds an `f64` sweep (mixed-precision mode) without copies.
#[derive(Clone, Debug)]
pub struct BlockStore<S: Scalar = f64> {
    index: BlockIndex,
    blocks: Option<Vec<MatrixS<S>>>,
}

/// The [`BlockStore`] over an operator's interaction pairs.
pub type CouplingStore<S = f64> = BlockStore<S>;
/// The [`BlockStore`] over an operator's nearfield pairs.
pub type NearfieldStore<S = f64> = BlockStore<S>;

impl<S: Scalar> BlockStore<S> {
    /// On-the-fly store: index only, no dense blocks.
    pub fn on_the_fly(pairs: &[(NodeId, NodeId)]) -> Self {
        BlockStore {
            index: BlockIndex::new(pairs),
            blocks: None,
        }
    }

    /// Normal store: dense blocks aligned with `pairs`.
    pub fn normal(pairs: &[(NodeId, NodeId)], blocks: Vec<MatrixS<S>>) -> Self {
        assert_eq!(pairs.len(), blocks.len());
        BlockStore {
            index: BlockIndex::new(pairs),
            blocks: Some(blocks),
        }
    }

    /// True when blocks are materialized.
    pub fn is_materialized(&self) -> bool {
        self.blocks.is_some()
    }

    /// The stored block of the *ordered* pair `(i, j)`; `transposed` reports
    /// whether it is `B_{j,i}` that is stored.
    pub fn block(&self, i: NodeId, j: NodeId) -> Option<(&MatrixS<S>, bool)> {
        let blocks = self.blocks.as_ref()?;
        let (slot, t) = self.index.slot(i, j)?;
        Some((&blocks[slot], t))
    }

    /// The materialized blocks in pair-list order (`None` when on-the-fly) —
    /// the persistence codec serializes these directly.
    pub fn blocks(&self) -> Option<&[MatrixS<S>]> {
        self.blocks.as_deref()
    }

    /// Moves a materialized store onto the pair list `pairs` (`i <= j` each)
    /// — the incremental update path, whose lists change when a leaf splits
    /// or a grown box flips admissibility. `fresh` holds the regenerated
    /// blocks, keyed by pair, as a subsequence of `pairs` in order; every
    /// other pair keeps the block it had (moved, not copied) and must have
    /// had one. Panics on an on-the-fly store.
    pub fn relist(
        &mut self,
        pairs: &[(NodeId, NodeId)],
        fresh: impl IntoIterator<Item = ((NodeId, NodeId), MatrixS<S>)>,
    ) {
        let old = self
            .blocks
            .as_mut()
            .expect("relist requires a materialized store");
        let old_index = std::mem::replace(&mut self.index, BlockIndex::new(pairs));
        let mut fresh = fresh.into_iter().peekable();
        let blocks = pairs
            .iter()
            .map(|&(i, j)| match fresh.next_if(|(pair, _)| *pair == (i, j)) {
                Some((_, block)) => block,
                None => {
                    let (slot, _) = old_index
                        .slot(i, j)
                        .unwrap_or_else(|| panic!("block ({i}, {j}) neither kept nor fresh"));
                    std::mem::replace(&mut old[slot], MatrixS::zeros(0, 0))
                }
            })
            .collect();
        *old = blocks;
        assert!(
            fresh.next().is_none(),
            "fresh blocks must follow the pair-list order"
        );
    }

    /// Total *heap* bytes of dense blocks. Slab-backed (mmap) blocks report
    /// 0 here; see [`BlockStore::mapped_bytes`].
    pub fn blocks_bytes(&self) -> usize {
        self.blocks
            .as_ref()
            .map(|bs| bs.iter().map(|b| b.bytes()).sum())
            .unwrap_or(0)
    }

    /// Total bytes of slab-backed (mmap) blocks — the pages the OS page
    /// cache owns on behalf of this store. 0 for owned or on-the-fly
    /// stores.
    pub fn mapped_bytes(&self) -> usize {
        self.blocks
            .as_ref()
            .map(|bs| bs.iter().map(|b| b.mapped_bytes()).sum())
            .unwrap_or(0)
    }

    /// Bytes of the sparse index.
    pub fn index_bytes(&self) -> usize {
        self.index.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use h2_linalg::Matrix;

    fn mat(rows: usize, cols: usize, scale: f64) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| scale * (i as f64 + 2.0 * j as f64 + 1.0))
    }

    #[test]
    fn index_lookup_and_transpose_flag() {
        let idx = BlockIndex::new(&[(1, 5), (2, 2), (3, 7)]);
        assert_eq!(idx.slot(1, 5), Some((0, false)));
        assert_eq!(idx.slot(5, 1), Some((0, true)));
        assert_eq!(idx.slot(2, 2), Some((1, false)));
        assert_eq!(idx.slot(4, 4), None);
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn stores_serve_blocks_in_either_orientation_or_nothing_on_the_fly() {
        let b = mat(3, 2, 1.0);
        let store = CouplingStore::normal(&[(0, 1)], vec![b.clone()]);
        assert_eq!(store.block(0, 1), Some((&b, false)));
        assert_eq!(store.block(1, 0), Some((&b, true)));
        assert_eq!(store.block(0, 2), None);
        assert_eq!(store.blocks().unwrap(), &[b]);

        let near = NearfieldStore::normal(&[(3, 3)], vec![mat(2, 2, 0.5)]);
        assert_eq!(near.block(3, 3), Some((&mat(2, 2, 0.5), false)));
        assert!(near.blocks_bytes() > 0);

        let otf: CouplingStore = CouplingStore::on_the_fly(&[(0, 1)]);
        assert!(!otf.is_materialized());
        assert!(otf.block(0, 1).is_none() && otf.blocks().is_none());
        assert_eq!(otf.blocks_bytes(), 0);
    }

    #[test]
    fn index_bytes_tracks_hashmap_layout() {
        assert_eq!(BlockIndex::new(&[]).bytes(), 0);
        let entry = std::mem::size_of::<((NodeId, NodeId), u32)>();
        for npairs in [1usize, 7, 100, 513, 4000] {
            let pairs: Vec<(NodeId, NodeId)> = (0..npairs).map(|k| (k, k + 1)).collect();
            let idx = BlockIndex::new(&pairs);
            let cap = idx.map.capacity();
            assert!(cap >= npairs);
            let b = idx.bytes();
            // The estimate must cover the entries actually storable and stay
            // within 2x of capacity x entry_size (no wild over/undercount).
            assert!(b >= cap * entry, "{npairs} pairs: {b} < {}", cap * entry);
            assert!(
                b <= 2 * cap * entry,
                "{npairs} pairs: {b} > {}",
                2 * cap * entry
            );
        }
    }

    #[test]
    fn relist_keeps_clean_blocks_and_places_fresh_ones() {
        let mut store =
            CouplingStore::normal(&[(0, 1), (0, 2)], vec![mat(3, 2, 1.0), mat(2, 2, 1.0)]);
        // Same list, one block regenerated: the other slot is untouched and
        // transposed lookups see the replacement too.
        store.relist(&[(0, 1), (0, 2)], [((0, 1), mat(4, 5, 2.0))]);
        assert_eq!(store.block(1, 0), Some((&mat(4, 5, 2.0), true)));
        assert_eq!(store.block(0, 2), Some((&mat(2, 2, 1.0), false)));
        // New list: (0, 1) vanishes, (0, 2) is kept, (1, 3) and (2, 2) are new.
        store.relist(
            &[(0, 2), (1, 3), (2, 2)],
            [((1, 3), mat(1, 1, 3.0)), ((2, 2), mat(2, 2, 4.0))],
        );
        assert_eq!(store.block(0, 1), None);
        assert_eq!(
            store.blocks().unwrap(),
            &[mat(2, 2, 1.0), mat(1, 1, 3.0), mat(2, 2, 4.0)]
        );
        assert_eq!(
            store.index_bytes(),
            BlockIndex::new(&[(0, 2), (1, 3), (2, 2)]).bytes()
        );
    }

    #[test]
    #[should_panic(expected = "neither kept nor fresh")]
    fn relist_rejects_a_pair_without_a_block() {
        let mut store = NearfieldStore::normal(&[(0, 1)], vec![mat(2, 2, 1.0)]);
        store.relist(&[(0, 1), (1, 1)], []);
    }
}
