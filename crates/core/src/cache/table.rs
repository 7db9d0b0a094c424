//! The block table (paper §III-A: "a sparse matrix of integers and a
//! sequence of dense matrices"). Per family, a [`BlockIndex`] maps a listed
//! pair (`i <= j`; `B_{j,i} = B_{i,j}ᵀ`) to its slot, and one slot per
//! listed pair, aligned with the pair list, is empty or holds a block and
//! the epoch it was generated at.
//!
//! How many slots are filled is the one axis between the memory modes
//! (§II-B): normal mode holds every listed pair, on-the-fly mode the first
//! fit of a byte budget (0 by default) in sweep order
//! ([`crate::SweepPlan::block_schedule`]), continuing past blocks that do
//! not fit. A block costs `rows · cols` evaluations to regenerate and
//! `rows · cols · S::BYTES` to hold, so every set that fills the budget
//! saves the same evaluations to within one block. `BlockTable::successor`
//! chooses the set at construction, at a new budget and at every update;
//! products only read it. An update installs a successor, so whoever holds
//! the old table (an in-flight sweep, a clone of the operator) keeps the
//! blocks it started with.

use h2_linalg::{MatrixS, Scalar};
use h2_points::NodeId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which block family a pair addresses (coupling `B_{i,j}` over proxy
/// points vs. dense nearfield `K(X_i, X_j)`); the two share one budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BlockKind {
    /// Farfield coupling block over the pair's proxy points.
    Coupling,
    /// Dense nearfield block over the pair's leaf points.
    Nearfield,
}

/// The two families' pair lists (`i <= j` each), coupling first.
pub type Pairs<'a> = [&'a [(NodeId, NodeId)]; 2];

/// Sparse pair → slot index ("sparse matrix of integers").
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

    /// The slot of the *ordered* pair `(i, j)`, and whether the listed
    /// block applies transposed (`i > j`).
    pub fn slot(&self, i: NodeId, j: NodeId) -> Option<(usize, bool)> {
        let (pair, t) = if i <= j {
            ((i, j), false)
        } else {
            ((j, i), true)
        };
        self.map.get(&pair).map(|&s| (s as usize, t))
    }

    /// Heap bytes, from hashbrown's layout: a power-of-two bucket table at
    /// load factor ≤ 7/8 (`capacity()` is `buckets * 7/8`), one entry and
    /// one control byte per bucket.
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

/// A held block and the **epoch** it was generated at: the max of its two
/// nodes' update epochs then. A read names the pair's current epoch and a
/// block at another one is a miss, so a block that outlived an update of
/// either node is never served.
type Held<S> = (u64, Arc<MatrixS<S>>);

/// One family: its index and its slots, empty while nothing is held.
struct Family<S: Scalar> {
    index: BlockIndex,
    slots: Vec<Option<Held<S>>>,
}

impl<S: Scalar> Family<S> {
    fn slot(&self, slot: usize) -> Option<&Held<S>> {
        self.slots.get(slot)?.as_ref()
    }

    fn hold(&mut self, slot: usize, held: Held<S>) {
        let listed = self.index.map.len();
        if self.slots.len() < listed {
            self.slots.resize_with(listed, || None);
        }
        self.slots[slot] = Some(held);
    }

    fn held(&self) -> impl Iterator<Item = &MatrixS<S>> {
        self.slots.iter().flatten().map(|(_, block)| &**block)
    }
}

/// Counter/occupancy snapshot of one [`BlockTable`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Reads served from a held block.
    pub hits: u64,
    /// Reads that had to materialize the block.
    pub misses: u64,
    /// Always 0: nothing is evicted. Kept because `h2bench` reads it.
    pub evicted_bytes: u64,
    /// Held blocks that successor plans did not carry.
    pub stale_purged: u64,
    /// Blocks held.
    pub entries: usize,
    /// Heap bytes held (always ≤ `budget_bytes`).
    pub resident_bytes: usize,
    /// The byte budget.
    pub budget_bytes: usize,
}

impl CacheStats {
    /// Hit fraction of all reads (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The listed pairs of one operator and the blocks it holds.
pub struct BlockTable<S: Scalar> {
    /// `None`: every listed block, empty ones included (normal mode).
    /// `Some(bytes)`: the first fit of a byte budget (on the fly).
    budget: Option<usize>,
    families: [Family<S>; 2],
    hits: AtomicU64,
    misses: AtomicU64,
    stale_purged: AtomicU64,
}

impl<S: Scalar> BlockTable<S> {
    /// A table over `pairs` that holds nothing yet.
    pub(crate) fn listed(pairs: Pairs<'_>, budget: Option<usize>) -> Self {
        let family = |pairs| Family {
            index: BlockIndex::new(pairs),
            slots: Vec::new(),
        };
        BlockTable {
            budget,
            families: pairs.map(family),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale_purged: AtomicU64::new(0),
        }
    }

    /// The table that holds every listed block: `blocks[kind]` aligned with
    /// `pairs[kind]`, generated at `epoch`.
    pub(crate) fn stored(pairs: Pairs<'_>, blocks: [Vec<MatrixS<S>>; 2], epoch: u64) -> Self {
        let mut table = BlockTable::listed(pairs, None);
        for (family, blocks) in table.families.iter_mut().zip(blocks) {
            assert_eq!(family.index.map.len(), blocks.len(), "one block per pair");
            family.slots = blocks
                .into_iter()
                .map(|b| Some((epoch, Arc::new(b))))
                .collect();
        }
        table
    }

    /// The table that holds `budget` on the lists `pairs`, this one's
    /// counters carried on. `schedule` yields `(kind, i, j, bytes)` in
    /// sweep order, either orientation of a listed pair; `Some(bytes)`
    /// takes the first fit, each pair once and empty blocks never, `None`
    /// every scheduled pair. A block of `self` taken at its current
    /// `epoch(i, j)` is shared, the other taken blocks are made by one call
    /// of `generate`, in the order given; every block of `self` left behind
    /// counts as `stale_purged`. `self` is not changed.
    pub(crate) fn successor(
        &self,
        pairs: Pairs<'_>,
        budget: Option<usize>,
        schedule: impl IntoIterator<Item = (BlockKind, NodeId, NodeId, usize)>,
        epoch: impl Fn(NodeId, NodeId) -> u64,
        generate: impl FnOnce(&[(BlockKind, NodeId, NodeId)]) -> Vec<MatrixS<S>>,
    ) -> BlockTable<S> {
        let mut next = BlockTable::listed(pairs, budget);
        let mut taken = pairs.map(|p| vec![false; p.len()]);
        let (mut acc, mut kept, mut fresh) = (0, 0, Vec::new());
        for (kind, i, j, bytes) in schedule {
            let (i, j, k) = (i.min(j), i.max(j), kind as usize);
            let family = &mut next.families[k];
            let (slot, _) = family.index.slot(i, j).expect("a scheduled pair is listed");
            if taken[k][slot] || !budget.is_none_or(|b| bytes > 0 && acc + bytes <= b) {
                continue;
            }
            (taken[k][slot], acc) = (true, acc + bytes);
            match self.get(kind, i, j) {
                Some((at, block)) if *at == epoch(i, j) => {
                    kept += 1;
                    family.hold(slot, (*at, block.clone()));
                }
                _ => fresh.push((kind, i, j)),
            }
        }
        for (&(kind, i, j), block) in fresh.iter().zip(generate(&fresh)) {
            let family = &mut next.families[kind as usize];
            let (slot, _) = family.index.slot(i, j).expect("listed above");
            family.hold(slot, (epoch(i, j), Arc::new(block)));
        }
        let left_behind = (self.held().count() - kept) as u64;
        next.hits = AtomicU64::new(self.hits.load(Ordering::Relaxed));
        next.misses = AtomicU64::new(self.misses.load(Ordering::Relaxed));
        next.stale_purged = AtomicU64::new(self.stale_purged.load(Ordering::Relaxed) + left_behind);
        next
    }

    /// Lists the canonical pair `(i, j)` if it is not, and holds `block`
    /// there at `epoch` if the slot is empty and the block fits what is
    /// left of the budget.
    pub(crate) fn hold(
        &mut self,
        kind: BlockKind,
        (i, j): (NodeId, NodeId),
        epoch: u64,
        block: Arc<MatrixS<S>>,
    ) -> bool {
        assert!(i <= j, "listed pairs are canonical (i <= j)");
        let (bytes, resident) = (block.bytes(), self.resident_bytes());
        let fits = self
            .budget
            .is_none_or(|b| bytes > 0 && resident + bytes <= b);
        let family = &mut self.families[kind as usize];
        let next = family.index.map.len() as u32;
        let slot = *family.index.map.entry((i, j)).or_insert(next) as usize;
        let empty = family.slot(slot).is_none();
        if fits && empty {
            family.hold(slot, (epoch, block));
        }
        fits && empty
    }

    fn get(&self, kind: BlockKind, i: NodeId, j: NodeId) -> Option<&Held<S>> {
        let family = &self.families[kind as usize];
        family.slot(family.index.slot(i, j)?.0)
    }

    /// The block at list position `slot` of `kind` if it was generated at
    /// `epoch`: the sweeps' read, counted by the reader.
    pub(crate) fn block(&self, kind: BlockKind, slot: usize, epoch: u64) -> Option<&MatrixS<S>> {
        let (at, block) = self.families[kind as usize].slot(slot)?;
        (*at == epoch).then_some(block)
    }

    /// The block held for the canonical pair `(i, j)` at `epoch`, counted
    /// as a hit, or `None`, counted as a miss.
    pub fn get_at(
        &self,
        kind: BlockKind,
        i: NodeId,
        j: NodeId,
        epoch: u64,
    ) -> Option<Arc<MatrixS<S>>> {
        assert!(i <= j, "listed pairs are canonical (i <= j)");
        let held = self.get(kind, i, j).filter(|(at, _)| *at == epoch);
        self.count(held.is_some() as u64, held.is_none() as u64);
        held.map(|(_, block)| block.clone())
    }

    /// Adds hits and misses to the counters.
    pub(crate) fn count(&self, hits: u64, misses: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Every block of `kind` in list order when the table holds every
    /// listed block (normal mode): what an operator file stores.
    pub fn stored_blocks(&self, kind: BlockKind) -> Option<Vec<&MatrixS<S>>> {
        let family = &self.families[kind as usize];
        self.budget.is_none().then(|| family.held().collect())
    }

    /// The pair index of `kind`.
    pub fn pair_index(&self, kind: BlockKind) -> &BlockIndex {
        &self.families[kind as usize].index
    }

    fn held(&self) -> impl Iterator<Item = &MatrixS<S>> {
        self.families.iter().flat_map(Family::held)
    }

    /// `None` when every listed block is held, else the byte budget.
    pub(crate) fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// The byte budget; the bytes held when every listed block is.
    pub fn budget_bytes(&self) -> usize {
        self.budget.unwrap_or_else(|| self.resident_bytes())
    }

    /// Heap bytes held (≤ [`Self::budget_bytes`]; mapped blocks count 0).
    pub fn resident_bytes(&self) -> usize {
        self.held().map(MatrixS::bytes).sum()
    }

    /// Bytes of held blocks backed by a mapped operator file.
    pub fn mapped_bytes(&self) -> usize {
        self.held().map(MatrixS::mapped_bytes).sum()
    }

    /// Bytes of both pair indices.
    pub fn index_bytes(&self) -> usize {
        self.families.iter().map(|f| f.index.bytes()).sum()
    }

    /// Every held key `(kind, i, j, epoch)`, ascending: two tables hold the
    /// same blocks when their keys are equal.
    pub fn keys(&self) -> Vec<(BlockKind, NodeId, NodeId, u64)> {
        let kinds = [BlockKind::Coupling, BlockKind::Nearfield];
        let mut keys: Vec<_> = (kinds.iter().zip(&self.families))
            .flat_map(|(&kind, family)| {
                let key = move |(&(i, j), &slot): (&(NodeId, NodeId), &u32)| {
                    family.slot(slot as usize).map(|&(at, _)| (kind, i, j, at))
                };
                family.index.map.iter().filter_map(key)
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Snapshot of counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evicted_bytes: 0,
            stale_purged: self.stale_purged.load(Ordering::Relaxed),
            entries: self.held().count(),
            resident_bytes: self.resident_bytes(),
            budget_bytes: self.budget_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_linalg::Matrix;
    use std::sync::{Barrier, Mutex};

    use BlockKind::{Coupling, Nearfield};

    /// The block of pair `(i, j)` as generated at `epoch`.
    fn block_at(i: NodeId, j: NodeId, epoch: u64) -> Matrix {
        Matrix::from_fn(4, 4, |r, c| {
            (i * 31 + j * 7) as f64 + r as f64 * 0.5 - c as f64 * 0.25 + epoch as f64 * 1000.0
        })
    }

    fn block(i: NodeId, j: NodeId) -> Arc<Matrix> {
        Arc::new(block_at(i, j, 0))
    }

    const B44: usize = 4 * 4 * 8; // bytes of a 4x4 f64 block

    fn budgeted(bytes: usize) -> BlockTable<f64> {
        BlockTable::listed([&[], &[]], Some(bytes))
    }

    /// The successor of `table` over `pairs` and `schedule`, every pair at
    /// epoch `epoch(i, j)`, generating what it does not carry.
    fn plan(
        table: &BlockTable<f64>,
        pairs: Pairs<'_>,
        schedule: impl IntoIterator<Item = (BlockKind, NodeId, NodeId, usize)>,
        epoch: impl Fn(NodeId, NodeId) -> u64 + Copy,
    ) -> BlockTable<f64> {
        let budget = table.budget();
        table.successor(pairs, budget, schedule, epoch, |fresh| {
            let at = |&(_, i, j): &(BlockKind, NodeId, NodeId)| block_at(i, j, epoch(i, j));
            fresh.iter().map(at).collect()
        })
    }

    #[test]
    fn index_lookup_and_transpose_flag() {
        let idx = BlockIndex::new(&[(1, 5), (2, 2), (3, 7)]);
        assert_eq!(idx.slot(1, 5), Some((0, false)));
        assert_eq!(idx.slot(5, 1), Some((0, true)));
        assert_eq!(idx.slot(2, 2), Some((1, false)));
        assert_eq!(idx.slot(4, 4), None);
        assert_eq!(idx.map.len(), 3);
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
    fn hit_after_hold_miss_without_and_stats() {
        let mut table = budgeted(10 * B44);
        assert!(table.hold(Coupling, (0, 1), 0, block(0, 1)));
        let a = table.get_at(Coupling, 0, 1, 0).unwrap();
        let b = table.get_at(Coupling, 0, 1, 0).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.as_slice(), block(0, 1).as_slice());
        // A miss keeps nothing: it misses again.
        assert!(table.get_at(Coupling, 0, 2, 0).is_none());
        assert!(table.get_at(Coupling, 0, 2, 0).is_none());
        let s = table.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 2, 1));
        assert_eq!((s.resident_bytes, s.evicted_bytes), (B44, 0));
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
        // A second hold of a held pair fails.
        assert!(!table.hold(Coupling, (0, 1), 0, block(0, 1)));
    }

    #[test]
    fn oversized_and_empty_blocks_are_never_held_under_a_budget() {
        let mut table = budgeted(B44 + B44 / 2);
        assert!(!table.hold(Nearfield, (2, 3), 0, Arc::new(Matrix::zeros(0, 5))));
        assert!(!table.hold(Coupling, (1, 2), 0, Arc::new(Matrix::zeros(8, 4))));
        assert!(table.hold(Coupling, (1, 2), 0, block(1, 2)));
        // What remains of the budget is smaller than the next block.
        assert!(!table.hold(Coupling, (1, 3), 0, block(1, 3)));
        assert!(table.get_at(Coupling, 2, 3, 0).is_none());
        assert_eq!(table.keys(), vec![(Coupling, 1, 2, 0)]);
        assert_eq!(table.resident_bytes(), B44);
    }

    #[test]
    fn first_fit_in_schedule_order_with_dedup() {
        let coupling = [(0, 1), (0, 2), (0, 3), (0, 4)];
        let nearfield = [(0, 0), (0, 1)];
        let schedule = [
            (Coupling, 0, 1, B44),
            (Coupling, 1, 0, B44),     // duplicate of (0, 1)
            (Nearfield, 0, 0, 0),      // empty: skipped
            (Coupling, 0, 2, 4 * B44), // too big for what remains
            (Nearfield, 0, 1, B44),    // distinct kind, same pair
            (Coupling, 0, 3, B44),     // fills the budget
            (Coupling, 0, 4, B44),     // budget exhausted
        ];
        let table = plan(
            &budgeted(3 * B44),
            [&coupling, &nearfield],
            schedule,
            |_, _| 0,
        );
        assert_eq!(
            table.keys(),
            vec![
                (Coupling, 0, 1, 0),
                (Coupling, 0, 3, 0),
                (Nearfield, 0, 1, 0)
            ]
        );
        // Without a budget every scheduled pair is held, the empty one too.
        let every = BlockTable::listed([&[], &[]], None);
        let all = plan(&every, [&coupling, &nearfield], schedule, |_, _| 0);
        assert_eq!(all.keys().len(), coupling.len() + nearfield.len());
        assert_eq!(all.stored_blocks(Coupling).map(|b| b.len()), Some(4));
        assert!(table.stored_blocks(Coupling).is_none());
    }

    #[test]
    fn transposed_requests_share_one_entry() {
        let mut table = budgeted(10 * B44);
        assert!(table.hold(Coupling, (3, 7), 0, block(3, 7)));
        // A schedule may name the pair in either orientation.
        let next = table.successor(
            [&[(3, 7)], &[]],
            Some(10 * B44),
            [(Coupling, 7, 3, B44)],
            |_, _| 0,
            |fresh| {
                assert!(fresh.is_empty(), "(7, 3) is the held (3, 7)");
                Vec::new()
            },
        );
        assert_eq!(next.keys(), vec![(Coupling, 3, 7, 0)]);
        let (old, new) = (
            table.get_at(Coupling, 3, 7, 0).unwrap(),
            next.get_at(Coupling, 3, 7, 0).unwrap(),
        );
        assert!(Arc::ptr_eq(&old, &new), "carried over, not copied");
    }

    #[test]
    fn epochs_partition_one_pair() {
        let mut table = budgeted(10 * B44);
        assert!(table.hold(Coupling, (0, 1), 0, block(0, 1)));
        // A bumped epoch misses — a stale block can never be served — and
        // the held block stays as it is.
        assert!(table.get_at(Coupling, 0, 1, 1).is_none());
        assert!(table.block(Coupling, 0, 1).is_none());
        let newer = Arc::new(block_at(0, 1, 1));
        assert!(!table.hold(Coupling, (0, 1), 1, newer));
        assert_eq!(table.keys(), vec![(Coupling, 0, 1, 0)]);
        // Its own epoch still hits.
        let old = table.get_at(Coupling, 0, 1, 0).unwrap();
        assert_eq!(old.as_slice(), block_at(0, 1, 0).as_slice());
        let s = table.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn successor_carries_the_kept_generates_the_rest_and_leaves_the_old_alone() {
        let mut table = budgeted(3 * B44);
        for j in 1..=3 {
            assert!(table.hold(Coupling, (0, j), 0, block(0, j)));
        }
        table.get_at(Coupling, 0, 1, 0).unwrap();
        assert!(table.get_at(Coupling, 0, 9, 0).is_none());
        let before = table.keys();
        // Node 2 was updated (epoch 1), pair (0, 3) left the lists and
        // (0, 4) joined them.
        let epoch = |i: NodeId, j: NodeId| u64::from(i == 2 || j == 2);
        let pairs = [(0, 1), (0, 2), (0, 4), (0, 5)];
        let schedule = pairs.map(|(i, j)| (Coupling, i, j, B44));
        let next = table.successor([&pairs, &[]], Some(3 * B44), schedule, epoch, |fresh| {
            assert_eq!(fresh, [(Coupling, 0, 2), (Coupling, 0, 4)]);
            fresh
                .iter()
                .map(|&(_, i, j)| block_at(i, j, epoch(i, j)))
                .collect()
        });
        assert_eq!(
            next.keys(),
            vec![
                (Coupling, 0, 1, 0),
                (Coupling, 0, 2, 1),
                (Coupling, 0, 4, 0)
            ]
        );
        let (kept, carried) = (
            table.get_at(Coupling, 0, 1, 0).unwrap(),
            next.get_at(Coupling, 0, 1, 0).unwrap(),
        );
        assert!(Arc::ptr_eq(&kept, &carried), "carried by Arc");
        let got = next.get_at(Coupling, 0, 2, 1).unwrap();
        assert_eq!(got.as_slice(), block_at(0, 2, 1).as_slice());
        let s = next.stats();
        assert_eq!((s.hits, s.misses, s.stale_purged), (3, 1, 2));
        assert_eq!((s.resident_bytes, s.budget_bytes), (3 * B44, 3 * B44));
        // Whoever holds the old table sees what they saw.
        assert_eq!(table.keys(), before);
        assert_eq!(table.stats().stale_purged, 0);
        table.get_at(Coupling, 0, 3, 0).unwrap();
    }

    /// Readers hammer whichever table is current while one thread re-plans
    /// it round after round. The budget invariant must hold at every
    /// observation and every returned block must be exactly the content of
    /// the epoch asked for (no torn block, none from a stale epoch).
    #[test]
    fn concurrent_readers_and_a_replanner_hold_invariant_and_content() {
        let nkeys = 40usize;
        let pairs: Vec<(NodeId, NodeId)> = (0..nkeys).map(|k| (k, nkeys)).collect();
        // Round `r` bumps every even node to epoch `r` and starts its
        // schedule at pair `r`, so each re-plan carries some blocks,
        // regenerates some and drops some.
        let epoch_in =
            |round: u64| move |i: NodeId, _j: NodeId| if i.is_multiple_of(2) { round } else { 0 };
        let replan = |table: &BlockTable<f64>, round: u64| {
            let schedule =
                (0..nkeys).map(|k| (Nearfield, (k + round as usize) % nkeys, nkeys, B44));
            plan(table, [&[], &pairs], schedule, epoch_in(round))
        };
        let first = replan(&budgeted(5 * B44), 0);
        assert_eq!(first.resident_bytes(), 5 * B44);
        let current = Mutex::new((0u64, Arc::new(first)));
        let (readers, rounds) = (7usize, 60u64);
        let start = Barrier::new(readers + 1);
        std::thread::scope(|scope| {
            for t in 0..readers as u64 {
                let (current, start) = (&current, &start);
                scope.spawn(move || {
                    let mut state = t.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                    start.wait();
                    for _ in 0..400 {
                        // Cheap xorshift key choice (deterministic per thread).
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let i = (state % nkeys as u64) as usize;
                        let (round, table) = current.lock().unwrap().clone();
                        let at = epoch_in(round)(i, nkeys);
                        if let Some(got) = table.get_at(Nearfield, i, nkeys, at) {
                            assert_eq!(got.as_slice(), block_at(i, nkeys, at).as_slice());
                        }
                        assert!(table.resident_bytes() <= table.budget_bytes());
                    }
                });
            }
            start.wait();
            for round in 1..=rounds {
                let old = current.lock().unwrap().1.clone();
                let next = replan(&old, round);
                assert!(next.resident_bytes() <= next.budget_bytes());
                assert!(old.resident_bytes() <= old.budget_bytes());
                assert!(next.stats().stale_purged > old.stats().stale_purged);
                *current.lock().unwrap() = (round, Arc::new(next));
            }
        });
        let last = current.lock().unwrap().1.stats();
        assert_eq!((last.entries, last.resident_bytes), (5, 5 * B44));
    }
}
