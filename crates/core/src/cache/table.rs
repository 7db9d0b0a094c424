//! The block table (paper §III-A: "a sparse matrix of integers and a
//! sequence of dense matrices"). The sparse matrix is the operator's
//! [`BlockLists`]: per family, the listed pairs (`i <= j`;
//! `B_{j,i} = B_{i,j}ᵀ`) in strictly ascending order, so a pair's slot is
//! its position in the list, found by binary search. One slot per listed
//! pair is empty or holds a block and the epoch it was generated at.
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
use h2_points::admissibility::BlockLists;
use h2_points::NodeId;
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

impl BlockKind {
    /// The family's pair list in `lists`: strictly ascending, `i <= j` each.
    pub fn pairs(self, lists: &BlockLists) -> &[(NodeId, NodeId)] {
        match self {
            BlockKind::Coupling => &lists.interaction_pairs,
            BlockKind::Nearfield => &lists.nearfield_pairs,
        }
    }
}

/// Both families, in slot-array order.
pub(crate) const KINDS: [BlockKind; 2] = [BlockKind::Coupling, BlockKind::Nearfield];

/// A held block and the **epoch** it was generated at: the max of its two
/// nodes' update epochs then. A read names the pair's current epoch and a
/// block at another one is a miss, so a block that outlived an update of
/// either node is never served.
type Held<S> = (u64, Arc<MatrixS<S>>);

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
    /// The operator's lists, shared with it.
    lists: Arc<BlockLists>,
    /// Per family, one slot per listed pair, or none while the family holds
    /// nothing.
    slots: [Vec<Option<Held<S>>>; 2],
    hits: AtomicU64,
    misses: AtomicU64,
    stale_purged: AtomicU64,
}

impl<S: Scalar> BlockTable<S> {
    /// A table over `lists` that holds nothing yet. Binary search needs
    /// each pair list strictly ascending and canonical, as
    /// [`h2_points::admissibility::build_block_lists`] returns it.
    pub(crate) fn listed(lists: Arc<BlockLists>, budget: Option<usize>) -> Self {
        for kind in KINDS {
            let pairs = kind.pairs(&lists);
            debug_assert!(pairs.windows(2).all(|w| w[0] < w[1]), "{kind:?} unsorted");
            debug_assert!(pairs.iter().all(|&(i, j)| i <= j), "{kind:?} not i <= j");
        }
        BlockTable {
            budget,
            lists,
            slots: [Vec::new(), Vec::new()],
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale_purged: AtomicU64::new(0),
        }
    }

    /// The table that holds every listed block: `blocks[kind]` aligned with
    /// `kind`'s pairs, generated at `epoch`.
    pub(crate) fn stored(lists: Arc<BlockLists>, blocks: [Vec<MatrixS<S>>; 2], epoch: u64) -> Self {
        let mut table = BlockTable::listed(lists, None);
        for ((kind, slots), blocks) in KINDS.iter().zip(&mut table.slots).zip(blocks) {
            let listed = kind.pairs(&table.lists).len();
            assert_eq!(listed, blocks.len(), "one block per pair");
            *slots = blocks
                .into_iter()
                .map(|b| Some((epoch, Arc::new(b))))
                .collect();
        }
        table
    }

    /// The table that holds `budget` on `lists`, this one's counters
    /// carried on. `schedule` yields `(kind, slot, bytes)` in sweep order;
    /// `Some(bytes)` takes the first fit, each slot once and empty blocks
    /// never, `None` every scheduled slot. A block of `self` taken at its
    /// current `epoch(i, j)` is shared: at the same slot when `lists` are
    /// the ones `self` is listed on, else found by binary search. The other
    /// taken blocks are made by one call of `generate`, in the order given;
    /// every block of `self` left behind counts as `stale_purged`. `self`
    /// is not changed.
    pub(crate) fn successor(
        &self,
        lists: &Arc<BlockLists>,
        budget: Option<usize>,
        schedule: impl IntoIterator<Item = (BlockKind, usize, usize)>,
        epoch: impl Fn(NodeId, NodeId) -> u64,
        generate: impl FnOnce(&[(BlockKind, NodeId, NodeId)]) -> Vec<MatrixS<S>>,
    ) -> BlockTable<S> {
        let mut next = BlockTable::listed(lists.clone(), budget);
        let stood = Arc::ptr_eq(&self.lists, lists);
        let mut taken = KINDS.map(|kind| vec![false; kind.pairs(lists).len()]);
        let (mut acc, mut kept, mut fresh, mut at) = (0, 0, Vec::new(), Vec::new());
        for (kind, slot, bytes) in schedule {
            let taken = &mut taken[kind as usize][slot];
            if *taken || !budget.is_none_or(|b| bytes > 0 && acc + bytes <= b) {
                continue;
            }
            (*taken, acc) = (true, acc + bytes);
            let (i, j) = kind.pairs(lists)[slot];
            let old = stood
                .then_some(slot)
                .or_else(|| Some(self.slot(kind, i, j)?.0));
            match old.and_then(|old| self.held(kind, old)) {
                Some((e, block)) if *e == epoch(i, j) => {
                    kept += 1;
                    next.hold(kind, slot, (*e, block.clone()));
                }
                _ => {
                    fresh.push((kind, i, j));
                    at.push(slot);
                }
            }
        }
        for ((&(kind, i, j), slot), block) in fresh.iter().zip(at).zip(generate(&fresh)) {
            next.hold(kind, slot, (epoch(i, j), Arc::new(block)));
        }
        let left_behind = (self.held_blocks().count() - kept) as u64;
        next.hits = AtomicU64::new(self.hits.load(Ordering::Relaxed));
        next.misses = AtomicU64::new(self.misses.load(Ordering::Relaxed));
        next.stale_purged = AtomicU64::new(self.stale_purged.load(Ordering::Relaxed) + left_behind);
        next
    }

    /// Holds `held` at `slot` of `kind`, listing the family's slots first
    /// if it held nothing.
    fn hold(&mut self, kind: BlockKind, slot: usize, held: Held<S>) {
        let listed = kind.pairs(&self.lists).len();
        let slots = &mut self.slots[kind as usize];
        if slots.len() < listed {
            slots.resize_with(listed, || None);
        }
        slots[slot] = Some(held);
    }

    fn held(&self, kind: BlockKind, slot: usize) -> Option<&Held<S>> {
        self.slots[kind as usize].get(slot)?.as_ref()
    }

    /// The lists the table is listed on, shared with its operator.
    pub fn lists(&self) -> &Arc<BlockLists> {
        &self.lists
    }

    /// The slot of the *ordered* pair `(i, j)` of `kind`, its position in
    /// the family's list, and whether the listed block applies transposed
    /// (`i > j`); `None` for a pair that is not listed.
    pub fn slot(&self, kind: BlockKind, i: NodeId, j: NodeId) -> Option<(usize, bool)> {
        let (pair, t) = if i <= j {
            ((i, j), false)
        } else {
            ((j, i), true)
        };
        let slot = kind.pairs(&self.lists).binary_search(&pair).ok()?;
        Some((slot, t))
    }

    /// The block at list position `slot` of `kind` if it was generated at
    /// `epoch`: the sweeps' read, counted by the reader.
    pub(crate) fn block(&self, kind: BlockKind, slot: usize, epoch: u64) -> Option<&MatrixS<S>> {
        let (at, block) = self.held(kind, slot)?;
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
        let held = self
            .slot(kind, i, j)
            .and_then(|(slot, _)| self.held(kind, slot));
        let held = held.filter(|(at, _)| *at == epoch);
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
        let held = self.slots[kind as usize].iter().flatten();
        self.budget
            .is_none()
            .then(|| held.map(|(_, block)| &**block).collect())
    }

    fn held_blocks(&self) -> impl Iterator<Item = &MatrixS<S>> {
        let held = self.slots.iter().flatten().flatten();
        held.map(|(_, block)| &**block)
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
        self.held_blocks().map(MatrixS::bytes).sum()
    }

    /// Bytes of held blocks backed by a mapped operator file.
    pub fn mapped_bytes(&self) -> usize {
        self.held_blocks().map(MatrixS::mapped_bytes).sum()
    }

    /// Every held key `(kind, i, j, epoch)`, ascending (the lists are): two
    /// tables hold the same blocks when their keys are equal.
    pub fn keys(&self) -> Vec<(BlockKind, NodeId, NodeId, u64)> {
        let mut keys = Vec::new();
        for (&kind, slots) in KINDS.iter().zip(&self.slots) {
            for (held, &(i, j)) in slots.iter().zip(kind.pairs(&self.lists)) {
                if let Some((at, _)) = held {
                    keys.push((kind, i, j, *at));
                }
            }
        }
        keys
    }

    /// Snapshot of counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evicted_bytes: 0,
            stale_purged: self.stale_purged.load(Ordering::Relaxed),
            entries: self.held_blocks().count(),
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

    const B44: usize = 4 * 4 * 8; // bytes of a 4x4 f64 block

    /// Lists of the given coupling and nearfield pairs (ascending, i <= j).
    fn lists(coupling: &[(NodeId, NodeId)], nearfield: &[(NodeId, NodeId)]) -> Arc<BlockLists> {
        Arc::new(BlockLists {
            interaction: Vec::new(),
            nearfield: Vec::new(),
            interaction_pairs: coupling.to_vec(),
            nearfield_pairs: nearfield.to_vec(),
            eta: 0.7,
        })
    }

    /// The successor of `table` on `lists` and `schedule` (pairs in either
    /// orientation, looked up on `lists`), every pair at epoch
    /// `epoch(i, j)`, generating what it does not carry.
    fn plan(
        table: &BlockTable<f64>,
        lists: &Arc<BlockLists>,
        schedule: impl IntoIterator<Item = (BlockKind, NodeId, NodeId, usize)>,
        epoch: impl Fn(NodeId, NodeId) -> u64 + Copy,
    ) -> BlockTable<f64> {
        let listed = BlockTable::<f64>::listed(lists.clone(), None);
        let slot = |kind, i, j| listed.slot(kind, i, j).expect("a scheduled pair is listed");
        let schedule = schedule
            .into_iter()
            .map(|(kind, i, j, bytes)| (kind, slot(kind, i, j).0, bytes));
        table.successor(lists, table.budget(), schedule, epoch, |fresh| {
            let at = |&(_, i, j): &(BlockKind, NodeId, NodeId)| block_at(i, j, epoch(i, j));
            fresh.iter().map(at).collect()
        })
    }

    /// A table of `bytes` on `lists` holding `held` (coupling pairs, each
    /// `B44` bytes, at epoch 0).
    fn holding(
        lists: &Arc<BlockLists>,
        bytes: usize,
        held: &[(NodeId, NodeId)],
    ) -> BlockTable<f64> {
        let empty = BlockTable::listed(lists.clone(), Some(bytes));
        let schedule = held.iter().map(|&(i, j)| (Coupling, i, j, B44));
        let table = plan(&empty, lists, schedule, |_, _| 0);
        assert_eq!(table.keys().len(), held.len(), "every held pair fits");
        table
    }

    #[test]
    fn slot_is_the_list_position_and_flags_the_transpose() {
        let table = BlockTable::<f64>::listed(lists(&[(1, 5), (2, 2), (3, 7)], &[]), None);
        assert_eq!(table.slot(Coupling, 1, 5), Some((0, false)));
        assert_eq!(table.slot(Coupling, 5, 1), Some((0, true)));
        assert_eq!(table.slot(Coupling, 2, 2), Some((1, false)));
        assert_eq!(table.slot(Coupling, 7, 3), Some((2, true)));
        assert_eq!(table.slot(Coupling, 4, 4), None);
        assert_eq!(table.slot(Nearfield, 1, 5), None, "the other family");
        // Nothing held: no family lists a slot.
        assert!(table.slots.iter().all(Vec::is_empty));
    }

    #[test]
    fn hit_after_plan_miss_without_and_stats() {
        let table = holding(&lists(&[(0, 1), (0, 2)], &[]), 10 * B44, &[(0, 1)]);
        let a = table.get_at(Coupling, 0, 1, 0).unwrap();
        let b = table.get_at(Coupling, 0, 1, 0).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.as_slice(), block_at(0, 1, 0).as_slice());
        // A miss keeps nothing: it misses again, listed or not.
        assert!(table.get_at(Coupling, 0, 2, 0).is_none());
        assert!(table.get_at(Coupling, 0, 9, 0).is_none());
        let s = table.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 2, 1));
        assert_eq!((s.resident_bytes, s.evicted_bytes), (B44, 0));
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
        // The nearfield family held nothing and keeps no slots.
        assert!(table.slots[Nearfield as usize].is_empty());
    }

    #[test]
    fn oversized_and_empty_blocks_are_never_held_under_a_budget() {
        let lists = lists(&[(1, 2), (1, 3), (1, 4)], &[(2, 3)]);
        let schedule = [
            (Nearfield, 2, 3, 0),      // empty
            (Coupling, 1, 2, 2 * B44), // larger than the budget
            (Coupling, 1, 3, B44),     // fits
            (Coupling, 1, 4, B44),     // larger than what remains
        ];
        let empty = BlockTable::listed(lists.clone(), Some(B44 + B44 / 2));
        let table = plan(&empty, &lists, schedule, |_, _| 0);
        assert!(table.get_at(Nearfield, 2, 3, 0).is_none());
        assert_eq!(table.keys(), vec![(Coupling, 1, 3, 0)]);
        assert_eq!(table.resident_bytes(), B44);
    }

    #[test]
    fn first_fit_in_schedule_order_with_dedup() {
        let lists = lists(&[(0, 1), (0, 2), (0, 3), (0, 4)], &[(0, 0), (0, 1)]);
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
            &BlockTable::listed(lists.clone(), Some(3 * B44)),
            &lists,
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
        let every = BlockTable::listed(lists.clone(), None);
        let all = plan(&every, &lists, schedule, |_, _| 0);
        assert_eq!(all.keys().len(), 4 + 2);
        assert_eq!(all.stored_blocks(Coupling).map(|b| b.len()), Some(4));
        assert!(table.stored_blocks(Coupling).is_none());
    }

    #[test]
    fn transposed_requests_share_one_entry() {
        let first = lists(&[(3, 7)], &[]);
        let table = holding(&first, 10 * B44, &[(3, 7)]);
        // A schedule may name the pair in either orientation, on the lists
        // that stood and on relisted ones where its slot moved.
        let relisted = lists(&[(1, 2), (3, 7)], &[]);
        for lists in [&first, &relisted] {
            let listed = BlockTable::<f64>::listed(lists.clone(), None);
            let (slot, t) = listed.slot(Coupling, 7, 3).unwrap();
            assert!(t, "(7, 3) applies (3, 7) transposed");
            let next = table.successor(
                lists,
                Some(10 * B44),
                [(Coupling, slot, B44)],
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
            assert_eq!(next.block(Coupling, slot, 0).map(|b| b.nrows()), Some(4));
        }
    }

    #[test]
    fn epochs_partition_one_pair() {
        let lists = lists(&[(0, 1)], &[]);
        let table = holding(&lists, 10 * B44, &[(0, 1)]);
        // A bumped epoch misses — a stale block can never be served — and
        // the held block stays as it is.
        assert!(table.get_at(Coupling, 0, 1, 1).is_none());
        assert!(table.block(Coupling, 0, 1).is_none());
        assert_eq!(table.keys(), vec![(Coupling, 0, 1, 0)]);
        // Its own epoch still hits.
        let old = table.get_at(Coupling, 0, 1, 0).unwrap();
        assert_eq!(old.as_slice(), block_at(0, 1, 0).as_slice());
        let s = table.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        // A plan at the new epoch regenerates the pair in the successor.
        let next = plan(&table, &lists, [(Coupling, 0, 1, B44)], |_, _| 1);
        assert_eq!(next.keys(), vec![(Coupling, 0, 1, 1)]);
        assert_eq!(table.keys(), vec![(Coupling, 0, 1, 0)]);
    }

    #[test]
    fn successor_carries_the_kept_generates_the_rest_and_leaves_the_old_alone() {
        let table = holding(
            &lists(&[(0, 1), (0, 2), (0, 3)], &[]),
            3 * B44,
            &[(0, 1), (0, 2), (0, 3)],
        );
        table.get_at(Coupling, 0, 1, 0).unwrap();
        assert!(table.get_at(Coupling, 0, 9, 0).is_none());
        let before = table.keys();
        // Node 2 was updated (epoch 1), pair (0, 3) left the lists and
        // (0, 4) joined them.
        let epoch = |i: NodeId, j: NodeId| u64::from(i == 2 || j == 2);
        let pairs = [(0, 1), (0, 2), (0, 4), (0, 5)];
        let relisted = lists(&pairs, &[]);
        let schedule = pairs.map(|(i, j)| (Coupling, i, j, B44));
        let listed = BlockTable::<f64>::listed(relisted.clone(), None);
        let slots =
            schedule.map(|(kind, i, j, bytes)| (kind, listed.slot(kind, i, j).unwrap().0, bytes));
        let next = table.successor(&relisted, Some(3 * B44), slots, epoch, |fresh| {
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
        let lists = lists(&[], &pairs);
        // Round `r` bumps every even node to epoch `r` and starts its
        // schedule at pair `r`, so each re-plan carries some blocks,
        // regenerates some and drops some.
        let epoch_in =
            |round: u64| move |i: NodeId, _j: NodeId| if i.is_multiple_of(2) { round } else { 0 };
        let replan = |table: &BlockTable<f64>, round: u64| {
            let schedule =
                (0..nkeys).map(|k| (Nearfield, (k + round as usize) % nkeys, nkeys, B44));
            plan(table, &lists, schedule, epoch_in(round))
        };
        let first = replan(&BlockTable::listed(lists.clone(), Some(5 * B44)), 0);
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
