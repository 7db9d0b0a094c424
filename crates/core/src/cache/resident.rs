//! The budgeted resident set: the middle tier of the sweeps' block fetch.
//!
//! A product requests the same blocks in the same order every time
//! ([`crate::SweepPlan::block_schedule`]), so nothing about residency is
//! learned at run time. The resident set is chosen once, from the schedule
//! and the byte budget, by [`BlockCache::plan_pins`]; products then only
//! read it.
//!
//! 1. **Residency is a function of (schedule, budget).** First fit in sweep
//!    order, continuing past blocks that do not fit. A block of either
//!    family costs `rows · cols` kernel evaluations to regenerate and
//!    `rows · cols · S::BYTES` to hold, so every set that fills the budget
//!    saves the same evaluations to within one block; no other policy can
//!    do better than the walk.
//! 2. **A product writes two counters.** [`BlockCache::get_at`] takes the
//!    table's lock shared and clones the `Arc` on a hit; on a miss the
//!    caller generates the block into its own scratch, outside the lock,
//!    and nothing is kept. Only [`BlockCache::replan`] and
//!    [`BlockCache::pin`] write, and they refuse what would exceed the
//!    budget, so resident bytes never do.
//! 3. **An update installs a new value.** [`BlockCache::replan`] builds the
//!    successor of a cache: same budget and counters, the entries the new
//!    plan keeps carried over by `Arc`, the rest generated by the caller.
//!    Whoever still holds the old cache (an in-flight sweep, a clone of the
//!    operator) keeps the table it started with.

use h2_linalg::{MatrixS, Scalar};
use h2_points::NodeId;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};

/// Which block family a key addresses (coupling `B_{i,j}` over proxy points
/// vs. dense nearfield `K(X_i, X_j)`); the two share one budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BlockKind {
    /// Farfield coupling block over the pair's proxy points.
    Coupling,
    /// Dense nearfield block over the pair's leaf points.
    Nearfield,
}

/// Canonical pair address: kind plus the pair with `i <= j` (the transposed
/// application reuses the same entry, exactly like [`super::BlockIndex`]).
type Pair = (BlockKind, NodeId, NodeId);

/// A resident block and the **epoch** it was generated at: the max of its
/// two nodes' update epochs then (0 on a never-updated operator). A request
/// names the pair's current epoch and an entry at another one is a miss, so
/// a block that outlived an update of either node can never be served.
type Entry<S> = (u64, Arc<MatrixS<S>>);

/// Counter/occupancy snapshot of one [`BlockCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from a resident entry.
    pub hits: u64,
    /// Requests that had to generate the block.
    pub misses: u64,
    /// Always 0: nothing is evicted. Kept because `h2bench` reads it.
    pub evicted_bytes: u64,
    /// Entries operator updates dropped from the resident set
    /// ([`BlockCache::replan`]).
    pub stale_purged: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently resident (always ≤ `budget_bytes`).
    pub resident_bytes: usize,
    /// The configured byte budget.
    pub budget_bytes: usize,
}

impl CacheStats {
    /// Hit fraction of all requests (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The blocks of one operator held resident under a strict byte budget.
pub struct BlockCache<S: Scalar> {
    budget: usize,
    table: RwLock<HashMap<Pair, Entry<S>>>,
    /// Bytes in `table`; changes under its write lock only.
    resident: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    stale_purged: AtomicU64,
}

impl<S: Scalar> BlockCache<S> {
    /// An empty cache.
    pub fn new(budget_bytes: usize) -> Self {
        BlockCache {
            budget: budget_bytes,
            table: RwLock::new(HashMap::new()),
            resident: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale_purged: AtomicU64::new(0),
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// Bytes currently resident (the invariant under test everywhere:
    /// `resident_bytes() <= budget_bytes()`).
    pub fn resident_bytes(&self) -> usize {
        self.resident.load(Ordering::SeqCst)
    }

    fn read(&self) -> RwLockReadGuard<'_, HashMap<Pair, Entry<S>>> {
        self.table.read().expect("a pin panicked inside the table")
    }

    /// The resident block for the canonical pair `(i, j)` (`i <= j`
    /// required) at the given epoch, counted as a hit, or `None`, counted as
    /// a miss: the caller generates a missed block itself, and nothing is
    /// kept.
    pub fn get_at(
        &self,
        kind: BlockKind,
        i: NodeId,
        j: NodeId,
        epoch: u64,
    ) -> Option<Arc<MatrixS<S>>> {
        assert!(i <= j, "cache keys are canonical (i <= j)");
        let resident = match self.read().get(&(kind, i, j)) {
            Some((at, block)) if *at == epoch => Some(block.clone()),
            _ => None,
        };
        let counter = if resident.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        resident
    }

    /// Makes a pre-generated block resident at epoch 0. Returns `false` when
    /// it does not fit the remaining budget, is empty, or the pair is
    /// already resident.
    pub fn pin(&self, kind: BlockKind, i: NodeId, j: NodeId, block: MatrixS<S>) -> bool {
        self.insert((kind, i, j), 0, Arc::new(block))
    }

    fn insert(&self, pair: Pair, epoch: u64, block: Arc<MatrixS<S>>) -> bool {
        assert!(pair.1 <= pair.2, "cache keys are canonical (i <= j)");
        let bytes = block.bytes();
        let mut table = self.table.write().expect("a pin panicked inside the table");
        let held = self.resident_bytes();
        if bytes == 0 || held + bytes > self.budget || table.contains_key(&pair) {
            return false;
        }
        table.insert(pair, (epoch, block));
        self.resident.store(held + bytes, Ordering::SeqCst);
        true
    }

    /// The resident set of a budget: walks `(kind, i, j, bytes)` items in
    /// the order given (callers pass sweep-execution order), canonicalizes
    /// and dedups pairs, and selects first-fit those that fit the budget.
    /// Nothing is materialized.
    pub fn plan_pins(
        &self,
        items: impl IntoIterator<Item = (BlockKind, NodeId, NodeId, usize)>,
    ) -> Vec<(BlockKind, NodeId, NodeId)> {
        let mut chosen = Vec::new();
        let mut seen = HashSet::new();
        let mut acc = 0;
        for (kind, i, j, bytes) in items {
            let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
            if bytes == 0 || !seen.insert((kind, lo, hi)) {
                continue;
            }
            if acc + bytes <= self.budget {
                acc += bytes;
                chosen.push((kind, lo, hi));
            }
        }
        chosen
    }

    /// The cache that holds [`Self::plan_pins`] of `schedule` under this
    /// one's budget, with this one's counters carried on: what an operator
    /// installs first (from an empty cache) and again after every update.
    /// `epoch(i, j)` is a pair's current epoch. An entry of `self` the plan
    /// keeps and whose epoch still stands is shared, not copied; the other
    /// planned blocks are made by one call of `generate`, in the order it is
    /// given them; every entry of `self` left behind counts as
    /// `stale_purged`. `self` is not changed.
    pub fn replan(
        &self,
        schedule: impl IntoIterator<Item = (BlockKind, NodeId, NodeId, usize)>,
        epoch: impl Fn(NodeId, NodeId) -> u64,
        generate: impl FnOnce(&[(BlockKind, NodeId, NodeId)]) -> Vec<MatrixS<S>>,
    ) -> BlockCache<S> {
        let next = BlockCache::new(self.budget);
        let mut fresh = Vec::new();
        let left_behind = {
            let old = self.read();
            let mut kept = 0;
            for pair in self.plan_pins(schedule) {
                match old.get(&pair) {
                    Some((at, block)) if *at == epoch(pair.1, pair.2) => {
                        kept += 1;
                        let fits = next.insert(pair, *at, block.clone());
                        debug_assert!(fits, "planned block {pair:?} did not fit");
                    }
                    _ => fresh.push(pair),
                }
            }
            old.len() - kept
        };
        for (&pair, block) in fresh.iter().zip(generate(&fresh)) {
            let fits = next.insert(pair, epoch(pair.1, pair.2), Arc::new(block));
            debug_assert!(fits, "planned block {pair:?} did not fit");
        }
        let carried = |counter: &AtomicU64| AtomicU64::new(counter.load(Ordering::Relaxed));
        BlockCache {
            hits: carried(&self.hits),
            misses: carried(&self.misses),
            stale_purged: AtomicU64::new(
                self.stale_purged.load(Ordering::Relaxed) + left_behind as u64,
            ),
            ..next
        }
    }

    /// Every resident key `(kind, i, j, epoch)`, ascending — a diagnostic:
    /// two caches hold the same blocks when their keys are equal.
    pub fn keys(&self) -> Vec<(BlockKind, NodeId, NodeId, u64)> {
        let key = |(&(kind, i, j), &(epoch, _)): (&Pair, &Entry<S>)| (kind, i, j, epoch);
        let mut keys: Vec<_> = self.read().iter().map(key).collect();
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
            entries: self.read().len(),
            resident_bytes: self.resident_bytes(),
            budget_bytes: self.budget,
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

    fn block(i: NodeId, j: NodeId) -> Matrix {
        block_at(i, j, 0)
    }

    const B44: usize = 4 * 4 * 8; // bytes of a 4x4 f64 block

    #[test]
    fn hit_after_pin_miss_without_and_stats() {
        let cache = BlockCache::<f64>::new(10 * B44);
        assert!(cache.pin(Coupling, 0, 1, block(0, 1)));
        let a = cache.get_at(Coupling, 0, 1, 0).unwrap();
        let b = cache.get_at(Coupling, 0, 1, 0).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.as_slice(), block(0, 1).as_slice());
        // A miss keeps nothing: it misses again.
        assert!(cache.get_at(Coupling, 0, 2, 0).is_none());
        assert!(cache.get_at(Coupling, 0, 2, 0).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 2, 1));
        assert_eq!((s.resident_bytes, s.evicted_bytes), (B44, 0));
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
        // A second pin of a resident pair fails.
        assert!(!cache.pin(Coupling, 0, 1, block(0, 1)));
    }

    #[test]
    fn oversized_and_empty_blocks_are_never_resident() {
        let cache = BlockCache::<f64>::new(B44 + B44 / 2);
        assert!(!cache.pin(Nearfield, 2, 3, Matrix::zeros(0, 5)));
        assert!(!cache.pin(Coupling, 1, 2, Matrix::zeros(8, 4)));
        assert!(cache.pin(Coupling, 1, 2, block(1, 2)));
        // What remains of the budget is smaller than the next block.
        assert!(!cache.pin(Coupling, 1, 3, block(1, 3)));
        assert!(cache.get_at(Coupling, 2, 3, 0).is_none());
        assert_eq!(cache.keys(), vec![(Coupling, 1, 2, 0)]);
        assert_eq!(cache.resident_bytes(), B44);
    }

    #[test]
    fn plan_pins_first_fit_in_given_order_with_dedup() {
        let cache = BlockCache::<f64>::new(3 * B44);
        let items = vec![
            (BlockKind::Coupling, 0, 1, B44),
            (BlockKind::Coupling, 1, 0, B44), // duplicate of (0, 1)
            (BlockKind::Nearfield, 0, 0, 0),  // empty: skipped
            (BlockKind::Coupling, 0, 2, 4 * B44), // too big for what remains
            (BlockKind::Nearfield, 0, 1, B44), // distinct kind, same pair
            (BlockKind::Coupling, 0, 3, B44),
            (BlockKind::Coupling, 0, 4, B44), // budget exhausted
        ];
        let chosen = cache.plan_pins(items);
        assert_eq!(
            chosen,
            vec![
                (BlockKind::Coupling, 0, 1),
                (BlockKind::Nearfield, 0, 1),
                (BlockKind::Coupling, 0, 3),
            ]
        );
    }

    #[test]
    fn transposed_requests_share_one_entry() {
        let cache = BlockCache::<f64>::new(10 * B44);
        assert!(cache.pin(Coupling, 3, 7, block(3, 7)));
        // A schedule may name the pair in either orientation.
        let next = cache.replan(
            [(Coupling, 7, 3, B44)],
            |_, _| 0,
            |fresh| {
                assert!(fresh.is_empty(), "(7, 3) is the resident (3, 7)");
                Vec::new()
            },
        );
        assert_eq!(next.keys(), vec![(Coupling, 3, 7, 0)]);
        let (old, new) = (
            cache.get_at(Coupling, 3, 7, 0).unwrap(),
            next.get_at(Coupling, 3, 7, 0).unwrap(),
        );
        assert!(Arc::ptr_eq(&old, &new), "carried over, not copied");
    }

    #[test]
    fn epochs_partition_one_pair() {
        let cache = BlockCache::<f64>::new(10 * B44);
        assert!(cache.insert((Coupling, 0, 1), 0, Arc::new(block_at(0, 1, 0))));
        // A bumped epoch misses — a stale block can never be served — and
        // the resident entry stays as it is.
        assert!(cache.get_at(Coupling, 0, 1, 1).is_none());
        assert!(!cache.insert((Coupling, 0, 1), 1, Arc::new(block_at(0, 1, 1))));
        assert_eq!(cache.keys(), vec![(Coupling, 0, 1, 0)]);
        // Its own epoch still hits.
        let old = cache.get_at(Coupling, 0, 1, 0).unwrap();
        assert_eq!(old.as_slice(), block_at(0, 1, 0).as_slice());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn replan_carries_the_kept_generates_the_rest_and_leaves_the_old_alone() {
        let cache = BlockCache::<f64>::new(3 * B44);
        for j in 1..=3 {
            assert!(cache.pin(Coupling, 0, j, block(0, j)));
        }
        cache.get_at(Coupling, 0, 1, 0).unwrap();
        assert!(cache.get_at(Coupling, 0, 9, 0).is_none());
        let before = cache.keys();
        // Node 2 was updated (epoch 1), pair (0, 3) left the schedule and
        // (0, 4) joined it.
        let epoch = |i: NodeId, j: NodeId| u64::from(i == 2 || j == 2);
        let schedule = [1, 2, 4, 5].map(|j| (Coupling, 0, j, B44));
        let next = cache.replan(schedule, epoch, |fresh| {
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
        let got = next.get_at(Coupling, 0, 2, 1).unwrap();
        assert_eq!(got.as_slice(), block_at(0, 2, 1).as_slice());
        let s = next.stats();
        assert_eq!((s.hits, s.misses, s.stale_purged), (2, 1, 2));
        assert_eq!((s.resident_bytes, s.budget_bytes), (3 * B44, 3 * B44));
        // Whoever holds the old cache sees what they saw.
        assert_eq!(cache.keys(), before);
        assert_eq!(cache.stats().stale_purged, 0);
        cache.get_at(Coupling, 0, 3, 0).unwrap();
    }

    /// Readers hammer whichever cache is current while one thread re-plans
    /// it round after round. The budget invariant must hold at every
    /// observation and every returned panel must be exactly the content of
    /// the epoch asked for (no torn block, none from a stale epoch).
    #[test]
    fn concurrent_readers_and_a_replanner_hold_invariant_and_content() {
        let nkeys = 40usize;
        // Round `r` bumps every even node to epoch `r` and starts its
        // schedule at pair `r`, so each re-plan carries some entries,
        // regenerates some and drops some.
        let epoch_in =
            |round: u64| move |i: NodeId, _j: NodeId| if i.is_multiple_of(2) { round } else { 0 };
        let plan = |cache: &BlockCache<f64>, round: u64| {
            let schedule =
                (0..nkeys).map(|k| (Nearfield, (k + round as usize) % nkeys, nkeys, B44));
            let epoch = epoch_in(round);
            cache.replan(schedule, epoch, |fresh| {
                fresh
                    .iter()
                    .map(|&(_, i, j)| block_at(i, j, epoch(i, j)))
                    .collect()
            })
        };
        let first = plan(&BlockCache::new(5 * B44), 0);
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
                        let (round, cache) = current.lock().unwrap().clone();
                        let at = epoch_in(round)(i, nkeys);
                        if let Some(got) = cache.get_at(Nearfield, i, nkeys, at) {
                            assert_eq!(got.as_slice(), block_at(i, nkeys, at).as_slice());
                        }
                        assert!(cache.resident_bytes() <= cache.budget_bytes());
                    }
                });
            }
            start.wait();
            for round in 1..=rounds {
                let old = current.lock().unwrap().1.clone();
                let next = plan(&old, round);
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
