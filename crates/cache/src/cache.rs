//! The sharded, budgeted block cache: the middle tier of the sweeps' block
//! fetch.
//!
//! Design constraints, in order:
//!
//! 1. **Strict budget invariant.** Resident bytes never exceed the budget,
//!    even transiently under concurrent sweeps: admission reserves bytes on
//!    a global counter with a CAS before any entry is inserted, and
//!    eviction releases them under the owning shard's lock.
//! 2. **No torn panels.** Blocks are immutable `Arc<MatrixS<S>>`s; a sweep
//!    thread clones the `Arc` under the shard lock and applies the block
//!    outside it. Entries are inserted fully built, so readers can never
//!    observe a partially written panel.
//! 3. **Cost-aware admission.** Under pressure a newcomer may only displace
//!    entries that have been requested *less* often than itself (per-key
//!    request frequencies persist across evictions), so one cold scan
//!    cannot flush a hot working set; ties recycle the coldest entry (LRU),
//!    which is what keeps plain capacity misses circulating.
//! 4. **Warmup pinning.** [`BlockCache::plan_pins`] selects blocks in
//!    sweep-execution order (block sizes are known from ranks and node
//!    sizes, so nothing is materialized to plan); pinned entries are never
//!    evicted, giving repeated sweeps a deterministic resident prefix.

use h2_linalg::{MatrixS, Scalar};
use h2_points::NodeId;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

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
/// application reuses the same entry, exactly like [`crate::BlockIndex`]).
type Pair = (BlockKind, NodeId, NodeId);

/// Full cache key: the canonical pair plus the **epoch** the block was
/// generated at. Incremental operator updates bump a per-node epoch; the
/// pair's key epoch is the max over its two sides, so a stale block from an
/// earlier epoch can never satisfy a post-update request — invalidation by
/// construction. Static operators always use epoch 0.
type Key = (BlockKind, NodeId, NodeId, u64);

struct Entry<S: Scalar> {
    block: Arc<MatrixS<S>>,
    bytes: usize,
    pinned: bool,
    last_use: u64,
}

struct Shard<S: Scalar> {
    map: HashMap<Key, Entry<S>>,
    /// Per-pair request counts, persisted across evictions (the "ghost"
    /// frequency that makes admission cost-aware). Keyed by pair, not full
    /// key: a hot pair stays hot across epochs.
    freq: HashMap<Pair, u64>,
}

/// Counter/occupancy snapshot of one [`BlockCache`] (or a merged view over
/// several, e.g. the per-rank caches of a sharded operator).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from a resident entry.
    pub hits: u64,
    /// Requests that had to generate the block.
    pub misses: u64,
    /// Entries inserted (pinned + admitted).
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Bytes released by evictions.
    pub evicted_bytes: u64,
    /// Generated blocks the admission policy declined to cache.
    pub rejected: u64,
    /// Stale-epoch entries eagerly removed by [`BlockCache::purge_below`]
    /// after an operator update.
    pub stale_purged: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently resident (always ≤ `budget_bytes`).
    pub resident_bytes: usize,
    /// Bytes held by pinned (warmup) entries.
    pub pinned_bytes: usize,
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

    /// Element-wise sum (budgets and occupancy add — the per-rank caches of
    /// a sharded operator partition one global budget).
    pub fn merged(self, o: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + o.hits,
            misses: self.misses + o.misses,
            insertions: self.insertions + o.insertions,
            evictions: self.evictions + o.evictions,
            evicted_bytes: self.evicted_bytes + o.evicted_bytes,
            rejected: self.rejected + o.rejected,
            stale_purged: self.stale_purged + o.stale_purged,
            entries: self.entries + o.entries,
            resident_bytes: self.resident_bytes + o.resident_bytes,
            pinned_bytes: self.pinned_bytes + o.pinned_bytes,
            budget_bytes: self.budget_bytes + o.budget_bytes,
        }
    }
}

/// A sharded LRU block cache with a strict global byte budget.
pub struct BlockCache<S: Scalar> {
    budget: usize,
    shards: Vec<Mutex<Shard<S>>>,
    resident: AtomicUsize,
    pinned: AtomicUsize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    evicted_bytes: AtomicU64,
    rejected: AtomicU64,
    stale_purged: AtomicU64,
}

impl<S: Scalar> BlockCache<S> {
    /// A cache with the default shard count (16).
    pub fn new(budget_bytes: usize) -> Self {
        Self::with_shards(budget_bytes, 16)
    }

    /// A cache with an explicit shard count (tests use 1 for determinism).
    pub fn with_shards(budget_bytes: usize, n_shards: usize) -> Self {
        assert!(n_shards >= 1, "cache needs at least one shard");
        // Touch the telemetry counters so they exist in the Prometheus
        // export even before the first hit/miss/eviction.
        h2_telemetry::counter_add!("cache.hit", 0);
        h2_telemetry::counter_add!("cache.miss", 0);
        h2_telemetry::counter_add!("cache.evict_bytes", 0);
        BlockCache {
            budget: budget_bytes,
            shards: (0..n_shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        freq: HashMap::new(),
                    })
                })
                .collect(),
            resident: AtomicUsize::new(0),
            pinned: AtomicUsize::new(0),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
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

    /// Bytes held by pinned entries.
    pub fn pinned_bytes(&self) -> usize {
        self.pinned.load(Ordering::SeqCst)
    }

    /// True when the key is currently resident at epoch 0.
    pub fn contains(&self, kind: BlockKind, i: NodeId, j: NodeId) -> bool {
        self.contains_at(kind, i, j, 0)
    }

    /// True when the key is currently resident at the given epoch.
    pub fn contains_at(&self, kind: BlockKind, i: NodeId, j: NodeId, epoch: u64) -> bool {
        let pair = canonical(kind, i, j);
        let key = (pair.0, pair.1, pair.2, epoch);
        self.shards[self.shard_for(&pair)]
            .lock()
            .unwrap()
            .map
            .contains_key(&key)
    }

    /// Shards hash the pair only, not the epoch: every epoch of one pair
    /// lives in the same shard, so [`Self::purge_below`] needs exactly one
    /// shard lock per pair.
    fn shard_for(&self, pair: &Pair) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        pair.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Reserves `bytes` against the global budget; never overshoots.
    fn try_reserve(&self, bytes: usize) -> bool {
        let mut cur = self.resident.load(Ordering::SeqCst);
        loop {
            if cur + bytes > self.budget {
                return false;
            }
            match self.resident.compare_exchange_weak(
                cur,
                cur + bytes,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Returns the block for the canonical pair `(i, j)` (`i <= j`
    /// required) at epoch 0, generating and possibly admitting it on a
    /// miss. Static operators (never updated) only ever use epoch 0.
    pub fn get_or_generate(
        &self,
        kind: BlockKind,
        i: NodeId,
        j: NodeId,
        generate: impl FnOnce() -> MatrixS<S>,
    ) -> Arc<MatrixS<S>> {
        self.get_or_generate_at(kind, i, j, 0, generate)
    }

    /// Returns the block for the canonical pair `(i, j)` (`i <= j`
    /// required) at the given epoch, generating and possibly admitting it
    /// on a miss. An entry cached at a different epoch never matches: a
    /// post-update request with a bumped epoch regenerates by construction.
    /// The returned block is always fully materialized — callers apply it
    /// with the same dense routines normal mode uses, so results are
    /// independent of cache state.
    pub fn get_or_generate_at(
        &self,
        kind: BlockKind,
        i: NodeId,
        j: NodeId,
        epoch: u64,
        generate: impl FnOnce() -> MatrixS<S>,
    ) -> Arc<MatrixS<S>> {
        assert!(i <= j, "cache keys are canonical (i <= j)");
        let pair = (kind, i, j);
        let key = (kind, i, j, epoch);
        let shard = &self.shards[self.shard_for(&pair)];
        let newcomer_freq;
        {
            let mut sh = shard.lock().unwrap();
            let f = sh.freq.entry(pair).or_insert(0);
            *f += 1;
            newcomer_freq = *f;
            if let Some(e) = sh.map.get_mut(&key) {
                e.last_use = self.next_tick();
                self.hits.fetch_add(1, Ordering::Relaxed);
                h2_telemetry::counter_add!("cache.hit", 1);
                return e.block.clone();
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        h2_telemetry::counter_add!("cache.miss", 1);
        let sp = h2_telemetry::span("cache.generate");
        let block = Arc::new(generate());
        drop(sp);
        let bytes = block.bytes();
        if bytes == 0 || bytes > self.budget {
            // Empty (rank-0) or larger than the whole budget: never cached.
            return block;
        }
        let mut sh = shard.lock().unwrap();
        if let Some(e) = sh.map.get(&key) {
            // Lost a generation race; keep the already-resident copy.
            return e.block.clone();
        }
        if !self.make_room(&mut sh, bytes, newcomer_freq) {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return block;
        }
        sh.map.insert(
            key,
            Entry {
                block: block.clone(),
                bytes,
                pinned: false,
                last_use: self.next_tick(),
            },
        );
        self.insertions.fetch_add(1, Ordering::Relaxed);
        block
    }

    /// Reserves `bytes`, evicting cold unpinned entries of this shard as
    /// needed. Fails (without inserting) when the shard has nothing colder
    /// than the newcomer left to displace.
    fn make_room(&self, sh: &mut Shard<S>, bytes: usize, newcomer_freq: u64) -> bool {
        loop {
            if self.try_reserve(bytes) {
                return true;
            }
            let victim = sh
                .map
                .iter()
                .filter(|(_, e)| !e.pinned)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, e)| (*k, e.bytes));
            let Some((vk, vb)) = victim else {
                return false;
            };
            if sh.freq.get(&(vk.0, vk.1, vk.2)).copied().unwrap_or(0) > newcomer_freq {
                // The coldest candidate is still hotter than the newcomer:
                // keep the working set, serve the newcomer uncached.
                return false;
            }
            sh.map.remove(&vk);
            self.resident.fetch_sub(vb, Ordering::SeqCst);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.evicted_bytes.fetch_add(vb as u64, Ordering::Relaxed);
            h2_telemetry::counter_add!("cache.evict_bytes", vb as u64);
        }
    }

    /// Inserts a pre-generated block as a pinned (never-evicted) entry at
    /// epoch 0. Returns `false` when it does not fit the remaining budget,
    /// is empty, or the key is already resident.
    pub fn pin(&self, kind: BlockKind, i: NodeId, j: NodeId, block: MatrixS<S>) -> bool {
        self.pin_at(kind, i, j, 0, block)
    }

    /// Like [`Self::pin`], at an explicit epoch (the warmup path of an
    /// updated operator pins under the node pair's current epoch).
    pub fn pin_at(
        &self,
        kind: BlockKind,
        i: NodeId,
        j: NodeId,
        epoch: u64,
        block: MatrixS<S>,
    ) -> bool {
        assert!(i <= j, "cache keys are canonical (i <= j)");
        let bytes = block.bytes();
        if bytes == 0 {
            return false;
        }
        let pair = (kind, i, j);
        let key = (kind, i, j, epoch);
        let shard = &self.shards[self.shard_for(&pair)];
        let mut sh = shard.lock().unwrap();
        if sh.map.contains_key(&key) {
            return false;
        }
        if !self.try_reserve(bytes) {
            return false;
        }
        self.pinned.fetch_add(bytes, Ordering::SeqCst);
        sh.map.insert(
            key,
            Entry {
                block: Arc::new(block),
                bytes,
                pinned: true,
                last_use: self.next_tick(),
            },
        );
        self.insertions.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Greedy first-fit warmup plan: walks `(kind, i, j, bytes)` items in
    /// the order given (callers pass sweep-execution order), canonicalizes
    /// and dedups keys, and selects those that fit the remaining budget.
    /// Nothing is materialized — callers generate exactly the chosen blocks
    /// and [`Self::pin`] them.
    pub fn plan_pins(
        &self,
        items: impl IntoIterator<Item = (BlockKind, NodeId, NodeId, usize)>,
    ) -> Vec<(BlockKind, NodeId, NodeId)> {
        let mut chosen = Vec::new();
        let mut seen = HashSet::new();
        let mut acc = self.resident_bytes();
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

    /// Eagerly removes every resident entry of the pair `(kind, i, j)`
    /// whose key epoch is **below** `epoch` — the per-node purge an
    /// operator update runs so a long-lived cache does not fill with dead
    /// epochs while it waits for LRU pressure. Pinned entries are purged
    /// too (a stale pin is dead weight). Returns the number of entries
    /// removed.
    pub fn purge_below(&self, kind: BlockKind, i: NodeId, j: NodeId, epoch: u64) -> usize {
        let pair = canonical(kind, i, j);
        let mut sh = self.shards[self.shard_for(&pair)].lock().unwrap();
        let stale: Vec<Key> = sh
            .map
            .keys()
            .filter(|k| (k.0, k.1, k.2) == pair && k.3 < epoch)
            .copied()
            .collect();
        let removed = stale.len();
        for k in stale {
            let e = sh.map.remove(&k).expect("key collected under this lock");
            self.resident.fetch_sub(e.bytes, Ordering::SeqCst);
            if e.pinned {
                self.pinned.fetch_sub(e.bytes, Ordering::SeqCst);
            }
            self.stale_purged.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// Every resident key, unordered — a diagnostic for tests asserting no
    /// stale-epoch entry survives an update's purge.
    pub fn keys(&self) -> Vec<(BlockKind, NodeId, NodeId, u64)> {
        self.shards
            .iter()
            .flat_map(|s| s.lock().unwrap().map.keys().copied().collect::<Vec<_>>())
            .collect()
    }

    /// Snapshot of counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            evicted_bytes: self.evicted_bytes.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            stale_purged: self.stale_purged.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.lock().unwrap().map.len())
                .sum(),
            resident_bytes: self.resident_bytes(),
            pinned_bytes: self.pinned_bytes(),
            budget_bytes: self.budget,
        }
    }

    /// Zeroes the request/eviction counters (occupancy is untouched) — used
    /// between measured phases of the budget-sweep bench.
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.insertions.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.evicted_bytes.store(0, Ordering::Relaxed);
        self.rejected.store(0, Ordering::Relaxed);
        self.stale_purged.store(0, Ordering::Relaxed);
    }
}

fn canonical(kind: BlockKind, i: NodeId, j: NodeId) -> Pair {
    if i <= j {
        (kind, i, j)
    } else {
        (kind, j, i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_linalg::Matrix;

    fn block(i: NodeId, j: NodeId, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            (i * 31 + j * 7) as f64 + r as f64 * 0.5 - c as f64 * 0.25
        })
    }

    const B44: usize = 4 * 4 * 8; // bytes of a 4x4 f64 block

    fn get(cache: &BlockCache<f64>, i: NodeId, j: NodeId) -> Arc<Matrix> {
        cache.get_or_generate(BlockKind::Coupling, i, j, || block(i, j, 4, 4))
    }

    #[test]
    fn hit_after_miss_and_stats() {
        let cache = BlockCache::<f64>::new(10 * B44);
        let a = get(&cache, 0, 1);
        let b = get(&cache, 0, 1);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.resident_bytes, B44);
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
    }

    #[test]
    fn budget_invariant_and_lru_eviction() {
        // Room for exactly 2 blocks; single shard so eviction is forced.
        let cache = BlockCache::<f64>::with_shards(2 * B44, 1);
        get(&cache, 0, 1);
        get(&cache, 0, 2);
        assert_eq!(cache.resident_bytes(), 2 * B44);
        // Touch (0,1) so (0,2) is the LRU victim.
        get(&cache, 0, 1);
        get(&cache, 0, 3);
        assert!(cache.resident_bytes() <= cache.budget_bytes());
        assert!(cache.contains(BlockKind::Coupling, 0, 1));
        assert!(cache.contains(BlockKind::Coupling, 0, 3));
        assert!(!cache.contains(BlockKind::Coupling, 0, 2));
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.evicted_bytes, B44 as u64);
    }

    #[test]
    fn admission_keeps_hotter_entries() {
        let cache = BlockCache::<f64>::with_shards(B44, 1);
        // Make (5, 9) hot: 3 requests.
        for _ in 0..3 {
            get(&cache, 5, 9);
        }
        // A cold newcomer must not displace it.
        let first = get(&cache, 5, 10);
        assert!(cache.contains(BlockKind::Coupling, 5, 9));
        assert!(!cache.contains(BlockKind::Coupling, 5, 10));
        assert!(cache.stats().rejected >= 1);
        // Once the newcomer has been requested more often, it may.
        for _ in 0..4 {
            get(&cache, 5, 10);
        }
        assert!(cache.contains(BlockKind::Coupling, 5, 10));
        assert!(!cache.contains(BlockKind::Coupling, 5, 9));
        // The uncached fetches still returned the right panel.
        assert_eq!(first.as_slice(), block(5, 10, 4, 4).as_slice());
    }

    #[test]
    fn oversized_blocks_bypass_the_cache() {
        let cache = BlockCache::<f64>::new(B44 / 2);
        let b = get(&cache, 1, 2);
        assert_eq!(b.as_slice(), block(1, 2, 4, 4).as_slice());
        assert_eq!(cache.resident_bytes(), 0);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn empty_blocks_are_never_cached() {
        let cache = BlockCache::<f64>::new(10 * B44);
        let b = cache.get_or_generate(BlockKind::Coupling, 2, 3, || Matrix::zeros(0, 0));
        assert!(b.is_empty());
        assert_eq!(cache.stats().entries, 0);
        assert!(!cache.pin(BlockKind::Nearfield, 2, 3, Matrix::zeros(0, 5)));
    }

    #[test]
    fn pinned_entries_survive_pressure() {
        let cache = BlockCache::<f64>::with_shards(2 * B44, 1);
        assert!(cache.pin(BlockKind::Coupling, 0, 1, block(0, 1, 4, 4)));
        assert_eq!(cache.pinned_bytes(), B44);
        // Hammer with distinct cold keys; the pin must never leave.
        for j in 2..30 {
            get(&cache, 0, j);
            assert!(cache.contains(BlockKind::Coupling, 0, 1));
            assert!(cache.resident_bytes() <= cache.budget_bytes());
        }
        // Pinning over budget or a duplicate fails.
        assert!(!cache.pin(BlockKind::Coupling, 0, 1, block(0, 1, 4, 4)));
        let cache2 = BlockCache::<f64>::new(B44 - 1);
        assert!(!cache2.pin(BlockKind::Coupling, 0, 1, block(0, 1, 4, 4)));
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
        get(&cache, 3, 7);
        assert!(cache.contains(BlockKind::Coupling, 7, 3));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn reset_counters_keeps_occupancy() {
        let cache = BlockCache::<f64>::new(10 * B44);
        get(&cache, 0, 1);
        get(&cache, 0, 1);
        cache.reset_counters();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
        assert_eq!(s.entries, 1);
        assert_eq!(s.resident_bytes, B44);
    }

    #[test]
    fn merged_stats_add_up() {
        let a = CacheStats {
            hits: 1,
            misses: 2,
            insertions: 3,
            evictions: 4,
            evicted_bytes: 5,
            rejected: 6,
            stale_purged: 11,
            entries: 7,
            resident_bytes: 8,
            pinned_bytes: 9,
            budget_bytes: 10,
        };
        let m = a.merged(a);
        assert_eq!(m.hits, 2);
        assert_eq!(m.budget_bytes, 20);
        assert_eq!(m.resident_bytes, 16);
        assert_eq!(m.stale_purged, 22);
    }

    #[test]
    fn epochs_partition_one_pair() {
        let cache = BlockCache::<f64>::new(10 * B44);
        let old = cache.get_or_generate_at(BlockKind::Coupling, 0, 1, 0, || block(0, 1, 4, 4));
        // A bumped epoch misses — a stale block can never be served.
        let new = cache.get_or_generate_at(BlockKind::Coupling, 0, 1, 1, || block(9, 9, 4, 4));
        assert!(!Arc::ptr_eq(&old, &new));
        assert_eq!(new.as_slice(), block(9, 9, 4, 4).as_slice());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 2));
        assert!(cache.contains_at(BlockKind::Coupling, 0, 1, 0));
        assert!(cache.contains_at(BlockKind::Coupling, 0, 1, 1));
        // Same epoch still hits.
        let again = cache.get_or_generate_at(BlockKind::Coupling, 0, 1, 1, || unreachable!());
        assert!(Arc::ptr_eq(&new, &again));
    }

    #[test]
    fn purge_below_drops_stale_epochs_only() {
        let cache = BlockCache::<f64>::with_shards(10 * B44, 1);
        for e in 0..3 {
            cache.get_or_generate_at(BlockKind::Coupling, 2, 5, e, || block(2, 5, 4, 4));
        }
        cache.get_or_generate_at(BlockKind::Coupling, 2, 6, 0, || block(2, 6, 4, 4));
        assert_eq!(cache.stats().entries, 4);
        // Purge accepts either pair orientation.
        assert_eq!(cache.purge_below(BlockKind::Coupling, 5, 2, 2), 2);
        let keys = cache.keys();
        assert_eq!(keys.len(), 2);
        assert!(keys.contains(&(BlockKind::Coupling, 2, 5, 2)));
        assert!(keys.contains(&(BlockKind::Coupling, 2, 6, 0)));
        let s = cache.stats();
        assert_eq!(s.stale_purged, 2);
        assert_eq!(s.resident_bytes, 2 * B44);
        // Idempotent: nothing stale left.
        assert_eq!(cache.purge_below(BlockKind::Coupling, 2, 5, 2), 0);
    }

    #[test]
    fn purge_releases_pinned_bytes() {
        let cache = BlockCache::<f64>::new(10 * B44);
        assert!(cache.pin_at(BlockKind::Nearfield, 1, 1, 3, block(1, 1, 4, 4)));
        assert_eq!(cache.pinned_bytes(), B44);
        assert_eq!(cache.purge_below(BlockKind::Nearfield, 1, 1, 4), 1);
        assert_eq!(cache.pinned_bytes(), 0);
        assert_eq!(cache.resident_bytes(), 0);
        // The freed budget is reusable.
        assert!(cache.pin_at(BlockKind::Nearfield, 1, 1, 4, block(1, 1, 4, 4)));
    }

    /// Satellite: hammer one cache from many threads. The budget invariant
    /// must hold at every observation point and every returned panel must
    /// be exactly the generated content (no torn blocks).
    #[test]
    fn concurrent_hammer_holds_invariant_and_content() {
        let cache = Arc::new(BlockCache::<f64>::new(5 * B44));
        let nkeys = 40usize;
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    let mut state = t.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                    for _ in 0..400 {
                        // Cheap xorshift key choice (deterministic per thread).
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let i = (state % nkeys as u64) as usize;
                        let j = i + 1 + (state >> 32) as usize % 3;
                        let got =
                            cache.get_or_generate(BlockKind::Nearfield, i, j, || block(i, j, 4, 4));
                        assert_eq!(got.as_slice(), block(i, j, 4, 4).as_slice());
                        assert!(
                            cache.resident_bytes() <= cache.budget_bytes(),
                            "budget invariant violated"
                        );
                    }
                });
            }
        });
        let s = cache.stats();
        assert!(s.resident_bytes <= s.budget_bytes);
        assert_eq!(s.hits + s.misses, 8 * 400);
    }
}
