//! Names no program path calls, kept for h2bench (`benchmark/`): thin
//! adapters over the block table and the sweeps' own fetch, so a probe
//! still times program code, and the pin map of its cache probe.

use crate::cache::{BlockKind, BlockTable};
use crate::sweep::{fetch, Scratch};
use crate::{diagnostics::BlockTally, h2matrix::H2MatrixS};
use h2_linalg::{panel, MatrixS, Scalar};
use h2_points::NodeId;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Blocks pinned under a byte budget through `&self`, each under its
/// canonical pair: the cache probe of `benchmark/src/probes.rs`, and
/// nothing else. No operator reads it (an operator holds its blocks in its
/// [`BlockTable`]); ROADMAP item 1a deletes it.
pub struct BlockCache<S: Scalar> {
    budget: usize,
    pinned: Mutex<Pinned<S>>,
}

/// The pinned blocks by `(kind, i, j)`.
type Pinned<S> = BTreeMap<(BlockKind, NodeId, NodeId), Arc<MatrixS<S>>>;

impl<S: Scalar> BlockCache<S> {
    /// Nothing pinned, under `budget_bytes`.
    pub fn new(budget_bytes: usize) -> Self {
        BlockCache {
            budget: budget_bytes,
            pinned: Mutex::new(BTreeMap::new()),
        }
    }

    fn pinned(&self) -> MutexGuard<'_, Pinned<S>> {
        self.pinned.lock().expect("a pin panicked inside the cache")
    }

    /// Pins `block` under the canonical pair `(i, j)` if none is pinned
    /// there and it is not empty and fits what is left of the budget.
    pub fn pin(&self, kind: BlockKind, i: NodeId, j: NodeId, block: MatrixS<S>) -> bool {
        assert!(i <= j, "pinned pairs are canonical (i <= j)");
        let mut pinned = self.pinned();
        let resident: usize = pinned.values().map(|b| b.bytes()).sum();
        let bytes = block.bytes();
        let fits = bytes > 0 && resident + bytes <= self.budget;
        let free = !pinned.contains_key(&(kind, i, j));
        if fits && free {
            pinned.insert((kind, i, j), Arc::new(block));
        }
        fits && free
    }

    /// The block pinned under `(i, j)`, or the block `generate` makes,
    /// outside the lock.
    pub fn get_or_generate(
        &self,
        kind: BlockKind,
        i: NodeId,
        j: NodeId,
        generate: impl FnOnce() -> MatrixS<S>,
    ) -> Arc<MatrixS<S>> {
        let held = self.pinned().get(&(kind, i, j)).cloned();
        held.unwrap_or_else(|| Arc::new(generate()))
    }
}

impl<S: Scalar> BlockTable<S> {
    /// [`Self::get_at`], or the block `generate` makes. Held by
    /// `benchmark/src/replay.rs`.
    #[doc(hidden)]
    pub fn get_or_generate_at(
        &self,
        kind: BlockKind,
        i: NodeId,
        j: NodeId,
        epoch: u64,
        generate: impl FnOnce() -> MatrixS<S>,
    ) -> Arc<MatrixS<S>> {
        let held = self.get_at(kind, i, j, epoch);
        held.unwrap_or_else(|| Arc::new(generate()))
    }
}

/// One family of an operator's table, as h2bench reads it.
pub struct Store<'a, S: Scalar>(&'a BlockTable<S>, BlockKind);

impl<'a, S: Scalar> Store<'a, S> {
    /// [`BlockTable::stored_blocks`]. Held by `benchmark/src/replay.rs`.
    pub fn blocks(&self) -> Option<Vec<&'a MatrixS<S>>> {
        self.0.stored_blocks(self.1)
    }
}

impl<S: Scalar> H2MatrixS<S> {
    /// The coupling family of the block table. Held by
    /// `benchmark/src/replay.rs`.
    #[doc(hidden)]
    pub fn coupling_store(&self) -> Store<'_, S> {
        Store(&self.table, BlockKind::Coupling)
    }

    /// The nearfield family, likewise.
    #[doc(hidden)]
    pub fn nearfield_store(&self) -> Store<'_, S> {
        Store(&self.table, BlockKind::Nearfield)
    }

    /// The coefficient block of the leaf basis `U_i`
    /// ([`h2_linalg::BasisMatrix::coefficients`]): its rows that are not
    /// unit rows, in row order, or all of `U_i` when it is not split. Held
    /// by `benchmark/src/replay.rs`.
    #[doc(hidden)]
    pub fn leaf_basis(&self, i: NodeId) -> &MatrixS<S> {
        self.bases[i].coefficients()
    }

    /// The coefficient block of the transfer `R_i`, likewise. Held by
    /// `benchmark/src/replay.rs`.
    #[doc(hidden)]
    pub fn transfer(&self, i: NodeId) -> &MatrixS<S> {
        self.transfers[i].coefficients()
    }

    /// `y += B_{i,j} x`, either orientation, through the sweeps' fetch
    /// (the table is the operator's own; `_cache` is ignored). Held by
    /// `benchmark/src/replay.rs`.
    #[doc(hidden)]
    pub fn apply_coupling_with<A: Scalar>(
        &self,
        _cache: Option<&BlockTable<S>>,
        _scratch: bool,
        i: NodeId,
        j: NodeId,
        x: &[A],
        y: &mut [A],
    ) {
        self.apply_block_with(BlockKind::Coupling, (i, j), x, y);
    }

    /// `y += K(X_i, X_j) x`, likewise. Held by `benchmark/src/replay.rs`.
    #[doc(hidden)]
    pub fn apply_nearfield_with<A: Scalar>(
        &self,
        _cache: Option<&BlockTable<S>>,
        _scratch: bool,
        i: NodeId,
        j: NodeId,
        x: &[A],
        y: &mut [A],
    ) {
        self.apply_block_with(BlockKind::Nearfield, (i, j), x, y);
    }

    /// `Bᵀ` of the canonical block when `i > j`.
    fn apply_block_with<A: Scalar>(
        &self,
        kind: BlockKind,
        (i, j): (NodeId, NodeId),
        x: &[A],
        y: &mut [A],
    ) {
        let (slot, transposed) = self.table.slot(kind, i, j).expect("a listed pair");
        let (lo, hi) = (i.min(j), i.max(j));
        let (mut s, mut tally) = (Scratch::default(), BlockTally::default());
        let b = fetch(self, kind, (slot, lo, hi), &mut s, &mut tally);
        let (rows, cols) = self.block_shape(kind, lo, hi);
        if transposed {
            panel::matmat_t_acc(b, rows, cols, 1, x, y);
        } else {
            panel::matmat_acc(b, rows, cols, 1, x, y);
        }
        tally.record(self);
    }
}

#[cfg(test)]
mod tests {
    use super::BlockCache;
    use crate::cache::{BlockKind, CacheBudget};
    use crate::config::{BasisMethod, H2Config, MemoryMode};
    use crate::error_est::probe_vector;
    use crate::h2matrix::H2Matrix;
    use h2_kernels::Coulomb;
    use h2_linalg::scalar::bits;
    use h2_linalg::{panel, Matrix};
    use std::sync::Arc;

    #[test]
    fn pins_hold_what_fits_once() {
        const B44: usize = 4 * 4 * 8;
        let cache = BlockCache::<f64>::new(2 * B44);
        assert!(cache.pin(BlockKind::Coupling, 0, 1, Matrix::zeros(4, 4)));
        assert!(
            !cache.pin(BlockKind::Coupling, 0, 1, Matrix::zeros(4, 4)),
            "held"
        );
        assert!(
            !cache.pin(BlockKind::Coupling, 0, 2, Matrix::zeros(8, 4)),
            "too big"
        );
        assert!(
            !cache.pin(BlockKind::Nearfield, 2, 2, Matrix::zeros(0, 3)),
            "empty"
        );
        assert!(cache.pin(BlockKind::Nearfield, 0, 1, Matrix::zeros(4, 4)));
        let a = cache.get_or_generate(BlockKind::Coupling, 0, 1, || unreachable!());
        let b = cache.get_or_generate(BlockKind::Coupling, 0, 1, || unreachable!());
        assert!(Arc::ptr_eq(&a, &b), "a pinned block is shared");
        let made = cache.get_or_generate(BlockKind::Coupling, 0, 2, || Matrix::zeros(2, 2));
        assert_eq!(made.shape(), (2, 2));
    }

    #[test]
    fn get_or_generate_at_counts_as_get_at() {
        let pts = h2_points::gen::uniform_cube(800, 3, 4);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-6, 3),
            mode: MemoryMode::OnTheFly,
            leaf_size: 64,
            cache_budget: CacheBudget::Ratio(0.5),
            ..H2Config::default()
        };
        let h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg);
        let table = h2.table();
        let held = table.keys();
        let before = table.stats();
        let mut hits = 0;
        let lists = h2.lists();
        let pairs = (lists
            .interaction_pairs
            .iter()
            .map(|&p| (BlockKind::Coupling, p)))
        .chain(
            lists
                .nearfield_pairs
                .iter()
                .map(|&p| (BlockKind::Nearfield, p)),
        );
        for (kind, (i, j)) in pairs {
            let at = h2.pair_epoch(i, j);
            // A held block is never empty: the empty stand-in marks a miss.
            let got = table.get_or_generate_at(kind, i, j, at, || Matrix::zeros(0, 0));
            let hit = got.nrows() * got.ncols() > 0;
            assert_eq!(hit, held.binary_search(&(kind, i, j, at)).is_ok());
            hits += hit as u64;
        }
        let (s, listed) = (
            table.stats(),
            lists.interaction_pairs.len() + lists.nearfield_pairs.len(),
        );
        assert_eq!(s.hits - before.hits, hits);
        assert_eq!(s.misses - before.misses, listed as u64 - hits);
        assert!(
            hits > 0 && hits < listed as u64,
            "half a budget hits and misses"
        );
    }

    #[test]
    fn apply_with_has_the_bits_of_the_block_apply() {
        let pts = h2_points::gen::uniform_cube(1200, 3, 4);
        for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
            let cfg = H2Config {
                basis: BasisMethod::data_driven_for_tol(1e-6, 3),
                mode,
                leaf_size: 64,
                ..H2Config::default()
            };
            let mut h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg);
            h2.set_cache_budget(CacheBudget::Ratio(0.5));
            let lists = h2.lists().clone();
            let (tree, cache) = (h2.tree(), h2.cache().map(|c| &**c));
            let pairs = (lists
                .interaction_pairs
                .iter()
                .map(|&p| (BlockKind::Coupling, p)))
            .chain(
                lists
                    .nearfield_pairs
                    .iter()
                    .map(|&p| (BlockKind::Nearfield, p)),
            );
            let mut checked = 0;
            for (kind, (i, j)) in pairs.step_by(7) {
                for (a, b) in [(i, j), (j, i)] {
                    let (cols, rows) = match kind {
                        BlockKind::Coupling => (h2.rank(b), h2.rank(a)),
                        BlockKind::Nearfield => (tree.node(b).len(), tree.node(a).len()),
                    };
                    let x = probe_vector(cols, (a * 31 + b) as u64);
                    let (mut got, mut want) = (vec![0.5; rows], vec![0.5; rows]);
                    // A held block or a materialized one, whatever `cache` says.
                    match kind {
                        BlockKind::Coupling => {
                            h2.apply_coupling_with(cache, true, a, b, &x, &mut got)
                        }
                        BlockKind::Nearfield => {
                            h2.apply_nearfield_with(cache, true, a, b, &x, &mut got)
                        }
                    }
                    let block = h2.generate_block(kind, i, j);
                    let (r, c) = (block.nrows(), block.ncols());
                    if a > b {
                        panel::matmat_t_acc(block.as_slice(), r, c, 1, &x, &mut want);
                    } else {
                        panel::matmat_acc(block.as_slice(), r, c, 1, &x, &mut want);
                    }
                    assert_eq!(bits(&got), bits(&want), "{mode:?} {kind:?} ({a}, {b})");
                    checked += 1;
                }
            }
            assert!(checked > 20, "{mode:?}: {checked} blocks");
        }
    }
}
