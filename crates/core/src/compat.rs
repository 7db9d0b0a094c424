//! Names no program path calls, kept for h2bench (`benchmark/`): thin
//! adapters over the block table and the sweeps' own fetch, so a probe
//! still times program code.

use crate::cache::{BlockKind, BlockTable};
use crate::sweep::{fetch, Scratch};
use crate::{diagnostics::BlockTally, h2matrix::H2MatrixS};
use h2_linalg::{panel, MatrixS, Scalar};
use h2_points::NodeId;
use std::sync::{Arc, Mutex, MutexGuard};

/// The block table behind a lock, for a caller that pins blocks through
/// `&self`. Held by `benchmark/src/probes.rs`.
pub type BlockCache<S> = Locked<BlockTable<S>>;

/// A value behind a mutex.
pub struct Locked<T>(Mutex<T>);

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

impl<S: Scalar> Locked<BlockTable<S>> {
    /// An empty table of `budget_bytes` that [`Self::pin`] lists pairs on.
    pub fn new(budget_bytes: usize) -> Self {
        Locked(Mutex::new(BlockTable::listed(
            [&[], &[]],
            Some(budget_bytes),
        )))
    }

    fn table(&self) -> MutexGuard<'_, BlockTable<S>> {
        self.0.lock().expect("a pin panicked inside the table")
    }

    /// Lists the canonical pair `(i, j)` and holds `block` there at epoch
    /// 0, if the slot is empty and the block fits what is left of the
    /// budget.
    pub fn pin(&self, kind: BlockKind, i: NodeId, j: NodeId, block: MatrixS<S>) -> bool {
        self.table().hold(kind, (i, j), 0, Arc::new(block))
    }

    /// [`BlockTable::get_or_generate_at`] at epoch 0, the block generated
    /// outside the lock.
    pub fn get_or_generate(
        &self,
        kind: BlockKind,
        i: NodeId,
        j: NodeId,
        generate: impl FnOnce() -> MatrixS<S>,
    ) -> Arc<MatrixS<S>> {
        let held = self.table().get_at(kind, i, j, 0);
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

    /// The dense storage of the leaf basis `U_i`'s coefficient rows
    /// ([`h2_linalg::BasisMatrix::coefficients`]). Held by
    /// `benchmark/src/replay.rs`.
    #[doc(hidden)]
    pub fn leaf_basis(&self, i: NodeId) -> &MatrixS<S> {
        self.bases[i].coefficients()
    }

    /// The dense storage of the transfer `R_i`'s coefficient rows,
    /// likewise. Held by `benchmark/src/replay.rs`.
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
        let (lo, hi) = (i.min(j), i.max(j));
        let (slot, _) = self
            .table
            .pair_index(kind)
            .slot(lo, hi)
            .expect("a listed pair");
        let (mut s, mut tally) = (Scratch::default(), BlockTally::default());
        let b = fetch(self, kind, (slot, lo, hi), &mut s, &mut tally);
        let (rows, cols) = self.block_shape(kind, lo, hi);
        if i > j {
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
    fn get_or_generate_counts_as_get_at() {
        let (shim, direct) = (BlockCache::<f64>::new(1 << 20), BlockCache::new(1 << 20));
        for cache in [&shim, &direct] {
            assert!(cache.pin(BlockKind::Coupling, 0, 1, Matrix::zeros(4, 4)));
        }
        let requests = [(0, 1, 0), (0, 1, 0), (0, 2, 0), (0, 1, 1), (1, 3, 0)];
        for (i, j, epoch) in requests {
            let got = shim
                .table()
                .get_or_generate_at(BlockKind::Coupling, i, j, epoch, || Matrix::zeros(2, 2));
            let resident = direct.table().get_at(BlockKind::Coupling, i, j, epoch);
            assert_eq!(got.nrows(), resident.map_or(2, |b| b.nrows()));
        }
        shim.get_or_generate(BlockKind::Nearfield, 2, 2, || Matrix::zeros(1, 1));
        direct.table().get_at(BlockKind::Nearfield, 2, 2, 0);
        let (a, b) = (shim.table().stats(), direct.table().stats());
        assert_eq!((a.hits, a.misses), (b.hits, b.misses));
        assert_eq!((a.hits, a.misses), (2, 4));
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
