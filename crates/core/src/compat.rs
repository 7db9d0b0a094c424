//! Names no program path calls, kept for h2bench (`benchmark/`): thin
//! adapters over the sweeps' own fetch, so a probe still times program code.

use crate::cache::{BlockCache, BlockKind};
use crate::sweep::{fetch, Scratch};
use crate::{diagnostics::BlockTally, h2matrix::H2MatrixS};
use h2_linalg::{panel, MatrixS, Scalar};
use h2_points::NodeId;
use std::sync::Arc;

impl<S: Scalar> BlockCache<S> {
    /// [`Self::get_or_generate_at`] at epoch 0. Held by `benchmark/src/probes.rs`.
    #[doc(hidden)]
    pub fn get_or_generate(
        &self,
        kind: BlockKind,
        i: NodeId,
        j: NodeId,
        generate: impl FnOnce() -> MatrixS<S>,
    ) -> Arc<MatrixS<S>> {
        self.get_or_generate_at(kind, i, j, 0, generate)
    }

    /// [`Self::get_at`], or the block `generate` makes. Held by `benchmark/src/replay.rs`.
    #[doc(hidden)]
    pub fn get_or_generate_at(
        &self,
        kind: BlockKind,
        i: NodeId,
        j: NodeId,
        epoch: u64,
        generate: impl FnOnce() -> MatrixS<S>,
    ) -> Arc<MatrixS<S>> {
        let resident = self.get_at(kind, i, j, epoch);
        resident.unwrap_or_else(|| Arc::new(generate()))
    }
}

impl<S: Scalar> H2MatrixS<S> {
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

    /// `y += B_{i,j} x`, either orientation, through the sweeps' fetch with
    /// `cache` as its middle tier. Held by `benchmark/src/replay.rs`.
    #[doc(hidden)]
    pub fn apply_coupling_with<A: Scalar>(
        &self,
        cache: Option<&BlockCache<S>>,
        _scratch: bool,
        i: NodeId,
        j: NodeId,
        x: &[A],
        y: &mut [A],
    ) {
        self.apply_block_with(cache, BlockKind::Coupling, (i, j), x, y);
    }

    /// `y += K(X_i, X_j) x`, likewise. Held by `benchmark/src/replay.rs`.
    #[doc(hidden)]
    pub fn apply_nearfield_with<A: Scalar>(
        &self,
        cache: Option<&BlockCache<S>>,
        _scratch: bool,
        i: NodeId,
        j: NodeId,
        x: &[A],
        y: &mut [A],
    ) {
        self.apply_block_with(cache, BlockKind::Nearfield, (i, j), x, y);
    }

    /// `Bᵀ` of the canonical block when `i > j`.
    fn apply_block_with<A: Scalar>(
        &self,
        cache: Option<&BlockCache<S>>,
        kind: BlockKind,
        (i, j): (NodeId, NodeId),
        x: &[A],
        y: &mut [A],
    ) {
        let (lo, hi) = (i.min(j), i.max(j));
        let store = match kind {
            BlockKind::Coupling => &self.coupling,
            BlockKind::Nearfield => &self.nearfield,
        };
        let resident = store.block(lo, hi).map(|(block, _)| block);
        let (mut s, mut tally) = (Scratch::default(), BlockTally::default());
        let block = fetch(self, cache, kind, (lo, hi), resident, &mut s, &mut tally);
        tally.record();
        let (b, (rows, cols)) = (block.as_slice(), self.block_shape(kind, lo, hi));
        if i > j {
            panel::matmat_t_acc(b, rows, cols, 1, x, y);
        } else {
            panel::matmat_acc(b, rows, cols, 1, x, y);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::cache::{BlockCache, BlockKind, CacheBudget};
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
            let got =
                shim.get_or_generate_at(BlockKind::Coupling, i, j, epoch, || Matrix::zeros(2, 2));
            let resident = direct.get_at(BlockKind::Coupling, i, j, epoch);
            assert_eq!(got.nrows(), resident.map_or(2, |b| b.nrows()));
        }
        shim.get_or_generate(BlockKind::Nearfield, 2, 2, || Matrix::zeros(1, 1));
        direct.get_at(BlockKind::Nearfield, 2, 2, 0);
        let (a, b) = (shim.stats(), direct.stats());
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
                    // Through the cached tier (a hit or a miss) and without it.
                    let tier = if checked % 2 == 0 { cache } else { None };
                    match kind {
                        BlockKind::Coupling => {
                            h2.apply_coupling_with(tier, true, a, b, &x, &mut got)
                        }
                        BlockKind::Nearfield => {
                            h2.apply_nearfield_with(tier, true, a, b, &x, &mut got)
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
