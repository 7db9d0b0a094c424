//! The H² matrix type and its parallel matrix-vector product (the paper's
//! Algorithm 2).

use crate::builders::BuildStats;
use crate::cache::table::Source;
use crate::cache::{BlockKind, BlockTable, CacheBudget, CacheStats};
use crate::config::MemoryMode;
use crate::diagnostics::BlockTally;
use crate::memory::MemoryReport;
use crate::proxy::ProxyPoints;
use crate::sweep::SweepPlan;
use h2_kernels::Kernel;
use h2_linalg::{exec, BasisMatrix, Matrix, MatrixS, Scalar, SlabMem};
use h2_points::admissibility::BlockLists;
use h2_points::{ClusterTree, NodeId, PointSet};
use std::sync::Arc;

/// An H² approximation of the kernel matrix `A = [K(x_i, x_j)]`, generic
/// over the storage scalar `S` (`f64` or `f32`).
///
/// Built by [`H2MatrixS::build`]; applied with [`H2MatrixS::matvec`]. The
/// matrix indexes vectors in the *original* point order (permutation
/// handling is internal).
///
/// The apply routines take an independent *accumulator* scalar `A`: an
/// `H2MatrixS<f32>` applied to `&[f64]` vectors is the workspace's
/// mixed-precision mode (every sweep partial carried in `f64`, storage
/// traffic in `f32`). The construction pipeline itself always factors in
/// `f64` and rounds generators once at assembly, so the same points and
/// tolerance produce structurally identical operators across precisions.
#[derive(Clone)]
pub struct H2MatrixS<S: Scalar = f64> {
    pub(crate) tree: ClusterTree,
    /// The interaction/nearfield lists, shared with the table, whose slots
    /// are their positions.
    pub(crate) lists: Arc<BlockLists>,
    pub(crate) kernel: Arc<dyn Kernel>,
    /// Leaf bases `U_i` (empty matrices for internal nodes).
    pub(crate) bases: Vec<BasisMatrix<S>>,
    /// Transfer matrices `R_c` (`rank_c x rank_parent`; empty for the root).
    pub(crate) transfers: Vec<BasisMatrix<S>>,
    /// Per-node proxy points (skeletons or grids).
    pub(crate) proxies: Vec<ProxyPoints>,
    /// Per-node ranks.
    pub(crate) ranks: Vec<usize>,
    /// The listed pairs and the blocks held for them: every one in normal
    /// mode, the first fit of a [`CacheBudget`] on the fly.
    pub(crate) table: Arc<BlockTable<S>>,
    /// Which construction pipeline produced the generators.
    pub(crate) provenance: crate::config::BuilderProvenance,
    pub(crate) stats: BuildStats,
    /// Monotonic update epoch: 0 at construction, bumped once per applied
    /// incremental update batch (see [`crate::update`]). Part of every
    /// held block's key, so stale blocks can never satisfy a post-update
    /// fetch.
    pub(crate) epoch: u64,
    /// Per-node epochs: the operator epoch at which each node's blocks
    /// last changed. A pair's epoch is the max over its endpoints.
    pub(crate) node_epochs: Vec<u64>,
    /// Incremental-update bookkeeping (maintained surrogate table, policy);
    /// initialized lazily by the first update.
    pub(crate) update: Option<crate::update::UpdateState>,
}

/// The double-precision H² matrix most call sites use.
pub type H2Matrix = H2MatrixS<f64>;

/// Every listed block as a `(kind, i, j)` key: the interaction pairs, then
/// the nearfield pairs, each in list order.
pub(crate) fn listed_blocks(
    lists: &BlockLists,
) -> impl Iterator<Item = (BlockKind, NodeId, NodeId)> + '_ {
    let coupling = lists.interaction_pairs.iter();
    let nearfield = lists.nearfield_pairs.iter();
    (coupling.map(|&(i, j)| (BlockKind::Coupling, i, j)))
        .chain(nearfield.map(|&(i, j)| (BlockKind::Nearfield, i, j)))
}

/// The first `len` entries of `buf`, which grows (with default values) only
/// when it is shorter: scratch for a block whose every entry is about to be
/// written, not refilled per block.
pub(crate) fn sized<T: Copy + Default>(buf: &mut Vec<T>, len: usize) -> &mut [T] {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
    &mut buf[..len]
}

impl<S: Scalar> H2MatrixS<S> {
    /// Builds an H² matrix for the kernel over the points with the given
    /// configuration (see [`crate::config::H2Config`]). Requires a symmetric
    /// kernel (all kernels in `h2-kernels` are).
    pub fn build(
        points: &PointSet,
        kernel: Arc<dyn Kernel>,
        cfg: &crate::config::H2Config,
    ) -> H2MatrixS<S> {
        crate::builders::build::<S>(points, kernel, cfg)
    }

    /// Matrix dimension (number of points).
    pub fn n(&self) -> usize {
        self.tree.points().len()
    }

    /// Spatial dimension of the underlying points.
    pub fn dim(&self) -> usize {
        self.tree.points().dim()
    }

    /// The cluster tree.
    pub fn tree(&self) -> &ClusterTree {
        &self.tree
    }

    /// The interaction/nearfield lists.
    pub fn lists(&self) -> &BlockLists {
        &self.lists
    }

    /// The kernel.
    pub fn kernel(&self) -> &dyn Kernel {
        self.kernel.as_ref()
    }

    /// The memory mode this matrix was built with: normal when its table
    /// holds every listed block.
    pub fn mode(&self) -> MemoryMode {
        match self.table.budget() {
            None => MemoryMode::Normal,
            Some(_) => MemoryMode::OnTheFly,
        }
    }

    /// Per-node approximation ranks.
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// Rank of one node.
    pub fn rank(&self, i: NodeId) -> usize {
        self.ranks[i]
    }

    /// Construction timing breakdown.
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// How this operator's generators were constructed.
    pub fn provenance(&self) -> crate::config::BuilderProvenance {
        self.provenance
    }

    /// The operator's update epoch (0 for a freshly built or loaded
    /// operator; bumped once per applied incremental update).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Per-node update epochs (the epoch at which each node's blocks last
    /// changed; all zero until the first incremental update).
    pub fn node_epochs(&self) -> &[u64] {
        &self.node_epochs
    }

    /// The epoch a held block for the pair `(i, j)` is keyed under: the
    /// max of the two endpoints' node epochs.
    pub fn pair_epoch(&self, i: NodeId, j: NodeId) -> u64 {
        self.node_epochs[i].max(self.node_epochs[j])
    }

    /// The leaf bases `U_i`, indexed by node (empty for internal nodes).
    pub fn bases(&self) -> &[BasisMatrix<S>] {
        &self.bases
    }

    /// The transfer matrices `R_i`, indexed by node (empty for the root).
    pub fn transfers(&self) -> &[BasisMatrix<S>] {
        &self.transfers
    }

    /// The proxy points (skeleton indices or grid coordinates) of a node.
    pub fn proxy(&self, i: NodeId) -> &ProxyPoints {
        &self.proxies[i]
    }

    /// The block table: the listed pairs and the blocks held for them.
    pub fn table(&self) -> &Arc<BlockTable<S>> {
        &self.table
    }

    /// The table when it is a budgeted cache: on the fly, under a budget of
    /// more than 0 bytes.
    pub fn cache(&self) -> Option<&Arc<BlockTable<S>>> {
        matches!(self.table.budget(), Some(bytes) if bytes > 0).then_some(&self.table)
    }

    /// Counter snapshot of the cache (`None` without one).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache().map(|c| c.stats())
    }

    /// Total bytes of all coupling + nearfield blocks were they all
    /// materialized in `S` — normal mode's block footprint, and the
    /// denominator a [`CacheBudget::Ratio`] resolves against.
    pub fn full_block_bytes(&self) -> usize {
        let plan = SweepPlan::whole(self);
        let bytes = plan.block_schedule(self).map(|(_, _, bytes)| bytes);
        bytes.sum()
    }

    /// Re-plans an on-the-fly operator's table under `budget`: the blocks
    /// that fit it first-fit in sweep-execution order, those the current
    /// table holds carried by `Arc` with its counters, the rest generated
    /// in parallel (none for a budget that resolves to 0 bytes). No-op in
    /// normal mode, where every block is already held.
    ///
    /// Every block the sweeps apply is the `S`-scalar block the normal
    /// builder stores, held or materialized on demand, applied with the
    /// same routines ([`crate::sweep`]). So every budget, 0 included, is
    /// bitwise identical to `MemoryMode::Normal` and to
    /// `MemoryMode::OnTheFly` — budgets trade time for memory, never
    /// accuracy.
    pub fn set_cache_budget(&mut self, budget: CacheBudget) {
        let Some(bytes) = self.holding(self.mode(), budget) else {
            return;
        };
        self.table = Arc::new(self.plan_table(&self.table, Some(bytes)));
    }

    /// What a table of `mode` holds under `budget`: every listed block in
    /// normal mode (`None`, resolved against the lists at every plan), the
    /// first fit of the resolved budget on the fly.
    pub(crate) fn holding(&self, mode: MemoryMode, budget: CacheBudget) -> Option<usize> {
        match mode {
            MemoryMode::Normal => None,
            MemoryMode::OnTheFly if budget.is_off() => Some(0),
            MemoryMode::OnTheFly => Some(budget.resolve(self.full_block_bytes())),
        }
    }

    /// The successor of `prev` that holds `budget` on this operator's lists:
    /// the blocks of the whole product's [`SweepPlan::block_schedule`] the
    /// budget takes, each under its pair's current epoch. Residency is a
    /// function of the operator and the budget only; `prev` (the table
    /// this one replaces) contributes its counters and the blocks that are
    /// still current, the rest are generated as one step of the executor,
    /// counted on the calling thread.
    pub(crate) fn plan_table(&self, prev: &BlockTable<S>, budget: Option<usize>) -> BlockTable<S> {
        // A budget of 0 bytes holds nothing: no schedule to walk.
        let plan = (budget != Some(0)).then(|| SweepPlan::whole(self));
        let schedule = plan.iter().flat_map(|plan| plan.block_schedule(self));
        prev.successor(
            &self.lists,
            budget,
            schedule.map(|(kind, st, bytes)| (kind, st.slot, bytes)),
            |i, j| self.pair_epoch(i, j),
            |sources| self.generate_blocks(sources),
        )
    }

    /// Materializes one coupling or nearfield block exactly as the normal
    /// builder does (same kernel evaluations, same `S` rounding) — the
    /// generation primitive of the block table, counted in the telemetry
    /// counters of [`crate::diagnostics`]. `(i, j)` must be a listed pair;
    /// coupling blocks want the canonical `i <= j` orientation.
    pub fn generate_block(&self, kind: BlockKind, i: NodeId, j: NodeId) -> MatrixS<S> {
        let mut one = self.generate_blocks(&[Source::Generate(kind, i, j)]);
        one.pop().expect("one block per item")
    }

    /// The entries of the listed block `(i, j)` into the column-major `out`,
    /// each written once: the kernel evaluated in `f64` — into `wide` first
    /// when `S` is narrower — and rounded once to `S`. What the table holds
    /// and the sweeps apply when a block is not held.
    pub(crate) fn materialize_into(
        &self,
        kind: BlockKind,
        (i, j): (NodeId, NodeId),
        out: &mut [S],
        wide: &mut Vec<f64>,
    ) {
        let (kernel, pts) = (self.kernel.as_ref(), self.tree.points());
        let evaluate = |out: &mut [f64]| match kind {
            BlockKind::Coupling => {
                let (a, b) = (&self.proxies[i], &self.proxies[j]);
                crate::proxy::coupling_block_into(kernel, pts, a, b, out);
            }
            BlockKind::Nearfield => {
                let (rows, cols) = (self.tree.node_indices(i), self.tree.node_indices(j));
                kernel.eval_block_into(pts, rows, cols, out);
            }
        };
        if let Some(out) = S::as_f64s_mut(out) {
            return evaluate(out);
        }
        let wide = sized(wide, out.len());
        evaluate(wide);
        for (o, &v) in out.iter_mut().zip(wide.iter()) {
            *o = S::from_f64(v);
        }
    }

    /// The blocks of one plan, in the order of `items`, as views of one
    /// fresh slab ([`SlabMem::write_parts`]): each generated as
    /// [`Self::generate_block`] does or copied from the block named. One
    /// step of the executor ([`h2_linalg::exec`]) fills the slab, a block
    /// per task, each thread reusing one `f64` scratch for a narrower `S`;
    /// the one block-generation loop behind every plan of the block table.
    /// The calling thread counts the generated blocks, from their shapes,
    /// so the [`crate::diagnostics`] counters are exact at any width.
    pub(crate) fn generate_blocks(&self, items: &[Source<'_, S>]) -> Vec<MatrixS<S>> {
        let mut tally = BlockTally::default();
        let shapes: Vec<(usize, usize)> = items
            .iter()
            .map(|item| match *item {
                Source::Generate(kind, i, j) => {
                    let (rows, cols) = self.block_shape(kind, i, j);
                    tally.add(kind, rows, cols);
                    (rows, cols)
                }
                Source::Copy(block) => block.shape(),
            })
            .collect();
        tally.record(self);
        let lens: Vec<usize> = shapes.iter().map(|&(rows, cols)| rows * cols).collect();
        let views = SlabMem::write_parts(&lens, |parts| {
            let mut work: Vec<_> = parts.into_iter().zip(items).collect();
            let threads = exec::threads_for(exec::width(), &[work.len()]);
            let mut wide = vec![Vec::new(); threads];
            exec::for_each_with(&mut wide, &mut work, |wide, _, (out, item)| match **item {
                Source::Generate(kind, i, j) => self.materialize_into(kind, (i, j), out, wide),
                Source::Copy(block) => out.copy_from_slice(block.as_slice()),
            });
        });
        let views = views.into_iter().zip(shapes);
        views
            .map(|(view, (rows, cols))| MatrixS::from_slab(rows, cols, view))
            .collect()
    }

    /// `y = Â b` — the five-sweep H² matvec of the paper's Algorithm 2: the
    /// `k = 1` call of the sweep engine ([`crate::sweep`]).
    ///
    /// Generic over the accumulator scalar `A`: with `A = S` this is the
    /// plain same-precision product; an `f32` operator applied to `f64`
    /// vectors is the mixed-precision mode (see [`Self::matvec_f64`]).
    pub fn matvec<A: Scalar>(&self, b: &[A]) -> Vec<A> {
        let mut y = vec![A::ZERO; self.n()];
        self.matvec_into(b, &mut y);
        y
    }

    /// `y = Â b` writing into a caller-provided buffer — the serving hot
    /// path, which reuses one output allocation across requests.
    pub fn matvec_into<A: Scalar>(&self, b: &[A], y: &mut [A]) {
        assert_eq!(b.len(), self.n(), "matvec: vector length");
        assert_eq!(y.len(), self.n(), "matvec: output length");
        self.apply_panel(1, b, y);
    }

    /// Mixed-precision entry point: applies the operator to `f64` vectors
    /// with every sweep partial accumulated in `f64`, regardless of the
    /// storage scalar `S`. For `S = f64` this is exactly [`Self::matvec`];
    /// for `S = f32` it recovers most of the accuracy lost to storage
    /// rounding while keeping the `f32` memory footprint and bandwidth.
    pub fn matvec_f64(&self, b: &[f64]) -> Vec<f64> {
        self.matvec::<f64>(b)
    }

    /// Mixed-precision panel product (`f64` columns, `f64` accumulation).
    pub fn matmat_f64(&self, b: &Matrix) -> Matrix {
        self.matmat::<f64>(b)
    }

    /// `Y = Â B` for a block of right-hand sides (block-Krylov methods,
    /// multi-charge FMM-style workloads, batched serving) — the same sweep
    /// engine run once on `n x k` *panels*.
    ///
    /// Every block is fetched once per call — independent of `k` — and
    /// applied to all columns in both directions, so on-the-fly kernel
    /// evaluations per column drop by `k` against column-wise products.
    /// Every column of the result is bit-identical to
    /// `self.matvec(b.col(j))`.
    pub fn matmat<A: Scalar>(&self, b: &MatrixS<A>) -> MatrixS<A> {
        assert_eq!(b.nrows(), self.n(), "matmat: row count");
        let mut y = MatrixS::<A>::zeros(self.n(), b.ncols());
        self.apply_panel(b.ncols(), b.as_slice(), y.as_mut_slice());
        y
    }

    /// The paper's error metric (§IV): given an input `b` and the H² result
    /// `y = Â b`, sample `nrows` random rows, compute the exact rows of
    /// `A b` in O(nrows · n), and return `‖y_rows − z_rows‖₂ / ‖z_rows‖₂`.
    pub fn estimate_rel_error<A: Scalar>(&self, b: &[A], y: &[A], nrows: usize, seed: u64) -> f64 {
        let n = self.n();
        let nrows = nrows.min(n);
        // SplitMix64 row sampling: deterministic, dependency-free.
        let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut rows = Vec::with_capacity(nrows);
        let mut seen = std::collections::HashSet::new();
        while rows.len() < nrows {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            let r = (z % n as u64) as usize;
            if seen.insert(r) {
                rows.push(r);
            }
        }
        let bw: Vec<f64> = b.iter().map(|v| v.to_f64()).collect();
        let exact =
            h2_kernels::dense_matvec_rows(self.kernel.as_ref(), self.tree.points(), &bw, &rows);
        let approx: Vec<A> = rows.iter().map(|&r| y[r]).collect();
        h2_linalg::vec_ops::rel_err(&approx, &exact)
    }

    /// The *expanded* basis `Ū_i` of a node: leaves return `U_i`; internal
    /// nodes stack `Ū_c R_c` over their children. Rows are ordered by tree
    /// position (`node.start..node.end`). O(n · rank) — diagnostics and
    /// dense reconstruction only.
    pub fn expanded_basis(&self, i: NodeId) -> MatrixS<S> {
        let nd = self.tree.node(i);
        if nd.is_leaf() {
            return self.bases[i].to_dense();
        }
        let parts: Vec<MatrixS<S>> = nd
            .children
            .iter()
            .map(|&c| self.expanded_basis(c).matmul(&self.transfers[c].to_dense()))
            .collect();
        let refs: Vec<&MatrixS<S>> = parts.iter().collect();
        MatrixS::vstack(&refs)
    }

    /// Reconstructs the dense approximation `Â` in the original point order
    /// (O(n²) memory — tests and small diagnostics only).
    pub fn to_dense(&self) -> MatrixS<S> {
        let n = self.n();
        let tree = &self.tree;
        let perm = tree.perm();
        // Assemble in tree order first.
        let mut at = MatrixS::<S>::zeros(n, n);
        // Nearfield blocks: exact kernel entries.
        for &(i, j) in &self.lists.nearfield_pairs {
            let (ni, nj) = (tree.node(i), tree.node(j));
            let block = self.generate_block(BlockKind::Nearfield, i, j);
            at.set_block(ni.start, nj.start, &block);
            if i != j {
                at.set_block(nj.start, ni.start, &block.transpose());
            }
        }
        // Farfield blocks: expanded low-rank products.
        for &(i, j) in &self.lists.interaction_pairs {
            let (ni, nj) = (tree.node(i), tree.node(j));
            let ui = self.expanded_basis(i);
            let uj = self.expanded_basis(j);
            let b = self.generate_block(BlockKind::Coupling, i, j);
            let block = ui.matmul(&b).matmul_t(&uj);
            at.set_block(ni.start, nj.start, &block);
            at.set_block(nj.start, ni.start, &block.transpose());
        }
        // Permute to original order: A[perm[r], perm[c]] = at[r, c].
        let mut a = MatrixS::<S>::zeros(n, n);
        for c in 0..n {
            for r in 0..n {
                a[(perm[r], perm[c])] = at[(r, c)];
            }
        }
        a
    }

    /// Exact logical memory usage by component.
    pub fn memory_report(&self) -> MemoryReport {
        let bases = self.bases.iter().map(BasisMatrix::bytes).sum();
        let transfers = self.transfers.iter().map(BasisMatrix::bytes).sum();
        let proxies = self.proxies.iter().map(|p| p.bytes()).sum();
        // Largest block the OTF matvec would regenerate: coupling r_i x r_j
        // or nearfield |X_i| x |X_j|.
        let plan = SweepPlan::whole(self);
        let blocks = plan.block_schedule(self).map(|(_, _, bytes)| bytes);
        let max_otf_block = blocks.max().unwrap_or(0);
        let mapped_generators: usize = self
            .bases
            .iter()
            .chain(self.transfers.iter())
            .map(BasisMatrix::mapped_bytes)
            .sum();
        // Normal mode stores its blocks; on the fly they are budgeted.
        let table = &self.table;
        let held = table.footprint();
        let (stored, cached_blocks) = match table.budget() {
            None => (held, 0),
            Some(_) => ([0; 2], held[0] + held[1]),
        };
        MemoryReport {
            bases,
            transfers,
            proxies,
            coupling_blocks: stored[0],
            nearfield_blocks: stored[1],
            cached_blocks,
            tree: self.tree.bytes(),
            lists: self.lists.bytes(),
            max_otf_block,
            mapped_bytes: mapped_generators + table.mapped_bytes(),
            epoch: self.epoch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BasisMethod, H2Config};
    use crate::error_est::probe_vector;
    use h2_kernels::{dense_matvec, Coulomb, Exponential, Gaussian};
    use h2_points::gen;

    fn build(
        n: usize,
        dim: usize,
        basis: BasisMethod,
        mode: MemoryMode,
        kernel: Arc<dyn Kernel>,
    ) -> H2Matrix {
        let pts = gen::uniform_cube(n, dim, 99);
        let cfg = H2Config {
            basis,
            mode,
            leaf_size: 48,
            eta: 0.7,
            ..H2Config::default()
        };
        H2Matrix::build(&pts, kernel, &cfg)
    }

    /// One full vector product per column: what every panel column must
    /// equal bit for bit.
    fn columnwise(h2: &H2Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(h2.n(), b.ncols());
        for j in 0..b.ncols() {
            out.col_mut(j).copy_from_slice(&h2.matvec(b.col(j)));
        }
        out
    }

    #[test]
    fn data_driven_matvec_matches_dense() {
        let h2 = build(
            800,
            3,
            BasisMethod::data_driven_for_tol(1e-6, 3),
            MemoryMode::Normal,
            Arc::new(Coulomb),
        );
        let b = probe_vector(800, 5);
        let y = h2.matvec(&b);
        let z = dense_matvec(&Coulomb, h2.tree().points(), &b);
        let err = h2_linalg::vec_ops::rel_err(&y, &z);
        assert!(err < 1e-5, "relative error {err}");
    }

    #[test]
    fn interpolation_matvec_matches_dense() {
        let h2 = build(
            600,
            2,
            BasisMethod::Interpolation { order: 6 },
            MemoryMode::Normal,
            Arc::new(Coulomb),
        );
        let b = probe_vector(600, 6);
        let y = h2.matvec(&b);
        let z = dense_matvec(&Coulomb, h2.tree().points(), &b);
        let err = h2_linalg::vec_ops::rel_err(&y, &z);
        assert!(err < 1e-5, "relative error {err}");
    }

    #[test]
    fn otf_equals_normal_bitwise_data_driven() {
        let pts = gen::uniform_cube(700, 3, 3);
        let mk = |mode| {
            let cfg = H2Config {
                basis: BasisMethod::data_driven_for_tol(1e-6, 3),
                mode,
                leaf_size: 40,
                eta: 0.7,
                ..H2Config::default()
            };
            H2Matrix::build(&pts, Arc::new(Coulomb), &cfg)
        };
        let normal = mk(MemoryMode::Normal);
        let otf = mk(MemoryMode::OnTheFly);
        let b = probe_vector(700, 7);
        // Same generators, same blocks, same arithmetic.
        assert_eq!(normal.matvec(&b), otf.matvec(&b));
    }

    #[test]
    fn otf_equals_normal_interpolation() {
        let pts = gen::uniform_cube(500, 2, 4);
        let mk = |mode| {
            let cfg = H2Config {
                basis: BasisMethod::Interpolation { order: 5 },
                mode,
                leaf_size: 40,
                eta: 0.7,
                ..H2Config::default()
            };
            H2Matrix::build(&pts, Arc::new(Exponential), &cfg)
        };
        let y1 = mk(MemoryMode::Normal).matvec(&probe_vector(500, 8));
        let y2 = mk(MemoryMode::OnTheFly).matvec(&probe_vector(500, 8));
        assert_eq!(y1, y2);
    }

    #[test]
    fn f32_blocks_are_the_f64_siblings_blocks_rounded() {
        // Skeleton indices and Chebyshev grids: both coupling proxy kinds.
        let pts = gen::uniform_cube(500, 2, 12);
        for basis in [
            BasisMethod::data_driven_for_tol(1e-6, 2),
            BasisMethod::Interpolation { order: 5 },
        ] {
            let cfg = H2Config {
                basis,
                mode: MemoryMode::OnTheFly,
                leaf_size: 40,
                eta: 0.7,
                ..H2Config::default()
            };
            let h64 = H2MatrixS::<f64>::build(&pts, Arc::new(Coulomb), &cfg);
            let h32 = H2MatrixS::<f32>::build(&pts, Arc::new(Coulomb), &cfg);
            assert!(!h64.lists().interaction_pairs.is_empty());
            for (kind, i, j) in listed_blocks(h64.lists()) {
                let (b64, b32) = (
                    h64.generate_block(kind, i, j),
                    h32.generate_block(kind, i, j),
                );
                assert_eq!(b32.shape(), b64.shape(), "{kind:?} ({i}, {j})");
                let rounded: Vec<f32> = b64.as_slice().iter().map(|&v| v as f32).collect();
                assert_eq!(b32.as_slice(), rounded, "{kind:?} ({i}, {j})");
            }
        }
    }

    #[test]
    fn to_dense_close_to_kernel_matrix() {
        let pts = gen::uniform_cube(300, 2, 5);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-8, 2),
            mode: MemoryMode::Normal,
            leaf_size: 30,
            eta: 0.7,
            ..H2Config::default()
        };
        let h2 = H2Matrix::build(&pts, Arc::new(Gaussian::paper()), &cfg);
        let dense = h2.to_dense();
        let exact = h2_kernels::kernel_matrix(
            &Gaussian::paper(),
            &pts,
            &(0..300).collect::<Vec<_>>(),
            &(0..300).collect::<Vec<_>>(),
        );
        let err = dense.sub(&exact).fro_norm() / exact.fro_norm();
        assert!(err < 1e-6, "dense reconstruction error {err}");
    }

    #[test]
    fn memory_normal_exceeds_otf() {
        let pts = gen::uniform_cube(1500, 3, 6);
        let mk = |mode| {
            let cfg = H2Config {
                basis: BasisMethod::data_driven_for_tol(1e-6, 3),
                mode,
                leaf_size: 64,
                eta: 0.7,
                ..H2Config::default()
            };
            H2Matrix::build(&pts, Arc::new(Coulomb), &cfg)
        };
        let m_norm = mk(MemoryMode::Normal).memory_report();
        let m_otf = mk(MemoryMode::OnTheFly).memory_report();
        assert!(m_otf.coupling_blocks == 0 && m_otf.nearfield_blocks == 0);
        assert!(m_norm.generators() > 2 * m_otf.generators());
    }

    #[test]
    fn error_estimator_close_to_true_error() {
        let pts = gen::uniform_cube(400, 3, 7);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-5, 3),
            mode: MemoryMode::Normal,
            leaf_size: 40,
            eta: 0.7,
            ..H2Config::default()
        };
        let h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg);
        let b = probe_vector(400, 9);
        let y = h2.matvec(&b);
        let est = h2.estimate_rel_error(&b, &y, 50, 123);
        let z = dense_matvec(&Coulomb, &pts, &b);
        let true_err = h2_linalg::vec_ops::rel_err(&y, &z);
        // Row-sampled estimate should be the same order of magnitude.
        assert!(
            est <= true_err * 20.0 + 1e-12,
            "est {est} vs true {true_err}"
        );
    }

    #[test]
    fn ranks_bounded_by_node_sizes() {
        let h2 = build(
            500,
            3,
            BasisMethod::data_driven_for_tol(1e-6, 3),
            MemoryMode::Normal,
            Arc::new(Coulomb),
        );
        for (i, nd) in h2.tree().nodes().iter().enumerate() {
            if nd.is_leaf() {
                assert!(h2.rank(i) <= nd.len(), "leaf rank exceeds point count");
            }
        }
    }

    #[test]
    fn panel_columns_equal_vector_products_interpolation_otf() {
        // Coords proxies exercise the eval_cross block path (the other
        // tiers, precisions and builders are covered in tests/sweep.rs).
        let pts = gen::uniform_cube(400, 2, 22);
        let cfg = H2Config {
            basis: BasisMethod::Interpolation { order: 5 },
            mode: MemoryMode::OnTheFly,
            leaf_size: 40,
            eta: 0.7,
            ..H2Config::default()
        };
        let h2 = H2Matrix::build(&pts, Arc::new(Exponential), &cfg);
        // Below, at and past the 4-column tile of the panel kernels, with
        // exact zeros and an all-zero column 1.
        for k in [2, 3, 5, 8] {
            let b = Matrix::from_fn(400, k, |i, j| match j {
                1 => 0.0,
                _ => ((i + 3 * j) % 7) as f64 - 3.0,
            });
            let (panel, columns) = (h2.matmat(&b), columnwise(&h2, &b));
            assert_eq!(panel.as_slice(), columns.as_slice(), "k = {k}");
        }
    }

    #[test]
    fn matvec_into_matches_matvec() {
        let h2 = build(
            400,
            3,
            BasisMethod::data_driven_for_tol(1e-6, 3),
            MemoryMode::OnTheFly,
            Arc::new(Coulomb),
        );
        let b = probe_vector(400, 31);
        let mut y = vec![f64::NAN; 400]; // must be fully overwritten
        h2.matvec_into(&b, &mut y);
        assert_eq!(y, h2.matvec(&b));
    }

    #[test]
    fn otf_matmat_generates_each_block_once_regardless_of_k() {
        let pts = gen::uniform_cube(900, 3, 23);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-6, 3),
            mode: MemoryMode::OnTheFly,
            leaf_size: 48,
            eta: 0.7,
            ..H2Config::default()
        };
        let h2 = H2Matrix::build(&pts, Arc::new(Coulomb), &cfg);
        let n_pairs = h2.lists().interaction_pairs.len() as u64;
        let nf_pairs = h2.lists().nearfield_pairs.len() as u64;

        // Scoped (thread-local) deltas: exact per-call counts even while
        // other tests in this binary hammer the same process-wide counters.
        let counts_for = |k: usize| {
            let scope = h2_telemetry::local_scope();
            let b = Matrix::from_fn(900, k, |i, j| ((i + j) % 5) as f64 - 2.0);
            let _ = h2.matmat(&b);
            (
                scope.count("coupling_blocks"),
                scope.count("nearfield_blocks"),
                scope.count("kernel_evals"),
            )
        };
        let (c1, n1, e1) = counts_for(1);
        let (c16, n16, e16) = counts_for(16);
        assert_eq!(c1, n_pairs, "one coupling block per admissible pair");
        assert_eq!(n1, nf_pairs, "one nearfield block per nearfield pair");
        assert_eq!((c16, n16, e16), (c1, n1, e1), "counts independent of k");

        // Column-wise products regenerate every block per column — the
        // amortization factor the panel sweep removes.
        let scope = h2_telemetry::local_scope();
        let b = Matrix::from_fn(900, 16, |i, j| ((i + j) % 5) as f64 - 2.0);
        let _ = columnwise(&h2, &b);
        assert_eq!(scope.count("kernel_evals"), 16 * e16);
    }

    #[test]
    fn matvec_linear() {
        let h2 = build(
            300,
            2,
            BasisMethod::data_driven_for_tol(1e-6, 2),
            MemoryMode::OnTheFly,
            Arc::new(Exponential),
        );
        let a = probe_vector(300, 10);
        let b = probe_vector(300, 11);
        let ab: Vec<f64> = a.iter().zip(&b).map(|(x, y)| 2.0 * x - 3.0 * y).collect();
        let ya = h2.matvec(&a);
        let yb = h2.matvec(&b);
        let yab = h2.matvec(&ab);
        for i in 0..300 {
            let lin = 2.0 * ya[i] - 3.0 * yb[i];
            assert!((yab[i] - lin).abs() < 1e-9 * (1.0 + lin.abs()));
        }
    }
}
