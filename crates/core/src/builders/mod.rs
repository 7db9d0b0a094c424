//! Construction: tree → block lists → per-node generators → (optionally)
//! materialized blocks.
//!
//! [`build`] is the single entry point used by [`crate::H2Matrix::build`].
//! The two nested-skeleton methods (data-driven, sketched) share one
//! bottom-up pass, `nested_skeleton_pass`, and differ only in the per-node
//! *factor rule* each submodule hands it; the incremental update engine
//! ([`crate::update`]) runs the same pass over the nodes it touched. Everything else (tree, admissibility, block generation) is
//! shared with the interpolation baseline too, which is what makes the
//! normal/on-the-fly comparison and the method ablations apples-to-apples.

pub mod data_driven;
pub mod interpolation;
pub mod sketched;

use crate::cache::BlockStore;
use crate::config::{BasisMethod, BuilderProvenance, BuilderStrategy, H2Config, MemoryMode};
use crate::h2matrix::{listed_blocks, H2MatrixS};
use crate::proxy::ProxyPoints;
use h2_kernels::Kernel;
use h2_linalg::id::{row_id_consume, RowId};
use h2_linalg::qr::Truncation;
use h2_linalg::{exec, BasisMatrix, Matrix, Scalar};
use h2_points::admissibility::build_block_lists;
use h2_points::{ClusterTree, NodeId, PointSet};
use std::sync::Arc;
use std::time::Instant;

/// Wall-clock timing of the construction phases, in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct BuildStats {
    /// Cluster-tree construction.
    pub tree_ms: f64,
    /// Interaction/nearfield list traversal.
    pub lists_ms: f64,
    /// Hierarchical farfield sampling (Algorithm 1). Zero for basis methods
    /// that do not sample the farfield.
    pub sampling_ms: f64,
    /// Basis generation: row IDs / grid evaluations, transfers, skeletons.
    pub basis_ms: f64,
    /// Coupling/nearfield block materialization (zero in on-the-fly mode).
    pub blocks_ms: f64,
    /// End-to-end construction time.
    pub total_ms: f64,
    /// Farfield columns the sketched builder evaluated (0 for the
    /// deterministic builders).
    pub sketch_samples: usize,
    /// Probe columns the sketched builder's validation evaluated.
    pub sketch_probes: usize,
    /// Adaptive rank-doubling retries across all nodes.
    pub sketch_retries: usize,
    /// Largest number of adaptive rounds any node needed (0 when the
    /// sketched builder did not run, 1 when no node ever doubled).
    pub sketch_max_rounds: usize,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The deterministic factor rule (data-driven construction and incremental
/// updates): a row ID of `K(rows, cols)` at `id_tol`, where `cols` indexes
/// the node's farfield samples in the global point set. No columns means
/// no farfield to compress against: rank 0.
pub(crate) fn row_id_against(
    kernel: &dyn Kernel,
    pts: &PointSet,
    rows: &[usize],
    cols: &[usize],
    id_tol: f64,
) -> RowId {
    let a = if cols.is_empty() {
        Matrix::zeros(rows.len(), 0)
    } else {
        h2_kernels::kernel_matrix(kernel, pts, rows, cols)
    };
    row_id_consume(a, Truncation::tol(id_tol))
}

/// The one bottom-up nested-skeleton pass: every construction method whose
/// skeletons are data points, and every incremental update, is a call of
/// this function with its own node set and factor rule.
///
/// Per node `i` of `levels` (node ids grouped by tree level, deepest level
/// first), the candidate rows are the node's own points (leaf) or the
/// concatenated skeletons of its children in child order (internal — the
/// nesting step). `factor(tree, i, rows)` picks skeleton positions into
/// `rows` and the interpolation operator `P` in `f64`, plus a note for the
/// caller (the sketched rule's counts; `()` otherwise); the pass maps the
/// skeleton to global point indices and installs it with the rank, and `P`
/// — rounded to the storage scalar exactly once, here — becomes the leaf
/// basis `U_i` or is split row-wise over the children into their transfers
/// `R_c`, each held by [`BasisMatrix::from_dense`] (its skeleton rows are
/// unit rows) inside the node's step.
///
/// Children live exactly one level below their parent, so a reverse level
/// sweep sees every child's skeleton before its parent needs it; a subset
/// therefore has to hold, with every node, the ancestors whose rows it
/// changes (a root-to-leaf path does). Nodes within a level are independent:
/// a level is one step of the executor ([`h2_linalg::exec`]), `factor` a pure
/// function of the operator below the level and the node, so the operator
/// is the same at any width and the order inside `levels[l]` does not
/// matter. Everything a level computed is installed, and `note` called, by
/// the calling thread in level order after the step.
///
/// The factor phase of each level runs under the caller's `span` name and
/// the installation under `build.transfers`, both labelled `level=N`.
pub(crate) fn nested_skeleton_pass<S: Scalar, N: Send>(
    h2: &mut H2MatrixS<S>,
    levels: &[Vec<NodeId>],
    span: &'static str,
    factor: impl Fn(&ClusterTree, NodeId, &[usize]) -> (RowId, N) + Sync,
    mut note: impl FnMut(N),
) {
    let tree = &h2.tree;
    for (lvl, level) in levels.iter().enumerate().rev() {
        if level.is_empty() {
            continue;
        }
        let sp = h2_telemetry::span_labeled(span, format!("level={lvl}"));
        let (proxies, ranks) = (&h2.proxies, &h2.ranks);
        let computed = exec::map(level, |&i| {
            let nd = tree.node(i);
            let rows: Vec<usize> = if nd.is_leaf() {
                tree.node_indices(i).to_vec()
            } else {
                nd.children
                    .iter()
                    .flat_map(|&c| match &proxies[c] {
                        ProxyPoints::Indices(skel) => skel.iter().copied(),
                        ProxyPoints::Coords(_) => {
                            unreachable!("nested skeletons are data points")
                        }
                    })
                    .collect()
            };
            let (rid, note) = factor(tree, i, &rows);
            let skel: Vec<usize> = rid.skel.iter().map(|&k| rows[k]).collect();
            let p = &rid.p;
            // The leaf basis, or per child `c` its transfer: row block
            // `off..off+rank_c` of P.
            let held: Vec<BasisMatrix<S>> = if nd.is_leaf() {
                vec![BasisMatrix::from_dense(p.convert::<S>())]
            } else {
                let mut off = 0;
                let transfer = |&c: &NodeId| {
                    let block = p.block(off..off + ranks[c], 0..p.ncols());
                    off += ranks[c];
                    BasisMatrix::from_dense(block.convert::<S>())
                };
                nd.children.iter().map(transfer).collect()
            };
            (skel, held, note)
        });
        drop(sp);
        let sp = h2_telemetry::span_labeled("build.transfers", format!("level={lvl}"));
        for (&i, (skel, mut held, node_note)) in level.iter().zip(computed) {
            note(node_note);
            let nd = tree.node(i);
            h2.ranks[i] = skel.len();
            h2.proxies[i] = ProxyPoints::Indices(skel);
            if nd.is_leaf() {
                h2.bases[i] = held.pop().expect("a leaf's basis");
            } else {
                // A leaf split turns a leaf internal: it keeps no basis.
                h2.bases[i] = BasisMatrix::default();
                for (&c, transfer) in nd.children.iter().zip(held) {
                    h2.transfers[c] = transfer;
                }
            }
        }
        drop(sp);
    }
}

/// Builds an [`H2MatrixS`]: cluster tree, admissibility lists, per-node
/// generators for the configured basis method, and (in normal mode) the
/// materialized coupling/nearfield blocks.
///
/// The whole factorization pipeline (sampling, kernel matrices, row IDs)
/// runs in `f64` regardless of `S`; generators and blocks are rounded to the
/// storage scalar exactly once, when they are installed. This keeps skeleton
/// selection — and therefore the operator's structure — identical across
/// precisions, so `f32` and `f64` operators built from the same inputs differ
/// only by entrywise rounding.
pub fn build<S: Scalar>(
    points: &PointSet,
    kernel: Arc<dyn Kernel>,
    cfg: &H2Config,
) -> H2MatrixS<S> {
    build_with_x_star(points, kernel, cfg).0
}

/// [`build`], also handing back the bottom-up surrogate table `X*` when the
/// data-driven method computed one: a from-scratch escalation of the update
/// engine seeds its maintained table from it. The operator itself keeps no
/// samples.
pub(crate) fn build_with_x_star<S: Scalar>(
    points: &PointSet,
    kernel: Arc<dyn Kernel>,
    cfg: &H2Config,
) -> (H2MatrixS<S>, Option<Vec<Vec<usize>>>) {
    assert!(
        kernel.is_symmetric(),
        "H2 construction requires a symmetric kernel"
    );
    let _build = h2_telemetry::span("build");
    let t_total = Instant::now();

    let sp = h2_telemetry::span("build.tree");
    let t = Instant::now();
    let tree = ClusterTree::build(points, cfg.tree_params());
    let tree_ms = ms_since(t);
    drop(sp);

    let sp = h2_telemetry::span("build.lists");
    let t = Instant::now();
    let lists = build_block_lists(&tree, cfg.eta);
    let lists_ms = ms_since(t);
    drop(sp);

    // The operator with every node still to be factored and no block
    // generated: construction from here on is the update that touches every
    // node and every pair.
    let n_nodes = tree.node_count();
    let mut h2 = H2MatrixS {
        tree,
        lists,
        kernel,
        mode: cfg.mode,
        bases: vec![BasisMatrix::default(); n_nodes],
        transfers: vec![BasisMatrix::default(); n_nodes],
        proxies: vec![ProxyPoints::Indices(Vec::new()); n_nodes],
        ranks: vec![0; n_nodes],
        coupling: BlockStore::on_the_fly(&[]),
        nearfield: BlockStore::on_the_fly(&[]),
        cache: None,
        provenance: BuilderProvenance::default(),
        stats: BuildStats::default(),
        epoch: 0,
        node_epochs: vec![0; n_nodes],
        update: None,
    };

    let sp = h2_telemetry::span("build.basis");
    let t = Instant::now();
    let mut sketch = sketched::SketchStats::default();
    let mut x_star = None;
    // The builder strategy picks the factor rule; `Sketched` supersedes
    // `cfg.basis` entirely (see `BuilderStrategy` docs).
    let (provenance, sampling_ms) = match &cfg.builder {
        BuilderStrategy::Sketched(params) => {
            sketch = sketched::factor_all(&mut h2, params, cfg.seed);
            (BuilderProvenance::Sketched, sketch.sampling_ms)
        }
        BuilderStrategy::AnchorNet => match &cfg.basis {
            BasisMethod::DataDriven { samples, id_tol } => {
                let (sampling_ms, x) = data_driven::factor_all(&mut h2, samples, *id_tol);
                x_star = Some(x);
                (BuilderProvenance::AnchorNet, sampling_ms)
            }
            BasisMethod::Interpolation { order } => {
                interpolation::factor_all(&mut h2, *order);
                (BuilderProvenance::Interpolation, 0.0)
            }
        },
    };
    h2.provenance = provenance;
    let basis_ms = ms_since(t) - sampling_ms;
    drop(sp);

    let sp = h2_telemetry::span("build.blocks");
    let t = Instant::now();
    let (ip, np) = (&h2.lists.interaction_pairs, &h2.lists.nearfield_pairs);
    let (coupling, nearfield) = match cfg.mode {
        MemoryMode::OnTheFly => (BlockStore::on_the_fly(ip), BlockStore::on_the_fly(np)),
        MemoryMode::Normal => {
            let all: Vec<_> = listed_blocks(&h2.lists).collect();
            let mut coupling_blocks = h2.generate_blocks(&all);
            let nearfield_blocks = coupling_blocks.split_off(ip.len());
            (
                BlockStore::normal(ip, coupling_blocks),
                BlockStore::normal(np, nearfield_blocks),
            )
        }
    };
    h2.coupling = coupling;
    h2.nearfield = nearfield;
    let blocks_ms = ms_since(t);
    drop(sp);

    h2.stats = BuildStats {
        tree_ms,
        lists_ms,
        sampling_ms,
        basis_ms,
        blocks_ms,
        total_ms: ms_since(t_total),
        sketch_samples: sketch.samples,
        sketch_probes: sketch.probes,
        sketch_retries: sketch.retries,
        sketch_max_rounds: sketch.max_rounds,
    };
    // The budgeted block-cache tier over on-the-fly operators: install and
    // warm it up (pins in sweep-execution order) as part of construction,
    // so the first matvec already runs against a hot cache.
    if cfg.mode == MemoryMode::OnTheFly && !cfg.cache_budget.is_off() {
        let sp = h2_telemetry::span("build.cache");
        let t = Instant::now();
        h2.set_cache_budget(cfg.cache_budget);
        let warm_ms = ms_since(t);
        drop(sp);
        h2.stats.blocks_ms += warm_ms;
        h2.stats.total_ms += warm_ms;
    }
    (h2, x_star)
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_kernels::Coulomb;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    #[test]
    fn a_panicking_factor_rule_surfaces_and_the_thread_builds_on() {
        let pts = h2_points::gen::uniform_cube(600, 3, 7);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-6, 3),
            leaf_size: 48,
            ..H2Config::default()
        };
        let kernel: Arc<dyn Kernel> = Arc::new(Coulomb);
        let b: Vec<f64> = (0..600).map(|i| (i as f64 * 0.37).sin()).collect();
        let (width, outside) = (exec::Width::new(2), exec::width());
        let mut h2: H2MatrixS<f64> = width.install(|| build(&pts, kernel.clone(), &cfg));
        let y = h2.matvec(&b);

        // Re-factor every node with a rule that fails on one node of the
        // (wide) leaf level — while another thread is inside the same step,
        // which the two first nodes of the level make sure of.
        let levels = h2.tree.levels().to_vec();
        let leaves = levels.last().expect("a tree has levels");
        assert!(leaves.len() >= 2, "setup: a wide leaf level");
        let (meet, victim) = (Barrier::new(2), leaves[1]);
        let rule = |_: &ClusterTree, i: NodeId, rows: &[usize]| {
            if leaves[..2].contains(&i) {
                meet.wait();
            }
            assert!(i != victim, "the rule failed on node {i}");
            let none = RowId {
                skel: Vec::new(),
                p: Matrix::zeros(rows.len(), 0),
            };
            (none, ())
        };
        let pass = || nested_skeleton_pass(&mut h2, &levels, "build.id", rule, drop);
        let panic = catch_unwind(AssertUnwindSafe(|| width.install(pass)))
            .expect_err("the rule's panic reaches the caller");
        let message = panic.downcast_ref::<String>().expect("a formatted panic");
        assert_eq!(*message, format!("the rule failed on node {victim}"));

        // The call came back (no thread left at a barrier), the width is
        // the caller's again, and the same thread builds the same operator.
        assert_eq!(exec::width(), outside);
        let again: H2MatrixS<f64> = width.install(|| build(&pts, kernel, &cfg));
        assert_eq!(again.matvec(&b), y);
    }
}
