//! Construction pipelines: tree → block lists → per-node generators →
//! (optionally) materialized blocks.
//!
//! [`build`] is the single entry point used by [`crate::H2Matrix::build`].
//! The basis method only decides how the per-node `Generators` are
//! produced; everything else (tree, admissibility, block materialization)
//! is shared, which is what makes the normal/on-the-fly comparison and the
//! method ablations apples-to-apples.

pub mod data_driven;
pub mod interpolation;
pub mod proxy_surface;
pub mod sketched;

use crate::config::{BasisMethod, BuilderProvenance, BuilderStrategy, H2Config, MemoryMode};
use crate::h2matrix::H2MatrixS;
use crate::proxy::{coupling_block_s, ProxyPoints};
use h2_cache::stores::{CouplingStore, NearfieldStore};
use h2_cache::BlockKind;
use h2_kernels::Kernel;
use h2_linalg::id::row_id_consume;
use h2_linalg::qr::Truncation;
use h2_linalg::{Matrix, MatrixS, Scalar};
use h2_points::admissibility::build_block_lists;
use h2_points::{ClusterTree, NodeId, PointSet};
use rayon::prelude::*;
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

/// The per-node generators a basis method must produce: exactly the fields
/// of [`H2MatrixS`] that depend on the method, always factored in `f64`
/// (conversion to the storage scalar happens once, in [`build`]).
pub(crate) struct Generators {
    /// Leaf bases `U_i` (empty for internal nodes).
    pub bases: Vec<Matrix>,
    /// Transfer matrices `R_c` (`rank_c x rank_parent`; empty for the root).
    pub transfers: Vec<Matrix>,
    /// Per-node proxy points: skeleton indices or grid coordinates.
    pub proxies: Vec<ProxyPoints>,
    /// Per-node ranks.
    pub ranks: Vec<usize>,
    /// Time spent in farfield sampling, if the method samples.
    pub sampling_ms: f64,
}

/// The column set a node's row ID compresses against: either indices into
/// the global point set (data-driven farfield samples) or free-standing
/// coordinates (proxy surfaces). An empty set means rank zero.
pub(crate) enum ColumnSet {
    Indices(Vec<usize>),
    Coords(PointSet),
}

impl ColumnSet {
    fn is_empty(&self) -> bool {
        match self {
            ColumnSet::Indices(v) => v.is_empty(),
            ColumnSet::Coords(p) => p.is_empty(),
        }
    }
}

/// Shared bottom-up nested-skeleton construction (the common core of the
/// data-driven and proxy-surface methods).
///
/// Per node `i`, the candidate rows are the node's own points (leaf) or the
/// concatenated skeletons of its children (internal — the nesting step).
/// A row ID of `K(rows, cols_for(i))` at `id_tol` picks the skeleton and
/// the interpolation operator `P`; `P` becomes the leaf basis `U_i`, or is
/// split row-wise over the children into their transfers `R_c`.
pub(crate) fn nested_skeleton_generators(
    tree: &ClusterTree,
    kernel: &dyn Kernel,
    id_tol: f64,
    cols_for: impl Fn(NodeId) -> ColumnSet + Sync,
) -> Generators {
    let n_nodes = tree.node_count();
    let pts = tree.points();
    let mut bases = vec![Matrix::zeros(0, 0); n_nodes];
    let mut transfers = vec![Matrix::zeros(0, 0); n_nodes];
    let mut skeletons: Vec<Vec<usize>> = vec![Vec::new(); n_nodes];
    let mut ranks = vec![0usize; n_nodes];

    // Children live exactly one level below their parent, so a reverse
    // level sweep sees every child's skeleton before its parent needs it.
    for (lvl, level) in tree.levels().iter().enumerate().rev() {
        let sp = h2_telemetry::span_labeled("build.id", format!("level={lvl}"));
        let computed: Vec<(NodeId, Vec<usize>, Matrix)> = level
            .par_iter()
            .map(|&i| {
                let nd = tree.node(i);
                let rows: Vec<usize> = if nd.is_leaf() {
                    tree.node_indices(i).to_vec()
                } else {
                    nd.children
                        .iter()
                        .flat_map(|&c| skeletons[c].iter().copied())
                        .collect()
                };
                let cols = cols_for(i);
                let a = if cols.is_empty() {
                    // No farfield to compress against: rank 0.
                    Matrix::zeros(rows.len(), 0)
                } else {
                    match cols {
                        ColumnSet::Indices(idx) => {
                            h2_kernels::kernel_matrix(kernel, pts, &rows, &idx)
                        }
                        ColumnSet::Coords(targets) => {
                            h2_kernels::kernel_cross_matrix(kernel, &pts.select(&rows), &targets)
                        }
                    }
                };
                let rid = row_id_consume(a, Truncation::tol(id_tol));
                let skel: Vec<usize> = rid.skel.iter().map(|&k| rows[k]).collect();
                (i, skel, rid.p)
            })
            .collect();
        drop(sp);
        let sp = h2_telemetry::span_labeled("build.transfers", format!("level={lvl}"));
        for (i, skel, p) in computed {
            let nd = tree.node(i);
            ranks[i] = skel.len();
            if nd.is_leaf() {
                bases[i] = p;
            } else {
                // Row block `off..off+rank_c` of P is child c's transfer.
                let mut off = 0;
                for &c in &nd.children {
                    let rc = ranks[c];
                    transfers[c] = p.block(off..off + rc, 0..p.ncols());
                    off += rc;
                }
            }
            skeletons[i] = skel;
        }
        drop(sp);
    }

    let proxies = skeletons.into_iter().map(ProxyPoints::Indices).collect();
    Generators {
        bases,
        transfers,
        proxies,
        ranks,
        sampling_ms: 0.0,
    }
}

/// Builds an [`H2MatrixS`]: cluster tree, admissibility lists, per-node
/// generators for the configured basis method, and (in normal mode) the
/// materialized coupling/nearfield blocks.
///
/// The whole factorization pipeline (sampling, kernel matrices, row IDs)
/// runs in `f64` regardless of `S`; generators and blocks are rounded to the
/// storage scalar exactly once at assembly. This keeps skeleton selection —
/// and therefore the operator's structure — identical across precisions,
/// so `f32` and `f64` operators built from the same inputs differ only by
/// entrywise rounding.
pub fn build<S: Scalar>(
    points: &PointSet,
    kernel: Arc<dyn Kernel>,
    cfg: &H2Config,
) -> H2MatrixS<S> {
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

    let sp = h2_telemetry::span("build.basis");
    let t = Instant::now();
    // The builder strategy picks the pipeline; `Sketched` supersedes
    // `cfg.basis` entirely (see `BuilderStrategy` docs).
    let (gens, provenance, sketch_stats) = match &cfg.builder {
        BuilderStrategy::Sketched(params) => {
            let (g, stats) = sketched::generators(&tree, &lists, kernel.as_ref(), params, cfg.seed);
            (g, BuilderProvenance::Sketched, Some(stats))
        }
        BuilderStrategy::AnchorNet => match &cfg.basis {
            BasisMethod::DataDriven { samples, id_tol } => {
                // Fold the config seed into the sampling seed; XOR with the
                // default seed 0 preserves historical anchor-net draws.
                let mut samples = *samples;
                samples.seed ^= cfg.seed;
                (
                    data_driven::generators(&tree, &lists, kernel.as_ref(), &samples, *id_tol),
                    BuilderProvenance::AnchorNet,
                    None,
                )
            }
            BasisMethod::Interpolation { order } => (
                interpolation::generators(&tree, *order),
                BuilderProvenance::Interpolation,
                None,
            ),
            BasisMethod::ProxySurface(params) => (
                proxy_surface::generators(&tree, &lists, kernel.as_ref(), params),
                BuilderProvenance::ProxySurface,
                None,
            ),
        },
    };
    let basis_ms = ms_since(t) - gens.sampling_ms;
    drop(sp);

    let sp = h2_telemetry::span("build.blocks");
    let t = Instant::now();
    let (coupling, nearfield) = match cfg.mode {
        MemoryMode::OnTheFly => (
            CouplingStore::on_the_fly(&lists.interaction_pairs),
            NearfieldStore::on_the_fly(&lists.nearfield_pairs),
        ),
        MemoryMode::Normal => {
            let pts = tree.points();
            let coupling_blocks: Vec<MatrixS<S>> = lists
                .interaction_pairs
                .par_iter()
                .map(|&(i, j)| {
                    let (pi, pj) = (&gens.proxies[i], &gens.proxies[j]);
                    crate::diagnostics::record_block(BlockKind::Coupling, pi.len(), pj.len());
                    coupling_block_s::<S>(kernel.as_ref(), pts, pi, pj)
                })
                .collect();
            let nearfield_blocks: Vec<MatrixS<S>> = lists
                .nearfield_pairs
                .par_iter()
                .map(|&(i, j)| {
                    crate::diagnostics::record_block(
                        BlockKind::Nearfield,
                        tree.node(i).len(),
                        tree.node(j).len(),
                    );
                    h2_kernels::kernel_matrix_s::<S>(
                        kernel.as_ref(),
                        pts,
                        tree.node_indices(i),
                        tree.node_indices(j),
                    )
                })
                .collect();
            (
                CouplingStore::normal(&lists.interaction_pairs, coupling_blocks),
                NearfieldStore::normal(&lists.nearfield_pairs, nearfield_blocks),
            )
        }
    };
    let blocks_ms = ms_since(t);
    drop(sp);

    let sketch = sketch_stats.unwrap_or_default();
    let stats = BuildStats {
        tree_ms,
        lists_ms,
        sampling_ms: gens.sampling_ms,
        basis_ms,
        blocks_ms,
        total_ms: ms_since(t_total),
        sketch_samples: sketch.samples,
        sketch_probes: sketch.probes,
        sketch_retries: sketch.retries,
        sketch_max_rounds: sketch.max_rounds,
    };
    let n_nodes = tree.node_count();
    let mut h2 = H2MatrixS {
        tree,
        lists,
        kernel,
        mode: cfg.mode,
        bases: gens.bases.into_iter().map(|m| m.convert::<S>()).collect(),
        transfers: gens
            .transfers
            .into_iter()
            .map(|m| m.convert::<S>())
            .collect(),
        proxies: gens.proxies,
        ranks: gens.ranks,
        coupling,
        nearfield,
        cache: None,
        provenance,
        stats,
        epoch: 0,
        node_epochs: vec![0; n_nodes],
        update: None,
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
    h2
}
