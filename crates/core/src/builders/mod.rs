//! Construction: tree → block lists → per-node generators → the block
//! table.
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

use crate::cache::BlockTable;
use crate::config::{BasisMethod, BuilderProvenance, BuilderStrategy, H2Config};
use crate::h2matrix::H2MatrixS;
use crate::proxy::ProxyPoints;
use h2_kernels::Kernel;
use h2_linalg::id::{row_id_transposed, RowId};
use h2_linalg::qr::Truncation;
use h2_linalg::{exec, BasisMatrix, Matrix, Scalar};
use h2_points::admissibility::build_block_lists;
use h2_points::{ClusterTree, NodeId, PointSet};
use std::collections::HashMap;
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
    /// The block table's plan: every coupling/nearfield block in normal
    /// mode, the budget's first fit on the fly (zero without a budget).
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
///
/// The kernel is symmetric bit for bit ([`Kernel::is_symmetric`]), so
/// `K(cols, rows)` is `K(rows, cols)ᵀ`: it is evaluated straight into the
/// layout the pivoted QR factors, with no transposing copy.
pub(crate) fn row_id_against(
    kernel: &dyn Kernel,
    pts: &PointSet,
    rows: &[usize],
    cols: &[usize],
    id_tol: f64,
) -> RowId {
    let at = if cols.is_empty() {
        Matrix::zeros(0, rows.len())
    } else {
        h2_kernels::kernel_matrix(kernel, pts, cols, rows)
    };
    row_id_transposed(at, Truncation::tol(id_tol))
}

/// The one bottom-up nested-skeleton pass: every construction method whose
/// skeletons are data points, and every incremental update, is a call of
/// this function with its own node set and factor rule.
///
/// Per node `i` of `levels` (a root-closed node set grouped by tree level,
/// `levels[l]` at level `l`), the candidate rows are the node's own points
/// (leaf) or the concatenated skeletons of its children in child order
/// (internal — the nesting step). `factor(tree, i, rows)` picks skeleton
/// positions into `rows` and the interpolation operator `P` in `f64`, plus a
/// note for the caller (the sketched rule's counts; `()` otherwise); the
/// pass maps the skeleton to global point indices and installs it with the
/// rank, and `P` — rounded to the storage scalar exactly once, here —
/// becomes the leaf basis `U_i` or is split row-wise over the children into
/// their transfers `R_c`, each held by [`BasisMatrix::from_dense`] (its
/// skeleton rows are unit rows) where the node is factored.
///
/// A node reads only its children's skeletons, so a subset has to hold,
/// with every node, the ancestors whose rows it changes (a root-to-leaf path
/// does). The set is cut into subtrees ([`ClusterTree::cut_subtrees`]) and
/// the pass is one step of the executor ([`h2_linalg::exec`]) of one task
/// per subtree: a task factors its subtree deepest node first, reading the
/// skeletons it just computed from task-local state and every other child's
/// from the operator. `factor` is a pure function of the node and its rows,
/// so the operator is the same at any width, for any cut and any order
/// inside `levels[l]`. Everything the step computed is installed, and
/// `note` called, by the calling thread in a fixed order after the step
/// (subtree by subtree, each deepest node first); the calling thread then
/// factors and installs the few nodes above the cut, deepest first.
///
/// Helper threads record no spans: the work is tallied per level in plain
/// integers and recorded after the join as one span per level, the
/// factoring under the caller's `span` name and the installation under
/// `build.transfers`, both labelled `level=N` and lasting the busy time
/// summed over threads.
pub(crate) fn nested_skeleton_pass<S: Scalar, N: Send>(
    h2: &mut H2MatrixS<S>,
    levels: &[Vec<NodeId>],
    span: &'static str,
    factor: impl Fn(&ClusterTree, NodeId, &[usize]) -> (RowId, N) + Sync,
    mut note: impl FnMut(N),
) {
    let start_ns = h2_telemetry::now_ns();
    let cut = h2.tree.cut_subtrees(levels, exec::width());
    let (tree, proxies, ranks, factor) = (&h2.tree, &h2.proxies, &h2.ranks, &factor);
    let computed = exec::map(&cut.subtrees, |nodes| {
        let mut tally = LevelTally::default();
        let mut mine: HashMap<NodeId, Factored<S, N>> = HashMap::with_capacity(nodes.len());
        for &i in nodes.iter().rev() {
            let t = Instant::now();
            let child = |c: NodeId| match mine.get(&c) {
                Some(fresh) => (&fresh.skel[..], fresh.skel.len()),
                None => (skeleton(&proxies[c]), ranks[c]),
            };
            let node = factor_node(tree, i, child, factor);
            tally.add(tree.node(i).level, t);
            mine.insert(i, node);
        }
        (mine, tally)
    });
    let (mut factored, mut installed) = (LevelTally::default(), LevelTally::default());
    for (nodes, (mut mine, tally)) in cut.subtrees.iter().zip(computed) {
        factored.merge(&tally);
        for &i in nodes.iter().rev() {
            let t = Instant::now();
            let node = mine.remove(&i).expect("the task factored its nodes");
            note(install(h2, i, node));
            installed.add(h2.tree.node(i).level, t);
        }
    }
    for &i in cut.above.iter().rev() {
        let t = Instant::now();
        let child = |c: NodeId| (skeleton(&h2.proxies[c]), h2.ranks[c]);
        let node = factor_node(&h2.tree, i, child, factor);
        factored.add(h2.tree.node(i).level, t);
        let t = Instant::now();
        note(install(h2, i, node));
        installed.add(h2.tree.node(i).level, t);
    }
    factored.record(span, start_ns);
    installed.record("build.transfers", start_ns + factored.total_ns());
}

/// Installs node `i`'s factor into `h2` and returns its note.
fn install<S: Scalar, N>(h2: &mut H2MatrixS<S>, i: NodeId, node: Factored<S, N>) -> N {
    let Factored {
        skel,
        mut held,
        note,
    } = node;
    let nd = h2.tree.node(i);
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
    note
}

/// One node's factor: its skeleton (global point indices) and what it
/// holds, the leaf basis or per child its transfer.
struct Factored<S: Scalar, N> {
    skel: Vec<usize>,
    held: Vec<BasisMatrix<S>>,
    note: N,
}

/// A nested skeleton: a data-point proxy's point indices.
fn skeleton(proxy: &ProxyPoints) -> &[usize] {
    match proxy {
        ProxyPoints::Indices(skel) => skel,
        ProxyPoints::Coords(_) => unreachable!("nested skeletons are data points"),
    }
}

/// Factors node `i` of the nested-skeleton pass; `child(c)` is child `c`'s
/// skeleton and rank.
fn factor_node<'a, S: Scalar, N>(
    tree: &ClusterTree,
    i: NodeId,
    child: impl Fn(NodeId) -> (&'a [usize], usize),
    factor: &impl Fn(&ClusterTree, NodeId, &[usize]) -> (RowId, N),
) -> Factored<S, N> {
    let nd = tree.node(i);
    let rows: Vec<usize> = if nd.is_leaf() {
        tree.node_indices(i).to_vec()
    } else {
        (nd.children.iter())
            .flat_map(|&c| child(c).0.iter().copied())
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
            let rank = child(c).1;
            let block = p.block(off..off + rank, 0..p.ncols());
            off += rank;
            BasisMatrix::from_dense(block.convert::<S>())
        };
        nd.children.iter().map(transfer).collect()
    };
    Factored { skel, held, note }
}

/// Busy time and node count per tree level, tallied in plain integers where
/// the work ran and recorded as spans by the thread that joined it.
#[derive(Default)]
struct LevelTally(Vec<(u64, usize)>);

impl LevelTally {
    fn at(&mut self, level: usize) -> &mut (u64, usize) {
        if self.0.len() <= level {
            self.0.resize(level + 1, (0, 0));
        }
        &mut self.0[level]
    }

    /// Counts one node of `level`, busy since `since`.
    fn add(&mut self, level: usize, since: Instant) {
        let at = self.at(level);
        at.0 += since.elapsed().as_nanos() as u64;
        at.1 += 1;
    }

    fn merge(&mut self, other: &LevelTally) {
        for (level, &(ns, nodes)) in other.0.iter().enumerate() {
            let at = self.at(level);
            at.0 += ns;
            at.1 += nodes;
        }
    }

    fn total_ns(&self) -> u64 {
        self.0.iter().map(|&(ns, _)| ns).sum()
    }

    /// One span `name` labelled `level=N` per level with nodes, lasting its
    /// busy time, laid end to end from `start_ns`.
    fn record(&self, name: &'static str, start_ns: u64) {
        let mut at = start_ns;
        for (level, &(ns, nodes)) in self.0.iter().enumerate() {
            if nodes > 0 {
                h2_telemetry::record_span(name, format!("level={level}"), at, ns);
                at += ns;
            }
        }
    }
}

/// Builds an [`H2MatrixS`]: cluster tree, admissibility lists, per-node
/// generators for the configured basis method, and the block table: every
/// coupling/nearfield block in normal mode, the first fit of
/// `cfg.cache_budget` on the fly.
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
    let lists = Arc::new(build_block_lists(&tree, cfg.eta));
    let lists_ms = ms_since(t);
    drop(sp);

    // The operator with every node still to be factored and no block
    // generated: construction from here on is the update that touches every
    // node and every pair.
    let n_nodes = tree.node_count();
    let mut h2 = H2MatrixS {
        tree,
        lists: lists.clone(),
        kernel,
        bases: vec![BasisMatrix::default(); n_nodes],
        transfers: vec![BasisMatrix::default(); n_nodes],
        proxies: vec![ProxyPoints::Indices(Vec::new()); n_nodes],
        ranks: vec![0; n_nodes],
        // Listed, with its blocks, by the plan below.
        table: Arc::new(BlockTable::listed(lists, Some(0))),
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

    // One plan installs the table, whatever the mode: every block in normal
    // mode, the budget's first fit (none by default) on the fly.
    let sp = h2_telemetry::span("build.blocks");
    let t = Instant::now();
    let holding = h2.holding(cfg.mode, cfg.cache_budget);
    h2.table = Arc::new(h2.plan_table(&h2.table, holding));
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

        // Re-factor every node with a rule that fails on the first node of
        // one subtree of the pass — while another thread is inside the same
        // step, which the first node of another subtree makes sure of.
        let levels = h2.tree.levels().to_vec();
        let cut = h2.tree.cut_subtrees(&levels, 2);
        assert!(cut.subtrees.len() >= 2, "setup: a wide cut");
        // A task walks its subtree backwards: its last node comes first.
        let first = |k: usize| *cut.subtrees[k].last().expect("a subtree has nodes");
        let (meet, victim) = (Barrier::new(2), first(1));
        let rule = |_: &ClusterTree, i: NodeId, rows: &[usize]| {
            if i == first(0) || i == victim {
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
