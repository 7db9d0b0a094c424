//! Hierarchical data-driven sampling — the paper's Algorithm 1.
//!
//! Two sweeps over the cluster tree, each one executor step of one task per
//! subtree ([`ClusterTree::cut_subtrees`]):
//!
//! 1. **Bottom-to-top** (`X_i*`): each leaf samples its own points; each
//!    internal node samples the union of its children's samples. Every node
//!    therefore carries an O(1)-size surrogate of its subtree.
//! 2. **Top-to-bottom** (`Y_i*`): each node samples the union of (a) the
//!    `X_j*` surrogates of every node `j` in its interaction list and (b)
//!    its parent's `Y*` (a node's farfield contains its parent's farfield).
//!    The result is an O(1)-size surrogate of the node's *entire* farfield
//!    `Y_i` — the proxy the data-driven basis `U_i = K(X_i, Y_i*)` is built
//!    from.
//!
//! Both sweeps cost O(1) per node, O(n) total, and sampling never looks at
//! the kernel — the property that lets one sampling pass be amortized over
//! many kernels on the same data (paper §VI-A).

use crate::strategies::anchor_net;
use h2_linalg::exec;
use h2_points::admissibility::BlockLists;
use h2_points::tree::{ClusterTree, SubtreeCut};
use h2_points::NodeId;
use std::collections::HashMap;

/// Sampling budgets for Algorithm 1.
#[derive(Clone, Copy, Debug)]
pub struct SampleParams {
    /// Budget for each *leaf-level* node surrogate `X_i*`.
    pub node_samples: usize,
    /// Budget for each *leaf-level* farfield surrogate `Y_i*`.
    pub far_samples: usize,
}

impl Default for SampleParams {
    fn default() -> Self {
        SampleParams {
            node_samples: 48,
            far_samples: 96,
        }
    }
}

impl SampleParams {
    /// Budgets sized for a target relative accuracy `tol` in `dim`
    /// dimensions.
    ///
    /// Empirical calibration (see `EXPERIMENTS.md`): the rank needed by
    /// smooth radial kernels grows roughly linearly in `log10(1/tol)` with a
    /// dimension-dependent prefactor; we budget ~3x the expected rank so the
    /// subsequent rank-revealing ID (not the sampling) decides the final
    /// rank.
    pub fn for_tolerance(tol: f64, dim: usize) -> Self {
        let digits = (-tol.log10()).clamp(1.0, 16.0);
        let base = (8.0 * digits) as usize * dim.max(2) / 2;
        SampleParams {
            node_samples: base.clamp(24, 600),
            far_samples: (4 * base).clamp(64, 1600),
        }
    }
}

/// Output of Algorithm 1: per-node sample index lists (global point indices).
#[derive(Clone, Debug)]
pub struct HierarchicalSamples {
    /// `x_star[i]` — sample of node i's own points (bottom-to-top sweep).
    pub x_star: Vec<Vec<usize>>,
    /// `y_star[i]` — sample of node i's farfield (top-to-bottom sweep).
    pub y_star: Vec<Vec<usize>>,
}

impl HierarchicalSamples {
    /// Heap bytes held (for memory accounting).
    pub fn bytes(&self) -> usize {
        let w = std::mem::size_of::<usize>();
        self.x_star
            .iter()
            .chain(self.y_star.iter())
            .map(|v| v.capacity() * w)
            .sum()
    }
}

/// Runs Algorithm 1: the [`sample_levels`] sweep over every node of the
/// tree.
pub fn hierarchical_sample(
    tree: &ClusterTree,
    lists: &BlockLists,
    params: &SampleParams,
) -> HierarchicalSamples {
    let mut x_star: Vec<Vec<usize>> = vec![Vec::new(); tree.node_count()];
    let y_star = sample_levels(tree, lists, params, tree.levels(), &mut x_star);
    HierarchicalSamples { x_star, y_star }
}

/// The bottom-to-top half of the sweep: recomputes `X_i*` in place for
/// every node of `levels` (a **root-closed** node set grouped by tree
/// level, `levels[l]` at level `l`), children before parents. A node pulls
/// only from its children, so the set is cut into subtrees
/// ([`ClusterTree::cut_subtrees`]) and the pass is one step of the executor
/// ([`h2_linalg::exec`]) of one task per subtree: each walks its subtree
/// deepest node first, reading its own fresh results from task-local state
/// and every other child from `x_star`. The calling thread installs the
/// results in a fixed order after the step, then computes the few nodes
/// above the cut. The order inside `levels[l]` does not matter.
///
/// `x_star` is sized to `tree.node_count()`; entries outside `levels` are
/// read (as children) but never written. Per-node budgets are pure
/// functions of `(params, depth, level)`, so refreshing a subset leaves
/// exactly what a sweep over the whole tree would.
pub fn refresh_x_star(
    tree: &ClusterTree,
    params: &SampleParams,
    levels: &[Vec<NodeId>],
    x_star: &mut [Vec<usize>],
) {
    let cut = tree.cut_subtrees(levels, exec::width());
    upward(tree, params, &cut, x_star);
}

/// [`refresh_x_star`] over a cut node set.
fn upward(tree: &ClusterTree, params: &SampleParams, cut: &SubtreeCut, x_star: &mut [Vec<usize>]) {
    assert_eq!(x_star.len(), tree.node_count());
    let _sp = h2_telemetry::span("sampling.upward");
    let table: &[Vec<usize>] = x_star;
    let fresh = exec::map(&cut.subtrees, |nodes| {
        let mut mine: HashMap<NodeId, Vec<usize>> = HashMap::with_capacity(nodes.len());
        for &i in nodes.iter().rev() {
            let x = sample_x(tree, params, |c| mine.get(&c).unwrap_or(&table[c]), i);
            mine.insert(i, x);
        }
        mine
    });
    for (nodes, mut mine) in cut.subtrees.iter().zip(fresh) {
        for &i in nodes.iter().rev() {
            x_star[i] = mine.remove(&i).expect("the task sampled its nodes");
        }
    }
    for &i in cut.above.iter().rev() {
        x_star[i] = sample_x(tree, params, |c| &x_star[c], i);
    }
}

/// The one Algorithm-1 sweep, over any **root-closed** node set (with every
/// node, its parent): [`refresh_x_star`] bottom-to-top, then `Y_i*`
/// top-to-bottom so each node inherits its parent's freshly computed `Y*`.
/// A full construction passes `tree.levels()`; an incremental update passes
/// the root-to-leaf paths it touched (`lists` then being the lists of the
/// mutated tree).
///
/// Both halves share one cut of the set. The downward half computes the
/// nodes above the cut on the calling thread, root first, then runs one
/// executor step of one task per subtree, each walking its subtree root
/// first with its parents' fresh `Y*` in task-local state.
///
/// Returns `Y*` as a dense per-node table: entries outside `levels` stay
/// empty. `Y*` is construction scratch — no operator stores it.
pub fn sample_levels(
    tree: &ClusterTree,
    lists: &BlockLists,
    params: &SampleParams,
    levels: &[Vec<NodeId>],
    x_star: &mut [Vec<usize>],
) -> Vec<Vec<usize>> {
    let cut = tree.cut_subtrees(levels, exec::width());
    upward(tree, params, &cut, x_star);

    let _sp = h2_telemetry::span("sampling.downward");
    let x_star: &[Vec<usize>] = x_star;
    let n_nodes = tree.node_count();
    let mut y_star: Vec<Vec<usize>> = vec![Vec::new(); n_nodes];
    let mut done = vec![false; n_nodes];
    // A parent's `Y*` from the table, where the calling thread put it.
    fn parent_y<'a>(
        tree: &ClusterTree,
        i: NodeId,
        y_star: &'a [Vec<usize>],
        done: &[bool],
    ) -> Option<&'a [usize]> {
        let p = tree.node(i).parent?;
        assert!(done[p], "node set is not root-closed: {p} missing");
        Some(&y_star[p])
    }
    for &i in &cut.above {
        let inherited = parent_y(tree, i, &y_star, &done);
        let y = sample_y(tree, lists, params, x_star, inherited, i);
        (y_star[i], done[i]) = (y, true);
    }
    let (table, set) = (&y_star, &done);
    let fresh = exec::map(&cut.subtrees, |nodes| {
        let mut mine: HashMap<NodeId, Vec<usize>> = HashMap::with_capacity(nodes.len());
        for &i in nodes {
            let parent = tree.node(i).parent;
            let inherited = match parent.and_then(|p| mine.get(&p)) {
                Some(y) => Some(&y[..]),
                None => parent_y(tree, i, table, set),
            };
            let y = sample_y(tree, lists, params, x_star, inherited, i);
            mine.insert(i, y);
        }
        mine
    });
    for (nodes, mut mine) in cut.subtrees.iter().zip(fresh) {
        for &i in nodes {
            y_star[i] = mine.remove(&i).expect("the task sampled its nodes");
        }
    }
    y_star
}

/// Per-level budget growth above the leaves: a node `h` levels above the
/// leaf level gets `budget · LEVEL_GROWTH^h` (capped by [`LEVEL_CAP`]).
/// Upper-level nodes summarize exponentially larger regions with few nodes
/// in total, so spending more there restores accuracy at negligible cost
/// (tree-depth error compounding otherwise degrades the achieved tolerance
/// as n grows).
const LEVEL_GROWTH: f64 = 1.25;
/// Cap on the per-level multiplier: no node's budget exceeds
/// `round(base · LEVEL_CAP)`.
const LEVEL_CAP: f64 = 2.5;

/// Budget for a node at tree level `lvl` (leaves = `depth`): the base
/// budget times `LEVEL_GROWTH^height`, capped. A pure function of the
/// level, so an incrementally refreshed node samples with the exact budget
/// a sweep over the whole tree would use.
fn level_scale(depth: usize, lvl: usize, budget: usize) -> usize {
    let h = depth.saturating_sub(lvl) as f64;
    let mult = LEVEL_GROWTH.powf(h).clamp(1.0, LEVEL_CAP);
    (budget as f64 * mult).round() as usize
}

/// One node of the bottom-to-top sweep: sample `X_i*` from the node's own
/// points (leaf) or its children's surrogates `x_of(c)` (internal). The
/// budget is a pure function of `(params, depth, level)`, so recomputing
/// one node reproduces what the full sweep would have produced.
fn sample_x<'a>(
    tree: &ClusterTree,
    params: &SampleParams,
    x_of: impl Fn(NodeId) -> &'a Vec<usize>,
    i: usize,
) -> Vec<usize> {
    let nd = tree.node(i);
    let budget = level_scale(tree.depth(), nd.level, params.node_samples);
    let cand: Vec<usize> = if nd.is_leaf() {
        tree.node_indices(i).to_vec()
    } else {
        (nd.children.iter())
            .flat_map(|&c| x_of(c).iter().copied())
            .collect()
    };
    anchor_net(tree.points(), &cand, budget)
}

/// One node of the top-to-bottom sweep: sample `Y_i*` from the node's
/// interaction-list surrogates plus its parent's farfield surrogate (the
/// parent's `Y*` covers everything farther away; `None` at the root).
fn sample_y(
    tree: &ClusterTree,
    lists: &BlockLists,
    params: &SampleParams,
    x_star: &[Vec<usize>],
    parent_y: Option<&[usize]>,
    i: usize,
) -> Vec<usize> {
    let budget = level_scale(tree.depth(), tree.node(i).level, params.far_samples);
    let mut cand: Vec<usize> = lists.interaction[i]
        .iter()
        .flat_map(|&j| x_star[j].iter().copied())
        .collect();
    cand.extend_from_slice(parent_y.unwrap_or_default());
    // Anchor matching scans the pool per anchor; decimate oversized pools
    // first (stride-subsampling keeps the per-interaction-node spatial
    // diversity since candidates arrive grouped by source node). Keeps the
    // sweep O(1) per node regardless of interaction-list width.
    let cap = 6 * budget;
    if cand.len() > cap {
        let stride = cand.len().div_ceil(cap);
        let offset = (i * 7) % stride; // decorrelate across nodes
        cand = cand.into_iter().skip(offset).step_by(stride).collect();
    }
    anchor_net(tree.points(), &cand, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_points::admissibility::build_block_lists;
    use h2_points::gen;
    use h2_points::tree::{ClusterTree, TreeParams};

    fn setup(n: usize, dim: usize, seed: u64) -> (ClusterTree, BlockLists) {
        let pts = gen::uniform_cube(n, dim, seed);
        let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(32));
        let lists = build_block_lists(&tree, 0.7);
        (tree, lists)
    }

    /// The set of original points in the subtree of `i`.
    fn subtree_points(tree: &ClusterTree, i: NodeId) -> std::collections::HashSet<usize> {
        tree.node_indices(i).iter().copied().collect()
    }

    /// The farfield of node i: union of interaction lists of i and all its
    /// ancestors, expanded to point indices.
    fn farfield_points(
        tree: &ClusterTree,
        lists: &BlockLists,
        i: NodeId,
    ) -> std::collections::HashSet<usize> {
        let mut out = std::collections::HashSet::new();
        let mut cur = Some(i);
        while let Some(c) = cur {
            for &j in &lists.interaction[c] {
                out.extend(tree.node_indices(j).iter().copied());
            }
            cur = tree.node(c).parent;
        }
        out
    }

    #[test]
    fn x_star_is_subset_of_subtree() {
        let (tree, lists) = setup(600, 3, 1);
        let s = hierarchical_sample(&tree, &lists, &SampleParams::default());
        for i in 0..tree.node_count() {
            let sub = subtree_points(&tree, i);
            for &p in &s.x_star[i] {
                assert!(sub.contains(&p), "node {i}: sample {p} outside subtree");
            }
            assert!(!s.x_star[i].is_empty());
            // Budget at any level is capped at LEVEL_CAP x the base budget.
            let p = SampleParams::default();
            let cap = (p.node_samples as f64 * LEVEL_CAP).round() as usize;
            assert!(s.x_star[i].len() <= cap);
        }
    }

    #[test]
    fn y_star_is_subset_of_farfield() {
        let (tree, lists) = setup(600, 3, 2);
        let s = hierarchical_sample(&tree, &lists, &SampleParams::default());
        for i in 0..tree.node_count() {
            let far = farfield_points(&tree, &lists, i);
            for &p in &s.y_star[i] {
                assert!(
                    far.contains(&p),
                    "node {i}: farfield sample {p} not in farfield"
                );
            }
        }
    }

    #[test]
    fn y_star_nonempty_when_farfield_nonempty() {
        let (tree, lists) = setup(800, 2, 3);
        let s = hierarchical_sample(&tree, &lists, &SampleParams::default());
        for i in 0..tree.node_count() {
            let far = farfield_points(&tree, &lists, i);
            if !far.is_empty() {
                assert!(!s.y_star[i].is_empty(), "node {i} lost its farfield");
            } else {
                assert!(s.y_star[i].is_empty());
            }
        }
    }

    #[test]
    fn budgets_respected() {
        let (tree, lists) = setup(500, 3, 4);
        let p = SampleParams {
            node_samples: 10,
            far_samples: 25,
        };
        let s = hierarchical_sample(&tree, &lists, &p);
        let cap = |base: usize| (base as f64 * LEVEL_CAP).round() as usize;
        for i in 0..tree.node_count() {
            assert!(s.x_star[i].len() <= cap(10));
            assert!(s.y_star[i].len() <= cap(25));
        }
    }

    #[test]
    fn deterministic() {
        let (tree, lists) = setup(400, 2, 5);
        let p = SampleParams::default();
        let a = hierarchical_sample(&tree, &lists, &p);
        let b = hierarchical_sample(&tree, &lists, &p);
        assert_eq!(a.x_star, b.x_star);
        assert_eq!(a.y_star, b.y_star);
    }

    #[test]
    fn tolerance_params_scale() {
        let loose = SampleParams::for_tolerance(1e-2, 3);
        let tight = SampleParams::for_tolerance(1e-10, 3);
        assert!(tight.node_samples > loose.node_samples);
        let low_d = SampleParams::for_tolerance(1e-6, 2);
        let high_d = SampleParams::for_tolerance(1e-6, 6);
        assert!(high_d.node_samples >= low_d.node_samples);
    }

    #[test]
    fn single_leaf_tree() {
        let pts = gen::uniform_cube(20, 2, 7);
        let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(64));
        let lists = build_block_lists(&tree, 0.7);
        let s = hierarchical_sample(&tree, &lists, &SampleParams::default());
        assert_eq!(s.x_star.len(), 1);
        assert!(s.y_star[0].is_empty());
    }

    /// The root-to-leaf path of `leaf`, grouped by level — the node set an
    /// incremental update hands the sweep.
    fn path_levels(tree: &ClusterTree, leaf: NodeId) -> Vec<Vec<NodeId>> {
        let mut levels = vec![Vec::new(); tree.depth() + 1];
        let mut cur = Some(leaf);
        while let Some(c) = cur {
            levels[tree.node(c).level].push(c);
            cur = tree.node(c).parent;
        }
        levels
    }

    #[test]
    fn upward_half_alone_matches_the_full_sweep() {
        let (tree, lists) = setup(700, 3, 1);
        let p = SampleParams::default();
        let full = hierarchical_sample(&tree, &lists, &p);
        let mut x = vec![Vec::new(); tree.node_count()];
        refresh_x_star(&tree, &p, tree.levels(), &mut x);
        assert_eq!(x, full.x_star);
    }

    #[test]
    fn path_sweep_reproduces_full_sweep_on_static_tree() {
        // On an unmutated tree, sweeping a path must be a no-op: the
        // per-node rule is deterministic in (tree, params, children).
        let (tree, lists) = setup(600, 3, 2);
        let p = SampleParams::default();
        let full = hierarchical_sample(&tree, &lists, &p);
        let mut x = full.x_star.clone();
        let levels = path_levels(&tree, *tree.leaves().last().unwrap());
        let y = sample_levels(&tree, &lists, &p, &levels, &mut x);
        assert_eq!(x, full.x_star);
        // Same for the downward half: path-local Y* equals the sweep's,
        // and nothing off the path is written.
        let on_path: Vec<NodeId> = levels.concat();
        for (i, y) in y.iter().enumerate() {
            if on_path.contains(&i) {
                assert_eq!(*y, full.y_star[i], "node {i}");
            } else {
                assert!(y.is_empty(), "off-path node {i}");
            }
        }
    }

    #[test]
    fn path_sweep_tracks_an_inserted_point() {
        let (mut tree, _) = setup(500, 3, 3);
        let p = SampleParams::default();
        let mut x = vec![Vec::new(); tree.node_count()];
        refresh_x_star(&tree, &p, tree.levels(), &mut x);
        let (leaf, _g) = tree.insert_point(&[0.41, 0.43, 0.47]);
        let levels = path_levels(&tree, leaf);
        refresh_x_star(&tree, &p, &levels, &mut x);
        // The refreshed table equals a from-scratch upward sweep over the
        // mutated tree: off-path nodes were already correct (their subtrees
        // are untouched), and path nodes were recomputed with full-sweep
        // budgets and seeds.
        let mut fresh = vec![Vec::new(); tree.node_count()];
        refresh_x_star(&tree, &p, tree.levels(), &mut fresh);
        assert_eq!(x, fresh);
        // Sanity: samples on the path stay inside their subtrees.
        for &i in levels.iter().flatten() {
            let sub = subtree_points(&tree, i);
            assert!(x[i].iter().all(|s| sub.contains(s)), "node {i}");
        }
    }

    #[test]
    #[should_panic(expected = "root-closed")]
    fn sweep_requires_root_closure() {
        let (tree, lists) = setup(400, 3, 4);
        let p = SampleParams::default();
        let mut x = hierarchical_sample(&tree, &lists, &p).x_star;
        // The top three levels without one child of the root: its children
        // lack their parent. The other child's children come first, so the
        // step that panics is wide, holds tasks that succeed, and ends at a
        // barrier the panic has to cross.
        let children = |i: NodeId| tree.node(i).children.clone();
        let (kept, dropped) = (children(tree.root())[0], children(tree.root())[1]);
        let good = children(kept);
        let orphans = [good.clone(), children(dropped)].concat();
        assert_eq!(
            (good.len(), orphans.len()),
            (2, 4),
            "setup: three full levels"
        );
        let levels = vec![vec![tree.root()], vec![kept], orphans];
        h2_linalg::exec::Width::new(2)
            .install(|| sample_levels(&tree, &lists, &p, &levels, &mut x));
    }
}
