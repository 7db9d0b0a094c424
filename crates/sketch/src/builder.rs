//! The per-node sketch-and-validate rule.
//!
//! `h2-core`'s nested-skeleton pass hands [`sketch_node`] a node's candidate
//! rows (own points at leaves, children's skeletons above); this module
//! replaces the anchor-net column set with a randomized sketch and wraps the
//! row ID in the adaptive rank-doubling loop of Boukaram et al.

use crate::SketchParams;
use h2_kernels::{kernel_matrix, Kernel};
use h2_linalg::id::RowId;
use h2_linalg::qr::Truncation;
use h2_linalg::sketch::test_matrix;
use h2_linalg::{CounterRng, Matrix};
use h2_points::{NodeId, PointSet};
use h2_sampling::FarfieldRanges;

/// Aggregate counters of one sketched build.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SketchStats {
    /// Farfield columns evaluated for sketches (kernel columns, not probes).
    pub samples: usize,
    /// Probe columns evaluated for validation.
    pub probes: usize,
    /// Adaptive retries (rounds beyond each node's first).
    pub retries: usize,
    /// Largest number of rounds any node needed (1 = no doubling anywhere).
    pub max_rounds: usize,
    /// Time spent precomputing farfield ranges, in milliseconds (the
    /// sketched analogue of the anchor-net sampling sweep).
    pub sampling_ms: f64,
}

impl SketchStats {
    /// Folds one node's counts into the build totals and into the
    /// `sketch.samples` / `sketch.probes` / `sketch.retries` counters. The
    /// thread that owns the build calls this — [`sketch_node`] itself may
    /// run on an executor helper and touches no counter — so a telemetry
    /// scope around a build reads exact totals at any width.
    pub fn record(&mut self, node: NodeCounts) {
        let retries = node.rounds.saturating_sub(1);
        self.samples += node.samples;
        self.probes += node.probes;
        self.retries += retries;
        self.max_rounds = self.max_rounds.max(node.rounds);
        h2_telemetry::counter_add!("sketch.samples", node.samples);
        h2_telemetry::counter_add!("sketch.probes", node.probes);
        h2_telemetry::counter_add!("sketch.retries", retries);
    }
}

/// RNG purposes within one `(node, round)` cell.
const PURPOSE_COLS: u64 = 0;
const PURPOSE_MIX: u64 = 1;
const PURPOSE_PROBE: u64 = 2;

/// One independent stream per `(node, round, purpose)` cell. Rounds are
/// bounded by the doubling loop (≤ 32 in any practical run) and purposes by
/// the constants above, so the packing below never collides across nodes.
fn stream(seed: u64, node: NodeId, round: usize, purpose: u64) -> CounterRng {
    CounterRng::stream(seed, ((node as u64) << 8) | ((round as u64) << 2) | purpose)
}

/// Outcome of one node's adaptive loop.
#[derive(Clone, Debug)]
pub struct NodeSketch {
    /// Skeleton positions *into the candidate rows* plus the interpolation
    /// operator `P` with `K(rows, ·) ≈ P · K(rows[skel], ·)`.
    pub rid: RowId,
    /// What the loop cost, for [`SketchStats::record`].
    pub counts: NodeCounts,
}

/// The work one node's adaptive loop did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeCounts {
    /// Adaptive rounds run (0 for a node with no farfield, 1 = no doubling).
    pub rounds: usize,
    /// Farfield columns evaluated for sketches.
    pub samples: usize,
    /// Probe columns evaluated for validation.
    pub probes: usize,
}

/// Runs the adaptive sketch-and-validate loop for one node.
///
/// `rows` are global indices into `pts` (own points at leaves, children's
/// skeletons above). For a fixed `seed` the result is bit-identical across
/// runs and thread counts: every random draw comes from a counter stream
/// keyed by `(seed, node, round, purpose)`, never from shared mutable state.
pub fn sketch_node(
    id: NodeId,
    rows: &[usize],
    pts: &PointSet,
    far: &FarfieldRanges,
    kernel: &dyn Kernel,
    params: &SketchParams,
    seed: u64,
) -> NodeSketch {
    let m = rows.len();
    let total_far = far.total(id);
    if total_far == 0 || m == 0 {
        // Nothing admissible to compress against: rank 0, like the
        // anchor-net path when Y* is empty.
        return NodeSketch {
            rid: RowId {
                skel: Vec::new(),
                p: Matrix::zeros(m, 0),
            },
            counts: NodeCounts::default(),
        };
    }

    let mut d = params.r0.clamp(1, params.max_rank);
    let mut round = 0usize;
    let mut samples = 0usize;
    let mut probes = 0usize;
    loop {
        let _sp = if round > 0 {
            Some(h2_telemetry::span_labeled(
                "build.adaptive_rank",
                format!("node={id} round={round} rank={d}"),
            ))
        } else {
            None
        };
        let width = (d + params.oversample).min(total_far);
        let want = (params.sample_factor * width).min(total_far);
        let mut crng = stream(seed, id, round, PURPOSE_COLS);
        let cols = far.sample(id, want, &mut crng);
        let b = kernel_matrix(kernel, pts, rows, &cols);
        samples += cols.len();

        // Mix down to `width` columns unless the farfield sample is already
        // that thin (then the sketch is the block itself).
        let y = if cols.len() > width {
            let mut mrng = stream(seed, id, round, PURPOSE_MIX);
            b.matmul(&test_matrix(params.kind, cols.len(), width, &mut mrng))
        } else {
            b
        };
        let rid = h2_linalg::id::row_id_consume(
            y,
            Truncation {
                rel_tol: params.id_tol,
                max_rank: d,
            },
        );

        // Validate against fresh probe columns the sketch never saw.
        let mut prng = stream(seed, id, round, PURPOSE_PROBE);
        let probe_cols = far.sample(id, params.probes, &mut prng);
        let bv = kernel_matrix(kernel, pts, rows, &probe_cols);
        probes += probe_cols.len();
        let denom = bv.fro_norm();
        let resid = if denom == 0.0 {
            0.0
        } else {
            let approx = rid.p.matmul(&bv.select_rows(&rid.skel));
            approx.sub(&bv).fro_norm() / denom
        };

        // Exhausted escape hatches: rank can't grow past the candidate rows,
        // the configured cap, or a sketch that already covered the whole
        // farfield at full width.
        let saturated = d >= m || d >= params.max_rank || width == total_far;
        if resid <= params.resid_tol || saturated {
            let counts = NodeCounts {
                rounds: round + 1,
                samples,
                probes,
            };
            return NodeSketch { rid, counts };
        }
        d = (d * 2).min(params.max_rank);
        round += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_kernels::kernel_by_name;
    use h2_points::admissibility::build_block_lists;
    use h2_points::gen;
    use h2_points::tree::{ClusterTree, TreeParams};

    fn setup(n: usize, dim: usize) -> (ClusterTree, FarfieldRanges) {
        let pts = gen::uniform_cube(n, dim, 42);
        let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(48));
        let far = FarfieldRanges::build(&tree, &build_block_lists(&tree, 0.7));
        (tree, far)
    }

    /// Relative residual of `P · K(rows[skel], V) ≈ K(rows, V)` on probe
    /// columns `V` drawn from a stream the loop never used.
    fn probe_residual(
        tree: &ClusterTree,
        far: &FarfieldRanges,
        kernel: &dyn Kernel,
        id: NodeId,
        rows: &[usize],
        rid: &RowId,
    ) -> f64 {
        let probe = far.sample(id, 24, &mut CounterRng::new(999 + id as u64));
        let bv = kernel_matrix(kernel, tree.points(), rows, &probe);
        let approx = rid.p.matmul(&bv.select_rows(&rid.skel));
        approx.sub(&bv).fro_norm() / bv.fro_norm().max(1e-300)
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let (tree, far) = setup(700, 2);
        let kernel = kernel_by_name("exp").unwrap();
        let params = SketchParams::for_tolerance(1e-6, 2);
        let run = |id: NodeId, seed: u64| {
            let rows = tree.node_indices(id);
            sketch_node(
                id,
                rows,
                tree.points(),
                &far,
                kernel.as_ref(),
                &params,
                seed,
            )
            .rid
        };
        let mut reseeded_differs = false;
        for &leaf in tree.leaves() {
            let (a, b) = (run(leaf, 11), run(leaf, 11));
            assert_eq!(a.skel, b.skel, "leaf {leaf}");
            assert_eq!(a.p.as_slice(), b.p.as_slice(), "leaf {leaf}");
            // A different seed picks (at least somewhere) a different skeleton.
            reseeded_differs |= run(leaf, 12).skel != a.skel;
        }
        assert!(reseeded_differs);
    }

    #[test]
    fn interpolation_validates_on_fresh_probes() {
        let (tree, far) = setup(500, 2);
        let kernel = kernel_by_name("gaussian").unwrap();
        let tol = 1e-6;
        let params = SketchParams::for_tolerance(tol, 2);
        let sketch = |id: NodeId, rows: &[usize]| {
            let s = sketch_node(id, rows, tree.points(), &far, kernel.as_ref(), &params, 3);
            // Shape contract: P is |rows| x rank, skeleton positions index rows.
            assert_eq!(s.rid.p.shape(), (rows.len(), s.rid.skel.len()), "node {id}");
            assert!(s.rid.skel.iter().all(|&k| k < rows.len()), "node {id}");
            if far.total(id) > 0 && !s.rid.skel.is_empty() {
                let err = probe_residual(&tree, &far, kernel.as_ref(), id, rows, &s.rid);
                assert!(err < 50.0 * tol, "node {id}: probe residual {err:.3e}");
            }
            s.rid.skel.iter().map(|&k| rows[k]).collect::<Vec<usize>>()
        };
        // Leaves against their own points, then one nesting step: a parent
        // of two leaves against its children's skeletons.
        let parent = tree
            .nodes()
            .iter()
            .position(|nd| !nd.is_leaf() && nd.children.iter().all(|&c| tree.node(c).is_leaf()))
            .expect("a tree of 500 points has a parent of leaves");
        let mut nested = Vec::new();
        for &c in &tree.node(parent).children {
            nested.extend(sketch(c, tree.node_indices(c)));
        }
        sketch(parent, &nested);
        // The root faces no farfield: rank 0, no rounds.
        let root = sketch_node(
            tree.root(),
            &nested,
            tree.points(),
            &far,
            kernel.as_ref(),
            &params,
            3,
        );
        assert_eq!((root.rid.skel.len(), root.counts.rounds), (0, 0));
    }

    #[test]
    fn adaptive_loop_converges_from_tiny_r0() {
        // Deliberately undersized r0 forces doubling; the loop must still
        // land on an accurate basis and record the retries.
        let (tree, far) = setup(400, 2);
        let kernel = kernel_by_name("exp").unwrap();
        let mut params = SketchParams::for_tolerance(1e-5, 2);
        params.r0 = 2;
        let mut stats = SketchStats::default();
        let mut grew = false;
        for &leaf in tree.leaves() {
            let rows = tree.node_indices(leaf);
            let s = sketch_node(leaf, rows, tree.points(), &far, kernel.as_ref(), &params, 5);
            let err = probe_residual(&tree, &far, kernel.as_ref(), leaf, rows, &s.rid);
            assert!(err < 50.0 * 1e-5, "leaf {leaf}: probe residual {err:.3e}");
            // The ranks must have grown past the initial guess somewhere.
            grew |= s.rid.skel.len() > 2;
            stats.record(s.counts);
        }
        assert!(stats.retries > 0, "r0=2 must trigger doubling");
        assert!(stats.max_rounds > 1);
        assert!(grew);
    }

    #[test]
    fn stats_account_for_samples_and_probes() {
        let (tree, far) = setup(300, 2);
        let kernel = kernel_by_name("imq").unwrap();
        let params = SketchParams::for_tolerance(1e-4, 2);
        let mut stats = SketchStats::default();
        let (mut samples, mut probes, mut rounds) = (0, 0, Vec::new());
        for &leaf in tree.leaves() {
            let rows = tree.node_indices(leaf);
            let s = sketch_node(leaf, rows, tree.points(), &far, kernel.as_ref(), &params, 1);
            // Every round validates against `params.probes` fresh columns
            // (fewer only when the whole farfield is smaller).
            let c = s.counts;
            assert!(c.probes <= c.rounds * params.probes, "leaf {leaf}");
            assert!(c.samples >= c.rounds, "leaf {leaf}");
            samples += c.samples;
            probes += c.probes;
            rounds.push(c.rounds);
            stats.record(s.counts);
        }
        assert!(stats.samples > 0 && stats.probes > 0);
        assert_eq!((stats.samples, stats.probes), (samples, probes));
        assert_eq!(stats.max_rounds, rounds.iter().copied().max().unwrap());
        assert_eq!(
            stats.retries,
            rounds.iter().map(|r| r.saturating_sub(1)).sum::<usize>()
        );
    }
}
