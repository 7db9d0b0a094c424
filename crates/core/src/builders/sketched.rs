//! The sketched factor rule: randomized **sketched construction** of H²
//! bases, the second construction path next to the paper's anchor-net
//! sampling — [`sketch_node`] per node of the shared nested-skeleton pass.
//!
//! Instead of summarizing each node's farfield with a carefully chosen
//! anchor-net sample set `Y_i*` (an O(n) but constant-heavy hierarchical
//! sweep), the sketched rule follows the randomized recipe of *Adaptive
//! Sketching Based Construction of H2 Matrices on GPUs* (Boukaram et al.) and
//! the Hatrix exemplar: draw a handful of **uniform farfield columns**, mix
//! them with a Gaussian test matrix, and row-ID the thin sketch
//!
//! ```text
//! Y_i = K(X_i, C_i) · Ω_i          (m_i × (d + p),  |C_i| = c·(d + p))
//! ```
//!
//! The skeleton the ID picks from `Y_i` is validated against *fresh* random
//! probe columns; on failure the target rank `d` **doubles** and the node is
//! re-sketched — the adaptive-rank loop. Because skeletons are still indices
//! of actual data points, the assembled operator keeps the kernel-submatrix
//! coupling structure (`B_{ij} = K(S_i, S_j)`).
//!
//! Everything is driven by counter-based RNG streams keyed by
//! `(seed, node, round, purpose)`, so a build is **bit-reproducible** for a
//! fixed seed regardless of thread count or scheduling.
//!
//! The sketched method replaces only *what a node's rows are compressed
//! against*, so nesting, installation and everything downstream (block
//! generation, both memory modes, the cache tier, persistence, incremental
//! updates) are the code the deterministic methods run.

use super::nested_skeleton_pass;
use crate::h2matrix::H2MatrixS;
use h2_kernels::{kernel_matrix, Kernel};
use h2_linalg::id::RowId;
use h2_linalg::qr::Truncation;
use h2_linalg::sketch::gaussian_test_matrix;
use h2_linalg::{Matrix, Scalar};
use h2_points::{ClusterTree, NodeId, PointSet};
use h2_sampling::FarfieldRanges;

pub use h2_linalg::CounterRng;

/// Extra sketch columns beyond the target rank (`p` in HMT notation).
const OVERSAMPLE: usize = 10;
/// Farfield columns drawn per sketch column: `|C_i| = SAMPLE_FACTOR ·
/// (d + OVERSAMPLE)`. Larger values make the uniform column sample a
/// better stand-in for the full farfield at linear extra cost.
const SAMPLE_FACTOR: usize = 2;
/// Fresh probe columns used to validate each node's skeleton.
const PROBES: usize = 16;

/// The parameters of the sketched builder that depend on the target
/// accuracy and the dimension.
#[derive(Clone, Debug, PartialEq)]
pub struct SketchParams {
    /// Initial target rank `r₀` of the adaptive loop (also the ID rank cap
    /// of the first round).
    pub r0: usize,
    /// Hard cap on the adaptive rank doubling.
    pub max_rank: usize,
    /// Relative tolerance of the per-node row ID (mirrors the anchor-net
    /// builder's `id_tol`).
    pub id_tol: f64,
    /// Acceptance threshold on the relative probe residual
    /// `‖K(X,V) − P·K(S,V)‖_F / ‖K(X,V)‖_F`.
    pub resid_tol: f64,
}

impl SketchParams {
    /// Parameters sized for a target relative accuracy in `dim` dimensions.
    ///
    /// `r₀` matches the anchor-net per-node sample budget for the same
    /// tolerance (`SampleParams::for_tolerance`), so for well-behaved kernels
    /// the first round already brackets the final rank and doubling is rare;
    /// `id_tol = tol·0.1` follows the anchor-net convention, and the probe
    /// residual is accepted at `tol` itself.
    pub fn for_tolerance(tol: f64, dim: usize) -> Self {
        let digits = (-tol.log10()).clamp(1.0, 16.0);
        let base = (8.0 * digits) * (dim.max(2) as f64) / 2.0;
        let r0 = (base as usize).clamp(24, 600);
        SketchParams {
            r0,
            max_rank: (8 * r0).min(4096),
            id_tol: tol * 0.1,
            resid_tol: tol,
        }
    }
}

impl Default for SketchParams {
    fn default() -> Self {
        SketchParams::for_tolerance(1e-8, 3)
    }
}

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
        let width = (d + OVERSAMPLE).min(total_far);
        let want = (SAMPLE_FACTOR * width).min(total_far);
        let mut crng = stream(seed, id, round, PURPOSE_COLS);
        let cols = far.sample(id, want, &mut crng);
        let b = kernel_matrix(kernel, pts, rows, &cols);
        samples += cols.len();

        // Mix down to `width` columns unless the farfield sample is already
        // that thin (then the sketch is the block itself).
        let y = if cols.len() > width {
            let mut mrng = stream(seed, id, round, PURPOSE_MIX);
            b.matmul(&gaussian_test_matrix(cols.len(), width, &mut mrng))
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
        let probe_cols = far.sample(id, PROBES, &mut prng);
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

/// Factors every node with randomized sketches ([`sketch_node`]) and
/// returns the build's sketch counters.
pub(crate) fn factor_all<S: Scalar>(
    h2: &mut H2MatrixS<S>,
    params: &SketchParams,
    seed: u64,
) -> SketchStats {
    // Farfield range precomputation is the sketched path's analogue of the
    // anchor-net sampling sweep — measured under the same span name so the
    // profile bench's phase table lines up across builders.
    let sp = h2_telemetry::span("build.sampling");
    let far = FarfieldRanges::build(&h2.tree, &h2.lists);
    let sampling_ms = sp.finish() * 1e3;

    // Every node's counts come back with its factor and are folded here, on
    // the thread that owns the build, so they are exact at any width.
    let mut stats = SketchStats {
        sampling_ms,
        ..SketchStats::default()
    };
    let (kernel, levels) = (h2.kernel.clone(), h2.tree.levels().to_vec());
    let rule = |tree: &ClusterTree, i: NodeId, rows: &[usize]| {
        let node = sketch_node(i, rows, tree.points(), &far, kernel.as_ref(), params, seed);
        (node.rid, node.counts)
    };
    nested_skeleton_pass(h2, &levels, "build.sketch", rule, |counts| {
        stats.record(counts)
    });
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_kernels::kernel_by_name;
    use h2_points::admissibility::build_block_lists;
    use h2_points::gen;
    use h2_points::tree::TreeParams;

    #[test]
    fn for_tolerance_scales_with_accuracy() {
        let loose = SketchParams::for_tolerance(1e-2, 3);
        let tight = SketchParams::for_tolerance(1e-10, 3);
        assert!(tight.r0 > loose.r0);
        assert!(tight.id_tol < loose.id_tol);
        assert!(loose.r0 >= 24 && tight.r0 <= 600);
    }

    #[test]
    fn default_matches_core_default_tolerance() {
        let d = SketchParams::default();
        assert!((d.resid_tol - 1e-8).abs() < 1e-20);
        assert!(d.max_rank >= d.r0);
    }

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
            // Every round validates against `PROBES` fresh columns
            // (fewer only when the whole farfield is smaller).
            let c = s.counts;
            assert!(c.probes <= c.rounds * PROBES, "leaf {leaf}");
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
