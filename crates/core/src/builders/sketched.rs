//! The sketched factor rule: `h2_sketch::sketch_node` per node of the shared
//! nested-skeleton pass.
//!
//! The sketched method replaces only *what a node's rows are compressed
//! against* — a randomized sketch of uniformly drawn farfield columns inside
//! the adaptive-rank loop, instead of the anchor-net sample `Y_i*` — so
//! nesting, installation and everything downstream (block generation, both
//! memory modes, the cache tier, persistence, incremental updates) are the
//! code the deterministic methods run.

use super::nested_skeleton_pass;
use crate::h2matrix::H2MatrixS;
use h2_linalg::Scalar;
use h2_points::{ClusterTree, NodeId};
use h2_sampling::FarfieldRanges;
use h2_sketch::{sketch_node, SketchParams, SketchStats};

/// Factors every node with randomized sketches (see [`h2_sketch`]) and
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
