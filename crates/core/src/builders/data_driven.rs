//! Data-driven basis construction (the paper's Algorithms 1 + row ID).
//!
//! The farfield of every node is sampled hierarchically ([`h2_sampling`]),
//! then a bottom-up sweep row-IDs `K(X_i, Y_i*)` — candidate rows are the
//! node's own points at leaves and the children's skeletons above — so the
//! basis of every node is an interpolation from a few *actual data points*.
//! Coupling blocks are then plain kernel submatrices `K(S_i, S_j)`, which
//! is what enables the on-the-fly memory mode.

use super::{nested_skeleton_pass, row_id_against};
use crate::h2matrix::H2MatrixS;
use h2_kernels::Kernel;
use h2_linalg::id::RowId;
use h2_linalg::Scalar;
use h2_points::{ClusterTree, NodeId};
use h2_sampling::{hierarchical_sample, SampleParams};

/// The data-driven factor rule: row-ID `K(rows, Y_i*)` at `id_tol`. `Y_i*`
/// is empty exactly when neither the node nor any ancestor has an
/// interaction list — those nodes carry rank 0.
pub(crate) fn factor<'a>(
    kernel: &'a dyn Kernel,
    y_star: &'a [Vec<usize>],
    id_tol: f64,
) -> impl Fn(&ClusterTree, NodeId, &[usize]) -> (RowId, ()) + Sync + 'a {
    move |tree, i, rows| {
        let rid = row_id_against(kernel, tree.points(), rows, &y_star[i], id_tol);
        (rid, ())
    }
}

/// Factors every node: hierarchical farfield sampling followed by nested
/// row IDs at `id_tol`. Returns the sampling time in milliseconds and the
/// surrogate table `X*` the sweep produced.
pub(crate) fn factor_all<S: Scalar>(
    h2: &mut H2MatrixS<S>,
    params: &SampleParams,
    id_tol: f64,
) -> (f64, Vec<Vec<usize>>) {
    // One measurement feeds both the trace and BuildStats::sampling_ms.
    let sp = h2_telemetry::span("build.sampling");
    let samples = hierarchical_sample(&h2.tree, &h2.lists, params);
    let sampling_ms = sp.finish() * 1e3;

    let (kernel, levels) = (h2.kernel.clone(), h2.tree.levels().to_vec());
    let rule = factor(kernel.as_ref(), &samples.y_star, id_tol);
    nested_skeleton_pass(h2, &levels, "build.id", rule, drop);
    (sampling_ms, samples.x_star)
}
