//! Construction phases timed one public entry point at a time, on the
//! workload's own points: what `build_s` is made of below `h2-core`.

use crate::metrics::Metrics;
use crate::trace::Recorder;
use crate::workloads::apply::TOL;
use h2_core::H2Config;
use h2_kernels::Kernel;
use h2_linalg::qr::Truncation;
use h2_points::admissibility::build_block_lists;
use h2_points::{ClusterTree, PointSet, TreeParams};
use h2_sampling::{hierarchical_sample, SampleParams};
use std::time::Instant;

pub fn run(
    pts: &PointSet,
    kernel: &dyn Kernel,
    leaf_size: usize,
    rec: &mut Recorder,
    m: &mut Metrics,
) {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    // Every workload builds with the library's admissibility and `TOL`.
    let (eta, tol) = (H2Config::default().eta, TOL);

    let t = Instant::now();
    let tree = rec.span("h2-points", "tree_build", |_| {
        ClusterTree::build(pts, TreeParams::with_leaf_size(leaf_size))
    });
    m.set("points.tree_build_ms", ms(t));

    let t = Instant::now();
    let lists = rec.span("h2-points", "lists_build", |_| {
        build_block_lists(&tree, eta)
    });
    m.set("points.lists_build_ms", ms(t));

    let params = SampleParams::for_tolerance(tol, pts.dim());
    let t = Instant::now();
    let samples = rec.span("h2-sampling", "hier_sample", |_| {
        hierarchical_sample(&tree, &lists, &params)
    });
    m.set("sampling.hier_sample_ms", ms(t));

    // Row IDs of the two deepest levels' sample matrices K(rows, Y_i*): leaf
    // rows are the node's points, internal rows its own sample X_i*. Only the
    // factorization is timed, not the kernel evaluation that fills the matrix.
    let mut row_id_s = 0.0;
    rec.span("h2-linalg", "row_id", |_| {
        for level in tree.levels().iter().rev().take(2) {
            for &i in level {
                let rows: &[usize] = if tree.node(i).is_leaf() {
                    tree.node_indices(i)
                } else {
                    &samples.x_star[i]
                };
                let cols = &samples.y_star[i];
                if rows.is_empty() || cols.is_empty() {
                    continue;
                }
                let a = h2_kernels::kernel_matrix(kernel, tree.points(), rows, cols);
                let t = Instant::now();
                std::hint::black_box(h2_linalg::id::row_id(&a, Truncation::tol(tol * 0.1)));
                row_id_s += t.elapsed().as_secs_f64();
            }
        }
    });
    m.set("linalg.row_id_ms", row_id_s * 1e3);
}
