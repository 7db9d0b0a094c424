//! Interpolation-based (Chebyshev tensor grid) basis construction — the
//! kernel-independent baseline the paper compares against.
//!
//! Every node gets an `order^dim` tensor grid on its bounding box. The leaf
//! basis evaluates the grid's Lagrange polynomials at the node's points;
//! a transfer evaluates the parent grid's polynomials at the child grid
//! (polynomial nesting); coupling blocks are kernel evaluations between
//! grids. Ranks are uniform — the grid ignores both kernel and data, which
//! is exactly the overhead the data-driven method removes.

use crate::cheb::ChebGrid;
use crate::h2matrix::H2MatrixS;
use crate::proxy::ProxyPoints;
use h2_linalg::{exec, BasisMatrix, Matrix, Scalar};
use h2_points::NodeId;

/// Installs the uniform-rank Chebyshev generators at the given order in
/// every node: evaluated in `f64` and rounded to the storage scalar exactly
/// once, by the task that evaluated them.
pub(crate) fn factor_all<S: Scalar>(h2: &mut H2MatrixS<S>, order: usize) {
    assert!(order >= 2, "interpolation order must be at least 2");
    let tree = &h2.tree;
    let grids: Vec<ChebGrid> = tree
        .nodes()
        .iter()
        .map(|nd| ChebGrid::new(&nd.bbox, order))
        .collect();

    // Every node is independent of every other: one step of the executor.
    let ids: Vec<NodeId> = (0..tree.node_count()).collect();
    let generators = exec::map(&ids, |&i| {
        let nd = tree.node(i);
        let basis = if nd.is_leaf() {
            grids[i].lagrange_eval_matrix(&tree.node_points(i))
        } else {
            Matrix::zeros(0, 0)
        };
        let transfer = match nd.parent {
            Some(p) => grids[p].lagrange_eval_matrix(&grids[i].points()),
            None => Matrix::zeros(0, 0),
        };
        let hold = |m: Matrix| BasisMatrix::from_dense(m.convert::<S>());
        (hold(basis), hold(transfer))
    });
    (h2.bases, h2.transfers) = generators.into_iter().unzip();
    h2.ranks = grids.iter().map(|g| g.len()).collect();
    h2.proxies = grids
        .iter()
        .map(|g| ProxyPoints::Coords(g.points()))
        .collect();
}
