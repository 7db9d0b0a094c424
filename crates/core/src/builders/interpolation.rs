//! Interpolation-based (Chebyshev tensor grid) basis construction — the
//! kernel-independent baseline the paper compares against.
//!
//! Every node gets an `order^dim` tensor grid on its bounding box. The leaf
//! basis evaluates the grid's Lagrange polynomials at the node's points;
//! a transfer evaluates the parent grid's polynomials at the child grid
//! (polynomial nesting); coupling blocks are kernel evaluations between
//! grids. Ranks are uniform — the grid ignores both kernel and data, which
//! is exactly the overhead the data-driven method removes.

use super::Generators;
use crate::cheb::ChebGrid;
use crate::proxy::ProxyPoints;
use h2_linalg::Matrix;
use h2_points::{ClusterTree, NodeId};
use rayon::prelude::*;

/// Builds the uniform-rank Chebyshev generators at the given order.
pub(crate) fn generators(tree: &ClusterTree, order: usize) -> Generators {
    assert!(order >= 2, "interpolation order must be at least 2");
    let n_nodes = tree.node_count();
    let grids: Vec<ChebGrid> = tree
        .nodes()
        .iter()
        .map(|nd| ChebGrid::new(&nd.bbox, order))
        .collect();

    let computed: Vec<(NodeId, Matrix, Matrix)> = (0..n_nodes)
        .into_par_iter()
        .map(|i| {
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
            (i, basis, transfer)
        })
        .collect();

    let mut bases = vec![Matrix::zeros(0, 0); n_nodes];
    let mut transfers = vec![Matrix::zeros(0, 0); n_nodes];
    for (i, basis, transfer) in computed {
        bases[i] = basis;
        transfers[i] = transfer;
    }
    let ranks: Vec<usize> = grids.iter().map(|g| g.len()).collect();
    let proxies: Vec<ProxyPoints> = grids
        .iter()
        .map(|g| ProxyPoints::Coords(g.points()))
        .collect();
    Generators {
        bases,
        transfers,
        proxies,
        ranks,
    }
}
