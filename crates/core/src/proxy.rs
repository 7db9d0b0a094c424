//! Per-node proxy points: the information from which coupling blocks are
//! (re)generated.
//!
//! - Data-driven construction: the proxy of node `i` is its **skeleton**, a
//!   list of indices into the global point set, so
//!   `B_{i,j} = K(pts[S_i], pts[S_j])` is a kernel *submatrix* — the paper's
//!   key observation enabling the on-the-fly mode at the cost of a few
//!   stored integers.
//! - Interpolation construction: the proxy is the node's Chebyshev grid,
//!   standalone coordinates regenerable from the node's bounding box; we
//!   store them explicitly (`order^dim · dim` floats per node, still far
//!   smaller than the `order^dim × order^dim` coupling blocks).

use h2_kernels::Kernel;
use h2_linalg::{MatrixS, Scalar};
use h2_points::PointSet;

/// Proxy points of one node.
#[derive(Clone, Debug)]
pub enum ProxyPoints {
    /// Skeleton indices into the global point set (data-driven).
    Indices(Vec<usize>),
    /// Standalone proxy coordinates (interpolation grids).
    Coords(PointSet),
}

impl ProxyPoints {
    /// Number of proxy points (the node's rank).
    pub fn len(&self) -> usize {
        match self {
            ProxyPoints::Indices(v) => v.len(),
            ProxyPoints::Coords(p) => p.len(),
        }
    }

    /// True when the node has rank zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes held (for memory accounting).
    pub fn bytes(&self) -> usize {
        match self {
            ProxyPoints::Indices(v) => v.capacity() * std::mem::size_of::<usize>(),
            ProxyPoints::Coords(p) => p.bytes(),
        }
    }

    /// Materializes this proxy's coordinates (gathering indices if needed).
    pub fn to_points(&self, pts: &PointSet) -> PointSet {
        match self {
            ProxyPoints::Indices(v) => pts.select(v),
            ProxyPoints::Coords(p) => p.clone(),
        }
    }
}

/// Materializes the coupling block `B = K(proxy_a, proxy_b)` in storage
/// scalar `S`. The kernel is always evaluated in `f64` and the entries
/// rounded once on store.
pub fn coupling_block_s<S: Scalar>(
    kernel: &dyn Kernel,
    pts: &PointSet,
    a: &ProxyPoints,
    b: &ProxyPoints,
) -> MatrixS<S> {
    match (a, b) {
        (ProxyPoints::Indices(ra), ProxyPoints::Indices(cb)) => {
            h2_kernels::kernel_matrix_s::<S>(kernel, pts, ra, cb)
        }
        _ => {
            let xa = a.to_points(pts);
            let xb = b.to_points(pts);
            h2_kernels::kernel_cross_matrix_s::<S>(kernel, &xa, &xb)
        }
    }
}

/// Fills `out` (column-major, `a.len() x b.len()`) with the `f64` coupling
/// block — the on-the-fly sweep's generation step, into its reusable
/// scratch buffer.
pub fn coupling_block_into(
    kernel: &dyn Kernel,
    pts: &PointSet,
    a: &ProxyPoints,
    b: &ProxyPoints,
    out: &mut [f64],
) {
    match (a, b) {
        (ProxyPoints::Indices(ra), ProxyPoints::Indices(cb)) => {
            kernel.eval_block_into(pts, ra, cb, out);
        }
        (ProxyPoints::Coords(xa), ProxyPoints::Coords(xb)) => kernel.eval_cross_into(xa, xb, out),
        _ => kernel.eval_cross_into(&a.to_points(pts), &b.to_points(pts), out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_kernels::{Coulomb, Exponential};
    use h2_points::gen;

    /// The scratch fill and the materializing builder agree entry for entry.
    fn assert_into_matches(k: &dyn Kernel, pts: &PointSet, a: &ProxyPoints, b: &ProxyPoints) {
        let block: MatrixS<f64> = coupling_block_s(k, pts, a, b);
        assert_eq!(block.shape(), (a.len(), b.len()));
        let mut out = vec![f64::NAN; a.len() * b.len()];
        coupling_block_into(k, pts, a, b, &mut out);
        assert_eq!(out, block.as_slice());
    }

    #[test]
    fn block_into_matches_block_for_every_proxy_mix() {
        let pts = gen::uniform_cube(40, 3, 1);
        let idx_a = ProxyPoints::Indices((0..8).collect());
        let idx_b = ProxyPoints::Indices((20..35).collect());
        let grid_a = ProxyPoints::Coords(gen::uniform_cube(6, 3, 3));
        let grid_b = ProxyPoints::Coords(gen::uniform_cube(9, 3, 4));
        assert_into_matches(&Coulomb, &pts, &idx_a, &idx_b);
        assert_into_matches(&Exponential, &pts, &grid_a, &grid_b);
        assert_into_matches(&Coulomb, &pts, &idx_a, &grid_b);
    }

    #[test]
    fn coords_block_evaluates_the_grid_points() {
        let pts = gen::uniform_cube(5, 2, 2); // global set, unused by Coords
        let ga = gen::uniform_cube(6, 2, 3);
        let gb = gen::uniform_cube(9, 2, 4);
        let block: MatrixS<f64> = coupling_block_s(
            &Exponential,
            &pts,
            &ProxyPoints::Coords(ga.clone()),
            &ProxyPoints::Coords(gb.clone()),
        );
        assert_eq!(
            block[(2, 3)],
            h2_kernels::Kernel::eval(&Exponential, ga.point(2), gb.point(3))
        );
    }

    #[test]
    fn f32_block_is_rounded_f64_block() {
        let pts = gen::uniform_cube(30, 3, 9);
        let a = ProxyPoints::Indices((0..7).collect());
        let b = ProxyPoints::Indices((10..22).collect());
        let b64: MatrixS<f64> = coupling_block_s(&Coulomb, &pts, &a, &b);
        let b32: MatrixS<f32> = coupling_block_s(&Coulomb, &pts, &a, &b);
        for i in 0..7 {
            for j in 0..12 {
                assert_eq!(b32[(i, j)], b64[(i, j)] as f32);
            }
        }
    }

    #[test]
    fn bytes_and_len() {
        let p = ProxyPoints::Indices(vec![1, 2, 3]);
        assert_eq!(p.len(), 3);
        assert!(p.bytes() >= 24);
        let c = ProxyPoints::Coords(gen::uniform_cube(4, 3, 7));
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
        assert!(ProxyPoints::Indices(vec![]).is_empty());
    }
}
