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

/// Fills `out` (column-major, `a.len() x b.len()`) with the `f64` coupling
/// block `B = K(proxy_a, proxy_b)` — the evaluation step of every
/// materialized coupling block.
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

    /// The block is entrywise [`Kernel::eval`] over the two proxies'
    /// coordinates, column-major.
    fn assert_into_matches(k: &dyn Kernel, pts: &PointSet, a: &ProxyPoints, b: &ProxyPoints) {
        let (xa, xb) = (a.to_points(pts), b.to_points(pts));
        let mut out = vec![f64::NAN; a.len() * b.len()];
        coupling_block_into(k, pts, a, b, &mut out);
        for (c, col) in out.chunks_exact(a.len()).enumerate() {
            for (r, &v) in col.iter().enumerate() {
                assert_eq!(v.to_bits(), k.eval(xa.point(r), xb.point(c)).to_bits());
            }
        }
    }

    #[test]
    fn block_into_matches_block_for_every_proxy_mix() {
        // Grid proxies do not read the global set.
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
