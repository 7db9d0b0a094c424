//! Proxy-surface basis construction — the classic geometric middle ground
//! between data-driven sampling and tensor-grid interpolation.
//!
//! Instead of sampling the *actual* farfield (data-driven) or ignoring it
//! entirely (interpolation), each node is compressed against a synthetic
//! shell of points surrounding its bounding box: any well-separated source
//! distribution is (approximately) representable through the shell, so the
//! row ID against `K(X_i, shell)` yields a skeleton valid for *any*
//! farfield. The price is rank: the shell must be ready for farfield in
//! every direction, so ranks land between the data-driven and
//! interpolation methods (asserted by the structure tests).
//!
//! Skeletons are real data-point indices, so both memory modes work the
//! same way as in the data-driven method.

use super::{nested_skeleton_pass, row_id_against, ColumnSet};
use crate::h2matrix::H2MatrixS;
use h2_linalg::Scalar;
use h2_points::{BoundingBox, ClusterTree, NodeId, PointSet};

/// Parameters of the proxy-surface construction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProxySurfaceParams {
    /// Total synthetic shell points per node (split over two radii).
    pub surface_points: usize,
    /// Relative tolerance of the per-node row ID.
    pub id_tol: f64,
}

impl ProxySurfaceParams {
    /// Shell resolution and ID tolerance matched to a target matvec
    /// accuracy, mirroring the scaling of
    /// [`h2_sampling::SampleParams::for_tolerance`] but with a denser
    /// column set: the shell must cover every direction, not just the
    /// farfield that actually exists.
    pub fn for_tolerance(tol: f64, dim: usize) -> Self {
        let digits = (-tol.log10()).clamp(1.0, 16.0);
        let base = (8.0 * digits) as usize * dim.max(2) / 2;
        ProxySurfaceParams {
            surface_points: (6 * base).clamp(96, 2400),
            id_tol: tol * 0.1,
        }
    }
}

/// Deterministic points on the `dim`-sphere of radius `r` around `center`:
/// SplitMix64-seeded Gaussian directions, normalized. Isotropic in any
/// dimension and reproducible per node.
fn sphere_points(out: &mut PointSet, center: &[f64], r: f64, m: usize, seed: u64) {
    let dim = center.len();
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    let mut unit = || (next() >> 11) as f64 / (1u64 << 53) as f64;
    let mut p = vec![0.0; dim];
    for _ in 0..m {
        // Box-Muller Gaussian direction, rejecting the (measure-zero,
        // but finite-precision) degenerate draw.
        loop {
            let mut norm2 = 0.0;
            for x in p.iter_mut() {
                let (u1, u2) = (unit().max(1e-300), unit());
                *x = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                norm2 += *x * *x;
            }
            if norm2 > 1e-24 {
                let s = r / norm2.sqrt();
                for (x, c) in p.iter_mut().zip(center) {
                    *x = c + *x * s;
                }
                break;
            }
        }
        out.push(&p);
    }
}

/// The two-radius proxy shell of a node: an inner shell just outside the
/// bounding sphere (captures the closest admissible clusters — `eta = 0.7`
/// separation puts them at roughly `1.4x` the diameter) and an outer shell
/// at twice that for the smooth distant field.
fn proxy_shell(bbox: &BoundingBox, params: &ProxySurfaceParams, seed: u64) -> PointSet {
    let center = bbox.center();
    let r0 = 0.5 * bbox.diameter();
    let mut shell = PointSet::empty(bbox.dim());
    let half = params.surface_points / 2;
    sphere_points(&mut shell, &center, 1.5 * r0, half, seed ^ 0xA5A5);
    sphere_points(
        &mut shell,
        &center,
        3.0 * r0,
        params.surface_points - half,
        seed ^ 0x5A5A,
    );
    shell
}

/// Factors every node with the proxy-surface rule: nested row IDs against
/// synthetic shells, restricted to nodes that actually face farfield (the
/// root chain without interaction lists carries rank 0, as in the
/// data-driven method).
pub(crate) fn factor_all<S: Scalar>(h2: &mut H2MatrixS<S>, params: &ProxySurfaceParams) {
    // active[i]: the node or an ancestor has an interaction list — the same
    // nodes for which the data-driven Y_i* is non-empty.
    let tree = &h2.tree;
    let mut active = vec![false; tree.node_count()];
    for level in tree.levels() {
        for &i in level {
            let own = !h2.lists.interaction[i].is_empty();
            let inherited = tree.node(i).parent.is_some_and(|p| active[p]);
            active[i] = own || inherited;
        }
    }

    let (kernel, levels) = (h2.kernel.clone(), tree.levels().to_vec());
    let rule = |tree: &ClusterTree, i: NodeId, rows: &[usize]| {
        let cols = if active[i] {
            ColumnSet::Coords(proxy_shell(&tree.node(i).bbox, params, i as u64))
        } else {
            ColumnSet::Indices(&[])
        };
        let rid = row_id_against(kernel.as_ref(), tree.points(), rows, cols, params.id_tol);
        (rid, ())
    };
    nested_skeleton_pass(h2, &levels, "build.id", rule, drop);
}
