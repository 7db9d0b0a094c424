//! Names no program path calls, kept for h2bench (`benchmark/`), which
//! compiles against this crate's public API.

use crate::Kernel;
use h2_linalg::{panel, Scalar};
use h2_points::PointSet;

/// `y += K(pts[rows], pts[cols]) x` as the on-the-fly sweeps apply a block:
/// [`Kernel::eval_block_into`] into a scratch block, then
/// [`panel::matmat_acc`]. Held by `benchmark/src/replay.rs`.
pub fn apply_block_s<A: Scalar>(
    kernel: &dyn Kernel,
    pts: &PointSet,
    rows: &[usize],
    cols: &[usize],
    x: &[A],
    y: &mut [A],
) {
    let mut block = vec![0.0; rows.len() * cols.len()];
    kernel.eval_block_into(pts, rows, cols, &mut block);
    panel::matmat_acc(&block, rows.len(), cols.len(), 1, x, y);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{kernel_matrix, paper_kernels};
    use h2_linalg::scalar::bits;

    fn check<A: Scalar>() {
        let pts = h2_points::gen::uniform_cube(40, 3, 1);
        let (rows, cols): (Vec<usize>, Vec<usize>) = ((0..13).collect(), (17..40).collect());
        let x: Vec<A> = (0..cols.len())
            .map(|i| A::from_f64(i as f64 * 0.1 - 0.5))
            .collect();
        for (name, k) in paper_kernels() {
            let mut got = vec![A::from_f64(1.0); rows.len()];
            apply_block_s(k.as_ref(), &pts, &rows, &cols, &x, &mut got);
            let block = kernel_matrix(k.as_ref(), &pts, &rows, &cols);
            let mut want = vec![A::from_f64(1.0); rows.len()];
            panel::matmat_acc(block.as_slice(), rows.len(), cols.len(), 1, &x, &mut want);
            assert_eq!(bits(&got), bits(&want), "{name}");
        }
    }

    #[test]
    fn apply_block_s_is_eval_block_into_and_matmat_acc() {
        check::<f64>();
        check::<f32>();
    }
}
