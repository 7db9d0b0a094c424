//! # h2-sketch
//!
//! Randomized **sketched construction** of H² bases — the second construction
//! path of this workspace, next to the paper's anchor-net sampling.
//!
//! Instead of summarizing each node's farfield with a carefully chosen
//! anchor-net sample set `Y_i*` (an O(n) but constant-heavy hierarchical
//! sweep), the sketched builder follows the randomized recipe of *Adaptive
//! Sketching Based Construction of H2 Matrices on GPUs* (Boukaram et al.) and
//! the Hatrix exemplar: draw a handful of **uniform farfield columns**, mix
//! them with a Gaussian or SRHT test matrix, and row-ID the thin sketch
//!
//! ```text
//! Y_i = K(X_i, C_i) · Ω_i          (m_i × (d + p),  |C_i| = c·(d + p))
//! ```
//!
//! The skeleton the ID picks from `Y_i` is validated against *fresh* random
//! probe columns; on failure the target rank `d` **doubles** and the node is
//! re-sketched — the adaptive-rank loop. Because skeletons are still indices
//! of actual data points, the assembled operator keeps the kernel-submatrix
//! coupling structure (`B_{ij} = K(S_i, S_j)`), so both memory modes, the
//! block cache, and the persistence codec work unchanged.
//!
//! Everything is driven by counter-based RNG streams keyed by
//! `(seed, node, round, purpose)`, so a build is **bit-reproducible** for a
//! fixed seed regardless of thread count or scheduling.
//!
//! This crate is the **per-node rule** only ([`sketch_node`]): the bottom-up
//! nesting of skeletons and the installation of bases and transfers belong to
//! `h2-core`'s one nested-skeleton pass, which calls it for every node when
//! the configuration says `BuilderStrategy::Sketched`.

pub mod builder;

pub use builder::{sketch_node, NodeCounts, NodeSketch, SketchStats};
pub use h2_linalg::{CounterRng, SketchKind};

/// Tuning knobs of the sketched builder.
#[derive(Clone, Debug, PartialEq)]
pub struct SketchParams {
    /// Initial target rank `r₀` of the adaptive loop (also the ID rank cap
    /// of the first round).
    pub r0: usize,
    /// Extra sketch columns beyond the target rank (`p` in HMT notation).
    pub oversample: usize,
    /// Farfield columns drawn per sketch column: `|C_i| = sample_factor ·
    /// (d + oversample)`. Larger values make the uniform column sample a
    /// better stand-in for the full farfield at linear extra cost.
    pub sample_factor: usize,
    /// Fresh probe columns used to validate each node's skeleton.
    pub probes: usize,
    /// Hard cap on the adaptive rank doubling.
    pub max_rank: usize,
    /// Test-matrix ensemble.
    pub kind: SketchKind,
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
            oversample: 10,
            sample_factor: 2,
            probes: 16,
            max_rank: (8 * r0).min(4096),
            kind: SketchKind::Gaussian,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_tolerance_scales_with_accuracy() {
        let loose = SketchParams::for_tolerance(1e-2, 3);
        let tight = SketchParams::for_tolerance(1e-10, 3);
        assert!(tight.r0 > loose.r0);
        assert!(tight.id_tol < loose.id_tol);
        assert!(loose.r0 >= 24 && tight.r0 <= 600);
        assert_eq!(loose.kind, SketchKind::Gaussian);
    }

    #[test]
    fn default_matches_core_default_tolerance() {
        let d = SketchParams::default();
        assert!((d.resid_tol - 1e-8).abs() < 1e-20);
        assert!(d.max_rank >= d.r0);
    }
}
