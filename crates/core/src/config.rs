//! Configuration for H² construction.

use crate::builders::sketched::SketchParams;
use crate::cache::CacheBudget;
use h2_points::tree::TreeParams;
use h2_sampling::SampleParams;

/// How generator matrices are held during matvecs (paper §II-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemoryMode {
    /// Coupling and nearfield blocks are materialized at construction time
    /// and reused by every matvec — fastest matvec, largest footprint.
    Normal,
    /// Only skeleton/proxy information is stored; coupling and nearfield
    /// blocks are regenerated just-in-time inside each matvec and discarded
    /// — roughly an order of magnitude less memory, slower matvec, much
    /// faster construction.
    OnTheFly,
}

impl MemoryMode {
    /// Harness CLI name.
    pub fn name(self) -> &'static str {
        match self {
            MemoryMode::Normal => "normal",
            MemoryMode::OnTheFly => "on-the-fly",
        }
    }

    /// Parses the harness CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "normal" => Some(MemoryMode::Normal),
            "otf" | "on-the-fly" => Some(MemoryMode::OnTheFly),
            _ => None,
        }
    }
}

/// How farfield bases are constructed.
#[derive(Clone, Debug)]
pub enum BasisMethod {
    /// The paper's contribution: hierarchical anchor-net sampling of the
    /// farfield followed by a rank-revealing interpolative decomposition
    /// per node. Ranks adapt to the kernel and the requested tolerance.
    DataDriven {
        /// Sampling budgets for Algorithm 1.
        samples: SampleParams,
        /// Relative tolerance of the per-node interpolative decomposition.
        id_tol: f64,
    },
    /// The baseline: Chebyshev tensor-grid interpolation with `order` points
    /// per axis, i.e. a uniform rank of `order^dim` for every node.
    Interpolation {
        /// Points per axis of the tensor grid.
        order: usize,
    },
}

impl BasisMethod {
    /// Data-driven basis sized for a target relative accuracy in `dim`
    /// dimensions.
    pub fn data_driven_for_tol(tol: f64, dim: usize) -> Self {
        BasisMethod::DataDriven {
            samples: SampleParams::for_tolerance(tol, dim),
            id_tol: tol * 0.1,
        }
    }

    /// Interpolation basis sized for a target relative accuracy in `dim`
    /// dimensions.
    ///
    /// Chebyshev interpolation of an analytic kernel over well-separated
    /// (`eta = 0.7`) clusters converges geometrically in the per-axis order.
    /// Measured calibration (3D Coulomb, eta = 0.7, see EXPERIMENTS.md):
    /// order 4 → 4e-5, 5 → 7e-6, 6 → 1e-6, 7 → 1.4e-7, 8 → 3e-8 — i.e.
    /// close to one decimal digit per point per axis.
    pub fn interpolation_for_tol(tol: f64, _dim: usize) -> Self {
        let digits = (-tol.log10()).clamp(1.0, 16.0);
        let order = (digits.ceil() as usize).clamp(2, 12);
        BasisMethod::Interpolation { order }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            BasisMethod::DataDriven { .. } => "data-driven",
            BasisMethod::Interpolation { .. } => "interpolation",
        }
    }
}

/// Which construction pipeline produces the per-node generators.
///
/// Orthogonal to [`BasisMethod`]: the strategy picks the *pipeline*
/// (deterministic anchor-net sweeps vs. randomized sketching), while
/// `basis` tunes the deterministic pipeline's flavor. When the strategy is
/// [`BuilderStrategy::Sketched`], the sketch parameters fully determine the
/// basis construction and `basis` is ignored (the sketched path always
/// produces data-point skeletons, so coupling structure is unchanged).
#[derive(Clone, Debug, Default)]
pub enum BuilderStrategy {
    /// The paper's deterministic pipeline: the method selected by
    /// [`H2Config::basis`] (anchor-net data-driven sampling by default).
    #[default]
    AnchorNet,
    /// Randomized sketched construction with the adaptive-rank loop
    /// ([`crate::builders::sketched`]): farfield columns × Gaussian test matrices,
    /// row-ID of the sketch, rank doubling on probe-residual failure.
    Sketched(SketchParams),
}

impl BuilderStrategy {
    /// Sketched strategy sized for a target relative accuracy.
    pub fn sketched_for_tol(tol: f64, dim: usize) -> Self {
        BuilderStrategy::Sketched(SketchParams::for_tolerance(tol, dim))
    }

    /// Harness CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            BuilderStrategy::AnchorNet => "anchor-net",
            BuilderStrategy::Sketched(_) => "sketched",
        }
    }
}

/// How an operator's generators were constructed — carried on the built
/// operator and through persistence so serving surfaces can report it.
///
/// Unknown codes (files written by newer builds) are *surfaced, never
/// rejected*: an operator loads fine and reports `unknown(code)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BuilderProvenance {
    /// Anchor-net data-driven sampling (the paper's pipeline).
    #[default]
    AnchorNet,
    /// Randomized sketched construction.
    Sketched,
    /// Chebyshev tensor-grid interpolation.
    Interpolation,
    /// A provenance code this build does not know about.
    Unknown(u8),
}

impl BuilderProvenance {
    /// Stable on-disk code (the codec's provenance byte).
    pub fn code(self) -> u8 {
        match self {
            BuilderProvenance::AnchorNet => 0,
            BuilderProvenance::Sketched => 1,
            BuilderProvenance::Interpolation => 2,
            BuilderProvenance::Unknown(c) => c,
        }
    }

    /// Inverse of [`code`](Self::code); unknown bytes are preserved.
    pub fn from_code(c: u8) -> Self {
        match c {
            0 => BuilderProvenance::AnchorNet,
            1 => BuilderProvenance::Sketched,
            2 => BuilderProvenance::Interpolation,
            // 3 was proxy-surface; never reuse it.
            other => BuilderProvenance::Unknown(other),
        }
    }

    /// Display name (`unknown` for unrecognized codes; pair with
    /// [`code`](Self::code) when the exact byte matters).
    pub fn name(self) -> &'static str {
        match self {
            BuilderProvenance::AnchorNet => "anchor-net",
            BuilderProvenance::Sketched => "sketched",
            BuilderProvenance::Interpolation => "interpolation",
            BuilderProvenance::Unknown(_) => "unknown",
        }
    }
}

/// Full construction configuration.
#[derive(Clone, Debug)]
pub struct H2Config {
    /// Basis construction method.
    pub basis: BasisMethod,
    /// Construction pipeline; [`BuilderStrategy::Sketched`] takes precedence
    /// over `basis` (see [`BuilderStrategy`]).
    pub builder: BuilderStrategy,
    /// Key of the sketched builder's counter-RNG streams (bit-reproducible
    /// builds for a fixed seed) and of nothing else: anchor-net sampling,
    /// and interpolation are deterministic and never read it.
    pub seed: u64,
    /// Memory mode for coupling/nearfield blocks.
    pub mode: MemoryMode,
    /// Maximum points per leaf of the cluster tree.
    pub leaf_size: usize,
    /// Well-separation parameter (the paper uses 0.7).
    pub eta: f64,
    /// Byte budget of the tiered block cache installed over on-the-fly
    /// operators ([`CacheBudget::Off`] = pure on-the-fly; resolving to the
    /// full block footprint reproduces normal-mode residency). Ignored in
    /// normal mode, where every block is materialized anyway.
    pub cache_budget: CacheBudget,
}

impl Default for H2Config {
    fn default() -> Self {
        H2Config {
            basis: BasisMethod::data_driven_for_tol(1e-8, 3),
            builder: BuilderStrategy::AnchorNet,
            seed: 0,
            mode: MemoryMode::Normal,
            leaf_size: 128,
            eta: 0.7,
            cache_budget: CacheBudget::Off,
        }
    }
}

impl H2Config {
    /// Tree construction parameters implied by this config.
    pub fn tree_params(&self) -> TreeParams {
        TreeParams::with_leaf_size(self.leaf_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parse_round_trip() {
        assert_eq!(MemoryMode::parse("normal"), Some(MemoryMode::Normal));
        assert_eq!(MemoryMode::parse("otf"), Some(MemoryMode::OnTheFly));
        assert_eq!(MemoryMode::parse("on-the-fly"), Some(MemoryMode::OnTheFly));
        assert_eq!(MemoryMode::parse("x"), None);
    }

    #[test]
    fn interpolation_order_grows_with_accuracy() {
        let loose = match BasisMethod::interpolation_for_tol(1e-2, 3) {
            BasisMethod::Interpolation { order } => order,
            _ => unreachable!(),
        };
        let tight = match BasisMethod::interpolation_for_tol(1e-10, 3) {
            BasisMethod::Interpolation { order } => order,
            _ => unreachable!(),
        };
        assert!(tight > loose);
    }

    #[test]
    fn default_config_sane() {
        let c = H2Config::default();
        assert_eq!(c.leaf_size, 128);
        assert!((c.eta - 0.7).abs() < 1e-15);
        assert_eq!(c.basis.name(), "data-driven");
        assert_eq!(c.builder.name(), "anchor-net");
        assert_eq!(c.seed, 0);
        assert!(c.cache_budget.is_off());
    }

    #[test]
    fn provenance_codes_round_trip() {
        for p in [
            BuilderProvenance::AnchorNet,
            BuilderProvenance::Sketched,
            BuilderProvenance::Interpolation,
        ] {
            assert_eq!(BuilderProvenance::from_code(p.code()), p);
        }
        // Unknown codes survive the round trip and are surfaced, not lost.
        let u = BuilderProvenance::from_code(250);
        assert_eq!(u, BuilderProvenance::Unknown(250));
        assert_eq!(u.code(), 250);
        assert_eq!(u.name(), "unknown");
    }

    #[test]
    fn sketched_strategy_names() {
        assert_eq!(
            BuilderStrategy::sketched_for_tol(1e-6, 3).name(),
            "sketched"
        );
        assert_eq!(BuilderStrategy::default().name(), "anchor-net");
    }
}
