//! # h2-sampling
//!
//! Point-sampling substrate for the data-driven H² construction.
//!
//! The paper selects, for every cluster-tree node `i`, a small surrogate
//! `Y_i*` of its farfield using **anchor-net Nyström sampling** (paper
//! ref \[25\]; implemented here from the paper's own description in §III-D:
//! nearest data points to a low-discrepancy anchor lattice), organised as a
//! **hierarchical sweep** (Algorithm 1) so the total cost stays O(n).
//!
//! - [`halton`]: low-discrepancy sequences used to place anchors.
//! - [`strategies`]: [`anchor_net`], the one sampling rule.
//! - [`hierarchical`]: Algorithm 1 — the bottom-to-top `X_i*` sweep and the
//!   top-to-bottom `Y_i*` sweep over a cluster tree, one task per subtree,
//!   over every node (construction) or a root-closed subset (incremental
//!   updates).
//!
//! ```
//! use h2_points::{gen, tree::{ClusterTree, TreeParams}, admissibility::build_block_lists};
//! use h2_sampling::hierarchical::{hierarchical_sample, SampleParams};
//!
//! let pts = gen::uniform_cube(400, 2, 1);
//! let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(32));
//! let lists = build_block_lists(&tree, 0.7);
//! let samples = hierarchical_sample(&tree, &lists, &SampleParams::default());
//! assert_eq!(samples.x_star.len(), tree.node_count());
//! ```

pub mod farfield;
pub mod halton;
pub mod hierarchical;
pub mod strategies;

pub use farfield::FarfieldRanges;
pub use hierarchical::{
    hierarchical_sample, refresh_x_star, sample_levels, HierarchicalSamples, SampleParams,
};
pub use strategies::anchor_net;
